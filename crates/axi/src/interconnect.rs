//! The AXI read interconnect: N masters, one memory port.
//!
//! This is the "AXI-MEM" interconnect of the paper's Fig. 2 — the component
//! whose data channel moves **one 64-bit beat per cycle of its own clock
//! domain**. Clocked at the Zynq's standard 100 MHz fabric clock, that is an
//! 800 MB/s ceiling; with DRAM refresh stalls the sustained rate lands near
//! 790 MB/s, which is exactly the throughput plateau the paper measures once
//! the ICAP clock exceeds ~200 MHz (Fig. 5).

use pdr_sim_core::json::{FromJson, Json, JsonError, ToJson};
use pdr_sim_core::{
    fifo_channel, impl_json_struct, Component, Consumer, EdgeCtx, NextWake, Producer, WakeSignal,
};

use crate::mm::{ReadBeat, ReadReq};

/// Per-master ports held by the interconnect.
#[derive(Debug)]
struct MasterPort {
    req_in: Consumer<ReadReq>,
    beat_out: Producer<ReadBeat>,
}

/// Counters describing interconnect activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InterconnectStats {
    /// Requests forwarded to the memory port.
    pub requests: u64,
    /// Data beats routed back to masters.
    pub beats: u64,
    /// Cycles the data channel had a beat but the target master was full.
    pub data_stalls: u64,
    /// Cycles the data channel had nothing to route.
    pub data_idle: u64,
}

impl_json_struct!(InterconnectStats {
    requests,
    beats,
    data_stalls,
    data_idle
});

/// The interconnect component. Register it on the fabric interconnect clock
/// domain (100 MHz on the modelled ZedBoard design).
#[derive(Debug)]
pub struct ReadInterconnect {
    name: String,
    masters: Vec<MasterPort>,
    slave_req_out: Producer<ReadReq>,
    slave_beat_in: Consumer<ReadBeat>,
    /// Round-robin pointer over masters for the address channel.
    rr_next: usize,
    stats: InterconnectStats,
    /// Domain cycle up to which `data_idle`/`data_stalls` are synchronised
    /// (event skipping).
    last_cycle: u64,
    /// Whether the edges after the last dispatched one stalled on a full
    /// master (else they idled), recorded at the end of every edge;
    /// next_wake wakes the interconnect whenever it no longer matches.
    stalled: bool,
}

/// Endpoints handed to a master when it is attached.
#[derive(Debug)]
pub struct MasterEndpoints {
    /// Where the master pushes burst requests.
    pub req: Producer<ReadReq>,
    /// Where the master pops its data beats.
    pub beats: Consumer<ReadBeat>,
}

/// Endpoints handed to the memory controller.
#[derive(Debug)]
pub struct SlaveEndpoints {
    /// Where the memory pops forwarded requests.
    pub req: Consumer<ReadReq>,
    /// Where the memory pushes data beats.
    pub beats: Producer<ReadBeat>,
}

impl ReadInterconnect {
    /// Creates an interconnect and its memory-side endpoints.
    ///
    /// `req_depth`/`beat_depth` size the slave-side FIFOs (a few requests
    /// and a handful of beats, like real interconnect skid buffers).
    pub fn new(name: &str, req_depth: usize, beat_depth: usize) -> (Self, SlaveEndpoints) {
        let (req_tx, req_rx) = fifo_channel(&format!("{name}.slave-req"), req_depth);
        let (beat_tx, beat_rx) = fifo_channel(&format!("{name}.slave-beats"), beat_depth);
        (
            ReadInterconnect {
                name: name.to_string(),
                masters: Vec::new(),
                slave_req_out: req_tx,
                slave_beat_in: beat_rx,
                rr_next: 0,
                stats: InterconnectStats::default(),
                last_cycle: 0,
                stalled: false,
            },
            SlaveEndpoints {
                req: req_rx,
                beats: beat_tx,
            },
        )
    }

    /// Attaches a master, returning its endpoints. The master **must** tag
    /// its requests with the returned port index as `id`.
    ///
    /// `beat_depth` sizes the master's response FIFO (the skid buffer in
    /// front of the master's clock-domain crossing).
    pub fn add_master(&mut self, beat_depth: usize) -> (u8, MasterEndpoints) {
        let idx = self.masters.len();
        assert!(idx < 256, "too many masters");
        let (req_tx, req_rx) = fifo_channel(&format!("{}.m{idx}-req", self.name), 4);
        let (beat_tx, beat_rx) = fifo_channel(&format!("{}.m{idx}-beats", self.name), beat_depth);
        self.masters.push(MasterPort {
            req_in: req_rx,
            beat_out: beat_tx,
        });
        (
            idx as u8,
            MasterEndpoints {
                req: req_tx,
                beats: beat_rx,
            },
        )
    }

    /// Activity counters.
    pub fn stats(&self) -> InterconnectStats {
        self.stats
    }

    /// What the next edge would do with the current inputs: `None` when it
    /// has work (a request to forward or a beat to route), else whether it
    /// would only count a data stall (`true`) or an idle cycle (`false`).
    fn quiescent_as(&self) -> Option<bool> {
        let addr_work =
            self.slave_req_out.can_push() && self.masters.iter().any(|m| !m.req_in.is_empty());
        if addr_work {
            return None;
        }
        match self
            .slave_beat_in
            .peek_with(|beat| self.masters[beat.id as usize].beat_out.can_push())
        {
            None => Some(false),
            Some(true) => None,
            Some(false) => Some(true),
        }
    }
}

impl Component for ReadInterconnect {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        let cycle = ctx.cycle();
        self.catch_up(cycle - 1);
        self.last_cycle = cycle;
        // Address channel: forward one request per cycle, round-robin.
        if self.slave_req_out.can_push() && !self.masters.is_empty() {
            let n = self.masters.len();
            for off in 0..n {
                let i = (self.rr_next + off) % n;
                if let Some(req) = self.masters[i].req_in.pop() {
                    debug_assert_eq!(
                        req.id as usize, i,
                        "master {i} must tag requests with its port index"
                    );
                    self.slave_req_out
                        .try_push(req)
                        .expect("checked can_push above");
                    self.stats.requests += 1;
                    self.rr_next = (i + 1) % n;
                    break;
                }
            }
        }

        // Data channel: route one beat per cycle back to its master.
        match self.slave_beat_in.peek() {
            Some(beat) => {
                let port = &self.masters[beat.id as usize];
                if port.beat_out.can_push() {
                    let beat = self.slave_beat_in.pop().expect("peeked beat vanished");
                    port.beat_out.try_push(beat).expect("checked can_push");
                    self.stats.beats += 1;
                } else {
                    self.stats.data_stalls += 1;
                }
            }
            None => self.stats.data_idle += 1,
        }
        self.stalled = self.quiescent_as() == Some(true);
    }

    fn next_wake(&self, _now_cycle: u64) -> NextWake {
        // Every skipped edge would only count data-channel idleness or a
        // stall on a full master, whichever was recorded; catch_up folds
        // that in closed form.
        match self.quiescent_as() {
            Some(stalled) if stalled == self.stalled => NextWake::Idle,
            _ => NextWake::EveryCycle,
        }
    }

    fn wake_signals(&self) -> Option<Vec<WakeSignal>> {
        let mut signals = vec![
            self.slave_req_out.wake_signal(),
            self.slave_beat_in.wake_signal(),
        ];
        for m in &self.masters {
            signals.push(m.req_in.wake_signal());
            signals.push(m.beat_out.wake_signal());
        }
        Some(signals)
    }

    fn catch_up(&mut self, cycle: u64) {
        if cycle > self.last_cycle {
            let k = cycle - self.last_cycle;
            if self.stalled {
                self.stats.data_stalls += k;
            } else {
                self.stats.data_idle += k;
            }
            self.last_cycle = cycle;
        }
    }

    fn snapshot_state(&self) -> Json {
        // The interconnect consumes the slave beat FIFO and every master's
        // request FIFO, so it serialises all of them.
        let masters: Vec<Json> = self
            .masters
            .iter()
            .map(|m| m.req_in.fifo().snapshot_json())
            .collect();
        Json::Obj(vec![
            ("rr_next".to_string(), (self.rr_next as u64).to_json()),
            ("stats".to_string(), self.stats.to_json()),
            ("last_cycle".to_string(), self.last_cycle.to_json()),
            ("stalled".to_string(), self.stalled.to_json()),
            (
                "slave_beats".to_string(),
                self.slave_beat_in.fifo().snapshot_json(),
            ),
            ("master_reqs".to_string(), Json::Arr(masters)),
        ])
    }

    fn restore_state(&mut self, state: &Json) -> Result<(), JsonError> {
        self.rr_next = u64::from_json(state.get("rr_next").unwrap_or(&Json::Null))? as usize;
        self.stats = InterconnectStats::from_json(state.get("stats").unwrap_or(&Json::Null))?;
        self.last_cycle = u64::from_json(state.get("last_cycle").unwrap_or(&Json::Null))?;
        // Absent from checkpoints of interconnects that never slept on a
        // stall; `false` then just wakes a stalled one to re-record it.
        self.stalled = match state.get("stalled") {
            None => false,
            Some(v) => bool::from_json(v)?,
        };
        self.slave_beat_in
            .fifo()
            .restore_json(state.get("slave_beats").unwrap_or(&Json::Null))?;
        let reqs = state
            .get("master_reqs")
            .and_then(Json::as_array)
            .ok_or_else(|| JsonError {
                msg: "interconnect snapshot missing master_reqs".to_string(),
            })?;
        if reqs.len() != self.masters.len() {
            return Err(JsonError {
                msg: format!(
                    "interconnect snapshot has {} masters, engine has {}",
                    reqs.len(),
                    self.masters.len()
                ),
            });
        }
        for (m, v) in self.masters.iter().zip(reqs) {
            m.req_in.fifo().restore_json(v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_sim_core::{Engine, Frequency, SimDuration};

    /// A memory stub that answers every request with `beats` incrementing
    /// data words, one beat per cycle.
    struct MemStub {
        ep: SlaveEndpoints,
        current: Option<(ReadReq, u16)>,
        counter: u64,
    }
    impl Component for MemStub {
        fn name(&self) -> &str {
            "mem-stub"
        }
        fn on_clock_edge(&mut self, _ctx: &mut EdgeCtx<'_>) {
            if self.current.is_none() {
                self.current = self.ep.req.pop().map(|r| (r, 0));
            }
            if let Some((req, sent)) = self.current {
                if self.ep.beats.can_push() {
                    let last = sent + 1 == req.beats;
                    self.ep
                        .beats
                        .try_push(ReadBeat {
                            id: req.id,
                            data: self.counter,
                            last,
                        })
                        .expect("space checked");
                    self.counter += 1;
                    self.current = if last { None } else { Some((req, sent + 1)) };
                }
            }
        }
    }

    #[test]
    fn single_master_burst_roundtrip() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("axi", Frequency::from_mhz(100));
        let (mut ic, slave) = ReadInterconnect::new("ic", 4, 8);
        let (id, m) = ic.add_master(16);
        assert_eq!(id, 0);
        // Order matters for same-cycle flow: memory first, then interconnect.
        e.add_component(
            MemStub {
                ep: slave,
                current: None,
                counter: 0,
            },
            Some(clk),
        );
        let ic_id = e.add_component(ic, Some(clk));
        m.req.try_push(ReadReq::new(0, 0x1000, 16)).unwrap();
        e.run_for(SimDuration::from_micros(1));
        let mut got = Vec::new();
        while let Some(b) = m.beats.pop() {
            got.push(b);
        }
        assert_eq!(got.len(), 16);
        assert!(got[15].last);
        assert!(!got[14].last);
        assert_eq!(got[0].data, 0);
        let stats = e.component::<ReadInterconnect>(ic_id).stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.beats, 16);
    }

    #[test]
    fn two_masters_get_their_own_data() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("axi", Frequency::from_mhz(100));
        let (mut ic, slave) = ReadInterconnect::new("ic", 4, 8);
        let (id0, m0) = ic.add_master(32);
        let (id1, m1) = ic.add_master(32);
        e.add_component(
            MemStub {
                ep: slave,
                current: None,
                counter: 0,
            },
            Some(clk),
        );
        e.add_component(ic, Some(clk));
        m0.req.try_push(ReadReq::new(id0, 0, 8)).unwrap();
        m1.req.try_push(ReadReq::new(id1, 0x800, 8)).unwrap();
        e.run_for(SimDuration::from_micros(1));
        let c0: Vec<ReadBeat> = std::iter::from_fn(|| m0.beats.pop()).collect();
        let c1: Vec<ReadBeat> = std::iter::from_fn(|| m1.beats.pop()).collect();
        assert_eq!(c0.len(), 8);
        assert_eq!(c1.len(), 8);
        assert!(c0.iter().all(|b| b.id == id0));
        assert!(c1.iter().all(|b| b.id == id1));
    }

    #[test]
    fn data_channel_is_one_beat_per_cycle() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("axi", Frequency::from_mhz(100));
        let (mut ic, slave) = ReadInterconnect::new("ic", 4, 8);
        let (id, m) = ic.add_master(1024);
        e.add_component(
            MemStub {
                ep: slave,
                current: None,
                counter: 0,
            },
            Some(clk),
        );
        e.add_component(ic, Some(clk));
        m.req.try_push(ReadReq::new(id, 0, 64)).unwrap();
        // 64 beats need at least 64 data-channel cycles (+pipeline fill).
        e.run_for(SimDuration::from_nanos(300)); // 30 cycles at 100 MHz
        let got: Vec<ReadBeat> = std::iter::from_fn(|| m.beats.pop()).collect();
        assert!(got.len() <= 30, "routed {} beats in 30 cycles", got.len());
        assert!(got.len() >= 25, "pipeline should be flowing: {}", got.len());
    }

    #[test]
    fn round_robin_shares_bandwidth_fairly_under_saturation() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("axi", Frequency::from_mhz(100));
        let (mut ic, slave) = ReadInterconnect::new("ic", 4, 8);
        let masters: Vec<_> = (0..4).map(|_| ic.add_master(256)).collect();
        e.add_component(
            MemStub {
                ep: slave,
                current: None,
                counter: 0,
            },
            Some(clk),
        );
        e.add_component(ic, Some(clk));
        // Keep all four masters saturated with requests for 50 us.
        let mut delivered = vec![0u64; 4];
        for _ in 0..50 {
            for (id, (mid, m)) in masters.iter().enumerate() {
                debug_assert_eq!(*mid as usize, id);
                while m.req.can_push() {
                    m.req.try_push(ReadReq::new(*mid, 0, 16)).unwrap();
                }
            }
            e.run_for(SimDuration::from_micros(1));
            for (id, (_, m)) in masters.iter().enumerate() {
                while m.beats.pop().is_some() {
                    delivered[id] += 1;
                }
            }
        }
        let total: u64 = delivered.iter().sum();
        assert!(
            total > 4000,
            "link should be near saturation: {delivered:?}"
        );
        let fair = total as f64 / 4.0;
        for (id, &d) in delivered.iter().enumerate() {
            assert!(
                (d as f64 - fair).abs() / fair < 0.05,
                "master {id} got {d} of fair {fair}: {delivered:?}"
            );
        }
    }

    #[test]
    fn back_pressure_counts_stalls_without_losing_beats() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("axi", Frequency::from_mhz(100));
        let (mut ic, slave) = ReadInterconnect::new("ic", 4, 8);
        let (id, m) = ic.add_master(2); // tiny master FIFO: stalls guaranteed
        e.add_component(
            MemStub {
                ep: slave,
                current: None,
                counter: 0,
            },
            Some(clk),
        );
        let ic_id = e.add_component(ic, Some(clk));
        m.req.try_push(ReadReq::new(id, 0, 32)).unwrap();
        e.run_for(SimDuration::from_micros(2));
        // Drain slowly afterwards: every beat must still arrive, in order.
        let mut expect = 0u64;
        loop {
            while let Some(b) = m.beats.pop() {
                assert_eq!(b.data, expect);
                expect += 1;
            }
            if expect == 32 {
                break;
            }
            e.run_for(SimDuration::from_micros(1));
        }
        assert!(e.component::<ReadInterconnect>(ic_id).stats().data_stalls > 0);
    }
}
