//! The QDR-II+ staging SRAM of the proposed Sec. VI architecture.
//!
//! The paper selects a Cypress CY7C2263KV18: independent read and write
//! ports, both DDR at 550 MHz, 36-bit words, 0.45 ns read access. Its
//! bitstream-delivery rate is the paper's headline bound for the redesigned
//! PR system:
//!
//! ```text
//! throughput = 550 MHz · 36 bit / 2 = 1237.5 MB/s
//! ```
//!
//! The read port is modelled as a clocked streamer emitting one 32-bit data
//! word per cycle of a 309.375 MHz domain (= 1237.5 MB/s of payload; the 4
//! parity bits of each 36-bit word carry no payload). Because the QDR ports
//! are independent, pre-loading the *next* bitstream through the write port
//! proceeds concurrently with reads — which is exactly the property the
//! PS Scheduler exploits.

use pdr_axi::width::Word32;
use pdr_sim_core::json::{FromJson, Json, JsonError, ToJson};
use pdr_sim_core::{
    fifo_channel, impl_json_struct, Component, Consumer, EdgeCtx, Frequency, NextWake, Producer,
    SimDuration, WakeSignal,
};

use crate::backing::Backing;

/// SRAM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramConfig {
    /// Capacity in bytes.
    pub capacity: usize,
    /// Read-port payload word rate (one 32-bit word per cycle at this
    /// frequency).
    pub read_word_rate: Frequency,
    /// Write-port payload bandwidth in bytes/second.
    pub write_bw_bytes_per_s: u64,
}

impl SramConfig {
    /// The CY7C2263KV18 data-sheet point: 72 Mbit (9 MB), 1237.5 MB/s on
    /// each port.
    pub fn cy7c2263kv18() -> Self {
        SramConfig {
            capacity: 9 * 1024 * 1024,
            read_word_rate: Frequency::from_hz(309_375_000),
            write_bw_bytes_per_s: 1_237_500_000,
        }
    }
}

/// A range-read command for the SRAM read port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramReadCmd {
    /// Byte address of the first word.
    pub addr: u64,
    /// Number of 32-bit words to stream.
    pub words: u32,
}

impl_json_struct!(SramReadCmd { addr, words });

/// Counters describing SRAM activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SramStats {
    /// Read commands executed.
    pub commands: u64,
    /// Words streamed out.
    pub words: u64,
    /// Cycles the output FIFO back-pressured the port.
    pub output_stalls: u64,
    /// Bytes pre-loaded through the write port.
    pub preloaded_bytes: u64,
}

impl_json_struct!(SramStats {
    commands,
    words,
    output_stalls,
    preloaded_bytes
});

/// The QDR SRAM: backing storage plus a streaming read port.
///
/// Bind the component to a clock domain running at
/// [`SramConfig::read_word_rate`].
#[derive(Debug)]
pub struct QdrSram {
    name: String,
    config: SramConfig,
    backing: Backing,
    cmd_in: Consumer<SramReadCmd>,
    data_out: Producer<Word32>,
    /// Remaining words of the in-flight command and its cursor.
    current: Option<(u64, u32)>,
    stats: SramStats,
}

/// Endpoints for the SRAM's user (the PR controller).
#[derive(Debug)]
pub struct SramPorts {
    /// Where read commands are pushed.
    pub cmd: Producer<SramReadCmd>,
    /// Where streamed words are popped.
    pub data: Consumer<Word32>,
}

impl QdrSram {
    /// Creates the SRAM and its user-side ports. `data_depth` sizes the
    /// output FIFO.
    pub fn new(name: &str, config: SramConfig) -> (Self, SramPorts) {
        let (cmd_tx, cmd_rx) = fifo_channel(&format!("{name}.cmd"), 4);
        let (data_tx, data_rx) = fifo_channel(&format!("{name}.data"), 64);
        (
            QdrSram {
                name: name.to_string(),
                backing: Backing::new(config.capacity),
                config,
                cmd_in: cmd_rx,
                data_out: data_tx,
                current: None,
                stats: SramStats::default(),
            },
            SramPorts {
                cmd: cmd_tx,
                data: data_rx,
            },
        )
    }

    /// The SRAM configuration.
    pub fn config(&self) -> SramConfig {
        self.config
    }

    /// Activity counters.
    pub fn stats(&self) -> SramStats {
        self.stats
    }

    /// True when no command is in flight and none is queued.
    pub fn is_idle(&self) -> bool {
        self.current.is_none() && self.cmd_in.is_empty()
    }

    /// Pre-loads `data` at `addr` through the write port, returning the time
    /// the transfer occupies on that port. Because the QDR write port is
    /// independent of the read port, the caller overlaps this duration with
    /// whatever else is running — the PS Scheduler's whole trick.
    ///
    /// # Panics
    ///
    /// Panics if the write exceeds the SRAM capacity.
    pub fn preload(&mut self, addr: u64, data: &[u8]) -> SimDuration {
        self.backing.write(addr, data);
        self.stats.preloaded_bytes += data.len() as u64;
        SimDuration::from_secs_f64(data.len() as f64 / self.config.write_bw_bytes_per_s as f64)
    }
}

impl Component for QdrSram {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_clock_edge(&mut self, _ctx: &mut EdgeCtx<'_>) {
        if self.current.is_none() {
            if let Some(cmd) = self.cmd_in.pop() {
                self.stats.commands += 1;
                if cmd.words > 0 {
                    self.current = Some((cmd.addr, cmd.words));
                }
                // Command decode consumes this cycle (the 0.45 ns access
                // falls inside the first data cycle).
                return;
            }
            return;
        }
        if !self.data_out.can_push() {
            self.stats.output_stalls += 1;
            return;
        }
        let (addr, remaining) = self.current.expect("checked above");
        let word = self.backing.read_u32(addr);
        let last = remaining == 1;
        self.data_out
            .try_push(Word32 { data: word, last })
            .expect("checked can_push");
        self.stats.words += 1;
        self.current = if last {
            None
        } else {
            Some((addr + 4, remaining - 1))
        };
    }

    fn next_wake(&self, _now_cycle: u64) -> NextWake {
        // No command in flight and none queued: the edge pops nothing and
        // returns — a pure no-op until a master pushes a command.
        if self.is_idle() {
            NextWake::Idle
        } else {
            NextWake::EveryCycle
        }
    }

    fn wake_signals(&self) -> Option<Vec<WakeSignal>> {
        Some(vec![self.cmd_in.wake_signal()])
    }

    fn snapshot_state(&self) -> Json {
        // The SRAM owns its backing (created in `new`), so it serialises the
        // contents itself, unlike DRAM whose backing is shared system state.
        let current = match self.current {
            None => Json::Null,
            Some((addr, remaining)) => Json::Obj(vec![
                ("addr".to_string(), addr.to_json()),
                ("remaining".to_string(), remaining.to_json()),
            ]),
        };
        Json::Obj(vec![
            ("current".to_string(), current),
            ("stats".to_string(), self.stats.to_json()),
            ("backing".to_string(), self.backing.snapshot_json()),
            ("cmd_in".to_string(), self.cmd_in.fifo().snapshot_json()),
        ])
    }

    fn restore_state(&mut self, state: &Json) -> Result<(), JsonError> {
        self.current = match state.get("current") {
            None | Some(Json::Null) => None,
            Some(v) => Some((
                u64::from_json(v.get("addr").unwrap_or(&Json::Null))?,
                u32::from_json(v.get("remaining").unwrap_or(&Json::Null))?,
            )),
        };
        self.stats = SramStats::from_json(state.get("stats").unwrap_or(&Json::Null))?;
        self.backing
            .restore_json(state.get("backing").unwrap_or(&Json::Null))?;
        self.cmd_in
            .fifo()
            .restore_json(state.get("cmd_in").unwrap_or(&Json::Null))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_sim_core::{Engine, SimTime};

    fn harness() -> (Engine, SramPorts, pdr_sim_core::ComponentId) {
        let mut e = Engine::new();
        let cfg = SramConfig::cy7c2263kv18();
        let clk = e.add_clock_domain("sram", cfg.read_word_rate);
        let (sram, ports) = QdrSram::new("sram", cfg);
        let id = e.add_component(sram, Some(clk));
        (e, ports, id)
    }

    #[test]
    fn streams_preloaded_words_in_order() {
        let (mut e, ports, id) = harness();
        {
            let sram = e.component_mut::<QdrSram>(id);
            let bytes: Vec<u8> = (0..64u32).flat_map(|w| w.to_le_bytes()).collect();
            let d = sram.preload(0x40, &bytes);
            assert!(d.as_nanos_f64() > 0.0);
        }
        ports
            .cmd
            .try_push(SramReadCmd {
                addr: 0x40,
                words: 64,
            })
            .unwrap();
        e.run_for(SimDuration::from_micros(1));
        let words: Vec<Word32> = std::iter::from_fn(|| ports.data.pop()).collect();
        assert_eq!(words.len(), 64);
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.data, i as u32);
            assert_eq!(w.last, i == 63);
        }
    }

    #[test]
    fn read_port_rate_is_1237_mb_s() {
        let (mut e, ports, id) = harness();
        {
            let sram = e.component_mut::<QdrSram>(id);
            sram.preload(0, &vec![0xAA; 1 << 20]);
        }
        ports
            .cmd
            .try_push(SramReadCmd {
                addr: 0,
                words: 1 << 18,
            })
            .unwrap();
        // Drain continuously for 100 us and count payload bytes.
        let mut bytes = 0u64;
        let deadline = SimTime::ZERO + SimDuration::from_micros(100);
        while e.now() < deadline {
            e.run_for(SimDuration::from_nanos(200));
            while ports.data.pop().is_some() {
                bytes += 4;
            }
        }
        let mb_s = bytes as f64 / 100e-6 / 1e6;
        assert!(
            (1200.0..=1238.0).contains(&mb_s),
            "read port rate {mb_s:.1} MB/s"
        );
    }

    #[test]
    fn preload_duration_matches_write_bandwidth() {
        let (mut e, _ports, id) = harness();
        let sram = e.component_mut::<QdrSram>(id);
        let d = sram.preload(0, &vec![0; 1_237_500]); // 1 ms at 1237.5 MB/s
        assert!((d.as_secs_f64() - 1e-3).abs() < 1e-9, "{d}");
        assert_eq!(sram.stats().preloaded_bytes, 1_237_500);
    }

    #[test]
    fn queued_commands_execute_in_order() {
        let (mut e, ports, id) = harness();
        {
            let sram = e.component_mut::<QdrSram>(id);
            sram.preload(0, &[1, 0, 0, 0]);
            sram.preload(4, &[2, 0, 0, 0]);
        }
        ports
            .cmd
            .try_push(SramReadCmd { addr: 0, words: 1 })
            .unwrap();
        ports
            .cmd
            .try_push(SramReadCmd { addr: 4, words: 1 })
            .unwrap();
        e.run_for(SimDuration::from_micros(1));
        assert_eq!(ports.data.pop().map(|w| w.data), Some(1));
        assert_eq!(ports.data.pop().map(|w| w.data), Some(2));
        assert!(e.component::<QdrSram>(id).is_idle());
        assert_eq!(e.component::<QdrSram>(id).stats().commands, 2);
    }

    #[test]
    fn out_of_range_reads_stream_zeros() {
        let (mut e, ports, id) = harness();
        let cap = e.component::<QdrSram>(id).config().capacity as u64;
        ports
            .cmd
            .try_push(SramReadCmd {
                addr: cap - 4,
                words: 3,
            })
            .unwrap();
        e.run_for(SimDuration::from_micros(1));
        let words: Vec<Word32> = std::iter::from_fn(|| ports.data.pop()).collect();
        assert_eq!(words.len(), 3);
        assert!(words.iter().all(|w| w.data == 0));
    }

    #[test]
    fn zero_word_command_is_a_noop() {
        let (mut e, ports, _id) = harness();
        ports
            .cmd
            .try_push(SramReadCmd { addr: 0, words: 0 })
            .unwrap();
        e.run_for(SimDuration::from_micros(1));
        assert!(ports.data.pop().is_none());
    }
}
