//! # pdr-dma
//!
//! The AXI DMA (MM2S) engine model: the standard IP block the paper
//! over-clocks. It fetches the bitstream from DRAM through the AXI
//! interconnect in long bursts and streams it out on a 64-bit AXI4-Stream
//! toward the ICAP's width converter.
//!
//! The model follows the Xilinx AXI DMA's *Direct Register Mode* programming
//! interface (PG021): software writes the source address to `MM2S_SA`,
//! sets `MM2S_DMACR.RS`, and arms the transfer by writing the byte count to
//! `MM2S_LENGTH`; completion sets `MM2S_DMASR.IOC` and pulses the interrupt.
//!
//! Why this block saturates — the paper's Fig. 5 plateau — is visible in the
//! model's structure: the memory-side path delivers at most one 64-bit beat
//! per *interconnect* clock (100 MHz ⇒ 800 MB/s), while the stream side
//! emits one 32-bit word per *over-clock* cycle (4 B × f). Below ~200 MHz
//! the stream side is the bottleneck (linear region); above it the memory
//! side is (flat region).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pdr_axi::interconnect::MasterEndpoints;
use pdr_axi::mm::ReadReq;
use pdr_axi::stream::StreamBeat;
use pdr_axi::RegisterFile;
use pdr_sim_core::json::{FromJson, Json, JsonError, ToJson};
use pdr_sim_core::{impl_json_struct, Component, EdgeCtx, IrqLine, NextWake, Producer, WakeSignal};

/// `MM2S_DMACR` control register offset.
pub const REG_DMACR: u32 = 0x00;
/// `MM2S_DMASR` status register offset.
pub const REG_DMASR: u32 = 0x04;
/// `MM2S_SA` source-address register offset.
pub const REG_SA: u32 = 0x18;
/// `MM2S_LENGTH` transfer-length register offset (writing a non-zero value
/// arms the transfer).
pub const REG_LENGTH: u32 = 0x28;

/// `DMACR.RS` (run/stop) bit.
pub const DMACR_RS: u32 = 1 << 0;
/// `DMASR.Halted` bit.
pub const DMASR_HALTED: u32 = 1 << 0;
/// `DMASR.Idle` bit.
pub const DMASR_IDLE: u32 = 1 << 1;
/// `DMASR.IOC_Irq` bit (interrupt on complete).
pub const DMASR_IOC: u32 = 1 << 12;

/// DMA engine parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaConfig {
    /// Beats (8 B each) per AXI read burst. Long bursts amortise
    /// re-arbitration: the paper's throughput plateau sits ~1.5 % under the
    /// interconnect ceiling partly because of burst boundaries.
    pub burst_beats: u16,
    /// Maximum outstanding read bursts (AXI pipelining depth).
    pub max_outstanding: u32,
    /// Engine start-up latency in DMA-clock cycles between the `LENGTH`
    /// write and the first burst request (register synchronisation, command
    /// decode, datamover start).
    pub startup_cycles: u32,
}

impl Default for DmaConfig {
    fn default() -> Self {
        DmaConfig {
            burst_beats: 64,
            max_outstanding: 2,
            startup_cycles: 24,
        }
    }
}

/// Counters describing DMA activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DmaStats {
    /// Transfers completed.
    pub transfers: u64,
    /// Burst requests issued.
    pub bursts: u64,
    /// Beats received from the interconnect.
    pub beats_in: u64,
    /// Beats emitted on the stream side.
    pub beats_out: u64,
    /// Cycles the stream output was back-pressured.
    pub stream_stalls: u64,
    /// Cycles the engine wanted data but the memory path had none.
    pub starved_cycles: u64,
}

impl_json_struct!(DmaStats {
    transfers,
    bursts,
    beats_in,
    beats_out,
    stream_stalls,
    starved_cycles
});

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Halted,
    /// Waiting `remaining` cycles before issuing the first burst.
    Starting {
        remaining: u32,
    },
    /// Transfer in flight.
    Running,
}

/// What a running engine's next edge would do if its inputs stay as they
/// are, when that is nothing but counting a blocked cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocked {
    /// The stream output is full: the edge counts a `stream_stalls` cycle.
    Stream,
    /// No beat has arrived: the edge counts a `starved_cycles` cycle.
    Starved,
}

/// The AXI DMA MM2S engine. Bind it to the over-clock domain.
#[derive(Debug)]
pub struct AxiDma {
    name: String,
    config: DmaConfig,
    regs: RegisterFile,
    port_id: u8,
    mem: MasterEndpoints,
    stream_out: Producer<StreamBeat>,
    irq: IrqLine,
    /// When false, the completion interrupt is electrically dead (the
    /// over-clocked interrupt path has a timing violation).
    irq_functional: bool,
    /// Remaining injected-stall cycles: while non-zero the engine freezes
    /// completely (no requests, no streaming) — the fault model for a hung
    /// memory port or a wedged datamover.
    stall_cycles: u64,
    state: State,
    /// Next fetch address.
    fetch_addr: u64,
    /// Bytes not yet requested.
    bytes_to_request: u64,
    /// Bytes not yet streamed out.
    bytes_to_stream: u64,
    outstanding: u32,
    /// Domain cycle up to which stall/start countdowns are synchronised
    /// (event skipping).
    last_cycle: u64,
    /// Why the edges after the last dispatched one were blocked, recorded
    /// at the end of every edge: catch_up counts the skipped edges by it,
    /// and next_wake wakes the engine as soon as it no longer holds.
    blocked: Option<Blocked>,
    stats: DmaStats,
}

impl AxiDma {
    /// Creates the engine.
    ///
    /// * `regs` — the AXI-Lite register file shared with the processor;
    /// * `port_id`/`mem` — interconnect attachment (see
    ///   [`pdr_axi::interconnect::ReadInterconnect::add_master`]);
    /// * `stream_out` — the 64-bit stream toward the width converter;
    /// * `irq` — the IOC interrupt line.
    pub fn new(
        name: &str,
        config: DmaConfig,
        regs: RegisterFile,
        port_id: u8,
        mem: MasterEndpoints,
        stream_out: Producer<StreamBeat>,
        irq: IrqLine,
    ) -> Self {
        regs.write(REG_DMASR, DMASR_HALTED);
        AxiDma {
            name: name.to_string(),
            config,
            regs,
            port_id,
            mem,
            stream_out,
            irq,
            irq_functional: true,
            stall_cycles: 0,
            state: State::Halted,
            fetch_addr: 0,
            bytes_to_request: 0,
            bytes_to_stream: 0,
            outstanding: 0,
            last_cycle: 0,
            blocked: None,
            stats: DmaStats::default(),
        }
    }

    /// Enables or disables the physical interrupt path (timing-violation
    /// injection; see `pdr-timing`).
    pub fn set_irq_functional(&mut self, functional: bool) {
        self.irq_functional = functional;
    }

    /// Freezes the engine for `cycles` clock edges (fault injection: a hung
    /// HP port or wedged datamover). The stall begins on the next edge and
    /// holds every engine activity — burst requests, stream output,
    /// completion — so a transfer in flight simply stops making progress
    /// until the stall drains or [`AxiDma::abort`] clears it.
    pub fn inject_stall(&mut self, cycles: u64) {
        self.stall_cycles = self.stall_cycles.saturating_add(cycles);
    }

    /// Remaining injected-stall cycles.
    pub fn stall_remaining(&self) -> u64 {
        self.stall_cycles
    }

    /// Activity counters.
    pub fn stats(&self) -> DmaStats {
        self.stats
    }

    /// True while a transfer is in flight.
    pub fn is_busy(&self) -> bool {
        !matches!(self.state, State::Halted)
    }

    /// Hard-stops the engine (DMACR.RS clear + reset): any in-flight
    /// transfer is dropped. In-flight read bursts already issued to the
    /// interconnect will still deliver beats; the caller is responsible for
    /// draining the response FIFO before reuse.
    pub fn abort(&mut self) {
        self.state = State::Halted;
        self.stall_cycles = 0;
        self.bytes_to_request = 0;
        self.bytes_to_stream = 0;
        self.outstanding = 0;
        self.regs.write(REG_LENGTH, 0);
        self.regs.set_bits(REG_DMASR, DMASR_HALTED);
    }

    fn arm_if_requested(&mut self) {
        if !self.regs.bits_set(REG_DMACR, DMACR_RS) {
            return;
        }
        let len = self.regs.read(REG_LENGTH);
        if len == 0 {
            return;
        }
        // Consume the doorbell.
        self.regs.write(REG_LENGTH, 0);
        self.fetch_addr = self.regs.read(REG_SA) as u64;
        self.bytes_to_request = len as u64;
        self.bytes_to_stream = len as u64;
        self.outstanding = 0;
        self.regs.clear_bits(REG_DMASR, DMASR_HALTED | DMASR_IDLE);
        self.state = State::Starting {
            remaining: self.config.startup_cycles,
        };
    }

    /// How the next edge would be blocked, given the current inputs: `None`
    /// when the engine has work (a burst to issue, a beat to stream), is
    /// stalled, or is not running.
    fn blocked_now(&self) -> Option<Blocked> {
        if self.stall_cycles > 0 || self.state != State::Running || self.bytes_to_stream == 0 {
            return None;
        }
        let can_issue = self.bytes_to_request > 0
            && self.outstanding < self.config.max_outstanding
            && self.mem.req.can_push();
        if can_issue {
            None
        } else if !self.stream_out.can_push() {
            Some(Blocked::Stream)
        } else if self.mem.beats.is_empty() {
            Some(Blocked::Starved)
        } else {
            None
        }
    }

    fn issue_requests(&mut self) {
        while self.bytes_to_request > 0
            && self.outstanding < self.config.max_outstanding
            && self.mem.req.can_push()
        {
            let burst_bytes = (self.config.burst_beats as u64 * 8).min(self.bytes_to_request);
            let beats = burst_bytes.div_ceil(8) as u16;
            self.mem
                .req
                .try_push(ReadReq::new(self.port_id, self.fetch_addr, beats))
                .expect("checked can_push");
            self.stats.bursts += 1;
            self.fetch_addr += beats as u64 * 8;
            self.bytes_to_request = self.bytes_to_request.saturating_sub(beats as u64 * 8);
            self.outstanding += 1;
        }
    }

    fn pump_stream(&mut self, ctx: &mut EdgeCtx<'_>) {
        if self.bytes_to_stream == 0 {
            return;
        }
        if !self.stream_out.can_push() {
            self.stats.stream_stalls += 1;
            return;
        }
        match self.mem.beats.pop() {
            Some(beat) => {
                self.stats.beats_in += 1;
                if beat.last {
                    self.outstanding = self.outstanding.saturating_sub(1);
                }
                let last = self.bytes_to_stream <= 8;
                self.stream_out
                    .try_push(StreamBeat::full(beat.data, last))
                    .expect("checked can_push");
                self.stats.beats_out += 1;
                self.bytes_to_stream = self.bytes_to_stream.saturating_sub(8);
                if last {
                    self.complete(ctx);
                }
            }
            None => self.stats.starved_cycles += 1,
        }
    }

    fn complete(&mut self, ctx: &mut EdgeCtx<'_>) {
        self.state = State::Halted;
        self.stats.transfers += 1;
        self.regs.set_bits(REG_DMASR, DMASR_IDLE | DMASR_IOC);
        if self.irq_functional {
            self.irq.raise(ctx.now());
        }
        ctx.trace("dma-complete", self.stats.transfers, 0);
    }

    /// One live edge, after catch_up.
    fn step(&mut self, ctx: &mut EdgeCtx<'_>) {
        if self.stall_cycles > 0 {
            self.stall_cycles -= 1;
            return;
        }
        match self.state {
            State::Halted => self.arm_if_requested(),
            State::Starting { remaining } => {
                if remaining == 0 {
                    self.state = State::Running;
                    self.issue_requests();
                } else {
                    self.state = State::Starting {
                        remaining: remaining - 1,
                    };
                }
            }
            State::Running => {
                self.issue_requests();
                self.pump_stream(ctx);
            }
        }
    }
}

impl Component for AxiDma {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        let cycle = ctx.cycle();
        self.catch_up(cycle - 1);
        self.last_cycle = cycle;
        self.step(ctx);
        self.blocked = self.blocked_now();
    }

    fn next_wake(&self, _now_cycle: u64) -> NextWake {
        if self.stall_cycles > 0 {
            // Wake at the last stall-decrement edge; its authoritative
            // re-poll then answers for the post-stall state.
            return NextWake::In(self.stall_cycles);
        }
        match self.state {
            State::Halted => {
                // A halted engine only polls the doorbell; sleep until the
                // registers actually hold one (register writes wake it).
                if self.regs.peek(REG_DMACR) & DMACR_RS != 0 && self.regs.peek(REG_LENGTH) != 0 {
                    NextWake::EveryCycle
                } else {
                    NextWake::Idle
                }
            }
            // `remaining` countdown edges, then the edge that goes Running.
            State::Starting { remaining } => NextWake::In(remaining as u64 + 1),
            // Blocked edges only count the recorded reason; any FIFO change
            // that lifts or alters it wakes the engine to re-record.
            State::Running => match self.blocked_now() {
                Some(b) if self.blocked == Some(b) => NextWake::Idle,
                _ => NextWake::EveryCycle,
            },
        }
    }

    fn wake_signals(&self) -> Option<Vec<WakeSignal>> {
        Some(vec![
            self.regs.wake_signal(),
            self.mem.req.wake_signal(),
            self.mem.beats.wake_signal(),
            self.stream_out.wake_signal(),
        ])
    }

    fn catch_up(&mut self, cycle: u64) {
        let mut k = cycle.saturating_sub(self.last_cycle);
        self.last_cycle = cycle;
        while k > 0 {
            if self.stall_cycles > 0 {
                let d = self.stall_cycles.min(k);
                self.stall_cycles -= d;
                k -= d;
            } else if let State::Starting { remaining } = &mut self.state {
                // next_wake never sleeps past the remaining==0 work edge.
                debug_assert!(*remaining as u64 >= k, "folded past the DMA start edge");
                let d = (*remaining as u64).min(k);
                *remaining -= d as u32;
                k -= d;
            } else {
                // Halted without a doorbell: every folded edge was a no-op.
                // Running: every folded edge counted the recorded block.
                match (self.state, self.blocked) {
                    (State::Running, Some(Blocked::Stream)) => self.stats.stream_stalls += k,
                    (State::Running, Some(Blocked::Starved)) => self.stats.starved_cycles += k,
                    (State::Running, None) => {
                        debug_assert!(false, "folded a running DMA engine with work")
                    }
                    _ => {}
                }
                break;
            }
        }
    }

    fn snapshot_state(&self) -> Json {
        // The engine owns its register file, its IOC interrupt line, and the
        // consumer side of its interconnect beat FIFO.
        let state = match self.state {
            State::Halted => Json::Obj(vec![("kind".to_string(), Json::Str("halted".into()))]),
            State::Starting { remaining } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("starting".into())),
                ("remaining".to_string(), remaining.to_json()),
            ]),
            State::Running => Json::Obj(vec![("kind".to_string(), Json::Str("running".into()))]),
        };
        Json::Obj(vec![
            ("state".to_string(), state),
            ("irq_functional".to_string(), self.irq_functional.to_json()),
            ("stall_cycles".to_string(), self.stall_cycles.to_json()),
            ("fetch_addr".to_string(), self.fetch_addr.to_json()),
            (
                "bytes_to_request".to_string(),
                self.bytes_to_request.to_json(),
            ),
            (
                "bytes_to_stream".to_string(),
                self.bytes_to_stream.to_json(),
            ),
            ("outstanding".to_string(), self.outstanding.to_json()),
            ("last_cycle".to_string(), self.last_cycle.to_json()),
            (
                "blocked".to_string(),
                match self.blocked {
                    None => Json::Null,
                    Some(Blocked::Stream) => Json::Str("stream".into()),
                    Some(Blocked::Starved) => Json::Str("starved".into()),
                },
            ),
            ("stats".to_string(), self.stats.to_json()),
            ("regs".to_string(), self.regs.snapshot_json()),
            ("irq".to_string(), self.irq.snapshot_json()),
            (
                "beats_in".to_string(),
                self.mem.beats.fifo().snapshot_json(),
            ),
        ])
    }

    fn restore_state(&mut self, state: &Json) -> Result<(), JsonError> {
        let sv = state.get("state").unwrap_or(&Json::Null);
        let kind = sv
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError {
                msg: "dma snapshot missing state".to_string(),
            })?;
        self.state = match kind {
            "halted" => State::Halted,
            "starting" => State::Starting {
                remaining: u32::from_json(sv.get("remaining").unwrap_or(&Json::Null))?,
            },
            "running" => State::Running,
            other => {
                return Err(JsonError {
                    msg: format!("unknown dma state '{other}'"),
                })
            }
        };
        self.irq_functional = bool::from_json(state.get("irq_functional").unwrap_or(&Json::Null))?;
        self.stall_cycles = u64::from_json(state.get("stall_cycles").unwrap_or(&Json::Null))?;
        self.fetch_addr = u64::from_json(state.get("fetch_addr").unwrap_or(&Json::Null))?;
        self.bytes_to_request =
            u64::from_json(state.get("bytes_to_request").unwrap_or(&Json::Null))?;
        self.bytes_to_stream = u64::from_json(state.get("bytes_to_stream").unwrap_or(&Json::Null))?;
        self.outstanding = u32::from_json(state.get("outstanding").unwrap_or(&Json::Null))?;
        self.last_cycle = u64::from_json(state.get("last_cycle").unwrap_or(&Json::Null))?;
        // Absent from checkpoints of engines that never slept while
        // running; `None` then just wakes the engine to re-record it.
        self.blocked = match state.get("blocked") {
            None | Some(Json::Null) => None,
            Some(v) => match v.as_str() {
                Some("stream") => Some(Blocked::Stream),
                Some("starved") => Some(Blocked::Starved),
                _ => {
                    return Err(JsonError {
                        msg: format!("unknown dma block reason {v:?}"),
                    })
                }
            },
        };
        self.stats = DmaStats::from_json(state.get("stats").unwrap_or(&Json::Null))?;
        self.regs
            .restore_json(state.get("regs").unwrap_or(&Json::Null))?;
        self.irq
            .restore_json(state.get("irq").unwrap_or(&Json::Null))?;
        self.mem
            .beats
            .fifo()
            .restore_json(state.get("beats_in").unwrap_or(&Json::Null))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_axi::interconnect::ReadInterconnect;
    use pdr_mem::{Backing, DramConfig, DramController};
    use pdr_sim_core::{fifo_channel, Consumer, Engine, Frequency, IrqBus, SimDuration};

    struct Rig {
        engine: Engine,
        regs: RegisterFile,
        stream: Consumer<StreamBeat>,
        irq: IrqLine,
        dma_id: pdr_sim_core::ComponentId,
        backing: Backing,
    }

    fn rig(dma_mhz: u64) -> Rig {
        let mut e = Engine::new();
        let axi_clk = e.add_clock_domain("axi", Frequency::from_mhz(100));
        let dram_clk = e.add_clock_domain("dram", Frequency::from_mhz(533));
        let oc_clk = e.add_clock_domain("oc", Frequency::from_mhz(dma_mhz));
        let (mut ic, slave) = ReadInterconnect::new("ic", 4, 16);
        let (port, mem) = ic.add_master(64);
        let backing = Backing::new(1 << 20);
        let regs = RegisterFile::new();
        let bus = IrqBus::new();
        let irq = bus.allocate("mm2s-ioc");
        let (stream_tx, stream_rx) = fifo_channel("dma-stream", 128);
        e.add_component(
            DramController::new("dram", DramConfig::ddr3_533(), backing.clone(), slave),
            Some(dram_clk),
        );
        e.add_component(ic, Some(axi_clk));
        let dma = AxiDma::new(
            "dma",
            DmaConfig::default(),
            regs.clone(),
            port,
            mem,
            stream_tx,
            irq.clone(),
        );
        let dma_id = e.add_component(dma, Some(oc_clk));
        Rig {
            engine: e,
            regs,
            stream: stream_rx,
            irq,
            dma_id,
            backing,
        }
    }

    fn start_transfer(r: &Rig, addr: u32, len: u32) {
        r.regs.write(REG_SA, addr);
        r.regs.set_bits(REG_DMACR, DMACR_RS);
        r.regs.write(REG_LENGTH, len);
    }

    #[test]
    fn transfers_correct_bytes_and_raises_ioc() {
        let mut r = rig(100);
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        r.backing.write(0x1000, &payload);
        start_transfer(&r, 0x1000, 4096);
        let mut got = Vec::new();
        for _ in 0..200 {
            r.engine.run_for(SimDuration::from_micros(1));
            while let Some(b) = r.stream.pop() {
                got.extend_from_slice(&b.data.to_le_bytes());
            }
            if r.irq.is_raised() {
                break;
            }
        }
        assert!(r.irq.is_raised(), "IOC interrupt must fire");
        assert_eq!(got, payload);
        assert!(r.regs.bits_set(REG_DMASR, DMASR_IDLE | DMASR_IOC));
    }

    #[test]
    fn last_beat_is_marked() {
        let mut r = rig(100);
        start_transfer(&r, 0, 256);
        let mut beats = Vec::new();
        for _ in 0..50 {
            r.engine.run_for(SimDuration::from_micros(1));
            while let Some(b) = r.stream.pop() {
                beats.push(b);
            }
            if r.irq.is_raised() {
                break;
            }
        }
        assert_eq!(beats.len(), 32);
        assert!(beats[31].last);
        assert!(beats[..31].iter().all(|b| !b.last));
    }

    #[test]
    fn dead_interrupt_path_completes_silently() {
        let mut r = rig(100);
        r.engine
            .component_mut::<AxiDma>(r.dma_id)
            .set_irq_functional(false);
        start_transfer(&r, 0, 1024);
        for _ in 0..100 {
            r.engine.run_for(SimDuration::from_micros(1));
            while r.stream.pop().is_some() {}
        }
        assert!(!r.irq.is_raised(), "dead path must not interrupt");
        // Status register still shows completion (software could poll).
        assert!(r.regs.bits_set(REG_DMASR, DMASR_IOC));
        assert_eq!(r.engine.component::<AxiDma>(r.dma_id).stats().transfers, 1);
    }

    #[test]
    fn does_not_start_without_run_bit() {
        let mut r = rig(100);
        r.regs.write(REG_SA, 0);
        r.regs.write(REG_LENGTH, 512); // RS not set
        r.engine.run_for(SimDuration::from_micros(5));
        assert!(r.stream.pop().is_none());
        assert_eq!(r.engine.component::<AxiDma>(r.dma_id).stats().bursts, 0);
    }

    #[test]
    fn back_to_back_transfers() {
        let mut r = rig(200);
        start_transfer(&r, 0, 2048);
        let mut drained = 0usize;
        for _ in 0..100 {
            r.engine.run_for(SimDuration::from_micros(1));
            while r.stream.pop().is_some() {
                drained += 1;
            }
            if r.irq.is_raised() {
                break;
            }
        }
        r.irq.clear();
        start_transfer(&r, 0x800, 2048);
        for _ in 0..100 {
            r.engine.run_for(SimDuration::from_micros(1));
            while r.stream.pop().is_some() {
                drained += 1;
            }
            if r.irq.is_raised() {
                break;
            }
        }
        assert!(r.irq.is_raised());
        assert_eq!(drained, 512); // 4096 B / 8
        assert_eq!(r.engine.component::<AxiDma>(r.dma_id).stats().transfers, 2);
    }

    #[test]
    fn odd_length_transfer_pads_the_final_beat() {
        // 1028 bytes = 128 full beats + 4 bytes: the DMA streams 129 beats
        // (the memory path reads whole 64-bit words) and marks the last one.
        let mut r = rig(100);
        start_transfer(&r, 0, 1028);
        let mut beats = Vec::new();
        for _ in 0..50 {
            r.engine.run_for(SimDuration::from_micros(1));
            while let Some(b) = r.stream.pop() {
                beats.push(b);
            }
            if r.irq.is_raised() {
                break;
            }
        }
        assert!(r.irq.is_raised());
        assert_eq!(beats.len(), 129);
        assert!(beats.last().expect("non-empty").last);
    }

    #[test]
    fn abort_stops_and_allows_reuse() {
        let mut r = rig(100);
        start_transfer(&r, 0, 400_000);
        r.engine.run_for(SimDuration::from_micros(20)); // mid-transfer
        assert!(r.engine.component::<AxiDma>(r.dma_id).is_busy());
        r.engine.component_mut::<AxiDma>(r.dma_id).abort();
        assert!(!r.engine.component::<AxiDma>(r.dma_id).is_busy());
        assert!(r.regs.bits_set(REG_DMASR, DMASR_HALTED));
        // Drain leftovers, then a fresh transfer completes normally.
        r.engine.run_for(SimDuration::from_micros(10));
        while r.stream.pop().is_some() {}
        r.irq.clear();
        start_transfer(&r, 0x2000, 512);
        let mut drained = 0;
        for _ in 0..50 {
            r.engine.run_for(SimDuration::from_micros(1));
            while r.stream.pop().is_some() {
                drained += 1;
            }
            if r.irq.is_raised() {
                break;
            }
        }
        assert!(r.irq.is_raised());
        assert!(drained >= 64, "fresh transfer must stream: {drained}");
    }

    #[test]
    fn injected_stall_freezes_then_resumes() {
        let mut r = rig(100);
        start_transfer(&r, 0, 4096);
        r.engine.run_for(SimDuration::from_micros(1)); // engine arms
                                                       // Freeze for 500 cycles (5 µs at 100 MHz) mid-transfer.
        r.engine.component_mut::<AxiDma>(r.dma_id).inject_stall(500);
        let beats_before = r.engine.component::<AxiDma>(r.dma_id).stats().beats_out;
        r.engine.run_for(SimDuration::from_micros(4));
        while r.stream.pop().is_some() {}
        let beats_mid = r.engine.component::<AxiDma>(r.dma_id).stats().beats_out;
        assert_eq!(beats_mid, beats_before, "stalled engine must not stream");
        assert!(r.engine.component::<AxiDma>(r.dma_id).stall_remaining() > 0);
        // After the stall drains the transfer completes normally.
        for _ in 0..100 {
            r.engine.run_for(SimDuration::from_micros(1));
            while r.stream.pop().is_some() {}
            if r.irq.is_raised() {
                break;
            }
        }
        assert!(r.irq.is_raised(), "transfer must finish after the stall");
        assert_eq!(r.engine.component::<AxiDma>(r.dma_id).stall_remaining(), 0);
    }

    #[test]
    fn abort_clears_an_injected_stall() {
        let mut r = rig(100);
        start_transfer(&r, 0, 4096);
        r.engine.run_for(SimDuration::from_micros(1));
        r.engine
            .component_mut::<AxiDma>(r.dma_id)
            .inject_stall(1_000_000);
        r.engine.component_mut::<AxiDma>(r.dma_id).abort();
        assert_eq!(r.engine.component::<AxiDma>(r.dma_id).stall_remaining(), 0);
        // The engine is reusable immediately.
        r.engine.run_for(SimDuration::from_micros(10));
        while r.stream.pop().is_some() {}
        r.irq.clear();
        start_transfer(&r, 0x1000, 512);
        for _ in 0..50 {
            r.engine.run_for(SimDuration::from_micros(1));
            while r.stream.pop().is_some() {}
            if r.irq.is_raised() {
                break;
            }
        }
        assert!(r.irq.is_raised());
    }

    #[test]
    fn zero_length_doorbell_is_ignored() {
        let mut r = rig(100);
        r.regs.set_bits(REG_DMACR, DMACR_RS);
        r.regs.write(REG_LENGTH, 0);
        r.engine.run_for(SimDuration::from_micros(5));
        assert!(!r.engine.component::<AxiDma>(r.dma_id).is_busy());
        assert_eq!(r.engine.component::<AxiDma>(r.dma_id).stats().bursts, 0);
    }

    #[test]
    fn throughput_is_stream_limited_at_low_clock() {
        // At 100 MHz the stream side caps the rate at ~800 MB/s of 64-bit
        // beats — but the converter downstream halves it; here we check the
        // DMA alone can sustain ~1 beat/cycle.
        let mut r = rig(100);
        start_transfer(&r, 0, 400_000);
        let t0 = r.engine.now();
        let mut bytes = 0u64;
        while !r.irq.is_raised() {
            // Drain often enough that the 128-beat FIFO never back-pressures
            // the engine (128 beats / 500 ns ≈ 2 GB/s of drain capacity).
            r.engine.run_for(SimDuration::from_nanos(500));
            while let Some(b) = r.stream.pop() {
                bytes += b.valid_bytes() as u64;
            }
            assert!(
                r.engine.now().duration_since(t0) < SimDuration::from_millis(10),
                "transfer hung"
            );
        }
        let dt = r.engine.now().duration_since(t0).as_secs_f64();
        let mb_s = bytes as f64 / dt / 1e6;
        assert!(mb_s > 700.0, "DMA sustained only {mb_s:.0} MB/s");
    }
}
