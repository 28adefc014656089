//! Back-pressure sleeping in the event-skipping kernel.
//!
//! Blocked components (a DRAM controller serving into a full beat FIFO, a
//! DMA engine whose stream is full or whose memory path is empty, an
//! interconnect stalled on a full master) declare `NextWake::Idle` and fold
//! their stall counters in `catch_up`; the kernel calls only the members
//! whose wake is due and re-polls sleepers only when a declared input
//! moved. These tests pin that the stall accounting stays exactly the tick
//! oracle's, that the engine's self-profile shows the saved work, and that
//! wake polls never change model state.

use pdr_lab::axi::interconnect::ReadInterconnect;
use pdr_lab::axi::width::Word32;
use pdr_lab::axi::{RegisterFile, StreamBeat, Width64To32};
use pdr_lab::dma::{AxiDma, DmaConfig, DMACR_RS, REG_DMACR, REG_LENGTH, REG_SA};
use pdr_lab::mem::{Backing, DramConfig, DramController};
use pdr_lab::pdr::{SystemConfig, ZynqPdrSystem};
use pdr_lab::sim::blocks::Sink;
use pdr_lab::sim::{
    fifo_channel, ComponentId, Engine, EngineProfile, EngineStrategy, Frequency, IrqBus,
    SimDuration,
};

// ---------------------------------------------------------------------------
// The full-scale Table I reconfigure (528 KB, ideal instruments, seed
// 0xC0FFEE, bitstream seed 1, 40 °C)
// ---------------------------------------------------------------------------

struct Table1Run {
    profile: EngineProfile,
    actions: u64,
    /// `(stream_stalls, starved_cycles, output_stalls, data_stalls, data_idle)`.
    stalls: (u64, u64, u64, u64, u64),
    stats: String,
}

fn table1_reconfigure(strategy: EngineStrategy, mhz: u64) -> Table1Run {
    let mut cfg = SystemConfig {
        ideal_instruments: true,
        ..SystemConfig::default()
    };
    cfg.seed = 0xC0FFEE;
    cfg.initial_die_temp_c = 40.0;
    cfg.strategy = strategy;
    let mut sys = ZynqPdrSystem::new(cfg);
    let bs = sys.make_partial_bitstream(0, 1);
    let r = sys.reconfigure(0, &bs, Frequency::from_mhz(mhz));
    let (dma, dram, ic) = (sys.dma_stats(), sys.dram_stats(), sys.interconnect_stats());
    Table1Run {
        profile: sys.engine_mut().profile(),
        actions: sys.engine_mut().actions_dispatched(),
        stalls: (
            dma.stream_stalls,
            dma.starved_cycles,
            dram.output_stalls,
            ic.data_stalls,
            ic.data_idle,
        ),
        stats: format!("{r:?} {dma:?} {dram:?} {ic:?}"),
    }
}

/// The 200 MHz reconfigure's engine work, pinned. Before blocked
/// components slept, it popped 826,741 queue entries, dispatched 557,281
/// edges, made 1,161,615 component calls and 6,520,264 wake polls for the
/// same 2,478,076 actions.
#[test]
fn profile_of_the_200mhz_table1_reconfigure_is_pinned() {
    let r = table1_reconfigure(EngineStrategy::EventSkip, 200);
    let p = &r.profile;
    assert_eq!(
        r.actions, 2_478_076,
        "actions_dispatched is the tick oracle's"
    );
    assert_eq!(r.stalls, (0, 67_605, 262_373, 0, 134_925));
    assert_eq!(p.queue_pops, 682_081);
    assert_eq!(p.edges_dispatched_total(), 293_200);
    assert_eq!(p.component_calls_total(), 492_450);
    assert_eq!(p.wake_polls, 818_667);
    assert!(p.edges_dispatched_total() <= 300_000);
    assert!(p.wake_polls <= 1_000_000);
    // Every action is either dispatched or folded.
    assert_eq!(
        p.edges_dispatched_total() + p.edges_folded_total(),
        r.actions,
        "this run delivers no events"
    );
    assert_eq!(p.queue_high_water, 8);
}

/// At 100 MHz the stream side is the bottleneck, so all three blocked
/// states occur; the folded counters must equal the tick oracle's.
#[test]
fn table1_stall_counters_match_the_tick_oracle() {
    let tick = table1_reconfigure(EngineStrategy::Tick, 100);
    let skip = table1_reconfigure(EngineStrategy::EventSkip, 100);
    assert_eq!(tick.stats, skip.stats);
    assert_eq!(tick.actions, skip.actions);
    assert_eq!(skip.stalls, (65_943, 9, 509_883, 60_230, 139_894));
    assert_eq!(tick.profile.wake_polls, 0, "the oracle never polls");
    assert_eq!(tick.profile.edges_folded_total(), 0, "nor folds");
    assert!(skip.profile.component_calls_total() * 2 < tick.profile.component_calls_total());
}

// ---------------------------------------------------------------------------
// A back-pressured rig built from the real components
// ---------------------------------------------------------------------------

/// DRAM → interconnect → two DMA engines, each streaming into a sink that
/// consumes slower than the memory side delivers: one through the 64→32
/// width converter on the DMA's own clock, one on a co-prime clock.
struct Rig {
    engine: Engine,
    dmas: [ComponentId; 2],
    dram: ComponentId,
    ic: ComponentId,
    sinks: [ComponentId; 2],
}

type WordSink = Sink<Word32, fn(Word32)>;
type BeatSink = Sink<StreamBeat, fn(StreamBeat)>;

fn rig(strategy: EngineStrategy, dma_mhz: u64, word_stride: u32, beat_stride: u32) -> Rig {
    let mut e = Engine::with_strategy(strategy);
    let axi = e.add_clock_domain("axi", Frequency::from_mhz(100));
    let ddr = e.add_clock_domain("ddr", Frequency::from_mhz(533));
    let oc = e.add_clock_domain("oc", Frequency::from_mhz(dma_mhz));
    let rp = e.add_clock_domain("rp", Frequency::from_hz(77_000_003));
    let (mut ic, slave) = ReadInterconnect::new("ic", 4, 8);
    let backing = Backing::new(1 << 20);
    let bus = IrqBus::new();
    let dram = e.add_component(
        DramController::new("ddr", DramConfig::ddr3_533(), backing, slave),
        Some(ddr),
    );
    let (port0, mem0) = ic.add_master(64);
    let (port1, mem1) = ic.add_master(16);
    let ic = e.add_component(ic, Some(axi));

    let regs0 = RegisterFile::new();
    let (s64_tx, s64_rx) = fifo_channel::<StreamBeat>("s64", 16);
    let (w32_tx, w32_rx) = fifo_channel::<Word32>("w32", 8);
    let dma0 = AxiDma::new(
        "dma0",
        DmaConfig::default(),
        regs0.clone(),
        port0,
        mem0,
        s64_tx,
        bus.allocate("ioc0"),
    );
    let dma0 = e.add_component(dma0, Some(oc));
    e.add_component(Width64To32::new("w", s64_rx, w32_tx), Some(oc));
    let sink0: WordSink = Sink::with_stride("words", w32_rx, word_stride, drop);
    let sink0 = e.add_component(sink0, Some(oc));

    let regs1 = RegisterFile::new();
    let (b_tx, b_rx) = fifo_channel::<StreamBeat>("beats", 8);
    let dma1 = AxiDma::new(
        "dma1",
        DmaConfig {
            burst_beats: 16,
            ..DmaConfig::default()
        },
        regs1.clone(),
        port1,
        mem1,
        b_tx,
        bus.allocate("ioc1"),
    );
    let dma1 = e.add_component(dma1, Some(axi));
    let sink1: BeatSink = Sink::with_stride("beats", b_rx, beat_stride, drop);
    let sink1 = e.add_component(sink1, Some(rp));

    for (regs, addr, len) in [(&regs0, 0u32, 8_192u32), (&regs1, 0x4_0000, 4_104)] {
        regs.write(REG_SA, addr);
        regs.write(REG_DMACR, DMACR_RS);
        regs.write(REG_LENGTH, len);
    }
    Rig {
        engine: e,
        dmas: [dma0, dma1],
        dram,
        ic,
        sinks: [sink0, sink1],
    }
}

/// Everything observable about a rig run, rendered for comparison.
fn observe(r: &Rig) -> String {
    let e = &r.engine;
    format!(
        "{:?} {:?} {:?} {:?} {} {} {} {}",
        e.component::<AxiDma>(r.dmas[0]).stats(),
        e.component::<AxiDma>(r.dmas[1]).stats(),
        e.component::<DramController>(r.dram).stats(),
        e.component::<ReadInterconnect>(r.ic).stats(),
        e.component::<WordSink>(r.sinks[0]).consumed(),
        e.component::<BeatSink>(r.sinks[1]).consumed(),
        e.actions_dispatched(),
        e.now().as_ps(),
    )
}

/// Runs a rig in uneven slices (so runs end mid-stall) until both
/// transfers finish, observing after every slice.
fn run_rig(
    strategy: EngineStrategy,
    dma_mhz: u64,
    word_stride: u32,
    beat_stride: u32,
) -> Vec<String> {
    let mut r = rig(strategy, dma_mhz, word_stride, beat_stride);
    let mut seen = Vec::new();
    for i in 0..60u64 {
        r.engine
            .run_for(SimDuration::from_nanos(700 + 113 * (i % 7)));
        seen.push(observe(&r));
    }
    let done = |r: &Rig, i: usize| r.engine.component::<AxiDma>(r.dmas[i]).stats().transfers;
    assert_eq!((done(&r, 0), done(&r, 1)), (1, 1), "both transfers finish");
    seen
}

#[test]
fn back_pressured_rig_is_tick_identical_slice_by_slice() {
    for (mhz, word_stride, beat_stride) in [(200, 3, 2), (280, 1, 5), (100, 2, 1), (310, 7, 3)] {
        let tick = run_rig(EngineStrategy::Tick, mhz, word_stride, beat_stride);
        let skip = run_rig(EngineStrategy::EventSkip, mhz, word_stride, beat_stride);
        for (i, (t, s)) in tick.iter().zip(&skip).enumerate() {
            assert_eq!(
                t, s,
                "{mhz} MHz, strides {word_stride}/{beat_stride}: slice {i}"
            );
        }
    }
}

#[test]
fn blocked_components_sleep_through_stalls() {
    let mut r = rig(EngineStrategy::EventSkip, 200, 3, 2);
    r.engine.run_for(SimDuration::from_micros(50));
    let p = r.engine.profile();
    let dma = r.engine.component::<AxiDma>(r.dmas[0]).stats();
    let dram = r.engine.component::<DramController>(r.dram).stats();
    assert!(
        dma.stream_stalls > 1_000 && dram.output_stalls > 1_000,
        "{dma:?} {dram:?}"
    );
    // A stalled edge costs no call: the DMA is called about once per beat
    // it moves, not once per edge of its clock.
    let dma_calls = p.component_calls[r.dmas[0].index()];
    assert!(
        dma_calls < dma.beats_out * 2 + 100,
        "{dma_calls} calls for {dma:?}"
    );
    let dram_calls = p.component_calls[r.dram.index()];
    assert!(
        dram_calls < dram.output_stalls / 2,
        "{dram_calls} calls for {dram:?}"
    );
}

// ---------------------------------------------------------------------------
// Wake polls are queries
// ---------------------------------------------------------------------------

fn assert_polls_leave_snapshot_alone(e: &Engine, what: &str) {
    let before = e.snapshot().render();
    for id in e.component_ids() {
        let _ = e.wake_of(id);
    }
    assert_eq!(
        before,
        e.snapshot().render(),
        "{what}: a wake poll changed model state"
    );
}

#[test]
fn wake_polls_leave_snapshots_byte_identical() {
    // Mid-transfer, through every blocked state of the rig.
    let mut r = rig(EngineStrategy::EventSkip, 200, 3, 2);
    for i in 0..40 {
        r.engine.run_for(SimDuration::from_nanos(450));
        assert_polls_leave_snapshot_alone(&r.engine, &format!("rig slice {i}"));
    }
    // The full system between runs: halted DMAs polling their doorbells,
    // the ICAP, the CRC read-back and the partitions' sinks.
    let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
    assert_polls_leave_snapshot_alone(sys.engine_mut(), "fresh system");
    let bs = sys.make_partial_bitstream(0, 1);
    assert!(sys.reconfigure(0, &bs, Frequency::from_mhz(200)).crc_ok());
    assert_polls_leave_snapshot_alone(sys.engine_mut(), "after a reconfigure");
    sys.start_background_monitor(&[0]);
    sys.engine_mut().run_for(SimDuration::from_micros(30));
    assert_polls_leave_snapshot_alone(sys.engine_mut(), "monitor running");
}
