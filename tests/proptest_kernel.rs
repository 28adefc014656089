//! Property-based tests of the simulation kernel and fabric invariants,
//! including the differential property that the event-skipping kernel is
//! observationally identical to the tick oracle on arbitrary random
//! component graphs (random wake patterns, cross-domain clocks, IRQ
//! storms, mid-run reprogramming and gating).

use pdr_testkit::{
    any_u64, bools, f64s, indices, property, select, tuple2, tuple4, u32s, u64s, usizes, vec_of,
    Config, Gen,
};

use pdr_lab::fabric::{ColumnKind, Geometry};
use pdr_lab::sim::stats::{Log2Histogram, OnlineStats};
use pdr_lab::sim::{
    fifo_channel, Component, ComponentId, Consumer, EdgeCtx, Engine, EngineStrategy, Event,
    Frequency, NextWake, Producer, SimDuration, WakeSignal,
};
use std::cell::RefCell;
use std::rc::Rc;

fn cfg() -> Config {
    Config::with_cases(128).regressions(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/regressions.seeds"
    ))
}

fn column_kinds() -> Gen<ColumnKind> {
    select(vec![
        ColumnKind::Clb,
        ColumnKind::Dsp,
        ColumnKind::Bram,
        ColumnKind::Clk,
        ColumnKind::Io,
    ])
}

property! {
    config = cfg();

    /// FAR ↔ linear index is a bijection for arbitrary geometries.
    fn far_mapping_is_bijective(
        rows in u32s(1..5),
        cols in vec_of(column_kinds(), 1..24),
    ) {
        let g = Geometry::new(rows, cols);
        for idx in 0..g.total_frames() {
            let far = g.far_at(idx);
            assert_eq!(g.frame_index(far), Some(idx));
        }
    }

    /// `advance` equals index arithmetic for arbitrary geometries.
    fn advance_matches_linear_arithmetic(
        rows in u32s(1..4),
        cols in vec_of(column_kinds(), 1..12),
        start in indices(),
        n in u32s(0..64),
    ) {
        let g = Geometry::new(rows, cols);
        let start_idx = start.index(g.total_frames() as usize) as u32;
        let far = g.far_at(start_idx);
        match g.advance(far, n) {
            Some(next) => {
                assert_eq!(g.frame_index(next), Some(start_idx + n));
            }
            None => assert!(start_idx + n >= g.total_frames()),
        }
    }

    /// FIFOs preserve order and never lose or duplicate elements under an
    /// arbitrary interleaving of pushes and pops.
    fn fifo_preserves_order_and_count(
        capacity in usizes(1..16),
        ops in vec_of(bools(), 1..256),
    ) {
        let (tx, rx) = fifo_channel::<u64>("prop", capacity);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for push in ops {
            if push {
                if tx.try_push(next_in).is_ok() {
                    next_in += 1;
                }
            } else if let Some(v) = rx.pop() {
                assert_eq!(v, next_out);
                next_out += 1;
            }
        }
        while let Some(v) = rx.pop() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_out, next_in);
        let s = tx.stats();
        assert_eq!(s.pushed, next_in);
        assert_eq!(s.popped, next_in);
    }

    /// Exact clock arithmetic: cycles in a window never drift by more than
    /// one edge from the real-valued expectation, for arbitrary frequencies
    /// and windows.
    fn clock_edges_do_not_drift(
        mhz in u64s(1..1000),
        micros in u64s(1..100_000),
    ) {
        let f = Frequency::from_mhz(mhz);
        let d = SimDuration::from_micros(micros);
        let cycles = f.cycles_in(d);
        let exact = mhz as f64 * micros as f64; // f[MHz] × t[µs] = cycles
        assert!((cycles as f64 - exact).abs() <= 1.0,
            "{mhz} MHz over {micros} us: {cycles} vs {exact}");
    }

    /// Welford merge equals sequential accumulation on arbitrary data.
    fn online_stats_merge_is_sequential(
        xs in vec_of(f64s(-1e6..1e6), 1..200),
        split in indices(),
    ) {
        let k = split.index(xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs { whole.push(x); }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..k] { a.push(x); }
        for &x in &xs[k..] { b.push(x); }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-6);
        let tol = (whole.variance() * 1e-9).max(1e-3);
        assert!((a.variance() - whole.variance()).abs() < tol);
    }

    /// Histogram quantile upper bounds actually bound the requested mass.
    fn histogram_quantile_bounds_hold(
        xs in vec_of(u64s(0..1_000_000), 1..200),
        q in f64s(0.0..1.0),
    ) {
        let mut h = Log2Histogram::new();
        for &x in &xs { h.push(x); }
        let bound = h.quantile_upper_bound(q);
        let at_or_below = xs.iter().filter(|&&x| x <= bound).count() as f64;
        assert!(at_or_below / xs.len() as f64 >= q.min(1.0) - 1e-9,
            "bound {bound} covers {at_or_below}/{} < q={q}", xs.len());
    }

    /// DRAM bank/row decode: addresses within one row map to the same
    /// (bank, row); crossing a row boundary changes one of them; the map
    /// covers all banks.
    fn dram_decode_is_consistent(addr in u64s(0..(1 << 30)), offset in u64s(0..8192)) {
        use pdr_lab::mem::DramConfig;
        let cfg = DramConfig::ddr3_533();
        let (bank, row) = cfg.decode(addr);
        assert!(bank < cfg.banks);
        // Same row ↔ same decode.
        let row_base = addr - addr % cfg.row_bytes;
        let inside = row_base + offset % cfg.row_bytes;
        assert_eq!(cfg.decode(inside), (bank, row));
        // The next row lands on the next bank (row-granular interleaving).
        let (nb, nr) = cfg.decode(row_base + cfg.row_bytes);
        assert!(nb != bank || nr != row);
        assert_eq!(nb, (bank + 1) % cfg.banks);
    }

    /// The PRNG's bounded sampler is in range and seed-deterministic.
    fn rng_bounded_in_range(seed in any_u64(), bound in u64s(1..1_000_000)) {
        use pdr_lab::sim::Xoshiro256StarStar;
        let mut a = Xoshiro256StarStar::seed_from_u64(seed);
        let mut b = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..32 {
            let x = a.next_bounded(bound);
            assert!(x < bound);
            assert_eq!(x, b.next_bounded(bound));
        }
    }
}

// ---------------------------------------------------------------------------
// Differential kernel property: tick ≡ event-skip on random component graphs
// ---------------------------------------------------------------------------

fn mix(x: u64) -> u64 {
    // SplitMix64 finalizer: cheap, bijective, avalanche-complete.
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A randomly parameterised clocked component: it does observable work on a
/// random cycle pattern, launches decaying event chains at other nodes
/// (IRQ storms, cross-domain), optionally goes permanently idle after a
/// quota, and declares its wake times either honestly or ultra-
/// conservatively (`EveryCycle`, modelling an unported component).
struct ChaosNode {
    name: String,
    id: u64,
    /// Work-period schedule, cycled through one period per work edge.
    periods: Vec<u64>,
    pi: usize,
    /// Absolute domain cycle of the next work edge.
    next_work: u64,
    /// Stop working after this many work edges (`None` = never).
    quota: Option<u64>,
    /// Declare wakes truthfully (`true`) or tick on every edge (`false`).
    honest: bool,
    /// Event chains still to launch (one per work edge while positive).
    storm_budget: u64,
    /// Chain target (the next node in the ring).
    target: Option<ComponentId>,
    /// Domain cycle up to which this node is synchronised.
    last_cycle: u64,
    /// Observable state: must be engine-independent.
    hash: u64,
    works: u64,
    events: u64,
}

impl ChaosNode {
    fn new(id: u64, periods: Vec<u64>, quota: Option<u64>, honest: bool, storm: u64) -> Self {
        assert!(!periods.is_empty());
        ChaosNode {
            name: format!("chaos{id}"),
            id,
            next_work: periods[0],
            periods,
            pi: 1,
            quota,
            honest,
            storm_budget: storm,
            target: None,
            last_cycle: 0,
            hash: mix(id),
            works: 0,
            events: 0,
        }
    }

    fn done(&self) -> bool {
        self.quota.is_some_and(|q| self.works >= q)
    }

    fn summary(&self) -> (u64, u64, u64) {
        (self.works, self.events, self.hash)
    }
}

impl Component for ChaosNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        let cycle = ctx.cycle();
        self.catch_up(cycle - 1);
        self.last_cycle = cycle;
        if self.done() || cycle != self.next_work {
            return; // a no-op edge the skipping kernel may fold
        }
        self.works += 1;
        self.hash = mix(self.hash ^ cycle);
        let p = self.periods[self.pi % self.periods.len()].max(1);
        self.pi += 1;
        self.next_work = cycle + p;
        if self.storm_budget > 0 {
            self.storm_budget -= 1;
            if let Some(t) = self.target {
                let delay = SimDuration::from_nanos(1 + self.hash % 97);
                ctx.schedule(delay, t, Event::with_args(7, 2 + self.hash % 3, self.id));
            }
        }
    }

    fn on_event(&mut self, ctx: &mut EdgeCtx<'_>, event: Event) {
        let cycle = ctx.cycle();
        self.catch_up(cycle);
        self.events += 1;
        self.hash = mix(self.hash ^ event.a.wrapping_mul(31) ^ event.b ^ cycle);
        // The storm perturbs the wake schedule: pull the next work edge
        // closer, as an interrupt handler re-arming a timer would.
        if !self.done() && event.a.is_multiple_of(2) && self.next_work > cycle + 1 {
            self.next_work = cycle + 1 + event.a % 3;
        }
        // Decaying chain: forward the event around the ring.
        if event.a > 0 {
            if let Some(t) = self.target {
                let delay = SimDuration::from_nanos(1 + self.hash % 53);
                ctx.schedule(delay, t, Event::with_args(7, event.a - 1, self.id));
            }
        }
    }

    fn next_wake(&self, now_cycle: u64) -> NextWake {
        if !self.honest {
            return NextWake::EveryCycle;
        }
        if self.done() {
            return NextWake::Idle;
        }
        if self.next_work > now_cycle {
            NextWake::In(self.next_work - now_cycle)
        } else {
            NextWake::EveryCycle
        }
    }

    fn catch_up(&mut self, cycle: u64) {
        // Skipped edges touch nothing observable; just track the sync point.
        if cycle > self.last_cycle {
            self.last_cycle = cycle;
        }
    }
}

/// Node parameters as drawn by the generators:
/// `(domain pick, periods, storm budget, (honest, quota draw))`.
type NodeSpec = (usize, Vec<u64>, u64, (bool, u64));

fn run_chaos(
    strategy: EngineStrategy,
    freqs: &[u64],
    nodes: &[NodeSpec],
    segments: &[u64],
    reprogram: bool,
    gate: bool,
) -> (Vec<(u64, u64, u64)>, u64, u64) {
    let mut e = Engine::with_strategy(strategy);
    let domains: Vec<_> = freqs
        .iter()
        .enumerate()
        .map(|(i, &mhz)| e.add_clock_domain(&format!("d{i}"), Frequency::from_mhz(mhz)))
        .collect();
    let ids: Vec<ComponentId> = nodes
        .iter()
        .enumerate()
        .map(|(i, (dom, periods, storm, (honest, quota_draw)))| {
            let quota = (*quota_draw < 8).then_some(*quota_draw);
            let node = ChaosNode::new(i as u64, periods.clone(), quota, *honest, *storm);
            e.add_component(node, Some(domains[dom % domains.len()]))
        })
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        let target = ids[(i + 1) % ids.len()];
        e.component_mut::<ChaosNode>(id).target = Some(target);
    }
    // Seed the storm with one external event.
    e.schedule(
        SimDuration::from_nanos(1),
        ids[0],
        Event::with_args(7, 3, 99),
    );
    for (si, &us) in segments.iter().enumerate() {
        e.run_for(SimDuration::from_micros(us));
        // Between-run perturbations: reprogramming and gating exercise the
        // generation/gating paths of the skipping kernel.
        if si == 0 {
            if reprogram {
                e.set_clock_frequency(domains[0], Frequency::from_mhz(freqs[0] * 2 + 1));
            }
            if gate {
                e.gate_clock(domains[0], true);
            }
        } else if gate {
            e.gate_clock(domains[0], false);
        }
    }
    let summaries = ids
        .iter()
        .map(|&id| e.component::<ChaosNode>(id).summary())
        .collect();
    (summaries, e.now().as_ps(), e.actions_dispatched())
}

property! {
    config = Config::with_cases(48).regressions(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/regressions.seeds"
    ));

    /// The event-skipping kernel is observationally identical to the tick
    /// oracle on arbitrary component graphs: same per-node work/event
    /// counts and state hashes, same final simulated time, same action
    /// count — under random wake patterns, cross-domain clocking, IRQ
    /// storms, mid-run reprogramming and clock gating.
    fn event_skip_equals_tick_on_random_graphs(
        freqs in vec_of(select(vec![1u64, 7, 100, 280, 333, 533, 999]), 1..4),
        nodes in vec_of(
            tuple4(
                usizes(0..8),
                vec_of(u64s(1..40), 1..5),
                u64s(0..6),
                tuple2(bools(), u64s(0..30)),
            ),
            2..7,
        ),
        segments in vec_of(u64s(1..50), 1..4),
        perturb in tuple2(bools(), bools()),
    ) {
        let (reprogram, gate) = perturb;
        let tick = run_chaos(EngineStrategy::Tick, &freqs, &nodes, &segments, reprogram, gate);
        let skip = run_chaos(EngineStrategy::EventSkip, &freqs, &nodes, &segments, reprogram, gate);
        assert_eq!(tick.0, skip.0, "per-node observable state diverged");
        assert_eq!(tick.1, skip.1, "final simulated time diverged");
        assert_eq!(tick.2, skip.2, "dispatched-action accounting diverged");
    }
}

// ---------------------------------------------------------------------------
// Differential kernel property: back-pressured producer → consumer chains
// ---------------------------------------------------------------------------

/// Every push and pop of a chain, in dispatch order:
/// `(time ps, stage, pushed?, item)`.
type Tape = Rc<RefCell<Vec<(u64, u64, bool, u64)>>>;

/// Why a stage's next edges would do nothing but count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// Holding an item the full output cannot take: counts `out_stalls`.
    Output,
    /// Empty-handed with an empty input: counts `starves`.
    Input,
    /// A source with nothing left to send: counts nothing.
    Done,
}

/// One stage of a bounded pipeline: pops an item from its input (or, as
/// the head, makes one), holds it, and pushes it on to its output (or, as
/// the tail, drops it). While blocked it declares `Idle` — when `honest` —
/// and folds its stall counters in `catch_up` from the block it recorded
/// at the end of its last edge, like the DMA engine. With `declare` it
/// lists its FIFOs as wake signals; without, it is re-polled after every
/// action.
struct Stage {
    name: String,
    index: u64,
    input: Option<Consumer<u64>>,
    output: Option<Producer<u64>>,
    /// Items a head stage still has to make.
    budget: u64,
    held: Option<u64>,
    honest: bool,
    declare: bool,
    blocked: Option<Block>,
    last_cycle: u64,
    tape: Tape,
    out_stalls: u64,
    starves: u64,
    moved: u64,
}

impl Stage {
    fn blocked_now(&self) -> Option<Block> {
        match self.held {
            Some(_) => match &self.output {
                Some(out) if !out.can_push() => Some(Block::Output),
                _ => None,
            },
            None => match &self.input {
                Some(input) if input.is_empty() => Some(Block::Input),
                None if self.budget == 0 => Some(Block::Done),
                _ => None,
            },
        }
    }

    fn record(&self, ctx: &EdgeCtx<'_>, pushed: bool, item: u64) {
        let entry = (ctx.now().as_ps(), self.index, pushed, item);
        self.tape.borrow_mut().push(entry);
    }

    fn counters(&self) -> (u64, u64, u64) {
        (self.out_stalls, self.starves, self.moved)
    }
}

impl Component for Stage {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        let cycle = ctx.cycle();
        self.catch_up(cycle - 1);
        self.last_cycle = cycle;
        match self.held {
            Some(item) => match &self.output {
                Some(out) if !out.can_push() => self.out_stalls += 1,
                Some(out) => {
                    out.try_push(item).expect("checked can_push");
                    self.record(ctx, true, item);
                    self.held = None;
                    self.moved += 1;
                }
                None => {
                    self.record(ctx, true, item);
                    self.held = None;
                    self.moved += 1;
                }
            },
            None => match &self.input {
                Some(input) => match input.pop() {
                    Some(item) => {
                        self.record(ctx, false, item);
                        self.held = Some(mix(item ^ self.index));
                    }
                    None => self.starves += 1,
                },
                None if self.budget > 0 => {
                    self.budget -= 1;
                    self.held = Some(mix(self.budget ^ cycle));
                }
                None => {}
            },
        }
        self.blocked = self.blocked_now();
    }

    fn next_wake(&self, _now_cycle: u64) -> NextWake {
        match self.blocked_now() {
            Some(b) if self.honest && self.blocked == Some(b) => NextWake::Idle,
            _ => NextWake::EveryCycle,
        }
    }

    fn wake_signals(&self) -> Option<Vec<WakeSignal>> {
        self.declare.then(|| {
            let mut signals = Vec::new();
            if let Some(input) = &self.input {
                signals.push(input.wake_signal());
            }
            if let Some(out) = &self.output {
                signals.push(out.wake_signal());
            }
            signals
        })
    }

    fn catch_up(&mut self, cycle: u64) {
        let k = cycle.saturating_sub(self.last_cycle);
        self.last_cycle = cycle.max(self.last_cycle);
        match self.blocked {
            Some(Block::Output) => self.out_stalls += k,
            Some(Block::Input) => self.starves += k,
            Some(Block::Done) => {}
            None => assert_eq!(k, 0, "{} folded an edge with work", self.name),
        }
    }
}

/// Stage parameters as drawn by the generators:
/// `(domain pick, FIFO depth to the next stage, (honest, declares signals))`.
type StageSpec = (usize, usize, (bool, bool));

/// A chain's observables: per-stage `(out_stalls, starves, moved)`, the
/// push/pop tape, final time and the dispatched-action count.
type ChainRun = (Vec<(u64, u64, u64)>, Vec<(u64, u64, bool, u64)>, u64, u64);

fn run_chain(
    strategy: EngineStrategy,
    freqs: &[u64],
    stages: &[StageSpec],
    items: u64,
    segments: &[u64],
    drain_between: bool,
) -> ChainRun {
    let mut e = Engine::with_strategy(strategy);
    let domains: Vec<_> = freqs
        .iter()
        .enumerate()
        .map(|(i, &hz)| e.add_clock_domain(&format!("d{i}"), Frequency::from_hz(hz)))
        .collect();
    let tape: Tape = Rc::default();
    let mut input: Option<Consumer<u64>> = None;
    let mut ids = Vec::new();
    let mut fifos = Vec::new();
    for (i, &(dom, depth, (honest, declare))) in stages.iter().enumerate() {
        let output = (i + 1 < stages.len()).then(|| {
            let (tx, rx) = fifo_channel::<u64>(&format!("f{i}"), depth);
            fifos.push(tx.fifo().clone());
            (tx, rx)
        });
        let (tx, next_input) = match output {
            Some((tx, rx)) => (Some(tx), Some(rx)),
            None => (None, None),
        };
        let stage = Stage {
            name: format!("stage{i}"),
            index: i as u64,
            input: input.take(),
            output: tx,
            budget: if i == 0 { items } else { 0 },
            held: None,
            honest,
            declare,
            blocked: None,
            last_cycle: 0,
            tape: Rc::clone(&tape),
            out_stalls: 0,
            starves: 0,
            moved: 0,
        };
        ids.push(e.add_component(stage, Some(domains[dom % domains.len()])));
        input = next_input;
    }
    for &ns in segments {
        e.run_for(SimDuration::from_nanos(ns));
        // Harness traffic between runs changes a sleeper's block without
        // any component running: a drained FIFO turns an output stall into
        // free space, or a waiting consumer's input into nothing.
        if drain_between {
            if let Some(f) = fifos.last() {
                f.clear();
            }
        }
    }
    let counters = ids
        .iter()
        .map(|&id| e.component::<Stage>(id).counters())
        .collect();
    let tape = tape.borrow().clone();
    (counters, tape, e.now().as_ps(), e.actions_dispatched())
}

property! {
    config = Config::with_cases(64).regressions(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/regressions.seeds"
    ));

    /// Back-pressure sleeping is exact: bounded chains whose stages sleep
    /// while blocked and count their stalls in `catch_up` produce the tick
    /// oracle's push/pop tape, stall counters and action count, for stages
    /// that declare wake signals or not (or never sleep), on clocks that
    /// share an edge grid (50/100/200 MHz) or are co-prime.
    fn back_pressured_chains_equal_tick(
        freqs in vec_of(select(vec![
            50_000_000u64, 100_000_000, 200_000_000, 77_000_003, 133_333_337, 533_000_000,
        ]), 1..4),
        stages in vec_of(
            tuple4(usizes(0..8), usizes(1..5), bools(), bools()),
            2..6,
        ),
        items in u64s(1..80),
        segments in vec_of(u64s(50..3_000), 1..5),
        drain_between in bools(),
    ) {
        let stages: Vec<StageSpec> = stages
            .into_iter()
            .map(|(dom, depth, honest, declare)| (dom, depth, (honest, declare)))
            .collect();
        let tick = run_chain(EngineStrategy::Tick, &freqs, &stages, items, &segments, drain_between);
        let skip = run_chain(
            EngineStrategy::EventSkip, &freqs, &stages, items, &segments, drain_between,
        );
        assert_eq!(tick.1, skip.1, "push/pop tape diverged");
        assert_eq!(tick.0, skip.0, "stall counters diverged");
        assert_eq!((tick.2, tick.3), (skip.2, skip.3), "time or action count diverged");
    }
}
