//! The three workloads, each run as repeated passes through the public API
//! of `pdr-core`, with every pass's outputs checked as it runs.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pdr_bitstream::Bitstream;
use pdr_core::experiments::{TABLE1_FREQS_MHZ, TABLE1_PAPER};
use pdr_core::report::{CrcStatus, ReconfigReport};
use pdr_core::snapshot::fnv1a;
use pdr_core::trace::TraceLevel;
use pdr_core::{
    CampaignRun, FaultCampaign, FaultCampaignResult, FaultKind, FaultOutcome, FaultPlan,
    FaultRecord, FleetConfig, FleetReport, FleetRun, ParallelExecutor, SystemConfig, ZynqPdrSystem,
};
use pdr_sim_core::json::ToJson;
use pdr_sim_core::{EngineStrategy, Frequency};

use crate::spans::Spans;

/// The kernel strategy every system is built with, whatever `PDR_ENGINE`
/// says.
pub const ENGINE: EngineStrategy = EngineStrategy::EventSkip;
/// Worker threads of the fleet executor, whatever `PDR_THREADS` says.
pub const FLEET_THREADS: usize = 2;
/// Bytes per AXI data beat on the memory path.
const BEAT_BYTES: u64 = 8;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Table I: one full-scale reconfiguration per tested frequency.
    Table1Sweep,
    /// The 150-fault recovery soak on the fast floorplan.
    FaultSoak,
    /// The 1000-board, 1.01 M-request fleet campaign.
    Fleet1m,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 3] = [Kind::Table1Sweep, Kind::FaultSoak, Kind::Fleet1m];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Table1Sweep => "table1_sweep",
            Kind::FaultSoak => "fault_soak",
            Kind::Fleet1m => "fleet_1m",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How big the inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Miniature inputs for the unit tests: the same code and checks.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// Outputs checked, and how many of them failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs whose check failed.
    pub failed: u64,
}

impl Checks {
    /// Counts one checked output.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally to this one.
    pub fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one pass measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host time spent building what the timed operations run on, s:
    /// the systems and bitstreams, `CampaignRun::new`, or `FleetRun::new`.
    pub setup_s: f64,
    /// Host time of the whole pass, set-up included, s.
    pub wall_s: f64,
    /// Host time of the timed operations alone, s.
    pub ops_s: f64,
    /// Host time of each timed operation, ms.
    pub op_ms: Vec<f64>,
    /// The pass's output checks.
    pub checks: Checks,
    /// Requests served: reconfigurations, fault events or fleet requests.
    pub requests: u64,
    /// Simulated bytes the DMA read through the interconnect; for
    /// `table1_sweep` exactly the bitstream bytes reconfigured.
    pub sim_bytes: u64,
    /// Simulated results, identical on every pass of one seed.
    pub sim: Vec<(&'static str, f64)>,
    /// Per-layer counters of this pass, by per-layer metric name.
    pub layer: Vec<(&'static str, f64)>,
}

impl Pass {
    fn time_op<T>(&mut self, op: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = black_box(op());
        let dt = t.elapsed();
        self.ops_s += dt.as_secs_f64();
        self.op_ms.push(dt.as_secs_f64() * 1e3);
        out
    }
}

/// Simulated-work counters read from one system before and after a timed
/// operation.
#[derive(Debug, Clone, Copy, Default)]
struct Probe {
    actions: u64,
    sim_ps: u64,
    beats: u64,
    data_stalls: u64,
    dma_bursts: u64,
    dma_bytes: u64,
    crc_pass: u64,
    crc_fail: u64,
}

impl Probe {
    fn read(sys: &mut ZynqPdrSystem) -> Probe {
        let ic = sys.interconnect_stats();
        let c = sys.tracer().counters();
        let (dma_bursts, dma_bytes, crc_pass, crc_fail) =
            (c.dma_bursts, c.dma_bytes, c.crc_pass, c.crc_fail);
        Probe {
            actions: sys.engine_mut().actions_dispatched(),
            sim_ps: sys.now().as_ps(),
            beats: ic.beats,
            data_stalls: ic.data_stalls,
            dma_bursts,
            dma_bytes,
            crc_pass,
            crc_fail,
        }
    }

    fn add_delta(&mut self, before: &Probe, after: &Probe) {
        self.actions += after.actions - before.actions;
        self.sim_ps += after.sim_ps - before.sim_ps;
        self.beats += after.beats - before.beats;
        self.data_stalls += after.data_stalls - before.data_stalls;
        self.dma_bursts += after.dma_bursts - before.dma_bursts;
        self.dma_bytes += after.dma_bytes - before.dma_bytes;
        self.crc_pass += after.crc_pass - before.crc_pass;
        self.crc_fail += after.crc_fail - before.crc_fail;
    }

    /// The engine, interconnect, DMA and CRC read-back counters of a pass.
    fn layer(&self) -> Vec<(&'static str, f64)> {
        let actions = self.actions as f64;
        vec![
            ("sim_core.engine.actions", actions),
            (
                "sim_core.engine.actions_per_sim_us",
                actions / (self.sim_ps as f64 / 1e6),
            ),
            ("axi.interconnect.beats", self.beats as f64),
            ("axi.interconnect.data_stalls", self.data_stalls as f64),
            (
                "axi.interconnect.stall_ratio",
                self.data_stalls as f64 / (self.beats + self.data_stalls) as f64,
            ),
            ("dma.bursts", self.dma_bursts as f64),
            ("dma.bytes", self.dma_bytes as f64),
            ("crc_readback.pass", self.crc_pass as f64),
            ("crc_readback.fail", self.crc_fail as f64),
        ]
    }
}

/// A workload with its inputs generated from the seed.
pub enum Workload {
    /// See [`Kind::Table1Sweep`].
    Table1(Table1Sweep),
    /// See [`Kind::FaultSoak`].
    Soak(FaultSoak),
    /// See [`Kind::Fleet1m`].
    Fleet(Fleet1m),
}

impl Workload {
    /// Builds the workload's inputs from `seed`. Seed 0 gives the inputs
    /// the paper experiments use; other seeds are mixed into each one.
    pub fn new(kind: Kind, seed: u64, scale: Scale) -> Workload {
        match kind {
            Kind::Table1Sweep => Workload::Table1(Table1Sweep::new(seed, scale)),
            Kind::FaultSoak => Workload::Soak(FaultSoak::new(seed, scale)),
            Kind::Fleet1m => Workload::Fleet(Fleet1m::new(seed, scale)),
        }
    }

    /// Runs one pass. Spans and the program's trace counters are recorded
    /// only while `spans` is enabled.
    pub fn pass(&mut self, spans: &mut Spans) -> Pass {
        match self {
            Workload::Table1(w) => w.pass(spans),
            Workload::Soak(w) => w.pass(spans),
            Workload::Fleet(w) => w.pass(spans),
        }
    }

    /// The bitstreams the workload reconfigures with, each with the frame
    /// count its parse must yield. The per-layer parser, CRC and codec
    /// timings run on these.
    pub fn bitstreams(&self) -> Vec<(Bitstream, u64)> {
        let (cfg, specs): (&SystemConfig, Vec<(usize, u32)>) = match self {
            Workload::Table1(w) => (&w.cfg, vec![(0, w.bitstream_seed)]),
            // The soak's initial images, as `CampaignRun` builds them.
            Workload::Soak(w) => (
                &w.cfg,
                (0..w.campaign.rps.len())
                    .map(|i| (w.campaign.rps[i], i as u32 + 1))
                    .collect(),
            ),
            // The calibration images, one per size class.
            Workload::Fleet(w) => {
                let parts = w.cfg.system.floorplan.partitions().len();
                (
                    &w.cfg.system,
                    (0..w.cfg.size_classes)
                        .map(|c| (c as usize % parts, c + 1))
                        .collect(),
                )
            }
        };
        let sys = ZynqPdrSystem::new(cfg.clone());
        let geometry = cfg.floorplan.geometry();
        specs
            .into_iter()
            .map(|(rp, seed)| {
                let frames = cfg.floorplan.partition(rp).frame_count(geometry);
                (sys.make_partial_bitstream(rp, seed), u64::from(frames))
            })
            .collect()
    }

    /// Builds every later pass's systems with `strategy`. Both strategies
    /// must give the same simulated outputs, so the next pass is checked
    /// against the first pass's digest as usual.
    pub fn set_strategy(&mut self, strategy: EngineStrategy) {
        match self {
            Workload::Table1(w) => w.cfg.strategy = strategy,
            Workload::Soak(w) => w.cfg.strategy = strategy,
            Workload::Fleet(w) => w.cfg.system.strategy = strategy,
        }
    }

    /// Which workload this is.
    pub fn kind(&self) -> Kind {
        match self {
            Workload::Table1(_) => Kind::Table1Sweep,
            Workload::Soak(_) => Kind::FaultSoak,
            Workload::Fleet(_) => Kind::Fleet1m,
        }
    }

    /// The fleet configuration, for the calibration timing.
    pub fn fleet_config(&self) -> Option<&FleetConfig> {
        match self {
            Workload::Fleet(w) => Some(&w.cfg),
            _ => None,
        }
    }
}

/// Fingerprint of a pass's simulated outputs; every pass of one seed must
/// produce the same.
fn same_as_first(first: &mut Option<u64>, digest: u64) -> bool {
    *first.get_or_insert(digest) == digest
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

// ---------------------------------------------------------------------------
// table1_sweep
// ---------------------------------------------------------------------------

/// Table I as `experiments::table1` runs it: for each frequency a fresh
/// system at 40 °C, a partial bitstream for partition 0, one reconfigure.
pub struct Table1Sweep {
    cfg: SystemConfig,
    bitstream_seed: u32,
    /// Largest tolerated throughput error against the paper, %; `None` at
    /// smoke scale, whose miniature bitstreams run slower than the paper's.
    tolerance_pct: Option<f64>,
    first_digest: Option<u64>,
}

impl Table1Sweep {
    fn new(seed: u64, scale: Scale) -> Table1Sweep {
        let (mut cfg, tolerance_pct) = match scale {
            Scale::Full => (
                SystemConfig {
                    ideal_instruments: true,
                    ..SystemConfig::default()
                },
                Some(1.0),
            ),
            Scale::Smoke => (SystemConfig::fast_test(), None),
        };
        cfg.seed = 0xC0FFEE ^ seed;
        cfg.initial_die_temp_c = 40.0;
        cfg.strategy = ENGINE;
        Table1Sweep {
            cfg,
            bitstream_seed: 1u32.wrapping_add(seed as u32),
            tolerance_pct,
            first_digest: None,
        }
    }

    fn pass(&mut self, spans: &mut Spans) -> Pass {
        let traced = spans.enabled();
        let t0 = Instant::now();
        spans.enter("bench.pass");
        let mut p = Pass::default();
        let mut probe = Probe::default();
        let mut reports = Vec::with_capacity(TABLE1_FREQS_MHZ.len());
        // One system at a time, built, used and dropped, as
        // `experiments::table1` runs them.
        for &mhz in &TABLE1_FREQS_MHZ {
            let t = Instant::now();
            let mut sys = spans.record("pdr.system.new", || ZynqPdrSystem::new(self.cfg.clone()));
            if traced {
                sys.set_trace_level(TraceLevel::Counters);
            }
            let bs = spans.record("pdr.system.make_bitstream", || {
                sys.make_partial_bitstream(0, self.bitstream_seed)
            });
            p.setup_s += secs(t.elapsed());
            let before = Probe::read(&mut sys);
            let r = p.time_op(|| {
                spans.record("pdr.system.reconfigure", || {
                    sys.reconfigure(0, &bs, Frequency::from_mhz(mhz))
                })
            });
            probe.add_delta(&before, &Probe::read(&mut sys));
            reports.push(r);
        }
        spans.exit();
        p.wall_s = secs(t0.elapsed());

        spans.enter("bench.check");
        let mut err_max = 0.0f64;
        for (r, paper) in reports.iter().zip(&TABLE1_PAPER) {
            let (ok, err) = check_table1_row(r, paper, self.tolerance_pct);
            p.checks.check(ok);
            err_max = err_max.max(err.unwrap_or(0.0));
        }
        let digest = fnv1a(format!("{reports:?}").as_bytes());
        p.checks
            .check(same_as_first(&mut self.first_digest, digest));
        spans.exit();

        p.requests = reports.len() as u64;
        p.sim_bytes = probe.beats * BEAT_BYTES;
        p.sim = vec![("paper_err_pct_max", err_max)];
        p.layer = probe.layer();
        p
    }
}

/// Checks one Table I row against the paper: the interrupt and CRC
/// regimes must match, and an interrupting row's throughput must be within
/// `tolerance_pct` when one is given. Returns the verdict and the
/// throughput error in %, for interrupting rows.
pub fn check_table1_row(
    r: &ReconfigReport,
    paper: &(u64, Option<(f64, f64)>, bool),
    tolerance_pct: Option<f64>,
) -> (bool, Option<f64>) {
    let &(mhz, paper_point, paper_crc) = paper;
    let regime_ok = r.frequency_hz == mhz * 1_000_000
        && r.interrupt_seen == paper_point.is_some()
        && (r.crc == CrcStatus::Valid) == paper_crc;
    let err = match (paper_point, r.throughput_mb_s()) {
        (Some((_, paper_mb_s)), Some(mb_s)) => Some((mb_s / paper_mb_s - 1.0).abs() * 100.0),
        _ => None,
    };
    let within = match (tolerance_pct, paper_point) {
        (Some(tol), Some(_)) => err.is_some_and(|e| e <= tol),
        _ => true,
    };
    (regime_ok && within, err)
}

// ---------------------------------------------------------------------------
// fault_soak
// ---------------------------------------------------------------------------

/// Fault events in one full-scale soak pass.
const SOAK_EVENTS: usize = 150;
/// Fault events in one smoke pass.
const SOAK_SMOKE_EVENTS: usize = 12;

/// The fault campaign on the fast floorplan, one timed `step` per event.
pub struct FaultSoak {
    cfg: SystemConfig,
    campaign: FaultCampaign,
    plan: FaultPlan,
    first_digest: Option<u64>,
}

impl FaultSoak {
    fn new(seed: u64, scale: Scale) -> FaultSoak {
        let mut cfg = FaultCampaign::fast_system();
        cfg.strategy = ENGINE;
        let campaign = FaultCampaign::default();
        let events = match scale {
            Scale::Full => SOAK_EVENTS,
            Scale::Smoke => SOAK_SMOKE_EVENTS,
        };
        FaultSoak {
            plan: soak_plan(&campaign, &cfg, seed, events),
            cfg,
            campaign,
            first_digest: None,
        }
    }

    fn pass(&mut self, spans: &mut Spans) -> Pass {
        let traced = spans.enabled();
        let t0 = Instant::now();
        spans.enter("bench.pass");
        spans.enter("bench.setup");
        let sys = spans.record("pdr.system.new", || ZynqPdrSystem::new(self.cfg.clone()));
        let mut run = spans.record("pdr.campaign.new", || {
            CampaignRun::with_plan(sys, self.campaign.clone(), self.plan.clone())
        });
        if traced {
            run.system_mut().set_trace_level(TraceLevel::Counters);
        }
        spans.exit();
        let mut p = Pass {
            setup_s: secs(t0.elapsed()),
            ..Pass::default()
        };
        let before = Probe::read(run.system_mut());
        let mut records = Vec::with_capacity(run.events());
        while !run.is_done() {
            let span = step_span(run.plan().events[run.position()].kind);
            let rec = p.time_op(|| spans.record(span, || run.step()));
            records.push(rec.expect("a step remains while the run is not done"));
        }
        let mut probe = Probe::default();
        probe.add_delta(&before, &Probe::read(run.system_mut()));
        let res = spans.record("pdr.campaign.finish", || run.finish());
        spans.exit();
        p.wall_s = secs(t0.elapsed());

        spans.enter("bench.check");
        for rec in &records {
            p.checks.check(check_soak_record(rec));
        }
        p.checks
            .check(check_soak_result(&res, records.len() as u64));
        let digest = fnv1a(res.to_json_string().as_bytes());
        p.checks
            .check(same_as_first(&mut self.first_digest, digest));
        spans.exit();

        p.requests = records.len() as u64;
        p.sim_bytes = probe.beats * BEAT_BYTES;
        p.sim = vec![("availability", res.availability)];
        p.layer = probe.layer();
        p.layer.extend([
            ("pdr.recovery.retries", res.recovery.retries as f64),
            ("pdr.recovery.scrubs", res.recovery.scrubs as f64),
            ("pdr.recovery.quarantines", res.recovery.quarantines as f64),
        ]);
        p
    }
}

/// The soak's plan: the first `events` of the campaign's default plan,
/// with each SEU's target (partition, frame, word and bit) replaced by the
/// next SEU target of the plan the seed generates. Seed 0 yields the
/// default plan itself.
///
/// The seed moves only the SEU targets because the other kinds' parameters
/// set how much recovery work a step needs: with per-seed timing-burst
/// deratings, 10 of the 30 bursts took the slow retry path on one seed and
/// 15 on another, and `op_ms_p90` moved with that count. Every seed
/// therefore runs the same faults at the same instants with the same
/// recovery work, and flips different bits.
fn soak_plan(campaign: &FaultCampaign, cfg: &SystemConfig, seed: u64, events: usize) -> FaultPlan {
    let mut plan = FaultPlan::generate(&campaign.plan, &cfg.floorplan);
    assert!(plan.events.len() >= events, "default plan too short");
    plan.events.truncate(events);
    let mut pc = campaign.plan.clone();
    pc.seed ^= seed;
    // Four times the horizon holds more SEUs than the schedule needs.
    pc.duration = pc.duration * 4;
    let draws = FaultPlan::generate(&pc, &cfg.floorplan);
    let mut targets = draws.events.iter().filter(|d| d.kind == FaultKind::Seu);
    for e in plan.events.iter_mut().filter(|e| e.kind == FaultKind::Seu) {
        let t = targets.next().expect("the longer plan holds enough SEUs");
        (e.rp, e.frame, e.word, e.bit) = (t.rp, t.frame, t.word, t.bit);
    }
    plan.seed = pc.seed;
    plan
}

/// The span name of a campaign step handling a fault of `kind`.
pub fn step_span(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Seu => "pdr.campaign.step.seu",
        FaultKind::TimingBurst => "pdr.campaign.step.timing_burst",
        FaultKind::DmaStall => "pdr.campaign.step.dma_stall",
        FaultKind::DroppedIrq => "pdr.campaign.step.dropped_irq",
        FaultKind::HeatSoak => "pdr.campaign.step.heat_soak",
    }
}

/// A fault passes when it was detected and the ladder repaired it.
pub fn check_soak_record(rec: &FaultRecord) -> bool {
    rec.outcome == FaultOutcome::Detected && rec.recovered
}

/// A campaign passes when all `events` faults were detected and recovered
/// and the final golden sweep found no silent corruption.
pub fn check_soak_result(res: &FaultCampaignResult, events: u64) -> bool {
    res.events == events
        && res.detected == events
        && res.recovered == events
        && res.silent_corruptions == 0
}

// ---------------------------------------------------------------------------
// fleet_1m
// ---------------------------------------------------------------------------

/// The fleet campaign stepped epoch by epoch on a 2-thread executor.
pub struct Fleet1m {
    cfg: FleetConfig,
    executor: ParallelExecutor,
    first_digest: Option<u64>,
}

impl Fleet1m {
    fn new(seed: u64, scale: Scale) -> Fleet1m {
        let mut cfg = match scale {
            Scale::Full => FleetConfig::full_scale(),
            Scale::Smoke => FleetConfig::default(),
        };
        cfg.seed ^= seed;
        cfg.system.strategy = ENGINE;
        Fleet1m {
            cfg,
            executor: ParallelExecutor::new(FLEET_THREADS),
            first_digest: None,
        }
    }

    fn pass(&mut self, spans: &mut Spans) -> Pass {
        let t0 = Instant::now();
        spans.enter("bench.pass");
        let mut run = spans.record("pdr.fleet.new", || FleetRun::new(self.cfg.clone()));
        let mut p = Pass {
            setup_s: secs(t0.elapsed()),
            ..Pass::default()
        };
        let executor = &self.executor;
        while p.time_op(|| spans.record("pdr.fleet.step_epoch", || run.step_epoch(executor))) {}
        let report = spans.record("pdr.fleet.report", || run.report());
        spans.exit();
        p.wall_s = secs(t0.elapsed());

        spans.enter("bench.check");
        p.checks
            .check(check_fleet(&report, self.cfg.traffic.target_requests));
        p.checks
            .check(same_as_first(&mut self.first_digest, run.digest()));
        spans.exit();

        p.requests = report.submitted;
        p.sim = vec![
            ("availability", report.availability.unwrap_or(0.0)),
            ("sim_latency_p99_us", report.latency_p99_us.unwrap_or(0.0)),
        ];
        p.layer = vec![
            ("pdr.fleet.stolen", report.stolen as f64),
            ("pdr.fleet.rerouted", report.rerouted as f64),
            (
                "pdr.fleet.cache_hit_rate",
                report.cache_hit_rate.unwrap_or(0.0),
            ),
        ];
        p
    }
}

/// A fleet pass passes when every generated request was submitted and the
/// report carries an availability and a p99 latency.
pub fn check_fleet(report: &FleetReport, expected_requests: u64) -> bool {
    report.submitted == expected_requests
        && report.availability.is_some()
        && report.latency_p99_us.is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_core::FaultEvent;

    fn smoke(kind: Kind, seed: u64) -> (Workload, Pass) {
        let mut w = Workload::new(kind, seed, Scale::Smoke);
        let p = w.pass(&mut Spans::new(true));
        (w, p)
    }

    fn assert_clean(p: &Pass) {
        assert!(p.checks.attempted > 0);
        assert_eq!(p.checks.failed, 0, "{p:?}");
        assert!(!p.op_ms.is_empty() && p.requests > 0);
        assert!(p.wall_s >= p.setup_s + p.ops_s * 0.999);
    }

    #[test]
    fn table1_smoke_pass_checks_every_row() {
        let (_, p) = smoke(Kind::Table1Sweep, 0);
        assert_clean(&p);
        assert_eq!(p.op_ms.len(), TABLE1_FREQS_MHZ.len());
        // 9 rows plus the cross-pass digest.
        assert_eq!(p.checks.attempted, TABLE1_FREQS_MHZ.len() as u64 + 1);
        assert!(p.sim_bytes > 0);
    }

    #[test]
    fn table1_check_rejects_a_wrong_regime_and_a_slow_row() {
        let cfg = Table1Sweep::new(0, Scale::Smoke).cfg;
        let mut sys = ZynqPdrSystem::new(cfg);
        let bs = sys.make_partial_bitstream(0, 1);
        let r = sys.reconfigure(0, &bs, Frequency::from_mhz(200));
        let paper_200 = &TABLE1_PAPER[3];
        assert!(check_table1_row(&r, paper_200, None).0);
        // The miniature bitstream runs well below the paper's 781 MB/s.
        assert!(!check_table1_row(&r, paper_200, Some(1.0)).0);
        // A 200 MHz report does not match the no-interrupt 320 MHz row.
        assert!(!check_table1_row(&r, &TABLE1_PAPER[7], None).0);
    }

    #[test]
    fn soak_smoke_pass_checks_every_fault() {
        let (_, p) = smoke(Kind::FaultSoak, 0);
        assert_clean(&p);
        assert_eq!(p.requests, SOAK_SMOKE_EVENTS as u64);
        // Every record, the final sweep and the cross-pass digest.
        assert_eq!(p.checks.attempted, SOAK_SMOKE_EVENTS as u64 + 2);
    }

    #[test]
    fn soak_checks_reject_an_unrecovered_fault() {
        let mut w = FaultSoak::new(0, Scale::Smoke);
        let sys = ZynqPdrSystem::new(w.cfg.clone());
        let mut run = CampaignRun::with_plan(sys, w.campaign.clone(), w.plan.clone());
        let mut rec = run.step().expect("plan is not empty");
        assert!(check_soak_record(&rec));
        rec.recovered = false;
        assert!(!check_soak_record(&rec));
        let res = run.finish();
        assert!(!check_soak_result(&res, 1), "only one event was handled");
        assert!(same_as_first(&mut w.first_digest, 1));
        assert!(!same_as_first(&mut w.first_digest, 2));
    }

    #[test]
    fn fleet_smoke_pass_checks_the_request_count_and_digest() {
        let (mut w, p) = smoke(Kind::Fleet1m, 0);
        assert_clean(&p);
        let Workload::Fleet(f) = &mut w else {
            unreachable!()
        };
        assert_eq!(p.requests, f.cfg.traffic.target_requests);
        let report = FleetRun::new(f.cfg.clone()).report();
        assert!(!check_fleet(&report, f.cfg.traffic.target_requests));
        // A second pass must reproduce the first one's digest.
        let again = w.pass(&mut Spans::new(false));
        assert_eq!(again.checks.failed, 0);
    }

    #[test]
    fn the_seed_changes_the_generated_inputs() {
        let bitstreams = |kind, seed| Workload::new(kind, seed, Scale::Smoke).bitstreams();
        for kind in Kind::ALL {
            assert_eq!(bitstreams(kind, 7), bitstreams(kind, 7), "{kind:?}");
        }
        assert_ne!(
            bitstreams(Kind::Table1Sweep, 0),
            bitstreams(Kind::Table1Sweep, 7)
        );
        let plan = |seed| FaultSoak::new(seed, Scale::Smoke).plan;
        assert_eq!(plan(3), plan(3));
        assert_ne!(plan(0), plan(3));
        // Only the SEU targets move: every other field of every event is
        // the default plan's.
        let untargeted = |seed| -> Vec<_> {
            plan(seed)
                .events
                .into_iter()
                .map(|e| FaultEvent {
                    rp: 0,
                    frame: 0,
                    word: 0,
                    bit: 0,
                    ..e
                })
                .collect()
        };
        assert_eq!(untargeted(0), untargeted(3));
        let fleet_seed = |seed| Fleet1m::new(seed, Scale::Smoke).cfg.seed;
        assert_ne!(fleet_seed(0), fleet_seed(3));
        assert_eq!(fleet_seed(0), FleetConfig::default().seed);
    }

    #[test]
    fn seed_zero_soak_plan_is_the_default_plan() {
        let w = FaultSoak::new(0, Scale::Full);
        let default = FaultPlan::generate(&FaultCampaign::default().plan, &w.cfg.floorplan);
        assert_eq!(default.events.len(), SOAK_EVENTS);
        assert_eq!(w.plan.events, default.events);
    }

    #[test]
    fn workload_names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("table1"), None);
    }
}
