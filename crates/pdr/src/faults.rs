//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a pre-computed, fully serialisable schedule of fault
//! events — SEU bit-flips, transient timing-violation bursts, DMA stalls,
//! dropped completion interrupts — generated by the simulation RNG from a
//! [`FaultPlanConfig`]. Because the plan is materialised *before* the
//! campaign runs and round-trips through JSON byte-for-byte, any campaign
//! can be replayed exactly from its plan (or its seed) alone.
//!
//! Arrivals follow a Poisson process (exponential interarrival times), and
//! each arrival may seed a *burst* — a cluster of same-kind events in quick
//! succession, modelling correlated upsets (an ion shower, a sagging rail)
//! rather than independent ones.

use pdr_bitstream::FRAME_WORDS;
use pdr_fabric::Floorplan;
use pdr_sim_core::{
    impl_json_enum, impl_json_struct, SimDuration, SimTime, SplitMix64, Xoshiro256StarStar,
};

/// The fault taxonomy (see `docs/ROBUSTNESS.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Single-event upset: one configuration-memory bit flips.
    Seu,
    /// Transient timing excursion: the over-clock failure envelope shrinks
    /// by `derate_mhz` for `duration_ps`.
    TimingBurst,
    /// The configuration DMA freezes for `stall_cycles` over-clock cycles
    /// mid-transfer.
    DmaStall,
    /// The next completion interrupt is swallowed (controller glitch).
    DroppedIrq,
    /// Ambient heat soak: the environment around the die rises by
    /// `delta_mc` for `duration_ps` (heat gun on, heat gun off), driving
    /// the closed thermal loop toward alarm and throttling.
    HeatSoak,
}

impl_json_enum!(FaultKind {
    Seu,
    TimingBurst,
    DmaStall,
    DroppedIrq,
    HeatSoak
});

impl FaultKind {
    /// Every kind, for iteration and weighting.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Seu,
        FaultKind::TimingBurst,
        FaultKind::DmaStall,
        FaultKind::DroppedIrq,
        FaultKind::HeatSoak,
    ];
}

/// One scheduled fault. The struct is deliberately flat — parameters not
/// used by `kind` stay zero — so the JSON schema is a fixed table that
/// diffs cleanly between campaign runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Injection instant, picoseconds from campaign start.
    pub at_ps: u64,
    /// What happens.
    pub kind: FaultKind,
    /// Target partition (SEU).
    pub rp: usize,
    /// Frame offset within the partition (SEU).
    pub frame: u32,
    /// Word within the frame, `0..FRAME_WORDS` (SEU).
    pub word: usize,
    /// Bit within the word, `0..32` (SEU).
    pub bit: u32,
    /// Envelope derating in MHz (timing burst).
    pub derate_mhz: f64,
    /// Burst duration in picoseconds (timing burst).
    pub duration_ps: u64,
    /// Stall length in over-clock cycles (DMA stall).
    pub stall_cycles: u64,
    /// Ambient excursion in milli-°C (heat soak).
    pub delta_mc: i64,
}

impl_json_struct!(FaultEvent {
    at_ps,
    kind,
    rp,
    frame,
    word,
    bit,
    derate_mhz,
    duration_ps,
    stall_cycles,
    delta_mc,
});

impl FaultEvent {
    /// The injection instant as a simulation timestamp.
    pub fn at(&self) -> SimTime {
        SimTime::from_ps(self.at_ps)
    }
}

/// Parameters for [`FaultPlan::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanConfig {
    /// RNG seed: same seed + config + floorplan ⇒ identical plan.
    pub seed: u64,
    /// Campaign horizon; no event is scheduled past it.
    pub duration: SimDuration,
    /// Mean of the exponential interarrival distribution.
    pub mean_interarrival: SimDuration,
    /// Probability that an arrival seeds a burst of correlated events.
    pub burst_probability: f64,
    /// Extra same-kind events per burst.
    pub burst_length: u32,
    /// Spacing between burst members.
    pub burst_spacing: SimDuration,
    /// Relative arrival weights per [`FaultKind::ALL`] order
    /// (SEU, timing burst, DMA stall, dropped IRQ, heat soak).
    pub weights: [u32; 5],
    /// Derating range for timing bursts, MHz.
    pub derate_mhz: (f64, f64),
    /// Duration of one timing burst.
    pub timing_burst_duration: SimDuration,
    /// Stall length range, over-clock cycles.
    pub stall_cycles: (u64, u64),
    /// Ambient excursion range for heat soaks, milli-°C.
    pub heat_soak_mc: (i64, i64),
    /// Duration of one heat soak.
    pub heat_soak_duration: SimDuration,
}

impl FaultPlanConfig {
    /// A thermal-runaway campaign: back-to-back strong heat soaks with no
    /// cooldown between them, so the closed thermal loop climbs through the
    /// alarm threshold under sustained traffic (docs/DVFS.md §4).
    pub fn thermal_runaway() -> Self {
        FaultPlanConfig {
            seed: 41,
            duration: SimDuration::from_millis(60),
            mean_interarrival: SimDuration::from_millis(6),
            burst_probability: 0.0,
            weights: [0, 0, 0, 0, 1],
            heat_soak_mc: (45_000, 60_000),
            heat_soak_duration: SimDuration::from_millis(10),
            ..FaultPlanConfig::default()
        }
    }

    /// A throttling-storm campaign: rapid short soaks interleaved with the
    /// stock fault mix, repeatedly tripping the alarm so the governor
    /// oscillates between its throttle point and reinstatement.
    pub fn throttling_storm() -> Self {
        FaultPlanConfig {
            seed: 42,
            duration: SimDuration::from_millis(60),
            mean_interarrival: SimDuration::from_millis(2),
            burst_probability: 0.25,
            burst_length: 2,
            burst_spacing: SimDuration::from_micros(250),
            weights: [3, 1, 0, 1, 6],
            // Excursions must clear the default 85 °C alarm from the ~44 °C
            // loop settle point within a few τ, so the low end of the range
            // already reaches the latch when soaks chain back to back.
            heat_soak_mc: (42_000, 65_000),
            heat_soak_duration: SimDuration::from_millis(6),
            ..FaultPlanConfig::default()
        }
    }
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            seed: 1,
            duration: SimDuration::from_millis(60),
            mean_interarrival: SimDuration::from_micros(450),
            burst_probability: 0.12,
            burst_length: 3,
            burst_spacing: SimDuration::from_micros(40),
            // Heat soak defaults to weight 0: plans generated by existing
            // configs draw the exact same RNG stream as before the kind
            // existed (the zero weight never absorbs a roll).
            weights: [6, 2, 1, 2, 0],
            derate_mhz: (20.0, 45.0),
            timing_burst_duration: SimDuration::from_micros(800),
            stall_cycles: (5_000, 60_000),
            heat_soak_mc: (20_000, 60_000),
            heat_soak_duration: SimDuration::from_millis(5),
        }
    }
}

/// A complete, replayable fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The seed the plan was generated from (provenance).
    pub seed: u64,
    /// Events in non-decreasing `at_ps` order.
    pub events: Vec<FaultEvent>,
}

impl_json_struct!(FaultPlan { seed, events });

impl FaultPlan {
    /// Generates a plan. Deterministic: the schedule is a pure function of
    /// `cfg` and the floorplan.
    ///
    /// # Panics
    ///
    /// Panics if the floorplan has no partitions, a weight sum of zero, or
    /// an empty derate/stall range.
    pub fn generate(cfg: &FaultPlanConfig, floorplan: &Floorplan) -> FaultPlan {
        assert!(
            !floorplan.partitions().is_empty(),
            "fault plan needs at least one partition"
        );
        let weight_sum: u64 = cfg.weights.iter().map(|&w| w as u64).sum();
        assert!(weight_sum > 0, "at least one fault kind must have weight");
        assert!(
            cfg.derate_mhz.0 <= cfg.derate_mhz.1
                && cfg.stall_cycles.0 <= cfg.stall_cycles.1
                && cfg.heat_soak_mc.0 <= cfg.heat_soak_mc.1,
            "parameter ranges must be non-empty"
        );
        let mut rng = Xoshiro256StarStar::seed_from_u64(cfg.seed);
        let horizon = cfg.duration.as_ps();
        let mut events = Vec::new();
        let mut t_ps: u64 = 0;
        loop {
            // Exponential interarrival (Poisson arrivals), at least 1 ps so
            // time always advances.
            let dt = (-(1.0 - rng.next_f64()).ln() * cfg.mean_interarrival.as_ps() as f64) as u64;
            t_ps = t_ps.saturating_add(dt.max(1));
            if t_ps > horizon {
                break;
            }
            let kind = Self::pick_kind(&mut rng, &cfg.weights, weight_sum);
            let members = if rng.next_bool(cfg.burst_probability) {
                1 + cfg.burst_length as u64
            } else {
                1
            };
            for i in 0..members {
                let at_ps = t_ps.saturating_add(i * cfg.burst_spacing.as_ps());
                if at_ps > horizon {
                    break;
                }
                events.push(Self::materialise(&mut rng, cfg, floorplan, kind, at_ps));
            }
        }
        // A burst can outlast the gap to the next Poisson arrival, so the
        // push order is not globally time-ordered; the plan contract is.
        events.sort_by_key(|e| e.at_ps);
        FaultPlan {
            seed: cfg.seed,
            events,
        }
    }

    fn pick_kind(rng: &mut Xoshiro256StarStar, weights: &[u32; 5], sum: u64) -> FaultKind {
        let mut roll = rng.next_bounded(sum);
        for (kind, &w) in FaultKind::ALL.iter().zip(weights) {
            if roll < w as u64 {
                return *kind;
            }
            roll -= w as u64;
        }
        unreachable!("roll < sum of weights")
    }

    fn materialise(
        rng: &mut Xoshiro256StarStar,
        cfg: &FaultPlanConfig,
        floorplan: &Floorplan,
        kind: FaultKind,
        at_ps: u64,
    ) -> FaultEvent {
        let mut e = FaultEvent {
            at_ps,
            kind,
            rp: 0,
            frame: 0,
            word: 0,
            bit: 0,
            derate_mhz: 0.0,
            duration_ps: 0,
            stall_cycles: 0,
            delta_mc: 0,
        };
        match kind {
            FaultKind::Seu => {
                let geometry = floorplan.geometry();
                e.rp = rng.next_bounded(floorplan.partitions().len() as u64) as usize;
                let frames = floorplan.partition(e.rp).frame_count(geometry);
                e.frame = rng.next_bounded(frames as u64) as u32;
                e.word = rng.next_bounded(FRAME_WORDS as u64) as usize;
                e.bit = rng.next_bounded(32) as u32;
            }
            FaultKind::TimingBurst => {
                let (lo, hi) = cfg.derate_mhz;
                e.derate_mhz = lo + rng.next_f64() * (hi - lo);
                e.duration_ps = cfg.timing_burst_duration.as_ps();
            }
            FaultKind::DmaStall => {
                let (lo, hi) = cfg.stall_cycles;
                e.stall_cycles = rng.next_range(lo, hi);
            }
            FaultKind::DroppedIrq => {}
            FaultKind::HeatSoak => {
                let (lo, hi) = cfg.heat_soak_mc;
                e.delta_mc = lo + rng.next_range(0, (hi - lo) as u64) as i64;
                e.duration_ps = cfg.heat_soak_duration.as_ps();
            }
        }
        e
    }

    /// Number of events of one kind.
    pub fn count(&self, kind: FaultKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// The per-fault RNG seed of event `idx`: a pure function of the plan
    /// seed, the event's index, and its scheduled instant. Campaign records
    /// carry this value so any single fault can be replayed in isolation
    /// (see [`FaultPlan::isolate`]) without regenerating the whole plan.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn fault_seed(&self, idx: usize) -> u64 {
        let e = &self.events[idx];
        let mut sm = SplitMix64::new(self.seed ^ (idx as u64).rotate_left(32) ^ e.at_ps);
        sm.next_u64()
    }

    /// A single-event plan that replays event `idx` alone, seeded with its
    /// [`FaultPlan::fault_seed`]. Running a campaign over the isolated plan
    /// reproduces exactly that injection (same kind, coordinates, and
    /// schedule slot) against a freshly configured system.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn isolate(&self, idx: usize) -> FaultPlan {
        FaultPlan {
            seed: self.fault_seed(idx),
            events: vec![self.events[idx].clone()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_sim_core::json::{FromJson, ToJson};

    fn plan() -> (FaultPlanConfig, FaultPlan) {
        let cfg = FaultPlanConfig::default();
        let fp = Floorplan::zedboard_quad();
        let p = FaultPlan::generate(&cfg, &fp);
        (cfg, p)
    }

    #[test]
    fn same_seed_means_identical_plan_and_json() {
        let (cfg, a) = plan();
        let b = FaultPlan::generate(&cfg, &Floorplan::zedboard_quad());
        assert_eq!(a, b);
        assert_eq!(a.to_json_string(), b.to_json_string());
    }

    #[test]
    fn different_seed_means_different_plan() {
        let (mut cfg, a) = plan();
        cfg.seed = 2;
        let b = FaultPlan::generate(&cfg, &Floorplan::zedboard_quad());
        assert_ne!(a, b);
    }

    #[test]
    fn plan_json_round_trips() {
        let (_, p) = plan();
        let text = p.to_json_string();
        let back = FaultPlan::from_json_str(&text).expect("decodes");
        assert_eq!(back, p);
    }

    #[test]
    fn deeply_nested_plan_json_is_an_error_not_an_abort() {
        // A corrupted plan nesting 50,000 arrays used to overflow the
        // parser's stack and abort the process.
        let (_, p) = plan();
        let text = p.to_json_string();
        let deep = text.replacen(
            "\"events\":",
            &format!("\"events\":{}", "[".repeat(50_000)),
            1,
        );
        let err = FaultPlan::from_json_str(&deep).unwrap_err();
        assert!(err.msg.contains("nesting deeper than"), "{}", err.msg);
    }

    #[test]
    fn events_are_time_ordered_and_inside_the_horizon() {
        let (cfg, p) = plan();
        let mut prev = 0;
        for e in &p.events {
            assert!(e.at_ps >= prev, "events must be non-decreasing in time");
            assert!(e.at_ps <= cfg.duration.as_ps());
            prev = e.at_ps;
        }
    }

    #[test]
    fn seu_coordinates_stay_inside_the_device() {
        let (_, p) = plan();
        let fp = Floorplan::zedboard_quad();
        let geometry = fp.geometry();
        for e in p.events.iter().filter(|e| e.kind == FaultKind::Seu) {
            assert!(e.rp < fp.partitions().len());
            assert!(e.frame < fp.partition(e.rp).frame_count(geometry));
            assert!(e.word < FRAME_WORDS);
            assert!(e.bit < 32);
        }
    }

    #[test]
    fn default_config_produces_a_mixed_hundred_plus_campaign() {
        let (cfg, p) = plan();
        assert!(p.events.len() >= 100, "only {} events", p.events.len());
        for (kind, &w) in FaultKind::ALL.iter().zip(&cfg.weights) {
            if w > 0 {
                assert!(p.count(*kind) > 0, "{kind:?} never arrives");
            } else {
                assert_eq!(p.count(*kind), 0, "{kind:?} arrives at weight 0");
            }
        }
        // SEUs dominate per the default weights.
        assert!(p.count(FaultKind::Seu) > p.count(FaultKind::DmaStall));
    }

    #[test]
    fn zero_weight_heat_soak_leaves_legacy_plans_untouched() {
        // The RNG-stream guarantee: a config written before HeatSoak
        // existed generates exactly the same events now that the kind is
        // appended at weight 0.
        let (_, p) = plan();
        assert_eq!(p.count(FaultKind::HeatSoak), 0);
        // Spot-check the first event against the stream's historical shape:
        // regenerating twice stays identical (the real lock is the golden
        // tapes and BENCH_campaign.json, byte-compared in CI).
        let q = FaultPlan::generate(&FaultPlanConfig::default(), &Floorplan::zedboard_quad());
        assert_eq!(p, q);
    }

    #[test]
    fn dvfs_presets_schedule_heat_soaks() {
        let fp = Floorplan::zedboard_quad();
        let runaway = FaultPlan::generate(&FaultPlanConfig::thermal_runaway(), &fp);
        assert!(!runaway.events.is_empty());
        assert_eq!(runaway.count(FaultKind::HeatSoak), runaway.events.len());
        for e in &runaway.events {
            assert!((45_000..=60_000).contains(&e.delta_mc), "{}", e.delta_mc);
            assert_eq!(e.duration_ps, SimDuration::from_millis(10).as_ps());
        }
        let storm = FaultPlan::generate(&FaultPlanConfig::throttling_storm(), &fp);
        assert!(storm.count(FaultKind::HeatSoak) > storm.events.len() / 3);
        assert!(storm.count(FaultKind::Seu) > 0);
        assert_eq!(storm.count(FaultKind::DmaStall), 0);
    }

    #[test]
    fn bursts_cluster_events() {
        let mut cfg = FaultPlanConfig {
            burst_probability: 1.0,
            ..FaultPlanConfig::default()
        };
        cfg.burst_length = 4;
        let p = FaultPlan::generate(&cfg, &Floorplan::zedboard_quad());
        let spacing = cfg.burst_spacing.as_ps();
        // Every arrival expands into a cluster at exact burst spacing; an
        // occasional overlap with the next arrival may interleave kinds.
        let pairs: Vec<_> = p
            .events
            .windows(2)
            .filter(|w| w[1].at_ps.saturating_sub(w[0].at_ps) == spacing)
            .collect();
        assert!(
            pairs.len() >= p.events.len() / 2,
            "expected mostly clustered events, got {}/{}",
            pairs.len(),
            p.events.len()
        );
        // Burst members overwhelmingly share their kind.
        let same_kind = pairs.iter().filter(|w| w[0].kind == w[1].kind).count();
        assert!(
            same_kind * 10 >= pairs.len() * 9,
            "only {same_kind}/{} clustered pairs share a kind",
            pairs.len()
        );
    }

    #[test]
    fn per_fault_seeds_are_stable_and_distinct() {
        let (_, p) = plan();
        assert_eq!(p.fault_seed(3), p.fault_seed(3));
        assert_ne!(p.fault_seed(3), p.fault_seed(4));
        let iso = p.isolate(3);
        assert_eq!(iso.seed, p.fault_seed(3));
        assert_eq!(iso.events, vec![p.events[3].clone()]);
        // An isolated plan round-trips like any other plan.
        assert_eq!(FaultPlan::from_json_str(&iso.to_json_string()), Ok(iso));
    }

    #[test]
    fn unused_parameters_stay_zero() {
        let (_, p) = plan();
        for e in &p.events {
            match e.kind {
                FaultKind::Seu => {
                    assert_eq!((e.derate_mhz, e.duration_ps, e.stall_cycles), (0.0, 0, 0))
                }
                FaultKind::TimingBurst => {
                    assert!(e.derate_mhz > 0.0);
                    assert!(e.duration_ps > 0);
                    assert_eq!(
                        (e.rp, e.frame, e.word, e.bit, e.stall_cycles),
                        (0, 0, 0, 0, 0)
                    );
                }
                FaultKind::DmaStall => {
                    assert!(e.stall_cycles > 0);
                    assert_eq!(e.derate_mhz, 0.0);
                    assert_eq!(e.delta_mc, 0);
                }
                FaultKind::DroppedIrq => {
                    assert_eq!((e.derate_mhz, e.duration_ps, e.stall_cycles), (0.0, 0, 0));
                    assert_eq!(e.delta_mc, 0);
                }
                FaultKind::HeatSoak => {
                    assert!(e.delta_mc > 0);
                    assert!(e.duration_ps > 0);
                    assert_eq!((e.derate_mhz, e.stall_cycles), (0.0, 0));
                }
            }
        }
    }
}
