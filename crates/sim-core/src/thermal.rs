//! A deterministic thermal RC node for closed-loop DVFS simulation.
//!
//! The die is modelled as a first-order RC network driven by dissipated
//! power — exactly the `dT/dt = (T_env + R_th·P − T)/τ` law of
//! `pdr-timing`'s analog [`DieThermal`] model, but discretised on a clock
//! domain and computed entirely in **scaled integers** (micro-degrees,
//! micro-watts) so that trajectories are bit-stable across platforms,
//! engine strategies and snapshot/restore (see `docs/KERNEL.md` and
//! `docs/DVFS.md`).
//!
//! The node integrates one RC step every [`ThermalRcConfig::tick_cycles`]
//! clock edges. All observable work — the temperature update, the internal
//! temperature-dependent leakage feedback, the alarm interrupt, trajectory
//! samples — happens on those *work edges* inside `on_clock_edge`; edges in
//! between only decrement a countdown that [`Component::catch_up`] folds in
//! closed form, so the event-skipping engine reproduces the tick oracle
//! byte-for-byte by construction.
//!
//! Leakage feedback closes the electro-thermal loop *inside* the node: the
//! heater input is split into an externally supplied part (dynamic switching
//! power plus any constant on-die dissipation, via
//! [`ThermalRc::set_power_uw`]) and a static-leakage part the node derives
//! from its own current temperature using integer-scaled coefficients
//! supplied at construction. Hotter silicon leaks more, which heats the
//! silicon — the runaway mechanism the thermal-alarm interrupt exists to
//! interrupt.
//!
//! [`DieThermal`]: ../../pdr_timing/thermal/struct.DieThermal.html

use crate::component::{Component, NextWake, WakeSignal};
use crate::engine::EdgeCtx;
use crate::impl_json_struct;
use crate::irq::IrqLine;
use crate::json::{FromJson, Json, JsonError, ToJson};

/// Static configuration of a [`ThermalRc`] node. All quantities are scaled
/// integers; converting from physical units happens once, at wiring time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThermalRcConfig {
    /// Clock edges per thermal integration step (work-edge spacing).
    pub tick_cycles: u64,
    /// RC time constant, in integration steps.
    pub tau_ticks: u64,
    /// Junction-to-ambient thermal resistance, milli-°C per watt.
    pub r_mc_per_w: i64,
    /// Ambient (heat-sink air) temperature, milli-°C.
    pub env_mc: i64,
    /// Die temperature at which the alarm interrupt asserts, milli-°C.
    pub alarm_mc: i64,
    /// The alarm re-arms once the die cools this far below the threshold.
    pub hysteresis_mc: i64,
    /// Static leakage at the 40 °C reference point, micro-watts
    /// (voltage-scaled by the caller; runtime-adjustable via
    /// [`ThermalRc::set_leak_ref_uw`]).
    pub leak_ref_uw: u64,
    /// Linear leakage growth per milli-°C above 40 °C, parts per 10¹².
    pub leak_lin_e12_per_mc: i64,
    /// Quadratic leakage growth per (milli-°C)² above 40 °C, parts per
    /// 10¹².
    pub leak_quad_e12_per_mc2: i64,
    /// Record one trajectory sample every this many integration steps
    /// (0 disables sampling).
    pub sample_every_ticks: u64,
}

impl Default for ThermalRcConfig {
    /// ZedBoard-like defaults on a 100 MHz domain: 50 µs integration steps,
    /// τ = 5 ms (a CI-runnable compression of the ~20 s physical constant;
    /// steady states are identical, only the transient is faster),
    /// 8 °C/W to a 25 °C ambient, alarm at 85 °C with 5 °C hysteresis, and
    /// the paper's Table II leakage curvature (0.4 %/°C linear,
    /// 4·10⁻⁵/°C² quadratic).
    fn default() -> Self {
        ThermalRcConfig {
            tick_cycles: 5_000,
            tau_ticks: 100,
            r_mc_per_w: 8_000,
            env_mc: 25_000,
            alarm_mc: 85_000,
            hysteresis_mc: 5_000,
            leak_ref_uw: 0,
            leak_lin_e12_per_mc: 4_000_000,
            leak_quad_e12_per_mc2: 40,
            sample_every_ticks: 0,
        }
    }
}

/// One recorded point of the thermal trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThermalSample {
    /// Integration step index (1-based: the first work edge is tick 1).
    pub tick: u64,
    /// Simulated time of the work edge, picoseconds.
    pub t_ps: u64,
    /// Die temperature after the step, milli-°C.
    pub temp_mc: i64,
    /// Total heater power during the step (external + leakage), µW.
    pub p_uw: u64,
}

impl_json_struct!(ThermalSample {
    tick,
    t_ps,
    temp_mc,
    p_uw,
});

/// The thermal RC component. Bind it to an always-running clock domain
/// (the fabric clock, not the over-clocked PDR domain).
#[derive(Debug)]
pub struct ThermalRc {
    name: String,
    cfg: ThermalRcConfig,
    alarm_irq: IrqLine,
    /// Die temperature, micro-°C (integer state: the whole trajectory is
    /// exact integer arithmetic).
    temp_uc: i64,
    /// Externally supplied heater power (dynamic + constant on-die), µW.
    p_ext_uw: u64,
    /// Runtime leakage reference (tracks the supply voltage), µW.
    leak_ref_uw: u64,
    /// Ambient excursion (heat-soak fault), milli-°C, active while
    /// `tick < soak_until_tick`.
    soak_delta_mc: i64,
    soak_until_tick: u64,
    /// Edges until the next work edge, `1..=tick_cycles`.
    countdown: u64,
    /// Domain cycle up to which `countdown` is synchronised.
    last_cycle: u64,
    /// Completed integration steps.
    ticks: u64,
    /// Alarm latch (re-arms below `alarm_mc - hysteresis_mc`).
    alarmed: bool,
    alarm_count: u64,
    samples: Vec<ThermalSample>,
}

impl ThermalRc {
    /// Creates a node at `initial_mc` milli-°C.
    ///
    /// # Panics
    ///
    /// Panics on a zero `tick_cycles` or `tau_ticks`.
    pub fn new(name: &str, cfg: ThermalRcConfig, alarm_irq: IrqLine, initial_mc: i64) -> Self {
        assert!(cfg.tick_cycles > 0, "thermal tick must span >= 1 cycle");
        assert!(cfg.tau_ticks > 0, "thermal time constant must be >= 1 tick");
        ThermalRc {
            name: name.to_string(),
            leak_ref_uw: cfg.leak_ref_uw,
            cfg,
            alarm_irq,
            temp_uc: initial_mc * 1000,
            p_ext_uw: 0,
            soak_delta_mc: 0,
            soak_until_tick: 0,
            countdown: cfg.tick_cycles,
            last_cycle: 0,
            ticks: 0,
            alarmed: false,
            alarm_count: 0,
            samples: Vec::new(),
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &ThermalRcConfig {
        &self.cfg
    }

    /// Sets the externally supplied heater power (dynamic switching power
    /// plus any constant on-die dissipation), micro-watts. Leakage is *not*
    /// included here — the node derives it from its own temperature.
    pub fn set_power_uw(&mut self, p_uw: u64) {
        self.p_ext_uw = p_uw;
    }

    /// The externally supplied heater power, micro-watts.
    pub fn power_uw(&self) -> u64 {
        self.p_ext_uw
    }

    /// Re-bases the 40 °C leakage reference (the caller scales it with the
    /// supply voltage).
    pub fn set_leak_ref_uw(&mut self, leak_uw: u64) {
        self.leak_ref_uw = leak_uw;
    }

    /// Moves the ambient set point (heat gun on, heat gun off), milli-°C.
    pub fn set_env_mc(&mut self, env_mc: i64) {
        self.cfg.env_mc = env_mc;
    }

    /// Forces the die temperature (the "wait for the sensor to settle"
    /// protocol step), milli-°C.
    pub fn force_temp_mc(&mut self, temp_mc: i64) {
        self.temp_uc = temp_mc * 1000;
    }

    /// Current die temperature, milli-°C.
    pub fn temp_mc(&self) -> i64 {
        self.temp_uc.div_euclid(1000)
    }

    /// Current die temperature, °C.
    pub fn temp_c(&self) -> f64 {
        self.temp_uc as f64 / 1e6
    }

    /// Applies a heat-soak excursion: the ambient rises by `delta_mc` for
    /// the next `ticks` integration steps, then reverts. A new soak
    /// replaces any active one.
    pub fn inject_soak_mc(&mut self, delta_mc: i64, ticks: u64) {
        self.soak_delta_mc = delta_mc;
        self.soak_until_tick = self.ticks.saturating_add(ticks);
    }

    /// Whether the alarm latch is currently set.
    pub fn alarmed(&self) -> bool {
        self.alarmed
    }

    /// Alarm assertions over the node's lifetime.
    pub fn alarm_count(&self) -> u64 {
        self.alarm_count
    }

    /// Completed integration steps.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The recorded trajectory (empty unless
    /// [`ThermalRcConfig::sample_every_ticks`] is non-zero).
    pub fn samples(&self) -> &[ThermalSample] {
        &self.samples
    }

    /// The trajectory as a JSONL tape, one sample per line — the format
    /// committed under `tests/golden/`.
    pub fn samples_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&s.to_json_string());
            out.push('\n');
        }
        out
    }

    /// The steady-state temperature for a total heater power of `p_uw`
    /// (ignoring leakage feedback), milli-°C — a test/analysis helper.
    pub fn steady_state_mc(&self, p_uw: u64) -> i64 {
        self.cfg.env_mc + ((self.cfg.r_mc_per_w as i128 * p_uw as i128) / 1_000_000) as i64
    }

    /// Temperature-dependent static leakage at `temp_uc` micro-°C, µW.
    fn leak_uw(&self, temp_uc: i64) -> u64 {
        let dt_mc = temp_uc.div_euclid(1000) - 40_000;
        let lin = self.cfg.leak_lin_e12_per_mc as i128 * dt_mc as i128;
        let quad = self.cfg.leak_quad_e12_per_mc2 as i128 * dt_mc as i128 * dt_mc as i128;
        let factor_e12 = 1_000_000_000_000i128 + lin + quad;
        let leak = (self.leak_ref_uw as i128 * factor_e12) / 1_000_000_000_000i128;
        leak.clamp(0, u64::MAX as i128) as u64
    }

    /// One RC integration step — only ever called on a work edge.
    fn step(&mut self, ctx: &mut EdgeCtx<'_>) {
        self.ticks += 1;
        let env_mc = if self.ticks <= self.soak_until_tick {
            self.cfg.env_mc + self.soak_delta_mc
        } else {
            self.soak_delta_mc = 0;
            self.cfg.env_mc
        };
        let p_uw = self.p_ext_uw.saturating_add(self.leak_uw(self.temp_uc));
        let target_uc = env_mc as i128 * 1000 + (self.cfg.r_mc_per_w as i128 * p_uw as i128) / 1000;
        let delta = (target_uc - self.temp_uc as i128) / self.cfg.tau_ticks as i128;
        self.temp_uc = (self.temp_uc as i128 + delta) as i64;

        if !self.alarmed && self.temp_uc >= self.cfg.alarm_mc * 1000 {
            self.alarmed = true;
            self.alarm_count += 1;
            self.alarm_irq.raise(ctx.now());
            ctx.trace("thermal-alarm", self.temp_mc() as u64, self.alarm_count);
        } else if self.alarmed && self.temp_uc < (self.cfg.alarm_mc - self.cfg.hysteresis_mc) * 1000
        {
            self.alarmed = false;
        }

        if self.cfg.sample_every_ticks > 0 && self.ticks.is_multiple_of(self.cfg.sample_every_ticks)
        {
            self.samples.push(ThermalSample {
                tick: self.ticks,
                t_ps: ctx.now().as_ps(),
                temp_mc: self.temp_mc(),
                p_uw,
            });
        }
    }
}

impl Component for ThermalRc {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        let cycle = ctx.cycle();
        self.catch_up(cycle - 1);
        self.last_cycle = cycle;
        if self.countdown > 1 {
            self.countdown -= 1;
            return;
        }
        self.countdown = self.cfg.tick_cycles;
        self.step(ctx);
    }

    fn next_wake(&self, _now_cycle: u64) -> NextWake {
        // The node integrates unconditionally: the only interesting edge is
        // the work edge, everything before it just decrements the countdown.
        NextWake::In(self.countdown)
    }

    fn wake_signals(&self) -> Option<Vec<WakeSignal>> {
        // The integration countdown is the node's own state.
        Some(Vec::new())
    }

    fn catch_up(&mut self, cycle: u64) {
        if cycle <= self.last_cycle {
            return;
        }
        let k = cycle - self.last_cycle;
        self.last_cycle = cycle;
        // next_wake never sleeps past the countdown==1 work edge, so every
        // folded edge strictly decrements the countdown.
        debug_assert!(k < self.countdown, "folded past a thermal work edge");
        self.countdown -= k;
    }

    fn snapshot_state(&self) -> Json {
        Json::Obj(vec![
            ("temp_uc".to_string(), self.temp_uc.to_json()),
            ("p_ext_uw".to_string(), self.p_ext_uw.to_json()),
            ("leak_ref_uw".to_string(), self.leak_ref_uw.to_json()),
            ("env_mc".to_string(), self.cfg.env_mc.to_json()),
            ("soak_delta_mc".to_string(), self.soak_delta_mc.to_json()),
            (
                "soak_until_tick".to_string(),
                self.soak_until_tick.to_json(),
            ),
            ("countdown".to_string(), self.countdown.to_json()),
            ("last_cycle".to_string(), self.last_cycle.to_json()),
            ("ticks".to_string(), self.ticks.to_json()),
            ("alarmed".to_string(), self.alarmed.to_json()),
            ("alarm_count".to_string(), self.alarm_count.to_json()),
            (
                "samples".to_string(),
                Json::Arr(self.samples.iter().map(|s| s.to_json()).collect()),
            ),
            ("alarm_irq".to_string(), self.alarm_irq.snapshot_json()),
        ])
    }

    fn restore_state(&mut self, state: &Json) -> Result<(), JsonError> {
        fn req<'a>(json: &'a Json, key: &str) -> Result<&'a Json, JsonError> {
            json.get(key).ok_or_else(|| JsonError {
                msg: format!("thermal snapshot missing `{key}`"),
            })
        }
        let samples = req(state, "samples")?
            .as_array()
            .ok_or_else(|| JsonError {
                msg: "thermal snapshot `samples` is not an array".to_string(),
            })?
            .iter()
            .map(ThermalSample::from_json)
            .collect::<Result<Vec<ThermalSample>, JsonError>>()?;
        let countdown = u64::from_json(req(state, "countdown")?)?;
        if countdown == 0 || countdown > self.cfg.tick_cycles {
            return Err(JsonError {
                msg: format!(
                    "thermal snapshot countdown {} outside 1..={}",
                    countdown, self.cfg.tick_cycles
                ),
            });
        }
        self.temp_uc = i64::from_json(req(state, "temp_uc")?)?;
        self.p_ext_uw = u64::from_json(req(state, "p_ext_uw")?)?;
        self.leak_ref_uw = u64::from_json(req(state, "leak_ref_uw")?)?;
        self.cfg.env_mc = i64::from_json(req(state, "env_mc")?)?;
        self.soak_delta_mc = i64::from_json(req(state, "soak_delta_mc")?)?;
        self.soak_until_tick = u64::from_json(req(state, "soak_until_tick")?)?;
        self.countdown = countdown;
        self.last_cycle = u64::from_json(req(state, "last_cycle")?)?;
        self.ticks = u64::from_json(req(state, "ticks")?)?;
        self.alarmed = bool::from_json(req(state, "alarmed")?)?;
        self.alarm_count = u64::from_json(req(state, "alarm_count")?)?;
        self.samples = samples;
        self.alarm_irq.restore_json(req(state, "alarm_irq")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineStrategy};
    use crate::irq::IrqBus;
    use crate::time::{Frequency, SimDuration};

    fn rig(
        cfg: ThermalRcConfig,
        strategy: EngineStrategy,
    ) -> (Engine, IrqLine, crate::ComponentId) {
        let mut e = Engine::with_strategy(strategy);
        let clk = e.add_clock_domain("fabric", Frequency::from_mhz(100));
        let bus = IrqBus::new();
        let irq = bus.allocate("thermal-alarm");
        let node = ThermalRc::new("thermal", cfg, irq.clone(), 40_000);
        let id = e.add_component(node, Some(clk));
        (e, irq, id)
    }

    #[test]
    fn converges_to_the_integer_steady_state() {
        let cfg = ThermalRcConfig::default();
        let (mut e, _irq, id) = rig(cfg, EngineStrategy::EventSkip);
        // 2.4 W heater, no leakage: steady state 25 + 8·2.4 = 44.2 °C.
        e.component_mut::<ThermalRc>(id).set_power_uw(2_400_000);
        // 5 ms τ: 50 ms ≥ 10τ settles to within integer resolution.
        e.run_for(SimDuration::from_millis(50));
        let node = e.component::<ThermalRc>(id);
        assert_eq!(node.steady_state_mc(2_400_000), 44_200);
        assert!(
            (node.temp_mc() - 44_200).abs() <= 10,
            "temp={}",
            node.temp_mc()
        );
    }

    #[test]
    fn leakage_feedback_raises_the_settle_point() {
        let cfg = ThermalRcConfig {
            leak_ref_uw: 1_000_000, // 1 W of 40 °C leakage in the loop
            ..ThermalRcConfig::default()
        };
        let (mut e, _irq, id) = rig(cfg, EngineStrategy::EventSkip);
        e.component_mut::<ThermalRc>(id).set_power_uw(1_400_000);
        e.run_for(SimDuration::from_millis(50));
        let with_leak = e.component::<ThermalRc>(id).temp_mc();
        // Without feedback the same 2.4 W total would settle at 44.2 °C;
        // leakage grows with ΔT>0 so the loop settles strictly above it.
        assert!(with_leak > 44_200, "temp={with_leak}");
        assert!(with_leak < 46_000, "runaway? temp={with_leak}");
    }

    #[test]
    fn alarm_latches_with_hysteresis() {
        let cfg = ThermalRcConfig {
            alarm_mc: 60_000,
            ..ThermalRcConfig::default()
        };
        let (mut e, irq, id) = rig(cfg, EngineStrategy::EventSkip);
        // 8 W → steady state 89 °C: crosses the 60 °C threshold.
        e.component_mut::<ThermalRc>(id).set_power_uw(8_000_000);
        e.run_for(SimDuration::from_millis(30));
        assert!(irq.is_raised());
        let node = e.component::<ThermalRc>(id);
        assert!(node.alarmed());
        assert_eq!(node.alarm_count(), 1);
        // Cool down: the latch re-arms below threshold − hysteresis, and a
        // second excursion asserts a second alarm.
        irq.clear();
        e.component_mut::<ThermalRc>(id).set_power_uw(0);
        e.run_for(SimDuration::from_millis(50));
        assert!(!e.component::<ThermalRc>(id).alarmed());
        e.component_mut::<ThermalRc>(id).set_power_uw(8_000_000);
        e.run_for(SimDuration::from_millis(30));
        assert_eq!(e.component::<ThermalRc>(id).alarm_count(), 2);
    }

    #[test]
    fn heat_soak_reverts_after_its_horizon() {
        let cfg = ThermalRcConfig::default();
        let (mut e, _irq, id) = rig(cfg, EngineStrategy::EventSkip);
        {
            let node = e.component_mut::<ThermalRc>(id);
            node.set_power_uw(1_000_000);
            // +40 °C ambient for 200 ticks = 10 ms.
            node.inject_soak_mc(40_000, 200);
        }
        e.run_for(SimDuration::from_millis(10));
        let hot = e.component::<ThermalRc>(id).temp_mc();
        assert!(hot > 45_000, "soak must heat the die, temp={hot}");
        e.run_for(SimDuration::from_millis(50));
        let settled = e.component::<ThermalRc>(id).temp_mc();
        // Reverted ambient: settles back to 25 + 8·1.0 = 33 °C.
        assert!((settled - 33_000).abs() <= 10, "temp={settled}");
    }

    #[test]
    fn tick_and_event_skip_trajectories_are_identical() {
        let cfg = ThermalRcConfig {
            sample_every_ticks: 7,
            ..ThermalRcConfig::default()
        };
        let run = |strategy| {
            let (mut e, _irq, id) = rig(cfg, strategy);
            e.component_mut::<ThermalRc>(id).set_power_uw(3_000_000);
            e.run_for(SimDuration::from_millis(7));
            e.component_mut::<ThermalRc>(id).inject_soak_mc(30_000, 50);
            e.run_for(SimDuration::from_millis(13));
            e.component::<ThermalRc>(id).samples_jsonl()
        };
        let tick = run(EngineStrategy::Tick);
        let skip = run(EngineStrategy::EventSkip);
        assert!(!tick.is_empty());
        assert_eq!(tick, skip);
    }

    #[test]
    fn snapshot_restores_mid_transient_byte_identically() {
        let cfg = ThermalRcConfig {
            sample_every_ticks: 3,
            ..ThermalRcConfig::default()
        };
        let (mut e, _irq, id) = rig(cfg, EngineStrategy::EventSkip);
        e.component_mut::<ThermalRc>(id).set_power_uw(5_000_000);
        // Stop mid-countdown (1.23 ms is not a multiple of the 50 µs tick).
        e.run_for(SimDuration::from_micros(1_230));
        let snap = e.component::<ThermalRc>(id).snapshot_state();

        let (mut e2, _irq2, id2) = rig(cfg, EngineStrategy::EventSkip);
        e2.component_mut::<ThermalRc>(id2)
            .restore_state(&snap)
            .expect("restores");
        e.run_for(SimDuration::from_millis(20));
        // The restored engine starts at t=0; run the same additional span
        // from the restored state and compare the *node* state, which is
        // time-base independent except for sample timestamps.
        e2.run_for(SimDuration::from_millis(20));
        let a = e.component::<ThermalRc>(id);
        let b = e2.component::<ThermalRc>(id2);
        assert_eq!(a.temp_mc(), b.temp_mc());
        assert_eq!(a.ticks(), b.ticks());
        assert_eq!(a.alarm_count(), b.alarm_count());
    }
}
