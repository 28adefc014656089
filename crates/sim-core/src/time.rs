//! Simulated time: picosecond instants, durations, and exact frequencies.
//!
//! All kernel time is kept in integer picoseconds. One picosecond resolves a
//! 1 THz clock, three orders of magnitude above anything in the modelled
//! system, and a `u64` picosecond counter covers ~213 simulated days — far
//! beyond any experiment in the paper (the longest run is a few seconds).

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;

/// An instant in simulated time, measured in picoseconds from simulation start.
///
/// `SimTime` is a monotone clock: the engine only ever moves it forward.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation origin (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Raw picoseconds since simulation start.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// This instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` (time is monotone, so this
    /// indicates a kernel bug in the caller).
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating addition of a duration (clamps at [`SimTime::MAX`]).
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({} ps)", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_ps(self.0, f)
    }
}

/// A span of simulated time in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_SEC)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, non-finite, or too large to represent.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        let ps = s * PS_PER_SEC as f64;
        assert!(ps <= u64::MAX as f64, "duration overflows: {s} s");
        SimDuration(ps.round() as u64)
    }

    /// Raw picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This duration in (fractional) nanoseconds.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// This duration in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// This duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// True for the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: Self) -> Self {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: Self) -> Self {
        assert!(rhs.0 <= self.0, "duration underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({} ps)", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_ps(self.0, f)
    }
}

// Time types serialise transparently as their raw integer (picoseconds for
// instants/durations, hertz for frequencies), matching the former
// `#[serde(transparent)]` wire format.

impl crate::json::ToJson for SimTime {
    fn to_json(&self) -> crate::json::Json {
        crate::json::Json::U64(self.0)
    }
}

impl crate::json::FromJson for SimTime {
    fn from_json(v: &crate::json::Json) -> Result<Self, crate::json::JsonError> {
        u64::from_json(v).map(SimTime)
    }
}

impl crate::json::ToJson for SimDuration {
    fn to_json(&self) -> crate::json::Json {
        crate::json::Json::U64(self.0)
    }
}

impl crate::json::FromJson for SimDuration {
    fn from_json(v: &crate::json::Json) -> Result<Self, crate::json::JsonError> {
        u64::from_json(v).map(SimDuration)
    }
}

impl crate::json::ToJson for Frequency {
    fn to_json(&self) -> crate::json::Json {
        crate::json::Json::U64(self.0)
    }
}

impl crate::json::FromJson for Frequency {
    fn from_json(v: &crate::json::Json) -> Result<Self, crate::json::JsonError> {
        let hz = u64::from_json(v)?;
        if hz == 0 {
            return Err(crate::json::JsonError {
                msg: "frequency must be non-zero".into(),
            });
        }
        Ok(Frequency(hz))
    }
}

fn format_ps(ps: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ps >= PS_PER_SEC {
        write!(f, "{:.6} s", ps as f64 / PS_PER_SEC as f64)
    } else if ps >= PS_PER_MS {
        write!(f, "{:.3} ms", ps as f64 / PS_PER_MS as f64)
    } else if ps >= PS_PER_US {
        write!(f, "{:.3} us", ps as f64 / PS_PER_US as f64)
    } else if ps >= PS_PER_NS {
        write!(f, "{:.3} ns", ps as f64 / PS_PER_NS as f64)
    } else {
        write!(f, "{ps} ps")
    }
}

/// A clock frequency in hertz.
///
/// `Frequency` supports *exact* edge arithmetic: the time of the `n`-th edge
/// after a phase origin is computed as `n * 10^12 / hz` in 128-bit integers,
/// so long runs at frequencies whose period is not an integer number of
/// picoseconds (e.g. 280 MHz → 3571.428… ps) accumulate no drift.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency(u64);

impl Frequency {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub const fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be non-zero");
        Frequency(hz)
    }

    /// Creates a frequency from kilohertz.
    pub const fn from_khz(khz: u64) -> Self {
        Self::from_hz(khz * 1_000)
    }

    /// Creates a frequency from megahertz.
    pub const fn from_mhz(mhz: u64) -> Self {
        Self::from_hz(mhz * 1_000_000)
    }

    /// The frequency in hertz.
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// The frequency in (fractional) megahertz.
    pub fn as_mhz_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Nominal period, truncated to a whole picosecond count.
    ///
    /// Use [`Frequency::edge_offset`] for drift-free multi-cycle arithmetic;
    /// this accessor is only for display and coarse estimates.
    pub fn period(self) -> SimDuration {
        SimDuration::from_ps(PS_PER_SEC / self.0)
    }

    /// Exact offset of the `n`-th rising edge after the phase origin.
    ///
    /// Edge 0 occurs at the origin itself.
    pub fn edge_offset(self, n: u64) -> SimDuration {
        // 64-bit division while n·10¹² fits (the first ~1.8·10⁷ edges after
        // an origin): the same quotient as the 128-bit path, far cheaper.
        let ps = match n.checked_mul(PS_PER_SEC) {
            Some(x) => (x / self.0) as u128,
            None => (n as u128 * PS_PER_SEC as u128) / self.0 as u128,
        };
        debug_assert!(ps <= u64::MAX as u128, "edge offset overflows u64 ps");
        SimDuration::from_ps(ps as u64)
    }

    /// The largest edge index `e` with `edge_offset(e) <= d`, inverting
    /// [`Frequency::edge_offset`]'s truncating division exactly.
    pub fn last_edge_within(self, d: SimDuration) -> u64 {
        let y = d.as_ps();
        match y.checked_add(1).and_then(|y1| y1.checked_mul(self.0)) {
            Some(x) => (x - 1) / PS_PER_SEC,
            None => {
                let e = ((y as u128 + 1) * self.0 as u128 - 1) / PS_PER_SEC as u128;
                u64::try_from(e).unwrap_or(u64::MAX)
            }
        }
    }

    /// Number of complete cycles of this frequency inside `d`.
    pub fn cycles_in(self, d: SimDuration) -> u64 {
        ((d.as_ps() as u128 * self.0 as u128) / PS_PER_SEC as u128) as u64
    }

    /// Exact duration of `n` cycles (rounded down to a picosecond).
    pub fn cycles(self, n: u64) -> SimDuration {
        self.edge_offset(n)
    }
}

impl fmt::Debug for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Frequency({} Hz)", self.0)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000_000) {
            write!(f, "{} MHz", self.0 / 1_000_000)
        } else if self.0.is_multiple_of(1_000) {
            write!(f, "{} kHz", self.0 / 1_000)
        } else {
            write!(f, "{} Hz", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_ps(1_234_567);
        let d = SimDuration::from_nanos(5);
        assert_eq!((t + d).duration_since(t), d);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn duration_constructors_scale() {
        assert_eq!(SimDuration::from_secs(1).as_ps(), PS_PER_SEC);
        assert_eq!(SimDuration::from_millis(1).as_ps(), PS_PER_MS);
        assert_eq!(SimDuration::from_micros(1).as_ps(), PS_PER_US);
        assert_eq!(SimDuration::from_nanos(1).as_ps(), PS_PER_NS);
    }

    #[test]
    fn duration_from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1e-12).as_ps(), 1);
        assert_eq!(SimDuration::from_secs_f64(0.5e-12).as_ps(), 1); // round half up
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn duration_from_negative_secs_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn duration_since_panics_on_backwards_time() {
        let _ = SimTime::from_ps(1).duration_since(SimTime::from_ps(2));
    }

    #[test]
    fn frequency_period_exact_cases() {
        assert_eq!(
            Frequency::from_mhz(100).period(),
            SimDuration::from_ps(10_000)
        );
        assert_eq!(
            Frequency::from_mhz(200).period(),
            SimDuration::from_ps(5_000)
        );
    }

    #[test]
    fn edge_offset_has_no_drift_at_280mhz() {
        // 280 MHz period is 3571.428571... ps. After 280_000_000 edges exactly
        // one second must have elapsed (truncated to ps).
        let f = Frequency::from_mhz(280);
        assert_eq!(f.edge_offset(280_000_000), SimDuration::from_secs(1));
        // And the millionth edge is within 1 ps of the real-valued answer.
        let exact = 1e12 * 1_000_000.0 / 280e6;
        let got = f.edge_offset(1_000_000).as_ps() as f64;
        assert!((got - exact).abs() <= 1.0, "got {got}, want {exact}");
    }

    #[test]
    fn fast_edge_arithmetic_matches_128_bit_reference() {
        let wide_offset = |f: Frequency, n: u64| (n as u128 * PS_PER_SEC as u128) / f.0 as u128;
        let wide_last = |f: Frequency, y: u64| {
            let e = ((y as u128 + 1) * f.0 as u128 - 1) / PS_PER_SEC as u128;
            u64::try_from(e).unwrap_or(u64::MAX)
        };
        let limit = u64::MAX / PS_PER_SEC; // last n on the 64-bit path
        for hz in [
            1,
            7,
            100_000_000,
            280_000_000,
            533_000_000,
            77_000_003,
            999_999_999_999,
        ] {
            let f = Frequency::from_hz(hz);
            for n in [0, 1, 2, 1_000_003, limit - 1, limit, limit + 1, 1 << 40] {
                if wide_offset(f, n) <= u64::MAX as u128 {
                    assert_eq!(
                        f.edge_offset(n).as_ps() as u128,
                        wide_offset(f, n),
                        "{hz} Hz, n={n}"
                    );
                }
            }
            for y in [
                0,
                1,
                9_999,
                10_000,
                3_571_428,
                1 << 40,
                u64::MAX / 2,
                u64::MAX,
            ] {
                let e = f.last_edge_within(SimDuration::from_ps(y));
                assert_eq!(e, wide_last(f, y), "{hz} Hz, y={y}");
                if let Some(next) = e.checked_add(1) {
                    if (next as u128 * PS_PER_SEC as u128) / (hz as u128) <= u64::MAX as u128 {
                        assert!(f.edge_offset(e).as_ps() <= y && f.edge_offset(next).as_ps() > y);
                    }
                }
            }
        }
    }

    #[test]
    fn cycles_in_inverts_edge_offset() {
        let f = Frequency::from_mhz(310);
        for n in [0u64, 1, 7, 1000, 123_456] {
            let d = f.edge_offset(n);
            let c = f.cycles_in(d);
            assert!(c == n || c + 1 == n, "n={n} d={d} c={c}");
        }
    }

    #[test]
    fn frequency_display() {
        assert_eq!(Frequency::from_mhz(280).to_string(), "280 MHz");
        assert_eq!(Frequency::from_khz(33).to_string(), "33 kHz");
        assert_eq!(Frequency::from_hz(7).to_string(), "7 Hz");
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_ps(3).saturating_sub(SimDuration::from_ps(5)),
            SimDuration::ZERO
        );
    }
}
