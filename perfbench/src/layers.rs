//! Per-layer host timings that the workload passes cannot separate: the
//! kernel's idle baseline, the bitstream parser and CRC, the product codec
//! and the fleet calibration. Every timed result goes through
//! [`black_box`] and is checked, so the optimiser cannot delete the work
//! and a wrong answer cannot pass as a fast one.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pdr_bitstream::{Action, Bitstream, Crc32, Parser};
use pdr_bitstream_codec::{compress_bitstream, decompress};
use pdr_core::{Calibration, FleetConfig};
use pdr_sim_core::{Component, Engine, EngineStrategy, Frequency, SimDuration};

use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::Checks;

/// Host time each layer is timed for, at least.
const LAYER_BUDGET: Duration = Duration::from_millis(250);
/// Repetitions each layer is timed for, at least.
const MIN_REPS: usize = 5;
/// Clock edges the idle-baseline engine runs per repetition.
const BASELINE_EDGES: u64 = 100_000;

/// Repeats `rep` inside spans named `name` until both the time budget and
/// the repetition floor are met, returning the median of its results.
fn timed_reps(
    spans: &mut Spans,
    name: &'static str,
    budget: Duration,
    mut rep: impl FnMut() -> f64,
) -> f64 {
    let start = Instant::now();
    let mut values = Vec::new();
    while values.len() < MIN_REPS || start.elapsed() < budget {
        values.push(spans.record(name, &mut rep));
    }
    median(&values).expect("at least one repetition")
}

/// Megabytes (10⁶ bytes) per second for `bytes` moved in `elapsed`.
fn mb_per_s(bytes: u64, elapsed: Duration) -> f64 {
    bytes as f64 / 1e6 / elapsed.as_secs_f64()
}

/// A component that does nothing on every clock edge.
struct Idle;

impl Component for Idle {
    fn name(&self) -> &str {
        "idle"
    }
}

/// Host ns per dispatched action of a tick-kernel engine whose one clock
/// domain drives a do-nothing component: what the kernel costs before any
/// component does work.
pub fn engine_baseline_ns_per_action(spans: &mut Spans, checks: &mut Checks) -> f64 {
    timed_reps(spans, "sim_core.engine.baseline", LAYER_BUDGET, || {
        let mut engine = Engine::with_strategy(EngineStrategy::Tick);
        let clk = engine.add_clock_domain("clk", Frequency::from_mhz(100));
        engine.add_component(Idle, Some(clk));
        let t = Instant::now();
        engine.run_for(SimDuration::from_nanos(10 * BASELINE_EDGES));
        let elapsed = t.elapsed();
        let actions = black_box(engine.actions_dispatched());
        checks.check(actions.abs_diff(BASELINE_EDGES) <= 1);
        elapsed.as_nanos() as f64 / actions.max(1) as f64
    })
}

/// Parser MB/s over `bitstreams`, checking each parse yields the expected
/// frame count.
pub fn parser_mb_per_s(
    spans: &mut Spans,
    checks: &mut Checks,
    bitstreams: &[(Bitstream, u64)],
) -> f64 {
    timed_reps(spans, "bitstream.parser", LAYER_BUDGET, || {
        let mut bytes = 0;
        let mut elapsed = Duration::ZERO;
        for (bs, frames) in bitstreams {
            let t = Instant::now();
            let mut parser = Parser::new();
            let mut written = 0u64;
            let mut ok = true;
            for w in bs.words() {
                ok &= parser
                    .push_word(black_box(w), &mut |a| {
                        written += u64::from(matches!(a, Action::WriteFrame { .. }));
                    })
                    .is_ok();
            }
            let written = black_box(written);
            elapsed += t.elapsed();
            checks.check(ok && written == *frames);
            bytes += bs.len() as u64;
        }
        mb_per_s(bytes, elapsed)
    })
}

/// CRC-32 (IEEE) MB/s over `bitstreams`, checking each value against a
/// bit-serial reference computed outside the timing.
pub fn crc32_mb_per_s(
    spans: &mut Spans,
    checks: &mut Checks,
    bitstreams: &[(Bitstream, u64)],
) -> f64 {
    let expected: Vec<u32> = bitstreams
        .iter()
        .map(|(bs, _)| crc32_reference(bs.bytes()))
        .collect();
    timed_reps(spans, "bitstream.crc32", LAYER_BUDGET, || {
        let mut bytes = 0;
        let mut elapsed = Duration::ZERO;
        for ((bs, _), &want) in bitstreams.iter().zip(&expected) {
            let t = Instant::now();
            let mut crc = Crc32::ieee();
            crc.update(black_box(bs.bytes()));
            let got = black_box(crc.value());
            elapsed += t.elapsed();
            checks.check(got == want);
            bytes += bs.len() as u64;
        }
        mb_per_s(bytes, elapsed)
    })
}

/// Bit-serial reflected CRC-32 (IEEE 802.3), the reference the table
/// engine is checked against.
pub fn crc32_reference(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Product codec (`pdr-bitstream-codec`) figures over `bitstreams`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecRates {
    /// Raw MB compressed per host second.
    pub compress_mb_per_s: f64,
    /// Raw MB restored per host second.
    pub decompress_mb_per_s: f64,
    /// Raw bytes over stored bytes.
    pub ratio: f64,
}

/// Times the product codec's compress and decompress over `bitstreams`,
/// checking every decompression returns the original words.
pub fn codec_rates(
    spans: &mut Spans,
    checks: &mut Checks,
    bitstreams: &[(Bitstream, u64)],
) -> CodecRates {
    let raw: u64 = bitstreams.iter().map(|(bs, _)| bs.len() as u64).sum();
    let words: Vec<Vec<u32>> = bitstreams
        .iter()
        .map(|(bs, _)| bs.words().collect())
        .collect();
    let mut stored = Vec::new();
    let compress_mb_per_s = timed_reps(spans, "bitstream_codec.compress", LAYER_BUDGET, || {
        let t = Instant::now();
        stored = bitstreams
            .iter()
            .map(|(bs, _)| black_box(compress_bitstream(black_box(bs))).bytes)
            .collect();
        mb_per_s(raw, t.elapsed())
    });
    let decompress_mb_per_s = timed_reps(spans, "bitstream_codec.decompress", LAYER_BUDGET, || {
        let mut elapsed = Duration::ZERO;
        for (container, original) in stored.iter().zip(&words) {
            let t = Instant::now();
            let out = black_box(decompress(black_box(container)));
            elapsed += t.elapsed();
            checks.check(out.as_ref() == Ok(original));
        }
        mb_per_s(raw, elapsed)
    });
    let stored_bytes: usize = stored.iter().map(Vec::len).sum();
    CodecRates {
        compress_mb_per_s,
        decompress_mb_per_s,
        ratio: raw as f64 / stored_bytes as f64,
    }
}

/// Host ms of one fleet calibration, the cycle-level part of
/// `FleetRun::new`, checking it yields one class per configured size class.
pub fn fleet_calibrate_ms(spans: &mut Spans, checks: &mut Checks, cfg: &FleetConfig) -> f64 {
    timed_reps(spans, "pdr.fleet.calibrate", Duration::ZERO, || {
        let t = Instant::now();
        let cal = black_box(Calibration::measure(
            &cfg.system,
            &cfg.fetch,
            cfg.size_classes,
            cfg.service_mhz,
            cfg.scrub_mhz,
        ));
        let elapsed = t.elapsed();
        checks.check(cal.classes.len() == cfg.size_classes as usize);
        elapsed.as_secs_f64() * 1e3
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_crc_matches_the_standard_check_value() {
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn layer_timings_check_their_outputs() {
        let mut spans = Spans::new(true);
        let mut checks = Checks::default();
        let w = crate::workloads::Workload::new(
            crate::workloads::Kind::FaultSoak,
            0,
            crate::workloads::Scale::Smoke,
        );
        let bitstreams = w.bitstreams();
        assert!(parser_mb_per_s(&mut spans, &mut checks, &bitstreams) > 0.0);
        assert!(crc32_mb_per_s(&mut spans, &mut checks, &bitstreams) > 0.0);
        let codec = codec_rates(&mut spans, &mut checks, &bitstreams);
        assert!(codec.ratio > 1.0 && codec.decompress_mb_per_s > 0.0);
        assert!(engine_baseline_ns_per_action(&mut spans, &mut checks) > 0.0);
        assert!(checks.attempted >= 4 * MIN_REPS as u64);
        assert_eq!(checks.failed, 0);

        // A wrong expected frame count is caught.
        let mut wrong = bitstreams.clone();
        wrong[0].1 += 1;
        let mut bad = Checks::default();
        parser_mb_per_s(&mut spans, &mut bad, &wrong);
        assert!(bad.failed > 0);
    }
}
