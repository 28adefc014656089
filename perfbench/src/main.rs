//! Wall-clock benchmark of pdr-lab.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1_sweep|fault_soak|fleet_1m|all> --seed <n> \
//!     --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Each workload runs as repeated passes through the public API of
//! `pdr-core` for `--seconds` of host time, at least three passes, and every
//! pass's outputs are checked as it runs. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` alternates untraced and traced passes, then times
//! the layers the passes cannot separate, and prints the per-layer metrics
//! and the tracing overhead. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. Full results go
//! to `<out>/<workload>-seed<n>.json` (untraced) or `.traced.json` plus
//! `.spans.jsonl` (traced); `--out` defaults to `perfbench/out`. The exit
//! code is 0 only when every output check passed. `peak_rss_mb` is the
//! process's peak after its first pass, so it belongs to one workload only
//! when one runs alone.
//!
//! Each figure is either **host** time, what the simulator costs to run,
//! or **simulated**, what the modelled Zynq would do. Simulated figures are
//! deterministic for a seed and guard correctness; host figures are what
//! optimisations move. Whole-pass host figures are medians over passes of
//! each pass's own figure, and operation percentiles are over every timed
//! operation of the run, so no figure depends on how many passes fit in
//! `--seconds`.

mod host;
mod layers;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use host::{peak_rss_mb, Fingerprint};
use pdr_sim_core::json::{Json, ToJson};
use pdr_sim_core::EngineStrategy;
use spans::Spans;
use stats::{median, percentile, valid_metric_name};
use workloads::{Checks, Kind, Pass, Scale, Workload};

/// Passes each measured set holds, at least.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: perfbench --workload <table1_sweep|fault_soak|fleet_1m|all> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]";

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workloads: Vec::new(),
            seed: 0,
            seconds: 10,
            trace: false,
            out: PathBuf::from("perfbench/out"),
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" if value == "all" => args.workloads = Kind::ALL.to_vec(),
                "--workload" => {
                    let kind =
                        Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                    args.workloads = vec![kind];
                }
                "--seed" => args.seed = number()?,
                "--seconds" => args.seconds = number()?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    }
                }
                "--out" => args.out = PathBuf::from(value),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if args.workloads.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(args)
    }
}

/// One named figure.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// `host` time, `simulated` result, or output `check`.
    domain: &'static str,
    /// Samples behind the figure.
    samples: usize,
}

impl Metric {
    /// `{"value": .., "unit": ..}`, as the result line carries it.
    fn value_json(&self) -> Json {
        Json::Obj(vec![
            ("value".into(), self.value.to_json()),
            ("unit".into(), self.unit.to_json()),
        ])
    }

    /// Every field, as the results file carries it.
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), self.name.to_json()),
            ("value".into(), self.value.to_json()),
            ("unit".into(), self.unit.to_json()),
            ("domain".into(), self.domain.to_json()),
            ("samples".into(), self.samples.to_json()),
        ])
    }
}

fn host(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        domain: "host",
        samples,
    }
}

fn simulated(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        domain: "simulated",
        samples: 1,
    }
}

/// Every pass of one run plus the layer checks.
struct Run {
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
    checks: Checks,
    /// Peak resident memory after the first pass, MB. Read then, because
    /// allocator reuse across later passes is not the workload's own.
    peak_rss_mb: f64,
}

impl Run {
    /// Every output check of the run.
    fn all_checks(&self) -> Checks {
        let mut all = self.checks;
        for p in self.untraced.iter().chain(&self.traced) {
            all.add(p.checks);
        }
        all
    }
}

/// Median over `passes` of `f`, or 0 when no pass yields a value.
fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> Option<f64>) -> f64 {
    median(&passes.iter().filter_map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// A simulated value of the first pass, or `None` if the workload has none.
fn sim_value(passes: &[Pass], name: &str) -> Option<f64> {
    passes
        .first()?
        .sim
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, v)| v)
}

/// A per-layer counter of a pass.
fn layer_value(p: &Pass, name: &str) -> Option<f64> {
    p.layer.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// Host time per unit of simulated work in one pass's timed operations:
/// `unit` times seconds per unit of `work`, 0 when the pass did none.
fn host_per(p: &Pass, unit: f64, work: f64) -> f64 {
    if work > 0.0 {
        p.ops_s * unit / work
    } else {
        0.0
    }
}

/// The end-to-end figures of the untraced passes. The first six are the
/// ones every workload puts on its result line; the rest exist only on
/// some workloads and are printed and saved.
///
/// Whole-pass figures are medians over passes. The operation percentiles
/// are taken over every operation of every pass: a `fault_soak` pass's own
/// p90 falls on the edge between its two clusters of step costs (near 30
/// and 45 ms) and flips between them from pass to pass.
fn end_to_end(kind: Kind, passes: &[Pass], peak_rss_mb: f64) -> Vec<Metric> {
    let n = passes.len();
    let op_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.op_ms.iter().copied())
        .collect();
    let op = |q| percentile(&op_ms, q).expect("every pass times operations");
    let (p50, p90) = (op(0.5), op(0.9));
    let mut checks = Checks::default();
    for p in passes {
        checks.add(p.checks);
    }
    let mut m = vec![
        host("wall_s", median_of(passes, |p| Some(p.wall_s)), "s", n),
        host("setup_s", median_of(passes, |p| Some(p.setup_s)), "s", n),
        host("op_ms_p50", p50.value, "ms", p50.count),
        host("op_ms_p90", p90.value, "ms", p90.count),
        host(
            "requests_per_host_s",
            median_of(passes, |p| Some(p.requests as f64 / p.ops_s)),
            "1/s",
            n,
        ),
        host("peak_rss_mb", peak_rss_mb, "MB", 1),
        Metric {
            name: "failed_ratio",
            value: checks.failed as f64 / checks.attempted.max(1) as f64,
            unit: "ratio",
            domain: "check",
            samples: checks.attempted as usize,
        },
    ];
    if kind != Kind::Fleet1m {
        m.push(host(
            "sim_mb_per_host_s",
            median_of(passes, |p| Some(p.sim_bytes as f64 / 1e6 / p.ops_s)),
            "MB/s",
            n,
        ));
    }
    for (name, unit) in [
        ("paper_err_pct_max", "%"),
        ("availability", "ratio"),
        ("sim_latency_p99_us", "us"),
    ] {
        if let Some(v) = sim_value(passes, name) {
            m.push(simulated(name, v, unit));
        }
    }
    m
}

/// The end-to-end metrics of the result line, in `BENCHMARK.json` order.
const RESULT_END_TO_END: [&str; 6] = [
    "wall_s",
    "setup_s",
    "op_ms_p50",
    "op_ms_p90",
    "requests_per_host_s",
    "peak_rss_mb",
];

/// The per-layer figures of a traced run. Every workload reports every
/// name; a layer the workload does not reach reads 0.
fn per_layer(workload: &mut Workload, spans: &mut Spans, run: &mut Run) -> Vec<Metric> {
    // Layer timings the passes cannot separate, recorded as spans too.
    let bitstreams = workload.bitstreams();
    let checks = &mut run.checks;
    let baseline = layers::engine_baseline_ns_per_action(spans, checks);
    let parser = layers::parser_mb_per_s(spans, checks, &bitstreams);
    let crc = layers::crc32_mb_per_s(spans, checks, &bitstreams);
    let codec = layers::codec_rates(spans, checks, &bitstreams);
    let calibrate = workload
        .fleet_config()
        .map_or(0.0, |cfg| layers::fleet_calibrate_ms(spans, checks, cfg));
    let kind = workload.kind();
    // The kernel's cost per action, comparable with the idle baseline: on
    // the pinned event-skipping kernel `actions` also counts the quiescent
    // edges it folds at almost no cost, so one untraced pass runs on the
    // tick kernel, which dispatches every action. Its outputs are checked
    // against the pinned kernel's like any other pass.
    let ns_per_action = if kind == Kind::Fleet1m {
        0.0
    } else {
        spans.set_enabled(false);
        workload.set_strategy(EngineStrategy::Tick);
        let tick = workload.pass(spans);
        workload.set_strategy(workloads::ENGINE);
        spans.set_enabled(true);
        checks.add(tick.checks);
        let actions = layer_value(&tick, "sim_core.engine.actions").unwrap_or(0.0);
        host_per(&tick, 1e9, actions)
    };

    let spans = &*spans;
    let traced = &run.traced;
    let n = traced.len();
    let counter = |name: &str| median_of(traced, |p| layer_value(p, name));
    let span_pct = |name: &str, q: f64| {
        percentile(&spans.durations_ms(name), q).map_or((0.0, 0), |p| (p.value, p.count))
    };
    let span_median = |name: &str| {
        let d = spans.durations_ms(name);
        (median(&d).unwrap_or(0.0), d.len())
    };

    let mut m = vec![
        simulated(
            "sim_core.engine.actions",
            counter("sim_core.engine.actions"),
            "count",
        ),
        simulated(
            "sim_core.engine.actions_per_sim_us",
            counter("sim_core.engine.actions_per_sim_us"),
            "1/us",
        ),
        host("sim_core.engine.ns_per_action", ns_per_action, "ns", 1),
        host("sim_core.engine.baseline_ns_per_action", baseline, "ns", 1),
        host(
            "sim_core.engine.component_ns_per_action",
            if ns_per_action > 0.0 {
                ns_per_action - baseline
            } else {
                0.0
            },
            "ns",
            1,
        ),
    ];

    let new = span_median("pdr.system.new");
    let make = span_median("pdr.system.make_bitstream");
    let r50 = span_pct("pdr.system.reconfigure", 0.5);
    let r90 = span_pct("pdr.system.reconfigure", 0.9);
    m.extend([
        host("pdr.system.new.ms", new.0, "ms", new.1),
        host("pdr.system.make_bitstream.ms", make.0, "ms", make.1),
        host("pdr.system.reconfigure.ms_p50", r50.0, "ms", r50.1),
        host("pdr.system.reconfigure.ms_p90", r90.0, "ms", r90.1),
        host(
            "pdr.system.reconfigure.host_ms_per_sim_mb",
            if kind == Kind::Table1Sweep {
                median_of(traced, |p| Some(host_per(p, 1e3, p.sim_bytes as f64 / 1e6)))
            } else {
                0.0
            },
            "ms/MB",
            n,
        ),
    ]);

    for (name, unit) in [
        ("axi.interconnect.beats", "count"),
        ("axi.interconnect.data_stalls", "count"),
        ("axi.interconnect.stall_ratio", "ratio"),
        ("dma.bursts", "count"),
        ("dma.bytes", "B"),
        ("crc_readback.pass", "count"),
        ("crc_readback.fail", "count"),
    ] {
        m.push(simulated(name, counter(name), unit));
    }

    m.extend([
        host("bitstream.parser.mb_per_s", parser, "MB/s", 1),
        host("bitstream.crc32.mb_per_s", crc, "MB/s", 1),
        host(
            "bitstream_codec.compress.mb_per_s",
            codec.compress_mb_per_s,
            "MB/s",
            1,
        ),
        host(
            "bitstream_codec.decompress.mb_per_s",
            codec.decompress_mb_per_s,
            "MB/s",
            1,
        ),
        simulated("bitstream_codec.ratio", codec.ratio, "ratio"),
    ]);

    for (span, p50_name, p90_name) in [
        (
            "pdr.campaign.step.seu",
            "pdr.campaign.step.seu.ms_p50",
            "pdr.campaign.step.seu.ms_p90",
        ),
        (
            "pdr.campaign.step.timing_burst",
            "pdr.campaign.step.timing_burst.ms_p50",
            "pdr.campaign.step.timing_burst.ms_p90",
        ),
        (
            "pdr.campaign.step.dma_stall",
            "pdr.campaign.step.dma_stall.ms_p50",
            "pdr.campaign.step.dma_stall.ms_p90",
        ),
        (
            "pdr.campaign.step.dropped_irq",
            "pdr.campaign.step.dropped_irq.ms_p50",
            "pdr.campaign.step.dropped_irq.ms_p90",
        ),
    ] {
        let (a, b) = (span_pct(span, 0.5), span_pct(span, 0.9));
        m.push(host(p50_name, a.0, "ms", a.1));
        m.push(host(p90_name, b.0, "ms", b.1));
    }
    for name in [
        "pdr.recovery.retries",
        "pdr.recovery.scrubs",
        "pdr.recovery.quarantines",
    ] {
        m.push(simulated(name, counter(name), "count"));
    }

    let e50 = span_pct("pdr.fleet.step_epoch", 0.5);
    let e90 = span_pct("pdr.fleet.step_epoch", 0.9);
    m.extend([
        host("pdr.fleet.calibrate.ms", calibrate, "ms", 1),
        host("pdr.fleet.step_epoch.ms_p50", e50.0, "ms", e50.1),
        host("pdr.fleet.step_epoch.ms_p90", e90.0, "ms", e90.1),
        host(
            "pdr.fleet.ns_per_request",
            if kind == Kind::Fleet1m {
                median_of(traced, |p| Some(host_per(p, 1e9, p.requests as f64)))
            } else {
                0.0
            },
            "ns",
            n,
        ),
        simulated("pdr.fleet.stolen", counter("pdr.fleet.stolen"), "count"),
        simulated("pdr.fleet.rerouted", counter("pdr.fleet.rerouted"), "count"),
        simulated(
            "pdr.fleet.cache_hit_rate",
            counter("pdr.fleet.cache_hit_rate"),
            "ratio",
        ),
    ]);

    m.push(host(
        "trace.overhead_pct",
        (median_of(traced, |p| Some(p.wall_s)) / median_of(&run.untraced, |p| Some(p.wall_s))
            - 1.0)
            * 100.0,
        "%",
        n,
    ));
    m
}

/// Runs passes until `seconds` have elapsed and each measured set holds at
/// least [`MIN_PASSES`]. With `trace`, passes alternate untraced and
/// traced.
fn run_passes(workload: &mut Workload, spans: &mut Spans, seconds: u64, trace: bool) -> Run {
    let deadline = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut run = Run {
        untraced: Vec::new(),
        traced: Vec::new(),
        checks: Checks::default(),
        peak_rss_mb: 0.0,
    };
    loop {
        let traced = trace && run.traced.len() < run.untraced.len();
        spans.set_enabled(traced);
        let p = workload.pass(spans);
        if traced {
            run.traced.push(p);
        } else {
            run.untraced.push(p);
        }
        if run.untraced.len() + run.traced.len() == 1 {
            run.peak_rss_mb = peak_rss_mb().expect("peak RSS needs /proc/self/status");
        }
        let enough = run.untraced.len() >= MIN_PASSES && (!trace || run.traced.len() >= MIN_PASSES);
        if enough && start.elapsed() >= deadline {
            return run;
        }
    }
}

/// The result line: the checks and the metrics by name.
fn result_line(checks: Checks, metrics: &[Metric]) -> String {
    let by_name = metrics
        .iter()
        .map(|m| {
            debug_assert!(valid_metric_name(m.name), "{}", m.name);
            (m.name.to_string(), m.value_json())
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(checks.failed == 0)),
        ("attempted".into(), checks.attempted.to_json()),
        ("failed".into(), checks.failed.to_json()),
        ("metrics".into(), Json::Obj(by_name)),
    ])
    .render()
}

/// The detailed results file: fingerprint, every figure with its domain
/// and sample count, the per-pass host times and, for a traced run, each
/// span name's count and total self time.
fn results_json(
    kind: Kind,
    args: &Args,
    fp: &Fingerprint,
    metrics: &[Metric],
    passes: &[Pass],
    spans: Option<&Spans>,
) -> String {
    let pass = |p: &Pass| {
        Json::Obj(vec![
            ("setup_s".into(), p.setup_s.to_json()),
            ("wall_s".into(), p.wall_s.to_json()),
            ("ops_s".into(), p.ops_s.to_json()),
            ("op_ms".into(), p.op_ms.to_json()),
        ])
    };
    let mut fields = vec![
        ("workload".into(), kind.name().to_json()),
        ("seed".into(), args.seed.to_json()),
        ("seconds".into(), args.seconds.to_json()),
        ("trace".into(), Json::Bool(args.trace)),
        ("host".into(), fp.to_json()),
        (
            "metrics".into(),
            Json::Arr(metrics.iter().map(Metric::to_json).collect()),
        ),
        (
            "passes".into(),
            Json::Arr(passes.iter().map(pass).collect()),
        ),
    ];
    if let Some(spans) = spans {
        let self_time = spans
            .self_by_name()
            .into_iter()
            .map(|(name, (count, self_ns))| {
                Json::Obj(vec![
                    ("span".into(), name.to_json()),
                    ("count".into(), count.to_json()),
                    ("self_ms".into(), (self_ns as f64 / 1e6).to_json()),
                ])
            })
            .collect();
        fields.push(("self_time".into(), Json::Arr(self_time)));
    }
    Json::Obj(fields).render() + "\n"
}

fn write_file(dir: &Path, name: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Runs one workload, prints its figures and result line, and returns
/// whether every check passed.
fn run_workload(kind: Kind, args: &Args, fp: &Fingerprint) -> Result<bool, String> {
    let mut workload = Workload::new(kind, args.seed, Scale::Full);
    let mut spans = Spans::new(false);
    let mut run = run_passes(&mut workload, &mut spans, args.seconds, args.trace);
    let stem = format!("{}-seed{}", kind.name(), args.seed);
    let (metrics, result): (Vec<Metric>, Vec<Metric>) = if args.trace {
        spans.set_enabled(true);
        let m = per_layer(&mut workload, &mut spans, &mut run);
        write_file(&args.out, &format!("{stem}.spans.jsonl"), &spans.to_jsonl())?;
        write_file(
            &args.out,
            &format!("{stem}.traced.json"),
            &results_json(kind, args, fp, &m, &run.traced, Some(&spans)),
        )?;
        (m.clone(), m)
    } else {
        let m = end_to_end(kind, &run.untraced, run.peak_rss_mb);
        write_file(
            &args.out,
            &format!("{stem}.json"),
            &results_json(kind, args, fp, &m, &run.untraced, None),
        )?;
        let result = RESULT_END_TO_END
            .iter()
            .map(|name| {
                m.iter()
                    .find(|x| x.name == *name)
                    .expect("computed above")
                    .clone()
            })
            .collect();
        (m, result)
    };

    println!(
        "perfbench {} seed={} trace={} passes={}+{} host={}",
        kind.name(),
        args.seed,
        u8::from(args.trace),
        run.untraced.len(),
        run.traced.len(),
        fp.to_json().render()
    );
    for m in &metrics {
        println!(
            "  {:<44} {:>16} {:<6} {:<9} n={}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.domain,
            m.samples
        );
    }
    let checks = run.all_checks();
    println!("{}", result_line(checks, &result));
    Ok(checks.failed == 0)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fp = Fingerprint::read();
    let mut all_ok = true;
    for &kind in &args.workloads {
        match run_workload(kind, &args, &fp) {
            Ok(ok) => all_ok &= ok,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: an output check failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let a = parse(&[
            "--workload",
            "fault_soak",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.trace),
            (vec![Kind::FaultSoak], 7, 3, true)
        );
        assert_eq!(
            parse(&["--workload", "all"]).expect("valid").workloads,
            Kind::ALL
        );
        for bad in [
            &[][..],
            &["--workload", "nope"],
            &["--workload", "fleet_1m", "--seed", "-1"],
            &["--workload", "fleet_1m", "--trace", "2"],
            &["--workload", "fleet_1m", "--seconds"],
            &["--bogus", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn every_reported_name_follows_the_grammar() {
        for name in RESULT_END_TO_END {
            assert!(valid_metric_name(name), "{name}");
        }
        let pass = |setup_s: f64, op_ms: [f64; 2], rest_s: f64| {
            let ops_s = op_ms.iter().sum::<f64>() / 1e3;
            Pass {
                setup_s,
                wall_s: setup_s + ops_s + rest_s,
                ops_s,
                op_ms: op_ms.to_vec(),
                requests: 2,
                sim_bytes: 1_000_000,
                ..Pass::default()
            }
        };
        let m = end_to_end(Kind::Table1Sweep, &[pass(0.25, [125.0, 125.0], 0.25)], 1.0);
        assert!(m.iter().all(|x| valid_metric_name(x.name)));
        let line = Json::parse(&result_line(Checks::default(), &m[..1])).expect("valid JSON");
        let wall = line.get("metrics").and_then(|m| m.get("wall_s"));
        assert_eq!(wall.and_then(|w| w.get("value")), Some(&Json::F64(0.75)));
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let value = |name: &str| m.iter().find(|x| x.name == name).expect("present").value;
        assert_eq!(value("requests_per_host_s"), 8.0);
        assert_eq!(value("sim_mb_per_host_s"), 4.0);
    }

    #[test]
    fn host_figures_are_medians_over_passes() {
        let pass = |setup_s: f64, op_ms: [f64; 3], wall_s: f64| Pass {
            setup_s,
            wall_s,
            ops_s: op_ms.iter().sum::<f64>() / 1e3,
            op_ms: op_ms.to_vec(),
            requests: 3,
            ..Pass::default()
        };
        let passes = [
            pass(0.5, [100.0, 200.0, 700.0], 2.0),
            pass(0.1, [300.0, 200.0, 500.0], 3.0),
            pass(0.3, [400.0, 400.0, 200.0], 1.0),
        ];
        let m = end_to_end(Kind::FaultSoak, &passes, 1.0);
        let value = |name: &str| m.iter().find(|x| x.name == name).expect("present").value;
        assert_eq!(value("wall_s"), 2.0);
        assert_eq!(value("setup_s"), 0.3);
        // Nearest-rank percentiles of all nine operations: 100, 200 x3,
        // 300, 400 x2, 500 and 700 ms.
        assert_eq!(value("op_ms_p50"), 300.0);
        assert_eq!(value("op_ms_p90"), 700.0);
        // Every pass ran 3 requests in 1 s of operations.
        assert_eq!(value("requests_per_host_s"), 3.0);
        let samples = m.iter().find(|x| x.name == "op_ms_p50").map(|x| x.samples);
        assert_eq!(samples, Some(9));
    }

    /// `(name, unit)` of every metric in one `BENCHMARK.json` section.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = Json::parse(&text).expect("valid JSON");
        let field = |m: &Json, k: &str| {
            m.get(k)
                .and_then(|v| v.as_str())
                .expect("string field")
                .to_string()
        };
        json.get(section)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn names_units(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn reported_metrics_match_the_declared_ones() {
        let mut workload = Workload::new(Kind::FaultSoak, 0, Scale::Smoke);
        let mut spans = Spans::new(false);
        let untraced = vec![workload.pass(&mut spans)];
        spans.set_enabled(true);
        let traced = vec![workload.pass(&mut spans)];
        let e2e: Vec<Metric> = end_to_end(Kind::FaultSoak, &untraced, 1.0)
            .into_iter()
            .filter(|m| RESULT_END_TO_END.contains(&m.name))
            .collect();
        assert_eq!(names_units(&e2e), declared("end_to_end"));
        let mut run = Run {
            untraced,
            traced,
            checks: Checks::default(),
            peak_rss_mb: 1.0,
        };
        let layer = per_layer(&mut workload, &mut spans, &mut run);
        assert_eq!(names_units(&layer), declared("per_layer"));
        // The tick-kernel pass ran, and its outputs matched the pinned
        // kernel's.
        assert!(layer[2].name == "sim_core.engine.ns_per_action" && layer[2].value > 0.0);
        assert!(layer.iter().all(|m| valid_metric_name(m.name)));
        assert_eq!(run.all_checks().failed, 0);
    }
}
