//! The host fingerprint printed beside every result, and peak memory.

use pdr_sim_core::json::{Json, ToJson};

use crate::workloads::{ENGINE, FLEET_THREADS};

/// What the numbers were measured on and with.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Cores available to this process.
    pub cores: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo build profile.
    pub profile: &'static str,
    /// Simulation kernel strategy every system is built with.
    pub engine: String,
    /// Fleet executor threads.
    pub fleet_threads: usize,
}

impl Fingerprint {
    /// Reads the host's fingerprint.
    pub fn read() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            engine: format!("{ENGINE:?}"),
            fleet_threads: FLEET_THREADS,
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cores".into(), self.cores.to_json()),
            ("cpu_model".into(), self.cpu_model.to_json()),
            ("rustc".into(), self.rustc.to_json()),
            ("profile".into(), self.profile.to_json()),
            ("engine".into(), self.engine.to_json()),
            ("fleet_threads".into(), self.fleet_threads.to_json()),
        ])
    }
}

/// Peak resident memory of this process, MB (10⁶ bytes), from the
/// `VmHWM` line of `/proc/self/status`; `None` where that is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}
