//! Run metadata: host, toolchain, commit and build identity.

use crate::stats::Obj;
use std::process::Command;

/// Logical CPUs available to the process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// FNV-1a over `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A hash of the running executable: runs of one build share it.
#[must_use]
pub fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::read)
        .map_or_else(|_| "unknown".to_string(), |b| format!("{:016x}", fnv1a(&b)))
}

/// Peak resident memory of this process in KiB (`VmHWM`), 0 if unknown.
#[must_use]
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The metadata object of one run.
#[must_use]
pub fn collect(workload: &str, seed: u64, seconds: u64, trace: bool, build: &str) -> Obj {
    let mut o = Obj::new();
    o.str("workload", workload)
        .int("seed", seed)
        .int("seconds", seconds)
        .bool("trace", trace)
        .int("nproc", nproc() as u64)
        .str("cpu_model", &cpu_model())
        .str("rustc", env!("PERFBENCH_RUSTC_VERSION"))
        .str("commit", &commit())
        .str("build_id", build)
        .int("peak_rss_kib", peak_rss_kib());
    o
}
