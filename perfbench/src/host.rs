//! Host provenance and process-level measurements (Linux `/proc`).
//!
//! Every result carries the host it was measured on — CPU count, CPU
//! model and the integer GEMM kernel chosen at run time — so results
//! from different hosts are never compared silently.

use drq::telemetry::Json;
use std::fs;

fn status_field_kb(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Threads currently alive in this process.
pub fn threads_now() -> u64 {
    status_field_kb("Threads:").map_or(0, |n| n as u64)
}

/// User plus system CPU seconds consumed by this process so far.
pub fn cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line, in clock ticks (USER_HZ).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (ticks(11) + ticks(12)) / 100.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance object printed with every result.
pub fn provenance() -> Json {
    Json::obj([
        ("nproc", Json::U64(nproc() as u64)),
        ("cpu_model", Json::str(cpu_model())),
        ("int_kernel", Json::str(drq::tensor::int_kernel_name())),
        (
            "compute_threads",
            Json::U64(drq::tensor::parallel::max_threads() as u64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        assert!(threads_now() >= 1);
        assert!(cpu_s() >= 0.0);
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
    }
}
