//! Goldens kept with the benchmark (`perfbench/golden.json`).
//!
//! Goldens pin outputs that do not depend on the run seed: the canary
//! batch of `infer-resnet8`, the canary episode of `tune-resnet8` and the
//! Pareto front of `dse-resnet18` (the search seed changes only the
//! traversal order, never the front). Seeded outputs are checked by
//! invariants and bitwise replays instead. A mismatch prints the whole
//! actual value: after an intended numerics change, copy it into
//! golden.json and say why in the change that does it.

use drq::telemetry::Json;
use std::path::PathBuf;

fn path() -> PathBuf {
    // The benchmark runs from the repository root (see BENCHMARK.json).
    PathBuf::from("perfbench").join("golden.json")
}

fn load() -> Json {
    std::fs::read_to_string(path())
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .unwrap_or(Json::Object(Vec::new()))
}

/// Compares `actual` with the golden under `key`.
pub fn check(key: &str, actual: Json) -> Result<(), String> {
    match load().get(key) {
        None => Err(format!("no golden {key:?} in {}", path().display())),
        // Compared as serialized text: the file's `29` parses as an
        // integer where the measured value is the float 29.0.
        Some(expected) if expected.to_string() == actual.to_string() => Ok(()),
        Some(expected) => Err(format!(
            "golden {key:?} mismatch: expected {expected}, got {actual}"
        )),
    }
}
