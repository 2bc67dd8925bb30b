//! Partition-count invariance suite for the `SimSession` simulator.
//!
//! The contract under test: a partitioned simulation is a pure wall-clock
//! optimization. For any shard count — `single`, a fixed number, or
//! `auto` — the serialized `network_sim` report, the reliability report,
//! and the cycle-stamped trace must be **byte-identical** to the
//! single-shard reference, and the single-shard reference must still match
//! the committed golden file from `tests/metrics_golden.rs`.

use drq::models::zoo::{self, InputRes};
use drq::sim::{smoke_fault_plan, ArchConfig, Partitions, SimSession};
use drq::telemetry::Tracer;

fn partitions_under_test() -> [Partitions; 4] {
    [
        Partitions::Single,
        Partitions::Fixed(2),
        Partitions::Fixed(7),
        Partitions::Auto,
    ]
}

#[test]
fn clean_reports_are_byte_identical_at_any_partition_count() {
    let accel = ArchConfig::builder().build();
    for net in [zoo::lenet5(), zoo::resnet18(InputRes::Cifar)] {
        let reference = SimSession::new(&accel, &net)
            .seed(42)
            .partitions(Partitions::Single)
            .run()
            .unwrap()
            .to_report()
            .to_json_string();
        for p in partitions_under_test() {
            let got = SimSession::new(&accel, &net)
                .seed(42)
                .partitions(p)
                .run()
                .unwrap()
                .to_report()
                .to_json_string();
            assert_eq!(got, reference, "{}: bytes drifted at partitions={p}", net.name);
        }
    }
}

#[test]
fn traced_runs_are_byte_identical_at_any_partition_count() {
    let accel = ArchConfig::builder().build();
    let net = zoo::resnet18(InputRes::Cifar);
    let mut reference = Tracer::new();
    let ref_report = SimSession::new(&accel, &net)
        .seed(9)
        .partitions(Partitions::Single)
        .trace(&mut reference)
        .run()
        .unwrap()
        .to_report()
        .to_json_string();
    for p in partitions_under_test() {
        let mut tracer = Tracer::new();
        let report = SimSession::new(&accel, &net)
            .seed(9)
            .partitions(p)
            .trace(&mut tracer)
            .run()
            .unwrap()
            .to_report()
            .to_json_string();
        assert_eq!(report, ref_report, "report bytes drifted at partitions={p}");
        assert_eq!(
            tracer.to_jsonl(),
            reference.to_jsonl(),
            "trace bytes drifted at partitions={p}"
        );
    }
}

#[test]
fn faulted_runs_are_byte_identical_at_any_partition_count() {
    let accel = ArchConfig::builder().build();
    let net = zoo::lenet5();
    let reference = SimSession::new(&accel, &net)
        .seed(42)
        .partitions(Partitions::Single)
        .faults(smoke_fault_plan())
        .run()
        .unwrap();
    assert!(
        reference.reliability().unwrap().counters.total() > 0,
        "smoke plan must actually inject"
    );
    let ref_bytes = reference.to_report().to_json_string();
    for p in partitions_under_test() {
        let got = SimSession::new(&accel, &net)
            .seed(42)
            .partitions(p)
            .faults(smoke_fault_plan())
            .run()
            .unwrap();
        assert_eq!(
            got.to_report().to_json_string(),
            ref_bytes,
            "reliability bytes drifted at partitions={p}"
        );
    }
}

#[test]
fn partitioned_run_matches_the_metrics_golden_file() {
    // Ties the partition contract to the long-lived golden of
    // tests/metrics_golden.rs: a *multi-shard* run must reproduce the
    // committed single-source-of-truth bytes, not merely agree with a
    // fresh single-shard run.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens/metrics_lenet5_seed42.json");
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
    let accel = ArchConfig::builder().build();
    let net = zoo::lenet5();
    for p in [Partitions::Fixed(2), Partitions::Fixed(4), Partitions::Auto] {
        let mut got = SimSession::new(&accel, &net)
            .seed(42)
            .partitions(p)
            .run()
            .unwrap()
            .to_report()
            .to_json_string();
        got.push('\n');
        assert_eq!(got, want, "partitions={p} drifted from the golden report");
    }
}

#[test]
fn resnet50_class_topology_is_partition_invariant() {
    // The acceptance-criteria topology: a ResNet-50-class network must
    // simulate under SimSession with byte-identical reports at any shard
    // count (CIFAR resolution keeps the test fast; the layer graph is the
    // full 50-layer bottleneck topology either way).
    let accel = ArchConfig::builder().build();
    let net = zoo::resnet50(InputRes::Cifar);
    let reference = SimSession::new(&accel, &net)
        .seed(7)
        .partitions(Partitions::Single)
        .run()
        .unwrap()
        .to_report()
        .to_json_string();
    for p in [Partitions::Fixed(3), Partitions::Auto] {
        let got = SimSession::new(&accel, &net)
            .seed(7)
            .partitions(p)
            .run()
            .unwrap()
            .to_report()
            .to_json_string();
        assert_eq!(got, reference, "ResNet-50 bytes drifted at partitions={p}");
    }
}
