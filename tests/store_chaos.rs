//! Chaos property suite for the crash-safe artifact store.
//!
//! The store's contract is that a reader always observes a fully-committed
//! generation: the latest one (*N*) when the primary file is intact, the
//! previous one (*N−1*) when the primary is torn, truncated, or missing —
//! and **never** a torn frame passed off as a payload. This suite proves
//! the contract three ways:
//!
//! 1. a seeded property run ([`IoFaultCase`]) drives commits through a
//!    [`FaultyStorage`] under arbitrary multi-rule fault plans and checks
//!    a clean reader of the shared "disk" after every attempt;
//! 2. exhaustive deterministic sweeps truncate the primary at every byte
//!    offset and flip every single bit, asserting the previous generation
//!    is salvaged byte-exactly each time;
//! 3. the two-failure case (primary *and* previous both damaged) yields a
//!    typed [`StoreError::Unrecoverable`] naming both rejection reasons;
//! 4. a fixed multi-rule schedule replays byte-for-byte against a golden:
//!    every outcome, the fault counters and the final bytes on "disk".
//!    The outcomes include the store's generation numbers, so the golden
//!    also pins today's restart of numbering at 1 after an unrecoverable
//!    faulty load (see CHANGES.md); fixing that changes the golden.
//!
//! The kill/resume half of the chaos gate — SIGKILLing `drq pareto`
//! mid-checkpoint and resuming to a byte-identical artifact — lives in
//! `scripts/ci.sh`, which needs real processes and a real filesystem.

use drq_store::{
    ArtifactStore, FaultyStorage, IoFaultPlan, IoFaultRule, IoFaultSite, MemStorage, Storage,
    StoreError,
};
use drq::telemetry::Json;
use drq_testkit::cases::IoFaultCase;
use drq_testkit::TestKit;

fn kit() -> TestKit {
    TestKit::from_env("store-chaos")
}

const PATH: &str = "artifact.json";

/// Seeds a fresh in-memory disk with two cleanly committed generations.
/// Returns the disk plus the committed (payload, generation) history.
fn seeded_disk() -> (MemStorage, Vec<(Vec<u8>, u64)>) {
    let mem = MemStorage::new();
    let store = ArtifactStore::new(mem.clone());
    let h1 = b"seed generation one".to_vec();
    let h2 = b"seed generation two -- different length".to_vec();
    let g1 = store.commit(PATH, &h1).unwrap();
    let g2 = store.commit(PATH, &h2).unwrap();
    assert_eq!((g1, g2), (1, 2));
    (mem, vec![(h1, g1), (h2, g2)])
}

#[test]
fn any_fault_schedule_leaves_the_last_good_generation_readable() {
    kit().check(
        "clean reader sees the last committed generation under any schedule",
        IoFaultCase::arbitrary,
        IoFaultCase::shrink,
        |c| {
            let (mem, mut history) = seeded_disk();
            let plan = c.build_plan();
            let faulty = ArtifactStore::new(
                FaultyStorage::new(mem.clone(), &plan).map_err(|e| e.to_string())?,
            );
            let clean = ArtifactStore::new(mem.clone());
            for payload in c.payloads() {
                // A commit either lands in full (Ok carries the new
                // generation) or reports a typed I/O error; there is no
                // third outcome.
                match faulty.commit(PATH, &payload) {
                    Ok(generation) => history.push((payload.clone(), generation)),
                    Err(StoreError::Io { .. }) => {}
                    Err(other) => {
                        return Err(format!("commit failed with a non-I/O error: {other}"))
                    }
                }

                // Invariant 1 — a clean reader, at any point between
                // operations, sees exactly the last successfully committed
                // generation, byte for byte. (A failed commit must be
                // invisible; mid-crash states where only `.prev` survives
                // salvage to the same bytes.)
                let (want_payload, want_gen) = history.last().expect("seeded history");
                let seen = clean
                    .load(PATH)
                    .map_err(|e| format!("clean reader lost the last good generation: {e}"))?;
                if &seen.payload != want_payload || seen.generation != *want_gen {
                    return Err(format!(
                        "clean reader saw generation {} ({} bytes), wanted generation {} \
                         ({} bytes)",
                        seen.generation,
                        seen.payload.len(),
                        want_gen,
                        want_payload.len(),
                    ));
                }

                // Invariant 2 — a *faulty* reader (short reads, bit rot)
                // either gets some fully-committed generation byte-exact
                // or a typed error; a torn frame never validates.
                match faulty.load(PATH) {
                    Err(_) => {}
                    Ok(out) => {
                        let known = history
                            .iter()
                            .any(|(p, g)| p == &out.payload && *g == out.generation);
                        if !known {
                            return Err(format!(
                                "faulty reader decoded a forged frame: generation {} \
                                 ({} bytes) matches no committed payload",
                                out.generation,
                                out.payload.len(),
                            ));
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn truncating_the_primary_at_every_offset_salvages_the_previous_generation() {
    let (mem, history) = seeded_disk();
    let clean = ArtifactStore::new(mem.clone());
    let full = mem.read(PATH).unwrap();
    let (ref p1, g1) = history[0];
    let (ref p2, g2) = history[1];
    for cut in 0..=full.len() {
        mem.put(PATH, full[..cut].to_vec());
        let out = clean.load(PATH).unwrap_or_else(|e| {
            panic!("truncation at {cut}/{} bytes lost both generations: {e}", full.len())
        });
        if cut == full.len() {
            assert_eq!((&out.payload, out.generation), (p2, g2));
            assert!(out.salvaged.is_none());
        } else {
            assert_eq!(
                (&out.payload, out.generation),
                (p1, g1),
                "truncation at {cut} bytes must fall back to generation {g1}"
            );
            assert!(out.salvaged.is_some(), "fallback at {cut} bytes must say why");
        }
    }
}

#[test]
fn flipping_every_single_bit_of_the_primary_salvages_the_previous_generation() {
    let (mem, history) = seeded_disk();
    let clean = ArtifactStore::new(mem.clone());
    let full = mem.read(PATH).unwrap();
    let (ref p1, g1) = history[0];
    let (ref p2, g2) = history[1];
    for byte in 0..full.len() {
        for bit in 0..8 {
            let mut damaged = full.clone();
            damaged[byte] ^= 1 << bit;
            mem.put(PATH, damaged);
            let out = clean
                .load(PATH)
                .unwrap_or_else(|e| panic!("flip {byte}.{bit} lost both generations: {e}"));
            // CRC-32 detects every single-bit error, so a flipped frame
            // can never validate; the only acceptable outcome is the
            // byte-exact generation-1 salvage.
            assert_eq!(
                (&out.payload, out.generation),
                (p1, g1),
                "flip {byte}.{bit} must fall back to generation {g1}, not decode as \
                 generation {g2} ({}) or anything torn",
                p2.len(),
            );
        }
    }
}

#[test]
fn damaging_both_generations_is_a_typed_unrecoverable_error() {
    let (mem, _) = seeded_disk();
    let clean = ArtifactStore::new(mem.clone());
    let prev = format!("{PATH}.prev");
    let primary = mem.read(PATH).unwrap();
    let previous = mem.read(&prev).unwrap();
    mem.put(PATH, primary[..primary.len() / 2].to_vec());
    mem.put(&prev, previous[..previous.len() / 3].to_vec());
    match clean.load(PATH) {
        Err(StoreError::Unrecoverable { path, primary, previous }) => {
            assert_eq!(path, PATH);
            assert!(!primary.is_empty() && !previous.is_empty(), "both reasons must be named");
        }
        other => panic!("expected Unrecoverable, got {other:?}"),
    }
}

#[test]
fn fault_counters_record_fired_events() {
    let (mem, history) = seeded_disk();
    let plan = IoFaultPlan {
        seed: 11,
        rules: vec![IoFaultRule::new(IoFaultSite::TornWrite, 1.0).with_max_events(2)],
    };
    let faulty = FaultyStorage::new(mem.clone(), &plan).unwrap();
    let store = ArtifactStore::new(faulty);
    // Saturated torn writes: the first two commits must fail without
    // disturbing the last good generation; the third (cap exhausted)
    // lands.
    assert!(store.commit(PATH, b"doomed one").is_err());
    assert!(store.commit(PATH, b"doomed two").is_err());
    let gen = store.commit(PATH, b"third time lucky").unwrap();
    assert_eq!(gen, history.last().unwrap().1 + 1);
    let counters = store.storage().counters();
    assert_eq!(counters.count(IoFaultSite::TornWrite), 2);
    assert_eq!(counters.total(), 2);
    let json = counters.to_json().to_string();
    assert!(json.contains("\"torn_write\":2"), "{json}");
    let clean = ArtifactStore::new(mem);
    assert_eq!(clean.load(PATH).unwrap().payload, b"third time lucky");
}

/// A fixed schedule of commits and faulty loads under one rule per site
/// (two on `fsync_fail`, one path-filtered): each outcome, the counters and
/// every file left on the inner storage, hex-encoded.
fn multi_rule_commit_schedule() -> String {
    let (mem, _) = seeded_disk();
    let plan = IoFaultPlan {
        seed: 0xC0FFEE,
        rules: vec![
            IoFaultRule::new(IoFaultSite::TornWrite, 0.15),
            IoFaultRule::new(IoFaultSite::Enospc, 0.1).with_max_events(2),
            IoFaultRule::new(IoFaultSite::FsyncFail, 0.1),
            IoFaultRule::new(IoFaultSite::FsyncFail, 0.3).with_target(".tmp"),
            IoFaultRule::new(IoFaultSite::RenameFail, 0.1).with_target(".prev"),
            IoFaultRule::new(IoFaultSite::ShortRead, 0.2),
            IoFaultRule::new(IoFaultSite::BitRot, 0.2).with_max_events(3),
        ],
    };
    let store = ArtifactStore::new(FaultyStorage::new(mem.clone(), &plan).unwrap());
    let mut outcomes = Vec::new();
    for i in 0..24u32 {
        let payload = format!("generation payload {i} {}", "x".repeat(i as usize));
        outcomes.push(match store.commit(PATH, payload.as_bytes()) {
            Ok(generation) => format!("commit ok {generation}"),
            Err(e) => format!("commit err {e}"),
        });
        outcomes.push(match store.load(PATH) {
            Ok(out) => format!("load ok {}", out.generation),
            Err(e) => format!("load err {e}"),
        });
    }
    let hex = |bytes: Vec<u8>| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
    let files = mem.paths().into_iter().map(|p| {
        let bytes = mem.read(&p).unwrap();
        (p, Json::str(hex(bytes)))
    });
    let mut text = Json::obj([
        ("plan", plan.to_json()),
        ("outcomes", Json::arr(outcomes.into_iter().map(Json::str))),
        ("counters", store.storage().counters().to_json()),
        ("files", Json::obj(files)),
    ])
    .to_string();
    text.push('\n');
    text
}

#[test]
fn multi_rule_commit_schedule_matches_golden_bytes() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens/store_multi_rule_schedule.json");
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
    assert_eq!(
        multi_rule_commit_schedule(),
        want,
        "a seeded multi-rule FaultyStorage schedule no longer replays its golden. \
         The golden pins the fault draw order and also ArtifactStore's commit and \
         load outcomes, including the known generation restart (\"commit ok 4\", an \
         unrecoverable load, then \"commit ok 1\"); a fix to that numbering may \
         regenerate it, with the reason recorded"
    );
}
