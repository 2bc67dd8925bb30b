//! Deterministic I/O fault injection for the artifact store.
//!
//! [`FaultyStorage`] wraps any [`Storage`] and injects the failure modes
//! that matter for crash safety — torn writes at seeded byte offsets,
//! silently short reads, single-bit rot, `ENOSPC`, rename and fsync
//! failures — each governed by per-site rate rules. Plan, rule, counters
//! and injector are the engine in [`drq_telemetry::faults`] that the
//! simulator's `drq_sim::FaultPlan` also uses, instantiated over
//! [`IoFaultSite`]: an [`IoFaultPlan`] is `(seed, rules)`,
//! JSON-serializable, and every injected event is a pure function of the
//! plan and the (deterministic, sequential) order of storage operations,
//! so a faulted schedule replays bit-for-bit from its seed. A rule's
//! target is a path substring (JSON key `path_substr`; rules take no
//! `bit`).
//!
//! Where a fired event needs extra randomness (the tear offset of a torn
//! write, the byte and bit of a rot event, the kept length of a short
//! read) those draws happen only when the event fires.
//!
//! # Injected effects
//!
//! | site | operation | effect |
//! |---|---|---|
//! | `torn_write` | `write` | a seeded **strict prefix** of the bytes reaches storage, then the write errors — the torn file is left behind |
//! | `enospc` | `write` | the write errors, nothing reaches storage |
//! | `short_read` | `read` | a seeded strict prefix is returned **as success** (the dangerous silent case) |
//! | `bit_rot` | `read` | one seeded bit of the returned buffer is flipped, still reported as success |
//! | `fsync_fail` | `fsync` | the flush errors |
//! | `rename_fail` | `rename` | the rename errors, neither path changes |

use crate::storage::Storage;
use crate::store::StoreError;
use drq_telemetry::faults::{self, FaultPlanError, Injector, Site};
use std::io;
use std::sync::Mutex;

/// Which storage primitive a fault rule attacks, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultSite {
    /// A write persists only a seeded strict prefix, then errors.
    TornWrite,
    /// A read silently returns a seeded strict prefix as success.
    ShortRead,
    /// A read returns the full buffer with one seeded bit flipped.
    BitRot,
    /// A write fails with `ENOSPC` before any byte reaches storage.
    Enospc,
    /// A rename fails; neither path changes.
    RenameFail,
    /// An fsync fails; the data may or may not be durable.
    FsyncFail,
}

impl Site for IoFaultSite {
    type Error = StoreError;
    const ALL: &'static [IoFaultSite] = &[
        IoFaultSite::TornWrite,
        IoFaultSite::ShortRead,
        IoFaultSite::BitRot,
        IoFaultSite::Enospc,
        IoFaultSite::RenameFail,
        IoFaultSite::FsyncFail,
    ];
    const TARGET_KEY: &'static str = "path_substr";

    fn name(self) -> &'static str {
        match self {
            IoFaultSite::TornWrite => "torn_write",
            IoFaultSite::ShortRead => "short_read",
            IoFaultSite::BitRot => "bit_rot",
            IoFaultSite::Enospc => "enospc",
            IoFaultSite::RenameFail => "rename_fail",
            IoFaultSite::FsyncFail => "fsync_fail",
        }
    }

    /// I/O faults corrupt no fixed-width word: their rules take no `bit`.
    fn bit_width(self) -> u32 {
        0
    }

    /// A rule on `"front.json"` also hits `front.json.tmp` and
    /// `front.json.prev`.
    fn target_matches(want: &str, have: &str) -> bool {
        have.contains(want)
    }
}

impl From<FaultPlanError> for StoreError {
    fn from(e: FaultPlanError) -> Self {
        StoreError::FaultPlan { detail: e.detail }
    }
}

/// One rule of an I/O fault plan: a site, a per-operation rate, and
/// optional path-substring filter and event cap.
pub type IoFaultRule = faults::Rule<IoFaultSite>;

/// A complete I/O fault configuration: an RNG seed plus rules.
///
/// Serialized as `{"seed": <u64>, "rules": [<rule>, ...]}` where each rule
/// is `{"site": <name>, "rate": <0..1>, "path_substr"?: <string>,
/// "max_events"?: <u64>}`.
///
/// # Examples
///
/// ```
/// use drq_store::{IoFaultPlan, IoFaultRule, IoFaultSite};
///
/// let plan = IoFaultPlan::parse(
///     r#"{"seed": 7, "rules": [{"site": "torn_write", "rate": 1.0,
///         "path_substr": "front.json", "max_events": 1}]}"#,
/// )
/// .unwrap();
/// assert_eq!(plan.seed, 7);
/// assert_eq!(plan.rules[0].site, IoFaultSite::TornWrite);
/// assert!(IoFaultPlan::empty().is_empty());
/// # let _ = IoFaultRule::new(IoFaultSite::FsyncFail, 0.5);
/// ```
pub type IoFaultPlan = faults::Plan<IoFaultSite>;

/// Per-site event counts accumulated by a [`FaultyStorage`].
pub type IoFaultCounters = faults::Counters<IoFaultSite>;

fn injected(kind: io::ErrorKind, what: String) -> io::Error {
    io::Error::new(kind, what)
}

/// A [`Storage`] wrapper that injects deterministic I/O faults from an
/// [`IoFaultPlan`]. See the [module docs](self) for the effect of each
/// site and the draw discipline that makes schedules replayable.
///
/// The wrapper is where chaos comes from in `tests/store_chaos.rs`: the
/// property suite drives [`crate::ArtifactStore`] commits through a
/// `FaultyStorage<MemStorage>` under arbitrary plans and asserts a reader
/// of the shared inner storage always sees generation *N* or *N−1*, never
/// a torn frame.
pub struct FaultyStorage<S: Storage> {
    inner: S,
    injector: Mutex<Injector<IoFaultSite>>,
}

impl<S: Storage> FaultyStorage<S> {
    /// Wraps `inner`, injecting faults per the validated `plan`.
    ///
    /// # Errors
    ///
    /// [`StoreError::FaultPlan`] when the plan fails validation.
    pub fn new(inner: S, plan: &IoFaultPlan) -> Result<Self, StoreError> {
        Ok(Self { inner, injector: Mutex::new(Injector::new(plan)?) })
    }

    /// Event counts so far.
    pub fn counters(&self) -> IoFaultCounters {
        self.lock().counters()
    }

    /// The wrapped storage (e.g. to inspect the "disk" with clean reads).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Injector<IoFaultSite>> {
        self.injector.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A strict-prefix length of a buffer of `len` bytes (0..len).
fn prefix_len(inj: &mut Injector<IoFaultSite>, len: usize) -> usize {
    if len == 0 {
        0
    } else {
        inj.draw_below(len)
    }
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        let mut bytes = self.inner.read(path)?;
        let mut state = self.lock();
        if state.fires(IoFaultSite::ShortRead, Some(path)) {
            let keep = prefix_len(&mut state, bytes.len());
            bytes.truncate(keep);
        } else if state.fires(IoFaultSite::BitRot, Some(path)) && !bytes.is_empty() {
            let byte = prefix_len(&mut state, bytes.len());
            let bit = state.draw_below(8) as u8;
            bytes[byte] ^= 1 << bit;
        }
        Ok(bytes)
    }

    fn write(&self, path: &str, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.lock();
        if state.fires(IoFaultSite::TornWrite, Some(path)) {
            let keep = prefix_len(&mut state, bytes.len());
            drop(state);
            // The tear persists a strict prefix, then the write "crashes".
            self.inner.write(path, &bytes[..keep])?;
            return Err(injected(
                io::ErrorKind::WriteZero,
                format!("injected torn write: {keep} of {} bytes reached {path}", bytes.len()),
            ));
        }
        if state.fires(IoFaultSite::Enospc, Some(path)) {
            return Err(injected(
                io::ErrorKind::StorageFull,
                format!("injected ENOSPC writing {path}"),
            ));
        }
        drop(state);
        self.inner.write(path, bytes)
    }

    fn fsync(&self, path: &str) -> io::Result<()> {
        if self.lock().fires(IoFaultSite::FsyncFail, Some(path)) {
            return Err(injected(
                io::ErrorKind::Other,
                format!("injected fsync failure on {path}"),
            ));
        }
        self.inner.fsync(path)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        if self.lock().fires(IoFaultSite::RenameFail, Some(to)) {
            return Err(injected(
                io::ErrorKind::Other,
                format!("injected rename failure: {from} -> {to}"),
            ));
        }
        self.inner.rename(from, to)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.inner.remove(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    /// A `FaultyStorage` over `mem` whose every rule fires at rate 1.
    fn armed(mem: &MemStorage, rules: Vec<IoFaultRule>) -> FaultyStorage<MemStorage> {
        FaultyStorage::new(mem.clone(), &IoFaultPlan { seed: 11, rules }).unwrap()
    }

    fn always(site: IoFaultSite) -> IoFaultRule {
        IoFaultRule::new(site, 1.0)
    }

    #[test]
    fn plans_use_the_path_key_and_reject_bits_and_layers() {
        let text = r#"{"seed":99,"rules":[{"site":"torn_write","rate":0.25,"path_substr":"front.json","max_events":3}]}"#;
        let p = IoFaultPlan::parse(text).unwrap();
        assert_eq!(p.rules[0].target.as_deref(), Some("front.json"));
        assert_eq!(p.to_json().to_string(), text);
        for bad in [
            r#"{"rules": [{"site": "torn_write", "rate": 0.1, "bit": 1}]}"#,
            r#"{"rules": [{"site": "torn_write", "rate": 0.1, "layer": "conv1"}]}"#,
            r#"{"rules": [{"site": "stall_cycle", "rate": 0.1}]}"#,
            r#"{"rules": [{"site": "torn_write", "rate": 1.5}]}"#,
            r#"not json"#,
        ] {
            let err = IoFaultPlan::parse(bad).expect_err(bad);
            assert!(matches!(err, StoreError::FaultPlan { .. }), "{bad}");
        }
        let with_bit = IoFaultPlan { seed: 1, rules: vec![always(IoFaultSite::BitRot).with_bit(0)] };
        assert!(matches!(
            FaultyStorage::new(MemStorage::new(), &with_bit),
            Err(StoreError::FaultPlan { .. })
        ));
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mem = MemStorage::new();
        let faulty = armed(&mem, Vec::new());
        faulty.write("a", b"bytes").unwrap();
        faulty.fsync("a").unwrap();
        assert_eq!(faulty.read("a").unwrap(), b"bytes");
        faulty.rename("a", "b").unwrap();
        assert_eq!(mem.read("b").unwrap(), b"bytes");
        faulty.remove("b").unwrap();
        assert_eq!(faulty.counters().total(), 0);
    }

    #[test]
    fn torn_write_leaves_a_strict_prefix_and_errors() {
        let mem = MemStorage::new();
        let faulty = armed(&mem, vec![always(IoFaultSite::TornWrite)]);
        let payload = vec![0xAB; 100];
        let err = faulty.write("a", &payload).unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        let torn = mem.read("a").unwrap();
        assert!(torn.len() < payload.len(), "torn file must be a strict prefix");
        assert_eq!(torn, payload[..torn.len()]);
        assert_eq!(faulty.counters().count(IoFaultSite::TornWrite), 1);
    }

    #[test]
    fn enospc_writes_nothing() {
        let mem = MemStorage::new();
        let err = armed(&mem, vec![always(IoFaultSite::Enospc)]).write("a", b"bytes").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(!mem.exists("a"));
    }

    #[test]
    fn short_read_silently_truncates_and_bit_rot_flips_exactly_one_bit() {
        let mem = MemStorage::new();
        mem.put("a", vec![7; 64]);
        let got = armed(&mem, vec![always(IoFaultSite::ShortRead)]).read("a").unwrap();
        assert!(got.len() < 64, "short read must drop at least one byte");
        assert_eq!(got, vec![7; got.len()]);
        let got = armed(&mem, vec![always(IoFaultSite::BitRot)]).read("a").unwrap();
        assert_eq!(got.len(), 64);
        let flipped: u32 = got.iter().map(|b| (b ^ 7).count_ones()).sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn rename_and_fsync_failures_inject() {
        let mem = MemStorage::new();
        mem.put("a", b"x".to_vec());
        let faulty =
            armed(&mem, vec![always(IoFaultSite::RenameFail), always(IoFaultSite::FsyncFail)]);
        assert!(faulty.fsync("a").is_err());
        assert!(faulty.rename("a", "b").is_err());
        assert!(mem.exists("a") && !mem.exists("b"), "failed rename must not move");
        let c = faulty.counters();
        assert_eq!((c.count(IoFaultSite::RenameFail), c.count(IoFaultSite::FsyncFail)), (1, 1));
    }

    #[test]
    fn path_substr_targets_only_matching_paths() {
        let faulty =
            armed(&MemStorage::new(), vec![always(IoFaultSite::Enospc).with_target("front.json")]);
        faulty.write("other.bin", b"ok").unwrap();
        assert!(faulty.write("runs/front.json.tmp", b"no").is_err());
    }
}
