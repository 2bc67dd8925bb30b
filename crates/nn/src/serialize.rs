//! Saving and loading network weights.
//!
//! A deliberately simple, dependency-free binary format: the architecture
//! is *not* serialized (it is code), only the state tensors — the
//! parameters in the stable `visit_params` order, then the BatchNorm running
//! statistics in `visit_buffers` order. Loading into a freshly constructed
//! network of the same architecture restores the trained model, eval-mode
//! outputs included — which is how the examples avoid retraining stand-ins
//! on every run.
//!
//! Format (little-endian):
//!
//! ```text
//! magic  u32 = 0x4452_5157  ("DRQW")
//! version u32 = 3
//! tensor_count u32
//! per tensor (parameters, then running statistics):
//!   rank u32, dims [u32; rank], data [f32; product(dims)]
//! crc32 u32   (IEEE, over every preceding byte; absent in version 1)
//! ```
//!
//! Versions 1 and 2 hold the parameters only; loading one leaves the
//! target's running statistics as they were. Version 1 files (no checksum
//! footer) remain loadable; [`load_weights`] prints a "no checksum" warning
//! to stderr for them, and
//! [`load_weights_verified`] reports whether the stream was actually
//! verified. Truncated or bit-flipped streams surface as the typed
//! [`NnError::CorruptCheckpoint`] instead of panicking or silently loading
//! garbage.

use crate::{Network, NnError};
use drq_store::{ArtifactStore, Crc32, Storage, StoreError};
use drq_tensor::Tensor;
use std::io::{self, Read, Write};

const MAGIC: u32 = 0x4452_5157;
const VERSION: u32 = 3;
const LEGACY_VERSION: u32 = 1;

/// Error loading weights.
///
/// Historical alias kept for source compatibility: weight-loading errors
/// are now the crate-wide [`NnError`].
pub type LoadWeightsError = NnError;

/// Writer adapter that checksums every byte it forwards.
struct CrcWriter<W: Write> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Reader adapter that checksums every byte it yields.
struct CrcReader<R: Read> {
    inner: R,
    crc: Crc32,
}

impl<R: Read> Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }
}

fn write_u32(w: &mut dyn Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut dyn Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Visits the tensors a stream of `version` holds, in file order: the
/// parameters, then (from version 3) the running statistics.
fn visit_state(net: &mut Network, version: u32, f: &mut dyn FnMut(&mut Tensor<f32>)) {
    net.visit_params(&mut |param, _| f(param));
    if version >= 3 {
        net.visit_buffers(f);
    }
}

/// Writes all trainable parameters and BatchNorm running statistics of
/// `net` to `out`, followed by a CRC32 footer over the whole stream.
///
/// A `&mut` reference can be passed for `out` (see `std::io::Write`).
///
/// # Errors
///
/// Returns any underlying I/O error.
///
/// # Examples
///
/// ```
/// use drq_nn::{save_weights, load_weights, Layer, Linear, Network};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Network::new(vec![Layer::from(Linear::new(2, 2, 1))]);
/// let mut bytes = Vec::new();
/// save_weights(&mut a, &mut bytes)?;
/// let mut b = Network::new(vec![Layer::from(Linear::new(2, 2, 99))]);
/// load_weights(&mut b, &mut bytes.as_slice())?;
/// assert_eq!(a, b);
/// # Ok(())
/// # }
/// ```
pub fn save_weights<W: Write>(net: &mut Network, out: W) -> io::Result<()> {
    write_stream(net, out, VERSION)
}

/// Writes a `version` stream (the current one, or an older one for the
/// compatibility tests).
fn write_stream<W: Write>(net: &mut Network, out: W, version: u32) -> io::Result<()> {
    let mut out = CrcWriter {
        inner: out,
        crc: Crc32::new(),
    };
    // First pass: count tensors.
    let mut count = 0u32;
    visit_state(net, version, &mut |_| count += 1);
    write_u32(&mut out, MAGIC)?;
    write_u32(&mut out, version)?;
    write_u32(&mut out, count)?;
    let mut result = Ok(());
    visit_state(net, version, &mut |param| {
        if result.is_err() {
            return;
        }
        result = (|| -> io::Result<()> {
            write_u32(&mut out, param.rank() as u32)?;
            for &d in param.shape() {
                write_u32(&mut out, d as u32)?;
            }
            for &v in param.as_slice() {
                out.write_all(&v.to_le_bytes())?;
            }
            Ok(())
        })();
    });
    result?;
    if version == LEGACY_VERSION {
        return Ok(());
    }
    // The footer itself is not part of the checksummed region.
    let footer = out.crc.finish();
    out.inner.write_all(&footer.to_le_bytes())
}

/// Loads parameters saved by [`save_weights`] into `net`, which must have
/// the same architecture (parameter count and shapes).
///
/// Version-2 and -3 streams have their CRC32 footer verified; version-1 (legacy)
/// streams load with a "no checksum" warning on stderr. Use
/// [`load_weights_verified`] to observe which path was taken.
///
/// # Errors
///
/// Returns [`NnError`] on I/O failure, a malformed stream, a corrupt or
/// truncated checkpoint, or a parameter-shape mismatch. On error the
/// network may be partially updated.
pub fn load_weights<R: Read>(net: &mut Network, input: R) -> Result<(), NnError> {
    let verified = load_weights_verified(net, input)?;
    if !verified {
        eprintln!(
            "warning: legacy v1 weight stream has no checksum; \
             corruption cannot be detected (re-save to upgrade)"
        );
    }
    Ok(())
}

/// Like [`load_weights`], but returns whether the stream carried a CRC32
/// footer that was verified (`true` for versions 2 and 3, `false` for legacy
/// version 1) and never prints a warning itself.
///
/// # Errors
///
/// Same as [`load_weights`].
pub fn load_weights_verified<R: Read>(net: &mut Network, input: R) -> Result<bool, NnError> {
    let mut input = CrcReader {
        inner: input,
        crc: Crc32::new(),
    };
    if read_u32(&mut input)? != MAGIC {
        return Err(NnError::BadHeader("wrong magic".to_string()));
    }
    let version = read_u32(&mut input)?;
    if !(LEGACY_VERSION..=VERSION).contains(&version) {
        return Err(NnError::BadHeader(format!("unsupported version {version}")));
    }
    let stored = read_u32(&mut input)? as usize;
    let mut expected = 0usize;
    visit_state(net, version, &mut |_| expected += 1);
    if stored != expected {
        return Err(NnError::ArchitectureMismatch(format!(
            "file has {stored} tensors, network has {expected}"
        )));
    }
    let mut result: Result<(), NnError> = Ok(());
    let mut index = 0usize;
    visit_state(net, version, &mut |param| {
        if result.is_err() {
            return;
        }
        result = (|| -> Result<(), NnError> {
            let rank = read_u32(&mut input)? as usize;
            if rank != param.rank() {
                return Err(NnError::ArchitectureMismatch(format!(
                    "parameter {index}: rank {rank} vs expected {}",
                    param.rank()
                )));
            }
            for (axis, &expected_dim) in param.shape().to_vec().iter().enumerate() {
                let dim = read_u32(&mut input)? as usize;
                if dim != expected_dim {
                    return Err(NnError::ArchitectureMismatch(format!(
                        "parameter {index} axis {axis}: {dim} vs expected {expected_dim}"
                    )));
                }
            }
            let mut buf = [0u8; 4];
            for v in param.as_mut_slice() {
                input.read_exact(&mut buf)?;
                *v = f32::from_le_bytes(buf);
            }
            Ok(())
        })();
        index += 1;
    });
    result?;
    if version == LEGACY_VERSION {
        return Ok(false);
    }
    // Snapshot the running checksum *before* consuming the footer bytes.
    let computed = input.crc.finish();
    let mut footer = [0u8; 4];
    input.inner.read_exact(&mut footer).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            NnError::CorruptCheckpoint {
                detail: "truncated stream: missing crc32 footer".to_string(),
            }
        } else {
            NnError::from(e)
        }
    })?;
    let stored_crc = u32::from_le_bytes(footer);
    if stored_crc != computed {
        return Err(NnError::CorruptCheckpoint {
            detail: format!("crc32 mismatch: stored {stored_crc:#010x}, computed {computed:#010x}"),
        });
    }
    Ok(true)
}

/// Provenance of a [`load_weights_durable`] call: where the checkpoint
/// came from and how strongly it was validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableWeights {
    /// Store generation the weights came from (`0` for a legacy bare
    /// `DRQW` file written before the artifact store existed).
    pub generation: u64,
    /// Whether the `DRQW` stream carried a verified CRC32 footer.
    pub verified: bool,
    /// `Some(why)` when the primary checkpoint was rejected and the
    /// weights were salvaged from the previous generation.
    pub salvaged: Option<String>,
}

fn store_err(e: StoreError) -> NnError {
    match e {
        StoreError::Corrupt { .. } | StoreError::Unrecoverable { .. } => {
            NnError::CorruptCheckpoint { detail: e.to_string() }
        }
        other => NnError::Io(other.to_string()),
    }
}

/// Saves `net`'s weights as the next generation of the framed checkpoint
/// at `path` in `store`, returning the committed generation.
///
/// Unlike `save_weights(&mut net, &mut File::create(path)?)`, a failure
/// anywhere — serialization, disk full, crash — leaves the previous
/// checkpoint intact and loadable: the stream is fully serialized in
/// memory first and then committed atomically with rotation to
/// `<path>.prev`.
///
/// # Errors
///
/// [`NnError::Io`] when serialization or the store commit fails; on error
/// nothing at `path` has changed.
pub fn save_weights_durable<S: Storage>(
    net: &mut Network,
    store: &ArtifactStore<S>,
    path: &str,
) -> Result<u64, NnError> {
    let mut bytes = Vec::new();
    save_weights(net, &mut bytes)?;
    store.commit(path, &bytes).map_err(store_err)
}

/// Loads weights from the framed checkpoint at `path` in `store` into
/// `net`, falling back to the previous generation when the primary is
/// corrupt and accepting legacy bare `DRQW` files written before the
/// store existed (reported as `generation: 0`).
///
/// # Errors
///
/// [`NnError::Io`] when nothing exists at `path`,
/// [`NnError::CorruptCheckpoint`] when no copy validates, and the usual
/// [`load_weights_verified`] errors when the recovered stream does not
/// match `net`'s architecture.
pub fn load_weights_durable<S: Storage>(
    net: &mut Network,
    store: &ArtifactStore<S>,
    path: &str,
) -> Result<DurableWeights, NnError> {
    let outcome = store.load_or_legacy(path).map_err(store_err)?;
    let verified = load_weights_verified(net, outcome.payload.as_slice())?;
    Ok(DurableWeights {
        generation: outcome.generation,
        verified,
        salvaged: outcome.salvaged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchNorm2d, Conv2d, Flatten, Layer, Linear, Pool2d, PoolKind, ReLU};
    use drq_store::MemStorage;
    use drq_tensor::Tensor;

    fn sample_net(seed: u64) -> Network {
        Network::new(vec![
            Layer::from(Conv2d::new(1, 3, 3, 1, 1, seed)),
            Layer::from(BatchNorm2d::new(3)),
            Layer::from(ReLU::new()),
            Layer::from(Pool2d::new(PoolKind::Max, 2, 2)),
            Layer::from(Flatten::new()),
            Layer::from(Linear::new(3 * 16, 5, seed + 1)),
        ])
    }

    #[test]
    fn round_trip_restores_exact_weights_and_outputs() {
        let mut a = sample_net(11);
        let mut bytes = Vec::new();
        save_weights(&mut a, &mut bytes).unwrap();
        let mut b = sample_net(999); // different init
        load_weights(&mut b, &mut bytes.as_slice()).unwrap();
        let x = Tensor::from_fn(&[1, 1, 8, 8], |i| (i as f32 * 0.11).sin());
        let ya = a.forward(&x, false);
        let yb = b.forward(&x, false);
        assert_eq!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    fn round_trip_reports_verified_checksum() {
        let mut a = sample_net(4);
        let mut bytes = Vec::new();
        save_weights(&mut a, &mut bytes).unwrap();
        let mut b = sample_net(5);
        assert!(load_weights_verified(&mut b, &mut bytes.as_slice()).unwrap());
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut net = sample_net(1);
        let bytes = vec![0u8; 64];
        let err = load_weights(&mut net, &mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, LoadWeightsError::BadHeader(_)));
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let mut a = sample_net(1);
        let mut bytes = Vec::new();
        save_weights(&mut a, &mut bytes).unwrap();
        // Different FC width.
        let mut b = Network::new(vec![Layer::from(Linear::new(4, 4, 1))]);
        let err = load_weights(&mut b, &mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, LoadWeightsError::ArchitectureMismatch(_)));
    }

    #[test]
    fn rejects_truncated_stream_as_corrupt() {
        let mut a = sample_net(2);
        let mut bytes = Vec::new();
        save_weights(&mut a, &mut bytes).unwrap();
        bytes.truncate(bytes.len() / 2);
        let mut b = sample_net(3);
        let err = load_weights(&mut b, &mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, NnError::CorruptCheckpoint { .. }));
    }

    #[test]
    fn rejects_missing_footer_as_corrupt() {
        let mut a = sample_net(2);
        let mut bytes = Vec::new();
        save_weights(&mut a, &mut bytes).unwrap();
        bytes.truncate(bytes.len() - 1); // clip into the crc32 footer
        let mut b = sample_net(3);
        let err = load_weights(&mut b, &mut bytes.as_slice()).unwrap_err();
        match err {
            NnError::CorruptCheckpoint { detail } => assert!(detail.contains("footer")),
            other => panic!("expected CorruptCheckpoint, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bit_flip_as_corrupt() {
        let mut a = sample_net(7);
        let mut bytes = Vec::new();
        save_weights(&mut a, &mut bytes).unwrap();
        // Flip one bit in the middle of the parameter data.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let mut b = sample_net(8);
        let err = load_weights(&mut b, &mut bytes.as_slice()).unwrap_err();
        match err {
            NnError::CorruptCheckpoint { detail } => assert!(detail.contains("crc32 mismatch")),
            other => panic!("expected CorruptCheckpoint, got {other:?}"),
        }
    }

    #[test]
    fn v1_and_v2_streams_load_parameters_only() {
        let x = Tensor::from_fn(&[1, 1, 8, 8], |i| (i as f32 * 0.07).cos());
        for (version, verified) in [(LEGACY_VERSION, false), (2, true)] {
            let mut a = sample_net(21);
            let mut bytes = Vec::new();
            write_stream(&mut a, &mut bytes, version).unwrap();
            let mut params = 0u32;
            a.visit_params(&mut |_, _| params += 1);
            assert_eq!(&bytes[8..12], &params.to_le_bytes(), "parameters only");
            let mut b = sample_net(22);
            assert_eq!(load_weights_verified(&mut b, &mut bytes.as_slice()).unwrap(), verified);
            // An untrained net's running statistics are the defaults, so
            // the parameters alone reproduce its outputs.
            assert_eq!(a.forward(&x, false).as_slice(), b.forward(&x, false).as_slice());
        }
    }

    #[test]
    fn header_is_stable() {
        let mut a = Network::new(vec![Layer::from(Linear::new(1, 1, 1))]);
        let mut bytes = Vec::new();
        save_weights(&mut a, &mut bytes).unwrap();
        assert_eq!(&bytes[0..4], &MAGIC.to_le_bytes());
        assert_eq!(&bytes[4..8], &VERSION.to_le_bytes());
        assert_eq!(&bytes[8..12], &2u32.to_le_bytes()); // weight + bias
    }

    #[test]
    fn durable_save_load_round_trips_with_generations() {
        let mem = MemStorage::new();
        let store = ArtifactStore::new(mem);
        let mut a = sample_net(31);
        assert_eq!(save_weights_durable(&mut a, &store, "w.bin").unwrap(), 1);
        assert_eq!(save_weights_durable(&mut a, &store, "w.bin").unwrap(), 2);
        let mut b = sample_net(32);
        let info = load_weights_durable(&mut b, &store, "w.bin").unwrap();
        assert_eq!(info, DurableWeights { generation: 2, verified: true, salvaged: None });
        assert_eq!(a, b);
    }

    #[test]
    fn durable_load_salvages_previous_generation_from_a_torn_primary() {
        let mem = MemStorage::new();
        let store = ArtifactStore::new(mem.clone());
        let mut a = sample_net(41);
        save_weights_durable(&mut a, &store, "w.bin").unwrap();
        save_weights_durable(&mut a, &store, "w.bin").unwrap();
        let full = mem.read("w.bin").unwrap();
        mem.put("w.bin", full[..full.len() / 2].to_vec());
        let mut b = sample_net(42);
        let info = load_weights_durable(&mut b, &store, "w.bin").unwrap();
        assert_eq!(info.generation, 1);
        assert!(info.verified);
        assert!(info.salvaged.is_some());
        assert_eq!(a, b);
    }

    #[test]
    fn durable_load_accepts_legacy_bare_drqw_files() {
        let mem = MemStorage::new();
        let mut a = sample_net(51);
        let mut bytes = Vec::new();
        save_weights(&mut a, &mut bytes).unwrap();
        mem.put("w.bin", bytes); // written before the store existed
        let store = ArtifactStore::new(mem);
        let mut b = sample_net(52);
        let info = load_weights_durable(&mut b, &store, "w.bin").unwrap();
        assert_eq!(info, DurableWeights { generation: 0, verified: true, salvaged: None });
        assert_eq!(a, b);
    }

    #[test]
    fn durable_load_maps_store_errors_onto_typed_nn_errors() {
        let mem = MemStorage::new();
        let store = ArtifactStore::new(mem.clone());
        let mut net = sample_net(61);
        let err = load_weights_durable(&mut net, &store, "none.bin").unwrap_err();
        assert!(matches!(err, NnError::Io(_)), "{err:?}");
        // Corrupt both generations: typed CorruptCheckpoint, not a panic.
        save_weights_durable(&mut net, &store, "w.bin").unwrap();
        save_weights_durable(&mut net, &store, "w.bin").unwrap();
        for p in ["w.bin", "w.bin.prev"] {
            let full = mem.read(p).unwrap();
            mem.put(p, full[..20].to_vec());
        }
        let err = load_weights_durable(&mut net, &store, "w.bin").unwrap_err();
        assert!(matches!(err, NnError::CorruptCheckpoint { .. }), "{err:?}");
    }
}
