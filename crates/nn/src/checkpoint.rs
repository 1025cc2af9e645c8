//! Parameter and model checkpointing: a tiny self-describing binary
//! format for saving and restoring a [`ParamStore`], so trained models
//! survive process restarts (and experiment binaries can hand models to
//! each other).
//!
//! Two versions share the magic and the parameter block:
//!
//! ```text
//! v1 (params only):
//! magic "SKPN" | version=1 u32 | param_count u32 |
//!   per param: name_len u32 | name utf8 | rows u32 | cols u32 | f32 * rows*cols
//!
//! v2 (model checkpoint = backbone spec + params):
//! magic "SKPN" | version=2 u32 |
//!   spec: name_len u32 | name utf8 | in_dim u32 | hidden u32 | out_dim u32
//!       | depth u32 | dropout f64 |
//!   param block as in v1
//! ```
//!
//! All integers and floats are little-endian. [`ModelCheckpoint`] is the
//! v2 surface: it captures a trained model together with the
//! [`BackboneSpec`] needed to rebuild it, and [`ModelCheckpoint::restore`]
//! rebuilds the architecture and overwrites every freshly initialized
//! parameter with the saved bytes — evaluation after a round trip is
//! bitwise identical to the captured model.

use crate::models::{BackboneSpec, Model};
use crate::param::ParamStore;
use skipnode_tensor::{Matrix, SplitRng};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"SKPN";
const VERSION: u32 = 1;
const MODEL_VERSION: u32 = 2;

/// Serialize the store to any writer.
pub fn write_checkpoint<W: Write>(store: &ParamStore, mut w: W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    write_params(store, &mut w)
}

/// Deserialize a store from any reader.
pub fn read_checkpoint<R: Read>(mut r: R) -> io::Result<ParamStore> {
    expect_version(&mut r, VERSION)?;
    read_params(&mut r)
}

/// The parameter block shared by both format versions.
fn write_params<W: Write>(store: &ParamStore, w: &mut W) -> io::Result<()> {
    w.write_all(&(store.len() as u32).to_le_bytes())?;
    for id in store.ids() {
        write_str(w, store.name(id))?;
        let m = store.value(id);
        w.write_all(&(m.rows() as u32).to_le_bytes())?;
        w.write_all(&(m.cols() as u32).to_le_bytes())?;
        for &v in m.as_slice() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

fn read_params<R: Read>(r: &mut R) -> io::Result<ParamStore> {
    let count = read_u32(r)? as usize;
    let mut store = ParamStore::new();
    for _ in 0..count {
        let name = read_str(r)?;
        let rows = read_u32(r)? as usize;
        let cols = read_u32(r)? as usize;
        let len = rows
            .checked_mul(cols)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "shape overflow"))?;
        // The header is untrusted: grow the buffer only as bytes arrive, so
        // a truncated file claiming a huge shape fails with `UnexpectedEof`
        // instead of allocating for the claim up front.
        let mut data = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut remaining = len;
        while remaining > 0 {
            let n = remaining.min(chunk.len() / 4);
            let bytes = &mut chunk[..n * 4];
            r.read_exact(bytes)?;
            data.extend(
                bytes
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
            );
            remaining -= n;
        }
        store.add(name, Matrix::from_vec(rows, cols, data));
    }
    Ok(store)
}

/// Check the magic and that the version field equals `want`.
fn expect_version<R: Read>(r: &mut R, want: u32) -> io::Result<()> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let version = read_u32(r)?;
    if version != want {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported checkpoint version {version} (expected {want})"),
        ));
    }
    Ok(())
}

fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    w.write_all(&(s.len() as u32).to_le_bytes())?;
    w.write_all(s.as_bytes())
}

fn read_str<R: Read>(r: &mut R) -> io::Result<String> {
    let len = read_u32(r)? as usize;
    if len > 1 << 20 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "name too long"));
    }
    // Like the parameter data, a name grows only as its bytes arrive: a
    // corrupt length field costs no more than the bytes the file holds.
    let mut buf = Vec::new();
    r.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() != len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    String::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// A trained model captured for serving: the [`BackboneSpec`] that rebuilds
/// the architecture plus every trained parameter.
pub struct ModelCheckpoint {
    /// Architecture recipe (name, dims, depth, dropout).
    pub spec: BackboneSpec,
    /// Trained parameters in registration order.
    pub params: ParamStore,
}

impl ModelCheckpoint {
    /// Capture a model's current parameters alongside its spec.
    pub fn capture(spec: &BackboneSpec, model: &dyn Model) -> Self {
        let store = model.store();
        let mut params = ParamStore::new();
        for id in store.ids() {
            params.add(store.name(id).to_string(), store.value(id).clone());
        }
        Self {
            spec: spec.clone(),
            params,
        }
    }

    /// Rebuild the backbone from the spec and overwrite its fresh
    /// initialization with the saved parameters. Names and shapes must
    /// match the rebuilt store exactly — a mismatch means the checkpoint
    /// does not belong to this spec and is rejected as corrupt.
    ///
    /// The spec is checked against the saved parameters before anything is
    /// built, so a corrupt header cannot make the rebuild allocate more
    /// than the parameters the checkpoint holds: the depth may not exceed
    /// the number of saved values (a propagation-only backbone's depth
    /// sizes only its plan), and the shapes the spec builds must be exactly
    /// the saved shapes.
    pub fn restore(&self) -> io::Result<Box<dyn Model>> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let saved: Vec<(usize, usize)> = self
            .params
            .ids()
            .into_iter()
            .map(|id| self.params.value(id).shape())
            .collect();
        let values: usize = saved.iter().map(|&(r, c)| r * c).sum();
        if self.spec.depth > values {
            return Err(invalid(format!(
                "checkpoint header depth {} exceeds its {values} parameter values",
                self.spec.depth
            )));
        }
        let want = self
            .spec
            .param_shapes(saved.len())
            .map_err(|e| invalid(e.to_string()))?;
        if want != saved {
            return Err(invalid(format!(
                "checkpoint header ({:?}, in {}, hidden {}, out {}, depth {}) does not \
                 match the shapes of its {} parameters",
                self.spec.name,
                self.spec.in_dim,
                self.spec.hidden,
                self.spec.out_dim,
                self.spec.depth,
                saved.len()
            )));
        }
        // Initialization draws are discarded (every value is overwritten),
        // so the rebuild seed is immaterial.
        let mut rng = SplitRng::new(0);
        let mut model = self
            .spec
            .build(&mut rng)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let store = model.store_mut();
        if store.len() != self.params.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint has {} params, rebuilt {:?} has {}",
                    self.params.len(),
                    self.spec.name,
                    store.len()
                ),
            ));
        }
        for (dst, src) in store.ids().into_iter().zip(self.params.ids()) {
            let (dn, sn) = (store.name(dst), self.params.name(src));
            if dn != sn {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("param name mismatch: checkpoint {sn:?} vs rebuilt {dn:?}"),
                ));
            }
            let sv = self.params.value(src);
            if store.value(dst).shape() != sv.shape() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("param {sn:?} shape mismatch"),
                ));
            }
            *store.value_mut(dst) = sv.clone();
        }
        Ok(model)
    }

    /// Serialize (format v2) to any writer.
    pub fn write<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&MODEL_VERSION.to_le_bytes())?;
        write_str(&mut w, &self.spec.name)?;
        for dim in [
            self.spec.in_dim,
            self.spec.hidden,
            self.spec.out_dim,
            self.spec.depth,
        ] {
            w.write_all(&(dim as u32).to_le_bytes())?;
        }
        w.write_all(&self.spec.dropout.to_le_bytes())?;
        write_params(&self.params, &mut w)
    }

    /// Deserialize (format v2) from any reader.
    pub fn read<R: Read>(mut r: R) -> io::Result<Self> {
        expect_version(&mut r, MODEL_VERSION)?;
        let name = read_str(&mut r)?;
        let in_dim = read_u32(&mut r)? as usize;
        let hidden = read_u32(&mut r)? as usize;
        let out_dim = read_u32(&mut r)? as usize;
        let depth = read_u32(&mut r)? as usize;
        let mut buf = [0u8; 8];
        r.read_exact(&mut buf)?;
        let dropout = f64::from_le_bytes(buf);
        let spec = BackboneSpec::new(&name, in_dim, hidden, out_dim, depth, dropout);
        let params = read_params(&mut r)?;
        Ok(Self { spec, params })
    }

    /// Save to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let f = std::fs::File::create(path)?;
        self.write(io::BufWriter::new(f))
    }

    /// Load from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let f = std::fs::File::open(path)?;
        Self::read(io::BufReader::new(f))
    }
}

/// Save a store to a file.
pub fn save_checkpoint(store: &ParamStore, path: impl AsRef<Path>) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_checkpoint(store, io::BufWriter::new(f))
}

/// Load a store from a file.
pub fn load_checkpoint(path: impl AsRef<Path>) -> io::Result<ParamStore> {
    let f = std::fs::File::open(path)?;
    read_checkpoint(io::BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipnode_tensor::SplitRng;

    fn sample_store() -> ParamStore {
        let mut rng = SplitRng::new(5);
        let mut store = ParamStore::new();
        store.add("w0", rng.uniform_matrix(3, 4, -1.0, 1.0));
        store.add("b0", Matrix::zeros(1, 4));
        store.add("gamma", rng.uniform_matrix(1, 11, 0.0, 1.0));
        store
    }

    #[test]
    fn round_trip_preserves_everything() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_checkpoint(&store, &mut buf).unwrap();
        let loaded = read_checkpoint(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), store.len());
        for (a, b) in store.ids().into_iter().zip(loaded.ids()) {
            assert_eq!(store.name(a), loaded.name(b));
            assert_eq!(store.value(a), loaded.value(b));
        }
    }

    #[test]
    fn file_round_trip() {
        let store = sample_store();
        let path = std::env::temp_dir().join("skipnode_ckpt_test.skpn");
        save_checkpoint(&store, &path).unwrap();
        let loaded = load_checkpoint(&path).unwrap();
        assert_eq!(loaded.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"XXXX\x01\x00\x00\x00\x00\x00\x00\x00";
        assert!(read_checkpoint(&buf[..]).is_err());
    }

    #[test]
    fn truncated_stream_rejected() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_checkpoint(&store, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(read_checkpoint(buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_header_claiming_a_huge_shape_fails_without_allocating() {
        // 30 bytes: one 65535×65535 param (16 GiB of f32) with one value.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(b"w0");
        buf.extend_from_slice(&65535u32.to_le_bytes());
        buf.extend_from_slice(&65535u32.to_le_bytes());
        buf.extend_from_slice(&1.5f32.to_le_bytes());
        assert_eq!(buf.len(), 30);
        let err = read_checkpoint(buf.as_slice()).err().expect("must fail");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(read_checkpoint(buf.as_slice()).is_err());
    }

    /// Ring graph + deterministic features for the model round trips.
    fn eval_graph(in_dim: usize, classes: usize) -> skipnode_graph::Graph {
        let n = 24;
        let mut rng = SplitRng::new(9);
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let features = rng.uniform_matrix(n, in_dim, -1.0, 1.0);
        let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
        skipnode_graph::Graph::new(n, edges, features, labels, classes)
    }

    #[test]
    fn model_checkpoint_round_trip_eval_is_bitwise_identical() {
        use crate::context::Strategy;
        use crate::trainer::evaluate;
        for name in ["gcn", "gcnii", "appnp"] {
            let spec = BackboneSpec::new(name, 6, 8, 3, 3, 0.1);
            let mut rng = SplitRng::new(31);
            let model = spec.build(&mut rng).unwrap();
            let graph = eval_graph(6, 3);
            let adj = graph.gcn_adjacency();

            let ckpt = ModelCheckpoint::capture(&spec, model.as_ref());
            let mut buf = Vec::new();
            ckpt.write(&mut buf).unwrap();
            let loaded = ModelCheckpoint::read(buf.as_slice()).unwrap();
            assert_eq!(loaded.spec.name, spec.name);
            assert_eq!(loaded.spec.depth, spec.depth);
            assert_eq!(loaded.spec.dropout, spec.dropout);
            let restored = loaded.restore().unwrap();

            let (want, _) = evaluate(
                model.as_ref(),
                &graph,
                &adj,
                &Strategy::None,
                &mut SplitRng::new(1),
            );
            let (got, _) = evaluate(
                restored.as_ref(),
                &graph,
                &adj,
                &Strategy::None,
                &mut SplitRng::new(1),
            );
            assert_eq!(
                want.as_slice(),
                got.as_slice(),
                "{name}: restored eval differs"
            );
        }
    }

    #[test]
    fn param_shapes_list_what_build_registers() {
        for name in crate::models::BACKBONE_NAMES {
            for depth in [0, 1, 2, 3, 5, 8] {
                let spec = BackboneSpec::new(name, 7, 5, 3, depth, 0.0);
                let model = spec.build(&mut SplitRng::new(1)).unwrap();
                let store = model.store();
                let built: Vec<_> = store
                    .ids()
                    .into_iter()
                    .map(|id| store.value(id).shape())
                    .collect();
                assert_eq!(
                    spec.param_shapes(usize::MAX).unwrap(),
                    built,
                    "{name} depth {depth}"
                );
            }
        }
    }

    /// Each spec field of a v2 header, corrupted, is rejected as invalid
    /// data before the model is rebuilt. The corrupt values stay small, so
    /// even a rebuild from them would allocate little.
    #[test]
    fn corrupt_header_fields_are_rejected_before_building() {
        let spec = BackboneSpec::new("gcn", 6, 8, 3, 3, 0.1);
        let model = spec.build(&mut SplitRng::new(2)).unwrap();
        let mut buf = Vec::new();
        ModelCheckpoint::capture(&spec, model.as_ref())
            .write(&mut buf)
            .unwrap();
        // magic, version, name length, "gcn", then in/hidden/out/depth.
        let field_at = 4 + 4 + 4 + 3;
        for (k, field) in ["in_dim", "hidden", "out_dim", "depth"].iter().enumerate() {
            for value in [1u32, 9, 1_000] {
                let mut bad = buf.clone();
                let at = field_at + 4 * k;
                bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
                let ckpt = ModelCheckpoint::read(bad.as_slice()).unwrap();
                let err = ckpt.restore().err().expect("corrupt header restored");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{field} = {value}");
                let msg = err.to_string();
                assert!(
                    msg.contains("checkpoint header"),
                    "{field} = {value} was not caught by the header check: {msg}"
                );
            }
        }
    }

    #[test]
    fn model_checkpoint_file_round_trip_and_mismatch_rejection() {
        let spec = BackboneSpec::new("sgc", 5, 4, 2, 2, 0.0);
        let mut rng = SplitRng::new(7);
        let model = spec.build(&mut rng).unwrap();
        let ckpt = ModelCheckpoint::capture(&spec, model.as_ref());
        let path = std::env::temp_dir().join("skipnode_model_ckpt_test.skpn");
        ckpt.save(&path).unwrap();
        let loaded = ModelCheckpoint::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(loaded.restore().is_ok());

        // A spec that rebuilds different shapes must be rejected.
        let lying = ModelCheckpoint {
            spec: BackboneSpec::new("sgc", 9, 4, 2, 2, 0.0),
            params: loaded.params,
        };
        assert!(lying.restore().is_err());

        // v1 readers must reject v2 streams and vice versa.
        let mut buf = Vec::new();
        ckpt.write(&mut buf).unwrap();
        assert!(read_checkpoint(buf.as_slice()).is_err());
        let mut v1 = Vec::new();
        write_checkpoint(&ckpt.params, &mut v1).unwrap();
        assert!(ModelCheckpoint::read(v1.as_slice()).is_err());
    }
}
