//! Corrupt checkpoints fail cleanly: truncated or bit-flipped model files
//! either load into an engine that still answers a query with `out_dim`
//! values, or return an error. They never panic, and never make the load
//! allocate more than the file's own size beyond what the intact file
//! costs (times the claimed depth over the saved one, for a resealed file
//! that loads).
//!
//! For every plan backbone, a small checkpoint is cut at every byte
//! offset of its header and at a spread of offsets through its
//! parameters, then hit with seeded single-bit and single-byte flips
//! (half of them aimed at the header, where the sizes and names live).
//! The trailing checksum rejects every one of those, so each flip is also
//! tried resealed (its checksum recomputed), which is what reaches the
//! checks behind the checksum. Each input goes through
//! `ModelCheckpoint::read` → `restore` → `ServeEngine::from_checkpoint` →
//! `serve_batch(&[0])`.

use skipnode_graph::Graph;
use skipnode_nn::models::BACKBONE_NAMES;
use skipnode_nn::{BackboneSpec, ModelCheckpoint};
use skipnode_serve::{ServeEngine, ServeMode};
use skipnode_tensor::SplitRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

const IN_DIM: usize = 10;
const HIDDEN: usize = 12;
const CLASSES: usize = 4;
const DEPTH: usize = 4;
/// Seeded flips per backbone: this many bit flips and as many byte flips.
const FLIPS: usize = 300;
/// Offsets through the parameter block cut per backbone.
const BODY_CUTS: usize = 32;

/// Counts live heap bytes and their high-water mark, so each load can be
/// checked against the size of its file.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's `GlobalAlloc` obligations pass straight through and `System`
// upholds the allocator's; the counters only add and subtract sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The counters are process-wide, so the tests that read them take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A connected graph with deterministic features.
fn graph() -> Graph {
    let n = 30;
    let mut rng = SplitRng::new(3);
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for _ in 0..40 {
        edges.push((rng.below(n), rng.below(n)));
    }
    edges.retain(|&(u, v)| u != v);
    let features = rng.uniform_matrix(n, IN_DIM, -1.0, 1.0);
    let labels = (0..n).map(|i| i % CLASSES).collect();
    Graph::new(n, edges, features, labels, CLASSES)
}

/// The saved bytes of a freshly initialized `name` model, and where its
/// header ends: magic, version, name, four dimensions, dropout and the
/// parameter count.
fn saved(name: &str) -> (Vec<u8>, usize) {
    let spec = BackboneSpec::new(name, IN_DIM, HIDDEN, CLASSES, DEPTH, 0.3);
    let model = spec.build(&mut SplitRng::new(17)).expect("plan backbone");
    let mut bytes = Vec::new();
    ModelCheckpoint::capture(&spec, model.as_ref())
        .write(&mut bytes)
        .expect("writes to memory");
    let header = 4 + 4 + 4 + name.len() + 4 * 4 + 8 + 4;
    (bytes, header)
}

/// Recompute the trailing FNV-1a-64 checksum of an edited file, as anyone
/// crafting a file can, so the edit gets past `ModelCheckpoint::read`'s
/// checksum to the checks behind it.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let hash = bytes[..body]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    bytes[body..].copy_from_slice(&hash.to_le_bytes());
}

/// What one load did: `Ok(Some(values))` when an engine answered,
/// `Ok(None)` when the file was rejected, `Err` on a panic; plus the
/// heap bytes the load needed at its peak.
fn load(bytes: &[u8], graph: &Graph) -> (Result<Option<usize>, String>, usize) {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let Ok(ckpt) = ModelCheckpoint::read(bytes) else {
            return None;
        };
        ckpt.restore().ok()?;
        let mut engine = ServeEngine::from_checkpoint(&ckpt, graph, ServeMode::F32).ok()?;
        let out = engine.serve_batch(&[0]);
        assert_eq!(out.rows(), 1, "one query, one row");
        assert_eq!(out.cols(), engine.out_dim(), "a row holds out_dim values");
        Some(out.as_slice().len())
    }))
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    });
    (outcome, PEAK.load(Relaxed).saturating_sub(start))
}

/// The heap bytes an intact file's load needs at its peak. The first load
/// warms lazily built state (the kernel pool, the workspace free-lists);
/// the second is measured.
fn intact_cost(name: &str, bytes: &[u8], graph: &Graph) -> usize {
    let mut peak = 0;
    for _ in 0..2 {
        let outcome;
        (outcome, peak) = load(bytes, graph);
        assert_eq!(
            outcome,
            Ok(Some(CLASSES)),
            "{name}: the intact checkpoint must serve"
        );
    }
    peak
}

/// One corrupt input: what was done to the file, its bytes, and whether
/// its checksum was recomputed after the edit.
struct Case {
    what: String,
    bytes: Vec<u8>,
    resealed: bool,
}

/// The seeded corruptions of one file: header cuts, body cuts, then bit
/// and byte flips, each flip before the checksum also resealed.
fn corruptions(bytes: &[u8], header: usize, rng: &mut SplitRng) -> Vec<Case> {
    let mut cases = Vec::new();
    let body = bytes.len() - header;
    let cuts = (0..header).chain((0..BODY_CUTS).map(|i| header + i * body / BODY_CUTS));
    for cut in cuts {
        cases.push(Case {
            what: format!("cut at {cut}"),
            bytes: bytes[..cut].to_vec(),
            resealed: false,
        });
    }
    for i in 0..2 * FLIPS {
        // Even cases aim at the header, odd ones anywhere in the file.
        let at = if i % 2 == 0 {
            rng.below(header)
        } else {
            rng.below(bytes.len())
        };
        let mut flipped = bytes.to_vec();
        let what = if i < FLIPS {
            let bit = rng.below(8);
            flipped[at] ^= 1 << bit;
            format!("bit {bit} of byte {at} flipped")
        } else {
            let value = rng.below(256) as u8;
            flipped[at] = value;
            format!("byte {at} set to {value:#04x}")
        };
        if flipped == bytes {
            continue;
        }
        // Resealing a flip inside the checksum gives back the intact file.
        if at < bytes.len() - 8 {
            let mut resealed = flipped.clone();
            reseal(&mut resealed);
            cases.push(Case {
                what: format!("{what}, resealed"),
                bytes: resealed,
                resealed: true,
            });
        }
        cases.push(Case {
            what,
            bytes: flipped,
            resealed: false,
        });
    }
    cases
}

#[test]
fn corrupt_checkpoints_are_rejected_or_serve_without_panicking() {
    let _serial = serial();
    let graph = graph();
    let mut rng = SplitRng::new(0xf022);
    let mut failures = Vec::new();
    for name in BACKBONE_NAMES {
        let (bytes, header) = saved(name);
        let baseline = intact_cost(name, &bytes, &graph);
        for Case {
            what,
            bytes: input,
            resealed,
        } in corruptions(&bytes, header, &mut rng)
        {
            let (outcome, peak) = load(&input, &graph);
            // A resealed file that loads holds every parameter of the model
            // its header describes, and `restore` bounds a depth only by
            // their count; that depth sizes the plan, so for APPNP, GRAND
            // and SGC a deeper claim legitimately costs more. Every other
            // input is held to the intact file's own cost.
            let scale = match (&outcome, ModelCheckpoint::read(&input[..])) {
                (Ok(Some(_)), Ok(ckpt)) if resealed => ckpt.spec.depth.max(DEPTH).div_ceil(DEPTH),
                _ => 1,
            };
            if let Err(panic) = outcome {
                failures.push(format!("{name}, {what}: panicked: {panic}"));
            } else if !resealed && outcome != Ok(None) {
                failures.push(format!("{name}, {what}: loaded past the checksum"));
            } else if peak > baseline * scale + bytes.len() {
                failures.push(format!(
                    "{name}, {what}: needed {peak} heap bytes, intact {baseline}, file {}",
                    bytes.len()
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Inputs the fuzz loop once caught allocating for a header's claim
/// before the claim was checked against the file, or loading a model the
/// file did not hold.
#[test]
fn header_claims_cost_no_more_than_the_file() {
    let _serial = serial();
    let graph = graph();
    // (backbone, byte, new value, resealed): a backbone-name length of
    // 3 + 2^18 (read in full before the bytes arrived; the parser stops
    // before the checksum); an InceptGCN depth of 4 + 2^10, resealed so it
    // reaches `restore` (its parameter-shape list was built for every
    // claimed layer); and an APPNP depth of 0xa8 = 168, which its 184 saved
    // values allowed, so the file loaded and served a 168-step plan until
    // the checksum.
    for (name, at, value, resealed) in [
        ("gcn", 10, 0x04, false),
        ("inceptgcn", 34, 0x04, true),
        ("appnp", 29, 0xa8, false),
    ] {
        let (bytes, _) = saved(name);
        let baseline = intact_cost(name, &bytes, &graph);
        let mut input = bytes.clone();
        input[at] = value;
        if resealed {
            reseal(&mut input);
            let ckpt = ModelCheckpoint::read(&input[..]).expect("resealed header parses");
            assert_eq!(ckpt.spec.depth, 4 + (1 << 10), "{name}: the depth byte");
        }
        let (outcome, peak) = load(&input, &graph);
        assert_eq!(
            outcome,
            Ok(None),
            "{name}: the corrupt file must be rejected"
        );
        assert!(
            peak <= baseline + bytes.len(),
            "{name}: needed {peak} heap bytes, intact {baseline}, file {}",
            bytes.len()
        );
    }
}
