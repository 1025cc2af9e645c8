//! Persistent parameter storage.
//!
//! Parameters outlive the per-epoch [`Tape`]: each forward pass *binds*
//! the store onto a fresh tape (copying values in as trainable leaves) and
//! the optimizer reads gradients back out by [`ParamId`].

use skipnode_autograd::{NodeId, Tape};
use skipnode_tensor::{glorot_uniform, workspace, Matrix, SplitRng};

/// Handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

struct Param {
    name: String,
    value: Matrix,
}

/// Named trainable parameters for one model.
#[derive(Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let id = ParamId(self.params.len());
        self.params.push(Param {
            name: name.into(),
            value,
        });
        id
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn scalar_count(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Parameter value.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// Mutable parameter value (optimizer update path).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0].value
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// All ids in registration order.
    pub fn ids(&self) -> Vec<ParamId> {
        (0..self.params.len()).map(ParamId).collect()
    }

    /// All values in registration order — the order [`ParamStore::bind`]
    /// copies them onto a tape, and the order
    /// [`skipnode_autograd::TrainProgram::load_params`] expects.
    pub fn values(&self) -> impl Iterator<Item = &Matrix> {
        self.params.iter().map(|p| &p.value)
    }

    /// Sum of squared L2 norms of all parameters — the Σ‖W‖₂² statistic the
    /// Figure 2(c) weight-over-decay diagnostic tracks.
    pub fn total_l2_norm_sq(&self) -> f64 {
        self.params
            .iter()
            .map(|p| skipnode_tensor::l2_norm_sq(&p.value))
            .sum()
    }

    /// Copy every parameter onto a tape as a trainable leaf.
    pub fn bind(&self, tape: &mut Tape) -> Binding {
        Binding {
            nodes: self
                .params
                .iter()
                .map(|p| tape.param(workspace::take_copy(&p.value)))
                .collect(),
        }
    }
}

/// Glorot layer registration, deduplicating the per-model `w`/`b` dance.
///
/// Every backbone used to repeat
/// `store.add(name_w, glorot_uniform(fi, fo, rng)); store.add(name_b,
/// Matrix::zeros(1, fo))` by hand. `LayerInit` wraps one store and one
/// RNG so constructors register layers in a single call — with the exact
/// same parameter names and RNG draw order as before (one Glorot draw per
/// weight, in registration order), so checkpoints and seeded inits stay
/// byte-compatible.
pub struct LayerInit<'a> {
    store: &'a mut ParamStore,
    rng: &'a mut SplitRng,
}

impl<'a> LayerInit<'a> {
    /// Wrap a store and the initialization RNG.
    pub fn new(store: &'a mut ParamStore, rng: &'a mut SplitRng) -> Self {
        Self { store, rng }
    }

    /// Register a Glorot-initialized `fi × fo` weight plus its zero
    /// `1 × fo` bias.
    pub fn linear(
        &mut self,
        w_name: impl Into<String>,
        b_name: impl Into<String>,
        fi: usize,
        fo: usize,
    ) -> (ParamId, ParamId) {
        let w = self.weight(w_name, fi, fo);
        let b = self.store.add(b_name, Matrix::zeros(1, fo));
        (w, b)
    }

    /// Register a bias-free Glorot-initialized `fi × fo` weight (GCNII's
    /// middle blocks).
    pub fn weight(&mut self, name: impl Into<String>, fi: usize, fo: usize) -> ParamId {
        self.store.add(name, glorot_uniform(fi, fo, self.rng))
    }
}

/// The tape nodes a [`ParamStore`] was bound to for one forward pass.
pub struct Binding {
    nodes: Vec<NodeId>,
}

impl Binding {
    /// Tape node for a parameter.
    pub fn node(&self, id: ParamId) -> NodeId {
        self.nodes[id.0]
    }

    /// All bound nodes in registration order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read_back() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::eye(2));
        assert_eq!(store.value(w), &Matrix::eye(2));
        assert_eq!(store.name(w), "w");
        assert_eq!(store.len(), 1);
        assert_eq!(store.scalar_count(), 4);
    }

    #[test]
    fn total_norm_tracks_values() {
        let mut store = ParamStore::new();
        store.add("a", Matrix::from_rows(&[&[3.0]]));
        store.add("b", Matrix::from_rows(&[&[4.0]]));
        assert_eq!(store.total_l2_norm_sq(), 25.0);
    }

    #[test]
    fn bind_copies_values_onto_tape() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_rows(&[&[1.5, -2.0]]));
        let mut tape = Tape::new();
        let binding = store.bind(&mut tape);
        assert_eq!(tape.value(binding.node(w)), store.value(w));
        assert!(tape.requires_grad(binding.node(w)));
    }
}
