//! The single place the benchmark calls into mixq's inference API.
//!
//! Every timed walk, reference walk, warm-up, recorded ledger walk and
//! traced replay goes through a [`Walker`]. When the library folds its
//! entry points (`infer_pooled`/`infer_batch`, `run_with_arena`), trims
//! `IntNetwork`'s methods or gates or deletes the intra-walk thread pool,
//! only this file has to follow.

use std::sync::Arc;

use mixq_core::convert::IntNetwork;
use mixq_kernels::{ActivationArena, LayerRun, OpCounts, QActivation, ThreadPool};
use mixq_tensor::Tensor;

/// A caller-owned inference context: the reusable activation arena (with
/// the workload's intra-walk pool attached) and the logits buffer.
pub struct Walker {
    arena: ActivationArena,
    logits: Vec<i32>,
    ops: OpCounts,
}

impl Walker {
    /// A walker whose walks split work across `threads` threads; `1`
    /// walks serially.
    pub fn new(threads: usize) -> Self {
        let mut arena = ActivationArena::new();
        if threads > 1 {
            arena.set_pool(Arc::new(ThreadPool::new(threads)));
        }
        Walker {
            arena,
            logits: Vec::new(),
            ops: OpCounts::default(),
        }
    }

    /// Quantizes items `start..start + batch` of `images` into one batched
    /// input activation drawn from the arena.
    pub fn quantize(
        &mut self,
        net: &IntNetwork,
        images: &Tensor<f32>,
        start: usize,
        batch: usize,
    ) -> QActivation {
        net.quantize_input_items_pooled(images, start, batch, &mut self.arena)
    }

    /// One graph walk over items `start..start + batch` of `images`;
    /// returns the `batch × classes` logits in row-major order.
    pub fn infer(
        &mut self,
        net: &IntNetwork,
        images: &Tensor<f32>,
        start: usize,
        batch: usize,
    ) -> &[i32] {
        let x = self.quantize(net, images, start, batch);
        net.graph()
            .infer_batch(x, &mut self.arena, &mut self.logits, &mut self.ops);
        &self.logits
    }

    /// One recorded walk over items `start..start + batch`: the per-node
    /// `LayerRun` ledger (op counts, bytes, kernel choice).
    pub fn layer_runs(
        &mut self,
        net: &IntNetwork,
        images: &Tensor<f32>,
        start: usize,
        batch: usize,
    ) -> Vec<LayerRun> {
        let x = self.quantize(net, images, start, batch);
        net.graph().run_with_arena(x, &mut self.arena).layers
    }

    /// The warmed arena, for the traced replay's node-by-node walk.
    pub fn arena_mut(&mut self) -> &mut ActivationArena {
        &mut self.arena
    }

    /// Bytes the arena holds after its walks so far.
    pub fn arena_bytes(&self) -> usize {
        self.arena.capacity_bytes()
    }
}
