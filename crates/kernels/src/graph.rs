//! The layer-graph executor: a uniform [`QOp`] abstraction over the
//! integer kernels and a [`QGraph`] **DAG** that runs any topology of them
//! — the deployment graph `g'(x)` of §4 as an executable object rather
//! than a hardcoded conv-stack.
//!
//! Nodes reference explicit input *tensor ids* (id 0 is the graph input,
//! id `k + 1` the output of node `k`), so residual branches — the
//! [`QAdd`]-joined skips MobileNetV2-style bottlenecks need — are first
//! class: [`QGraph::push`] keeps the familiar chain behaviour, while
//! [`QGraph::push_node`] wires arbitrary predecessors.
//!
//! The executor owns an [`ActivationArena`]: a liveness-planned buffer
//! pool. The node order is already a topological schedule (inputs must be
//! defined before use), per-tensor live ranges follow from each tensor's
//! last consumer, and packed activation storage is recycled the moment a
//! tensor dies. [`QGraph::peak_ram_bytes`] reports the true multi-branch
//! high-water mark of that schedule per Eq. 7 — for a chain it degenerates
//! to the classic input+output pair, for a residual graph it prices the
//! extra live skip tensor; [`GraphRun::peak_live_bytes`] is the measured
//! twin recorded by the executor.
//!
//! The executor has **one schedule loop** and every node runs through one
//! dispatch point, [`QOp::execute_kernel`]. [`QGraph::infer_batch`] runs
//! the loop with recording off — the allocation-free steady-state path,
//! with the classifier head writing its logits straight into the caller's
//! buffer. [`QGraph::run`] and [`QGraph::run_with_arena`] run it with a
//! recorder on: every node records a [`LayerRun`] — its [`OpCounts`]
//! ledger, activation bytes, operator class and kernel choice — which
//! cycle models (`mixq-mcu`) turn into per-layer latency breakdowns.
//!
//! Host-side execution speed is independent of that model: blocked-GEMM
//! and depthwise nodes multiply-accumulate through the runtime-dispatched
//! primitives in [`crate::simd`] (the blocked GEMM, `dw_taps`), and they and the
//! [`QAdd`] nodes requantize their accumulators
//! through the vectorized epilogue in [`crate::simd::requant`] (and
//! sub-byte activations pack/unpack through the SIMD kernels in
//! `mixq_quant::packing`), while codes **and** ledger stay bit-identical
//! to the scalar reference at every [`crate::simd::SimdLevel`].
//!
//! # Examples
//!
//! ```
//! use mixq_kernels::{OpCounts, QActivation, QAvgPool, QConv2d, QConvWeights, QGraph,
//!                    Requantizer, WeightOffset};
//! use mixq_quant::{BitWidth, FixedPointMultiplier};
//! use mixq_tensor::{ConvGeometry, Shape};
//!
//! let w = QConvWeights::new(Shape::new(1, 1, 1, 1), false, &[2], BitWidth::W4,
//!                           WeightOffset::PerLayer(0));
//! let requant = Requantizer::icn(vec![0], vec![FixedPointMultiplier::from_real(1.0)],
//!                                0, BitWidth::W8);
//! let mut graph = QGraph::new();
//! graph.push("pw", QConv2d::new(w, ConvGeometry::pointwise(), requant));
//! graph.push("pool", QAvgPool);
//!
//! let x = QActivation::from_codes(Shape::feature_map(1, 1, 1), &[3], BitWidth::W8, 0);
//! let run = graph.run(x);
//! assert_eq!(run.output.as_ref().unwrap().codes(), vec![6]); // 3 × 2
//! assert_eq!(run.layers.len(), 2);
//! assert_eq!(run.total_ops().macs, 1);
//! ```
//!
//! A residual branch joined by a requantizing add:
//!
//! ```
//! use mixq_kernels::{QActivation, QAdd, QGraph};
//! use mixq_quant::BitWidth;
//! use mixq_tensor::Shape;
//!
//! let mut graph = QGraph::new();
//! // Identity add of the input with itself: ids [0, 0].
//! graph.push_node("res", QAdd::from_scales(1.0, 1.0, 1.0, 0, 0, 0, BitWidth::W8), &[0, 0]);
//! let x = QActivation::from_codes(Shape::feature_map(1, 1, 1), &[5], BitWidth::W8, 0);
//! assert_eq!(graph.run(x).output.unwrap().codes(), vec![10]);
//! ```

use std::mem;
use std::sync::Arc;

use mixq_quant::BitWidth;
use mixq_tensor::Shape;

use crate::backend::{Backend, KernelChoice};
use crate::blocked::{im2col_scratch_bytes, PackedPanels};
use crate::threadpool::ThreadPool;
use crate::{OpCounts, QActivation, QAdd, QAvgPool, QConv2d, QLinear};

/// A node's prepacked weight operand, built **once** when the node's
/// kernel choice is resolved and consumed by every subsequent execution
/// (and every sample of a batch) — the steady-state optimization of
/// production int8 GEMMs, where weights are immutable flash constants and
/// packing them per call is pure waste.
///
/// What gets cached follows the resolved [`KernelChoice`]:
///
/// * a [`KernelChoice::BlockedGemm`] convolution caches its interleaved
///   [`PackedPanels`] (pair-interleaved GEMV weight panels + hoisted
///   `Σ W`/zero-point tables), so the per-call panel build of the PR-4
///   kernel disappears;
/// * a direct convolution — and the classifier head — with
///   **sub-byte** weights caches the codes decoded to one per byte in
///   `(c_o, k_h, k_w, c_i)` order, so the inner loop stops mask-and-shift
///   extracting every operand (8-bit weights already read their packed
///   bytes directly and cache nothing);
/// * pooling and residual adds have no weights and cache nothing.
///
/// The artifact is read-only and weight-derived: deployment rewrites that
/// keep the weights (e.g. threshold saturation) keep it valid. Its
/// footprint is reported by [`PrepackedWeights::bytes`] — flash-side
/// accounting, never part of the Eq. 7 activation live set.
#[derive(Debug, Clone, PartialEq)]
pub enum PrepackedWeights {
    /// Interleaved blocked-GEMM panels with hoisted per-channel terms.
    Panels(PackedPanels),
    /// Weight codes decoded one-per-byte in `(c_o, k_h, k_w, c_i)` order.
    Codes(Vec<u8>),
}

impl PrepackedWeights {
    /// The decoded-code cache, if that is the cached form.
    pub fn codes(&self) -> Option<&[u8]> {
        match self {
            PrepackedWeights::Codes(c) => Some(c),
            PrepackedWeights::Panels(_) => None,
        }
    }

    /// The blocked-GEMM panel cache, if that is the cached form.
    pub fn panels(&self) -> Option<&PackedPanels> {
        match self {
            PrepackedWeights::Panels(p) => Some(p),
            PrepackedWeights::Codes(_) => None,
        }
    }

    /// Read-only footprint of the cached artifact in bytes.
    pub fn bytes(&self) -> usize {
        match self {
            PrepackedWeights::Panels(p) => p.bytes(),
            PrepackedWeights::Codes(c) => c.len(),
        }
    }
}

/// Coarse operator class of a graph node — what a cycle model needs to
/// pick the right per-MAC rate (dense convolutions stream through the
/// dual-MAC `SMLAD`; depthwise kernels have poor data reuse; the
/// fully-connected head is a single dot-product sweep; residual adds are
/// MAC-free requantization traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Standard or pointwise convolution.
    Conv,
    /// Depthwise convolution.
    DepthwiseConv,
    /// Global average pooling.
    Pool,
    /// Fully-connected classifier head.
    Linear,
    /// Requantizing residual add.
    Add,
}

impl OpKind {
    /// Short human-readable label.
    pub const fn label(self) -> &'static str {
        match self {
            OpKind::Conv => "conv",
            OpKind::DepthwiseConv => "dwconv",
            OpKind::Pool => "pool",
            OpKind::Linear => "linear",
            OpKind::Add => "add",
        }
    }
}

/// What executing one op produces: the next activation tensor, or — for a
/// terminal classifier head — the `i32` logits (which cannot be
/// represented as sub-byte codes without loss).
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutput {
    /// A quantized activation feeding the next layer.
    Act(QActivation),
    /// Terminal integer logits.
    Logits(Vec<i32>),
}

/// A single integer-inference operator, executable inside a [`QGraph`].
///
/// Ops take a slice of input activations (`arity` of them — one for the
/// kernels, two for the residual add) and produce one output. The contract
/// mirrors the deployment memory model: `flash_bytes` is the op's
/// read-only footprint (packed weights + §4.1 static parameters),
/// `output_bytes` its contribution to the Eq. 7 live set, and
/// `scratch_bytes` any transient buffer (e.g. an im2col expansion) a
/// lowered implementation would need on top of the live activations.
pub trait QOp {
    /// Operator class (for cycle models and reporting).
    fn kind(&self) -> OpKind;

    /// Number of input tensors the op consumes.
    fn arity(&self) -> usize {
        1
    }

    /// The kernel implementations this op can execute with; the first entry
    /// is the reference (direct) kernel every op supports. A [`Backend`]'s
    /// selection must come from this list.
    fn supported_kernels(&self) -> &'static [KernelChoice] {
        &[KernelChoice::DirectConv]
    }

    /// Builds the prepacked weight operand for the given kernel choice —
    /// what a [`GraphNode`] caches at selection time — together with the
    /// one-time [`OpCounts`] ledger of the packing work itself (decode
    /// unpacks, panel stores). Ops with nothing to cache return
    /// `(None, OpCounts::default())`, the default.
    fn prepack(&self, choice: KernelChoice) -> (Option<PrepackedWeights>, OpCounts) {
        let _ = choice;
        (None, OpCounts::default())
    }

    /// Runs the op with a throwaway arena, no prepack cache and the
    /// reference kernel, charging `ops`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()` (implementations index the
    /// slice directly).
    fn execute(&self, inputs: &[&QActivation], ops: &mut OpCounts) -> OpOutput {
        self.execute_kernel(
            KernelChoice::DirectConv,
            None,
            inputs,
            &mut ActivationArena::new(),
            ops,
        )
    }

    /// Runs the op with the given kernel implementation, drawing scratch
    /// and packed output storage from `arena` — the buffer-pool hook that
    /// makes steady-state inference allocation-free. This is the executor's
    /// dispatch point: each graph node passes its build-time-resolved
    /// [`KernelChoice`] and its [`PrepackedWeights`] cache here; a `None`
    /// cache falls back to per-call packing (bit-identical, just slower).
    ///
    /// # Panics
    ///
    /// Panics if the choice is not in [`QOp::supported_kernels`], the
    /// input count disagrees with the arity, or the cache was built for a
    /// different kernel choice or layer.
    fn execute_kernel(
        &self,
        choice: KernelChoice,
        cache: Option<&PrepackedWeights>,
        inputs: &[&QActivation],
        arena: &mut ActivationArena,
        ops: &mut OpCounts,
    ) -> OpOutput;

    /// Output shape for the given input shapes.
    fn output_shape(&self, inputs: &[Shape]) -> Shape;

    /// Output activation precision given the input precisions. For the
    /// classifier head the value is nominal (its real output is `i32`
    /// logits, accounted by [`QOp::output_bytes`]).
    fn out_bits(&self, in_bits: &[BitWidth]) -> BitWidth;

    /// RAM bytes of this op's output tensor (`mem(y, Q_y)` of Eq. 7).
    fn output_bytes(&self, inputs: &[Shape], in_bits: &[BitWidth]) -> usize {
        self.out_bits(in_bits)
            .bytes_for(self.output_shape(inputs).volume())
    }

    /// Flash bytes of the op: packed weights plus §4.1 static parameters.
    fn flash_bytes(&self) -> usize;

    /// Transient scratch bytes the given kernel implementation needs over
    /// the inputs at their precisions (e.g. the im2col expansion of a GEMM
    /// lowering; zero for kernels that run in place over the live
    /// activations).
    fn scratch_bytes(&self, choice: KernelChoice, inputs: &[Shape], in_bits: &[BitWidth]) -> usize {
        let _ = (choice, inputs, in_bits);
        0
    }
}

impl QOp for QConv2d {
    fn kind(&self) -> OpKind {
        if self.weights().is_depthwise() {
            OpKind::DepthwiseConv
        } else {
            OpKind::Conv
        }
    }

    fn supported_kernels(&self) -> &'static [KernelChoice] {
        if self.blocked_supported() {
            &[KernelChoice::DirectConv, KernelChoice::BlockedGemm]
        } else {
            // CMSIS-NN lowers depthwise directly (there is no im2col
            // form), and a patch past `MAX_DOT_LEN` would overflow the
            // GEMM's i32 accumulators.
            &[KernelChoice::DirectConv]
        }
    }

    fn prepack(&self, choice: KernelChoice) -> (Option<PrepackedWeights>, OpCounts) {
        prepack_conv_weights(self.weights(), choice, || self.prepack_panels())
    }

    fn execute_kernel(
        &self,
        choice: KernelChoice,
        cache: Option<&PrepackedWeights>,
        inputs: &[&QActivation],
        arena: &mut ActivationArena,
        ops: &mut OpCounts,
    ) -> OpOutput {
        let mut codes = arena.take_scratch();
        let wcodes = cache.and_then(PrepackedWeights::codes);
        // Clone the pool handle out so the `&mut` buffer takes below stay
        // disjoint borrows; every kernel splits its output rows across it
        // (`threadpool::split_rows`).
        let pool = arena.pool_handle();
        let pool = pool.as_deref();
        let shape = match choice {
            KernelChoice::DirectConv => {
                let mut stage = mem::take(&mut arena.stage);
                let shape =
                    self.execute_direct(wcodes, inputs[0], &mut codes, &mut stage, pool, ops);
                arena.stage = stage;
                shape
            }
            KernelChoice::BlockedGemm => {
                let mut aux = arena.take_aux();
                let mut acc = arena.take_acc();
                let owned;
                let panels = match cache.and_then(PrepackedWeights::panels) {
                    Some(p) => p,
                    None => {
                        owned = self.prepack_panels();
                        &owned
                    }
                };
                let shape = self
                    .execute_blocked(panels, inputs[0], &mut aux, &mut acc, &mut codes, pool, ops);
                arena.put_acc(acc);
                arena.put_aux(aux);
                shape
            }
        };
        let act = QActivation::from_codes_in(
            shape,
            &codes,
            self.requant().out_bits(),
            self.out_zero_point(),
            arena.take_packed(),
        );
        arena.put_scratch(codes);
        OpOutput::Act(act)
    }

    fn output_shape(&self, inputs: &[Shape]) -> Shape {
        QConv2d::output_shape(self, inputs[0])
    }

    fn out_bits(&self, _in_bits: &[BitWidth]) -> BitWidth {
        self.requant().out_bits()
    }

    fn flash_bytes(&self) -> usize {
        // Packed weights + Zw + Zx/Zy + requant parameters (Table 1 row).
        self.weights().byte_len()
            + self.weights().offset().flash_bytes()
            + 2
            + self.requant().flash_bytes()
    }

    fn scratch_bytes(&self, choice: KernelChoice, inputs: &[Shape], in_bits: &[BitWidth]) -> usize {
        match choice {
            // The direct loop reads the packed input in place.
            KernelChoice::DirectConv => 0,
            // The blocked kernel's pointwise identity fast path borrows an
            // 8-bit input's packed storage zero-copy — no expansion at all.
            KernelChoice::BlockedGemm => {
                if self.blocked_borrows_input(in_bits[0]) {
                    0
                } else {
                    im2col_scratch_bytes(self, inputs[0])
                }
            }
        }
    }
}

impl QOp for QAvgPool {
    fn kind(&self) -> OpKind {
        OpKind::Pool
    }

    fn execute_kernel(
        &self,
        _choice: KernelChoice,
        _cache: Option<&PrepackedWeights>,
        inputs: &[&QActivation],
        arena: &mut ActivationArena,
        ops: &mut OpCounts,
    ) -> OpOutput {
        let x = inputs[0];
        let mut codes = arena.take_scratch();
        let shape = self.execute_codes(x, &mut codes, ops);
        let act = QActivation::from_codes_in(
            shape,
            &codes,
            x.bits(),
            x.zero_point(),
            arena.take_packed(),
        );
        arena.put_scratch(codes);
        OpOutput::Act(act)
    }

    fn output_shape(&self, inputs: &[Shape]) -> Shape {
        let input = inputs[0];
        Shape::new(input.n, 1, 1, input.c)
    }

    fn out_bits(&self, in_bits: &[BitWidth]) -> BitWidth {
        in_bits[0]
    }

    fn flash_bytes(&self) -> usize {
        0
    }
}

impl QOp for QLinear {
    fn kind(&self) -> OpKind {
        OpKind::Linear
    }

    fn prepack(&self, choice: KernelChoice) -> (Option<PrepackedWeights>, OpCounts) {
        let _ = choice; // the head has a single kernel implementation
        prepack_decoded_codes(self.weights())
    }

    fn execute_kernel(
        &self,
        _choice: KernelChoice,
        cache: Option<&PrepackedWeights>,
        inputs: &[&QActivation],
        _arena: &mut ActivationArena,
        ops: &mut OpCounts,
    ) -> OpOutput {
        let mut logits = Vec::with_capacity(inputs[0].shape().n * self.out_features());
        self.execute_into_with(
            cache.and_then(PrepackedWeights::codes),
            inputs[0],
            &mut logits,
            ops,
        );
        OpOutput::Logits(logits)
    }

    fn output_shape(&self, inputs: &[Shape]) -> Shape {
        Shape::new(inputs[0].n, 1, 1, self.out_features())
    }

    fn out_bits(&self, in_bits: &[BitWidth]) -> BitWidth {
        in_bits[0]
    }

    fn output_bytes(&self, inputs: &[Shape], _in_bits: &[BitWidth]) -> usize {
        // The head's output is i32 logits, one per class per batch item.
        4 * inputs[0].n * self.out_features()
    }

    fn flash_bytes(&self) -> usize {
        // Packed weights + Zw + Zx/Zy + Bq (i32) and M0/N0 (5 bytes) per
        // class when a rescale is present.
        self.weights().byte_len()
            + self.weights().offset().flash_bytes()
            + 2
            + 4 * self.bq().len()
            + self.rescale().map_or(0, |r| 5 * r.len())
    }
}

impl QOp for QAdd {
    fn kind(&self) -> OpKind {
        OpKind::Add
    }

    fn arity(&self) -> usize {
        2
    }

    fn execute_kernel(
        &self,
        _choice: KernelChoice,
        _cache: Option<&PrepackedWeights>,
        inputs: &[&QActivation],
        arena: &mut ActivationArena,
        ops: &mut OpCounts,
    ) -> OpOutput {
        let mut codes = arena.take_scratch();
        let shape = self.execute_codes(inputs[0], inputs[1], &mut codes, ops);
        let act = QActivation::from_codes_in(
            shape,
            &codes,
            QAdd::out_bits(self),
            self.zero_point() as u8, // validated to be a code at construction
            arena.take_packed(),
        );
        arena.put_scratch(codes);
        OpOutput::Act(act)
    }

    fn output_shape(&self, inputs: &[Shape]) -> Shape {
        inputs[0]
    }

    fn out_bits(&self, _in_bits: &[BitWidth]) -> BitWidth {
        QAdd::out_bits(self)
    }

    fn flash_bytes(&self) -> usize {
        QAdd::flash_bytes(self)
    }
}

/// Prepack rule shared by the convolution kernels: a blocked-GEMM node
/// caches its interleaved panels; any other choice caches the decoded
/// codes when (and only when) the weights are sub-byte — 8-bit weights
/// already read their packed bytes directly.
fn prepack_conv_weights(
    weights: &crate::QConvWeights,
    choice: KernelChoice,
    build_panels: impl FnOnce() -> PackedPanels,
) -> (Option<PrepackedWeights>, OpCounts) {
    let vol = weights.shape().volume() as u64;
    match choice {
        KernelChoice::BlockedGemm => {
            // One-time work: read every code (decoding sub-byte ones),
            // store it into the interleaved panel.
            let ops = OpCounts {
                unpacks: if weights.needs_unpack() { vol } else { 0 },
                act_loads: vol,
                act_stores: vol,
                ..OpCounts::default()
            };
            (Some(PrepackedWeights::Panels(build_panels())), ops)
        }
        _ => prepack_decoded_codes(weights),
    }
}

/// The decoded-code prepack for direct kernels and the head: only
/// sub-byte weights gain anything (one unpack + one store per code, once).
fn prepack_decoded_codes(weights: &crate::QConvWeights) -> (Option<PrepackedWeights>, OpCounts) {
    if !weights.needs_unpack() {
        return (None, OpCounts::default());
    }
    let vol = weights.shape().volume() as u64;
    let ops = OpCounts {
        unpacks: vol,
        act_stores: vol,
        ..OpCounts::default()
    };
    (Some(PrepackedWeights::Codes(weights.codes())), ops)
}

/// Closed set of graph node operators.
///
/// The graph stores this enum rather than `Box<dyn QOp>` so that networks
/// stay `Clone`/`PartialEq` (conversion tests compare whole deployments)
/// and dispatch stays static — the executor adds no indirection over the
/// kernels it schedules.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyOp {
    /// Convolution (standard, pointwise or depthwise).
    Conv(QConv2d),
    /// Global average pooling.
    Pool(QAvgPool),
    /// Fully-connected classifier head.
    Linear(QLinear),
    /// Requantizing residual add.
    Add(QAdd),
}

impl From<QConv2d> for AnyOp {
    fn from(op: QConv2d) -> Self {
        AnyOp::Conv(op)
    }
}

impl From<QAvgPool> for AnyOp {
    fn from(op: QAvgPool) -> Self {
        AnyOp::Pool(op)
    }
}

impl From<QLinear> for AnyOp {
    fn from(op: QLinear) -> Self {
        AnyOp::Linear(op)
    }
}

impl From<QAdd> for AnyOp {
    fn from(op: QAdd) -> Self {
        AnyOp::Add(op)
    }
}

macro_rules! dispatch {
    ($self:expr, $op:ident => $call:expr) => {
        match $self {
            AnyOp::Conv($op) => $call,
            AnyOp::Pool($op) => $call,
            AnyOp::Linear($op) => $call,
            AnyOp::Add($op) => $call,
        }
    };
}

impl QOp for AnyOp {
    fn kind(&self) -> OpKind {
        dispatch!(self, op => op.kind())
    }

    fn arity(&self) -> usize {
        dispatch!(self, op => QOp::arity(op))
    }

    fn supported_kernels(&self) -> &'static [KernelChoice] {
        dispatch!(self, op => QOp::supported_kernels(op))
    }

    fn prepack(&self, choice: KernelChoice) -> (Option<PrepackedWeights>, OpCounts) {
        dispatch!(self, op => QOp::prepack(op, choice))
    }

    fn execute_kernel(
        &self,
        choice: KernelChoice,
        cache: Option<&PrepackedWeights>,
        inputs: &[&QActivation],
        arena: &mut ActivationArena,
        ops: &mut OpCounts,
    ) -> OpOutput {
        dispatch!(self, op => QOp::execute_kernel(op, choice, cache, inputs, arena, ops))
    }

    fn output_shape(&self, inputs: &[Shape]) -> Shape {
        dispatch!(self, op => QOp::output_shape(op, inputs))
    }

    fn out_bits(&self, in_bits: &[BitWidth]) -> BitWidth {
        dispatch!(self, op => QOp::out_bits(op, in_bits))
    }

    fn output_bytes(&self, inputs: &[Shape], in_bits: &[BitWidth]) -> usize {
        dispatch!(self, op => op.output_bytes(inputs, in_bits))
    }

    fn flash_bytes(&self) -> usize {
        dispatch!(self, op => QOp::flash_bytes(op))
    }

    fn scratch_bytes(&self, choice: KernelChoice, inputs: &[Shape], in_bits: &[BitWidth]) -> usize {
        dispatch!(self, op => op.scratch_bytes(choice, inputs, in_bits))
    }
}

/// A named node of a [`QGraph`] with its input tensor ids and the kernel
/// implementation it resolved to at build time.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphNode {
    name: String,
    op: AnyOp,
    inputs: Vec<usize>,
    choice: KernelChoice,
    cache: Option<PrepackedWeights>,
    prepack_ops: OpCounts,
}

impl GraphNode {
    /// Node name (layer label in breakdowns and exports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator.
    pub fn op(&self) -> &AnyOp {
        &self.op
    }

    /// Mutable operator (deployment rewrites, e.g. threshold saturation).
    /// The node's kernel choice and prepack cache are preserved across
    /// rewrites — the cache is weight-derived, so rewrites that keep the
    /// weights (requantizer changes) keep it valid.
    pub fn op_mut(&mut self) -> &mut AnyOp {
        &mut self.op
    }

    /// Input tensor ids (0 = graph input, `k + 1` = output of node `k`).
    pub fn inputs(&self) -> &[usize] {
        &self.inputs
    }

    /// The kernel implementation this node executes with — resolved by a
    /// [`Backend`] in [`QGraph::select_kernels`];
    /// [`KernelChoice::DirectConv`] until a backend is selected.
    pub fn choice(&self) -> KernelChoice {
        self.choice
    }

    /// The node's prepacked weight operand, built once when the kernel
    /// choice was resolved; `None` when the op has nothing to cache.
    pub fn prepacked(&self) -> Option<&PrepackedWeights> {
        self.cache.as_ref()
    }

    /// The one-time [`OpCounts`] ledger of building this node's prepack
    /// cache (zero when nothing is cached) — what cycle models report
    /// separately from the steady-state per-inference work.
    pub fn prepack_ops(&self) -> OpCounts {
        self.prepack_ops
    }

    /// Read-only bytes of the node's prepack cache (zero when none).
    pub fn prepacked_bytes(&self) -> usize {
        self.cache.as_ref().map_or(0, PrepackedWeights::bytes)
    }

    /// (Re)builds the prepack cache from the op and the resolved choice.
    fn build_prepack(&mut self) {
        let (cache, ops) = self.op.prepack(self.choice);
        self.cache = cache;
        self.prepack_ops = ops;
    }
}

/// The per-layer record the executor writes: the ledger a cycle model
/// turns into a latency breakdown, plus the activation traffic of the
/// layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRun {
    /// Node name.
    pub name: String,
    /// Operator class.
    pub kind: OpKind,
    /// The kernel implementation the node executed with (cycle models price
    /// per choice).
    pub choice: KernelChoice,
    /// Abstract operation counts charged by this layer alone.
    pub ops: OpCounts,
    /// One-time packing work of the node's prepack cache (zero when the
    /// node caches nothing). Charged at graph build, **not** per inference
    /// — cycle models report it separately from the steady-state cost.
    pub prepack: OpCounts,
    /// Input activation bytes (packed, summed over all inputs —
    /// `mem(x, Q_x)` of Eq. 7).
    pub in_bytes: usize,
    /// Output bytes (packed activation, or `4·classes` for the head).
    pub out_bytes: usize,
    /// Output shape.
    pub out_shape: Shape,
}

/// Result of one [`QGraph::run`]: the terminal product plus the per-layer
/// ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphRun {
    /// Integer logits, when the graph ends in a classifier head.
    pub logits: Option<Vec<i32>>,
    /// Final activation, when the graph ends in a code-producing op.
    pub output: Option<QActivation>,
    /// One record per executed node, in execution order.
    pub layers: Vec<LayerRun>,
    /// Measured high-water mark of live activation bytes across the run —
    /// the executor-side twin of [`QGraph::peak_ram_bytes`].
    pub peak_live_bytes: usize,
}

impl GraphRun {
    /// Folds the per-layer ledgers into network totals.
    pub fn total_ops(&self) -> OpCounts {
        self.layers.iter().map(|l| l.ops).sum()
    }

    /// The logits of a head-terminated graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph does not end in a classifier head.
    pub fn into_logits(self) -> Vec<i32> {
        self.logits
            .expect("graph does not end in a classifier head")
    }
}

/// The liveness-planned activation buffer pool: one shared unpacked-code
/// scratch plus a free list of recycled packed-storage buffers, so that —
/// after a warm-up run — steady-state inference through
/// [`QGraph::infer_batch`] performs **zero heap allocations**.
///
/// The arena is the executor-side twin of the Eq. 7 accounting: the
/// schedule keeps a tensor's storage exactly as long as a consumer still
/// needs it, recycling it the instant the tensor dies, and
/// [`QGraph::peak_ram_bytes`] prices the largest live set that plan ever
/// holds.
#[derive(Debug, Default)]
pub struct ActivationArena {
    scratch: Vec<u8>,
    aux: Vec<u8>,
    /// A sub-byte depthwise input, unpacked one code per byte for the
    /// depthwise tap kernel.
    stage: Vec<u8>,
    acc: Vec<i32>,
    packed: Vec<Vec<u8>>,
    slots: Vec<Option<QActivation>>,
    last_uses: Vec<usize>,
    pool: Option<Arc<ThreadPool>>,
}

impl ActivationArena {
    /// An empty arena (buffers grow on first use).
    pub fn new() -> Self {
        ActivationArena::default()
    }

    /// Preallocates the code scratch for `code_capacity` unpacked codes.
    pub fn with_capacity(code_capacity: usize) -> Self {
        ActivationArena {
            scratch: Vec::with_capacity(code_capacity),
            ..ActivationArena::default()
        }
    }

    /// Takes ownership of the unpacked-code scratch buffer. Pair with
    /// [`ActivationArena::put_scratch`]; takes nested between a take and
    /// its put see an empty buffer.
    pub fn take_scratch(&mut self) -> Vec<u8> {
        mem::take(&mut self.scratch)
    }

    /// Returns the scratch buffer taken by
    /// [`ActivationArena::take_scratch`].
    pub fn put_scratch(&mut self, buf: Vec<u8>) {
        self.scratch = buf;
    }

    /// Takes ownership of the auxiliary expansion buffer (im2col matrices,
    /// sub-byte linear unpacks) — the second scratch GEMM-lowered kernels
    /// need alongside the output-code scratch. Pair with
    /// [`ActivationArena::put_aux`].
    pub fn take_aux(&mut self) -> Vec<u8> {
        mem::take(&mut self.aux)
    }

    /// Returns the buffer taken by [`ActivationArena::take_aux`].
    pub fn put_aux(&mut self, buf: Vec<u8>) {
        self.aux = buf;
    }

    /// Takes ownership of the 32-bit accumulator scratch the blocked
    /// GEMV writes per-channel partial sums into (one `2·c_o` slice per
    /// pool worker). Pair with [`ActivationArena::put_acc`].
    pub fn take_acc(&mut self) -> Vec<i32> {
        mem::take(&mut self.acc)
    }

    /// Returns the buffer taken by [`ActivationArena::take_acc`].
    pub fn put_acc(&mut self, buf: Vec<i32>) {
        self.acc = buf;
    }

    /// Hands out a recycled packed-storage buffer (empty if the pool is
    /// dry).
    pub fn take_packed(&mut self) -> Vec<u8> {
        self.packed.pop().unwrap_or_default()
    }

    /// Recycles a dead activation's packed storage into the pool.
    pub fn recycle(&mut self, act: QActivation) {
        self.packed.push(act.into_storage());
    }

    /// Current allocated capacity across scratch and pooled buffers, in
    /// bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.scratch.capacity()
            + self.aux.capacity()
            + self.stage.capacity()
            + self.acc.capacity() * 4
            + self.packed.iter().map(|b| b.capacity()).sum::<usize>()
    }

    /// Number of packed buffers currently waiting in the pool.
    pub fn pooled_buffers(&self) -> usize {
        self.packed.len()
    }

    /// Attaches a [`ThreadPool`] so every node executed through this
    /// arena splits its output rows across the pool's workers — the
    /// intra-walk parallelism of [`QGraph::infer_batch`], and the only
    /// place a pool attaches. The pool is created once by the caller and
    /// reused across walks (steady state stays allocation-free); results
    /// are bit-identical with or without one.
    pub fn set_pool(&mut self, pool: Arc<ThreadPool>) {
        self.pool = Some(pool);
    }

    /// A handle to the attached worker pool, if any — cloned out so
    /// kernels can hold it alongside `&mut` borrows of the arena's
    /// buffers.
    pub fn pool_handle(&self) -> Option<Arc<ThreadPool>> {
        self.pool.clone()
    }
}

/// A DAG of integer ops — the executable deployment model.
///
/// Nodes are appended in topological order: every input tensor id must
/// already be defined, so the node order doubles as the execution
/// schedule. See the [module docs](self) for examples.
///
/// Each node carries the [`KernelChoice`] it executes with.
/// [`QGraph::push`]/[`QGraph::push_node`] resolve every node to the direct
/// reference kernel (bit-identical to the pre-backend executor); declaring
/// the input with [`QGraph::with_input`] enables [`Backend`] selection,
/// and [`QGraph::select_kernels`] resolves a whole graph against a
/// backend.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QGraph {
    nodes: Vec<GraphNode>,
    input: Option<(Shape, BitWidth)>,
}

impl QGraph {
    /// An empty graph with no declared input (backend selection needs
    /// [`QGraph::with_input`]).
    pub fn new() -> Self {
        QGraph::default()
    }

    /// An empty graph with a declared input tensor, enabling kernel
    /// selection ([`QGraph::select_kernels`]): backends see each node's
    /// input shapes and precisions, derived from this declaration through
    /// the graph's ops.
    pub fn with_input(input: Shape, in_bits: BitWidth) -> Self {
        QGraph {
            nodes: Vec::new(),
            input: Some((input, in_bits)),
        }
    }

    /// The declared input tensor, if any.
    pub fn input_decl(&self) -> Option<(Shape, BitWidth)> {
        self.input
    }

    /// Appends a chain node consuming the most recent tensor (the previous
    /// node's output, or the graph input for the first node). Returns the
    /// new node's output tensor id. The node runs the direct reference
    /// kernel.
    pub fn push(&mut self, name: impl Into<String>, op: impl Into<AnyOp>) -> usize {
        let prev = self.nodes.len();
        self.push_node(name, op, &[prev])
    }

    /// Appends a node with explicit input tensor ids (0 = graph input,
    /// `k + 1` = output of node `k`). Returns the new node's output tensor
    /// id. The node runs the direct reference kernel.
    ///
    /// # Panics
    ///
    /// Panics if an input id is not yet defined or the input count does
    /// not match the op's arity.
    pub fn push_node(
        &mut self,
        name: impl Into<String>,
        op: impl Into<AnyOp>,
        inputs: &[usize],
    ) -> usize {
        let name = name.into();
        let op = op.into();
        let out_id = self.nodes.len() + 1;
        assert_eq!(
            inputs.len(),
            QOp::arity(&op),
            "node `{name}`: {} inputs for an arity-{} op",
            inputs.len(),
            QOp::arity(&op)
        );
        for &t in inputs {
            assert!(
                t < out_id,
                "node `{name}`: input tensor {t} is not defined yet (next id is {out_id})"
            );
        }
        let mut node = GraphNode {
            name,
            op,
            inputs: inputs.to_vec(),
            choice: KernelChoice::DirectConv,
            cache: None,
            prepack_ops: OpCounts::default(),
        };
        node.build_prepack();
        self.nodes.push(node);
        out_id
    }

    /// Re-resolves every node's [`KernelChoice`] against `backend` —
    /// retargeting an already-built graph (e.g. a converted network) to a
    /// different backend without rebuilding it.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no declared input ([`QGraph::with_input`])
    /// or the backend returns an unsupported choice for some node.
    pub fn select_kernels(&mut self, backend: &dyn Backend) {
        let (input, in_bits) = self
            .input
            .expect("backend selection needs a declared graph input (QGraph::with_input)");
        let (shapes, bits) = self.tensor_plan(input, in_bits);
        let mut in_shapes = Vec::new();
        let mut in_bits_v = Vec::new();
        for node in &mut self.nodes {
            in_shapes.clear();
            in_bits_v.clear();
            for &t in &node.inputs {
                in_shapes.push(shapes[t]);
                in_bits_v.push(bits[t]);
            }
            let choice = resolve_choice(backend, &node.name, &node.op, &in_shapes, &in_bits_v);
            // Rebuild the cache only when the choice changed (a different
            // artifact form applies) — `push`/`push_node` already built it
            // for the initial choice, and re-selecting with the same
            // backend must not redo the sub-byte decode per node.
            if choice != node.choice {
                node.choice = choice;
                node.build_prepack();
            }
        }
    }

    /// Total read-only bytes of all nodes' prepack caches — the flash-side
    /// cost of the steady-state packing amortization, reported separately
    /// from the Table-1 flash model ([`QGraph::flash_bytes`]) and from the
    /// Eq. 7 activation RAM ([`QGraph::peak_ram_bytes`]).
    pub fn prepacked_bytes(&self) -> usize {
        self.nodes.iter().map(GraphNode::prepacked_bytes).sum()
    }

    /// The resolved [`KernelChoice`] of every node, in schedule order.
    pub fn kernel_choices(&self) -> Vec<KernelChoice> {
        self.nodes.iter().map(|n| n.choice).collect()
    }

    /// The nodes, in schedule order.
    pub fn nodes(&self) -> &[GraphNode] {
        &self.nodes
    }

    /// Mutable nodes (deployment rewrites keep the topology intact).
    pub fn nodes_mut(&mut self) -> &mut [GraphNode] {
        &mut self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All convolution nodes, in order.
    pub fn convs(&self) -> Vec<&QConv2d> {
        self.nodes
            .iter()
            .filter_map(|n| match &n.op {
                AnyOp::Conv(c) => Some(c),
                _ => None,
            })
            .collect()
    }

    /// The classifier head, if the graph has one.
    pub fn head(&self) -> Option<&QLinear> {
        self.nodes.iter().find_map(|n| match &n.op {
            AnyOp::Linear(l) => Some(l),
            _ => None,
        })
    }

    /// Total flash footprint of the graph (packed weights + §4.1 static
    /// parameters of every node).
    pub fn flash_bytes(&self) -> usize {
        self.nodes.iter().map(|n| QOp::flash_bytes(&n.op)).sum()
    }

    /// Shape and precision of every tensor (index = tensor id): entry 0 is
    /// the graph input, entry `k + 1` the output of node `k`. This is the
    /// same plan the executor's arena planner uses, exposed so static
    /// analyses (`mixq-verify`) can reason about the exact deployed
    /// schedule rather than a reconstruction of it.
    pub fn tensor_plan(&self, input: Shape, in_bits: BitWidth) -> (Vec<Shape>, Vec<BitWidth>) {
        let mut shapes = Vec::with_capacity(self.nodes.len() + 1);
        let mut bits = Vec::with_capacity(self.nodes.len() + 1);
        shapes.push(input);
        bits.push(in_bits);
        let mut in_shapes = Vec::new();
        let mut in_bits_v = Vec::new();
        for node in &self.nodes {
            in_shapes.clear();
            in_bits_v.clear();
            for &t in &node.inputs {
                in_shapes.push(shapes[t]);
                in_bits_v.push(bits[t]);
            }
            shapes.push(node.op.output_shape(&in_shapes));
            bits.push(node.op.out_bits(&in_bits_v));
        }
        (shapes, bits)
    }

    /// Last schedule step at which each tensor is still needed: the index
    /// of its final consuming node, its defining node when unused, and a
    /// past-the-end sentinel for the terminal tensor (which must survive
    /// the run).
    pub(crate) fn last_uses_into(&self, out: &mut Vec<usize>) {
        let n = self.nodes.len();
        out.clear();
        out.push(0); // graph input: droppable after node 0 if unused
        for k in 0..n {
            out.push(k); // tensor k + 1, defined by node k
        }
        for (i, node) in self.nodes.iter().enumerate() {
            for &t in &node.inputs {
                out[t] = out[t].max(i);
            }
        }
        if n > 0 {
            out[n] = n; // terminal tensor: never dropped mid-run
        }
    }

    /// Last schedule step at which each tensor is still needed (index =
    /// tensor id, as in [`QGraph::tensor_plan`]) — the liveness schedule
    /// the activation arena is planned from, exposed for static
    /// verification of the schedule itself.
    pub fn last_uses(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.last_uses_into(&mut out);
        out
    }

    /// Peak activation RAM (Eq. 7) of the liveness-planned schedule: for
    /// every step, the bytes of all tensors still needed plus the step's
    /// output, each at its deployed precision; the peak over steps. On a
    /// chain this is the classic largest input+output pair; on a residual
    /// graph the pending skip tensor is priced too.
    pub fn peak_ram_bytes(&self, input: Shape, in_bits: BitWidth) -> usize {
        let (shapes, bits) = self.tensor_plan(input, in_bits);
        let mut last = Vec::new();
        self.last_uses_into(&mut last);
        let mut peak = 0usize;
        let mut in_shapes = Vec::new();
        let mut in_bits_v = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            in_shapes.clear();
            in_bits_v.clear();
            for &t in &node.inputs {
                in_shapes.push(shapes[t]);
                in_bits_v.push(bits[t]);
            }
            let out_bytes = node.op.output_bytes(&in_shapes, &in_bits_v);
            let live: usize = (0..=i)
                .filter(|&t| last[t] >= i)
                .map(|t| bits[t].bytes_for(shapes[t].volume()))
                .sum();
            peak = peak.max(live + out_bytes);
        }
        peak
    }

    /// Largest transient scratch buffer any node needs with the kernel it
    /// actually selected, on top of the live activations: GEMM-lowered
    /// nodes are priced for their im2col expansion (zero when the blocked
    /// kernel's pointwise identity path borrows the input zero-copy),
    /// direct nodes for nothing. A reference-selected graph therefore
    /// reports zero, and a tiled graph exactly the largest expansion its
    /// GEMM nodes materialize.
    pub fn peak_scratch_bytes(&self, input: Shape, in_bits: BitWidth) -> usize {
        let (shapes, bits) = self.tensor_plan(input, in_bits);
        let mut peak = 0usize;
        let mut in_shapes = Vec::new();
        let mut in_bits_v = Vec::new();
        for node in &self.nodes {
            in_shapes.clear();
            in_bits_v.clear();
            for &t in &node.inputs {
                in_shapes.push(shapes[t]);
                in_bits_v.push(bits[t]);
            }
            peak = peak.max(node.op.scratch_bytes(node.choice, &in_shapes, &in_bits_v));
        }
        peak
    }

    /// Shape of the graph's terminal output for a given input shape.
    pub fn output_shape(&self, input: Shape) -> Shape {
        let (shapes, _) = self.tensor_plan(input, BitWidth::W8);
        *shapes.last().expect("plan includes the input")
    }

    /// Largest unpacked code count across the tensors — the scratch
    /// preallocation size.
    fn peak_code_volume(&self, input: Shape) -> usize {
        let (shapes, _) = self.tensor_plan(input, BitWidth::W8);
        shapes.iter().map(|s| s.volume()).max().unwrap_or(0)
    }

    /// Runs the graph on `input` with a freshly planned arena.
    ///
    /// # Panics
    ///
    /// Panics if a classifier head appears before the last node (logits
    /// cannot feed a code-consuming op), or if a node consumes a logits
    /// tensor.
    pub fn run(&self, input: QActivation) -> GraphRun {
        let mut arena = ActivationArena::with_capacity(self.peak_code_volume(input.shape()));
        self.run_with_arena(input, &mut arena)
    }

    /// Runs the graph reusing a caller-owned arena (amortizes the working
    /// set across inferences, e.g. over a whole evaluation set), recording
    /// one [`LayerRun`] per node and the measured live high-water mark.
    ///
    /// # Panics
    ///
    /// See [`QGraph::run`].
    pub fn run_with_arena(&self, input: QActivation, arena: &mut ActivationArena) -> GraphRun {
        let mut layers = Vec::with_capacity(self.nodes.len());
        let mut logits = Vec::new();
        let mut ops = OpCounts::default();
        let (output, have_logits, peak_live_bytes) =
            self.walk(input, arena, &mut logits, &mut ops, Some(&mut layers));
        GraphRun {
            logits: have_logits.then_some(logits),
            output,
            layers,
            peak_live_bytes,
        }
    }

    /// The allocation-free inference path: one walk of a head-terminated
    /// graph computes a whole batch. `input` carries the batch in its
    /// shape's `n` dimension (N stacked NHWC items); every kernel sweeps
    /// all N samples against the node's prepacked weights, so per-layer
    /// dispatch, weight-panel streaming and sub-byte weight decoding are
    /// amortized across the batch. The head writes `N · classes` logits
    /// straight into `logits_out` (cleared in place) in row-major
    /// `(n, classes)` order — bit-identical to N single-sample walks
    /// (asserted by the `batch_matches_single_sample_logits` proptest) —
    /// and the op ledger accumulates into `ops`.
    ///
    /// Every buffer is drawn from `arena`: after one warm-up run over a
    /// given graph and batch size, subsequent calls perform no heap
    /// allocation (asserted by the `allocation_free` integration test).
    /// [`QGraph::peak_ram_bytes`] and [`QGraph::peak_scratch_bytes`] price
    /// the batch dimension when given the batched input shape.
    ///
    /// # Panics
    ///
    /// Panics if the graph does not end in a classifier head, plus the
    /// conditions of [`QGraph::run`].
    pub fn infer_batch(
        &self,
        input: QActivation,
        arena: &mut ActivationArena,
        logits_out: &mut Vec<i32>,
        ops: &mut OpCounts,
    ) {
        let (output, have_logits, _) = self.walk(input, arena, logits_out, ops, None);
        if let Some(a) = output {
            arena.recycle(a); // head-terminated graphs leave no activation
        }
        assert!(have_logits, "graph does not end in a classifier head");
    }

    /// The one schedule loop: executes every node in order against the
    /// arena's liveness-planned slots, retiring each tensor after its last
    /// consumer. A classifier head writes its logits straight into
    /// `logits_out`; every node's ledger is charged to `ops`.
    ///
    /// With `record` on, each node's own ledger, bytes and shape are
    /// appended as a [`LayerRun`] and the live high-water mark is tracked.
    /// With it off, the loop clones no names, sums no live bytes and
    /// allocates nothing.
    ///
    /// Returns the terminal activation (if the graph ends in one), whether
    /// a head produced logits, and the measured peak live bytes (zero
    /// when not recording).
    fn walk(
        &self,
        input: QActivation,
        arena: &mut ActivationArena,
        logits_out: &mut Vec<i32>,
        ops: &mut OpCounts,
        mut record: Option<&mut Vec<LayerRun>>,
    ) -> (Option<QActivation>, bool, usize) {
        // The arena's reusable schedule state: the last-use table and the
        // tensor slots, with the graph input in slot 0.
        let mut last = mem::take(&mut arena.last_uses);
        self.last_uses_into(&mut last);
        let mut slots = mem::take(&mut arena.slots);
        slots.clear();
        slots.resize_with(self.nodes.len() + 1, || None);
        slots[0] = Some(input);
        let mut have_logits = false;
        let mut peak_live = 0usize;
        for (i, node) in self.nodes.iter().enumerate() {
            assert!(
                !have_logits,
                "classifier head must be the terminal node (violated at `{}`)",
                node.name
            );
            let mut layer_ops = OpCounts::default();
            let node_ops = if record.is_some() {
                &mut layer_ops
            } else {
                &mut *ops
            };
            let (in_bytes, in_shape) = if let AnyOp::Linear(lin) = &node.op {
                let x = expect_act(&slots, node.inputs[0], node.name());
                lin.execute_into_with(
                    node.cache.as_ref().and_then(PrepackedWeights::codes),
                    x,
                    logits_out,
                    node_ops,
                );
                have_logits = true;
                (x.byte_len(), x.shape())
            } else {
                let (out, in_bytes, in_shape) = execute_node(node, &slots, arena, node_ops);
                match out {
                    OpOutput::Act(a) => slots[i + 1] = Some(a),
                    OpOutput::Logits(_) => unreachable!("heads are matched above"),
                }
                (in_bytes, in_shape)
            };
            if let Some(layers) = record.as_deref_mut() {
                *ops += layer_ops;
                let (out_bytes, out_shape, logit_bytes) = match &slots[i + 1] {
                    Some(a) => (a.byte_len(), a.shape(), 0),
                    None => {
                        let bytes = 4 * logits_out.len();
                        (bytes, node.op.output_shape(&[in_shape]), bytes)
                    }
                };
                // The live set: every slot (an activation output already
                // sits in its own) plus logits, which live outside them.
                let live_now: usize =
                    slots.iter().flatten().map(|a| a.byte_len()).sum::<usize>() + logit_bytes;
                peak_live = peak_live.max(live_now);
                layers.push(LayerRun {
                    name: node.name.clone(),
                    kind: node.op.kind(),
                    choice: node.choice,
                    ops: layer_ops,
                    prepack: node.prepack_ops,
                    in_bytes,
                    out_bytes,
                    out_shape,
                });
            }
            retire_dead(node, i, &last, &mut slots, arena);
        }
        // Tear down: take the terminal activation (if any), recycle every
        // remaining live tensor and hand the state back to the arena.
        let output = slots.last_mut().and_then(Option::take);
        for a in slots.iter_mut().filter_map(Option::take) {
            arena.recycle(a);
        }
        arena.slots = slots;
        arena.last_uses = last;
        (output, have_logits, peak_live)
    }
}

fn expect_act<'s>(slots: &'s [Option<QActivation>], t: usize, consumer: &str) -> &'s QActivation {
    slots[t].as_ref().unwrap_or_else(|| {
        panic!("node `{consumer}` consumes tensor {t}, which is not a live activation")
    })
}

/// Executes one node against the live tensor slots, returning the output,
/// the summed input bytes and the first input's shape.
fn execute_node(
    node: &GraphNode,
    slots: &[Option<QActivation>],
    arena: &mut ActivationArena,
    ops: &mut OpCounts,
) -> (OpOutput, usize, Shape) {
    let cache = node.cache.as_ref();
    match *node.inputs.as_slice() {
        [a] => {
            let xa = expect_act(slots, a, node.name());
            (
                node.op
                    .execute_kernel(node.choice, cache, &[xa], arena, ops),
                xa.byte_len(),
                xa.shape(),
            )
        }
        [a, b] => {
            let xa = expect_act(slots, a, node.name());
            let xb = expect_act(slots, b, node.name());
            (
                node.op
                    .execute_kernel(node.choice, cache, &[xa, xb], arena, ops),
                xa.byte_len() + xb.byte_len(),
                xa.shape(),
            )
        }
        _ => unreachable!("arity is validated by push_node"),
    }
}

/// Validates a backend's selection against the op's supported kernels.
fn resolve_choice(
    backend: &dyn Backend,
    name: &str,
    op: &AnyOp,
    in_shapes: &[Shape],
    in_bits: &[BitWidth],
) -> KernelChoice {
    let choice = backend.select(op, in_shapes, in_bits);
    assert!(
        op.supported_kernels().contains(&choice),
        "node `{name}`: backend `{}` selected {choice}, which the op does not support",
        backend.name()
    );
    choice
}

/// Recycles every tensor whose last consumer was node `i` (including the
/// node's own output when nothing ever reads it).
fn retire_dead(
    node: &GraphNode,
    i: usize,
    last: &[usize],
    slots: &mut [Option<QActivation>],
    arena: &mut ActivationArena,
) {
    for &t in &node.inputs {
        if last[t] == i {
            if let Some(a) = slots[t].take() {
                arena.recycle(a);
            }
        }
    }
    if last[i + 1] == i {
        if let Some(a) = slots[i + 1].take() {
            arena.recycle(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QConvWeights, Requantizer, WeightOffset};
    use mixq_quant::{BitWidth, FixedPointMultiplier};
    use mixq_tensor::{ConvGeometry, Padding};

    fn identity_requant(channels: usize, bits: BitWidth) -> Requantizer {
        Requantizer::icn(
            vec![0; channels],
            vec![FixedPointMultiplier::from_real(1.0); channels],
            0,
            bits,
        )
    }

    fn pointwise(ci: usize, co: usize, wcode: u8) -> QConv2d {
        let shape = Shape::new(co, 1, 1, ci);
        let w = QConvWeights::new(
            shape,
            false,
            &vec![wcode; shape.volume()],
            BitWidth::W4,
            WeightOffset::PerLayer(0),
        );
        QConv2d::new(
            w,
            ConvGeometry::pointwise(),
            identity_requant(co, BitWidth::W8),
        )
    }

    fn depthwise(c: usize, wcode: u8) -> QConv2d {
        let shape = Shape::new(c, 3, 3, 1);
        let w = QConvWeights::new(
            shape,
            true,
            &vec![wcode; shape.volume()],
            BitWidth::W4,
            WeightOffset::PerChannel(vec![0; c]),
        );
        QConv2d::new(
            w,
            ConvGeometry::new(3, 3, 1, Padding::Same),
            identity_requant(c, BitWidth::W8),
        )
    }

    fn identity_add() -> QAdd {
        QAdd::from_scales(1.0, 1.0, 1.0, 0, 0, 0, BitWidth::W8)
    }

    #[test]
    fn kinds_distinguish_depthwise() {
        assert_eq!(QOp::kind(&pointwise(2, 3, 1)), OpKind::Conv);
        assert_eq!(QOp::kind(&depthwise(2, 1)), OpKind::DepthwiseConv);
        assert_eq!(QAvgPool.kind(), OpKind::Pool);
        assert_eq!(QOp::kind(&identity_add()), OpKind::Add);
        assert_eq!(OpKind::DepthwiseConv.label(), "dwconv");
        assert_eq!(OpKind::Add.label(), "add");
        assert_eq!(QOp::arity(&identity_add()), 2);
        assert_eq!(QOp::arity(&pointwise(1, 1, 1)), 1);
    }

    #[test]
    fn graph_matches_manual_layer_loop() {
        // A depthwise-separable block graph must be bit-identical, op for
        // op, with the hand-rolled loop over the same layers.
        let dw = depthwise(2, 2);
        let pw = pointwise(2, 4, 1);
        let shape = Shape::feature_map(5, 5, 2);
        let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 11) as u8).collect();
        let x = QActivation::from_codes(shape, &codes, BitWidth::W8, 0);

        let mut graph = QGraph::new();
        graph.push("dw", dw.clone());
        graph.push("pw", pw.clone());
        graph.push("pool", QAvgPool);
        let run = graph.run(x.clone());

        let mut ops = OpCounts::default();
        let manual = QAvgPool.execute(&pw.execute(&dw.execute(&x, &mut ops), &mut ops), &mut ops);
        assert_eq!(run.output, Some(manual));
        assert_eq!(run.total_ops(), ops);
        assert_eq!(run.layers.len(), 3);
        assert_eq!(run.layers[0].kind, OpKind::DepthwiseConv);
        assert_eq!(run.layers[1].kind, OpKind::Conv);
        // The ledger decomposes: depthwise layer charges its own MACs only.
        assert_eq!(run.layers[0].ops.macs + run.layers[1].ops.macs, ops.macs);
    }

    #[test]
    fn arena_reuse_is_bit_identical_across_runs() {
        let mut graph = QGraph::new();
        graph.push("dw", depthwise(3, 1));
        graph.push("pw", pointwise(3, 3, 2));
        let shape = Shape::feature_map(4, 4, 3);
        let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 7) as u8).collect();
        let x = QActivation::from_codes(shape, &codes, BitWidth::W8, 0);
        let mut arena = ActivationArena::with_capacity(shape.volume());
        let a = graph.run_with_arena(x.clone(), &mut arena);
        let b = graph.run_with_arena(x.clone(), &mut arena);
        let c = graph.run(x);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert!(arena.capacity_bytes() >= shape.volume());
        assert!(arena.pooled_buffers() > 0, "dead tensors were recycled");
    }

    #[test]
    fn pooled_inference_matches_ledger_run() {
        let mut graph = QGraph::new();
        graph.push("dw", depthwise(2, 1));
        graph.push("pool", QAvgPool);
        let head = QLinear::new(
            QConvWeights::new(
                Shape::new(2, 1, 1, 2),
                false,
                &[1, 0, 0, 1],
                BitWidth::W8,
                WeightOffset::PerLayer(0),
            ),
            vec![3, 4],
            None,
        );
        graph.push("fc", head);
        let shape = Shape::feature_map(4, 4, 2);
        let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 9) as u8).collect();
        let x = QActivation::from_codes(shape, &codes, BitWidth::W8, 0);
        let run = graph.run(x.clone());
        let mut arena = ActivationArena::new();
        let mut logits = Vec::new();
        let mut ops = OpCounts::default();
        graph.infer_batch(x, &mut arena, &mut logits, &mut ops);
        assert_eq!(Some(logits), run.logits);
        assert_eq!(ops, run.total_ops());
    }

    #[test]
    fn residual_add_joins_branches() {
        // input -> dw -> pw(a); skip: input; add(pw, input).
        let mut graph = QGraph::new();
        let dw_id = graph.push("dw", depthwise(2, 1));
        let pw_id = graph.push_node("pw", pointwise(2, 2, 1), &[dw_id]);
        let add_id = graph.push_node("res", identity_add(), &[pw_id, 0]);
        assert_eq!((dw_id, pw_id, add_id), (1, 2, 3));
        assert_eq!(graph.nodes()[2].inputs(), &[2, 0]);

        let shape = Shape::feature_map(3, 3, 2);
        let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 5) as u8).collect();
        let x = QActivation::from_codes(shape, &codes, BitWidth::W8, 0);
        let run = graph.run(x.clone());

        // Manual: y = pw(dw(x)) + x (identity add on the same grid).
        let mut ops = OpCounts::default();
        let branch = pointwise(2, 2, 1).execute(&depthwise(2, 1).execute(&x, &mut ops), &mut ops);
        let manual = identity_add().execute(&branch, &x, &mut ops);
        assert_eq!(run.output, Some(manual));
        assert_eq!(run.total_ops(), ops);
        assert_eq!(run.layers[2].kind, OpKind::Add);
        // The add's ledger records both branch inputs.
        assert_eq!(run.layers[2].in_bytes, 2 * shape.volume());
    }

    #[test]
    fn peak_ram_matches_manual_pair_walk() {
        let mut graph = QGraph::new();
        graph.push("dw", depthwise(4, 1));
        graph.push("pw", pointwise(4, 8, 1));
        graph.push("pool", QAvgPool);
        let input = Shape::feature_map(6, 6, 4);
        // dw: 144 in + 144 out; pw: 144 in + 288 out (8 ch); pool: 288 + 8.
        assert_eq!(graph.peak_ram_bytes(input, BitWidth::W8), 144 + 288);
        // A 4-bit input halves the first pair's input tensor; the binding
        // pair here is pw (all-W8), so the peak cannot grow.
        assert!(graph.peak_ram_bytes(input, BitWidth::W4) <= 144 + 288);
        // When the first pair binds, the saving is strict.
        let mut dw_only = QGraph::new();
        dw_only.push("dw", depthwise(4, 1));
        assert_eq!(dw_only.peak_ram_bytes(input, BitWidth::W8), 144 + 144);
        assert_eq!(dw_only.peak_ram_bytes(input, BitWidth::W4), 72 + 144);
    }

    #[test]
    fn diamond_graph_prices_the_extra_live_tensor() {
        // in -> A; A -> B; A -> C; add(B, C). All tensors 4x4x2 = 32 B.
        let mut graph = QGraph::new();
        let a = graph.push("a", depthwise(2, 1));
        let b = graph.push_node("b", pointwise(2, 2, 1), &[a]);
        let c = graph.push_node("c", pointwise(2, 2, 2), &[a]);
        graph.push_node("add", identity_add(), &[b, c]);
        let input = Shape::feature_map(4, 4, 2);
        // While C runs, A (its input), B (pending) and C's output are all
        // live: 3 × 32 = 96 — beyond any double-buffered pair.
        assert_eq!(graph.peak_ram_bytes(input, BitWidth::W8), 96);

        // The measured high-water mark of a real run agrees exactly.
        let codes: Vec<u8> = (0..input.volume()).map(|i| (i % 4) as u8).collect();
        let x = QActivation::from_codes(input, &codes, BitWidth::W8, 0);
        let run = graph.run(x);
        assert_eq!(run.peak_live_bytes, 96);
    }

    #[test]
    fn chain_measured_peak_matches_planner() {
        let mut graph = QGraph::new();
        graph.push("dw", depthwise(4, 1));
        graph.push("pw", pointwise(4, 8, 1));
        graph.push("pool", QAvgPool);
        let input = Shape::feature_map(6, 6, 4);
        let codes: Vec<u8> = (0..input.volume()).map(|i| (i % 13) as u8).collect();
        let x = QActivation::from_codes(input, &codes, BitWidth::W8, 0);
        let run = graph.run(x);
        assert_eq!(
            run.peak_live_bytes,
            graph.peak_ram_bytes(input, BitWidth::W8)
        );
    }

    #[test]
    fn flash_bytes_sums_nodes() {
        let dw = depthwise(2, 1);
        let pw = pointwise(2, 3, 1);
        let mut graph = QGraph::new();
        graph.push("dw", dw.clone());
        graph.push("pw", pw.clone());
        graph.push("pool", QAvgPool);
        assert_eq!(
            graph.flash_bytes(),
            QOp::flash_bytes(&dw) + QOp::flash_bytes(&pw)
        );
        assert!(graph.flash_bytes() > 0);
        // Adds contribute their multiplier/zero-point block.
        graph.push_node("res", identity_add(), &[3, 3]);
        assert_eq!(
            graph.flash_bytes(),
            QOp::flash_bytes(&dw) + QOp::flash_bytes(&pw) + 13
        );
    }

    #[test]
    fn scratch_follows_the_selected_kernel() {
        let dense = QConv2d::new(
            QConvWeights::new(
                Shape::new(2, 3, 3, 3),
                false,
                &[0; 54],
                BitWidth::W8,
                WeightOffset::PerLayer(0),
            ),
            ConvGeometry::new(3, 3, 1, Padding::Same),
            identity_requant(2, BitWidth::W8),
        );
        let input = Shape::feature_map(8, 8, 3);
        let w8 = [BitWidth::W8];
        // The direct loop runs in place; only the GEMM lowering expands.
        assert_eq!(
            QOp::scratch_bytes(&dense, KernelChoice::DirectConv, &[input], &w8),
            0
        );
        assert_eq!(
            QOp::scratch_bytes(&dense, KernelChoice::BlockedGemm, &[input], &w8),
            8 * 8 * 9 * 3
        );
        // The blocked kernel's pointwise identity path borrows an 8-bit
        // input zero-copy (no scratch); a sub-byte input needs the linear
        // unpack buffer.
        let pw = pointwise(3, 4, 1);
        assert_eq!(
            QOp::scratch_bytes(&pw, KernelChoice::BlockedGemm, &[input], &w8),
            0
        );
        assert_eq!(
            QOp::scratch_bytes(&pw, KernelChoice::BlockedGemm, &[input], &[BitWidth::W4]),
            8 * 8 * 3
        );
        // A reference graph prices no scratch; a tiled graph prices exactly
        // the GEMM nodes' expansions.
        let mut graph = QGraph::with_input(input, BitWidth::W8);
        graph.push("dw", depthwise(3, 1));
        graph.push("c", dense.clone());
        assert_eq!(graph.peak_scratch_bytes(input, BitWidth::W8), 0);
        graph.select_kernels(&crate::TiledBackend::default());
        assert_eq!(
            graph.kernel_choices(),
            vec![KernelChoice::DirectConv, KernelChoice::BlockedGemm]
        );
        assert_eq!(graph.peak_scratch_bytes(input, BitWidth::W8), 8 * 8 * 9 * 3);
    }

    #[test]
    fn backend_selection_is_bit_identical_across_kernels() {
        // The same graph, selected three ways, produces identical runs
        // apart from the recorded choices.
        let input = Shape::feature_map(6, 6, 3);
        let build = || {
            let mut g = QGraph::with_input(input, BitWidth::W8);
            g.push("dw", depthwise(3, 1));
            g.push("pw", pointwise(3, 8, 2));
            g.push("pool", QAvgPool);
            g
        };
        let reference = build();
        let mut tiled = build();
        tiled.select_kernels(&crate::TiledBackend::default());
        assert_eq!(
            tiled.kernel_choices(),
            vec![
                KernelChoice::DirectConv,
                KernelChoice::BlockedGemm,
                KernelChoice::DirectConv
            ]
        );
        let codes: Vec<u8> = (0..input.volume()).map(|i| (i % 17) as u8).collect();
        let x = QActivation::from_codes(input, &codes, BitWidth::W8, 2);
        let a = reference.run(x.clone());
        let b = tiled.run(x);
        assert_eq!(a.output, b.output);
        assert_eq!(a.peak_live_bytes, b.peak_live_bytes);
        assert_eq!(b.layers[1].choice, KernelChoice::BlockedGemm);
        assert_eq!(a.layers[1].choice, KernelChoice::DirectConv);
        // Pointwise convs have no padded taps, so the MAC and requant
        // counts agree between the direct and GEMM dataflows (the load
        // ledger legitimately differs: im2col touches each input element
        // once, the direct loop once per MAC).
        assert_eq!(a.layers[1].ops.macs, b.layers[1].ops.macs);
        assert_eq!(a.layers[1].ops.requants, b.layers[1].ops.requants);
    }

    #[test]
    fn push_with_selects_at_build_time() {
        let input = Shape::feature_map(5, 5, 2);
        let mut g = QGraph::with_input(input, BitWidth::W8);
        g.push("dw", depthwise(2, 1));
        let pw = g.push("pw", pointwise(2, 4, 1));
        g.push_node("res", identity_add(), &[pw, pw]);
        g.select_kernels(&crate::TiledBackend::default());
        assert_eq!(
            g.kernel_choices(),
            vec![
                KernelChoice::DirectConv,
                KernelChoice::BlockedGemm,
                KernelChoice::DirectConv
            ]
        );
        assert_eq!(g.input_decl(), Some((input, BitWidth::W8)));
        assert_eq!(g.nodes()[1].choice(), KernelChoice::BlockedGemm);
    }

    #[test]
    #[should_panic(expected = "declared graph input")]
    fn push_with_requires_declared_input() {
        let mut g = QGraph::new();
        g.push("pw", pointwise(2, 4, 1));
        g.select_kernels(&crate::TiledBackend::default());
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn unsupported_backend_choice_is_rejected() {
        struct GemmEverywhere;
        impl crate::Backend for GemmEverywhere {
            fn name(&self) -> &'static str {
                "gemm-everywhere"
            }
            fn select(
                &self,
                _op: &AnyOp,
                _inputs: &[Shape],
                _in_bits: &[BitWidth],
            ) -> KernelChoice {
                KernelChoice::BlockedGemm
            }
        }
        let input = Shape::feature_map(5, 5, 2);
        let mut g = QGraph::with_input(input, BitWidth::W8);
        g.push("dw", depthwise(2, 1));
        // Depthwise has no GEMM lowering: the selection must be rejected.
        g.select_kernels(&GemmEverywhere);
    }

    #[test]
    #[should_panic(expected = "terminal node")]
    fn head_must_be_terminal() {
        let head = QLinear::new(
            QConvWeights::new(
                Shape::new(2, 1, 1, 3),
                false,
                &[1; 6],
                BitWidth::W8,
                WeightOffset::PerLayer(0),
            ),
            vec![0, 0],
            None,
        );
        let mut graph = QGraph::new();
        graph.push("fc", head);
        graph.push("pool", QAvgPool);
        let x = QActivation::from_codes(Shape::new(1, 1, 1, 3), &[1, 2, 3], BitWidth::W8, 0);
        let _ = graph.run(x);
    }

    #[test]
    #[should_panic(expected = "not defined yet")]
    fn forward_references_are_rejected() {
        let mut graph = QGraph::new();
        graph.push_node("dw", depthwise(2, 1), &[1]);
    }

    #[test]
    #[should_panic(expected = "arity-2")]
    fn add_arity_is_enforced() {
        let mut graph = QGraph::new();
        graph.push_node("res", identity_add(), &[0]);
    }

    #[test]
    fn head_terminated_graph_yields_logits() {
        let head = QLinear::new(
            QConvWeights::new(
                Shape::new(2, 1, 1, 2),
                false,
                &[1, 0, 0, 1],
                BitWidth::W8,
                WeightOffset::PerLayer(0),
            ),
            vec![10, 20],
            None,
        );
        let mut graph = QGraph::new();
        graph.push("pool", QAvgPool);
        graph.push("fc", head.clone());
        let shape = Shape::feature_map(2, 2, 2);
        let x = QActivation::from_codes(shape, &[4, 8, 4, 8, 4, 8, 4, 8], BitWidth::W8, 0);
        let run = graph.run(x.clone());
        // Pool → [4, 8]; identity weights + bias.
        assert_eq!(run.clone().into_logits(), vec![14, 28]);
        assert!(run.output.is_none());
        // Ledger bytes: head output is 4 bytes per class.
        assert_eq!(run.layers.last().unwrap().out_bytes, 8);
        assert_eq!(run.layers.last().unwrap().kind, OpKind::Linear);
        // Head accounting hooks.
        assert_eq!(
            head.output_bytes(&[Shape::new(1, 1, 1, 2)], &[BitWidth::W8]),
            8
        );
        assert_eq!(
            QOp::output_shape(&head, &[Shape::new(1, 1, 1, 2)]),
            Shape::new(1, 1, 1, 2)
        );
    }
}
