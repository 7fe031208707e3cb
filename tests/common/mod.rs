//! Shared helpers for the integration tests: lowering a shape-level
//! [`NetworkSpec`] onto a real executor [`QGraph`] with dummy (all-zero)
//! weights, so planner-vs-assignment agreement can be checked without
//! training a network, and running one op through the executor's single
//! kernel dispatch point.

// Each test binary compiles its own copy; not all of them use every helper.
#![allow(dead_code)]

use mixq::core::mixed::BitAssignment;
use mixq::kernels::{
    ActivationArena, KernelChoice, OpCounts, OpOutput, PrepackedWeights, QActivation, QAdd,
    QAvgPool, QConv2d, QConvWeights, QGraph, QLinear, QOp, Requantizer, WeightOffset,
};
use mixq::models::{LayerKind, NetworkSpec};
use mixq::quant::{BitWidth, FixedPointMultiplier};
use mixq::tensor::{ConvGeometry, Padding, Shape};

fn identity_requant(channels: usize, bits: BitWidth) -> Requantizer {
    Requantizer::icn(
        vec![0; channels],
        vec![FixedPointMultiplier::from_real(1.0); channels],
        0,
        bits,
    )
}

/// Lowers `spec` onto an executable [`QGraph`] with zeroed weights, wiring
/// conv, residual-add, pool and classifier nodes exactly as
/// `mixq::core::convert` does for a trained network, with every tensor at
/// the precision `assignment` gives it. The result is shape-faithful: its
/// `peak_ram_bytes` is the executor's verdict on the assignment.
pub fn lower_shape_graph(spec: &NetworkSpec, assignment: &BitAssignment) -> QGraph {
    let mut graph = QGraph::new();
    let mut cur = 0usize;
    let mut out_ids = Vec::with_capacity(spec.num_layers());
    for (i, layer) in spec.layers().iter().enumerate() {
        match layer.kind() {
            LayerKind::Linear => {
                graph.push("pool", QAvgPool);
                let w = QConvWeights::new(
                    Shape::new(layer.out_channels(), 1, 1, layer.in_channels()),
                    false,
                    &vec![0; layer.weight_elements()],
                    BitWidth::W4,
                    WeightOffset::PerLayer(0),
                );
                cur = graph.push("fc", QLinear::new(w, vec![0; layer.out_channels()], None));
            }
            kind => {
                let depthwise = kind == LayerKind::DepthwiseConv;
                let shape = if depthwise {
                    Shape::new(layer.out_channels(), layer.kernel(), layer.kernel(), 1)
                } else {
                    Shape::new(
                        layer.out_channels(),
                        layer.kernel(),
                        layer.kernel(),
                        layer.in_channels(),
                    )
                };
                let offset = if depthwise {
                    WeightOffset::PerChannel(vec![0; layer.out_channels()])
                } else {
                    WeightOffset::PerLayer(0)
                };
                let w = QConvWeights::new(
                    shape,
                    depthwise,
                    &vec![0; layer.weight_elements()],
                    BitWidth::W4,
                    offset,
                );
                let conv = QConv2d::new(
                    w,
                    ConvGeometry::new(
                        layer.kernel(),
                        layer.kernel(),
                        layer.stride(),
                        Padding::Same,
                    ),
                    identity_requant(layer.out_channels(), assignment.act_bits[i + 1]),
                );
                cur = graph.push_node(layer.name().to_owned(), conv, &[cur]);
                if let Some(s) = spec.skip_ending_at(i) {
                    let add = QAdd::from_scales(1.0, 1.0, 1.0, 0, 0, 0, assignment.res_bits[s]);
                    let skip_src = out_ids[spec.skips()[s].from()];
                    cur = graph.push_node(format!("add{i}"), add, &[cur, skip_src]);
                }
            }
        }
        out_ids.push(cur);
    }
    graph
}

/// The executor's peak-RAM verdict on `assignment`: the liveness-planned
/// high-water mark of the lowered graph (8-bit network input, as always).
pub fn lowered_peak_ram(spec: &NetworkSpec, assignment: &BitAssignment) -> usize {
    let input = spec.input();
    lower_shape_graph(spec, assignment).peak_ram_bytes(input, BitWidth::W8)
}

/// The chain-era pairwise Eq. 7 model (largest input+output pair), kept
/// here as the baseline the DAG-aware model is compared against: it is
/// blind to the skip tensor's extended live range.
pub fn pairwise_peak_bytes(spec: &NetworkSpec, assignment: &BitAssignment) -> usize {
    spec.layers()
        .iter()
        .enumerate()
        .map(|(i, l)| {
            assignment.act_bits[i].bytes_for(l.in_act_elements())
                + assignment.act_bits[i + 1].bytes_for(l.out_act_elements())
        })
        .max()
        .unwrap_or(0)
}

/// Runs `op` on `x` through [`QOp::execute_kernel`] — the one entry point
/// graph nodes execute through — with the given kernel choice and prepack
/// cache and a fresh arena, charging `ops`.
///
/// # Panics
///
/// Panics if the op produces logits rather than an activation.
pub fn run_kernel(
    op: &impl QOp,
    choice: KernelChoice,
    cache: Option<&PrepackedWeights>,
    x: &QActivation,
    ops: &mut OpCounts,
) -> QActivation {
    match op.execute_kernel(choice, cache, &[x], &mut ActivationArena::new(), ops) {
        OpOutput::Act(a) => a,
        OpOutput::Logits(_) => panic!("run_kernel expects an activation-producing op"),
    }
}
