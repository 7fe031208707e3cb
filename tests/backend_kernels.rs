//! Backend / kernel-selection integration tests: the memory model and the
//! Cortex-M7 cycle model must agree with the kernel each node *actually*
//! selected — for both shipped backends — and execution must stay
//! bit-identical across selections.

use mixq::kernels::{
    im2col_scratch_bytes, AnyOp, Backend, KernelChoice, OpKind, QActivation, QAdd, QAvgPool,
    QConv2d, QConvWeights, QGraph, QLinear, QOp, ReferenceBackend, Requantizer, TiledBackend,
    WeightOffset,
};
use mixq::mcu::CortexM7CycleModel;
use mixq::quant::{BitWidth, FixedPointMultiplier};
use mixq::tensor::{ConvGeometry, Padding, Shape};

fn icn(co: usize, bits: BitWidth) -> Requantizer {
    Requantizer::icn(
        vec![1; co],
        vec![FixedPointMultiplier::from_real(0.01); co],
        0,
        bits,
    )
}

fn depthwise(c: usize) -> QConv2d {
    let shape = Shape::new(c, 3, 3, 1);
    let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 16) as u8).collect();
    QConv2d::new(
        QConvWeights::new(
            shape,
            true,
            &codes,
            BitWidth::W4,
            WeightOffset::PerChannel(vec![1; c]),
        ),
        ConvGeometry::new(3, 3, 1, Padding::Same),
        icn(c, BitWidth::W8),
    )
}

fn pointwise(ci: usize, co: usize) -> QConv2d {
    let shape = Shape::new(co, 1, 1, ci);
    let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 16) as u8).collect();
    QConv2d::new(
        QConvWeights::new(
            shape,
            false,
            &codes,
            BitWidth::W4,
            WeightOffset::PerChannel((0..co).map(|c| c as i16 % 3).collect()),
        ),
        ConvGeometry::pointwise(),
        icn(co, BitWidth::W8),
    )
}

fn dense3x3(ci: usize, co: usize) -> QConv2d {
    let shape = Shape::new(co, 3, 3, ci);
    let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 4) as u8).collect();
    QConv2d::new(
        QConvWeights::new(
            shape,
            false,
            &codes,
            BitWidth::W2,
            WeightOffset::PerLayer(1),
        ),
        ConvGeometry::new(3, 3, 1, Padding::Same),
        icn(co, BitWidth::W8),
    )
}

fn head(ci: usize, classes: usize) -> QLinear {
    let codes: Vec<u8> = (0..classes * ci).map(|i| (i % 7) as u8).collect();
    QLinear::new(
        QConvWeights::new(
            Shape::new(classes, 1, 1, ci),
            false,
            &codes,
            BitWidth::W4,
            WeightOffset::PerLayer(3),
        ),
        vec![5; classes],
        None,
    )
}

/// A residual depthwise-separable stack: stem conv, dw/pw pair with an
/// identity skip, pool, classifier.
fn residual_graph(input: Shape) -> QGraph {
    let mut g = QGraph::with_input(input, BitWidth::W8);
    let stem = g.push("stem", dense3x3(input.c, 4));
    let dw = g.push_node("dw", depthwise(4), &[stem]);
    let pw = g.push_node("pw", pointwise(4, 4), &[dw]);
    g.push_node(
        "res",
        QAdd::from_scales(1.0, 1.0, 1.0, 0, 0, 0, BitWidth::W8),
        &[pw, stem],
    );
    g.push("pool", QAvgPool);
    g.push("fc", head(4, 3));
    g
}

fn input_act(shape: Shape) -> QActivation {
    let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 19) as u8).collect();
    QActivation::from_codes(shape, &codes, BitWidth::W8, 2)
}

/// Recomputes `peak_scratch_bytes` from each node's actual choice by hand:
/// Blocked-GEMM convs price their im2col expansion, except the pointwise
/// identity path over an 8-bit input, which borrows the packed input
/// zero-copy.
fn manual_peak_scratch(g: &QGraph, input: Shape) -> usize {
    let mut shapes = vec![input];
    let mut bits = vec![BitWidth::W8];
    let mut peak = 0usize;
    for node in g.nodes() {
        let in_shapes: Vec<Shape> = node.inputs().iter().map(|&t| shapes[t]).collect();
        let in_bits: Vec<BitWidth> = node.inputs().iter().map(|&t| bits[t]).collect();
        let expansion = match (node.op(), node.choice()) {
            (AnyOp::Conv(c), KernelChoice::BlockedGemm) if !c.blocked_borrows_input(in_bits[0]) => {
                im2col_scratch_bytes(c, in_shapes[0])
            }
            _ => 0,
        };
        peak = peak.max(expansion);
        shapes.push(node.op().output_shape(&in_shapes));
        bits.push(node.op().out_bits(&in_bits));
    }
    peak
}

#[test]
fn cycle_model_agrees_with_selected_kernels_for_both_backends() {
    let input = Shape::feature_map(8, 8, 2);
    let model = CortexM7CycleModel::default();
    for backend in [
        &ReferenceBackend as &dyn Backend,
        &TiledBackend::default() as &dyn Backend,
    ] {
        let mut g = residual_graph(input);
        g.select_kernels(backend);
        let run = g.run(input_act(input));
        let breakdown = model.breakdown_from_runs(&run.layers);
        for (layer, latency) in run.layers.iter().zip(&breakdown) {
            // The breakdown prices exactly the kernel the node selected.
            assert_eq!(
                latency.cycles,
                model.kernel_cycles(layer.kind, layer.choice, &layer.ops),
                "{} ({}, {})",
                layer.name,
                backend.name(),
                layer.choice
            );
        }
        assert_eq!(
            model.cycles_from_runs(&run.layers),
            breakdown.iter().map(|l| l.cycles).sum::<u64>()
        );
        // The run records the graph's resolved choices node for node.
        let recorded: Vec<KernelChoice> = run.layers.iter().map(|l| l.choice).collect();
        assert_eq!(recorded, g.kernel_choices(), "{}", backend.name());
    }
}

#[test]
fn tiled_selection_lowers_cycles_on_dense_convs_only() {
    let input = Shape::feature_map(8, 8, 2);
    let reference = residual_graph(input);
    let mut tiled = residual_graph(input);
    tiled.select_kernels(&TiledBackend::default());
    assert_eq!(
        tiled.kernel_choices(),
        vec![
            KernelChoice::BlockedGemm, // stem: dense 3x3
            KernelChoice::DirectConv,  // depthwise
            KernelChoice::BlockedGemm, // pointwise
            KernelChoice::DirectConv,  // residual add
            KernelChoice::DirectConv,  // pool
            KernelChoice::DirectConv,  // head
        ]
    );
    let model = CortexM7CycleModel::default();
    let run_ref = reference.run(input_act(input));
    let run_tiled = tiled.run(input_act(input));
    let br_ref = model.breakdown_from_runs(&run_ref.layers);
    let br_tiled = model.breakdown_from_runs(&run_tiled.layers);
    // The pointwise node has no padded taps: same MACs, cheaper rate.
    assert_eq!(run_ref.layers[2].ops.macs, run_tiled.layers[2].ops.macs);
    assert!(
        br_tiled[2].cycles < br_ref[2].cycles,
        "blocked GEMM must model cheaper than direct: {} vs {}",
        br_tiled[2].cycles,
        br_ref[2].cycles
    );
    // Single-kernel ops are priced identically under both backends.
    for i in [1usize, 3, 4, 5] {
        assert_eq!(br_ref[i].cycles, br_tiled[i].cycles, "node {i}");
        assert_ne!(run_ref.layers[i].kind, OpKind::Conv);
    }
}

#[test]
fn scratch_and_ram_models_track_actual_selection() {
    let input = Shape::feature_map(8, 8, 2);
    for backend in [
        &ReferenceBackend as &dyn Backend,
        &TiledBackend::default() as &dyn Backend,
    ] {
        let mut g = residual_graph(input);
        g.select_kernels(backend);
        assert_eq!(
            g.peak_scratch_bytes(input, BitWidth::W8),
            manual_peak_scratch(&g, input),
            "{}",
            backend.name()
        );
        // Eq. 7 peak RAM is dataflow-independent: live activations do not
        // change with the kernel choice, and the measured high-water mark
        // agrees exactly under both backends.
        let run = g.run(input_act(input));
        assert_eq!(
            run.peak_live_bytes,
            g.peak_ram_bytes(input, BitWidth::W8),
            "{}",
            backend.name()
        );
    }
    // Concrete scratch numbers: reference prices nothing; tiled prices the
    // stem's 3×3 expansion (64 pixels × 9 taps × 2 channels) — the
    // pointwise node borrows its 8-bit input zero-copy and prices zero.
    let reference = residual_graph(input);
    assert_eq!(reference.peak_scratch_bytes(input, BitWidth::W8), 0);
    let mut tiled = residual_graph(input);
    tiled.select_kernels(&TiledBackend::default());
    assert_eq!(tiled.peak_scratch_bytes(input, BitWidth::W8), 8 * 8 * 9 * 2);
}

#[test]
fn prepack_caches_follow_the_selected_kernel() {
    use mixq::kernels::PrepackedWeights;
    let input = Shape::feature_map(8, 8, 2);
    let mut g = residual_graph(input);
    g.select_kernels(&TiledBackend::default());
    // BlockedGemm convs cache interleaved panels; direct sub-byte ops
    // (depthwise, head) cache decoded codes; weight-free ops cache nothing.
    let caches: Vec<Option<&PrepackedWeights>> = g.nodes().iter().map(|n| n.prepacked()).collect();
    assert!(
        matches!(caches[0], Some(PrepackedWeights::Panels(_))),
        "stem"
    );
    assert!(
        matches!(caches[1], Some(PrepackedWeights::Codes(_))),
        "dw (W4)"
    );
    assert!(matches!(caches[2], Some(PrepackedWeights::Panels(_))), "pw");
    assert!(caches[3].is_none(), "residual add has no weights");
    assert!(caches[4].is_none(), "pool has no weights");
    assert!(
        matches!(caches[5], Some(PrepackedWeights::Codes(_))),
        "fc (W4)"
    );
    // One-time packing ledgers exist exactly where a cache exists, and the
    // cycle model reports them separately from the steady state.
    let run = g.run(input_act(input));
    let model = CortexM7CycleModel::default();
    let breakdown = model.breakdown_from_runs(&run.layers);
    for (node, (lr, lat)) in g.nodes().iter().zip(run.layers.iter().zip(&breakdown)) {
        assert_eq!(lr.prepack, node.prepack_ops(), "{}", node.name());
        assert_eq!(
            lat.one_time_cycles,
            model.prepack_cycles(&lr.prepack),
            "{}",
            node.name()
        );
        assert_eq!(
            node.prepacked().is_some(),
            node.prepack_ops() != Default::default()
        );
    }
    assert!(model.one_time_packing_cycles(&run.layers) > 0);
    assert!(g.prepacked_bytes() > 0);
}

#[test]
fn scratch_limited_backend_falls_back_to_direct() {
    let input = Shape::feature_map(8, 8, 2);
    // A ceiling below the stem's expansion but above the pointwise one:
    // the backend must lower only the pointwise conv.
    let limited = TiledBackend::default().with_scratch_limit(300);
    let mut g = residual_graph(input);
    g.select_kernels(&limited);
    assert_eq!(g.kernel_choices()[0], KernelChoice::DirectConv);
    assert_eq!(g.kernel_choices()[2], KernelChoice::BlockedGemm);
    assert!(g.peak_scratch_bytes(input, BitWidth::W8) <= 300);
    // Still bit-identical to the unconstrained selections.
    let full = residual_graph(input);
    assert_eq!(
        g.run(input_act(input)).logits,
        full.run(input_act(input)).logits
    );
}
