//! Microbenchmarks of the integer kernels (the substrate behind Figure 2's
//! latency axis): convolution at 8/4/2-bit operands, depthwise vs
//! pointwise, ICN vs thresholds requantization, the direct loop vs the
//! blocked GEMM (run through `QOp::execute_kernel`, the executor's one
//! dispatch point) and its per-phase breakdown — plus the `QGraph`
//! executor against a hand-rolled layer loop.
//!
//! These measure *host* time with the benches' one timer,
//! `harness::measure` (median [p10–p90] over `n` runs; the shape under
//! test is relative, not absolute). The MCU latency itself comes
//! from the cycle model. Expected shape: sub-byte kernels pay an unpack
//! cost, per-channel offsets cost extra work, thresholds replace
//! multiplies with comparisons.
//!
//! Run with: `cargo bench --bench kernel_microbench`

use std::hint::black_box;

use mixq_bench::harness::{backend_arg, batch_arg, measure, Measurement};
use mixq_kernels::{
    ActivationArena, Backend, KernelChoice, OpCounts, OpOutput, QActivation, QAvgPool, QConv2d,
    QConvWeights, QGraph, QOp, Requantizer, ThresholdChannel, WeightOffset,
};
use mixq_quant::{BitWidth, FixedPointMultiplier};
use mixq_tensor::{ConvGeometry, Padding, Shape};

/// One blocked-GEMM execution of `conv` through the executor's dispatch
/// point, with per-call panel packing and a fresh arena.
fn blocked(conv: &QConv2d, x: &QActivation) -> OpOutput {
    let mut ops = OpCounts::default();
    conv.execute_kernel(
        KernelChoice::BlockedGemm,
        None,
        &[x],
        &mut ActivationArena::new(),
        &mut ops,
    )
}

fn report(group: &str, name: &str, us: Measurement) {
    println!("{group:>18} / {name:<14} {us:>32} µs");
}

fn conv_layer(weight_bits: BitWidth, per_channel: bool, thresholds: bool) -> QConv2d {
    let co = 16;
    let ci = 16;
    let wshape = Shape::new(co, 3, 3, ci);
    let codes: Vec<u8> = (0..wshape.volume())
        .map(|i| (i % weight_bits.levels() as usize) as u8)
        .collect();
    let offset = if per_channel {
        WeightOffset::PerChannel(vec![1i16; co])
    } else {
        WeightOffset::PerLayer(1)
    };
    let weights = QConvWeights::new(wshape, false, &codes, weight_bits, offset);
    let requant = if thresholds {
        Requantizer::thresholds(
            (0..co)
                .map(|c| ThresholdChannel::from_affine(0.002 + c as f64 * 1e-4, 3, 0, BitWidth::W4))
                .collect(),
            0,
            BitWidth::W4,
        )
    } else {
        Requantizer::icn(
            vec![3; co],
            vec![FixedPointMultiplier::from_real(0.002); co],
            0,
            BitWidth::W4,
        )
    };
    QConv2d::new(weights, ConvGeometry::new(3, 3, 1, Padding::Same), requant)
}

fn input(bits: BitWidth) -> QActivation {
    let shape = Shape::feature_map(16, 16, 16);
    let codes: Vec<u8> = (0..shape.volume())
        .map(|i| (i % bits.levels() as usize) as u8)
        .collect();
    QActivation::from_codes(shape, &codes, bits, 0)
}

const SAMPLES: usize = 20;

fn bench_conv_bitwidths() {
    for bits in [BitWidth::W8, BitWidth::W4, BitWidth::W2] {
        let conv = conv_layer(bits, false, false);
        let x = input(BitWidth::W8);
        let us = measure(SAMPLES, || {
            let mut ops = OpCounts::default();
            conv.execute(black_box(&x), &mut ops)
        });
        report("conv16x16x16_3x3", &format!("weights_{bits}"), us);
    }
}

fn bench_pc_vs_pl() {
    for (name, per_channel) in [("per_layer", false), ("per_channel", true)] {
        let conv = conv_layer(BitWidth::W8, per_channel, false);
        let x = input(BitWidth::W8);
        let us = measure(SAMPLES, || {
            let mut ops = OpCounts::default();
            conv.execute(black_box(&x), &mut ops)
        });
        report("offset_mode", name, us);
    }
}

fn bench_requant_modes() {
    for (name, thresholds) in [("icn", false), ("thresholds", true)] {
        let conv = conv_layer(BitWidth::W4, true, thresholds);
        let x = input(BitWidth::W4);
        let us = measure(SAMPLES, || {
            let mut ops = OpCounts::default();
            conv.execute(black_box(&x), &mut ops)
        });
        report("requant_mode", name, us);
    }
}

fn icn_identity(co: usize, bits: BitWidth) -> Requantizer {
    Requantizer::icn(
        vec![0; co],
        vec![FixedPointMultiplier::from_real(0.01); co],
        0,
        bits,
    )
}

fn depthwise(co: usize) -> QConv2d {
    let w = QConvWeights::new(
        Shape::new(co, 3, 3, 1),
        true,
        &vec![1u8; co * 9],
        BitWidth::W8,
        WeightOffset::PerLayer(0),
    );
    QConv2d::new(
        w,
        ConvGeometry::new(3, 3, 1, Padding::Same),
        icn_identity(co, BitWidth::W8),
    )
}

/// A 3×3 depthwise layer with W4 weights and per-channel zero-points, as
/// the mixed-precision deployments cut them.
fn depthwise_w4(co: usize) -> QConv2d {
    let w = QConvWeights::new(
        Shape::new(co, 3, 3, 1),
        true,
        &(0..co * 9).map(|i| (i % 16) as u8).collect::<Vec<_>>(),
        BitWidth::W4,
        WeightOffset::PerChannel((0..co).map(|c| (c % 3) as i16 + 6).collect()),
    );
    QConv2d::new(
        w,
        ConvGeometry::new(3, 3, 1, Padding::Same),
        icn_identity(co, BitWidth::W8),
    )
}

fn pointwise(co: usize) -> QConv2d {
    let w = QConvWeights::new(
        Shape::new(co, 1, 1, co),
        false,
        &vec![1u8; co * co],
        BitWidth::W8,
        WeightOffset::PerLayer(0),
    );
    QConv2d::new(w, ConvGeometry::pointwise(), icn_identity(co, BitWidth::W8))
}

/// Times `op` as a graph node runs it: through `QOp::execute_kernel` with
/// `choice`, its prepacked weight cache and a warmed arena that recycles
/// each output.
fn time_node(op: &impl QOp, choice: KernelChoice, x: &QActivation) -> Measurement {
    let (cache, _) = op.prepack(choice);
    let mut arena = ActivationArena::new();
    let mut ops = OpCounts::default();
    measure(SAMPLES, || {
        match op.execute_kernel(
            choice,
            cache.as_ref(),
            &[black_box(x)],
            &mut arena,
            &mut ops,
        ) {
            OpOutput::Act(a) => arena.recycle(a),
            OpOutput::Logits(_) => unreachable!("conv and pool nodes produce activations"),
        }
    })
}

/// Depthwise vs pointwise vs pooling over one 16×16×32 map, each through
/// the kernel its graph node runs. The depthwise rows (W4 weights,
/// per-channel zero-points) take the tap kernel at an 8-bit and at a
/// 4-bit input (the latter unpacked once per call).
fn bench_depthwise_vs_pointwise() {
    let co = 32;
    let dw = depthwise_w4(co);
    let pw = pointwise(co);
    let shape = Shape::feature_map(16, 16, co);
    for (name, bits) in [
        ("depthwise_3x3", BitWidth::W8),
        ("dw_3x3_w4_in", BitWidth::W4),
    ] {
        let codes: Vec<u8> = (0..shape.volume())
            .map(|i| (i % bits.levels() as usize) as u8)
            .collect();
        let x = QActivation::from_codes(shape, &codes, bits, 3);
        report(
            "dw_vs_pw",
            name,
            time_node(&dw, KernelChoice::DirectConv, &x),
        );
    }
    let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 256) as u8).collect();
    let x = QActivation::from_codes(shape, &codes, BitWidth::W8, 0);
    report(
        "dw_vs_pw",
        "pointwise_1x1",
        time_node(&pw, KernelChoice::BlockedGemm, &x),
    );
    report(
        "dw_vs_pw",
        "avgpool",
        time_node(&QAvgPool, KernelChoice::DirectConv, &x),
    );
}

/// The two dense-convolution dataflows head to head: the direct
/// output-stationary loop and the im2col + register-blocked GEMM.
fn bench_conv_dataflows() {
    let co = 32;
    let pw = pointwise(co);
    let shape = Shape::feature_map(16, 16, co);
    let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 256) as u8).collect();
    let x = QActivation::from_codes(shape, &codes, BitWidth::W8, 0);
    let us = measure(SAMPLES, || {
        let mut ops = OpCounts::default();
        pw.execute(black_box(&x), &mut ops)
    });
    report("conv_dataflow", "direct", us);
    let us = measure(SAMPLES, || blocked(&pw, black_box(&x)));
    report("conv_dataflow", "blocked_gemm", us);
}

/// Per-phase breakdown of the blocked-GEMM dataflow: where does a layer's
/// time actually go between the im2col gather, the dot-product core, the
/// requantization epilogue and the sub-byte pack/unpack? The phases are
/// timed in isolation with the same operands the fused kernel sees, so
/// the section shows directly what the vectorized epilogue and the SIMD
/// pack/unpack kernels removed from the post-GEMM tail (force
/// `MIXQ_FORCE_SCALAR=1` to compare against the scalar reference).
fn bench_phase_breakdown() {
    use mixq_kernels::simd::{self, requant as vreq};
    use mixq_quant::PackedTensor;

    let conv = conv_layer(BitWidth::W4, true, false);
    let x4 = input(BitWidth::W4);
    let x8 = input(BitWidth::W8);
    let out_shape = conv.output_shape(x8.shape());
    let pixels = out_shape.pixels();
    let co = out_shape.c;
    let level = simd::active_level();

    // Phase 1: the im2col gather (sub-byte input → exercises the staged
    // one-shot SIMD decode; 8-bit input → the pure memcpy gather).
    let mut scratch = Vec::new();
    for (name, x) in [("im2col_w4_in", &x4), ("im2col_w8_in", &x8)] {
        let us = measure(SAMPLES, || {
            let mut ops = OpCounts::default();
            conv.im2col_into(black_box(x), &mut scratch, None, &mut ops);
            ops
        });
        report("phase_breakdown", name, us);
    }

    // Phase 2: the full blocked GEMM (dot-product core + fused epilogue).
    let us = measure(SAMPLES, || blocked(&conv, black_box(&x8)));
    report("phase_breakdown", "gemm_blocked", us);

    // Phase 3: the requantization epilogue alone, over exactly the
    // accumulator volume the layer produces.
    let accs: Vec<i32> = (0..pixels * co).map(|i| (i as i32 % 4093) - 2046).collect();
    let plan = conv.plan();
    let req = conv.requant();
    let mut codes = vec![0u8; pixels * co];
    let us = measure(SAMPLES, || {
        let (mut rq, mut tc) = (0u64, 0u64);
        for p in 0..pixels {
            vreq::apply_i32_block(
                plan,
                req,
                level,
                0,
                black_box(&accs[p * co..(p + 1) * co]),
                &mut codes[p * co..(p + 1) * co],
                &mut rq,
                &mut tc,
            );
        }
        rq
    });
    report("phase_breakdown", "requant_epilogue", us);
    let us = measure(SAMPLES, || {
        let (mut rq, mut tc) = (0u64, 0u64);
        for (i, &a) in accs.iter().enumerate() {
            codes[i] = req.apply(i % co, black_box(a) as i64, &mut rq, &mut tc);
        }
        rq
    });
    report("phase_breakdown", "requant_scalar", us);

    // Phase 4: sub-byte pack/unpack of the produced code volume.
    let mut packed = Vec::new();
    let us = measure(SAMPLES, || {
        packed =
            PackedTensor::pack_into(black_box(&codes), BitWidth::W4, std::mem::take(&mut packed))
                .into_bytes();
        packed.len()
    });
    report("phase_breakdown", "pack_w4", us);
    let tensor = PackedTensor::pack(&codes, BitWidth::W4);
    let mut unpacked = vec![0u8; codes.len()];
    let us = measure(SAMPLES, || tensor.unpack_into(black_box(&mut unpacked)));
    report("phase_breakdown", "unpack_w4", us);
}

/// The graph executor's arena (reused output buffers) against the naive
/// per-layer loop that allocates a fresh activation every layer, under the
/// `--backend` flag's kernel selection.
fn bench_graph_vs_loop() {
    let co = 32;
    let layers = vec![depthwise(co), pointwise(co), depthwise(co), pointwise(co)];
    let shape = Shape::feature_map(16, 16, co);
    let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 256) as u8).collect();
    let x = QActivation::from_codes(shape, &codes, BitWidth::W8, 0);

    let backend = backend_arg();
    let mut graph = QGraph::with_input(shape, BitWidth::W8);
    for (i, l) in layers.iter().enumerate() {
        graph.push(format!("blk{i}"), l.clone());
    }
    graph.select_kernels(&backend);
    let us = measure(SAMPLES, || {
        let run = graph.run(black_box(x.clone()));
        run.total_ops()
    });
    report("graph_executor", &format!("qgraph_{}", backend.name()), us);

    // Batch-N walk under the --batch flag: one graph traversal for the
    // whole batch, per-sample time reported.
    let batch = batch_arg();
    let batched_shape = shape.with_batch(batch);
    let batched_codes: Vec<u8> = (0..batched_shape.volume())
        .map(|i| (i % 256) as u8)
        .collect();
    let xb = QActivation::from_codes(batched_shape, &batched_codes, BitWidth::W8, 0);
    let us = measure(SAMPLES, || {
        let run = graph.run(black_box(xb.clone()));
        run.total_ops()
    })
    .per_item(batch as f64);
    report(
        "graph_executor",
        &format!("qgraph_{}_batch{batch}_per_sample", backend.name()),
        us,
    );

    let us = measure(SAMPLES, || {
        let mut ops = OpCounts::default();
        let mut a = black_box(x.clone());
        for l in &layers {
            a = l.execute(&a, &mut ops);
        }
        ops
    });
    report("graph_executor", "naive_loop", us);
}

fn main() {
    println!("kernel microbench (median [p10–p90] of {SAMPLES} runs, host CPU)");
    bench_conv_bitwidths();
    bench_pc_vs_pl();
    bench_requant_modes();
    bench_depthwise_vs_pointwise();
    bench_conv_dataflows();
    bench_phase_breakdown();
    bench_graph_vs_loop();
}
