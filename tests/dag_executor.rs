//! DAG-executor guarantees: residual (MobileNetV2-style) networks train,
//! convert and run integer inference end to end through `QGraph`; the
//! liveness planner's `peak_ram_bytes` matches the executor's measured
//! high-water mark on both chain and residual graphs; parallel batch
//! evaluation is bit-identical to the sequential path; and saturated-INT16
//! threshold deployments execute.

use mixq::core::convert::{convert, scheme_granularity, IntNetwork};
use mixq::core::memory::QuantScheme;
use mixq::core::pipeline::prediction_agreement;
use mixq::data::{Dataset, DatasetSpec, SyntheticKind};
use mixq::kernels::{AnyOp, OpKind, QOp};
use mixq::mcu::CortexM7CycleModel;
use mixq::models::micro::mobilenet_like_residual;
use mixq::nn::qat::{BlockSpec, MicroCnnSpec, QatNetwork};
use mixq::nn::train::{train, TrainConfig};
use mixq::nn::ConvKind;
use mixq::quant::BitWidth;

fn residual_micro_spec() -> MicroCnnSpec {
    // Stem + depthwise/pointwise pair at constant shape, with an identity
    // skip around the pair — one MobileNetV2-ish bottleneck.
    let std_block = |c: usize, kernel: usize| BlockSpec {
        out_channels: c,
        stride: 1,
        kind: ConvKind::Standard,
        kernel,
    };
    let dw_block = |c: usize| BlockSpec {
        out_channels: c,
        stride: 1,
        kind: ConvKind::Depthwise,
        kernel: 3,
    };
    MicroCnnSpec::new(10, 10, 2, 3, &[6])
        .with_blocks(vec![std_block(6, 3), dw_block(6), std_block(6, 1)])
        .with_residual(0, 2)
}

fn dataset() -> Dataset {
    DatasetSpec::new(SyntheticKind::Bars, 10, 10, 2, 3)
        .with_samples(60)
        .with_noise(0.05)
        .generate(41)
}

fn trained_residual(scheme: QuantScheme, bits: BitWidth) -> (QatNetwork, IntNetwork, Dataset) {
    let ds = dataset();
    let spec = residual_micro_spec();
    let mut net = QatNetwork::build(&spec, 61);
    let _ = train(&mut net, &ds, &TrainConfig::fast(4));
    net.calibrate_input(ds.images());
    net.enable_fake_quant(scheme_granularity(scheme));
    for i in 0..net.num_blocks() {
        net.set_weight_bits(i, bits);
    }
    net.set_linear_weight_bits(bits);
    let _ = train(&mut net, &ds, &TrainConfig::fast(3));
    let int_net = convert(&net, scheme).expect("residual network converts");
    (net, int_net, ds)
}

/// The acceptance bar of the DAG refactor: a trained residual network
/// lowers onto the graph with a `QAdd` join and its integer predictions
/// track the fake-quantized network, while the add node's ledger is priced
/// by the cycle model.
#[test]
fn residual_network_lowers_and_agrees() {
    let (net, int_net, ds) = trained_residual(QuantScheme::PerChannelIcn, BitWidth::W8);
    // Topology: 3 convs + add + pool + head.
    assert_eq!(int_net.graph().len(), 6);
    let adds: Vec<_> = int_net
        .graph()
        .nodes()
        .iter()
        .filter(|n| matches!(n.op(), AnyOp::Add(_)))
        .collect();
    assert_eq!(adds.len(), 1);
    // The join consumes the pair's pointwise output and the stem output.
    assert_eq!(adds[0].inputs(), &[3, 1]);

    let agreement = prediction_agreement(&net, &int_net, &ds);
    assert!(
        agreement > 0.85,
        "integer residual graph diverged: {agreement}"
    );

    // The add node's ledger: requantization traffic, zero MACs, and the
    // cycle model prices it.
    let run = int_net.infer_detailed(&ds.sample(0).images);
    let add_run = run
        .layers
        .iter()
        .find(|l| l.kind == OpKind::Add)
        .expect("add node executed");
    assert_eq!(add_run.ops.macs, 0);
    assert!(add_run.ops.requants > 0);
    let model = CortexM7CycleModel::default();
    let breakdown = model.breakdown_from_runs(&run.layers);
    let add_latency = breakdown
        .iter()
        .zip(&run.layers)
        .find(|(_, l)| l.kind == OpKind::Add)
        .expect("add priced")
        .0;
    assert!(add_latency.cycles > 0);
    assert_eq!(
        breakdown.iter().map(|l| l.cycles).sum::<u64>(),
        model.cycles_from_runs(&run.layers)
    );
}

/// Planner-reported peak RAM must match the measured high-water mark on
/// both chain and residual graphs — and the residual skip must actually
/// cost RAM beyond the chain's double-buffered pair.
#[test]
fn planner_peak_matches_measured_high_water_mark() {
    // Residual graph.
    let (_, int_net, ds) = trained_residual(QuantScheme::PerChannelIcn, BitWidth::W8);
    let run = int_net.infer_detailed(&ds.sample(0).images);
    assert_eq!(run.peak_live_bytes, int_net.peak_ram_bytes());

    // Chain graph (no residual): same invariant.
    let spec = MicroCnnSpec::separable(8, 8, 2, 3, &[4, 6]);
    let mut net = QatNetwork::build(&spec, 55);
    let ds8 = DatasetSpec::new(SyntheticKind::Bars, 8, 8, 2, 3)
        .with_samples(32)
        .generate(29);
    let _ = train(&mut net, &ds8, &TrainConfig::fast(2));
    net.calibrate_input(ds8.images());
    net.enable_fake_quant(scheme_granularity(QuantScheme::PerChannelIcn));
    let chain = convert(&net, QuantScheme::PerChannelIcn).expect("convertible");
    let chain_run = chain.infer_detailed(&ds8.sample(0).images);
    assert_eq!(chain_run.peak_live_bytes, chain.peak_ram_bytes());
}

/// A trained MobileNet-like model with residual bottlenecks lowers through
/// all 27 conv layers plus the `QAdd` joins and runs integer inference end
/// to end.
#[test]
fn mobilenet_like_residual_runs_integer_inference_end_to_end() {
    let spec = mobilenet_like_residual(32, 2, 8, 3);
    assert!(!spec.residuals().is_empty(), "variant declares skips");
    let ds = DatasetSpec::new(SyntheticKind::Bars, 32, 32, 2, 3)
        .with_samples(12)
        .with_noise(0.05)
        .generate(77);
    let mut net = QatNetwork::build(&spec, 99);
    assert_eq!(net.num_blocks(), 27, "MobileNetV1 stem + 13 pairs");
    let _ = train(&mut net, &ds, &TrainConfig::fast(1));
    net.calibrate_input(ds.images());
    net.enable_fake_quant(scheme_granularity(QuantScheme::PerChannelIcn));
    let _ = train(&mut net, &ds, &TrainConfig::fast(1));
    let int_net = convert(&net, QuantScheme::PerChannelIcn).expect("mobilenet converts");

    let adds = int_net
        .graph()
        .nodes()
        .iter()
        .filter(|n| matches!(n.op(), AnyOp::Add(_)))
        .count();
    assert_eq!(adds, spec.residuals().len());
    assert_eq!(int_net.graph().len(), 27 + adds + 2);
    assert_eq!(int_net.layers().len(), 27);

    let run = int_net.infer_detailed(&ds.sample(0).images);
    assert_eq!(run.layers.len(), int_net.graph().len());
    assert_eq!(run.clone().into_logits().len(), 3);
    assert_eq!(run.peak_live_bytes, int_net.peak_ram_bytes());
    assert!(run.total_ops().macs > 0);
    // Flash accounting covers the adds too.
    let node_sum: usize = int_net
        .graph()
        .nodes()
        .iter()
        .map(|n| QOp::flash_bytes(n.op()))
        .sum();
    assert_eq!(int_net.flash_bytes(), node_sum);
}

/// Batched evaluation must reproduce the single-sample accuracy and op
/// ledger exactly, for batch sizes that divide the dataset, ones that
/// leave a partial final batch, and one larger than the dataset.
#[test]
fn batched_evaluate_is_identical_to_single_sample() {
    let (_, int_net, ds) = trained_residual(QuantScheme::PerChannelIcn, BitWidth::W4);
    let single = int_net.evaluate(&ds);
    for batch in [4, 7, 64] {
        assert_eq!(int_net.evaluate_with(&ds, batch), single, "batch {batch}");
    }
}

/// Saturating the threshold tables to INT16 yields a runnable deployment;
/// on a micro net whose thresholds fit INT16 it is lossless, and the
/// rewrite leaves non-threshold schemes untouched.
#[test]
fn saturated_threshold_deployment_executes() {
    let (_, thr, ds) = trained_residual(QuantScheme::PerChannelThresholds, BitWidth::W4);
    let sat = thr.with_saturated_thresholds();
    let (acc_full, _) = thr.evaluate(&ds);
    let (acc_sat, _) = sat.evaluate(&ds);
    // The saturated deployment runs end to end; accuracy may only degrade.
    assert!(acc_sat <= acc_full + 1e-6);
    assert!(acc_sat >= 0.0);
    // ICN networks carry no tables: the rewrite is the identity.
    let (_, icn, _) = trained_residual(QuantScheme::PerChannelIcn, BitWidth::W4);
    assert_eq!(icn.with_saturated_thresholds(), icn);
}
