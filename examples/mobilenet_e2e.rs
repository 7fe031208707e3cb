//! End-to-end integer inference of a trained MobileNet-like network with
//! residual bottlenecks: the full 27-conv-layer MobileNetV1 topology
//! (width-scaled, 64 px) plus MobileNetV2-style identity skips, trained on
//! synthetic data, lowered onto the `QGraph` DAG executor and priced layer
//! by layer with the Cortex-M7 cycle model — including the `QAdd` residual
//! join nodes and the liveness-planned peak-RAM accounting.
//!
//! Run with: `cargo run --release --example mobilenet_e2e`

use std::time::Instant;

use mixq::core::memory::QuantScheme;
use mixq::core::pipeline::{deploy, PipelineConfig};
use mixq::data::{DatasetSpec, SyntheticKind};
use mixq::kernels::{AnyOp, OpKind};
use mixq::mcu::{CortexM7CycleModel, Device};
use mixq::models::micro::mobilenet_like_residual;
use mixq::nn::train::TrainConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let res = 64usize;
    let ds = DatasetSpec::new(SyntheticKind::Bars, res, res, 3, 2)
        .with_samples(48)
        .with_noise(0.05)
        .generate(9);
    // MobileNetV1 topology at width/8 with identity residuals on every
    // stride-1 same-channel pair (8 skips at this scale).
    let spec = mobilenet_like_residual(res, 3, 8, 2);
    println!(
        "mobilenet-like {}px, {} conv blocks, {} residual skips",
        res,
        spec.blocks().len(),
        spec.residuals().len()
    );

    let cfg = PipelineConfig::new(QuantScheme::PerChannelIcn)
        .with_training(TrainConfig::fast(6), TrainConfig::fast(3));
    let t0 = Instant::now();
    let (int_net, report) = deploy(&spec, &ds, &cfg)?;
    println!(
        "== deployment (trained in {:.1?}) ==\n{report}\n",
        t0.elapsed()
    );

    let adds = int_net
        .graph()
        .nodes()
        .iter()
        .filter(|n| matches!(n.op(), AnyOp::Add(_)))
        .count();
    println!(
        "graph: {} nodes ({} convs, {adds} adds, pool, head)",
        int_net.graph().len(),
        int_net.layers().len()
    );

    // One inference, keeping the per-layer ledger.
    let run = int_net.infer_detailed(&ds.sample(0).images);
    let model = CortexM7CycleModel::default();
    let breakdown = model.breakdown_from_runs(&run.layers);
    let total_cycles: u64 = breakdown.iter().map(|l| l.cycles).sum();

    println!("\n== per-layer breakdown (measured ledger × Cortex-M7 model) ==");
    println!(
        "{:<10} {:<8} {:>10} {:>10} {:>8} {:>8} {:>7}",
        "layer", "kind", "macs", "cycles", "in B", "out B", "share"
    );
    for (latency, layer) in breakdown.iter().zip(&run.layers) {
        println!(
            "{:<10} {:<8} {:>10} {:>10} {:>8} {:>8} {:>6.1}%",
            latency.name,
            layer.kind.label(),
            latency.macs,
            latency.cycles,
            layer.in_bytes,
            layer.out_bytes,
            100.0 * latency.cycles as f64 / total_cycles as f64
        );
    }
    let add_cycles: u64 = breakdown
        .iter()
        .zip(&run.layers)
        .filter(|(_, l)| l.kind == OpKind::Add)
        .map(|(b, _)| b.cycles)
        .sum();
    let device = Device::stm32h7();
    println!(
        "\ntotal: {} cycles ≈ {:.2} ms ({:.1} fps) on {}; residual joins cost {:.2}%",
        total_cycles,
        device.latency_ms(total_cycles),
        device.fps(total_cycles),
        device,
        100.0 * add_cycles as f64 / total_cycles as f64
    );
    println!(
        "memory: flash {} B; planner peak RAM {} B, measured high-water mark {} B ({})",
        int_net.flash_bytes(),
        int_net.peak_ram_bytes(),
        run.peak_live_bytes,
        if int_net.peak_ram_bytes() == run.peak_live_bytes {
            "exact match"
        } else {
            "MISMATCH"
        }
    );
    Ok(())
}
