//! Batch-N memory model of the residual MobileNet
//! (`mobilenet_like_residual`, 4-bit weights) for batch ∈ {1, 4, 8, 32}:
//! the batched Eq. 7 peak RAM and the selected kernels' im2col scratch per
//! batch size under the reference and tiled backends, plus the read-only
//! footprint of the prepacked weight panels. Pure shape math, so `--json`
//! is golden-tested byte for byte.
//!
//! Batched throughput is measured by `perfbench` (`w4_32px_b8`: samples/s
//! with spreads, every logit checked); bit-identity across backend and
//! batch is pinned by `backends_produce_bit_identical_logits` and
//! `batch_matches_single_sample_logits`.
//!
//! Run with: `cargo bench --bench table_batch_throughput`
//! (`--json <path>` writes the deterministic table).

use mixq_bench::harness::{json_array, json_out_path, rule, write_json, JsonObject};
use mixq_core::convert::convert_with_backend;
use mixq_core::memory::QuantScheme;
use mixq_data::{DatasetSpec, SyntheticKind};
use mixq_kernels::{ReferenceBackend, TiledBackend};
use mixq_models::micro::mobilenet_like_residual;
use mixq_nn::qat::QatNetwork;

const BATCHES: [usize; 4] = [1, 4, 8, 32];

fn main() {
    let res = 32usize;
    let spec = mobilenet_like_residual(res, 3, 8, 4);
    let ds = DatasetSpec::new(SyntheticKind::Bars, res, res, 3, 4)
        .with_samples(32)
        .with_noise(0.05)
        .generate(5);
    let mut net = QatNetwork::build(&spec, 77);
    net.calibrate_input(ds.images());
    net.enable_fake_quant(mixq_quant::Granularity::PerChannel);
    // 4-bit weights — the paper's mixed low-precision regime, whose
    // prepacked panels hold the sub-byte weights decoded once at build.
    for i in 0..net.num_blocks() {
        net.set_weight_bits(i, mixq_quant::BitWidth::W4);
    }
    net.set_linear_weight_bits(mixq_quant::BitWidth::W4);
    let reference = convert_with_backend(&net, QuantScheme::PerChannelIcn, &ReferenceBackend)
        .expect("calibrated network converts");
    let tiled = convert_with_backend(&net, QuantScheme::PerChannelIcn, &TiledBackend::default())
        .expect("calibrated network converts");

    println!(
        "batch memory model — mobilenet_like_residual {res}px (width/8), {} nodes, {} samples",
        reference.graph().len(),
        ds.len()
    );
    println!(
        "prepacked panels: reference {} B, tiled {} B (read-only, on top of {} B packed flash)",
        reference.prepacked_bytes(),
        tiled.prepacked_bytes(),
        reference.flash_bytes()
    );

    // Deterministic shape math per batch: the Eq. 7 live set and the
    // im2col scratch both learn the batch dimension.
    println!("\n== batched memory model (deterministic; golden-tested) ==");
    println!(
        "{:<7} {:>14} {:>18} {:>15}",
        "batch", "peak RAM B", "scratch (ref) B", "scratch (tiled) B"
    );
    rule(58);
    let mut json_batches = Vec::new();
    for &b in &BATCHES {
        let ram = reference.peak_ram_bytes_batch(b);
        let s_ref = reference.peak_scratch_bytes_batch(b);
        let s_tiled = tiled.peak_scratch_bytes_batch(b);
        println!("{b:<7} {ram:>14} {s_ref:>18} {s_tiled:>15}");
        let mut obj = JsonObject::new();
        obj.int("batch", b)
            .int("peak_ram_bytes", ram)
            .int("peak_scratch_reference", s_ref)
            .int("peak_scratch_tiled", s_tiled);
        json_batches.push(obj.render());
    }

    if let Some(path) = json_out_path() {
        let mut root = JsonObject::new();
        root.string("bench", "table_batch_throughput")
            .string("network", &format!("mobilenet_like_residual_{res}px_w4"))
            .int("nodes", reference.graph().len())
            .raw("batches", json_array(json_batches))
            .int("prepacked_bytes_reference", reference.prepacked_bytes())
            .int("prepacked_bytes_tiled", tiled.prepacked_bytes())
            .int("flash_bytes", reference.flash_bytes());
        write_json(&path, &root.render());
    }
}
