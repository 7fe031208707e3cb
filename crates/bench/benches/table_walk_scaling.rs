//! Single-walk scaling: samples/sec of one batched graph walk of the W4
//! residual MobileNet under the prepacked tiled backend, across
//! threads ∈ {1, 2, 4} × {forced-scalar, auto-detected SIMD} — the PR-6
//! headline against the PR-5 scalar serial baseline (threads 1, scalar).
//!
//! Three views:
//!
//! * **deterministic shape math** (`--json`, golden-tested) — node count,
//!   modeled Cortex-M7 cycles of one inference (invariant under every
//!   host thread/SIMD setting — the model prices abstract op counts, and
//!   those are bit-identical), the batch-8 Eq. 7 peak RAM, prepacked
//!   panel bytes, and the `partition_bounds` row splits the worker pool
//!   uses on the stem conv's im2col matrix;
//! * **measured throughput** (stdout and `--bench-json`, never goldened)
//!   — steady-state samples/sec per thread × SIMD configuration through
//!   the pooled batched path. Targets: auto-SIMD at 1 thread ≥ 1.25×
//!   (floor) / ≥ 1.5× (stretch) the scalar 1-thread baseline, and the
//!   4-thread intra-walk configuration ≥ 2.5× scalar 1-thread — the
//!   latter reported `null`/skipped (not `false`) when the host's
//!   `available_parallelism` (recorded in the JSON) cannot express 4
//!   genuine workers;
//! * **bit-identity** — every configuration must produce identical
//!   logits *and* identical `OpCounts` (asserted on every run), so
//!   modeled MCU cycles never move with host execution strategy.
//!
//! Run with: `cargo bench --bench table_walk_scaling`
//! (`--json <path>` writes the deterministic golden, `--bench-json
//! <path>` the measured scaling table for `scripts/bench-report.sh`).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mixq_bench::harness::{
    available_cores, bench_json_out_path, gated_target, host_meta, json_array, json_out_path, rule,
    write_json, JsonObject,
};
use mixq_core::convert::{convert_with_backend, IntNetwork};
use mixq_core::memory::QuantScheme;
use mixq_data::{DatasetSpec, SyntheticKind};
use mixq_kernels::{
    partition_bounds, simd, ActivationArena, OpCounts, SimdLevel, ThreadPool, TiledBackend,
    MAX_POOL_THREADS,
};
use mixq_mcu::CortexM7CycleModel;
use mixq_models::micro::mobilenet_like_residual;
use mixq_nn::qat::QatNetwork;
use mixq_tensor::Tensor;

const BATCH: usize = 8;
const THREADS: [usize; 3] = [1, 2, 4];
const SWEEPS: usize = 7;

/// Steady-state samples/sec of full sweeps over `images`, one graph walk
/// per [`BATCH`] samples, with an intra-walk pool of `threads` attached
/// outside the timed region. Returns the median-of-sweeps throughput plus
/// the full-dataset logits and total op counts of one sweep for the
/// bit-identity cross-checks.
fn walk_throughput(
    net: &IntNetwork,
    images: &Tensor<f32>,
    threads: usize,
) -> (f64, Vec<i32>, OpCounts) {
    let n = images.shape().n;
    assert_eq!(n % BATCH, 0, "sweep uses full batches only");
    let mut arena = ActivationArena::new();
    if threads > 1 {
        arena.set_pool(Arc::new(ThreadPool::new(threads)));
    }
    let mut logits = Vec::new();
    let mut all_logits = Vec::new();
    let mut ops = OpCounts::default();
    let mut sweep_ops = OpCounts::default();
    let sweep = |arena: &mut ActivationArena,
                 logits: &mut Vec<i32>,
                 ops: &mut OpCounts,
                 mut keep: Option<(&mut Vec<i32>, &mut OpCounts)>| {
        let mut start = 0usize;
        while start < n {
            let x = net.quantize_input_items_pooled(images, start, BATCH, arena);
            net.graph().infer_batch(x, arena, logits, ops);
            if let Some((all, _)) = keep.as_mut() {
                all.extend(logits.iter().copied());
            }
            start += BATCH;
        }
        if let Some((_, total)) = keep {
            *total = *ops;
        }
    };
    // Warm-up: grow the arena to steady capacity and capture the logits
    // and ledger for the caller's identity checks.
    sweep(
        &mut arena,
        &mut logits,
        &mut ops,
        Some((&mut all_logits, &mut sweep_ops)),
    );
    let mut runs: Vec<f64> = (0..SWEEPS)
        .map(|_| {
            let t = Instant::now();
            sweep(&mut arena, &mut logits, &mut ops, None);
            black_box(&logits);
            t.elapsed().as_secs_f64()
        })
        .collect();
    runs.sort_by(|a, b| a.total_cmp(b));
    (n as f64 / runs[runs.len() / 2], all_logits, sweep_ops)
}

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
    for i in 0..net.num_blocks() {
        net.set_weight_bits(i, mixq_quant::BitWidth::W4);
    }
    net.set_linear_weight_bits(mixq_quant::BitWidth::W4);
    let tiled = convert_with_backend(&net, QuantScheme::PerChannelIcn, &TiledBackend::default())
        .expect("calibrated network converts");

    println!(
        "single-walk scaling — mobilenet_like_residual {res}px (width/8) W4, {} nodes, \
         batch {BATCH}, tiled backend",
        tiled.graph().len()
    );
    println!(
        "detected SIMD level: {} (MIXQ_FORCE_SCALAR overrides to scalar)",
        simd::active_level().label()
    );

    // Measured scaling sweep: threads × {scalar, auto SIMD}. Forcing is
    // process-global, so each configuration sets it, measures, and the
    // loop restores auto detection afterwards.
    println!("\n== measured single-walk throughput (samples/sec; never goldened) ==");
    println!(
        "{:<9} {:>14} {:>14} {:>8}",
        "threads", "scalar", "simd", "simd×"
    );
    rule(48);
    let mut rows: Vec<(usize, f64, f64)> = Vec::new();
    let mut baseline: Option<(Vec<i32>, OpCounts)> = None;
    for &t in &THREADS {
        simd::set_forced(Some(SimdLevel::Scalar));
        let (sps_scalar, l_scalar, o_scalar) = walk_throughput(&tiled, ds.images(), t);
        simd::set_forced(None);
        let (sps_simd, l_simd, o_simd) = walk_throughput(&tiled, ds.images(), t);
        // Bit-identity across every configuration: logits and the abstract
        // op ledger (and therefore modeled MCU cycles) never move.
        let (bl, bo) = baseline.get_or_insert_with(|| (l_scalar.clone(), o_scalar));
        assert_eq!(&l_scalar, bl, "scalar logits diverged at {t} threads");
        assert_eq!(&l_simd, bl, "SIMD logits diverged at {t} threads");
        assert_eq!(o_scalar, *bo, "scalar op counts diverged at {t} threads");
        assert_eq!(o_simd, *bo, "SIMD op counts diverged at {t} threads");
        println!(
            "{t:<9} {sps_scalar:>14.1} {sps_simd:>14.1} {:>7.2}x",
            sps_simd / sps_scalar
        );
        rows.push((t, sps_scalar, sps_simd));
    }
    let model = CortexM7CycleModel::default();
    let (_, base_ops) = baseline.as_ref().expect("sweep measured").clone();
    let modeled = model.cycles_from_counts(&base_ops);
    println!("modeled Cortex-M7 cycles per sweep (invariant across all configs): {modeled}");

    let scalar_1t = rows[0].1;
    let simd_1t = rows[0].2;
    let simd_4t = rows.iter().find(|r| r.0 == 4).expect("4-thread row").2;
    let speedup_simd = simd_1t / scalar_1t;
    let speedup_4t = simd_4t / scalar_1t;
    // The multi-thread target is only expressible when the host can
    // actually run 4 workers in parallel; on a smaller machine the pool
    // still runs (bit-identity above) but the speedup is meaningless, so
    // the flag is skipped (null in the JSON) rather than reported false.
    // `gated_target` below applies the same rule to the measured JSON.
    let cores = available_cores();
    rule(48);
    println!(
        "SIMD @1T vs scalar @1T: {speedup_simd:.2}x (targets >= 1.25x floor, >= 1.5x stretch)"
    );
    if cores >= 4 {
        println!("SIMD @4T vs scalar @1T: {speedup_4t:.2}x (target >= 2.5x)");
    } else {
        println!(
            "SIMD @4T vs scalar @1T: {speedup_4t:.2}x — target skipped (host has {cores} core{})",
            if cores == 1 { "" } else { "s" }
        );
    }

    if let Some(path) = json_out_path() {
        // Deterministic golden: shape math, the modeled-cycle invariant,
        // and the exact row splits the pool would use on the stem conv's
        // batch-8 im2col matrix (rows = batch × (res/2)²).
        let stem_rows = BATCH * (res / 2) * (res / 2);
        let splits = THREADS.iter().map(|&t| {
            let mut bounds = [0usize; MAX_POOL_THREADS + 1];
            let parts = partition_bounds(stem_rows, t, &mut bounds);
            let mut obj = JsonObject::new();
            obj.int("threads", t).int("parts", parts).raw(
                "bounds",
                json_array(bounds[..=parts].iter().map(|b| b.to_string())),
            );
            obj.render()
        });
        let mut root = JsonObject::new();
        root.string("bench", "table_walk_scaling")
            .string("network", &format!("mobilenet_like_residual_{res}px_w4"))
            .int("nodes", tiled.graph().len())
            .int("batch", BATCH)
            .int("modeled_cycles_per_sweep", modeled as usize)
            .int("peak_ram_bytes_batch8", tiled.peak_ram_bytes_batch(BATCH))
            .int("prepacked_bytes", tiled.prepacked_bytes())
            .int("flash_bytes", tiled.flash_bytes())
            .int("stem_im2col_rows", stem_rows)
            .raw("row_splits", json_array(splits));
        write_json(&path, &root.render());
    }
    if let Some(path) = bench_json_out_path() {
        let mut root = JsonObject::new();
        root.string("bench", "table_walk_scaling")
            .string("network", &format!("mobilenet_like_residual_{res}px_w4"))
            .raw("host", host_meta(1).render())
            .int("batch", BATCH);
        let cfg_rows = rows.iter().map(|&(t, s, v)| {
            let mut obj = JsonObject::new();
            obj.int("threads", t)
                .raw("scalar_samples_per_sec", format!("{s:.1}"))
                .raw("simd_samples_per_sec", format!("{v:.1}"));
            obj.render()
        });
        root.raw("throughput", json_array(cfg_rows))
            .int("available_parallelism", cores)
            .raw("speedup_simd_1t_vs_scalar_1t", format!("{speedup_simd:.2}"))
            .raw("speedup_simd_4t_vs_scalar_1t", format!("{speedup_4t:.2}"))
            .bool("meets_1_25x_simd_target", speedup_simd >= 1.25)
            .bool("meets_1_5x_simd_target", speedup_simd >= 1.5);
        gated_target(&mut root, "meets_2_5x_4t_target", speedup_4t >= 2.5, 4);
        write_json(&path, &root.render());
    }
}
