//! Single-walk scaling: samples/sec of one batched graph walk of the W4
//! residual MobileNet under the prepacked tiled backend, across
//! threads ∈ {1, 2, 4} × {forced-scalar, auto-detected SIMD}, against the
//! scalar serial baseline (threads 1, scalar).
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
//!   the pooled batched path, as median [p10–p90] over `n` sweeps
//!   (`harness::measure`). perfbench times one configuration of this walk
//!   end to end (`w4_32px_b8`); the thread sweep is only here. Targets:
//!   auto-SIMD at 1 thread ≥ 1.25× (floor) / ≥ 1.5× (stretch) the scalar
//!   1-thread baseline, and the 4-thread intra-walk configuration ≥ 2.5×
//!   scalar 1-thread — the latter reported `null`/skipped (not `false`)
//!   when the host's `available_parallelism` (recorded in the JSON)
//!   cannot express 4 genuine workers;
//! * **bit-identity** — every configuration must produce identical
//!   logits *and* identical `OpCounts` (asserted on every run), so
//!   modeled MCU cycles never move with host execution strategy.
//!
//! Run with: `cargo bench --bench table_walk_scaling`
//! (`--json <path>` writes the deterministic golden, `--bench-json
//! <path>` the measured scaling table for `scripts/bench-report.sh`).

use std::sync::Arc;

use mixq_bench::harness::{
    available_cores, bench_json_out_path, gated_target, host_meta, json_array, json_out_path,
    measure, rule, write_json, JsonObject, Measurement,
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
const SAMPLES: usize = 31;

/// Steady-state samples/sec of full sweeps over `images`, one graph walk
/// per [`BATCH`] samples, with an intra-walk pool of `threads` attached
/// outside the timed region. Returns the throughput's spread over
/// [`SAMPLES`] sweeps plus the full-dataset logits and op counts of one
/// sweep for the bit-identity cross-checks.
fn walk_throughput(
    net: &IntNetwork,
    images: &Tensor<f32>,
    threads: usize,
) -> (Measurement, Vec<i32>, OpCounts) {
    let n = images.shape().n;
    assert_eq!(n % BATCH, 0, "sweep uses full batches only");
    let mut arena = ActivationArena::new();
    if threads > 1 {
        arena.set_pool(Arc::new(ThreadPool::new(threads)));
    }
    let mut logits = Vec::new();
    let mut all_logits = Vec::new();
    let mut ops = OpCounts::default();
    let sweep = measure(SAMPLES, || {
        all_logits.clear();
        ops = OpCounts::default();
        for start in (0..n).step_by(BATCH) {
            let x = net.quantize_input_items_pooled(images, start, BATCH, &mut arena);
            net.graph()
                .infer_batch(x, &mut arena, &mut logits, &mut ops);
            all_logits.extend_from_slice(&logits);
        }
    });
    (sweep.rate(n as f64), all_logits, ops)
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
        "{:<9} {:>30} {:>30} {:>8}",
        "threads", "scalar [p10–p90]", "simd [p10–p90]", "simd×"
    );
    rule(80);
    let mut rows: Vec<(usize, Measurement, Measurement)> = Vec::new();
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
            "{t:<9} {sps_scalar:>30} {sps_simd:>30} {:>7.2}x",
            sps_simd.median / sps_scalar.median
        );
        rows.push((t, sps_scalar, sps_simd));
    }
    let model = CortexM7CycleModel::default();
    let (_, base_ops) = baseline.as_ref().expect("sweep measured").clone();
    let modeled = model.cycles_from_counts(&base_ops);
    println!("modeled Cortex-M7 cycles per sweep (invariant across all configs): {modeled}");

    let scalar_1t = rows[0].1.median;
    let simd_1t = rows[0].2.median;
    let simd_4t = rows
        .iter()
        .find(|r| r.0 == 4)
        .expect("4-thread row")
        .2
        .median;
    let speedup_simd = simd_1t / scalar_1t;
    let speedup_4t = simd_4t / scalar_1t;
    // The multi-thread target is only expressible when the host can
    // actually run 4 workers in parallel; on a smaller machine the pool
    // still runs (bit-identity above) but the speedup is meaningless, so
    // the flag is skipped (null in the JSON) rather than reported false.
    // `gated_target` below applies the same rule to the measured JSON.
    let cores = available_cores();
    rule(80);
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
                .raw("scalar_samples_per_sec", s.json())
                .raw("simd_samples_per_sec", v.json());
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
