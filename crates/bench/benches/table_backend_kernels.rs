//! Backend kernel table: Reference vs Tiled backend on the residual
//! MobileNet (`mobilenet_like_residual`), per layer.
//!
//! Three views of the same graph:
//!
//! * **selection** — the `KernelChoice` each backend resolved per node
//!   (deterministic shape math; golden-tested via `--json`), with the
//!   im2col scratch each choice prices;
//! * **modeled cycles** — the Cortex-M7 cycle model priced per selected
//!   kernel from the executed ledger (deterministic; golden-tested);
//! * **measured host latency** — wall time (median [p10–p90] over `n`
//!   runs, `harness::measure`) of the direct loop vs
//!   the blocked GEMM (both through `QOp::execute_kernel`, the blocked one
//!   with its prepacked panels, as a graph node runs it) on each dense
//!   convolution's real input, plus whole-graph runs per backend
//!   (host-dependent; printed only, never goldened).
//!
//! Run with: `cargo bench --bench table_backend_kernels`
//! (`--json <path>` writes the deterministic selection table;
//! `--backend reference|tiled` picks the whole-graph timing target).

use std::hint::black_box;

use mixq_bench::harness::{
    backend_arg, batch_arg, json_array, json_out_path, measure, rule, write_json, JsonObject,
};
use mixq_core::convert::{convert_with_backend, IntNetwork};
use mixq_core::memory::QuantScheme;
use mixq_data::{DatasetSpec, SyntheticKind};
use mixq_kernels::{
    ActivationArena, AnyOp, Backend, KernelChoice, OpCounts, OpOutput, QActivation, QOp,
    ReferenceBackend, TiledBackend,
};
use mixq_mcu::CortexM7CycleModel;
use mixq_models::micro::mobilenet_like_residual;
use mixq_nn::qat::QatNetwork;
use mixq_quant::{BitWidth, Granularity};
use mixq_tensor::Shape;

const SAMPLES: usize = 15;

/// Executes the graph node by node keeping every intermediate activation
/// live, so each layer can be re-timed on its real input.
fn intermediates(net: &IntNetwork, x: &QActivation) -> Vec<Option<QActivation>> {
    let graph = net.graph();
    let mut slots: Vec<Option<QActivation>> = vec![None; graph.len() + 1];
    slots[0] = Some(x.clone());
    for (i, node) in graph.nodes().iter().enumerate() {
        let inputs: Vec<&QActivation> = node
            .inputs()
            .iter()
            .map(|&t| slots[t].as_ref().expect("topological order"))
            .collect();
        let mut ops = OpCounts::default();
        if let OpOutput::Act(a) = node.op().execute(&inputs, &mut ops) {
            slots[i + 1] = Some(a);
        }
    }
    slots
}

fn main() {
    let res = 32usize;
    let spec = mobilenet_like_residual(res, 3, 8, 4);
    let ds = DatasetSpec::new(SyntheticKind::Bars, res, res, 3, 4)
        .with_samples(8)
        .with_noise(0.05)
        .generate(5);
    let mut net = QatNetwork::build(&spec, 77);
    net.calibrate_input(ds.images());
    net.enable_fake_quant(Granularity::PerChannel);
    let reference = convert_with_backend(&net, QuantScheme::PerChannelIcn, &ReferenceBackend)
        .expect("calibrated network converts");
    let tiled = convert_with_backend(&net, QuantScheme::PerChannelIcn, &TiledBackend::default())
        .expect("calibrated network converts");

    let image = &ds.sample(0).images;
    let run_ref = reference.infer_detailed(image);
    let run_tiled = tiled.infer_detailed(image);
    assert_eq!(
        run_ref.logits, run_tiled.logits,
        "backends are bit-identical"
    );

    let model = CortexM7CycleModel::default();
    let br_ref = model.breakdown_from_runs(&run_ref.layers);
    let br_tiled = model.breakdown_from_runs(&run_tiled.layers);
    let input_shape = Shape::feature_map(res, res, 3);
    let scratch_ref = reference
        .graph()
        .peak_scratch_bytes(input_shape, BitWidth::W8);
    let scratch_tiled = tiled.graph().peak_scratch_bytes(input_shape, BitWidth::W8);

    println!(
        "backend kernel table — mobilenet_like_residual {res}px (width/8), {} nodes",
        reference.graph().len()
    );
    println!(
        "\n== per-node selection and modeled Cortex-M7 cycles ({} vs {}) ==",
        ReferenceBackend.name(),
        TiledBackend::default().name()
    );
    println!(
        "{:<10} {:<7} {:<13} {:>10} {:>12} {:>12} {:>7}",
        "node", "kind", "tiled choice", "macs", "cyc ref", "cyc tiled", "model×"
    );
    rule(78);
    let mut json_nodes = Vec::new();
    for (i, (lr, lt)) in run_ref.layers.iter().zip(&run_tiled.layers).enumerate() {
        println!(
            "{:<10} {:<7} {:<13} {:>10} {:>12} {:>12} {:>6.2}x",
            lr.name,
            lr.kind.label(),
            lt.choice.label(),
            lt.ops.macs,
            br_ref[i].cycles,
            br_tiled[i].cycles,
            br_ref[i].cycles as f64 / br_tiled[i].cycles as f64
        );
        let mut obj = JsonObject::new();
        obj.string("name", &lr.name)
            .string("kind", lr.kind.label())
            .string("reference_choice", lr.choice.label())
            .string("tiled_choice", lt.choice.label())
            .int("macs_tiled", lt.ops.macs as usize)
            .int("cycles_reference", br_ref[i].cycles as usize)
            .int("cycles_tiled", br_tiled[i].cycles as usize);
        json_nodes.push(obj.render());
    }
    let total_ref: u64 = br_ref.iter().map(|l| l.cycles).sum();
    let total_tiled: u64 = br_tiled.iter().map(|l| l.cycles).sum();
    rule(78);
    println!(
        "totals: {total_ref} -> {total_tiled} modeled cycles ({:.2}x); peak im2col scratch {} -> {} B",
        total_ref as f64 / total_tiled as f64,
        scratch_ref,
        scratch_tiled
    );

    // Measured host latency of the two dense dataflows on each dense
    // conv's real input, each through the executor's dispatch point.
    println!("\n== measured host latency: direct loop vs blocked GEMM ==");
    println!(
        "{:<10} {:>7} {:>30} {:>30} {:>9}",
        "node", "kind", "direct µs [p10–p90]", "blocked µs [p10–p90]", "speedup"
    );
    rule(91);
    let x = reference.quantize_input(image);
    let slots = intermediates(&reference, &x);
    let mut arena = ActivationArena::new();
    for node in reference.graph().nodes() {
        let AnyOp::Conv(conv) = node.op() else {
            continue;
        };
        if conv.weights().is_depthwise() {
            continue;
        }
        let input = slots[node.inputs()[0]]
            .as_ref()
            .expect("conv input is live");
        let (panels, _) = conv.prepack(KernelChoice::BlockedGemm);
        let mut run = |choice, cache| {
            measure(SAMPLES, || {
                let mut ops = OpCounts::default();
                let out =
                    conv.execute_kernel(choice, cache, &[black_box(input)], &mut arena, &mut ops);
                if let OpOutput::Act(a) = out {
                    arena.recycle(a);
                }
            })
        };
        let direct = run(KernelChoice::DirectConv, None);
        let blocked = run(KernelChoice::BlockedGemm, panels.as_ref());
        println!(
            "{:<10} {:>7} {:>30} {:>30} {:>8.2}x",
            node.name(),
            if conv.geometry().kernel_area() == 1 {
                "pw"
            } else {
                "conv"
            },
            direct,
            blocked,
            direct.median / blocked.median
        );
    }
    rule(91);

    // Whole-graph host run under the --backend/--batch flags (every leg of
    // the CI bench-smoke matrix exercises a different dispatch path).
    let flagged = backend_arg();
    let batch = batch_arg().min(ds.len());
    let mut target = reference.clone();
    target.select_backend(&flagged);
    let us = if batch > 1 {
        let mut arena = ActivationArena::new();
        let mut logits = Vec::new();
        let mut ops = OpCounts::default();
        measure(SAMPLES, || {
            let xb = target.quantize_input_items_pooled(ds.images(), 0, batch, &mut arena);
            target
                .graph()
                .infer_batch(xb, &mut arena, &mut logits, &mut ops);
        })
        .per_item(batch as f64)
    } else {
        measure(SAMPLES, || target.infer_detailed(black_box(image)))
    };
    println!(
        "\nwhole-graph run ({} backend, batch {batch}): {us} µs/inference (host)",
        flagged.name()
    );

    if let Some(path) = json_out_path() {
        let mut root = JsonObject::new();
        root.string("bench", "table_backend_kernels")
            .string("network", &format!("mobilenet_like_residual_{res}px_w8"))
            .int("nodes", reference.graph().len())
            .raw("layers", json_array(json_nodes))
            .int("modeled_cycles_reference", total_ref as usize)
            .int("modeled_cycles_tiled", total_tiled as usize)
            .int("peak_scratch_reference", scratch_ref)
            .int("peak_scratch_tiled", scratch_tiled)
            .int("peak_ram_bytes", reference.peak_ram_bytes())
            .int("flash_bytes", reference.flash_bytes());
        write_json(&path, &root.render());
    }
}
