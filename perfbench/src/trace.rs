//! The traced replay: walks a deployed graph node by node in schedule
//! order, timing each `QOp::execute_kernel` call from outside the
//! library, and joins the node times with each node's `LayerRun` ledger
//! and modeled Cortex-M7 cycles.

use std::time::Instant;

use mixq_core::convert::IntNetwork;
use mixq_kernels::{AnyOp, KernelChoice, OpKind, OpOutput, QActivation, QOp};
use mixq_mcu::CortexM7CycleModel;
use mixq_quant::BitWidth;
use mixq_tensor::Tensor;

use crate::adapter::Walker;
use crate::calib::{Calibrator, Clock};
use crate::report::Sheet;
use crate::stats::spearman;

/// The kernel classes node time is split into: name, whether every
/// workload has such nodes (so its time rows belong to the JSON result),
/// and whether its nodes multiply-accumulate.
const CLASSES: [(&str, bool, bool); 6] = [
    ("gemm", true, true),
    ("dw", true, true),
    ("conv_direct", false, true),
    ("add", false, false),
    ("pool", true, false),
    ("linear", true, true),
];

/// GEMM weight widths the table splits.
const WIDTHS: [BitWidth; 3] = [BitWidth::W8, BitWidth::W4, BitWidth::W2];

/// One node of a replayed graph.
struct NodeProfile {
    class: &'static str,
    /// Weight width of a GEMM node.
    gemm_width: Option<BitWidth>,
    /// Time summed over every replay, scaled to nominal host speed, ns.
    ns: f64,
    macs_per_sample: f64,
    cycles_per_sample: f64,
    act_bytes_per_sample: f64,
}

/// The traced replay of one network.
pub struct Trace {
    nodes: Vec<NodeProfile>,
    /// Samples replayed.
    samples: u64,
    walk_ns: f64,
    quantize_ns: f64,
    /// Replays whose logits differed from the reference walk.
    pub mismatches: u64,
    /// Replays made.
    pub passes: u64,
}

fn class_of(op: &AnyOp, choice: KernelChoice) -> &'static str {
    match op.kind() {
        OpKind::DepthwiseConv => "dw",
        OpKind::Conv if choice.is_gemm() => "gemm",
        OpKind::Conv => "conv_direct",
        OpKind::Add => "add",
        OpKind::Pool => "pool",
        OpKind::Linear => "linear",
    }
}

/// Passes are timed in windows of this length, each followed by a
/// calibration slice; a window's times are scaled by the host speed
/// measured around it.
const WINDOW_S: f64 = 0.03;

/// Replays `net` over the input batches for `seconds`: one pass per
/// batch, on the walker's warmed arena (and so on its thread pool of
/// `threads`). `expected[b]` are the reference logits of batch `b`.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    net: &IntNetwork,
    walker: &mut Walker,
    images: &Tensor<f32>,
    batch: usize,
    expected: &[Vec<i32>],
    seconds: f64,
    cal: &Calibrator,
    threads: usize,
) -> Trace {
    let graph = net.graph();
    let model = CortexM7CycleModel::default();
    let runs = walker.layer_runs(net, images, 0, batch);
    let per = batch as u64;
    let mut nodes: Vec<NodeProfile> = graph
        .nodes()
        .iter()
        .zip(&runs)
        .map(|(node, run)| {
            let ops = run.ops.per_sample(per);
            NodeProfile {
                class: class_of(node.op(), node.choice()),
                gemm_width: match node.op() {
                    AnyOp::Conv(c) if node.choice().is_gemm() => Some(c.weights().bits()),
                    _ => None,
                },
                ns: 0.0,
                macs_per_sample: ops.macs as f64,
                cycles_per_sample: model.kernel_cycles(run.kind, run.choice, &ops) as f64,
                act_bytes_per_sample: (run.in_bytes + run.out_bytes) as f64 / batch as f64,
            }
        })
        .collect();

    let last = graph.last_uses();
    let n = graph.len();
    let mut slots: Vec<Option<QActivation>> = (0..=n).map(|_| None).collect();
    let mut trace = Trace {
        nodes: Vec::new(),
        samples: 0,
        walk_ns: 0.0,
        quantize_ns: 0.0,
        mismatches: 0,
        passes: 0,
    };
    let mut ops = mixq_kernels::OpCounts::default();
    // Raw times of the current window: per node, then walk and quantize.
    let mut window_ns = vec![0.0; n + 2];
    let clock = Clock::for_threads(threads);
    let start = Instant::now();
    let mut window = Instant::now();
    let mut before = cal.speed_on(threads);
    let mut b = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let t0 = clock.now();
        slots[0] = Some(walker.quantize(net, images, b * batch, batch));
        window_ns[n + 1] += clock.since(t0);
        let mut logits = Vec::new();
        for (i, node) in graph.nodes().iter().enumerate() {
            let arena = walker.arena_mut();
            let t = clock.now();
            let out = match *node.inputs() {
                [a] => {
                    let xa = slots[a].as_ref().expect("live input");
                    node.op().execute_kernel(
                        node.choice(),
                        node.prepacked(),
                        &[xa],
                        arena,
                        &mut ops,
                    )
                }
                [a, c] => {
                    let xa = slots[a].as_ref().expect("live input");
                    let xc = slots[c].as_ref().expect("live input");
                    node.op().execute_kernel(
                        node.choice(),
                        node.prepacked(),
                        &[xa, xc],
                        arena,
                        &mut ops,
                    )
                }
                _ => unreachable!("graph ops take one or two inputs"),
            };
            window_ns[i] += clock.since(t);
            match out {
                OpOutput::Act(a) => slots[i + 1] = Some(a),
                OpOutput::Logits(l) => logits = l,
            }
            for &t in node.inputs().iter().chain(std::iter::once(&(i + 1))) {
                if last[t] == i {
                    if let Some(a) = slots[t].take() {
                        arena.recycle(a);
                    }
                }
            }
        }
        for slot in slots.iter_mut() {
            if let Some(a) = slot.take() {
                walker.arena_mut().recycle(a);
            }
        }
        window_ns[n] += clock.since(t0);
        if logits != expected[b] {
            trace.mismatches += 1;
            if trace.mismatches <= 3 {
                println!("MISMATCH: traced replay of batch {b} differs from the reference walk");
            }
        }
        trace.samples += per;
        trace.passes += 1;
        b = (b + 1) % expected.len();
        let last_pass = start.elapsed().as_secs_f64() >= seconds;
        if window.elapsed().as_secs_f64() >= WINDOW_S || last_pass {
            let after = cal.speed_on(threads);
            let speed = 0.5 * (before + after);
            for (node, ns) in nodes.iter_mut().zip(&window_ns) {
                node.ns += ns * speed;
            }
            trace.walk_ns += window_ns[n] * speed;
            trace.quantize_ns += window_ns[n + 1] * speed;
            window_ns.fill(0.0);
            before = after;
            window = Instant::now();
        }
    }
    trace.nodes = nodes;
    trace
}

impl Trace {
    /// Replay time per sample, µs.
    pub fn walk_us_per_sample(&self) -> f64 {
        self.walk_ns / self.samples as f64 / 1e3
    }
}

/// Fills the per-layer walk, kernel-class, GEMM-width, memory and MCU
/// rows from one or more replays (the serve workload replays both of its
/// variants; times are then per sample over both).
pub fn fill_sheet(traces: &[Trace], sheet: &mut Sheet) {
    let samples: f64 = traces.iter().map(|t| t.samples as f64).sum();
    let nodes: Vec<&NodeProfile> = traces.iter().flat_map(|t| &t.nodes).collect();
    // Node-level joins are per sample of the network the node belongs to;
    // weight each network by its share of the replayed samples.
    let weight = |t: &Trace| t.samples as f64 / samples;
    let per_node = |f: &dyn Fn(&NodeProfile) -> f64, keep: &dyn Fn(&NodeProfile) -> bool| {
        traces
            .iter()
            .map(|t| weight(t) * t.nodes.iter().filter(|n| keep(n)).map(f).sum::<f64>())
            .sum::<f64>()
    };
    let us = |keep: &dyn Fn(&NodeProfile) -> bool| {
        nodes.iter().filter(|n| keep(n)).map(|n| n.ns).sum::<f64>() / samples / 1e3
    };

    let walk_us = traces.iter().map(|t| t.walk_ns).sum::<f64>() / samples / 1e3;
    let quantize_us = traces.iter().map(|t| t.quantize_ns).sum::<f64>() / samples / 1e3;
    let nodes_us = us(&|_| true);
    sheet.put("kernels.walk_us", walk_us, "us");
    sheet.put("core.quantize_input_us", quantize_us, "us");
    sheet.put("kernels.nodes_us", nodes_us, "us");
    sheet.put(
        "kernels.schedule_us",
        walk_us - nodes_us - quantize_us,
        "us",
    );

    for (class, everywhere, multiplies) in CLASSES {
        let in_class = |n: &NodeProfile| n.class == class;
        // `conv_direct` nodes occur in no workload, so they get no JSON
        // rows; `add` nodes are missing from the 192 px network, so only
        // their share (0 % there) is in the JSON.
        let share_in_result = class != "conv_direct";
        if !everywhere && !nodes.iter().any(|n| in_class(n)) {
            if share_in_result {
                sheet.put(format!("kernels.{class}.share"), 0.0, "%");
            }
            continue;
        }
        let class_us = us(&in_class);
        sheet.row(everywhere, format!("kernels.{class}.us"), class_us, "us");
        let share = 100.0 * class_us / nodes_us;
        sheet.row(
            share_in_result,
            format!("kernels.{class}.share"),
            share,
            "%",
        );
        if multiplies {
            let macs = per_node(&|n| n.macs_per_sample, &in_class);
            sheet.row(everywhere, format!("kernels.{class}.macs"), macs, "MAC");
            let rate = macs / (class_us * 1e3);
            sheet.row(
                everywhere,
                format!("kernels.{class}.macs_per_ns"),
                rate,
                "MAC/ns",
            );
        }
    }

    let gemm_us = us(&|n| n.class == "gemm");
    for width in WIDTHS {
        let at = |n: &NodeProfile| n.gemm_width == Some(width);
        let w_us = us(&at);
        let macs = per_node(&|n| n.macs_per_sample, &at);
        // A width with no GEMM node runs no MACs: rate 0, not 0/0.
        let rate = if w_us > 0.0 { macs / (w_us * 1e3) } else { 0.0 };
        let prefix = format!("kernels.gemm.w{}", width.bits());
        if width == BitWidth::W2 {
            // No workload deploys 2-bit weights; printed when one does.
            if w_us > 0.0 {
                sheet.note(format!("{prefix}.us"), w_us, "us");
                sheet.note(format!("{prefix}.macs_per_ns"), rate, "MAC/ns");
            }
            continue;
        }
        sheet.note(format!("{prefix}.us"), w_us, "us");
        sheet.put(format!("{prefix}.share"), 100.0 * w_us / gemm_us, "%");
        sheet.put(format!("{prefix}.macs_per_ns"), rate, "MAC/ns");
    }

    println!("kernels.act_bytes is computed from LayerRun in_bytes + out_bytes, not measured");
    sheet.put(
        "kernels.act_bytes",
        per_node(&|n| n.act_bytes_per_sample, &|_| true),
        "bytes",
    );

    for class in ["gemm", "dw", "add", "pool", "linear"] {
        let cycles = per_node(&|n| n.cycles_per_sample, &|n| n.class == class);
        sheet.put(format!("mcu.{class}.cycles"), cycles, "cycles");
    }
    // Rank agreement between modeled cycles and measured time, node by
    // node within each network, pooled over the networks replayed.
    let modeled: Vec<f64> = nodes.iter().map(|n| n.cycles_per_sample).collect();
    let measured: Vec<f64> = traces
        .iter()
        .flat_map(|t| t.nodes.iter().map(move |n| n.ns / t.samples as f64))
        .collect();
    sheet.put("mcu.rank_corr", spearman(&modeled, &measured), "rho");
}
