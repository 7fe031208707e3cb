//! `verify_zoo` — static verification sweep over the model zoo.
//!
//! Runs `mixq-verify` over (1) every MobileNetV1 spec of the paper's
//! Figure 2 grid × a {W8, W4, W2, mixed} bit assignment (pure shape
//! math, no training), (2) the lowered `QGraph` of every trainable micro
//! model × {reference, tiled} backend × bit assignment × quantization
//! scheme (seeded build + calibration, deterministic), and (3) a set of
//! deliberately forged inputs — an oversized dot chunk, an aliasing
//! liveness schedule, a dropped terminal, a mismatched residual join —
//! asserting each is rejected with the expected diagnostic.
//!
//! Everything here is input-independent static analysis, so the JSON is
//! goldenable byte-for-byte: `tests/goldens/verify_zoo.json`. The bench
//! itself asserts every zoo report verifies and every forged case is
//! rejected, so the CI bench-smoke leg doubles as a verifier regression
//! gate.

use mixq_bench::harness::{json_array, json_out_path, rule, write_json, JsonObject};
use mixq_core::convert::convert_with_backend;
use mixq_core::memory::QuantScheme;
use mixq_data::{DatasetSpec, SyntheticKind};
use mixq_kernels::backend::{Backend, ReferenceBackend, TiledBackend};
use mixq_kernels::QAdd;
use mixq_models::micro::{
    folding_stress_cnn, mobilenet_like_residual, network_spec_of, quickstart_cnn,
};
use mixq_models::mobilenet::MobileNetConfig;
use mixq_models::NetworkSpec;
use mixq_nn::qat::{MicroCnnSpec, QatNetwork};
use mixq_quant::{BitWidth, Granularity};
use mixq_tensor::Shape;
use mixq_verify::{
    check_dot_geometry, check_schedule, verify_add_node, verify_graph, verify_spec, VerifyReport,
    Violation,
};

/// One compact JSON row per report: enough to pin the verifier's proven
/// bounds without goldening every node certificate.
fn report_row(r: &VerifyReport) -> String {
    let k_max = r.nodes.iter().map(|n| n.k).max().unwrap_or(0);
    let chunk_max = r.nodes.iter().map(|n| n.chunk).max().unwrap_or(0);
    let acc_hi = r.nodes.iter().map(|n| n.acc.1).max().unwrap_or(0);
    let phi_lo = r.nodes.iter().map(|n| n.phi.0).min().unwrap_or(0);
    let simd = r.nodes.iter().filter(|n| n.vectorizable).count();
    let corr32 = r.nodes.iter().all(|n| n.corrections_fit_i32);
    let mut o = JsonObject::new();
    o.string("graph", &r.graph)
        .int("nodes", r.nodes.len())
        .int("violations", r.violations.len())
        .bool("ok", r.ok())
        .int("k_max", k_max)
        .int("chunk_max", chunk_max)
        .raw("acc_hi_max", acc_hi.to_string())
        .raw("phi_lo_min", phi_lo.to_string())
        .int("simd_nodes", simd)
        .bool("corrections_fit_i32", corr32)
        .int("peak_ram_bytes", r.peak_ram_bytes)
        .int("peak_scratch_bytes", r.peak_scratch_bytes);
    o.render()
}

/// The four bit assignments of the sweep; `mixed` cycles W8/W4/W2 over
/// the layers, the memory-driven pattern's worst interleaving for the
/// verifier (every width boundary appears on some edge).
const ASSIGNMENTS: [&str; 4] = ["w8", "w4", "w2", "mixed"];

fn spec_widths(name: &str, n: usize) -> (Vec<BitWidth>, Vec<BitWidth>) {
    let cycle = [BitWidth::W8, BitWidth::W4, BitWidth::W2];
    match name {
        "w8" => (vec![BitWidth::W8; n], vec![BitWidth::W8; n]),
        "w4" => (vec![BitWidth::W4; n], vec![BitWidth::W4; n]),
        "w2" => (vec![BitWidth::W2; n], vec![BitWidth::W4; n]),
        "mixed" => (
            (0..n).map(|i| cycle[i % 3]).collect(),
            (0..n).map(|i| cycle[i % 2]).collect(),
        ),
        other => panic!("unknown assignment `{other}`"),
    }
}

fn spec_reports(spec: &NetworkSpec, label: &str, rows: &mut Vec<String>) -> usize {
    let mut checked = 0;
    for a in ASSIGNMENTS {
        let (w, x) = spec_widths(a, spec.num_layers());
        let report = verify_spec(&format!("{label}/{a}"), spec, &w, &x);
        assert!(report.ok(), "{}", report.render());
        rows.push(report_row(&report));
        checked += 1;
    }
    checked
}

/// Applies one named assignment to a built QAT network's weight widths
/// (activations stay at the calibrated W8 the executor quantizes inputs
/// to; residual joins keep their planned output widths).
fn apply_weights(net: &mut QatNetwork, name: &str) {
    let cycle = [BitWidth::W8, BitWidth::W4, BitWidth::W2];
    for i in 0..net.num_blocks() {
        let b = match name {
            "w8" => BitWidth::W8,
            "w4" => BitWidth::W4,
            "w2" => BitWidth::W2,
            "mixed" => cycle[i % 3],
            other => panic!("unknown assignment `{other}`"),
        };
        net.set_weight_bits(i, b);
    }
}

fn calibrated(spec: &MicroCnnSpec, seed: u64, ds_kind: SyntheticKind) -> QatNetwork {
    let input = spec.input_shape();
    let ds = DatasetSpec::new(ds_kind, input.h, input.w, input.c, 4)
        .with_samples(8)
        .with_noise(0.05)
        .generate(seed);
    let mut net = QatNetwork::build(spec, seed);
    net.calibrate_input(ds.images());
    net.enable_fake_quant(Granularity::PerChannel);
    net
}

fn graph_reports(
    model: &str,
    spec: &MicroCnnSpec,
    seed: u64,
    schemes: &[(QuantScheme, &str)],
    rows: &mut Vec<String>,
) -> usize {
    let backends: [(&dyn Backend, &str); 2] = [
        (&ReferenceBackend, "ref"),
        (&TiledBackend::default(), "tiled"),
    ];
    let mut checked = 0;
    for a in ASSIGNMENTS {
        let mut net = calibrated(spec, seed, SyntheticKind::Bars);
        apply_weights(&mut net, a);
        for (scheme, scheme_tag) in schemes {
            for (backend, btag) in backends {
                let int = convert_with_backend(&net, *scheme, backend)
                    .expect("calibrated network converts");
                let g = int.graph();
                let (shape, bits) = g.input_decl().expect("deployed graph declares its input");
                let label = format!("{model}/{btag}/{scheme_tag}/{a}");
                let report = verify_graph(&label, g, shape, bits);
                assert!(report.ok(), "{}", report.render());
                rows.push(report_row(&report));
                checked += 1;
            }
        }
    }
    checked
}

/// A forged-input case: the violation kinds the verifier must raise.
fn forged_row(case: &str, violations: &[Violation]) -> String {
    assert!(!violations.is_empty(), "forged case `{case}` was accepted");
    let kinds = violations
        .iter()
        .map(|v| format!("\"{}\"", v.kind()))
        .collect::<Vec<_>>()
        .join(", ");
    let mut o = JsonObject::new();
    o.string("case", case)
        .raw("kinds", format!("[{kinds}]"))
        .string("diagnostic", &violations[0].to_string());
    o.render()
}

fn forged_cases() -> Vec<String> {
    let mut rows = Vec::new();

    // An im2col row one element past the blocked GEMM's MAX_DOT_LEN contract:
    // arithmetically still safe (32769·255·255 < 2^31), so exactly one
    // violation — the contract, not the arithmetic.
    let (_, v) = check_dot_geometry("conv_forged", 40000, 32769, 255, 255);
    assert_eq!(v.len(), 1, "contract-only forgery raises exactly one");
    rows.push(forged_row("dot_chunk_exceeds_contract", &v));

    // A chunk past the arithmetic i32 bound as well (33100·255·255 > 2^31):
    // both lines crossed, both reported.
    let (_, v) = check_dot_geometry("conv_forged", 33100, 33100, 255, 255);
    assert_eq!(v.len(), 2, "overflowing forgery raises both");
    rows.push(forged_row("dot_chunk_overflows_i32", &v));

    // A liveness schedule that reclaims tensor 0 after step 0 while step 2
    // still reads it — the arena would alias the bytes.
    let inputs = vec![vec![0], vec![1], vec![0, 2]];
    let v = check_schedule(&inputs, &[0, 1, 2, 3]);
    rows.push(forged_row("schedule_aliases_live_tensor", &v));

    // A schedule that drops the terminal tensor early.
    let inputs = vec![vec![0], vec![1], vec![2]];
    let v = check_schedule(&inputs, &[0, 1, 2, 2]);
    rows.push(forged_row("schedule_drops_terminal", &v));

    // A residual join whose declared branch-b scale (0.6) disagrees with
    // the multiplier baked from the real one (0.25).
    let add = QAdd::from_scales(0.5, 0.25, 1.0, 10, 12, 7, BitWidth::W8)
        .with_declared_scales(0.5, 0.6, 1.0);
    let shape = Shape::feature_map(4, 4, 8);
    let (_, v) = verify_add_node(
        "add_forged",
        &add,
        [shape, shape],
        [BitWidth::W8, BitWidth::W8],
        [Some(10), Some(12)],
    );
    rows.push(forged_row("join_declared_scale_mismatch", &v));

    // The same join with a branch-a producer whose zero-point (11)
    // disagrees with what the add subtracts (10).
    let add = QAdd::from_scales(0.5, 0.25, 1.0, 10, 12, 7, BitWidth::W8);
    let (_, v) = verify_add_node(
        "add_forged",
        &add,
        [shape, shape],
        [BitWidth::W8, BitWidth::W8],
        [Some(11), Some(12)],
    );
    rows.push(forged_row("join_edge_zero_point_mismatch", &v));

    rows
}

fn main() {
    println!("verify_zoo — static graph/kernel verification sweep");

    // 1. Shape-level: the full Figure 2 MobileNet grid × assignments.
    let mut spec_rows = Vec::new();
    let mut spec_checked = 0;
    for cfg in MobileNetConfig::all() {
        spec_checked += spec_reports(&cfg.build(), &cfg.label(), &mut spec_rows);
    }
    // Residual micro topology at spec level (ResidualAdd + pool steps).
    let residual_net = QatNetwork::build(&mobilenet_like_residual(16, 2, 8, 4), 77);
    let residual_spec = network_spec_of(&residual_net, "micro_residual");
    spec_checked += spec_reports(&residual_spec, "micro_residual", &mut spec_rows);
    println!("spec sweep: {spec_checked} reports, all verified");

    // 2. Graph-level: lowered micro models × backend × scheme × assignment.
    let icn = [(QuantScheme::PerChannelIcn, "icn")];
    let all_schemes = [
        (QuantScheme::PerLayerFolded, "folded"),
        (QuantScheme::PerLayerIcn, "pl_icn"),
        (QuantScheme::PerChannelIcn, "icn"),
        (QuantScheme::PerChannelThresholds, "thr"),
    ];
    let mut graph_rows = Vec::new();
    let mut graph_checked = 0;
    graph_checked += graph_reports(
        "residual16",
        &mobilenet_like_residual(16, 2, 8, 4),
        77,
        &all_schemes,
        &mut graph_rows,
    );
    graph_checked += graph_reports("quickstart", &quickstart_cnn(4), 31, &icn, &mut graph_rows);
    graph_checked += graph_reports(
        "folding",
        &folding_stress_cnn(2, 4),
        55,
        &all_schemes,
        &mut graph_rows,
    );
    println!("graph sweep: {graph_checked} reports, all verified");

    // 3. Forged inputs must be rejected with precise diagnostics.
    let forged = forged_cases();
    println!("forged cases: {} rejected", forged.len());

    rule(72);
    println!(
        "total: {} verified reports, {} forged rejections",
        spec_checked + graph_checked,
        forged.len()
    );

    if let Some(path) = json_out_path() {
        let mut top = JsonObject::new();
        top.string("bench", "verify_zoo")
            .int("spec_reports", spec_checked)
            .int("graph_reports", graph_checked)
            .raw("spec", json_array(spec_rows))
            .raw("graph", json_array(graph_rows))
            .raw("forged", json_array(forged));
        write_json(&path, &top.render());
    }
}
