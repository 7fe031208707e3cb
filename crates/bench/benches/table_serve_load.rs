//! Serving under load: the `mixq-serve` runtime's admission, shed,
//! degradation, deadline and fault-recovery behaviour as offered load
//! sweeps from idle to overload.
//!
//! The discrete-event [`Simulator`] replays fixed submission traces
//! (64 requests at inter-arrival {200, 100, 50, 20, 5} µs, every 8th at
//! `Low` priority, 800 µs deadlines) against the *real* engine state
//! machine with a fixed integer [`ServiceModel`], plus one faulted trace
//! (a scripted panic, a worker kill and a delayed batch). Every outcome
//! count, flush tally, queue depth and p50/p99 is a pure integer function
//! of the trace, so `--json` is golden-tested byte for byte and pins the
//! math the threaded runtime shares.
//!
//! Real-clock serving is measured by `perfbench`, whose serve ladder
//! searches capacity under an SLO and audits exactly-once resolution;
//! `crates/serve/tests/fault_injection.rs` runs the runtime on the
//! monotonic clock too.
//!
//! Run with: `cargo bench --bench table_serve_load`
//! (`--json <path>` writes the deterministic golden).

use mixq_bench::harness::{json_array, json_out_path, rule, write_json, JsonObject};
use mixq_serve::{
    BatcherConfig, FaultPlan, ModelInfo, Priority, ServeConfig, ServiceModel, SimReport, SimSubmit,
    Simulator,
};

const REQUESTS: usize = 64;
/// Offered inter-arrival gaps (virtual µs). The service model drains a
/// full batch of 8 in 200 µs (25 µs/request), so the sweep crosses from
/// under-load (200 µs gaps) through degradation onset (20 µs) to 5×
/// overload (5 µs gaps) where backpressure sheds and queued requests blow
/// their 800 µs deadlines.
const SIM_GAPS_US: [u64; 5] = [200, 100, 50, 20, 5];

fn serve_cfg() -> ServeConfig {
    ServeConfig::default()
        .with_queue_capacity(32)
        .with_shed_watermark(24)
        .with_degrade_watermark(12)
        .with_batcher(BatcherConfig {
            batch_max: 8,
            deadline_us: 500,
        })
        .with_workers(1)
}

/// A fixed offered-load trace: `REQUESTS` submissions `gap_us` apart,
/// every 8th at `Low` priority (shed fodder), all with an 800 µs deadline.
fn load_trace(gap_us: u64) -> Vec<SimSubmit> {
    (0..REQUESTS as u64)
        .map(|i| {
            let sub = SimSubmit::at(i * gap_us, "cnn").deadline(800);
            if i % 8 == 7 {
                sub.priority(Priority::Low)
            } else {
                sub
            }
        })
        .collect()
}

/// Histogram of a simulated trace's outcome labels by class prefix.
fn outcome_counts(report: &SimReport) -> (usize, usize, usize, usize, usize) {
    let count = |pred: &dyn Fn(&str) -> bool| report.outcomes.iter().filter(|o| pred(o)).count();
    (
        count(&|o| o.starts_with("ok:") && !o.ends_with(":degraded")),
        count(&|o| o.ends_with(":degraded")),
        count(&|o| o.starts_with("shed:")),
        count(&|o| o == "deadline"),
        count(&|o| o.starts_with("failed:")),
    )
}

fn sim_row_json(gap_us: u64, faulted: bool, report: &SimReport) -> String {
    let (ok, degraded, shed, deadline, failed) = outcome_counts(report);
    let reasons = |r: &str| report.flushes.iter().filter(|f| f.reason == r).count();
    let mut obj = JsonObject::new();
    obj.int("inter_arrival_us", gap_us as usize)
        .bool("faulted", faulted)
        .int("requests", report.outcomes.len())
        .int("ok", ok)
        .int("ok_degraded", degraded)
        .int("shed", shed)
        .int("deadline", deadline)
        .int("failed", failed)
        .int("batches", report.flushes.len())
        .int("flush_full", reasons("full"))
        .int("flush_deadline", reasons("deadline"))
        .int("flush_drain", reasons("drain"))
        .int("max_depth", report.stats.max_depth)
        .int("p50_us", report.p50_us as usize)
        .int("p99_us", report.p99_us as usize);
    obj.render()
}

fn main() {
    let models = vec![ModelInfo {
        name: "cnn".into(),
        variant_labels: vec!["w8".into(), "w4".into()],
    }];
    let service = ServiceModel {
        base_us: 80,
        per_item_us: 15,
    };
    let sim = Simulator::new(serve_cfg(), models.clone(), service, FaultPlan::new())
        .expect("config validates");

    println!(
        "serving under load — {REQUESTS} requests/trace, batch_max 8, linger 500us, \
         queue 32 (shed Low at 24, degrade w8->w4 at 12), 800us deadlines"
    );
    println!("\n== simulated schedule (virtual us; goldenable) ==");
    println!(
        "{:<10} {:>4} {:>9} {:>6} {:>9} {:>7} {:>8} {:>8} {:>8}",
        "gap_us", "ok", "degraded", "shed", "deadline", "failed", "batches", "p50_us", "p99_us"
    );
    rule(76);
    let mut sim_rows = Vec::new();
    for &gap in &SIM_GAPS_US {
        let report = sim.run(&load_trace(gap));
        let (ok, degraded, shed, deadline, failed) = outcome_counts(&report);
        println!(
            "{gap:<10} {ok:>4} {degraded:>9} {shed:>6} {deadline:>9} {failed:>7} {:>8} {:>8} {:>8}",
            report.flushes.len(),
            report.p50_us,
            report.p99_us
        );
        sim_rows.push(sim_row_json(gap, false, &report));
    }

    // The faulted replay: same 50 µs trace with a scripted request
    // panic, a delayed batch and a worker kill — the golden also pins
    // the bisect-retry and respawn accounting.
    let faults = FaultPlan::new()
        .panic_on_request(7)
        .delay_batch(1, 900)
        .kill_worker_on_batch(2);
    let faulted_sim =
        Simulator::new(serve_cfg(), models, service, faults).expect("config validates");
    let faulted = faulted_sim.run(&load_trace(50));
    let (ok, degraded, shed, deadline, failed) = outcome_counts(&faulted);
    println!(
        "{:<10} {ok:>4} {degraded:>9} {shed:>6} {deadline:>9} {failed:>7} {:>8} {:>8} {:>8}",
        "50+faults",
        faulted.flushes.len(),
        faulted.p50_us,
        faulted.p99_us
    );
    assert!(failed > 0, "scripted faults must surface as Failed");
    assert_eq!(
        faulted.stats.resolved() + faulted.stats.rejected_queue_full + faulted.stats.rejected_shed,
        faulted.stats.submitted,
        "faulted trace still resolves every request"
    );
    sim_rows.push(sim_row_json(50, true, &faulted));

    if let Some(path) = json_out_path() {
        let mut root = JsonObject::new();
        root.string("bench", "table_serve_load")
            .string("model", "cnn[w8,w4] (mobilenet_like_residual 8px)")
            .int("requests_per_trace", REQUESTS)
            .int("service_base_us", service.base_us as usize)
            .int("service_per_item_us", service.per_item_us as usize)
            .raw("loads", json_array(sim_rows));
        write_json(&path, &root.render());
    }
}
