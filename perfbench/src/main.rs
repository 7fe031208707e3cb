//! End-to-end and per-layer benchmark of the mixq stack.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run deploys its workload (several times, to time set-up), checks
//! every output against the reference-kernel walk, measures for
//! `--seconds` and prints a metric table followed by one JSON line:
//! end-to-end metrics with `--trace 0`, per-layer metrics from the traced
//! replay with `--trace 1`. `--workload all` runs every workload in both
//! modes as child processes and prints all their tables.

mod adapter;
mod calib;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;
mod walk;

use std::process::{Command, ExitCode};

use mixq_core::convert::IntNetwork;
use mixq_mcu::{CortexM7CycleModel, Device};
use mixq_tensor::Tensor;

use adapter::Walker;
use calib::{Calibrator, Clock};
use report::{print_result, Sheet};
use setup::{Stages, Workload, SETUP_REPS};
use stats::sorted;

const USAGE: &str =
    "usage: perfbench --workload <w4_32px_b8|mixed_192_0.5_1mb|serve_32px_open|all> \
     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && Workload::parse(&workload).is_none() {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let w = Workload::parse(&args.workload).expect("validated by parse_args");
    println!("workload {}: {}", w.name(), w.describe());
    println!(
        "seed {} | seconds {} | trace {} | host {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        mixq_bench::harness::host_meta(1).render()
    );
    let ok = match w {
        Workload::W4Walk | Workload::Mixed1Mb => run_walk(w, &args),
        Workload::ServeOpen => run_serve(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, untraced then traced, each in its own process so
/// that peak memory is per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            println!();
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status()
                .expect("the benchmark can start itself");
            ok &= status.success();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set-up stage rows of the per-layer table.
fn put_stages(st: &Stages, sheet: &mut Sheet) {
    sheet.put("data.generate_ms", st.data_ms, "ms");
    sheet.put("nn.build_ms", st.build_ms, "ms");
    if let Some(us) = st.assign_us {
        sheet.note("core.assign_bits_us", us, "us");
    }
    sheet.put("core.cut_tensors", st.cut_tensors as f64, "count");
    sheet.put("core.convert_ms", st.convert_ms, "ms");
    sheet.put("verify.verify_graph_ms", st.verify_ms, "ms");
    if let Some(ms) = st.register_ms {
        sheet.note("serve.register_ms", ms, "ms");
    }
    sheet.put("bench.warmup_ms", st.warmup_ms, "ms");
}

/// Modeled Cortex-M7 cycles per sample of one walk of `net`.
fn mcu_cycles(net: &IntNetwork, walker: &mut Walker, images: &Tensor<f32>, batch: usize) -> u64 {
    let runs = walker.layer_runs(net, images, 0, batch);
    CortexM7CycleModel::default().cycles_from_runs_per_sample(&runs, batch as u64)
}

/// The footprint and model rows every workload reports for its deployed
/// (for serve: preferred) network.
fn put_deployment(net: &IntNetwork, cycles: u64, setup_s: f64, sheet: &mut Sheet) {
    sheet.put("setup_s", setup_s, "s");
    sheet.put(
        "peak_rss_mb",
        stats::peak_rss_mb().expect("the kernel reports peak RSS"),
        "MB",
    );
    sheet.put("mcu_cycles", cycles as f64, "cycles");
    sheet.note("mcu_latency_ms", Device::stm32h7().latency_ms(cycles), "ms");
    sheet.put("flash_bytes", net.flash_bytes() as f64, "bytes");
    sheet.put("ram_bytes", net.peak_ram_bytes() as f64, "bytes");
}

/// Host speed around one set-up: the mean of slices before and after.
fn around<T>(cal: &Calibrator, f: impl FnOnce() -> T) -> (T, f64) {
    let before = cal.speed();
    let out = f();
    (out, 0.5 * (before + cal.speed()))
}

fn run_walk(w: Workload, args: &Args) -> bool {
    let cal = Calibrator::new();
    let mut all_stages = Vec::new();
    let mut dep = None;
    for _ in 0..SETUP_REPS {
        drop(dep.take()); // free the previous deployment first
        let ((d, st), speed) = around(&cal, || setup::deploy_walk(w, args.seed));
        all_stages.push(st.scaled(speed));
        dep = Some(d);
    }
    let mut dep = dep.expect("at least one set-up");
    let st = Stages::median_of(&all_stages);
    let expected = walk::reference_logits(&dep);
    let mut sheet = Sheet::default();
    let (mut attempted, mut failed);
    let mut audit_ok = true;
    if !args.trace {
        let run = walk::timed(&mut dep, &expected, args.seconds, &cal);
        let calls = &run.scaled_us;
        sheet.put("samples_per_s", run.samples_per_s(), "samples/s");
        sheet.put("latency_p50_us", walk::block_percentile(calls, 50.0), "us");
        sheet.put("latency_p99_us", walk::block_percentile(calls, 99.0), "us");
        let cycles = mcu_cycles(&dep.net, &mut dep.walker, &dep.images, dep.batch);
        put_deployment(&dep.net, cycles, st.total_s, &mut sheet);
        sheet.note("raw.samples_per_s", run.raw_samples_per_s(), "samples/s");
        let raw = &run.call_us;
        sheet.note(
            "raw.latency_p50_us",
            walk::block_percentile(raw, 50.0),
            "us",
        );
        sheet.note(
            "raw.latency_p99_us",
            walk::block_percentile(raw, 99.0),
            "us",
        );
        let whole = sorted(calls.clone());
        sheet.note(
            "whole_run.latency_p99_us",
            stats::percentile(&whole, 99.0),
            "us",
        );
        sheet.note("host_speed", stats::median(&run.speeds), "x nominal");
        sheet.note("calls", calls.len() as f64, "count");
        sheet.note(
            "error_ratio",
            run.mismatches as f64 / calls.len() as f64,
            "ratio",
        );
        attempted = calls.len() as u64;
        failed = run.mismatches;
    } else {
        // The 32 px network's traced run also serves it: the serve layer
        // is measured on this workload, whose figures are steady enough
        // to gate on (see the serve workload in README.md).
        let parts = if w == Workload::W4Walk { 3.0 } else { 2.0 };
        let part = args.seconds / parts;
        // The untraced closed loop is the base of the trace overhead.
        let run = walk::timed(&mut dep, &expected, part, &cal);
        let tr = trace::replay(
            &dep.net,
            &mut dep.walker,
            &dep.images,
            dep.batch,
            &expected,
            part,
            &cal,
            dep.threads,
        );
        put_stages(&st, &mut sheet);
        let overhead = tr.walk_us_per_sample() * run.samples_per_s() / 1e6;
        attempted = run.call_us.len() as u64 + tr.passes;
        failed = run.mismatches + tr.mismatches;
        trace::fill_sheet(&[tr], &mut sheet);
        sheet.put(
            "kernels.prepacked_bytes",
            dep.net.prepacked_bytes() as f64,
            "bytes",
        );
        sheet.put(
            "kernels.arena_bytes",
            dep.walker.arena_bytes() as f64,
            "bytes",
        );
        if w == Workload::W4Walk {
            drop(dep);
            let (mut served, serve_st) = setup::deploy_serve(args.seed);
            if let Some(ms) = serve_st.register_ms {
                sheet.note("serve.register_ms", ms, "ms");
            }
            let oracle = serve::Oracle::new(&served);
            let ladder = serve::run_audited(&mut served, &oracle, part, &cal);
            serve::fill_sheet(&ladder, &mut sheet);
            attempted += ladder.offered;
            // The ladder here measures the serve layer; only wrong or
            // lost answers are failures, while refusals under a host
            // stall show in `serve.shed_ratio`.
            failed += ladder.wrong_or_lost;
            audit_ok = ladder.audit_ok;
        } else {
            serve::fill_counters(&Default::default(), &mut sheet);
        }
        sheet.put("bench.trace_overhead_ratio", overhead, "ratio");
    }
    finish(w, args, &sheet, attempted, failed, audit_ok)
}

/// Prints the table and the result line; returns whether the run is
/// correct.
fn finish(
    w: Workload,
    args: &Args,
    sheet: &Sheet,
    attempted: u64,
    failed: u64,
    audit_ok: bool,
) -> bool {
    let mode = if args.trace {
        "per-layer (traced replay)"
    } else {
        "end to end"
    };
    sheet.print_table(&format!("{} {mode}", w.name()));
    let correct = failed == 0 && audit_ok;
    print_result(correct, attempted, failed, sheet);
    correct
}

/// Deploys the serve workload `SETUP_REPS` times; returns the last
/// deployment and the median stage times.
fn deploy_serve_reps(seed: u64, cal: &Calibrator) -> (setup::ServeDeployment, Stages) {
    let mut all_stages = Vec::new();
    let mut dep: Option<setup::ServeDeployment> = None;
    for _ in 0..SETUP_REPS {
        if let Some(mut old) = dep.take() {
            old.runtime.shutdown();
        }
        let ((d, st), speed) = around(cal, || setup::deploy_serve(seed));
        all_stages.push(st.scaled(speed));
        dep = Some(d);
    }
    (
        dep.expect("at least one set-up"),
        Stages::median_of(&all_stages),
    )
}

fn run_serve(args: &Args) -> bool {
    let cal = Calibrator::new();
    let (mut dep, st) = deploy_serve_reps(args.seed, &cal);
    let oracle = serve::Oracle::new(&dep);
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let run = serve::run_audited(&mut dep, &oracle, budget, &cal);
    let speed = run.ladder.speed;
    println!("host speed over the ladder: {speed:.4} of nominal");
    let mut sheet = Sheet::default();
    let (mut attempted, mut failed) = (run.offered, run.errors());
    if !args.trace {
        // Overload goodput is compute-bound and is scaled like the walk
        // workloads' throughput; latencies and capacity include the
        // wall-clock linger timer and host wake-up stalls and stay raw.
        let goodput = run.overload_goodput();
        sheet.put("samples_per_s", goodput / speed, "samples/s");
        sheet.put("latency_p50_us", run.reference_latency(50.0), "us");
        sheet.put("latency_p99_us", run.reference_latency(99.0), "us");
        sheet.note("capacity_rps", run.capacity(), "req/s");
        let (label, net) = &dep.variants[0];
        let cycles = mcu_cycles(net, &mut Walker::new(1), &dep.images, 1);
        put_deployment(net, cycles, st.total_s, &mut sheet);
        sheet.note("raw.samples_per_s", goodput, "samples/s");
        sheet.note("reference_rps", serve::REFERENCE_RPS, "req/s");
        let at_reference = serve::reference(&run.rungs);
        sheet.note("reference_requests", at_reference.offered as f64, "count");
        sheet.note(
            "error_ratio",
            run.errors() as f64 / at_reference.offered as f64,
            "ratio",
        );
        println!("deployment metrics are for the preferred variant `{label}`");
    } else {
        put_stages(&st, &mut sheet);
        let mut traces = Vec::new();
        let (mut prepacked, mut arena, mut untraced_us) = (0, 0, 0.0);
        let share = args.seconds / 2.0 / dep.variants.len() as f64;
        for ((label, net), expected) in dep.variants.iter().zip(&oracle.batches) {
            let mut w = Walker::new(1);
            w.infer(net, &dep.images, 0, setup::SERVE_BATCH);
            let tr = trace::replay(
                net,
                &mut w,
                &dep.images,
                setup::SERVE_BATCH,
                expected,
                share,
                &cal,
                1,
            );
            println!("replayed `{label}`: {} passes", tr.passes);
            untraced_us += untraced_walk_us(net, &mut w, &dep.images, expected.len(), &cal);
            prepacked += net.prepacked_bytes();
            arena += w.arena_bytes();
            attempted += tr.passes;
            failed += tr.mismatches;
            traces.push(tr);
        }
        let traced_us: f64 = traces.iter().map(trace::Trace::walk_us_per_sample).sum();
        trace::fill_sheet(&traces, &mut sheet);
        sheet.put("kernels.prepacked_bytes", prepacked as f64, "bytes");
        sheet.put("kernels.arena_bytes", arena as f64, "bytes");
        serve::fill_sheet(&run, &mut sheet);
        sheet.put(
            "bench.trace_overhead_ratio",
            traced_us / untraced_us,
            "ratio",
        );
    }
    finish(
        Workload::ServeOpen,
        args,
        &sheet,
        attempted,
        failed,
        run.audit_ok,
    )
}

/// Untraced walk time per sample of `net` over its input batches on the
/// process's CPU clock, µs: the base of the serve workload's trace
/// overhead.
fn untraced_walk_us(
    net: &IntNetwork,
    w: &mut Walker,
    images: &Tensor<f32>,
    batches: usize,
    cal: &Calibrator,
) -> f64 {
    let reps = 20;
    let (busy_ns, speed) = around(cal, || {
        let t = Clock::Cpu.now();
        for _ in 0..reps {
            for b in 0..batches {
                w.infer(net, images, b * setup::SERVE_BATCH, setup::SERVE_BATCH);
            }
        }
        Clock::Cpu.since(t)
    });
    busy_ns * speed * 1e-3 / (reps * batches * setup::SERVE_BATCH) as f64
}
