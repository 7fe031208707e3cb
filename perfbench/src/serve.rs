//! The open-loop serve workload: one generator thread offers requests on
//! a fixed schedule over a ladder of rates, whatever the runtime's
//! progress, and stamps each completion itself.

use std::time::{Duration, Instant};

use mixq_serve::{OutcomeClass, ResponseHandle, ServeError, StatsSnapshot, SubmitOptions};

use crate::adapter::Walker;
use crate::calib::Calibrator;
use crate::report::Sheet;
use crate::setup::{serve_config, ServeDeployment, SERVE_BATCH, SERVE_MODEL};
use crate::stats::{median, percentile, sorted};

/// Offered rates, req/s, from linger-bound through overload.
pub const LADDER_RPS: [f64; 10] = [
    1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0, 4000.0, 5000.0, 6000.0, 12000.0,
];
/// The rate whose latency the end-to-end p50/p99 report.
pub const REFERENCE_RPS: f64 = 1000.0;
/// Requests per rung and pass, so every rung's p99 has ten samples
/// beyond it.
pub const RUNG_REQUESTS: usize = 1000;
/// Latency limit of the SLO, from due time to logits.
pub const SLO_US: f64 = 5000.0;
/// Share of offered requests that must be answered within [`SLO_US`]:
/// this is both "p99 ≤ 5 ms" and "at least 99 % answered", since a
/// refused or failed request misses the limit.
pub const SLO_SHARE: f64 = 0.99;
/// A rung whose generator lateness p99 exceeds this is marked late.
const LATE_US: f64 = 100.0;
/// How long a rung may take to drain before its stragglers count as lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// Nominal length of one pass over the ladder.
pub fn pass_seconds() -> f64 {
    LADDER_RPS.iter().map(|r| RUNG_REQUESTS as f64 / r).sum()
}

/// One rung's tallies, for one pass or pooled over passes.
#[derive(Default, Clone)]
pub struct Rung {
    pub rate: f64,
    pub offered: u64,
    /// Answered with logits (degraded included).
    pub answered: u64,
    pub degraded: u64,
    pub refused: u64,
    pub deadline: u64,
    pub failed: u64,
    /// Answers whose logits differ from the reference walk.
    pub wrong: u64,
    pub within_slo: u64,
    /// Due time → completion stamp of answered requests, µs.
    pub latency_us: Vec<f64>,
    /// `ServeOutput.latency_us` (runtime submit → resolve), µs.
    pub service_us: Vec<f64>,
    /// Duration of each `submit` call, µs.
    pub submit_us: Vec<f64>,
    /// Send time − due time, µs.
    pub late_us: Vec<f64>,
    /// Mean outstanding requests over the second and the last quarter of
    /// the sends, summed over passes.
    pub backlog_q2: f64,
    pub backlog_q4: f64,
    /// First due time → last completion, summed over passes, s.
    pub busy_s: f64,
}

impl Rung {
    /// Adds another pass's tallies of the same rate.
    fn merge(&mut self, o: &Rung) {
        self.offered += o.offered;
        self.answered += o.answered;
        self.degraded += o.degraded;
        self.refused += o.refused;
        self.deadline += o.deadline;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.within_slo += o.within_slo;
        self.latency_us.extend(&o.latency_us);
        self.service_us.extend(&o.service_us);
        self.submit_us.extend(&o.submit_us);
        self.late_us.extend(&o.late_us);
        self.backlog_q2 += o.backlog_q2;
        self.backlog_q4 += o.backlog_q4;
        self.busy_s += o.busy_s;
    }

    /// A latency percentile of the answered requests, µs.
    pub fn latency_pct(&self, p: f64) -> f64 {
        percentile(&sorted(self.latency_us.clone()), p)
    }

    /// Answered requests per second of the rung's duration.
    pub fn goodput(&self) -> f64 {
        self.answered as f64 / self.busy_s
    }

    /// Share of offered requests answered within the SLO limit.
    pub fn slo_share(&self) -> f64 {
        self.within_slo as f64 / self.offered as f64
    }

    /// Whether the outstanding count kept growing through the rung.
    pub fn backlog_grows(&self) -> bool {
        self.backlog_q4 > self.backlog_q2 + SERVE_BATCH as f64 * self.passes()
    }

    fn passes(&self) -> f64 {
        (self.offered as usize / RUNG_REQUESTS) as f64
    }
}

struct InFlight {
    handle: ResponseHandle,
    due_us: f64,
    input: usize,
}

/// Reference logits of request `input` under variant `variant`.
pub struct Oracle {
    /// `[variant][input]` logits.
    logits: Vec<Vec<Vec<i32>>>,
    /// Variant labels, in registry order.
    labels: Vec<String>,
    /// `[variant][batch]` logits of the inputs taken `SERVE_BATCH` at a
    /// time, for the traced replay.
    pub batches: Vec<Vec<Vec<i32>>>,
}

impl Oracle {
    /// Walks every input through the reference-kernel twin of every
    /// variant.
    pub fn new(dep: &ServeDeployment) -> Oracle {
        let n = dep.requests.len();
        let classes = dep.variants[0].1.num_classes();
        let mut walker = Walker::new(1);
        let batches: Vec<Vec<Vec<i32>>> = dep
            .references
            .iter()
            .map(|r| {
                (0..n / SERVE_BATCH)
                    .map(|b| {
                        walker
                            .infer(r, &dep.images, b * SERVE_BATCH, SERVE_BATCH)
                            .to_vec()
                    })
                    .collect()
            })
            .collect();
        Oracle {
            logits: batches
                .iter()
                .map(|bl| {
                    bl.iter()
                        .flat_map(|b| b.chunks(classes).map(<[i32]>::to_vec))
                        .collect()
                })
                .collect(),
            labels: dep.variants.iter().map(|(l, _)| l.clone()).collect(),
            batches,
        }
    }

    fn check(&self, label: &str, input: usize, logits: &[i32]) -> bool {
        let v = self
            .labels
            .iter()
            .position(|l| l == label)
            .expect("answers name a registered variant");
        self.logits[v][input] == logits
    }
}

/// Moves every resolved request out of `flight` into the rung's tallies.
fn poll(flight: &mut Vec<InFlight>, rung: &mut Rung, origin: Instant, oracle: &Oracle) {
    let mut i = 0;
    while i < flight.len() {
        let Some(result) = flight[i].handle.try_get() else {
            i += 1;
            continue;
        };
        let now_us = origin.elapsed().as_secs_f64() * 1e6;
        let done = flight.swap_remove(i);
        match result {
            Ok(out) => {
                let latency = now_us - done.due_us;
                rung.answered += 1;
                rung.degraded += u64::from(out.degraded);
                rung.within_slo += u64::from(latency <= SLO_US);
                rung.latency_us.push(latency);
                rung.service_us.push(out.latency_us as f64);
                if !oracle.check(&out.variant, done.input, &out.logits) {
                    rung.wrong += 1;
                    if rung.wrong <= 3 {
                        println!(
                            "MISMATCH: request for input {} served by {} differs from the reference walk",
                            done.input, out.variant
                        );
                    }
                }
            }
            Err(e) => tally_error(rung, &e),
        }
    }
}

fn tally_error(rung: &mut Rung, e: &ServeError) {
    match e.class() {
        OutcomeClass::Shed => rung.refused += 1,
        OutcomeClass::Deadline => rung.deadline += 1,
        _ => {
            rung.failed += 1;
            println!("FAILED: {e}");
        }
    }
}

/// Offers one rung of `RUNG_REQUESTS` requests at `rate` and waits for
/// all of them, adding the tallies to `rung`.
fn run_rung(
    dep: &ServeDeployment,
    rate: f64,
    oracle: &Oracle,
    rung: &mut Rung,
    next_input: &mut usize,
) {
    let origin = Instant::now();
    // The first request is due shortly after the rung starts, so the
    // generator begins on time.
    let lead_us = 200.0;
    let gap_us = 1e6 / rate;
    let mut flight: Vec<InFlight> = Vec::with_capacity(64);
    let (q2, q4) = (
        RUNG_REQUESTS / 4..RUNG_REQUESTS / 2,
        RUNG_REQUESTS * 3 / 4..RUNG_REQUESTS,
    );
    let (mut sum_q2, mut sum_q4) = (0usize, 0usize);
    for i in 0..RUNG_REQUESTS {
        let input = *next_input;
        *next_input = (input + 1) % dep.requests.len();
        let x = dep.requests[input].clone();
        let due_us = lead_us + i as f64 * gap_us;
        while origin.elapsed().as_secs_f64() * 1e6 < due_us {
            poll(&mut flight, rung, origin, oracle);
        }
        let sent = origin.elapsed();
        let result = dep.runtime.submit(SERVE_MODEL, x, SubmitOptions::default());
        rung.submit_us
            .push((origin.elapsed() - sent).as_secs_f64() * 1e6);
        rung.late_us.push(sent.as_secs_f64() * 1e6 - due_us);
        match result {
            Ok(handle) => flight.push(InFlight {
                handle,
                due_us,
                input,
            }),
            Err(e) => tally_error(rung, &e),
        }
        if q2.contains(&i) {
            sum_q2 += flight.len();
        } else if q4.contains(&i) {
            sum_q4 += flight.len();
        }
    }
    let drain_start = Instant::now();
    while !flight.is_empty() {
        poll(&mut flight, rung, origin, oracle);
        if drain_start.elapsed() > DRAIN_LIMIT {
            println!(
                "FAILED: {} requests unresolved after the drain limit",
                flight.len()
            );
            rung.failed += flight.len() as u64;
            break;
        }
    }
    rung.offered += RUNG_REQUESTS as u64;
    rung.backlog_q2 += sum_q2 as f64 / q2.len() as f64;
    rung.backlog_q4 += sum_q4 as f64 / q4.len() as f64;
    rung.busy_s += origin.elapsed().as_secs_f64() - lead_us * 1e-6;
}

/// Every pass over the ladder, and the host speed while it ran.
pub struct Ladder {
    /// `[pass][rung]`.
    pub passes: Vec<Vec<Rung>>,
    /// Median host speed of the calibration slices taken before each
    /// rung, while the runtime is idle.
    pub speed: f64,
}

impl Ladder {
    /// One rung per rate, pooled over passes.
    pub fn pooled(&self) -> Vec<Rung> {
        let mut out = self.passes[0].clone();
        for pass in &self.passes[1..] {
            for (a, b) in out.iter_mut().zip(pass) {
                a.merge(b);
            }
        }
        out
    }

    /// The median over passes of a per-pass statistic: one slow phase of
    /// the host spoils a pass, not the run.
    pub fn median_over_passes(&self, f: impl Fn(&[Rung]) -> f64) -> f64 {
        median(&self.passes.iter().map(|p| f(p)).collect::<Vec<_>>())
    }
}

/// The rung of the reference rate in one pass.
pub fn reference(pass: &[Rung]) -> &Rung {
    pass.iter()
        .find(|r| r.rate == REFERENCE_RPS)
        .expect("the ladder holds the reference rate")
}

/// Runs `passes` passes over the ladder.
fn run_ladder(dep: &ServeDeployment, oracle: &Oracle, passes: usize, cal: &Calibrator) -> Ladder {
    let mut next_input = 0;
    let mut speeds = Vec::new();
    let passes = (0..passes)
        .map(|_| {
            LADDER_RPS
                .iter()
                .map(|&rate| {
                    let mut rung = Rung {
                        rate,
                        ..Rung::default()
                    };
                    speeds.push(cal.speed());
                    run_rung(dep, rate, oracle, &mut rung, &mut next_input);
                    rung
                })
                .collect()
        })
        .collect();
    Ladder {
        passes,
        speed: median(&speeds),
    }
}

/// The highest offered rate meeting the SLO without a growing backlog,
/// interpolated linearly in the SLO share between the last rung that
/// meets it and the first that does not.
pub fn capacity(rungs: &[Rung]) -> f64 {
    let Some(f) = rungs
        .iter()
        .position(|r| r.slo_share() < SLO_SHARE || r.backlog_grows())
    else {
        println!("WARNING: every rung meets the SLO; capacity is at least the top rate");
        return rungs.last().expect("non-empty ladder").rate;
    };
    let fail = &rungs[f];
    if f == 0 {
        // Capacity lies below the ladder: scale the first rate by the
        // share it served within the SLO.
        return fail.rate * fail.slo_share();
    }
    let pass = &rungs[f - 1];
    if fail.backlog_grows() && fail.slo_share() >= SLO_SHARE {
        return pass.rate;
    }
    let t = (pass.slo_share() - SLO_SHARE) / (pass.slo_share() - fail.slo_share());
    pass.rate + (fail.rate - pass.rate) * t.clamp(0.0, 1.0)
}

/// Prints the per-rung table, pooled over passes.
pub fn print_rungs(rungs: &[Rung]) {
    println!("== serve ladder (pooled over passes; latency from due time) ==");
    println!(
        "{:>7} {:>7} {:>8} {:>8} {:>7} {:>6} {:>9} {:>9} {:>9} {:>8} {:>11} {:>12}",
        "req/s",
        "offered",
        "answered",
        "degraded",
        "refused",
        "failed",
        "p50_us",
        "p99_us",
        "slo_share",
        "backlog",
        "late_p99_us",
        "svc_p99_us"
    );
    for r in rungs {
        let lat = sorted(r.latency_us.clone());
        let (p50, p99) = if lat.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (percentile(&lat, 50.0), percentile(&lat, 99.0))
        };
        let late_p99 = percentile(&sorted(r.late_us.clone()), 99.0);
        let svc = sorted(r.service_us.clone());
        let svc_p99 = if svc.is_empty() {
            f64::NAN
        } else {
            percentile(&svc, 99.0)
        };
        println!(
            "{:>7.0} {:>7} {:>8} {:>8} {:>7} {:>6} {:>9.0} {:>9.0} {:>9.4} {:>8} {:>6.0}{:>5} {:>12.0}",
            r.rate,
            r.offered,
            r.answered,
            r.degraded,
            r.refused,
            r.failed + r.deadline + r.wrong,
            p50,
            p99,
            r.slo_share(),
            if r.backlog_grows() { "grows" } else { "flat" },
            late_p99,
            if late_p99 > LATE_US { "LATE" } else { "" },
            svc_p99
        );
    }
}

/// Serve rows of the per-layer table from the generator's stamps and the
/// runtime's counters over the ladder.
pub fn fill_sheet(run: &LadderRun, sheet: &mut Sheet) {
    let all = |f: fn(&Rung) -> &Vec<f64>| {
        sorted(
            run.rungs
                .iter()
                .flat_map(|r| f(r).iter().copied())
                .collect(),
        )
    };
    let submit = all(|r| &r.submit_us);
    let service = all(|r| &r.service_us);
    let late = all(|r| &r.late_us);
    sheet.note("serve.submit_us_p50", percentile(&submit, 50.0), "us");
    sheet.note("serve.submit_us_p99", percentile(&submit, 99.0), "us");
    sheet.note("serve.service_us_p50", percentile(&service, 50.0), "us");
    sheet.note("serve.service_us_p99", percentile(&service, 99.0), "us");
    sheet.note("bench.gen_late_p99_us", percentile(&late, 99.0), "us");
    fill_counters(&run.delta, sheet);
}

/// The runtime-counter rows; all zero for the closed-loop workloads,
/// which do not serve.
pub fn fill_counters(delta: &StatsSnapshot, sheet: &mut Sheet) {
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let batches = delta.batches;
    sheet.put(
        "serve.batch_fill",
        ratio(delta.accepted, batches * SERVE_BATCH as u64),
        "ratio",
    );
    sheet.put(
        "serve.flush_full_ratio",
        ratio(delta.flush_full, batches),
        "ratio",
    );
    sheet.put(
        "serve.flush_deadline_ratio",
        ratio(delta.flush_deadline, batches),
        "ratio",
    );
    sheet.put("serve.max_depth", delta.max_depth as f64, "count");
    let offered = delta.submitted;
    sheet.put(
        "serve.degraded_ratio",
        ratio(delta.degraded, offered),
        "ratio",
    );
    sheet.put(
        "serve.shed_ratio",
        ratio(delta.rejected_queue_full + delta.rejected_shed, offered),
        "ratio",
    );
    sheet.put(
        "serve.deadline_ratio",
        ratio(delta.deadline_expired, offered),
        "ratio",
    );
    sheet.put("serve.failed_ratio", ratio(delta.failed, offered), "ratio");
    sheet.put("serve.batch_retries", delta.batch_retries as f64, "count");
}

/// A ladder run on a deployment, audited after the runtime shut down.
pub struct LadderRun {
    pub ladder: Ladder,
    /// One rung per rate, pooled over passes.
    pub rungs: Vec<Rung>,
    /// Runtime counters over the ladder (the queue-depth mark over the
    /// runtime's life).
    pub delta: StatsSnapshot,
    /// Requests offered over the ladder.
    pub offered: u64,
    /// Answers whose logits differ from the reference walk, plus
    /// requests that failed or were lost, at any rate.
    pub wrong_or_lost: u64,
    /// Requests refused or past their deadline at the reference rate.
    pub refused_at_reference: u64,
    /// Whether the exactly-once and bounded-queue audit held.
    pub audit_ok: bool,
}

impl LadderRun {
    /// The serve workload's errors: refused or late requests at the
    /// reference rate, wrong answers and lost requests anywhere.
    pub fn errors(&self) -> u64 {
        self.refused_at_reference + self.wrong_or_lost
    }

    /// Median over passes of the per-pass capacity.
    pub fn capacity(&self) -> f64 {
        self.ladder.median_over_passes(capacity)
    }

    /// Median over passes of a latency percentile at the reference rate.
    pub fn reference_latency(&self, p: f64) -> f64 {
        self.ladder
            .median_over_passes(|pass| reference(pass).latency_pct(p))
    }

    /// Median over passes of the top rung's answered requests per second.
    pub fn overload_goodput(&self) -> f64 {
        self.ladder
            .median_over_passes(|pass| pass.last().expect("non-empty ladder").goodput())
    }
}

/// Counter growth between two snapshots (the queue-depth mark is a
/// high-water mark and is taken from the later one).
fn delta(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        submitted: b.submitted - a.submitted,
        accepted: b.accepted - a.accepted,
        rejected_queue_full: b.rejected_queue_full - a.rejected_queue_full,
        rejected_shed: b.rejected_shed - a.rejected_shed,
        rejected_bad_input: b.rejected_bad_input - a.rejected_bad_input,
        completed_ok: b.completed_ok - a.completed_ok,
        deadline_expired: b.deadline_expired - a.deadline_expired,
        failed: b.failed - a.failed,
        degraded: b.degraded - a.degraded,
        batches: b.batches - a.batches,
        flush_full: b.flush_full - a.flush_full,
        flush_deadline: b.flush_deadline - a.flush_deadline,
        flush_drain: b.flush_drain - a.flush_drain,
        batch_retries: b.batch_retries - a.batch_retries,
        worker_panics: b.worker_panics - a.worker_panics,
        respawns: b.respawns - a.respawns,
        max_depth: b.max_depth,
    }
}

/// Runs as many ladder passes as fit in `seconds` (at least one), shuts
/// the runtime down, audits exactly-once resolution and bounded depth,
/// and prints the ladder tables.
pub fn run_audited(
    dep: &mut ServeDeployment,
    oracle: &Oracle,
    seconds: f64,
    cal: &Calibrator,
) -> LadderRun {
    let passes = ((seconds / pass_seconds()).floor() as usize).max(1);
    let before = dep.runtime.stats();
    let ladder = run_ladder(dep, oracle, passes, cal);
    let after = dep.runtime.stats();
    let last = dep.runtime.shutdown();
    let rungs = ladder.pooled();

    // Exactly-once audit over the runtime's whole life: every submitted
    // request was refused at admission or resolved once, and the queue
    // stayed within its capacity.
    let offered: u64 = rungs.iter().map(|r| r.offered).sum();
    let refused = last.rejected_queue_full + last.rejected_shed + last.rejected_bad_input;
    let mut audit_ok = true;
    let mut check = |cond: bool, what: &str| {
        if !cond {
            println!("AUDIT FAILED: {what}");
            audit_ok = false;
        }
    };
    check(
        last.submitted == dep.warmup_requests + offered,
        "submitted == warm-up + offered",
    );
    check(
        last.resolved() + refused == last.submitted,
        "resolved + refused == submitted",
    );
    check(last.accepted == last.resolved(), "accepted == resolved");
    check(
        last.max_depth <= serve_config().queue_capacity,
        "queue depth within capacity",
    );

    print_rungs(&rungs);
    println!("per pass (capacity: SLO {SLO_SHARE} of offered answered within {SLO_US} us, flat backlog):");
    for (i, p) in ladder.passes.iter().enumerate() {
        println!(
            "  pass {i}: capacity {:.0} req/s, reference p50 {:.0} us p99 {:.0} us, top-rung goodput {:.0}/s",
            capacity(p),
            reference(p).latency_pct(50.0),
            reference(p).latency_pct(99.0),
            p.last().expect("non-empty ladder").goodput()
        );
    }
    let at_reference = reference(&rungs);
    let wrong: u64 = rungs.iter().map(|r| r.wrong).sum();
    let lost: u64 = rungs.iter().map(|r| r.failed).sum();
    let refused_at_reference = at_reference.refused + at_reference.deadline;
    LadderRun {
        ladder,
        delta: delta(&before, &after),
        rungs,
        offered,
        wrong_or_lost: wrong + lost,
        refused_at_reference,
        audit_ok,
    }
}
