//! The closed-loop walk workloads: one caller, the next walk starts when
//! the previous one returns.

use std::time::Instant;

use crate::calib::{Calibrator, Clock};
use crate::setup::WalkDeployment;
use crate::stats::{median, percentile, sorted};

/// Reference-kernel logits of every input batch, in batch order.
pub fn reference_logits(dep: &WalkDeployment) -> Vec<Vec<i32>> {
    let mut oracle = crate::adapter::Walker::new(1);
    (0..dep.batches())
        .map(|b| {
            oracle
                .infer(&dep.reference, &dep.images, b * dep.batch, dep.batch)
                .to_vec()
        })
        .collect()
}

/// What a timed closed loop saw.
pub struct WalkRun {
    /// Wall time of each `infer` call, µs.
    pub call_us: Vec<f64>,
    /// Busy time of each call on the workload's [`Clock`] (CPU time for
    /// a serial walk), scaled to nominal host speed, µs.
    pub scaled_us: Vec<f64>,
    /// Samples walked.
    pub samples: u64,
    /// Calls whose logits differed from the reference walk.
    pub mismatches: u64,
    /// Host speed of each calibration slice.
    pub speeds: Vec<f64>,
}

impl WalkRun {
    /// Samples per second of busy walking time at nominal host speed.
    pub fn samples_per_s(&self) -> f64 {
        self.samples as f64 / (self.scaled_us.iter().sum::<f64>() * 1e-6)
    }

    /// Samples per second of wall-clock walking time as measured.
    pub fn raw_samples_per_s(&self) -> f64 {
        self.samples as f64 / (self.call_us.iter().sum::<f64>() * 1e-6)
    }
}

/// Calls per block of [`block_percentile`]: a block's p99 has ten calls
/// beyond it.
const BLOCK_CALLS: usize = 1000;

/// Percentile `p` of each block of [`BLOCK_CALLS`] consecutive call
/// times (the last block takes the remainder), median over the blocks. A
/// burst of host stalls spoils the blocks it falls in, not the run.
pub fn block_percentile(call_us: &[f64], p: f64) -> f64 {
    let blocks = (call_us.len() / BLOCK_CALLS).max(1);
    let per: Vec<f64> = (0..blocks)
        .map(|i| {
            let end = if i + 1 == blocks {
                call_us.len()
            } else {
                (i + 1) * BLOCK_CALLS
            };
            percentile(&sorted(call_us[i * BLOCK_CALLS..end].to_vec()), p)
        })
        .collect();
    median(&per)
}

/// Calls are timed in windows of this length, each followed by a
/// calibration slice.
const WINDOW_S: f64 = 0.03;

/// Walks the input batches in a closed loop for `seconds`, timing every
/// call and checking every call's logits against `expected`. Each call's
/// busy time is also scaled by the host speed measured around its window.
pub fn timed(
    dep: &mut WalkDeployment,
    expected: &[Vec<i32>],
    seconds: f64,
    cal: &Calibrator,
) -> WalkRun {
    let mut run = WalkRun {
        call_us: Vec::new(),
        scaled_us: Vec::new(),
        samples: 0,
        mismatches: 0,
        speeds: Vec::new(),
    };
    let threads = dep.threads;
    let clock = Clock::for_threads(threads);
    let mut busy_ns = Vec::new();
    let start = Instant::now();
    let mut before = cal.speed_on(threads);
    let mut b = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let window = Instant::now();
        busy_ns.clear();
        while window.elapsed().as_secs_f64() < WINDOW_S {
            let t = Instant::now();
            let c = clock.now();
            let logits = dep
                .walker
                .infer(&dep.net, &dep.images, b * dep.batch, dep.batch);
            busy_ns.push(clock.since(c));
            run.call_us.push(t.elapsed().as_secs_f64() * 1e6);
            if logits != expected[b].as_slice() {
                run.mismatches += 1;
                if run.mismatches <= 3 {
                    println!("MISMATCH: batch {b} logits differ from the reference walk");
                }
            }
            run.samples += dep.batch as u64;
            b = (b + 1) % expected.len();
        }
        let after = cal.speed_on(threads);
        let speed = 0.5 * (before + after);
        run.scaled_us
            .extend(busy_ns.iter().map(|ns| ns * 1e-3 * speed));
        run.speeds.push(after);
        before = after;
    }
    run
}
