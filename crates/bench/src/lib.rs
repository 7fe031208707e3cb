//! # mixq-bench
//!
//! Shared harness for the benchmark targets that regenerate every table and
//! figure of the paper's evaluation (§6 + appendix). Each `benches/*.rs`
//! target is a `harness = false` main that prints the regenerated rows next
//! to the paper-reported values; `EXPERIMENTS.md` records both.
//!
//! * [`reference`](mod@reference) — the numbers the paper reports (Tables 2–4), used for
//!   side-by-side comparison. ImageNet accuracies cannot be re-measured
//!   without the dataset (see `DESIGN.md`, "Substitutions"); footprints,
//!   bit assignments and latency trends are recomputed from scratch.
//! * [`harness`] — the synthetic-data training runner shared by the
//!   accuracy-shaped benches, the JSON writer, and the one host timer
//!   ([`harness::measure`]) every timing bench reports through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod reference;
