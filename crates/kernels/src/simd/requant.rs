//! Channel-vectorized requantization epilogue.
//!
//! PR 6 vectorized the dot products; profiling the full graph walk showed the
//! remaining wall-clock was dominated by the *epilogue*: the per-element
//! [`Requantizer::apply`] loop that turns each `i32`/`i64` accumulator `Φ`
//! into an output code. This module vectorizes that stage across output
//! channels — the per-channel `M0·2^N0` fixed-point multipliers (or threshold
//! tables) become SIMD lanes — exactly the fused scale-clamp-pack epilogue
//! the paper's deployment stack relies on for MCU throughput (Bruschi et al.
//! 2020; Ottavi et al. 2020 bake the same epilogue into hardware).
//!
//! Everything here is **bit-identical** to the scalar [`Requantizer::apply`]
//! path and charges the *same* `requants`/`cmps` ledger totals, so modeled
//! Cortex-M7 cycles are invariant under the host SIMD level (the ledgers
//! model MCU work, not host work — see `tests/deployment_consistency.rs`).
//!
//! Layout: [`RequantPlan`] is a SIMD-friendly transposition of a
//! [`Requantizer`] built once per layer ([`crate::QConv2d::new`] owns one).
//! The entry points ([`apply_gemm_rows`], [`apply_gemm_row`],
//! [`apply_phi_block`], [`apply_i32_block`], [`qadd_lut`]) take an explicit
//! [`SimdLevel`] and fall back to the scalar `Requantizer::apply` loop for
//! remainder lanes, for plans the vector kernels cannot express (`N0 > 31`,
//! odd-length threshold tables, 255-entry `W8` tables where 255×2 linear
//! compares would lose to 8 binary-search probes), and for
//! out-of-`i32`-range corrections.
//!
//! One hand-written backend per architecture:
//!
//! | level | lanes per step | backend |
//! |---|---|---|
//! | [`SimdLevel::Scalar`] | 1 | the [`Requantizer::apply`] loop (the reference) |
//! | [`SimdLevel::Avx2`] | 4 | `vpmuldq` + `vpsrlv` bias-shift, `vpcmpgtq` compare-accumulate, `vpermd` + `vpackus` code packing; `vpgatherqq` `QAdd` LUT |
//! | [`SimdLevel::Neon`] | 2 | `vmull_s32` + `SSHL`, `vcle`/`vcge` compare-accumulate |
//!
//! On AVX2 the blocked GEMM's epilogue is fused into its register tiles
//! ([`apply_gemm_rows`]); NEON and the portable loop requantize one row at
//! a time ([`apply_gemm_row`]).
//!
//! [`apply_i32_block`] (the depthwise tap kernel's per-pixel epilogue)
//! widens its `i32` accumulators in-register rather than staging them as
//! `i64`; the lanes then run the same kernels as [`apply_phi_block`].
//!
//! The two tricky scalar semantics reproduced in-vector:
//!
//! * `FixedPointMultiplier::apply` is `(m0 as i64 * v) >> (31 − n0)` with an
//!   `i32` clamp. x86 has no 64-bit arithmetic shift right, so we use the
//!   bias trick `asr(x, s) = ((x ^ 2^63) >>ᵤ s) − (2^63 >>ᵤ s)` (exact for
//!   `s ∈ [0, 63]`, wrapping subtract); NEON's `SSHL` with a negative count
//!   is already a truncating arithmetic right shift. The AVX2 lanes drop
//!   that `i32` clamp, which the final `[0, qmax]` clamp implies (proof at
//!   `fixed_lanes_avx2`).
//! * `ThresholdChannel::eval` is a binary search whose result equals the
//!   number of thresholds `≤ Φ` (ascending) or `≥ Φ` (descending) — the
//!   tables are monotone, so a branchless compare-accumulate over all
//!   entries produces the same `lo`. Both compares are evaluated and blended
//!   by a per-channel flip mask, which avoids any negation of `i64::MIN`.

use crate::requant::Requantizer;
use crate::simd::SimdLevel;
use crate::PackedPanels;

/// The accumulators a requantization block reads: precomputed `i64`
/// `Φ`s, or `i32` accumulators (`Φ = acc as i64`) that the vector kernels
/// widen in-register.
#[derive(Clone, Copy)]
enum Phis<'a> {
    Wide(&'a [i64]),
    Narrow(&'a [i32]),
}

impl Phis<'_> {
    fn len(self) -> usize {
        match self {
            Phis::Wide(p) => p.len(),
            Phis::Narrow(p) => p.len(),
        }
    }

    fn get(self, i: usize) -> i64 {
        match self {
            Phis::Wide(p) => p[i],
            Phis::Narrow(p) => p[i] as i64,
        }
    }
}

/// SIMD-friendly transposition of a [`Requantizer`]: per-channel multiplier
/// mantissas/shift biases (or transposed threshold tables) laid out for
/// contiguous vector loads. Built once per layer; building never fails —
/// plans the vector kernels cannot express are marked non-vectorizable and
/// every entry point then takes the scalar path.
#[derive(Debug, Clone, PartialEq)]
pub struct RequantPlan {
    kind: PlanKind,
    zy: i64,
    qmax: i64,
}

#[derive(Debug, Clone, PartialEq)]
enum PlanKind {
    /// FoldedPerLayer / ICN: `code = clamp(zy + (m0·sat32(Φ + bq)) >> (31 −
    /// n0), 0, qmax)` with per-channel `bq`/`m0`/shift (FoldedPerLayer
    /// broadcasts its single multiplier to every channel).
    Fixed {
        ok: bool,
        bq: Vec<i32>,
        m0: Vec<i32>,
        /// `min(31 − n0, 63)` — the scalar `apply` collapses any shift ≥ 63
        /// to `prod >> 63`, so the clamp is exact. Only valid when
        /// `31 − n0 ≥ 0`; a channel with `n0 > 31` marks the plan `ok=false`.
        shift: Vec<i64>,
        /// `(2^63 >>ᵤ shift)` as `i64` — the arithmetic-shift bias.
        sbias: Vec<i64>,
    },
    /// Threshold tables, transposed so threshold `t` of channels `c..c+W`
    /// is one contiguous vector load.
    Thresh {
        ok: bool,
        /// Entries per (non-empty) table — always `qmax` when `ok`.
        len: usize,
        /// `thr_t[t * channels + c]` = threshold `t` of channel `c`.
        thr_t: Vec<i64>,
        /// `-1` for descending (negative-multiplier) channels, `0` ascending.
        flip: Vec<i64>,
        /// `-1` for empty (constant) channels, `0` otherwise.
        empty: Vec<i64>,
        /// The constant code of empty channels (ignored otherwise).
        konst: Vec<i64>,
        /// Prefix sums of the per-channel `cmps` cost of the scalar binary
        /// search (0 for empty tables, `log2(len + 1)` otherwise), so vector
        /// blocks charge the ledger exactly what the scalar loop would.
        cost: Vec<u64>,
    },
}

impl RequantPlan {
    /// Builds the vector plan for `req`. Infallible: inexpressible
    /// requantizers yield a plan that always takes the scalar path.
    pub fn new(req: &Requantizer) -> Self {
        let zy = req.zero_point() as i64;
        let qmax = req.out_bits().qmax() as i64;
        let kind = match req {
            Requantizer::FoldedPerLayer { bq, mult, .. } => {
                Self::fixed_kind(bq, &vec![*mult; bq.len()])
            }
            Requantizer::Icn { bq, mult, .. } => Self::fixed_kind(bq, mult),
            Requantizer::Thresholds { channels, .. } => {
                let co = channels.len();
                let len = qmax as usize;
                // 255-entry W8 tables: 255×2 linear compares per element
                // would lose badly to the 8-probe binary search — stay
                // scalar there (no W8-threshold layer is on the measured
                // ICN walk anyway).
                let mut ok = qmax <= 15;
                for ch in channels {
                    if !ch.is_empty() && ch.len() != len {
                        ok = false;
                    }
                }
                let probes = if len > 0 {
                    (len + 1).trailing_zeros() as u64
                } else {
                    0
                };
                let mut thr_t = vec![0i64; if ok { len * co } else { 0 }];
                let mut flip = vec![0i64; co];
                let mut empty = vec![0i64; co];
                let mut konst = vec![0i64; co];
                let mut cost = vec![0u64; co + 1];
                for (c, ch) in channels.iter().enumerate() {
                    let per_elem = if ch.is_empty() {
                        empty[c] = -1;
                        konst[c] = ch.constant_code() as i64;
                        0
                    } else {
                        if !ch.is_ascending() {
                            flip[c] = -1;
                        }
                        if ok {
                            for (t, &thr) in ch.thresholds().iter().enumerate() {
                                thr_t[t * co + c] = thr;
                            }
                        }
                        probes
                    };
                    cost[c + 1] = cost[c] + per_elem;
                }
                PlanKind::Thresh {
                    ok,
                    len,
                    thr_t,
                    flip,
                    empty,
                    konst,
                    cost,
                }
            }
        };
        RequantPlan { kind, zy, qmax }
    }

    fn fixed_kind(bq: &[i32], mult: &[mixq_quant::FixedPointMultiplier]) -> PlanKind {
        let mut ok = true;
        let mut m0 = Vec::with_capacity(mult.len());
        let mut shift = Vec::with_capacity(mult.len());
        let mut sbias = Vec::with_capacity(mult.len());
        for m in mult {
            let raw = 31 - m.exponent() as i64;
            if raw < 0 {
                // `checked_shl` left-shift branch of the scalar apply —
                // never produced by `FixedPointMultiplier::from_real` for
                // sane scales; keep the whole layer scalar.
                ok = false;
            }
            let s = raw.clamp(0, 63);
            m0.push(m.mantissa());
            shift.push(s);
            sbias.push(((1u64 << 63) >> s) as i64);
        }
        PlanKind::Fixed {
            ok,
            bq: bq.to_vec(),
            m0,
            shift,
            sbias,
        }
    }

    /// Whether the vector kernels can express this plan at all (the entry
    /// points degrade to the scalar path per-call regardless, e.g. for
    /// remainder lanes).
    pub fn vectorizable(&self) -> bool {
        match &self.kind {
            PlanKind::Fixed { ok, .. } | PlanKind::Thresh { ok, .. } => *ok,
        }
    }

    /// Output channels covered (mirrors [`Requantizer::channels`]).
    pub fn channels(&self) -> usize {
        match &self.kind {
            PlanKind::Fixed { bq, .. } => bq.len(),
            PlanKind::Thresh { flip, .. } => flip.len(),
        }
    }

    /// Charges the ledger for `n` vector-processed elements starting at
    /// channel `c0` — arithmetically identical to what the scalar
    /// per-element loop would have counted.
    fn charge(&self, c0: usize, n: usize, requants: &mut u64, cmps: &mut u64) {
        match &self.kind {
            PlanKind::Fixed { .. } => *requants += n as u64,
            PlanKind::Thresh { cost, .. } => *cmps += cost[c0 + n] - cost[c0],
        }
    }
}

/// Requantizes precomputed `Φ` values for channels `c0..c0 + phis.len()`
/// into output codes. Bit-identical to calling
/// `req.apply(c0 + i, phis[i], ..)` per element, with identical ledger
/// totals.
#[allow(clippy::too_many_arguments)]
pub fn apply_phi_block(
    plan: &RequantPlan,
    req: &Requantizer,
    level: SimdLevel,
    c0: usize,
    phis: &[i64],
    out: &mut [u8],
    requants: &mut u64,
    cmps: &mut u64,
) {
    apply_block(plan, req, level, c0, Phis::Wide(phis), out, requants, cmps);
}

/// Requantizes a block of `i32` accumulators (`Φ = acc as i64`) for channels
/// `c0..c0 + accs.len()` — the depthwise tap kernel's per-pixel epilogue.
/// The vector kernels widen the accumulators in-register; bit-identical
/// to [`apply_phi_block`] over the widened values.
#[allow(clippy::too_many_arguments)]
pub fn apply_i32_block(
    plan: &RequantPlan,
    req: &Requantizer,
    level: SimdLevel,
    c0: usize,
    accs: &[i32],
    out: &mut [u8],
    requants: &mut u64,
    cmps: &mut u64,
) {
    apply_block(
        plan,
        req,
        level,
        c0,
        Phis::Narrow(accs),
        out,
        requants,
        cmps,
    );
}

/// The shared body of [`apply_phi_block`] and [`apply_i32_block`].
#[allow(clippy::too_many_arguments)]
fn apply_block(
    plan: &RequantPlan,
    req: &Requantizer,
    level: SimdLevel,
    c0: usize,
    phis: Phis<'_>,
    out: &mut [u8],
    requants: &mut u64,
    cmps: &mut u64,
) {
    assert_eq!(phis.len(), out.len(), "phi/out length mismatch");
    assert!(c0 + phis.len() <= plan.channels(), "channel range overflow");
    let done = vector_phi(plan, level, c0, phis, out);
    plan.charge(c0, done, requants, cmps);
    for (i, o) in out.iter_mut().enumerate().skip(done) {
        *o = req.apply(c0 + i, phis.get(i), requants, cmps);
    }
}

/// The blocked-GEMM row epilogue of the portable and NEON GEMM: for every
/// output channel `c`, computes `Φ = acc[c] − zw[c]·sx − zx·wbase[c]` (the
/// hoisted zero-point correction of Eq. 4) and requantizes it, in-vector
/// on NEON (AVX2 requantizes inside [`apply_gemm_rows`]).
///
/// Covers the full channel range (`accs.len() == plan.channels()`).
#[allow(clippy::too_many_arguments)]
pub fn apply_gemm_row(
    plan: &RequantPlan,
    req: &Requantizer,
    level: SimdLevel,
    accs: &[i32],
    sx: i64,
    zx: i64,
    zw: &[i64],
    wbase: &[i64],
    out: &mut [u8],
    requants: &mut u64,
    cmps: &mut u64,
) {
    let n = accs.len();
    assert_eq!(n, out.len(), "acc/out length mismatch");
    assert_eq!(n, zw.len(), "acc/zw length mismatch");
    assert_eq!(n, wbase.len(), "acc/wbase length mismatch");
    assert!(n <= plan.channels(), "channel range overflow");
    let done = vector_gemm(plan, level, accs, sx, zx, zw, wbase, out);
    plan.charge(0, done, requants, cmps);
    for c in done..n {
        let phi = accs[c] as i64 - zw[c] * sx - zx * wbase[c];
        out[c] = req.apply(c, phi, requants, cmps);
    }
}

/// Rows per register block of the AVX2 GEMM ([`apply_gemm_rows`]).
pub const GEMM_ROWS: usize = 4;

/// The register-blocked AVX2 GEMM with in-register requantization (the
/// PULP-NN MatMul shape, Bruschi et al. 2020): im2col rows `x` (`rows ×
/// k`) against a layer's [`PackedPanels`] into `rows × c_o` codes, with
/// `xs` as the widened-row scratch.
///
/// Returns `false`, touching nothing, unless `level` is AVX2 and the plan
/// [`RequantPlan::vectorizable`]: the caller then runs the bit-identical
/// portable loop ([`crate::simd::gemv2`] + [`apply_gemm_row`]).
///
/// # Panics
///
/// Panics unless `x` holds `out.len() / c_o` rows of `k` codes, the plan
/// covers the panels' channels, `xs` holds `GEMM_ROWS·⌈k/2⌉` words, and
/// the panels meet the [`crate::simd::gemv2`] contract (`k ≤
/// MAX_DOT_LEN`) — checked once per call, in release builds too.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub fn apply_gemm_rows(
    plan: &RequantPlan,
    req: &Requantizer,
    level: SimdLevel,
    panels: &PackedPanels,
    x: &[u8],
    zx: u8,
    xs: &mut [i32],
    out: &mut [u8],
    requants: &mut u64,
    cmps: &mut u64,
) -> bool {
    let (k, co_n) = (panels.k(), panels.out_channels());
    crate::simd::check_panel(k, co_n, panels.pairs(), panels.tail());
    let fits = xs.len() >= GEMM_ROWS * k.div_ceil(2);
    assert!(
        co_n > 0 && co_n == plan.channels() && co_n == req.channels() && fits,
        "plan, panels and scratch must match"
    );
    assert!(
        out.len() % co_n == 0 && x.len() == out.len() / co_n * k,
        "x must hold one row of k codes per output row"
    );
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if plan.vectorizable() => {
            // SAFETY: AVX2 is positively detected (`level` comes from
            // runtime detection) and the layout was checked above.
            // `k ≤ MAX_DOT_LEN` keeps the `i32` tile lanes exact (the
            // `crate::simd` x86 bound) and makes every correction operand
            // fit `i32`: `sx ≤ 255·k < 2²³`, `zw` is a widened `i16`, and
            // `|wbase| = |Σw − k·zw| ≤ k·(255 + 2¹⁵) < 2³¹` (`PackedPanels`
            // builds both tables) — so the 32×32→64 `vpmuldq` corrections
            // are exact, decided once per call. `vectorizable()` bounds
            // shifts and tables as in `vector_phi`.
            unsafe {
                x86::gemm_rows_avx2(plan, req, panels, x, zx as i64, xs, out, requants, cmps)
            };
            true
        }
        _ => false,
    }
}

/// The `QAdd` flat fast path: `out[i] = clamp(zy + lut_a[a[i]] + lut_b[b[i]],
/// 0, qmax)`. Pure compute — the caller charges the ledger (which models the
/// MCU's two per-element requants, not the host LUT strategy).
#[allow(clippy::too_many_arguments)]
pub fn qadd_lut(
    level: SimdLevel,
    lut_a: &[i64; 256],
    lut_b: &[i64; 256],
    a: &[u8],
    b: &[u8],
    zy: i64,
    qmax: i64,
    out: &mut [u8],
) {
    assert_eq!(a.len(), out.len(), "a/out length mismatch");
    assert_eq!(b.len(), out.len(), "b/out length mismatch");
    let done = match level {
        #[cfg(target_arch = "x86_64")]
        // 4×64-bit gathers only pay on AVX2; at NEON's 128 bits the
        // scalar LUT loop is already load-bound and branch-free.
        // SAFETY: AVX2 positively detected (`level` comes from runtime
        // feature detection); LUT indices are u8 into [i64; 256].
        SimdLevel::Avx2 => unsafe { x86::qadd_avx2(lut_a, lut_b, a, b, zy, qmax, out) },
        _ => 0,
    };
    for i in done..out.len() {
        out[i] = (zy + lut_a[a[i] as usize] + lut_b[b[i] as usize]).clamp(0, qmax) as u8;
    }
}

/// Dispatches the precomputed-`Φ` vector kernel; returns how many leading
/// elements were handled (0 → caller runs the scalar loop for everything).
fn vector_phi(
    plan: &RequantPlan,
    level: SimdLevel,
    c0: usize,
    phis: Phis<'_>,
    out: &mut [u8],
) -> usize {
    if !plan.vectorizable() {
        return 0;
    }
    // SAFETY (all arms): the ISA is positively detected — `level` comes
    // from runtime feature detection. `plan.vectorizable()` (checked
    // above, and cross-checked per graph by `mixq-verify::requant_gate`)
    // guarantees the regime the kernels assume: fixed-point shifts in
    // [0, 63] and threshold tables of ≤ 15 entries.
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see above.
        SimdLevel::Avx2 => unsafe { x86::phi_avx2(plan, c0, phis, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: see above; NEON is baseline on aarch64.
        SimdLevel::Neon => unsafe { neon::phi_neon(plan, c0, phis, out) },
        _ => 0,
    }
}

/// Dispatches the fused GEMM-row vector kernel (see [`apply_gemm_row`]):
/// NEON only, since AVX2 requantizes inside [`apply_gemm_rows`].
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "aarch64"), allow(unused_variables))]
fn vector_gemm(
    plan: &RequantPlan,
    level: SimdLevel,
    accs: &[i32],
    sx: i64,
    zx: i64,
    zw: &[i64],
    wbase: &[i64],
    out: &mut [u8],
) -> usize {
    match level {
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64. `plan.vectorizable()`
        // guarantees expressible shifts/tables and `corrections_fit_i32`
        // (recomputed per graph by `mixq-verify`) that every 32×32→64
        // correction operand fits `i32`.
        SimdLevel::Neon if plan.vectorizable() && corrections_fit_i32(sx, zx, zw, wbase) => unsafe {
            neon::gemm_neon(plan, accs, sx, zx, zw, wbase, out)
        },
        _ => 0,
    }
}

/// The NEON row epilogue computes `zw·sx` and `zx·wbase` as 32×32→64
/// multiplies, so every operand must fit `i32`. Always true on the blocked
/// path (`k ≤ MAX_DOT_LEN` bounds `sx ≤ 255k` and `|wbase| ≤ 2^15·k`; `zw`
/// is a widened `u8`/`i16`; `zx` a `u8`) — the scan keeps an exotic caller
/// correct by falling back to scalar instead of silently wrapping.
#[cfg(target_arch = "aarch64")]
fn corrections_fit_i32(sx: i64, zx: i64, zw: &[i64], wbase: &[i64]) -> bool {
    let fits = |v: i64| v >= i32::MIN as i64 && v <= i32::MAX as i64;
    fits(sx) && fits(zx) && zw.iter().copied().all(fits) && wbase.iter().copied().all(fits)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2 backend: four 64-bit lanes per step, and the register-blocked
    //! GEMM whose tiles requantize straight out of their registers.

    use super::{Phis, PlanKind, RequantPlan, GEMM_ROWS};
    use crate::requant::Requantizer;
    use crate::simd::x86::{dot_tile_avx2, widen_pairs_avx2};
    use crate::PackedPanels;
    use std::arch::x86_64::*;

    /// `Φ` lanes `i..i + 4` as `i64`.
    ///
    /// # Safety
    /// AVX2 detected; `i + 4 ≤ phis.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load4_avx2(phis: Phis<'_>, i: usize) -> __m256i {
        match phis {
            Phis::Wide(p) => load_i64x4(p.as_ptr().add(i)),
            Phis::Narrow(p) => widen4_avx2(p.as_ptr().add(i)),
        }
    }

    /// Four consecutive `i32`s sign-extended to `i64` lanes.
    ///
    /// # Safety
    /// AVX2 detected; `p..p + 4` readable.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen4_avx2(p: *const i32) -> __m256i {
        _mm256_cvtepi32_epi64(_mm_loadu_si128(p as *const __m128i))
    }

    /// Four consecutive `i64`s.
    ///
    /// # Safety
    /// AVX2 detected; `p..p + 4` readable.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_i64x4(p: *const i64) -> __m256i {
        _mm256_loadu_si256(p as *const __m256i)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn clamp64_avx2(x: __m256i, lo: __m256i, hi: __m256i) -> __m256i {
        let x = _mm256_blendv_epi8(x, hi, _mm256_cmpgt_epi64(x, hi));
        _mm256_blendv_epi8(x, lo, _mm256_cmpgt_epi64(lo, x))
    }

    /// Writes four codes (one per `i64` lane, each in `[0, 255]`) to
    /// `out..out + 4`: `vpermd` gathers the low dwords and two `vpackus`
    /// narrow them to bytes.
    ///
    /// # Safety
    /// AVX2 detected; `out..out + 4` writable.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pack4_codes(v: __m256i, out: *mut u8) {
        let d = _mm256_permutevar8x32_epi32(v, _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6));
        let w = _mm256_packus_epi32(d, d);
        (out as *mut i32).write_unaligned(_mm256_cvtsi256_si32(_mm256_packus_epi16(w, w)));
    }

    /// One 4-lane fixed-point requant: `clamp(zy + asr(m0·sat32(Φ + bias),
    /// 31 − n0), 0, qmax)` with the xor-bias arithmetic shift emulation.
    /// `bias` is `Bq` plus any folded correction; only the low dword of
    /// each `m0v` lane is read.
    ///
    /// The scalar `FixedPointMultiplier::apply` also clamps the shifted
    /// product to `i32` before `zy` is added; the final clamp covers it.
    /// Proof: `|sat32(·)| ≤ 2³¹` and `|m0| ≤ 2³¹`, so `|prod| ≤ 2⁶²`, and a
    /// right shift by `s ∈ [0, 63]` keeps `|shifted| ≤ 2⁶²` — `zy +
    /// shifted` cannot wrap. If `shifted > i32::MAX`, both forms exceed
    /// `qmax ≤ 255` and give `qmax`; if `shifted < i32::MIN`, both are
    /// negative (`0 ≤ zy ≤ 255`) and give 0; otherwise that clamp is the
    /// identity.
    ///
    /// # Safety
    /// AVX2 detected; shifts in `[0, 63]` with their biases (a vectorizable
    /// plan).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fixed_lanes_avx2(
        phi: __m256i,
        bias: __m256i,
        m0v: __m256i,
        shv: __m256i,
        sbv: __m256i,
        zyv: __m256i,
        qmaxv: __m256i,
    ) -> __m256i {
        let i32lo = _mm256_set1_epi64x(i32::MIN as i64);
        let i32hi = _mm256_set1_epi64x(i32::MAX as i64);
        let v = clamp64_avx2(_mm256_add_epi64(phi, bias), i32lo, i32hi);
        // The clamped lane fits i32, so its low dword IS the value —
        // `pmuldq` sign-extends exactly the operand we want.
        let prod = _mm256_mul_epi32(v, m0v);
        let minv = _mm256_set1_epi64x(i64::MIN);
        let shifted = _mm256_sub_epi64(_mm256_srlv_epi64(_mm256_xor_si256(prod, minv), shv), sbv);
        let zero = _mm256_setzero_si256();
        clamp64_avx2(_mm256_add_epi64(zyv, shifted), zero, qmaxv)
    }

    /// One 4-lane threshold requant: branchless compare-accumulate over the
    /// transposed tables, both compare directions blended by the flip mask.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn thresh_lanes_avx2(
        phi: __m256i,
        c: usize,
        co: usize,
        len: usize,
        thr_t: *const i64,
        flip: *const i64,
        empty: *const i64,
        konst: *const i64,
    ) -> __m256i {
        let ones = _mm256_set1_epi64x(-1);
        let flipv = _mm256_loadu_si256(flip.add(c) as *const __m256i);
        let mut cnt = _mm256_setzero_si256();
        for t in 0..len {
            let thr = _mm256_loadu_si256(thr_t.add(t * co + c) as *const __m256i);
            let le = _mm256_xor_si256(_mm256_cmpgt_epi64(thr, phi), ones);
            let ge = _mm256_xor_si256(_mm256_cmpgt_epi64(phi, thr), ones);
            let sel = _mm256_blendv_epi8(le, ge, flipv);
            cnt = _mm256_sub_epi64(cnt, sel);
        }
        let emptyv = _mm256_loadu_si256(empty.add(c) as *const __m256i);
        let konstv = _mm256_loadu_si256(konst.add(c) as *const __m256i);
        _mm256_blendv_epi8(cnt, konstv, emptyv)
    }

    /// Requantizes channels `c..c + 4` of `R` rows: `phi[r]` holds row
    /// `r`'s `Φ + corr`, where `corr` is a per-channel term every row
    /// shares. The channel constants load once for all rows, and `corr`
    /// folds into the fixed-point bias.
    ///
    /// # Safety
    /// AVX2 detected; `plan` vectorizable with `c + 4 ≤ plan.channels()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn requant_group<const R: usize>(
        plan: &RequantPlan,
        c: usize,
        corr: __m256i,
        mut phi: [__m256i; R],
    ) -> [__m256i; R] {
        let zyv = _mm256_set1_epi64x(plan.zy);
        let qmaxv = _mm256_set1_epi64x(plan.qmax);
        match &plan.kind {
            PlanKind::Fixed {
                bq,
                m0,
                shift,
                sbias,
                ..
            } => {
                let bias = _mm256_sub_epi64(widen4_avx2(bq.as_ptr().add(c)), corr);
                let m0v = widen4_avx2(m0.as_ptr().add(c));
                let shv = load_i64x4(shift.as_ptr().add(c));
                let sbv = load_i64x4(sbias.as_ptr().add(c));
                for p in &mut phi {
                    *p = fixed_lanes_avx2(*p, bias, m0v, shv, sbv, zyv, qmaxv);
                }
            }
            PlanKind::Thresh {
                len,
                thr_t,
                flip,
                empty,
                konst,
                ..
            } => {
                for p in &mut phi {
                    *p = thresh_lanes_avx2(
                        _mm256_sub_epi64(*p, corr),
                        c,
                        plan.channels(),
                        *len,
                        thr_t.as_ptr(),
                        flip.as_ptr(),
                        empty.as_ptr(),
                        konst.as_ptr(),
                    );
                }
            }
        }
        phi
    }

    /// Precomputed-`Φ` entry, AVX2 (4 channels per iteration).
    ///
    /// # Safety
    /// AVX2 detected; `plan` vectorizable, `phis.len() == out.len()` and
    /// `c0 + phis.len() ≤ plan.channels()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn phi_avx2(plan: &RequantPlan, c0: usize, phis: Phis<'_>, out: &mut [u8]) -> usize {
        let n = phis.len() & !3;
        for i in (0..n).step_by(4) {
            let zero = _mm256_setzero_si256();
            let [code] = requant_group(plan, c0 + i, zero, [load4_avx2(phis, i)]);
            pack4_codes(code, out.as_mut_ptr().add(i));
        }
        n
    }

    /// The register-blocked GEMM behind [`super::apply_gemm_rows`]: blocks
    /// of [`GEMM_ROWS`] rows, then single rows.
    ///
    /// # Safety
    /// Caller must have detected AVX2 and established everything
    /// `apply_gemm_rows` checks.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm_rows_avx2(
        plan: &RequantPlan,
        req: &Requantizer,
        panels: &PackedPanels,
        x: &[u8],
        zx: i64,
        xs: &mut [i32],
        out: &mut [u8],
        requants: &mut u64,
        cmps: &mut u64,
    ) {
        let rows = out.len() / panels.out_channels();
        let blocked = rows - rows % GEMM_ROWS;
        for r in (0..blocked).step_by(GEMM_ROWS) {
            gemm_block_avx2::<GEMM_ROWS>(plan, req, panels, x, zx, r, xs, out, requants, cmps);
        }
        for r in blocked..rows {
            gemm_block_avx2::<1>(plan, req, panels, x, zx, r, xs, out, requants, cmps);
        }
    }

    /// Rows `r0..r0 + R`: each row is widened (and summed) once, then every
    /// channel tile accumulates in registers and requantizes in place —
    /// tiles of 16 channels, one of 8, one of 4, then a scalar loop only
    /// for the last `c_o mod 4` channels.
    ///
    /// # Safety
    /// As [`gemm_rows_avx2`], with `r0 + R` rows in `out`.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn gemm_block_avx2<const R: usize>(
        plan: &RequantPlan,
        req: &Requantizer,
        panels: &PackedPanels,
        x: &[u8],
        zx: i64,
        r0: usize,
        xs: &mut [i32],
        out: &mut [u8],
        requants: &mut u64,
        cmps: &mut u64,
    ) {
        let (k, co_n) = (panels.k(), panels.out_channels());
        let (pairs, tail) = (panels.pairs(), panels.tail());
        let kw = k.div_ceil(2);
        let x = &x[r0 * k..(r0 + R) * k];
        let out = &mut out[r0 * co_n..(r0 + R) * co_n];
        let mut sx = [0i64; R];
        for (i, s) in sx.iter_mut().enumerate() {
            *s = widen_pairs_avx2(&x[i * k..(i + 1) * k], &mut xs[i * kw..(i + 1) * kw]);
        }
        let mut ct = 0;
        while ct + 16 <= co_n {
            let acc = dot_tile_avx2::<R, 2, 8>(xs, k, pairs, tail, co_n, ct);
            requant_tile_avx2::<R, 2, 8>(plan, panels, acc, sx, zx, ct, out);
            ct += 16;
        }
        if ct + 8 <= co_n {
            let acc = dot_tile_avx2::<R, 1, 8>(xs, k, pairs, tail, co_n, ct);
            requant_tile_avx2::<R, 1, 8>(plan, panels, acc, sx, zx, ct, out);
            ct += 8;
        }
        if ct + 4 <= co_n {
            let acc = dot_tile_avx2::<R, 1, 4>(xs, k, pairs, tail, co_n, ct);
            requant_tile_avx2::<R, 1, 4>(plan, panels, acc, sx, zx, ct, out);
            ct += 4;
        }
        let (zw, wbase) = (panels.zw(), panels.base());
        for (i, o) in out.chunks_exact_mut(co_n).enumerate() {
            plan.charge(0, ct, requants, cmps);
            let row = &x[i * k..(i + 1) * k];
            for c in ct..co_n {
                let mut dot = tail.get(c).map_or(0, |&w| row[k - 1] as i64 * w as i64);
                for (p, xp) in row.chunks_exact(2).enumerate() {
                    let w = &pairs[(p * co_n + c) * 2..];
                    dot += xp[0] as i64 * w[0] as i64 + xp[1] as i64 * w[1] as i64;
                }
                o[c] = req.apply(c, dot - zw[c] * sx[i] - zx * wbase[c], requants, cmps);
            }
        }
    }

    /// Requantizes one register tile — `R` rows × `V·L` channels from `ct`,
    /// laid out as [`dot_tile_avx2`] returns it — into `out` (the block's
    /// `R` rows of `c_o` codes): `Φ = acc − Zw·ΣX − Zx·(ΣW − k·Zw)`, the
    /// last term shared by every row. Each 4-channel group is one 128-bit
    /// lane of an accumulator: an 8-channel vector holds two, a 4-channel
    /// one holds one in its low lane.
    ///
    /// # Safety
    /// As [`gemm_rows_avx2`], with `L ∈ {4, 8}`, `ct + V·L ≤ c_o` and
    /// `out.len() == R·c_o`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn requant_tile_avx2<const R: usize, const V: usize, const L: usize>(
        plan: &RequantPlan,
        panels: &PackedPanels,
        acc: [[__m256i; V]; R],
        sx: [i64; R],
        zx: i64,
        ct: usize,
        out: &mut [u8],
    ) {
        let co = plan.channels();
        let zxv = _mm256_set1_epi64x(zx);
        for v in 0..V {
            for h in 0..L / 4 {
                let c = ct + L * v + 4 * h;
                let zwv = load_i64x4(panels.zw().as_ptr().add(c));
                let mut phi = [_mm256_setzero_si256(); R];
                for (p, (a, &s)) in phi.iter_mut().zip(acc.iter().zip(&sx)) {
                    let half = if h == 0 {
                        _mm256_castsi256_si128(a[v])
                    } else {
                        _mm256_extracti128_si256::<1>(a[v])
                    };
                    let zws = _mm256_mul_epi32(zwv, _mm256_set1_epi64x(s));
                    *p = _mm256_sub_epi64(_mm256_cvtepi32_epi64(half), zws);
                }
                let corr = _mm256_mul_epi32(load_i64x4(panels.base().as_ptr().add(c)), zxv);
                for (r, code) in requant_group(plan, c, corr, phi).into_iter().enumerate() {
                    pack4_codes(code, out.as_mut_ptr().add(r * co + c));
                }
            }
        }
    }

    /// `QAdd` LUT kernel: widen 4 codes to qword indices, gather both
    /// per-operand LUTs, add, clamp.
    ///
    /// # Safety
    /// AVX2 detected; `a` and `b` at least as long as `out`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn qadd_avx2(
        lut_a: &[i64; 256],
        lut_b: &[i64; 256],
        a: &[u8],
        b: &[u8],
        zy: i64,
        qmax: i64,
        out: &mut [u8],
    ) -> usize {
        let n = out.len() & !3;
        let zyv = _mm256_set1_epi64x(zy);
        let qmaxv = _mm256_set1_epi64x(qmax);
        let zero = _mm256_setzero_si256();
        for i in (0..n).step_by(4) {
            let (pa, pb) = (
                a.as_ptr().add(i) as *const i32,
                b.as_ptr().add(i) as *const i32,
            );
            let qa = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(pa.read_unaligned()));
            let qb = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(pb.read_unaligned()));
            let ga = _mm256_i64gather_epi64::<8>(lut_a.as_ptr(), qa);
            let gb = _mm256_i64gather_epi64::<8>(lut_b.as_ptr(), qb);
            let s = _mm256_add_epi64(_mm256_add_epi64(zyv, ga), gb);
            pack4_codes(clamp64_avx2(s, zero, qmaxv), out.as_mut_ptr().add(i));
        }
        n
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{Phis, PlanKind, RequantPlan};
    use std::arch::aarch64::*;

    /// `Φ` lanes `i..i + 2` as `i64` (caller keeps `i + 2 ≤ phis.len()`).
    #[inline]
    unsafe fn load2_neon(phis: Phis<'_>, i: usize) -> int64x2_t {
        match phis {
            Phis::Wide(p) => vld1q_s64(p.as_ptr().add(i)),
            Phis::Narrow(p) => vmovl_s32(vld1_s32(p.as_ptr().add(i))),
        }
    }

    #[inline]
    unsafe fn clamp64_neon(x: int64x2_t, lo: int64x2_t, hi: int64x2_t) -> int64x2_t {
        let x = vbslq_s64(vcgtq_s64(x, hi), hi, x);
        vbslq_s64(vcgtq_s64(lo, x), lo, x)
    }

    #[inline]
    unsafe fn store2_codes(v: int64x2_t, out: *mut u8) {
        *out = vgetq_lane_s64::<0>(v) as u8;
        *out.add(1) = vgetq_lane_s64::<1>(v) as u8;
    }

    /// One 2-lane fixed-point requant. `SSHL` with a negated count is a
    /// truncating arithmetic right shift — no bias trick needed on NEON.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn fixed_lanes_neon(
        phi: int64x2_t,
        bq: *const i32,
        m0: *const i32,
        shift: *const i64,
        zyv: int64x2_t,
        qmaxv: int64x2_t,
    ) -> int64x2_t {
        let i32lo = vdupq_n_s64(i32::MIN as i64);
        let i32hi = vdupq_n_s64(i32::MAX as i64);
        let v = clamp64_neon(vaddq_s64(phi, vmovl_s32(vld1_s32(bq))), i32lo, i32hi);
        // The clamped lane fits i32: narrow to the value, widen-multiply.
        let prod = vmull_s32(vmovn_s64(v), vld1_s32(m0));
        let shifted = vshlq_s64(prod, vnegq_s64(vld1q_s64(shift)));
        let r = clamp64_neon(shifted, i32lo, i32hi);
        clamp64_neon(vaddq_s64(zyv, r), vdupq_n_s64(0), qmaxv)
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn thresh_lanes_neon(
        phi: int64x2_t,
        c: usize,
        co: usize,
        len: usize,
        thr_t: *const i64,
        flip: *const i64,
        empty: *const i64,
        konst: *const i64,
    ) -> int64x2_t {
        let flipv = vreinterpretq_u64_s64(vld1q_s64(flip.add(c)));
        let mut cnt = vdupq_n_s64(0);
        for t in 0..len {
            let thr = vld1q_s64(thr_t.add(t * co + c));
            let le = vcleq_s64(thr, phi);
            let ge = vcgeq_s64(thr, phi);
            let sel = vbslq_u64(flipv, ge, le);
            cnt = vsubq_s64(cnt, vreinterpretq_s64_u64(sel));
        }
        let emptyv = vreinterpretq_u64_s64(vld1q_s64(empty.add(c)));
        let konstv = vld1q_s64(konst.add(c));
        vbslq_s64(emptyv, konstv, cnt)
    }

    /// Precomputed-`Φ` entry, NEON (2 channels per iteration).
    pub unsafe fn phi_neon(plan: &RequantPlan, c0: usize, phis: Phis<'_>, out: &mut [u8]) -> usize {
        let n = phis.len() & !1;
        let zyv = vdupq_n_s64(plan.zy);
        let qmaxv = vdupq_n_s64(plan.qmax);
        let co = plan.channels();
        match &plan.kind {
            PlanKind::Fixed { bq, m0, shift, .. } => {
                for i in (0..n).step_by(2) {
                    let c = c0 + i;
                    let phi = load2_neon(phis, i);
                    let code = fixed_lanes_neon(
                        phi,
                        bq.as_ptr().add(c),
                        m0.as_ptr().add(c),
                        shift.as_ptr().add(c),
                        zyv,
                        qmaxv,
                    );
                    store2_codes(code, out.as_mut_ptr().add(i));
                }
            }
            PlanKind::Thresh {
                len,
                thr_t,
                flip,
                empty,
                konst,
                ..
            } => {
                for i in (0..n).step_by(2) {
                    let phi = load2_neon(phis, i);
                    let code = thresh_lanes_neon(
                        phi,
                        c0 + i,
                        co,
                        *len,
                        thr_t.as_ptr(),
                        flip.as_ptr(),
                        empty.as_ptr(),
                        konst.as_ptr(),
                    );
                    store2_codes(code, out.as_mut_ptr().add(i));
                }
            }
        }
        n
    }

    /// Fused GEMM-row entry, NEON: corrections fit `i32` (dispatcher
    /// guarantees it), so narrow-then-`vmull_s32` is exact.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm_neon(
        plan: &RequantPlan,
        accs: &[i32],
        sx: i64,
        zx: i64,
        zw: &[i64],
        wbase: &[i64],
        out: &mut [u8],
    ) -> usize {
        let n = accs.len() & !1;
        let zyv = vdupq_n_s64(plan.zy);
        let qmaxv = vdupq_n_s64(plan.qmax);
        let sx32 = vdup_n_s32(sx as i32);
        let zx32 = vdup_n_s32(zx as i32);
        let co = plan.channels();
        for i in (0..n).step_by(2) {
            let acc = vmovl_s32(vld1_s32(accs.as_ptr().add(i)));
            let zwv = vld1q_s64(zw.as_ptr().add(i));
            let bv = vld1q_s64(wbase.as_ptr().add(i));
            let phi = vsubq_s64(
                vsubq_s64(acc, vmull_s32(vmovn_s64(zwv), sx32)),
                vmull_s32(vmovn_s64(bv), zx32),
            );
            let code = match &plan.kind {
                PlanKind::Fixed { bq, m0, shift, .. } => fixed_lanes_neon(
                    phi,
                    bq.as_ptr().add(i),
                    m0.as_ptr().add(i),
                    shift.as_ptr().add(i),
                    zyv,
                    qmaxv,
                ),
                PlanKind::Thresh {
                    len,
                    thr_t,
                    flip,
                    empty,
                    konst,
                    ..
                } => thresh_lanes_neon(
                    phi,
                    i,
                    co,
                    *len,
                    thr_t.as_ptr(),
                    flip.as_ptr(),
                    empty.as_ptr(),
                    konst.as_ptr(),
                ),
            };
            store2_codes(code, out.as_mut_ptr().add(i));
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requant::ThresholdChannel;
    use mixq_quant::{BitWidth, FixedPointMultiplier};

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    fn random_icn(seed: u64, co: usize, bits: BitWidth) -> Requantizer {
        let mut s = seed;
        let bq: Vec<i32> = (0..co).map(|_| lcg(&mut s) as i32 % 100_000).collect();
        let mult: Vec<FixedPointMultiplier> = (0..co)
            .map(|_| {
                let m = (lcg(&mut s) % 2_000_000) as f64 / 1e8 + 1e-6;
                FixedPointMultiplier::from_real(m)
            })
            .collect();
        let zy = (lcg(&mut s) % (bits.qmax() as u64 + 1)) as i32;
        Requantizer::icn(bq, mult, zy, bits)
    }

    fn random_thresholds(seed: u64, co: usize, bits: BitWidth) -> Requantizer {
        let mut s = seed;
        let zy = (lcg(&mut s) % (bits.qmax() as u64 + 1)) as i32;
        let channels: Vec<ThresholdChannel> = (0..co)
            .map(|c| {
                let m = if c % 3 == 2 {
                    // Negative multipliers: descending tables.
                    -((lcg(&mut s) % 1_000_000) as f64 / 1e8 + 1e-6)
                } else if c % 7 == 6 {
                    0.0 // constant channel
                } else {
                    (lcg(&mut s) % 1_000_000) as f64 / 1e8 + 1e-6
                };
                let bq = (lcg(&mut s) % 20_000) as i64 - 10_000;
                ThresholdChannel::from_affine(m, bq, zy, bits)
            })
            .collect();
        Requantizer::thresholds(channels, zy, bits)
    }

    fn check_phi_all_levels(req: &Requantizer, phis: &[i64]) {
        let plan = RequantPlan::new(req);
        let co = req.channels();
        for lv in SimdLevel::available_levels() {
            for c0 in [0usize, 1, 3] {
                if c0 + phis.len().min(co - c0) > co {
                    continue;
                }
                let n = (co - c0).min(phis.len());
                let (mut r_ref, mut c_ref) = (7u64, 11u64);
                let mut want = vec![0u8; n];
                for (i, w) in want.iter_mut().enumerate() {
                    *w = req.apply(c0 + i, phis[i], &mut r_ref, &mut c_ref);
                }
                let (mut r_got, mut c_got) = (7u64, 11u64);
                let mut got = vec![0u8; n];
                apply_phi_block(
                    &plan,
                    req,
                    lv,
                    c0,
                    &phis[..n],
                    &mut got,
                    &mut r_got,
                    &mut c_got,
                );
                assert_eq!(got, want, "codes differ at level {lv:?}, c0={c0}");
                assert_eq!((r_got, c_got), (r_ref, c_ref), "ledger differs at {lv:?}");
            }
        }
    }

    #[test]
    fn fixed_phi_matches_scalar_apply_all_levels() {
        for (seed, co, bits) in [
            (1u64, 37, BitWidth::W8),
            (2, 16, BitWidth::W4),
            (3, 9, BitWidth::W2),
        ] {
            let req = random_icn(seed, co, bits);
            let mut s = seed ^ 0xabcdef;
            // Extremes stay shy of i64::MAX/MIN: the scalar `apply` adds
            // `bq` before saturating, so ±(2^62) is the supported domain —
            // still far past the i32 clamp both paths must hit identically.
            let phis: Vec<i64> = (0..co)
                .map(|i| match i % 5 {
                    0 => lcg(&mut s) as i64 % 1_000_000 - 500_000,
                    1 => (1i64 << 62) - lcg(&mut s) as i64 % 1000,
                    2 => -(1i64 << 62) + lcg(&mut s) as i64 % 1000,
                    3 => (lcg(&mut s) as i64 % 3_000_000_000) - 1_500_000_000,
                    _ => 0,
                })
                .collect();
            check_phi_all_levels(&req, &phis);
        }
    }

    #[test]
    fn threshold_phi_matches_scalar_apply_all_levels() {
        for (seed, co, bits) in [
            (4u64, 23, BitWidth::W4),
            (5, 14, BitWidth::W2),
            (6, 8, BitWidth::W4),
        ] {
            let req = random_thresholds(seed, co, bits);
            let mut s = seed ^ 0x1234;
            let phis: Vec<i64> = (0..co)
                .map(|i| match i % 4 {
                    0 => lcg(&mut s) as i64 % 100_000 - 50_000,
                    1 => i64::MAX - lcg(&mut s) as i64 % 3,
                    2 => i64::MIN + lcg(&mut s) as i64 % 3,
                    _ => lcg(&mut s) as i64 % 100 - 50,
                })
                .collect();
            check_phi_all_levels(&req, &phis);
            // The saturated-i16 ablation path produces duplicate clamped
            // thresholds — the compare-accumulate must still match.
            check_phi_all_levels(&req.saturated_i16(), &phis);
        }
    }

    #[test]
    fn w8_threshold_plan_stays_scalar_but_correct() {
        let req = random_thresholds(9, 10, BitWidth::W8);
        let plan = RequantPlan::new(&req);
        assert!(!plan.vectorizable(), "255-entry tables must stay scalar");
        let phis: Vec<i64> = (0..10).map(|i| i as i64 * 7 - 31).collect();
        check_phi_all_levels(&req, &phis);
    }

    #[test]
    fn gemm_row_matches_reference_all_levels() {
        for (seed, co, bits) in [(10u64, 29, BitWidth::W4), (11, 12, BitWidth::W8)] {
            let req = random_icn(seed, co, bits);
            let plan = RequantPlan::new(&req);
            let mut s = seed ^ 0x55;
            let accs: Vec<i32> = (0..co).map(|_| lcg(&mut s) as i32).collect();
            let zw: Vec<i64> = (0..co)
                .map(|_| lcg(&mut s) as i64 % 65536 - 32768)
                .collect();
            let wbase: Vec<i64> = (0..co)
                .map(|_| lcg(&mut s) as i64 % 2_000_000 - 1_000_000)
                .collect();
            let (sx, zx) = ((lcg(&mut s) % 8_000_000) as i64, (lcg(&mut s) % 256) as i64);
            let (mut r_ref, mut c_ref) = (0u64, 0u64);
            let mut want = vec![0u8; co];
            for c in 0..co {
                let phi = accs[c] as i64 - zw[c] * sx - zx * wbase[c];
                want[c] = req.apply(c, phi, &mut r_ref, &mut c_ref);
            }
            for lv in SimdLevel::available_levels() {
                let (mut r_got, mut c_got) = (0u64, 0u64);
                let mut got = vec![0u8; co];
                apply_gemm_row(
                    &plan, &req, lv, &accs, sx, zx, &zw, &wbase, &mut got, &mut r_got, &mut c_got,
                );
                assert_eq!(got, want, "gemm row differs at {lv:?}");
                assert_eq!((r_got, c_got), (r_ref, c_ref), "ledger differs at {lv:?}");
            }
        }
    }

    #[test]
    fn gemm_row_out_of_range_corrections_fall_back() {
        let req = random_icn(21, 6, BitWidth::W8);
        let plan = RequantPlan::new(&req);
        let accs = vec![1i32; 6];
        let zw = vec![i32::MAX as i64 + 5; 6]; // cannot fit the 32×32 path
        let wbase = vec![0i64; 6];
        let (mut r0, mut c0) = (0u64, 0u64);
        let mut want = vec![0u8; 6];
        for c in 0..6 {
            let phi = accs[c] as i64 - zw[c] * 3;
            want[c] = req.apply(c, phi, &mut r0, &mut c0);
        }
        for lv in SimdLevel::available_levels() {
            let (mut r1, mut c1) = (0u64, 0u64);
            let mut got = vec![0u8; 6];
            apply_gemm_row(
                &plan, &req, lv, &accs, 3, 0, &zw, &wbase, &mut got, &mut r1, &mut c1,
            );
            assert_eq!(got, want);
            assert_eq!((r1, c1), (r0, c0));
        }
    }

    #[test]
    #[should_panic(expected = "one row of k codes")]
    fn gemm_rows_reject_short_input() {
        // Two output rows of a k = 9 layer need 18 input codes; 17 would
        // read past `x` in the unchecked tile loads.
        use crate::{QConv2d, QConvWeights, WeightOffset};
        use mixq_tensor::{ConvGeometry, Padding, Shape};
        let req = random_icn(41, 8, BitWidth::W8);
        let weights = QConvWeights::new(
            Shape::new(8, 1, 1, 9),
            false,
            &[3u8; 72],
            BitWidth::W8,
            WeightOffset::PerLayer(0),
        );
        let conv = QConv2d::new(weights, ConvGeometry::new(1, 1, 1, Padding::Same), req);
        let mut out = vec![0u8; 16];
        apply_gemm_rows(
            conv.plan(),
            conv.requant(),
            SimdLevel::Scalar,
            &conv.prepack_panels(),
            &[0u8; 17],
            0,
            &mut [0i32; 4 * 5],
            &mut out,
            &mut 0,
            &mut 0,
        );
    }

    #[test]
    fn i32_block_matches_scalar_apply() {
        let req = random_icn(31, 130, BitWidth::W4); // 4-lane steps + a 2-lane tail
        let plan = RequantPlan::new(&req);
        let mut s = 99u64;
        let accs: Vec<i32> = (0..130).map(|_| lcg(&mut s) as i32).collect();
        let (mut r_ref, mut c_ref) = (0u64, 0u64);
        let mut want = vec![0u8; 130];
        for (c, w) in want.iter_mut().enumerate() {
            *w = req.apply(c, accs[c] as i64, &mut r_ref, &mut c_ref);
        }
        for lv in SimdLevel::available_levels() {
            let (mut r_got, mut c_got) = (0u64, 0u64);
            let mut got = vec![0u8; 130];
            apply_i32_block(&plan, &req, lv, 0, &accs, &mut got, &mut r_got, &mut c_got);
            assert_eq!(got, want, "i32 block differs at {lv:?}");
            assert_eq!((r_got, c_got), (r_ref, c_ref));
        }
    }

    #[test]
    fn qadd_lut_matches_scalar() {
        let mut s = 77u64;
        let mut lut_a = [0i64; 256];
        let mut lut_b = [0i64; 256];
        for i in 0..256 {
            lut_a[i] = lcg(&mut s) as i64 % 1000 - 500;
            lut_b[i] = lcg(&mut s) as i64 % 1000 - 500;
        }
        let a: Vec<u8> = (0..103).map(|_| lcg(&mut s) as u8).collect();
        let b: Vec<u8> = (0..103).map(|_| lcg(&mut s) as u8).collect();
        let (zy, qmax) = (17i64, 255i64);
        let mut want = vec![0u8; 103];
        for i in 0..103 {
            want[i] = (zy + lut_a[a[i] as usize] + lut_b[b[i] as usize]).clamp(0, qmax) as u8;
        }
        for lv in SimdLevel::available_levels() {
            let mut got = vec![0u8; 103];
            qadd_lut(lv, &lut_a, &lut_b, &a, &b, zy, qmax, &mut got);
            assert_eq!(got, want, "qadd differs at {lv:?}");
        }
    }

    #[test]
    fn n0_overflow_plan_is_not_vectorizable() {
        // A multiplier with n0 > 31 would hit apply's checked_shl branch.
        let m = FixedPointMultiplier::from_real(2f64.powi(40));
        if m.exponent() as i32 > 31 {
            let req = Requantizer::icn(vec![0; 4], vec![m; 4], 0, BitWidth::W8);
            assert!(!RequantPlan::new(&req).vectorizable());
            let phis = [1i64, -1, 1 << 20, i64::MAX];
            check_phi_all_levels(&req, &phis);
        }
    }

    #[test]
    fn folded_per_layer_plan_broadcasts_multiplier() {
        let mult = FixedPointMultiplier::from_real(0.0042);
        let req = Requantizer::folded(vec![5, -9, 100, 0, 77], mult, 3, BitWidth::W4);
        let phis = [0i64, 999, -4096, 1 << 30, -(1 << 30)];
        check_phi_all_levels(&req, &phis);
    }
}
