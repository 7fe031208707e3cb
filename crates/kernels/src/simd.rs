//! Runtime-dispatched SIMD primitives for the blocked GEMM's u8×u8
//! inner kernel and the depthwise tap kernel — the host-side analogue of
//! the PULP-NN vectorized dot products (arXiv:2007.07759) that give
//! mixed-precision conv kernels their throughput on real silicon.
//!
//! Three facts make an **exact** (bit-identical) SIMD path possible:
//!
//! * the blocked kernel's double zero-point hoisting (see
//!   [`crate::blocked`]) reduces the inner loop to plain `Σ X·W` and
//!   `Σ X` over `u8` operands — no per-element offsets, no rounding;
//! * integer addition is associative and commutative, so *any* summation
//!   order (vector lanes, horizontal reductions, scalar tails) produces
//!   the same integer as the scalar loop;
//! * `u8·u8 ≤ 255²` products accumulate safely in 32-bit lanes for the
//!   whole patch: `k ≤ MAX_DOT_LEN` keeps even an all-255 row inside
//!   `i32` (bounds proven per backend below).
//!
//! The blocked GEMM vectorizes along the **output channels**: instead of
//! the patch (`k`) axis — which starves on the small `k ∈ {4..128}`
//! patches a width-scaled MobileNet actually has — it broadcasts two
//! activation codes at a time and multiply-accumulates them against
//! eight channels per vector op, using the pair-interleaved panel layout
//! of [`PackedPanels`](crate::PackedPanels). Each architecture has one
//! hand-written backend: AVX2 on x86_64, NEON on aarch64, and the
//! portable loop everywhere else — including a pre-AVX2 x86_64 host,
//! where LLVM auto-vectorizes it at the SSE2 baseline:
//!
//! | level | arch | blocked GEMM |
//! |---|---|---|
//! | [`SimdLevel::Scalar`] | any | portable dual-row [`gemv2`] channel loop (always available) |
//! | [`SimdLevel::Avx2`] | x86_64 | register-blocked 4 rows × channel tiles of 16, 8 and 4 ([`requant::apply_gemm_rows`]; the 4-channel tile loads 8 panel bytes into the low 128-bit lane, so a scalar loop runs only the last `c_o mod 4` channels): rows widened once by `vpmovzxbw`, `vpmaddwd` into ymm accumulators held over the whole `k` (the `maddubs`-family widening multiply-add, minus its signed-saturating hazard: both operands are zero-extended to `i16`, so every pairwise product is exact), requantized in-register; bound `⌈k/2⌉·2·255² < 2³¹` |
//! | [`SimdLevel::Neon`] | aarch64 | dual-row [`gemv2`]: `vld2` de-interleave + `vmull_u8` widening multiply |
//!
//! Depthwise convolution has no reduction over input channels, so it gets
//! its own primitive, [`dw_taps`]: a **channel-vectorized dual-tap**
//! multiply-accumulate. Each call computes one output pixel's
//! accumulators for a block of channels; two kernel taps advance per
//! vector op, their zero-point-centred `i16` inputs interleaved against a
//! pair-interleaved, zero-point-centred `i16` weight panel:
//!
//! | level | depthwise dual-tap multiply-accumulate |
//! |---|---|
//! | [`SimdLevel::Scalar`] | portable per-channel tap loop (the reference) |
//! | [`SimdLevel::Avx2`] | `punpck{l,h}bw` tap interleave, `vpmovzxbw` + `vpsubw` centring, `vpmaddwd` |
//! | [`SimdLevel::Neon`] | the portable loop, auto-vectorized at the NEON baseline |
//!
//! The level is owned by `mixq_quant::simd`, which the sub-byte packing
//! kernels dispatch on too, and re-exported here unchanged: detected
//! once per process ([`detected_level`]), pinned down with the
//! `MIXQ_FORCE_SCALAR=1` environment variable (CI's fallback-coverage
//! leg), and narrowed programmatically with [`set_forced`] (the scaling
//! bench measures scalar and SIMD in one process). Forcing a level the
//! CPU does not support is rejected — every reachable `unsafe` call is
//! guarded by the detection.
//!
//! None of this touches the abstract [`OpCounts`](crate::OpCounts)
//! ledger: SIMD reorganizes host arithmetic, not the modeled MCU work,
//! so modeled Cortex-M7 cycles are invariant under the level (asserted
//! by the cycle-model tests).

#![allow(unsafe_code)]

pub use mixq_quant::simd::{active_level, detected_level, set_forced, SimdLevel};

pub mod requant;

/// Largest patch length the blocked GEMM accepts: every channel's `i32`
/// accumulator holds `Σ u8·u8` over the whole patch, and `32768 · 255² <
/// 2³¹`. Convolutions with longer patches run the direct loop.
pub const MAX_DOT_LEN: usize = 32768;

/// Largest depthwise kernel area (taps per output pixel) [`dw_taps`]
/// accepts — 5×5 and every smaller kernel. Even, so the zero-weight pad
/// tap that completes an odd kernel's last pair still fits. Each `i32`
/// lane sums at most this many products of a centred input
/// (`|x − zx| ≤ 255`) and a centred weight that fits `i16`
/// (`|w − zw| ≤ 2¹⁵`): `32 · 255 · 2¹⁵ < 2²⁸`, and for the `[0, 255]`
/// zero-points a converted network carries, `≤ MAX_DW_TAPS · 255²`.
pub const MAX_DW_TAPS: usize = 32;

/// `Σ x[i]` as an exact `i64` (the hoisted `Σ X` row term of the dual-row
/// GEMM; the AVX2 GEMM sums while it widens). Any length.
#[inline]
pub fn row_sum(level: SimdLevel, x: &[u8]) -> i64 {
    match level {
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64.
        SimdLevel::Neon => unsafe { neon::row_sum_neon(x) },
        #[allow(unreachable_patterns)]
        _ => x.iter().map(|&v| v as i64).sum(),
    }
}

/// The channel-vectorized dual-row GEMV over one pair-interleaved weight
/// panel: adds `Σ_i x_r[i] · w[co][i]` into `acc_r[co]` for both rows
/// and **every** output channel.
///
/// Operand layout (built by
/// [`QConv2d::prepack_panels`](crate::QConv2d::prepack_panels)):
/// `pairs[(p·c_o + co)·2 + s]` holds `w[co][2p + s]` — column pairs
/// interleaved per channel, so a 16-byte load covers 8 channels' pairs
/// and one widening multiply-add (`pmaddwd` against the broadcast
/// activation pair) advances all of them one column pair. `tail[co]`
/// holds the last column when `k` is odd.
///
/// Exactness: products are `≤ 255²`, each accumulator gathers `k ≤`
/// [`MAX_DOT_LEN`] of them, and `32768·255² < 2³¹` keeps the `i32` lanes
/// from wrapping — so every backend returns the same integers and the
/// caller's `i64` math sees exact sums.
///
/// This is the portable and NEON GEMM; the AVX2 one is
/// [`requant::apply_gemm_rows`], so an AVX2 `level` runs the portable loop.
///
/// # Panics
///
/// Panics unless `x0.len() == x1.len() == k ≤ MAX_DOT_LEN`,
/// `pairs.len() == (k/2)·c_o·2`, `tail.len() == c_o·(k&1)` and
/// `acc0.len() == acc1.len() == c_o` — the invariants the NEON backend's
/// unchecked loads rely on.
#[inline]
pub fn gemv2(
    level: SimdLevel,
    x0: &[u8],
    x1: &[u8],
    pairs: &[u8],
    tail: &[u8],
    acc0: &mut [i32],
    acc1: &mut [i32],
) {
    let k = x0.len();
    let co_n = acc0.len();
    check_panel(k, co_n, pairs, tail);
    assert!(
        x1.len() == k && acc1.len() == co_n,
        "gemv2 rows and accumulators must match in length"
    );
    match level {
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64.
        SimdLevel::Neon => unsafe { neon::gemv2_neon(x0, x1, pairs, tail, acc0, acc1) },
        #[allow(unreachable_patterns)]
        _ => gemv2_scalar(x0, x1, pairs, tail, acc0, acc1),
    }
}

/// The panel contract of [`gemv2`] and [`requant::apply_gemm_rows`],
/// checked in release builds too: the vector backends load unchecked.
pub(crate) fn check_panel(k: usize, co_n: usize, pairs: &[u8], tail: &[u8]) {
    assert!(k <= MAX_DOT_LEN, "patch length {k} exceeds MAX_DOT_LEN");
    assert!(
        pairs.len() == (k / 2) * co_n * 2 && tail.len() == co_n * (k & 1),
        "weight panel does not match k = {k}, c_o = {co_n}"
    );
}

/// The portable GEMV: one column pair broadcast over all channels, two
/// rows sharing each weight load — the exact arithmetic every vector
/// backend must reproduce (and a shape LLVM can auto-vectorize).
fn gemv2_scalar(
    x0: &[u8],
    x1: &[u8],
    pairs: &[u8],
    tail: &[u8],
    acc0: &mut [i32],
    acc1: &mut [i32],
) {
    let k = x0.len();
    let co_n = acc0.len();
    for (p, wrow) in pairs.chunks_exact(co_n * 2).enumerate() {
        let xa0 = x0[2 * p] as i32;
        let xa1 = x0[2 * p + 1] as i32;
        let xb0 = x1[2 * p] as i32;
        let xb1 = x1[2 * p + 1] as i32;
        for ((w, a0), a1) in wrow
            .chunks_exact(2)
            .zip(acc0.iter_mut())
            .zip(acc1.iter_mut())
        {
            let w0 = w[0] as i32;
            let w1 = w[1] as i32;
            *a0 += xa0 * w0 + xa1 * w1;
            *a1 += xb0 * w0 + xb1 * w1;
        }
    }
    if k & 1 == 1 {
        let xa = x0[k - 1] as i32;
        let xb = x1[k - 1] as i32;
        for ((&w, a0), a1) in tail.iter().zip(acc0.iter_mut()).zip(acc1.iter_mut()) {
            *a0 += xa * w as i32;
            *a1 += xb * w as i32;
        }
    }
}

/// Scalar channel-remainder helper for the NEON backend: channels
/// `[co_lo, co_n)` of the same pair-interleaved panel.
#[cfg(target_arch = "aarch64")]
fn gemv2_channel_tail(
    x0: &[u8],
    x1: &[u8],
    pairs: &[u8],
    tail: &[u8],
    co_lo: usize,
    acc0: &mut [i32],
    acc1: &mut [i32],
) {
    let k = x0.len();
    let co_n = acc0.len();
    for p in 0..k / 2 {
        let xa0 = x0[2 * p] as i32;
        let xa1 = x0[2 * p + 1] as i32;
        let xb0 = x1[2 * p] as i32;
        let xb1 = x1[2 * p + 1] as i32;
        let base = p * co_n * 2;
        for co in co_lo..co_n {
            let w0 = pairs[base + co * 2] as i32;
            let w1 = pairs[base + co * 2 + 1] as i32;
            acc0[co] += xa0 * w0 + xa1 * w1;
            acc1[co] += xb0 * w0 + xb1 * w1;
        }
    }
    if k & 1 == 1 {
        let xa = x0[k - 1] as i32;
        let xb = x1[k - 1] as i32;
        for co in co_lo..co_n {
            let w = tail[co] as i32;
            acc0[co] += xa * w;
            acc1[co] += xb * w;
        }
    }
}

/// The depthwise dual-tap kernel: one output pixel's accumulators for a
/// block of `n = acc.len()` channels,
///
/// `acc[j] = Σ_p Σ_s (x[offs[2p + s] + j] − zx) · wpairs[(p·n + j)·2 + s]`
///
/// (overwriting `acc`). `offs` lists the byte offset of each tap's
/// channel row in `x` — an even count, so an odd kernel appends a pad tap
/// whose weights are zero (any in-bounds offset will do). `wpairs` is the
/// block's zero-point-centred weight panel with the two taps of each pair
/// interleaved per channel, so one widening multiply-add (`vpmaddwd`)
/// advances eight channels by two taps. A tap that falls in the padding
/// is a row of `zx` codes, which centres to zero.
///
/// Exactness: `|x − zx| ≤ 255` and every weight is an `i16`, so each
/// product fits `i32`, a `pmaddwd` pair sum cannot reach its one
/// overflowing input (both `i16::MIN` squared), and at most
/// [`MAX_DW_TAPS`] products per lane stay far inside `i32` — every
/// backend returns the same integers as the scalar loop.
///
/// # Panics
///
/// Panics unless `offs.len()` is even and `≤ MAX_DW_TAPS`,
/// `wpairs.len() == offs.len() · n`, and every tap row
/// `x[offs[t]..offs[t] + n]` is in bounds — the invariants the vector
/// backends' unchecked loads rely on.
#[inline]
pub fn dw_taps(
    level: SimdLevel,
    x: &[u8],
    offs: &[usize],
    zx: u8,
    wpairs: &[i16],
    acc: &mut [i32],
) {
    let n = acc.len();
    assert!(
        offs.len() % 2 == 0 && offs.len() <= MAX_DW_TAPS,
        "depthwise taps come in pairs, at most MAX_DW_TAPS"
    );
    assert_eq!(
        wpairs.len(),
        offs.len() * n,
        "depthwise weight panel length"
    );
    assert!(
        offs.iter().all(|&o| o + n <= x.len()),
        "depthwise tap row out of bounds"
    );
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 is positively detected (see `row_sum`); every tap
        // row and the weight panel were bounds-checked above; lanes sum
        // ≤ MAX_DW_TAPS products of |x − zx| ≤ 255 by an i16 weight,
        // exact in i32 (see `MAX_DW_TAPS`).
        SimdLevel::Avx2 => unsafe { x86::dw_taps_avx2(x, offs, zx, wpairs, acc) },
        #[allow(unreachable_patterns)]
        _ => dw_taps_channels(x, offs, zx, wpairs, 0, acc),
    }
}

/// The portable depthwise tap loop over channels `[j0, n)` — the scalar
/// level, and the channel remainder of the vector backends. Tap pairs
/// outer, channels inner: a straight-line span multiply-accumulate the
/// compiler can vectorize.
fn dw_taps_channels(x: &[u8], offs: &[usize], zx: u8, wpairs: &[i16], j0: usize, acc: &mut [i32]) {
    let n = acc.len();
    let zx = zx as i32;
    acc[j0..].fill(0);
    for (t, w) in offs.chunks_exact(2).zip(wpairs.chunks_exact(2 * n)) {
        let (r0, r1) = (&x[t[0] + j0..t[0] + n], &x[t[1] + j0..t[1] + n]);
        for (((a, w), &x0), &x1) in acc[j0..]
            .iter_mut()
            .zip(w[2 * j0..].chunks_exact(2))
            .zip(r0)
            .zip(r1)
        {
            *a += (x0 as i32 - zx) * w[0] as i32 + (x1 as i32 - zx) * w[1] as i32;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2 backends. Overflow bound of the GEMM tile (per `i32`
    //! accumulator lane, `k ≤ 32768`): each `vpmaddwd` adds one column
    //! pair `≤ 2·255² = 130050` (the odd-`k` tail word adds `≤ 255²`), so
    //! a row contributes at most `⌈k/2⌉·2·255² ≤ 16384 · 130050 < 2³¹`.

    use super::dw_taps_channels;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must have detected AVX2; bounds as checked in [`super::dw_taps`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn dw_taps_avx2(x: &[u8], offs: &[usize], zx: u8, wpairs: &[i16], acc: &mut [i32]) {
        let n = acc.len();
        let xp = x.as_ptr();
        let wp = wpairs.as_ptr();
        let zxv = _mm256_set1_epi16(zx as i16);
        let mut j = 0;
        // 16 channels per step: both taps' 16 codes interleave into two
        // 8-channel halves of (x_t0, x_t1) byte pairs, zero-extend to
        // i16, centre, and meet their (w_t0, w_t1) pairs in vpmaddwd.
        while j + 16 <= n {
            let mut a0 = _mm256_setzero_si256();
            let mut a1 = _mm256_setzero_si256();
            for (p, t) in offs.chunks_exact(2).enumerate() {
                let x0 = _mm_loadu_si128(xp.add(t[0] + j) as *const __m128i);
                let x1 = _mm_loadu_si128(xp.add(t[1] + j) as *const __m128i);
                let lo = _mm256_sub_epi16(_mm256_cvtepu8_epi16(_mm_unpacklo_epi8(x0, x1)), zxv);
                let hi = _mm256_sub_epi16(_mm256_cvtepu8_epi16(_mm_unpackhi_epi8(x0, x1)), zxv);
                let w = wp.add((p * n + j) * 2);
                a0 = _mm256_add_epi32(
                    a0,
                    _mm256_madd_epi16(lo, _mm256_loadu_si256(w as *const __m256i)),
                );
                a1 = _mm256_add_epi32(
                    a1,
                    _mm256_madd_epi16(hi, _mm256_loadu_si256(w.add(16) as *const __m256i)),
                );
            }
            _mm256_storeu_si256(acc.as_mut_ptr().add(j) as *mut __m256i, a0);
            _mm256_storeu_si256(acc.as_mut_ptr().add(j + 8) as *mut __m256i, a1);
            j += 16;
        }
        if j + 8 <= n {
            let mut a0 = _mm256_setzero_si256();
            for (p, t) in offs.chunks_exact(2).enumerate() {
                let x0 = _mm_loadl_epi64(xp.add(t[0] + j) as *const __m128i);
                let x1 = _mm_loadl_epi64(xp.add(t[1] + j) as *const __m128i);
                let v = _mm256_sub_epi16(_mm256_cvtepu8_epi16(_mm_unpacklo_epi8(x0, x1)), zxv);
                let w = _mm256_loadu_si256(wp.add((p * n + j) * 2) as *const __m256i);
                a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(v, w));
            }
            _mm256_storeu_si256(acc.as_mut_ptr().add(j) as *mut __m256i, a0);
            j += 8;
        }
        if j + 4 <= n {
            dw_taps4_sse2(x, offs, zx, wpairs, j, acc);
            j += 4;
        }
        if j < n {
            dw_taps_channels(x, offs, zx, wpairs, j, acc);
        }
    }

    /// Channels `j..j + 4` of [`super::dw_taps`] (the 4-lane tail of the
    /// AVX2 backend, in 128-bit SSE2 registers): 4-byte tap loads,
    /// `pmaddwd` into one `i32` vector.
    ///
    /// # Safety
    /// Caller must run on an SSE2 CPU (every x86_64 CPU; the AVX2 caller
    /// implies it) and keep `j + 4 ≤ acc.len()`; bounds as checked in
    /// [`super::dw_taps`].
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn dw_taps4_sse2(
        x: &[u8],
        offs: &[usize],
        zx: u8,
        wpairs: &[i16],
        j: usize,
        acc: &mut [i32],
    ) {
        let n = acc.len();
        let xp = x.as_ptr();
        let zero = _mm_setzero_si128();
        let zxv = _mm_set1_epi16(zx as i16);
        let mut a = _mm_setzero_si128();
        for (p, t) in offs.chunks_exact(2).enumerate() {
            let x0 = _mm_cvtsi32_si128((xp.add(t[0] + j) as *const i32).read_unaligned());
            let x1 = _mm_cvtsi32_si128((xp.add(t[1] + j) as *const i32).read_unaligned());
            let v = _mm_sub_epi16(_mm_unpacklo_epi8(_mm_unpacklo_epi8(x0, x1), zero), zxv);
            let w = _mm_loadu_si128(wpairs.as_ptr().add((p * n + j) * 2) as *const __m128i);
            a = _mm_add_epi32(a, _mm_madd_epi16(v, w));
        }
        _mm_storeu_si128(acc.as_mut_ptr().add(j) as *mut __m128i, a);
    }

    /// Widens one im2col row into broadcastable pair words and returns
    /// its sum `Σ x`: `xs[p]` holds `x[2p]` in its low and `x[2p + 1]` in
    /// its high `i16`, one `vpmovzxbw` per 16 bytes, summed by a
    /// `vpmaddwd` against ones. An odd `k` ends with the word `(x[k−1],
    /// 0)`, so the tail is one more `vpmaddwd` against `(w, 0)` pairs.
    ///
    /// # Safety
    /// Caller must have detected AVX2 and keep `xs.len() == ⌈x.len()/2⌉`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn widen_pairs_avx2(x: &[u8], xs: &mut [i32]) -> i64 {
        // Lane sums stay below 2·255·k/16 < 2²⁰ for k ≤ MAX_DOT_LEN.
        let ones = _mm256_set1_epi16(1);
        let mut sums = _mm256_setzero_si256();
        let mut i = 0;
        while i + 16 <= x.len() {
            let w = _mm256_cvtepu8_epi16(_mm_loadu_si128(x.as_ptr().add(i) as *const __m128i));
            _mm256_storeu_si256(xs.as_mut_ptr().add(i / 2) as *mut __m256i, w);
            sums = _mm256_add_epi32(sums, _mm256_madd_epi16(w, ones));
            i += 16;
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, sums);
        let mut total: i64 = lanes.iter().map(|&v| v as i64).sum();
        for (w, p) in xs[i / 2..].iter_mut().zip(x[i..].chunks(2)) {
            let hi = p.get(1).map_or(0, |&b| b as i32);
            *w = p[0] as i32 | hi << 16;
            total += (p[0] as i32 + hi) as i64;
        }
        total
    }

    /// The register tile of the blocked GEMM: `R` rows × `V·L` channels
    /// from `ct`, every `i32` accumulator held in a ymm register across the
    /// whole `k`. Row `r`'s widened pair words start at `xs[r·kw]`
    /// ([`widen_pairs_avx2`]); each column pair loads `V` weight slices of
    /// the pair-interleaved panel once, zero-extends them and serves all
    /// `R` rows with one `vpmaddwd` each. `L` is the channels per vector:
    /// 8 fill a ymm register (a 16-byte slice, `vpmovzxbw`), 4 fill its
    /// low 128-bit lane (an 8-byte slice, the high lane stays zero) — the
    /// tile of 16, 8 and 4 channels is `<R, 2, 8>`, `<R, 1, 8>` and `<R, 1,
    /// 4>`. The odd-`k` tail loads its `L` weights with `vpmovzxbd` as
    /// `(w, 0)` pairs.
    ///
    /// # Safety
    /// Caller must have detected AVX2, keep `L ∈ {4, 8}`, `ct + V·L ≤
    /// co_n` and `xs.len() ≥ R·kw` with `kw = ⌈k/2⌉`, and pass the panel
    /// layout [`super::gemv2`] checks (`pairs.len() == (k/2)·co_n·2`,
    /// `tail.len() == co_n·(k & 1)`).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_tile_avx2<const R: usize, const V: usize, const L: usize>(
        xs: &[i32],
        k: usize,
        pairs: &[u8],
        tail: &[u8],
        co_n: usize,
        ct: usize,
    ) -> [[__m256i; V]; R] {
        let kw = k.div_ceil(2);
        let mut acc = [[_mm256_setzero_si256(); V]; R];
        for p in 0..kw {
            let mut w = [_mm256_setzero_si256(); V];
            for (v, wv) in w.iter_mut().enumerate() {
                let c = ct + L * v;
                *wv = if p < k / 2 {
                    let wp = pairs.as_ptr().add((p * co_n + c) * 2) as *const __m128i;
                    if L == 8 {
                        _mm256_cvtepu8_epi16(_mm_loadu_si128(wp))
                    } else {
                        _mm256_zextsi128_si256(_mm_cvtepu8_epi16(_mm_loadl_epi64(wp)))
                    }
                } else {
                    let tp = tail.as_ptr().add(c);
                    if L == 8 {
                        _mm256_cvtepu8_epi32(_mm_loadl_epi64(tp as *const __m128i))
                    } else {
                        let t4 = (tp as *const i32).read_unaligned();
                        _mm256_zextsi128_si256(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(t4)))
                    }
                };
            }
            for (r, a) in acc.iter_mut().enumerate() {
                let b = _mm256_set1_epi32(*xs.as_ptr().add(r * kw + p));
                for (av, &wv) in a.iter_mut().zip(&w) {
                    *av = _mm256_add_epi32(*av, _mm256_madd_epi16(b, wv));
                }
            }
        }
        acc
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON backend. Overflow bound (per accumulator lane, `k ≤ 32768`):
    //! products are `≤ 255² = 65025` in `u16`; each column adds one into
    //! a 32-bit lane, so a full-length row contributes
    //! `32768 · 65025 < 2³¹`.

    use super::gemv2_channel_tail;
    #[allow(clippy::wildcard_imports)]
    use std::arch::aarch64::*;

    /// # Safety
    /// NEON is baseline on aarch64.
    #[target_feature(enable = "neon")]
    pub unsafe fn row_sum_neon(x: &[u8]) -> i64 {
        let n = x.len();
        let mut total = 0i64;
        let mut i = 0;
        while i + 16 <= n {
            let v = vld1q_u8(x.as_ptr().add(i));
            total += vaddlvq_u8(v) as i64;
            i += 16;
        }
        for &v in &x[i..] {
            total += v as i64;
        }
        total
    }

    /// # Safety
    /// NEON is baseline on aarch64; layout invariants as in [`super::gemv2`].
    #[target_feature(enable = "neon")]
    pub unsafe fn gemv2_neon(
        x0: &[u8],
        x1: &[u8],
        pairs: &[u8],
        tail: &[u8],
        acc0: &mut [i32],
        acc1: &mut [i32],
    ) {
        let k = x0.len();
        let co_n = acc0.len();
        let kp = k / 2;
        let co8 = co_n & !7;
        let wp = pairs.as_ptr();
        let mut ct = 0;
        while ct < co8 {
            let mut a0_lo = vld1q_u32(acc0.as_ptr().add(ct) as *const u32);
            let mut a0_hi = vld1q_u32(acc0.as_ptr().add(ct + 4) as *const u32);
            let mut a1_lo = vld1q_u32(acc1.as_ptr().add(ct) as *const u32);
            let mut a1_hi = vld1q_u32(acc1.as_ptr().add(ct + 4) as *const u32);
            for p in 0..kp {
                // vld2 de-interleaves 16 bytes into the 8 channels' first
                // and second column weights.
                let w = vld2_u8(wp.add((p * co_n + ct) * 2));
                // One u8×u8 product per u16 lane: chaining the pair's two
                // products via `vmlal_u8` would overflow u16
                // (2 · 255² = 130050 > 65535), so each product widens into
                // the u32 accumulators on its own.
                let pa0 = vmull_u8(w.0, vdup_n_u8(x0[2 * p]));
                let pa1 = vmull_u8(w.1, vdup_n_u8(x0[2 * p + 1]));
                let pb0 = vmull_u8(w.0, vdup_n_u8(x1[2 * p]));
                let pb1 = vmull_u8(w.1, vdup_n_u8(x1[2 * p + 1]));
                a0_lo = vaddw_u16(a0_lo, vget_low_u16(pa0));
                a0_hi = vaddw_high_u16(a0_hi, pa0);
                a0_lo = vaddw_u16(a0_lo, vget_low_u16(pa1));
                a0_hi = vaddw_high_u16(a0_hi, pa1);
                a1_lo = vaddw_u16(a1_lo, vget_low_u16(pb0));
                a1_hi = vaddw_high_u16(a1_hi, pb0);
                a1_lo = vaddw_u16(a1_lo, vget_low_u16(pb1));
                a1_hi = vaddw_high_u16(a1_hi, pb1);
            }
            if k & 1 == 1 {
                let wt = vld1_u8(tail.as_ptr().add(ct));
                let pa = vmull_u8(wt, vdup_n_u8(x0[k - 1]));
                let pb = vmull_u8(wt, vdup_n_u8(x1[k - 1]));
                a0_lo = vaddw_u16(a0_lo, vget_low_u16(pa));
                a0_hi = vaddw_high_u16(a0_hi, pa);
                a1_lo = vaddw_u16(a1_lo, vget_low_u16(pb));
                a1_hi = vaddw_high_u16(a1_hi, pb);
            }
            vst1q_u32(acc0.as_mut_ptr().add(ct) as *mut u32, a0_lo);
            vst1q_u32(acc0.as_mut_ptr().add(ct + 4) as *mut u32, a0_hi);
            vst1q_u32(acc1.as_mut_ptr().add(ct) as *mut u32, a1_lo);
            vst1q_u32(acc1.as_mut_ptr().add(ct + 4) as *mut u32, a1_hi);
            ct += 8;
        }
        if co8 < co_n {
            gemv2_channel_tail(x0, x1, pairs, tail, co8, acc0, acc1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random bytes (no external RNG dependency).
    fn lcg_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    /// Builds the pair-interleaved panel from row-major weights.
    fn interleave(w: &[Vec<u8>], k: usize) -> (Vec<u8>, Vec<u8>) {
        let co_n = w.len();
        let mut pairs = Vec::with_capacity((k / 2) * co_n * 2);
        for p in 0..k / 2 {
            for wc in w {
                pairs.push(wc[2 * p]);
                pairs.push(wc[2 * p + 1]);
            }
        }
        let tail = if k & 1 == 1 {
            w.iter().map(|wc| wc[k - 1]).collect()
        } else {
            Vec::new()
        };
        (pairs, tail)
    }

    fn reference(x: &[u8], w: &[Vec<u8>]) -> Vec<i64> {
        w.iter()
            .map(|wc| {
                x.iter()
                    .zip(wc)
                    .map(|(&a, &b)| a as i64 * b as i64)
                    .sum::<i64>()
            })
            .collect()
    }

    #[test]
    fn all_available_levels_match_reference() {
        // k hits: empty, odd tails, exact pair counts; co_n hits: below
        // one vector tile, exact tiles, tile remainders of 1–7.
        for k in [0, 1, 2, 3, 4, 7, 9, 16, 27, 64, 100, 255] {
            for co_n in [1, 3, 4, 5, 8, 11, 16, 37] {
                let x0 = lcg_bytes(3 + (k * co_n) as u64, k);
                let x1 = lcg_bytes(5 + (k * co_n) as u64, k);
                let w: Vec<Vec<u8>> = (0..co_n)
                    .map(|co| lcg_bytes(11 + co as u64 + k as u64, k))
                    .collect();
                let (pairs, tail) = interleave(&w, k);
                let want0 = reference(&x0, &w);
                let want1 = reference(&x1, &w);
                for level in SimdLevel::available_levels() {
                    let mut acc0 = vec![1i32; co_n]; // nonzero: gemv2 adds
                    let mut acc1 = vec![2i32; co_n];
                    gemv2(level, &x0, &x1, &pairs, &tail, &mut acc0, &mut acc1);
                    for co in 0..co_n {
                        assert_eq!(
                            acc0[co] as i64,
                            want0[co] + 1,
                            "{level:?} k={k} co_n={co_n} co={co}"
                        );
                        assert_eq!(
                            acc1[co] as i64,
                            want1[co] + 2,
                            "{level:?} k={k} co_n={co_n}"
                        );
                    }
                    let want_sum: i64 = x0.iter().map(|&v| v as i64).sum();
                    assert_eq!(row_sum(level, &x0), want_sum, "{level:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn saturating_values_stay_exact() {
        // All-255 operands at the longest patch the contract admits and at
        // an odd length: the case a maddubs-style saturating path (or a
        // u16 accumulator) would corrupt — the zero-extended formulation
        // must stay exact in the dual-row loop and in the register-blocked
        // GEMM (whose 15 threshold steps at want − 7 ..= want + 7 give
        // code 8 exactly when Φ is exact).
        use crate::{QConv2d, QConvWeights, Requantizer, ThresholdChannel, WeightOffset};
        use mixq_quant::BitWidth;
        use mixq_tensor::{ConvGeometry, Padding, Shape};
        let co_n = 25;
        for k in [MAX_DOT_LEN - 1, MAX_DOT_LEN] {
            let want = (k as i64) * 255 * 255;
            let step = ThresholdChannel::from_affine(1.0, 8 - want, 0, BitWidth::W4);
            let weights = QConvWeights::new(
                Shape::new(co_n, 1, 1, k),
                false,
                &vec![255u8; co_n * k],
                BitWidth::W8,
                WeightOffset::PerLayer(0),
            );
            let conv = QConv2d::new(
                weights,
                ConvGeometry::new(1, 1, 1, Padding::Same),
                Requantizer::thresholds(vec![step; co_n], 0, BitWidth::W4),
            );
            let panels = conv.prepack_panels();
            let rows = 5;
            let x = vec![255u8; rows * k];
            for level in SimdLevel::available_levels() {
                let mut acc0 = vec![0i32; co_n];
                let mut acc1 = vec![0i32; co_n];
                gemv2(
                    level,
                    &x[..k],
                    &x[k..2 * k],
                    panels.pairs(),
                    panels.tail(),
                    &mut acc0,
                    &mut acc1,
                );
                for co in 0..co_n {
                    assert_eq!(acc0[co] as i64, want, "{level:?} co={co}");
                    assert_eq!(acc1[co] as i64, want, "{level:?} co={co}");
                }
                assert_eq!(row_sum(level, &x[..k]), k as i64 * 255, "{level:?}");

                let mut out = vec![0u8; rows * co_n];
                let mut xs = vec![0i32; requant::GEMM_ROWS * k.div_ceil(2)];
                let (mut rq, mut cm) = (0u64, 0u64);
                let fused = requant::apply_gemm_rows(
                    conv.plan(),
                    conv.requant(),
                    level,
                    &panels,
                    &x,
                    0,
                    &mut xs,
                    &mut out,
                    &mut rq,
                    &mut cm,
                );
                assert_eq!(fused, level == SimdLevel::Avx2, "{level:?}");
                if fused {
                    assert!(out.iter().all(|&c| c == 8), "{level:?} k={k}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "weight panel")]
    fn gemv2_rejects_mis_sized_panel() {
        // k = 4 over 8 channels needs 32 pair bytes; 30 would read past
        // the panel in the unchecked vector loads.
        let (mut acc0, mut acc1) = ([0i32; 8], [0i32; 8]);
        gemv2(
            detected_level(),
            &[1u8; 4],
            &[1u8; 4],
            &[0u8; 30],
            &[],
            &mut acc0,
            &mut acc1,
        );
    }

    /// Reference depthwise sum for `dw_taps`: plain `i64` arithmetic.
    fn dw_reference(x: &[u8], offs: &[usize], zx: u8, wpairs: &[i16], n: usize) -> Vec<i64> {
        (0..n)
            .map(|j| {
                (0..offs.len())
                    .map(|t| {
                        let w = wpairs[((t / 2) * n + j) * 2 + t % 2] as i64;
                        (x[offs[t] + j] as i64 - zx as i64) * w
                    })
                    .sum()
            })
            .collect()
    }

    #[test]
    fn dw_taps_levels_match_reference() {
        // n hits: below one vector tile, the 8- and 16-lane steps and
        // every tail; tap counts cover 1×1 (one pair) up to MAX_DW_TAPS.
        for n in [1, 3, 7, 8, 9, 15, 16, 17, 24, 31, 40, 64] {
            for taps in [2, 4, 10, 26, MAX_DW_TAPS] {
                let rows = taps + 3;
                let x = lcg_bytes(7 + (n * taps) as u64, rows * n + 5);
                let offs: Vec<usize> = (0..taps).map(|t| (t * 5 + 1) % rows * n).collect();
                let wpairs: Vec<i16> = lcg_bytes(13 + n as u64, taps * n)
                    .into_iter()
                    .map(|b| b as i16 - 100)
                    .collect();
                for zx in [0u8, 3, 128, 255] {
                    let want = dw_reference(&x, &offs, zx, &wpairs, n);
                    for level in SimdLevel::available_levels() {
                        let mut acc = vec![7i32; n]; // dw_taps overwrites
                        dw_taps(level, &x, &offs, zx, &wpairs, &mut acc);
                        let got: Vec<i64> = acc.iter().map(|&a| a as i64).collect();
                        assert_eq!(got, want, "{level:?} n={n} taps={taps} zx={zx}");
                    }
                }
            }
        }
    }

    #[test]
    fn dw_taps_extreme_operands_stay_exact() {
        // Every lane at its bound: |x − zx| = 255 against the widest i16
        // weights of both signs, over the maximum tap count.
        let n = 19;
        let taps = MAX_DW_TAPS;
        let offs: Vec<usize> = (0..taps).map(|t| t * n).collect();
        for (xv, zx) in [(255u8, 0u8), (0, 255)] {
            let x = vec![xv; taps * n];
            for wv in [i16::MAX, i16::MIN + 1] {
                let wpairs = vec![wv; taps * n];
                let want = dw_reference(&x, &offs, zx, &wpairs, n);
                for level in SimdLevel::available_levels() {
                    let mut acc = vec![0i32; n];
                    dw_taps(level, &x, &offs, zx, &wpairs, &mut acc);
                    let got: Vec<i64> = acc.iter().map(|&a| a as i64).collect();
                    assert_eq!(got, want, "{level:?} x={xv} zx={zx} w={wv}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn dw_taps_rejects_out_of_bounds_rows() {
        let mut acc = [0i32; 8];
        dw_taps(
            detected_level(),
            &[0u8; 15],
            &[0, 8],
            0,
            &[0i16; 16],
            &mut acc,
        );
    }
}
