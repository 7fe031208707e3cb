//! The im2col + GEMM convolution path — the dense kernel behind
//! [`KernelChoice::BlockedGemm`](crate::KernelChoice::BlockedGemm), and
//! the dataflow CMSIS-NN's `conv` kernels use on the Cortex-M (§6's
//! library lowers convolutions to an image-to-column expansion followed by
//! a matrix product so the dual-MAC `SMLAD` streams contiguous operands).
//!
//! [`QConv2d::im2col_into`] gathers the expansion, with padded taps
//! materialized as the input zero-point so they contribute exactly zero.
//! The GEMM over it is restructured the way a production inner kernel is:
//!
//! * **double zero-point hoisting** — `Σ (X − Zx)(W − Zw)` expands to
//!   `Σ X·W − Zw·Σ X − Zx·Σ W + k·Zx·Zw`, with `Σ X` computed once per
//!   matrix row and `Σ W` once per output channel, so the inner loop is a
//!   bare **u8 × u8** multiply–accumulate with no per-element offset
//!   arithmetic (exact in integers: the expansion is algebraic identity,
//!   making the path **bit-identical** to the direct kernel);
//! * **channel-vectorized GEMM** — the vector axis is the output-channel
//!   dimension of the pair-interleaved weight panel, so the kernel reaches
//!   full SIMD width even on the tiny `k ∈ {4..128}` patches of a
//!   width-scaled MobileNet (a `k`-axis formulation starves there);
//! * **one backend per architecture** — on AVX2,
//!   [`simd::requant::apply_gemm_rows`] register-blocks 4 im2col rows ×
//!   16 channels (then tiles of 8 and 4 — a 4-channel stem runs vector
//!   code too), keeps the `i32` accumulators in ymm registers over the
//!   whole `k` (every weight byte loaded serves four rows) and
//!   requantizes each tile in-register; NEON and the portable scalar
//!   loop run the dual-row [`simd::gemv2`] with the per-row
//!   [`simd::requant::apply_gemm_row`] epilogue. Integer sums are
//!   order-independent, so every level is bit-identical;
//! * **one `i32` accumulation per patch** — `k ≤` [`MAX_DOT_LEN`] keeps
//!   even an all-255 dot product exact in `i32`; a layer with a longer
//!   patch does not support [`KernelChoice::BlockedGemm`](crate::KernelChoice::BlockedGemm)
//!   and runs the direct loop;
//! * **pointwise identity fast path** — for 1×1 stride-1 convolutions the
//!   im2col matrix *is* the input in NHWC order, so the expansion is a
//!   borrow of the packed bytes (8-bit input) or one linear unpack
//!   (sub-byte) instead of a per-element gather;
//! * **intra-walk row parallelism** — with a [`ThreadPool`] on the
//!   arena, the im2col gather and the `rows × c_o` output split into
//!   contiguous row blocks through `split_rows`, the split every kernel
//!   shares (disjoint output ranges and disjoint accumulator scratch,
//!   identical per-row arithmetic → the merge is a concatenation and the
//!   result byte-identical for any worker count).
//!
//! The abstract [`OpCounts`] ledger charges the GEMM dataflow's
//! mathematical work (every padded MAC, one load per gathered element);
//! the per-choice rates of the Cortex-M7 cycle model express the dataflow
//! difference from the direct loop, and host SIMD or worker threads never
//! change modeled cycles.

use mixq_tensor::Shape;

use crate::conv::pixels_from;
use crate::simd::requant::RequantPlan;
use crate::simd::{self, SimdLevel, MAX_DOT_LEN};
use crate::threadpool::{split_rows, ThreadPool};
use crate::{OpCounts, QActivation, QConv2d, Requantizer};

/// The prepacked operand of the blocked GEMM: the layer's decoded u8
/// weight codes in the pair-interleaved order its kernels stream,
/// plus the per-channel hoisted zero-point terms — built **once** from a
/// layer's packed weights instead of on every call.
///
/// The paper's deployment target is steady-state inference over immutable
/// flash-resident weights, so — following the prepacked-operand design of
/// production int8 GEMMs (gemmlowp's `PackedSideBlock`, CMSIS-NN's
/// reordered kernel weights) — the graph executor builds this artifact at
/// kernel-selection time, stores it on the node, and every inference (and
/// every sample of a batch) streams it directly. The per-call
/// decode/interleave and the `Σ W` recomputation of the PR-4 kernel all
/// disappear from the hot path.
///
/// The panel layout is **k-major over column pairs, channel-interleaved
/// within each pair**: `pairs[(p·c_o + co)·2 + s]` holds channel `co`'s
/// code for im2col column `2p + s` (and `tail[co]` the last column when
/// `k` is odd). One 16-byte load therefore covers eight consecutive
/// channels' column pairs — exactly the operand shape the
/// channel-vectorized GEMV wants, independent of how small `k` is. The
/// byte footprint is identical to any dense ordering (`c_o · k` codes),
/// so the goldened `prepacked_bytes` accounting is unchanged across the
/// layout generations.
///
/// Accounting: the artifact is a *read-only* copy of the weights in the
/// panel order the microkernel wants. A deployment stores it in flash next
/// to the packed codes (or builds it into RAM once at boot); it is **not**
/// part of the Eq. 7 activation live set, and [`PackedPanels::bytes`]
/// reports its footprint separately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedPanels {
    /// Pair-interleaved weight codes: `pairs[(p·c_o + co)·2 + s]` holds
    /// `w[co][2p + s]` for column pairs `p ∈ 0..k/2`.
    pairs: Vec<u8>,
    /// The odd last column (`tail[co] = w[co][k−1]`); empty if `k` even.
    tail: Vec<u8>,
    /// Per-channel `Σ W` over the k codes.
    sumw: Vec<i64>,
    /// Per-channel weight zero-points `Zw`.
    zw: Vec<i64>,
    /// Per-channel `Σ W − k·Zw`: the hoisted correction is
    /// `Zx · base[c]`, so no per-call correction vector is needed.
    base: Vec<i64>,
    /// Patch length `k_h·k_w·c_i` the panels were built for.
    k: usize,
}

impl PackedPanels {
    /// Patch length `k_h·k_w·c_i` (GEMM depth).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output channels covered.
    pub fn out_channels(&self) -> usize {
        self.sumw.len()
    }

    /// The pair-interleaved panel bytes (benches time the GEMV directly).
    pub fn pairs(&self) -> &[u8] {
        &self.pairs
    }

    /// The odd-`k` tail panel bytes.
    pub fn tail(&self) -> &[u8] {
        &self.tail
    }

    /// Per-channel weight zero-points `Zw` (widened).
    pub fn zw(&self) -> &[i64] {
        &self.zw
    }

    /// Per-channel hoisted base terms `Σ W − k·Zw`.
    pub fn base(&self) -> &[i64] {
        &self.base
    }

    /// Read-only footprint of the artifact in bytes: the `c_o · k`
    /// interleaved codes plus the three per-channel `i64` tables.
    /// Reported separately from the Table-1 flash model (which prices the
    /// packed codes the panels were derived from) and from Eq. 7 RAM
    /// (activations only).
    pub fn bytes(&self) -> usize {
        self.pairs.len() + self.tail.len() + 8 * (self.sumw.len() + self.zw.len() + self.base.len())
    }
}

impl QConv2d {
    /// Builds the [`PackedPanels`] prepack artifact for this layer —
    /// exactly the decode + `Σ W` work the PR-4 kernel performed per
    /// call, hoisted to build time, plus the pair-interleave reorder the
    /// channel-vectorized GEMV streams. Sub-byte weights are decoded once
    /// here.
    ///
    /// # Panics
    ///
    /// Panics on depthwise layers.
    pub fn prepack_panels(&self) -> PackedPanels {
        let weights = self.weights();
        assert!(
            !weights.is_depthwise(),
            "im2col path applies to standard convolutions"
        );
        let k = self.geometry().kernel_area() * weights.in_channels();
        let co_n = weights.out_channels();
        // The flattened (c_o, k_h, k_w, c_i) code order is channel-row-
        // major; decode once, then interleave into the GEMV panel order.
        let rows: Vec<u8> = if weights.needs_unpack() {
            weights.codes()
        } else {
            weights.as_bytes().to_vec()
        };
        // Cold setup path — a hard assert here means the hot row loops
        // below (and `blocked_rows`' pair indexing) never run on
        // mis-sized panels; release builds don't trust the geometry.
        assert_eq!(
            rows.len(),
            co_n * k,
            "decoded weight rows must be out_channels × k"
        );
        let mut pairs = vec![0u8; (k / 2) * co_n * 2];
        for p in 0..k / 2 {
            for co in 0..co_n {
                pairs[(p * co_n + co) * 2] = rows[co * k + 2 * p];
                pairs[(p * co_n + co) * 2 + 1] = rows[co * k + 2 * p + 1];
            }
        }
        let tail: Vec<u8> = if k & 1 == 1 {
            (0..co_n).map(|co| rows[co * k + k - 1]).collect()
        } else {
            Vec::new()
        };
        let sumw: Vec<i64> = (0..co_n)
            .map(|co| rows[co * k..(co + 1) * k].iter().map(|&c| c as i64).sum())
            .collect();
        let zw: Vec<i64> = (0..co_n).map(|co| weights.offset().at(co) as i64).collect();
        let base: Vec<i64> = (0..co_n).map(|co| sumw[co] - k as i64 * zw[co]).collect();
        PackedPanels {
            pairs,
            tail,
            sumw,
            zw,
            base,
            k,
        }
    }
    /// Whether the blocked GEMM can run this layer at all: a standard
    /// convolution whose patch `k = k_h·k_w·c_i` stays within
    /// [`MAX_DOT_LEN`], the bound its `i32` accumulators are proven for.
    /// Depthwise layers and longer patches run the direct loop.
    pub fn blocked_supported(&self) -> bool {
        !self.weights().is_depthwise()
            && self.geometry().kernel_area() * self.weights().in_channels() <= MAX_DOT_LEN
    }

    /// Whether the blocked kernel would borrow the input's packed storage
    /// **zero-copy** instead of materializing an im2col (or linear-unpack)
    /// scratch buffer: a standard 1×1 stride-1 convolution over an 8-bit
    /// input, whose NHWC bytes already *are* the GEMM matrix. The scratch
    /// model ([`QOp::scratch_bytes`](crate::QOp::scratch_bytes)) and the
    /// [`TiledBackend`](crate::TiledBackend)'s selection cost share this
    /// predicate so they price exactly what the kernel does.
    pub fn blocked_borrows_input(&self, in_bits: mixq_quant::BitWidth) -> bool {
        !self.weights().is_depthwise()
            && self.geometry().kernel_area() == 1
            && self.geometry().stride == 1
            && in_bits == mixq_quant::BitWidth::W8
    }

    /// Expands the input into its row-major `rows × k` im2col matrix
    /// (`rows = n·out_h·out_w`, `k = k_h·k_w·c_i`), written into `data`
    /// (cleared and resized in place), and returns `(rows, k)`. Padded
    /// taps are materialized as the input zero-point `Zx`, which
    /// contributes exactly zero to `Σ (X − Zx)(W − Zw)` — the trick
    /// CMSIS-NN's im2col kernels use so the GEMM inner loop stays
    /// branch-free.
    ///
    /// A sub-byte input is decoded once (SIMD unpack) into the slack of
    /// `data` first, so every valid tap copies one contiguous channel
    /// span — the same bytes and the same abstract ledger (`unpacks`
    /// still charges the per-element model the microcontroller would
    /// pay). With a [`ThreadPool`], the rows — independent gathers into
    /// disjoint `k`-byte stripes — split across the workers through
    /// `split_rows`; the bytes and the load tally don't depend on the
    /// split.
    ///
    /// # Panics
    ///
    /// Panics on depthwise layers (CMSIS-NN lowers those directly) or on a
    /// channel mismatch.
    pub fn im2col_into(
        &self,
        x: &QActivation,
        data: &mut Vec<u8>,
        pool: Option<&ThreadPool>,
        ops: &mut OpCounts,
    ) -> (usize, usize) {
        assert!(
            !self.weights().is_depthwise(),
            "im2col path applies to standard convolutions"
        );
        let in_shape = x.shape();
        assert_eq!(in_shape.c, self.weights().in_channels(), "input channels");
        let out_shape = self.output_shape(in_shape);
        let k = self.geometry().kernel_area() * in_shape.c;
        let rows = out_shape.pixels() * out_shape.n;
        let staged = if x.needs_unpack() {
            in_shape.volume()
        } else {
            0
        };
        data.clear();
        data.resize(rows * k + staged, 0);
        let (matrix, slack) = data.split_at_mut(rows * k);
        let flat: &[u8] = if x.needs_unpack() {
            x.unpack_into(slack);
            slack
        } else {
            x.as_bytes()
        };
        let tally = split_rows(
            pool,
            rows,
            matrix,
            &mut Vec::new(),
            0,
            ops,
            |lo, _, chunk, _, tally| {
                tally.act_loads += self.im2col_rows(x, out_shape, lo, chunk, flat);
            },
        );
        if x.needs_unpack() {
            ops.unpacks += tally.act_loads;
        }
        data.truncate(rows * k);
        (rows, k)
    }

    /// Gathers the im2col rows starting at `r_lo` into `out` (whose
    /// length picks the row count) and returns the non-padded load tally.
    /// `flat` holds the input codes one per byte in NHWC order (the 8-bit
    /// tensor's own bytes or a staged sub-byte decode): a kernel row whose
    /// `kw` taps are all in bounds copies its one contiguous `kw·c_i`
    /// span, any other valid tap its channel span; padded taps fill with
    /// `Zx`.
    fn im2col_rows(
        &self,
        x: &QActivation,
        out_shape: Shape,
        r_lo: usize,
        out: &mut [u8],
        flat: &[u8],
    ) -> u64 {
        let in_shape = x.shape();
        let g = self.geometry();
        let (pt, pl) = g.pad_top_left(in_shape.h, in_shape.w);
        let k = g.kernel_area() * in_shape.c;
        let c = in_shape.c;
        let zx = x.zero_point();
        let mut loads = 0u64;
        let span = g.kw * c;
        for (row_out, (n, oy, ox)) in out.chunks_exact_mut(k).zip(pixels_from(out_shape, r_lo)) {
            let ix0 = (ox * g.stride) as isize - pl as isize;
            let x_ok = ix0 >= 0 && ix0 + g.kw as isize <= in_shape.w as isize;
            for (ky, kernel_row) in row_out.chunks_exact_mut(span).enumerate() {
                let iy = (oy * g.stride + ky) as isize - pt as isize;
                if iy < 0 || iy >= in_shape.h as isize {
                    kernel_row.fill(zx);
                    continue;
                }
                let base = ((n * in_shape.h + iy as usize) * in_shape.w) as isize;
                if x_ok {
                    // Every tap of this kernel row is in bounds: its `kw`
                    // channel spans are one contiguous NHWC run.
                    loads += span as u64;
                    let lo = (base + ix0) as usize * c;
                    kernel_row.copy_from_slice(&flat[lo..lo + span]);
                    continue;
                }
                for (kx, tap) in kernel_row.chunks_exact_mut(c).enumerate() {
                    let ix = ix0 + kx as isize;
                    if ix < 0 || ix >= in_shape.w as isize {
                        tap.fill(zx);
                    } else {
                        loads += c as u64;
                        let lo = (base + ix) as usize * c;
                        tap.copy_from_slice(&flat[lo..lo + c]);
                    }
                }
            }
        }
        loads
    }

    /// Runs the layer through the blocked GEMM against a prepacked weight
    /// panel built once by [`QConv2d::prepack_panels`], drawing the im2col
    /// (or sub-byte linear-unpack) expansion from `data_scratch` and the
    /// `i32` kernel scratch (AVX2 widened rows, or the portable loop's
    /// accumulator rows) from `acc_scratch` (both cleared and resized in
    /// place). Output codes are bit-identical to the direct kernel's, and
    /// steady-state calls allocate nothing once the three buffers reach
    /// capacity. Callers go through
    /// [`QOp::execute_kernel`](crate::QOp::execute_kernel) with
    /// [`KernelChoice::BlockedGemm`](crate::KernelChoice::BlockedGemm).
    ///
    /// With a [`ThreadPool`], the im2col expansion and the `rows × c_o`
    /// output split into contiguous row blocks through `split_rows`,
    /// one per worker, inside this single node execution. Worker counts
    /// (including none) are bit-identical: every row's arithmetic is the
    /// serial GEMM's, rows are disjoint, each worker owns a disjoint slice
    /// of `acc_scratch`, and the shared ledger is a sum of per-worker
    /// counts over disjoint ranges.
    ///
    /// # Panics
    ///
    /// Panics on depthwise layers, on an input channel mismatch, on a
    /// patch longer than [`MAX_DOT_LEN`], or if the panels were built for
    /// a different patch length or channel count.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute_blocked(
        &self,
        panels: &PackedPanels,
        x: &QActivation,
        data_scratch: &mut Vec<u8>,
        acc_scratch: &mut Vec<i32>,
        out_codes: &mut Vec<u8>,
        pool: Option<&ThreadPool>,
        ops: &mut OpCounts,
    ) -> Shape {
        assert!(
            !self.weights().is_depthwise(),
            "im2col path applies to standard convolutions"
        );
        let in_shape = x.shape();
        assert_eq!(in_shape.c, self.weights().in_channels(), "input channels");
        let out_shape = self.output_shape(in_shape);
        let weights = self.weights();
        let g = self.geometry();
        let k = g.kernel_area() * in_shape.c;
        let rows = out_shape.pixels() * out_shape.n;
        let per_channel = weights.offset().is_per_channel();
        let w_unpack = weights.needs_unpack() as u64;
        let co_n = weights.out_channels();
        assert_eq!(panels.k, k, "panels built for a different patch length");
        assert_eq!(
            panels.sumw.len(),
            co_n,
            "panels built for a different channel count"
        );

        // The row-major `rows × k` input matrix. For 1×1 stride-1 layers
        // the im2col expansion is the identity: the NHWC codes are already
        // the matrix, so an 8-bit input is borrowed straight from its
        // packed storage and a sub-byte one linearly unpacked — no
        // per-element gather (same ledger charges as the gather).
        let borrowed: bool = g.kernel_area() == 1 && g.stride == 1 && !x.needs_unpack();
        let data: &[u8] = if borrowed {
            ops.act_loads += in_shape.volume() as u64;
            x.as_bytes()
        } else if g.kernel_area() == 1 && g.stride == 1 {
            let loads = in_shape.volume() as u64;
            ops.act_loads += loads;
            ops.unpacks += loads;
            x.codes_into(data_scratch);
            data_scratch
        } else {
            self.im2col_into(x, data_scratch, pool, ops);
            data_scratch
        };
        // Per-walk setup (not per-row): this is the last gate before the
        // row loops index `data[r·k..]` unchecked-by-construction, so it
        // stays a hard assert in release builds.
        assert_eq!(data.len(), rows * k, "staged input matrix must be rows × k");

        out_codes.clear();
        out_codes.resize(out_shape.volume(), 0);
        let requant = self.requant();
        let plan = self.plan();
        let level = simd::active_level();
        // Each row block runs the serial GEMM over its own output rows and
        // its own scratch slice; requant/threshold tallies are
        // data-dependent, so each block counts locally.
        split_rows(
            pool,
            rows,
            out_codes,
            acc_scratch,
            blocked_scratch_len(k, co_n),
            ops,
            |lo, hi, out, scratch, tally| {
                blocked_rows(
                    requant,
                    plan,
                    panels,
                    data,
                    x.zero_point(),
                    level,
                    lo,
                    hi,
                    out,
                    scratch,
                    &mut tally.requants,
                    &mut tally.threshold_cmps,
                );
            },
        );

        // The GEMM dataflow's abstract ledger: every padded MAC of the
        // `rows × k × c_o` product (the im2col loads were charged above).
        let macs = (rows * k * co_n) as u64;
        ops.macs += macs;
        ops.unpacks += w_unpack * macs;
        ops.act_stores += out_shape.volume() as u64;
        ops.bias_adds += out_shape.volume() as u64;
        if per_channel {
            ops.offset_subs += macs;
        }
        out_shape
    }
}

/// Size in bytes of the im2col scratch buffer for a layer over an input
/// shape: one code byte per element of the `rows × k` expansion.
pub fn im2col_scratch_bytes(conv: &QConv2d, input: Shape) -> usize {
    let g = conv.geometry();
    let k = g.kernel_area() * input.c;
    let out = conv.output_shape(input);
    out.pixels() * out.n * k
}

/// The GEMM over im2col rows `[r_lo, r_hi)` into `out` (those rows'
/// codes), run serially or per worker by `split_rows` with a
/// [`blocked_scratch_len`] slice of `scratch`: the AVX2 register-blocked
/// kernel, else the dual-row [`simd::gemv2`] loop. Row blocks never cross
/// the range boundary, so any contiguous split gives the same codes.
#[allow(clippy::too_many_arguments)]
fn blocked_rows(
    requant: &Requantizer,
    plan: &RequantPlan,
    panels: &PackedPanels,
    data: &[u8],
    zx: u8,
    level: SimdLevel,
    r_lo: usize,
    r_hi: usize,
    out: &mut [u8],
    scratch: &mut [i32],
    requants: &mut u64,
    threshold_cmps: &mut u64,
) {
    let k = panels.k;
    let co_n = panels.sumw.len();
    let x = &data[r_lo * k..r_hi * k];
    if simd::requant::apply_gemm_rows(
        plan,
        requant,
        level,
        panels,
        x,
        zx,
        scratch,
        out,
        requants,
        threshold_cmps,
    ) {
        return;
    }

    // Per-channel hoisted terms: acc = Σ X·W − Zw·Σ X − Zx·(Σ W − k·Zw),
    // the exact expansion of Σ (X − Zx)(W − Zw). `Σ W − k·Zw` is the
    // prepacked `base` table, so the input zero-point is the only
    // per-call ingredient.
    let (zw, wbase, zx) = (&panels.zw, &panels.base, zx as i64);
    let (acc0, acc1) = scratch[..2 * co_n].split_at_mut(co_n);
    for (r, out) in (r_lo..r_hi).step_by(2).zip(out.chunks_mut(2 * co_n)) {
        // A trailing single row pairs with itself; only one output is kept.
        let x0 = &data[r * k..(r + 1) * k];
        let x1 = if out.len() > co_n {
            &data[(r + 1) * k..(r + 2) * k]
        } else {
            x0
        };
        acc0.fill(0);
        acc1.fill(0);
        simd::gemv2(level, x0, x1, &panels.pairs, &panels.tail, acc0, acc1);
        for ((acc, x), out) in [(&*acc0, x0), (&*acc1, x1)]
            .into_iter()
            .zip(out.chunks_exact_mut(co_n))
        {
            let sx = simd::row_sum(level, x);
            simd::requant::apply_gemm_row(
                plan,
                requant,
                level,
                acc,
                sx,
                zx,
                zw,
                wbase,
                out,
                requants,
                threshold_cmps,
            );
        }
    }
}

/// Per-part `i32` scratch of the blocked GEMM: the widened rows of one
/// AVX2 register block, or the portable loop's two accumulator rows.
fn blocked_scratch_len(k: usize, co_n: usize) -> usize {
    (simd::requant::GEMM_ROWS * k.div_ceil(2)).max(2 * co_n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QConvWeights, ThresholdChannel, WeightOffset};
    use mixq_quant::{BitWidth, FixedPointMultiplier};
    use mixq_tensor::{ConvGeometry, Padding};

    fn make_conv(
        co: usize,
        ci: usize,
        k: usize,
        stride: usize,
        wbits: BitWidth,
        per_channel: bool,
    ) -> QConv2d {
        let wshape = Shape::new(co, k, k, ci);
        let codes: Vec<u8> = (0..wshape.volume())
            .map(|i| ((i * 7 + 3) % wbits.levels() as usize) as u8)
            .collect();
        let offset = if per_channel {
            WeightOffset::PerChannel((0..co).map(|c| c as i16 % 3).collect())
        } else {
            WeightOffset::PerLayer(1)
        };
        let weights = QConvWeights::new(wshape, false, &codes, wbits, offset);
        let requant = Requantizer::icn(
            (0..co).map(|c| c as i32 * 3 - 2).collect(),
            (0..co)
                .map(|c| FixedPointMultiplier::from_real(0.01 + c as f64 * 0.003))
                .collect(),
            0,
            BitWidth::W4,
        );
        QConv2d::new(
            weights,
            ConvGeometry::new(k, k, stride, Padding::Same),
            requant,
        )
    }

    fn make_input(h: usize, w: usize, c: usize, bits: BitWidth, zx: u8) -> QActivation {
        let shape = Shape::feature_map(h, w, c);
        let codes: Vec<u8> = (0..shape.volume())
            .map(|i| ((i * 5 + 1) % bits.levels() as usize) as u8)
            .collect();
        QActivation::from_codes(shape, &codes, bits, zx)
    }

    /// One blocked-GEMM execution through the graph's dispatch point, with
    /// no prepack cache (panels built per call).
    fn blocked(conv: &QConv2d, x: &QActivation, ops: &mut OpCounts) -> QActivation {
        let out = crate::QOp::execute_kernel(
            conv,
            crate::KernelChoice::BlockedGemm,
            None,
            &[x],
            &mut crate::ActivationArena::new(),
            ops,
        );
        match out {
            crate::OpOutput::Act(a) => a,
            crate::OpOutput::Logits(_) => unreachable!("convolutions produce activations"),
        }
    }

    #[test]
    fn blocked_matches_direct() {
        // Shapes chosen to exercise the GEMV's vector-tile remainders:
        // co ∈ {1..6} covers sub-tile channel counts and odd remainders;
        // k ∈ {1, 3} kernels give odd and even patch lengths; odd row
        // counts exercise the single-row tail.
        for (co, ci, k, stride) in [
            (4, 3, 3, 1),
            (2, 2, 3, 2),
            (5, 4, 1, 1),
            (6, 1, 3, 1),
            (1, 3, 1, 1),
        ] {
            for per_channel in [false, true] {
                let conv = make_conv(co, ci, k, stride, BitWidth::W4, per_channel);
                let x = make_input(5, 5, ci, BitWidth::W8, 3);
                let mut od = OpCounts::default();
                let mut ob = OpCounts::default();
                let direct = conv.execute(&x, &mut od);
                assert_eq!(
                    direct,
                    blocked(&conv, &x, &mut ob),
                    "co={co} ci={ci} k={k} s={stride} pc={per_channel}"
                );
                assert_eq!(od.requants, ob.requants);
                // The GEMM multiplies padded zero-contributions too.
                assert!(ob.macs >= od.macs);
            }
        }
    }

    #[test]
    fn blocked_matches_on_sub_byte_operands() {
        let conv = make_conv(3, 2, 3, 1, BitWidth::W2, true);
        let x = make_input(6, 5, 2, BitWidth::W4, 0);
        let mut od = OpCounts::default();
        let mut ob = OpCounts::default();
        assert_eq!(conv.execute(&x, &mut od), blocked(&conv, &x, &mut ob));
    }

    #[test]
    fn blocked_handles_nonzero_input_zero_point() {
        // The hoisted Zx·ΣW' correction must reproduce the padded taps'
        // zero contribution exactly.
        let conv = make_conv(4, 2, 3, 1, BitWidth::W8, true);
        let x = make_input(4, 4, 2, BitWidth::W8, 7);
        let mut od = OpCounts::default();
        let mut ob = OpCounts::default();
        assert_eq!(conv.execute(&x, &mut od), blocked(&conv, &x, &mut ob));
    }

    #[test]
    fn im2col_geometry() {
        let conv = make_conv(2, 3, 3, 2, BitWidth::W8, false);
        let x = make_input(8, 8, 3, BitWidth::W8, 5);
        let mut data = Vec::new();
        let (rows, k) = conv.im2col_into(&x, &mut data, None, &mut OpCounts::default());
        assert_eq!((rows, k), (4 * 4, 9 * 3));
        assert_eq!(data.len(), 16 * 27);
        assert_eq!(im2col_scratch_bytes(&conv, x.shape()), 16 * 27);
    }

    #[test]
    fn im2col_pads_with_zero_point() {
        // 1x1 input, 3x3 kernel: every tap except the centre is padding.
        let conv = make_conv(1, 1, 3, 1, BitWidth::W8, false);
        let x = QActivation::from_codes(Shape::feature_map(1, 1, 1), &[9], BitWidth::W8, 7);
        let mut row = Vec::new();
        conv.im2col_into(&x, &mut row, None, &mut OpCounts::default());
        assert_eq!(row.len(), 9);
        assert_eq!(row[4], 9, "centre tap is the real value");
        for (i, &v) in row.iter().enumerate() {
            if i != 4 {
                assert_eq!(v, 7, "padded taps carry Zx");
            }
        }
    }

    /// Deterministic pseudo-random bytes.
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

    /// The requantizers the GEMM epilogue must reproduce: ICN, W4
    /// thresholds (ascending, descending and constant channels), and W8
    /// thresholds, whose plan `vectorizable()` rejects.
    fn gemm_requants(co: usize, k: usize) -> [Requantizer; 3] {
        let m = |c: usize| (1.0 + c as f64 * 0.37) / (k as f64 * 2000.0);
        let icn = Requantizer::icn(
            (0..co).map(|c| c as i32 * 977 - 4000).collect(),
            (0..co)
                .map(|c| FixedPointMultiplier::from_real(m(c)))
                .collect(),
            3,
            BitWidth::W4,
        );
        let thresholds = |bits: BitWidth| {
            let channels = (0..co)
                .map(|c| {
                    let mc = match c % 5 {
                        3 => -m(c),
                        4 => 0.0,
                        _ => m(c),
                    };
                    ThresholdChannel::from_affine(mc, c as i64 * 311 - 2000, 2, bits)
                })
                .collect();
            Requantizer::thresholds(channels, 2, bits)
        };
        [icn, thresholds(BitWidth::W4), thresholds(BitWidth::W8)]
    }

    #[test]
    fn register_blocked_gemm_is_bit_identical_at_every_level() {
        // Row ranges of 1..=9 rows (4-row blocks plus single rows, from
        // the start and from the end of the matrix), every channel-tile
        // shape (16-, 8- and 4-wide tiles alone and in sequence, scalar
        // remainders of c_o mod 4 channels), odd and even
        // patch lengths, and both weight zero-point forms — checked
        // against the centred per-element Σ (X − Zx)(W − Zw) reference.
        const ROWS: usize = 9;
        for k in [1usize, 2, 3, 16, 27, 32, 64] {
            for co in [1usize, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 20, 24, 28, 33] {
                let wcodes = lcg_bytes((k * 100 + co) as u64, co * k);
                for per_channel in [false, true] {
                    let offset = if per_channel {
                        WeightOffset::PerChannel((0..co).map(|c| (c * 53 % 256) as i16).collect())
                    } else {
                        WeightOffset::PerLayer(128)
                    };
                    let zw: Vec<i64> = (0..co).map(|c| offset.at(c) as i64).collect();
                    let weights = QConvWeights::new(
                        Shape::new(co, 1, 1, k),
                        false,
                        &wcodes,
                        BitWidth::W8,
                        offset,
                    );
                    for req in gemm_requants(co, k) {
                        let conv = QConv2d::new(
                            weights.clone(),
                            ConvGeometry::new(1, 1, 1, Padding::Same),
                            req.clone(),
                        );
                        assert_eq!(conv.plan().vectorizable(), req.out_bits() != BitWidth::W8);
                        let panels = conv.prepack_panels();
                        for zx in [0u8, 7, 255] {
                            let x = lcg_bytes((k * co) as u64 + zx as u64, ROWS * k);
                            let (mut rq, mut cm) = (0u64, 0u64);
                            let want: Vec<u8> = (0..ROWS * co)
                                .map(|i| {
                                    let (r, c) = (i / co, i % co);
                                    let phi: i64 = (0..k)
                                        .map(|j| {
                                            (x[r * k + j] as i64 - zx as i64)
                                                * (wcodes[c * k + j] as i64 - zw[c])
                                        })
                                        .sum();
                                    req.apply(c, phi, &mut rq, &mut cm)
                                })
                                .collect();
                            for level in SimdLevel::available_levels() {
                                for rows in 1..=ROWS {
                                    for lo in [0, ROWS - rows] {
                                        let mut out = vec![0u8; rows * co];
                                        let mut scratch = vec![0i32; blocked_scratch_len(k, co)];
                                        let (mut grq, mut gcm) = (0u64, 0u64);
                                        blocked_rows(
                                            &req,
                                            conv.plan(),
                                            &panels,
                                            &x,
                                            zx,
                                            level,
                                            lo,
                                            lo + rows,
                                            &mut out,
                                            &mut scratch,
                                            &mut grq,
                                            &mut gcm,
                                        );
                                        let tag = format!(
                                            "{level:?} k={k} co={co} pc={per_channel} zx={zx} \
                                             bits={:?} rows {lo}..{}",
                                            req.out_bits(),
                                            lo + rows
                                        );
                                        assert_eq!(out, want[lo * co..(lo + rows) * co], "{tag}");
                                        assert_eq!(
                                            (grq * ROWS as u64, gcm * ROWS as u64),
                                            (rq * rows as u64, cm * rows as u64),
                                            "ledger {tag}"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pooled_split_is_bit_identical_to_serial() {
        // Worker counts from 1 (inline) past the row count (surplus
        // workers idle) produce byte-identical codes and ledgers. 35
        // rows split into blocks that are not multiples of the GEMM's
        // 4-row register block.
        let conv = make_conv(5, 3, 3, 1, BitWidth::W4, true);
        let x = make_input(7, 5, 3, BitWidth::W8, 3);
        let panels = conv.prepack_panels();
        let mut serial_codes = Vec::new();
        let mut serial_ops = OpCounts::default();
        conv.execute_blocked(
            &panels,
            &x,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut serial_codes,
            None,
            &mut serial_ops,
        );
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let mut codes = Vec::new();
            let mut acc = Vec::new();
            let mut ops = OpCounts::default();
            conv.execute_blocked(
                &panels,
                &x,
                &mut Vec::new(),
                &mut acc,
                &mut codes,
                Some(&pool),
                &mut ops,
            );
            assert_eq!(codes, serial_codes, "threads={threads}");
            assert_eq!(ops, serial_ops, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "standard convolutions")]
    fn depthwise_rejected() {
        let w = QConvWeights::new(
            Shape::new(2, 3, 3, 1),
            true,
            &[0; 18],
            BitWidth::W8,
            WeightOffset::PerLayer(0),
        );
        let conv = QConv2d::new(
            w,
            ConvGeometry::new(3, 3, 1, Padding::Same),
            Requantizer::icn(
                vec![0, 0],
                vec![FixedPointMultiplier::ZERO; 2],
                0,
                BitWidth::W8,
            ),
        );
        let x = make_input(4, 4, 2, BitWidth::W8, 0);
        conv.im2col_into(&x, &mut Vec::new(), None, &mut OpCounts::default());
    }
}
