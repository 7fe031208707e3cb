use mixq_tensor::{ConvGeometry, Shape};

use crate::simd::{self, requant::RequantPlan};
use crate::threadpool::{split_rows, ThreadPool};
use crate::{OpCounts, QActivation, QConvWeights, Requantizer};

/// An integer-only quantized convolution layer: packed weights, geometry and
/// a requantization stage (Eq. 5 evaluates the whole
/// `conv → batch-norm → quant-act` sub-graph in integer arithmetic).
///
/// The dataflow is output-stationary, as in the paper's extended CMSIS-NN
/// kernels: each output accumulator is produced to completion before moving
/// on, so the `i32` accumulator never spills.
///
/// A graph node runs one of three kernels (through
/// [`QOp::execute_kernel`](crate::QOp::execute_kernel)):
///
/// * **depthwise** layers of at most [`simd::MAX_DW_TAPS`] taps — every
///   depthwise layer of a MobileNet — run the depthwise tap kernel:
///   per output pixel, one [`simd::dw_taps`] call over a block of
///   channels, then a fused vectorized requantization. Sub-byte inputs
///   are unpacked once per call and take the same path;
/// * **dense** layers run the direct loop or, when the backend selects
///   it, the blocked GEMM (see [`crate::blocked`]);
/// * [`QConv2d::execute`] runs the per-MAC direct loop for every layer —
///   the independent reference all kernels are bit-identical to.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone, PartialEq)]
pub struct QConv2d {
    weights: QConvWeights,
    geometry: ConvGeometry,
    requant: Requantizer,
    /// SIMD transposition of `requant`, rebuilt with it in `new` (so
    /// requantizer rewrites like `with_saturated_thresholds` can never
    /// leave a stale plan behind).
    plan: RequantPlan,
}

impl QConv2d {
    /// Assembles a layer.
    ///
    /// # Panics
    ///
    /// Panics if the requantizer does not cover exactly the weight tensor's
    /// output channels.
    pub fn new(weights: QConvWeights, geometry: ConvGeometry, requant: Requantizer) -> Self {
        assert_eq!(
            requant.channels(),
            weights.out_channels(),
            "requantizer channels must match output channels"
        );
        assert_eq!(
            weights.shape().h,
            geometry.kh,
            "weight kernel height vs geometry"
        );
        assert_eq!(
            weights.shape().w,
            geometry.kw,
            "weight kernel width vs geometry"
        );
        let plan = RequantPlan::new(&requant);
        QConv2d {
            weights,
            geometry,
            requant,
            plan,
        }
    }

    /// The packed weights.
    pub fn weights(&self) -> &QConvWeights {
        &self.weights
    }

    /// The geometry.
    pub fn geometry(&self) -> ConvGeometry {
        self.geometry
    }

    /// The requantization stage.
    pub fn requant(&self) -> &Requantizer {
        &self.requant
    }

    /// The vectorized-epilogue plan for [`QConv2d::requant`] (see
    /// [`crate::simd::requant`]).
    pub fn plan(&self) -> &RequantPlan {
        &self.plan
    }

    /// Output shape for a given input shape.
    pub fn output_shape(&self, input: Shape) -> Shape {
        let (h, w) = self.geometry.output_size(input.h, input.w);
        Shape::new(input.n, h, w, self.weights.out_channels())
    }

    /// Runs the layer on a quantized activation through the direct
    /// reference kernel — the per-MAC loop for every layer, depthwise
    /// included — producing the quantized output activation and charging
    /// `ops`. Graph nodes execute through
    /// [`QOp::execute_kernel`](crate::QOp::execute_kernel) instead, which
    /// dispatches the depthwise tap kernel and the blocked GEMM; every
    /// kernel choice is bit-identical to this one in output codes and in
    /// the [`OpCounts`] ledger, which makes this the independent
    /// reference they are tested against.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count disagrees with the weights.
    pub fn execute(&self, x: &QActivation, ops: &mut OpCounts) -> QActivation {
        let mut codes = Vec::new();
        let out_shape = self.run_direct(None, x, &mut codes, None, ops);
        QActivation::from_codes(
            out_shape,
            &codes,
            self.requant.out_bits(),
            self.out_zero_point(),
        )
    }

    /// Whether the depthwise tap kernel ([`simd::dw_taps`]) runs this
    /// layer: a depthwise kernel of at most [`simd::MAX_DW_TAPS`] taps
    /// whose centred weights `w − zw` fit `i16` — every code is `≤ 255`,
    /// so that holds for any zero-point `≥ 255 − i16::MAX`, which
    /// includes every zero-point a quantizer produces (`[0, qmax]`).
    fn runs_dw_taps(&self) -> bool {
        let min_zw = 255 - i16::MAX as i32;
        self.weights.is_depthwise()
            && self.geometry.kernel_area() <= simd::MAX_DW_TAPS
            && (0..self.weights.out_channels()).all(|c| self.weights.offset().at(c) >= min_zw)
    }

    /// The direct-kernel entry of [`QOp::execute_kernel`]: writes the
    /// unpacked output codes into `out_codes` (cleared and resized in
    /// place) and returns the output shape.
    ///
    /// * Depthwise layers run the tap kernel ([`QConv2d::depthwise_taps`]).
    ///   A sub-byte input is unpacked once per call into `stage` (drawn
    ///   from the arena) — a host-side staging copy, charged nowhere,
    ///   exactly like the prepack caches.
    /// * Dense layers run the direct loop ([`QConv2d::run_direct`]).
    ///
    /// `wcodes`, when given, holds the weight codes decoded to one per
    /// byte in `(c_o, k_h, k_w, c_i)` order, so no kernel extracts
    /// sub-byte weights per read. With a [`ThreadPool`], the output rows
    /// split across workers (see [`QConv2d::run_rows`]). Every path is
    /// bit-identical to [`QConv2d::execute`], including the abstract
    /// [`OpCounts`] ledger (which keeps pricing the deployed packed reads,
    /// not the host caches).
    ///
    /// # Panics
    ///
    /// Panics if the input channel count disagrees with the weights, or if
    /// `wcodes` has the wrong length.
    pub(crate) fn execute_direct(
        &self,
        wcodes: Option<&[u8]>,
        x: &QActivation,
        out_codes: &mut Vec<u8>,
        stage: &mut Vec<u8>,
        pool: Option<&ThreadPool>,
        ops: &mut OpCounts,
    ) -> Shape {
        if !self.runs_dw_taps() {
            return self.run_direct(wcodes, x, out_codes, pool, ops);
        }
        let wslice = self.weight_view(wcodes);
        let xb: &[u8] = if x.needs_unpack() {
            x.codes_into(stage);
            stage.as_slice()
        } else {
            x.as_bytes()
        };
        self.run_rows(x, out_codes, pool, ops, |lo, out, tally| {
            let wget = |i: usize| wslice.map_or_else(|| self.weights.code_at(i), |w| w[i]);
            self.depthwise_taps(wget, x, xb, lo, out, tally);
        })
    }

    /// The weight codes one per byte, when available without decoding:
    /// the decoded cache `wcodes`, or the packed bytes of 8-bit weights.
    fn weight_view<'a>(&'a self, wcodes: Option<&'a [u8]>) -> Option<&'a [u8]> {
        if let Some(w) = wcodes {
            assert_eq!(
                w.len(),
                self.weights.shape().volume(),
                "decoded weight cache length"
            );
        }
        wcodes.or_else(|| (!self.weights.needs_unpack()).then(|| self.weights.as_bytes()))
    }

    /// The direct loop ([`QConv2d::direct_rows`]) over every output row,
    /// reading weights through [`QConv2d::weight_view`] or, when there is
    /// none, by packed extraction.
    fn run_direct(
        &self,
        wcodes: Option<&[u8]>,
        x: &QActivation,
        out_codes: &mut Vec<u8>,
        pool: Option<&ThreadPool>,
        ops: &mut OpCounts,
    ) -> Shape {
        match self.weight_view(wcodes) {
            Some(w) => self.run_rows(x, out_codes, pool, ops, |lo, out, tally| {
                self.direct_rows(x, lo, out, tally, |i| w[i]);
            }),
            None => self.run_rows(x, out_codes, pool, ops, |lo, out, tally| {
                self.direct_rows(x, lo, out, tally, |i| self.weights.code_at(i));
            }),
        }
    }

    /// Runs a row kernel `core(lo, out, tally)` over every output row
    /// (output pixel × batch) through `split_rows` and charges the
    /// direct-kernel ledger. `core` writes the NHWC output rows from row
    /// `lo` on — all channels of each pixel — into `out` (whose length
    /// picks the row count) and counts its MACs, requantizations and
    /// threshold comparisons into `tally`.
    fn run_rows<F>(
        &self,
        x: &QActivation,
        out_codes: &mut Vec<u8>,
        pool: Option<&ThreadPool>,
        ops: &mut OpCounts,
        core: F,
    ) -> Shape
    where
        F: Fn(usize, &mut [u8], &mut OpCounts) + Sync,
    {
        let out_shape = self.output_shape(x.shape());
        out_codes.clear();
        out_codes.resize(out_shape.volume(), 0);
        let rows = out_shape.pixels() * out_shape.n;
        let tally = split_rows(
            pool,
            rows,
            out_codes,
            &mut Vec::new(),
            0,
            ops,
            |lo, _, out, _, tally| core(lo, out, tally),
        );
        self.charge_direct_ledger(x, out_shape, tally.macs, ops);
        out_shape
    }

    /// The shared tail-ledger of every direct-kernel path (the row cores
    /// already counted `macs` itself): per-MAC loads and unpack charges
    /// are proportional to the MAC tally, so serial and row-split
    /// executions, and the depthwise tap kernel, charge identically (its
    /// staged sub-byte input still charges one unpack per MAC, as the
    /// deployed kernel reads packed codes).
    fn charge_direct_ledger(
        &self,
        x: &QActivation,
        out_shape: Shape,
        macs: u64,
        ops: &mut OpCounts,
    ) {
        let w_unpack = self.weights.needs_unpack() as u64;
        let x_unpack = x.needs_unpack() as u64;
        ops.act_loads += macs;
        ops.unpacks += (w_unpack + x_unpack) * macs;
        ops.act_stores += out_shape.volume() as u64;
        ops.bias_adds += out_shape.volume() as u64;
        if self.weights.offset().is_per_channel() {
            // One extra in-loop subtraction per MAC (§6's ≈ 20% overhead).
            ops.offset_subs += macs;
        }
    }

    /// The depthwise tap kernel over the output rows from row `lo` on: `xb`
    /// holds the input codes one per byte (NHWC), `wget` reads a weight
    /// code by its `(c_o, k_h, k_w)` index, and `out` receives the rows'
    /// NHWC codes (its length picks the row count). Counts MACs,
    /// requantizations and threshold comparisons into `tally`.
    ///
    /// Channels are swept in blocks of ≤ `DW_BLOCK` (the NHWC input is
    /// contiguous over them). Per block, the weights are centred once
    /// into a tap-pair-interleaved `i16` panel; then every output pixel
    /// is one [`simd::dw_taps`] call, a fused requantization of the
    /// block's `i32` accumulators, and a store. Interior pixels — whose
    /// window lies wholly inside the input — read the input in place at
    /// constant tap offsets. Border pixels copy their valid tap rows into
    /// a stack buffer and point their padded taps at a row of `zx` codes,
    /// which centres to zero; only valid taps count as MACs. Integer sums
    /// are exact in any order, so this equals the per-MAC reference.
    fn depthwise_taps(
        &self,
        wget: impl Fn(usize) -> u8,
        x: &QActivation,
        xb: &[u8],
        lo: usize,
        out: &mut [u8],
        tally: &mut OpCounts,
    ) {
        const DW_BLOCK: usize = 64;
        let in_shape = x.shape();
        assert_eq!(
            in_shape.c,
            self.weights.out_channels(),
            "depthwise input channels"
        );
        assert_eq!(xb.len(), in_shape.volume(), "depthwise input codes");
        let out_shape = self.output_shape(in_shape);
        let (pt, pl) = self.geometry.pad_top_left(in_shape.h, in_shape.w);
        let s = self.geometry.stride;
        let (kh, kw) = (self.geometry.kh, self.geometry.kw);
        let (h, w, c) = (in_shape.h, in_shape.w, in_shape.c);
        let taps = kh * kw;
        // Taps padded to whole pairs; the pad tap has zero weights.
        let nt = taps.next_multiple_of(2);
        let zx = x.zero_point();
        let interior = |pad: usize, k: usize, len: usize, out_len: usize| {
            let hi = (len + pad)
                .checked_sub(k)
                .map_or(0, |r| r / s + 1)
                .min(out_len);
            (pad.div_ceil(s).min(hi), hi)
        };
        let (oy_lo, oy_hi) = interior(pt, kh, h, out_shape.h);
        let (ox_lo, ox_hi) = interior(pl, kw, w, out_shape.w);
        // Interior tap offsets relative to the window's top-left input
        // pixel; the pad tap (if any) reuses offset 0.
        let mut inner = [0usize; simd::MAX_DW_TAPS];
        for ky in 0..kh {
            for kx in 0..kw {
                inner[ky * kw + kx] = (ky * w + kx) * c;
            }
        }
        let level = simd::active_level();
        let mut wpairs = [0i16; simd::MAX_DW_TAPS * DW_BLOCK];
        let mut edge = [0u8; (simd::MAX_DW_TAPS + 1) * DW_BLOCK];
        let mut edge_offs = [0usize; simd::MAX_DW_TAPS];
        let mut acc = [0i32; DW_BLOCK];
        let mut blk_lo = 0;
        while blk_lo < c {
            let bn = DW_BLOCK.min(c - blk_lo);
            let wp = &mut wpairs[..nt * bn];
            wp.fill(0);
            for j in 0..bn {
                let co = blk_lo + j;
                let zw = self.weights.offset().at(co);
                for t in 0..taps {
                    // Fits i16 by `runs_dw_taps`.
                    wp[((t / 2) * bn + j) * 2 + t % 2] = (wget(co * taps + t) as i32 - zw) as i16;
                }
            }
            let wp: &[i16] = wp;
            // Border staging: tap t's row at `t·bn`, the `zx` row after.
            let pad_row = taps * bn;
            edge[pad_row..pad_row + bn].fill(zx);
            for (row, (n, oy, ox)) in out.chunks_exact_mut(c).zip(pixels_from(out_shape, lo)) {
                let valid = if (oy_lo..oy_hi).contains(&oy) && (ox_lo..ox_hi).contains(&ox) {
                    let (iy, ix) = (oy * s - pt, ox * s - pl);
                    let base = ((n * h + iy) * w + ix) * c + blk_lo;
                    simd::dw_taps(level, &xb[base..], &inner[..nt], zx, wp, &mut acc[..bn]);
                    taps
                } else {
                    let mut nv = 0;
                    edge_offs[..nt].fill(pad_row);
                    for ky in 0..kh {
                        let iy = (oy * s + ky) as isize - pt as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * s + kx) as isize - pl as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let t = ky * kw + kx;
                            let src = ((n * h + iy as usize) * w + ix as usize) * c + blk_lo;
                            edge[t * bn..(t + 1) * bn].copy_from_slice(&xb[src..src + bn]);
                            edge_offs[t] = t * bn;
                            nv += 1;
                        }
                    }
                    simd::dw_taps(
                        level,
                        &edge[..pad_row + bn],
                        &edge_offs[..nt],
                        zx,
                        wp,
                        &mut acc[..bn],
                    );
                    nv
                };
                // Fused vectorized epilogue over the channel block
                // (bit-identical to per-element `Requantizer::apply`, same
                // ledger totals), straight into the NHWC output row.
                simd::requant::apply_i32_block(
                    &self.plan,
                    &self.requant,
                    level,
                    blk_lo,
                    &acc[..bn],
                    &mut row[blk_lo..blk_lo + bn],
                    &mut tally.requants,
                    &mut tally.threshold_cmps,
                );
                tally.macs += (valid * bn) as u64;
            }
            blk_lo += bn;
        }
    }

    /// The per-MAC direct-loop core over the output rows from row `lo` on,
    /// generic over the weight reader (decoded cache slice vs packed
    /// extraction), writing the rows' NHWC codes into `out` and counting MACs,
    /// requantizations and threshold comparisons into `tally`. It serves
    /// dense layers and [`QConv2d::execute`], the reference.
    fn direct_rows(
        &self,
        x: &QActivation,
        lo: usize,
        out: &mut [u8],
        tally: &mut OpCounts,
        wget: impl Fn(usize) -> u8,
    ) {
        let in_shape = x.shape();
        let depthwise = self.weights.is_depthwise();
        if depthwise {
            assert_eq!(
                in_shape.c,
                self.weights.out_channels(),
                "depthwise input channels"
            );
        } else {
            assert_eq!(in_shape.c, self.weights.in_channels(), "input channels");
        }
        let out_shape = self.output_shape(in_shape);
        let (pt, pl) = self.geometry.pad_top_left(in_shape.h, in_shape.w);
        let s = self.geometry.stride;
        let (kh, kw) = (self.geometry.kh, self.geometry.kw);
        let zx = x.zero_point() as i64;
        let wshape = self.weights.shape();

        let pixels = out
            .chunks_exact_mut(out_shape.c)
            .zip(pixels_from(out_shape, lo));
        for (row, (n, oy, ox)) in pixels {
            for (co, code) in row.iter_mut().enumerate() {
                let zw = self.weights.offset().at(co) as i64;
                let mut acc: i64 = 0;
                for ky in 0..kh {
                    let iy = (oy * s + ky) as isize - pt as isize;
                    if iy < 0 || iy >= in_shape.h as isize {
                        continue;
                    }
                    for kx in 0..kw {
                        let ix = (ox * s + kx) as isize - pl as isize;
                        if ix < 0 || ix >= in_shape.w as isize {
                            continue;
                        }
                        let (iy, ix) = (iy as usize, ix as usize);
                        if depthwise {
                            let xv = x.get(n, iy, ix, co) as i64;
                            let wv = wget(wshape.index(co, ky, kx, 0)) as i64;
                            acc += (xv - zx) * (wv - zw);
                            tally.macs += 1;
                        } else {
                            for ci in 0..in_shape.c {
                                let xv = x.get(n, iy, ix, ci) as i64;
                                let wv = wget(wshape.index(co, ky, kx, ci)) as i64;
                                acc += (xv - zx) * (wv - zw);
                                tally.macs += 1;
                            }
                        }
                    }
                }
                *code = self
                    .requant
                    .apply(co, acc, &mut tally.requants, &mut tally.threshold_cmps);
            }
        }
    }

    /// Output zero-point of the layer as an activation code.
    pub(crate) fn out_zero_point(&self) -> u8 {
        self.requant.zero_point().clamp(0, 255) as u8
    }
}

/// The `(n, oy, ox)` coordinates of an NHWC output's pixels from flat
/// pixel index `lo` on — the row order of every kernel's output and of
/// the im2col matrix — stepped without a division per pixel. Endless:
/// callers bound it by the rows they own.
pub(crate) fn pixels_from(out: Shape, lo: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let (h, w) = (out.h.max(1), out.w.max(1));
    let mut at = (lo / (h * w), lo / w % h, lo % w);
    std::iter::repeat_with(move || {
        let here = at;
        at.2 += 1;
        if at.2 == w {
            at.2 = 0;
            at.1 += 1;
            if at.1 == h {
                at.1 = 0;
                at.0 += 1;
            }
        }
        here
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightOffset;
    use mixq_quant::{BitWidth, FixedPointMultiplier};
    use mixq_tensor::Padding;

    fn identity_requant(channels: usize, bits: BitWidth) -> Requantizer {
        Requantizer::icn(
            vec![0; channels],
            vec![FixedPointMultiplier::from_real(1.0); channels],
            0,
            bits,
        )
    }

    #[test]
    fn pointwise_identity() {
        // 1x1 conv, weight code 1, Zw = 0 → output = input code.
        let w = QConvWeights::new(
            Shape::new(1, 1, 1, 1),
            false,
            &[1],
            BitWidth::W8,
            WeightOffset::PerLayer(0),
        );
        let conv = QConv2d::new(
            w,
            ConvGeometry::pointwise(),
            identity_requant(1, BitWidth::W8),
        );
        let x =
            QActivation::from_codes(Shape::feature_map(2, 2, 1), &[5, 6, 7, 8], BitWidth::W8, 0);
        let mut ops = OpCounts::default();
        let y = conv.execute(&x, &mut ops);
        assert_eq!(y.codes(), vec![5, 6, 7, 8]);
        assert_eq!(ops.macs, 4);
        assert_eq!(ops.offset_subs, 0, "per-layer Zw costs nothing in-loop");
    }

    #[test]
    fn zero_points_are_subtracted() {
        // X = 10 with Zx = 10 means real zero → output must be Zy exactly.
        let w = QConvWeights::new(
            Shape::new(1, 1, 1, 1),
            false,
            &[3],
            BitWidth::W4,
            WeightOffset::PerLayer(1),
        );
        let conv = QConv2d::new(
            w,
            ConvGeometry::pointwise(),
            Requantizer::icn(
                vec![0],
                vec![FixedPointMultiplier::from_real(1.0)],
                4,
                BitWidth::W8,
            ),
        );
        let x = QActivation::from_codes(Shape::feature_map(1, 1, 1), &[10], BitWidth::W8, 10);
        let mut ops = OpCounts::default();
        let y = conv.execute(&x, &mut ops);
        assert_eq!(y.codes(), vec![4]); // zy only
        assert_eq!(y.zero_point(), 4);
    }

    #[test]
    fn same_padding_contributes_nothing() {
        // 3x3 all-ones weights (Zw=0) over all-ones input (Zx=0): corner
        // outputs see 4 pixels, centre 9 — padded taps add zero.
        let w = QConvWeights::new(
            Shape::new(1, 3, 3, 1),
            false,
            &[1; 9],
            BitWidth::W2,
            WeightOffset::PerLayer(0),
        );
        let conv = QConv2d::new(
            w,
            ConvGeometry::new(3, 3, 1, Padding::Same),
            identity_requant(1, BitWidth::W8),
        );
        let x = QActivation::from_codes(Shape::feature_map(3, 3, 1), &[1; 9], BitWidth::W8, 0);
        let mut ops = OpCounts::default();
        let y = conv.execute(&x, &mut ops);
        assert_eq!(y.get(0, 1, 1, 0), 9);
        assert_eq!(y.get(0, 0, 0, 0), 4);
        assert_eq!(y.get(0, 0, 1, 0), 6);
    }

    #[test]
    fn depthwise_keeps_channels_separate() {
        let w = QConvWeights::new(
            Shape::new(2, 1, 1, 1),
            true,
            &[2, 3],
            BitWidth::W4,
            WeightOffset::PerChannel(vec![0, 0]),
        );
        let conv = QConv2d::new(
            w,
            ConvGeometry::pointwise(),
            identity_requant(2, BitWidth::W8),
        );
        let x = QActivation::from_codes(Shape::feature_map(1, 1, 2), &[4, 5], BitWidth::W8, 0);
        let mut ops = OpCounts::default();
        let y = conv.execute(&x, &mut ops);
        assert_eq!(y.codes(), vec![8, 15]);
        assert_eq!(ops.offset_subs, ops.macs, "PC offsets charged per MAC");
    }

    #[test]
    fn sub_byte_operands_charge_unpacks() {
        let w = QConvWeights::new(
            Shape::new(1, 1, 1, 1),
            false,
            &[1],
            BitWidth::W4, // sub-byte weights
            WeightOffset::PerLayer(0),
        );
        let conv = QConv2d::new(
            w,
            ConvGeometry::pointwise(),
            identity_requant(1, BitWidth::W8),
        );
        let x = QActivation::from_codes(
            Shape::feature_map(2, 2, 1),
            &[1, 2, 3, 0],
            BitWidth::W2, // sub-byte activations
            0,
        );
        let mut ops = OpCounts::default();
        let _ = conv.execute(&x, &mut ops);
        assert_eq!(ops.macs, 4);
        assert_eq!(ops.unpacks, 8, "one per operand per MAC");
    }

    #[test]
    fn stride_two_output_shape() {
        let w = QConvWeights::new(
            Shape::new(4, 3, 3, 2),
            false,
            &[0; 72],
            BitWidth::W8,
            WeightOffset::PerLayer(0),
        );
        let conv = QConv2d::new(
            w,
            ConvGeometry::new(3, 3, 2, Padding::Same),
            identity_requant(4, BitWidth::W4),
        );
        let x = QActivation::from_codes(Shape::feature_map(8, 8, 2), &[0; 128], BitWidth::W8, 0);
        let mut ops = OpCounts::default();
        let y = conv.execute(&x, &mut ops);
        assert_eq!(y.shape(), Shape::feature_map(4, 4, 4));
        assert_eq!(y.bits(), BitWidth::W4);
    }

    #[test]
    #[should_panic(expected = "requantizer channels")]
    fn requant_channel_mismatch_panics() {
        let w = QConvWeights::new(
            Shape::new(2, 1, 1, 1),
            false,
            &[0, 0],
            BitWidth::W8,
            WeightOffset::PerLayer(0),
        );
        let _ = QConv2d::new(
            w,
            ConvGeometry::pointwise(),
            identity_requant(3, BitWidth::W8),
        );
    }
}
