use std::sync::Mutex;

use mixq_tensor::{ConvGeometry, Shape};

use crate::simd::{self, requant::RequantPlan};
use crate::threadpool::{partition_bounds, ThreadPool, MAX_POOL_THREADS};
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
        let out_shape = self.run_direct(None, x, &mut codes, &mut Vec::new(), None, ops);
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
    /// sub-byte weights per read. With a [`ThreadPool`], the output
    /// channels split across workers (see [`QConv2d::run_channels`]).
    /// Every path is bit-identical to [`QConv2d::execute`], including the
    /// abstract [`OpCounts`] ledger (which keeps pricing the deployed
    /// packed reads, not the host caches).
    ///
    /// # Panics
    ///
    /// Panics if the input channel count disagrees with the weights, or if
    /// `wcodes` has the wrong length.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute_codes_pooled(
        &self,
        wcodes: Option<&[u8]>,
        x: &QActivation,
        out_codes: &mut Vec<u8>,
        plane_scratch: &mut Vec<u8>,
        stage: &mut Vec<u8>,
        pool: Option<&ThreadPool>,
        ops: &mut OpCounts,
    ) -> Shape {
        if !self.runs_dw_taps() {
            return self.run_direct(wcodes, x, out_codes, plane_scratch, pool, ops);
        }
        let wslice = self.weight_view(wcodes);
        let xb: &[u8] = if x.needs_unpack() {
            x.codes_into(stage);
            stage.as_slice()
        } else {
            x.as_bytes()
        };
        self.run_channels(
            x,
            out_codes,
            plane_scratch,
            pool,
            ops,
            |lo, hi, plane, out, rq, tc| {
                let wget = |i: usize| wslice.map_or_else(|| self.weights.code_at(i), |w| w[i]);
                self.depthwise_taps(wget, x, xb, lo, hi, plane, out, rq, tc)
            },
        )
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

    /// The direct loop ([`QConv2d::direct_channels`]) over every output
    /// channel, reading weights through [`QConv2d::weight_view`] or, when
    /// there is none, by packed extraction.
    fn run_direct(
        &self,
        wcodes: Option<&[u8]>,
        x: &QActivation,
        out_codes: &mut Vec<u8>,
        plane_scratch: &mut Vec<u8>,
        pool: Option<&ThreadPool>,
        ops: &mut OpCounts,
    ) -> Shape {
        match self.weight_view(wcodes) {
            Some(w) => self.run_channels(
                x,
                out_codes,
                plane_scratch,
                pool,
                ops,
                |lo, hi, plane, out, rq, tc| {
                    self.direct_channels(x, lo, hi, plane, out, rq, tc, |i| w[i])
                },
            ),
            None => self.run_channels(
                x,
                out_codes,
                plane_scratch,
                pool,
                ops,
                |lo, hi, plane, out, rq, tc| {
                    self.direct_channels(x, lo, hi, plane, out, rq, tc, |i| self.weights.code_at(i))
                },
            ),
        }
    }

    /// Runs a channel-range kernel `core(co_lo, co_hi, plane, out,
    /// requants, threshold_cmps) -> macs` over every output channel and
    /// charges the direct-kernel ledger. Serially, `core` writes
    /// NHWC-interleaved codes straight into `out_codes`. With a
    /// [`ThreadPool`], the output channels split into contiguous blocks,
    /// one per worker — the direct-kernel half of the intra-walk
    /// parallelism (the GEMM kernels split im2col rows instead).
    /// Channel-interleaved NHWC output makes a worker's writes strided,
    /// so each worker writes its channel block as contiguous planes into
    /// `plane_scratch` (drawn from the arena's auxiliary buffer) and a
    /// serial pass re-interleaves — a host-side staging copy, charged
    /// nowhere. Bit-identical for any worker count: per-output arithmetic
    /// is unchanged and the data-dependent ledger tallies sum over
    /// disjoint channel ranges.
    fn run_channels<F>(
        &self,
        x: &QActivation,
        out_codes: &mut Vec<u8>,
        plane_scratch: &mut Vec<u8>,
        pool: Option<&ThreadPool>,
        ops: &mut OpCounts,
        core: F,
    ) -> Shape
    where
        F: Fn(usize, usize, bool, &mut [u8], &mut u64, &mut u64) -> u64 + Sync,
    {
        let out_shape = self.output_shape(x.shape());
        let c = out_shape.c;
        let volume = out_shape.volume();
        let threads = pool.map_or(1, ThreadPool::threads);
        let mut chan_bounds = [0usize; MAX_POOL_THREADS + 1];
        let parts = if threads > 1 && c >= 2 {
            partition_bounds(c, threads, &mut chan_bounds)
        } else {
            1
        };
        out_codes.clear();
        out_codes.resize(volume, 0);
        let macs = if parts <= 1 {
            core(
                0,
                c,
                false,
                out_codes,
                &mut ops.requants,
                &mut ops.threshold_cmps,
            )
        } else {
            let npix = volume / c;
            plane_scratch.clear();
            plane_scratch.resize(volume, 0);
            let mut byte_bounds = [0usize; MAX_POOL_THREADS + 1];
            for (b, ch) in byte_bounds.iter_mut().zip(&chan_bounds).take(parts + 1) {
                *b = ch * npix;
            }
            let merged = Mutex::new((0u64, 0u64, 0u64));
            pool.expect("parts > 1 implies a pool").broadcast_slices(
                plane_scratch.as_mut_slice(),
                &byte_bounds[..=parts],
                |worker, chunk| {
                    let (lo, hi) = (chan_bounds[worker], chan_bounds[worker + 1]);
                    let (mut rq, mut tc) = (0u64, 0u64);
                    let macs = core(lo, hi, true, chunk, &mut rq, &mut tc);
                    let mut m = merged.lock().unwrap();
                    m.0 += macs;
                    m.1 += rq;
                    m.2 += tc;
                },
            );
            // Serial re-interleave of the channel planes into NHWC order.
            for co in 0..c {
                let plane = &plane_scratch[co * npix..(co + 1) * npix];
                for (pix, &v) in plane.iter().enumerate() {
                    out_codes[pix * c + co] = v;
                }
            }
            let (macs, rq, tc) = merged.into_inner().unwrap();
            ops.requants += rq;
            ops.threshold_cmps += tc;
            macs
        };
        self.charge_direct_ledger(x, out_shape, macs, ops);
        out_shape
    }

    /// The shared tail-ledger of every direct-kernel path: per-MAC loads
    /// and unpack charges are proportional to the MAC tally, so serial
    /// and channel-split executions, and the depthwise tap kernel, charge
    /// identically (its staged sub-byte input still charges one unpack
    /// per MAC, as the deployed kernel reads packed codes).
    fn charge_direct_ledger(
        &self,
        x: &QActivation,
        out_shape: Shape,
        macs: u64,
        ops: &mut OpCounts,
    ) {
        let w_unpack = self.weights.needs_unpack() as u64;
        let x_unpack = x.needs_unpack() as u64;
        ops.macs += macs;
        ops.act_loads += macs;
        ops.unpacks += (w_unpack + x_unpack) * macs;
        ops.act_stores += out_shape.volume() as u64;
        ops.bias_adds += out_shape.volume() as u64;
        if self.weights.offset().is_per_channel() {
            // One extra in-loop subtraction per MAC (§6's ≈ 20% overhead).
            ops.offset_subs += macs;
        }
    }

    /// The depthwise tap kernel over output channels `[co_lo, co_hi)`:
    /// `xb` holds the input codes one per byte (NHWC), `wget` reads a
    /// weight code by its `(c_o, k_h, k_w)` index. Writes
    /// NHWC-interleaved codes (`plane == false`, full channel range) or
    /// contiguous per-channel planes relative to `co_lo` (`plane ==
    /// true`, the worker layout). Returns the MAC tally.
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
    #[allow(clippy::too_many_arguments)]
    fn depthwise_taps(
        &self,
        wget: impl Fn(usize) -> u8,
        x: &QActivation,
        xb: &[u8],
        co_lo: usize,
        co_hi: usize,
        plane: bool,
        out: &mut [u8],
        requants: &mut u64,
        threshold_cmps: &mut u64,
    ) -> u64 {
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
        let npix = out_shape.pixels() * out_shape.n;
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
        let mut macs = 0u64;
        let mut wpairs = [0i16; simd::MAX_DW_TAPS * DW_BLOCK];
        let mut edge = [0u8; (simd::MAX_DW_TAPS + 1) * DW_BLOCK];
        let mut edge_offs = [0usize; simd::MAX_DW_TAPS];
        let mut acc = [0i32; DW_BLOCK];
        let mut codes = [0u8; DW_BLOCK];
        let mut blk_lo = co_lo;
        while blk_lo < co_hi {
            let bn = DW_BLOCK.min(co_hi - blk_lo);
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
            for n in 0..out_shape.n {
                for oy in 0..out_shape.h {
                    let row_inside = (oy_lo..oy_hi).contains(&oy);
                    for ox in 0..out_shape.w {
                        let valid = if row_inside && (ox_lo..ox_hi).contains(&ox) {
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
                                    let src =
                                        ((n * h + iy as usize) * w + ix as usize) * c + blk_lo;
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
                        // Fused vectorized epilogue over the channel
                        // block (bit-identical to per-element
                        // `Requantizer::apply`, same ledger totals),
                        // straight into the interleaved output row.
                        let pix = (n * out_shape.h + oy) * out_shape.w + ox;
                        let dst = if plane {
                            &mut codes[..bn]
                        } else {
                            &mut out[pix * c + blk_lo..pix * c + blk_lo + bn]
                        };
                        simd::requant::apply_i32_block(
                            &self.plan,
                            &self.requant,
                            level,
                            blk_lo,
                            &acc[..bn],
                            dst,
                            requants,
                            threshold_cmps,
                        );
                        if plane {
                            for (j, &code) in codes[..bn].iter().enumerate() {
                                out[(blk_lo + j - co_lo) * npix + pix] = code;
                            }
                        }
                        macs += (valid * bn) as u64;
                    }
                }
            }
            blk_lo += bn;
        }
        macs
    }

    /// The per-MAC direct-loop core over output channels `[co_lo, co_hi)`,
    /// generic over the weight reader (decoded cache slice vs packed
    /// extraction), with the same interleaved-vs-plane output convention
    /// as [`QConv2d::depthwise_taps`]. Returns the MAC tally. It serves
    /// dense layers and [`QConv2d::execute`], the reference.
    #[allow(clippy::too_many_arguments)]
    fn direct_channels(
        &self,
        x: &QActivation,
        co_lo: usize,
        co_hi: usize,
        plane: bool,
        out: &mut [u8],
        requants: &mut u64,
        threshold_cmps: &mut u64,
        wget: impl Fn(usize) -> u8,
    ) -> u64 {
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
        let npix = out_shape.pixels() * out_shape.n;

        let mut macs = 0u64;
        for n in 0..out_shape.n {
            for oy in 0..out_shape.h {
                for ox in 0..out_shape.w {
                    let pix = (n * out_shape.h + oy) * out_shape.w + ox;
                    for co in co_lo..co_hi {
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
                                    macs += 1;
                                } else {
                                    for ci in 0..in_shape.c {
                                        let xv = x.get(n, iy, ix, ci) as i64;
                                        let wv = wget(wshape.index(co, ky, kx, ci)) as i64;
                                        acc += (xv - zx) * (wv - zw);
                                        macs += 1;
                                    }
                                }
                            }
                        }
                        let code = self.requant.apply(co, acc, requants, threshold_cmps);
                        let idx = if plane {
                            (co - co_lo) * npix + pix
                        } else {
                            pix * out_shape.c + co
                        };
                        out[idx] = code;
                    }
                }
            }
        }
        macs
    }

    /// Output zero-point of the layer as an activation code.
    pub(crate) fn out_zero_point(&self) -> u8 {
        self.requant.zero_point().clamp(0, 255) as u8
    }
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
