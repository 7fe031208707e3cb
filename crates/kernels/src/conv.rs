use std::sync::Mutex;

use mixq_tensor::{ConvGeometry, Shape};

use crate::simd::{self, requant::RequantPlan};
use crate::threadpool::{partition_bounds, ThreadPool, MAX_POOL_THREADS};
use crate::{OpCounts, QActivation, QConvWeights, Requantizer};

/// Largest kernel area the depthwise fast path keeps its per-pixel tap
/// list on the stack for (5×5 and every smaller kernel; larger ones take
/// the generic loop).
const MAX_DW_TAPS: usize = 32;

/// An integer-only quantized convolution layer: packed weights, geometry and
/// a requantization stage (Eq. 5 evaluates the whole
/// `conv → batch-norm → quant-act` sub-graph in integer arithmetic).
///
/// The dataflow is output-stationary, as in the paper's extended CMSIS-NN
/// kernels: each output accumulator is produced to completion before moving
/// on, so the `i32` accumulator never spills.
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
    /// reference kernel, producing the quantized output activation and
    /// charging `ops`. Graph nodes execute through
    /// [`QOp::execute_kernel`](crate::QOp::execute_kernel) instead, which
    /// also dispatches the blocked GEMM; every kernel choice is
    /// bit-identical to this one in output codes.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count disagrees with the weights.
    pub fn execute(&self, x: &QActivation, ops: &mut OpCounts) -> QActivation {
        let mut codes = Vec::new();
        let out_shape = self.execute_codes_with(None, x, &mut codes, ops);
        QActivation::from_codes(
            out_shape,
            &codes,
            self.requant.out_bits(),
            self.out_zero_point(),
        )
    }

    /// The codes-only direct kernel core: runs the convolution writing
    /// unpacked output codes into `out_codes` (cleared and resized in
    /// place) and returns the output shape. `wcodes`, when given, holds
    /// the weight codes decoded to one per byte in `(c_o, k_h, k_w, c_i)`
    /// order, so the inner loop reads plain bytes instead of
    /// mask-and-shift extracting each sub-byte operand. 8-bit
    /// weights take the equivalent borrow of their packed bytes even
    /// without a cache. Bit-identical to the uncached path, including the
    /// abstract [`OpCounts`] ledger (which keeps pricing the deployed
    /// packed-flash reads, not the host cache).
    ///
    /// # Panics
    ///
    /// Panics if the input channel count disagrees with the weights, or if
    /// `wcodes` has the wrong length.
    pub(crate) fn execute_codes_with(
        &self,
        wcodes: Option<&[u8]>,
        x: &QActivation,
        out_codes: &mut Vec<u8>,
        ops: &mut OpCounts,
    ) -> Shape {
        if let Some(w) = wcodes {
            assert_eq!(
                w.len(),
                self.weights.shape().volume(),
                "decoded weight cache length"
            );
        }
        // A decoded weight view exists whenever a cache was handed in or
        // the weights are 8-bit (their packed bytes are the codes).
        let wslice: Option<&[u8]> =
            wcodes.or_else(|| (!self.weights.needs_unpack()).then(|| self.weights.as_bytes()));
        if let Some(w) = wslice {
            if self.dw_fast_eligible(x) {
                return self.depthwise_fast(w, x, out_codes, ops);
            }
            return self.direct_loop(x, out_codes, ops, |i| w[i]);
        }
        self.direct_loop(x, out_codes, ops, |i| self.weights.code_at(i))
    }

    /// Whether the stack-tap depthwise fast path applies.
    fn dw_fast_eligible(&self, x: &QActivation) -> bool {
        self.weights.is_depthwise()
            && !x.needs_unpack()
            && self.geometry.kernel_area() <= MAX_DW_TAPS
    }

    /// [`QConv2d::execute_codes_with`] with an optional [`ThreadPool`]:
    /// the output channels split into contiguous blocks, one per worker —
    /// the direct-kernel half of the intra-walk parallelism (the GEMM
    /// kernels split im2col rows instead). Channel-interleaved NHWC
    /// output makes a worker's writes strided, so each worker writes its
    /// channel block as contiguous planes into `plane_scratch` (drawn
    /// from the arena's auxiliary buffer) and a serial pass re-interleaves
    /// — a host-side staging copy, charged nowhere, exactly like the
    /// prepack caches. Bit-identical to the serial path — per-output
    /// arithmetic is unchanged and the data-dependent ledger tallies sum
    /// over disjoint channel ranges — for any worker count.
    ///
    /// # Panics
    ///
    /// See [`QConv2d::execute_codes_with`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute_codes_pooled(
        &self,
        wcodes: Option<&[u8]>,
        x: &QActivation,
        out_codes: &mut Vec<u8>,
        plane_scratch: &mut Vec<u8>,
        pool: Option<&ThreadPool>,
        ops: &mut OpCounts,
    ) -> Shape {
        let threads = pool.map_or(1, ThreadPool::threads);
        let out_shape = self.output_shape(x.shape());
        let c = out_shape.c;
        let mut chan_bounds = [0usize; MAX_POOL_THREADS + 1];
        let parts = if threads > 1 && c >= 2 {
            partition_bounds(c, threads, &mut chan_bounds)
        } else {
            1
        };
        if parts <= 1 {
            return self.execute_codes_with(wcodes, x, out_codes, ops);
        }
        if let Some(w) = wcodes {
            assert_eq!(
                w.len(),
                self.weights.shape().volume(),
                "decoded weight cache length"
            );
        }
        let wslice: Option<&[u8]> =
            wcodes.or_else(|| (!self.weights.needs_unpack()).then(|| self.weights.as_bytes()));
        let volume = out_shape.volume();
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
                let macs = match wslice {
                    Some(w) if self.dw_fast_eligible(x) => {
                        self.depthwise_taps(w, x, lo, hi, true, chunk, &mut rq, &mut tc)
                    }
                    Some(w) => {
                        self.direct_channels(x, lo, hi, true, chunk, &mut rq, &mut tc, |i| w[i])
                    }
                    None => self.direct_channels(x, lo, hi, true, chunk, &mut rq, &mut tc, |i| {
                        self.weights.code_at(i)
                    }),
                };
                let mut m = merged.lock().unwrap();
                m.0 += macs;
                m.1 += rq;
                m.2 += tc;
            },
        );
        // Serial re-interleave of the channel planes into NHWC order.
        out_codes.clear();
        out_codes.resize(volume, 0);
        for co in 0..c {
            let plane = &plane_scratch[co * npix..(co + 1) * npix];
            for (pix, &v) in plane.iter().enumerate() {
                out_codes[pix * c + co] = v;
            }
        }
        let (macs, rq, tc) = merged.into_inner().unwrap();
        ops.requants += rq;
        ops.threshold_cmps += tc;
        self.charge_direct_ledger(x, out_shape, macs, ops);
        out_shape
    }

    /// The shared tail-ledger of every direct-kernel path: per-MAC loads
    /// and unpack charges are proportional to the MAC tally, so serial
    /// and channel-split executions charge identically.
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

    /// The depthwise fast path over a decoded weight view and an 8-bit
    /// input: the valid-tap list (kernel offset + input byte offset) is
    /// computed **once per output pixel** and shared across all channels,
    /// each channel's taps are read from its contiguous decoded weight
    /// row, and the input bytes are indexed directly — no per-MAC bounds
    /// checks, shape math or bit extraction. Bit-identical to the generic
    /// loop (same taps accumulated in the same order, exact `i64`
    /// arithmetic) and charges the identical abstract ledger.
    fn depthwise_fast(
        &self,
        wflat: &[u8],
        x: &QActivation,
        out_codes: &mut Vec<u8>,
        ops: &mut OpCounts,
    ) -> Shape {
        let out_shape = self.output_shape(x.shape());
        out_codes.clear();
        out_codes.resize(out_shape.volume(), 0);
        let macs = self.depthwise_taps(
            wflat,
            x,
            0,
            out_shape.c,
            false,
            out_codes.as_mut_slice(),
            &mut ops.requants,
            &mut ops.threshold_cmps,
        );
        self.charge_direct_ledger(x, out_shape, macs, ops);
        out_shape
    }

    /// The depthwise fast-path core over output channels
    /// `[co_lo, co_hi)`, writing NHWC-interleaved codes (`plane == false`,
    /// full channel range) or contiguous per-channel planes relative to
    /// `co_lo` (`plane == true`, the worker layout). Returns the MAC
    /// tally; shared by the serial and channel-split paths so their
    /// arithmetic is structurally identical.
    #[allow(clippy::too_many_arguments)]
    fn depthwise_taps(
        &self,
        wflat: &[u8],
        x: &QActivation,
        co_lo: usize,
        co_hi: usize,
        plane: bool,
        out: &mut [u8],
        requants: &mut u64,
        threshold_cmps: &mut u64,
    ) -> u64 {
        let in_shape = x.shape();
        assert_eq!(
            in_shape.c,
            self.weights.out_channels(),
            "depthwise input channels"
        );
        let out_shape = self.output_shape(in_shape);
        let (pt, pl) = self.geometry.pad_top_left(in_shape.h, in_shape.w);
        let s = self.geometry.stride;
        let (kh, kw) = (self.geometry.kh, self.geometry.kw);
        let taps = kh * kw;
        let zx = x.zero_point() as i32;
        let xb = x.as_bytes();
        let c = in_shape.c;
        let npix = out_shape.pixels() * out_shape.n;

        // Channel-block dataflow: the channel dimension is the innermost
        // loop (the input's NHWC bytes are contiguous over it), swept in
        // blocks of ≤ DW_BLOCK with the block's weights transposed
        // tap-major into a stack panel once per block — so the per-tap
        // inner loop is a straight-line span multiply-accumulate the
        // compiler can vectorize. Per-product values fit i32
        // (`|x−zx|·|w−zw| ≤ 255²`, ≤ MAX_DW_TAPS of them), and integer
        // sums over the same taps in the same order make the block loop
        // bit-identical to the per-channel formulation.
        const DW_BLOCK: usize = 64;
        let level = simd::active_level();
        let mut macs = 0u64;
        let mut codes = [0u8; DW_BLOCK];
        let mut tap_off = [0usize; MAX_DW_TAPS];
        let mut tap_base = [0usize; MAX_DW_TAPS];
        let mut wtr = [0u8; MAX_DW_TAPS * DW_BLOCK];
        let mut zw_blk = [0i32; DW_BLOCK];
        let mut acc = [0i32; DW_BLOCK];
        let mut blk_lo = co_lo;
        while blk_lo < co_hi {
            let blk_n = DW_BLOCK.min(co_hi - blk_lo);
            for t in 0..taps {
                for j in 0..blk_n {
                    wtr[t * DW_BLOCK + j] = wflat[(blk_lo + j) * taps + t];
                }
            }
            for (j, z) in zw_blk.iter_mut().enumerate().take(blk_n) {
                *z = self.weights.offset().at(blk_lo + j);
            }
            for n in 0..out_shape.n {
                for oy in 0..out_shape.h {
                    for ox in 0..out_shape.w {
                        let mut nt = 0usize;
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
                                tap_off[nt] = ky * kw + kx;
                                tap_base[nt] =
                                    ((n * in_shape.h + iy as usize) * in_shape.w + ix as usize) * c;
                                nt += 1;
                            }
                        }
                        let pix = (n * out_shape.h + oy) * out_shape.w + ox;
                        let obase = pix * c;
                        acc[..blk_n].fill(0);
                        for t in 0..nt {
                            let xrow = &xb[tap_base[t] + blk_lo..tap_base[t] + blk_lo + blk_n];
                            let wrow = &wtr[tap_off[t] * DW_BLOCK..tap_off[t] * DW_BLOCK + blk_n];
                            for ((a, zw), (&xv, &wv)) in acc[..blk_n]
                                .iter_mut()
                                .zip(&zw_blk[..blk_n])
                                .zip(xrow.iter().zip(wrow))
                            {
                                *a += (xv as i32 - zx) * (wv as i32 - zw);
                            }
                        }
                        // Fused vectorized epilogue over the channel
                        // block (bit-identical to per-element
                        // `Requantizer::apply`, same ledger totals).
                        simd::requant::apply_i32_block(
                            &self.plan,
                            &self.requant,
                            level,
                            blk_lo,
                            &acc[..blk_n],
                            &mut codes[..blk_n],
                            requants,
                            threshold_cmps,
                        );
                        if plane {
                            for (j, &code) in codes[..blk_n].iter().enumerate() {
                                out[(blk_lo + j - co_lo) * npix + pix] = code;
                            }
                        } else {
                            out[obase + blk_lo..obase + blk_lo + blk_n]
                                .copy_from_slice(&codes[..blk_n]);
                        }
                        macs += (nt * blk_n) as u64;
                    }
                }
            }
            blk_lo += blk_n;
        }
        macs
    }

    /// The direct output-stationary loop, generic over the weight reader
    /// (decoded cache slice vs packed extraction).
    fn direct_loop(
        &self,
        x: &QActivation,
        out_codes: &mut Vec<u8>,
        ops: &mut OpCounts,
        wget: impl Fn(usize) -> u8,
    ) -> Shape {
        let out_shape = self.output_shape(x.shape());
        out_codes.clear();
        out_codes.resize(out_shape.volume(), 0);
        let macs = self.direct_channels(
            x,
            0,
            out_shape.c,
            false,
            out_codes.as_mut_slice(),
            &mut ops.requants,
            &mut ops.threshold_cmps,
            wget,
        );
        self.charge_direct_ledger(x, out_shape, macs, ops);
        out_shape
    }

    /// The generic direct-loop core over output channels `[co_lo, co_hi)`
    /// with the same interleaved-vs-plane output convention as
    /// [`QConv2d::depthwise_taps`]. Returns the MAC tally.
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
