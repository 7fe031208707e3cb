use std::fmt;

use mixq_tensor::Tensor;

use crate::BitWidth;

/// Weight-quantizer granularity (paper §3): one range per tensor (PL) or
/// one per output channel (PC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Granularity {
    /// Per-layer: a single `[a, b]` range for the whole tensor.
    #[default]
    PerLayer,
    /// Per-channel: independent ranges along the output-channel axis.
    PerChannel,
}

impl Granularity {
    /// Short label used in reports ("PL"/"PC").
    pub const fn label(self) -> &'static str {
        match self {
            Granularity::PerLayer => "PL",
            Granularity::PerChannel => "PC",
        }
    }
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Rounding applied when mapping reals to integer codes (Eq. 1).
///
/// The paper replaces `round()` with `floor()` for activations because the
/// truncation "gets simply" realized by a shift on the MCU (§3, last
/// paragraph); weights keep round-to-nearest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoundingMode {
    /// Round to nearest (ties away from zero, like `f32::round`). Used for
    /// weight quantization.
    #[default]
    Nearest,
    /// Round towards negative infinity. Used for activation quantization on
    /// the integer-only path (a cheap shift on the MCU).
    Floor,
}

/// A uniform affine quantizer: `t = S · (T − Z)` with codes
/// `T ∈ [0, 2^Q − 1]` (UINT-Q, Eq. 2).
///
/// # Examples
///
/// ```
/// use mixq_quant::{BitWidth, QuantParams};
///
/// let q = QuantParams::from_min_max(-2.0, 6.0, BitWidth::W8);
/// assert_eq!(q.quantize(-2.0), 0);
/// assert_eq!(q.quantize(6.0), 255);
/// // Zero is exactly representable (required for zero padding).
/// assert_eq!(q.dequantize(q.zero_point() as u32), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
    zero_point: i32,
    bits: BitWidth,
    rounding: RoundingMode,
}

impl QuantParams {
    /// Builds an asymmetric quantizer covering `[min, max]` (Eq. 1), as used
    /// for weights with min/max statistics (per-channel path, §6).
    ///
    /// The range is first stretched to include zero so that zero-padding is
    /// exactly representable, then the scale `S = (b − a)/(2^Q − 1)` and the
    /// zero-point `Z = round(−a/S)` are derived. Degenerate ranges
    /// (`min == max`) produce a unit scale.
    pub fn from_min_max(min: f32, max: f32, bits: BitWidth) -> Self {
        let a = min.min(0.0);
        let b = max.max(0.0);
        let qmax = bits.qmax() as f32;
        let scale = if b - a > f32::EPSILON {
            (b - a) / qmax
        } else {
            1.0
        };
        let zero_point = (-a / scale).round() as i32;
        QuantParams {
            scale,
            zero_point: zero_point.clamp(0, bits.qmax() as i32),
            bits,
            rounding: RoundingMode::Nearest,
        }
    }

    /// Builds a symmetric quantizer covering `[−b, b]` (`Z` centred), as the
    /// PACT-style per-layer weight quantizer uses a learned symmetric clip.
    pub fn symmetric(bound: f32, bits: BitWidth) -> Self {
        let b = bound.abs().max(f32::EPSILON);
        QuantParams::from_min_max(-b, b, bits)
    }

    /// Builds the PACT activation quantizer: range `[0, clip]`, `Z = 0`,
    /// `S = clip/(2^Q − 1)` and **floor** rounding
    /// (`quant_act(x) = floor(clamp(x, 0, b)/S)`, §3).
    pub fn from_pact_clip(clip: f32, bits: BitWidth) -> Self {
        let b = clip.max(f32::EPSILON);
        QuantParams {
            scale: b / bits.qmax() as f32,
            zero_point: 0,
            bits,
            rounding: RoundingMode::Floor,
        }
    }

    /// Builds a quantizer from raw parts. Prefer the semantic constructors.
    pub fn from_parts(scale: f32, zero_point: i32, bits: BitWidth, rounding: RoundingMode) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        QuantParams {
            scale,
            zero_point,
            bits,
            rounding,
        }
    }

    /// The step size `S`.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The zero-point `Z` (the code representing real 0).
    pub fn zero_point(&self) -> i32 {
        self.zero_point
    }

    /// The precision `Q`.
    pub fn bits(&self) -> BitWidth {
        self.bits
    }

    /// The rounding mode used by [`QuantParams::quantize`].
    pub fn rounding(&self) -> RoundingMode {
        self.rounding
    }

    /// Real-valued lower bound of the representable range, `S·(0 − Z)`.
    pub fn range_min(&self) -> f32 {
        self.scale * (0.0 - self.zero_point as f32)
    }

    /// Real-valued upper bound of the representable range, `S·(qmax − Z)`.
    pub fn range_max(&self) -> f32 {
        self.scale * (self.bits.qmax() as i32 - self.zero_point) as f32
    }

    /// Maps a real value to its unsigned integer code (Eq. 1).
    pub fn quantize(&self, x: f32) -> u32 {
        let t = x / self.scale + self.zero_point as f32;
        let q = match self.rounding {
            RoundingMode::Nearest => t.round(),
            RoundingMode::Floor => t.floor(),
        };
        (q.max(0.0) as u32).min(self.bits.qmax())
    }

    /// [`QuantParams::quantize`] over a slice: `dst[i]` is the code of
    /// `src[i]`, bit for bit. The loop is branch-free so it vectorizes:
    /// `t` is clamped to `[0, qmax]` first (`f32::max` maps NaN to 0, as
    /// `quantize` does), then rounded by truncating `t + h` with `h = 0`
    /// for [`RoundingMode::Floor`] and `h` the largest `f32` below ½ for
    /// [`RoundingMode::Nearest`]. On a clamped `t ≥ 0` truncation is
    /// floor, and `t + h` reaches the next integer exactly when `t`'s
    /// fraction is ½ or more (the sum rounds to it at the tie); clamping
    /// first equals rounding first because the bounds are integers.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` differ in length.
    pub fn quantize_into(&self, src: &[f32], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "source/destination length mismatch");
        let (scale, zp) = (self.scale, self.zero_point as f32);
        let qmax = self.bits.qmax() as f32;
        let h = match self.rounding {
            RoundingMode::Nearest => 0.499_999_97_f32,
            RoundingMode::Floor => 0.0,
        };
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = ((v / scale + zp).max(0.0).min(qmax) + h) as u8;
        }
    }

    /// Maps an integer code back to its real value (Eq. 2).
    pub fn dequantize(&self, code: u32) -> f32 {
        self.scale * (code as i32 - self.zero_point) as f32
    }

    /// Quantize-then-dequantize, the "fake quantization" of the training
    /// graph `g(x)`.
    pub fn fake_quantize(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }

    /// Applies [`QuantParams::fake_quantize`] to a whole tensor.
    pub fn fake_quantize_tensor(&self, t: &Tensor<f32>) -> Tensor<f32> {
        t.map(|v| self.fake_quantize(v))
    }

    /// Applies [`QuantParams::quantize`] to a whole tensor, producing codes
    /// (through [`QuantParams::quantize_into`]).
    pub fn quantize_tensor(&self, t: &Tensor<f32>) -> Tensor<u8> {
        let mut out = Tensor::<u8>::zeros(t.shape());
        self.quantize_into(t.data(), out.data_mut());
        out
    }
}

impl fmt::Display for QuantParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Q{}(S={:.6}, Z={})",
            self.bits.bits(),
            self.scale,
            self.zero_point
        )
    }
}

/// Quantizer granularity for a weight tensor: one [`QuantParams`] for the
/// whole tensor (per-layer, PL) or one per output channel (per-channel, PC).
///
/// # Examples
///
/// ```
/// use mixq_quant::{BitWidth, ChannelParams};
/// use mixq_tensor::{Shape, Tensor};
///
/// // Two output channels with very different ranges — PC adapts per channel.
/// let w = Tensor::from_vec(Shape::new(2, 1, 1, 2), vec![0.1, -0.1, 10.0, -10.0])?;
/// let pc = ChannelParams::per_channel_min_max(&w, BitWidth::W4);
/// assert!(pc.channel(0).scale() < pc.channel(1).scale());
/// # Ok::<(), mixq_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelParams {
    params: Vec<QuantParams>,
    per_channel: bool,
}

impl ChannelParams {
    /// Per-layer granularity: a single quantizer replicated across channels.
    pub fn per_layer(params: QuantParams, channels: usize) -> Self {
        ChannelParams {
            params: vec![params; channels.max(1)],
            per_channel: false,
        }
    }

    /// Per-channel granularity from an explicit list.
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty.
    pub fn per_channel(params: Vec<QuantParams>) -> Self {
        assert!(!params.is_empty(), "need at least one channel");
        ChannelParams {
            params,
            per_channel: true,
        }
    }

    /// Per-layer min/max quantizer for a weight tensor laid out
    /// `(c_o, k_h, k_w, c_i)`.
    pub fn per_layer_min_max(weights: &Tensor<f32>, bits: BitWidth) -> Self {
        let (lo, hi) = weights.min_max();
        ChannelParams::per_layer(QuantParams::from_min_max(lo, hi, bits), weights.shape().n)
    }

    /// Min/max quantizers at the requested [`Granularity`].
    pub fn from_granularity(
        weights: &Tensor<f32>,
        bits: BitWidth,
        granularity: Granularity,
    ) -> Self {
        match granularity {
            Granularity::PerLayer => ChannelParams::per_layer_min_max(weights, bits),
            Granularity::PerChannel => ChannelParams::per_channel_min_max(weights, bits),
        }
    }

    /// Per-channel min/max quantizers for a weight tensor laid out
    /// `(c_o, k_h, k_w, c_i)` — "independently approximating a given tensor
    /// along the outer dimension" (§3).
    pub fn per_channel_min_max(weights: &Tensor<f32>, bits: BitWidth) -> Self {
        let co = weights.shape().n;
        let vol = weights.shape().item_volume();
        let data = weights.data();
        let mut params = Vec::with_capacity(co);
        for c in 0..co {
            let slice = &data[c * vol..(c + 1) * vol];
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for &v in slice {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            params.push(QuantParams::from_min_max(lo, hi, bits));
        }
        ChannelParams::per_channel(params)
    }

    /// Whether this is per-channel (PC) granularity.
    pub fn is_per_channel(&self) -> bool {
        self.per_channel
    }

    /// Number of channels covered.
    pub fn num_channels(&self) -> usize {
        self.params.len()
    }

    /// Quantizer for output channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn channel(&self, c: usize) -> &QuantParams {
        &self.params[c]
    }

    /// Iterates over the per-channel quantizers.
    pub fn iter(&self) -> impl Iterator<Item = &QuantParams> {
        self.params.iter()
    }

    /// The common precision of every channel quantizer.
    pub fn bits(&self) -> BitWidth {
        self.params[0].bits()
    }

    /// Fake-quantizes a weight tensor `(c_o, k_h, k_w, c_i)` channel-wise.
    pub fn fake_quantize_tensor(&self, w: &Tensor<f32>) -> Tensor<f32> {
        let co = w.shape().n;
        assert_eq!(co, self.params.len(), "channel count mismatch");
        let vol = w.shape().item_volume();
        let mut out = w.clone();
        for c in 0..co {
            let q = &self.params[c];
            for v in &mut out.data_mut()[c * vol..(c + 1) * vol] {
                *v = q.fake_quantize(*v);
            }
        }
        out
    }

    /// Quantizes a weight tensor `(c_o, k_h, k_w, c_i)` to integer codes.
    pub fn quantize_tensor(&self, w: &Tensor<f32>) -> Tensor<u8> {
        let co = w.shape().n;
        assert_eq!(co, self.params.len(), "channel count mismatch");
        let vol = w.shape().item_volume();
        let mut out = Tensor::<u8>::zeros(w.shape());
        for c in 0..co {
            let range = c * vol..(c + 1) * vol;
            self.params[c].quantize_into(&w.data()[range.clone()], &mut out.data_mut()[range]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixq_tensor::Shape;

    #[test]
    fn min_max_quantizer_endpoints() {
        let q = QuantParams::from_min_max(-1.0, 1.0, BitWidth::W8);
        assert_eq!(q.quantize(-1.0), 0);
        assert_eq!(q.quantize(1.0), 255);
        assert!(q.dequantize(q.zero_point() as u32).abs() < 1e-6);
    }

    #[test]
    fn range_always_includes_zero() {
        // All-positive weights still get a representable zero.
        let q = QuantParams::from_min_max(0.5, 1.5, BitWidth::W4);
        assert!(q.range_min() <= 0.0);
        assert_eq!(q.quantize(0.0), 0);
        // All-negative likewise.
        let q = QuantParams::from_min_max(-1.5, -0.5, BitWidth::W4);
        assert!(q.range_max() >= 0.0);
        assert_eq!(q.quantize(0.0), q.bits().qmax());
    }

    #[test]
    fn degenerate_range_does_not_blow_up() {
        let q = QuantParams::from_min_max(0.0, 0.0, BitWidth::W8);
        assert!(q.scale() > 0.0);
        assert_eq!(q.quantize(0.0), 0);
    }

    #[test]
    fn pact_clip_uses_floor() {
        let q = QuantParams::from_pact_clip(6.0, BitWidth::W4);
        assert_eq!(q.zero_point(), 0);
        assert_eq!(q.rounding(), RoundingMode::Floor);
        // S = 6/15 = 0.4; x=0.79 -> floor(1.975)=1, nearest would give 2.
        assert_eq!(q.quantize(0.79), 1);
        // Negative inputs clamp to 0 (ReLU semantics).
        assert_eq!(q.quantize(-3.0), 0);
        // The clip value saturates at qmax.
        assert_eq!(q.quantize(7.0), 15);
    }

    #[test]
    fn symmetric_covers_both_signs() {
        let q = QuantParams::symmetric(2.0, BitWidth::W8);
        assert!((q.range_min() + 2.0).abs() < 0.05);
        assert!((q.range_max() - 2.0).abs() < 0.05);
    }

    #[test]
    fn fake_quantize_error_bounded_by_step() {
        let q = QuantParams::from_min_max(-3.0, 5.0, BitWidth::W8);
        for i in 0..100 {
            let x = -3.0 + 8.0 * (i as f32) / 99.0;
            let err = (q.fake_quantize(x) - x).abs();
            assert!(err <= 0.5 * q.scale() + 1e-6, "x={x} err={err}");
        }
    }

    #[test]
    fn quantize_saturates_out_of_range() {
        let q = QuantParams::from_min_max(-1.0, 1.0, BitWidth::W2);
        assert_eq!(q.quantize(-100.0), 0);
        assert_eq!(q.quantize(100.0), 3);
    }

    /// `x` moved `n` representable values along the real line (across ±0).
    fn ulp_step(x: f32, n: i64) -> f32 {
        let b = x.to_bits();
        let ord = if b >> 31 == 1 {
            -((b & 0x7fff_ffff) as i64)
        } else {
            b as i64
        };
        match ord + n {
            o if o < 0 => f32::from_bits((-o) as u32 | 0x8000_0000),
            o => f32::from_bits(o as u32),
        }
    }

    /// `quantize_into` must equal `quantize` bit for bit.
    fn assert_slice_matches(q: &QuantParams, src: &[f32]) {
        let mut got = vec![0u8; src.len()];
        q.quantize_into(src, &mut got);
        for (&v, &g) in src.iter().zip(&got) {
            assert_eq!(
                g,
                q.quantize(v) as u8,
                "{q} at {v:e} ({:#010x})",
                v.to_bits()
            );
        }
    }

    /// The quantizers [`QuantParams::quantize_into`] is checked on: W8 and
    /// W4 at zero-points {0, 17, 127, 255} in both rounding modes, the
    /// min/max and unit-scale (exact-tie) forms, and PACT floor clips.
    fn slice_quantizers() -> Vec<QuantParams> {
        let mut qs = vec![
            QuantParams::from_min_max(-1.0, 1.0, BitWidth::W8),
            QuantParams::from_min_max(-0.37, 2.91, BitWidth::W8),
            QuantParams::from_parts(1.0, 0, BitWidth::W8, RoundingMode::Nearest),
            QuantParams::from_pact_clip(6.0, BitWidth::W8),
            QuantParams::from_pact_clip(6.0, BitWidth::W4),
            QuantParams::from_pact_clip(0.37, BitWidth::W2),
        ];
        for bits in [BitWidth::W8, BitWidth::W4] {
            for zp in [0, 17, 127, 255] {
                for rounding in [RoundingMode::Nearest, RoundingMode::Floor] {
                    qs.push(QuantParams::from_parts(0.0123, zp, bits, rounding));
                }
            }
        }
        qs
    }

    /// `quantize_into` against `quantize` at ±64 ulps around every rounding
    /// boundary (`t = j + ½` for Nearest, `t = j` for Floor, `j ∈ [−2,
    /// qmax + 2]`) and at the special values.
    ///
    /// This is the only test that guards the network's input quantizer:
    /// perfbench's reference walk quantizes through the same
    /// `IntNetwork::quantize_input_items_pooled`, so its `correct` flag
    /// cannot catch a wrong input code. The `#[ignore]`d
    /// `quantize_into_matches_quantize_on_every_f32` sweeps all 2³² inputs.
    #[test]
    fn quantize_into_matches_quantize_near_every_boundary() {
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0xffc0_0000), // negative quiet NaN
            f32::from_bits(0x7f80_0001), // signalling NaNs
            f32::from_bits(0xff80_0001),
            f32::from_bits(0x7fbf_ffff),
            f32::from_bits(1), // subnormals
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::from_bits(0x807f_ffff),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ];
        for q in slice_quantizers() {
            assert_slice_matches(&q, &specials);
            let half = match q.rounding() {
                RoundingMode::Nearest => 0.5,
                RoundingMode::Floor => 0.0,
            };
            let qmax = q.bits().qmax() as i32;
            for j in -2..=qmax + 2 {
                let tb = j as f32 + half;
                let xb = (tb - q.zero_point() as f32) * q.scale();
                let sweep: Vec<f32> = (-64..=64).map(|n| ulp_step(xb, n)).collect();
                assert_slice_matches(&q, &sweep);
                // The window must bracket the boundary, or it tests nothing.
                let t = |x: f32| x / q.scale() + q.zero_point() as f32;
                assert!(
                    t(sweep[0]) <= tb && tb <= t(sweep[128]),
                    "{q}: window misses t = {tb}"
                );
            }
        }
    }

    /// Every `f32` bit pattern through `quantize_into` against `quantize`,
    /// for one W8 Nearest and one PACT Floor quantizer — about a minute
    /// each in release. CI runs it in its release test step.
    #[test]
    #[ignore = "sweeps all 2^32 inputs per quantizer; run in release"]
    fn quantize_into_matches_quantize_on_every_f32() {
        let mut src = vec![0f32; 1 << 16];
        let mut got = vec![0u8; 1 << 16];
        for q in [
            QuantParams::from_min_max(-0.37, 2.91, BitWidth::W8),
            QuantParams::from_pact_clip(6.0, BitWidth::W8),
        ] {
            for hi in 0..1u32 << 16 {
                for (lo, v) in src.iter_mut().enumerate() {
                    *v = f32::from_bits(hi << 16 | lo as u32);
                }
                q.quantize_into(&src, &mut got);
                for (&v, &g) in src.iter().zip(&got) {
                    if g != q.quantize(v) as u8 {
                        panic!("{q} at {:#010x}: {g} != {}", v.to_bits(), q.quantize(v));
                    }
                }
            }
        }
    }

    #[test]
    fn tensor_helpers_round_trip() {
        let t = Tensor::from_vec(Shape::vector(4), vec![-1.0f32, -0.3, 0.4, 1.0]).unwrap();
        let q = QuantParams::from_min_max(-1.0, 1.0, BitWidth::W8);
        let codes = q.quantize_tensor(&t);
        let fake = q.fake_quantize_tensor(&t);
        for i in 0..4 {
            assert!((q.dequantize(codes.data()[i] as u32) - fake.data()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn per_channel_adapts_scales() {
        let w = Tensor::from_vec(Shape::new(2, 1, 1, 2), vec![0.1, -0.1, 10.0, -10.0]).unwrap();
        let pc = ChannelParams::per_channel_min_max(&w, BitWidth::W4);
        assert!(pc.is_per_channel());
        assert_eq!(pc.num_channels(), 2);
        assert!(pc.channel(0).scale() < pc.channel(1).scale());

        let pl = ChannelParams::per_layer_min_max(&w, BitWidth::W4);
        assert!(!pl.is_per_channel());
        // PL uses the global range for both channels.
        assert_eq!(pl.channel(0), pl.channel(1));
    }

    #[test]
    fn per_channel_fake_quant_beats_per_layer_on_imbalanced_tensor() {
        // Channel 0 has tiny weights, channel 1 huge: the per-layer scale
        // obliterates channel 0 — the paper's motivation for PC quantization.
        let w = Tensor::from_vec(
            Shape::new(2, 1, 1, 4),
            vec![0.01, -0.02, 0.03, -0.01, 5.0, -4.0, 3.0, -5.0],
        )
        .unwrap();
        let pc = ChannelParams::per_channel_min_max(&w, BitWidth::W4);
        let pl = ChannelParams::per_layer_min_max(&w, BitWidth::W4);
        let err_pc = pc.fake_quantize_tensor(&w).squared_distance(&w).unwrap();
        let err_pl = pl.fake_quantize_tensor(&w).squared_distance(&w).unwrap();
        assert!(
            err_pc < err_pl,
            "per-channel error {err_pc} should beat per-layer {err_pl}"
        );
    }

    #[test]
    fn display_formats() {
        let q = QuantParams::from_min_max(-1.0, 1.0, BitWidth::W4);
        let s = q.to_string();
        assert!(s.starts_with("Q4("));
    }

    #[test]
    #[should_panic(expected = "channel count mismatch")]
    fn tensor_channel_mismatch_panics() {
        let w = Tensor::<f32>::zeros(Shape::new(3, 1, 1, 1));
        let pc = ChannelParams::per_layer(QuantParams::symmetric(1.0, BitWidth::W8), 2);
        let _ = pc.fake_quantize_tensor(&w);
    }
}
