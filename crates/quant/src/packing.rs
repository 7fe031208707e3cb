//! Sub-byte bit packing (§4.1: "weight-parameters are stored in memory as
//! UINT-Q").
//!
//! On the MCU, 4-bit tensors store two codes per byte and 2-bit tensors four
//! codes per byte, LSB-first within each byte. The integer kernels consume
//! [`PackedTensor`]s directly, paying the unpack cost the cycle model
//! accounts for.
//!
//! The pack/unpack loops are byte-shuffle bound, so they get dedicated
//! 128-bit SIMD kernels (the private `simd` module below): nibble/crumb
//! interleave via
//! shifts+masks, the host-side analogue of the PULP-NN `bitextract`
//! unpacking (arXiv:2007.07759). They are bit-exact by construction (pure
//! bit rearrangement, no arithmetic), validated against the scalar loops in
//! the tests, and dispatched on the process-wide [`crate::simd`] level: a
//! scalar level (`MIXQ_FORCE_SCALAR`, or `simd::set_forced`) disables them,
//! so the forced-scalar CI leg covers the portable path end to end.

use std::fmt;

use crate::BitWidth;

/// A bit-packed buffer of unsigned `Q`-bit codes.
///
/// # Examples
///
/// ```
/// use mixq_quant::{BitWidth, PackedTensor};
///
/// let packed = PackedTensor::pack(&[1, 2, 3, 0, 1], BitWidth::W2);
/// assert_eq!(packed.byte_len(), 2); // 5 × 2 bits → 2 bytes
/// assert_eq!(packed.get(2), 3);
/// assert_eq!(packed.unpack(), vec![1, 2, 3, 0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackedTensor {
    bytes: Vec<u8>,
    len: usize,
    bits: BitWidth,
}

impl PackedTensor {
    /// Packs unsigned codes into a bit-packed buffer.
    ///
    /// # Panics
    ///
    /// Panics if any code exceeds `2^Q − 1`.
    pub fn pack(codes: &[u8], bits: BitWidth) -> Self {
        let mut bytes = vec![0u8; bits.bytes_for(codes.len())];
        pack_codes(codes, bits, &mut bytes);
        PackedTensor {
            bytes,
            len: codes.len(),
            bits,
        }
    }

    /// Packs unsigned codes reusing a caller-provided byte buffer (cleared
    /// and resized in place), so steady-state inference can recycle packed
    /// storage instead of allocating per tensor.
    ///
    /// # Panics
    ///
    /// Panics if any code exceeds `2^Q − 1`.
    pub fn pack_into(codes: &[u8], bits: BitWidth, mut storage: Vec<u8>) -> Self {
        storage.clear();
        storage.resize(bits.bytes_for(codes.len()), 0);
        pack_codes(codes, bits, &mut storage);
        PackedTensor {
            bytes: storage,
            len: codes.len(),
            bits,
        }
    }

    /// Wraps a buffer of `W8` codes without copying: at 8 bits, one code
    /// per byte already is the packed layout.
    pub fn from_w8_codes(codes: Vec<u8>) -> Self {
        PackedTensor {
            len: codes.len(),
            bytes: codes,
            bits: BitWidth::W8,
        }
    }

    /// Consumes the tensor, returning the packed byte buffer (for recycling
    /// through a buffer pool).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Number of logical elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element precision.
    pub fn bits(&self) -> BitWidth {
        self.bits
    }

    /// Storage size in bytes — the quantity `mem(t, Q)` of Eq. 6–7.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Raw packed bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The `i`-th logical element.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> u8 {
        assert!(i < self.len, "index {i} out of range (len {})", self.len);
        let q = self.bits.bits() as usize;
        let per_byte = 8 / q;
        let byte = self.bytes[i / per_byte];
        let offset = (i % per_byte) * q;
        (byte >> offset) & self.bits.qmax() as u8
    }

    /// Unpacks the whole buffer back to one code per byte.
    pub fn unpack(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len];
        unpack_codes(&self.bytes, self.bits, &mut out);
        out
    }

    /// Unpacks into a caller-provided buffer, returning the element count.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `len()`.
    pub fn unpack_into(&self, out: &mut [u8]) -> usize {
        assert!(out.len() >= self.len, "output buffer too small");
        unpack_codes(&self.bytes, self.bits, &mut out[..self.len]);
        self.len
    }
}

/// Packs `codes` into the pre-zeroed `bytes` buffer (sized
/// `bits.bytes_for(codes.len())`), dispatching to the SIMD kernels for the
/// sub-byte widths when available. Panic semantics match the scalar loop:
/// the *first* out-of-range code trips the assert.
fn pack_codes(codes: &[u8], bits: BitWidth, bytes: &mut [u8]) {
    debug_assert_eq!(bytes.len(), bits.bytes_for(codes.len()));
    if bits == BitWidth::W8 {
        // One code per byte and qmax = 255: a straight copy, nothing to
        // validate.
        bytes.copy_from_slice(codes);
        return;
    }
    let done = if simd::enabled() {
        simd::pack(codes, bits, bytes)
    } else {
        0
    };
    pack_scalar_tail(&codes[done..], bits, bytes, done);
}

/// The portable LSB-first packing loop, starting at logical element
/// `start` (whose target bytes must be zero).
fn pack_scalar_tail(codes: &[u8], bits: BitWidth, bytes: &mut [u8], start: usize) {
    let qmax = bits.qmax() as u8;
    let q = bits.bits() as usize;
    let per_byte = 8 / q;
    for (j, &code) in codes.iter().enumerate() {
        assert!(
            code <= qmax,
            "code {code} exceeds {qmax} for {bits} packing"
        );
        let i = start + j;
        bytes[i / per_byte] |= code << ((i % per_byte) * q);
    }
}

/// Unpacks exactly `out.len()` codes from `bytes`.
fn unpack_codes(bytes: &[u8], bits: BitWidth, out: &mut [u8]) {
    if bits == BitWidth::W8 {
        out.copy_from_slice(&bytes[..out.len()]);
        return;
    }
    let done = if simd::enabled() {
        simd::unpack(bytes, bits, out)
    } else {
        0
    };
    let q = bits.bits() as usize;
    let per_byte = 8 / q;
    let mask = bits.qmax() as u8;
    for (i, dst) in out.iter_mut().enumerate().skip(done) {
        let byte = bytes[i / per_byte];
        let offset = (i % per_byte) * q;
        *dst = (byte >> offset) & mask;
    }
}

/// 128-bit nibble/crumb interleave kernels.
///
/// One SSE2-instruction kernel serves the x86_64 AVX2 level (AVX2 adds
/// nothing for 16-byte shuffle work — the cross-lane `vpunpck` semantics
/// of 256-bit registers would cost extra permutes for no bandwidth win),
/// and NEON mirrors it on aarch64. All kernels process whole 16-byte output (pack)
/// or input (unpack) blocks and leave the remainder to the scalar loops.
#[allow(unsafe_code)]
mod simd {
    use crate::simd::{active_level, SimdLevel};
    use crate::BitWidth;

    /// Whether the SIMD kernels should run: the active level is a vector
    /// one (AVX2 or NEON), which implies the CPU has the baseline vector
    /// ISA (SSE2 or NEON) these kernels use.
    pub(super) fn enabled() -> bool {
        active_level() != SimdLevel::Scalar
    }

    /// Packs as many whole blocks as possible; returns codes consumed.
    pub(super) fn pack(codes: &[u8], bits: BitWidth, bytes: &mut [u8]) -> usize {
        #[cfg(target_arch = "x86_64")]
        return match bits {
            // SAFETY: SSE2 positively detected in `enabled()`.
            BitWidth::W4 => unsafe { x86::pack_w4(codes, bytes) },
            // SAFETY: SSE2 positively detected in `enabled()`.
            BitWidth::W2 => unsafe { x86::pack_w2(codes, bytes) },
            BitWidth::W8 => 0,
        };
        #[cfg(target_arch = "aarch64")]
        return match bits {
            // SAFETY: NEON is baseline on aarch64.
            BitWidth::W4 => unsafe { neon::pack_w4(codes, bytes) },
            // SAFETY: NEON is baseline on aarch64.
            BitWidth::W2 => unsafe { neon::pack_w2(codes, bytes) },
            BitWidth::W8 => 0,
        };
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            let _ = (codes, bits, bytes);
            0
        }
    }

    /// Unpacks as many whole blocks as possible; returns codes produced.
    pub(super) fn unpack(bytes: &[u8], bits: BitWidth, out: &mut [u8]) -> usize {
        #[cfg(target_arch = "x86_64")]
        return match bits {
            // SAFETY: SSE2 positively detected in `enabled()`.
            BitWidth::W4 => unsafe { x86::unpack_w4(bytes, out) },
            // SAFETY: SSE2 positively detected in `enabled()`.
            BitWidth::W2 => unsafe { x86::unpack_w2(bytes, out) },
            BitWidth::W8 => 0,
        };
        #[cfg(target_arch = "aarch64")]
        return match bits {
            // SAFETY: NEON is baseline on aarch64.
            BitWidth::W4 => unsafe { neon::unpack_w4(bytes, out) },
            // SAFETY: NEON is baseline on aarch64.
            BitWidth::W2 => unsafe { neon::unpack_w2(bytes, out) },
            BitWidth::W8 => 0,
        };
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            let _ = (bytes, bits, out);
            0
        }
    }

    /// A vector block flagged an out-of-range code: rescan it in order so
    /// the *first* offender trips the same assert the scalar loop uses.
    pub(super) fn reject_chunk(codes: &[u8], bits: BitWidth) -> ! {
        let qmax = bits.qmax() as u8;
        for &code in codes {
            assert!(
                code <= qmax,
                "code {code} exceeds {qmax} for {bits} packing"
            );
        }
        unreachable!("vector validation flagged a chunk with no bad code")
    }

    #[cfg(target_arch = "x86_64")]
    mod x86 {
        use super::super::BitWidth;
        use std::arch::x86_64::*;

        /// 32 W4 codes → 16 bytes per block: `(v | v≫4) & 0x00FF` folds each
        /// code pair into its target byte, `packuswb` compacts.
        #[target_feature(enable = "sse2")]
        pub unsafe fn pack_w4(codes: &[u8], bytes: &mut [u8]) -> usize {
            let blocks = codes.len() / 32;
            let himask = _mm_set1_epi8(0xF0u8 as i8);
            let lomask = _mm_set1_epi16(0x00FF);
            let zero = _mm_setzero_si128();
            for b in 0..blocks {
                let p = codes.as_ptr().add(b * 32);
                let v0 = _mm_loadu_si128(p as *const __m128i);
                let v1 = _mm_loadu_si128(p.add(16) as *const __m128i);
                let bad = _mm_or_si128(_mm_and_si128(v0, himask), _mm_and_si128(v1, himask));
                if _mm_movemask_epi8(_mm_cmpeq_epi8(bad, zero)) != 0xFFFF {
                    super::reject_chunk(&codes[b * 32..b * 32 + 32], BitWidth::W4);
                }
                let t0 = _mm_and_si128(_mm_or_si128(v0, _mm_srli_epi16(v0, 4)), lomask);
                let t1 = _mm_and_si128(_mm_or_si128(v1, _mm_srli_epi16(v1, 4)), lomask);
                _mm_storeu_si128(
                    bytes.as_mut_ptr().add(b * 16) as *mut __m128i,
                    _mm_packus_epi16(t0, t1),
                );
            }
            blocks * 32
        }

        /// 64 W2 codes → 16 bytes per block: two fold stages (pairs into
        /// nibbles at u16, nibbles into bytes at u32), then two packs.
        #[target_feature(enable = "sse2")]
        pub unsafe fn pack_w2(codes: &[u8], bytes: &mut [u8]) -> usize {
            let blocks = codes.len() / 64;
            let himask = _mm_set1_epi8(0xFCu8 as i8);
            let m16 = _mm_set1_epi16(0x000F);
            let m32 = _mm_set1_epi32(0x0000_00FF);
            let zero = _mm_setzero_si128();
            for b in 0..blocks {
                let p = codes.as_ptr().add(b * 64);
                let mut v = [zero; 4];
                let mut bad = zero;
                for (j, vj) in v.iter_mut().enumerate() {
                    *vj = _mm_loadu_si128(p.add(j * 16) as *const __m128i);
                    bad = _mm_or_si128(bad, _mm_and_si128(*vj, himask));
                }
                if _mm_movemask_epi8(_mm_cmpeq_epi8(bad, zero)) != 0xFFFF {
                    super::reject_chunk(&codes[b * 64..b * 64 + 64], BitWidth::W2);
                }
                let mut r = [zero; 4];
                for (rj, vj) in r.iter_mut().zip(&v) {
                    let t = _mm_and_si128(_mm_or_si128(*vj, _mm_srli_epi16(*vj, 6)), m16);
                    *rj = _mm_and_si128(_mm_or_si128(t, _mm_srli_epi32(t, 12)), m32);
                }
                // Values are ≤ 255, so both saturating packs are lossless.
                let lo = _mm_packs_epi32(r[0], r[1]);
                let hi = _mm_packs_epi32(r[2], r[3]);
                _mm_storeu_si128(
                    bytes.as_mut_ptr().add(b * 16) as *mut __m128i,
                    _mm_packus_epi16(lo, hi),
                );
            }
            blocks * 64
        }

        /// 16 bytes → 32 W4 codes per block: split nibbles, interleave.
        #[target_feature(enable = "sse2")]
        pub unsafe fn unpack_w4(bytes: &[u8], out: &mut [u8]) -> usize {
            let blocks = out.len() / 32;
            let mask = _mm_set1_epi8(0x0F);
            for b in 0..blocks {
                let v = _mm_loadu_si128(bytes.as_ptr().add(b * 16) as *const __m128i);
                let lo = _mm_and_si128(v, mask);
                let hi = _mm_and_si128(_mm_srli_epi16(v, 4), mask);
                let o = out.as_mut_ptr().add(b * 32);
                _mm_storeu_si128(o as *mut __m128i, _mm_unpacklo_epi8(lo, hi));
                _mm_storeu_si128(o.add(16) as *mut __m128i, _mm_unpackhi_epi8(lo, hi));
            }
            blocks * 32
        }

        /// 16 bytes → 64 W2 codes per block: four crumb planes, two
        /// interleave rounds restore source order.
        #[target_feature(enable = "sse2")]
        pub unsafe fn unpack_w2(bytes: &[u8], out: &mut [u8]) -> usize {
            let blocks = out.len() / 64;
            let mask = _mm_set1_epi8(0x03);
            for b in 0..blocks {
                let v = _mm_loadu_si128(bytes.as_ptr().add(b * 16) as *const __m128i);
                let b0 = _mm_and_si128(v, mask);
                let b1 = _mm_and_si128(_mm_srli_epi16(v, 2), mask);
                let b2 = _mm_and_si128(_mm_srli_epi16(v, 4), mask);
                let b3 = _mm_and_si128(_mm_srli_epi16(v, 6), mask);
                let l01 = _mm_unpacklo_epi8(b0, b1);
                let h01 = _mm_unpackhi_epi8(b0, b1);
                let l23 = _mm_unpacklo_epi8(b2, b3);
                let h23 = _mm_unpackhi_epi8(b2, b3);
                let o = out.as_mut_ptr().add(b * 64);
                _mm_storeu_si128(o as *mut __m128i, _mm_unpacklo_epi16(l01, l23));
                _mm_storeu_si128(o.add(16) as *mut __m128i, _mm_unpackhi_epi16(l01, l23));
                _mm_storeu_si128(o.add(32) as *mut __m128i, _mm_unpacklo_epi16(h01, h23));
                _mm_storeu_si128(o.add(48) as *mut __m128i, _mm_unpackhi_epi16(h01, h23));
            }
            blocks * 64
        }
    }

    #[cfg(target_arch = "aarch64")]
    mod neon {
        use super::super::BitWidth;
        use std::arch::aarch64::*;

        #[target_feature(enable = "neon")]
        pub unsafe fn pack_w4(codes: &[u8], bytes: &mut [u8]) -> usize {
            let blocks = codes.len() / 32;
            let m = vdupq_n_u16(0x00FF);
            for b in 0..blocks {
                let p = codes.as_ptr().add(b * 32);
                let v0 = vld1q_u8(p);
                let v1 = vld1q_u8(p.add(16));
                if vmaxvq_u8(vmaxq_u8(v0, v1)) > 15 {
                    super::reject_chunk(&codes[b * 32..b * 32 + 32], BitWidth::W4);
                }
                let w0 = vreinterpretq_u16_u8(v0);
                let w1 = vreinterpretq_u16_u8(v1);
                let t0 = vandq_u16(vorrq_u16(w0, vshrq_n_u16(w0, 4)), m);
                let t1 = vandq_u16(vorrq_u16(w1, vshrq_n_u16(w1, 4)), m);
                vst1q_u8(
                    bytes.as_mut_ptr().add(b * 16),
                    vcombine_u8(vmovn_u16(t0), vmovn_u16(t1)),
                );
            }
            blocks * 32
        }

        #[target_feature(enable = "neon")]
        pub unsafe fn pack_w2(codes: &[u8], bytes: &mut [u8]) -> usize {
            let blocks = codes.len() / 64;
            let m16 = vdupq_n_u16(0x000F);
            let m32 = vdupq_n_u32(0x0000_00FF);
            for b in 0..blocks {
                let p = codes.as_ptr().add(b * 64);
                let v: [uint8x16_t; 4] = [
                    vld1q_u8(p),
                    vld1q_u8(p.add(16)),
                    vld1q_u8(p.add(32)),
                    vld1q_u8(p.add(48)),
                ];
                let peak = vmaxvq_u8(vmaxq_u8(vmaxq_u8(v[0], v[1]), vmaxq_u8(v[2], v[3])));
                if peak > 3 {
                    super::reject_chunk(&codes[b * 64..b * 64 + 64], BitWidth::W2);
                }
                let mut n = [vdup_n_u16(0); 4];
                for (nj, vj) in n.iter_mut().zip(&v) {
                    let w = vreinterpretq_u16_u8(*vj);
                    let t = vandq_u16(vorrq_u16(w, vshrq_n_u16(w, 6)), m16);
                    let t32 = vreinterpretq_u32_u16(t);
                    let r = vandq_u32(vorrq_u32(t32, vshrq_n_u32(t32, 12)), m32);
                    *nj = vmovn_u32(r);
                }
                let b01 = vmovn_u16(vcombine_u16(n[0], n[1]));
                let b23 = vmovn_u16(vcombine_u16(n[2], n[3]));
                vst1q_u8(bytes.as_mut_ptr().add(b * 16), vcombine_u8(b01, b23));
            }
            blocks * 64
        }

        #[target_feature(enable = "neon")]
        pub unsafe fn unpack_w4(bytes: &[u8], out: &mut [u8]) -> usize {
            let blocks = out.len() / 32;
            let mask = vdupq_n_u8(0x0F);
            for b in 0..blocks {
                let v = vld1q_u8(bytes.as_ptr().add(b * 16));
                let lo = vandq_u8(v, mask);
                let hi = vshrq_n_u8(v, 4);
                let o = out.as_mut_ptr().add(b * 32);
                vst1q_u8(o, vzip1q_u8(lo, hi));
                vst1q_u8(o.add(16), vzip2q_u8(lo, hi));
            }
            blocks * 32
        }

        #[target_feature(enable = "neon")]
        pub unsafe fn unpack_w2(bytes: &[u8], out: &mut [u8]) -> usize {
            let blocks = out.len() / 64;
            let mask = vdupq_n_u8(0x03);
            for b in 0..blocks {
                let v = vld1q_u8(bytes.as_ptr().add(b * 16));
                let b0 = vandq_u8(v, mask);
                let b1 = vandq_u8(vshrq_n_u8(v, 2), mask);
                let b2 = vandq_u8(vshrq_n_u8(v, 4), mask);
                let b3 = vshrq_n_u8(v, 6);
                let l01 = vreinterpretq_u16_u8(vzip1q_u8(b0, b1));
                let h01 = vreinterpretq_u16_u8(vzip2q_u8(b0, b1));
                let l23 = vreinterpretq_u16_u8(vzip1q_u8(b2, b3));
                let h23 = vreinterpretq_u16_u8(vzip2q_u8(b2, b3));
                let o = out.as_mut_ptr().add(b * 64);
                vst1q_u8(o, vreinterpretq_u8_u16(vzip1q_u16(l01, l23)));
                vst1q_u8(o.add(16), vreinterpretq_u8_u16(vzip2q_u16(l01, l23)));
                vst1q_u8(o.add(32), vreinterpretq_u8_u16(vzip1q_u16(h01, h23)));
                vst1q_u8(o.add(48), vreinterpretq_u8_u16(vzip2q_u16(h01, h23)));
            }
            blocks * 64
        }
    }
}

impl fmt::Display for PackedTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PackedTensor({} elems @ {}, {} bytes)",
            self.len,
            self.bits,
            self.bytes.len()
        )
    }
}

/// Bytes required to store `elements` codes at `bits` precision.
///
/// Convenience alias for [`BitWidth::bytes_for`], used throughout the memory
/// model.
pub fn packed_size(elements: usize, bits: BitWidth) -> usize {
    bits.bytes_for(elements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        for bits in BitWidth::ALL {
            let levels = bits.levels();
            let codes: Vec<u8> = (0..37u32).map(|i| (i % levels) as u8).collect();
            let packed = PackedTensor::pack(&codes, bits);
            assert_eq!(packed.unpack(), codes, "{bits}");
            assert_eq!(packed.len(), 37);
            assert_eq!(packed.byte_len(), bits.bytes_for(37));
        }
    }

    /// Pure-scalar reference (the pre-SIMD loop verbatim) for cross-checks.
    fn scalar_pack_ref(codes: &[u8], bits: BitWidth) -> Vec<u8> {
        let per_byte = 8 / bits.bits() as usize;
        let mut bytes = vec![0u8; codes.len().div_ceil(per_byte)];
        for (i, &code) in codes.iter().enumerate() {
            bytes[i / per_byte] |= code << ((i % per_byte) * bits.bits() as usize);
        }
        bytes
    }

    #[test]
    fn simd_blocks_match_scalar_reference_across_lengths() {
        // Lengths straddling every block boundary of the 128-bit kernels
        // (32 codes/block at W4, 64 at W2), plus scalar-tail remainders.
        for bits in BitWidth::ALL {
            for n in [
                0usize, 1, 15, 16, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129, 1000,
            ] {
                let levels = bits.levels();
                let codes: Vec<u8> = (0..n)
                    .map(|i| ((i * 2654435761) % levels as usize) as u8)
                    .collect();
                let packed = PackedTensor::pack(&codes, bits);
                assert_eq!(
                    packed.as_bytes(),
                    scalar_pack_ref(&codes, bits).as_slice(),
                    "{bits} n={n} pack drifted from the scalar layout"
                );
                assert_eq!(packed.unpack(), codes, "{bits} n={n} round trip");
                let mut buf = vec![0u8; n + 3];
                assert_eq!(packed.unpack_into(&mut buf), n);
                assert_eq!(&buf[..n], codes.as_slice(), "{bits} n={n} unpack_into");
            }
        }
    }

    #[test]
    fn pack_into_matches_pack_and_recycles_storage() {
        let codes: Vec<u8> = (0..33u8).map(|i| i % 16).collect();
        let fresh = PackedTensor::pack(&codes, BitWidth::W4);
        // A dirty, over-sized recycled buffer must not leak into the result.
        let recycled = vec![0xFFu8; 64];
        let cap = recycled.capacity();
        let pooled = PackedTensor::pack_into(&codes, BitWidth::W4, recycled);
        assert_eq!(pooled, fresh);
        assert_eq!(pooled.unpack(), codes);
        // The buffer ownership round-trips without reallocating.
        let bytes = pooled.into_bytes();
        assert_eq!(bytes.capacity(), cap);
        assert_eq!(bytes.len(), BitWidth::W4.bytes_for(33));
    }

    #[test]
    fn get_matches_unpack() {
        let codes: Vec<u8> = vec![3, 0, 1, 2, 3, 3, 0, 1, 2];
        let packed = PackedTensor::pack(&codes, BitWidth::W2);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(packed.get(i), c);
        }
    }

    #[test]
    fn four_bit_layout_is_lsb_first() {
        let packed = PackedTensor::pack(&[0x1, 0x2], BitWidth::W4);
        // element 0 in low nibble, element 1 in high nibble
        assert_eq!(packed.as_bytes(), &[0x21]);
    }

    #[test]
    fn two_bit_layout_is_lsb_first() {
        let packed = PackedTensor::pack(&[1, 2, 3, 0], BitWidth::W2);
        // 0b00_11_10_01
        assert_eq!(packed.as_bytes(), &[0b0011_1001]);
    }

    #[test]
    fn eight_bit_is_identity() {
        let codes = vec![0u8, 127, 255];
        let packed = PackedTensor::pack(&codes, BitWidth::W8);
        assert_eq!(packed.as_bytes(), codes.as_slice());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn overflowing_code_panics() {
        let _ = PackedTensor::pack(&[4], BitWidth::W2);
    }

    #[test]
    #[should_panic(expected = "code 16 exceeds 15")]
    fn overflowing_code_inside_simd_block_panics() {
        // Offender deep inside a full vector block: the rescan must raise
        // the same first-bad-code assert the scalar loop would.
        let mut codes = vec![1u8; 64];
        codes[40] = 16;
        let _ = PackedTensor::pack(&codes, BitWidth::W4);
    }

    #[test]
    #[should_panic(expected = "code 9 exceeds 3")]
    fn overflowing_w2_code_inside_simd_block_panics() {
        let mut codes = vec![2u8; 130];
        codes[70] = 9;
        let _ = PackedTensor::pack(&codes, BitWidth::W2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let packed = PackedTensor::pack(&[1], BitWidth::W4);
        let _ = packed.get(1);
    }

    #[test]
    fn unpack_into_buffer() {
        let packed = PackedTensor::pack(&[5, 10, 15], BitWidth::W4);
        let mut buf = [0u8; 8];
        assert_eq!(packed.unpack_into(&mut buf), 3);
        assert_eq!(&buf[..3], &[5, 10, 15]);
    }

    #[test]
    fn empty_tensor() {
        let packed = PackedTensor::pack(&[], BitWidth::W4);
        assert!(packed.is_empty());
        assert_eq!(packed.byte_len(), 0);
        assert_eq!(packed.unpack(), Vec::<u8>::new());
    }

    #[test]
    fn packed_size_helper() {
        assert_eq!(packed_size(1000, BitWidth::W4), 500);
        assert_eq!(packed_size(1001, BitWidth::W2), 251);
    }

    #[test]
    fn display() {
        let packed = PackedTensor::pack(&[1, 2, 3], BitWidth::W4);
        assert!(packed.to_string().contains("3 elems"));
    }
}
