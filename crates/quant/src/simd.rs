//! The process-wide SIMD level: the one owner of which vector instruction
//! level every host kernel dispatches to — the sub-byte pack/unpack here
//! and the GEMV, depthwise and requantization kernels of `mixq-kernels`
//! (which re-exports this module's items from `mixq_kernels::simd`).
//!
//! The level is detected once per process ([`detected_level`]), can be
//! pinned down with the `MIXQ_FORCE_SCALAR=1` environment variable (CI's
//! fallback-coverage leg), and can be narrowed programmatically with
//! [`set_forced`] (benches measure scalar and SIMD in one process).
//! Forcing a level the CPU does not support is rejected — every reachable
//! `unsafe` kernel call is guarded by the detection. All levels are
//! bit-identical, so the level changes host timing, never results.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A vector instruction level the host kernels can run at: one
/// hand-written backend per architecture, plus the portable loops.
///
/// Ordered from the always-available scalar fallback up; the enum is
/// defined on every architecture (so labels, CLI flags and JSON stamps
/// are portable) while the non-native variants simply fail
/// [`SimdLevel::available`] and fall back to scalar if dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar loops — always available. A pre-AVX2 x86_64 host
    /// runs these, auto-vectorized at the SSE2 baseline.
    Scalar,
    /// x86_64 AVX2: 256-bit `vpmaddwd` over zero-extended bytes.
    Avx2,
    /// aarch64 NEON: `vld2`/`vmull_u8` widening multiply-accumulate.
    Neon,
}

impl SimdLevel {
    /// The levels the running CPU can execute, scalar first: the list
    /// every bit-identity test sweeps.
    pub fn available_levels() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Neon]
            .into_iter()
            .filter(|l| l.available())
            .collect()
    }

    /// Stable lowercase label (bench JSON, `--help` text, log lines).
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }

    /// Whether the *running* CPU can execute this level.
    pub fn available(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            SimdLevel::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    fn to_code(self) -> u8 {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Avx2 => 2,
            SimdLevel::Neon => 3,
        }
    }

    fn from_code(code: u8) -> Option<SimdLevel> {
        match code {
            1 => Some(SimdLevel::Scalar),
            2 => Some(SimdLevel::Avx2),
            3 => Some(SimdLevel::Neon),
            _ => None,
        }
    }
}

/// Process-wide programmatic override (0 = none); see [`set_forced`].
static FORCED: AtomicU8 = AtomicU8::new(0);

static DETECTED: OnceLock<SimdLevel> = OnceLock::new();

/// The level runtime feature detection picked for this process: the
/// architecture's hand-written backend when the CPU has it (AVX2 on
/// x86_64, NEON on aarch64), otherwise [`SimdLevel::Scalar`] — which is
/// also forced when the `MIXQ_FORCE_SCALAR` environment variable is set
/// to anything but `0` (the escape hatch CI uses to keep the fallback
/// path exercised). Detected once and cached.
pub fn detected_level() -> SimdLevel {
    *DETECTED.get_or_init(|| {
        let forced_scalar =
            std::env::var_os("MIXQ_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0");
        if forced_scalar {
            return SimdLevel::Scalar;
        }
        if SimdLevel::Avx2.available() {
            SimdLevel::Avx2
        } else if SimdLevel::Neon.available() {
            SimdLevel::Neon
        } else {
            SimdLevel::Scalar
        }
    })
}

/// Pins the active level for the whole process (`None` restores
/// detection). Benches and tests use this to measure forced-scalar and
/// auto-detected paths in one run; all levels are bit-identical, so a
/// mid-inference switch changes timing, never results.
///
/// # Panics
///
/// Panics if the CPU cannot execute `level` — the guard that keeps every
/// `unsafe` backend call behind a positive feature detection.
pub fn set_forced(level: Option<SimdLevel>) {
    if let Some(l) = level {
        assert!(
            l.available(),
            "SIMD level {:?} not available on this CPU",
            l
        );
    }
    FORCED.store(level.map_or(0, SimdLevel::to_code), Ordering::Release);
}

/// The level kernels should dispatch to *now*: the [`set_forced`]
/// override when present, otherwise [`detected_level`].
pub fn active_level() -> SimdLevel {
    SimdLevel::from_code(FORCED.load(Ordering::Acquire)).unwrap_or_else(detected_level)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_level_round_trips() {
        set_forced(Some(SimdLevel::Scalar));
        assert_eq!(active_level(), SimdLevel::Scalar);
        set_forced(None);
        assert_eq!(active_level(), detected_level());
    }

    #[test]
    #[should_panic(expected = "not available")]
    fn forcing_unavailable_level_panics() {
        #[cfg(target_arch = "x86_64")]
        set_forced(Some(SimdLevel::Neon));
        #[cfg(not(target_arch = "x86_64"))]
        set_forced(Some(SimdLevel::Avx2));
    }
}
