use std::error::Error;
use std::fmt;

use mixq_tensor::Shape;

/// Errors produced by the mixed-precision assignment and the integer-only
/// conversion.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MixQError {
    /// Algorithm 1 cannot satisfy the read-write budget even at the minimum
    /// activation precision.
    InfeasibleActivations {
        /// Index of the first violating schedule step (one step per conv
        /// layer, plus residual-add, pool and classifier steps).
        layer: usize,
        /// The violating live-set footprint in bytes at the point of
        /// failure (input+output pair on a chain; on a residual graph the
        /// pending skip tensor is included).
        pair_bytes: usize,
        /// The read-write budget in bytes.
        budget: usize,
    },
    /// Algorithm 2 cannot satisfy the read-only budget even at the minimum
    /// weight precision.
    InfeasibleWeights {
        /// Total read-only footprint at minimum precision.
        total_bytes: usize,
        /// The read-only budget in bytes.
        budget: usize,
    },
    /// The network's input quantizer has not been calibrated
    /// ([`mixq_nn::qat::QatNetwork::calibrate_input`] was never called).
    NotCalibrated,
    /// The requested conversion needs fake-quantized activations, but the
    /// network is still in float mode.
    NotFakeQuantized,
    /// A request tensor's per-item shape disagrees with the network's
    /// input declaration. Raised by the `try_*` inference APIs (and the
    /// serving layer built on them) instead of the panic the trusted
    /// internal paths keep — a serving boundary must not trust callers.
    InputShapeMismatch {
        /// The single-item input shape the network was converted with.
        expected: Shape,
        /// The per-item shape of the offending request (its batch
        /// dimension preserved, so oversized batches are visible too).
        got: Shape,
    },
    /// A request tensor's backing buffer length disagrees with its own
    /// declared shape — a malformed request that never describes a valid
    /// image. (Unreachable through the safe [`mixq_tensor::Tensor`]
    /// constructors; checked anyway so the serving boundary holds even if
    /// a caller assembles tensors through future unchecked paths.)
    InputLengthMismatch {
        /// `shape.volume()` of the request.
        expected: usize,
        /// Actual element count of the backing buffer.
        got: usize,
    },
    /// A batched request carried zero items.
    EmptyBatch,
    /// The static verifier (`mixq-verify`) could not prove the deployed
    /// graph safe — an overflow interval, schedule alias, requant gate or
    /// join inconsistency survives. Deployment is refused rather than
    /// shipping a graph whose kernels may be silently wrong on-device.
    VerificationFailed {
        /// Report label (model / backend).
        graph: String,
        /// Number of unproven facts.
        violations: usize,
        /// The first violation's diagnostic, verbatim.
        first: String,
    },
    /// The C-header exporter writes a chain: convolutions, each reading
    /// the previous tensor, then the global average pool and the
    /// classifier head. This node falls outside that shape (a residual
    /// add, a skip connection, or an op out of place), so the header
    /// would silently drop it; export is refused instead.
    UnsupportedExport {
        /// Schedule index of the first node the chain header cannot
        /// express.
        index: usize,
        /// That node's name.
        node: String,
    },
}

impl fmt::Display for MixQError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MixQError::InfeasibleActivations {
                layer,
                pair_bytes,
                budget,
            } => write!(
                f,
                "live activation set at step/layer {layer} needs {pair_bytes} B, exceeding the {budget} B read-write budget at minimum precision"
            ),
            MixQError::InfeasibleWeights {
                total_bytes,
                budget,
            } => write!(
                f,
                "weights need {total_bytes} B, exceeding the {budget} B read-only budget at minimum precision"
            ),
            MixQError::NotCalibrated => {
                write!(f, "input quantizer not calibrated; call calibrate_input first")
            }
            MixQError::NotFakeQuantized => {
                write!(f, "network is in float mode; enable fake quantization first")
            }
            MixQError::InputShapeMismatch { expected, got } => write!(
                f,
                "request item shape {got:?} does not match the network input {expected:?}"
            ),
            MixQError::InputLengthMismatch { expected, got } => write!(
                f,
                "request buffer holds {got} elements but its shape declares {expected}"
            ),
            MixQError::EmptyBatch => write!(f, "request batch holds zero items"),
            MixQError::VerificationFailed {
                graph,
                violations,
                first,
            } => write!(
                f,
                "static verification of `{graph}` failed with {violations} violation(s); first: {first}"
            ),
            MixQError::UnsupportedExport { index, node } => write!(
                f,
                "node {index} (`{node}`) is not expressible in the chain C header (residual adds and skip wiring are not exported)"
            ),
        }
    }
}

impl Error for MixQError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = MixQError::InfeasibleActivations {
            layer: 3,
            pair_bytes: 1000,
            budget: 512,
        };
        let s = e.to_string();
        assert!(s.contains("layer 3") && s.contains("1000") && s.contains("512"));
        assert!(MixQError::NotCalibrated.to_string().contains("calibrate"));
        assert!(MixQError::NotFakeQuantized
            .to_string()
            .contains("float mode"));
        let w = MixQError::InfeasibleWeights {
            total_bytes: 9,
            budget: 4,
        };
        assert!(w.to_string().contains("read-only"));
        let s = MixQError::InputShapeMismatch {
            expected: Shape::feature_map(8, 8, 1),
            got: Shape::new(2, 4, 4, 1),
        };
        assert!(s.to_string().contains("does not match"));
        let l = MixQError::InputLengthMismatch {
            expected: 64,
            got: 63,
        };
        assert!(l.to_string().contains("63") && l.to_string().contains("64"));
        assert!(MixQError::EmptyBatch.to_string().contains("zero items"));
        let x = MixQError::UnsupportedExport {
            index: 7,
            node: "add1".into(),
        };
        assert!(x.to_string().contains("node 7") && x.to_string().contains("add1"));
    }
}
