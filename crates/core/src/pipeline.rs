//! The end-to-end deployment flow of the paper's Figure 1:
//!
//! `f(x)` (float training) → `g(x)` (fake-quantized retraining, §3) →
//! memory-driven bit assignment (§5) → `g'(x)` (integer-only conversion,
//! §4) → verification that `loss(g'(x)) ≈ loss(g(x))`.

use std::fmt;

use mixq_data::Dataset;
use mixq_kernels::{BackendKind, OpCounts};
use mixq_models::micro::network_spec_of;
use mixq_nn::qat::{MicroCnnSpec, QatNetwork};
use mixq_nn::train::{evaluate, train, TrainConfig};

use crate::convert::{argmax, convert_with_backend, scheme_granularity, IntNetwork};
use crate::memory::{mib, MemoryBudget, QuantScheme};
use crate::mixed::{assign_bits, BitAssignment, MixedPrecisionConfig};
use crate::MixQError;

/// Configuration of the full deployment pipeline.
///
/// # Examples
///
/// ```no_run
/// use mixq_core::memory::{MemoryBudget, QuantScheme};
/// use mixq_core::pipeline::{deploy, PipelineConfig};
/// use mixq_data::{DatasetSpec, SyntheticKind};
/// use mixq_nn::qat::MicroCnnSpec;
///
/// let ds = DatasetSpec::new(SyntheticKind::Bars, 8, 8, 1, 2).generate(1);
/// let cfg = PipelineConfig::new(QuantScheme::PerChannelIcn)
///     .with_budget(MemoryBudget::new(16 * 1024, 4 * 1024));
/// let (int_net, report) = deploy(&MicroCnnSpec::new(8, 8, 1, 2, &[4]), &ds, &cfg)?;
/// println!("{report}");
/// # Ok::<(), mixq_core::MixQError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Deployment scheme.
    pub scheme: QuantScheme,
    /// Optional device budget; when set, Algorithms 1–2 pick the per-tensor
    /// precisions before the quantization-aware retraining.
    pub budget: Option<MemoryBudget>,
    /// Float pre-training recipe.
    pub float_train: TrainConfig,
    /// Quantization-aware retraining recipe.
    pub qat_train: TrainConfig,
    /// Seed for network initialization.
    pub seed: u64,
    /// Kernel backend the deployment graph is selected with — the default
    /// [`BackendKind::Reference`] keeps every node on the direct kernels
    /// (bit-identical to the pre-backend pipeline); a tiled backend lowers
    /// standard convolutions onto the blocked GEMM. Logits, accuracy and
    /// agreement are identical across backends.
    pub backend: BackendKind,
    /// Samples per graph walk of the deployment-side evaluation (default
    /// 1). A larger batch amortizes per-layer dispatch and prepacked-weight
    /// streaming across samples — bit-identical accuracy and op counts,
    /// only wall-clock (and the Eq. 7 live set, which scales with the
    /// batch) change.
    pub batch: usize,
    /// Run the static verifier (`mixq-verify`) over the deployed graph and
    /// fail [`deploy`] with [`MixQError::VerificationFailed`] on any
    /// unproven fact (default `true`). The pass is input-independent — it
    /// proves overflow freedom, requant-gate consistency, schedule
    /// non-aliasing and join agreement for *all* inputs, not the evaluated
    /// samples — and costs one walk over the node metadata.
    pub verify: bool,
}

impl PipelineConfig {
    /// Default pipeline: a few fast epochs of float training then QAT.
    pub fn new(scheme: QuantScheme) -> Self {
        let mut qat = TrainConfig::fast(6);
        if scheme == QuantScheme::PerLayerFolded {
            // The paper enables folding from the 2nd epoch (BN frozen after
            // the 1st).
            qat = qat.with_folding_from(1);
        }
        PipelineConfig {
            scheme,
            budget: None,
            float_train: TrainConfig::fast(12),
            qat_train: qat,
            seed: 42,
            backend: BackendKind::default(),
            batch: 1,
            verify: true,
        }
    }

    /// Enables or disables the post-conversion static verification pass.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Sets the device budget (enables the §5 bit assignment).
    pub fn with_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the kernel backend the deployment graph is selected with.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the evaluation batch size (samples per graph walk).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        self.batch = batch;
        self
    }

    /// Overrides the initialization seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides both training recipes.
    pub fn with_training(mut self, float_train: TrainConfig, qat_train: TrainConfig) -> Self {
        self.float_train = float_train;
        self.qat_train = qat_train;
        self
    }
}

/// Everything the pipeline measured, for `EXPERIMENTS.md`-style reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentReport {
    /// Accuracy of the float network `f(x)`.
    pub float_accuracy: f32,
    /// Accuracy of the fake-quantized network `g(x)` after QAT.
    pub fake_quant_accuracy: f32,
    /// Accuracy of the integer-only network `g'(x)`.
    pub int_accuracy: f32,
    /// Fraction of samples where `g(x)` and `g'(x)` predict the same class.
    pub prediction_agreement: f32,
    /// Actual flash footprint of `g'(x)` in bytes.
    pub flash_bytes: usize,
    /// The bit assignment, when a budget was given.
    pub assignment: Option<BitAssignment>,
    /// Whether the *converted* network fits the budget: actual flash bytes
    /// against `M_RO` and the graph's liveness-planned peak activation RAM
    /// against `M_RW`, through the same [`MemoryBudget::fits`] predicate
    /// `BitAssignment::satisfies` uses. Since the §5 assignment prices the
    /// DAG liveness schedule itself, an assignment-approved network also
    /// passes this check — asserted by `tests/dag_assignment.rs`.
    pub fits_budget: Option<bool>,
    /// Operation counts of one inference.
    pub ops_per_inference: OpCounts,
}

impl fmt::Display for DeploymentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "float {:.1}% -> fake-quant {:.1}% -> integer-only {:.1}% (agreement {:.1}%)",
            self.float_accuracy * 100.0,
            self.fake_quant_accuracy * 100.0,
            self.int_accuracy * 100.0,
            self.prediction_agreement * 100.0
        )?;
        write!(
            f,
            "flash {:.3} MiB; {}",
            mib(self.flash_bytes),
            self.ops_per_inference
        )?;
        if let Some(a) = &self.assignment {
            write!(f, "; bits {a}")?;
        }
        Ok(())
    }
}

/// Runs the full Figure-1 flow on a micro-CNN and a dataset, returning the
/// deployable integer network and the measured report.
///
/// # Errors
///
/// Propagates infeasible bit assignments and conversion preconditions.
pub fn deploy(
    spec: &MicroCnnSpec,
    dataset: &Dataset,
    cfg: &PipelineConfig,
) -> Result<(IntNetwork, DeploymentReport), MixQError> {
    let mut net = QatNetwork::build(spec, cfg.seed);
    // Phase 1: float pre-training (the "pretrained network f(x)").
    let _ = train(&mut net, dataset, &cfg.float_train);
    let float_accuracy = evaluate(&net, dataset);
    // Phase 2: device-aware fine-tuning (fake-quantized graph g(x)).
    net.calibrate_input(dataset.images());
    net.enable_fake_quant(scheme_granularity(cfg.scheme));
    if cfg.scheme == QuantScheme::PerLayerIcn {
        // §6: per-layer weight quantization uses the PACT learned clip;
        // per-channel keeps min/max statistics.
        net.enable_pact_weight_clips();
    }
    let mut assignment = None;
    if let Some(budget) = cfg.budget {
        // The spec carries the residual skips, so Algorithms 1–2 price the
        // same DAG liveness the executor will run.
        let net_spec = network_spec_of(&net, "pipeline");
        let mp_cfg = MixedPrecisionConfig::new(budget, cfg.scheme);
        let bits = assign_bits(&net_spec, &mp_cfg)?;
        for i in 0..net.num_blocks() {
            net.set_weight_bits(i, bits.weight_bits[i]);
            net.set_act_bits(i, bits.act_bits[i + 1]);
        }
        for (r, &b) in bits.res_bits.iter().enumerate() {
            net.set_residual_act_bits(r, b);
        }
        net.set_linear_weight_bits(bits.weight_bits[net.num_blocks()]);
        assignment = Some(bits);
    }
    let _ = train(&mut net, dataset, &cfg.qat_train);
    let fake_quant_accuracy = evaluate(&net, dataset);
    // Phase 3: integer-only conversion (deployment graph g'(x)), each node
    // bound to the backend-selected kernel.
    let int_net = convert_with_backend(&net, cfg.scheme, &cfg.backend)?;
    if cfg.verify {
        // Static verification of the deployment graph: refuse to ship a
        // schedule the verifier cannot prove overflow-free, alias-free and
        // requant-consistent for all inputs.
        let g = int_net.graph();
        let (shape, bits) = g
            .input_decl()
            .expect("converted graphs declare their input");
        let report = mixq_verify::verify_graph("pipeline", g, shape, bits);
        if !report.ok() {
            return Err(MixQError::VerificationFailed {
                graph: report.graph,
                violations: report.violations.len(),
                first: report.violations[0].to_string(),
            });
        }
    }
    let (int_accuracy, _) = int_net.evaluate_with(dataset, cfg.batch);
    // Phase 4: verification — loss(g'(x)) ≈ loss(g(x)) at prediction level.
    let prediction_agreement = prediction_agreement(&net, &int_net, dataset);
    let (_, ops) = int_net.infer(&dataset.sample(0).images);
    let report = DeploymentReport {
        float_accuracy,
        fake_quant_accuracy,
        int_accuracy,
        prediction_agreement,
        flash_bytes: int_net.flash_bytes(),
        fits_budget: cfg
            .budget
            .map(|b| b.fits(int_net.flash_bytes(), int_net.peak_ram_bytes())),
        assignment,
        ops_per_inference: ops,
    };
    Ok((int_net, report))
}

/// Fraction of samples where the fake-quantized network `g(x)` and the
/// integer-only deployment graph `g'(x)` predict the same class — the
/// paper's Figure-1 verification step, with the integer side running
/// through the [`QGraph`](mixq_kernels::QGraph) executor behind
/// [`IntNetwork::infer`]. An empty dataset counts as full agreement.
pub fn prediction_agreement(net: &QatNetwork, int_net: &IntNetwork, dataset: &Dataset) -> f32 {
    if dataset.is_empty() {
        return 1.0;
    }
    let mut agree = 0usize;
    for i in 0..dataset.len() {
        let s = dataset.sample(i);
        let fq_class = argmax_f32(net.forward(&s.images).data());
        if fq_class == argmax(&int_net.infer(&s.images).0) {
            agree += 1;
        }
    }
    agree as f32 / dataset.len() as f32
}

fn argmax_f32(values: &[f32]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixq_data::{DatasetSpec, SyntheticKind};

    fn dataset() -> Dataset {
        DatasetSpec::new(SyntheticKind::Bars, 8, 8, 1, 2)
            .with_samples(96)
            .with_noise(0.03)
            .with_amplitude_base(1.0)
            .generate(5)
    }

    #[test]
    fn full_pipeline_pc_icn() {
        let ds = dataset();
        let spec = MicroCnnSpec::new(8, 8, 1, 2, &[6]);
        let cfg = PipelineConfig::new(QuantScheme::PerChannelIcn);
        let (int_net, report) = deploy(&spec, &ds, &cfg).expect("pipeline runs");
        assert!(
            report.float_accuracy > 0.75,
            "float {}",
            report.float_accuracy
        );
        assert!(
            report.int_accuracy > 0.7,
            "integer-only {}",
            report.int_accuracy
        );
        assert!(
            report.prediction_agreement > 0.9,
            "agreement {}",
            report.prediction_agreement
        );
        assert_eq!(int_net.scheme(), QuantScheme::PerChannelIcn);
        assert!(report.flash_bytes > 0);
        let display = report.to_string();
        assert!(display.contains("integer-only"));
    }

    #[test]
    fn pipeline_with_budget_assigns_bits() {
        let ds = dataset();
        let spec = MicroCnnSpec::new(8, 8, 1, 2, &[6, 8]);
        // A tight RO budget forcing weight cuts on the micro-CNN.
        let net = QatNetwork::build(&spec, 42);
        let ns = network_spec_of(&net, "probe");
        let full8 = crate::memory::network_flash_footprint(
            &ns,
            QuantScheme::PerChannelIcn,
            &vec![mixq_quant::BitWidth::W8; ns.num_layers()],
        );
        let cfg = PipelineConfig::new(QuantScheme::PerChannelIcn)
            .with_budget(MemoryBudget::new(full8 * 3 / 4, 64 * 1024));
        let (_, report) = deploy(&spec, &ds, &cfg).expect("feasible");
        let a = report.assignment.as_ref().expect("assignment present");
        assert!(a.has_cuts(), "budget forces cuts");
        assert_eq!(report.fits_budget, Some(true));
    }

    #[test]
    fn tiled_backend_pipeline_matches_reference_accuracy() {
        use mixq_kernels::KernelChoice;
        let ds = dataset();
        let spec = MicroCnnSpec::new(8, 8, 1, 2, &[6]);
        let reference = PipelineConfig::new(QuantScheme::PerChannelIcn);
        let tiled = reference.clone().with_backend(BackendKind::tiled());
        let (net_ref, rep_ref) = deploy(&spec, &ds, &reference).expect("pipeline runs");
        let (net_tiled, rep_tiled) = deploy(&spec, &ds, &tiled).expect("pipeline runs");
        // Same training seed, bit-identical kernels: every accuracy-shaped
        // number agrees; only the selected dataflows (and therefore the op
        // ledgers) differ.
        assert_eq!(rep_ref.float_accuracy, rep_tiled.float_accuracy);
        assert_eq!(rep_ref.fake_quant_accuracy, rep_tiled.fake_quant_accuracy);
        assert_eq!(rep_ref.int_accuracy, rep_tiled.int_accuracy);
        assert_eq!(rep_ref.prediction_agreement, rep_tiled.prediction_agreement);
        assert_eq!(rep_ref.flash_bytes, rep_tiled.flash_bytes);
        assert!(net_ref
            .kernel_choices()
            .iter()
            .all(|&c| c == KernelChoice::DirectConv));
        assert!(net_tiled
            .kernel_choices()
            .contains(&KernelChoice::BlockedGemm));
        let scratch = net_tiled.graph().peak_scratch_bytes(
            mixq_tensor::Shape::feature_map(8, 8, 1),
            mixq_quant::BitWidth::W8,
        );
        assert!(scratch > 0, "GEMM-lowered nodes price im2col scratch");
    }

    #[test]
    fn infeasible_budget_propagates() {
        let ds = dataset();
        let spec = MicroCnnSpec::new(8, 8, 1, 2, &[6]);
        let cfg =
            PipelineConfig::new(QuantScheme::PerChannelIcn).with_budget(MemoryBudget::new(64, 64));
        assert!(deploy(&spec, &ds, &cfg).is_err());
    }
}
