//! The three workloads and the set-up that deploys each of them: data
//! generation, network build and calibration, Algorithm 1, conversion
//! with prepacking, static verification, registration and warm-up.

use mixq_core::convert::{convert_with_backend, IntNetwork};
use mixq_core::memory::{MemoryBudget, QuantScheme};
use mixq_core::mixed::{assign_bits, MixedPrecisionConfig};
use mixq_data::{DatasetSpec, SyntheticKind};
use mixq_kernels::{Backend, ReferenceBackend, TiledBackend};
use mixq_models::micro::{mobilenet_like, mobilenet_like_residual, network_spec_of};
use mixq_nn::qat::QatNetwork;
use mixq_quant::{BitWidth, Granularity};
use mixq_serve::{BatcherConfig, ModelRegistry, ServeConfig, ServeRuntime, SubmitOptions};
use mixq_tensor::Tensor;

use crate::adapter::Walker;
use crate::calib::Clock;
use crate::stats::median;

/// Weights come from this fixed seed, so the deployed model (and with it
/// flash, RAM and modeled cycles) is the same on every run; `--seed`
/// varies only the input images the model is calibrated on and fed.
const NET_SEED: u64 = 77;

/// Every run deploys its workload this many times and reports the median
/// set-up time; the last deployment is the one measured.
pub const SETUP_REPS: usize = 9;

/// The model name the serve workload registers.
pub const SERVE_MODEL: &str = "mobilenet32";

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// W4 residual MobileNet, 32 px, batch 8, one thread, closed loop.
    W4Walk,
    /// MobileNetV1 192_0.5 under Algorithm 1 with the 1 MB / 256 kB
    /// budget, batch 1, up to two intra-walk threads, closed loop.
    Mixed1Mb,
    /// One-worker `ServeRuntime` over a W8→W4 registry of the W4Walk
    /// network, driven open loop over a ladder of offered rates.
    ServeOpen,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::W4Walk, Workload::Mixed1Mb, Workload::ServeOpen];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::W4Walk => "w4_32px_b8",
            Workload::Mixed1Mb => "mixed_192_0.5_1mb",
            Workload::ServeOpen => "serve_32px_open",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line naming the workload's parameters.
    pub fn describe(self) -> String {
        match self {
            Workload::W4Walk => format!(
                "mobilenet_like_residual(32, 3, 8, 4), uniform W4, PerChannelIcn, tiled, \
                 batch {W4_BATCH}, 1 thread, closed loop over {W4_SAMPLES} Bars images"
            ),
            Workload::Mixed1Mb => format!(
                "mobilenet_like(192, 3, 2, 1000) under Algorithm 1 with \
                 MemoryBudget::one_megabyte_small_ram(), PerChannelIcn, tiled, batch 1, \
                 {} intra-walk threads, closed loop over {MIXED_SAMPLES} Gratings images",
                mixed_threads()
            ),
            Workload::ServeOpen => format!(
                "ServeRuntime, 1 worker, registry [w8, w4] of the w4_32px_b8 network, queue {}, \
                 shed at {}, degrade at {}, batch_max {}, linger {} us, open loop over {} images",
                SERVE_QUEUE, SERVE_SHED, SERVE_DEGRADE, SERVE_BATCH, SERVE_LINGER_US, W4_SAMPLES
            ),
        }
    }
}

const W4_SAMPLES: usize = 64;
const W4_BATCH: usize = 8;
const MIXED_SAMPLES: usize = 4;
const SERVE_QUEUE: usize = 32;
const SERVE_SHED: usize = 24;
const SERVE_DEGRADE: usize = 12;
/// The serve workload's largest batch.
pub const SERVE_BATCH: usize = 8;
const SERVE_LINGER_US: u64 = 500;

/// Intra-walk threads of the 192 px workload: two, but always one core
/// fewer than the host has. A walk split across every core stalls at its
/// join whenever any other task preempts one of its threads; on a 2-core
/// host that made the p99 spread 0.44 over ten runs, so there the walk
/// runs serially.
fn mixed_threads() -> usize {
    mixq_bench::harness::available_cores()
        .saturating_sub(1)
        .clamp(1, 2)
}

/// The serving configuration of `table_serve_load`'s measured sweep, with
/// one worker.
pub fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_queue_capacity(SERVE_QUEUE)
        .with_shed_watermark(SERVE_SHED)
        .with_degrade_watermark(SERVE_DEGRADE)
        .with_batcher(BatcherConfig {
            batch_max: SERVE_BATCH,
            deadline_us: SERVE_LINGER_US,
        })
        .with_workers(1)
}

/// Time of each set-up stage of one deployment, on the workload's
/// [`Clock`].
#[derive(Debug, Clone, Default)]
pub struct Stages {
    pub data_ms: f64,
    pub build_ms: f64,
    /// Algorithm 1 (the 192 px workload only).
    pub assign_us: Option<f64>,
    /// Tensors Algorithm 1 cut below 8 bits.
    pub cut_tensors: usize,
    pub convert_ms: f64,
    pub verify_ms: f64,
    /// Registry registration (the serve workload only).
    pub register_ms: Option<f64>,
    pub warmup_ms: f64,
    /// Whole deployment, first stage to end of warm-up.
    pub total_s: f64,
}

impl Stages {
    /// Scales every time by the host speed measured around the set-up.
    pub fn scaled(mut self, speed: f64) -> Stages {
        for t in [
            &mut self.data_ms,
            &mut self.build_ms,
            &mut self.convert_ms,
            &mut self.verify_ms,
            &mut self.warmup_ms,
            &mut self.total_s,
        ] {
            *t *= speed;
        }
        for t in [&mut self.assign_us, &mut self.register_ms]
            .into_iter()
            .flatten()
        {
            *t *= speed;
        }
        self
    }

    /// Per-field medians over several deployments.
    pub fn median_of(all: &[Stages]) -> Stages {
        let m = |f: fn(&Stages) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
        let mo = |f: fn(&Stages) -> Option<f64>| {
            let v: Vec<f64> = all.iter().filter_map(f).collect();
            (!v.is_empty()).then(|| median(&v))
        };
        Stages {
            data_ms: m(|s| s.data_ms),
            build_ms: m(|s| s.build_ms),
            assign_us: mo(|s| s.assign_us),
            cut_tensors: all[0].cut_tensors,
            convert_ms: m(|s| s.convert_ms),
            verify_ms: m(|s| s.verify_ms),
            register_ms: mo(|s| s.register_ms),
            warmup_ms: m(|s| s.warmup_ms),
            total_s: m(|s| s.total_s),
        }
    }
}

/// Milliseconds on `clock` since its reading `t`.
fn ms_since(clock: Clock, t: u64) -> f64 {
    clock.since(t) * 1e-6
}

/// A deployed closed-loop workload, warmed up and ready to time.
pub struct WalkDeployment {
    /// The tiled, prepacked network under test.
    pub net: IntNetwork,
    /// The quantized network the tiled one was converted from, converted
    /// again with the reference (direct) kernels: the logits oracle.
    pub reference: IntNetwork,
    pub images: Tensor<f32>,
    pub batch: usize,
    /// Threads each walk runs on.
    pub threads: usize,
    /// The warmed inference context.
    pub walker: Walker,
}

impl WalkDeployment {
    /// Number of distinct input batches the loop cycles through.
    pub fn batches(&self) -> usize {
        self.images.shape().n / self.batch
    }
}

/// A calibrated QAT network of the given topology, before bit setting.
fn calibrated(spec: &mixq_nn::qat::MicroCnnSpec, images: &Tensor<f32>) -> QatNetwork {
    let mut net = QatNetwork::build(spec, NET_SEED);
    net.calibrate_input(images);
    net.enable_fake_quant(Granularity::PerChannel);
    net
}

fn set_uniform_weight_bits(net: &mut QatNetwork, bits: BitWidth) {
    for i in 0..net.num_blocks() {
        net.set_weight_bits(i, bits);
    }
    net.set_linear_weight_bits(bits);
}

fn convert(net: &QatNetwork, backend: &dyn Backend) -> IntNetwork {
    convert_with_backend(net, QuantScheme::PerChannelIcn, backend)
        .expect("calibrated network converts")
}

/// Statically verifies a deployed graph, as `deploy` does before shipping.
///
/// # Panics
///
/// Panics if the verifier rejects the graph: the workload would measure a
/// model that must not ship.
fn verify(label: &str, net: &IntNetwork) {
    let g = net.graph();
    let (shape, bits) = g
        .input_decl()
        .expect("converted graphs declare their input");
    let report = mixq_verify::verify_graph(label, g, shape, bits);
    assert!(
        report.ok(),
        "{label}: verifier rejected the graph: {:?}",
        report.violations
    );
}

/// Deploys a closed-loop workload once, timing each stage.
pub fn deploy_walk(w: Workload, seed: u64) -> (WalkDeployment, Stages) {
    let mut st = Stages::default();
    let (res, kind, samples, batch, threads) = match w {
        Workload::W4Walk => (32, SyntheticKind::Bars, W4_SAMPLES, W4_BATCH, 1),
        Workload::Mixed1Mb => (
            192,
            SyntheticKind::Gratings,
            MIXED_SAMPLES,
            1,
            mixed_threads(),
        ),
        Workload::ServeOpen => unreachable!("the serve workload is deployed by deploy_serve"),
    };
    // The same clock as the workload's walks: the warm-up walk runs on
    // the workload's threads.
    let clock = Clock::for_threads(threads);
    let t_all = clock.now();
    let t = clock.now();
    let ds = DatasetSpec::new(kind, res, res, 3, 4)
        .with_samples(samples)
        .with_noise(0.05)
        .generate(seed);
    st.data_ms = ms_since(clock, t);

    let t = clock.now();
    let spec = match w {
        Workload::W4Walk => mobilenet_like_residual(32, 3, 8, 4),
        _ => mobilenet_like(192, 3, 2, 1000),
    };
    let mut qat = calibrated(&spec, ds.images());
    st.build_ms = ms_since(clock, t);

    if w == Workload::W4Walk {
        set_uniform_weight_bits(&mut qat, BitWidth::W4);
    } else {
        let t = clock.now();
        let cfg = MixedPrecisionConfig::new(
            MemoryBudget::one_megabyte_small_ram(),
            QuantScheme::PerChannelIcn,
        );
        let bits = assign_bits(&network_spec_of(&qat, w.name()), &cfg)
            .expect("the 1 MB / 256 kB budget is feasible");
        for i in 0..qat.num_blocks() {
            qat.set_weight_bits(i, bits.weight_bits[i]);
            qat.set_act_bits(i, bits.act_bits[i + 1]);
        }
        for (r, &b) in bits.res_bits.iter().enumerate() {
            qat.set_residual_act_bits(r, b);
        }
        qat.set_linear_weight_bits(bits.weight_bits[qat.num_blocks()]);
        st.assign_us = Some(clock.since(t) * 1e-3);
        st.cut_tensors = bits
            .act_bits
            .iter()
            .chain(&bits.weight_bits)
            .chain(&bits.res_bits)
            .filter(|&&b| b != BitWidth::W8)
            .count();
    }

    let t = clock.now();
    let net = convert(&qat, &TiledBackend::default());
    st.convert_ms = ms_since(clock, t);

    let t = clock.now();
    verify(w.name(), &net);
    st.verify_ms = ms_since(clock, t);

    // One walk grows every arena buffer to its steady size.
    let images = ds.images().clone();
    let t = clock.now();
    let mut walker = Walker::new(threads);
    walker.infer(&net, &images, 0, batch);
    st.warmup_ms = ms_since(clock, t);
    st.total_s = clock.since(t_all) * 1e-9;

    let reference = convert(&qat, &ReferenceBackend);
    let dep = WalkDeployment {
        net,
        reference,
        images,
        batch,
        threads,
        walker,
    };
    (dep, st)
}

/// A started serving runtime plus what the generator and the oracle need.
pub struct ServeDeployment {
    pub runtime: ServeRuntime,
    /// The registered variants, preferred first (`w8`, then `w4`).
    pub variants: Vec<(String, IntNetwork)>,
    /// Reference-kernel twins of the variants, in the same order.
    pub references: Vec<IntNetwork>,
    /// The stacked request images.
    pub images: Tensor<f32>,
    /// One single-item tensor per image, cloned into each request.
    pub requests: Vec<Tensor<f32>>,
    /// Requests the warm-up sent (they count in the runtime's stats).
    pub warmup_requests: u64,
}

/// Deploys the serve workload once, timing each stage.
pub fn deploy_serve(seed: u64) -> (ServeDeployment, Stages) {
    let mut st = Stages::default();
    // The runtime's worker runs the warm-up while this thread waits.
    let clock = Clock::Wall;
    let t_all = clock.now();
    let t = clock.now();
    let ds = DatasetSpec::new(SyntheticKind::Bars, 32, 32, 3, 4)
        .with_samples(W4_SAMPLES)
        .with_noise(0.05)
        .generate(seed);
    let requests: Vec<Tensor<f32>> = (0..ds.len()).map(|i| ds.sample(i).images).collect();
    st.data_ms = ms_since(clock, t);

    let t = clock.now();
    let mut qat = calibrated(&mobilenet_like_residual(32, 3, 8, 4), ds.images());
    st.build_ms = ms_since(clock, t);

    let t = clock.now();
    let mut variants = Vec::new();
    let mut qats = Vec::new();
    for (label, bits) in [("w8", BitWidth::W8), ("w4", BitWidth::W4)] {
        set_uniform_weight_bits(&mut qat, bits);
        variants.push((label.to_string(), convert(&qat, &TiledBackend::default())));
        qats.push(qat.clone());
    }
    st.convert_ms = ms_since(clock, t);

    let t = clock.now();
    for (label, net) in &variants {
        verify(&format!("{SERVE_MODEL}/{label}"), net);
    }
    st.verify_ms = ms_since(clock, t);

    let t = clock.now();
    let mut registry = ModelRegistry::new();
    registry
        .register(SERVE_MODEL, variants.clone())
        .expect("verified variants register");
    st.register_ms = Some(ms_since(clock, t));

    let t = clock.now();
    let runtime = ServeRuntime::start(registry, serve_config()).expect("runtime starts");
    // Waves of one full batch never meet the admission limits.
    for wave in requests.chunks(SERVE_BATCH) {
        let handles: Vec<_> = wave
            .iter()
            .map(|x| {
                runtime
                    .submit(SERVE_MODEL, x.clone(), SubmitOptions::default())
                    .expect("warm-up request admitted")
            })
            .collect();
        for h in handles {
            h.wait().expect("warm-up request served");
        }
    }
    st.warmup_ms = ms_since(clock, t);
    st.total_s = clock.since(t_all) * 1e-9;

    let references = qats.iter().map(|q| convert(q, &ReferenceBackend)).collect();
    let dep = ServeDeployment {
        runtime,
        variants,
        references,
        images: ds.images().clone(),
        warmup_requests: requests.len() as u64,
        requests,
    };
    (dep, st)
}
