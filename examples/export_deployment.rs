//! Produce the final deployment artifacts for a trained model: the C
//! header with all flash-resident arrays, the memory fit report, and the
//! latency/energy budget — everything a firmware engineer needs to drop
//! the network into an STM32H7 project.
//!
//! Run with: `cargo run --release --example export_deployment`

use mixq::core::export::emit_c_header;
use mixq::core::memory::QuantScheme;
use mixq::core::pipeline::{deploy, PipelineConfig};
use mixq::data::{DatasetSpec, SyntheticKind};
use mixq::mcu::{CortexM7CycleModel, Device, EnergyModel};
use mixq::nn::qat::MicroCnnSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = DatasetSpec::new(SyntheticKind::Bars, 8, 8, 1, 4)
        .with_samples(192)
        .generate(3);
    let spec = MicroCnnSpec::new(8, 8, 1, 4, &[8, 16]);
    let cfg = PipelineConfig::new(QuantScheme::PerChannelIcn);
    let (int_net, report) = deploy(&spec, &dataset, &cfg)?;
    println!("trained + converted: {report}\n");

    // C header.
    let header = emit_c_header(&int_net, "keyword_net")?;
    let path = std::env::temp_dir().join("keyword_net.h");
    std::fs::write(&path, &header)?;
    println!(
        "wrote {} ({} bytes); first lines:",
        path.display(),
        header.len()
    );
    for line in header.lines().take(8) {
        println!("  {line}");
    }

    // Latency + energy budget on the device.
    let device = Device::stm32h7();
    let (_, ops) = int_net.infer(&dataset.sample(0).images);
    let cycles = CortexM7CycleModel::default().cycles_from_counts(&ops);
    let energy = EnergyModel::stm32h7();
    println!();
    println!("deployment budget on {device}:");
    println!(
        "  latency ~{:.2} ms ({:.0} fps max)",
        device.latency_ms(cycles),
        device.fps(cycles)
    );
    println!(
        "  energy  ~{:.3} mJ per inference",
        energy.inference_energy_mj(&device, cycles)
    );
    if let Some(days) = energy.battery_life_days(&device, cycles, 1.0, 4000.0) {
        println!("  battery: {days:.0} days at 1 inference/s on a 4 Wh cell");
    }
    Ok(())
}
