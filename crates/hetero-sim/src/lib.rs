//! # hetero-sim
//!
//! A simulated CPU-GPU heterogeneous platform used as the hardware substrate for the
//! PPoPP'23 *"Improving Energy Saving of One-Sided Matrix Decompositions on CPU-GPU
//! Heterogeneous Systems"* reproduction.
//!
//! The paper's evaluation platform is an Intel i7-9700K plus an NVIDIA RTX 2080 Ti with
//! per-device DVFS, guardband (voltage offset / clock offset) tuning, power metering
//! through RAPL/NVML, and silent-data-corruption (SDC) behaviour induced by aggressive
//! overclocking under an optimized guardband. None of that hardware is available in a
//! portable reproduction, so this crate models it:
//!
//! * [`arrival::PoissonArrivals`] — Poisson job arrivals (exponential inter-arrival
//!   gaps) feeding the multi-tenant service layer in `bsr-core`.
//! * [`device::Device`] — a processor with a frequency range, overclocking range,
//!   DVFS transition latency, throughput model and power model.
//! * [`guardband::Guardband`] — default vs. optimized guardband configurations and the
//!   power-reduction factor α(f) they induce (paper Figure 5).
//! * [`power::PowerModel`] — static + dynamic power with the `P_dynamic ∝ f^2.4`
//!   relationship used by the paper's analysis.
//! * [`sdc::SdcModel`] — Poisson SDC arrival rates λ(f, pattern) for 0D/1D/2D error
//!   patterns, rising beyond the fault-free frequency (paper Figure 5b).
//! * [`thermal::ThermalModel`] — maximum sustained core temperature vs. frequency
//!   (paper Figure 5d/5e).
//! * [`transfer::PcieModel`] — host↔device transfer times.
//! * [`timeline::Timeline`] — per-device clocks of simulated task execution and the
//!   slack between them.
//! * [`platform::Platform`] — the full two-device platform, with a default
//!   calibration that mirrors the paper's Table 3 test system.
//!
//! The models are deliberately simple, smooth functions calibrated to reproduce the
//! *shapes* reported in the paper (who wins, where crossovers happen), not the absolute
//! numbers of the authors' silicon.

#![deny(missing_docs)]

pub mod arrival;
pub mod device;
pub mod freq;
pub mod guardband;
pub mod platform;
pub mod power;
pub mod profiling;
pub mod sdc;
pub mod thermal;
pub mod throughput;
pub mod timeline;
pub mod transfer;

pub use arrival::PoissonArrivals;
pub use device::{Device, DeviceKind};
pub use freq::{FrequencyRange, MHz};
pub use guardband::{Guardband, GuardbandConfig};
pub use platform::{Platform, PlatformConfig};
pub use power::PowerModel;
pub use sdc::{ErrorPattern, SdcModel};
pub use thermal::ThermalModel;
pub use throughput::ThroughputModel;
pub use timeline::{TaskRecord, Timeline};
pub use transfer::PcieModel;
