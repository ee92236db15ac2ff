//! One module per paper experiment, each producing an
//! `ExperimentReport` (see [`crate::report`]).

mod ablations;
mod fig06;
mod fig07;
mod fig08;
mod fig09;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fusion;
mod pipeline_exp;
mod power_modes;
mod sec5f;
mod sec6;
mod sensitivity;
mod tab1;

pub use ablations::{
    ablation_hybrid_modes, ablation_memory_policy, ablation_popt_sweep, ablation_tuner_convergence,
};
pub use fig06::fig06_edge_cpu_speedups;
pub use fig07::fig07_power_price_edge;
pub use fig08::fig08_ablation;
pub use fig09::fig09_copy_proportion;
pub use fig10::fig10_alexnet_zerocopy_layers;
pub use fig11::fig11_alexnet_hybrid_layers;
pub use fig12::fig12_cloud;
pub use fig13::fig13_power_price_discrete;
pub use fusion::ablation_fusion;
pub use pipeline_exp::pipeline_throughput;
pub use power_modes::power_mode_sweep;
pub use sec5f::sec5f_interkernel_only;
pub use sec6::sec6_platform_generality;
pub use sensitivity::sensitivity_sweep;
pub use tab1::tab1_hybrid_layer_improvement;

use edgenn_core::prelude::*;
use edgenn_core::Result;
use edgenn_nn::graph::Graph;
use edgenn_sim::{platforms, Platform};

use crate::report::ExperimentReport;

/// One experiment: the name the `experiments` binary selects it by, and
/// the function that runs it.
pub type Experiment = (&'static str, fn(&Lab) -> Result<ExperimentReport>);

/// Every experiment, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig06_edge_cpu_speedups", fig06_edge_cpu_speedups),
    ("fig07_power_price_edge", fig07_power_price_edge),
    ("fig08_ablation", fig08_ablation),
    ("fig09_copy_proportion", fig09_copy_proportion),
    (
        "fig10_alexnet_zerocopy_layers",
        fig10_alexnet_zerocopy_layers,
    ),
    ("fig11_alexnet_hybrid_layers", fig11_alexnet_hybrid_layers),
    (
        "tab1_hybrid_layer_improvement",
        tab1_hybrid_layer_improvement,
    ),
    ("fig12_cloud", fig12_cloud),
    ("fig13_power_price_discrete", fig13_power_price_discrete),
    ("sec5f_interkernel_only", sec5f_interkernel_only),
    ("sec6_platform_generality", sec6_platform_generality),
    ("ablation_memory_policy", ablation_memory_policy),
    ("ablation_hybrid_modes", ablation_hybrid_modes),
    ("ablation_popt_sweep", ablation_popt_sweep),
    ("ablation_tuner_convergence", ablation_tuner_convergence),
    ("sensitivity_sweep", sensitivity_sweep),
    ("power_mode_sweep", power_mode_sweep),
    ("ablation_fusion", ablation_fusion),
    ("pipeline_throughput", pipeline_throughput),
];

/// Shared experiment context: the four evaluation platforms and the six
/// benchmark networks at paper scale.
pub struct Lab {
    /// The CPU-GPU integrated edge device (EdgeNN's home).
    pub jetson: Platform,
    /// The CPU-only edge device.
    pub rpi: Platform,
    /// The mobile-phone CPU.
    pub phone: Platform,
    /// The discrete-GPU cloud server.
    pub server: Platform,
}

impl Default for Lab {
    fn default() -> Self {
        Self::new()
    }
}

impl Lab {
    /// Builds the paper's evaluation setup.
    pub fn new() -> Self {
        Self {
            jetson: platforms::jetson_agx_xavier(),
            rpi: platforms::raspberry_pi_4(),
            phone: platforms::dimensity_8100(),
            server: platforms::rtx_2080ti_server(),
        }
    }

    /// A benchmark network at paper scale.
    pub fn model(&self, kind: ModelKind) -> Graph {
        build(kind, ModelScale::Paper)
    }

    /// EdgeNN on the integrated device.
    pub fn edgenn(&self, graph: &Graph) -> Result<InferenceReport> {
        EdgeNn::new(&self.jetson).infer(graph)
    }

    /// The GPU-only (original programs) baseline on the integrated device.
    pub fn gpu_baseline(&self, graph: &Graph) -> Result<InferenceReport> {
        GpuOnly::new(&self.jetson).infer(graph)
    }

    /// CPU-only inference on any platform.
    pub fn cpu_only(&self, platform: &Platform, graph: &Graph) -> Result<InferenceReport> {
        CpuOnly::new(platform).infer(graph)
    }

    /// Runs every experiment of [`EXPERIMENTS`], in paper order.
    ///
    /// # Errors
    /// Propagates the first experiment failure.
    pub fn run_all(&self) -> Result<Vec<ExperimentReport>> {
        EXPERIMENTS.iter().map(|(_, run)| run(self)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_builds_paper_setup() {
        let lab = Lab::new();
        assert!(lab.jetson.is_integrated());
        assert!(!lab.rpi.has_gpu());
        assert!(!lab.phone.has_gpu());
        assert!(lab.server.has_gpu() && !lab.server.is_integrated());
    }

    #[test]
    fn all_experiments_produce_reports() {
        let lab = Lab::new();
        let reports = lab.run_all().unwrap();
        assert_eq!(reports.len(), 19);
        for r in &reports {
            assert!(!r.comparisons.is_empty() || !r.rows.is_empty(), "{}", r.id);
            assert!(!r.render().is_empty());
        }
    }
}
