//! # ts-costmodel
//!
//! Analytic performance models for phase-split LLM serving.
//!
//! The ThunderServe scheduler evaluates thousands of candidate deployment
//! plans per search; it cannot run each one. Like the paper (which adopts
//! HexGen's cost model and an alpha-beta network model, validated in its
//! Appendix J), we estimate performance analytically:
//!
//! * [`alphabeta`] — point-to-point and collective communication costs
//!   (`T = α + bytes/β`, Eq. 1 of the paper);
//! * [`roofline`] — compute/memory roofline execution times for the prefill
//!   and decode phases of a transformer stage;
//! * [`replica`] — end-to-end latency/throughput/memory model for one model
//!   replica described by a [`ts_common::GroupSpec`], including tensor
//!   parallel collectives, pipeline communication and KV-cache capacity;
//! * [`steps`] — shared prefix tables of decode step times, from which the
//!   simulator prices whole coalesced decode runs exactly;
//! * [`price`] — dollars-per-request accounting (Figure 1);
//! * [`batching`] — batching-effect curves (Figure 2).
//!
//! # Examples
//!
//! ```
//! use ts_cluster::GpuModel;
//! use ts_common::ModelSpec;
//! use ts_costmodel::{price, ModelParams};
//!
//! let params = ModelParams::default();
//! let m = ModelSpec::llama_7b();
//! // Fig. 1: A40 prefills more cheaply; 3090Ti decodes more cheaply.
//! let a40 = price::request_price(&m, GpuModel::A40.spec(), 512, 16, &params);
//! let ti = price::request_price(&m, GpuModel::Rtx3090Ti.spec(), 512, 16, &params);
//! assert!(a40.prefill < ti.prefill);
//! assert!(ti.decode < a40.decode);
//! ```

pub mod alphabeta;
pub mod batching;
pub mod calibration;
pub mod price;
pub mod replica;
pub mod roofline;
pub mod steps;

pub use alphabeta::{allreduce_time, transfer_time, CommCost};
pub use replica::{KvRouteLeg, KvRouteSegment, ReplicaCostModel};
pub use roofline::{decode_step_time, prefill_time, StageHardware};
pub use steps::{DecodeStepTables, StepTableId};

use serde::{Deserialize, Serialize};
use ts_common::SimDuration;

/// Tunable efficiency parameters of the analytic model.
///
/// Real kernels never reach peak FLOPS or peak bandwidth; these factors
/// de-rate the hardware plus add a fixed per-layer kernel-launch overhead
/// that makes tiny batches inefficient (which produces the saturation shape
/// of the paper's Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelParams {
    /// Fraction of peak FLOPS achievable by dense kernels (MFU).
    pub compute_eff: f64,
    /// Fraction of peak memory bandwidth achievable by streaming kernels.
    pub mem_eff: f64,
    /// Fixed kernel-launch/synchronization overhead per transformer layer.
    pub per_layer_overhead: SimDuration,
    /// Fraction of device memory usable for weights + KV (rest is runtime,
    /// activations, fragmentation).
    pub mem_util: f64,
    /// Half-saturation point (in batched tokens) of the MFU ramp: dense
    /// kernels reach `compute_eff · t/(t + saturation)` of peak at batch
    /// size `t`. Produces Figure 2's ~1k-token prefill plateau.
    pub compute_saturation_tokens: f64,
}

impl ModelParams {
    /// Effective fraction of peak FLOPS at a given batched-token count.
    pub fn effective_compute_eff(&self, batch_tokens: u64) -> f64 {
        let t = batch_tokens as f64;
        self.compute_eff * t / (t + self.compute_saturation_tokens)
    }
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            compute_eff: 0.50,
            mem_eff: 0.85,
            per_layer_overhead: SimDuration::from_micros(25),
            mem_util: 0.90,
            compute_saturation_tokens: 256.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = ModelParams::default();
        assert!(p.compute_eff > 0.0 && p.compute_eff <= 1.0);
        assert!(p.mem_eff > 0.0 && p.mem_eff <= 1.0);
        assert!(p.mem_util > 0.5 && p.mem_util <= 1.0);
    }
}
