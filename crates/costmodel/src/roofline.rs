//! Roofline execution-time primitives for one pipeline stage.
//!
//! A stage executes `layers` transformer layers sharded across `tp` GPUs of
//! identical hardware. Execution time is the max of the compute bound
//! (`FLOPs / effective FLOPS`) and the memory bound (`bytes / effective
//! bandwidth`), plus a per-layer kernel overhead and tensor-parallel
//! all-reduce time. The prefill phase processes whole prompts (many tokens,
//! compute-bound); a decode step processes one token per sequence
//! (memory-bound: it re-reads the weights and the KV cache every step).

use crate::alphabeta::allreduce_time;
use crate::ModelParams;
use ts_cluster::GpuSpec;
use ts_common::{ModelSpec, SimDuration};

/// Hardware of one pipeline stage: `tp` identical GPUs plus the bandwidth of
/// the slowest link among them (the all-reduce bottleneck).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageHardware {
    /// Per-GPU spec (TP groups are single-model by the scheduler heuristic;
    /// for safety callers should pass the weakest member of a mixed group).
    pub gpu: GpuSpec,
    /// Tensor-parallel degree.
    pub tp: usize,
    /// Bottleneck bandwidth among the stage's GPUs in bytes/s
    /// (`f64::INFINITY` for `tp == 1`).
    pub intra_bw: f64,
    /// Startup latency of the intra-stage links.
    pub intra_alpha: SimDuration,
}

impl StageHardware {
    /// Stage over a single GPU (no TP communication).
    pub fn single(gpu: GpuSpec) -> Self {
        StageHardware {
            gpu,
            tp: 1,
            intra_bw: f64::INFINITY,
            intra_alpha: SimDuration::ZERO,
        }
    }
}

/// Per-layer parameter bytes of the model at serving precision.
fn layer_weight_bytes(model: &ModelSpec) -> u64 {
    model.layer_weight_bytes(1)
}

/// Per-layer matmul FLOPs for one token (2 FLOPs per weight element).
fn layer_flops_per_token(model: &ModelSpec) -> f64 {
    let per_layer_params = layer_weight_bytes(model) as f64 * 8.0 / model.dtype.bits() as f64;
    2.0 * per_layer_params
}

/// Time for a stage of `layers` layers to prefill a batch of `batch_tokens`
/// total prompt tokens whose mean attention context is `avg_context`.
///
/// Includes compute, weight/activation memory traffic, per-layer overhead and
/// TP all-reduces (two per layer over `batch_tokens·hidden` activations).
pub fn prefill_time(
    model: &ModelSpec,
    layers: usize,
    hw: &StageHardware,
    batch_tokens: u64,
    avg_context: u64,
    params: &ModelParams,
) -> SimDuration {
    if batch_tokens == 0 || layers == 0 {
        return SimDuration::ZERO;
    }
    let tp = hw.tp as f64;
    let l = layers as f64;

    // Compute bound: dense matmuls + quadratic attention.
    let matmul_flops = layer_flops_per_token(model) * batch_tokens as f64 * l;
    let kv_dim = (model.num_kv_heads * model.head_dim()) as f64;
    let attn_flops = 4.0 * batch_tokens as f64 * avg_context as f64 * kv_dim * l;
    let compute_s = (matmul_flops + attn_flops)
        / tp
        / (hw.gpu.peak_fp16_flops * params.effective_compute_eff(batch_tokens));

    // Memory bound: read weights once, stream activations per layer.
    let weight_bytes = layer_weight_bytes(model) as f64 * l / tp;
    let act_bytes = 2.0
        * batch_tokens as f64
        * model.hidden_size as f64
        * model.dtype.bytes_for(1).max(1) as f64
        * 2.0
        * l
        / tp;
    let mem_s = (weight_bytes + act_bytes) / (hw.gpu.mem_bandwidth * params.mem_eff);

    let exec = SimDuration::from_secs_f64(compute_s.max(mem_s));
    let overhead = params.per_layer_overhead * layers as u64;

    // Two all-reduces per layer over batch activations.
    let msg = model
        .dtype
        .bytes_for((batch_tokens as usize * model.hidden_size) as u64);
    let comm = allreduce_time(msg, hw.tp, hw.intra_alpha, hw.intra_bw) * (2 * layers) as u64;

    exec + overhead + comm
}

/// Time for a stage of `layers` layers to run **one decode step** for a
/// batch of `batch` sequences whose mean context length is `avg_context`.
///
/// Dominated by re-reading the stage's weight shard plus the batch's KV
/// cache from device memory.
pub fn decode_step_time(
    model: &ModelSpec,
    layers: usize,
    hw: &StageHardware,
    batch: u64,
    avg_context: u64,
    params: &ModelParams,
) -> SimDuration {
    if batch == 0 || layers == 0 {
        return SimDuration::ZERO;
    }
    let tp = hw.tp as f64;
    let l = layers as f64;

    let matmul_flops = layer_flops_per_token(model) * batch as f64 * l;
    let kv_dim = (model.num_kv_heads * model.head_dim()) as f64;
    let attn_flops = 4.0 * batch as f64 * avg_context as f64 * kv_dim * l;
    // Decode kernels (GEMV / flash-decoding) are bandwidth-bound and reach
    // near-peak memory throughput at any batch size, so no MFU ramp here —
    // the ramp models small-GEMM compute inefficiency, a prefill phenomenon.
    let compute_s =
        (matmul_flops + attn_flops) / tp / (hw.gpu.peak_fp16_flops * params.compute_eff);

    let weight_bytes = layer_weight_bytes(model) as f64 * l / tp;
    let kv_bytes =
        batch as f64 * avg_context as f64 * model.kv_bytes_per_token_layers(layers) as f64 / tp;
    let mem_s = (weight_bytes + kv_bytes) / (hw.gpu.mem_bandwidth * params.mem_eff);

    let exec = SimDuration::from_secs_f64(compute_s.max(mem_s));
    let overhead = params.per_layer_overhead * layers as u64;

    let msg = model
        .dtype
        .bytes_for((batch as usize * model.hidden_size) as u64);
    let comm = allreduce_time(msg, hw.tp, hw.intra_alpha, hw.intra_bw) * (2 * layers) as u64;

    exec + overhead + comm
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::GpuModel;

    fn params() -> ModelParams {
        ModelParams::default()
    }

    fn hw(model: GpuModel) -> StageHardware {
        StageHardware::single(model.spec())
    }

    #[test]
    fn prefill_scales_roughly_linearly_once_saturated() {
        let m = ModelSpec::llama_7b();
        let p = params();
        let h = hw(GpuModel::A5000);
        let t1 = prefill_time(&m, m.num_layers, &h, 2048, 1024, &p);
        let t2 = prefill_time(&m, m.num_layers, &h, 4096, 1024, &p);
        let ratio = t2.as_secs_f64() / t1.as_secs_f64();
        assert!(ratio > 1.8 && ratio < 2.3, "ratio {ratio}");
    }

    #[test]
    fn prefill_sublinear_below_saturation() {
        // Fig. 2: below ~1k tokens the GPU is not saturated, so doubling the
        // batch costs less than 2x.
        let m = ModelSpec::llama_7b();
        let p = params();
        let h = hw(GpuModel::A40);
        let t64 = prefill_time(&m, m.num_layers, &h, 64, 64, &p);
        let t128 = prefill_time(&m, m.num_layers, &h, 128, 128, &p);
        assert!(t128.as_secs_f64() / t64.as_secs_f64() < 1.7);
    }

    #[test]
    fn decode_throughput_improves_with_batching() {
        // Fig. 2's decode panel: tokens/s grows with batch size.
        let m = ModelSpec::llama_7b();
        let p = params();
        let h = hw(GpuModel::Rtx3090Ti);
        let thpt =
            |b: u64| b as f64 / decode_step_time(&m, m.num_layers, &h, b, 1024, &p).as_secs_f64();
        assert!(thpt(8) > 4.0 * thpt(1));
        assert!(thpt(64) > 2.0 * thpt(8));
    }

    #[test]
    fn decode_is_memory_bound_prefill_is_compute_bound() {
        // On an A40 (huge FLOPS, modest bandwidth) the decode step time must
        // be dominated by the memory term: compare against a hypothetical GPU
        // with 10x compute — decode time barely moves, prefill time drops.
        let m = ModelSpec::llama_7b();
        let p = params();
        let a40 = hw(GpuModel::A40);
        let mut fast = a40;
        fast.gpu.peak_fp16_flops *= 10.0;
        let d_base = decode_step_time(&m, m.num_layers, &a40, 32, 1024, &p);
        let d_fast = decode_step_time(&m, m.num_layers, &fast, 32, 1024, &p);
        assert!(d_fast.as_secs_f64() / d_base.as_secs_f64() > 0.95);
        let pf_base = prefill_time(&m, m.num_layers, &a40, 4096, 2048, &p);
        let pf_fast = prefill_time(&m, m.num_layers, &fast, 4096, 2048, &p);
        assert!(pf_fast.as_secs_f64() / pf_base.as_secs_f64() < 0.5);
    }

    #[test]
    fn a40_prefills_faster_3090ti_decodes_faster() {
        // The motivating heterogeneity claim (Fig. 1).
        let m = ModelSpec::llama_7b();
        let p = params();
        let a40 = hw(GpuModel::A40);
        let ti = hw(GpuModel::Rtx3090Ti);
        assert!(
            prefill_time(&m, m.num_layers, &a40, 2048, 1024, &p)
                < prefill_time(&m, m.num_layers, &ti, 2048, 1024, &p)
        );
        assert!(
            decode_step_time(&m, m.num_layers, &ti, 32, 1024, &p)
                < decode_step_time(&m, m.num_layers, &a40, 32, 1024, &p)
        );
    }

    #[test]
    fn tp_reduces_time_but_adds_comm() {
        let m = ModelSpec::llama_13b();
        let p = params();
        let single = hw(GpuModel::A6000);
        let tp2 = StageHardware {
            gpu: GpuModel::A6000.spec(),
            tp: 2,
            intra_bw: 16e9,
            intra_alpha: SimDuration::from_micros(10),
        };
        let t1 = prefill_time(&m, m.num_layers, &single, 4096, 2048, &p);
        let t2 = prefill_time(&m, m.num_layers, &tp2, 4096, 2048, &p);
        assert!(t2 < t1, "TP=2 should beat TP=1 for large prefill");
        assert!(
            t2.as_secs_f64() > t1.as_secs_f64() / 2.0,
            "TP=2 cannot be superlinear"
        );
    }

    #[test]
    fn layers_scale_time() {
        let m = ModelSpec::llama_30b();
        let p = params();
        let h = hw(GpuModel::A100);
        let t30 = decode_step_time(&m, 30, &h, 16, 512, &p);
        let t60 = decode_step_time(&m, 60, &h, 16, 512, &p);
        let ratio = t60.as_secs_f64() / t30.as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn zero_work_is_free() {
        let m = ModelSpec::llama_7b();
        let p = params();
        let h = hw(GpuModel::A100);
        assert_eq!(prefill_time(&m, 0, &h, 100, 100, &p), SimDuration::ZERO);
        assert_eq!(
            decode_step_time(&m, m.num_layers, &h, 0, 100, &p),
            SimDuration::ZERO
        );
    }
}
