//! End-to-end cost model for one model replica (serving group).
//!
//! A [`ReplicaCostModel`] is compiled from a [`GroupSpec`] placed on a
//! [`Cluster`]: it resolves every pipeline stage to concrete hardware, then
//! answers the latency/throughput/memory questions the scheduler and the
//! simulator ask. It also computes the prefill→decode KV-cache route between
//! two replicas, matching layer ranges between the source and destination
//! pipeline stages.

use crate::alphabeta::CommCost;
use crate::roofline::{decode_step_time, prefill_time, StageHardware};
use crate::ModelParams;
use ts_cluster::{Cluster, GpuSpec};
use ts_common::{Error, GpuId, GroupSpec, ModelSpec, Result, SimDuration};

/// Default disk bandwidth for weight (re)loading, bytes/s. The paper quotes
/// 1.2 GB/s when estimating a >5 minute reload for a 175B model.
pub const DISK_BANDWIDTH: f64 = 1.2e9;

/// One parallel leg of a KV-cache transfer: the KV slice for `layers`
/// contiguous layers moving over one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvRouteSegment {
    /// Number of transformer layers whose KV moves on this leg.
    pub layers: usize,
    /// The link used (best pair between the two stages).
    pub link: CommCost,
}

/// A [`KvRouteSegment`] plus the concrete GPU endpoints the leg's link
/// connects. The flow-level network fabric needs the endpoints to place the
/// transfer on the right NIC uplink/downlink and fabric links; the plain
/// alpha-beta model only needs the link cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvRouteLeg {
    /// Number of transformer layers whose KV moves on this leg.
    pub layers: usize,
    /// The link used (best pair between the two stages).
    pub link: CommCost,
    /// Sending GPU (on the prefill replica's stage).
    pub from: GpuId,
    /// Receiving GPU (on the decode replica's stage).
    pub to: GpuId,
}

impl KvRouteLeg {
    /// Drops the endpoints, leaving the alpha-beta view of the leg.
    pub fn segment(&self) -> KvRouteSegment {
        KvRouteSegment {
            layers: self.layers,
            link: self.link,
        }
    }
}

/// Compiled per-stage data.
#[derive(Debug, Clone)]
struct StageModel {
    hw: StageHardware,
    layers: usize,
    /// First layer index (inclusive) of this stage.
    layer_offset: usize,
    /// Weight bytes held by the whole stage (including embedding share on
    /// the first/last stage).
    weight_bytes: u64,
    /// Total usable memory of the stage (bytes, after `mem_util` derating).
    usable_memory: u64,
    /// Link to the next stage (absent for the last stage).
    next_link: Option<CommCost>,
    /// Representative GPUs (used for KV routing).
    gpus: Vec<GpuId>,
}

/// Analytic latency/throughput/memory model for one model replica.
///
/// The scheduler evaluates candidate deployments on multiple worker threads
/// and shares compiled cost models across them by reference, so this type
/// must stay `Send + Sync`: plain owned data, no interior mutability, and
/// every query method takes `&self` (asserted at compile time below).
#[derive(Debug, Clone)]
pub struct ReplicaCostModel {
    model: ModelSpec,
    params: ModelParams,
    stages: Vec<StageModel>,
}

// Compile-time guard for the concurrent-evaluation contract above.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ReplicaCostModel>();
};

impl ReplicaCostModel {
    /// Compiles the cost model for `group` placed on `cluster`.
    ///
    /// # Errors
    /// Returns [`Error::Infeasible`] if the group's layer partition does not
    /// cover the model, or any stage cannot hold its weight shard in memory.
    pub fn new(
        cluster: &Cluster,
        model: &ModelSpec,
        group: &GroupSpec,
        params: &ModelParams,
    ) -> Result<Self> {
        if group.total_layers() != model.num_layers {
            return Err(Error::Infeasible(format!(
                "group covers {} layers, model has {}",
                group.total_layers(),
                model.num_layers
            )));
        }
        let embed_bytes = model.weight_bytes() - model.layer_weight_bytes(model.num_layers);
        let num_stages = group.stages.len();
        let mut stages = Vec::with_capacity(num_stages);
        let mut layer_offset = 0usize;
        for (si, st) in group.stages.iter().enumerate() {
            let specs: Vec<GpuSpec> = st.gpus.iter().map(|&g| cluster.gpu(g).spec()).collect();
            // Use the weakest member for each capability: the TP group runs
            // in lockstep, so the slowest shard sets the pace.
            let weakest = GpuSpec {
                model: specs[0].model,
                mem_bandwidth: specs
                    .iter()
                    .map(|s| s.mem_bandwidth)
                    .fold(f64::MAX, f64::min),
                peak_fp16_flops: specs
                    .iter()
                    .map(|s| s.peak_fp16_flops)
                    .fold(f64::MAX, f64::min),
                memory_bytes: specs.iter().map(|s| s.memory_bytes).min().unwrap(),
                price_per_hour: specs.iter().map(|s| s.price_per_hour).sum(),
            };
            let intra_bw = cluster.bottleneck_bandwidth(&st.gpus);
            let intra_alpha = if st.gpus.len() > 1 {
                st.gpus
                    .iter()
                    .flat_map(|&a| st.gpus.iter().map(move |&b| (a, b)))
                    .filter(|(a, b)| a != b)
                    .map(|(a, b)| cluster.latency(a, b))
                    .max()
                    .unwrap_or(SimDuration::ZERO)
            } else {
                SimDuration::ZERO
            };
            let hw = StageHardware {
                gpu: weakest,
                tp: st.gpus.len(),
                intra_bw,
                intra_alpha,
            };
            let mut weight_bytes = model.layer_weight_bytes(st.layers);
            if si == 0 {
                weight_bytes += embed_bytes / 2;
            }
            if si == num_stages - 1 {
                weight_bytes += embed_bytes - embed_bytes / 2;
            }
            let usable_memory: u64 = st
                .gpus
                .iter()
                .map(|&g| (cluster.gpu(g).spec().memory_bytes as f64 * params.mem_util) as u64)
                .sum();
            if usable_memory <= weight_bytes {
                return Err(Error::Infeasible(format!(
                    "stage {si} needs {weight_bytes} weight bytes but has {usable_memory} usable"
                )));
            }
            let next_link = group
                .stages
                .get(si + 1)
                .map(|next| best_pair_link(cluster, &st.gpus, &next.gpus));
            stages.push(StageModel {
                hw,
                layers: st.layers,
                layer_offset,
                weight_bytes,
                usable_memory,
                next_link,
                gpus: st.gpus.clone(),
            });
            layer_offset += st.layers;
        }
        Ok(ReplicaCostModel {
            model: model.clone(),
            params: *params,
            stages,
        })
    }

    /// The model this replica serves.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// Whether `other` prices every decode step exactly as `self` does:
    /// same model, parameters, and per-stage hardware, layer count and
    /// next-stage link. Which GPUs a stage sits on only matters for KV
    /// routing, so replicas of one shape on different GPUs compare equal.
    pub fn same_decode_steps(&self, other: &Self) -> bool {
        self.model == other.model
            && self.params == other.params
            && self.stages.len() == other.stages.len()
            && self
                .stages
                .iter()
                .zip(&other.stages)
                .all(|(a, b)| a.hw == b.hw && a.layers == b.layers && a.next_link == b.next_link)
    }

    /// Number of pipeline stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// End-to-end latency to prefill a batch of `batch_tokens` prompt tokens
    /// (mean context `avg_context`): sum of stage times plus inter-stage
    /// activation transfers.
    pub fn prefill_latency(&self, batch_tokens: u64, avg_context: u64) -> SimDuration {
        let act_bytes = self
            .model
            .dtype
            .bytes_for(batch_tokens * self.model.hidden_size as u64);
        let mut total = SimDuration::ZERO;
        for st in &self.stages {
            total += prefill_time(
                &self.model,
                st.layers,
                &st.hw,
                batch_tokens,
                avg_context,
                &self.params,
            );
            if let Some(link) = st.next_link {
                total += link.time(act_bytes);
            }
        }
        total
    }

    /// Latency of one decode step for `batch` sequences with mean context
    /// `avg_context`.
    pub fn decode_step_latency(&self, batch: u64, avg_context: u64) -> SimDuration {
        let act_bytes = self
            .model
            .dtype
            .bytes_for(batch * self.model.hidden_size as u64);
        let mut total = SimDuration::ZERO;
        for st in &self.stages {
            total += decode_step_time(
                &self.model,
                st.layers,
                &st.hw,
                batch,
                avg_context,
                &self.params,
            );
            if let Some(link) = st.next_link {
                total += link.time(act_bytes);
            }
        }
        total
    }

    /// The slowest pipeline stage's prefill time — the reciprocal of the
    /// replica's steady-state prefill throughput when the pipeline is full.
    pub fn prefill_bottleneck(&self, batch_tokens: u64, avg_context: u64) -> SimDuration {
        self.stages
            .iter()
            .map(|st| {
                prefill_time(
                    &self.model,
                    st.layers,
                    &st.hw,
                    batch_tokens,
                    avg_context,
                    &self.params,
                )
            })
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Maximum number of KV-cache tokens the replica can hold (min over
    /// stages of usable memory after weights, divided by per-token KV bytes).
    pub fn kv_capacity_tokens(&self) -> u64 {
        self.stages
            .iter()
            .map(|st| {
                let avail = st.usable_memory - st.weight_bytes;
                let per_token = self.model.kv_bytes_per_token_layers(st.layers).max(1);
                avail / per_token
            })
            .min()
            .unwrap_or(0)
    }

    /// Largest decode batch sustainable if each sequence occupies
    /// `avg_seq_len` KV tokens.
    pub fn max_decode_batch(&self, avg_seq_len: u64) -> u64 {
        self.kv_capacity_tokens() / avg_seq_len.max(1)
    }

    /// Steady-state decode throughput in tokens/second at batch `batch`.
    pub fn decode_throughput(&self, batch: u64, avg_context: u64) -> f64 {
        if batch == 0 {
            return 0.0;
        }
        let step = self.decode_step_latency(batch, avg_context);
        batch as f64 / step.as_secs_f64()
    }

    /// Time to (re)load this replica's weights from disk at `disk_bw`
    /// bytes/s — the reload penalty of *full* rescheduling. Stages load in
    /// parallel from independent disks, so the slowest stage dominates.
    pub fn weight_load_time(&self, disk_bw: f64) -> SimDuration {
        assert!(disk_bw > 0.0, "disk bandwidth must be positive");
        self.stages
            .iter()
            .map(|st| SimDuration::from_secs_f64(st.weight_bytes as f64 / disk_bw))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Layer ranges per stage, as `(offset, len)` pairs.
    pub fn layer_ranges(&self) -> Vec<(usize, usize)> {
        self.stages
            .iter()
            .map(|st| (st.layer_offset, st.layers))
            .collect()
    }

    /// GPUs per stage.
    pub fn stage_gpus(&self) -> Vec<&[GpuId]> {
        self.stages.iter().map(|st| st.gpus.as_slice()).collect()
    }
}

/// Best (highest-bandwidth) point-to-point link between any GPU of `from`
/// and any GPU of `to`.
fn best_pair_link(cluster: &Cluster, from: &[GpuId], to: &[GpuId]) -> CommCost {
    best_pair(cluster, from, to).0
}

/// Like [`best_pair_link`], but also reports which GPU pair realizes the
/// best link. Deterministic: pairs are scanned in slice order and only a
/// strictly better bandwidth displaces the incumbent.
fn best_pair(cluster: &Cluster, from: &[GpuId], to: &[GpuId]) -> (CommCost, GpuId, GpuId) {
    let mut best_bw = 0.0f64;
    let mut best = (
        CommCost::LOOPBACK,
        from.first().copied().unwrap_or(GpuId(0)),
        to.first().copied().unwrap_or(GpuId(0)),
    );
    for &a in from {
        for &b in to {
            let bw = cluster.bandwidth(a, b);
            if bw.is_infinite() {
                return (CommCost::LOOPBACK, a, b);
            }
            if bw > best_bw {
                best_bw = bw;
                best = (CommCost::new(cluster.latency(a, b), bw), a, b);
            }
        }
    }
    best
}

/// Computes the KV transfer route from `prefill` to `decode`: for every
/// overlap between a prefill stage's layer range and a decode stage's layer
/// range, one segment moves that slice over the best available link. The
/// segments transfer in parallel.
pub fn kv_route(
    cluster: &Cluster,
    prefill: &ReplicaCostModel,
    decode: &ReplicaCostModel,
) -> Vec<KvRouteSegment> {
    kv_route_legs(cluster, prefill, decode)
        .iter()
        .map(KvRouteLeg::segment)
        .collect()
}

/// [`kv_route`] with concrete GPU endpoints per leg, for callers (the flow
/// fabric) that must know *which* NICs a leg occupies, not just how fast
/// its link is.
pub fn kv_route_legs(
    cluster: &Cluster,
    prefill: &ReplicaCostModel,
    decode: &ReplicaCostModel,
) -> Vec<KvRouteLeg> {
    let mut legs = Vec::new();
    for ps in &prefill.stages {
        let p_range = ps.layer_offset..ps.layer_offset + ps.layers;
        for ds in &decode.stages {
            let d_range = ds.layer_offset..ds.layer_offset + ds.layers;
            let lo = p_range.start.max(d_range.start);
            let hi = p_range.end.min(d_range.end);
            if lo < hi {
                let (link, from, to) = best_pair(cluster, &ps.gpus, &ds.gpus);
                legs.push(KvRouteLeg {
                    layers: hi - lo,
                    link,
                    from,
                    to,
                });
            }
        }
    }
    legs
}

/// Transfer time for `tokens` KV tokens along the route, when the per-layer
/// KV payload is scaled by `compression_ratio` (1.0 = fp16, 0.25 = 4-bit).
/// Segments move in parallel, so the slowest one dominates.
///
/// # Panics
/// Panics if `compression_ratio` is not in `(0, 1]`.
pub fn kv_transfer_time(
    model: &ModelSpec,
    route: &[KvRouteSegment],
    tokens: u64,
    compression_ratio: f64,
) -> SimDuration {
    kv_transfer_time_congested(model, route, tokens, compression_ratio, 1.0)
}

/// [`kv_transfer_time`] with a multiplicative congestion factor on the wire
/// bytes: `factor` ≥ 1 prices the expected slowdown from sharing links with
/// other in-flight transfers without simulating them individually. A factor
/// of exactly 1.0 performs the same arithmetic as the uncongested model, so
/// plans scored with it are bit-identical.
///
/// # Panics
/// Panics if `compression_ratio` is not in `(0, 1]`, or `congestion_factor`
/// is below 1 or not finite.
pub fn kv_transfer_time_congested(
    model: &ModelSpec,
    route: &[KvRouteSegment],
    tokens: u64,
    compression_ratio: f64,
    congestion_factor: f64,
) -> SimDuration {
    assert!(
        compression_ratio > 0.0 && compression_ratio <= 1.0,
        "compression ratio must be in (0,1], got {compression_ratio}"
    );
    assert!(
        congestion_factor >= 1.0 && congestion_factor.is_finite(),
        "congestion factor must be finite and >= 1, got {congestion_factor}"
    );
    route
        .iter()
        .map(|seg| {
            let bytes = (model.kv_bytes_per_token_layers(seg.layers) as f64
                * tokens as f64
                * compression_ratio
                * congestion_factor) as u64;
            seg.link.time(bytes)
        })
        .max()
        .unwrap_or(SimDuration::ZERO)
}

/// Like [`memory_feasible`], but requires `headroom` × the weight bytes
/// (e.g. `4.0/3.0` leaves 25% of memory for KV cache, matching the layer
/// partitioner's per-stage cap).
pub fn memory_feasible_with_headroom(
    cluster: &Cluster,
    model: &ModelSpec,
    gpus: &[GpuId],
    params: &ModelParams,
    headroom: f64,
) -> bool {
    let usable: u64 = gpus
        .iter()
        .map(|&g| (cluster.gpu(g).spec().memory_bytes as f64 * params.mem_util) as u64)
        .sum();
    usable as f64 > model.weight_bytes() as f64 * headroom
}

/// Quick feasibility pre-check used by the tabu search to prune neighbours:
/// can `gpus` hold at least one copy of the model's weights?
pub fn memory_feasible(
    cluster: &Cluster,
    model: &ModelSpec,
    gpus: &[GpuId],
    params: &ModelParams,
) -> bool {
    let usable: u64 = gpus
        .iter()
        .map(|&g| (cluster.gpu(g).spec().memory_bytes as f64 * params.mem_util) as u64)
        .sum();
    usable > model.weight_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::presets;
    use ts_common::{GpuId, ParallelConfig, Phase, StageSpec};

    fn group_on(gpus: &[u32], tp: usize, pp: usize, layers: usize, phase: Phase) -> GroupSpec {
        let per = layers / pp;
        let stages: Vec<StageSpec> = (0..pp)
            .map(|s| StageSpec {
                gpus: gpus[s * tp..(s + 1) * tp]
                    .iter()
                    .map(|&g| GpuId(g))
                    .collect(),
                layers: if s == pp - 1 {
                    layers - per * (pp - 1)
                } else {
                    per
                },
            })
            .collect();
        GroupSpec::new(phase, ParallelConfig::new(tp, pp).unwrap(), stages).unwrap()
    }

    #[test]
    fn compiles_for_paper_cloud() {
        let c = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_30b();
        // 8xA40 node is GPUs 16..24; TP=2 PP=1 needs 2 GPUs holding 65GB —
        // infeasible on 2x48GB*0.9=86GB? weights 65GB < 86GB, feasible.
        let g = group_on(&[16, 17], 2, 1, m.num_layers, Phase::Prefill);
        let rcm = ReplicaCostModel::new(&c, &m, &g, &ModelParams::default()).unwrap();
        assert!(rcm.kv_capacity_tokens() > 1000);
        assert!(rcm.prefill_latency(1024, 512) > SimDuration::ZERO);
    }

    #[test]
    fn infeasible_when_memory_too_small() {
        let c = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_30b();
        // One A5000 (24GB) cannot hold 30B fp16 weights (~65GB).
        let g = group_on(&[8], 1, 1, m.num_layers, Phase::Prefill);
        assert!(ReplicaCostModel::new(&c, &m, &g, &ModelParams::default()).is_err());
        assert!(!memory_feasible(
            &c,
            &m,
            &[GpuId(8)],
            &ModelParams::default()
        ));
        assert!(memory_feasible(
            &c,
            &m,
            &[GpuId(16), GpuId(17)],
            &ModelParams::default()
        ));
    }

    #[test]
    fn layer_partition_must_cover_model() {
        let c = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_30b();
        let g = group_on(&[16, 17], 2, 1, 30, Phase::Prefill); // only 30 of 60 layers
        assert!(ReplicaCostModel::new(&c, &m, &g, &ModelParams::default()).is_err());
    }

    #[test]
    fn pipeline_adds_interstage_comm() {
        let c = presets::network_case_cluster(presets::ETH_5GBPS);
        let m = ModelSpec::llama_13b();
        let p = ModelParams::default();
        // PP=2 across the two nodes (slow link) vs within one node.
        let cross = group_on(&[0, 1, 4, 5], 2, 2, m.num_layers, Phase::Prefill);
        let local = group_on(&[0, 1, 2, 3], 2, 2, m.num_layers, Phase::Prefill);
        let rc_cross = ReplicaCostModel::new(&c, &m, &cross, &p).unwrap();
        let rc_local = ReplicaCostModel::new(&c, &m, &local, &p).unwrap();
        assert!(
            rc_cross.prefill_latency(4096, 2048) > rc_local.prefill_latency(4096, 2048),
            "cross-node pipeline must pay for the slow link"
        );
    }

    #[test]
    fn kv_route_matches_layers() {
        let c = presets::network_case_cluster(presets::ETH_40GBPS);
        let m = ModelSpec::llama_13b();
        let p = ModelParams::default();
        // prefill on A40 node (PP=2), decode on 3090Ti node (PP=1 over TP=4)
        let pf = group_on(&[0, 1, 2, 3], 2, 2, m.num_layers, Phase::Prefill);
        let dc = group_on(&[4, 5, 6, 7], 4, 1, m.num_layers, Phase::Decode);
        let rp = ReplicaCostModel::new(&c, &m, &pf, &p).unwrap();
        let rd = ReplicaCostModel::new(&c, &m, &dc, &p).unwrap();
        let route = kv_route(&c, &rp, &rd);
        let total_layers: usize = route.iter().map(|s| s.layers).sum();
        assert_eq!(total_layers, m.num_layers);
        // 4-bit compression shrinks the transfer ~4x (alpha aside).
        let t16 = kv_transfer_time(&m, &route, 1024, 1.0);
        let t4 = kv_transfer_time(&m, &route, 1024, 0.25);
        let ratio = t16.as_secs_f64() / t4.as_secs_f64();
        assert!(ratio > 3.0 && ratio <= 4.2, "ratio {ratio}");
    }

    #[test]
    fn route_legs_expose_endpoints() {
        let c = presets::network_case_cluster(presets::ETH_40GBPS);
        let m = ModelSpec::llama_13b();
        let p = ModelParams::default();
        let pf = group_on(&[0, 1, 2, 3], 2, 2, m.num_layers, Phase::Prefill);
        let dc = group_on(&[4, 5, 6, 7], 4, 1, m.num_layers, Phase::Decode);
        let rp = ReplicaCostModel::new(&c, &m, &pf, &p).unwrap();
        let rd = ReplicaCostModel::new(&c, &m, &dc, &p).unwrap();
        let legs = kv_route_legs(&c, &rp, &rd);
        // Endpoints lie on the sending/receiving replicas and realize the
        // leg's advertised link cost.
        for leg in &legs {
            assert!((0..4).contains(&leg.from.index()));
            assert!((4..8).contains(&leg.to.index()));
            assert_eq!(leg.link.beta, c.bandwidth(leg.from, leg.to));
        }
        // The endpoint-free view matches kv_route exactly.
        let segs: Vec<KvRouteSegment> = legs.iter().map(KvRouteLeg::segment).collect();
        assert_eq!(segs, kv_route(&c, &rp, &rd));
    }

    #[test]
    fn congestion_factor_prices_shared_links() {
        let c = presets::network_case_cluster(presets::ETH_5GBPS);
        let m = ModelSpec::llama_13b();
        let p = ModelParams::default();
        let pf = group_on(&[0, 1, 2, 3], 2, 2, m.num_layers, Phase::Prefill);
        let dc = group_on(&[4, 5, 6, 7], 4, 1, m.num_layers, Phase::Decode);
        let rp = ReplicaCostModel::new(&c, &m, &pf, &p).unwrap();
        let rd = ReplicaCostModel::new(&c, &m, &dc, &p).unwrap();
        let route = kv_route(&c, &rp, &rd);
        // Factor 1.0 is the uncongested model, bit for bit.
        assert_eq!(
            kv_transfer_time_congested(&m, &route, 1024, 1.0, 1.0),
            kv_transfer_time(&m, &route, 1024, 1.0)
        );
        // Factor 2.0 roughly doubles the beta term.
        let base = kv_transfer_time(&m, &route, 1024, 1.0);
        let congested = kv_transfer_time_congested(&m, &route, 1024, 1.0, 2.0);
        assert!(congested > base);
        let ratio = congested.as_secs_f64() / base.as_secs_f64();
        assert!(ratio > 1.5 && ratio <= 2.1, "ratio {ratio}");
    }

    #[test]
    fn decode_batch_limited_by_kv_memory() {
        let c = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_30b();
        let g = group_on(&[16, 17, 18, 19], 2, 2, m.num_layers, Phase::Decode);
        let rcm = ReplicaCostModel::new(&c, &m, &g, &ModelParams::default()).unwrap();
        let cap = rcm.kv_capacity_tokens();
        assert_eq!(rcm.max_decode_batch(1024), cap / 1024);
        assert!(rcm.max_decode_batch(1024) > 0);
    }

    #[test]
    fn weight_load_time_is_minutes_scale() {
        let c = presets::paper_inhouse_cluster();
        let m = ModelSpec::llama_30b();
        let g = group_on(&[0, 1], 2, 1, m.num_layers, Phase::Prefill);
        let rcm = ReplicaCostModel::new(&c, &m, &g, &ModelParams::default()).unwrap();
        let t = rcm.weight_load_time(DISK_BANDWIDTH);
        // ~65GB / 1.2GB/s ≈ 54s
        assert!(t.as_secs_f64() > 30.0 && t.as_secs_f64() < 120.0);
    }

    #[test]
    fn throughput_optimal_batch_beats_batch_one() {
        let c = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_30b();
        let g = group_on(&[24, 25, 26, 27], 2, 2, m.num_layers, Phase::Decode);
        let rcm = ReplicaCostModel::new(&c, &m, &g, &ModelParams::default()).unwrap();
        let b = rcm.max_decode_batch(1024).min(64);
        assert!(rcm.decode_throughput(b, 1024) > 5.0 * rcm.decode_throughput(1, 1024));
    }
}
