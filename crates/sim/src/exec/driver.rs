//! The shared event-loop driver.
//!
//! One discrete-event loop serves both serving topologies:
//!
//! * [`Topology::Split`] — phase-split replica pairs with KV transfer over
//!   the inter-replica fabric (the ThunderServe engine);
//! * [`Topology::Colocated`] — identical-role replicas serving both phases
//!   (the vLLM/HexGen-style baselines).
//!
//! The driver owns everything topology-agnostic: the event queue, the
//! [`StrideRouter`] routing policy, per-request bookkeeping, the
//! admission/shed policy, and the whole fault layer (trigger → heartbeat
//! detection → drain/requeue/re-prefill → recovery accounting). Topology
//! state lives behind the enum and is only consulted where behaviour
//! genuinely differs (KV transfer exists only under `Split`; a work item
//! serializes both phases only under `Colocated`). Fault handling is
//! written once against the [`ReplicaExecutor`] trait, which is how the
//! colocated baselines get fault injection and [`RecoveryCounters`] for
//! free.
//!
//! # Performance architecture
//!
//! Three structural decisions keep the loop fast on day-scale traces
//! without changing a single output bit:
//!
//! * **Slab-allocated request state.** All per-request bookkeeping (the
//!   payload, routing/timing state, and any in-flight KV transfer) lives
//!   in one [`Slab`] entry; events and jobs carry the dense generational
//!   [`SlabKey`] instead of hashing a [`RequestId`] per touch.
//! * **Lazy arrival merge.** Arrivals are never heap entries: the sorted
//!   arrival vector is merged against the event queue head ([`NextEvent`]),
//!   so a 1M-request trace starts with an empty heap instead of a 1M-entry
//!   one. Arrivals won setup-time seqs under the old scheme (pushed first,
//!   before fault events), so the merge breaks `at` ties in favour of
//!   arrivals — bit-identical event order.
//! * **Decode-step coalescing.** One [`EventKind::DecodeStepDone`] is
//!   scheduled per planned decode *run* (a [`DecodePlan`]) instead of one
//!   per step; intermediate step boundaries are materialized retroactively
//!   (in bulk when telemetry is off) when an interrupt or the finish
//!   boundary needs the batch state. The plan's *virtual push time*
//!   (`prev_boundary`, and [`DecodePlan::vpush`] for the in-progress step)
//!   reproduces the per-step schedule's `(at, seq, pushed_at)` ordering
//!   against genuinely simultaneous rival events, so the coalesced loop
//!   replays the exact same event interleaving the per-step loop would
//!   have. The per-step path survives as a compatibility mode
//!   ([`crate::config::SimConfig::decode_coalescing`] off, or a straggler
//!   threshold active — the straggler detector needs per-step samples).

use super::executor::{
    ColocatedExecutor, ColocatedPolicy, DecodeExecutor, DecodePlan, DrainedWork, PrefillExecutor,
    ReplicaExecutor, Work,
};
use super::seq::{AdmitOutcome, Pending, PrefillJob, WaitingSeq};
use crate::config::{PrefillPolicy, SimConfig};
use crate::event::{Event, EventKind, EventQueue};
use crate::fault::{FaultKind, FaultScript, TimedFault};
use crate::metrics::{Metrics, ModelConservation, RecoveryCounters, RequestRecord};
use crate::router::StrideRouter;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use ts_cluster::Cluster;
use ts_common::{
    derive_seed, seeded_rng, DeploymentPlan, Error, GpuId, GroupSpec, ModelId, Request, RequestId,
    Result, SimDuration, SimTime, Slab, SlabKey,
};
use ts_costmodel::replica::{kv_route_legs, kv_transfer_time, KvRouteLeg, KvRouteSegment};
use ts_costmodel::{DecodeStepTables, ReplicaCostModel};
use ts_kvcache::codec::KvCodec;
use ts_net::{FlowEstimate, FlowFabric, FlowPoll};
use ts_telemetry::{
    HealthState, Recorder, Role, StreamingPlane, TraceEvent, TraceKind, TraceLog, TraceSink,
};

/// An in-flight KV transfer (completion events carry an attempt number so
/// superseded attempts are ignored).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transfer {
    from: usize,
    to: usize,
    job: PrefillJob,
    attempt: u32,
}

/// All driver-side state of one in-flight request, slab-resident: the
/// payload, routing/timing bookkeeping, and the KV transfer registry slot
/// (split topology only). One slab entry exists per live request; events
/// and jobs address it by [`SlabKey`].
pub(crate) struct ReqState {
    req: Request,
    pend: Pending,
    /// The request's in-flight KV transfer, if any.
    transfer: Option<Transfer>,
}

impl ReqState {
    fn new(req: Request) -> Self {
        ReqState {
            req,
            pend: Pending::new(0, 0),
            transfer: None,
        }
    }
}

/// The next simulation occurrence: a trace arrival (merged lazily from the
/// sorted arrival vector) or a queued event.
enum NextEvent {
    Arrival(Request),
    Queued(Event),
}

/// Topology-agnostic driver state: event queue, routing, per-request
/// bookkeeping, shed policy and fault/recovery accounting.
pub(crate) struct Core {
    cfg: SimConfig,
    router: StrideRouter,
    queue: EventQueue,
    /// Per-request state, slab-allocated; an entry lives from arrival to
    /// completion/drop/rejection.
    reqs: Slab<ReqState>,
    records: Vec<RequestRecord>,
    dropped: usize,
    rejected: usize,
    now: SimTime,
    faults: Vec<TimedFault>,
    recovery_enabled: bool,
    /// Arrivals (and requeues) stalled because no live route exists or the
    /// service is paused; shed beyond `cfg.shed_threshold`.
    stalled: VecDeque<PrefillJob>,
    paused_until: Option<SimTime>,
    recovery: RecoveryCounters,
    /// Requests affected by each fault (fault time, outstanding ids); a
    /// fault's time-to-recover is recorded when its set empties.
    affected: Vec<(SimTime, BTreeSet<RequestId>)>,
    /// Request-lifecycle trace recorder; `Some` iff
    /// [`SimConfig::telemetry`] is on. Instrumentation only observes —
    /// it never schedules events, draws randomness or mutates simulation
    /// state, so the `None` path stays bit-identical.
    trace: Option<Recorder>,
    /// Streaming observability plane; `Some` iff [`SimConfig::streaming`]
    /// is set. Fed the same event stream as the recorder but folds it
    /// online (sketches, windows, burn monitors) instead of buffering.
    /// Boxed: the plane is a few hundred bytes of aggregation state that
    /// would otherwise bloat every `Core` on the stack.
    stream: Option<Box<StreamingPlane>>,
    /// Gray-failure state, indexed by *host*: prefill replicas first, then
    /// decode replicas (colocated: the replica index). The RNG is drawn
    /// from only when a gray fault or a jitter knob is active, so the
    /// default path stays bit-identical.
    gray: GrayState,
    /// Whether per-model conservation is tracked — true iff the catalog
    /// ([`SimConfig::models`]) is non-empty, so single-model runs carry
    /// zero extra bookkeeping and their [`RecoveryCounters`] stay
    /// byte-identical.
    track_models: bool,
    /// Per-model (dropped, rejected) counts, folded into
    /// [`RecoveryCounters::per_model`] at the end of the run. Untouched
    /// when `track_models` is off.
    model_losses: HashMap<ModelId, (usize, usize)>,
    /// The run's arrival trace, sorted by `(arrival, original order)`;
    /// merged lazily against the event queue instead of being heap
    /// entries.
    arrivals: Vec<Request>,
    /// Cursor into `arrivals`.
    next_arrival: usize,
    /// Count of occurrences dispatched (arrivals + queued events) — the
    /// denominator of the events/sec benchmark.
    events_processed: u64,
    /// `pushed_at` stamp of the occurrence being dispatched (zero for
    /// arrivals); consulted by the coalesced-decode tie rule.
    event_pushed_at: SimTime,
    /// Latest fire time folded in from cancelled decode-plan events. The
    /// per-step loop popped those events and advanced `now` even when they
    /// were stale; the coalesced loop cancels them instead, so the final
    /// horizon folds this in to stay identical.
    phantom_horizon: SimTime,
    /// Coalesced decode finish events deferred behind a same-instant rival
    /// (replica, original seq, original pushed_at), newest last. A stack,
    /// not an `Option`: a rival dispatched inline may itself defer.
    held_decode: Vec<(usize, u64, SimTime)>,
}

/// Per-host gray-failure bookkeeping: flaky-heartbeat masking, straggler
/// detection EWMAs and quarantine state, plus the seeded RNG every
/// stochastic mitigation decision (beat loss, retry jitter) draws from.
struct GrayState {
    /// Seeded RNG for beat-loss draws and retry jitter; deterministic per
    /// [`SimConfig::fault_seed`].
    rng: StdRng,
    /// Number of prefill hosts — decode replica `j` is host
    /// `prefill_hosts + j` (colocated: every replica is its own host and
    /// this equals the replica count).
    prefill_hosts: usize,
    /// Per-host heartbeat loss probability (0 = healthy).
    flaky: Vec<f64>,
    /// Hosts currently masked out of routing by a missed beat.
    flaky_dead: Vec<bool>,
    /// Hosts with a pending [`EventKind::FlakyBeat`] event (beats stop
    /// rescheduling when no requests are outstanding, and restart on the
    /// next arrival, so the event queue always drains).
    flaky_scheduled: Vec<bool>,
    /// Whether any host has a nonzero loss probability (cheap arrival-path
    /// guard).
    flaky_any: bool,
    /// Hosts quarantined by the straggler detector.
    quarantined: Vec<bool>,
    /// Earliest readmission time per quarantined host; probes scheduled
    /// before a later re-quarantine see a larger value and go stale.
    quarantine_until: Vec<Option<SimTime>>,
    /// EWMA of the observed/expected iteration-time ratio per host.
    slow_ewma: Vec<f64>,
    /// Completed-iteration samples feeding the EWMA per host.
    slow_samples: Vec<u32>,
    /// Heartbeat window, copied from the fault script at run start (one
    /// [`EventKind::FlakyBeat`] fires per window).
    beat_period: SimDuration,
}

impl GrayState {
    fn new(seed: u64, prefill_hosts: usize, total_hosts: usize) -> Self {
        GrayState {
            rng: seeded_rng(derive_seed(seed, 0x6772_6179)),
            prefill_hosts,
            flaky: vec![0.0; total_hosts],
            flaky_dead: vec![false; total_hosts],
            flaky_scheduled: vec![false; total_hosts],
            flaky_any: false,
            quarantined: vec![false; total_hosts],
            quarantine_until: vec![None; total_hosts],
            slow_ewma: vec![1.0; total_hosts],
            slow_samples: vec![0; total_hosts],
            beat_period: SimDuration::ZERO,
        }
    }

    /// Whether routing must avoid `host` (missed beat or quarantine).
    fn masked(&self, host: usize) -> bool {
        self.flaky_dead[host] || self.quarantined[host]
    }
}

/// One tenant's routing state under [`Topology::Split`]: the model draws
/// its (prefill, decode) pair from its own stride router over its own
/// replicas, so tenants on a shared pool never leak requests into each
/// other's executors.
pub(crate) struct ModelRoute {
    model: ModelId,
    router: StrideRouter,
    /// (prefill, decode) replica coordinates per router index, in the
    /// *global* replica numbering of the plan.
    pairs: Vec<(usize, usize)>,
}

/// Phase-split topology state: prefill/decode executor pools plus the KV
/// transfer fabric between them.
pub(crate) struct SplitState {
    prefills: Vec<PrefillExecutor>,
    decodes: Vec<DecodeExecutor>,
    /// Decode step-time prefix tables shared by every decode replica;
    /// each [`DecodePlan`] reads its boundaries from one of them.
    step_tables: DecodeStepTables,
    pair_coords: Vec<(usize, usize)>,
    /// KV route per (prefill, decode) pair.
    routes: Vec<Vec<Vec<KvRouteSegment>>>,
    /// One-entry memo per (prefill, decode) pair: `tokens ->` modeled
    /// wire time. The route, the sender's model spec and the wire
    /// precision are all fixed after construction, so
    /// [`kv_transfer_time`] is pure in the token count — fixed-length
    /// day traces hit the cache on nearly every transfer.
    kv_memo: Vec<Vec<Option<(u64, SimDuration)>>>,
    /// Per-sender (prefill replica) uplink availability for KV transfer
    /// queuing: one replica's outbound transfers serialize on its NIC,
    /// whichever decode replica they target.
    sender_free_at: Vec<SimTime>,
    /// Link availability per (prefill, decode) pair.
    link_down: Vec<Vec<bool>>,
    /// Bandwidth-degradation factor per (prefill, decode) pair (1 =
    /// healthy). Legacy modeled transfers multiply their wire time by it;
    /// under the flow fabric the degradation is applied to the pair's
    /// physical links instead and this matrix only records the script
    /// state.
    link_factor: Vec<Vec<f64>>,
    /// The coordinator's belief about replica liveness: updated at fault
    /// *detection* (downs) and immediately on healing (ups). Routing masks
    /// follow beliefs, not ground truth — that is the detection window.
    believed_dead_prefill: Vec<bool>,
    believed_dead_decode: Vec<bool>,
    /// Transfers whose target died with no live alternative; re-dispatched
    /// when a decode replica comes back.
    parked: Vec<Transfer>,
    /// Flow-level network fabric. `Some` iff both
    /// [`SimConfig::network_contention`] and [`SimConfig::model_kv_transfer`]
    /// are on; `None` keeps the legacy per-sender serialization (and the
    /// paper figures) bit-identical.
    fabric: Option<FlowFabric>,
    /// Per (prefill, decode) pair: representative endpoints and total layer
    /// count for the fabric's one-flow-per-transfer approximation. The
    /// endpoints come from the route leg carrying the most layers; the byte
    /// count covers the whole route.
    flow_routes: Vec<Vec<(GpuId, GpuId, usize)>>,
    /// Wire codec sizing fabric flows (model × configured KV precision).
    codec: KvCodec,
    /// Per-model routing for a multi-model plan, in [`DeploymentPlan::models`]
    /// order. Empty for single-model plans, which keeps every legacy
    /// dispatch, mask and hedging path untouched.
    model_routes: Vec<ModelRoute>,
    /// Model served by each prefill replica (plan group order).
    prefill_model: Vec<ModelId>,
    /// Model served by each decode replica.
    decode_model: Vec<ModelId>,
    /// Wire codecs per catalog model; searched only on multi-model plans
    /// (the default-model fallback is [`SplitState::codec`]).
    codecs: Vec<(ModelId, KvCodec)>,
}

impl SplitState {
    /// The wire codec for `model`, falling back to the default-model codec.
    fn codec_for(&self, model: ModelId) -> &KvCodec {
        self.codecs
            .iter()
            .find(|(m, _)| *m == model)
            .map_or(&self.codec, |(_, c)| c)
    }
}

/// Colocated topology state: one executor pool serving both phases, with
/// the same believed-liveness routing mask as the split topology. The
/// fault script's `PrefillDown(i)`/`DecodeDown(i)` both mean "replica `i`
/// dies" here (and symmetrically for `*Up`); link faults are rejected
/// because there is no inter-replica fabric.
pub(crate) struct ColoState {
    replicas: Vec<ColocatedExecutor>,
    believed_dead: Vec<bool>,
}

/// Which serving topology the driver runs.
// One Topology exists per simulation (never stored per-event or in bulk),
// so the size gap between variants costs nothing worth an indirection.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Topology {
    /// Phase-split replica pairs with KV transfer.
    Split(SplitState),
    /// Identical-role colocated replicas.
    Colocated(ColoState),
}

/// The shared discrete-event driver behind [`crate::engine::Simulation`]
/// and [`crate::colocated::ColocatedSimulation`].
pub(crate) struct Driver {
    core: Core,
    topo: Topology,
}

/// Whether coalesced decode plans are active: the config knob is on and no
/// straggler threshold demands per-step iteration samples.
fn coalescing_active(core: &Core) -> bool {
    core.cfg.decode_coalescing && core.cfg.straggler_threshold.is_none()
}

impl Driver {
    /// Builds a phase-split driver for `plan` on `cluster`.
    pub fn new_split(cluster: &Cluster, plan: &DeploymentPlan, cfg: SimConfig) -> Result<Self> {
        let prefill_idx = plan.prefill_indices();
        let decode_idx = plan.decode_indices();
        // Insertion-sorted prefill queues replace the per-batch re-sort
        // under pure shortest-first scheduling; chunked prefill keeps FCFS
        // queues (take_chunk needs arrival order).
        let sjf = cfg.prefill_policy == PrefillPolicy::ShortestFirst
            && cfg.prefill_chunk_tokens.is_none();
        // Each group is priced with its own model's spec; on single-model
        // plans every group carries ModelId(0) and the catalog is empty, so
        // `spec_for` resolves to `cfg.model` exactly as before.
        let mut prefills = Vec::with_capacity(prefill_idx.len());
        for &gi in &prefill_idx {
            prefills.push(PrefillExecutor::new(
                ReplicaCostModel::new(
                    cluster,
                    cfg.spec_for(plan.groups[gi].model),
                    &plan.groups[gi],
                    &cfg.params,
                )?,
                sjf,
            ));
        }
        // Replicas that price decode steps identically share one class of
        // step tables (a homogeneous decode pool has exactly one).
        let mut step_tables = DecodeStepTables::new();
        let mut decodes = Vec::with_capacity(decode_idx.len());
        for &gi in &decode_idx {
            let cost = ReplicaCostModel::new(
                cluster,
                cfg.spec_for(plan.groups[gi].model),
                &plan.groups[gi],
                &cfg.params,
            )?;
            let class = step_tables.class_of(&cost);
            decodes.push(DecodeExecutor::new(cost, class));
        }
        let prefill_model: Vec<ModelId> = prefill_idx
            .iter()
            .map(|&gi| plan.groups[gi].model)
            .collect();
        let decode_model: Vec<ModelId> =
            decode_idx.iter().map(|&gi| plan.groups[gi].model).collect();
        let (router, pair_coords) = StrideRouter::from_matrix(plan.routing.rates())?;
        let mut model_routes = Vec::new();
        if plan.is_multi_model() {
            for m in plan.models() {
                let Some(routing) = plan.routing_for(m) else {
                    continue;
                };
                let (mr, local) = StrideRouter::from_matrix(routing.rates())?;
                let pidx = plan.prefill_indices_for(m);
                let didx = plan.decode_indices_for(m);
                let to_global = |own: &[usize], all: &[usize], li: usize| -> Result<usize> {
                    all.iter().position(|&g| g == own[li]).ok_or_else(|| {
                        Error::InvalidConfig(format!(
                            "model {m} routes over a group not in the plan"
                        ))
                    })
                };
                let mut pairs = Vec::with_capacity(local.len());
                for &(li, lj) in &local {
                    pairs.push((
                        to_global(&pidx, &prefill_idx, li)?,
                        to_global(&didx, &decode_idx, lj)?,
                    ));
                }
                model_routes.push(ModelRoute {
                    model: m,
                    router: mr,
                    pairs,
                });
            }
        }
        let mut routes = Vec::with_capacity(prefills.len());
        let mut flow_routes = Vec::with_capacity(prefills.len());
        for p in &prefills {
            let mut row = Vec::with_capacity(decodes.len());
            let mut flow_row = Vec::with_capacity(decodes.len());
            for d in &decodes {
                let legs = kv_route_legs(cluster, &p.cost, &d.cost);
                flow_row.push(flow_endpoints(&legs));
                row.push(legs.iter().map(KvRouteLeg::segment).collect());
            }
            routes.push(row);
            flow_routes.push(flow_row);
        }
        let fabric = if cfg.network_contention && cfg.model_kv_transfer {
            let mut f = FlowFabric::from_cluster(cluster);
            if cfg.telemetry {
                f.enable_telemetry();
            }
            Some(f)
        } else {
            None
        };
        let codec = KvCodec::new(cfg.model.clone(), cfg.kv_precision);
        let codecs: Vec<(ModelId, KvCodec)> = if plan.is_multi_model() {
            cfg.models
                .iter()
                .map(|m| (m.id, KvCodec::new(m.spec.clone(), cfg.kv_precision)))
                .collect()
        } else {
            Vec::new()
        };
        let sender_free_at = vec![SimTime::ZERO; prefills.len()];
        let link_down = vec![vec![false; decodes.len()]; prefills.len()];
        let link_factor = vec![vec![1.0; decodes.len()]; prefills.len()];
        let believed_dead_prefill = vec![false; prefills.len()];
        let believed_dead_decode = vec![false; decodes.len()];
        let (np, nd) = (prefills.len(), decodes.len());
        Ok(Driver {
            core: Core::new(cfg, router, np, np + nd),
            topo: Topology::Split(SplitState {
                prefills,
                decodes,
                step_tables,
                pair_coords,
                kv_memo: vec![vec![None; routes.first().map_or(0, Vec::len)]; routes.len()],
                routes,
                sender_free_at,
                link_down,
                link_factor,
                believed_dead_prefill,
                believed_dead_decode,
                parked: Vec::new(),
                fabric,
                flow_routes,
                codec,
                model_routes,
                prefill_model,
                decode_model,
                codecs,
            }),
        })
    }

    /// Builds a colocated driver over `groups`, each serving both phases.
    /// Requests are routed proportional to each replica's decode
    /// throughput capacity.
    pub fn new_colocated(
        cluster: &Cluster,
        groups: &[GroupSpec],
        cfg: SimConfig,
        policy: ColocatedPolicy,
    ) -> Result<Self> {
        if groups.is_empty() {
            return Err(Error::Infeasible("no replicas".into()));
        }
        // Chunked colocated scheduling interleaves take_chunk with decode
        // turns and needs FCFS order; prefill-priority scheduling under
        // shortest-first keeps its queue insertion-sorted instead of
        // re-sorting per batch.
        let sjf = cfg.prefill_policy == PrefillPolicy::ShortestFirst
            && matches!(policy, ColocatedPolicy::PrefillPriority);
        let mut replicas = Vec::with_capacity(groups.len());
        let mut weights = Vec::with_capacity(groups.len());
        for g in groups {
            let cost = ReplicaCostModel::new(cluster, cfg.spec_for(g.model), g, &cfg.params)?;
            let kv_capacity = cost.kv_capacity_tokens();
            // Route proportional to steady decode throughput at batch 32.
            weights.push(cost.decode_throughput(32.min(kv_capacity / 1024).max(1), 1024));
            replicas.push(ColocatedExecutor::new(cost, policy, sjf));
        }
        let believed_dead = vec![false; replicas.len()];
        let n = replicas.len();
        Ok(Driver {
            core: Core::new(cfg, StrideRouter::new(weights)?, n, n),
            topo: Topology::Colocated(ColoState {
                replicas,
                believed_dead,
            }),
        })
    }

    /// Total occurrences (arrivals + queued events) dispatched so far — the
    /// denominator of the events/sec benchmark.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Runs the trace with mid-flight fault injection. With an empty
    /// script this is a plain (fault-free) run.
    pub fn run_with_faults(
        &mut self,
        requests: &[Request],
        script: &FaultScript,
    ) -> Result<Metrics> {
        self.validate_script(script)?;
        self.core.faults = script.faults.clone();
        self.core.recovery_enabled = script.recovery;
        self.core.gray.beat_period = script.detection_delay;

        // Arrivals are merged lazily from this sorted vector instead of
        // being heap entries. The stable sort keeps submission order among
        // simultaneous arrivals — the seq order the eager pushes gave them.
        self.core.arrivals = requests.to_vec();
        self.core.arrivals.sort_by_key(|r| r.arrival);
        self.core.next_arrival = 0;
        for (idx, f) in self.core.faults.iter().enumerate() {
            self.core
                .queue
                .push(f.at, EventKind::FaultTriggered { index: idx });
            // Detection only matters for deaths, and only when the engine
            // actually recovers; healing and pauses act at trigger time.
            let needs_detection =
                matches!(f.kind, FaultKind::PrefillDown(_) | FaultKind::DecodeDown(_));
            if needs_detection && script.recovery {
                self.core.queue.push(
                    f.at + script.detection_delay,
                    EventKind::FaultDetected { index: idx },
                );
            }
        }
        let submitted = requests.len();
        while let Some(next) = self.core.next_event() {
            match next {
                NextEvent::Arrival(req) => self.on_arrival(req),
                NextEvent::Queued(ev) => self.dispatch_event(ev)?,
            }
        }
        // Anything still in the system when events run dry was lost to a
        // fault it never recovered from (stalled, parked, frozen on a dead
        // replica).
        let leftovers = self.core.reqs.drain();
        if self.core.track_models {
            for (_, st) in &leftovers {
                self.core.model_losses.entry(st.req.model).or_default().0 += 1;
            }
        }
        self.core.dropped += leftovers.len();
        drop(leftovers);
        if self.core.records.len() + self.core.dropped + self.core.rejected != submitted {
            return Err(Error::Simulation(format!(
                "conservation violated: {} completed + {} dropped + {} rejected != {} submitted",
                self.core.records.len(),
                self.core.dropped,
                self.core.rejected,
                submitted
            )));
        }
        if self.core.track_models {
            // The aggregate identity must also hold tenant by tenant: no
            // request may complete as one model and be dropped as another.
            let mut per: BTreeMap<ModelId, ModelConservation> = BTreeMap::new();
            let blank = |m: ModelId| ModelConservation {
                model: m,
                ..ModelConservation::default()
            };
            for r in requests {
                per.entry(r.model)
                    .or_insert_with(|| blank(r.model))
                    .submitted += 1;
            }
            for rec in &self.core.records {
                let m = rec.request.model;
                per.entry(m).or_insert_with(|| blank(m)).completed += 1;
            }
            for (&m, &(dropped, rejected)) in &self.core.model_losses {
                let c = per.entry(m).or_insert_with(|| blank(m));
                c.dropped += dropped;
                c.rejected += rejected;
            }
            for c in per.values() {
                if !c.balanced() {
                    return Err(Error::Simulation(format!(
                        "per-model conservation violated for {}: {} completed + {} dropped \
                         + {} rejected != {} submitted",
                        c.model, c.completed, c.dropped, c.rejected, c.submitted
                    )));
                }
            }
            self.core.recovery.per_model = per.into_values().collect();
            self.core.model_losses.clear();
        }
        // The step tables are scratch of one run (the queue ran dry, so no
        // plan reads them any more): a caller holding several simulations
        // at once keeps only their pricing classes.
        if let Topology::Split(s) = &mut self.topo {
            debug_assert!(
                s.decodes.iter().all(|d| d.plan.is_none()),
                "plan outlived its run"
            );
            s.step_tables.clear_tables();
        }
        // The per-step loop popped (and advanced `now` past) decode events
        // made stale by a replica death; the coalesced loop cancels them
        // instead and folds their fire times into the phantom horizon.
        let horizon = self
            .core
            .now
            .max(self.core.phantom_horizon)
            .saturating_since(SimTime::ZERO);
        Ok(Metrics::with_recovery(
            std::mem::take(&mut self.core.records),
            self.core.dropped,
            self.core.rejected,
            horizon,
            std::mem::take(&mut self.core.recovery),
        ))
    }

    /// Dispatches one queued event to its handler.
    fn dispatch_event(&mut self, ev: Event) -> Result<()> {
        match ev.kind {
            EventKind::PrefillDone { replica, epoch } => {
                let s = self.split_mut("PrefillDone")?;
                if s.prefills[replica].event_is_current(epoch) {
                    let Driver { core, topo } = self;
                    let Topology::Split(s) = topo else {
                        unreachable!()
                    };
                    split_on_prefill_done(core, s, replica)?;
                }
            }
            EventKind::PrefillSlotFree { replica, epoch } => {
                let s = self.split_mut("PrefillSlotFree")?;
                if s.prefills[replica].event_is_current(epoch) {
                    s.prefills[replica].wakeup_scheduled = false;
                    let Driver { core, topo } = self;
                    let Topology::Split(s) = topo else {
                        unreachable!()
                    };
                    split_maybe_start_prefill(core, s, replica);
                }
            }
            EventKind::KvTransferDone {
                replica,
                request,
                attempt,
            } => {
                self.split_mut("KvTransferDone")?;
                let Driver { core, topo } = self;
                let Topology::Split(s) = topo else {
                    unreachable!()
                };
                split_on_transfer_done(core, s, replica, request, attempt)?;
            }
            EventKind::KvFlowLaunch { request, attempt } => {
                self.split_mut("KvFlowLaunch")?;
                let Driver { core, topo } = self;
                let Topology::Split(s) = topo else {
                    unreachable!()
                };
                split_on_flow_launch(core, s, request, attempt);
            }
            EventKind::KvFlowDone { request, epoch } => {
                self.split_mut("KvFlowDone")?;
                let Driver { core, topo } = self;
                let Topology::Split(s) = topo else {
                    unreachable!()
                };
                split_on_flow_done(core, s, request, epoch)?;
            }
            EventKind::DecodeStepDone { replica, epoch } => {
                let s = self.split_mut("DecodeStepDone")?;
                if s.decodes[replica].event_is_current(epoch) {
                    self.on_decode_finish(replica, ev)?;
                }
            }
            EventKind::WorkDone { replica, epoch } => {
                let c = self.colocated_mut()?;
                if c.replicas[replica].event_is_current(epoch) {
                    let Driver { core, topo } = self;
                    let Topology::Colocated(c) = topo else {
                        unreachable!()
                    };
                    colo_on_work_done(core, c, replica)?;
                }
            }
            EventKind::FaultTriggered { index } => self.on_fault_triggered(index),
            EventKind::FaultDetected { index } => self.on_fault_detected(index),
            EventKind::ServiceResumed => self.on_service_resumed(),
            EventKind::HedgeCheck { request } => {
                self.split_mut("HedgeCheck")?;
                let Driver { core, topo } = self;
                let Topology::Split(s) = topo else {
                    unreachable!()
                };
                split_on_hedge_check(core, s, request);
            }
            EventKind::FlakyBeat { node } => self.on_flaky_beat(node),
            EventKind::ReadmitProbe { prefill, replica } => self.on_readmit_probe(prefill, replica),
        }
        Ok(())
    }

    /// Takes the recorded trace of the run, finalized into a time-sorted
    /// [`TraceLog`]; `None` when [`SimConfig::telemetry`] is off. Fabric-side
    /// events (per-link utilization, flow rate changes) are merged here.
    pub fn take_trace(&mut self) -> Option<TraceLog> {
        let mut rec = self.core.trace.take()?;
        if let Topology::Split(s) = &mut self.topo {
            if let Some(f) = s.fabric.as_mut() {
                rec.extend(f.take_events());
            }
        }
        Some(rec.finish())
    }

    /// Takes the streaming observability plane (sketches, windows, burn
    /// monitors) accumulated over the run; `None` when
    /// [`SimConfig::streaming`] is off. The plane's window clock stops at
    /// the last observed event — call
    /// [`StreamingPlane::advance_to`] to close windows out to a horizon.
    pub fn take_streaming(&mut self) -> Option<Box<StreamingPlane>> {
        self.core.stream.take()
    }

    /// Read access to the live streaming plane mid-run, `None` when
    /// [`SimConfig::streaming`] is off.
    pub fn streaming(&self) -> Option<&StreamingPlane> {
        self.core.stream.as_deref()
    }

    /// Split topology or an "event kind in wrong engine" error.
    fn split_mut(&mut self, kind: &str) -> Result<&mut SplitState> {
        match &mut self.topo {
            Topology::Split(s) => Ok(s),
            Topology::Colocated(_) => Err(Error::Simulation(format!(
                "unexpected {kind} event in colocated engine"
            ))),
        }
    }

    /// Colocated topology or an "event kind in wrong engine" error.
    fn colocated_mut(&mut self) -> Result<&mut ColoState> {
        match &mut self.topo {
            Topology::Colocated(c) => Ok(c),
            Topology::Split(_) => Err(Error::Simulation(
                "WorkDone event in phase-split engine".into(),
            )),
        }
    }

    fn validate_script(&self, script: &FaultScript) -> Result<()> {
        let factor_ok = |f: f64| f.is_finite() && f >= 1.0;
        let prob_ok = |p: f64| p.is_finite() && (0.0..=1.0).contains(&p);
        // Flaky heartbeats fire one beat event per detection window; a zero
        // window would self-reschedule at the same instant forever.
        let flaky_needs_window = |p: f64| -> Result<()> {
            if p > 0.0 && script.detection_delay == SimDuration::ZERO {
                return Err(Error::InvalidConfig(
                    "HeartbeatFlaky requires a nonzero detection_delay (the beat window)".into(),
                ));
            }
            Ok(())
        };
        match &self.topo {
            Topology::Split(s) => {
                let np = s.prefills.len();
                let nd = s.decodes.len();
                for f in &script.faults {
                    let ok = match f.kind {
                        FaultKind::PrefillDown(i) | FaultKind::PrefillUp(i) => i < np,
                        FaultKind::DecodeDown(j) | FaultKind::DecodeUp(j) => j < nd,
                        FaultKind::LinkDown { prefill, decode }
                        | FaultKind::LinkUp { prefill, decode } => prefill < np && decode < nd,
                        FaultKind::Pause { .. } => true,
                        FaultKind::PrefillSlow(i, factor) => i < np && factor_ok(factor),
                        FaultKind::DecodeSlow(j, factor) => j < nd && factor_ok(factor),
                        FaultKind::LinkDegraded {
                            prefill,
                            decode,
                            factor,
                        } => prefill < np && decode < nd && factor_ok(factor),
                        FaultKind::HeartbeatFlaky(h, p) => {
                            flaky_needs_window(p)?;
                            h < np + nd && prob_ok(p)
                        }
                    };
                    if !ok {
                        return Err(Error::InvalidConfig(format!(
                            "fault references a replica outside the plan \
                             or carries an invalid factor: {:?}",
                            f.kind
                        )));
                    }
                }
            }
            Topology::Colocated(c) => {
                let n = c.replicas.len();
                for f in &script.faults {
                    let ok = match f.kind {
                        FaultKind::PrefillDown(i)
                        | FaultKind::PrefillUp(i)
                        | FaultKind::DecodeDown(i)
                        | FaultKind::DecodeUp(i) => i < n,
                        FaultKind::LinkDown { .. }
                        | FaultKind::LinkUp { .. }
                        | FaultKind::LinkDegraded { .. } => {
                            return Err(Error::InvalidConfig(
                                "colocated replicas have no inter-replica links to fault".into(),
                            ))
                        }
                        FaultKind::Pause { .. } => true,
                        FaultKind::PrefillSlow(i, factor) | FaultKind::DecodeSlow(i, factor) => {
                            i < n && factor_ok(factor)
                        }
                        FaultKind::HeartbeatFlaky(h, p) => {
                            flaky_needs_window(p)?;
                            h < n && prob_ok(p)
                        }
                    };
                    if !ok {
                        return Err(Error::InvalidConfig(format!(
                            "fault references a replica outside the plan \
                             or carries an invalid factor: {:?}",
                            f.kind
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    fn on_arrival(&mut self, req: Request) {
        let (id, model) = (req.id, req.model);
        let key = self.core.reqs.insert(ReqState::new(req));
        trace(&mut self.core, TraceKind::Arrived { request: id });
        if self.core.track_models {
            trace(&mut self.core, TraceKind::ModelTag { request: id, model });
        }
        // Flaky heartbeat beats pause while no requests are outstanding (so
        // the event queue can drain); restart them with the new work.
        if self.core.gray.flaky_any {
            for node in 0..self.core.gray.flaky.len() {
                if self.core.gray.flaky[node] > 0.0 && !self.core.gray.flaky_scheduled[node] {
                    self.core.gray.flaky_scheduled[node] = true;
                    let at = self.core.now + self.core.gray.beat_period;
                    self.core.queue.push(at, EventKind::FlakyBeat { node });
                }
            }
        }
        let job = PrefillJob::fresh(key, &self.core.reqs[key].req);
        self.dispatch_job(job);
    }

    /// Routes a job to a live destination (a (prefill, decode) pair under
    /// `Split`, a replica under `Colocated`), or stalls/sheds it if the
    /// service is paused or no live route exists.
    fn dispatch_job(&mut self, job: PrefillJob) {
        let Some(st) = self.core.reqs.get(job.key) else {
            return;
        };
        let (rid, model, arrival) = (st.req.id, st.req.model, st.req.arrival);
        // SLO-class-aware shedding: a request whose TTFT deadline already
        // passed before its prefill could even be dispatched (it sat
        // stalled through a pause or dead-router window, or is being
        // requeued after a fault) is not worth serving. Fires only for
        // delayed dispatches — at arrival `now == arrival`, so an
        // on-time request is never shed. Re-prefills of sequences that
        // already produced their first token are exempt: their TTFT was
        // met.
        if let Some(slo) = self.core.cfg.deadline_slo {
            let ttft_met = st.pend.first_token_at.is_some();
            let deadline = arrival + slo.ttft.mul_f64(self.core.cfg.deadline_scale);
            if !ttft_met && self.core.now > deadline {
                reject_request(&mut self.core, job.key);
                self.core.recovery.deadline_shed += 1;
                trace(&mut self.core, TraceKind::DeadlineShed { request: rid });
                clear_affected(&mut self.core, rid);
                return;
            }
        }
        if self.core.paused_until.is_some() {
            stall_or_shed(&mut self.core, job);
            return;
        }
        // Multi-model plans route by the request's model through that
        // tenant's own router, so a tenant never lands on another tenant's
        // executors; single-model plans, colocated engines, and requests
        // for a model the plan does not serve use the global router.
        let route = match &self.topo {
            Topology::Split(s) if !s.model_routes.is_empty() => {
                s.model_routes.iter().position(|r| r.model == model)
            }
            _ => None,
        };
        let Driver { core, topo } = self;
        let (i, j) = match (route, &mut *topo) {
            (Some(ri), Topology::Split(s)) => {
                let r = &mut s.model_routes[ri];
                if r.router.num_enabled() == 0 {
                    stall_or_shed(core, job);
                    return;
                }
                r.pairs[r.router.next()]
            }
            _ => {
                if core.router.num_enabled() == 0 {
                    stall_or_shed(core, job);
                    return;
                }
                let k = core.router.next();
                match &*topo {
                    Topology::Split(s) => s.pair_coords[k],
                    Topology::Colocated(_) => (k, k),
                }
            }
        };
        match topo {
            Topology::Split(s) => {
                if let Some(st) = core.reqs.get_mut(job.key) {
                    st.pend.prefill = i;
                    st.pend.decode = j;
                }
                let key = job.key;
                s.prefills[i].queue.enqueue(job);
                trace(
                    core,
                    TraceKind::Enqueued {
                        request: rid,
                        role: Role::Prefill,
                        replica: i,
                    },
                );
                trace(
                    core,
                    TraceKind::QueueDepth {
                        role: Role::Prefill,
                        replica: i,
                        depth: s.prefills[i].queue.queue.len(),
                    },
                );
                split_maybe_start_prefill(core, s, i);
                if let Some(timeout) = core.cfg.hedge_timeout {
                    core.queue
                        .push(core.now + timeout, EventKind::HedgeCheck { request: key });
                }
            }
            Topology::Colocated(c) => {
                if let Some(st) = core.reqs.get_mut(job.key) {
                    st.pend.prefill = i;
                    st.pend.decode = i;
                }
                c.replicas[i].prefill.enqueue(job);
                trace(
                    core,
                    TraceKind::Enqueued {
                        request: rid,
                        role: Role::Colocated,
                        replica: i,
                    },
                );
                trace(
                    core,
                    TraceKind::QueueDepth {
                        role: Role::Colocated,
                        replica: i,
                        depth: c.replicas[i].prefill.queue.len(),
                    },
                );
                colo_maybe_start_work(core, c, i);
            }
        }
    }

    // --- fault layer ------------------------------------------------------

    fn on_fault_triggered(&mut self, index: usize) {
        trace(&mut self.core, TraceKind::FaultTriggered { index });
        let kind = self.core.faults[index].kind;
        // Pauses are topology-agnostic.
        if let FaultKind::Pause { until } = kind {
            if until > self.core.now {
                self.core.paused_until = Some(until);
                self.core.queue.push(until, EventKind::ServiceResumed);
            }
            return;
        }
        // So are flaky heartbeats (the host index already encodes the
        // prefill/decode split).
        if let FaultKind::HeartbeatFlaky(node, p) = kind {
            self.set_flaky(node, p);
            return;
        }
        match &mut self.topo {
            Topology::Split(s) => match kind {
                FaultKind::PrefillDown(i) => s.prefills[i].kill(),
                FaultKind::DecodeDown(j) => {
                    // The batch must freeze at its materially-advanced
                    // state: step boundaries strictly before the fault did
                    // complete under the per-step loop (their events were
                    // pre-death and current). The in-flight step dies with
                    // the replica; its scheduled fire time is folded into
                    // the phantom horizon because the per-step loop would
                    // still have popped (and advanced `now` past) the
                    // stale event.
                    let Driver { core, topo } = self;
                    let Topology::Split(s) = topo else {
                        unreachable!()
                    };
                    split_catch_up_decode(core, s, j);
                    split_cancel_decode_plan(core, s, j);
                    s.decodes[j].kill();
                }
                FaultKind::PrefillUp(i) => {
                    let now = self.core.now;
                    // Work frozen at death never re-runs on its own (its
                    // completion events are stale); restart it or declare
                    // it lost.
                    s.prefills[i].revive(now);
                    let drained = s.prefills[i].drain_lost();
                    s.believed_dead_prefill[i] = false;
                    split_refresh_router(&mut self.core, s);
                    if self.core.recovery_enabled {
                        self.recover_drained(drained, None);
                        self.drain_stalled();
                    } else {
                        self.drop_drained(drained);
                    }
                }
                FaultKind::DecodeUp(j) => {
                    let now = self.core.now;
                    // Sequences frozen at death lost their KV either way.
                    // Healing an *alive* replica (an Up without a Down)
                    // still bumps the epoch and clears the plan, so settle
                    // the plan first exactly as a death would.
                    let Driver { core, topo } = self;
                    let Topology::Split(s) = topo else {
                        unreachable!()
                    };
                    split_catch_up_decode(core, s, j);
                    split_cancel_decode_plan(core, s, j);
                    s.decodes[j].revive(now);
                    let drained = s.decodes[j].drain_lost();
                    s.believed_dead_decode[j] = false;
                    split_refresh_router(core, s);
                    if self.core.recovery_enabled {
                        self.recover_drained(drained, None);
                        let Driver { core, topo } = self;
                        let Topology::Split(s) = topo else {
                            unreachable!()
                        };
                        let parked = std::mem::take(&mut s.parked);
                        for t in parked {
                            split_redispatch_transfer(core, s, t);
                        }
                        self.drain_stalled();
                    } else {
                        self.drop_drained(drained);
                    }
                }
                FaultKind::LinkDown { prefill, decode } => {
                    s.link_down[prefill][decode] = true;
                    // Under the flow-level fabric the fault is visible
                    // immediately: in-flight flows on the link die now and
                    // re-enter through the usual retry/backoff path. (The
                    // legacy model instead notices at completion time.)
                    if s.fabric.is_some() {
                        let Driver { core, topo } = self;
                        let Topology::Split(s) = topo else {
                            unreachable!()
                        };
                        split_kill_link_flows(core, s, prefill, decode);
                    }
                }
                FaultKind::LinkUp { prefill, decode } => {
                    s.link_down[prefill][decode] = false;
                }
                FaultKind::PrefillSlow(i, factor) => s.prefills[i].slow_factor = factor,
                FaultKind::DecodeSlow(j, factor) => {
                    // A coalesced plan priced its remaining boundaries at
                    // the old speed; the per-step loop would have priced
                    // every step after the in-flight one at the new speed.
                    // Catch up, apply the factor, and re-plan carrying the
                    // already-committed in-flight boundary.
                    let Driver { core, topo } = self;
                    let Topology::Split(s) = topo else {
                        unreachable!()
                    };
                    split_catch_up_decode(core, s, j);
                    s.decodes[j].slow_factor = factor;
                    if coalescing_active(core) && s.decodes[j].plan.is_some() {
                        split_replan_decode(core, s, j);
                    }
                }
                FaultKind::LinkDegraded {
                    prefill,
                    decode,
                    factor,
                } => {
                    s.link_factor[prefill][decode] = factor;
                    // Under the fabric the degradation applies to the
                    // pair's physical links, re-fair-sharing every
                    // in-flight flow live (other pairs sharing those links
                    // feel it too, as on a real network).
                    if s.fabric.is_some() {
                        let now = self.core.now;
                        let Driver { core, topo } = self;
                        let Topology::Split(s) = topo else {
                            unreachable!()
                        };
                        let (from, to, _) = s.flow_routes[prefill][decode];
                        let estimates = match s.fabric.as_mut() {
                            Some(f) => f.degrade_path(from, to, factor, now),
                            None => unreachable!(),
                        };
                        schedule_flow_events(core, estimates);
                    }
                }
                FaultKind::Pause { .. } | FaultKind::HeartbeatFlaky(..) => unreachable!(),
            },
            Topology::Colocated(c) => match kind {
                // A colocated replica hosts both phases: either phase's
                // death (or healing) is the whole replica's.
                FaultKind::PrefillDown(i) | FaultKind::DecodeDown(i) => c.replicas[i].kill(),
                FaultKind::PrefillUp(i) | FaultKind::DecodeUp(i) => {
                    let now = self.core.now;
                    c.replicas[i].revive(now);
                    let drained = c.replicas[i].drain_lost();
                    c.believed_dead[i] = false;
                    colo_refresh_router(&mut self.core, c);
                    if self.core.recovery_enabled {
                        self.recover_drained(drained, None);
                        self.drain_stalled();
                    } else {
                        self.drop_drained(drained);
                    }
                }
                // A colocated replica hosts both phases, so either slow
                // kind slows the whole replica.
                FaultKind::PrefillSlow(i, factor) | FaultKind::DecodeSlow(i, factor) => {
                    c.replicas[i].slow_factor = factor
                }
                FaultKind::LinkDown { .. }
                | FaultKind::LinkUp { .. }
                | FaultKind::LinkDegraded { .. } => {
                    unreachable!("rejected by validate_script")
                }
                FaultKind::Pause { .. } | FaultKind::HeartbeatFlaky(..) => unreachable!(),
            },
        }
    }

    fn on_fault_detected(&mut self, index: usize) {
        trace(&mut self.core, TraceKind::FaultDetected { index });
        let at = self.core.faults[index].at;
        let kind = self.core.faults[index].kind;
        let drained = match (&mut self.topo, kind) {
            (Topology::Split(s), FaultKind::PrefillDown(i)) => {
                if s.prefills[i].is_alive() {
                    None // blipped back up before detection; healed already
                } else {
                    s.believed_dead_prefill[i] = true;
                    split_refresh_router(&mut self.core, s);
                    Some(s.prefills[i].drain_lost())
                }
            }
            (Topology::Split(s), FaultKind::DecodeDown(j)) => {
                if s.decodes[j].is_alive() {
                    None
                } else {
                    s.believed_dead_decode[j] = true;
                    split_refresh_router(&mut self.core, s);
                    Some(s.decodes[j].drain_lost())
                }
            }
            (Topology::Colocated(c), FaultKind::PrefillDown(i) | FaultKind::DecodeDown(i)) => {
                if c.replicas[i].is_alive() {
                    None
                } else {
                    c.believed_dead[i] = true;
                    colo_refresh_router(&mut self.core, c);
                    Some(c.replicas[i].drain_lost())
                }
            }
            _ => None,
        };
        if let Some(d) = drained {
            self.recover_drained(d, Some(at));
        }
    }

    /// Recovers drained work onto survivors: queued/in-flight prefill jobs
    /// are requeued as-is, lost decode sequences are re-prefilled over
    /// their full context. `fault_at` registers the affected set for
    /// time-to-recover accounting (detection path only). Jobs whose slab
    /// entry is gone (a hedge ghost of a request that already resolved)
    /// are dropped on the floor.
    fn recover_drained(&mut self, drained: DrainedWork, fault_at: Option<SimTime>) {
        let mut jobs: Vec<PrefillJob> = Vec::new();
        for job in drained.prefill_jobs {
            let Some(st) = self.core.reqs.get(job.key) else {
                continue;
            };
            let rid = st.req.id;
            self.core.recovery.requeued_requests += 1;
            trace(&mut self.core, TraceKind::Requeued { request: rid });
            jobs.push(job);
        }
        for lost in drained.lost_seqs {
            let Some(st) = self.core.reqs.get(lost.key) else {
                continue;
            };
            let rid = st.req.id;
            self.core.recovery.reprefilled_tokens += lost.tokens;
            trace(
                &mut self.core,
                TraceKind::Reprefill {
                    request: rid,
                    tokens: lost.tokens,
                },
            );
            jobs.push(PrefillJob {
                key: lost.key,
                tokens: lost.tokens,
                remaining: lost.remaining,
                resume: lost.resume,
            });
        }
        if let Some(at) = fault_at {
            let ids: BTreeSet<RequestId> = jobs
                .iter()
                .filter_map(|j| self.core.reqs.get(j.key).map(|st| st.req.id))
                .collect();
            if !ids.is_empty() {
                self.core.affected.push((at, ids));
            }
        }
        for job in &jobs {
            // A requeued/re-prefilled job must be able to launch its KV
            // transfer again: clear the hedging duplicate-launch guard, or
            // the recovered prefill's completion would be discarded.
            if let Some(st) = self.core.reqs.get_mut(job.key) {
                st.pend.kv_launched = false;
                st.pend.hedge = None;
            }
        }
        for job in jobs {
            self.dispatch_job(job);
        }
    }

    /// Drops drained work without recovery (the no-recovery arm of a
    /// healing event: the work was lost for good).
    fn drop_drained(&mut self, drained: DrainedWork) {
        for job in drained.prefill_jobs {
            drop_request(&mut self.core, job.key);
        }
        for lost in drained.lost_seqs {
            if self.core.reqs.contains(lost.key) {
                drop_request(&mut self.core, lost.key);
            }
        }
    }

    fn drain_stalled(&mut self) {
        if self.core.paused_until.is_some() || self.core.router.num_enabled() == 0 {
            return;
        }
        let stalled = std::mem::take(&mut self.core.stalled);
        for job in stalled {
            self.dispatch_job(job);
        }
    }

    fn on_service_resumed(&mut self) {
        // Pauses can be extended by a later Pause fault; only resume at the
        // latest deadline.
        if let Some(until) = self.core.paused_until {
            if until > self.core.now {
                return;
            }
        }
        self.core.paused_until = None;
        trace(&mut self.core, TraceKind::ServiceResumed);
        self.drain_stalled();
    }

    // --- gray-failure mitigation layer -----------------------------------

    /// The telemetry (role, replica) of host `node` under this topology.
    fn host_role(&self, node: usize) -> (Role, usize) {
        match &self.topo {
            Topology::Split(_) => self.core.split_host_role(node),
            Topology::Colocated(_) => (Role::Colocated, node),
        }
    }

    /// Re-derives the routing mask (liveness beliefs + gray masking).
    fn refresh_router(&mut self) {
        let Driver { core, topo } = self;
        match topo {
            Topology::Split(s) => split_refresh_router(core, s),
            Topology::Colocated(c) => colo_refresh_router(core, c),
        }
    }

    /// Applies a [`FaultKind::HeartbeatFlaky`] trigger: records the loss
    /// probability, starts the beat clock if needed, and — on healing —
    /// readmits a host stuck masked by a false positive.
    fn set_flaky(&mut self, node: usize, p: f64) {
        self.core.gray.flaky[node] = p;
        if p > 0.0 {
            self.core.gray.flaky_any = true;
            if !self.core.gray.flaky_scheduled[node] {
                self.core.gray.flaky_scheduled[node] = true;
                let at = self.core.now + self.core.gray.beat_period;
                self.core.queue.push(at, EventKind::FlakyBeat { node });
            }
        } else {
            self.core.gray.flaky_any = self.core.gray.flaky.iter().any(|&q| q > 0.0);
            if self.core.gray.flaky_dead[node] {
                self.readmit_flaky(node);
            }
        }
    }

    /// One heartbeat window elapsed for `node`: draw whether the beat was
    /// lost and mask/readmit accordingly, then reschedule while requests
    /// remain (beats pause on an idle system so the event queue drains;
    /// [`Driver::on_arrival`] restarts them).
    fn on_flaky_beat(&mut self, node: usize) {
        let p = self.core.gray.flaky[node];
        if p <= 0.0 {
            self.core.gray.flaky_scheduled[node] = false;
            return;
        }
        let lost = self.core.gray.rng.gen_range(0.0..1.0) < p;
        if lost && !self.core.gray.flaky_dead[node] {
            self.core.gray.flaky_dead[node] = true;
            self.core.recovery.quarantines += 1;
            let (role, replica) = self.host_role(node);
            trace(&mut self.core, TraceKind::Quarantined { role, replica });
            self.refresh_router();
        } else if !lost && self.core.gray.flaky_dead[node] {
            self.readmit_flaky(node);
        }
        if self.core.reqs.is_empty() {
            self.core.gray.flaky_scheduled[node] = false;
            return;
        }
        let at = self.core.now + self.core.gray.beat_period;
        self.core.queue.push(at, EventKind::FlakyBeat { node });
    }

    /// A delivered beat (or a healing fault) readmits a host masked by a
    /// flaky-heartbeat false positive.
    fn readmit_flaky(&mut self, node: usize) {
        self.core.gray.flaky_dead[node] = false;
        self.core.recovery.readmissions += 1;
        let (role, replica) = self.host_role(node);
        trace(&mut self.core, TraceKind::Readmitted { role, replica });
        self.refresh_router();
        if self.core.recovery_enabled {
            self.drain_stalled();
        }
    }

    /// A quarantine probation ended: readmit the replica unless a later
    /// re-quarantine pushed its expiry out (stale probe). The straggler
    /// detector restarts from scratch — if the replica is still slow it
    /// re-quarantines after `straggler_min_samples` fresh iterations.
    fn on_readmit_probe(&mut self, prefill: bool, replica: usize) {
        let host = match &self.topo {
            Topology::Split(_) => self.core.host_of(prefill, replica),
            Topology::Colocated(_) => replica,
        };
        let Some(until) = self.core.gray.quarantine_until[host] else {
            return;
        };
        if self.core.now < until {
            return; // superseded by a re-quarantine
        }
        self.core.gray.quarantined[host] = false;
        self.core.gray.quarantine_until[host] = None;
        self.core.gray.slow_ewma[host] = 1.0;
        self.core.gray.slow_samples[host] = 0;
        self.core.recovery.readmissions += 1;
        let (role, replica) = self.host_role(host);
        trace(&mut self.core, TraceKind::Readmitted { role, replica });
        self.refresh_router();
        if self.core.recovery_enabled {
            self.drain_stalled();
        }
    }
}

impl Core {
    fn new(cfg: SimConfig, router: StrideRouter, prefill_hosts: usize, total_hosts: usize) -> Self {
        let trace = cfg.telemetry.then(Recorder::new);
        let stream = cfg.streaming.clone().map(|sc| {
            let mut plane = StreamingPlane::new(sc);
            for m in &cfg.models {
                plane.register_tenant(m.id, m.slo);
            }
            Box::new(plane)
        });
        let gray = GrayState::new(cfg.fault_seed, prefill_hosts, total_hosts);
        let track_models = !cfg.models.is_empty();
        Core {
            cfg,
            router,
            queue: EventQueue::new(),
            reqs: Slab::new(),
            records: Vec::new(),
            dropped: 0,
            rejected: 0,
            now: SimTime::ZERO,
            faults: Vec::new(),
            recovery_enabled: true,
            stalled: VecDeque::new(),
            paused_until: None,
            recovery: RecoveryCounters::default(),
            affected: Vec::new(),
            trace,
            stream,
            gray,
            track_models,
            model_losses: HashMap::new(),
            arrivals: Vec::new(),
            next_arrival: 0,
            events_processed: 0,
            event_pushed_at: SimTime::ZERO,
            phantom_horizon: SimTime::ZERO,
            held_decode: Vec::new(),
        }
    }

    /// Pops the next occurrence — the cursor arrival or the queue head,
    /// whichever is earlier — advancing the clock and stamping
    /// [`Core::event_pushed_at`]. Ties go to the arrival: under the eager
    /// scheme arrivals were pushed at setup, before any simulation event,
    /// so they carried the smaller sequence numbers.
    fn next_event(&mut self) -> Option<NextEvent> {
        let arrival = self.arrivals.get(self.next_arrival).map(|r| r.arrival);
        let queued = self.queue.peek().map(|e| e.at);
        let take_arrival = match (arrival, queued) {
            (Some(a), Some(q)) => a <= q,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if take_arrival {
            let req = self.arrivals[self.next_arrival];
            self.next_arrival += 1;
            debug_assert!(req.arrival >= self.now, "arrival in the past");
            self.now = req.arrival;
            self.queue.set_now(self.now);
            self.event_pushed_at = SimTime::ZERO;
            self.events_processed += 1;
            Some(NextEvent::Arrival(req))
        } else {
            let ev = self.queue.pop()?;
            debug_assert!(ev.at >= self.now, "event in the past");
            self.now = ev.at;
            self.queue.set_now(self.now);
            self.event_pushed_at = ev.pushed_at;
            self.events_processed += 1;
            Some(NextEvent::Queued(ev))
        }
    }

    /// Removes and returns the deferred decode-finish stamp for replica
    /// `j`, if one is held.
    fn take_held_decode(&mut self, j: usize) -> Option<(u64, SimTime)> {
        let pos = self.held_decode.iter().position(|h| h.0 == j)?;
        let (_, seq, pushed_at) = self.held_decode.swap_remove(pos);
        Some((seq, pushed_at))
    }

    /// The host index of a replica (prefills first, then decodes; the
    /// `prefill` flag is meaningless for colocated drivers, whose hosts and
    /// replicas coincide).
    fn host_of(&self, prefill: bool, replica: usize) -> usize {
        if prefill {
            replica
        } else {
            self.gray.prefill_hosts + replica
        }
    }

    /// The telemetry (role, replica) of host `node` for a split driver.
    fn split_host_role(&self, node: usize) -> (Role, usize) {
        if node < self.gray.prefill_hosts {
            (Role::Prefill, node)
        } else {
            (Role::Decode, node - self.gray.prefill_hosts)
        }
    }
}

/// Records a trace event at the current simulation time; a single-branch
/// no-op when telemetry is off.
#[inline]
fn trace(core: &mut Core, kind: TraceKind) {
    let at = core.now;
    trace_at(core, at, kind);
}

/// Records a trace event stamped at `at`, which may lie in the future (a
/// KV wire start scheduled behind a busy uplink); the recorder re-sorts by
/// timestamp at finalization, while the streaming plane folds in event
/// order (its window clock advances on a high-water mark, so a future
/// stamp just opens the window early — deterministically).
#[inline]
fn trace_at(core: &mut Core, at: SimTime, kind: TraceKind) {
    if let Some(plane) = core.stream.as_mut() {
        plane.observe(at, &kind);
    }
    if let Some(rec) = core.trace.as_mut() {
        rec.record(TraceEvent { at, kind });
    }
}

/// Whether any event consumer (trace recorder or streaming plane) is
/// attached — the gate instrumented hot paths check before doing
/// observation-only work (retroactive decode materialization, queue-depth
/// samples, per-batch byte accounting).
fn observing(core: &Core) -> bool {
    core.trace.is_some() || core.stream.is_some()
}

/// Whether the full trace recorder is attached. Emission sites whose
/// events the streaming plane ignores (prefill-start markers, KV wire
/// byte accounting, stall markers) gate on this instead of [`observing`],
/// so a streaming-only run skips constructing them entirely — part of
/// keeping the plane's overhead within the committed `BENCH_obs.json`
/// budget.
fn tracing(core: &Core) -> bool {
    core.trace.is_some()
}

/// Whether burn-gated hedging currently *suppresses* a hedge launch: the
/// knob is on and the streaming plane (if any) reports fully healthy SLO
/// burn. With the knob off (the default) hedging behaviour is untouched
/// and bit-identical.
fn hedge_suppressed(core: &Core) -> bool {
    if !core.cfg.burn_gated_hedging {
        return false;
    }
    match core.stream.as_deref() {
        Some(plane) => plane.global_signal().state == HealthState::Healthy,
        None => false,
    }
}

// --- topology-agnostic helpers (free functions over Core) ----------------

/// Removes `key` from the slab and books the loss as a rejection (counted
/// per-model when the catalog is non-empty). The trace event and any
/// policy-specific accounting stay with the caller, which knows *why* the
/// request was rejected. A dead key is a no-op: the loss was already
/// booked when the entry went away.
fn reject_request(core: &mut Core, key: SlabKey) {
    let Some(st) = core.reqs.remove(key) else {
        return;
    };
    if core.track_models {
        core.model_losses.entry(st.req.model).or_default().1 += 1;
    }
    core.rejected += 1;
}

fn stall_or_shed(core: &mut Core, job: PrefillJob) {
    if core.stalled.len() < core.cfg.shed_threshold {
        if tracing(core) {
            let rid = core.reqs[job.key].req.id;
            trace(core, TraceKind::Stalled { request: rid });
        }
        core.stalled.push_back(job);
    } else {
        let rid = core.reqs.get(job.key).map(|st| st.req.id);
        reject_request(core, job.key);
        if let Some(rid) = rid {
            trace(core, TraceKind::Rejected { request: rid });
            clear_affected(core, rid);
        }
    }
}

/// Removes `key` from the slab and books the loss as a drop. A dead key
/// (a hedge ghost of a request that already resolved) is a no-op.
fn drop_request(core: &mut Core, key: SlabKey) {
    let Some(st) = core.reqs.remove(key) else {
        return;
    };
    let id = st.req.id;
    if core.track_models {
        core.model_losses.entry(st.req.model).or_default().0 += 1;
    }
    core.dropped += 1;
    trace(core, TraceKind::Dropped { request: id });
    clear_affected(core, id);
}

/// Marks `id` no longer waiting on fault recovery; records a fault's
/// time-to-recover when its last affected request resolves. The empty
/// check keeps the fault-free fast path allocation-free.
fn clear_affected(core: &mut Core, id: RequestId) {
    if core.affected.is_empty() {
        return;
    }
    let now = core.now;
    let mut recovered_at = Vec::new();
    for (at, set) in &mut core.affected {
        if set.remove(&id) && set.is_empty() {
            recovered_at.push(now.saturating_since(*at));
        }
    }
    core.recovery.recovery_times.extend(recovered_at);
}

/// Applies one admission pass's decisions, in order: evictions become
/// drops, admissions resolve fault-recovery tracking (and, under
/// telemetry, mark the sequence's decode-batch join on `replica`).
/// Returns whether anything was admitted.
fn apply_admit_outcomes(
    core: &mut Core,
    outcomes: Vec<AdmitOutcome>,
    role: Role,
    replica: usize,
) -> bool {
    let mut admitted = false;
    for o in outcomes {
        match o {
            AdmitOutcome::Dropped(key) => drop_request(core, key),
            AdmitOutcome::Admitted(key) => {
                admitted = true;
                if let Some(st) = core.reqs.get(key) {
                    let rid = st.req.id;
                    trace(
                        core,
                        TraceKind::DecodeJoin {
                            request: rid,
                            role,
                            replica,
                        },
                    );
                    clear_affected(core, rid);
                }
            }
        }
    }
    admitted
}

fn finish(core: &mut Core, key: SlabKey, at: SimTime, max_token_gap: SimDuration) -> Result<()> {
    let st = core
        .reqs
        .remove(key)
        .ok_or_else(|| Error::Simulation(format!("finish without request state: {key}")))?;
    let (req, pend) = (st.req, st.pend);
    let first = pend
        .first_token_at
        .ok_or_else(|| Error::Simulation(format!("finish before prefill: {}", req.id)))?;
    // KV-transfer decomposition: queue wait on the sender, then wire time.
    // Requests that never transferred (colocated, single-token) record zero.
    let kv_queue_wait = match (pend.kv_enqueued_at, pend.kv_wire_started_at) {
        (Some(enq), Some(wire)) => wire.saturating_since(enq),
        _ => SimDuration::ZERO,
    };
    let kv_wire_time = match (pend.kv_wire_started_at, pend.kv_done_at) {
        (Some(wire), Some(done)) => done.saturating_since(wire),
        _ => SimDuration::ZERO,
    };
    core.records.push(RequestRecord {
        request: req,
        prefill_replica: pend.prefill,
        decode_replica: pend.decode,
        first_token_at: first,
        finished_at: at,
        max_token_gap,
        kv_queue_wait,
        kv_wire_time,
        kv_done_at: pend.kv_done_at,
    });
    trace_at(core, at, TraceKind::Finished { request: req.id });
    clear_affected(core, req.id);
    Ok(())
}

/// Exponential backoff for transfer attempt `attempt` (2 = first retry):
/// `base * 2^(attempt-2)`, capped — then stretched by a seeded jitter draw
/// in `[1, 1 + kv_retry_jitter]` when the jitter knob is on (the RNG is
/// untouched at the default of 0, preserving bit-identity).
fn retry_backoff(core: &mut Core, attempt: u32) -> SimDuration {
    let base = core.cfg.kv_retry_backoff_base;
    let cap = core.cfg.kv_retry_backoff_cap;
    let mut delay = base;
    for _ in 2..attempt {
        delay = delay + delay;
        if delay >= cap {
            delay = cap;
            break;
        }
    }
    delay = delay.min(cap);
    let jitter = core.cfg.kv_retry_jitter;
    if jitter > 0.0 {
        let stretch = 1.0 + core.gray.rng.gen_range(0.0..1.0) * jitter;
        delay = delay.mul_f64(stretch);
    }
    delay
}

/// Checks the per-request retry budget for a transfer about to run
/// `attempt` (already incremented). Returns `true` — after dropping the
/// request and counting the exhaustion — when the budget is spent.
/// Attempt 1 is the initial send, so a budget of `b` allows attempts up to
/// `b + 1`.
fn retry_budget_spent(core: &mut Core, key: SlabKey, attempt: u32) -> bool {
    let Some(budget) = core.cfg.kv_retry_budget else {
        return false;
    };
    if attempt <= budget + 1 {
        return false;
    }
    core.recovery.retry_budget_exhausted += 1;
    drop_request(core, key);
    true
}

// --- split-topology handlers ---------------------------------------------

fn split_maybe_start_prefill(core: &mut Core, s: &mut SplitState, i: usize) {
    let p = &mut s.prefills[i];
    if !p.is_alive() || p.queue.is_empty() {
        return;
    }
    if p.next_free > core.now {
        // First stage still occupied: wake up when it frees.
        if !p.wakeup_scheduled {
            p.wakeup_scheduled = true;
            core.queue.push(
                p.next_free,
                EventKind::PrefillSlotFree {
                    replica: i,
                    epoch: p.epoch(),
                },
            );
        }
        return;
    }
    let (batch, total, avg_ctx) = if let Some(chunk) = core.cfg.prefill_chunk_tokens {
        // Chunked prefill on a disaggregated prefill replica: bounded
        // per-launch token count, Sarathi-style.
        let (batch, tokens) = p.queue.take_chunk(chunk);
        let avg = batch
            .first()
            .map(|j| j.tokens)
            .unwrap_or_else(|| tokens.max(1));
        (batch, tokens.max(1), avg)
    } else {
        // Recycle a retired batch buffer so steady-state launches do not
        // allocate.
        let mut batch = p.spare_batches.pop().unwrap_or_default();
        let total = p.queue.take_batch_into(
            core.cfg.max_prefill_batch_tokens,
            core.cfg.prefill_policy,
            &mut batch,
        );
        let avg = total / batch.len() as u64;
        (batch, total, avg)
    };
    if tracing(core) {
        for job in &batch {
            // A hedge ghost (its request already resolved) prefills without
            // a slab entry; it has no id to trace.
            if let Some(st) = core.reqs.get(job.key) {
                let rid = st.req.id;
                trace(
                    core,
                    TraceKind::PrefillStart {
                        request: rid,
                        role: Role::Prefill,
                        replica: i,
                        tokens: job.tokens,
                    },
                );
            }
        }
    }
    if observing(core) {
        let depth = p.queue.queue.len();
        trace(
            core,
            TraceKind::QueueDepth {
                role: Role::Prefill,
                replica: i,
                depth,
            },
        );
    }
    // Batch pricing goes through the executor's one-entry memo: traces
    // with repeated prompt lengths form the same batch shape over and
    // over, and both pricing functions are pure in `(total, avg_ctx)`.
    let (mut latency, mut bottleneck) = match p.price_memo {
        Some((t, c, lat, bot)) if t == total && c == avg_ctx => (lat, bot),
        _ => {
            let lat = p.cost.prefill_latency(total, avg_ctx);
            // Pipeline parallelism: the next batch may enter once the
            // slowest stage has processed this one; the batch itself
            // completes after the full pipeline latency.
            let bot = p.cost.prefill_bottleneck(total, avg_ctx);
            p.price_memo = Some((total, avg_ctx, lat, bot));
            (lat, bot)
        }
    };
    // Straggler fault: iteration times stretch. Skipped entirely at the
    // healthy factor of exactly 1 so the default path never rounds
    // through the multiply.
    if p.slow_factor != 1.0 {
        latency = latency.mul_f64(p.slow_factor);
        bottleneck = bottleneck.mul_f64(p.slow_factor);
    }
    p.next_free = core.now + bottleneck;
    p.in_flight.push_back(batch);
    core.queue.push(
        core.now + latency,
        EventKind::PrefillDone {
            replica: i,
            epoch: p.epoch(),
        },
    );
}

fn split_on_prefill_done(core: &mut Core, s: &mut SplitState, i: usize) -> Result<()> {
    let batch = s.prefills[i]
        .in_flight
        .pop_front()
        .ok_or_else(|| Error::Simulation("prefill done with nothing in flight".into()))?;
    if core.cfg.straggler_threshold.is_some() {
        split_observe_straggler(core, s, true, i);
    }
    let now = core.now;
    let mut batch = batch;
    for job in batch.drain(..) {
        // Hedged duplicates race, first completion wins: the loser finds
        // the request finished (single-token outputs) or its KV transfer
        // already launched, and is discarded here.
        let (rid, newly_first, jdec, loser) = {
            let Some(st) = core.reqs.get_mut(job.key) else {
                continue;
            };
            let rid = st.req.id;
            let pend = &mut st.pend;
            if pend.kv_launched {
                continue;
            }
            // Re-prefills keep their original first-token time: TTFT was
            // already paid, recovery shows up in inter-token gaps instead.
            let newly_first = pend.first_token_at.is_none();
            if newly_first {
                pend.first_token_at = Some(now);
            }
            // The winner of a hedge race fixes the (prefill, decode) pair;
            // the loser's still-queued copy is cancelled below (an
            // in-flight copy is discarded at its own completion instead).
            let mut loser = None;
            if let Some((hp, hd)) = pend.hedge.take() {
                if hp == i {
                    core.recovery.hedges_won += 1;
                    loser = Some(pend.prefill);
                    pend.prefill = hp;
                    pend.decode = hd;
                } else {
                    loser = Some(hp);
                }
            }
            if job.remaining != 0 {
                pend.kv_launched = true;
            }
            (rid, newly_first, pend.decode, loser)
        };
        trace(
            core,
            TraceKind::PrefillEnd {
                request: rid,
                role: Role::Prefill,
                replica: i,
            },
        );
        if newly_first {
            trace(core, TraceKind::FirstToken { request: rid });
        }
        if let Some(li) = loser {
            if li != i {
                s.prefills[li].queue.remove(job.key);
            }
        }
        if job.remaining == 0 {
            // Single-token output: the prefill already produced it.
            finish(core, job.key, now, SimDuration::ZERO)?;
            continue;
        }
        split_launch_transfer(
            core,
            s,
            Transfer {
                from: i,
                to: jdec,
                job,
                attempt: 1,
            },
            SimDuration::ZERO,
        );
    }
    // Return the emptied batch buffer to the pool for the next launch.
    s.prefills[i].spare_batches.push(batch);
    split_maybe_start_prefill(core, s, i);
    Ok(())
}

/// Representative endpoints and total layer count for a KV route, used by
/// the fabric's one-flow-per-transfer approximation: the flow runs between
/// the endpoints of the leg carrying the most layers (first wins on ties,
/// for determinism) and carries the whole route's bytes.
fn flow_endpoints(legs: &[KvRouteLeg]) -> (GpuId, GpuId, usize) {
    let mut best: Option<&KvRouteLeg> = None;
    let mut total = 0usize;
    for leg in legs {
        total += leg.layers;
        if best.map(|b| leg.layers > b.layers).unwrap_or(true) {
            best = Some(leg);
        }
    }
    match best {
        Some(leg) => (leg.from, leg.to, total),
        None => (GpuId(0), GpuId(0), 0),
    }
}

/// Schedules (or re-schedules) a KV transfer after an optional backoff
/// delay and registers it in the request's slab entry. Three paths:
///
/// * fabric on — the transfer becomes a flow in the `ts-net` fabric
///   (immediately, or via a [`EventKind::KvFlowLaunch`] event after the
///   backoff);
/// * legacy, modeled — the transfer serializes on the sender's uplink;
/// * zero duration (transfer modeling off, or a degenerate route) — the
///   transfer completes after the delay alone, without queuing on (or
///   advancing) the sender's uplink.
fn split_launch_transfer(
    core: &mut Core,
    s: &mut SplitState,
    transfer: Transfer,
    delay: SimDuration,
) {
    let key = transfer.job.key;
    let now = core.now;
    let Some(st) = core.reqs.get_mut(key) else {
        return; // resolved while a retry or parked re-dispatch was pending
    };
    let rid = st.req.id;
    // First attempt stamps the enqueue time; retries keep the original.
    let mut first_attempt = false;
    if st.pend.kv_enqueued_at.is_none() {
        st.pend.kv_enqueued_at = Some(now);
        first_attempt = true;
    }
    st.transfer = Some(transfer);
    if first_attempt && tracing(core) {
        // The byte count is sized like the fabric's flow (whole route,
        // configured wire precision); computed only under telemetry.
        let (_, _, layers) = s.flow_routes[transfer.from][transfer.to];
        let bytes = s
            .codec_for(s.prefill_model[transfer.from])
            .wire_bytes_layers(transfer.job.tokens, layers);
        trace(
            core,
            TraceKind::KvEnqueued {
                request: rid,
                from: transfer.from,
                to: transfer.to,
                bytes,
            },
        );
    }
    if s.fabric.is_some() {
        if delay == SimDuration::ZERO {
            split_start_flow(core, s, key);
        } else {
            core.queue.push(
                now + delay,
                EventKind::KvFlowLaunch {
                    request: key,
                    attempt: transfer.attempt,
                },
            );
        }
        return;
    }
    let mut dur = if core.cfg.model_kv_transfer {
        // Memoized per pair: everything but the token count is fixed.
        match s.kv_memo[transfer.from][transfer.to] {
            Some((tokens, wire)) if tokens == transfer.job.tokens => wire,
            _ => {
                let ratio = core.cfg.kv_precision.ratio_vs_f16();
                // Priced with the sending replica's model (the
                // default-model spec on single-model plans, where every
                // group carries ModelId(0)).
                let wire = kv_transfer_time(
                    core.cfg.spec_for(s.prefill_model[transfer.from]),
                    &s.routes[transfer.from][transfer.to],
                    transfer.job.tokens,
                    ratio,
                );
                s.kv_memo[transfer.from][transfer.to] = Some((transfer.job.tokens, wire));
                wire
            }
        }
    } else {
        SimDuration::ZERO
    };
    // Gray link fault: the legacy model stretches the wire time by the
    // pair's degradation factor (the fabric path applies it to link
    // capacities instead). Skipped at the healthy factor of exactly 1.
    let link_factor = s.link_factor[transfer.from][transfer.to];
    if link_factor != 1.0 {
        dur = dur.mul_f64(link_factor);
    }
    // A transfer that occupies the wire for zero time must not serialize on
    // the uplink — and, crucially, must not push `sender_free_at` out to
    // `now + delay`, which would make *modeled* transfers behind it queue
    // on a link nothing ever used.
    if dur == SimDuration::ZERO {
        let done = now + delay;
        if let Some(st) = core.reqs.get_mut(key) {
            st.pend.kv_wire_started_at = Some(done);
        }
        trace_at(
            core,
            done,
            TraceKind::KvWireStart {
                request: rid,
                attempt: transfer.attempt,
            },
        );
        core.queue.push(
            done,
            EventKind::KvTransferDone {
                replica: transfer.to,
                request: key,
                attempt: transfer.attempt,
            },
        );
        return;
    }
    // Serialize transfers on the sender's uplink; the sequence only
    // becomes admissible at the decode replica once its own KV transfer
    // completes (see split_on_transfer_done).
    let start = s.sender_free_at[transfer.from].max(now + delay);
    let done = start + dur;
    s.sender_free_at[transfer.from] = done;
    if let Some(st) = core.reqs.get_mut(key) {
        st.pend.kv_wire_started_at = Some(start);
    }
    trace_at(
        core,
        start,
        TraceKind::KvWireStart {
            request: rid,
            attempt: transfer.attempt,
        },
    );
    core.queue.push(
        done,
        EventKind::KvTransferDone {
            replica: transfer.to,
            request: key,
            attempt: transfer.attempt,
        },
    );
}

/// Starts the fabric flow for a registered transfer and schedules the
/// refreshed completion estimates of every active flow.
fn split_start_flow(core: &mut Core, s: &mut SplitState, key: SlabKey) {
    let Some(st) = core.reqs.get_mut(key) else {
        return; // dropped while the launch was in flight
    };
    let Some(t) = st.transfer else {
        return;
    };
    if s.fabric.is_none() {
        return;
    }
    let rid = st.req.id;
    st.pend.kv_wire_started_at = Some(core.now);
    let (from, to, layers) = s.flow_routes[t.from][t.to];
    let bytes = s
        .codec_for(s.prefill_model[t.from])
        .wire_bytes_layers(t.job.tokens, layers) as f64;
    trace(
        core,
        TraceKind::KvWireStart {
            request: rid,
            attempt: t.attempt,
        },
    );
    let now = core.now;
    let Some(fabric) = s.fabric.as_mut() else {
        unreachable!()
    };
    let estimates = fabric.start(key.as_u64(), from, to, bytes, now);
    schedule_flow_events(core, estimates);
}

/// Schedules a [`EventKind::KvFlowDone`] for each fabric estimate.
fn schedule_flow_events(core: &mut Core, estimates: Vec<FlowEstimate>) {
    for e in estimates {
        core.queue.push(
            e.done_at,
            EventKind::KvFlowDone {
                request: SlabKey::from_u64(e.key),
                epoch: e.epoch,
            },
        );
    }
}

/// A delayed (backed-off) flow launch fired; start the flow unless a newer
/// attempt superseded it.
fn split_on_flow_launch(core: &mut Core, s: &mut SplitState, request: SlabKey, attempt: u32) {
    let Some(t) = core.reqs.get(request).and_then(|st| st.transfer) else {
        return;
    };
    if t.attempt != attempt {
        return;
    }
    split_start_flow(core, s, request);
}

/// A fabric completion estimate matured: ask the fabric whether the flow
/// really drained (most estimates are stale — every fabric change
/// re-estimates all flows).
fn split_on_flow_done(
    core: &mut Core,
    s: &mut SplitState,
    request: SlabKey,
    epoch: u64,
) -> Result<()> {
    let Some(fabric) = s.fabric.as_mut() else {
        return Ok(());
    };
    match fabric.poll(request.as_u64(), epoch, core.now) {
        FlowPoll::Stale => Ok(()),
        FlowPoll::InFlight(e) => {
            schedule_flow_events(core, vec![e]);
            Ok(())
        }
        FlowPoll::Done(rest) => {
            schedule_flow_events(core, rest);
            split_deliver_transfer(core, s, request)
        }
    }
}

/// Kills every in-flight fabric flow crossing the (prefill, decode) link
/// that just faulted. Victims re-enter through the standard retry/backoff
/// path (or are dropped when recovery is off), matching the accounting of
/// the legacy completion-time check.
fn split_kill_link_flows(core: &mut Core, s: &mut SplitState, prefill: usize, decode: usize) {
    let Some(fabric) = s.fabric.as_ref() else {
        return;
    };
    let mut victims: Vec<(RequestId, SlabKey)> = core
        .reqs
        .iter()
        .filter_map(|(key, st)| {
            let t = st.transfer?;
            (t.from == prefill && t.to == decode && fabric.contains(key.as_u64()))
                .then_some((st.req.id, key))
        })
        .collect();
    victims.sort_unstable();
    for (rid, key) in victims {
        let now = core.now;
        let estimates = match s.fabric.as_mut() {
            Some(f) => f.cancel(key.as_u64(), now),
            None => unreachable!(),
        };
        schedule_flow_events(core, estimates);
        let Some(t) = core.reqs.get(key).and_then(|st| st.transfer) else {
            continue;
        };
        if !core.recovery_enabled {
            drop_request(core, key);
            continue;
        }
        let mut t = t;
        t.attempt += 1;
        if retry_budget_spent(core, key, t.attempt) {
            continue;
        }
        core.recovery.kv_transfer_retries += 1;
        trace(
            core,
            TraceKind::KvRetry {
                request: rid,
                attempt: t.attempt,
            },
        );
        let delay = retry_backoff(core, t.attempt);
        split_launch_transfer(core, s, t, delay);
    }
}

fn split_on_transfer_done(
    core: &mut Core,
    s: &mut SplitState,
    replica: usize,
    request: SlabKey,
    attempt: u32,
) -> Result<()> {
    let Some(t) = core.reqs.get(request).and_then(|st| st.transfer) else {
        return Ok(()); // superseded or dropped
    };
    if t.attempt != attempt || t.to != replica {
        return Ok(()); // stale attempt
    }
    split_deliver_transfer(core, s, request)
}

/// The bytes of `request`'s KV transfer arrived (legacy or fabric path):
/// retry if the link died underneath it, re-target if the decode replica
/// died, otherwise hand the sequence to the decode replica.
fn split_deliver_transfer(core: &mut Core, s: &mut SplitState, key: SlabKey) -> Result<()> {
    let Some(t) = core.reqs.get(key).and_then(|st| st.transfer) else {
        return Ok(());
    };
    if s.link_down[t.from][t.to] {
        // The link faulted mid-transfer. With recovery the sender retries
        // after a capped exponential backoff; without, the request is
        // lost.
        if !core.recovery_enabled {
            drop_request(core, key);
            return Ok(());
        }
        let mut t = t;
        t.attempt += 1;
        if retry_budget_spent(core, key, t.attempt) {
            return Ok(());
        }
        core.recovery.kv_transfer_retries += 1;
        let rid = core.reqs[key].req.id;
        trace(
            core,
            TraceKind::KvRetry {
                request: rid,
                attempt: t.attempt,
            },
        );
        let delay = retry_backoff(core, t.attempt);
        split_launch_transfer(core, s, t, delay);
        return Ok(());
    }
    if !s.decodes[t.to].is_alive() {
        // Target died while the bytes were in flight.
        if let Some(st) = core.reqs.get_mut(key) {
            st.transfer = None;
        }
        if !core.recovery_enabled {
            drop_request(core, key);
            return Ok(());
        }
        split_redispatch_transfer(core, s, t);
        return Ok(());
    }
    // Delivered.
    let now = core.now;
    let st = core
        .reqs
        .get_mut(key)
        .expect("delivered transfer without request state");
    st.transfer = None;
    st.pend.kv_done_at = Some(now);
    let rid = st.req.id;
    trace(core, TraceKind::KvDone { request: rid });
    // Step boundaries owed before this instant must land before the
    // admission pass reads KV occupancy and batch size.
    split_catch_up_decode(core, s, t.to);
    s.decodes[t.to].batch.waiting.push_back(WaitingSeq {
        key,
        tokens: t.job.tokens,
        remaining: t.job.remaining,
        resume: t.job.resume,
    });
    let admitted = split_admit_waiting(core, s, t.to);
    split_kick_decode(core, s, t.to, admitted);
    Ok(())
}

/// Re-targets a transfer whose decode replica died: picks the live replica
/// with the most free KV memory (lowest index breaks ties), or parks the
/// transfer until one comes back. Multi-model plans only consider decode
/// replicas serving the sender's model — KV caches are model-specific.
fn split_redispatch_transfer(core: &mut Core, s: &mut SplitState, mut t: Transfer) {
    // The free-KV scan reads every decode batch; their owed boundaries
    // must land first.
    split_catch_up_all_decodes(core, s);
    let model = (!s.model_routes.is_empty()).then(|| s.prefill_model[t.from]);
    let target = s
        .decodes
        .iter()
        .enumerate()
        .filter(|(j, d)| d.is_alive() && (model.is_none() || model == Some(s.decode_model[*j])))
        .max_by_key(|(j, d)| {
            (
                d.batch.kv_capacity.saturating_sub(d.batch.kv_used),
                std::cmp::Reverse(*j),
            )
        })
        .map(|(j, _)| j);
    let Some(j2) = target else {
        s.parked.push(t);
        return;
    };
    let Some(st) = core.reqs.get_mut(t.job.key) else {
        return; // resolved while parked
    };
    st.pend.decode = j2;
    let rid = st.req.id;
    t.to = j2;
    t.attempt += 1;
    core.recovery.kv_transfer_retries += 1;
    trace(
        core,
        TraceKind::KvRetry {
            request: rid,
            attempt: t.attempt,
        },
    );
    split_launch_transfer(core, s, t, SimDuration::ZERO);
}

// --- decode planning / coalescing ----------------------------------------

/// Admits waiting sequences on decode replica `j` and applies the
/// outcomes. Returns whether anything was admitted (a grown batch obliges
/// a re-plan under coalescing).
fn split_admit_waiting(core: &mut Core, s: &mut SplitState, j: usize) -> bool {
    let d = &mut s.decodes[j];
    if !d.is_alive() {
        return false;
    }
    let outcomes = {
        let reqs = &core.reqs;
        d.batch.admit(&d.cost, &core.cfg, core.now, |key| {
            reqs.get(key).and_then(|st| st.pend.first_token_at)
        })
    };
    let admitted = apply_admit_outcomes(core, outcomes, Role::Decode, j);
    trace(
        core,
        TraceKind::BatchOccupancy {
            role: Role::Decode,
            replica: j,
            active: s.decodes[j].batch.active.len(),
        },
    );
    admitted
}

/// Starts or extends decode work on replica `j` after its batch state
/// changed. With a plan already in flight, a grown batch forces a re-plan
/// under coalescing (the per-step compatibility path just waits for the
/// in-flight step, exactly like the old `stepping` guard); with no plan
/// and a non-empty batch, a fresh run is planned.
fn split_kick_decode(core: &mut Core, s: &mut SplitState, j: usize, admitted: bool) {
    let d = &s.decodes[j];
    if !d.is_alive() || d.batch.active.is_empty() {
        return;
    }
    if d.plan.is_some() {
        if admitted && coalescing_active(core) {
            split_replan_decode(core, s, j);
        }
        return;
    }
    split_plan_decode(core, s, j);
}

/// The fewest decode steps left among replica `d`'s active sequences:
/// the run length to the first boundary where a sequence finishes.
fn steps_to_first_finish(d: &DecodeExecutor) -> u64 {
    let steps = d.batch.active.iter().map(|a| a.remaining).min();
    u64::from(steps.unwrap_or(1).max(1))
}

/// Plans a decode run for replica `j` starting now and schedules its
/// run-end event. Under coalescing the run extends to the earliest finish
/// boundary (the batch is constant until then, so every boundary is
/// priced exactly as the per-step loop would: the integer average context
/// grows by exactly 1 per step); the compatibility path plans one step.
fn split_plan_decode(core: &mut Core, s: &mut SplitState, j: usize) {
    let SplitState {
        decodes,
        step_tables,
        ..
    } = s;
    let d = &mut decodes[j];
    debug_assert!(d.plan.is_none(), "planning over a live plan");
    let batch = d.batch.active.len() as u64;
    let n = if coalescing_active(core) {
        steps_to_first_finish(d)
    } else {
        1
    };
    let ctx = d.batch.avg_context();
    let table = step_tables.table(d.step_class, batch, d.slow_factor, ctx + n);
    let token = core.queue.push_cancellable(
        core.now + step_tables.span(table, ctx, ctx + n),
        EventKind::DecodeStepDone {
            replica: j,
            epoch: d.epoch(),
        },
    );
    d.plan = Some(DecodePlan {
        first: core.now + step_tables.step(table, ctx),
        table,
        ctx: ctx + 1,
        remaining: n,
        prev_boundary: core.now,
        token,
    });
}

/// Re-plans replica `j`'s coalesced run after its batch grew or its speed
/// changed. The in-progress step's end boundary was committed when that
/// step began (the per-step loop fixed its latency then, and newly
/// admitted sequences receive their first token at it, because the
/// per-step advance covers the whole batch at a step's end) and is
/// carried verbatim; boundaries after it are re-priced against the new
/// batch and straggler factor. The scheduled event moves to the new final
/// boundary, keeping its original `(seq, pushed_at)` stamps.
fn split_replan_decode(core: &mut Core, s: &mut SplitState, j: usize) {
    let SplitState {
        decodes,
        step_tables,
        ..
    } = s;
    let d = &mut decodes[j];
    let Some(old) = d.plan.take() else {
        return;
    };
    debug_assert!(old.first >= core.now, "carried boundary in the past");
    let batch = d.batch.active.len() as u64;
    let n = steps_to_first_finish(d);
    // Context as of the carried boundary's end: the whole (new) batch
    // gains one token there.
    let ctx = d.batch.avg_context() + 1;
    let table = step_tables.table(d.step_class, batch, d.slow_factor, ctx + n - 1);
    let at = old.first + step_tables.span(table, ctx, ctx + n - 1);
    let kind = EventKind::DecodeStepDone {
        replica: j,
        epoch: d.epoch(),
    };
    let token = match core.queue.reschedule(old.token, at, kind) {
        Some(tok) => tok,
        None => {
            // The run-end event was already popped and is being held
            // behind a same-instant rival (this re-plan runs inside that
            // rival's inline dispatch): re-queue it with its original
            // stamps so it pops again in the right order.
            match core.take_held_decode(j) {
                Some((seq, pushed_at)) => core.queue.reinsert(at, kind, seq, pushed_at),
                None => core.queue.push_cancellable(at, kind),
            }
        }
    };
    d.plan = Some(DecodePlan {
        first: old.first,
        table,
        ctx,
        remaining: n,
        prev_boundary: old.prev_boundary,
        token,
    });
}

/// Cancels replica `j`'s scheduled run-end event and clears the plan,
/// ahead of a kill/revive (both of which reset the plan without touching
/// the queue). The per-step loop always had exactly one decode event in
/// flight — the in-progress step's end — and popped it (advancing `now`
/// past it) even once stale; its fire time folds into the phantom horizon
/// so the reported makespan stays identical.
fn split_cancel_decode_plan(core: &mut Core, s: &mut SplitState, j: usize) {
    let Some(plan) = s.decodes[j].plan.as_ref() else {
        return;
    };
    core.phantom_horizon = core.phantom_horizon.max(plan.first);
    core.queue.cancel(plan.token);
    s.decodes[j].plan = None;
}

/// Materializes every plan boundary of replica `j` that has elapsed:
/// boundaries strictly before `now`, plus a boundary exactly at `now`
/// when the event being dispatched was pushed after that step began (the
/// per-step loop would have popped the step's own event first — smaller
/// sequence number). The final boundary never catches up here; it is the
/// scheduled event's fire time and is handled by
/// [`Driver::on_decode_finish`]. Boundary times never decrease, so the
/// elapsed ones are found by binary search over the step table.
fn split_catch_up_decode(core: &mut Core, s: &mut SplitState, j: usize) {
    let now = core.now;
    let Some(plan) = s.decodes[j].plan.as_ref() else {
        return;
    };
    let tables = &s.step_tables;
    let elapsed = now.saturating_since(plan.first);
    let mut m = tables.count_below(plan.table, plan.ctx, plan.remaining - 1, elapsed);
    if m + 1 < plan.remaining && plan.boundary(tables, m) == now {
        let prev = if m == 0 {
            plan.prev_boundary
        } else {
            plan.boundary(tables, m - 1)
        };
        if core.event_pushed_at > prev {
            m += 1;
        }
    }
    if m > 0 {
        split_materialize(core, s, j, m);
    }
}

/// Catches up every decode replica (paths that scan cross-replica batch
/// state: transfer re-dispatch, hedging probes).
fn split_catch_up_all_decodes(core: &mut Core, s: &mut SplitState) {
    for j in 0..s.decodes.len() {
        split_catch_up_decode(core, s, j);
    }
}

/// Materializes the front `m` boundaries of replica `j`'s plan. With
/// telemetry off this is O(batch) arithmetic — batch membership is
/// constant across a plan, so per sequence only the first gap differs,
/// and the remaining gaps are step times at rising contexts whose maximum
/// is the last one (step times never decrease in context); with telemetry
/// on each boundary replays individually to emit its retroactive trace
/// events.
fn split_materialize(core: &mut Core, s: &mut SplitState, j: usize, m: u64) {
    if !observing(core) {
        let SplitState {
            decodes,
            step_tables,
            ..
        } = s;
        let d = &mut decodes[j];
        let plan = d.plan.as_mut().expect("materialize without plan");
        let first = plan.first;
        let shared_max = if m >= 2 {
            step_tables.step(plan.table, plan.ctx + m - 2)
        } else {
            SimDuration::ZERO
        };
        let last = plan.consume(step_tables, m);
        let batch = d.batch.active.len() as u64;
        for a in &mut d.batch.active {
            debug_assert!(
                u64::from(a.remaining) > m,
                "an intermediate coalesced boundary must not finish a sequence"
            );
            a.context += m;
            a.remaining -= m as u32;
            let first_gap = first.saturating_since(a.last_token_at);
            a.max_gap = a.max_gap.max(first_gap).max(shared_max);
            a.last_token_at = last;
        }
        d.batch.kv_used += batch * m;
    } else {
        for _ in 0..m {
            let b = {
                let SplitState {
                    decodes,
                    step_tables,
                    ..
                } = &mut *s;
                let plan = decodes[j].plan.as_mut().expect("materialize without plan");
                plan.consume(step_tables, 1)
            };
            split_materialize_boundary(core, s, j, b);
        }
    }
}

/// Retroactively replays one coalesced intermediate step that ended at
/// `at`, emitting the trace events the per-step loop would have: the step
/// record, the batch update, then the (unchanged) occupancy the no-op
/// admission pass reported.
fn split_materialize_boundary(core: &mut Core, s: &mut SplitState, j: usize, at: SimTime) {
    let d = &mut s.decodes[j];
    trace_at(
        core,
        at,
        TraceKind::DecodeStep {
            role: Role::Decode,
            replica: j,
            batch: d.batch.active.len(),
        },
    );
    d.batch.materialize_step(at);
    trace_at(
        core,
        at,
        TraceKind::BatchOccupancy {
            role: Role::Decode,
            replica: j,
            active: d.batch.active.len(),
        },
    );
}

/// Discards a held (deferred) decode-finish stamp for replica `j`.
fn drop_held_decode(core: &mut Core, j: usize, seq: u64) {
    core.held_decode.retain(|h| !(h.0 == j && h.1 == seq));
}

impl Driver {
    /// Handles a decode run-end event for `replica`. The coalesced event's
    /// heap stamps date from plan creation, but the per-step loop would
    /// have pushed the final step's event at the penultimate boundary (the
    /// plan's *virtual* push time) — so any same-instant rival the
    /// per-step loop would have popped first is dispatched first, with
    /// this finish held. A held finish can be re-queued (a rival re-plans
    /// this replica) or invalidated (a rival kills/revives it); otherwise
    /// the finish boundary runs: materialize intermediates, advance the
    /// batch, record finishes, admit, and plan the next run.
    fn on_decode_finish(&mut self, replica: usize, ev: Event) -> Result<()> {
        let seq = ev.seq;
        loop {
            let vpush = {
                let Topology::Split(s) = &self.topo else {
                    return Err(Error::Simulation(
                        "DecodeStepDone event in colocated engine".into(),
                    ));
                };
                let Some(plan) = s.decodes[replica].plan.as_ref() else {
                    // A rival dispatched below killed or revived the
                    // replica, cancelling the plan: this pop is stale.
                    drop_held_decode(&mut self.core, replica, seq);
                    return Ok(());
                };
                if ev.token() != Some(plan.token) {
                    // A rival's re-plan consumed the held stamp and
                    // re-queued the run-end event: this pop is obsolete.
                    drop_held_decode(&mut self.core, replica, seq);
                    return Ok(());
                }
                plan.vpush(&s.step_tables)
            };
            if ev.pushed_at == vpush {
                // The stamps are real (a per-step-schedule push): the heap
                // already ordered this event correctly.
                break;
            }
            let Some(rival) = self.qualifying_rival(vpush) else {
                break;
            };
            if !self
                .core
                .held_decode
                .iter()
                .any(|h| h.0 == replica && h.1 == seq)
            {
                self.core.held_decode.push((replica, seq, ev.pushed_at));
            }
            self.dispatch_event(rival)?;
            if !self
                .core
                .held_decode
                .iter()
                .any(|h| h.0 == replica && h.1 == seq)
            {
                return Ok(()); // consumed: re-queued by a rival's re-plan
            }
        }
        drop_held_decode(&mut self.core, replica, seq);
        let Driver { core, topo } = self;
        let Topology::Split(s) = topo else {
            unreachable!()
        };
        let pending = s.decodes[replica].plan.as_ref().map_or(0, |p| p.remaining);
        if pending > 1 {
            split_materialize(core, s, replica, pending - 1);
        }
        let plan = s.decodes[replica].plan.take().expect("checked above");
        debug_assert_eq!(plan.remaining, 1, "intermediates drained");
        debug_assert_eq!(plan.first, core.now, "finish boundary mismatch");
        if core.cfg.straggler_threshold.is_some() {
            split_observe_straggler(core, s, false, replica);
        }
        trace(
            core,
            TraceKind::DecodeStep {
                role: Role::Decode,
                replica,
                batch: s.decodes[replica].batch.active.len(),
            },
        );
        let finished = s.decodes[replica].batch.advance(core.now);
        for (key, gap) in finished {
            finish(core, key, core.now, gap)?;
        }
        split_admit_waiting(core, s, replica);
        split_kick_decode(core, s, replica, false);
        Ok(())
    }

    /// The next queued event, popped, when it shares this instant with the
    /// decode finish being dispatched and the per-step loop would have
    /// fired it first: its effective push time (its own stamp, or the
    /// virtual push time of another replica's live plan) is no later than
    /// `vpush`. Deferring to an epoch-stale rival is harmless — its
    /// dispatch is a no-op.
    fn qualifying_rival(&mut self, vpush: SimTime) -> Option<Event> {
        let now = self.core.now;
        debug_assert!(
            self.core
                .arrivals
                .get(self.core.next_arrival)
                .is_none_or(|r| r.arrival > now),
            "same-instant arrivals drain before queued events"
        );
        let head = *self.core.queue.peek()?;
        if head.at != now {
            return None;
        }
        let eff = match head.kind {
            EventKind::DecodeStepDone { replica: r2, .. } => {
                let Topology::Split(s) = &self.topo else {
                    return None;
                };
                match s.decodes[r2].plan.as_ref() {
                    Some(p) if head.token() == Some(p.token) => p.vpush(&s.step_tables),
                    _ => head.pushed_at,
                }
            }
            _ => head.pushed_at,
        };
        if eff <= vpush {
            self.core.queue.pop()
        } else {
            None
        }
    }
}

// --- routing masks ---------------------------------------------------------

/// Whether the (prefill `i`, decode `j`) pair is routable under current
/// liveness beliefs and gray-failure masking (flaky-heartbeat false
/// positives and straggler quarantine). `extra` additionally masks one
/// host — used to test whether a prospective quarantine would leave a
/// router empty, without committing it.
fn split_pair_live(core: &Core, s: &SplitState, i: usize, j: usize, extra: Option<usize>) -> bool {
    let p = core.gray.prefill_hosts;
    let masked = |h: usize| core.gray.masked(h) || extra == Some(h);
    !s.believed_dead_prefill[i] && !s.believed_dead_decode[j] && !masked(i) && !masked(p + j)
}

/// The split routing mask over the global pair space.
fn split_router_mask(core: &Core, s: &SplitState, extra: Option<usize>) -> Vec<bool> {
    s.pair_coords
        .iter()
        .map(|&(i, j)| split_pair_live(core, s, i, j, extra))
        .collect()
}

/// Re-derives the routing masks from believed replica liveness: the global
/// router always, plus every tenant's own router on multi-model plans.
fn split_refresh_router(core: &mut Core, s: &mut SplitState) {
    let mask = split_router_mask(core, s, None);
    core.router.apply_mask(&mask);
    for ri in 0..s.model_routes.len() {
        let mask: Vec<bool> = s.model_routes[ri]
            .pairs
            .iter()
            .map(|&(i, j)| split_pair_live(core, s, i, j, None))
            .collect();
        s.model_routes[ri].router.apply_mask(&mask);
    }
}

// --- straggler detection & hedging ----------------------------------------

/// Feeds one completed iteration's observed/expected time ratio into the
/// per-host EWMA. Returns `true` when the detector trips (enough samples
/// and the EWMA at or above the threshold); the caller still applies the
/// never-empty-router guard before quarantining.
fn straggler_observe(core: &mut Core, host: usize, ratio: f64) -> bool {
    let Some(threshold) = core.cfg.straggler_threshold else {
        return false;
    };
    if core.gray.quarantined[host] {
        return false;
    }
    const ALPHA: f64 = 0.5;
    let g = &mut core.gray;
    g.slow_ewma[host] = if g.slow_samples[host] == 0 {
        ratio
    } else {
        ALPHA * ratio + (1.0 - ALPHA) * g.slow_ewma[host]
    };
    g.slow_samples[host] = g.slow_samples[host].saturating_add(1);
    g.slow_samples[host] >= core.cfg.straggler_min_samples && g.slow_ewma[host] >= threshold
}

/// Quarantines `host`: masks it out of routing, counts it, and schedules
/// the readmission probe at `now + straggler_readmit_after`. The caller
/// refreshes the router.
fn quarantine_host(core: &mut Core, host: usize, role: Role, replica: usize, prefill: bool) {
    core.gray.quarantined[host] = true;
    let until = core.now + core.cfg.straggler_readmit_after;
    core.gray.quarantine_until[host] = Some(until);
    core.recovery.quarantines += 1;
    trace(core, TraceKind::Quarantined { role, replica });
    core.queue
        .push(until, EventKind::ReadmitProbe { prefill, replica });
}

/// Samples the straggler detector at a split-replica batch completion and
/// quarantines the replica when it trips — unless doing so would leave the
/// router with no live pair, or empty any tenant's (model, role) replica
/// set on a multi-model plan (a degraded replica still beats no replica).
fn split_observe_straggler(core: &mut Core, s: &mut SplitState, prefill: bool, idx: usize) {
    let (host, ratio) = if prefill {
        (idx, s.prefills[idx].slow_factor)
    } else {
        (core.gray.prefill_hosts + idx, s.decodes[idx].slow_factor)
    };
    if !straggler_observe(core, host, ratio) {
        return;
    }
    let mask = split_router_mask(core, s, Some(host));
    if !mask.iter().any(|&m| m) {
        return;
    }
    if s.model_routes.iter().any(|r| {
        !r.pairs
            .iter()
            .any(|&(i, j)| split_pair_live(core, s, i, j, Some(host)))
    }) {
        return;
    }
    let role = if prefill { Role::Prefill } else { Role::Decode };
    quarantine_host(core, host, role, idx, prefill);
    split_refresh_router(core, s);
}

/// The colocated arm of [`split_observe_straggler`].
fn colo_observe_straggler(core: &mut Core, c: &ColoState, ri: usize) {
    let ratio = c.replicas[ri].slow_factor;
    if !straggler_observe(core, ri, ratio) {
        return;
    }
    let mask = colo_router_mask(core, c, Some(ri));
    if !mask.iter().any(|&m| m) {
        return;
    }
    quarantine_host(core, ri, Role::Colocated, ri, true);
    colo_refresh_router(core, c);
}

/// The hedge timer for `request` matured. If the request is still waiting
/// on prefill, launch a duplicate prefill on an alternate pair
/// (first completion wins); if its KV transfer is stuck in flight, cancel
/// and re-send it. No-op when the request already delivered its KV,
/// finished, or was hedged once before.
fn split_on_hedge_check(core: &mut Core, s: &mut SplitState, request: SlabKey) {
    let Some(st) = core.reqs.get(request) else {
        return; // finished, shed or dropped
    };
    let p = &st.pend;
    if p.kv_done_at.is_some() || p.hedge.is_some() {
        return;
    }
    if hedge_suppressed(core) {
        return; // SLO budget not burning: keep the duplicate-work budget
    }
    if p.kv_launched {
        split_hedge_transfer(core, s, request);
    } else {
        split_hedge_prefill(core, s, request);
    }
}

/// Launches a duplicate prefill for a stuck request on an alternate
/// (prefill, decode) pair drawn from the router. The duplicate carries the
/// same work unit (a re-prefill covers more than the prompt). Ties are
/// broken deterministically: route draws advance the stride router in its
/// usual order, and the first live pair with a *different* prefill replica
/// wins.
fn split_hedge_prefill(core: &mut Core, s: &mut SplitState, request: SlabKey) {
    let Some(st) = core.reqs.get(request) else {
        return;
    };
    let primary = st.pend.prefill;
    let rid = st.req.id;
    let model = st.req.model;
    let job = s.prefills[primary]
        .queue
        .queue
        .iter()
        .find(|j| j.key == request)
        .copied()
        .or_else(|| {
            s.prefills[primary]
                .in_flight
                .iter()
                .flatten()
                .find(|j| j.key == request)
                .copied()
        });
    let Some(job) = job else {
        return; // a fault moved it; the requeue already acted as a retry
    };
    // Multi-model plans draw the alternate from the request's own tenant
    // router, so a hedge never lands on another model's replicas.
    let route = s.model_routes.iter().position(|r| r.model == model);
    let mut alt = None;
    if let Some(ri) = route {
        for _ in 0..s.model_routes[ri].pairs.len() {
            if s.model_routes[ri].router.num_enabled() == 0 {
                break;
            }
            let k = s.model_routes[ri].router.next();
            let (i, j) = s.model_routes[ri].pairs[k];
            if i != primary && s.prefills[i].is_alive() && !s.believed_dead_prefill[i] {
                alt = Some((i, j));
                break;
            }
        }
    } else {
        for _ in 0..s.pair_coords.len() {
            if core.router.num_enabled() == 0 {
                break;
            }
            let k = core.router.next();
            let (i, j) = s.pair_coords[k];
            if i != primary && s.prefills[i].is_alive() && !s.believed_dead_prefill[i] {
                alt = Some((i, j));
                break;
            }
        }
    }
    let Some((hi, hj)) = alt else {
        return; // no live alternative prefill replica
    };
    if let Some(st) = core.reqs.get_mut(request) {
        st.pend.hedge = Some((hi, hj));
    }
    core.recovery.hedges_launched += 1;
    trace(
        core,
        TraceKind::HedgeLaunched {
            request: rid,
            role: Role::Prefill,
            replica: hi,
        },
    );
    s.prefills[hi].queue.enqueue(job);
    split_maybe_start_prefill(core, s, hi);
}

/// Cancels a stuck KV transfer and re-sends it (attempt + 1) to the live
/// decode replica with the most free KV memory — possibly the same one.
/// The superseded attempt's completion goes stale via its attempt number,
/// so a duplicate delivery is impossible.
fn split_hedge_transfer(core: &mut Core, s: &mut SplitState, request: SlabKey) {
    let Some(t) = core.reqs.get(request).and_then(|st| st.transfer) else {
        return; // completion already delivered
    };
    if let Some(f) = s.fabric.as_mut() {
        if f.contains(request.as_u64()) {
            let estimates = f.cancel(request.as_u64(), core.now);
            schedule_flow_events(core, estimates);
        }
    }
    // Free-KV capacity is read at `now`, so every coalesced batch must be
    // materialized up to `now` first.
    split_catch_up_all_decodes(core, s);
    let mut t = t;
    t.attempt += 1;
    // Mirror the death-re-dispatch target policy: most free KV, ties to
    // the lowest index — restricted to the sender's model on multi-model
    // plans.
    let model = (!s.model_routes.is_empty()).then(|| s.prefill_model[t.from]);
    if let Some(j2) = s
        .decodes
        .iter()
        .enumerate()
        .filter(|(j, d)| d.is_alive() && (model.is_none() || model == Some(s.decode_model[*j])))
        .max_by_key(|(j, d)| {
            (
                d.batch.kv_capacity.saturating_sub(d.batch.kv_used),
                std::cmp::Reverse(*j),
            )
        })
        .map(|(j, _)| j)
    {
        t.to = j2;
    }
    let rid = if let Some(st) = core.reqs.get_mut(request) {
        st.pend.decode = t.to;
        st.pend.hedge = Some((t.from, t.to));
        st.req.id
    } else {
        return;
    };
    core.recovery.hedges_launched += 1;
    trace(
        core,
        TraceKind::HedgeLaunched {
            request: rid,
            role: Role::Decode,
            replica: t.to,
        },
    );
    split_launch_transfer(core, s, t, SimDuration::ZERO);
}

// --- colocated-topology handlers -----------------------------------------

fn colo_maybe_start_work(core: &mut Core, c: &mut ColoState, ri: usize) {
    // Admission runs even while the engine is busy: decode slots free up
    // as sequences finish regardless of what work item is in flight.
    {
        let r = &mut c.replicas[ri];
        if !r.is_alive() {
            return;
        }
        let outcomes = {
            let reqs = &core.reqs;
            r.batch.admit(&r.cost, &core.cfg, core.now, |key| {
                reqs.get(key).and_then(|st| st.pend.first_token_at)
            })
        };
        apply_admit_outcomes(core, outcomes, Role::Colocated, ri);
    }
    trace(
        core,
        TraceKind::BatchOccupancy {
            role: Role::Colocated,
            replica: ri,
            active: c.replicas[ri].batch.active.len(),
        },
    );
    let budget = core.cfg.max_prefill_batch_tokens;
    let r = &mut c.replicas[ri];
    if r.current.is_some() {
        return;
    }
    let has_prefill = !r.prefill.is_empty();
    let has_decode = !r.batch.active.is_empty();
    let run_decode = match r.policy {
        ColocatedPolicy::PrefillPriority => !has_prefill && has_decode,
        // Chunked: strictly alternate when both kinds of work exist.
        ColocatedPolicy::Chunked { .. } => has_decode && (!has_prefill || r.decode_turn),
    };
    if run_decode {
        let batch = r.batch.active.len() as u64;
        trace(
            core,
            TraceKind::DecodeStep {
                role: Role::Colocated,
                replica: ri,
                batch: batch as usize,
            },
        );
        let mut latency = r.cost.decode_step_latency(batch, r.batch.avg_context());
        if r.slow_factor != 1.0 {
            latency = latency.mul_f64(r.slow_factor);
        }
        r.current = Some(Work::DecodeStep);
        r.decode_turn = false;
        core.queue.push(
            core.now + latency,
            EventKind::WorkDone {
                replica: ri,
                epoch: r.epoch(),
            },
        );
        return;
    }
    if !has_prefill {
        return;
    }
    match r.policy {
        ColocatedPolicy::PrefillPriority => {
            // Whole-request batch up to the token budget, under the
            // configured queue discipline (FCFS by default).
            let (batch, total) = r.prefill.take_batch(budget, core.cfg.prefill_policy);
            if tracing(core) {
                for job in &batch {
                    let Some(st) = core.reqs.get(job.key) else {
                        continue;
                    };
                    let request = st.req.id;
                    trace(
                        core,
                        TraceKind::PrefillStart {
                            request,
                            role: Role::Colocated,
                            replica: ri,
                            tokens: job.tokens,
                        },
                    );
                }
            }
            if observing(core) {
                let depth = r.prefill.queue.len();
                trace(
                    core,
                    TraceKind::QueueDepth {
                        role: Role::Colocated,
                        replica: ri,
                        depth,
                    },
                );
            }
            let avg = total / batch.len() as u64;
            let mut latency = r.cost.prefill_latency(total, avg);
            if r.slow_factor != 1.0 {
                latency = latency.mul_f64(r.slow_factor);
            }
            r.current = Some(Work::Prefill { finishing: batch });
            core.queue.push(
                core.now + latency,
                EventKind::WorkDone {
                    replica: ri,
                    epoch: r.epoch(),
                },
            );
        }
        ColocatedPolicy::Chunked { chunk_tokens } => {
            // Process up to chunk_tokens of the queue head(s); requests
            // whose prompts finish within this chunk complete prefill.
            let (finishing, tokens) = r.prefill.take_chunk(chunk_tokens);
            if tracing(core) {
                for job in &finishing {
                    let Some(st) = core.reqs.get(job.key) else {
                        continue;
                    };
                    let request = st.req.id;
                    trace(
                        core,
                        TraceKind::PrefillStart {
                            request,
                            role: Role::Colocated,
                            replica: ri,
                            tokens: job.tokens,
                        },
                    );
                }
            }
            if observing(core) {
                let depth = r.prefill.queue.len();
                trace(
                    core,
                    TraceKind::QueueDepth {
                        role: Role::Colocated,
                        replica: ri,
                        depth,
                    },
                );
            }
            let avg = finishing
                .first()
                .map(|f| f.tokens)
                .unwrap_or_else(|| tokens.max(1));
            let mut latency = r.cost.prefill_latency(tokens.max(1), avg);
            if r.slow_factor != 1.0 {
                latency = latency.mul_f64(r.slow_factor);
            }
            r.current = Some(Work::Prefill { finishing });
            r.decode_turn = true;
            core.queue.push(
                core.now + latency,
                EventKind::WorkDone {
                    replica: ri,
                    epoch: r.epoch(),
                },
            );
        }
    }
}

fn colo_on_work_done(core: &mut Core, c: &mut ColoState, ri: usize) -> Result<()> {
    if core.cfg.straggler_threshold.is_some() {
        colo_observe_straggler(core, c, ri);
    }
    let work = c.replicas[ri]
        .current
        .take()
        .ok_or_else(|| Error::Simulation("WorkDone with no work".into()))?;
    match work {
        Work::Prefill { finishing } => {
            for job in finishing {
                let now = core.now;
                let (rid, newly_first) = {
                    let st = core
                        .reqs
                        .get_mut(job.key)
                        .ok_or_else(|| Error::Simulation(format!("unknown request {}", job.key)))?;
                    // Re-prefills keep their original first-token time
                    // (fault recovery); fresh prefills set it now.
                    let newly_first = st.pend.first_token_at.is_none();
                    if newly_first {
                        st.pend.first_token_at = Some(now);
                    }
                    (st.req.id, newly_first)
                };
                trace(
                    core,
                    TraceKind::PrefillEnd {
                        request: rid,
                        role: Role::Colocated,
                        replica: ri,
                    },
                );
                if newly_first {
                    trace(core, TraceKind::FirstToken { request: rid });
                }
                if job.remaining == 0 {
                    finish(core, job.key, now, SimDuration::ZERO)?;
                } else {
                    // KV is already local: straight to the waiting queue.
                    c.replicas[ri].batch.waiting.push_back(WaitingSeq {
                        key: job.key,
                        tokens: job.tokens,
                        remaining: job.remaining,
                        resume: job.resume,
                    });
                }
            }
        }
        Work::DecodeStep => {
            let finished = c.replicas[ri].batch.advance(core.now);
            for (key, gap) in finished {
                finish(core, key, core.now, gap)?;
            }
        }
    }
    colo_maybe_start_work(core, c, ri);
    Ok(())
}

/// The colocated routing mask (see [`split_router_mask`]).
fn colo_router_mask(core: &Core, c: &ColoState, extra: Option<usize>) -> Vec<bool> {
    c.believed_dead
        .iter()
        .enumerate()
        .map(|(i, &dead)| !dead && !core.gray.masked(i) && extra != Some(i))
        .collect()
}

/// Re-derives the routing mask from believed replica liveness.
fn colo_refresh_router(core: &mut Core, c: &ColoState) {
    let mask = colo_router_mask(core, c, None);
    core.router.apply_mask(&mask);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::presets;
    use ts_common::{
        GpuId, ModelRouting, ModelSpec, ParallelConfig, Phase, RoutingMatrix, ServedModel,
        StageSpec,
    };

    fn testbed(cfg_edit: impl FnOnce(&mut SimConfig)) -> Driver {
        let cluster = presets::network_case_cluster(presets::ETH_5GBPS);
        let model = ModelSpec::llama_13b();
        let group = |phase, ids: [u32; 4]| {
            GroupSpec::new(
                phase,
                ParallelConfig::new(4, 1).unwrap(),
                vec![StageSpec {
                    gpus: ids.iter().map(|&i| GpuId(i)).collect(),
                    layers: model.num_layers,
                }],
            )
            .unwrap()
        };
        let plan = DeploymentPlan::new(
            vec![
                group(Phase::Prefill, [0, 1, 2, 3]),
                group(Phase::Decode, [4, 5, 6, 7]),
            ],
            RoutingMatrix::uniform(1, 1),
        )
        .unwrap();
        let mut cfg = SimConfig::new(model);
        cfg_edit(&mut cfg);
        Driver::new_split(&cluster, &plan, cfg).unwrap()
    }

    fn seed_request(core: &mut Core, id: u64) -> (Request, SlabKey) {
        let req = Request::new(RequestId(id), SimTime::ZERO, 512, 16);
        let key = core.reqs.insert(ReqState::new(req));
        (req, key)
    }

    #[test]
    fn zero_duration_launch_bypasses_uplink_serialization() {
        // Regression: a zero-duration transfer (KV modeling off) used to
        // wait behind `sender_free_at` and then push it out to
        // `now + delay`, queueing later transfers on a link it never used.
        let mut d = testbed(|cfg| cfg.model_kv_transfer = false);
        let Driver { core, topo } = &mut d;
        let Topology::Split(s) = topo else {
            unreachable!()
        };
        let (req, key) = seed_request(core, 7);
        core.now = SimTime::from_secs_f64(5.0);
        let busy_until = SimTime::from_secs_f64(30.0);
        s.sender_free_at[0] = busy_until;
        split_launch_transfer(
            core,
            s,
            Transfer {
                from: 0,
                to: 0,
                job: PrefillJob::fresh(key, &req),
                attempt: 2,
            },
            SimDuration::from_millis(50),
        );
        assert_eq!(
            s.sender_free_at[0], busy_until,
            "zero-duration transfer must not touch the uplink"
        );
        let ev = core.queue.pop().expect("completion scheduled");
        assert_eq!(
            ev.at,
            SimTime::from_secs_f64(5.0) + SimDuration::from_millis(50),
            "completes after the backoff alone, not behind the uplink queue"
        );
        let p = &core.reqs[key].pend;
        assert_eq!(p.kv_enqueued_at, Some(SimTime::from_secs_f64(5.0)));
        assert_eq!(p.kv_wire_started_at, Some(ev.at));
    }

    #[test]
    fn modeled_transfer_still_serializes_on_the_uplink() {
        let mut d = testbed(|_| {});
        let Driver { core, topo } = &mut d;
        let Topology::Split(s) = topo else {
            unreachable!()
        };
        let (req, key) = seed_request(core, 8);
        core.now = SimTime::from_secs_f64(5.0);
        let busy_until = SimTime::from_secs_f64(10.0);
        s.sender_free_at[0] = busy_until;
        split_launch_transfer(
            core,
            s,
            Transfer {
                from: 0,
                to: 0,
                job: PrefillJob::fresh(key, &req),
                attempt: 1,
            },
            SimDuration::ZERO,
        );
        assert!(
            s.sender_free_at[0] > busy_until,
            "a modeled transfer occupies the uplink past the queue head"
        );
        assert_eq!(
            core.reqs[key].pend.kv_wire_started_at,
            Some(busy_until),
            "wire time starts when the uplink frees, not at enqueue"
        );
        let ev = core.queue.pop().expect("completion scheduled");
        assert_eq!(ev.at, s.sender_free_at[0]);
    }

    #[test]
    fn fabric_is_built_only_when_both_flags_are_on() {
        let flags = |contention: bool, modeled: bool| {
            let d = testbed(|cfg| {
                cfg.network_contention = contention;
                cfg.model_kv_transfer = modeled;
            });
            let Topology::Split(s) = &d.topo else {
                unreachable!()
            };
            s.fabric.is_some()
        };
        assert!(!flags(false, true), "legacy default has no fabric");
        assert!(!flags(true, false), "unmodeled transfers need no fabric");
        assert!(flags(true, true));
    }

    /// Two tenants (both llama-7b, so memory trivially fits) partitioning
    /// the 8-GPU network-case cluster: model 1 on groups 0/2, model 2 on
    /// groups 1/3.
    fn multi_testbed_with(tweak: impl FnOnce(&mut SimConfig)) -> Driver {
        let cluster = presets::network_case_cluster(presets::ETH_5GBPS);
        let model = ModelSpec::llama_7b();
        let group = |phase, m: ModelId, ids: [u32; 2]| {
            GroupSpec::new(
                phase,
                ParallelConfig::new(2, 1).unwrap(),
                vec![StageSpec {
                    gpus: ids.iter().map(|&i| GpuId(i)).collect(),
                    layers: model.num_layers,
                }],
            )
            .unwrap()
            .with_model(m)
        };
        let plan = DeploymentPlan::new_multi(
            vec![
                group(Phase::Prefill, ModelId(1), [0, 1]),
                group(Phase::Prefill, ModelId(2), [2, 3]),
                group(Phase::Decode, ModelId(1), [4, 5]),
                group(Phase::Decode, ModelId(2), [6, 7]),
            ],
            vec![
                ModelRouting {
                    model: ModelId(1),
                    routing: RoutingMatrix::uniform(1, 1),
                    share: 0.5,
                },
                ModelRouting {
                    model: ModelId(2),
                    routing: RoutingMatrix::uniform(1, 1),
                    share: 0.5,
                },
            ],
        )
        .unwrap();
        let mut cfg = SimConfig::new(model).with_catalog(vec![
            ServedModel::llama_7b_chat(ModelId(1), 0.5).unwrap(),
            ServedModel::llama_7b_chat(ModelId(2), 0.5).unwrap(),
        ]);
        tweak(&mut cfg);
        Driver::new_split(&cluster, &plan, cfg).unwrap()
    }

    fn multi_testbed() -> Driver {
        multi_testbed_with(|_| {})
    }

    #[test]
    fn single_model_plan_builds_no_model_routes() {
        let d = testbed(|_| {});
        let Topology::Split(s) = &d.topo else {
            unreachable!()
        };
        assert!(s.model_routes.is_empty(), "legacy plans stay single-router");
        assert!(s.codecs.is_empty());
        assert_eq!(s.prefill_model, vec![ModelId(0)]);
        assert_eq!(s.decode_model, vec![ModelId(0)]);
        assert!(!d.core.track_models);
    }

    #[test]
    fn multi_model_plan_routes_each_tenant_to_its_own_replicas() {
        let mut d = multi_testbed();
        {
            let Topology::Split(s) = &d.topo else {
                unreachable!()
            };
            assert_eq!(s.model_routes.len(), 2);
            assert_eq!(s.model_routes[0].pairs, vec![(0, 0)]);
            assert_eq!(s.model_routes[1].pairs, vec![(1, 1)]);
            assert_eq!(s.prefill_model, vec![ModelId(1), ModelId(2)]);
            assert_eq!(s.decode_model, vec![ModelId(1), ModelId(2)]);
        }
        let reqs: Vec<Request> = (0..8)
            .map(|i| {
                Request::new(
                    RequestId(i),
                    SimTime::from_secs_f64(i as f64 * 0.05),
                    256,
                    8,
                )
                .with_model(ModelId(1 + (i % 2) as u32))
            })
            .collect();
        let m = d.run_with_faults(&reqs, &FaultScript::none()).unwrap();
        assert_eq!(m.num_completed(), 8);
        for r in m.records() {
            let expect = match r.request.model {
                ModelId(1) => 0,
                ModelId(2) => 1,
                other => panic!("unexpected model {other}"),
            };
            assert_eq!(r.prefill_replica, expect, "prefill crossed tenants");
            assert_eq!(r.decode_replica, expect, "decode crossed tenants");
        }
        let per = &m.recovery().per_model;
        assert_eq!(per.len(), 2);
        for c in per {
            assert!(c.balanced());
            assert_eq!(c.submitted, 4);
            assert_eq!(c.completed, 4);
        }
        // the per-model views add back up to the aggregate
        let m1 = m.for_model(ModelId(1));
        let m2 = m.for_model(ModelId(2));
        assert_eq!(m1.num_completed() + m2.num_completed(), m.num_completed());
    }

    #[test]
    fn traces_tag_requests_with_their_model_only_when_tracking() {
        let mut d = multi_testbed_with(|cfg| cfg.telemetry = true);
        let reqs: Vec<Request> = (0..4)
            .map(|i| {
                Request::new(
                    RequestId(i),
                    SimTime::from_secs_f64(i as f64 * 0.05),
                    256,
                    8,
                )
                .with_model(ModelId(1 + (i % 2) as u32))
            })
            .collect();
        d.run_with_faults(&reqs, &FaultScript::none()).unwrap();
        let log = d.take_trace().expect("telemetry was on");
        let tags = log.model_tags();
        assert_eq!(tags.len(), 4, "every arrival carries exactly one tag");
        for r in &reqs {
            assert_eq!(tags.get(&r.id), Some(&r.model));
        }
        assert_eq!(log.requests_for_model(ModelId(1)).len(), 2);
        assert_eq!(log.requests_for_model(ModelId(2)).len(), 2);

        // Single-model runs emit no tags at all, keeping traces identical to
        // pre-catalog builds.
        let mut legacy = testbed(|cfg| cfg.telemetry = true);
        let req = Request::new(RequestId(0), SimTime::ZERO, 256, 8);
        legacy
            .run_with_faults(&[req], &FaultScript::none())
            .unwrap();
        let log = legacy.take_trace().expect("telemetry was on");
        assert!(log.model_tags().is_empty());
    }

    #[test]
    fn flow_endpoints_pick_the_heaviest_leg_and_total_layers() {
        let d = testbed(|_| {});
        let Topology::Split(s) = &d.topo else {
            unreachable!()
        };
        // tp=4/pp=1 on both sides: a single leg carrying every layer.
        let (_, _, layers) = s.flow_routes[0][0];
        assert_eq!(layers, d.core.cfg.model.num_layers);
        assert_eq!(flow_endpoints(&[]), (GpuId(0), GpuId(0), 0));
    }
}
