//! Bit-identity at the replica count of the 1M-request benchmark.
//!
//! The golden suite (`bit_identity.rs`) runs at most eight replicas. This
//! runs the `trace-1m` plan shape — 1024 one-GPU A5000 replicas, prefill
//! `i` feeding decode `i` — on a conversation trace, with a decode
//! straggler switched on and off mid-run, and asserts `Metrics` are
//! bit-equal with decode coalescing and the streaming plane each on and
//! off. Built in the test profile, the engine's debug assertions (plan
//! boundary bookkeeping, router eligibility) run at the scale where the
//! shared step tables and the router's per-arrival scan matter.

use ts_cluster::presets;
use ts_common::{
    DeploymentPlan, GpuId, GroupSpec, ModelSpec, ParallelConfig, Phase, RoutingMatrix, SimDuration,
    SimTime, SloSpec, StageSpec,
};
use ts_sim::{FaultKind, FaultScript, Metrics, SimConfig, Simulation, TimedFault};
use ts_telemetry::StreamConfig;
use ts_workload::{generator::generate, spec};

const REPLICAS: usize = 1024;
const REQUESTS: usize = 5_000;
const RATE: f64 = 256.0;

/// Half prefill, half decode, one GPU each, prefill `i` routed to decode `i`.
fn paired_plan(layers: usize) -> DeploymentPlan {
    let group = |phase, gpu: usize| {
        GroupSpec::new(
            phase,
            ParallelConfig::new(1, 1).unwrap(),
            vec![StageSpec {
                gpus: vec![GpuId(gpu as u32)],
                layers,
            }],
        )
        .unwrap()
    };
    let half = REPLICAS / 2;
    let groups = (0..half)
        .map(|g| group(Phase::Prefill, g))
        .chain((0..half).map(|g| group(Phase::Decode, half + g)))
        .collect();
    let mut rates = vec![vec![0.0; half]; half];
    for (p, row) in rates.iter_mut().enumerate() {
        row[p] = 1.0 / half as f64;
    }
    DeploymentPlan::new(groups, RoutingMatrix::new(rates).unwrap()).unwrap()
}

/// Two decode replicas slow down mid-run (one recovers), so re-plans
/// price from straggler tables as well as healthy ones.
fn straggler_script() -> FaultScript {
    let at = SimTime::from_secs_f64;
    FaultScript::new(
        vec![
            TimedFault {
                at: at(3.0),
                kind: FaultKind::DecodeSlow(7, 3.0),
            },
            TimedFault {
                at: at(5.5),
                kind: FaultKind::DecodeSlow(300, 1.5),
            },
            TimedFault {
                at: at(11.0),
                kind: FaultKind::DecodeSlow(7, 1.0),
            },
        ],
        SimDuration::from_millis(100),
    )
}

#[test]
fn metrics_are_bit_equal_across_coalescing_and_streaming_at_1024_replicas() {
    let model = ModelSpec::llama_7b();
    let cluster = presets::a5000_cluster(REPLICAS);
    let plan = paired_plan(model.num_layers);
    let horizon = SimDuration::from_secs_f64(1.25 * REQUESTS as f64 / RATE);
    let mut reqs = generate(&spec::conversation(RATE), horizon, 11);
    reqs.truncate(REQUESTS);
    assert_eq!(reqs.len(), REQUESTS);
    let stream = StreamConfig::new(SloSpec::new(
        SimDuration::from_millis(3000),
        SimDuration::from_millis(60),
        SimDuration::from_secs(12),
    ));
    let script = straggler_script();
    let run = |cfg: SimConfig| -> Metrics {
        let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
        sim.run_with_faults(&reqs, &script).unwrap()
    };
    let base = run(SimConfig::new(model.clone()));
    assert_eq!(base.num_completed(), REQUESTS, "every request completes");
    let arms = [
        (
            "coalescing off",
            SimConfig::new(model.clone()).with_decode_coalescing(false),
        ),
        (
            "streaming on",
            SimConfig::new(model.clone()).with_streaming(stream.clone()),
        ),
        (
            "streaming on, coalescing off",
            SimConfig::new(model.clone())
                .with_streaming(stream)
                .with_decode_coalescing(false),
        ),
    ];
    for (name, cfg) in arms {
        assert!(
            run(cfg) == base,
            "{name}: metrics diverged from the default run"
        );
    }
}
