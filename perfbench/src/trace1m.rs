//! `trace-1m`: one million conversation requests on a fixed 1024-replica
//! homogeneous A5000 phase-split plan, no scheduler.
//!
//! This loads the simulator's event loop, routing and decode-boundary
//! pricing with thin batches across many replicas, where `BENCH_sim.json`
//! shows its events/s cliff. It skips the scheduler, the fabric and
//! telemetry.

use crate::serve::{record_e2e, summarize, Recorded, Served};
use crate::{repeat, traced_pair, RepTimes, Run};
use ts_cluster::presets;
use ts_common::{
    DeploymentPlan, GpuId, GroupSpec, ModelSpec, ParallelConfig, Phase, Request, RoutingMatrix,
    SimDuration, SloSpec, StageSpec,
};
use ts_sim::metrics::Metrics;
use ts_sim::{SimConfig, Simulation};
use ts_telemetry::StreamConfig;
use ts_workload::{generator::generate, spec};

pub const NAME: &str = "trace-1m";

const REQUESTS: usize = 1_000_000;
const REPLICAS: usize = 1024;
/// Offered load, requests per simulated second.
const RATE: f64 = 256.0;
/// Requests of the trace's prefix replayed with the telemetry recorder on:
/// a recording of the whole trace would not fit a small host's memory.
const RECORDED_PREFIX: usize = 20_000;

/// Reference latency of LLaMA-7B on one A5000 (one prefill of the mean
/// prompt, one decode step, the mean request end to end).
fn base_slo() -> SloSpec {
    SloSpec::new(
        SimDuration::from_millis(1500),
        SimDuration::from_millis(30),
        SimDuration::from_secs(6),
    )
}

/// The SLO requests are held to: a multiple of [`base_slo`].
fn slo() -> SloSpec {
    base_slo().scaled(2.0)
}

/// Half prefill, half decode, one GPU per replica, prefill `i` feeding
/// decode `i` — the plan `bench_sim` builds for its 1M-request arm.
fn split_plan(replicas: usize, layers: usize) -> DeploymentPlan {
    let replica = |phase, gpu: u32| {
        GroupSpec::new(
            phase,
            ParallelConfig::new(1, 1).expect("tp=1, pp=1 is valid"),
            vec![StageSpec {
                gpus: vec![GpuId(gpu)],
                layers,
            }],
        )
        .expect("one-GPU group is valid")
    };
    let half = replicas / 2;
    let mut groups = Vec::with_capacity(replicas);
    for g in 0..half {
        groups.push(replica(Phase::Prefill, g as u32));
    }
    for g in 0..half {
        groups.push(replica(Phase::Decode, (half + g) as u32));
    }
    let mut rates = vec![vec![0.0; half]; half];
    for (p, row) in rates.iter_mut().enumerate() {
        row[p] = 1.0 / half as f64;
    }
    DeploymentPlan::new(
        groups,
        RoutingMatrix::new(rates).expect("diagonal routing is valid"),
    )
    .expect("paired split plan is valid")
}

/// Exactly [`REQUESTS`] Poisson arrivals of the conversation mix.
fn trace(seed: u64) -> Vec<Request> {
    let horizon = SimDuration::from_secs_f64(1.25 * REQUESTS as f64 / RATE);
    let mut reqs = generate(&spec::conversation(RATE), horizon, seed);
    reqs.truncate(REQUESTS);
    reqs
}

/// One repetition's timings and, when it served, its outputs.
struct Rep {
    times: RepTimes,
    gen_s: f64,
    new_s: f64,
    run_s: f64,
    report_s: f64,
    events: u64,
    usd_per_hour: f64,
    served: Option<(Served, Metrics)>,
}

/// Sets up (cluster, plan, trace, `Simulation::new`) and, when `serve`,
/// runs the trace and reports.
fn rep(run: &mut Run, serve: bool) -> Result<Rep, String> {
    let root = run.tracer.begin(NAME);
    let setup = run.tracer.begin("setup");
    let model = ModelSpec::llama_7b();
    let cluster = presets::a5000_cluster(REPLICAS);
    let plan = split_plan(REPLICAS, model.num_layers);
    let o = run.tracer.begin("workload.gen");
    let reqs = trace(run.seed);
    let gen_s = run.tracer.end(o);
    if reqs.len() != REQUESTS {
        return Err(format!(
            "{NAME}: generated {} requests, want {REQUESTS}",
            reqs.len()
        ));
    }
    let o = run.tracer.begin("sim.new");
    let mut sim = Simulation::new(&cluster, &plan, SimConfig::new(model))
        .map_err(|e| format!("{NAME}: Simulation::new: {e}"))?;
    let new_s = run.tracer.end(o);
    let setup_s = run.tracer.end(setup);
    let mut out = Rep {
        times: RepTimes {
            setup_s,
            wall_s: 0.0,
        },
        gen_s,
        new_s,
        run_s: 0.0,
        report_s: 0.0,
        events: 0,
        usd_per_hour: cluster.price_per_hour(),
        served: None,
    };
    if serve {
        let o = run.tracer.begin("sim.run");
        let m = sim
            .run(&reqs)
            .map_err(|e| format!("{NAME}: Simulation::run: {e}"))?;
        out.run_s = run.tracer.end(o);
        out.events = sim.events_processed();
        let o = run.tracer.begin("report");
        let s = summarize(run, NAME, &m, reqs.len(), &slo(), &base_slo());
        out.report_s = run.tracer.end(o);
        run.count(s.submitted, s.dropped + s.rejected);
        out.served = Some((s, m));
    }
    out.times.wall_s = run.tracer.end(root);
    Ok(out)
}

pub fn run(run: &mut Run) -> Result<(), String> {
    run.ctx("requests", REQUESTS.to_string());
    run.ctx("replicas", REPLICAS.to_string());
    run.ctx("rate_rps", crate::json_num(RATE));
    if run.traced {
        return traced(run);
    }
    let mut first: Option<(Served, f64)> = None;
    repeat(run, |run, serve| {
        let r = rep(run, serve)?;
        if let Some((s, _)) = r.served {
            match &first {
                None => first = Some((s, r.usd_per_hour)),
                Some((f, _)) => run.check(f.digest == s.digest, || {
                    format!(
                        "{NAME}: outputs differ between repetitions ({} vs {})",
                        f.digest, s.digest
                    )
                }),
            }
        }
        Ok(r.times)
    })?;
    let (s, usd_per_hour) = first.expect("repeat serves at least once");
    record_e2e(run, &s, usd_per_hour);
    Ok(())
}

fn traced(run: &mut Run) -> Result<(), String> {
    let (untraced, traced) = traced_pair(run, |run| rep(run, true), |r| r.times.wall_s)?;
    let (s, m) = traced.served.expect("served");
    let (u, _) = untraced.served.expect("served");
    run.check(s.digest == u.digest, || {
        format!("{NAME}: tracing changed the outputs")
    });
    run.set("workload.gen_s", traced.gen_s);
    run.set("workload.requests", REQUESTS as f64);
    run.set("sim.new_s", traced.new_s);
    run.set("sim.run_s", traced.run_s);
    run.set("sim.events", traced.events as f64);
    run.set(
        "sim.ns_per_event",
        1e9 * traced.run_s / traced.events.max(1) as f64,
    );
    run.set("sim.submitted", s.submitted as f64);
    run.set("sim.completed", s.completed as f64);
    run.set("sim.dropped", s.dropped as f64);
    run.set("sim.rejected", s.rejected as f64);
    run.set("sim.kv_queue_wait_p99_s", s.kv_queue_wait_p99_s);
    run.set("sim.kv_wire_p99_s", s.kv_wire_p99_s);
    run.set("report.s", traced.report_s);
    run.ctx("digest", crate::json_str(&s.digest));
    run.ctx("latency_samples", s.completed.to_string());

    let model = ModelSpec::llama_7b();
    let cluster = presets::a5000_cluster(REPLICAS);
    let plan = split_plan(REPLICAS, model.num_layers);
    let reqs = trace(run.seed);

    // Streaming plane on the default (coalesced) path: same Metrics, and
    // what it costs to attach.
    let cfg = SimConfig::new(model.clone()).with_streaming(StreamConfig::new(slo()));
    let mut sim = Simulation::new(&cluster, &plan, cfg).map_err(|e| e.to_string())?;
    let o = run.tracer.begin("probe.streaming");
    let streamed = sim.run(&reqs).map_err(|e| e.to_string())?;
    let stream_run_s = run.tracer.end(o);
    run.check(streamed == m, || {
        format!("{NAME}: attaching the streaming plane changed Metrics")
    });
    run.set("telemetry.stream_overhead_s", stream_run_s - traced.run_s);
    drop((sim, streamed, m));

    // Telemetry recorder on a prefix of the trace: same Metrics with it off
    // and on, and the queue and batch figures it records.
    let prefix = &reqs[..RECORDED_PREFIX];
    let mut times = [0.0; 2];
    let mut outs = Vec::new();
    for (i, on) in [false, true].into_iter().enumerate() {
        let cfg = SimConfig::new(model.clone()).with_telemetry(on);
        let mut sim = Simulation::new(&cluster, &plan, cfg).map_err(|e| e.to_string())?;
        let o = run.tracer.begin(if on {
            "probe.recorder_on"
        } else {
            "probe.recorder_off"
        });
        outs.push(sim.run(prefix).map_err(|e| e.to_string())?);
        times[i] = run.tracer.end(o);
        if on {
            let mut rec = Recorded::default();
            rec.add(&sim.take_trace().ok_or("recorder produced no trace")?);
            rec.record(run);
        }
    }
    run.check(outs[0] == outs[1], || {
        format!("{NAME}: the telemetry recorder changed Metrics")
    });
    run.set("telemetry.recorder_overhead_s", times[1] - times[0]);
    run.ctx("recorder_probe_requests", RECORDED_PREFIX.to_string());
    Ok(())
}
