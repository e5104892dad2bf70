//! `cloud-ladder`: the `reproduce` pipeline on the paper's 32-GPU,
//! 7-instance cloud — LLaMA-30B, the coding workload, a fixed ladder of
//! arrival rates. Each rung is planned by `Scheduler::schedule` with the
//! default configuration and simulated, with the flow-level fabric on in
//! both the scheduler and the simulator.
//!
//! This is the paper's headline experiment (highest rate under the SLO,
//! deadline scale). It loads the full tabu search with parallel-config
//! deduction and the orchestration LP, and prefill-heavy KV transfers over
//! slow heterogeneous links, the max-min fabric's job; the simulator runs
//! few replicas with deep queues.

use crate::serve::{record_e2e, summarize, Recorded, Served};
use crate::util::{quantile_sorted, sorted_secs};
use crate::{json_list, json_num, repeat, traced_pair, RepTimes, Run};
use std::time::Instant;
use thunderserve_core::orchestrate::sim_config;
use thunderserve_core::{
    deduce_parallel_config, lightweight_reschedule, orchestrate, ScheduleResult, Scheduler,
    SchedulerConfig,
};
use ts_bench::harness::base_slo_30b;
use ts_cluster::{presets, Cluster};
use ts_common::rng::derive_seed;
use ts_common::{ModelSpec, NodeId, Request, SimDuration, SloSpec};
use ts_sim::estimate::estimate_attainment;
use ts_sim::metrics::Metrics;
use ts_sim::Simulation;
use ts_workload::{generator::generate, spec, WorkloadSpec};

pub const NAME: &str = "cloud-ladder";

/// Offered rates of the ladder, requests per simulated second.
const RUNGS: [f64; 7] = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5];
/// Simulated seconds of arrivals per rung.
const WINDOW_S: f64 = 3600.0;
/// The rung whose latency, attainment, goodput and cost are reported.
const REFERENCE_RATE: f64 = 2.0;
/// Attainment every rung up to `max_rate_rps` must reach.
const GOAL: f64 = 0.90;
/// The instance lost in the scripted failure before lightweight
/// rescheduling (the first 3090Ti box).
const LOST_NODE: NodeId = NodeId(5);
/// Replays of each scheduler phase per rung when timing it on its own.
const PHASE_REPLAYS: usize = 20;

fn slo() -> SloSpec {
    base_slo_30b().scaled(8.0)
}

fn sched_cfg(search_trace: bool) -> SchedulerConfig {
    SchedulerConfig {
        network_contention: true,
        search_trace,
        ..SchedulerConfig::default()
    }
}

struct Rung {
    workload: WorkloadSpec,
    sched: ScheduleResult,
    reqs: Vec<Request>,
}

struct Rep {
    times: RepTimes,
    schedule_s: f64,
    gen_s: f64,
    new_s: f64,
    run_s: f64,
    report_s: f64,
    events: u64,
    usd_per_hour: f64,
    rungs: Vec<Rung>,
    served: Vec<(Served, Metrics)>,
}

/// Sets up (cluster, one schedule + trace + `Simulation::new` per rung)
/// and, when `serve`, simulates every rung and reports. The scheduler's
/// search trace is on only while spans are recorded.
fn rep(run: &mut Run, serve: bool) -> Result<Rep, String> {
    let root = run.tracer.begin(NAME);
    let setup = run.tracer.begin("setup");
    let model = ModelSpec::llama_30b();
    let cluster = presets::paper_cloud_cluster();
    let cfg = sched_cfg(run.tracer.on());
    let mut out = Rep {
        times: RepTimes {
            setup_s: 0.0,
            wall_s: 0.0,
        },
        schedule_s: 0.0,
        gen_s: 0.0,
        new_s: 0.0,
        run_s: 0.0,
        report_s: 0.0,
        events: 0,
        usd_per_hour: cluster.price_per_hour(),
        rungs: Vec::new(),
        served: Vec::new(),
    };
    for (i, &rate) in RUNGS.iter().enumerate() {
        let workload = spec::coding(rate);
        let o = run.tracer.begin("scheduler.schedule");
        let sched = Scheduler::new(cfg.clone())
            .schedule(&cluster, &model, &workload, &slo())
            .map_err(|e| format!("{NAME}: schedule at {rate} req/s: {e}"))?;
        out.schedule_s += run.tracer.end(o);
        let o = run.tracer.begin("workload.gen");
        let window = SimDuration::from_secs_f64(WINDOW_S);
        let reqs = generate(&workload, window, derive_seed(run.seed, i as u64));
        out.gen_s += run.tracer.end(o);
        out.rungs.push(Rung {
            workload,
            sched,
            reqs,
        });
    }
    let mut sims = Vec::new();
    for r in &out.rungs {
        let o = run.tracer.begin("sim.new");
        let sim = Simulation::new(&cluster, &r.sched.plan, sim_config(&model, &cfg))
            .map_err(|e| format!("{NAME}: Simulation::new: {e}"))?;
        out.new_s += run.tracer.end(o);
        sims.push(sim);
    }
    out.times.setup_s = run.tracer.end(setup);
    if serve {
        let mut results = Vec::new();
        for (sim, r) in sims.iter_mut().zip(&out.rungs) {
            let o = run.tracer.begin("sim.run");
            results.push(
                sim.run(&r.reqs)
                    .map_err(|e| format!("{NAME}: Simulation::run: {e}"))?,
            );
            out.run_s += run.tracer.end(o);
            out.events += sim.events_processed();
        }
        let o = run.tracer.begin("report");
        for (m, (r, &rate)) in results.into_iter().zip(out.rungs.iter().zip(&RUNGS)) {
            let label = format!("{NAME} @ {rate} req/s");
            let s = summarize(run, &label, &m, r.reqs.len(), &slo(), &base_slo_30b());
            run.count(s.submitted, s.dropped + s.rejected);
            out.served.push((s, m));
        }
        out.report_s = run.tracer.end(o);
    }
    drop(sims);
    out.times.wall_s = run.tracer.end(root);
    Ok(out)
}

/// The highest rung at which it and every lower rung reach [`GOAL`].
fn max_rate(served: &[(Served, Metrics)]) -> Option<f64> {
    RUNGS
        .iter()
        .zip(served)
        .take_while(|(_, (s, _))| s.attainment() >= GOAL)
        .last()
        .map(|(&r, _)| r)
}

fn digests(rep: &Rep) -> Vec<String> {
    rep.served.iter().map(|(s, _)| s.digest.clone()).collect()
}

pub fn run(run: &mut Run) -> Result<(), String> {
    run.ctx("rungs_rps", json_list(&RUNGS));
    run.ctx("rung_window_s", json_num(WINDOW_S));
    run.ctx("reference_rate_rps", json_num(REFERENCE_RATE));
    if run.traced {
        return traced(run);
    }
    let mut first: Option<Rep> = None;
    repeat(run, |run, serve| {
        let r = rep(run, serve)?;
        if !serve {
            return Ok(r.times);
        }
        let times = r.times;
        match &first {
            None => first = Some(r),
            Some(f) => {
                let (a, b) = (digests(f), digests(&r));
                run.check(a == b, || {
                    format!("{NAME}: outputs differ between repetitions")
                });
            }
        }
        Ok(times)
    })?;
    let rep = first.expect("repeat serves at least once");
    let reference = RUNGS
        .iter()
        .position(|&r| r == REFERENCE_RATE)
        .expect("reference rate is a rung");
    record_e2e(run, &rep.served[reference].0, rep.usd_per_hour);
    if let Some(r) = max_rate(&rep.served) {
        run.set("max_rate_rps", r);
    }
    let attainments: Vec<f64> = rep.served.iter().map(|(s, _)| s.attainment()).collect();
    run.ctx("rung_attainment", json_list(&attainments));
    let counts: Vec<f64> = rep.served.iter().map(|(s, _)| s.submitted as f64).collect();
    run.ctx("rung_submitted", json_list(&counts));
    let d: Vec<String> = digests(&rep).iter().map(|x| crate::json_str(x)).collect();
    run.ctx("rung_digests", format!("[{}]", d.join(", ")));
    Ok(())
}

/// Mean microseconds of `f` over [`PHASE_REPLAYS`] calls.
fn per_call_us<T>(mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    for _ in 0..PHASE_REPLAYS {
        std::hint::black_box(f());
    }
    1e6 * t0.elapsed().as_secs_f64() / PHASE_REPLAYS as f64
}

fn traced(run: &mut Run) -> Result<(), String> {
    let (untraced, traced) = traced_pair(run, |run| rep(run, true), |r| r.times.wall_s)?;
    run.check(digests(&traced) == digests(&untraced), || {
        format!("{NAME}: the search trace or the spans changed the outputs")
    });
    drop(untraced);

    let rungs = &traced.rungs;
    let sum = |f: &dyn Fn(&ScheduleResult) -> f64| rungs.iter().map(|r| f(&r.sched)).sum::<f64>();
    let evaluations = sum(&|s| s.evaluations as f64);
    let (hits, misses) = (
        sum(&|s| s.group_cache_hits as f64),
        sum(&|s| s.group_cache_misses as f64),
    );
    run.set("scheduler.schedule_s", traced.schedule_s);
    run.set("scheduler.calls", rungs.len() as f64);
    run.set("scheduler.evaluations", evaluations);
    run.set(
        "scheduler.neighbors",
        sum(&|s| s.neighbors_generated as f64),
    );
    run.set(
        "scheduler.eval_us",
        1e6 * traced.schedule_s / evaluations.max(1.0),
    );
    run.set("scheduler.cache_hit_ratio", hits / (hits + misses).max(1.0));
    let steps: Vec<_> = rungs
        .iter()
        .filter_map(|r| r.sched.search_trace.as_ref())
        .flat_map(|t| t.steps.iter())
        .collect();
    run.check(!steps.is_empty(), || {
        format!("{NAME}: the search trace is empty")
    });
    let generated = steps.iter().map(|s| s.generated).sum::<usize>().max(1) as f64;
    let frac = |f: &dyn Fn(&ts_telemetry::SearchStep) -> usize| {
        steps.iter().map(|s| f(s)).sum::<usize>() as f64 / generated
    };
    run.set("scheduler.tabu_frac", frac(&|s| s.tabu_filtered));
    run.set("scheduler.duplicate_frac", frac(&|s| s.duplicates));
    run.set("scheduler.infeasible_frac", frac(&|s| s.infeasible));
    run.ctx("search_steps", steps.len().to_string());
    run.ctx("search_cache_hit_frac", json_num(frac(&|s| s.cache_hits)));
    run.ctx("search_evaluated_frac", json_num(frac(&|s| s.evaluated)));

    let gaps: Vec<f64> = rungs
        .iter()
        .zip(&traced.served)
        .map(|(r, (s, _))| r.sched.estimated_attainment - s.attainment())
        .collect();
    run.set(
        "scheduler.est_gap",
        gaps.iter().sum::<f64>() / gaps.len() as f64,
    );
    run.ctx("rung_est_gap", json_list(&gaps));

    let s: Vec<&Served> = traced.served.iter().map(|(s, _)| s).collect();
    let total = |f: &dyn Fn(&Served) -> usize| s.iter().map(|x| f(x)).sum::<usize>() as f64;
    run.set("workload.gen_s", traced.gen_s);
    run.set("workload.requests", total(&|x| x.submitted));
    run.set("sim.new_s", traced.new_s);
    run.set("sim.run_s", traced.run_s);
    run.set("sim.events", traced.events as f64);
    run.set(
        "sim.ns_per_event",
        1e9 * traced.run_s / traced.events.max(1) as f64,
    );
    run.set("sim.submitted", total(&|x| x.submitted));
    run.set("sim.completed", total(&|x| x.completed));
    run.set("sim.dropped", total(&|x| x.dropped));
    run.set("sim.rejected", total(&|x| x.rejected));
    let pooled = |f: &dyn Fn(&ts_sim::metrics::RequestRecord) -> SimDuration| {
        let v = sorted_secs(
            traced
                .served
                .iter()
                .flat_map(|(_, m)| m.records().iter().map(f)),
        );
        quantile_sorted(&v, 0.99)
    };
    run.set("sim.kv_queue_wait_p99_s", pooled(&|r| r.kv_queue_wait));
    run.set("sim.kv_wire_p99_s", pooled(&|r| r.kv_wire_time));
    run.set("report.s", traced.report_s);

    let model = ModelSpec::llama_30b();
    let cluster = presets::paper_cloud_cluster();
    let cfg = sched_cfg(false);
    let slo = slo();
    phase_replays(run, &cluster, &model, &cfg, &slo, rungs)?;
    reschedule(run, &cluster, &model, &cfg, &slo, rungs)?;

    // Toggle pairs over the same plans and traces. The fabric changes the
    // model, so its effect is reported; the recorder must not change it.
    let mut fabric_off_s = 0.0;
    let mut recorder_on_s = 0.0;
    let mut off_attainment = Vec::new();
    let mut rec = Recorded::default();
    let mut invariant = true;
    for (r, (_, m)) in rungs.iter().zip(&traced.served) {
        let off = sim_config(&model, &cfg).with_network_contention(false);
        let mut sim = Simulation::new(&cluster, &r.sched.plan, off).map_err(|e| e.to_string())?;
        let o = run.tracer.begin("probe.fabric_off");
        let m_off = sim.run(&r.reqs).map_err(|e| e.to_string())?;
        fabric_off_s += run.tracer.end(o);
        off_attainment.push(m_off.joint_attainment(&slo));

        let on = sim_config(&model, &cfg).with_telemetry(true);
        let mut sim = Simulation::new(&cluster, &r.sched.plan, on).map_err(|e| e.to_string())?;
        let o = run.tracer.begin("probe.recorder_on");
        let m_rec = sim.run(&r.reqs).map_err(|e| e.to_string())?;
        recorder_on_s += run.tracer.end(o);
        invariant &= m_rec == *m;
        rec.add(&sim.take_trace().ok_or("recorder produced no trace")?);
    }
    run.check(invariant, || {
        format!("{NAME}: the telemetry recorder changed Metrics")
    });
    run.set("fabric.overhead_s", traced.run_s - fabric_off_s);
    run.set(
        "telemetry.recorder_overhead_s",
        recorder_on_s - traced.run_s,
    );
    run.ctx("rung_attainment_fabric_off", json_list(&off_attainment));
    rec.record(run);
    Ok(())
}

/// Times each scheduler phase on its own, called directly on every rung's
/// final plan: parallel-config deduction per group, the orchestration LP,
/// and the attainment estimate.
fn phase_replays(
    run: &mut Run,
    cluster: &Cluster,
    model: &ModelSpec,
    cfg: &SchedulerConfig,
    slo: &SloSpec,
    rungs: &[Rung],
) -> Result<(), String> {
    let (mut deduce, mut orch, mut est) = (0.0, 0.0, 0.0);
    let mut groups = 0usize;
    let o = run.tracer.begin("probe.phase_replays");
    for r in rungs {
        let plan = &r.sched.plan;
        for g in &plan.groups {
            let gpus: Vec<_> = g.gpus().collect();
            deduce_parallel_config(cluster, model, &gpus, g.phase, &r.workload, cfg)
                .map_err(|e| format!("{NAME}: deduce_parallel_config: {e}"))?;
            deduce += per_call_us(|| {
                deduce_parallel_config(cluster, model, &gpus, g.phase, &r.workload, cfg)
            });
            groups += 1;
        }
        orchestrate(cluster, model, plan.groups.clone(), &r.workload, slo, cfg)
            .map_err(|e| format!("{NAME}: orchestrate: {e}"))?;
        orch +=
            per_call_us(|| orchestrate(cluster, model, plan.groups.clone(), &r.workload, slo, cfg));
        let sc = sim_config(model, cfg);
        estimate_attainment(cluster, plan, &sc, &r.workload, slo)
            .map_err(|e| format!("{NAME}: estimate_attainment: {e}"))?;
        est += per_call_us(|| estimate_attainment(cluster, plan, &sc, &r.workload, slo));
    }
    run.tracer.end(o);
    run.set("scheduler.deduce_us", deduce / groups.max(1) as f64);
    run.set("scheduler.orchestrate_us", orch / rungs.len() as f64);
    run.set("scheduler.estimate_us", est / rungs.len() as f64);
    run.ctx("phase_replay_groups", groups.to_string());
    run.ctx("phase_replays_per_call", PHASE_REPLAYS.to_string());
    Ok(())
}

/// Loses [`LOST_NODE`] under every rung's plan and lightweight-reschedules.
fn reschedule(
    run: &mut Run,
    cluster: &Cluster,
    model: &ModelSpec,
    cfg: &SchedulerConfig,
    slo: &SloSpec,
    rungs: &[Rung],
) -> Result<(), String> {
    let mut degraded = cluster.clone();
    degraded
        .deactivate_node(LOST_NODE)
        .map_err(|e| e.to_string())?;
    let (mut ms, mut kept) = (Vec::new(), Vec::new());
    for r in rungs {
        let o = run.tracer.begin("reschedule.lightweight");
        let out = lightweight_reschedule(&degraded, model, &r.sched.plan, &r.workload, slo, cfg)
            .map_err(|e| format!("{NAME}: lightweight_reschedule: {e}"))?;
        ms.push(1e3 * run.tracer.end(o));
        run.check(out.reload_time == SimDuration::ZERO, || {
            format!("{NAME}: lightweight rescheduling reloaded weights")
        });
        kept.push(out.estimated_attainment / r.sched.estimated_attainment.max(f64::MIN_POSITIVE));
    }
    run.set(
        "reschedule.lightweight_ms",
        ms.iter().sum::<f64>() / ms.len() as f64,
    );
    run.set(
        "reschedule.kept_attainment",
        kept.iter().sum::<f64>() / kept.len() as f64,
    );
    run.ctx("reschedule_lost_node", LOST_NODE.0.to_string());
    run.ctx("rung_kept_attainment", json_list(&kept));
    Ok(())
}
