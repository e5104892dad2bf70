//! `autoscale-day`: the elastic arm of the committed 24-hour day
//! (`BENCH_autoscale.json`) — a diurnal conversation trace with a flash
//! crowd and a spot reclaim wave, served by `ts_autoscale::run_elastic`
//! over the elastic cloud pool.
//!
//! This loads `ts-runtime` segments, mid-flight spot reclaims,
//! `fleet_reschedule`'s flip-only search, the always-on telemetry recorder
//! and the autoscale controller and ledger. It uses the scheduler and the
//! simulator differently from the other two workloads: flip-only rather
//! than full search, and per-boundary replay rather than coalesced decode.
//!
//! The inputs are the committed day, `segments(false)`, on every `--seed`:
//! the controller's trajectory is chaotic in the trace draw. Redrawn from
//! other seeds, the 13:00 flash crowd collapsed on every one tried, and the
//! host work of a day moved by up to 30% between seeds, which would swamp
//! any host-time gate (see `perfbench/README.md`).

use crate::util::Digest;
use crate::{repeat, traced_pair, RepTimes, Run};
use thunderserve_core::SchedulerConfig;
use ts_autoscale::{run_elastic, AutoscaleTrajectory, Segment};
use ts_bench::exps::autoscale::{action_count, autoscale_cfg, measure_elastic, segments};
use ts_cluster::presets::elastic_cloud_pool;
use ts_common::{ModelSpec, SimDuration, SloSpec};
use ts_telemetry::ScaleKind;

pub const NAME: &str = "autoscale-day";

// The model, SLO and search budget of `ts_bench::exps::autoscale`, which
// keeps them private; the traced run checks that this benchmark's
// trajectory equals `measure_elastic(false)`.
fn model() -> ModelSpec {
    ModelSpec::llama_30b()
}

fn slo() -> SloSpec {
    SloSpec::new(
        SimDuration::from_secs(5),
        SimDuration::from_millis(300),
        SimDuration::from_secs(60),
    )
}

fn sched() -> SchedulerConfig {
    let mut c = SchedulerConfig::fast();
    c.n_step = 40;
    c.n_nghb = 10;
    c.seed = 47;
    c
}

/// A digest of everything a trajectory reports.
fn digest(t: &AutoscaleTrajectory) -> String {
    let mut d = Digest::new();
    for r in &t.records {
        for x in [r.segment, r.submitted, r.completed, r.dropped, r.rejected] {
            d.word(x as u64);
        }
        for x in [r.fleet_gpus, r.prefill_groups, r.decode_groups] {
            d.word(x as u64);
        }
        d.f64(r.attainment);
        d.f64(r.rate_per_hour);
        d.dur(r.blackout);
    }
    for e in &t.ledger.entries {
        d.word(e.segment as u64);
        d.dur(e.duration);
        d.word(e.gpus as u64);
        for n in &e.nodes {
            d.word(n.0 as u64);
        }
        d.f64(e.rate_per_hour);
        d.f64(e.cost);
    }
    for e in &t.scale_log {
        d.time(e.at);
        d.bytes(format!("{:?}", e.kind).as_bytes());
    }
    d.hex()
}

/// Conservation per segment and a ledger that balances: one entry per
/// segment, billed at the pool price of the nodes it lists for exactly the
/// segment's window, summing to the trajectory's total.
fn check(run: &mut Run, t: &AutoscaleTrajectory, segs: &[Segment]) {
    let pool = elastic_cloud_pool();
    run.check(
        t.records.len() == segs.len() && t.ledger.entries.len() == segs.len(),
        || {
            format!(
                "{NAME}: {} records and {} ledger entries for {} segments",
                t.records.len(),
                t.ledger.entries.len(),
                segs.len()
            )
        },
    );
    for ((r, e), s) in t.records.iter().zip(&t.ledger.entries).zip(segs) {
        let i = r.segment;
        run.check(r.submitted == s.requests.len(), || {
            format!("{NAME}: segment {i} submitted count")
        });
        run.check(r.completed + r.dropped + r.rejected == r.submitted, || {
            format!(
                "{NAME}: segment {i}: completed {} + dropped {} + rejected {} != submitted {}",
                r.completed, r.dropped, r.rejected, r.submitted
            )
        });
        let price: f64 = e.nodes.iter().map(|&n| pool.node_price(n)).sum();
        run.check(
            e.segment == i
                && e.duration == s.window
                && e.gpus == r.fleet_gpus
                && e.rate_per_hour == price
                && r.rate_per_hour == price
                && e.cost == price * s.window.as_secs_f64() / 3600.0,
            || format!("{NAME}: ledger entry of segment {i} does not match its fleet and window"),
        );
    }
    let sum: f64 = t.ledger.entries.iter().map(|e| e.cost).sum();
    run.check(sum == t.total_cost(), || {
        format!(
            "{NAME}: ledger entries sum to {sum}, total_cost() is {}",
            t.total_cost()
        )
    });
}

struct Rep {
    times: RepTimes,
    gen_s: f64,
    run_s: f64,
    report_s: f64,
    segs: Vec<Segment>,
    traj: Option<(AutoscaleTrajectory, String)>,
}

fn rep(run: &mut Run, serve: bool) -> Result<Rep, String> {
    let root = run.tracer.begin(NAME);
    let setup = run.tracer.begin("setup");
    let pool = elastic_cloud_pool();
    let o = run.tracer.begin("workload.gen");
    let segs = segments(false);
    let gen_s = run.tracer.end(o);
    let setup_s = run.tracer.end(setup);
    let mut out = Rep {
        times: RepTimes {
            setup_s,
            wall_s: 0.0,
        },
        gen_s,
        run_s: 0.0,
        report_s: 0.0,
        segs,
        traj: None,
    };
    if serve {
        let o = run.tracer.begin("autoscale.run_elastic");
        let t = run_elastic(
            &pool,
            &model(),
            &slo(),
            &sched(),
            &autoscale_cfg(false),
            &out.segs,
        )
        .map_err(|e| format!("{NAME}: run_elastic: {e}"))?;
        out.run_s = run.tracer.end(o);
        let o = run.tracer.begin("report");
        check(run, &t, &out.segs);
        let d = digest(&t);
        out.report_s = run.tracer.end(o);
        let submitted: usize = t.records.iter().map(|r| r.submitted).sum();
        let lost: usize = t.records.iter().map(|r| r.dropped + r.rejected).sum();
        run.count(submitted, lost);
        out.traj = Some((t, d));
    }
    out.times.wall_s = run.tracer.end(root);
    Ok(out)
}

fn good(t: &AutoscaleTrajectory) -> f64 {
    t.records
        .iter()
        .map(|r| r.attainment * r.submitted as f64)
        .sum()
}

pub fn run(run: &mut Run) -> Result<(), String> {
    run.ctx(
        "trace",
        "\"segments(false), the committed day, on every seed\"",
    );
    if run.traced {
        return traced(run);
    }
    let mut first: Option<(AutoscaleTrajectory, String)> = None;
    repeat(run, |run, serve| {
        let r = rep(run, serve)?;
        if let Some((t, d)) = r.traj {
            match &first {
                None => first = Some((t, d)),
                Some((_, f)) => run.check(*f == d, || {
                    format!("{NAME}: outputs differ between repetitions ({f} vs {d})")
                }),
            }
        }
        Ok(r.times)
    })?;
    let (t, d) = first.expect("repeat serves at least once");
    let submitted: usize = t.records.iter().map(|r| r.submitted).sum();
    let day_s = t.ledger.total_duration().as_secs_f64();
    run.set("slo_attainment", t.mean_attainment());
    run.set("goodput_rps", good(&t) / day_s);
    run.set("cost_usd", t.total_cost());
    run.set(
        "usd_per_1k_good",
        1000.0 * t.total_cost() / good(&t).max(1.0),
    );
    run.set(
        "completed_frac",
        t.completed() as f64 / submitted.max(1) as f64,
    );
    run.ctx("submitted", submitted.to_string());
    run.ctx("digest", crate::json_str(&d));
    let att: Vec<f64> = t.records.iter().map(|r| r.attainment).collect();
    run.ctx("segment_attainment", crate::json_list(&att));
    Ok(())
}

fn traced(run: &mut Run) -> Result<(), String> {
    let (untraced, traced) = traced_pair(run, |run| rep(run, true), |r| r.times.wall_s)?;
    let (t, d) = traced.traj.as_ref().expect("served");
    run.check(Some(d) == untraced.traj.as_ref().map(|(_, d)| d), || {
        format!("{NAME}: tracing changed the outputs")
    });

    let segs = t.records.len() as f64;
    let submitted: usize = t.records.iter().map(|r| r.submitted).sum();
    run.set("workload.gen_s", traced.gen_s);
    run.set("workload.requests", submitted as f64);
    run.set("autoscale.run_s", traced.run_s);
    run.set("autoscale.segments", segs);
    run.set(
        "autoscale.acquire",
        action_count(t, ScaleKind::Acquire) as f64,
    );
    run.set(
        "autoscale.release",
        action_count(t, ScaleKind::Release) as f64,
    );
    run.set("autoscale.drain", action_count(t, ScaleKind::Drain) as f64);
    run.set(
        "autoscale.flip",
        action_count(t, ScaleKind::PhaseFlip) as f64,
    );
    // A full re-plan is the only fleet edit that reloads weights, so it is
    // the only source of a segment-start blackout.
    let replans = t
        .records
        .iter()
        .filter(|r| r.blackout > SimDuration::ZERO)
        .count();
    run.set("autoscale.full_replans", replans as f64);
    run.set(
        "autoscale.blackout_s",
        t.records.iter().map(|r| r.blackout.as_secs_f64()).sum(),
    );
    run.set(
        "autoscale.mean_fleet_gpus",
        t.records.iter().map(|r| r.fleet_gpus as f64).sum::<f64>() / segs,
    );
    run.set("sim.submitted", submitted as f64);
    run.set("sim.completed", t.completed() as f64);
    run.set(
        "sim.dropped",
        t.records.iter().map(|r| r.dropped as f64).sum(),
    );
    run.set(
        "sim.rejected",
        t.records.iter().map(|r| r.rejected as f64).sum(),
    );
    run.set("report.s", traced.report_s);
    run.ctx("digest", crate::json_str(d));

    // The replicated model, SLO and search budget must give the committed
    // day's trajectory.
    let o = run.tracer.begin("probe.committed_day");
    let committed = measure_elastic(false);
    run.tracer.end(o);
    run.check(*t == committed, || {
        format!("{NAME}: the benchmark's day differs from measure_elastic(false)")
    });
    Ok(())
}
