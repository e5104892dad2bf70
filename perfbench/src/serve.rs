//! What the benchmark reads from one simulated serving run: SLO outcomes,
//! latency percentiles, the output digest and the correctness gates.

use crate::util::{quantile_sorted, sorted_secs, Digest};
use crate::Run;
use ts_common::{SloKind, SloSpec};
use ts_sim::metrics::Metrics;
use ts_telemetry::{TraceKind, TraceLog};

/// One serving run, summarised.
pub struct Served {
    pub submitted: usize,
    pub completed: usize,
    pub dropped: usize,
    pub rejected: usize,
    /// Requests meeting all three deadlines of the SLO.
    pub good: usize,
    /// Simulated seconds the run spans (the metrics' horizon).
    pub horizon_s: f64,
    pub ttft_p50_s: f64,
    pub ttft_p99_s: f64,
    pub tpot_p50_s: f64,
    pub tpot_p99_s: f64,
    pub kv_queue_wait_p99_s: f64,
    pub kv_wire_p99_s: f64,
    /// Smallest scale of the base SLO at which 90% of submitted requests
    /// meet the end-to-end deadline, on the experiments' scale grid.
    pub deadline_scale_90: Option<f64>,
    pub digest: String,
}

impl Served {
    /// Share of submitted requests meeting the SLO.
    pub fn attainment(&self) -> f64 {
        self.good as f64 / self.submitted.max(1) as f64
    }

    pub fn goodput_rps(&self) -> f64 {
        self.good as f64 / self.horizon_s
    }
}

/// Summarises `m` for `submitted` requests under `slo` and checks its
/// outputs: conservation, one record per submitted id, and event times in
/// order on every record.
pub fn summarize(
    run: &mut Run,
    label: &str,
    m: &Metrics,
    submitted: usize,
    slo: &SloSpec,
    base: &SloSpec,
) -> Served {
    let (completed, dropped, rejected) = (m.num_completed(), m.num_dropped(), m.num_rejected());
    run.check(completed + dropped + rejected == submitted, || {
        format!("{label}: completed {completed} + dropped {dropped} + rejected {rejected} != submitted {submitted}")
    });
    let mut seen = vec![false; submitted];
    let mut in_order = true;
    for r in m.records() {
        let id = r.request.id.0 as usize;
        in_order &= id < submitted && !std::mem::replace(&mut seen[id], true);
        in_order &= r.request.arrival <= r.first_token_at && r.first_token_at <= r.finished_at;
    }
    run.check(in_order, || {
        format!("{label}: a record has an unknown or repeated id, or times out of order")
    });

    let ttft = sorted_secs(m.records().iter().map(|r| r.ttft()));
    let tpot = sorted_secs(m.records().iter().map(|r| r.tpot()));
    let kvq = sorted_secs(m.records().iter().map(|r| r.kv_queue_wait));
    let kvw = sorted_secs(m.records().iter().map(|r| r.kv_wire_time));
    let good = m.records().iter().filter(|r| r.meets(slo)).count();
    let mut digest = Digest::new();
    digest.metrics(m);
    Served {
        submitted,
        completed,
        dropped,
        rejected,
        good,
        horizon_s: m.horizon().as_secs_f64(),
        ttft_p50_s: quantile_sorted(&ttft, 0.5),
        ttft_p99_s: quantile_sorted(&ttft, 0.99),
        tpot_p50_s: quantile_sorted(&tpot, 0.5),
        tpot_p99_s: quantile_sorted(&tpot, 0.99),
        kv_queue_wait_p99_s: quantile_sorted(&kvq, 0.99),
        kv_wire_p99_s: quantile_sorted(&kvw, 0.99),
        deadline_scale_90: m.min_scale_for(base, SloKind::E2e, 0.9, ts_bench::harness::SLO_SCALES),
        digest: digest.hex(),
    }
}

/// Records the end-to-end metrics of one serving run billed at
/// `usd_per_hour` over its horizon.
pub fn record_e2e(run: &mut Run, s: &Served, usd_per_hour: f64) {
    let cost = usd_per_hour * s.horizon_s / 3600.0;
    run.set("slo_attainment", s.attainment());
    run.set("goodput_rps", s.goodput_rps());
    run.set("cost_usd", cost);
    run.set("usd_per_1k_good", 1000.0 * cost / s.good.max(1) as f64);
    run.set(
        "completed_frac",
        s.completed as f64 / s.submitted.max(1) as f64,
    );
    run.set("ttft_p50_s", s.ttft_p50_s);
    run.set("ttft_p99_s", s.ttft_p99_s);
    run.set("tpot_p50_ms", 1e3 * s.tpot_p50_s);
    run.set("tpot_p99_ms", 1e3 * s.tpot_p99_s);
    if let Some(x) = s.deadline_scale_90 {
        run.set("deadline_scale_90", x);
    }
    run.ctx("latency_samples", s.completed.to_string());
    run.ctx("submitted", s.submitted.to_string());
    run.ctx("digest", crate::json_str(&s.digest));
}

/// Queue, batch and link figures read from a telemetry recording.
#[derive(Default)]
pub struct Recorded {
    pub events: usize,
    /// Prefill-queue waits (enqueue to prefill start), seconds, ascending.
    pub queue_waits: Vec<f64>,
    pub prefill_launches: usize,
    pub prefill_seqs: usize,
    pub decode_steps: usize,
    pub decode_seqs: usize,
    pub decode_peak: usize,
    /// Time-weighted utilisation of every fabric link.
    pub link_means: Vec<f64>,
    pub link_peak: f64,
}

impl Recorded {
    /// Folds in one recording.
    pub fn add(&mut self, log: &TraceLog) {
        use std::collections::HashMap;
        self.events += log.len();
        let mut enqueued = HashMap::new();
        let mut launches = std::collections::HashSet::new();
        for e in log.events() {
            match e.kind {
                TraceKind::Enqueued { request, .. } => {
                    enqueued.entry(request).or_insert(e.at);
                }
                TraceKind::PrefillStart {
                    request, replica, ..
                } => {
                    if let Some(t) = enqueued.remove(&request) {
                        self.queue_waits
                            .push(e.at.saturating_since(t).as_secs_f64());
                    }
                    // Requests launched together share an instant and a replica.
                    launches.insert((e.at, replica));
                    self.prefill_seqs += 1;
                }
                TraceKind::DecodeStep { batch, .. } => {
                    self.decode_steps += 1;
                    self.decode_seqs += batch;
                    self.decode_peak = self.decode_peak.max(batch);
                }
                _ => {}
            }
        }
        self.prefill_launches += launches.len();
        for (link, _, _) in log.links() {
            let s = log.link_utilization_series(link);
            self.link_means.push(s.time_weighted_mean(log.end()));
            self.link_peak = self.link_peak.max(s.peak());
        }
    }

    /// Records the `sim.*` queue/batch metrics and the `fabric.*` link
    /// metrics, with their sample counts.
    pub fn record(mut self, run: &mut Run) {
        self.queue_waits.sort_by(f64::total_cmp);
        run.set(
            "sim.queue_wait_p50_s",
            quantile_sorted(&self.queue_waits, 0.5),
        );
        run.set(
            "sim.queue_wait_p99_s",
            quantile_sorted(&self.queue_waits, 0.99),
        );
        run.set(
            "sim.prefill_batch_mean",
            self.prefill_seqs as f64 / self.prefill_launches.max(1) as f64,
        );
        run.set(
            "sim.decode_batch_mean",
            self.decode_seqs as f64 / self.decode_steps.max(1) as f64,
        );
        run.set("sim.decode_batch_peak", self.decode_peak as f64);
        run.set("telemetry.trace_events", self.events as f64);
        run.ctx("queue_wait_samples", self.queue_waits.len().to_string());
        run.ctx("prefill_launches", self.prefill_launches.to_string());
        run.ctx("decode_steps", self.decode_steps.to_string());
        if !self.link_means.is_empty() {
            let mean = self.link_means.iter().sum::<f64>() / self.link_means.len() as f64;
            run.set("fabric.link_util_mean", mean);
            run.set("fabric.link_util_peak", self.link_peak);
            run.ctx("fabric_links", self.link_means.len().to_string());
        }
    }
}
