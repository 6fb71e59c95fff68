//! The metric tables (`BENCHMARK.json` is checked against them by a test) and the
//! result a workload hands back.

use crate::json::{self, Value};
use crate::stats::Summary;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The five workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 5] = [
    "dense_bare",
    "dense_protected",
    "mixed_solve",
    "service_small",
    "plan_paper",
];

/// A gated end-to-end metric: `bound` is the relative worsening that counts as a
/// regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports all nine; README.md defines each per workload.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.2),
    e2e("cholesky_s_p50", "s", Better::Lower, 0.15),
    e2e("lu_s_p50", "s", Better::Lower, 0.15),
    e2e("qr_s_p50", "s", Better::Lower, 0.18),
    e2e("jobs_per_s", "1/s", Better::Higher, 0.15),
    e2e("latency_s_p50", "s", Better::Lower, 0.18),
    e2e("energy_saving_vs_sr_frac", "frac", Better::Higher, 0.01),
    e2e("ed2p_reduction_vs_sr_frac", "frac", Better::Higher, 0.01),
    e2e("iso_energy_speedup", "x", Better::Higher, 0.01),
];

/// An ungated per-layer metric, named `<module>.<metric>`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Ungated, so nothing acts on the direction; the test that holds
    /// `BENCHMARK.json` to this table reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every traced run reports all of them; a layer that is idle on the traced
/// workload reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // bsr-linalg::blas3 — packed level-3 kernels at n = 1024, one thread.
    hi("blas3.gemm_f64_gflops", "GFLOP/s"),
    hi("blas3.gemm_f64_k128_gflops", "GFLOP/s"),
    hi("blas3.trsm_f64_gflops", "GFLOP/s"),
    hi("blas3.syrk_f64_gflops", "GFLOP/s"),
    hi("blas3.gemm_f32_gflops", "GFLOP/s"),
    hi("blas3.gemm_f32_k128_gflops", "GFLOP/s"),
    // Panels and trailing updates of one n = 1024, b = 128 factorization.
    lo("lu.panel_s", "s"),
    lo("cholesky.panel_s", "s"),
    lo("qr.panel_s", "s"),
    lo("lu.panel_frac", "frac"),
    lo("cholesky.panel_frac", "frac"),
    lo("qr.panel_frac", "frac"),
    hi("lu.update_frac", "frac"),
    hi("cholesky.update_frac", "frac"),
    hi("qr.update_frac", "frac"),
    // bsr-linalg::dag — the whole-factorization task graph.
    hi("dag.cholesky_gflops_t1", "GFLOP/s"),
    hi("dag.lu_gflops_t1", "GFLOP/s"),
    hi("dag.qr_gflops_t1", "GFLOP/s"),
    hi("dag.cholesky_of_gemm_frac", "frac"),
    hi("dag.lu_of_gemm_frac", "frac"),
    hi("dag.qr_of_gemm_frac", "frac"),
    lo("dag.cholesky_vs_blocked", "x"),
    lo("dag.lu_vs_blocked", "x"),
    lo("dag.qr_vs_blocked", "x"),
    hi("dag.cholesky_speedup_t2", "x"),
    hi("dag.lu_speedup_t2", "x"),
    hi("dag.qr_speedup_t2", "x"),
    lo("dag.lu_tasks", "count"),
    lo("pool.dispatch_us", "us"),
    // f32 drivers, triangular solves, input generation, residual checks.
    hi("lowprec.lu_f32_gflops", "GFLOP/s"),
    hi("lowprec.cholesky_f32_gflops", "GFLOP/s"),
    lo("solve.lu_s", "s"),
    lo("solve.cholesky_s", "s"),
    lo("generate.spd_n256_s", "s"),
    lo("verify.cholesky_residual_s", "s"),
    lo("verify.lu_residual_s", "s"),
    lo("verify.qr_residual_s", "s"),
    // bsr-abft.
    hi("checksum.encode_gbps", "GB/s"),
    hi("checksum.verify_gbps", "GB/s"),
    lo("checksum.update_gemm_s", "s"),
    lo("checksum.encode_multi2_ratio", "x"),
    lo("checksum.encode_multi3_ratio", "x"),
    lo("fused.cholesky_overhead_frac", "frac"),
    lo("fused.lu_overhead_frac", "frac"),
    lo("fused.qr_overhead_frac", "frac"),
    lo("mixed.cholesky_overhead_frac", "frac"),
    lo("mixed.lu_overhead_frac", "frac"),
    hi("abft.faults_injected", "count"),
    hi("abft.faults_corrected", "count"),
    hi("recover.in_place_frac", "frac"),
    lo("recover.tile_recomputes", "count"),
    lo("recover.replays", "count"),
    lo("recover.structured_failures", "count"),
    lo("recover.silent_corruptions", "count"),
    lo("recover.job_s_p50", "s"),
    // bsr-sched, hetero-sim, core::{analytic, pareto}.
    lo("strategy.plan_iteration_us", "us"),
    lo("analytic.run_s_p50", "s"),
    lo("pareto.sweep_s", "s"),
    lo("predict.rel_err", "frac"),
    // core::numeric, read off the traced workload's own jobs.
    lo("numeric.cholesky_overhead_frac", "frac"),
    lo("numeric.lu_overhead_frac", "frac"),
    lo("numeric.qr_overhead_frac", "frac"),
    lo("numeric.checksum_frac_cholesky", "frac"),
    lo("numeric.checksum_frac_lu", "frac"),
    lo("numeric.checksum_frac_qr", "frac"),
    lo("numeric.model_makespan_ratio_cholesky", "x"),
    lo("numeric.model_makespan_ratio_lu", "x"),
    lo("numeric.model_makespan_ratio_qr", "x"),
    lo("numeric.refine_iters", "count"),
    lo("numeric.refine_solve_s", "s"),
    hi("numeric.mixed_vs_f64_cholesky", "x"),
    hi("numeric.mixed_vs_f64_lu", "x"),
    // core::{queue, fleet, service}.
    lo("queue.offer_next_ns", "ns"),
    hi("queue.mean_batch_size", "count"),
    lo("queue.rejected", "count"),
    lo("fleet.allocate_ns", "ns"),
    lo("service.queue_wait_s_p50", "s"),
    lo("service.run_s_p50", "s"),
    lo("service.overhead_per_job_s", "s"),
    lo("service.latency_s_p95", "s"),
    lo("service.gen_late_s_p99", "s"),
    hi("service.achieved_rate_frac", "frac"),
    // Where one job's time goes (replay of one job per kind through the layer
    // APIs; shares of the replayed jobs' total) and what tracing costs.
    lo("job.generate_frac", "frac"),
    lo("job.plan_frac", "frac"),
    hi("job.factor_frac", "frac"),
    lo("job.checksum_frac", "frac"),
    lo("job.verify_frac", "frac"),
    lo("job.solve_frac", "frac"),
    lo("job.numeric_self_frac", "frac"),
    lo("trace.replay_unaccounted_frac", "frac"),
    lo("trace.overhead_frac", "frac"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind a timing (`None` for counts and model outputs).
    pub summary: Option<Summary>,
}

/// The unit the tables give `name`. Reporting a metric no table lists is a bug
/// in the benchmark.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is in neither metric table"))
        .1
}

impl Metric {
    /// A median with the samples behind it.
    pub fn timing(name: &str, s: Summary) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit_of(name),
            value: s.p50,
            summary: Some(s),
        }
    }

    /// A count or a model output.
    pub fn exact(name: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit_of(name),
            value,
            summary: None,
        }
    }
}

/// Failure accounting of one workload: every checked operation counts as
/// attempted, every miss as failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few misses, for the log.
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what);
        }
    }

    /// Account for a batch of operations at once (a service episode's jobs).
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.note(what);
        }
    }

    fn note(&mut self, what: impl FnOnce() -> String) {
        if self.notes.len() < 8 {
            self.notes.push(what());
        }
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// A traced run's per-layer values measured on the workload itself, by name;
    /// `main` merges them with the layer probes into `metrics`.
    pub layer: Vec<(String, f64)>,
    pub checks: Checks,
    /// Ungated extras for the detail line: GFLOP/s per kind, exact counts, sizes.
    pub detail: Vec<(String, Value)>,
}

impl Outcome {
    /// The contract's result object: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    json::obj(vec![
                        ("value", json::num(m.value)),
                        ("unit", json::text(m.unit)),
                    ]),
                )
            })
            .collect();
        json::render(&json::obj(vec![
            ("correct", Value::Bool(self.checks.failed == 0)),
            ("attempted", json::int(self.checks.attempted.max(1))),
            ("failed", json::int(self.checks.failed)),
            ("metrics", Value::Map(metrics)),
        ]))
    }

    /// Everything else worth keeping, as one object: sample counts and quartiles
    /// per metric plus the workload's extras.
    pub fn detail_value(&self) -> Value {
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|m| {
                let s = m.summary.unwrap_or(Summary::exact(m.value));
                (
                    m.name.clone(),
                    json::obj(vec![
                        ("value", json::num(m.value)),
                        ("unit", json::text(m.unit)),
                        ("n", json::int(s.n as u64)),
                        ("p25", json::num(s.p25)),
                        ("p75", json::num(s.p75)),
                        ("p90", json::num(s.p90)),
                        ("ci_lo", json::num(s.ci_lo)),
                        ("ci_hi", json::num(s.ci_hi)),
                    ]),
                )
            })
            .collect();
        let mut entries = vec![
            (
                "ops_attempted".to_string(),
                json::int(self.checks.attempted),
            ),
            ("ops_failed".to_string(), json::int(self.checks.failed)),
            (
                "failures".to_string(),
                Value::Seq(self.checks.notes.iter().map(|n| json::text(n)).collect()),
            ),
            ("metrics".to_string(), Value::Map(metrics)),
        ];
        entries.extend(self.detail.iter().cloned());
        Value::Map(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .unwrap()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_tables_in_this_file() {
        let doc = benchmark_json();
        let names = |key: &str| -> Vec<String> {
            json::items(json::get(&doc, key).unwrap())
                .iter()
                .map(|m| {
                    json::as_str(json::get(m, "name").unwrap())
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (row, m) in json::items(json::get(&doc, "end_to_end").unwrap())
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(
                json::as_str(json::get(row, "unit").unwrap()),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                json::as_str(json::get(row, "better").unwrap()),
                Some(m.better.label()),
                "{}",
                m.name
            );
            assert_eq!(
                json::as_f64(json::get(row, "bound").unwrap()),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        for (row, m) in json::items(json::get(&doc, "per_layer").unwrap())
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(
                json::as_str(json::get(row, "unit").unwrap()),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                json::as_str(json::get(row, "better").unwrap()),
                Some(m.better.label()),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!(PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS)
        {
            assert!(name.len() <= 64 && seen.insert(name), "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.metrics
            .push(Metric::timing("lu_s_p50", Summary::of(&[0.1, 0.3, 0.2])));
        out.metrics.push(Metric::exact("iso_energy_speedup", 1.354));
        out.checks.check(true, || unreachable!());
        out.checks
            .check(false, || "lu job 3: residual 1e-3".to_string());
        let v = json::parse(&out.result_line()).unwrap();
        let keys: Vec<&str> = json::entries(&v).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json::get(&v, "correct"), Some(&Value::Bool(false)));
        assert_eq!(json::as_f64(json::get(&v, "attempted").unwrap()), Some(2.0));
        assert_eq!(
            json::as_f64(json::at(&v, &["metrics", "lu_s_p50", "value"]).unwrap()),
            Some(0.2)
        );
        let d = out.detail_value();
        assert_eq!(
            json::as_f64(json::at(&d, &["metrics", "lu_s_p50", "n"]).unwrap()),
            Some(3.0)
        );
        assert_eq!(
            json::as_f64(json::get(&d, "ops_failed").unwrap()),
            Some(1.0)
        );
    }
}
