//! `compare A.json B.json`: one row per workload × end-to-end metric, judged by
//! the bounds and directions of `BENCHMARK.json` (held equal to
//! [`crate::metrics::END_TO_END`] by a test, which is what this module reads).
//!
//! A row is *regressed* only when B's median is worse than A's by more than the
//! bound **and** the evidence resolves it; where the medians' confidence
//! intervals are wider than the bound and overlap, the honest verdict is
//! *unresolved*, not *unchanged*.

use crate::json::{self, Value};
use crate::metrics::{Better, EndToEnd, END_TO_END};

/// One side's median and the 95 % confidence interval around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub lo: f64,
    pub p50: f64,
    pub hi: f64,
}

impl Side {
    /// Width of the interval as a share of the median.
    fn spread(&self) -> f64 {
        if self.p50 == 0.0 {
            0.0
        } else {
            (self.hi - self.lo).abs() / self.p50.abs()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// By how much of A's median B is worse (negative: better), in the metric's own
/// direction.
pub fn worsening(gate: &EndToEnd, a: &Side, b: &Side) -> f64 {
    let change = (b.p50 - a.p50) / a.p50.abs();
    match gate.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn judge(gate: &EndToEnd, a: &Side, b: &Side) -> Verdict {
    let worse = worsening(gate, a, b);
    let disjoint = a.hi < b.lo || b.hi < a.lo;
    let resolved = disjoint || a.spread().max(b.spread()) <= gate.bound;
    if worse > gate.bound {
        if resolved {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if !resolved {
        // Too noisy to call unchanged — unless B is better outright.
        if worse < 0.0 && disjoint {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse < -gate.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn side(metric: &Value) -> Option<Side> {
    let f = |key| json::get(metric, key).and_then(json::as_f64);
    let p50 = f("value")?;
    Some(Side {
        lo: f("ci_lo").unwrap_or(p50),
        p50,
        hi: f("ci_hi").unwrap_or(p50),
    })
}

/// One judged row.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Side,
    pub b: Side,
    pub worse: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Compare two documents written by `run`: every workload × gated metric both
/// sides report.
pub fn compare(a: &Value, b: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, wa) in json::entries(json::get(a, "workloads").unwrap_or(&Value::Null)) {
        let Some(wb) = json::at(b, &["workloads", workload]) else {
            continue;
        };
        for gate in &END_TO_END {
            let path = ["metrics", gate.name];
            let (Some(sa), Some(sb)) = (
                json::at(wa, &path).and_then(side),
                json::at(wb, &path).and_then(side),
            ) else {
                continue;
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: gate.name.to_string(),
                a: sa,
                b: sb,
                worse: worsening(gate, &sa, &sb),
                bound: gate.bound,
                verdict: judge(gate, &sa, &sb),
            });
        }
    }
    rows
}

/// The exact counts of both documents that differ (`counts` objects must repeat
/// exactly for a seed): `(workload, count, a, b)`.
pub fn count_mismatches(a: &Value, b: &Value) -> Vec<(String, String, f64, f64)> {
    let mut out = Vec::new();
    for (workload, wa) in json::entries(json::get(a, "workloads").unwrap_or(&Value::Null)) {
        for (name, va) in json::entries(json::get(wa, "counts").unwrap_or(&Value::Null)) {
            let vb = json::at(b, &["workloads", workload, "counts", name]);
            if let (Some(x), Some(y)) = (json::as_f64(va), vb.and_then(json::as_f64)) {
                if x != y {
                    out.push((workload.clone(), name.clone(), x, y));
                }
            }
        }
    }
    out
}

/// Print the table; returns how many rows regressed.
pub fn print_rows(rows: &[Row]) -> usize {
    println!(
        "{:<16} {:<28} {:>13} {:>13} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A p50", "B p50", "worse", "bound", "÷bound"
    );
    for r in rows {
        println!(
            "{:<16} {:<28} {:>13.6} {:>13.6} {:>+7.2}% {:>6.1}% {:>7.2}  {}",
            r.workload,
            r.metric,
            r.a.p50,
            r.b.p50,
            r.worse * 100.0,
            r.bound * 100.0,
            r.worse.abs() / r.bound,
            r.verdict.label()
        );
    }
    rows.iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(better: Better, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "s",
            better,
            bound,
        }
    }

    fn tight(p50: f64) -> Side {
        Side {
            lo: p50 * 0.99,
            p50,
            hi: p50 * 1.01,
        }
    }

    #[test]
    fn direction_decides_which_way_is_worse() {
        let lower = gate(Better::Lower, 0.08);
        let higher = gate(Better::Higher, 0.08);
        assert!((worsening(&lower, &tight(1.0), &tight(1.1)) - 0.1).abs() < 1e-12);
        assert!((worsening(&higher, &tight(1.0), &tight(1.1)) + 0.1).abs() < 1e-12);
        assert_eq!(judge(&lower, &tight(1.0), &tight(1.1)), Verdict::Regressed);
        assert_eq!(judge(&higher, &tight(1.0), &tight(1.1)), Verdict::Improved);
        assert_eq!(judge(&higher, &tight(1.0), &tight(0.9)), Verdict::Regressed);
        assert_eq!(judge(&lower, &tight(1.0), &tight(1.05)), Verdict::Ok);
        assert_eq!(judge(&lower, &tight(1.0), &tight(0.95)), Verdict::Ok);
    }

    #[test]
    fn overlapping_wide_intervals_are_unresolved_not_unchanged() {
        let g = gate(Better::Lower, 0.08);
        let wide = |p50: f64| Side {
            lo: p50 * 0.85,
            p50,
            hi: p50 * 1.15,
        };
        // Same median, spread three times the bound: cannot be called unchanged.
        assert_eq!(judge(&g, &wide(1.0), &wide(1.0)), Verdict::Unresolved);
        // Worse by more than the bound, but the ranges overlap: still unresolved.
        assert_eq!(judge(&g, &wide(1.0), &wide(1.1)), Verdict::Unresolved);
        // Ranges disjoint: the shift is resolved despite the spread.
        assert_eq!(judge(&g, &wide(1.0), &wide(1.5)), Verdict::Regressed);
        assert_eq!(judge(&g, &wide(1.5), &wide(1.0)), Verdict::Improved);
    }

    #[test]
    fn exact_metrics_have_zero_spread_and_any_loss_past_the_bound_regresses() {
        let g = gate(Better::Higher, 0.01);
        let exact = |v: f64| Side {
            lo: v,
            p50: v,
            hi: v,
        };
        assert_eq!(judge(&g, &exact(0.1142), &exact(0.1142)), Verdict::Ok);
        assert_eq!(
            judge(&g, &exact(0.1142), &exact(0.1100)),
            Verdict::Regressed
        );
    }

    #[test]
    fn documents_are_compared_row_by_row_and_counts_exactly() {
        let doc = |lu: f64, faults: u64| {
            json::parse(&format!(
                r#"{{"workloads":{{"dense_protected":{{"metrics":{{"lu_s_p50":{{"value":{lu},"ci_lo":{lu},"ci_hi":{lu}}}}},
                    "counts":{{"abft.faults_injected":{faults}}}}}}}}}"#
            ))
            .unwrap()
        };
        let rows = compare(&doc(0.10, 28), &doc(0.12, 28));
        assert_eq!(rows.len(), 1, "only metrics both sides report are judged");
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert!(count_mismatches(&doc(0.10, 28), &doc(0.10, 28)).is_empty());
        assert_eq!(count_mismatches(&doc(0.10, 28), &doc(0.10, 29)).len(), 1);
    }
}
