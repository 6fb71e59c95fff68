//! `plan_paper`: the analytic model at the paper's scale (n = 30 720, b = 512).
//! `bsr-sched`, `hetero-sim` and `core::{analytic, pareto}` do all the work and
//! `bsr-linalg` none, so this is where a planner or model change shows — and the
//! only workload a kernel change must not move at all.

use crate::inputs::{derive_seed, kind_name};
use crate::json;
use crate::metrics::{Checks, Metric, Outcome};
use crate::paper::{self, Pass, RUNS_PER_PASS};
use crate::span::Tracer;
use crate::stats::{self, Summary};
use crate::Args;
use bsr_sched::workload::Decomposition;
use std::time::Instant;

/// Passes (over all three decompositions) per sample: ~0.1 s of work, long
/// enough that timer and scheduler granularity do not show.
const PASSES_PER_SAMPLE: usize = 25;
/// Untimed samples at the end of every set-up.
const WARMUP_SAMPLES: usize = 20;
const MIN_SAMPLES: usize = 10;

/// One sample: mean seconds of one decomposition's pass, per kind.
struct Sample {
    pass_s: [f64; 3],
}

impl Sample {
    /// One what-if query: a pass over all three decompositions.
    fn query_s(&self) -> f64 {
        self.pass_s.iter().sum()
    }
}

fn sample(passes: usize, seed: u64, tr: &mut Tracer, checks: &mut Checks) -> Sample {
    let mut pass_s = [0.0; 3];
    let mut last: Vec<Pass> = Vec::new();
    for _ in 0..passes {
        last.clear();
        for (i, dec) in Decomposition::ALL.into_iter().enumerate() {
            let t0 = Instant::now();
            let pass = paper::run_pass(dec, seed, tr);
            pass_s[i] += t0.elapsed().as_secs_f64();
            last.push(pass);
        }
    }
    // Every pass of a sample computes the same thing; checking the last one
    // checks them all.
    for pass in &last {
        paper::check_pass(pass, checks);
    }
    Sample {
        pass_s: pass_s.map(|s| s / passes as f64),
    }
}

/// Set-up: nothing to build but the model's own first-use state — warm-up
/// samples, each checked.
fn setup(passes: usize, warmup: usize, seed: u64, checks: &mut Checks) {
    for _ in 0..warmup {
        sample(passes, seed, &mut Tracer::off(), checks);
    }
}

pub fn run(args: &Args) -> Outcome {
    let (passes, warmup) = if args.smoke {
        (3, 2)
    } else {
        (PASSES_PER_SAMPLE, WARMUP_SAMPLES)
    };
    let seed = derive_seed(args.seed, "paper");
    let mut checks = Checks::default();
    let mut tr = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let mut out = Outcome::default();
    if args.trace {
        setup(passes, warmup, seed, &mut checks);
    } else {
        let ((), setup_s) = crate::timed_setups(|| setup(passes, warmup, seed, &mut checks));
        out.metrics.push(Metric::timing("setup_s", setup_s));
    }

    // A traced run alternates traced and untraced samples; an untraced run's
    // tracer is off throughout and every sample lands in `off`.
    let budget = if args.trace {
        args.seconds * crate::TRACED_SHARE
    } else {
        args.seconds
    };
    let (mut on, mut off): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while off.len() < MIN_SAMPLES || t0.elapsed().as_secs_f64() < budget {
        let traced_sample = args.trace && on.len() <= off.len();
        tr.set_on(traced_sample);
        let s = sample(passes, seed, &mut tr, &mut checks);
        (if traced_sample { &mut on } else { &mut off }).push(s);
    }
    out.checks = checks;

    let query_s = |samples: &[Sample]| {
        stats::median(&samples.iter().map(Sample::query_s).collect::<Vec<_>>())
    };
    if args.trace {
        tr.set_on(true);
        out.layer.push((
            "trace.overhead_frac".to_string(),
            query_s(&on) / query_s(&off) - 1.0,
        ));
        crate::write_trace(&tr, args);
        return out;
    }
    for (i, dec) in Decomposition::ALL.into_iter().enumerate() {
        let s = Summary::of(&off.iter().map(|s| s.pass_s[i]).collect::<Vec<_>>());
        out.metrics
            .push(Metric::timing(&format!("{}_s_p50", kind_name(dec)), s));
    }
    let rates: Vec<f64> = off
        .iter()
        .map(|s| (3 * RUNS_PER_PASS) as f64 / s.query_s())
        .collect();
    out.metrics
        .push(Metric::timing("jobs_per_s", Summary::of(&rates)));
    let queries: Vec<f64> = off.iter().map(Sample::query_s).collect();
    out.metrics
        .push(Metric::timing("latency_s_p50", Summary::of(&queries)));
    out.metrics
        .extend(crate::headline_metrics(&paper::model_headline(seed)));
    out.detail = vec![
        ("samples".to_string(), json::int(off.len() as u64)),
        ("passes_per_sample".to_string(), json::int(passes as u64)),
        ("runs_per_pass".to_string(), json::int(RUNS_PER_PASS as u64)),
    ];
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_times_every_kind_and_checks_its_last_pass() {
        let mut checks = Checks::default();
        let s = sample(2, 13, &mut Tracer::off(), &mut checks);
        assert!(s.pass_s.iter().all(|&t| t > 0.0));
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        assert_eq!(checks.attempted, 3 * (2 + RUNS_PER_PASS as u64));
    }
}
