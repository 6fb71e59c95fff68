//! The paper's experiment on the analytic model: one *pass* per decomposition is
//! the four strategies plus the reclamation-ratio sweep at n = 30 720, b = 512.
//! `plan_paper` times passes; every workload reports the three headline ratios a
//! set of passes yields, so a model change shows whichever workload is run.

use crate::metrics::Checks;
use crate::span::Tracer;
use bsr_core::analytic;
use bsr_core::config::RunConfig;
use bsr_core::pareto::{paper_ratio_grid, sweep_reclamation_ratio, TradeoffPoint};
use bsr_core::report::{compare, RunReport};
use bsr_sched::strategy::{BsrConfig, Strategy};
use bsr_sched::workload::Decomposition;

/// Analytic runs in one pass: 4 strategies + 7 sweep points.
pub const RUNS_PER_PASS: usize = 11;

/// The reports of one pass.
pub struct Pass {
    pub dec: Decomposition,
    pub original: RunReport,
    pub r2h: RunReport,
    pub sr: RunReport,
    pub bsr_r0: RunReport,
    pub sweep: Vec<(TradeoffPoint, RunReport)>,
}

/// Run one pass. `seed` keys the SDC sampler only: times and energies do not
/// depend on it, the sampled fault counts do.
pub fn run_pass(dec: Decomposition, seed: u64, tr: &mut Tracer) -> Pass {
    let base = RunConfig::paper_default(dec, Strategy::Original).with_seed(seed);
    let mut one = |strategy: Strategy| {
        let span = tr.enter("analytic.run", 0);
        let report = analytic::run(base.clone().with_strategy(strategy));
        tr.exit(span);
        report
    };
    let original = one(Strategy::Original);
    let r2h = one(Strategy::RaceToHalt);
    let sr = one(Strategy::SlackReclamation);
    let bsr_r0 = one(Strategy::Bsr(BsrConfig::max_energy_saving()));
    let span = tr.enter("pareto.sweep", 0);
    let sweep = sweep_reclamation_ratio(&base, &paper_ratio_grid());
    tr.exit(span);
    Pass {
        dec,
        original,
        r2h,
        sr,
        bsr_r0,
        sweep,
    }
}

/// The paper's three headline numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// max over decompositions of BSR(r = 0)'s energy saving against SR (paper: 11.7 %).
    pub energy_saving_vs_sr: f64,
    /// Same for the ED2P reduction (paper: 14.1 %).
    pub ed2p_reduction_vs_sr: f64,
    /// Best BSR speed-up over Original that spends no more energy than Original
    /// (paper: 1.43×).
    pub iso_energy_speedup: f64,
}

pub fn headline(passes: &[Pass]) -> Headline {
    let max = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).fold(f64::NEG_INFINITY, f64::max);
    Headline {
        energy_saving_vs_sr: max(&|p| compare(&p.bsr_r0, &p.sr).energy_saving),
        ed2p_reduction_vs_sr: max(&|p| compare(&p.bsr_r0, &p.sr).ed2p_reduction),
        iso_energy_speedup: max(&|p| {
            p.sweep
                .iter()
                .filter(|(pt, _)| pt.energy_j <= p.original.total_energy_j())
                .map(|(pt, _)| pt.gflops / p.original.gflops)
                .fold(f64::NEG_INFINITY, f64::max)
        }),
    }
}

/// One pass per decomposition and the headline they give.
pub fn model_headline(seed: u64) -> Headline {
    let passes: Vec<Pass> = Decomposition::ALL
        .iter()
        .map(|&dec| run_pass(dec, seed, &mut Tracer::off()))
        .collect();
    headline(&passes)
}

/// The orderings the paper's result rests on, per decomposition.
pub fn check_pass(p: &Pass, checks: &mut Checks) {
    let name = p.dec.label();
    let (e_orig, e_r2h, e_sr, e_bsr) = (
        p.original.total_energy_j(),
        p.r2h.total_energy_j(),
        p.sr.total_energy_j(),
        p.bsr_r0.total_energy_j(),
    );
    checks.check(e_bsr < e_sr.min(e_r2h) && e_sr.min(e_r2h) < e_orig, || {
        format!("{name}: energy order broken: BSR {e_bsr:.0} SR {e_sr:.0} R2H {e_r2h:.0} Original {e_orig:.0} J")
    });
    checks.check(
        p.bsr_r0.total_time_s <= 1.005 * p.original.total_time_s,
        || {
            format!(
                "{name}: BSR(r=0) takes {:.3} s against Original's {:.3} s",
                p.bsr_r0.total_time_s, p.original.total_time_s
            )
        },
    );
    let all = [&p.original, &p.r2h, &p.sr, &p.bsr_r0]
        .into_iter()
        .chain(p.sweep.iter().map(|(_, r)| r));
    for r in all {
        checks.check(r.correct, || {
            format!(
                "{name} {}: {} SDCs sampled, {} corrected",
                r.strategy.label(),
                r.sdc_events,
                r.sdc_corrected
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_is_seed_independent_and_in_the_papers_band() {
        let a = model_headline(13);
        let b = model_headline(14);
        assert_eq!(a, b);
        assert!((0.05..0.25).contains(&a.energy_saving_vs_sr), "{a:?}");
        assert!((0.05..0.30).contains(&a.ed2p_reduction_vs_sr), "{a:?}");
        assert!((1.1..1.8).contains(&a.iso_energy_speedup), "{a:?}");
    }

    #[test]
    fn every_pass_meets_its_orderings_and_counts_its_runs() {
        let mut checks = Checks::default();
        let mut tr = Tracer::on();
        for dec in Decomposition::ALL {
            check_pass(&run_pass(dec, 13, &mut tr), &mut checks);
        }
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        assert_eq!(checks.attempted, 3 * (2 + RUNS_PER_PASS as u64));
        assert_eq!(
            tr.spans()
                .iter()
                .filter(|s| s.name == "analytic.run")
                .count(),
            12
        );
        assert_eq!(
            tr.spans()
                .iter()
                .filter(|s| s.name == "pareto.sweep")
                .count(),
            3
        );
    }
}
