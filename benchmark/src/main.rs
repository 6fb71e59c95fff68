//! `bsr-benchmark` — the repo benchmark.
//!
//! ```text
//! bsr-benchmark workload --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! bsr-benchmark run     [--workload W] [--seed N] [--seconds S] [--out FILE] [--smoke]
//! bsr-benchmark trace   [--workload W] [--seed N] [--seconds S] [--out FILE] [--smoke]
//! bsr-benchmark compare A.json B.json
//! bsr-benchmark aa      [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! `workload` runs one workload in this process and prints the result object as
//! the last line of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. `run` and `trace` re-execute this binary
//! once per workload, so each gets a clean pool, allocator and peak-RSS reading.
//! See README.md for every metric's definition.

mod compare;
mod dense;
mod drivers;
mod inputs;
mod json;
mod layers;
mod metrics;
mod paper;
mod plan;
mod replay;
mod service;
mod span;
mod stats;

use inputs::Scale;
use json::Value;
use metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use stats::Summary;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Set-ups per run; the median is reported, which drops the process's cold first one.
const SETUP_REPS: usize = 3;
/// Share of `--seconds` a traced run spends re-timing the workload (the rest of
/// its time goes to the replay and the layer probes, which are fixed work).
pub const TRACED_SHARE: f64 = 0.4;
const DEFAULT_SEED: u64 = 13;
const DEFAULT_SECONDS: f64 = 12.0;

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Set up [`SETUP_REPS`] times, keep the last result, report all the times.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (T, Summary) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first: every repetition allocates from the same state.
        drop(ready.take());
        let t0 = Instant::now();
        ready = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (ready.expect("SETUP_REPS > 0"), Summary::of(&times))
}

/// The three model outputs every workload reports next to its timings.
pub fn headline_metrics(h: &paper::Headline) -> Vec<Metric> {
    vec![
        Metric::exact("energy_saving_vs_sr_frac", h.energy_saving_vs_sr),
        Metric::exact("ed2p_reduction_vs_sr_frac", h.ed2p_reduction_vs_sr),
        Metric::exact("iso_energy_speedup", h.iso_energy_speedup),
    ]
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write a traced run's spans next to the benchmark; a failure to write is
/// reported, not fatal — the metrics do not depend on the file.
pub fn write_trace(tr: &span::Tracer, args: &Args) {
    let path = out_dir().join(format!("trace.{}.jsonl", args.workload));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!("wrote {} spans to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Pin the operating point. Must run before the first call into `bsr-linalg`,
/// which reads both variables lazily, and before any thread exists.
fn pin_operating_point() {
    std::env::set_var("BSR_AUTOTUNE", "0");
    std::env::set_var("RAYON_NUM_THREADS", "1");
}

fn operating_point(args: &Args) -> Value {
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let tune: Vec<Value> = bsr_linalg::tune::report_names()
        .iter()
        .zip(bsr_linalg::tune::report())
        .map(|(elem, p)| {
            json::obj(vec![
                ("elem", json::text(elem)),
                ("nc", json::int(p.nc as u64)),
                ("kc", json::int(p.kc as u64)),
                ("mc", json::int(p.mc as u64)),
                ("par_madds", json::int(p.par_madds as u64)),
                ("source", json::text(p.source)),
            ])
        })
        .collect();
    json::obj(vec![
        ("profile", json::text("release")),
        ("bsr_autotune", json::text("0")),
        (
            "rayon_num_threads",
            json::int(rayon::current_num_threads() as u64),
        ),
        (
            "host_cores",
            json::int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "simd_backend",
            json::text(bsr_linalg::blas3::simd_backend()),
        ),
        ("tune", Value::Seq(tune)),
        ("git_rev", json::text(&git_rev())),
        ("seed", json::int(args.seed)),
        ("seconds", json::num(args.seconds)),
        ("n", json::int(scale.n as u64)),
        ("block", json::int(scale.block as u64)),
        (
            "mode",
            json::text(if args.smoke { "smoke" } else { "full" }),
        ),
    ])
}

/// The checked-out commit, read from `.git` beside the benchmark; `unknown` in a
/// checkout that is not a repository (the driver's is not).
fn git_rev() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(git.join("HEAD"));
    let rev = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(reference) => read(git.join(reference)),
        None => head,
    };
    rev.map_or("unknown".to_string(), |r| r.chars().take(12).collect())
}

/// Peak resident set of this process, MiB (`VmHWM`); 0 where `/proc` has none.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one workload in this process and print its result.
fn workload(args: &Args) -> Result<(), String> {
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; expected one of {WORKLOADS:?}",
            args.workload
        ));
    }
    pin_operating_point();
    let t0 = Instant::now();
    let mut out = match args.workload.as_str() {
        "dense_bare" => dense::run(dense::Flavor::Bare, args),
        "dense_protected" => dense::run(dense::Flavor::Protected, args),
        "mixed_solve" => dense::run(dense::Flavor::MixedSolve, args),
        "service_small" => service::run(args),
        _ => plan::run(args),
    };
    if args.trace {
        let scale = if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        };
        // What the traced workload measured on itself comes first and so wins over a
        // probe of the same name; a layer neither touched reads 0.
        let mut values = std::mem::take(&mut out.layer);
        values.extend(layers::probe_all(
            scale,
            args.seed,
            args.smoke,
            &mut out.checks,
        ));
        out.metrics = PER_LAYER
            .iter()
            .map(|m| {
                let value = values
                    .iter()
                    .find(|(n, _)| n == m.name)
                    .map_or(0.0, |(_, v)| *v);
                Metric::exact(m.name, value)
            })
            .collect();
    }
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            let name = m.name.clone();
            out.checks
                .check(false, || format!("{name} is not a finite number"));
            m.value = 0.0;
        }
    }
    let expected: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    assert_eq!(
        out.metrics
            .iter()
            .map(|m| m.name.as_str())
            .collect::<Vec<_>>(),
        expected,
        "metric set"
    );

    for m in &out.metrics {
        match m.summary {
            Some(s) => eprintln!(
                "  {:<28} {:>14.6} {:<8} n={:<4} p25={:.6} p75={:.6} p90={:.6} ci95=[{:.6}, {:.6}]",
                m.name, m.value, m.unit, s.n, s.p25, s.p75, s.p90, s.ci_lo, s.ci_hi
            ),
            None => eprintln!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit),
        }
    }
    for note in &out.checks.notes {
        eprintln!("  FAILED: {note}");
    }
    let mut detail = out.detail_value();
    if let Value::Map(entries) = &mut detail {
        entries.push(("operating_point".to_string(), operating_point(args)));
        entries.push(("peak_rss_mb".to_string(), json::num(peak_rss_mb())));
        entries.push(("wall_s".to_string(), json::num(t0.elapsed().as_secs_f64())));
    }
    eprintln!(
        "{}: {} ops, {} failed, peak RSS {:.0} MiB, {:.1} s",
        args.workload,
        out.checks.attempted,
        out.checks.failed,
        peak_rss_mb(),
        t0.elapsed().as_secs_f64()
    );
    println!("{}", json::render(&detail));
    println!("{}", out.result_line());
    Ok(())
}

/// Re-execute this binary for one workload; returns the child's detail object
/// with the contract fields folded in.
fn child(args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["workload", "--workload", &args.workload])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", args.workload))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", args.workload, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = json::parse(lines.next().unwrap_or_default())?;
    let mut detail = json::parse(lines.next().unwrap_or_default())?;
    if let Value::Map(entries) = &mut detail {
        for key in ["correct", "attempted", "failed"] {
            entries.push((
                key.to_string(),
                json::get(&result, key).cloned().unwrap_or(Value::Null),
            ));
        }
    }
    Ok(detail)
}

/// Run `workloads` in order, one child each; returns the run document and how
/// many workloads failed an operation or did not finish.
fn run_set(workloads: &[String], base: &Args) -> (Value, usize) {
    let mut entries = Vec::new();
    let mut bad = 0;
    let mut operating_point = Value::Null;
    for w in workloads {
        eprintln!(
            "== {w} (seed {}, {} s, trace {}) ==",
            base.seed,
            base.seconds,
            u8::from(base.trace)
        );
        match child(&Args {
            workload: w.clone(),
            ..base.clone()
        }) {
            Ok(mut detail) => {
                if json::get(&detail, "correct") != Some(&Value::Bool(true)) {
                    bad += 1;
                }
                if let Value::Map(fields) = &mut detail {
                    if let Some(i) = fields.iter().position(|(k, _)| k == "operating_point") {
                        operating_point = fields.remove(i).1;
                    }
                }
                entries.push((w.clone(), detail));
            }
            Err(e) => {
                eprintln!("{e}");
                bad += 1;
            }
        }
    }
    (
        json::obj(vec![
            ("operating_point", operating_point),
            ("workloads", Value::Map(entries)),
        ]),
        bad,
    )
}

fn write_doc(doc: &Value, path: &std::path::Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json::render(doc) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Two full run sets of this binary, the second in reverse workload order. The
/// code is the same, so any median that moved by more than its bound — in either
/// direction — is the benchmark's own noise exceeding what it promises.
fn aa(base: &Args) -> bool {
    let forward: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    let backward: Vec<String> = forward.iter().rev().cloned().collect();
    let (a, bad_a) = run_set(&forward, base);
    let (b, bad_b) = run_set(&backward, base);
    let rows = compare::compare(&a, &b);
    compare::print_rows(&rows);
    let disagree = rows.iter().filter(|r| r.worse.abs() > r.bound).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Unresolved)
        .count();
    let mismatches = compare::count_mismatches(&a, &b);
    for (w, name, x, y) in &mismatches {
        println!("{w}: count {name} differs between the sets: {x} vs {y}");
    }
    println!(
        "aa: {} rows, {disagree} moved by more than their bound, {unresolved} too wide for one run to resolve, \
         {} count mismatches, {} failed workloads",
        rows.len(),
        mismatches.len(),
        bad_a + bad_b
    );
    disagree == 0 && mismatches.is_empty() && bad_a + bad_b == 0
}

/// Parsed command line: flags with values, bare flags, positionals.
struct Cli {
    flags: Vec<(String, String)>,
    smoke: bool,
    positional: Vec<String>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            flags: Vec::new(),
            smoke: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => cli.smoke = true,
                "--workload" | "--seed" | "--seconds" | "--trace" | "--out" => {
                    let value = it.next().ok_or(format!("{arg} needs a value"))?;
                    cli.flags.push((arg.clone(), value.clone()));
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ => cli.positional.push(arg.clone()),
            }
        }
        Ok(cli)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag}: cannot read {v:?} as a number")),
        }
    }

    fn args(&self, trace: bool) -> Result<Args, String> {
        let seconds: f64 = self.number("--seconds", DEFAULT_SECONDS)?;
        if !(seconds.is_finite() && (0.0..=600.0).contains(&seconds)) {
            return Err(format!(
                "--seconds must be between 0 and 600, not {seconds}"
            ));
        }
        Ok(Args {
            workload: self.get("--workload").unwrap_or_default().to_string(),
            seed: self.number("--seed", DEFAULT_SEED)?,
            seconds,
            trace,
            smoke: self.smoke,
        })
    }
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    let (command, rest) = argv
        .split_first()
        .ok_or("usage: bsr-benchmark <workload|run|trace|compare|aa> ...")?;
    let cli = Cli::parse(rest)?;
    if command != "compare" && cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: build with --release".to_string());
    }
    match command.as_str() {
        "workload" => {
            let trace = match cli.get("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace must be 0 or 1, not {other}")),
            };
            workload(&cli.args(trace)?).map(|()| true)
        }
        "run" | "trace" => {
            let trace = command == "trace";
            let base = cli.args(trace)?;
            let workloads: Vec<String> = match cli.get("--workload") {
                Some(w) => vec![w.to_string()],
                None => WORKLOADS.iter().map(|w| w.to_string()).collect(),
            };
            let (doc, bad) = run_set(&workloads, &base);
            let default_out = out_dir().join(if trace { "layers.json" } else { "run.json" });
            write_doc(&doc, &cli.get("--out").map_or(default_out, PathBuf::from))?;
            Ok(bad == 0)
        }
        "compare" => {
            let [a, b] = cli.positional.as_slice() else {
                return Err("usage: bsr-benchmark compare A.json B.json".to_string());
            };
            let read = |p: &String| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("{p}: {e}"))
                    .and_then(|t| json::parse(&t))
            };
            let (a, b) = (read(a)?, read(b)?);
            let regressed = compare::print_rows(&compare::compare(&a, &b));
            let mismatches = compare::count_mismatches(&a, &b);
            for (w, name, x, y) in &mismatches {
                println!("{w}: count {name} differs: {x} vs {y}");
            }
            Ok(regressed == 0)
        }
        "aa" => Ok(aa(&cli.args(false)?)),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bsr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_flags_parse_and_defaults_apply() {
        let c = cli(&[
            "--workload",
            "dense_bare",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        let a = c.args(true).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.smoke),
            ("dense_bare", 7, 10.0, true, false)
        );
        let d = cli(&["--smoke"]).unwrap().args(false).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.smoke),
            (DEFAULT_SEED, DEFAULT_SECONDS, true)
        );
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--bogus", "1"]).is_err());
        assert!(cli(&["--seed", "x"]).unwrap().args(false).is_err());
        assert!(cli(&["--seconds", "-1"]).unwrap().args(false).is_err());
        assert_eq!(cli(&["a.json", "b.json"]).unwrap().positional.len(), 2);
    }

    #[test]
    fn set_up_runs_the_stated_number_of_times_and_keeps_the_last() {
        let mut calls = 0;
        let (last, s) = timed_setups(|| {
            calls += 1;
            calls
        });
        assert_eq!((last, s.n), (SETUP_REPS, SETUP_REPS));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn measuring_a_debug_build_is_refused() {
        // Tests build with debug assertions, which is exactly the case to refuse.
        let err = dispatch(&["run".to_string()]).unwrap_err();
        assert!(err.contains("debug build"), "{err}");
        assert!(dispatch(&[]).is_err());
    }
}
