//! Dependency-driven DAG runtime for the tiled factorizations.
//!
//! Every factorization runs as one task graph ([`FactorGraph`]) on the work-stealing
//! pool, with PLASMA/StarPU-style **per-tile dependency counters**: each task carries
//! an atomic counter of unmet dependencies, and the task that decrements a counter to
//! zero submits the successor right there (`rayon::TaskScope::submit`), so iteration
//! `k + 2`'s GEMMs start while iteration `k`'s slow tiles are still in flight —
//! lookahead bounded only by the dependency structure (depth-unbounded).
//!
//! # Graph shape
//!
//! The matrix columns are partitioned **once** into block-wide groups
//! (`task::split_tiles_at`); the same group serves as panel tile and
//! trailing tile across all iterations. Each group `g` owns one *sequential chain*
//! of tasks — `Update(0, g), …, Update(g − 1, g), Panel(g)[, LeftSwap(g + 1, g), …]`
//! — so a group's columns are only ever touched by one task at a time, and each task
//! has at most **two** dependencies: its chain predecessor (its own tile after
//! iteration `k − 1`) and the publication of panel `k`'s operands. The borrow
//! checker proves group disjointness: each task owns its group's column slices.
//!
//! # Execution policies
//!
//! An `Update(k, g)` or `LeftSwap(k, g)` task belongs to iteration `k`; `Panel(g)` is
//! the lookahead panel of iteration `g − 1`, and `Panel(0)` is the prologue the
//! graph's constructor runs. A graph runs any range of iterations at a time
//! ([`FactorGraph::run`]). All of them at once is the depth-unbounded schedule of
//! `lu_dag_with` and friends. One at a time (`LuTiledStepper::step` and friends) makes
//! each iteration's measured durations known before the next one starts, which is
//! what the numeric engine's measured-feedback policy needs. Both policies run the
//! same tasks on the same groups, so their results are bit-identical.
//!
//! # Determinism argument
//!
//! Results are **bit-identical to the serial blocked drivers at any thread count and
//! under any schedule**: the partition is fixed by the block size (never the thread
//! count), every task writes only its own group, each task's operands (`L11`/`L21`/
//! `A21`/`V`/`T`, packed per panel) are published through write-once slots *before*
//! any consumer is unlocked, and per-element accumulation order inside a task
//! depends only on the `k` dimension. The schedule chooses *when* a task runs, never
//! *what* it computes — which is what the replay executor below exists to prove.
//!
//! # Replay executor
//!
//! [`DagExecution::Replay`] runs the identical task graph single-threaded, but picks
//! the next task to complete from the ready set with a seeded ChaCha8 RNG: an
//! adversarial completion order independent of real thread scheduling. The
//! schedule-fuzzing suite (`tests/proptest_dag.rs`) replays ≥ 64 seeded orders per
//! shape and asserts bit-exact factors plus exactly-once execution (no dependency
//! counter underflow, no leaked task).
//!
//! Every run registers itself in a process-global table so a test watchdog can dump
//! ready-queue/counter snapshots ([`snapshot_active`]) instead of hanging CI.

use crate::elem::Element;
use crate::matrix::Matrix;
use crate::task::{split_tiles_at, StepTiming, TileCols, TileVerdict, TrailingHook};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

/// How a DAG run executes its task graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagExecution {
    /// Run on the persistent work-stealing pool (thread budget from
    /// `RAYON_NUM_THREADS` / host parallelism, re-read at entry). Under a
    /// single-thread budget tasks run on the caller in deterministic
    /// lowest-task-id-first order — the sequential baseline pays no pool traffic —
    /// and so does a one-task graph (the prologue), which has nothing to overlap.
    Pool,
    /// Single-threaded deterministic **replay**: among the ready tasks, a ChaCha8
    /// RNG seeded with `seed` picks which completes next. Same seed ⇒ same
    /// completion order, independent of real thread scheduling — the
    /// schedule-fuzzing mode of the determinism suite.
    Replay {
        /// Schedule seed (selects the adversarial completion order).
        seed: u64,
    },
}

/// Statistics of a factorization run as one task graph, for tests asserting the
/// exactly-once execution invariant from outside the runtime. A whole run counts
/// its prologue too: the graph's constructor runs `Panel(0)` as a graph of its own,
/// and the run of every iteration adds the rest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DagRunStats {
    /// Total tasks in the graph.
    pub tasks: usize,
    /// Tasks that actually completed (the runtime itself asserts
    /// `executed == tasks`). Repair re-runs are *not* double-counted here — a task
    /// completes exactly once no matter how many times it retried.
    pub executed: usize,
    /// Repair re-submissions: how many times a task returned the crate-internal
    /// `TaskOutcome::Retry` and was resubmitted instead of completing. Zero on
    /// fault-free runs.
    pub retries: usize,
}

/// What a task body tells the runtime after running.
///
/// `Done` completes the task: its successors' dependency counters are decremented
/// and exactly-once accounting advances. `Retry` asks the runtime to run the same
/// task again (a fused recovery hook found the tile uncorrectable and rolled it
/// back): the task is resubmitted through the identical submission path — on the
/// pool via `rayon::TaskScope::submit`, in sequential/replay mode via the ready
/// set — without touching its successors, so the exactly-once invariant
/// (`executed == tasks`) extends over repairs unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskOutcome {
    /// The task's work is final; release its successors.
    Done,
    /// Roll-back happened inside the task; run it again before releasing anyone.
    Retry,
}

thread_local! {
    static LAST_RUN: Cell<Option<DagRunStats>> = const { Cell::new(None) };
    /// The service job the current thread is executing on behalf of, if any.
    /// Set via [`JobScope`]; read by [`execute`] and [`record`] to key snapshot labels
    /// and stats.
    static CURRENT_JOB: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Statistics of the last factorization run whole (every iteration as one graph)
/// from this thread, if any. Runs of part of the iterations — stepping — record
/// none.
pub fn last_run_stats() -> Option<DagRunStats> {
    LAST_RUN.with(|c| c.get())
}

/// Per-job table of the most recent DAG run stats, keyed by the [`JobScope`] job id
/// active when the run completed. Concurrent jobs therefore never clobber each
/// other's post-mortems the way the process-global/thread-local [`last_run_stats`]
/// would if two jobs shared a driver thread.
static JOB_STATS: Mutex<Option<std::collections::HashMap<u64, DagRunStats>>> = Mutex::new(None);

/// Statistics of the most recent whole factorization run under
/// [`JobScope::enter`]`(job)`, from any thread. Returns `None` if none has completed
/// for that job: a job stepped one iteration at a time (the numeric engine's
/// per-iteration policy) runs one graph per iteration and records none.
pub fn last_run_stats_for(job: u64) -> Option<DagRunStats> {
    JOB_STATS.lock().unwrap().as_ref().and_then(|m| m.get(&job).copied())
}

/// Drop a job's entry from the per-job stats table once its results have been
/// consumed; the service layer calls this at job retirement so the table tracks
/// in-flight jobs, not process history.
pub fn clear_job_stats(job: u64) {
    if let Some(map) = JOB_STATS.lock().unwrap().as_mut() {
        map.remove(&job);
    }
}

/// RAII marker that the current thread is driving DAG runs on behalf of service job
/// `id`: while the scope is alive, every DAG execution driven from this thread
/// job-prefixes its snapshot label (`"lu#job7"`), records its stats under the job id
/// ([`last_run_stats_for`]), and — in pool mode — submits its tasks into the job's
/// fair-scheduling lane (`rayon::task_scope_tagged`) so concurrent jobs share the
/// pool under the bounded-slice round-robin policy.
///
/// Scopes nest (save/restore): a job that internally drives another job's run — the
/// batching path does not, but nothing forbids it — restores the outer id on drop.
pub struct JobScope {
    prev: Option<u64>,
}

impl JobScope {
    /// Mark the current thread as driving job `id` until the returned guard drops.
    pub fn enter(id: u64) -> Self {
        let prev = CURRENT_JOB.with(|c| c.replace(Some(id)));
        JobScope { prev }
    }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        CURRENT_JOB.with(|c| c.set(self.prev));
    }
}

/// The job id the current thread is executing under ([`JobScope::enter`]), if any.
pub fn current_job() -> Option<u64> {
    CURRENT_JOB.with(|c| c.get())
}

/// Measured durations of a factorization's task graph, attributed to tasks (not
/// barrier phases): the accounting contract the `bsr-core` numeric engine consumes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DagTiming {
    /// `panel_s[k]`: wall duration of panel `k`'s factorization in the `Panel(k)`
    /// task, measured on whichever thread ran it. `panel_s[0]` is the prologue.
    pub panel_s: Vec<f64>,
    /// `update_s[k]`: CPU seconds of iteration `k`'s trailing tasks (updates and,
    /// for LU, deferred left swaps) plus the packing of panel `k`'s operands for
    /// them, summed across threads. When iterations run as one graph they overlap,
    /// so no wall interval contains one iteration's tasks.
    pub update_s: Vec<f64>,
    /// Wall-clock seconds of every graph run so far, the prologue's included.
    pub wall_s: f64,
}

/// Incrementally built task graph: per-task dependency counts and successor lists.
#[derive(Debug, Default)]
pub(crate) struct DagBuilder {
    deps: Vec<u32>,
    succs: Vec<Vec<u32>>,
}

impl DagBuilder {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a task with no dependencies yet; returns its id (consecutive from 0).
    pub fn add_task(&mut self) -> usize {
        self.deps.push(0);
        self.succs.push(Vec::new());
        self.deps.len() - 1
    }

    /// Record that `to` cannot start before `from` has completed.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        self.deps[to] += 1;
        self.succs[from].push(to as u32);
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.deps.len()
    }
}

/// Task lifecycle states (watchdog snapshots read these).
const WAITING: u8 = 0;
const READY: u8 = 1;
const DONE: u8 = 2;

/// Shared run state: the dependency counters the executors decrement, plus the
/// bookkeeping the watchdog snapshot reads.
struct RunState {
    label: String,
    /// Remaining unmet dependencies per task; decremented with `AcqRel` so a task
    /// observes everything its completed dependencies published.
    counters: Vec<AtomicI64>,
    state: Vec<AtomicU8>,
    executed: AtomicUsize,
    retries: AtomicUsize,
}

/// Process-global table of in-flight DAG runs, for watchdog snapshots.
static ACTIVE: Mutex<Vec<Weak<RunState>>> = Mutex::new(Vec::new());

/// Removes this run from [`ACTIVE`] on drop (including unwinds).
struct Registration(Weak<RunState>);

impl Registration {
    fn new(state: &Arc<RunState>) -> Self {
        let weak = Arc::downgrade(state);
        ACTIVE.lock().unwrap().push(weak.clone());
        Registration(weak)
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        ACTIVE
            .lock()
            .unwrap()
            .retain(|w| w.strong_count() > 0 && !w.ptr_eq(&self.0));
    }
}

/// Human-readable snapshot of every in-flight DAG run: executed/total counts, the
/// ready queue and the waiting tasks with their remaining dependency counts. A
/// deadlock watchdog prints this instead of letting CI hang silently.
pub fn snapshot_active() -> String {
    let runs: Vec<Arc<RunState>> = ACTIVE
        .lock()
        .unwrap()
        .iter()
        .filter_map(Weak::upgrade)
        .collect();
    if runs.is_empty() {
        return "no DAG runs in flight".to_string();
    }
    let mut out = String::new();
    for run in runs {
        let _ = writeln!(
            out,
            "DAG run '{}': {}/{} tasks executed",
            run.label,
            run.executed.load(Ordering::Relaxed),
            run.counters.len()
        );
        let mut ready = Vec::new();
        let mut waiting = Vec::new();
        for id in 0..run.counters.len() {
            match run.state[id].load(Ordering::Relaxed) {
                READY => ready.push(id.to_string()),
                WAITING => waiting.push(format!(
                    "{id} (deps={})",
                    run.counters[id].load(Ordering::Relaxed)
                )),
                _ => {}
            }
        }
        ready.truncate(32);
        waiting.truncate(32);
        let _ = writeln!(out, "  ready ({}): [{}]", ready.len(), ready.join(", "));
        let _ = writeln!(out, "  waiting (first {}): [{}]", waiting.len(), waiting.join(", "));
    }
    out
}

fn snapshot_of(state: &RunState) -> String {
    let hold = Arc::new(RunState {
        label: state.label.clone(),
        counters: state
            .counters
            .iter()
            .map(|c| AtomicI64::new(c.load(Ordering::Relaxed)))
            .collect(),
        state: state
            .state
            .iter()
            .map(|s| AtomicU8::new(s.load(Ordering::Relaxed)))
            .collect(),
        executed: AtomicUsize::new(state.executed.load(Ordering::Relaxed)),
        retries: AtomicUsize::new(state.retries.load(Ordering::Relaxed)),
    });
    let _registration = Registration::new(&hold);
    snapshot_active()
}

/// Run `f` on a helper thread and fail loudly if it does not finish within
/// `timeout` — a stranded dependency counter deadlocks a DAG run instead of
/// crashing it, and a silent CI hang is the worst possible failure mode. On
/// timeout the in-flight runtime state ([`snapshot_active`]: ready ids, waiting
/// tasks with their remaining dependency counts) is dumped before panicking, so
/// the post-mortem starts with the stuck graph in hand. Shared by every test
/// suite that drives the DAG runtime (directly or through the numeric engine).
pub fn with_watchdog<T: Send + 'static>(
    label: String,
    timeout: std::time::Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(timeout) {
        Ok(v) => {
            handle.join().expect("watchdog worker panicked after reporting its result");
            v
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(_) => unreachable!("worker exited without sending a result or panicking"),
        },
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            eprintln!(
                "deadlock watchdog fired for '{label}' after {timeout:?}; in-flight DAG state:\n{}",
                snapshot_active()
            );
            panic!("DAG run '{label}' did not complete within {timeout:?} (see state dump above)");
        }
    }
}

/// Run every task of `builder`'s graph exactly once, respecting dependencies, under
/// the chosen [`DagExecution`], and return the run's statistics ([`record`] publishes
/// them). `run(id)` performs task `id`'s work; it must be safe to call concurrently
/// for distinct ids (the graph encodes all ordering). A task returning
/// [`TaskOutcome::Retry`] is resubmitted (repair re-run) without touching its
/// successors; only a [`TaskOutcome::Done`] completes it.
///
/// Counter protocol: a completing task decrements each successor's counter with
/// `AcqRel`; the decrement that observes 1 → 0 owns the submission, so every task is
/// submitted exactly once (plus one resubmission per recorded retry). A decrement
/// observing a non-positive counter is an underflow bug and panics immediately; a
/// leaked task (graph drained with `executed < tasks`) panics after the drain with
/// a state snapshot. Both invariants are re-asserted externally by the
/// schedule-fuzzing suite.
pub(crate) fn execute<F>(builder: DagBuilder, exec: DagExecution, label: &str, run: F) -> DagRunStats
where
    F: Fn(usize) -> TaskOutcome + Sync,
{
    let total = builder.len();
    // Under a JobScope the snapshot label carries the job id, so concurrent jobs'
    // runs are distinguishable in a watchdog dump, and stats are job-keyed.
    let job = current_job();
    let label = match job {
        Some(j) => format!("{label}#job{j}"),
        None => label.to_string(),
    };
    let label = label.as_str();
    let state = Arc::new(RunState {
        label: label.to_string(),
        counters: builder.deps.iter().map(|&d| AtomicI64::new(d as i64)).collect(),
        state: builder
            .deps
            .iter()
            .map(|&d| AtomicU8::new(if d == 0 { READY } else { WAITING }))
            .collect(),
        executed: AtomicUsize::new(0),
        retries: AtomicUsize::new(0),
    });
    let _registration = Registration::new(&state);
    let succs = &builder.succs;
    match exec {
        // Job-scoped runs submit into the job's fair lane so concurrent jobs share
        // the pool in bounded slices instead of FIFO floods.
        DagExecution::Pool if total > 1 && rayon::current_num_threads() > 1 => match job {
            Some(j) => rayon::task_scope_tagged(j, |ts| {
                for (id, &d) in builder.deps.iter().enumerate() {
                    if d == 0 {
                        submit_pool(ts, &state, succs, &run, id);
                    }
                }
            }),
            None => rayon::task_scope(|ts| {
                for (id, &d) in builder.deps.iter().enumerate() {
                    if d == 0 {
                        submit_pool(ts, &state, succs, &run, id);
                    }
                }
            }),
        },
        DagExecution::Pool => run_sequential(&state, succs, &run, None),
        DagExecution::Replay { seed } => run_sequential(&state, succs, &run, Some(seed)),
    }
    let executed = state.executed.load(Ordering::Relaxed);
    assert!(
        executed == total,
        "DAG run '{label}' leaked tasks: executed {executed} of {total}\n{}",
        snapshot_of(&state)
    );
    DagRunStats { tasks: total, executed, retries: state.retries.load(Ordering::Relaxed) }
}

/// Publish `stats` as this thread's last run ([`last_run_stats`]) and, under a
/// [`JobScope`], as its job's ([`last_run_stats_for`]).
pub(crate) fn record(stats: DagRunStats) {
    LAST_RUN.with(|c| c.set(Some(stats)));
    if let Some(j) = current_job() {
        JOB_STATS
            .lock()
            .unwrap()
            .get_or_insert_with(std::collections::HashMap::new)
            .insert(j, stats);
    }
}

/// Pool-mode task submission: wraps `run(id)` with the counter-decrement protocol
/// and submits it to the task scope. Called once per task — at graph entry for root
/// tasks, from the last completing dependency otherwise — plus once per repair
/// retry (a [`TaskOutcome::Retry`] resubmits the same id through this same path).
fn submit_pool<'s, F: Fn(usize) -> TaskOutcome + Sync>(
    ts: &rayon::TaskScope<'s>,
    state: &'s RunState,
    succs: &'s [Vec<u32>],
    run: &'s F,
    id: usize,
) {
    ts.submit(move |ts| {
        if run(id) == TaskOutcome::Retry {
            // The task rolled itself back; schedule the repair re-run without
            // completing (successors stay locked, `executed` does not advance).
            state.retries.fetch_add(1, Ordering::Relaxed);
            submit_pool(ts, state, succs, run, id);
            return;
        }
        state.state[id].store(DONE, Ordering::Relaxed);
        state.executed.fetch_add(1, Ordering::Relaxed);
        for &s in &succs[id] {
            let s = s as usize;
            let prev = state.counters[s].fetch_sub(1, Ordering::AcqRel);
            assert!(
                prev >= 1,
                "dependency counter underflow on task {s} of DAG run '{}'",
                state.label
            );
            if prev == 1 {
                state.state[s].store(READY, Ordering::Relaxed);
                submit_pool(ts, state, succs, run, s);
            }
        }
    });
}

/// Single-threaded executor with an explicit ready set. With `seed`, the next task
/// to complete is RNG-picked from the ready set (adversarial replay); without, the
/// lowest task id runs first (the deterministic `Pool`-at-one-thread order).
fn run_sequential<F: Fn(usize) -> TaskOutcome>(
    state: &RunState,
    succs: &[Vec<u32>],
    run: &F,
    seed: Option<u64>,
) {
    let mut rng = seed.map(ChaCha8Rng::seed_from_u64);
    let mut ready: Vec<usize> = (0..state.counters.len())
        .filter(|&id| state.state[id].load(Ordering::Relaxed) == READY)
        .collect();
    while !ready.is_empty() {
        let idx = match &mut rng {
            Some(rng) => rng.gen_range(0..ready.len()),
            None => {
                let (idx, _) = ready.iter().enumerate().min_by_key(|&(_, &id)| id).unwrap();
                idx
            }
        };
        let id = ready.swap_remove(idx);
        if run(id) == TaskOutcome::Retry {
            // Back into the ready set: replay mode may interleave other ready
            // tasks before the repair re-run, exactly like a pool schedule could.
            state.retries.fetch_add(1, Ordering::Relaxed);
            ready.push(id);
            continue;
        }
        state.state[id].store(DONE, Ordering::Relaxed);
        state.executed.fetch_add(1, Ordering::Relaxed);
        for &s in &succs[id] {
            let s = s as usize;
            let prev = state.counters[s].fetch_sub(1, Ordering::AcqRel);
            assert!(
                prev >= 1,
                "dependency counter underflow on task {s} of DAG run '{}'",
                state.label
            );
            if prev == 1 {
                state.state[s].store(READY, Ordering::Relaxed);
                ready.push(s);
            }
        }
    }
}

/// Column-group boundaries of the fixed whole-matrix partition: block-aligned
/// starts below `kmax` (the panel groups, the last one clipped at `kmax`), then
/// block-wide groups from `kmax` to `n` (trailing-only groups of wide matrices —
/// QR's `n > min(m, n)` case; for square factorizations `kmax == n` and every
/// group is a panel group).
pub(crate) fn group_bounds(n: usize, kmax: usize, block: usize) -> Vec<usize> {
    debug_assert!(block > 0 && kmax <= n);
    let mut bounds: Vec<usize> = (0..kmax).step_by(block).collect();
    let mut c = kmax;
    while c < n {
        bounds.push(c);
        c += block;
    }
    bounds
}

/// The decomposition-specific half of a factorization's task graph: what `Panel(p)`
/// does in its own group and what iteration `p` does to every other group.
/// [`TileGraph`] owns the rest: the partition, the dependencies, the write-once
/// publication of each panel, the timings and the rollback.
pub(crate) trait TileTasks<E: Element>: Sync {
    /// What a factored panel hands to its publication (pivots, `tau`s, reflectors).
    type Factored;
    /// What `Panel(p)` publishes, once, for iteration `p`'s tasks and the factors.
    type Panel: Send + Sync;
    /// Why a panel factorization failed.
    type Error: Send;
    /// Whether a group's chain continues past its own panel: LU applies panel `p`'s
    /// row swaps to the already-final groups left of it (`LeftSwap(p, g)`, `g < p`).
    const LEFT_SWAPS: bool = false;

    /// Factor the panel held in `tile` (diagonal row `tile.col0`) as the lookahead
    /// panel of iteration `iter`, offering it to `hook`. `None` means the hook rolled
    /// the attempt back and it runs again.
    fn panel(
        &self,
        tile: &mut TileCols<'_, E>,
        iter: usize,
        hook: &dyn TrailingHook<E>,
    ) -> Option<Result<Self::Factored, Self::Error>>;

    /// The operands the factored panel in `tile` publishes: copied and packed once
    /// for all of its iteration's update tasks.
    fn publish(&self, tile: &TileCols<'_, E>, factored: Self::Factored) -> Self::Panel;

    /// Iteration `p`'s task on `tile`, a group other than panel `p`'s, which spans
    /// columns `[j0, j0 + nb)` and published `panel`. [`TileVerdict::Recompute`]
    /// means the task rolled itself back and runs again.
    fn update(
        &self,
        tile: &mut TileCols<'_, E>,
        p: usize,
        j0: usize,
        nb: usize,
        panel: &Self::Panel,
        hook: &dyn TrailingHook<E>,
    ) -> TileVerdict;
}

/// One factorization's task graph and its state between runs: the working matrix,
/// each panel's write-once publication and the per-task timings. The stepper types
/// (`LuTiledStepper` and friends) wrap one; every driver but `*_blocked` runs on it.
pub(crate) struct TileGraph<E: Element, T: TileTasks<E>> {
    tasks: T,
    a: Matrix<E>,
    /// Column-group boundaries of the fixed partition ([`group_bounds`]).
    bounds: Vec<usize>,
    /// `panels[p]`: what `Panel(p)` published, once it has run.
    panels: Vec<OnceLock<T::Panel>>,
    timing: DagTiming,
    /// The prologue's run, counted into the statistics of a whole run.
    prologue: DagRunStats,
    label: String,
}

impl<E: Element, T: TileTasks<E>> TileGraph<E, T> {
    /// The graph of `a` with one panel per `block` columns below `kmax`, before its
    /// prologue. `label` names its runs in watchdog snapshots.
    pub(crate) fn new(tasks: T, a: Matrix<E>, kmax: usize, block: usize, label: String) -> Self {
        assert!(block > 0, "block size must be positive");
        let panels = kmax.div_ceil(block);
        Self {
            tasks,
            bounds: group_bounds(a.cols(), kmax, block),
            a,
            panels: (0..panels).map(|_| OnceLock::new()).collect(),
            timing: DagTiming { panel_s: vec![0.0; panels], update_s: vec![0.0; panels], wall_s: 0.0 },
            prologue: DagRunStats::default(),
            label,
        }
    }

    /// Run the prologue, `Panel(0)`: the one task before any iteration, never
    /// offered to a hook.
    pub(crate) fn prologue(&mut self) -> Result<(), T::Error> {
        let (stats, result) = self.run_stages(0..1, &(), DagExecution::Pool);
        self.prologue = stats;
        result.map(drop)
    }

    /// Number of iterations, one per panel.
    pub(crate) fn iterations(&self) -> usize {
        self.panels.len()
    }

    /// Measured duration of the prologue panel.
    pub(crate) fn prologue_panel_s(&self) -> f64 {
        self.timing.panel_s.first().copied().unwrap_or(0.0)
    }

    /// Run iteration `k` alone on the pool: its lookahead panel's factorization time
    /// and the wall time of the whole graph.
    pub(crate) fn step(
        &mut self,
        k: usize,
        hook: &dyn TrailingHook<E>,
    ) -> Result<StepTiming, T::Error> {
        let update_s = self.run(k..k + 1, hook, DagExecution::Pool)?;
        let panel_s = self.timing.panel_s.get(k + 1).copied().unwrap_or(0.0);
        Ok(StepTiming { panel_s, update_s })
    }

    /// [`FactorGraph::run`].
    pub(crate) fn run(
        &mut self,
        iters: Range<usize>,
        hook: &dyn TrailingHook<E>,
        exec: DagExecution,
    ) -> Result<f64, T::Error> {
        let whole = iters == (0..self.iterations());
        let (stats, result) = self.run_stages(iters.start + 1..iters.end + 1, hook, exec);
        // A run of every iteration is the whole factorization: publish its statistics,
        // the prologue's included. Stepping publishes none.
        if whole {
            let p = self.prologue;
            record(DagRunStats {
                tasks: p.tasks + stats.tasks,
                executed: p.executed + stats.executed,
                retries: p.retries + stats.retries,
            });
        }
        result
    }

    /// Run every task whose stage lies in `stages` as one graph: stage 0 is the
    /// prologue, stage `k + 1` iteration `k`, and earlier stages have already run.
    /// Returns the run's statistics and wall seconds; no run, and zeros, when no
    /// task qualifies.
    fn run_stages(
        &mut self,
        stages: Range<usize>,
        hook: &dyn TrailingHook<E>,
        exec: DagExecution,
    ) -> (DagRunStats, Result<f64, T::Error>) {
        let np = self.panels.len();
        // Task (g, p) is group g's p-th chain task: Panel(g) when p == g, otherwise
        // iteration p's task on group g.
        let stage = |g: usize, p: usize| if p == g { g } else { p + 1 };
        let mut task_of = Vec::new();
        for g in 0..self.bounds.len() {
            let chain = if T::LEFT_SWAPS { np } else { np.min(g + 1) };
            task_of.extend((0..chain).filter(|&p| stages.contains(&stage(g, p))).map(|p| (g, p)));
        }
        if task_of.is_empty() {
            return (DagRunStats::default(), Ok(0.0));
        }
        let t0 = Instant::now();
        // Stages never decrease along a chain, so consecutive ids of one group are
        // chain neighbours. A task waits for Panel(p) only when Panel(p) runs in this
        // graph too; otherwise an earlier run has published it.
        let mut builder = DagBuilder::new();
        let mut panel_id = vec![None; np];
        for &(g, p) in &task_of {
            let id = builder.add_task();
            if p == g {
                panel_id[p] = Some(id);
            }
        }
        for (id, &(g, p)) in task_of.iter().enumerate() {
            if id > 0 && task_of[id - 1].0 == g {
                builder.add_edge(id - 1, id);
            }
            if let Some(panel) = panel_id[p].filter(|_| p != g) {
                builder.add_edge(panel, id);
            }
        }
        let n = self.a.cols();
        let (bounds, tasks, panels) = (&self.bounds, &self.tasks, &self.panels);
        let width_of = |p: usize| bounds.get(p + 1).copied().unwrap_or(n) - bounds[p];
        let panel_nanos: Vec<AtomicU64> = (0..np).map(|_| AtomicU64::new(0)).collect();
        let update_nanos: Vec<AtomicU64> = (0..np).map(|_| AtomicU64::new(0)).collect();
        let failed = AtomicBool::new(false);
        let error = Mutex::new(None);
        let tiles: Vec<Mutex<TileCols<'_, E>>> =
            split_tiles_at(&mut self.a, bounds).into_iter().map(Mutex::new).collect();
        let stats = execute(builder, exec, &self.label, |id| {
            let (g, p) = task_of[id];
            let mut tile = tiles[g].lock().unwrap();
            // After a panel failure the rest of the graph drains without numeric work
            // (counters still decrement, so nothing leaks); panels are totally ordered
            // through the chains, so exactly the first error is recorded.
            if failed.load(Ordering::Acquire) {
                return TaskOutcome::Done;
            }
            let charge = |to: &AtomicU64, since: Instant| {
                to.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
            };
            let task_t0 = Instant::now();
            if p != g {
                let panel = panels[p].get().expect("Panel(p) publishes before its consumers");
                let verdict = tasks.update(&mut tile, p, bounds[p], width_of(p), panel, hook);
                charge(&update_nanos[p], task_t0);
                return match verdict {
                    TileVerdict::Recompute => TaskOutcome::Retry,
                    TileVerdict::Accept => TaskOutcome::Done,
                };
            }
            // Panel(0) only runs in the prologue, under the no-op hook.
            let factored = tasks.panel(&mut tile, g.saturating_sub(1), hook);
            charge(&panel_nanos[g], task_t0);
            match factored {
                Some(Ok(factored)) => {
                    // The operands are packing for iteration g's GEMMs, so their time
                    // is iteration g's update time, not the panel's.
                    let publish_t0 = Instant::now();
                    let panel = tasks.publish(&tile, factored);
                    assert!(panels[g].set(panel).is_ok(), "Panel({g}) published twice");
                    charge(&update_nanos[g], publish_t0);
                    TaskOutcome::Done
                }
                Some(Err(e)) => {
                    *error.lock().unwrap() = Some(e);
                    failed.store(true, Ordering::Release);
                    TaskOutcome::Done
                }
                // Rolled back by the hook: run the repair attempt, publish nothing.
                None => TaskOutcome::Retry,
            }
        });
        drop(tiles);
        for (s, x) in self.timing.panel_s.iter_mut().zip(panel_nanos) {
            *s += x.into_inner() as f64 * 1e-9;
        }
        for (s, x) in self.timing.update_s.iter_mut().zip(update_nanos) {
            *s += x.into_inner() as f64 * 1e-9;
        }
        let wall_s = t0.elapsed().as_secs_f64();
        self.timing.wall_s += wall_s;
        match error.into_inner().unwrap() {
            Some(e) => (stats, Err(e)),
            None => (stats, Ok(wall_s)),
        }
    }

    /// [`FactorGraph::timing`].
    pub(crate) fn timing(&self) -> &DagTiming {
        &self.timing
    }

    /// [`FactorGraph::checkpoint`].
    pub(crate) fn checkpoint(&self) -> Checkpoint<E> {
        Checkpoint {
            a: self.a.clone(),
            published: self.panels.iter().take_while(|p| p.get().is_some()).count(),
            timing: self.timing.clone(),
        }
    }

    /// [`FactorGraph::restore`].
    pub(crate) fn restore(&mut self, snap: &Checkpoint<E>) {
        self.a.data_mut().copy_from_slice(snap.a.data());
        for slot in &mut self.panels[snap.published..] {
            slot.take();
        }
        self.timing.clone_from(&snap.timing);
    }

    /// The matrix, what each panel published (the iterator panics on a panel that
    /// never ran) and the timings.
    pub(crate) fn into_parts(self) -> (Matrix<E>, impl Iterator<Item = T::Panel>, DagTiming) {
        let panels = self.panels.into_iter().map(|p| p.into_inner().expect("every panel factored"));
        (self.a, panels, self.timing)
    }
}

/// A factorization's task graph as the numeric engine drives it: any range of
/// iterations per run (see the module docs' execution policies). Implemented by the
/// stepper types of [`crate::lu`], [`crate::cholesky`] and [`crate::qr`].
pub trait FactorGraph<E: Element = f64> {
    /// Why a panel factorization failed.
    type Error;

    /// Run iterations `iters` as one task graph under `exec`, with `hook` fused into
    /// every trailing-update and lookahead-panel task. Iterations run in order, each
    /// once, unless [`Self::restore`] rewinds. Returns the run's wall seconds, zero
    /// when the range holds no task. A run of every iteration publishes its
    /// statistics ([`last_run_stats`]).
    fn run(
        &mut self,
        iters: Range<usize>,
        hook: &dyn TrailingHook<E>,
        exec: DagExecution,
    ) -> Result<f64, Self::Error>;

    /// Per-task durations of every run so far, the prologue's included.
    fn timing(&self) -> &DagTiming;

    /// Snapshot the state between two iterations, for [`Self::restore`].
    fn checkpoint(&self) -> Checkpoint<E>;

    /// Roll back to a [`Self::checkpoint`] of this graph, unpublishing every panel
    /// factored since, so the iterations after it replay the identical bits.
    fn restore(&mut self, snap: &Checkpoint<E>);
}

/// A factorization graph's state between two iterations ([`FactorGraph::checkpoint`]):
/// the working matrix, how many panels had published, and the timings.
#[derive(Debug, Clone)]
pub struct Checkpoint<E: Element = f64> {
    a: Matrix<E>,
    published: usize,
    timing: DagTiming,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Diamond graph: 0 → {1, 2} → 3. Checks ordering, exactly-once and stats under
    /// every execution mode.
    fn diamond() -> DagBuilder {
        let mut b = DagBuilder::new();
        for _ in 0..4 {
            b.add_task();
        }
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        b
    }

    #[test]
    fn executes_each_task_once_respecting_order() {
        for exec in [
            DagExecution::Pool,
            DagExecution::Replay { seed: 1 },
            DagExecution::Replay { seed: 99 },
        ] {
            let order = Mutex::new(Vec::new());
            record(execute(diamond(), exec, "diamond", |id| {
                order.lock().unwrap().push(id);
                TaskOutcome::Done
            }));
            let order = order.into_inner().unwrap();
            assert_eq!(order.len(), 4, "{exec:?}");
            assert_eq!(order[0], 0, "{exec:?}");
            assert_eq!(order[3], 3, "{exec:?}");
            let stats = last_run_stats().unwrap();
            assert_eq!((stats.tasks, stats.executed, stats.retries), (4, 4, 0));
        }
    }

    #[test]
    fn replay_seeds_produce_different_orders_same_coverage() {
        // A wide fan-out: 1 root, 32 independent children. Distinct seeds should
        // disagree on the completion order (this is what makes replay adversarial).
        let build = || {
            let mut b = DagBuilder::new();
            let root = b.add_task();
            for _ in 0..32 {
                let c = b.add_task();
                b.add_edge(root, c);
            }
            b
        };
        let order_for = |seed| {
            let order = Mutex::new(Vec::new());
            execute(build(), DagExecution::Replay { seed }, "fanout", |id| {
                order.lock().unwrap().push(id);
                TaskOutcome::Done
            });
            order.into_inner().unwrap()
        };
        let a = order_for(7);
        let b = order_for(8);
        assert_eq!(a.len(), 33);
        assert_eq!(b.len(), 33);
        assert_ne!(a, b, "seeds 7 and 8 replayed the same schedule");
        assert_eq!(order_for(7), a, "same seed must replay the same schedule");
    }

    #[test]
    fn pool_mode_runs_long_chains_at_multiple_thread_counts() {
        for t in [1, 2, 4] {
            let _guard = rayon::ThreadCountGuard::set(t);
            let mut b = DagBuilder::new();
            let n = 500;
            for _ in 0..n {
                b.add_task();
            }
            for i in 0..n - 1 {
                b.add_edge(i, i + 1);
            }
            let ran = AtomicUsize::new(0);
            execute(b, DagExecution::Pool, "chain", |_| {
                ran.fetch_add(1, Ordering::Relaxed);
                TaskOutcome::Done
            });
            assert_eq!(ran.load(Ordering::Relaxed), n, "threads={t}");
        }
    }

    #[test]
    fn retries_resubmit_without_breaking_exactly_once() {
        // Task 1 of the diamond demands two repair re-runs before completing; the
        // runtime must resubmit it (counting each retry) while holding back task 3,
        // and still finish with executed == tasks at every execution mode and
        // thread count.
        for (exec, threads) in [
            (DagExecution::Replay { seed: 11 }, None),
            (DagExecution::Pool, Some(1)),
            (DagExecution::Pool, Some(2)),
            (DagExecution::Pool, Some(4)),
        ] {
            let _guard = threads.map(rayon::ThreadCountGuard::set);
            let attempts = AtomicUsize::new(0);
            let runs = AtomicUsize::new(0);
            record(execute(diamond(), exec, "retry-diamond", |id| {
                runs.fetch_add(1, Ordering::Relaxed);
                if id == 1 && attempts.fetch_add(1, Ordering::Relaxed) < 2 {
                    TaskOutcome::Retry
                } else {
                    TaskOutcome::Done
                }
            }));
            let stats = last_run_stats().unwrap();
            assert_eq!((stats.tasks, stats.executed, stats.retries), (4, 4, 2), "{exec:?}");
            assert_eq!(runs.load(Ordering::Relaxed), 6, "{exec:?}: 4 tasks + 2 repair re-runs");
        }
    }

    #[test]
    fn group_bounds_cover_square_and_wide_shapes() {
        assert_eq!(group_bounds(10, 10, 4), vec![0, 4, 8]);
        assert_eq!(group_bounds(10, 6, 4), vec![0, 4, 6]);
        assert_eq!(group_bounds(6, 6, 8), vec![0]);
        assert_eq!(group_bounds(0, 0, 4), Vec::<usize>::new());
        // kmax a multiple of the block: no degenerate boundary is emitted.
        assert_eq!(group_bounds(12, 8, 4), vec![0, 4, 8]);
    }

    #[test]
    fn snapshot_reports_in_flight_state() {
        // Drive the graph manually mid-run via a run closure that inspects the
        // snapshot while task 0 is "executing".
        let seen = Mutex::new(String::new());
        execute(diamond(), DagExecution::Replay { seed: 3 }, "snap", |id| {
            if id == 0 {
                *seen.lock().unwrap() = snapshot_active();
            }
            TaskOutcome::Done
        });
        let seen = seen.into_inner().unwrap();
        assert!(seen.contains("DAG run 'snap'"), "snapshot: {seen}");
        assert!(seen.contains("waiting"), "snapshot: {seen}");
        // Deregistered after the run (other tests' runs may be in flight, so only
        // this label's absence can be asserted).
        assert!(!snapshot_active().contains("'snap'"));
    }

    #[test]
    fn job_scope_keys_stats_and_snapshot_labels() {
        let seen = Mutex::new(String::new());
        {
            let _scope = JobScope::enter(7001);
            assert_eq!(current_job(), Some(7001));
            record(execute(diamond(), DagExecution::Replay { seed: 5 }, "jobkey", |id| {
                if id == 0 {
                    *seen.lock().unwrap() = snapshot_active();
                }
                TaskOutcome::Done
            }));
        }
        // Scope exits restore the previous (no-job) state.
        assert_eq!(current_job(), None);
        // The snapshot label carried the job id, so concurrent jobs with the same
        // driver label stay distinguishable in a watchdog dump.
        let seen = seen.into_inner().unwrap();
        assert!(seen.contains("'jobkey#job7001'"), "snapshot: {seen}");
        // Stats are retrievable by job id from any thread, and clearable.
        let stats = last_run_stats_for(7001).expect("job-keyed stats recorded");
        assert_eq!((stats.tasks, stats.executed, stats.retries), (4, 4, 0));
        assert_eq!(
            std::thread::spawn(|| last_run_stats_for(7001)).join().unwrap(),
            Some(stats),
            "job-keyed stats must be visible cross-thread"
        );
        clear_job_stats(7001);
        assert_eq!(last_run_stats_for(7001), None);
    }

    #[test]
    fn concurrent_job_scoped_runs_do_not_clobber_stats() {
        // Two jobs with different graph sizes run concurrently from two threads;
        // each job's recorded stats must match its own graph, which the old
        // thread-local-only last_run_stats could not guarantee for a service
        // dispatching jobs across a worker pool.
        let _guard = rayon::ThreadCountGuard::set(2);
        std::thread::scope(|s| {
            for (job, tasks) in [(8101u64, 5usize), (8102, 9)] {
                s.spawn(move || {
                    let _scope = JobScope::enter(job);
                    let mut b = DagBuilder::new();
                    for _ in 0..tasks {
                        b.add_task();
                    }
                    for i in 0..tasks - 1 {
                        b.add_edge(i, i + 1);
                    }
                    record(execute(b, DagExecution::Pool, "svc", |_| TaskOutcome::Done));
                });
            }
        });
        assert_eq!(last_run_stats_for(8101).unwrap().tasks, 5);
        assert_eq!(last_run_stats_for(8102).unwrap().tasks, 9);
        clear_job_stats(8101);
        clear_job_stats(8102);
    }

    #[test]
    fn job_scopes_nest_and_restore() {
        let _outer = JobScope::enter(1);
        {
            let _inner = JobScope::enter(2);
            assert_eq!(current_job(), Some(2));
        }
        assert_eq!(current_job(), Some(1));
    }
}
