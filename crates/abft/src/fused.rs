//! Checksum maintenance fused into the tiled factorization task graphs.
//!
//! The numeric-mode protection pattern (re-encode + verify every trailing tile after
//! each iteration's updates) used to run as a **serial epilogue** between parallel
//! regions. [`FusedTileChecksums`] moves that same workload *into*
//! the trailing-update tasks themselves: it implements
//! [`bsr_linalg::task::TrailingHook`], so every per-tile-column task of the
//! factorization graphs, stepped or run whole (`lu_dag_with` / `cholesky_dag_with` /
//! `qr_dag_with`), encodes and verifies its own `tile_rows`-tall tiles right after
//! producing them, on whichever pool thread ran the task — checksum work rides the
//! parallel schedule instead of serializing it.
//!
//! Scope: like the serial epilogue it replaces, this hook encodes fresh checksums from
//! the just-updated tile and immediately verifies against them — it exercises and
//! *costs* the full encode/verify/correct pipeline on the real schedule, and corrects
//! any corruption that strikes a tile **between** its encoding and a later
//! verification, but a fault occurring inside the numeric update itself is signed
//! into the fresh checksums rather than detected. Protection *through* an update
//! would carry the checksums across iterations with the identities in
//! [`crate::checksum`] ([`crate::checksum::update_block_checksums_gemm`]); nothing in
//! the workspace, `bsr-core` included, applies them yet.
//!
//! One hook for every element type: the impl is written once over
//! `bsr_linalg::Element`, and the checksum arithmetic is always f64. At `E = f64` the
//! hook works on the task's own slices in place (no copy). At a narrower type — the
//! mixed-precision path factors in f32 — each tile is **promoted** to f64 (exact),
//! screened for non-finite values on the way (an f32 accumulation blowup is not an
//! injected SDC but must not pass as data; it is tallied as one uncorrectable event
//! and counted by [`FusedTileChecksums::nonfinite_screened`]), then encoded, struck,
//! verified and corrected exactly like an f64 tile, and **demoted** back. Verifying
//! f32 tiles against f32 checksums would fold the code's detection threshold into f32
//! round-off, where a genuine SDC and ordinary accumulation error are
//! indistinguishable. The demotion rounds a corrected element to the nearest f32, so
//! a correction there is exact to half an f32 ulp and acceptance is judged at the
//! residual level by `bsr-core`'s f64 refinement sweep; recovery verdicts, fault
//! targets and strike budgets are the same code at both types.
//!
//! Determinism: each (iteration, tile column) pair is visited by exactly one task, and
//! the hook touches only that task's own slices, so fused runs are bit-identical to
//! unfused runs (absent corrections) at every thread count. The shared tally is a
//! `Mutex`-guarded merge of per-task [`VerifyOutcome`]s — commutative counters, so the
//! merge order does not matter.

use crate::checksum::{
    encode_block_slices, encode_column_checksums_slices, verify_and_correct_slices,
    BlockChecksums, ChecksumScheme, VerifyEvent, VerifyEventKind, VerifyOutcome,
};
use crate::inject::{
    corrupt_checksums, inject_burst_slices, inject_fault_slices, inject_grid_slices, InjectedFault,
};
use crate::recover::{FaultSite, RecoveryTracker};
use bsr_linalg::matrix::Block;
use bsr_linalg::task::{TileVerdict, TrailingHook};
use bsr_linalg::Element;
use hetero_sim::sdc::ErrorPattern;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where a planned fault lands — the hardened fault model of the recovery pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultTarget {
    /// The tile's data elements, per the fault's [`ErrorPattern`] — the base model.
    TileData,
    /// The tile's checksum vectors themselves: the decoder trusts the stored
    /// vectors, so the guard hash the checksums carry catches this and reports the
    /// tile uncorrectable, under every scheme.
    Checksum,
    /// The iteration's lookahead panel factorization (detected by the panel
    /// verification in `after_panel_factor`, never corrected in place).
    Panel,
    /// A deterministic four-corner multi-fault burst that exceeds the correction
    /// capability of every order-1 scheme (always ≥ 2 bad rows and ≥ 2 bad columns
    /// on real tiles); an order-2+ [`ChecksumScheme::Multi`] code absorbs it in place.
    Burst,
    /// A deterministic `g × g` spread-out corruption grid
    /// ([`crate::inject::inject_grid_slices`]): defeats any checksum code of order
    /// `t < g`, absorbed in place by order `t ≥ g` — the calibration ladder of the
    /// multi-strike chaos mixes.
    Grid(u8),
}

/// One fault scheduled for injection into a specific trailing tile, struck *between*
/// that tile's checksum encoding and its verification — the window where a silent
/// data corruption of the update lands in the paper's model, and exactly what the
/// active scheme must detect and repair.
///
/// `row` / `col` name the tile by its global top-left coordinates (the `b × b` grid
/// the hook tiles each column group into). `seed` is the private RNG stream driving
/// the in-tile randomness (position, magnitude), pre-drawn by the planner so the
/// injected bits are identical no matter which pool thread runs the tile's task.
/// `target` selects where the strike lands and `strikes` how many attempts it fires
/// on (recovery recomputes a struck tile; a transient fault stops firing once its
/// budget is spent, a persistent one — `u32::MAX` — never does).
#[derive(Debug, Clone, Copy)]
pub struct PlannedFault {
    /// Global top row of the target tile.
    pub row: usize,
    /// Global left column of the target tile.
    pub col: usize,
    /// Error propagation pattern to inject.
    pub pattern: ErrorPattern,
    /// Seed of the fault's private injection RNG.
    pub seed: u64,
    /// Where the strike lands.
    pub target: FaultTarget,
    /// How many (recomputation) attempts the fault fires on before clearing.
    pub strikes: u32,
}

impl PlannedFault {
    /// The base-model fault: a single-strike corruption of tile data.
    pub fn tile(row: usize, col: usize, pattern: ErrorPattern, seed: u64) -> Self {
        Self { row, col, pattern, seed, target: FaultTarget::TileData, strikes: 1 }
    }
}

/// A [`TrailingHook`] — at every element type — that re-encodes and verifies
/// (correcting where the scheme allows) every `tile_rows`-tall tile of each updated
/// tile column group, inside the task that produced it. Optionally injects [`PlannedFault`]s into their target
/// tiles between encode and verify, exercising the full detect/correct pipeline on
/// the parallel schedule.
pub struct FusedTileChecksums {
    scheme: ChecksumScheme,
    tile_rows: usize,
    faults: Vec<PlannedFault>,
    tally: Mutex<VerifyOutcome>,
    injected: Mutex<Vec<InjectedFault>>,
    /// Checksum nanoseconds summed across tasks (CPU time, not wall time: concurrent
    /// tasks overlap). Includes the promote/demote copies of narrower element types:
    /// they exist only because of protection, so they are charged to it.
    checksum_nanos: AtomicU64,
    /// Non-finite elements caught by the promotion screen (always 0 at `E = f64`).
    nonfinite: AtomicU64,
    /// Recovery bookkeeping shared with the engine; `None` (or a disabled policy)
    /// keeps the pre-recovery detect-and-tally behavior.
    recovery: Option<Arc<RecoveryTracker>>,
}

impl FusedTileChecksums {
    /// Protect with `scheme`, tiling each column group into `tile_rows`-tall tiles
    /// (normally the factorization's block size).
    pub fn new(scheme: ChecksumScheme, tile_rows: usize) -> Self {
        Self::with_faults(scheme, tile_rows, Vec::new())
    }

    /// [`FusedTileChecksums::new`] plus a fault-injection plan: each fault strikes
    /// its target tile after the tile's checksums are encoded and before they are
    /// verified. With `scheme == ChecksumScheme::None` the faults are still
    /// injected — they just go uncorrected (the unprotected baseline).
    pub fn with_faults(scheme: ChecksumScheme, tile_rows: usize, faults: Vec<PlannedFault>) -> Self {
        assert!(tile_rows > 0, "tile height must be positive");
        Self {
            scheme,
            tile_rows,
            faults,
            tally: Mutex::new(VerifyOutcome::default()),
            injected: Mutex::new(Vec::new()),
            checksum_nanos: AtomicU64::new(0),
            nonfinite: AtomicU64::new(0),
            recovery: None,
        }
    }

    /// Attach shared recovery bookkeeping: detection failures consult `tracker` for
    /// a verdict ([`TileVerdict::Recompute`] while budgets last) instead of only
    /// tallying, and fault strike budgets are accounted through it. The engine
    /// holds the same `Arc` to decide on iteration replays and structured failure.
    pub fn with_recovery(mut self, tracker: Arc<RecoveryTracker>) -> Self {
        self.recovery = Some(tracker);
        self
    }

    /// Whether a planned fault fires on this attempt: with recovery attached the
    /// tracker's per-seed strike counter enforces the budget (persisting across
    /// recomputations and replays); without recovery every tile is visited exactly
    /// once, so the fault simply fires.
    fn strike_fires(&self, f: &PlannedFault) -> bool {
        match &self.recovery {
            Some(tr) => tr.strike_allowed(f.seed, f.strikes),
            None => true,
        }
    }

    /// Turn one attempt's verification outcome into the driver verdict, updating
    /// recovery bookkeeping. On [`TileVerdict::Accept`] the attempt's tallies are
    /// merged into the shared state; a rolled-back attempt leaves no trace there
    /// (its tile never becomes part of the factorization), keeping merged outcomes
    /// identical to a clean run's whenever recovery succeeds.
    fn settle_attempt(
        &self,
        iter: usize,
        col0: usize,
        site: FaultSite,
        out: VerifyOutcome,
        struck: Vec<InjectedFault>,
        nanos: u64,
    ) -> TileVerdict {
        let verdict = match &self.recovery {
            Some(tr) if tr.policy().enabled => {
                if out.uncorrectable > 0 {
                    tr.on_failure(iter, col0, site)
                } else {
                    tr.on_success(iter, col0, site, out.total_corrected() > 0);
                    TileVerdict::Accept
                }
            }
            _ => TileVerdict::Accept,
        };
        self.checksum_nanos.fetch_add(nanos, Ordering::Relaxed);
        if verdict == TileVerdict::Accept {
            self.tally.lock().unwrap().merge(&out);
            if !struck.is_empty() {
                self.injected.lock().unwrap().extend(struck);
            }
        }
        verdict
    }

    /// Merged verification outcome across all tasks so far.
    pub fn outcome(&self) -> VerifyOutcome {
        self.tally.lock().unwrap().clone()
    }

    /// Number of planned faults injected so far.
    pub fn faults_injected(&self) -> usize {
        self.injected.lock().unwrap().len()
    }

    /// Descriptions of the faults injected so far (order follows task completion, so
    /// it varies with the schedule; the contents do not).
    pub fn injected(&self) -> Vec<InjectedFault> {
        self.injected.lock().unwrap().clone()
    }

    /// Checksum seconds summed across all tasks (CPU-summed: on one thread this equals
    /// wall time; with concurrent tasks it exceeds the wall-clock share).
    pub fn checksum_seconds(&self) -> f64 {
        self.checksum_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Non-finite elements caught so far by the promotion screen of a narrower
    /// element type (f32 accumulation blowups; always 0 for f64 runs). Each screened
    /// tile is also tallied as one uncorrectable verification event: a blowup is not
    /// locatable by the checksum code (whole rows go non-finite), so it escalates
    /// the same way an uncorrectable SDC does.
    pub fn nonfinite_screened(&self) -> u64 {
        self.nonfinite.load(Ordering::Relaxed)
    }

    fn recovery_enabled(&self) -> bool {
        self.recovery.as_ref().is_some_and(|tr| tr.policy().enabled)
    }

    /// Tally a tile the promotion screen rejected (`bad` non-finite elements).
    fn tally_screened(&self, bad: u64, row: usize, col: usize, out: &mut VerifyOutcome) {
        self.nonfinite.fetch_add(bad, Ordering::Relaxed);
        out.uncorrectable += 1;
        out.events.push(VerifyEvent { row, col, kind: VerifyEventKind::Uncorrectable });
        out.events.sort_unstable();
    }

    /// Encode → strike the planned faults → verify/correct one `tile_rows`-tall f64
    /// tile whose top-left element is `(tile_row, col0)`. Returns the encode + verify
    /// nanoseconds: fault injection is simulated corruption, not ABFT work, so an
    /// unprotected (`None`) run with planned faults reports exactly zero checksum cost.
    fn protect_tile(
        &self,
        tile_row: usize,
        col0: usize,
        tile: &mut [&mut [f64]],
        out: &mut VerifyOutcome,
        struck: &mut Vec<InjectedFault>,
    ) -> u64 {
        let mut nanos = 0u64;
        let mut cs: Option<BlockChecksums> = if self.scheme == ChecksumScheme::None {
            None
        } else {
            let t0 = Instant::now();
            let views: Vec<&[f64]> = tile.iter().map(|c| &**c).collect();
            let block = Block::new(tile_row, col0, tile[0].len(), tile.len());
            let cs = encode_block_slices(&views, block, self.scheme);
            nanos += t0.elapsed().as_nanos() as u64;
            Some(cs)
        };
        // Planned faults strike this tile now — after encode, before verify.
        // Panel-targeted faults belong to `after_panel_factor`, not here.
        for fault in self
            .faults
            .iter()
            .filter(|f| f.row == tile_row && f.col == col0 && f.target != FaultTarget::Panel)
        {
            if !self.strike_fires(fault) {
                continue;
            }
            let mut rng = ChaCha8Rng::seed_from_u64(fault.seed);
            match fault.target {
                FaultTarget::TileData => {
                    struck.push(inject_fault_slices(tile, tile_row, col0, fault.pattern, &mut rng));
                }
                FaultTarget::Burst => {
                    struck.push(inject_burst_slices(tile, tile_row, col0, &mut rng));
                }
                FaultTarget::Grid(g) => {
                    struck.push(inject_grid_slices(tile, tile_row, col0, g, &mut rng));
                }
                FaultTarget::Checksum => {
                    if let Some(cs) = cs.as_mut() {
                        let n = corrupt_checksums(cs, &mut rng);
                        struck.push(InjectedFault {
                            pattern: fault.pattern,
                            row: tile_row,
                            col: col0,
                            elements: n,
                        });
                    }
                }
                FaultTarget::Panel => unreachable!("filtered above"),
            }
        }
        if let Some(cs) = cs {
            let t0 = Instant::now();
            out.merge(&verify_and_correct_slices(tile, &cs));
            nanos += t0.elapsed().as_nanos() as u64;
        }
        nanos
    }
}

/// Run `f` over `cols` as f64 column slices: in place, with no copy, at `E = f64`;
/// for a narrower element type on a promoted copy (exact) that is demoted back
/// afterwards (round to nearest), so whatever `f` corrected — or left corrupted —
/// lands in the factors. The copies' nanoseconds are added to `copy_nanos`.
///
/// `Err(count)`, without calling `f`, when the promotion finds `count` non-finite
/// elements: an accumulation blowup of the narrow type, which no checksum can locate.
fn on_f64_cols<E: Element, R>(
    cols: &mut [&mut [E]],
    copy_nanos: &mut u64,
    f: impl FnOnce(&mut [&mut [f64]]) -> R,
) -> Result<R, u64> {
    if let Some(cols) = E::as_f64_cols(cols) {
        return Ok(f(cols));
    }
    let t0 = Instant::now();
    let mut bad = 0u64;
    let mut promoted: Vec<Vec<f64>> = cols
        .iter()
        .map(|c| {
            c.iter()
                .map(|&v| {
                    bad += u64::from(!v.is_finite());
                    v.to_f64()
                })
                .collect()
        })
        .collect();
    *copy_nanos += t0.elapsed().as_nanos() as u64;
    if bad > 0 {
        return Err(bad);
    }
    let mut views: Vec<&mut [f64]> = promoted.iter_mut().map(Vec::as_mut_slice).collect();
    let result = f(&mut views);
    let t0 = Instant::now();
    for (col, src) in cols.iter_mut().zip(&promoted) {
        for (dst, &v) in col.iter_mut().zip(src) {
            *dst = E::from_f64(v);
        }
    }
    *copy_nanos += t0.elapsed().as_nanos() as u64;
    Ok(result)
}

impl<E: Element> TrailingHook<E> for FusedTileChecksums {
    fn after_tile_update(
        &self,
        iter: usize,
        col0: usize,
        row0: usize,
        cols: &mut [&mut [E]],
    ) -> TileVerdict {
        if cols.is_empty() || cols[0].is_empty() {
            return TileVerdict::Accept;
        }
        if self.scheme == ChecksumScheme::None && self.faults.is_empty() {
            return TileVerdict::Accept;
        }
        let height = cols[0].len();
        let mut out = VerifyOutcome::default();
        let mut struck = Vec::new();
        let mut nanos = 0u64;
        // Promote/demote copies exist only because of protection, so they are
        // charged to it — but not to an unprotected run that copies for injection.
        let mut copy_nanos = 0u64;
        let mut r = 0;
        while r < height {
            let rows = self.tile_rows.min(height - r);
            let tile_row = row0 + r;
            let mut tile: Vec<&mut [E]> = cols.iter_mut().map(|c| &mut c[r..r + rows]).collect();
            match on_f64_cols(&mut tile, &mut copy_nanos, |tile| {
                self.protect_tile(tile_row, col0, tile, &mut out, &mut struck)
            }) {
                Ok(tile_nanos) => nanos += tile_nanos,
                Err(bad) => self.tally_screened(bad, tile_row, col0, &mut out),
            }
            r += rows;
        }
        if self.scheme != ChecksumScheme::None {
            nanos += copy_nanos;
        }
        self.settle_attempt(iter, col0, FaultSite::Update, out, struck, nanos)
    }

    fn after_panel_factor(
        &self,
        iter: usize,
        col0: usize,
        row0: usize,
        cols: &mut [&mut [E]],
    ) -> TileVerdict {
        // Panel verification is detection-only, and only runs when a panel strike
        // is actually planned for this panel: a clean run pays zero panel-check
        // overhead, and recovery restores + refactors rather than correcting in
        // place (the refactored panel is bit-identical to a clean one; an ABFT
        // "correction" of reflectors/pivot columns would not be).
        let pfaults: Vec<&PlannedFault> = self
            .faults
            .iter()
            .filter(|f| f.target == FaultTarget::Panel && f.col == col0)
            .collect();
        if pfaults.is_empty() || cols.is_empty() || cols[0].is_empty() {
            return TileVerdict::Accept;
        }
        let mut out = VerifyOutcome::default();
        let mut struck = Vec::new();
        let mut nanos = 0u64;
        let checked = on_f64_cols(cols, &mut nanos, |cols| {
            let t0 = Instant::now();
            let before = {
                let views: Vec<&[f64]> = cols.iter().map(|c| &**c).collect();
                encode_column_checksums_slices(&views, 2)
            };
            let encode_nanos = t0.elapsed().as_nanos() as u64;
            for fault in pfaults {
                if !self.strike_fires(fault) {
                    continue;
                }
                let mut rng = ChaCha8Rng::seed_from_u64(fault.seed);
                struck.push(inject_fault_slices(cols, row0, col0, fault.pattern, &mut rng));
            }
            let t0 = Instant::now();
            let after = {
                let views: Vec<&[f64]> = cols.iter().map(|c| &**c).collect();
                encode_column_checksums_slices(&views, 2)
            };
            let scale = before.sum().iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
            for j in 0..cols.len() {
                let bad = (before.sum()[j] - after.sum()[j]).abs() > 1e-6 * scale.max(1.0)
                    || (before.weighted()[j] - after.weighted()[j]).abs() > 1e-6 * scale.max(1.0);
                if bad {
                    out.uncorrectable += 1;
                    out.events.push(VerifyEvent {
                        row: row0,
                        col: col0 + j,
                        kind: VerifyEventKind::Uncorrectable,
                    });
                }
            }
            out.events.sort_unstable();
            encode_nanos + t0.elapsed().as_nanos() as u64
        });
        match checked {
            Ok(check_nanos) => nanos += check_nanos,
            Err(bad) => self.tally_screened(bad, row0, col0, &mut out),
        }
        self.settle_attempt(iter, col0, FaultSite::Panel, out, struck, nanos)
    }

    fn wants_snapshots(&self) -> bool {
        self.recovery_enabled()
    }
}

/// Per-iteration hook multiplexer for a factorization graph run over several
/// iterations (`lu_dag_with` / `cholesky_dag_with` / `qr_dag_with`, or the numeric
/// engine's `FactorGraph::run`).
///
/// One run executes all of its iterations inside one task graph, so every
/// per-iteration hook must exist up front; this type holds them all and dispatches
/// each call to the hook of the task's iteration. Hooks fire per task exactly as when
/// the iterations are stepped one graph at a time — same (iteration, tile) visit set,
/// same commutative tallies — so fault/verification counts are schedule-independent.
pub struct PerIterationChecksums {
    first: usize,
    hooks: Vec<FusedTileChecksums>,
}

impl PerIterationChecksums {
    /// Multiplex over `hooks[k]` for iteration `k`. The vector must have one entry
    /// per blocked iteration of the factorization it is fused into.
    pub fn new(hooks: Vec<FusedTileChecksums>) -> Self {
        Self::starting_at(0, hooks)
    }

    /// Multiplex over `hooks[i]` for iteration `first + i`: the hooks of a run over
    /// iterations `first..first + hooks.len()`.
    pub fn starting_at(first: usize, hooks: Vec<FusedTileChecksums>) -> Self {
        Self { first, hooks }
    }

    /// Number of per-iteration hooks.
    pub fn iterations(&self) -> usize {
        self.hooks.len()
    }

    /// The hook serving iteration `k`.
    pub fn hook(&self, k: usize) -> &FusedTileChecksums {
        &self.hooks[k - self.first]
    }

    /// Verification outcome merged across all iterations.
    pub fn outcome(&self) -> VerifyOutcome {
        let mut out = VerifyOutcome::default();
        for h in &self.hooks {
            out.merge(&h.outcome());
        }
        out
    }

    /// Total planned faults injected across all iterations.
    pub fn faults_injected(&self) -> usize {
        self.hooks.iter().map(|h| h.faults_injected()).sum()
    }

    /// Total checksum seconds across all iterations (CPU-summed, see
    /// [`FusedTileChecksums::checksum_seconds`]).
    pub fn checksum_seconds(&self) -> f64 {
        self.hooks.iter().map(|h| h.checksum_seconds()).sum()
    }

    /// Total non-finite elements screened across all iterations (see
    /// [`FusedTileChecksums::nonfinite_screened`]).
    pub fn nonfinite_screened(&self) -> u64 {
        self.hooks.iter().map(|h| h.nonfinite_screened()).sum()
    }
}

impl<E: Element> TrailingHook<E> for PerIterationChecksums {
    fn after_tile_update(
        &self,
        iter: usize,
        col0: usize,
        row0: usize,
        cols: &mut [&mut [E]],
    ) -> TileVerdict {
        self.hook(iter).after_tile_update(iter, col0, row0, cols)
    }

    fn after_panel_factor(
        &self,
        iter: usize,
        col0: usize,
        row0: usize,
        cols: &mut [&mut [E]],
    ) -> TileVerdict {
        self.hook(iter).after_panel_factor(iter, col0, row0, cols)
    }

    fn wants_snapshots(&self) -> bool {
        self.hooks.iter().any(FusedTileChecksums::recovery_enabled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsr_linalg::dag::DagExecution;
    use bsr_linalg::generate::{random_matrix, random_spd_matrix};
    use bsr_linalg::matrix::Matrix;
    use bsr_linalg::{cholesky, lu, qr};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The stepped drivers: the prologue, then one graph per iteration under `hook`.
    fn lu_stepped(a: &Matrix, b: usize, hook: &dyn TrailingHook) -> lu::LuFactors {
        let mut stepper = lu::LuTiledStepper::new(a, b).unwrap();
        for k in 0..stepper.iterations() {
            stepper.step(k, hook).unwrap();
        }
        stepper.into_factors()
    }

    fn cholesky_stepped(a: &Matrix, b: usize, hook: &dyn TrailingHook) -> Matrix {
        let mut stepper = cholesky::CholeskyTiledStepper::new(a.clone(), b).unwrap();
        for k in 0..stepper.iterations() {
            stepper.step(k, hook).unwrap();
        }
        stepper.into_matrix()
    }

    fn qr_stepped(a: &Matrix, b: usize, hook: &dyn TrailingHook) -> qr::QrFactors {
        let mut stepper = qr::QrTiledStepper::new(a, b);
        for k in 0..stepper.iterations() {
            stepper.step(k, hook);
        }
        stepper.into_factors()
    }

    #[test]
    fn fused_runs_match_unfused_and_verify_clean() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let n = 48;
        let b = 8;

        let a = random_matrix(&mut rng, n, n);
        let hook = FusedTileChecksums::new(ChecksumScheme::Full, b);
        let fused = lu_stepped(&a, b, &hook);
        let plain = lu_stepped(&a, b, &());
        assert_eq!(fused.lu, plain.lu, "fused LU changed the factors");
        assert_eq!(fused.pivots, plain.pivots);
        let out = hook.outcome();
        assert!(out.is_clean_or_corrected());
        assert_eq!(out.total_corrected(), 0, "nothing to correct");
        assert!(hook.checksum_seconds() > 0.0);

        let spd = random_spd_matrix(&mut rng, n);
        let hook = FusedTileChecksums::new(ChecksumScheme::Full, b);
        let fused = cholesky_stepped(&spd, b, &hook);
        let plain = cholesky_stepped(&spd, b, &());
        assert_eq!(fused, plain, "fused Cholesky changed the factors");
        assert!(hook.outcome().is_clean_or_corrected());

        let a = random_matrix(&mut rng, n, n);
        let hook = FusedTileChecksums::new(ChecksumScheme::Full, b);
        let fused = qr_stepped(&a, b, &hook);
        let plain = qr_stepped(&a, b, &());
        assert_eq!(fused.qr, plain.qr, "fused QR changed the factors");
        assert_eq!(fused.taus, plain.taus);
        assert!(hook.outcome().is_clean_or_corrected());
    }

    #[test]
    fn dag_run_with_per_iteration_hooks_matches_stepped_hooks() {
        // The DAG driver runs all iterations inside one task graph, so its hooks are
        // multiplexed per iteration; the stepped driver keeps one hook across all
        // iterations. Same (iteration, tile) visit set ⇒ same factors and, after
        // merging, the same commutative tallies.
        let mut rng = ChaCha8Rng::seed_from_u64(79);
        let n = 40;
        let b = 8;
        let iters = lu::num_iterations(n, b);
        let a = random_matrix(&mut rng, n, n);

        let barrier_hook = FusedTileChecksums::new(ChecksumScheme::Full, b);
        let barrier = lu_stepped(&a, b, &barrier_hook);

        let dag_hook = PerIterationChecksums::new(
            (0..iters).map(|_| FusedTileChecksums::new(ChecksumScheme::Full, b)).collect(),
        );
        let (dag, _timing) =
            lu::lu_dag_with(&a, b, &dag_hook, DagExecution::Replay { seed: 11 }).unwrap();

        assert_eq!(barrier.lu, dag.lu, "hooked DAG run changed the factors");
        assert_eq!(barrier.pivots, dag.pivots);
        let merged = dag_hook.outcome();
        let stepped = barrier_hook.outcome();
        assert_eq!(
            (merged.corrected_0d, merged.corrected_k, merged.uncorrectable),
            (stepped.corrected_0d, stepped.corrected_k, stepped.uncorrectable),
            "per-iteration tallies diverge"
        );
        assert!(merged.is_clean_or_corrected());
        assert!(dag_hook.faults_injected() == 0);
    }

    #[test]
    fn hook_corrects_an_injected_fault_in_place() {
        // Drive the hook directly: encode a clean tile, corrupt one element of the
        // mutable slices, and check verify-and-correct restores it through the same
        // slice path the fused tasks use.
        let mut rng = ChaCha8Rng::seed_from_u64(78);
        let m = random_matrix(&mut rng, 12, 6);
        let mut corrupted = m.clone();
        let block = Block::new(0, 0, 12, 6);
        let cs = {
            let views: Vec<&[f64]> = (0..6).map(|j| m.col_range(j, 0, 12)).collect();
            encode_block_slices(&views, block, ChecksumScheme::Full)
        };
        corrupted.set(7, 3, corrupted.get(7, 3) + 5.0);
        let mut cols: Vec<&mut [f64]> = corrupted.columns_mut();
        let out = verify_and_correct_slices(&mut cols, &cs);
        assert_eq!(out.corrected_0d, 1);
        assert!(corrupted.approx_eq(&m, 1e-9));
    }
}
