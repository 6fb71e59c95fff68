//! Fault injection.
//!
//! Numeric-mode experiments reproduce the reliability results of the paper (Figure 9) by
//! injecting silent data corruptions into the matrix with the patterns of
//! [`hetero_sim::sdc::ErrorPattern`]: single elements (0D), rows/columns (1D), and
//! scattered multi-row/column patterns (2D). The injected magnitude is scaled relative to
//! the corrupted value so that the corruption is numerically significant (a flipped
//! exponent bit rather than a last-place wiggle).

use crate::checksum::BlockChecksums;
use bsr_linalg::matrix::{Block, Matrix};
use hetero_sim::sdc::ErrorPattern;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Description of one injected fault (for logging / assertions in tests).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InjectedFault {
    /// Error propagation pattern.
    pub pattern: ErrorPattern,
    /// Global row of the first corrupted element.
    pub row: usize,
    /// Global column of the first corrupted element.
    pub col: usize,
    /// Number of elements corrupted.
    pub elements: usize,
}

fn corrupt<R: Rng + ?Sized>(cols: &mut [&mut [f64]], i: usize, j: usize, rng: &mut R) {
    let v = cols[j][i];
    // Significant corruption: scale change plus offset, mimicking a high-order bit flip.
    let factor: f64 = rng.gen_range(2.0..16.0);
    let offset: f64 = rng.gen_range(0.5..2.0);
    cols[j][i] = v * factor + offset;
}

/// Inject one fault of `pattern` into `block` of `m`. Returns its description.
pub fn inject_fault<R: Rng + ?Sized>(
    m: &mut Matrix,
    block: Block,
    pattern: ErrorPattern,
    rng: &mut R,
) -> InjectedFault {
    let mut cols: Vec<&mut [f64]> = m.cols_range_mut(block).map(|(_, s)| s).collect();
    inject_fault_slices(&mut cols, block.row, block.col, pattern, rng)
}

/// [`inject_fault`] over a tile given as per-column mutable slices (`cols[j][i]` is
/// tile element `(i, j)`), the form the fused checksum hook owns from inside a
/// trailing-update task. `origin_row` / `origin_col` are the global coordinates of
/// `cols[0][0]`, used only to report the fault's position. Consumes the RNG in the
/// exact same sequence as [`inject_fault`] on the equivalent [`Block`].
pub fn inject_fault_slices<R: Rng + ?Sized>(
    cols: &mut [&mut [f64]],
    origin_row: usize,
    origin_col: usize,
    pattern: ErrorPattern,
    rng: &mut R,
) -> InjectedFault {
    let ncols = cols.len();
    let nrows = cols.first().map_or(0, |c| c.len());
    assert!(nrows > 0 && ncols > 0, "cannot inject into an empty tile");
    let i = rng.gen_range(0..nrows);
    let j = rng.gen_range(0..ncols);
    match pattern {
        ErrorPattern::ZeroD => {
            corrupt(cols, i, j, rng);
            InjectedFault { pattern, row: origin_row + i, col: origin_col + j, elements: 1 }
        }
        ErrorPattern::OneD => {
            // Corrupt (part of) a row or a column, chosen at random; degenerate tiles
            // (a single row or column) fall back to whichever direction has room.
            let mut along_row = rng.gen_bool(0.5);
            if ncols < 2 {
                along_row = false;
            }
            if nrows < 2 {
                along_row = true;
            }
            let mut count = 0;
            if along_row && ncols >= 2 {
                let len = rng.gen_range(2..=ncols);
                for jj in 0..len {
                    corrupt(cols, i, jj, rng);
                    count += 1;
                }
            } else if !along_row && nrows >= 2 {
                let len = rng.gen_range(2..=nrows);
                for ii in 0..len {
                    corrupt(cols, ii, j, rng);
                    count += 1;
                }
            } else {
                // 1 × 1 tile: the pattern degenerates to a single element.
                corrupt(cols, i, j, rng);
                count = 1;
            }
            InjectedFault { pattern, row: origin_row + i, col: origin_col + j, elements: count }
        }
        ErrorPattern::TwoD => {
            // Corrupt a small scattered set spanning at least two rows and two columns.
            let mut count = 0;
            let rows = [rng.gen_range(0..nrows), rng.gen_range(0..nrows)];
            let jcols = [rng.gen_range(0..ncols), rng.gen_range(0..ncols)];
            for &ri in &rows {
                for &cj in &jcols {
                    corrupt(cols, ri, cj, rng);
                    count += 1;
                }
            }
            InjectedFault {
                pattern,
                row: origin_row + rows[0],
                col: origin_col + jcols[0],
                elements: count,
            }
        }
    }
}

/// Inject a multi-fault burst: the four corners of the tile are corrupted in one
/// strike, guaranteeing (for tiles of at least 2 × 2) two bad rows *and* two bad
/// columns — a pattern that **exceeds** the correction capability of every checksum
/// scheme, deterministically, unlike a random [`ErrorPattern::TwoD`] draw which can
/// degenerate into a correctable line. This is the uncorrectable workload of the
/// recovery pipeline's chaos campaigns.
pub fn inject_burst_slices<R: Rng + ?Sized>(
    cols: &mut [&mut [f64]],
    origin_row: usize,
    origin_col: usize,
    rng: &mut R,
) -> InjectedFault {
    let ncols = cols.len();
    let nrows = cols.first().map_or(0, |c| c.len());
    assert!(nrows > 0 && ncols > 0, "cannot inject into an empty tile");
    let (li, lj) = (nrows - 1, ncols - 1);
    let mut seen: Vec<(usize, usize)> = Vec::with_capacity(4);
    for (i, j) in [(0, 0), (0, lj), (li, 0), (li, lj)] {
        // Degenerate (single-row/column) tiles collapse corners; corrupt each
        // position once so the element count stays honest.
        if !seen.contains(&(i, j)) {
            corrupt(cols, i, j, rng);
            seen.push((i, j));
        }
    }
    InjectedFault {
        pattern: ErrorPattern::TwoD,
        row: origin_row,
        col: origin_col,
        elements: seen.len(),
    }
}

/// `k` evenly spread distinct indices in `0..n` (all of `0..n` when `n < k`): the
/// deterministic strike geometry of [`inject_grid_slices`], chosen so the affected
/// lines are far apart (no accidental degeneration into a correctable cluster).
fn spread(k: usize, n: usize) -> Vec<usize> {
    if k >= n {
        return (0..n).collect();
    }
    if k == 1 {
        return vec![0];
    }
    (0..k).map(|i| i * (n - 1) / (k - 1)).collect()
}

/// Inject a deterministic `size × size` corruption grid: `size` spread-out rows ×
/// `size` spread-out columns, every intersection struck. Each affected row and column
/// holds exactly `size` errors, so the pattern **defeats** any checksum code of order
/// `t < size` (per-line capacity exceeded in both directions at once, so not even the
/// cross-direction rescue applies) while an order `t ≥ size` code absorbs it in
/// place — the calibration ladder of the multi-strike chaos mixes. `size = 2` is the
/// four-corner [`inject_burst_slices`] geometry, spread instead of cornered.
pub fn inject_grid_slices<R: Rng + ?Sized>(
    cols: &mut [&mut [f64]],
    origin_row: usize,
    origin_col: usize,
    size: u8,
    rng: &mut R,
) -> InjectedFault {
    let ncols = cols.len();
    let nrows = cols.first().map_or(0, |c| c.len());
    assert!(nrows > 0 && ncols > 0, "cannot inject into an empty tile");
    let g = usize::from(size.max(1));
    let rows = spread(g, nrows);
    let jcols = spread(g, ncols);
    let mut count = 0;
    for &i in &rows {
        for &j in &jcols {
            corrupt(cols, i, j, rng);
            count += 1;
        }
    }
    InjectedFault {
        pattern: ErrorPattern::TwoD,
        row: origin_row + rows[0],
        col: origin_col + jcols[0],
        elements: count,
    }
}

/// Corrupt one element of each checksum vector the block carries — a fault landing
/// in the ABFT metadata itself rather than the data it protects. The decoder trusts
/// the stored vectors (left alone it would "correct" healthy data against garbage),
/// so verification compares the guard hash [`BlockChecksums`] took when the vectors
/// were written and reports the tile uncorrectable, without touching its data, under
/// every scheme. Returns the number of checksum elements corrupted (0 when the scheme
/// carries none).
pub fn corrupt_checksums<R: Rng + ?Sized>(cs: &mut BlockChecksums, rng: &mut R) -> usize {
    let hit = |vs: &mut [f64], rng: &mut R| {
        if vs.is_empty() {
            return 0;
        }
        let j = rng.gen_range(0..vs.len());
        let factor: f64 = rng.gen_range(2.0..16.0);
        let offset: f64 = rng.gen_range(0.5..2.0);
        vs[j] = vs[j] * factor + offset;
        1
    };
    let mut n = 0;
    if let Some(c) = cs.columns.as_mut() {
        for v in &mut c.checks {
            n += hit(v, rng);
        }
    }
    if let Some(r) = cs.rows.as_mut() {
        for v in &mut r.checks {
            n += hit(v, rng);
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsr_linalg::generate::random_matrix;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn count_diffs(a: &Matrix, b: &Matrix) -> usize {
        let mut n = 0;
        for j in 0..a.cols() {
            for i in 0..a.rows() {
                if (a.get(i, j) - b.get(i, j)).abs() > 1e-12 {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn zero_d_corrupts_exactly_one_element() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let m0 = random_matrix(&mut rng, 8, 8);
        let mut m = m0.clone();
        let f = inject_fault(&mut m, Block::full(8, 8), ErrorPattern::ZeroD, &mut rng);
        assert_eq!(f.elements, 1);
        assert_eq!(count_diffs(&m0, &m), 1);
    }

    #[test]
    fn one_d_corrupts_a_line() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let m0 = random_matrix(&mut rng, 8, 8);
        let mut m = m0.clone();
        let f = inject_fault(&mut m, Block::full(8, 8), ErrorPattern::OneD, &mut rng);
        assert!(f.elements >= 2);
        assert_eq!(count_diffs(&m0, &m), f.elements);
    }

    #[test]
    fn two_d_spans_multiple_rows_and_columns() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let m0 = random_matrix(&mut rng, 8, 8);
        let mut m = m0.clone();
        let f = inject_fault(&mut m, Block::full(8, 8), ErrorPattern::TwoD, &mut rng);
        assert!(f.elements >= 1);
        assert!(count_diffs(&m0, &m) >= 1);
    }

    #[test]
    fn injection_respects_block_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let m0 = random_matrix(&mut rng, 10, 10);
        let mut m = m0.clone();
        let block = Block::new(4, 4, 3, 3);
        for _ in 0..20 {
            inject_fault(&mut m, block, ErrorPattern::ZeroD, &mut rng);
        }
        // Nothing outside the block changed.
        for j in 0..10 {
            for i in 0..10 {
                let inside = (4..7).contains(&i) && (4..7).contains(&j);
                if !inside {
                    assert_eq!(m.get(i, j), m0.get(i, j));
                }
            }
        }
    }
}
