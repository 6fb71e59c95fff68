//! Column-major dense matrix storage.
//!
//! The factorizations in this crate mirror the blocked, panel-oriented structure of the
//! MAGMA hybrid algorithms the paper builds on: a matrix is logically divided into
//! `b × b` blocks forming panels and a trailing matrix (paper Figure 1a). [`Matrix`] is a
//! plain column-major container, generic over the element type ([`Element`]; `f64` by
//! default, `f32` for the mixed-precision factorization path); [`Block`] identifies a
//! rectangular sub-region that the BLAS-3 kernels operate on in place.

use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;

use crate::elem::Element;

/// A rectangular region of a matrix: rows `[row, row+rows)` × columns `[col, col+cols)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// First row of the region.
    pub row: usize,
    /// First column of the region.
    pub col: usize,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Block {
    /// Construct a block.
    pub fn new(row: usize, col: usize, rows: usize, cols: usize) -> Self {
        Self { row, col, rows, cols }
    }

    /// The block covering an entire `rows × cols` matrix.
    pub fn full(rows: usize, cols: usize) -> Self {
        Self { row: 0, col: 0, rows, cols }
    }

    /// True when the block contains no elements.
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Number of elements covered.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }
}

/// Column-major dense matrix. `E` defaults to `f64`, so `Matrix` in type position keeps
/// meaning the double-precision matrix everywhere; the mixed-precision path works on
/// `Matrix<f32>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<E: Element = f64> {
    rows: usize,
    cols: usize,
    data: Vec<E>,
}

impl<E: Element> Matrix<E> {
    /// Zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![E::ZERO; rows * cols] }
    }

    /// Wrap an existing column-major buffer (`data[j * rows + i]` is element `(i, j)`).
    /// Lets hot paths assemble a matrix in one write pass instead of zero-filling
    /// first; panics when the buffer length does not match the shape.
    pub fn from_column_major(rows: usize, cols: usize, data: Vec<E>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_column_major: length mismatch");
        Self { rows, cols, data }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, E::ONE);
        }
        m
    }

    /// Build a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> E) -> Self {
        let mut m = Self::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Build from a row-major nested slice (convenient in tests).
    pub fn from_rows(rows: &[&[E]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Self::from_fn(r, c, |i, j| rows[i][j])
    }

    /// Element-wise conversion to another element type (`f64::from_f64 ∘ to_f64`, so
    /// `f32 → f64` is exact promotion and `f64 → f32` rounds to nearest).
    pub fn convert<F: Element>(&self) -> Matrix<F> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| F::from_f64(x.to_f64())).collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True for a square matrix.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Read element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> E {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i]
    }

    /// Write element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: E) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i] = v;
    }

    /// Add `v` to element `(i, j)`.
    #[inline]
    pub fn add_assign(&mut self, i: usize, j: usize, v: E) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i] += v;
    }

    /// Borrow column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[E] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutably borrow column `j` as a slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [E] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Borrow rows `[row0, row1)` of column `j` as a slice.
    #[inline]
    pub fn col_range(&self, j: usize, row0: usize, row1: usize) -> &[E] {
        debug_assert!(j < self.cols && row0 <= row1 && row1 <= self.rows);
        &self.data[j * self.rows + row0..j * self.rows + row1]
    }

    /// Mutably borrow rows `[row0, row1)` of column `j` as a slice.
    #[inline]
    pub fn col_range_mut(&mut self, j: usize, row0: usize, row1: usize) -> &mut [E] {
        debug_assert!(j < self.cols && row0 <= row1 && row1 <= self.rows);
        &mut self.data[j * self.rows + row0..j * self.rows + row1]
    }

    /// Borrow two distinct columns at once, the earlier one read-only and the later one
    /// mutably: `(col jr, col jw)` with `jr < jw`. This is the aliasing split the panel
    /// factorizations need for vectorized rank-1 / reflector updates (read the pivot or
    /// reflector column while updating a column to its right).
    #[inline]
    pub fn col_pair_mut(&mut self, jr: usize, jw: usize) -> (&[E], &mut [E]) {
        assert!(jr < jw && jw < self.cols, "col_pair_mut: need jr < jw < cols");
        let nrows = self.rows;
        let (left, right) = self.data.split_at_mut(jw * nrows);
        (&left[jr * nrows..(jr + 1) * nrows], &mut right[..nrows])
    }

    /// The raw column-major data.
    pub fn data(&self) -> &[E] {
        &self.data
    }

    /// Mutable access to the raw column-major data.
    pub fn data_mut(&mut self) -> &mut [E] {
        &mut self.data
    }

    /// Iterator of `(column_index, &mut [E])` over the row range `rows` of each column
    /// in `cols`. Columns are disjoint slices of the underlying storage, so this is the
    /// safe building block the rayon-parallel kernels partition work over.
    pub fn cols_range_mut(
        &mut self,
        block: Block,
    ) -> impl Iterator<Item = (usize, &mut [E])> + '_ {
        let nrows = self.rows;
        let row0 = block.row;
        let row1 = block.row + block.rows;
        debug_assert!(row1 <= nrows && block.col + block.cols <= self.cols);
        self.data
            .chunks_exact_mut(nrows.max(1))
            .enumerate()
            .skip(block.col)
            .take(block.cols)
            .map(move |(j, col)| (j, &mut col[row0..row1]))
    }

    /// All columns as independent mutable slices (column-major storage makes every
    /// column a disjoint borrow). The task-parallel factorization drivers partition
    /// these into per-tile column groups, so task disjointness is enforced by the
    /// borrow checker instead of runtime assertions.
    pub fn columns_mut(&mut self) -> Vec<&mut [E]> {
        if self.rows == 0 {
            return Vec::new();
        }
        self.data.chunks_exact_mut(self.rows).collect()
    }

    /// Copy a block out into a new dense matrix.
    pub fn copy_block(&self, block: Block) -> Matrix<E> {
        assert!(block.row + block.rows <= self.rows && block.col + block.cols <= self.cols,
            "copy_block: block out of bounds");
        let mut out = Matrix::zeros(block.rows, block.cols);
        for j in 0..block.cols {
            let src = self.col_range(block.col + j, block.row, block.row + block.rows);
            out.col_mut(j).copy_from_slice(src);
        }
        out
    }

    /// Write a dense matrix into a block of `self`.
    pub fn set_block(&mut self, block: Block, src: &Matrix<E>) {
        assert_eq!(block.rows, src.rows(), "set_block: row mismatch");
        assert_eq!(block.cols, src.cols(), "set_block: col mismatch");
        assert!(block.row + block.rows <= self.rows && block.col + block.cols <= self.cols,
            "set_block: block out of bounds");
        for j in 0..block.cols {
            self.col_range_mut(block.col + j, block.row, block.row + block.rows)
                .copy_from_slice(src.col(j));
        }
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix<E> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Swap rows `r1` and `r2` across columns `[col_start, col_end)`.
    ///
    /// O(1) work per column: one in-slice swap on each column's backing storage, no
    /// element addressing arithmetic in the loop body.
    pub fn swap_rows(&mut self, r1: usize, r2: usize, col_start: usize, col_end: usize) {
        if r1 == r2 {
            return;
        }
        debug_assert!(r1 < self.rows && r2 < self.rows && col_end <= self.cols);
        let nrows = self.rows;
        for col in self.data[col_start * nrows..col_end * nrows].chunks_exact_mut(nrows) {
            col.swap(r1, r2);
        }
    }

    /// Apply a batch of row interchanges (LAPACK `dlaswp`): for each `k`, swap row
    /// `row0 + k` with row `swaps[k]`, across columns `[col_start, col_end)`.
    ///
    /// All swaps are applied to one column while its backing slice is cache-resident
    /// before moving to the next, so a batch of `k` swaps costs one pass over the
    /// columns instead of `k` strided row sweeps.
    pub fn apply_row_swaps(&mut self, row0: usize, swaps: &[usize], col_start: usize, col_end: usize) {
        debug_assert!(row0 + swaps.len() <= self.rows && col_end <= self.cols);
        if swaps.iter().enumerate().all(|(k, &piv)| piv == row0 + k) {
            return;
        }
        let nrows = self.rows;
        for col in self.data[col_start * nrows..col_end * nrows].chunks_exact_mut(nrows) {
            for (k, &piv) in swaps.iter().enumerate() {
                if piv != row0 + k {
                    col.swap(row0 + k, piv);
                }
            }
        }
    }

    /// Frobenius norm, accumulated in `f64` regardless of the element type.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x.to_f64() * x.to_f64()).sum::<f64>().sqrt()
    }

    /// Maximum absolute element, as `f64`.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.to_f64().abs()))
    }

    /// Elementwise difference `self - other` (panics on shape mismatch).
    pub fn sub(&self, other: &Matrix<E>) -> Matrix<E> {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        let mut out = self.clone();
        for (o, b) in out.data.iter_mut().zip(other.data.iter()) {
            *o -= *b;
        }
        out
    }

    /// True when all elements differ by less than `tol` from `other`.
    pub fn approx_eq(&self, other: &Matrix<E>, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a.to_f64() - b.to_f64()).abs() <= tol)
    }

    /// Lower-triangular copy (strictly upper part zeroed, diagonal kept).
    pub fn lower_triangular(&self) -> Matrix<E> {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for j in 0..self.cols.min(self.rows) {
            out.col_range_mut(j, j, self.rows).copy_from_slice(self.col_range(j, j, self.rows));
        }
        out
    }

    /// Upper-triangular copy (strictly lower part zeroed, diagonal kept).
    pub fn upper_triangular(&self) -> Matrix<E> {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            let end = (j + 1).min(self.rows);
            out.col_range_mut(j, 0, end).copy_from_slice(self.col_range(j, 0, end));
        }
        out
    }

    /// Unit-lower-triangular copy (ones on the diagonal, upper part zeroed).
    pub fn unit_lower_triangular(&self) -> Matrix<E> {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for j in 0..self.cols.min(self.rows) {
            let col = out.col_range_mut(j, j, self.rows);
            col[0] = E::ONE;
            col[1..].copy_from_slice(self.col_range(j, j + 1, self.rows));
        }
        out
    }
}

impl Matrix<f64> {
    /// Rounding demotion to single precision (the entry into the mixed-precision
    /// factorization path).
    pub fn demote(&self) -> Matrix<f32> {
        self.convert()
    }
}

impl Matrix<f32> {
    /// Exact promotion to double precision (where the f64 ABFT checksum and iterative
    /// refinement layers operate).
    pub fn promote(&self) -> Matrix<f64> {
        self.convert()
    }
}

// The vendored serde derive does not support generic types, so Matrix implements the
// data-model conversion by hand, mirroring exactly what the derive produces for the
// f64 struct: a map of {rows, cols, data} with the elements as F64 values.
impl<E: Element> Serialize for Matrix<E> {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("rows".to_string(), Value::U64(self.rows as u64)),
            ("cols".to_string(), Value::U64(self.cols as u64)),
            (
                "data".to_string(),
                Value::Seq(self.data.iter().map(|x| Value::F64(x.to_f64())).collect()),
            ),
        ])
    }
}

impl<E: Element> Deserialize for Matrix<E> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let rows = usize::from_value(v.field("rows")?)?;
        let cols = usize::from_value(v.field("cols")?)?;
        let data = match v.field("data")? {
            Value::Seq(items) => items
                .iter()
                .map(|item| f64::from_value(item).map(E::from_f64))
                .collect::<Result<Vec<E>, Error>>()?,
            other => {
                return Err(Error::custom(format!(
                    "expected sequence for matrix data, found {}",
                    other.kind()
                )))
            }
        };
        if data.len() != rows * cols {
            return Err(Error::custom(format!(
                "matrix data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }
}

impl<E: Element> fmt::Display for Matrix<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows.min(8) {
            for j in 0..self.cols.min(8) {
                write!(f, "{:>12.4e} ", self.get(i, j).to_f64())?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z: Matrix = Matrix::zeros(3, 2);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 2);
        assert_eq!(z.frobenius_norm(), 0.0);
        let i: Matrix = Matrix::identity(3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert!(i.is_square());
    }

    #[test]
    fn get_set_column_major_layout() {
        let mut m: Matrix = Matrix::zeros(2, 3);
        m.set(1, 2, 7.0);
        assert_eq!(m.get(1, 2), 7.0);
        // column-major: element (1,2) is the last element of the data vector
        assert_eq!(m.data()[5], 7.0);
        assert_eq!(m.col(2), &[0.0, 7.0]);
    }

    #[test]
    fn block_copy_roundtrip() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 10 + j) as f64);
        let b = Block::new(1, 2, 2, 2);
        let sub = m.copy_block(b);
        assert_eq!(sub.get(0, 0), 12.0);
        assert_eq!(sub.get(1, 1), 23.0);
        let mut m2 = Matrix::zeros(4, 4);
        m2.set_block(b, &sub);
        assert_eq!(m2.get(1, 2), 12.0);
        assert_eq!(m2.get(2, 3), 23.0);
        assert_eq!(m2.get(0, 0), 0.0);
    }

    #[test]
    fn transpose_and_triangles() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let t = m.transposed();
        assert_eq!(t.get(0, 1), 3.0);
        let l = m.lower_triangular();
        assert_eq!(l.get(0, 1), 0.0);
        assert_eq!(l.get(1, 0), 3.0);
        let u = m.upper_triangular();
        assert_eq!(u.get(1, 0), 0.0);
        let ul = m.unit_lower_triangular();
        assert_eq!(ul.get(0, 0), 1.0);
        assert_eq!(ul.get(1, 1), 1.0);
        assert_eq!(ul.get(1, 0), 3.0);
    }

    #[test]
    fn triangles_of_rectangular_and_empty_shapes() {
        for (rows, cols) in [(0, 0), (1, 1), (5, 3), (3, 5), (4, 0)] {
            let m = Matrix::from_fn(rows, cols, |i, j| (1 + i * 10 + j) as f64);
            let pick = |keep: fn(usize, usize) -> bool, diag: Option<f64>| {
                Matrix::from_fn(rows, cols, |i, j| match diag {
                    Some(d) if i == j => d,
                    _ if keep(i, j) => m.get(i, j),
                    _ => 0.0,
                })
            };
            assert_eq!(m.lower_triangular(), pick(|i, j| i >= j, None), "{rows}x{cols}");
            assert_eq!(m.upper_triangular(), pick(|i, j| i <= j, None), "{rows}x{cols}");
            assert_eq!(m.unit_lower_triangular(), pick(|i, j| i > j, Some(1.0)), "{rows}x{cols}");
        }
    }

    #[test]
    fn swap_rows_partial_columns() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        m.swap_rows(0, 1, 1, 3);
        assert_eq!(m.get(0, 0), 1.0); // column 0 untouched
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(1, 2), 3.0);
    }

    #[test]
    fn norms_and_diff() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
        let b: Matrix = Matrix::identity(2);
        let d = a.sub(&b);
        assert_eq!(d.get(0, 0), 2.0);
        assert!(a.approx_eq(&a, 0.0));
        assert!(!a.approx_eq(&b, 0.5));
    }

    #[test]
    fn cols_range_mut_yields_disjoint_column_slices() {
        let mut m = Matrix::from_fn(4, 4, |i, j| (i + 10 * j) as f64);
        let block = Block::new(1, 1, 2, 3);
        let collected: Vec<(usize, Vec<f64>)> = m
            .cols_range_mut(block)
            .map(|(j, s)| (j, s.to_vec()))
            .collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[0].0, 1);
        assert_eq!(collected[0].1, vec![11.0, 12.0]);
        assert_eq!(collected[2].1, vec![31.0, 32.0]);
        // Mutation through the iterator is visible afterwards.
        for (_, s) in m.cols_range_mut(block) {
            for x in s {
                *x = 0.0;
            }
        }
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(0, 1), 10.0, "row outside block untouched");
    }

    #[test]
    #[should_panic]
    fn copy_block_out_of_bounds_panics() {
        let m: Matrix = Matrix::zeros(2, 2);
        let _ = m.copy_block(Block::new(1, 1, 2, 2));
    }

    #[test]
    fn promote_demote_roundtrip_and_serde() {
        let m = Matrix::from_fn(3, 2, |i, j| (i as f64 + 0.25) * (j as f64 + 1.0));
        let f = m.demote();
        assert_eq!(f.get(2, 1), 4.5f32);
        let back = f.promote();
        assert!(back.approx_eq(&m, 1e-6));

        let f32_mat: Matrix<f32> = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f32);
        let value = f32_mat.to_value();
        let round: Matrix<f32> = Matrix::from_value(&value).unwrap();
        assert_eq!(round, f32_mat);
        let as_f64: Matrix<f64> = Matrix::from_value(&value).unwrap();
        assert_eq!(as_f64.get(1, 1), 3.0);
    }
}
