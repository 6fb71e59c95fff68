//! # bsr-linalg
//!
//! Pure-Rust dense linear algebra substrate for the PPoPP'23 BSR/ABFT-OC reproduction.
//!
//! The paper's factorizations are the MAGMA hybrid blocked one-sided decompositions
//! (Cholesky, LU with partial pivoting, Householder QR). This crate reimplements that
//! algorithmic structure from scratch:
//!
//! * [`matrix`] — column-major dense matrices and block addressing,
//! * [`blas1`] / [`blas3`] — the kernels the factorizations are built from (GEMM, TRSM,
//!   SYRK), backed by a packed, cache-blocked micro-kernel core (an `MR × 8` register
//!   tile, paired into 16×8 / 32×8 on AVX-512F, AVX2+FMA halves otherwise) and
//!   rayon-parallel over column strips of the output,
//! * [`cholesky`], [`lu`], [`qr`] — blocked right-looking factorizations whose
//!   per-iteration steps (panel decomposition, panel update, trailing matrix update) are
//!   individually exposed so the heterogeneous driver in `bsr-core` can schedule them on
//!   the simulated CPU/GPU, inject faults and maintain ABFT checksums between steps —
//!   plus one task graph per factorization that runs the same math as per-tile-column
//!   tasks with per-tile dependency counters on the persistent rayon pool,
//!   bit-identically to the synchronous paths at any thread count. It runs one
//!   iteration at a time (`LuTiledStepper` / `CholeskyTiledStepper` /
//!   `QrTiledStepper`) or all iterations at once with depth-unbounded lookahead
//!   (`lu_dag` / `cholesky_dag` / `qr_dag`). The LU and Cholesky graphs (and the tile
//!   tasks and panel kernels beneath them) are generic over [`Element`]: the element
//!   type is all that separates an f64 run from the mixed-precision path's f32 run,
//! * [`task`] — the tile-column task machinery beneath the task graphs and the
//!   [`task::TrailingHook`] fusion point (one trait, `TrailingHook<E>`) ABFT checksum
//!   maintenance rides on,
//! * [`dag`] — the dependency-counter runtime beneath the task graphs, including the
//!   seeded adversarial replay executor the schedule-fuzzing suite pins determinism
//!   with,
//! * [`elem`] — the [`Element`] abstraction the packed kernel core is generic over
//!   (`f64` and `f32`, each with its own AVX2/AVX-512 micro-kernels and fused
//!   write-back; the f32 tile packs twice the rows per vector register),
//! * [`tune`] — the compiled cache-blocking parameters (`NC`, `KC`, `MC`) and
//!   pool-dispatch crossover of each element type,
//! * [`lowprec`] — the `f32` names of the generic DAG drivers (no code of its own),
//! * [`solve`] — triangular-solve front-ends (`lu_solve` / `cholesky_solve`) shared by
//!   the f64 and mixed-precision drivers,
//! * [`generate`] — reproducible random inputs,
//! * [`verify`] — the structure-exploiting residual checks every numeric job ends with.
//!
//! Paper-scale runs (n = 30720) still use the analytic performance model in `bsr-core`,
//! but the numeric-mode experiments run on these real kernels — their throughput is
//! tracked by the repo benchmark's per-layer metrics (`benchmark/`).

#![deny(missing_docs)]

pub mod blas1;
pub mod blas3;
pub mod cholesky;
pub mod dag;
pub mod elem;
pub mod generate;
mod kernel;
pub mod lowprec;
pub mod lu;
pub mod matrix;
pub mod qr;
pub mod solve;
mod subst;
pub mod task;
pub mod tune;
pub mod verify;

pub use blas3::{Diag, Side, Trans, UpLo};
pub use elem::Element;
pub use matrix::{Block, Matrix};
pub use task::TrailingHook;
pub use tune::KernelParams;
