//! # bsr-abft
//!
//! Algorithm-Based Fault Tolerance for the PPoPP'23 BSR/ABFT-OC reproduction.
//!
//! Overclocking the GPU under an optimized voltage guardband makes silent data
//! corruptions (SDCs) possible; the paper couples the overclocking with ABFT so the
//! corrupted results are detected and corrected on the fly. This crate provides:
//!
//! * [`checksum`] — single-side and full checksum encodings (Huang–Abraham style, with an
//!   unweighted and a weighted vector per direction), checksum *updates* through GEMM
//!   trailing updates, and verification/correction of 0D and 1D error patterns
//!   (paper Figure 6); every entry point also exists in a `_slices` form operating on
//!   per-column slices, so checksums can ride regions of a matrix a parallel task owns.
//!   Beyond the paper's two rungs, [`ChecksumScheme::Multi`] generalizes the pair into
//!   an order-`t` Vandermonde code (`2t` power-weighted vectors per direction) that
//!   locates and corrects up to `t` simultaneous errors per row/column via Prony
//!   decoding of the syndrome moments. Every scheme decodes through that one code
//!   (the paper's two are its order-1 member), and every block carries a guard hash
//!   of its check vectors, so a strike in the vectors themselves is reported, never
//!   "corrected" into the data;
//! * [`fused`] — [`FusedTileChecksums`], a `bsr-linalg` `TrailingHook` that fuses the
//!   per-tile checksum encode/verify workload into the tiled factorizations'
//!   trailing-update tasks, so checksum maintenance runs on the parallel schedule
//!   instead of as a serial epilogue (see the module docs for what this does and does
//!   not protect against);
//! * [`mixed`] — the mixed-precision *names* of those same hooks: `FusedTileChecksums`
//!   implements the hook for every element type, keeping the protection in f64 over
//!   f32 factorization tiles (promote → encode → verify/correct → demote) and catching
//!   both injected SDCs and f32 accumulation blowups;
//! * [`inject`] — fault injection with 0D/1D/2D patterns for the reliability experiments
//!   (paper Figure 9);
//! * [`recover`] — the escalation ladder for faults *beyond* in-place correction
//!   (bursts, checksum-vector and panel strikes): [`RecoveryTracker`] arbitrates
//!   tile/panel recomputation from write-once snapshots, iteration or run replay,
//!   and persistent-fault escalation under the bounded budgets of a
//!   [`RecoveryPolicy`], recording every decision as a [`RecoveryEvent`];
//! * [`coverage`] — Poisson fault-coverage estimation `FC_single` / `FC_full`
//!   (paper Table 1), plus the exact Poisson-thinning `fc_k` model pricing the
//!   order-`t` multi-check codes;
//! * [`adaptive`] — the adaptive ABFT-OC strategy (paper Algorithm 1) choosing the
//!   cheapest sufficient protection, or backing off the clock when none suffices;
//! * [`overhead`] — flop-count models of the checksum work, used by the analytic driver.

#![deny(missing_docs)]

pub mod adaptive;
pub mod checksum;
pub mod coverage;
pub mod fused;
pub mod inject;
pub mod mixed;
pub mod overhead;
pub mod recover;

pub use adaptive::{abft_oc, AbftDecision, AbftRequest};
pub use checksum::{ChecksumScheme, VerifyEvent, VerifyEventKind, VerifyOutcome};
pub use fused::{FaultTarget, FusedTileChecksums, PlannedFault};
pub use mixed::{MixedChecksums, MixedPerIterationChecksums};
pub use coverage::{fc_full, fc_k, fc_single, FULL_COVERAGE_THRESHOLD};
pub use recover::{FaultSite, RecoveryAction, RecoveryEvent, RecoveryPolicy, RecoveryTracker};
