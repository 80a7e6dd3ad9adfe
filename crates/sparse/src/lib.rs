//! Pattern-grouped sparse convolution execution.
//!
//! The paper's inference speedups come from two properties of
//! semi-structured pruning (§II.B, §IV.C):
//!
//! 1. pruned weights need never be touched (compute scales with `k/9`),
//! 2. kernels sharing one of the ≤21 patterns can be *grouped*, so the
//!    inner loop runs a fixed, regular set of offsets — unlike
//!    unstructured sparsity, whose irregular gathers defeat caching.
//!
//! [`PatternCompressedConv`] stores a pruned layer grouped by pattern;
//! [`exec::conv2d_pattern_sparse`] executes it, and is the one conv
//! kernel a compiled [`ExecutionPlan`] runs. [`exec::conv2d_unstructured`]
//! executes the same weights from a per-weight COO layout — the
//! paper's unstructured comparison. Both walk a [`KernelPack`] through
//! the same register-tiled body, so on a CPU the COO path costs the
//! same as the pattern path at equal non-zeros (kernel_bench and fig6
//! measure this); the paper's equal-sparsity-is-not-equal-speed gap is
//! a GPU/edge-accelerator effect that this executor does not
//! reproduce.
//!
//! # Example
//!
//! ```
//! use rtoss_sparse::PatternCompressedConv;
//! use rtoss_tensor::{init, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 2-of-9 pruned weight compresses ~4x.
//! let mut w = init::uniform(&mut init::rng(1), &[8, 8, 3, 3], -1.0, 1.0);
//! let set = rtoss_core::pattern::canonical_set(2)?;
//! rtoss_core::prune3x3::prune_3x3_weights(&mut w, &set)?;
//! let pc = PatternCompressedConv::from_dense(&w, 1, 1)?;
//! assert!(pc.compression_ratio() > 2.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod format;
mod model;

pub mod exec;
pub mod pack;
pub mod plan;
pub mod runtime;

pub use format::{
    FormatViolation, PatternCompressedConv, PatternGroup, SparseFormatError, UnstructuredSparseConv,
};
pub use model::{SparseModel, SparseModelError};
pub use pack::{coo_from_pattern, KernelPack};
pub use plan::{ExecutionPlan, LevelDeal, LevelSchedule, PlanSummary, StepSummary};
pub use rtoss_tensor::exec::ExecConfig;
