//! Static invariant checking for R-TOSS artifacts.
//!
//! The runtime crates compute; this crate *proves*. Before a pruned
//! model or compiled sparse engine is benchmarked or served, the
//! passes here check that it actually satisfies the invariants the
//! paper's algorithms promise — pattern legality (Algorithm 2), group
//! consistency (Algorithm 1), 1×1 round-trip residue (Algorithm 3),
//! sparse-format well-formedness, tile-partition soundness, and
//! histogram bucket geometry — and a source lint keeps panic-capable
//! calls out of the serving/execution hot paths.
//!
//! Run the full pass over the seed models:
//!
//! ```text
//! cargo run -p rtoss-verify --bin verify
//! cargo run -p rtoss-verify --bin verify -- --fixture mask   # must fail
//! cargo run -p rtoss-verify --bin lint
//! ```
//!
//! # Registry
//!
//! | Code  | Family | Invariant |
//! |-------|--------|-----------|
//! | RV001 | model  | pattern entry count in 2..=5, uniform per layer |
//! | RV002 | model  | pattern is 4-adjacent connected |
//! | RV003 | model  | DFS groups partition the conv layers exactly |
//! | RV004 | model  | child pattern set ⊆ parent pattern set |
//! | RV005 | model  | 1×1 tail (`numel % 9`) fully pruned |
//! | RV006 | model  | whole-graph shape inference succeeds |
//! | RV007 | model  | mask shape matches weight; no weight survives a zero mask |
//! | RV010 | sparse | pattern offsets sorted, in-bounds, distinct per layer |
//! | RV011 | sparse | kernel coordinates in-bounds, unique, value counts match |
//! | RV012 | sparse | nnz bookkeeping consistent; no explicit zeros stored |
//! | RV013 | sparse | COO entries sorted, in-bounds, non-zero |
//! | RV014 | sparse | dense reconstruction matches the nnz bookkeeping |
//! | RV020 | exec   | tile buckets partition the tile range |
//! | RV021 | exec   | histogram boundaries strictly increasing, half-open |
//! | RV030 | lint   | no panic-capable call in a hot path |
//! | RV031 | lint   | every `unsafe` carries a `// SAFETY:` comment |
//! | RV040 | trace  | sync spans properly nested per thread; trace JSON well-formed |
//! | RV041 | trace  | per-thread events ordered by non-decreasing end timestamp |
//! | RV042 | trace  | every `execute` span contains ≥ 1 `layer:*` child span |
//! | RV043 | trace  | Prometheus exposition parses; histograms cumulative, `+Inf`-terminated |
//! | RV044 | trace  | exposition bucket counts round-trip against the metrics snapshot |
//! | RV050 | plan   | schedule topological; liveness forward; outputs retained |
//! | RV051 | plan   | arena slot lifetimes disjoint; capacities cover tenants; byte accounting consistent |
//! | RV052 | plan   | planned (fused, arena) forward bit-identical to the interpreter, serial and level-parallel |
//! | RV054 | plan   | levelled schedule respects data deps; arena slots disjoint across concurrently-live steps |
//! | RV070 | conc   | happens-before race freedom: operand edges match the model's data deps, and every conflicting arena-slot access pair is HB-ordered across the executed caller/worker lanes (pairwise + shadow replay) |
//! | RV071 | conc   | lock acquisition order consistent across all sites of a crate (no cycle in the lock-order graph) |
//! | RV072 | conc   | no `Ordering::Relaxed` on publishing atomic writes (`store`/`swap`/`compare_exchange*`); counters waivable via `// ORDERING:` |
//! | RV073 | conc   | no lock guard held across `pool.submit(…)` / `pool.help()` / `batch.wait()` |
//! | RV060 | fleet  | routing ring covers every replica; points sorted; routing deterministic |
//! | RV061 | fleet  | degradation controller band well-formed; tier monotone in sustained pressure; recovers to dense |
//! | RV062 | fleet  | tenant ledger conserved: offered == admitted + throttled + shed; routing covers admitted |
//! | RV063 | fleet  | replica tier state in range; mAP ordered densest-first; terminal counters partition submissions |
//! | RV080 | telem  | series windows strictly ascending, aligned to the window width, bounded by the ring length |
//! | RV081 | telem  | admission windows conserved (`offered == admitted + throttled + shed`) per window, per lane, and against the fleet ledger |
//! | RV082 | telem  | burn-rate policies valid; alert log time-ordered, firing/resolved alternating, transitions respect the hysteresis band |
//! | RV083 | telem  | flight dump well-formed: parses, bounded by capacity, entries sorted, `[first, last]` window covers the trigger |
//! | RV090 | kernel | kernel-major packs (`KernelPack`, pattern and COO builders) reconstruct the layer's dense weights bitwise |
//! | RV092 | kernel | tiled pattern, COO, and dense executors bit-identical to the scalar reference on every conv layer |
//!
//! Severity is always `Error` for registry violations; artifacts with
//! errors must not be executed. See DESIGN.md §9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diag;

pub mod concurrency;
pub mod exec;
pub mod fixtures;
pub mod fleet;
pub mod kernels;
pub mod lexer;
pub mod lint;
pub mod model;
pub mod plan;
pub mod sparse;
pub mod telemetry;
pub mod trace;

pub use concurrency::{check_plan_hb, shadow_replay, ModelDeps};
pub use diag::{Diagnostic, Report, Severity};
pub use exec::{check_histogram_buckets, check_tile_partition};
pub use fleet::{check_fleet_ledger, check_fleet_replicas, check_hash_ring, check_tier_controller};
pub use kernels::{
    check_layer_format_equivalence, check_model_kernels, check_model_packs, check_pack,
};
pub use lint::{lint_paths, lint_source};
pub use model::check_model;
pub use plan::{
    check_execution_plan, check_outputs_bit_identical, check_plan_arena, check_plan_levels,
    check_plan_schedule,
};
pub use sparse::{check_pattern_layer, check_sparse_model, check_unstructured_layer};
pub use telemetry::{
    check_alert_log, check_flight_dump, check_telemetry_conservation, check_telemetry_windows,
};
pub use trace::{check_prometheus, check_prometheus_snapshot, check_trace, check_trace_json};
