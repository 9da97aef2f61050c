//! # driver — the declarative scenario-sweep engine
//!
//! The paper's evaluation is a grid: workloads × rank counts × network
//! models × tile sizes. This crate turns every figure, ablation, and
//! future scenario into *data*:
//!
//! - [`ScenarioSpec`] names one point of the grid (workload by registry
//!   name, size class, np, [`ModelSpec`], tile size K, [`Variant`]);
//! - [`SweepGrid`] expands axes cartesian-product-style, with
//!   [`FilterSpec`] filters (plain data, so grids serialize), in a
//!   deterministic order;
//! - [`toml`] loads/writes grids as declarative `scenarios/*.toml` files
//!   (`overlap-grid/v1`, a dependency-free TOML subset) — new scenario
//!   families need a file edit, not a recompile;
//! - [`run_sweep`] executes scenarios on work-stealing workers scheduled
//!   onto the persistent `clustersim` rank pool, isolating per-scenario
//!   panics into error rows and returning records in grid order
//!   regardless of completion order;
//! - [`json`] reads/writes the dependency-free `overlap-sweep/v2`
//!   artifact (`BENCH_sweep.json`), including the optional host-timing
//!   section (reader also accepts v1);
//! - [`diff`](diff()) compares two artifacts and flags virtual-time
//!   regressions.
//!
//! The facade re-exports this crate as `overlap_suite::sweep`.
//!
//! ```
//! use driver::{run_sweep, ModelSpec, SizeClass, SweepGrid};
//!
//! let grid = SweepGrid::new()
//!     .workloads(["direct2d"])
//!     .size(SizeClass::Small)
//!     .nps([2])
//!     .models([ModelSpec::MpichGm]);
//! let result = run_sweep(&grid, 0); // 0 = one worker per core
//! assert_eq!(result.records.len(), 1);
//! assert!(result.records[0].speedup.unwrap() > 0.0);
//! let artifact = driver::json::to_json_string(&result.normalized());
//! let back = driver::json::from_json_string(&artifact).unwrap();
//! assert_eq!(back, result.normalized());
//! ```

pub mod analyze;
pub mod cache;
pub mod client;
pub mod diff;
pub mod event;
pub mod exec;
pub mod grid;
pub mod job;
pub mod json;
pub mod measure;
mod replay;
pub mod spec;
mod text;
pub mod toml;

pub use analyze::{analyze_registry, AnalyzeRow};
pub use cache::{scenario_input_hash, CacheStats, CompileCache};
pub use diff::{diff, DiffReport, DiffRow};
pub use event::{EventSink, MemorySink, NullSink, ProgressEvent};
pub use exec::{
    run_scenario, run_scenario_in, run_specs, run_specs_with, run_sweep,
    run_sweep_incremental, run_sweep_incremental_with, run_sweep_with, summarize,
    IncrementalOutcome, RunStatus, SweepRecord, SweepResult, SweepSummary, SweepTiming,
};
pub use grid::{FilterSpec, SweepGrid};
pub use job::{GridSource, JobCore, JobId, JobSpec, JobState, JobStatus, SubmitError};
pub use toml::{grid_from_toml, grid_to_toml};
pub use measure::{measure, measure_original, transform_workload, Measurement};
pub use spec::{ModelSpec, ScenarioSpec, SizeClass, Variant};
