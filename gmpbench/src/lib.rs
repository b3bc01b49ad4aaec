//! The GMP reproduction's benchmark: three seed-generated workloads run
//! through the libraries' public APIs, end-to-end metrics from untraced
//! runs, and per-layer metrics plus a span file from traced runs.
//!
//! See `README.md` in this directory for how to run it and what each
//! metric means.

pub mod metrics;
pub mod report;
pub mod run;
pub mod trace;
pub mod workloads;
