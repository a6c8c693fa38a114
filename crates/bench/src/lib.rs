//! Figure/table regeneration harness for the IPCP reproduction.
//!
//! One binary per figure and table of the paper (see `src/bin/`); this
//! library provides the named prefetcher [`combos`], the shared [`runner`]
//! machinery (scales, baselines, speedup tables), the parallel [`harness`]
//! (worker pool, alone-IPC cache, JSON result manifests), the typed
//! [`env`] knobs, the on-disk [`simcache`], and [`jobspec`], which runs
//! one figure binary as a child process for the `experiments` tool in
//! `crates/tools`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combos;
pub mod env;
pub mod harness;
pub mod jobspec;
pub mod runner;
pub mod simcache;
pub mod store;
