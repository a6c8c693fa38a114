//! Figure/table regeneration harness for the IPCP reproduction.
//!
//! Every figure and table of the paper is a library function in
//! [`figures`]; this library also provides the named prefetcher
//! [`combos`], the shared [`runner`] machinery (scales, the [`Experiment`]
//! builder, speedup tables), the process-wide point [`pool`] every
//! simulation runs on, the sweep [`harness`] (one thread per figure, JSON
//! result manifests), the typed [`env`] knobs, and the on-disk
//! [`simcache`]. The `experiments` tool in `crates/tools` drives it.
//!
//! [`Experiment`]: runner::Experiment

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combos;
pub mod env;
pub mod figures;
pub mod harness;
pub mod pool;
pub mod runner;
pub mod simcache;
pub mod store;
