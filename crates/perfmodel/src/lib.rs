//! Cluster performance modelling for partitioned LTS runs.
//!
//! The paper's scaling experiments (Figs. 9–13) ran on Piz Daint (8-core
//! Sandy Bridge nodes + K20X GPUs, Cray Aries network). This crate replaces
//! the machine with a first-order bulk-synchronous model that captures
//! exactly the effects those figures exhibit:
//!
//! * per-**level** synchronization: an LTS cycle pays
//!   `Σ_l 2^l · max_r(T_l(r))` — per-level *imbalance* is what stalls ranks
//!   (Fig. 1), not per-cycle imbalance;
//! * kernel-launch overhead per masked product — the GPU strong-scaling
//!   falloff when fine levels shrink (Fig. 9, bottom);
//! * a working-set cache effect — the super-linear CPU scaling of the
//!   reference code (Figs. 9–11), cross-validated by the trace-driven cache
//!   simulator in [`cache`] (Fig. 12).

#![forbid(unsafe_code)]
// Indexed `for i in 0..n` loops over parallel arrays are the house idiom in
// these numerical kernels: the index couples several same-length arrays and
// mirrors the subscripts in the paper's equations, which zip chains obscure.
#![allow(clippy::needless_range_loop)]
pub mod cache;
pub mod cluster;
