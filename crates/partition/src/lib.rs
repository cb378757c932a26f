//! Multilevel graph and hypergraph partitioning for LTS load balancing.
//!
//! This crate implements, from scratch, the four partitioning strategies
//! compared in Sec. III-B of the paper:
//!
//! * [`Strategy::ScotchBaseline`] — single-constraint graph partitioning with
//!   vertex weight `p_e` (work per LTS cycle). Balanced per cycle, unbalanced
//!   per level — the baseline that Fig. 1 shows stalling.
//! * [`Strategy::ScotchP`] — each p-level partitioned separately into K parts,
//!   then one part per level greedily mapped onto each processor
//!   (the paper's best performer).
//! * [`Strategy::MetisMc`] — multi-constraint graph partitioning: one balance
//!   constraint per level, `max(p_u, p_v)` edge weights.
//! * [`Strategy::Patoh`] — multi-constraint **hypergraph** partitioning whose
//!   connectivity-1 cut (Eq. 20) equals the exact MPI volume per LTS cycle,
//!   with the `final_imbal` balance/cut trade-off knob.
//!
//! One classical multilevel engine serves all four: heavy-edge (resp.
//! heavy-connectivity) matching coarsening, greedy growing initial
//! bisections, Fiduccia–Mattheyses boundary refinement with per-constraint
//! balance, recursive bisection for K parts ([`multilevel`], [`refine`]) and
//! greedy K-way refinement ([`kway`]). It is written once, generic over a
//! `multilevel::CutModel`; the `graph::Graph` (weighted edge cut) and
//! the `hgraph::HGraph` (connectivity-1 cut) each supply only their
//! gains, boundary test, neighbour walk, matching scores, contraction, cut
//! and induced sub-model.

#![forbid(unsafe_code)]
// Indexed `for i in 0..n` loops over parallel arrays are the house idiom in
// these numerical kernels: the index couples several same-length arrays and
// mirrors the subscripts in the paper's equations, which zip chains obscure.
#![allow(clippy::needless_range_loop)]
pub mod assignment;
pub mod graph;
pub mod hgraph;
pub mod kway;
pub mod metrics;
pub mod multilevel;
pub mod refine;
pub mod restricted;
pub mod scotch_p;
pub mod strategy;

pub use metrics::{edge_cut, load_imbalance, mpi_volume, PartitionShape};
pub use strategy::{partition_mesh, partition_mesh_observed, Strategy};
