//! Hexahedral meshes for local-time-stepping (LTS) wave propagation.
//!
//! This crate provides the mesh substrate of the IPDPS'15 paper
//! *Load-Balanced Local Time Stepping for Large-Scale Wave Propagation*
//! (Rietmann, Peter, Schenk, Uçar, Grote):
//!
//! * [`HexMesh`] — structured hexahedral meshes with graded (squeezed)
//!   coordinate planes and per-element material, the mesh family SPECFEM3D
//!   Cartesian consumes;
//! * [`levels`] — CFL time-step bounds (Eq. 7) and the assignment of
//!   power-of-two p-levels (`Δt/2^k`, Sec. II-B) to elements, plus the
//!   LTS speed-up model (Eq. 9);
//! * [`dual`] — the element dual graph (face adjacency) used by graph
//!   partitioners (Sec. III-A1);
//! * [`hypergraph`] — the nodal hypergraph whose connectivity-1 cut size is
//!   exactly the MPI communication volume per LTS cycle (Sec. III-A2);
//! * [`benchmarks`] — scalable reproductions of the paper's *trench*,
//!   *embedding*, *crust* and *trench-big* benchmark meshes (Fig. 4/5);
//! * [`quad`] — small 2-D quadrilateral meshes used to reproduce the
//!   didactic Figs. 2 and 3.

#![forbid(unsafe_code)]

pub mod benchmarks;
pub mod dual;
pub mod grading;
pub mod hex;
pub mod hypergraph;
pub mod io;
pub mod levels;
pub mod quad;
pub mod random_media;

pub use benchmarks::{BenchmarkMesh, MeshKind};
pub use dual::DualGraph;
pub use hex::HexMesh;
pub use hypergraph::NodalHypergraph;
pub use levels::Levels;
