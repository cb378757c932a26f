//! # wave-lts
//!
//! A reproduction of *Load-Balanced Local Time Stepping for Large-Scale Wave
//! Propagation* (Rietmann, Peter, Schenk, Uçar, Grote — IPDPS 2015).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`mesh`] — hexahedral meshes, CFL p-levels, dual graph, nodal hypergraph,
//!   and the paper's benchmark meshes (trench / embedding / crust / trench-big);
//! * [`sem`] — spectral-element discretization of the acoustic and elastic
//!   wave equations (GLL basis, diagonal mass matrix, matrix-free stiffness);
//! * [`lts`] — explicit Newmark and the multi-level LTS-Newmark scheme;
//! * [`partition`] — multilevel graph and hypergraph partitioners with
//!   multi-constraint (per-level) load balancing, plus SCOTCH-P;
//! * [`runtime`] — threaded message-passing execution of partitioned LTS with
//!   halo exchange and per-rank stall accounting;
//! * [`perfmodel`] — the cluster performance model (CPU/GPU) and the cache
//!   simulator used by the scaling figures;
//! * [`obs`] — the observability layer: typed metrics registry, scoped spans,
//!   and the JSON/CSV exporters the runtime and partitioners record into.
//!
//! ## Quickstart
//!
//! ```
//! use wave_lts::mesh::{BenchmarkMesh, MeshKind};
//!
//! let bench = BenchmarkMesh::build(MeshKind::Trench, 2_000);
//! let model = bench.levels.speedup_model();
//! assert!(model.speedup() > 1.0);
//! ```

#![forbid(unsafe_code)]

pub use lts_core as lts;
pub use lts_mesh as mesh;
pub use lts_obs as obs;
pub use lts_partition as partition;
pub use lts_perfmodel as perfmodel;
pub use lts_runtime as runtime;
pub use lts_sem as sem;
