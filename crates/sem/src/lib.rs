//! Spectral-element discretization of the acoustic and elastic wave
//! equations on hexahedral meshes (Sec. I-B of the paper).
//!
//! The SEM is a continuous Galerkin method with nodal Lagrange bases at
//! Gauss–Legendre–Lobatto (GLL) points; GLL quadrature makes the mass matrix
//! diagonal (Eq. 3–4), which is what lets explicit Newmark — and LTS-Newmark —
//! run matrix-free. SPECFEM3D's default is order 4 (125 nodes per element),
//! which is also the default here.
//!
//! * [`gll`] — GLL points, weights and the Lagrange derivative matrix;
//! * [`dofmap`] — global GLL node numbering on structured hex meshes;
//! * [`acoustic`] — scalar wave operator `A = M⁻¹K` implementing the
//!   [`lts_core::Operator`]/[`lts_core::DofTopology`] traits;
//! * [`elastic`] — the 3-component isotropic elastic operator (Eqs. 1–2);
//! * [`boundary`] — sponge-taper absorbing boundaries.

// Indexed `for i in 0..n` loops over parallel arrays are the house idiom in
// these numerical kernels: the index couples several same-length arrays and
// mirrors the subscripts in the paper's equations, which zip chains obscure.
#![allow(clippy::needless_range_loop)]
pub mod acoustic;
pub mod boundary;
pub(crate) mod compiled;
pub(crate) mod disjoint;
pub mod dofmap;
pub mod elastic;
pub mod gll;
pub mod kernel;
pub mod parallel;
pub mod record;
pub mod simd;
pub mod unstructured;
pub mod verify;

pub use acoustic::AcousticOperator;
pub use boundary::Sponge;
pub use dofmap::DofMap;
pub use elastic::ElasticOperator;
pub use gll::GllBasis;
pub use parallel::ElementColoring;
pub use unstructured::{UnstructuredAcoustic, UnstructuredElastic};
