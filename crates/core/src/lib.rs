//! LTS-Newmark time stepping (Sec. II of the paper).
//!
//! The crate is generic over a spatial discretization through the
//! [`Operator`]/[`DofTopology`] traits (`A = M⁻¹K` applied matrix-free,
//! element-locally). It provides:
//!
//! * [`newmark`] — the classic explicit Newmark / leap-frog scheme (Eq. 5–6),
//!   the non-LTS reference that must step at `Δt / p_max`;
//! * [`setup`] — the level structure of the LTS scheme: DOF levels (`P_k`
//!   selections), leaf levels (with the "gray node" halos), masked element
//!   lists, and the level-grouped DOF order;
//! * [`lts`] — the one LTS-Newmark recursion (Algorithm 1 generalised
//!   recursively, sub-step ratio 2 per level, or any ratio `p` on two
//!   levels as in Sec. II-A), performing only the masked work a
//!   high-performance implementation does;
//! * [`reference`](crate::reference) — a literal, full-vector transcription of the scheme used
//!   to validate the masked implementation to round-off;
//! * [`chain1d`] — a 1-D wave chain discretization (the setting of Fig. 1)
//!   implementing the traits, used by tests, examples and benches;
//! * [`energy`] — the conserved discrete energy of the leap-frog scheme.

#![forbid(unsafe_code)]

pub mod chain1d;
pub mod energy;
pub mod lts;
pub mod newmark;
pub mod operator;
pub mod reference;
pub mod setup;
pub mod spectral;

pub use chain1d::Chain1d;
pub use lts::{LevelForce, LevelSets, LevelState, LtsNewmark};
pub use newmark::Newmark;
pub use operator::{DofTopology, Operator, Source, Workspace};
pub use setup::LtsSetup;
