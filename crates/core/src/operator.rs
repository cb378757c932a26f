//! The discretization traits LTS-Newmark is generic over.
//!
//! A discretization exposes `A = M⁻¹K` (so `ü = −A u + M⁻¹F`), applied
//! matrix-free by looping over elements. For LTS it must additionally apply
//! the *masked* product `A · P_k u` — the contribution of level-`k` DOFs
//! only — restricted to a caller-provided element list (Sec. II-C: the
//! work-saving core of a continuous-Galerkin LTS implementation).

/// Element → DOF connectivity of a discretization, used to build the
/// per-level DOF sets of [`crate::setup::LtsSetup`].
pub trait DofTopology {
    fn n_dofs(&self) -> usize;
    fn n_elems(&self) -> usize;
    /// Append the global DOF ids of element `e` to `out` (cleared first).
    fn elem_dofs(&self, e: u32, out: &mut Vec<u32>);
}

/// Reusable, operator-agnostic scratch storage owned by a stepper.
///
/// Operators stash whatever per-run state they need — element scratch
/// buffers, compiled gather lists, restricted colorings — keyed by type, so
/// the hot path never heap-allocates and the core crate never learns about
/// SEM internals. One `Workspace` belongs to one (operator, level
/// assignment) pair for the duration of a run; steppers own one and thread
/// it through every `apply_*_ws` call.
/// It may also carry a DOF order, fixed at construction (see the order
/// contract of [`Operator`]); a fresh workspace has none.
#[derive(Default)]
pub struct Workspace {
    slots: Vec<Box<dyn std::any::Any + Send>>,
    order: Option<Vec<u32>>,
}

impl Workspace {
    pub fn new() -> Self {
        Workspace::default()
    }

    /// A workspace whose products run in the numbering `pos[d]` of every
    /// caller DOF `d`.
    pub fn with_order(pos: Vec<u32>) -> Self {
        Workspace {
            slots: Vec::new(),
            order: Some(pos),
        }
    }

    /// The DOF order, if any: `pos[caller DOF] = internal DOF`.
    pub(crate) fn order(&self) -> Option<&[u32]> {
        self.order.as_deref()
    }

    /// Fetch the unique slot of type `T`, creating it with `init` on first
    /// use, along with the DOF order (which `init` is lent too). Lookup is a
    /// linear scan over a handful of slots.
    pub fn get_or_insert_with<T: std::any::Any + Send>(
        &mut self,
        init: impl FnOnce(Option<&[u32]>) -> T,
    ) -> (&mut T, Option<&[u32]>) {
        let pos = self
            .slots
            .iter()
            .position(|s| s.as_ref().type_id() == std::any::TypeId::of::<T>());
        let pos = match pos {
            Some(p) => p,
            None => {
                self.slots.push(Box::new(init(self.order.as_deref())));
                self.slots.len() - 1
            }
        };
        let slot = self.slots[pos].downcast_mut::<T>().expect("slot type");
        (slot, self.order.as_deref())
    }
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workspace")
            .field("slots", &self.slots.len())
            .field("ordered", &self.order.is_some())
            .finish()
    }
}

/// The spatial operator `A = M⁻¹ K`.
///
/// The workhorse entry points take a [`Workspace`] so implementations can
/// keep scratch and compiled gather lists across calls; the plain
/// `apply`/`apply_masked` wrappers spin up a throwaway workspace for
/// one-shot callers (reference solvers, tests).
///
/// **Order contract.** Through a workspace with an order `pos`, every
/// DOF-indexed slice a product receives — `u`, `out`, `dof_level` — is in
/// the internal numbering: caller DOF `d` sits at `pos[d]` (an order keeps
/// a node's components adjacent). Element ids and [`Operator::mass`] stay
/// in the caller's numbering. The product must equal the caller-numbered
/// product, permuted, bit for bit, and a masked product may be handed
/// prefixes of `u` and `out` that hold every DOF of its elements: the LTS
/// stepper numbers DOFs finest leaf level first and passes level `l` only
/// the DOFs it integrates.
pub trait Operator: Sync {
    fn ndof(&self) -> usize;

    /// `out = A u` over the whole mesh.
    fn apply_ws(&self, u: &[f64], out: &mut [f64], ws: &mut Workspace);

    /// `out += A (P u)` where `P` selects DOFs with `dof_level[i] == level`,
    /// assembled from the elements in `elems` only. The caller guarantees
    /// `elems` contains every element touching a level-`level` DOF, so the
    /// product is exact.
    fn apply_masked_ws(
        &self,
        u: &[f64],
        out: &mut [f64],
        elems: &[u32],
        dof_level: &[u8],
        level: u8,
        ws: &mut Workspace,
    );

    /// Threaded variant of [`Operator::apply_masked_ws`]. Implementations
    /// must be *bitwise identical* to the serial path at any thread count;
    /// the default simply runs serially.
    #[allow(clippy::too_many_arguments)]
    fn apply_masked_threads(
        &self,
        u: &[f64],
        out: &mut [f64],
        elems: &[u32],
        dof_level: &[u8],
        level: u8,
        ws: &mut Workspace,
        threads: usize,
    ) {
        let _ = threads;
        self.apply_masked_ws(u, out, elems, dof_level, level, ws);
    }

    /// Warm any per-(level, element-list) state a masked apply would build
    /// lazily — compiled gather lists, restricted colorings — so a
    /// comm/compute-overlapped stepper can take the compile cost *before*
    /// the timed loop instead of inside the first overlap window.
    /// Implementations for which [`Operator::apply_masked_ws`] is
    /// stateless keep the default no-op.
    fn precompile_masked(&self, elems: &[u32], dof_level: &[u8], level: u8, ws: &mut Workspace) {
        let _ = (elems, dof_level, level, ws);
    }

    /// One-shot `out = A u` with a throwaway workspace.
    fn apply(&self, u: &[f64], out: &mut [f64]) {
        let mut ws = Workspace::new();
        self.apply_ws(u, out, &mut ws);
    }

    /// One-shot masked product with a throwaway workspace.
    fn apply_masked(&self, u: &[f64], out: &mut [f64], elems: &[u32], dof_level: &[u8], level: u8) {
        let mut ws = Workspace::new();
        self.apply_masked_ws(u, out, elems, dof_level, level, &mut ws);
    }

    /// Diagonal mass matrix (used for energy accounting).
    fn mass(&self) -> &[f64];
}

/// A point source: external force `F(t) = amplitude(t)` at one DOF, entering
/// the momentum update as `M⁻¹F`.
pub struct Source {
    pub dof: u32,
    pub amplitude: Box<dyn Fn(f64) -> f64 + Sync>,
}

impl Source {
    pub(crate) fn new(dof: u32, amplitude: impl Fn(f64) -> f64 + Sync + 'static) -> Self {
        Source {
            dof,
            amplitude: Box::new(amplitude),
        }
    }

    /// A Ricker wavelet (second derivative of a Gaussian), the standard
    /// seismic source time function: peak frequency `f0`, delay `t0`.
    pub fn ricker(dof: u32, f0: f64, t0: f64, scale: f64) -> Self {
        Source::new(dof, move |t| {
            let a = std::f64::consts::PI * f0 * (t - t0);
            let a2 = a * a;
            scale * (1.0 - 2.0 * a2) * (-a2).exp()
        })
    }
}

impl std::fmt::Debug for Source {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Source").field("dof", &self.dof).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_slots_are_typed_and_persistent() {
        let mut ws = Workspace::new();
        let (v, order) = ws.get_or_insert_with(|_| vec![0.0f64; 4]);
        assert!(order.is_none());
        v[2] = 7.0;
        // same type → same slot, state survives
        assert_eq!(ws.get_or_insert_with(|_| Vec::<f64>::new()).0[2], 7.0);
        // different type → independent slot
        *ws.get_or_insert_with(|_| 0u64).0 += 3;
        assert_eq!(*ws.get_or_insert_with(|_| 100u64).0, 3);
        assert_eq!(ws.get_or_insert_with(|_| Vec::<f64>::new()).0.len(), 4);
        // an ordered workspace lends its order to `init` and every caller
        let mut ws = Workspace::with_order(vec![1, 0]);
        let (n, order) = ws.get_or_insert_with(|order| order.map_or(0, <[u32]>::len));
        assert_eq!((*n, order), (2, Some(&[1u32, 0][..])));
    }

    #[test]
    fn ricker_peaks_at_delay() {
        let s = Source::ricker(0, 10.0, 0.1, 2.0);
        let at_peak = (s.amplitude)(0.1);
        assert!((at_peak - 2.0).abs() < 1e-12);
        // symmetric and decaying
        assert!(((s.amplitude)(0.05) - (s.amplitude)(0.15)).abs() < 1e-12);
        assert!((s.amplitude)(1.0).abs() < 1e-8);
    }
}
