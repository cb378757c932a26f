//! Level-compiled gather lists: the element list of a masked product, baked
//! once per `(level, element list)` into flat index tables, ordered
//! colour-major by a greedy conflict-free colouring.
//!
//! The level mask itself is never stored. A masked product zeroes every
//! gathered DOF whose `dof_level` differs from the product's level; at
//! compile time each element (scalar walk) and each SIMD unit gets a
//! one-byte *pure* flag, set when every gathered DOF already lies on the
//! level. Pure elements and units gather plainly; mixed ones multiply by the
//! factor `[0.0, 1.0][(dof_level[g] == level) as usize]` derived per DOF —
//! the exact 0/1 factor a stored mask would hold, and `x·1.0 == x`, so both
//! paths are bitwise equal to a masked gather.
//!
//! The colour-major order gives the threaded executor its race-freedom
//! invariant for free: within one colour no two elements share a scatter
//! target, so any interleaving of a colour's elements produces
//! bitwise-identical sums. The *serial* path walks the same colour-major
//! order, which is what makes the threaded product bitwise equal to the
//! serial one.
//!
//! Entries live in a [`GatherCache`] stashed in the stepper's
//! [`lts_core::Workspace`], so each `(level, element set)` pair is compiled
//! exactly once per run. A workspace with a DOF order is served at compile
//! time alone: the gathered ids are mapped into the order as they are
//! baked, and the workspace state keeps the reciprocal mass in the order,
//! so the hot loops are the same with or without one.

use crate::gll::GllBasis;
use crate::parallel::ElementColoring;
use crate::simd::{
    batch_elastic_stiffness, batch_scalar_stiffness, AcousticLanes, ElasticLanes, KernelVariant,
};
use lts_core::{DofTopology, Workspace};

/// Sentinel `level` for the unmasked full-mesh product.
pub(crate) const FULL_LEVEL: u16 = u16::MAX;

/// The level mask of a masked product, derived per DOF instead of stored:
/// DOF `d` contributes iff `dof_level[d] == level`.
#[derive(Clone, Copy)]
pub(crate) struct LevelMask<'a> {
    pub(crate) dof_level: &'a [u8],
    pub(crate) level: u8,
}

impl LevelMask<'_> {
    /// The 0/1 gather factor of DOF `dof` (branch-free).
    #[inline(always)]
    pub(crate) fn factor(self, dof: usize) -> f64 {
        [0.0, 1.0][(self.dof_level[dof] == self.level) as usize]
    }

    /// Whether every DOF of the gathered ids `ids` (`comps` DOFs per id,
    /// DOF `comps·id + c`) lies on the level.
    fn covers(self, ids: &[u32], comps: usize) -> bool {
        ids.iter()
            .all(|&id| (0..comps).all(|c| self.dof_level[comps * id as usize + c] == self.level))
    }
}

/// One compiled `(level, element list)` entry.
pub(crate) struct CompiledGather {
    level: u16,
    /// The element list this entry was compiled for (cache key).
    key: Vec<u32>,
    /// Element ids in colour-major order.
    pub(crate) order: Vec<u32>,
    /// Prefix offsets into `order`, one span per colour (`n_colours + 1`).
    pub(crate) color_off: Vec<u32>,
    /// Per ordered element: its `npe` scatter-target ids (global nodes or
    /// local DOFs, whatever the operator gathers from).
    pub(crate) idx: Vec<u32>,
    /// Per ordered element: 1 when every gathered DOF lies on the entry's
    /// level (gather with no mask), 0 when mixed; empty for the unmasked
    /// full product.
    pub(crate) pure: Vec<u8>,
    /// SIMD batching plan for the active [`KernelVariant`]; `None` on the
    /// scalar variant (lanes = 1). Rebuilt by [`GatherCache::ensure_plan`]
    /// when the active lane width changes.
    pub(crate) simd: Option<SimdPlan>,
}

impl CompiledGather {
    /// Heap bytes held by the entry and its SIMD plan: `u32` order, colour
    /// offsets and index tables plus one flag byte per element or unit.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        let u32s = self.key.capacity()
            + self.order.capacity()
            + self.color_off.capacity()
            + self.idx.capacity();
        4 * u32s + self.pure.capacity() + self.simd.as_ref().map_or(0, SimdPlan::heap_bytes)
    }
}

/// Derived structure-of-arrays view of a [`CompiledGather`] for one SIMD
/// lane width: the colour-major element order chopped into *units* of up to
/// `lanes` elements, with per-unit transposed gather tables so node `q` of
/// all lanes is one contiguous `lanes`-wide run (`tidx[toff + q·lanes + l]`).
/// Units never straddle a colour boundary, so the within-colour
/// conflict-freedom invariant carries over to whole units and both the
/// serial and threaded walks keep the colour-phase accumulation order —
/// which is what keeps the batched product bitwise equal to the scalar one.
pub(crate) struct SimdPlan {
    /// The variant the plan was transposed for.
    pub(crate) variant: KernelVariant,
    /// `variant.lanes()`, cached.
    pub(crate) lanes: usize,
    /// Prefix offsets into the unit arrays, one span per colour.
    pub(crate) unit_off: Vec<u32>,
    /// First position (into `CompiledGather::order`) of each unit.
    pub(crate) unit_base: Vec<u32>,
    /// Elements in each unit (`lanes` for full units, less for tails).
    /// Tail units are *padded* to the full lane width in the transposed
    /// tables by replicating their last element, so every unit runs the
    /// batched kernel; only the first `unit_len` lanes are scattered (a
    /// padded lane's result is discarded, and vertical-only arithmetic
    /// means it cannot perturb the valid lanes).
    pub(crate) unit_len: Vec<u32>,
    /// Offset into `tidx` (node-lane entries) of each unit.
    pub(crate) unit_toff: Vec<u32>,
    /// Transposed scatter-target ids of the units (lane-padded).
    pub(crate) tidx: Vec<u32>,
    /// Per unit: 1 when all of its elements are pure (padded lanes repeat
    /// a valid one), 0 when any is mixed; empty when the entry is unmasked.
    pub(crate) unit_pure: Vec<u8>,
}

impl SimdPlan {
    fn build(
        color_off: &[u32],
        idx: &[u32],
        pure: &[u8],
        npe: usize,
        variant: KernelVariant,
    ) -> SimdPlan {
        let lanes = variant.lanes();
        let n_units: usize = color_off
            .windows(2)
            .map(|w| (w[1] - w[0]).div_ceil(lanes as u32) as usize)
            .sum();
        let mut unit_off = Vec::with_capacity(color_off.len());
        unit_off.push(0);
        let mut p = SimdPlan {
            variant,
            lanes,
            unit_off,
            unit_base: Vec::with_capacity(n_units),
            unit_len: Vec::with_capacity(n_units),
            unit_toff: Vec::with_capacity(n_units),
            tidx: Vec::with_capacity(n_units * npe * lanes),
            unit_pure: Vec::with_capacity(if pure.is_empty() { 0 } else { n_units }),
        };
        for w in color_off.windows(2) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            let mut pos = lo;
            while pos < hi {
                let len = lanes.min(hi - pos);
                p.unit_base.push(pos as u32);
                p.unit_len.push(len as u32);
                p.unit_toff.push(p.tidx.len() as u32);
                // lanes ≥ len replicate the unit's last element (valid
                // gather addresses, results never scattered)
                for q in 0..npe {
                    for l in 0..lanes {
                        p.tidx.push(idx[(pos + l.min(len - 1)) * npe + q]);
                    }
                }
                if !pure.is_empty() {
                    p.unit_pure
                        .push(pure[pos..pos + len].iter().all(|&f| f != 0) as u8);
                }
                pos += len;
            }
            p.unit_off.push(p.unit_base.len() as u32);
        }
        p
    }

    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        let u32s = self.unit_off.capacity()
            + self.unit_base.capacity()
            + self.unit_len.capacity()
            + self.unit_toff.capacity()
            + self.tidx.capacity();
        4 * u32s + self.unit_pure.capacity()
    }
}

/// Per-run cache of compiled gather lists (lives in a `Workspace`).
#[derive(Default)]
pub(crate) struct GatherCache {
    entries: Vec<CompiledGather>,
}

impl GatherCache {
    pub(crate) fn entry(&self, i: usize) -> &CompiledGather {
        &self.entries[i]
    }

    /// Look up an existing entry. The full-mesh entry is unique per
    /// operator, so `FULL_LEVEL` matches regardless of `elems`.
    pub(crate) fn find(&self, level: u16, elems: &[u32]) -> Option<usize> {
        self.entries
            .iter()
            .position(|en| en.level == level && (level == FULL_LEVEL || en.key == elems))
    }

    /// Fetch or compile the entry for `(level, elems)`.
    ///
    /// `targets_of` yields an element's gathered ids, which are also its
    /// scatter targets: they drive the greedy colouring and fill the flat
    /// `idx` table in colour-major order. With a `dof_order`, each id `g`
    /// (`comps` DOFs `comps·g + c` each) is stored as `dof_order[comps·g] /
    /// comps`; the colouring does not depend on the labels. With a `mask`,
    /// each element's pure flag is derived from its stored `idx` row.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn get_or_build(
        &mut self,
        level: u16,
        elems: &[u32],
        n_targets: usize,
        targets_of: &mut dyn FnMut(u32, &mut Vec<u32>),
        mask: Option<LevelMask>,
        comps: usize,
        dof_order: Option<&[u32]>,
    ) -> usize {
        if let Some(i) = self.find(level, elems) {
            return i;
        }
        let coloring = ElementColoring::greedy(elems, n_targets, targets_of);
        // lts-check hook: re-assert, at every compile, the exact invariants
        // the threaded scatter relies on — conflict-freedom within each
        // colour and a one-to-one cover of the requested element list.
        #[cfg(debug_assertions)]
        {
            let conflict = crate::verify::conflict_free(&coloring.classes, n_targets, targets_of);
            debug_assert!(
                conflict.is_ok(),
                "compiled colouring for level {level}: {}",
                conflict.unwrap_err()
            );
            let cover = crate::verify::complete_cover(&coloring.classes, elems);
            debug_assert!(
                cover.is_ok(),
                "compiled colouring for level {level}: {}",
                cover.unwrap_err()
            );
        }
        let (order, color_off) = coloring.flatten();
        let mut idx = Vec::new();
        let mut pure = Vec::with_capacity(if mask.is_some() { order.len() } else { 0 });
        let mut ids = Vec::new();
        for &e in &order {
            targets_of(e, &mut ids);
            if let Some(pos) = dof_order {
                for id in ids.iter_mut() {
                    *id = pos[comps * *id as usize] / comps as u32;
                }
            }
            if idx.is_empty() {
                idx.reserve_exact(ids.len() * order.len());
            }
            idx.extend_from_slice(&ids);
            if let Some(m) = mask {
                pure.push(m.covers(&ids, comps) as u8);
            }
        }
        self.entries.push(CompiledGather {
            level,
            key: elems.to_vec(),
            order,
            color_off,
            idx,
            pure,
            simd: None,
        });
        self.entries.len() - 1
    }

    /// Make entry `i`'s [`SimdPlan`] match `variant`: build (or rebuild) the
    /// transposed tables when a multi-lane variant is active, drop them when
    /// the scalar variant is. Called by the operators on every apply — a
    /// no-op once the plan matches, so the cost is one comparison per apply.
    pub(crate) fn ensure_plan(&mut self, i: usize, npe: usize, variant: KernelVariant) {
        let en = &mut self.entries[i];
        let lanes = variant.lanes();
        if lanes <= 1 {
            en.simd = None;
            return;
        }
        if en.simd.as_ref().is_some_and(|p| p.variant == variant) {
            return;
        }
        en.simd = Some(SimdPlan::build(
            &en.color_off,
            &en.idx,
            &en.pure,
            npe,
            variant,
        ));
    }
}

/// Reusable element scratch for the scalar kernel, plus the SoA batch
/// buffers of the SIMD path (`v*`, `npe · lanes` doubles, lane-minor).
pub(crate) struct ScalarScratch {
    pub(crate) loc: Vec<f64>,
    pub(crate) tmp: Vec<f64>,
    pub(crate) der: Vec<f64>,
    pub(crate) vloc: Vec<f64>,
    pub(crate) vtmp: Vec<f64>,
}

/// Per-worker element scratch of an engine.
pub(crate) trait EngineScratch: Send {
    fn new(npe: usize) -> Self;

    /// Size the batch buffers for `lanes`-wide units (outside the hot loop).
    fn ensure_lanes(&mut self, npe: usize, lanes: usize);
}

impl EngineScratch for ScalarScratch {
    fn new(npe: usize) -> Self {
        ScalarScratch {
            loc: vec![0.0; npe],
            tmp: vec![0.0; npe],
            der: vec![0.0; npe],
            vloc: Vec::new(),
            vtmp: Vec::new(),
        }
    }

    fn ensure_lanes(&mut self, npe: usize, lanes: usize) {
        let n = npe * lanes;
        if lanes > 1 && self.vloc.len() < n {
            self.vloc.resize(n, 0.0);
            self.vtmp.resize(n, 0.0);
        }
    }
}

/// An execution engine over compiled entries with scratch `S`: a scalar
/// per-element path, a SIMD unit path, and the two walks over them.
pub(crate) trait Engine<S: Send>: Sync {
    /// Process position `pos` of a compiled entry.
    fn elem(&self, entry: &CompiledGather, pos: usize, u: &[f64], sc: &mut S, out: &mut [f64]);

    /// Process unit `unit` of `entry`'s SIMD plan.
    fn unit(
        &self,
        entry: &CompiledGather,
        plan: &SimdPlan,
        unit: usize,
        u: &[f64],
        sc: &mut S,
        out: &mut [f64],
    );

    /// Serial walk of an entry, batch-wise when a plan is attached. Both
    /// walks visit colours in order and touch every scatter target once per
    /// colour, so they produce bitwise-identical sums.
    fn run_serial(&self, entry: &CompiledGather, u: &[f64], sc: &mut S, out: &mut [f64]) {
        match entry.simd.as_ref() {
            Some(plan) => {
                for unit in 0..plan.unit_base.len() {
                    self.unit(entry, plan, unit, u, sc, out);
                }
            }
            None => {
                for pos in 0..entry.order.len() {
                    self.elem(entry, pos, u, sc, out);
                }
            }
        }
    }

    /// Colour-phased threaded walk; with a plan the work items handed to
    /// [`crate::parallel::par_colored`] are whole units.
    fn run_threads(&self, entry: &CompiledGather, u: &[f64], par: &mut [S], out: &mut [f64]) {
        match entry.simd.as_ref() {
            Some(plan) => {
                crate::parallel::par_colored(out, &plan.unit_off, par, |unit, sc, o| {
                    self.unit(entry, plan, unit, u, sc, o);
                });
            }
            None => {
                crate::parallel::par_colored(out, &entry.color_off, par, |pos, sc, o| {
                    self.elem(entry, pos, u, sc, o);
                });
            }
        }
    }
}

/// Workspace state of an operator: compiled entries, serial and per-thread
/// element scratch, and — under a workspace DOF order — the operator's
/// reciprocal mass in that order.
pub(crate) struct OpWs<S> {
    pub(crate) cache: GatherCache,
    serial: S,
    par: Vec<S>,
    inv_mass: Option<Vec<f64>>,
}

impl<S: EngineScratch> OpWs<S> {
    /// State for an operator with reciprocal mass `inv_mass`, under the
    /// workspace's DOF `order` (`order[caller DOF] = internal DOF`).
    pub(crate) fn new(npe: usize, order: Option<&[u32]>, inv_mass: &[f64]) -> Self {
        let inv_mass = order.map(|pos| {
            let mut ordered = vec![0.0; inv_mass.len()];
            for (&p, &m) in pos.iter().zip(inv_mass) {
                ordered[p as usize] = m;
            }
            ordered
        });
        OpWs {
            cache: GatherCache::default(),
            serial: S::new(npe),
            par: Vec::new(),
            inv_mass,
        }
    }

    /// Fetch or compile an entry with `compile`, warm its SIMD plan for the
    /// active variant and size the scratch of `threads` workers (≤ 1:
    /// serial), so no transpose or resize happens mid-run. Returns the entry.
    pub(crate) fn prepare(
        &mut self,
        npe: usize,
        threads: usize,
        compile: impl FnOnce(&mut GatherCache) -> usize,
    ) -> usize {
        let i = compile(&mut self.cache);
        let variant = crate::simd::active();
        self.cache.ensure_plan(i, npe, variant);
        if threads <= 1 {
            self.serial.ensure_lanes(npe, variant.lanes());
        } else {
            if self.par.len() < threads {
                self.par.resize_with(threads, || S::new(npe));
            }
            for sc in &mut self.par {
                sc.ensure_lanes(npe, variant.lanes());
            }
        }
        i
    }

    /// Run prepared entry `i` on `threads` workers through the engine
    /// `engine` builds from the ordered reciprocal mass, if this state
    /// holds one.
    pub(crate) fn run_entry<'s, E: Engine<S>>(
        &'s mut self,
        i: usize,
        threads: usize,
        engine: impl FnOnce(Option<&'s [f64]>) -> E,
        u: &[f64],
        out: &mut [f64],
    ) {
        let OpWs {
            cache,
            serial,
            par,
            inv_mass,
        } = self;
        let engine = engine(inv_mass.as_deref());
        let entry = cache.entry(i);
        if threads <= 1 {
            engine.run_serial(entry, u, serial, out);
        } else {
            engine.run_threads(entry, u, &mut par[..threads], out);
        }
    }
}

/// What a SEM operator supplies to run its products through compiled
/// entries. The rest — workspace state, compile on first use, prepare, run —
/// is shared by all four operators: [`apply_full`], [`apply_masked`] and
/// [`precompile`].
pub(crate) trait CompiledOp: DofTopology + Sync + Sized + 'static {
    type Scratch: EngineScratch;
    /// DOFs per gathered id (DOF `COMPS·id + c`).
    const COMPS: usize;
    fn npe(&self) -> usize;
    /// Element `e`'s gathered ids (cleared first).
    fn ids_of(&self, e: u32, out: &mut Vec<u32>);
    fn inv_mass(&self) -> &[f64];
    /// Run prepared entry `i` of `st` through this operator's engine.
    #[allow(clippy::too_many_arguments)]
    fn run_compiled(
        &self,
        st: &mut OpWs<Self::Scratch>,
        i: usize,
        threads: usize,
        mask: Option<LevelMask>,
        u: &[f64],
        out: &mut [f64],
    );
}

/// The workspace slot of operator type `O`.
struct OpSlot<O: CompiledOp>(OpWs<O::Scratch>, std::marker::PhantomData<fn() -> O>);

/// `op`'s workspace state and the workspace's DOF order.
pub(crate) fn op_state<'w, O: CompiledOp>(
    op: &O,
    ws: &'w mut Workspace,
) -> (&'w mut OpWs<O::Scratch>, Option<&'w [u32]>) {
    let (slot, order) = ws.get_or_insert_with(|order| {
        OpSlot::<O>(
            OpWs::new(op.npe(), order, op.inv_mass()),
            Default::default(),
        )
    });
    (&mut slot.0, order)
}

/// Fetch or compile `op`'s entry for `(level, elems)` under the DOF `order`.
fn compile<O: CompiledOp>(
    op: &O,
    cache: &mut GatherCache,
    level: u16,
    elems: &[u32],
    mask: Option<LevelMask>,
    order: Option<&[u32]>,
) -> usize {
    let ids_of = &mut |e, out: &mut Vec<u32>| op.ids_of(e, out);
    let n_ids = op.n_dofs() / O::COMPS;
    cache.get_or_build(level, elems, n_ids, ids_of, mask, O::COMPS, order)
}

/// `out = A u` over the whole mesh.
pub(crate) fn apply_full<O: CompiledOp>(op: &O, u: &[f64], out: &mut [f64], ws: &mut Workspace) {
    out.fill(0.0);
    let (st, order) = op_state(op, ws);
    let i = st.prepare(op.npe(), 1, |c| {
        c.find(FULL_LEVEL, &[]).unwrap_or_else(|| {
            let all: Vec<u32> = (0..op.n_elems() as u32).collect();
            compile(op, c, FULL_LEVEL, &all, None, order)
        })
    });
    op.run_compiled(st, i, 1, None, u, out);
}

/// `out += A (P_level u)` over `elems` on `threads` workers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_masked<O: CompiledOp>(
    op: &O,
    u: &[f64],
    out: &mut [f64],
    elems: &[u32],
    dof_level: &[u8],
    level: u8,
    ws: &mut Workspace,
    threads: usize,
) {
    let mask = Some(LevelMask { dof_level, level });
    let (st, order) = op_state(op, ws);
    let i = st.prepare(op.npe(), threads, |c| {
        compile(op, c, level as u16, elems, mask, order)
    });
    op.run_compiled(st, i, threads, mask, u, out);
}

/// Compile and warm the masked entry of `(level, elems)`.
pub(crate) fn precompile<O: CompiledOp>(
    op: &O,
    elems: &[u32],
    dof_level: &[u8],
    level: u8,
    ws: &mut Workspace,
) {
    let mask = Some(LevelMask { dof_level, level });
    let (st, order) = op_state(op, ws);
    st.prepare(op.npe(), 1, |c| {
        compile(op, c, level as u16, elems, mask, order)
    });
}

/// `impl lts_core::Operator` for a [`CompiledOp`] type: every product runs
/// through the shared compiled path.
macro_rules! compiled_operator {
    ($op:ty) => {
        impl lts_core::Operator for $op {
            fn ndof(&self) -> usize {
                lts_core::DofTopology::n_dofs(self)
            }

            fn apply_ws(&self, u: &[f64], out: &mut [f64], ws: &mut lts_core::Workspace) {
                $crate::compiled::apply_full(self, u, out, ws);
            }

            fn apply_masked_ws(
                &self,
                u: &[f64],
                out: &mut [f64],
                elems: &[u32],
                dof_level: &[u8],
                level: u8,
                ws: &mut lts_core::Workspace,
            ) {
                $crate::compiled::apply_masked(self, u, out, elems, dof_level, level, ws, 1);
            }

            #[allow(clippy::too_many_arguments)]
            fn apply_masked_threads(
                &self,
                u: &[f64],
                out: &mut [f64],
                elems: &[u32],
                dof_level: &[u8],
                level: u8,
                ws: &mut lts_core::Workspace,
                threads: usize,
            ) {
                $crate::compiled::apply_masked(self, u, out, elems, dof_level, level, ws, threads);
            }

            fn precompile_masked(
                &self,
                elems: &[u32],
                dof_level: &[u8],
                level: u8,
                ws: &mut lts_core::Workspace,
            ) {
                $crate::compiled::precompile(self, elems, dof_level, level, ws);
            }

            fn mass(&self) -> &[f64] {
                &self.mass
            }
        }
    };
}
pub(crate) use compiled_operator;

/// The shared acoustic execution engine: one scalar per-element path and one
/// SIMD unit path over a compiled entry, parameterized on a geometry lookup
/// `e → (hx, hy, hz, μ)` so the structured and unstructured operators drive
/// the same code. `mask` is the masked product's level mask (`None` for the
/// full product).
pub(crate) struct AcousticEngine<'a, G: Fn(u32) -> (f64, f64, f64, f64) + Sync> {
    pub(crate) basis: &'a GllBasis,
    pub(crate) inv_mass: &'a [f64],
    pub(crate) npe: usize,
    pub(crate) geom: G,
    pub(crate) mask: Option<LevelMask<'a>>,
}

impl<G: Fn(u32) -> (f64, f64, f64, f64) + Sync> Engine<ScalarScratch> for AcousticEngine<'_, G> {
    /// Process position `pos` of a compiled entry: gather (masked only when
    /// the element is mixed), stiffness kernel, multiply-by-`M⁻¹` scatter.
    // lint: hot-path
    #[inline]
    fn elem(
        &self,
        entry: &CompiledGather,
        pos: usize,
        u: &[f64],
        sc: &mut ScalarScratch,
        out: &mut [f64],
    ) {
        let npe = self.npe;
        let base = pos * npe;
        let ids = &entry.idx[base..base + npe];
        match self.mask {
            Some(m) if entry.pure[pos] == 0 => {
                for li in 0..npe {
                    let g = ids[li] as usize;
                    sc.loc[li] = u[g] * m.factor(g);
                }
            }
            _ => {
                for li in 0..npe {
                    sc.loc[li] = u[ids[li] as usize];
                }
            }
        }
        let (hx, hy, hz, mu) = (self.geom)(entry.order[pos]);
        crate::kernel::scalar_stiffness(
            self.basis,
            hx,
            hy,
            hz,
            mu,
            &sc.loc,
            &mut sc.tmp,
            &mut sc.der,
        );
        for li in 0..npe {
            let g = ids[li] as usize;
            out[g] += sc.tmp[li] * self.inv_mass[g];
        }
    }

    /// Process unit `unit` of a plan: SoA gather through the transposed
    /// (lane-padded) tables, one batched kernel call, SoA scatter of the
    /// first `unit_len` lanes. Any variant the build lacks a kernel for
    /// falls back to [`Self::elem`].
    // lint: hot-path
    fn unit(
        &self,
        entry: &CompiledGather,
        plan: &SimdPlan,
        unit: usize,
        u: &[f64],
        sc: &mut ScalarScratch,
        out: &mut [f64],
    ) {
        let base = plan.unit_base[unit] as usize;
        let len = plan.unit_len[unit] as usize;
        let w = plan.lanes;
        let npe = self.npe;
        let toff = plan.unit_toff[unit] as usize;
        let ids = &plan.tidx[toff..toff + npe * w];
        match self.mask {
            Some(m) if plan.unit_pure[unit] == 0 => {
                for (i, &id) in ids.iter().enumerate() {
                    let g = id as usize;
                    sc.vloc[i] = u[g] * m.factor(g);
                }
            }
            _ => {
                for (i, &id) in ids.iter().enumerate() {
                    sc.vloc[i] = u[id as usize];
                }
            }
        }
        // per-lane coefficients, with the scalar kernel's exact expressions
        // (padded lanes reuse the last element's geometry)
        let mut cf = AcousticLanes::default();
        for l in 0..w {
            let (hx, hy, hz, mu) = (self.geom)(entry.order[base + l.min(len - 1)]);
            let jac = 0.125 * hx * hy * hz;
            cf.cx[l] = mu * jac * (2.0 / hx) * (2.0 / hx);
            cf.cy[l] = mu * jac * (2.0 / hy) * (2.0 / hy);
            cf.cz[l] = mu * jac * (2.0 / hz) * (2.0 / hz);
        }
        if !batch_scalar_stiffness(
            plan.variant,
            self.basis.n_points(),
            &self.basis.d,
            &self.basis.wgll3,
            &cf,
            &sc.vloc,
            &mut sc.vtmp,
        ) {
            for pos in base..base + len {
                self.elem(entry, pos, u, sc, out);
            }
            return;
        }
        if len == w {
            for (i, &id) in ids.iter().enumerate() {
                let g = id as usize;
                out[g] += sc.vtmp[i] * self.inv_mass[g];
            }
        } else {
            // padded tail: scatter only the valid lanes
            for q in 0..npe {
                let row = q * w;
                for l in 0..len {
                    let g = ids[row + l] as usize;
                    out[g] += sc.vtmp[row + l] * self.inv_mass[g];
                }
            }
        }
    }
}

/// The shared elastic execution engine (`e → (hx, hy, hz, λ, μ)`), mirroring
/// [`AcousticEngine`] for the 3-component operator. `idx` entries are *node*
/// ids; DOF `3·node + comp` addresses `u`/`out`/`inv_mass`, and a mixed
/// element's mask factor is taken per component DOF.
pub(crate) struct ElasticEngine<'a, G: Fn(u32) -> (f64, f64, f64, f64, f64) + Sync> {
    pub(crate) basis: &'a GllBasis,
    pub(crate) inv_mass: &'a [f64],
    pub(crate) npe: usize,
    pub(crate) geom: G,
    pub(crate) mask: Option<LevelMask<'a>>,
}

impl<G: Fn(u32) -> (f64, f64, f64, f64, f64) + Sync> Engine<crate::elastic::Scratch>
    for ElasticEngine<'_, G>
{
    /// Process position `pos` of a compiled entry.
    // lint: hot-path
    #[inline]
    fn elem(
        &self,
        entry: &CompiledGather,
        pos: usize,
        u: &[f64],
        s: &mut crate::elastic::Scratch,
        out: &mut [f64],
    ) {
        let npe = self.npe;
        let base = pos * npe;
        let ids = &entry.idx[base..base + npe];
        match self.mask {
            Some(m) if entry.pure[pos] == 0 => {
                for li in 0..npe {
                    let gn = ids[li] as usize;
                    for comp in 0..3 {
                        let dof = 3 * gn + comp;
                        s.u[comp][li] = u[dof] * m.factor(dof);
                    }
                }
            }
            _ => {
                for li in 0..npe {
                    let gn = ids[li] as usize;
                    for comp in 0..3 {
                        s.u[comp][li] = u[3 * gn + comp];
                    }
                }
            }
        }
        let (hx, hy, hz, lam, mu) = (self.geom)(entry.order[pos]);
        crate::elastic::elastic_stiffness(self.basis, hx, hy, hz, lam, mu, s);
        for li in 0..npe {
            let gn = ids[li] as usize;
            for comp in 0..3 {
                let dof = 3 * gn + comp;
                out[dof] += s.out[comp][li] * self.inv_mass[dof];
            }
        }
    }

    /// Process unit `unit` of a plan (SoA gather through the lane-padded
    /// tables → batched kernel → SoA scatter of the first `unit_len`
    /// lanes), falling back to [`Self::elem`] on variants without a kernel.
    // lint: hot-path
    fn unit(
        &self,
        entry: &CompiledGather,
        plan: &SimdPlan,
        unit: usize,
        u: &[f64],
        s: &mut crate::elastic::Scratch,
        out: &mut [f64],
    ) {
        let base = plan.unit_base[unit] as usize;
        let len = plan.unit_len[unit] as usize;
        let w = plan.lanes;
        let npe = self.npe;
        let n = npe * w;
        let toff = plan.unit_toff[unit] as usize;
        let ids = &plan.tidx[toff..toff + n];
        match self.mask {
            Some(m) if plan.unit_pure[unit] == 0 => {
                for (i, &id) in ids.iter().enumerate() {
                    let gn = 3 * id as usize;
                    s.vu[i] = u[gn] * m.factor(gn);
                    s.vu[n + i] = u[gn + 1] * m.factor(gn + 1);
                    s.vu[2 * n + i] = u[gn + 2] * m.factor(gn + 2);
                }
            }
            _ => {
                for (i, &id) in ids.iter().enumerate() {
                    let gn = id as usize;
                    s.vu[i] = u[3 * gn];
                    s.vu[n + i] = u[3 * gn + 1];
                    s.vu[2 * n + i] = u[3 * gn + 2];
                }
            }
        }
        let mut cf = ElasticLanes::default();
        for l in 0..w {
            let (hx, hy, hz, lam, mu) = (self.geom)(entry.order[base + l.min(len - 1)]);
            cf.jac[l] = 0.125 * hx * hy * hz;
            cf.g[0][l] = 2.0 / hx;
            cf.g[1][l] = 2.0 / hy;
            cf.g[2][l] = 2.0 / hz;
            cf.lam[l] = lam;
            cf.mu[l] = mu;
            cf.tmu[l] = 2.0 * mu;
        }
        if !batch_elastic_stiffness(
            plan.variant,
            self.basis.n_points(),
            &self.basis.d,
            &self.basis.wgll3,
            &cf,
            &s.vu,
            &mut s.vgrad,
            &mut s.vflux,
            &mut s.vout,
        ) {
            for pos in base..base + len {
                self.elem(entry, pos, u, s, out);
            }
            return;
        }
        if len == w {
            for (i, &id) in ids.iter().enumerate() {
                let gn = id as usize;
                for comp in 0..3 {
                    let dof = 3 * gn + comp;
                    out[dof] += s.vout[comp * n + i] * self.inv_mass[dof];
                }
            }
        } else {
            // padded tail: scatter only the valid lanes
            for q in 0..npe {
                let row = q * w;
                for l in 0..len {
                    let gn = ids[row + l] as usize;
                    for comp in 0..3 {
                        let dof = 3 * gn + comp;
                        out[dof] += s.vout[comp * n + row + l] * self.inv_mass[dof];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_compiles_once_per_level_and_list() {
        // toy adjacency: element e targets {e, e+1} (a chain)
        let mut targets = |e: u32, out: &mut Vec<u32>| {
            out.clear();
            out.push(e);
            out.push(e + 1);
        };
        let mut cache = GatherCache::default();
        let elems: Vec<u32> = (0..6).collect();
        for _ in 0..3 {
            let i = cache.get_or_build(0, &elems, 7, &mut targets, None, 1, None);
            assert_eq!(i, 0);
        }
        assert_eq!(
            cache.entries.len(),
            1,
            "entry must be compiled exactly once"
        );
        let en = cache.entry(0);
        let want: Vec<u32> = en.order.iter().flat_map(|&e| [e, e + 1]).collect();
        assert_eq!(en.idx, want, "idx rows follow the colour-major order");
        // a different list is a different entry
        let sub: Vec<u32> = vec![1, 3];
        let j = cache.get_or_build(0, &sub, 7, &mut targets, None, 1, None);
        assert_eq!(j, 1);
        // the full-mesh sentinel matches without a key comparison
        let k = cache.get_or_build(FULL_LEVEL, &elems, 7, &mut targets, None, 1, None);
        assert_eq!(cache.find(FULL_LEVEL, &[]), Some(k));
    }

    #[test]
    fn simd_plan_units_respect_colours_and_transpose() {
        let npe = 2usize;
        // two colours: 5 + 3 elements; idx[pos] = [10·pos, 10·pos + 1]
        let color_off = vec![0u32, 5, 8];
        let idx: Vec<u32> = (0..8u32).flat_map(|p| [10 * p, 10 * p + 1]).collect();
        // odd positions are mixed
        let pure: Vec<u8> = (0..8).map(|p| u8::from(p % 2 == 0)).collect();
        let plan = SimdPlan::build(&color_off, &idx, &pure, npe, KernelVariant::Avx2);
        assert_eq!(plan.lanes, 4);
        // colour 0 → one full unit + one 1-element tail; colour 1 → one tail
        assert_eq!(plan.unit_off, vec![0, 2, 3]);
        assert_eq!(plan.unit_base, vec![0, 4, 5]);
        assert_eq!(plan.unit_len, vec![4, 1, 3]);
        assert_eq!(plan.unit_toff, vec![0, 8, 16]);
        // transposed: node q of lanes 0..4, contiguous; tail units pad the
        // missing lanes with their last element (positions 4 and 7)
        assert_eq!(
            plan.tidx,
            vec![
                0, 10, 20, 30, 1, 11, 21, 31, // full unit, positions 0-3
                40, 40, 40, 40, 41, 41, 41, 41, // 1-element tail, padded
                50, 60, 70, 70, 51, 61, 71, 71, // 3-element tail, padded
            ]
        );
        // a unit is pure only if every valid lane is; the padded lanes of
        // the 1-element tail repeat pure position 4
        assert_eq!(plan.unit_pure, vec![0, 1, 0]);
        // scalar variant → no plan
        let mut cache = GatherCache::default();
        cache.entries.push(CompiledGather {
            level: 0,
            key: vec![],
            order: (0..8).collect(),
            color_off,
            idx,
            pure,
            simd: None,
        });
        cache.ensure_plan(0, npe, KernelVariant::Avx2);
        assert!(cache.entry(0).simd.is_some());
        cache.ensure_plan(0, npe, KernelVariant::Scalar);
        assert!(cache.entry(0).simd.is_none());
    }

    #[test]
    fn compiled_order_is_colour_major_and_complete() {
        let mut targets = |e: u32, out: &mut Vec<u32>| {
            out.clear();
            out.push(e / 2); // pairs (0,1), (2,3), … conflict
        };
        let elems: Vec<u32> = (0..8).collect();
        let mut cache = GatherCache::default();
        let i = cache.get_or_build(0, &elems, 4, &mut targets, None, 1, None);
        let en = cache.entry(i);
        assert_eq!(en.color_off, vec![0, 4, 8]);
        assert_eq!(en.order, vec![0, 2, 4, 6, 1, 3, 5, 7]);
        let mut all: Vec<u32> = en.order.clone();
        all.sort_unstable();
        assert_eq!(all, elems);
    }

    #[test]
    fn pure_flags_follow_the_level_of_every_gathered_dof() {
        // chain: element e gathers nodes {e, e+1}; nodes 0..=3 on level 1,
        // 4..=6 on level 0
        let mut targets = |e: u32, out: &mut Vec<u32>| {
            out.clear();
            out.push(e);
            out.push(e + 1);
        };
        let dof_level = [1u8, 1, 1, 1, 0, 0, 0];
        let mask = LevelMask {
            dof_level: &dof_level,
            level: 1,
        };
        let elems: Vec<u32> = (0..6).collect();
        let mut cache = GatherCache::default();
        let i = cache.get_or_build(1, &elems, 7, &mut targets, Some(mask), 1, None);
        let en = cache.entry(i);
        for (pos, &e) in en.order.iter().enumerate() {
            assert_eq!(en.pure[pos], u8::from(e < 3), "element {e}");
        }
        assert_eq!(mask.factor(3), 1.0);
        assert_eq!(mask.factor(4), 0.0);
        // three components per id: one off-level component makes it mixed
        let comp_level = [1u8, 1, 1, 1, 0, 1];
        let m3 = LevelMask {
            dof_level: &comp_level,
            level: 1,
        };
        assert!(m3.covers(&[0], 3));
        assert!(!m3.covers(&[0, 1], 3));
    }
}
