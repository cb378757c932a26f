//! Level-compiled gather lists: the element list of a masked product, baked
//! once per `(level, element list)` into one lane-transposed id table,
//! ordered colour-major by a greedy conflict-free colouring.
//!
//! The colouring runs over each element's eight corner ids, which on a
//! conforming hex mesh gives the classes of colouring over all `np³` ids
//! ([`ElementColoring::greedy_corners`]). The colour-major order is cut
//! into *units* of up to `lanes` elements that never straddle a colour; the
//! one id table holds each unit's ids transposed, node `q` of all lanes one
//! contiguous run. `lanes` is the active [`KernelVariant`]'s width where a
//! batched kernel exists for the order, else 1: a 1-lane table's rows are
//! the plain per-element id lists the scalar kernel walks.
//!
//! The level mask itself is never stored. A masked product zeroes every
//! gathered DOF whose `dof_level` differs from the product's level; at
//! compile time each unit gets a one-byte *pure* flag, set when every
//! gathered DOF of its elements already lies on the level. Pure units
//! gather plainly; mixed ones multiply by the factor
//! `[0.0, 1.0][(dof_level[g] == level) as usize]` derived per DOF — the
//! exact 0/1 factor a stored mask would hold, and `x·1.0 == x`, so both
//! paths are bitwise equal to a masked gather.
//!
//! The colour-major order gives the threaded executor its race-freedom
//! invariant for free: within one colour no two elements share a scatter
//! target, so any interleaving of a colour's units produces
//! bitwise-identical sums. The *serial* path walks the same colour-major
//! order, which is what makes the threaded product bitwise equal to the
//! serial one, and the batched kernels are bitwise equal to the scalar one
//! lane by lane, so every width gives the same fields.
//!
//! Entries live in a [`GatherCache`] stashed in the stepper's
//! [`lts_core::Workspace`], so each `(level, element set)` pair is compiled
//! exactly once per run; a change of the active variant rebuilds an entry's
//! table in place from its order. A workspace with a DOF order is served at
//! compile time alone: the gathered ids are mapped into the order as they
//! are baked, and the workspace state keeps the reciprocal mass in the
//! order, so the hot loops are the same with or without one.

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

/// An operator's gathered ids, as a compile reads them.
pub(crate) struct IdSource<'a> {
    /// GLL points per axis: element `e` gathers `np³` ids in lattice order.
    pub(crate) np: usize,
    /// Elements of the operator (the full-mesh entry covers them all).
    pub(crate) n_elems: usize,
    /// Bound on the ids, the colouring's target space.
    pub(crate) n_ids: usize,
    /// DOFs per id (DOF `comps·id + c`).
    pub(crate) comps: usize,
    /// Element `e`'s ids in the operator's numbering (buffer cleared first).
    pub(crate) ids_of: &'a dyn Fn(u32, &mut Vec<u32>),
    /// The workspace DOF order, if any: id `g` is stored as
    /// `dof_order[comps·g] / comps`; the colouring does not depend on it.
    pub(crate) dof_order: Option<&'a [u32]>,
}

impl IdSource<'_> {
    /// Element `e`'s ids as the table stores them.
    fn stored_ids(&self, e: u32, out: &mut Vec<u32>) {
        (self.ids_of)(e, out);
        if let Some(pos) = self.dof_order {
            for id in out.iter_mut() {
                *id = pos[self.comps * *id as usize] / self.comps as u32;
            }
        }
    }
}

/// One compiled `(level, element list)` entry: the colour-major element
/// order in units of up to `lanes` elements, and their one id table.
pub(crate) struct CompiledGather {
    level: u16,
    /// The element list this entry was compiled for (cache key; empty for
    /// the full-mesh entry).
    key: Vec<u32>,
    /// Element ids in colour-major order.
    pub(crate) order: Vec<u32>,
    /// The variant the table was built for.
    pub(crate) variant: KernelVariant,
    /// Elements per full unit: `variant.lanes()` when a batched kernel
    /// exists for the operator's order, else 1.
    pub(crate) lanes: usize,
    /// Prefix offsets into the units, one span per colour.
    pub(crate) unit_off: Vec<u32>,
    /// Prefix offsets into `order`, one span per unit (`n_units + 1`).
    /// Units never straddle a colour boundary, so the within-colour
    /// conflict-freedom invariant carries over to whole units.
    pub(crate) unit_pos: Vec<u32>,
    /// Unit `k`'s scatter-target ids (global nodes or local DOFs, whatever
    /// the operator gathers from) at `k·npe·lanes`, node-major: node `q` of
    /// lane `l` at `q·lanes + l`. A tail unit is *padded* to the full width
    /// by replicating its last element, so every unit runs the batched
    /// kernel; only its valid lanes are scattered (a padded lane's result is
    /// discarded, and vertical-only arithmetic means it cannot perturb the
    /// valid lanes).
    pub(crate) tidx: Vec<u32>,
    /// Per unit: 1 when every gathered DOF of its elements lies on the
    /// entry's level (gather with no mask), 0 when any is mixed; empty for
    /// the unmasked full product.
    pub(crate) unit_pure: Vec<u8>,
}

impl CompiledGather {
    /// Units of the entry.
    #[cfg(test)]
    pub(crate) fn n_units(&self) -> usize {
        self.unit_pos.len() - 1
    }

    /// Build the units and the id table at `variant`'s width over the
    /// colour spans `color_off` of `order`, straight from the ids in one
    /// pass. The old table is freed first.
    fn build_table(
        &mut self,
        color_off: &[u32],
        src: &IdSource,
        mask: Option<LevelMask>,
        variant: KernelVariant,
    ) {
        self.tidx = Vec::new();
        let lanes = crate::simd::batch_lanes(variant, src.np);
        let npe = src.np.pow(3);
        let n_units: usize = color_off
            .windows(2)
            .map(|w| (w[1] - w[0]).div_ceil(lanes as u32) as usize)
            .sum();
        let mut unit_off = Vec::with_capacity(color_off.len());
        unit_off.push(0);
        let mut unit_pos = Vec::with_capacity(n_units + 1);
        let mut tidx = vec![0u32; n_units * npe * lanes];
        let mut unit_pure = Vec::with_capacity(if mask.is_some() { n_units } else { 0 });
        let mut ids = Vec::with_capacity(npe);
        for w in color_off.windows(2) {
            let (mut pos, hi) = (w[0] as usize, w[1] as usize);
            while pos < hi {
                let len = lanes.min(hi - pos);
                let rows = &mut tidx[unit_pos.len() * npe * lanes..][..npe * lanes];
                unit_pos.push(pos as u32);
                let mut pure = true;
                for l in 0..lanes {
                    // lanes ≥ len keep the last element's ids (valid gather
                    // addresses, results never scattered)
                    if l < len {
                        src.stored_ids(self.order[pos + l], &mut ids);
                        pure &= mask.is_none_or(|m| m.covers(&ids, src.comps));
                    }
                    for (q, &id) in ids.iter().enumerate() {
                        rows[q * lanes + l] = id;
                    }
                }
                if mask.is_some() {
                    unit_pure.push(pure as u8);
                }
                pos += len;
            }
            unit_off.push(unit_pos.len() as u32);
        }
        unit_pos.push(self.order.len() as u32);
        self.variant = variant;
        self.lanes = lanes;
        self.unit_off = unit_off;
        self.unit_pos = unit_pos;
        self.tidx = tidx;
        self.unit_pure = unit_pure;
    }

    /// Heap bytes held by the entry: `u32` key, order, unit offsets and id
    /// table plus one flag byte per unit.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        let u32s = self.key.capacity()
            + self.order.capacity()
            + self.unit_off.capacity()
            + self.unit_pos.capacity()
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

    /// Fetch or compile the entry for `(level, elems)` with its table at
    /// `variant`'s width; `FULL_LEVEL` covers every element of `src` and
    /// ignores `elems`.
    ///
    /// A new entry is coloured over the element corners, then its table is
    /// built from `src`'s ids in colour-major order, with each unit's pure
    /// flag derived from its stored ids under a `mask`. An entry built for
    /// another variant has its table rebuilt in place; its order stays.
    pub(crate) fn get_or_build(
        &mut self,
        level: u16,
        elems: &[u32],
        src: &IdSource,
        mask: Option<LevelMask>,
        variant: KernelVariant,
    ) -> usize {
        if let Some(i) = self.find(level, elems) {
            let en = &mut self.entries[i];
            if en.variant != variant {
                // the colour spans are the bounds of the unit spans
                let color_off: Vec<u32> = en
                    .unit_off
                    .iter()
                    .map(|&k| en.unit_pos[k as usize])
                    .collect();
                en.build_table(&color_off, src, mask, variant);
            }
            return i;
        }
        let all: Vec<u32>;
        let (elems, key) = if level == FULL_LEVEL {
            all = (0..src.n_elems as u32).collect();
            (&all[..], Vec::new())
        } else {
            (elems, elems.to_vec())
        };
        let ids_of = &mut |e, out: &mut Vec<u32>| (src.ids_of)(e, out);
        let coloring = ElementColoring::greedy_corners(elems, src.n_ids, src.np, ids_of);
        // lts-check hook: re-assert, at every compile and over all gathered
        // ids, the exact invariants the threaded scatter relies on —
        // conflict-freedom within each colour and a one-to-one cover of the
        // requested element list.
        #[cfg(debug_assertions)]
        {
            let conflict = crate::verify::conflict_free(&coloring.classes, src.n_ids, ids_of);
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
        // free the classes before the table is allocated: this is the
        // compile's peak
        drop(coloring);
        let mut en = CompiledGather {
            level,
            key,
            order,
            variant,
            lanes: 1,
            unit_off: Vec::new(),
            unit_pos: Vec::new(),
            tidx: Vec::new(),
            unit_pure: Vec::new(),
        };
        en.build_table(&color_off, src, mask, variant);
        self.entries.push(en);
        self.entries.len() - 1
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
/// path for 1-lane units, a batched path for wider ones, and the walk over
/// them.
pub(crate) trait Engine<S: Send>: Sync {
    /// Process unit `k` of a 1-lane entry: its one element through the
    /// scalar kernel.
    fn elem(&self, entry: &CompiledGather, k: usize, u: &[f64], sc: &mut S, out: &mut [f64]);

    /// Process unit `k` of a multi-lane entry through the batched kernel.
    fn unit(&self, entry: &CompiledGather, k: usize, u: &[f64], sc: &mut S, out: &mut [f64]);

    /// Colour-phased walk of an entry's units on `par.len()` workers (one:
    /// serial, in unit order). Any walk visits colours in order and touches
    /// every scatter target once per colour, so all produce bitwise-identical
    /// sums.
    fn walk(&self, entry: &CompiledGather, u: &[f64], par: &mut [S], out: &mut [f64]) {
        crate::parallel::par_colored(out, &entry.unit_off, par, |k, sc, o| {
            if entry.lanes == 1 {
                self.elem(entry, k, u, sc, o);
            } else {
                self.unit(entry, k, u, sc, o);
            }
        });
    }
}

/// Workspace state of an operator: compiled entries, per-worker element
/// scratch (the first also serves serial runs), and — under a workspace DOF
/// order — the operator's reciprocal mass in that order.
pub(crate) struct OpWs<S> {
    pub(crate) cache: GatherCache,
    scratch: Vec<S>,
    inv_mass: Option<Vec<f64>>,
}

impl<S: EngineScratch> OpWs<S> {
    /// State for an operator with reciprocal mass `inv_mass`, under the
    /// workspace's DOF `order` (`order[caller DOF] = internal DOF`).
    pub(crate) fn new(order: Option<&[u32]>, inv_mass: &[f64]) -> Self {
        let inv_mass = order.map(|pos| {
            let mut ordered = vec![0.0; inv_mass.len()];
            for (&p, &m) in pos.iter().zip(inv_mass) {
                ordered[p as usize] = m;
            }
            ordered
        });
        OpWs {
            cache: GatherCache::default(),
            scratch: Vec::new(),
            inv_mass,
        }
    }

    /// Fetch or compile an entry with `compile` at the active variant and
    /// size the scratch of `threads` workers (≤ 1: serial) for its width,
    /// so no rebuild or resize happens mid-run. Returns the entry.
    pub(crate) fn prepare(
        &mut self,
        npe: usize,
        threads: usize,
        compile: impl FnOnce(&mut GatherCache, KernelVariant) -> usize,
    ) -> usize {
        let i = compile(&mut self.cache, crate::simd::active());
        let (lanes, workers) = (self.cache.entry(i).lanes, threads.max(1));
        if self.scratch.len() < workers {
            self.scratch.resize_with(workers, || S::new(npe));
        }
        for sc in &mut self.scratch[..workers] {
            sc.ensure_lanes(npe, lanes);
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
        let engine = engine(self.inv_mass.as_deref());
        let par = &mut self.scratch[..threads.max(1)];
        engine.walk(self.cache.entry(i), u, par, out);
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
    /// GLL points per axis; an element gathers `np³` ids.
    fn np(&self) -> usize;
    /// Gathered ids per element.
    fn npe(&self) -> usize {
        self.np().pow(3)
    }
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
        OpSlot::<O>(OpWs::new(order, op.inv_mass()), Default::default())
    });
    (&mut slot.0, order)
}

/// Fetch or compile `op`'s entry for `(level, elems)` under the DOF `order`,
/// with its table at `variant`'s width.
fn compile<O: CompiledOp>(
    op: &O,
    cache: &mut GatherCache,
    level: u16,
    elems: &[u32],
    mask: Option<LevelMask>,
    order: Option<&[u32]>,
    variant: KernelVariant,
) -> usize {
    let src = IdSource {
        np: op.np(),
        n_elems: op.n_elems(),
        n_ids: op.n_dofs() / O::COMPS,
        comps: O::COMPS,
        ids_of: &|e, out| op.ids_of(e, out),
        dof_order: order,
    };
    cache.get_or_build(level, elems, &src, mask, variant)
}

/// `out = A u` over the whole mesh.
pub(crate) fn apply_full<O: CompiledOp>(op: &O, u: &[f64], out: &mut [f64], ws: &mut Workspace) {
    out.fill(0.0);
    let (st, order) = op_state(op, ws);
    let i = st.prepare(op.npe(), 1, |c, v| {
        compile(op, c, FULL_LEVEL, &[], None, order, v)
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
    let i = st.prepare(op.npe(), threads, |c, v| {
        compile(op, c, level as u16, elems, mask, order, v)
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
    st.prepare(op.npe(), 1, |c, v| {
        compile(op, c, level as u16, elems, mask, order, v)
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
    /// Process 1-lane unit `k`: gather (masked only when the element is
    /// mixed), stiffness kernel, multiply-by-`M⁻¹` scatter.
    #[inline]
    fn elem(
        &self,
        entry: &CompiledGather,
        k: usize,
        u: &[f64],
        sc: &mut ScalarScratch,
        out: &mut [f64],
    ) {
        let npe = self.npe;
        let ids = &entry.tidx[k * npe..(k + 1) * npe];
        match self.mask {
            Some(m) if entry.unit_pure[k] == 0 => {
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
        let (hx, hy, hz, mu) = (self.geom)(entry.order[k]);
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

    /// Process multi-lane unit `k`: SoA gather through the transposed
    /// (lane-padded) table, one batched kernel call, SoA scatter of the
    /// unit's valid lanes.
    fn unit(
        &self,
        entry: &CompiledGather,
        k: usize,
        u: &[f64],
        sc: &mut ScalarScratch,
        out: &mut [f64],
    ) {
        let base = entry.unit_pos[k] as usize;
        let len = entry.unit_pos[k + 1] as usize - base;
        let w = entry.lanes;
        let npe = self.npe;
        let ids = &entry.tidx[k * npe * w..(k + 1) * npe * w];
        match self.mask {
            Some(m) if entry.unit_pure[k] == 0 => {
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
        // the entry is multi-lane only where the variant has a kernel
        let batched = batch_scalar_stiffness(
            entry.variant,
            self.basis.n_points(),
            &self.basis.d,
            &self.basis.wgll3,
            &cf,
            &sc.vloc,
            &mut sc.vtmp,
        );
        debug_assert!(batched, "no batched kernel for {:?}", entry.variant);
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
    /// Process 1-lane unit `k`.
    #[inline]
    fn elem(
        &self,
        entry: &CompiledGather,
        k: usize,
        u: &[f64],
        s: &mut crate::elastic::Scratch,
        out: &mut [f64],
    ) {
        let npe = self.npe;
        let ids = &entry.tidx[k * npe..(k + 1) * npe];
        match self.mask {
            Some(m) if entry.unit_pure[k] == 0 => {
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
        let (hx, hy, hz, lam, mu) = (self.geom)(entry.order[k]);
        crate::elastic::elastic_stiffness(self.basis, hx, hy, hz, lam, mu, s);
        for li in 0..npe {
            let gn = ids[li] as usize;
            for comp in 0..3 {
                let dof = 3 * gn + comp;
                out[dof] += s.out[comp][li] * self.inv_mass[dof];
            }
        }
    }

    /// Process multi-lane unit `k` (SoA gather through the lane-padded
    /// table → batched kernel → SoA scatter of the valid lanes).
    fn unit(
        &self,
        entry: &CompiledGather,
        k: usize,
        u: &[f64],
        s: &mut crate::elastic::Scratch,
        out: &mut [f64],
    ) {
        let base = entry.unit_pos[k] as usize;
        let len = entry.unit_pos[k + 1] as usize - base;
        let w = entry.lanes;
        let npe = self.npe;
        let n = npe * w;
        let ids = &entry.tidx[k * n..(k + 1) * n];
        match self.mask {
            Some(m) if entry.unit_pure[k] == 0 => {
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
        // the entry is multi-lane only where the variant has a kernel
        let batched = batch_elastic_stiffness(
            entry.variant,
            self.basis.n_points(),
            &self.basis.d,
            &self.basis.wgll3,
            &cf,
            &s.vu,
            &mut s.vgrad,
            &mut s.vflux,
            &mut s.vout,
        );
        debug_assert!(batched, "no batched kernel for {:?}", entry.variant);
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
    use crate::dofmap::DofMap;
    use lts_mesh::HexMesh;

    /// A row of `nx` order-1 elements: element `e` gathers the 8 nodes of
    /// its cell, which lie on the `x` planes `e` and `e + 1`.
    fn row(nx: usize) -> DofMap {
        DofMap::new(&HexMesh::uniform(nx, 1, 1, 1.0, 1.0), 1)
    }

    fn row_src<'a>(d: &'a DofMap, ids_of: &'a dyn Fn(u32, &mut Vec<u32>)) -> IdSource<'a> {
        IdSource {
            np: 2,
            n_elems: d.n_elems(),
            n_ids: d.n_nodes(),
            comps: 1,
            ids_of,
            dof_order: None,
        }
    }

    /// Every unit's elements as `order` positions.
    fn units(en: &CompiledGather) -> Vec<Vec<u32>> {
        (0..en.n_units())
            .map(|k| en.order[en.unit_pos[k] as usize..en.unit_pos[k + 1] as usize].to_vec())
            .collect()
    }

    #[test]
    fn cache_compiles_once_per_level_and_list() {
        let d = row(6);
        let ids_of = |e: u32, out: &mut Vec<u32>| d.elem_nodes(e, out);
        let src = row_src(&d, &ids_of);
        let scalar = KernelVariant::Scalar;
        let mut cache = GatherCache::default();
        let elems: Vec<u32> = (0..6).collect();
        for _ in 0..3 {
            let i = cache.get_or_build(0, &elems, &src, None, scalar);
            assert_eq!(i, 0);
        }
        assert_eq!(
            cache.entries.len(),
            1,
            "entry must be compiled exactly once"
        );
        // a 1-lane table's rows are the elements' id lists, colour-major
        let en = cache.entry(0);
        let mut want = Vec::new();
        let mut ids = Vec::new();
        for &e in &en.order {
            d.elem_nodes(e, &mut ids);
            want.extend_from_slice(&ids);
        }
        assert_eq!(en.lanes, 1);
        assert_eq!(en.tidx, want, "rows follow the colour-major order");
        // a different list is a different entry
        let sub: Vec<u32> = vec![1, 3];
        let j = cache.get_or_build(0, &sub, &src, None, scalar);
        assert_eq!(j, 1);
        // the full-mesh sentinel covers every element and keeps no key
        let k = cache.get_or_build(FULL_LEVEL, &[], &src, None, scalar);
        assert_eq!(cache.find(FULL_LEVEL, &elems), Some(k));
        assert_eq!(cache.entry(k).order.len(), 6);
        assert!(cache.entry(k).key.is_empty());
    }

    /// The transposed table of a 4-lane entry: units never straddle a
    /// colour, node `q` of all lanes is contiguous, tail units repeat their
    /// last element, and a unit is pure only if every valid lane is.
    #[test]
    fn table_units_respect_colours_and_transpose() {
        // element p gathers ids 10·p + q, q < 8; odd elements are mixed
        let ids_of = |e: u32, out: &mut Vec<u32>| {
            out.clear();
            out.extend((0..8).map(|q| 10 * e + q));
        };
        let dof_level: Vec<u8> = (0..80u32).map(|id| u8::from((id / 10) % 2 == 0)).collect();
        let mask = LevelMask {
            dof_level: &dof_level,
            level: 1,
        };
        let src = IdSource {
            np: 2,
            n_elems: 8,
            n_ids: 80,
            comps: 1,
            ids_of: &ids_of,
            dof_order: None,
        };
        let mut en = CompiledGather {
            level: 1,
            key: Vec::new(),
            order: (0..8).collect(),
            variant: KernelVariant::Scalar,
            lanes: 1,
            unit_off: Vec::new(),
            unit_pos: Vec::new(),
            tidx: Vec::new(),
            unit_pure: Vec::new(),
        };
        // two colours: 5 + 3 elements
        en.build_table(&[0, 5, 8], &src, Some(mask), KernelVariant::Avx2);
        assert_eq!(en.lanes, 4);
        // colour 0 → one full unit + one 1-element tail; colour 1 → one tail
        assert_eq!(en.unit_off, vec![0, 2, 3]);
        assert_eq!(en.unit_pos, vec![0, 4, 5, 8]);
        let lanes_of = [[0u32, 1, 2, 3], [4, 4, 4, 4], [5, 6, 7, 7]];
        let want: Vec<u32> = lanes_of
            .iter()
            .flat_map(|lanes| (0..8).flat_map(move |q| lanes.map(|p| 10 * p + q)))
            .collect();
        assert_eq!(en.tidx, want);
        // the padded lanes of the 1-element tail repeat pure element 4
        assert_eq!(en.unit_pure, vec![0, 1, 0]);
        // at width 1 the flags are per element
        en.build_table(&[0, 5, 8], &src, Some(mask), KernelVariant::Scalar);
        assert_eq!(en.unit_pure, vec![1, 0, 1, 0, 1, 0, 1, 0]);
        assert_eq!(en.unit_off, vec![0, 5, 8]);
    }

    #[test]
    fn compiled_order_is_colour_major_and_complete() {
        // one id per element (np = 1): pairs (0,1), (2,3), … conflict
        let ids_of = |e: u32, out: &mut Vec<u32>| {
            out.clear();
            out.push(e / 2);
        };
        let src = IdSource {
            np: 1,
            n_elems: 8,
            n_ids: 4,
            comps: 1,
            ids_of: &ids_of,
            dof_order: None,
        };
        let elems: Vec<u32> = (0..8).collect();
        let mut cache = GatherCache::default();
        let i = cache.get_or_build(0, &elems, &src, None, KernelVariant::Scalar);
        let en = cache.entry(i);
        assert_eq!(en.unit_off, vec![0, 4, 8]);
        assert_eq!(en.unit_pos, (0..=8).collect::<Vec<u32>>());
        assert_eq!(en.order, vec![0, 2, 4, 6, 1, 3, 5, 7]);
        let mut all: Vec<u32> = en.order.clone();
        all.sort_unstable();
        assert_eq!(all, elems);
        // every width keeps the colour-major order and cuts units inside
        // the colour spans
        for v in crate::simd::supported_variants() {
            let mut cache = GatherCache::default();
            let d = row(12);
            let ids_of = |e: u32, out: &mut Vec<u32>| d.elem_nodes(e, out);
            let elems: Vec<u32> = (0..12).collect();
            let i = cache.get_or_build(0, &elems, &row_src(&d, &ids_of), None, v);
            let en = cache.entry(i);
            assert_eq!(en.order, vec![0, 2, 4, 6, 8, 10, 1, 3, 5, 7, 9, 11]);
            let starts: Vec<u32> = en
                .unit_off
                .iter()
                .map(|&k| en.unit_pos[k as usize])
                .collect();
            assert_eq!(starts, vec![0, 6, 12], "{v:?}");
            assert!(units(en).iter().all(|u| u.len() <= en.lanes));
        }
    }

    #[test]
    fn pure_flags_follow_the_level_of_every_gathered_dof() {
        // 20 elements in a row; the x planes 0..=17 on level 1, the rest on
        // level 0, so element e is pure iff e < 17
        let d = row(20);
        let dof_level: Vec<u8> = (0..d.n_nodes()).map(|g| u8::from(g % d.gx <= 17)).collect();
        let mask = LevelMask {
            dof_level: &dof_level,
            level: 1,
        };
        let ids_of = |e: u32, out: &mut Vec<u32>| d.elem_nodes(e, out);
        let src = row_src(&d, &ids_of);
        let elems: Vec<u32> = (0..20).collect();
        for (v, lanes) in [(KernelVariant::Scalar, 1), (KernelVariant::Avx512, 8)] {
            let mut cache = GatherCache::default();
            let i = cache.get_or_build(1, &elems, &src, Some(mask), v);
            let en = cache.entry(i);
            assert_eq!(en.lanes, lanes);
            for (k, unit) in units(en).iter().enumerate() {
                let pure = unit.iter().all(|&e| e < 17);
                assert_eq!(en.unit_pure[k], u8::from(pure), "{v:?} unit {unit:?}");
            }
            assert!(en.unit_pure.contains(&0) && en.unit_pure.contains(&1));
        }
        assert_eq!(mask.factor(17), 1.0);
        assert_eq!(mask.factor(18), 0.0);
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
