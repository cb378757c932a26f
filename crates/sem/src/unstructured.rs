//! A gather-list-based acoustic SEM operator: per-element DOF index lists
//! instead of closed-form structured numbering.
//!
//! Two uses:
//!
//! * it is the representation a code for *user-defined* hexahedral meshes
//!   (SPECFEM3D's input model) needs — nothing in the LTS machinery assumes
//!   structure;
//! * it enables a truly distributed-memory runtime: each rank extracts the
//!   sub-operator over *its own* elements with compact local DOF numbering
//!   ([`UnstructuredAcoustic::from_subset`]), so per-rank memory scales with
//!   the partition, not the mesh.
//!
//! Element kernels are shared with the structured operator
//! ([`crate::kernel::scalar_stiffness`]), so contributions are
//! bitwise-identical.

use crate::compiled::{
    self, AcousticEngine, CompiledOp, ElasticEngine, LevelMask, OpWs, ScalarScratch,
};
use crate::dofmap::DofMap;
use crate::elastic::Scratch;
use crate::gll::GllBasis;
use lts_core::setup::local_numbering;
use lts_core::DofTopology;
use lts_mesh::HexMesh;

/// Entry of an idle global → local node map (see
/// [`UnstructuredAcoustic::from_subset_in`]).
pub use lts_core::setup::UNMAPPED;

/// Gather-list acoustic operator.
pub struct UnstructuredAcoustic {
    pub(crate) basis: GllBasis,
    /// Flattened per-element DOF lists, `(order+1)³` entries per element.
    pub elem_dofs: Vec<u32>,
    /// Per-element `(hx, hy, hz, μ)`.
    pub(crate) elem_geom: Vec<(f64, f64, f64, f64)>,
    /// Diagonal mass over the (local) DOF range.
    mass: Vec<f64>,
    /// Reciprocal mass, so the scatter multiplies instead of divides.
    inv_mass: Vec<f64>,
    npe: usize,
    ndof: usize,
}

impl UnstructuredAcoustic {
    /// Build over a subset of a structured mesh's elements, with compact
    /// local DOF numbering (ascending global order). Returns the operator
    /// and `global_of_local`: the global GLL node id of each local DOF.
    ///
    /// The local mass contains only the subset's contributions — exactly
    /// what a rank owns before the assembly exchange; pass `full_mass_of`
    /// to override with globally assembled values (what SPECFEM's ranks
    /// store after the once-per-run mass assembly).
    pub fn from_subset(
        mesh: &HexMesh,
        order: usize,
        elems: &[u32],
        full_mass_of: Option<&dyn Fn(u32) -> f64>,
    ) -> (Self, Vec<u32>) {
        let mut map = vec![UNMAPPED; DofMap::new(mesh, order).n_nodes()];
        let (op, global_of_local, _) =
            Self::from_subset_in(mesh, order, elems, full_mass_of, &|_| 0, &mut map);
        (op, global_of_local)
    }

    /// [`Self::from_subset`] with the local DOFs grouped by the leaf level
    /// `leaf_of(g)` of each global node, finest first (ascending global
    /// order within a level), numbered by
    /// [`lts_core::setup::local_numbering`] in time linear in the subset,
    /// through a caller-owned dense map over the mesh's global GLL nodes;
    /// also returns the local DOFs per leaf level. Every entry of the map
    /// must be [`UNMAPPED`] on entry; on return it maps the subset's nodes
    /// to their local ids, as `local_numbering` leaves it, and the caller
    /// clears those entries (through `global_of_local`) before the next
    /// subset. One map thus serves every rank of a decomposition, as each
    /// rank's global → local node index, without a per-rank pass over the
    /// whole mesh.
    pub fn from_subset_in(
        mesh: &HexMesh,
        order: usize,
        elems: &[u32],
        full_mass_of: Option<&dyn Fn(u32) -> f64>,
        leaf_of: &dyn Fn(u32) -> u8,
        local_of_global: &mut [u32],
    ) -> (Self, Vec<u32>, Vec<usize>) {
        let dofmap = DofMap::new(mesh, order);
        let basis = GllBasis::new(order);
        let npe = dofmap.nodes_per_elem();
        let nodes_of = |e, buf: &mut Vec<u32>| dofmap.elem_nodes(e, buf);
        let (elem_dofs, global_of_local, level_counts) =
            local_numbering(elems, npe, nodes_of, leaf_of, local_of_global);

        let mut elem_geom = Vec::with_capacity(elems.len());
        for &e in elems {
            let (ei, ej, ek) = dofmap.elem_ijk(e);
            let hx = mesh.xs[ei + 1] - mesh.xs[ei];
            let hy = mesh.ys[ej + 1] - mesh.ys[ej];
            let hz = mesh.zs[ek + 1] - mesh.zs[ek];
            let mu = mesh.density[e as usize] * mesh.velocity[e as usize].powi(2);
            elem_geom.push((hx, hy, hz, mu));
        }

        let ndof = global_of_local.len();
        let mut mass = vec![0.0; ndof];
        match full_mass_of {
            Some(f) => {
                for (l, &g) in global_of_local.iter().enumerate() {
                    mass[l] = f(g);
                }
            }
            None => {
                // assemble from the subset's own elements
                let np = basis.n_points();
                for (le, &e) in elems.iter().enumerate() {
                    let (hx, hy, hz, _) = elem_geom[le];
                    let jac = 0.125 * hx * hy * hz;
                    let rho = mesh.density[e as usize];
                    let base = le * npe;
                    let mut li = 0usize;
                    // same association order as the structured assembly so
                    // the masses agree bitwise
                    for c in 0..np {
                        for b in 0..np {
                            let wbc = basis.weights[b] * basis.weights[c];
                            for a in 0..np {
                                let l = elem_dofs[base + li] as usize;
                                mass[l] += rho * basis.weights[a] * wbc * jac;
                                li += 1;
                            }
                        }
                    }
                }
            }
        }
        let inv_mass = mass.iter().map(|&m| 1.0 / m).collect();
        (
            UnstructuredAcoustic {
                basis,
                elem_dofs,
                elem_geom,
                mass,
                inv_mass,
                npe,
                ndof,
            },
            global_of_local,
            level_counts,
        )
    }

    /// Build over the whole mesh (local numbering == global numbering).
    pub fn from_mesh(mesh: &HexMesh, order: usize) -> Self {
        let all: Vec<u32> = (0..mesh.n_elems() as u32).collect();
        let (op, map) = Self::from_subset(mesh, order, &all, None);
        debug_assert!(map.iter().enumerate().all(|(l, &g)| l as u32 == g));
        op
    }
}

impl CompiledOp for UnstructuredAcoustic {
    type Scratch = ScalarScratch;
    const COMPS: usize = 1;

    fn np(&self) -> usize {
        self.basis.n_points()
    }

    fn ids_of(&self, e: u32, out: &mut Vec<u32>) {
        out.clear();
        let base = e as usize * self.npe;
        out.extend_from_slice(&self.elem_dofs[base..base + self.npe]);
    }

    fn inv_mass(&self) -> &[f64] {
        &self.inv_mass
    }

    fn run_compiled(
        &self,
        st: &mut OpWs<ScalarScratch>,
        i: usize,
        threads: usize,
        mask: Option<LevelMask>,
        u: &[f64],
        out: &mut [f64],
    ) {
        let engine = |inv_mass: Option<_>| AcousticEngine {
            mask,
            basis: &self.basis,
            inv_mass: inv_mass.unwrap_or(&self.inv_mass),
            npe: self.npe,
            geom: move |e: u32| self.elem_geom[e as usize],
        };
        st.run_entry(i, threads, engine, u, out);
    }
}

compiled::compiled_operator!(UnstructuredAcoustic);

impl DofTopology for UnstructuredAcoustic {
    fn n_dofs(&self) -> usize {
        self.ndof
    }

    fn n_elems(&self) -> usize {
        self.elem_geom.len()
    }

    fn elem_dofs(&self, e: u32, out: &mut Vec<u32>) {
        out.clear();
        let base = e as usize * self.npe;
        out.extend_from_slice(&self.elem_dofs[base..base + self.npe]);
    }
}

/// Gather-list *elastic* operator (three interleaved components per node),
/// mirroring [`UnstructuredAcoustic`]. Per-element geometry carries
/// `(hx, hy, hz, λ, μ)`.
pub struct UnstructuredElastic {
    pub(crate) basis: GllBasis,
    /// Flattened per-element *node* lists (local node ids), `(order+1)³`
    /// entries per element; DOF `= 3·node + comp`.
    pub elem_nodes: Vec<u32>,
    pub(crate) elem_geom: Vec<(f64, f64, f64, f64, f64)>,
    mass: Vec<f64>,
    /// Reciprocal mass, so the scatter multiplies instead of divides.
    inv_mass: Vec<f64>,
    npe: usize,
    n_nodes: usize,
}

impl UnstructuredElastic {
    /// Build over a subset of elements with compact local node numbering
    /// (Poisson solid: `λ = μ`, `vs/vp = 1/√3`). Returns the operator and
    /// the global GLL node id of each local node.
    pub fn from_subset(
        mesh: &HexMesh,
        order: usize,
        elems: &[u32],
        full_mass_of: Option<&dyn Fn(u32) -> f64>,
    ) -> (Self, Vec<u32>) {
        let mut map = vec![UNMAPPED; DofMap::new(mesh, order).n_nodes()];
        let (op, global_of_local, _) =
            Self::from_subset_in(mesh, order, elems, full_mass_of, &|_| 0, &mut map);
        (op, global_of_local)
    }

    /// [`Self::from_subset`] with grouped local nodes, through a
    /// caller-owned node map, as in [`UnstructuredAcoustic::from_subset_in`]
    /// (the level counts are of local nodes).
    pub fn from_subset_in(
        mesh: &HexMesh,
        order: usize,
        elems: &[u32],
        full_mass_of: Option<&dyn Fn(u32) -> f64>,
        leaf_of: &dyn Fn(u32) -> u8,
        local_of_global: &mut [u32],
    ) -> (Self, Vec<u32>, Vec<usize>) {
        let dofmap = DofMap::new(mesh, order);
        let basis = GllBasis::new(order);
        let npe = dofmap.nodes_per_elem();
        let nodes_of = |e, buf: &mut Vec<u32>| dofmap.elem_nodes(e, buf);
        let (elem_nodes, global_of_local, level_counts) =
            local_numbering(elems, npe, nodes_of, leaf_of, local_of_global);
        let mut elem_geom = Vec::with_capacity(elems.len());
        let vs_over_vp = 1.0 / 3.0f64.sqrt();
        for &e in elems {
            let (ei, ej, ek) = dofmap.elem_ijk(e);
            let hx = mesh.xs[ei + 1] - mesh.xs[ei];
            let hy = mesh.ys[ej + 1] - mesh.ys[ej];
            let hz = mesh.zs[ek + 1] - mesh.zs[ek];
            let rho = mesh.density[e as usize];
            let vp = mesh.velocity[e as usize];
            let vs = vp * vs_over_vp;
            let mu = rho * vs * vs;
            let lam = rho * vp * vp - 2.0 * mu;
            elem_geom.push((hx, hy, hz, lam, mu));
        }
        let n_nodes = global_of_local.len();
        let mut mass = vec![0.0; 3 * n_nodes];
        match full_mass_of {
            Some(f) => {
                for (l, &g) in global_of_local.iter().enumerate() {
                    // the structured elastic mass replicates per component
                    let m = f(g);
                    mass[3 * l] = m;
                    mass[3 * l + 1] = m;
                    mass[3 * l + 2] = m;
                }
            }
            None => {
                let np = basis.n_points();
                for (le, &e) in elems.iter().enumerate() {
                    let (hx, hy, hz, _, _) = elem_geom[le];
                    let jac = 0.125 * hx * hy * hz;
                    let rho = mesh.density[e as usize];
                    let base = le * npe;
                    let mut li = 0usize;
                    for c in 0..np {
                        for b in 0..np {
                            let wbc = basis.weights[b] * basis.weights[c];
                            for a in 0..np {
                                let l = elem_nodes[base + li] as usize;
                                let m = rho * basis.weights[a] * wbc * jac;
                                mass[3 * l] += m;
                                mass[3 * l + 1] += m;
                                mass[3 * l + 2] += m;
                                li += 1;
                            }
                        }
                    }
                }
            }
        }
        let inv_mass = mass.iter().map(|&m| 1.0 / m).collect();
        (
            UnstructuredElastic {
                basis,
                elem_nodes,
                elem_geom,
                mass,
                inv_mass,
                npe,
                n_nodes,
            },
            global_of_local,
            level_counts,
        )
    }

    /// Build over the whole mesh (local == global node numbering).
    pub fn from_mesh(mesh: &HexMesh, order: usize) -> Self {
        let all: Vec<u32> = (0..mesh.n_elems() as u32).collect();
        Self::from_subset(mesh, order, &all, None).0
    }
}

impl CompiledOp for UnstructuredElastic {
    type Scratch = Scratch;
    const COMPS: usize = 3;

    fn np(&self) -> usize {
        self.basis.n_points()
    }

    fn ids_of(&self, e: u32, out: &mut Vec<u32>) {
        out.clear();
        let base = e as usize * self.npe;
        out.extend_from_slice(&self.elem_nodes[base..base + self.npe]);
    }

    fn inv_mass(&self) -> &[f64] {
        &self.inv_mass
    }

    fn run_compiled(
        &self,
        st: &mut OpWs<Scratch>,
        i: usize,
        threads: usize,
        mask: Option<LevelMask>,
        u: &[f64],
        out: &mut [f64],
    ) {
        let engine = |inv_mass: Option<_>| ElasticEngine {
            mask,
            basis: &self.basis,
            inv_mass: inv_mass.unwrap_or(&self.inv_mass),
            npe: self.npe,
            geom: move |e: u32| self.elem_geom[e as usize],
        };
        st.run_entry(i, threads, engine, u, out);
    }
}

compiled::compiled_operator!(UnstructuredElastic);

impl DofTopology for UnstructuredElastic {
    fn n_dofs(&self) -> usize {
        3 * self.n_nodes
    }

    fn n_elems(&self) -> usize {
        self.elem_geom.len()
    }

    fn elem_dofs(&self, e: u32, out: &mut Vec<u32>) {
        out.clear();
        let base = e as usize * self.npe;
        for &node in &self.elem_nodes[base..base + self.npe] {
            out.push(3 * node);
            out.push(3 * node + 1);
            out.push(3 * node + 2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acoustic::AcousticOperator;
    use lts_core::Operator;

    fn mesh() -> HexMesh {
        let mut m = HexMesh::uniform(4, 3, 2, 1.0, 1.2);
        m.paint_box((2, 4), (0, 3), (0, 2), 2.0, 1.2);
        m
    }

    #[test]
    fn full_mesh_matches_structured_bitwise() {
        let m = mesh();
        let order = 3;
        let s = AcousticOperator::new(&m, order);
        let u_op = UnstructuredAcoustic::from_mesh(&m, order);
        let n = Operator::ndof(&s);
        assert_eq!(Operator::ndof(&u_op), n);
        // same mass
        for i in 0..n {
            assert_eq!(s.mass()[i], u_op.mass()[i], "mass {i}");
        }
        let u: Vec<f64> = (0..n)
            .map(|i| ((i * 31 % 23) as f64) / 23.0 - 0.5)
            .collect();
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        s.apply(&u, &mut a);
        u_op.apply(&u, &mut b);
        for i in 0..n {
            assert_eq!(a[i], b[i], "dof {i}");
        }
    }

    #[test]
    fn elastic_full_mesh_matches_structured_bitwise() {
        use crate::elastic::ElasticOperator;
        let m = mesh();
        let order = 2;
        let s = ElasticOperator::poisson(&m, order);
        let u_op = UnstructuredElastic::from_mesh(&m, order);
        let n = Operator::ndof(&s);
        assert_eq!(Operator::ndof(&u_op), n);
        for i in 0..n {
            assert_eq!(s.mass()[i], u_op.mass()[i], "mass {i}");
        }
        let u: Vec<f64> = (0..n)
            .map(|i| ((i * 17 % 19) as f64) / 19.0 - 0.5)
            .collect();
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        s.apply(&u, &mut a);
        u_op.apply(&u, &mut b);
        for i in 0..n {
            assert_eq!(a[i], b[i], "dof {i}");
        }
    }

    #[test]
    fn elastic_subset_is_local() {
        let m = mesh();
        let (op, map) = UnstructuredElastic::from_subset(&m, 2, &[0, 1], None);
        // 2×1×1 patch at order 2 → 5×3×3 nodes, ×3 components
        assert_eq!(DofTopology::n_dofs(&op), 3 * 5 * 3 * 3);
        assert_eq!(map.len(), 5 * 3 * 3);
        assert!(op.mass().iter().all(|&x| x > 0.0));
    }

    #[test]
    fn subset_operator_is_local() {
        let m = mesh();
        let order = 2;
        let elems: Vec<u32> = vec![0, 1, 4, 5]; // a 2×2 patch
        let (op, map) = UnstructuredAcoustic::from_subset(&m, order, &elems, None);
        // local DOF count: patch of 2×2×1 elements at order 2 → 5×5×3 nodes
        assert_eq!(DofTopology::n_dofs(&op), 5 * 5 * 3);
        assert_eq!(map.len(), 5 * 5 * 3);
        assert!(map.windows(2).all(|w| w[1] > w[0]), "local order ascending");
        // mass positive
        assert!(op.mass().iter().all(|&x| x > 0.0));
    }

    #[test]
    fn shared_node_map_serves_subsets_in_turn() {
        // one map numbers several subsets in turn, as the rank decomposer
        // does; each must match a fresh from_subset and leave the map
        // holding its local ids, which the caller clears
        let m = mesh();
        let order = 2;
        let mut map = vec![UNMAPPED; DofMap::new(&m, order).n_nodes()];
        let clear = |map: &mut [u32], g: &[u32]| {
            for (l, &g) in g.iter().enumerate() {
                assert_eq!(map[g as usize], l as u32);
                map[g as usize] = UNMAPPED;
            }
            assert!(map.iter().all(|&l| l == UNMAPPED));
        };
        for elems in [vec![0u32, 1, 4, 5], vec![2, 3, 6, 7, 14], vec![23]] {
            let (a, ga) = UnstructuredAcoustic::from_subset(&m, order, &elems, None);
            let (b, gb, counts) =
                UnstructuredAcoustic::from_subset_in(&m, order, &elems, None, &|_| 0, &mut map);
            assert_eq!((a.elem_dofs, a.mass), (b.elem_dofs, b.mass));
            assert_eq!(ga, gb);
            assert_eq!(counts, vec![gb.len()]);
            clear(&mut map, &gb);
            let (a, ga) = UnstructuredElastic::from_subset(&m, order, &elems, None);
            let (b, gb, counts) =
                UnstructuredElastic::from_subset_in(&m, order, &elems, None, &|_| 0, &mut map);
            assert_eq!((a.elem_nodes, a.mass), (b.elem_nodes, b.mass));
            assert_eq!(ga, gb);
            assert_eq!(counts, vec![gb.len()]);
            clear(&mut map, &gb);
        }
    }

    #[test]
    fn subset_with_global_mass_matches_structured_rows() {
        // with the globally assembled mass, a subset apply over its own
        // elements equals the structured masked contribution
        let m = mesh();
        let order = 2;
        let s = AcousticOperator::new(&m, order);
        let elems: Vec<u32> = vec![0, 1, 2];
        let s_mass = s.mass().to_vec();
        let (op, map) =
            UnstructuredAcoustic::from_subset(&m, order, &elems, Some(&|g| s_mass[g as usize]));
        let n_global = Operator::ndof(&s);
        let u_global: Vec<f64> = (0..n_global).map(|i| (i as f64 * 0.17).sin()).collect();
        let u_local: Vec<f64> = map.iter().map(|&g| u_global[g as usize]).collect();
        let mut out_local = vec![0.0; map.len()];
        op.apply(&u_local, &mut out_local);
        // structured: accumulate only those elements
        let mut out_global = vec![0.0; n_global];
        let dof_level = vec![0u8; n_global];
        s.apply_masked(&u_global, &mut out_global, &elems, &dof_level, 0);
        for (l, &g) in map.iter().enumerate() {
            assert_eq!(
                out_local[l], out_global[g as usize],
                "local {l} / global {g}"
            );
        }
    }
}
