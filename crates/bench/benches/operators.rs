//! Criterion benches: SEM operator applications (full and masked) — the
//! inner kernels whose cost the Eq. 9 model counts — and the build of one
//! rank's sub-operator, the per-rank share of the decomposer's setup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lts_core::{LtsSetup, Operator};
use lts_mesh::{BenchmarkMesh, MeshKind};
use lts_sem::unstructured::UNMAPPED;
use lts_sem::{AcousticOperator, ElasticOperator, UnstructuredAcoustic};
use std::hint::black_box;

fn bench_acoustic_apply(c: &mut Criterion) {
    let mut g = c.benchmark_group("acoustic_apply");
    g.sample_size(20);
    for order in [2usize, 4] {
        let b = BenchmarkMesh::build(MeshKind::Trench, 1_000);
        let op = AcousticOperator::new(&b.mesh, order);
        let n = op.dofmap.n_nodes();
        let u: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut out = vec![0.0; n];
        g.bench_with_input(BenchmarkId::new("order", order), &order, |bch, _| {
            bch.iter(|| {
                op.apply(black_box(&u), &mut out);
                black_box(&out);
            })
        });
    }
    g.finish();
}

fn bench_masked_vs_full(c: &mut Criterion) {
    // the masked product over the fine levels should cost proportionally to
    // the fine element counts, not the mesh size
    let b = BenchmarkMesh::build(MeshKind::Trench, 2_000);
    let op = AcousticOperator::new(&b.mesh, 4);
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    let n = op.dofmap.n_nodes();
    let u: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
    let mut out = vec![0.0; n];
    let mut g = c.benchmark_group("masked_apply");
    g.sample_size(20);
    g.bench_function("full", |bch| {
        bch.iter(|| {
            op.apply(black_box(&u), &mut out);
            black_box(&out);
        })
    });
    for l in 0..setup.n_levels {
        g.bench_with_input(BenchmarkId::new("level", l), &l, |bch, &l| {
            bch.iter(|| {
                op.apply_masked(
                    black_box(&u),
                    &mut out,
                    &setup.elems[l],
                    &setup.dof_level,
                    l as u8,
                );
                black_box(&out);
            })
        });
    }
    g.finish();
}

fn bench_elastic_apply(c: &mut Criterion) {
    let mut g = c.benchmark_group("elastic_apply");
    g.sample_size(15);
    let b = BenchmarkMesh::build(MeshKind::Crust, 600);
    let op = ElasticOperator::poisson(&b.mesh, 4);
    let n = 3 * op.dofmap.n_nodes();
    let u: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
    let mut out = vec![0.0; n];
    g.bench_function("order4", |bch| {
        bch.iter(|| {
            op.apply(black_box(&u), &mut out);
            black_box(&out);
        })
    });
    g.finish();
}

fn bench_subset_build(c: &mut Criterion) {
    // one rank of a 2-rank trench-p4 run: the first half of the elements,
    // grouped by the real leaf levels, masses from the global operator
    let b = BenchmarkMesh::build(MeshKind::Trench, 8_788);
    let order = 4;
    let op = AcousticOperator::new(&b.mesh, order);
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    let half: Vec<u32> = (0..b.mesh.n_elems() as u32 / 2).collect();
    let mass = |g: u32| op.mass()[g as usize];
    let leaf_of = |g: u32| setup.leaf_level[g as usize];
    let mut map = vec![UNMAPPED; op.dofmap.n_nodes()];
    let mut g = c.benchmark_group("subset_build");
    g.sample_size(20);
    g.bench_function("acoustic_half_trench_order4", |bch| {
        bch.iter(|| {
            let built = UnstructuredAcoustic::from_subset_in(
                &b.mesh,
                order,
                black_box(&half),
                Some(&mass),
                &leaf_of,
                &mut map,
            );
            // the map comes back holding the rank's nodes; a rank clears it
            // once after using it as its node index
            for &g in &built.1 {
                map[g as usize] = UNMAPPED;
            }
            black_box(built)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_acoustic_apply,
    bench_masked_vs_full,
    bench_elastic_apply,
    bench_subset_build
);
criterion_main!(benches);
