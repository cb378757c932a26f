//! Criterion microbenches of the allocation-free SEM hot path: the
//! sum-factorized element stiffness kernel across orders, the masked
//! product serial vs the colored `apply_masked_threads` at 2 and 4 workers,
//! and the paper's Sec. V cache-utilization sweep — element throughput of
//! the scalar vs batched-SIMD stiffness product at orders 1–4
//! (`simd_stiffness/p{order}/{variant}`, reported in elements/second) and
//! at p=4 on the benchmark's 8,788-element mesh
//! (`simd_stiffness/p4_e8788/{variant}`), and the compile of one masked
//! gather entry per level of that mesh (`gather_compile/p4_e8788/l{level}`).
//!
//! Every threaded or vectorized variant is asserted **bitwise identical**
//! to the serial scalar path before the first timed iteration — a
//! wrong-but-fast kernel never gets a number.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lts_core::{LtsSetup, Operator, Workspace};
use lts_mesh::{BenchmarkMesh, Levels, MeshKind};
use lts_sem::gll::GllBasis;
use lts_sem::kernel::scalar_stiffness;
use lts_sem::simd::{cpu_features, supported_variants, ForceVariant, KernelVariant};
use lts_sem::{AcousticOperator, ElasticOperator, ElementColoring};
use std::hint::black_box;

fn bench_scalar_stiffness(c: &mut Criterion) {
    let mut g = c.benchmark_group("scalar_stiffness");
    g.sample_size(30);
    for order in [2usize, 4, 6] {
        let basis = GllBasis::new(order);
        let npe = (order + 1).pow(3);
        let loc: Vec<f64> = (0..npe).map(|i| (i as f64 * 0.17).sin()).collect();
        let mut tmp = vec![0.0; npe];
        let mut der = vec![0.0; npe];
        g.bench_with_input(BenchmarkId::new("order", order), &order, |bch, _| {
            bch.iter(|| {
                scalar_stiffness(
                    &basis,
                    1.0,
                    0.9,
                    1.1,
                    2.0,
                    black_box(&loc),
                    &mut tmp,
                    &mut der,
                );
                black_box(&der);
            })
        });
    }
    g.finish();
}

fn bench_masked_threads(c: &mut Criterion) {
    let b = BenchmarkMesh::build(MeshKind::Trench, 2_000);
    let op = AcousticOperator::new(&b.mesh, 4);
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    let n = Operator::ndof(&op);
    let u: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
    // the busiest masked product: the level with the most elements
    let level = (0..setup.n_levels)
        .max_by_key(|&l| setup.elems[l].len())
        .unwrap();
    let elems = &setup.elems[level];

    let mut reference = vec![0.0; n];
    let mut ws_serial = Workspace::new();
    op.apply_masked_ws(
        &u,
        &mut reference,
        elems,
        &setup.dof_level,
        level as u8,
        &mut ws_serial,
    );

    let mut g = c.benchmark_group("masked_apply_threads");
    g.sample_size(20);
    for threads in [1usize, 2, 4] {
        let mut ws = Workspace::new();
        let mut out = vec![0.0; n];
        op.apply_masked_threads(
            &u,
            &mut out,
            elems,
            &setup.dof_level,
            level as u8,
            &mut ws,
            threads,
        );
        for i in 0..n {
            assert_eq!(
                out[i].to_bits(),
                reference[i].to_bits(),
                "threads={threads} must be bitwise identical before timing"
            );
        }
        g.bench_with_input(BenchmarkId::new("threads", threads), &threads, |bch, &t| {
            bch.iter(|| {
                op.apply_masked_threads(
                    black_box(&u),
                    &mut out,
                    elems,
                    &setup.dof_level,
                    level as u8,
                    &mut ws,
                    t,
                );
                black_box(&out);
            })
        });
    }
    g.finish();
}

/// Sec. V cache-utilization sweep: serial masked stiffness product over a
/// single-level trench mesh at orders 1–4, once per kernel variant the
/// host supports (`simd_stiffness/p{order}/{variant}`), and the same p=4
/// product on the benchmark's 8,788-element trench
/// (`simd_stiffness/p4_e8788/{variant}`), so one run shows the gap between
/// the small mesh and mesh scale. Criterion's `Throughput::Elements` turns
/// the measured time directly into `elem_ops_per_sec`; the acceptance
/// target is the widest variant reaching ≥5× the scalar throughput at p=4.
fn bench_simd_stiffness(c: &mut Criterion) {
    eprintln!("# host features: {}", cpu_features());
    let mut g = c.benchmark_group("simd_stiffness");
    g.sample_size(20);
    for (elements, orders, suffix) in [(1_000, 1usize..=4, ""), (8_788, 4..=4, "_e8788")] {
        let b = BenchmarkMesh::build(MeshKind::Trench, elements);
        // one level: the sweep times raw element throughput, not LTS masking
        let levels = Levels::assign(&b.mesh, 0.5, 1);
        for order in orders {
            let op = AcousticOperator::new(&b.mesh, order);
            let setup = LtsSetup::new(&op, &levels.elem_level);
            let elems = &setup.elems[0];
            let n = Operator::ndof(&op);
            let u: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
            let mut reference = vec![0.0; n];
            {
                let _sc = ForceVariant::new(KernelVariant::Scalar);
                let mut ws = Workspace::new();
                op.apply_masked_ws(&u, &mut reference, elems, &setup.dof_level, 0, &mut ws);
            }
            g.throughput(Throughput::Elements(elems.len() as u64));
            for v in supported_variants() {
                let _force = ForceVariant::new(v);
                let mut ws = Workspace::new();
                let mut out = vec![0.0; n];
                op.apply_masked_ws(&u, &mut out, elems, &setup.dof_level, 0, &mut ws);
                for i in 0..n {
                    assert_eq!(
                        out[i].to_bits(),
                        reference[i].to_bits(),
                        "{} on {elements} elements must be bitwise identical to scalar \
                         before timing",
                        v.name()
                    );
                }
                g.bench_with_input(
                    BenchmarkId::new(format!("p{order}{suffix}"), v.name()),
                    &order,
                    |bch, _| {
                        bch.iter(|| {
                            op.apply_masked_ws(
                                black_box(&u),
                                &mut out,
                                elems,
                                &setup.dof_level,
                                0,
                                &mut ws,
                            );
                            black_box(&out);
                        })
                    },
                );
            }
        }
    }
    g.finish();
}

/// The elastic sibling at the paper's production order (p=4) only — the
/// elastic batch moves 3 fields + 9 gradients per node, so this is the
/// memory-heaviest point of the sweep.
fn bench_simd_elastic(c: &mut Criterion) {
    let b = BenchmarkMesh::build(MeshKind::Trench, 500);
    let levels = Levels::assign(&b.mesh, 0.5, 1);
    let op = ElasticOperator::poisson(&b.mesh, 4);
    let setup = LtsSetup::new(&op, &levels.elem_level);
    let elems = &setup.elems[0];
    let n = Operator::ndof(&op);
    let u: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
    let mut reference = vec![0.0; n];
    {
        let _sc = ForceVariant::new(KernelVariant::Scalar);
        let mut ws = Workspace::new();
        op.apply_masked_ws(&u, &mut reference, elems, &setup.dof_level, 0, &mut ws);
    }
    let mut g = c.benchmark_group("simd_stiffness_elastic");
    g.sample_size(20);
    g.throughput(Throughput::Elements(elems.len() as u64));
    for v in supported_variants() {
        let _force = ForceVariant::new(v);
        let mut ws = Workspace::new();
        let mut out = vec![0.0; n];
        op.apply_masked_ws(&u, &mut out, elems, &setup.dof_level, 0, &mut ws);
        for i in 0..n {
            assert_eq!(
                out[i].to_bits(),
                reference[i].to_bits(),
                "elastic {} must be bitwise identical to scalar before timing",
                v.name()
            );
        }
        g.bench_with_input(BenchmarkId::new("p4", v.name()), &v, |bch, _| {
            bch.iter(|| {
                op.apply_masked_ws(black_box(&u), &mut out, elems, &setup.dof_level, 0, &mut ws);
                black_box(&out);
            })
        });
    }
    g.finish();
}

/// The compile of one masked entry per LTS level of the benchmark's
/// order-4, 8,788-element trench (`gather_compile/p4_e8788/l{level}`): the
/// corner colouring plus the one lane-transposed id table at the active
/// variant, into a fresh workspace each iteration. Before timing, every
/// level's corner classes are asserted equal to the classes of colouring
/// over all gathered ids.
fn bench_gather_compile(c: &mut Criterion) {
    let b = BenchmarkMesh::build(MeshKind::Trench, 8_788);
    let op = AcousticOperator::new(&b.mesh, 4);
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    let (np, n_nodes) = (op.basis.n_points(), op.dofmap.n_nodes());
    let mut g = c.benchmark_group("gather_compile");
    g.sample_size(15);
    for (l, elems) in setup.elems.iter().enumerate() {
        let mut ids_of = |e: u32, out: &mut Vec<u32>| op.dofmap.elem_nodes(e, out);
        let all = ElementColoring::greedy(elems, n_nodes, &mut ids_of);
        let corners = ElementColoring::greedy_corners(elems, n_nodes, np, &mut ids_of);
        assert_eq!(
            corners.classes, all.classes,
            "level {l}: corner classes must equal all-id classes before timing"
        );
        g.throughput(Throughput::Elements(elems.len() as u64));
        g.bench_function(BenchmarkId::new("p4_e8788", format!("l{l}")), |bch| {
            bch.iter(|| {
                let mut ws = Workspace::new();
                op.precompile_masked(elems, &setup.dof_level, l as u8, &mut ws);
                black_box(ws)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_scalar_stiffness,
    bench_masked_threads,
    bench_simd_stiffness,
    bench_simd_elastic,
    bench_gather_compile
);
criterion_main!(benches);
