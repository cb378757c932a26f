//! Eq. 9 check — single-core LTS efficiency.
//!
//! The paper reports > 90 % single-threaded efficiency of the LTS
//! implementation relative to the ideal speed-up model. Here both are
//! measured on the real SEM operator: wall-clock LTS vs non-LTS (at
//! `Δt/p_max`), compared with the Eq. 9 model and with the masked-work
//! element-operation counts. The stepper groups DOFs by p-level
//! (Sec. IV-D) internally, as every LTS stepper here does.

use lts_bench::{Args, Table};
use lts_core::{LtsNewmark, LtsSetup, Newmark};
use lts_mesh::{BenchmarkMesh, MeshKind};
use lts_sem::AcousticOperator;
use std::time::Instant;

fn main() {
    let args = Args::parse(&["elements", "order", "cycles"]);
    let elements: usize = args.get("elements", 3_000);
    let order: usize = args.get("order", 4);
    let cycles: usize = args.get("cycles", 3);
    let b = BenchmarkMesh::build(MeshKind::Trench, elements);
    let op = AcousticOperator::new(&b.mesh, order);
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    let ndof = op.dofmap.n_nodes();
    eprintln!(
        "# trench {} elements, order {} → {} DOF, {} levels",
        b.mesh.n_elems(),
        order,
        ndof,
        setup.n_levels,
    );

    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.37).sin()).collect();
    let model = b.levels.speedup_model();
    let p_max = 1usize << (setup.n_levels - 1);
    let dt = b.levels.dt_global * lts_sem::gll::cfl_dt_scale(order, 3);

    // LTS: `cycles` global steps
    let mut u = u0.clone();
    let mut v = vec![0.0; ndof];
    let mut lts = LtsNewmark::new(&op, &setup, dt);
    let t0 = Instant::now();
    lts.run(&mut u, &mut v, 0.0, cycles, &[]);
    let t_lts = t0.elapsed().as_secs_f64();

    // non-LTS: the same simulated time at Δt/p_max
    let mut u = u0.clone();
    let mut v = vec![0.0; ndof];
    let mut nm = Newmark::new(&op, dt / p_max as f64);
    let t0 = Instant::now();
    nm.run(&mut u, &mut v, 0.0, cycles * p_max, &[]);
    let t_global = t0.elapsed().as_secs_f64();

    let measured = t_global / t_lts;
    let ideal = model.speedup();
    let op_ratio = setup.global_elem_ops() as f64 / setup.lts_elem_ops() as f64;

    let mut t = Table::new(&["quantity", "value"]);
    t.row(vec!["Eq. 9 model speed-up".into(), format!("{ideal:.2}x")]);
    t.row(vec![
        "masked-work op-count speed-up".into(),
        format!("{op_ratio:.2}x"),
    ]);
    t.row(vec![
        "measured wall-clock speed-up".into(),
        format!("{measured:.2}x"),
    ]);
    t.row(vec![
        "single-core LTS efficiency".into(),
        format!("{:.0}%", 100.0 * measured / ideal),
    ]);
    t.row(vec![
        "masked-op overhead (halo elements)".into(),
        format!("{:.0}%", 100.0 * (ideal / op_ratio - 1.0)),
    ]);
    println!("Eq. 9 — single-core LTS efficiency (paper: > 90%)");
    t.print();
}
