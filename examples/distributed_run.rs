//! Run partitioned LTS on the real threaded message-passing runtime and
//! watch the stall behaviour of Fig. 1: a level-oblivious partition leaves
//! one rank waiting at every sub-step; SCOTCH-P removes the stall.
//!
//! ```sh
//! cargo run --release --example distributed_run
//! ```

use wave_lts::lts::LtsSetup;
use wave_lts::mesh::{BenchmarkMesh, MeshKind};
use wave_lts::obs::MetricsRegistry;
use wave_lts::partition::{partition_mesh, Strategy};
use wave_lts::runtime::stats::ascii_timeline;
use wave_lts::runtime::{run, Acoustic, DistributedConfig, RunSpec};
use wave_lts::sem::AcousticOperator;

fn main() {
    let bench = BenchmarkMesh::build(MeshKind::Trench, 1_200);
    let op = AcousticOperator::new(&bench.mesh, 3);
    let setup = LtsSetup::new(&op, &bench.levels.elem_level);
    let ndof = op.dofmap.n_nodes();
    println!(
        "trench: {} elements, {} levels, {} DOF (order 3)\n",
        bench.mesh.n_elems(),
        setup.n_levels,
        ndof
    );

    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.013).sin()).collect();
    let v0 = vec![0.0; ndof];
    let n_ranks = 4;
    let steps = 10;
    let cfg = DistributedConfig::new(n_ranks);

    for strategy in [Strategy::ScotchBaseline, Strategy::ScotchP] {
        let part = partition_mesh(&bench.mesh, &bench.levels, n_ranks, strategy, 1);
        let spec = RunSpec {
            elem_level: &bench.levels.elem_level,
            partition: &part,
            dt: bench.levels.dt_global,
            u0: &u0,
            v0: &v0,
            n_steps: steps,
            sources: &[],
            cfg,
        };
        let problem = Acoustic {
            mesh: &bench.mesh,
            order: 3,
        };
        let (u, _, stats) = run(&problem, &spec, None, &mut MetricsRegistry::new())
            .into_result()
            .expect("distributed run failed");
        println!(
            "== {} on {n_ranks} ranks, {steps} global steps ==",
            strategy.name()
        );
        print!("{}", ascii_timeline(&stats, 44));
        let worst = stats
            .iter()
            .map(|s| s.wait_fraction())
            .fold(0.0f64, f64::max);
        println!("worst stall fraction: {:.0}%", 100.0 * worst);
        let norm: f64 = u.iter().map(|x| x * x).sum::<f64>().sqrt();
        println!("‖u‖ after run: {norm:.6} (identical across partitions)\n");
    }
}
