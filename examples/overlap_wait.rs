//! Measure the stall reduction from communication/computation overlap at
//! 8 ranks: sends posted after the full apply (blocking) vs. between the
//! boundary and interior applies (overlap).
//!
//! Two regimes, each repeated and averaged:
//!
//! * **zero-latency** — raw in-process channels. On a single-CPU host the
//!   aggregate wait fraction is pinned near `(ranks-1)/ranks` by
//!   time-sharing (the busy sums equal the wall clock), so overlap cannot
//!   move it; this run documents the floor.
//! * **emulated wire latency** — messages mature `T` after they were
//!   posted ([`channel_cluster_with`]), like an in-flight MPI message;
//!   the sender is not held up by the wire. In blocking mode every rank
//!   posts at the end of its apply and the whole fabric idles while the
//!   last partials mature; with overlap they are posted before the
//!   interior apply and mature *during* it. This is exactly the latency
//!   the paper's asynchronous exchange hides.
//!
//! The committed numbers live in EXPERIMENTS.md ("Comm/compute overlap at
//! 8 ranks"). Both modes must produce bitwise-identical fields.
//!
//! ```sh
//! cargo run --release --example overlap_wait -- 2000 12 5 300
//! ```
//! (elements, global steps, repetitions, wire latency in µs — all optional)

use std::time::Duration;
use wave_lts::mesh::{BenchmarkMesh, MeshKind};
use wave_lts::obs::MetricsRegistry;
use wave_lts::partition::{partition_mesh, Strategy};
use wave_lts::runtime::stats::names;
use wave_lts::runtime::transport::channel::{channel_cluster_with, DEFAULT_CAPACITY};
use wave_lts::runtime::{run, Acoustic, DistributedConfig, RunSpec};

const RANKS: usize = 8;

fn arg(n: usize, default: usize) -> usize {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

struct World {
    bench: BenchmarkMesh,
    part: Vec<u32>,
    u0: Vec<f64>,
    v0: Vec<f64>,
    steps: usize,
}

struct Cell {
    wait_fraction: f64,
    wait_sum_s: f64,
    wall_s: f64,
    /// Fraction of received partials that were already delivered when the
    /// receiver reached its exchange point (`exchange.partials_ready` /
    /// `msgs_sent`) — the scheduler-independent witness of overlap.
    ready_fraction: f64,
    norm_bits: u64,
}

/// Run one configuration `reps` times; means over the repetitions.
fn measure(w: &World, overlap: bool, latency: Duration, reps: usize) -> Cell {
    let cfg = DistributedConfig {
        overlap,
        ..DistributedConfig::new(RANKS)
    };
    let (mut frac_sum, mut wall_sum, mut wait_sums, mut ready_sum) = (0.0, 0.0, 0.0, 0.0);
    let mut norm_bits = 0u64;
    for _ in 0..reps {
        let endpoints = channel_cluster_with(RANKS, DEFAULT_CAPACITY, latency);
        let spec = RunSpec {
            elem_level: &w.bench.levels.elem_level,
            partition: &w.part,
            dt: w.bench.levels.dt_global,
            u0: &w.u0,
            v0: &w.v0,
            n_steps: w.steps,
            sources: &[],
            cfg,
        };
        let problem = Acoustic {
            mesh: &w.bench.mesh,
            order: 2,
        };
        let started = std::time::Instant::now();
        let out = run(
            &problem,
            &spec,
            Some(endpoints),
            &mut MetricsRegistry::new(),
        );
        wall_sum += started.elapsed().as_secs_f64();
        let (mut busy, mut wait) = (0.0, 0.0);
        let (mut ready, mut partials) = (0u64, 0u64);
        for (rank, st) in out.ranks.into_iter().enumerate() {
            let stats = st.unwrap_or_else(|e| panic!("rank {rank}: {e}"));
            busy += stats.busy_s;
            wait += stats.wait_s;
            ready += stats.registry.counter_total(names::EXCHANGE_READY);
            partials += stats.msgs_sent;
        }
        let (u, _) = out.fields.expect("every rank succeeded");
        let norm2: f64 = u.iter().map(|x| x * x).sum();
        frac_sum += wait / (busy + wait);
        wait_sums += wait;
        ready_sum += ready as f64 / partials.max(1) as f64;
        norm_bits = norm2.sqrt().to_bits();
    }
    Cell {
        wait_fraction: frac_sum / reps as f64,
        wait_sum_s: wait_sums / reps as f64,
        wall_s: wall_sum / reps as f64,
        ready_fraction: ready_sum / reps as f64,
        norm_bits,
    }
}

fn main() {
    let elements = arg(1, 2_000);
    let steps = arg(2, 12);
    let reps = arg(3, 5);
    let latency_us = arg(4, 300) as u64;

    let bench = BenchmarkMesh::build(MeshKind::Trench, elements);
    let ndof = bench.mesh.n_gll_nodes(2);
    let part = partition_mesh(&bench.mesh, &bench.levels, RANKS, Strategy::ScotchP, 1);
    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.013).sin()).collect();
    let v0 = vec![0.0; ndof];
    println!(
        "trench {} elems, order 2, {} levels, {RANKS} ranks (scotch-p), \
         {steps} steps x {reps} reps per cell\n",
        bench.mesh.n_elems(),
        bench.levels.n_levels,
    );
    let w = World {
        bench,
        part,
        u0,
        v0,
        steps,
    };

    for latency_case in [0u64, latency_us] {
        let latency = Duration::from_micros(latency_case);
        let label = if latency_case == 0 {
            "zero-latency (single-CPU time-sharing floor)".to_string()
        } else {
            format!("emulated {latency_case} us wire latency")
        };
        let bl = measure(&w, false, latency, reps);
        let ov = measure(&w, true, latency, reps);
        assert_eq!(
            bl.norm_bits, ov.norm_bits,
            "{label}: overlap changed the solution"
        );
        println!("== {label} ==");
        println!(
            "  blocking: wait fraction {:.3}   wait sum {:.3}s   wall {:.3}s   ready partials {:.3}",
            bl.wait_fraction, bl.wait_sum_s, bl.wall_s, bl.ready_fraction
        );
        println!(
            "  overlap : wait fraction {:.3}   wait sum {:.3}s   wall {:.3}s   ready partials {:.3}",
            ov.wait_fraction, ov.wait_sum_s, ov.wall_s, ov.ready_fraction
        );
        println!(
            "  wait-sum change {:+.1}%   wall change {:+.1}%   ready-partials change {:+.3}\n",
            100.0 * (ov.wait_sum_s / bl.wait_sum_s - 1.0),
            100.0 * (ov.wall_s / bl.wall_s - 1.0),
            ov.ready_fraction - bl.ready_fraction,
        );
    }
}
