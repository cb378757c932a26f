//! `wave-lts` — command-line front end.
//!
//! ```text
//! wave-lts info      --mesh trench --elements 100000
//! wave-lts partition --mesh trench --elements 50000 --parts 16 --strategy scotch-p
//! wave-lts simulate  --mesh crust  --elements 20000 --steps 100 [--order 4] [--elastic true]
//!                    [--threads 4]   # intra-rank workers; results stay bitwise identical
//!                    [--ranks 8] [--transport channel|unix-socket|process]
//!                    [--overlap true]   # comm/compute overlap; bitwise identical
//!                    [--trace-out t.json]   # Chrome trace of the flight rings
//! ```
//!
//! `--transport process` spawns one `wave-lts worker` OS process per rank
//! and routes halo frames over Unix sockets; `worker` is the internal
//! subcommand those processes run (not meant to be invoked by hand). All
//! transports produce bitwise-identical fields and identical deterministic
//! counters.
//!
//! Fault injection & post-mortem:
//!
//! ```text
//! wave-lts simulate --ranks 4 --fault-rank 1 --fault-die-at-level 1 \
//!                   [--fault-die-after-k K] [--fault-recv-timeout-ms MS]
//!                   [--fault-drop-every N] [--crash-report out.json] [--flight 4096]
//! wave-lts postmortem --file out.json [--trace-out merged.trace.json]
//! ```
//!
//! A failed distributed run exits 4 after writing the crash report (JSON +
//! `.txt` + `.trace.json`); `postmortem` re-parses a report, validates the
//! causal merge and prints the critical-path attribution.

use std::collections::HashMap;
use std::fs::File;
use wave_lts::lts::{LtsNewmark, LtsSetup, Newmark, Operator};
use wave_lts::mesh::io as mesh_io;
use wave_lts::mesh::{BenchmarkMesh, MeshKind};
use wave_lts::obs::{flight_chrome_trace, FlightRecorder};
use wave_lts::partition::{edge_cut, load_imbalance, mpi_volume, partition_mesh, Strategy};
use wave_lts::runtime::stats::{ascii_timeline, lambda_from_stats};
use wave_lts::runtime::{
    run, Acoustic, Decompose, DistributedConfig, Elastic, MonitorConfig, RunOutput, RunSpec,
};
use wave_lts::sem::gll::cfl_dt_scale;
use wave_lts::sem::{AcousticOperator, ElasticOperator};

const MESH_FLAGS: &[&str] = &["mesh", "elements", "geometry"];
const PARTITION_FLAGS: &[&str] = &["parts", "seed", "strategy", "out"];
/// What `simulate` passes on to every `worker` process (besides the mesh).
const RUN_FLAGS: &[&str] = &[
    "order", "steps", "elastic", "strategy", "seed", "threads", "overlap", "flight",
];
const FAULT_FLAGS: &[&str] = &[
    "fault-rank",
    "fault-die-at-level",
    "fault-die-after-k",
    "fault-recv-timeout-ms",
    "fault-drop-every",
    "fault-send-delay-us",
];
const SIMULATE_FLAGS: &[&str] = &["compare", "ranks", "transport", "crash-report", "trace-out"];
const WORKER_FLAGS: &[&str] = &["dt-bits", "u0-bits", "socket", "rank", "ranks"];
const EXPORT_FLAGS: &[&str] = &["out"];
const POSTMORTEM_FLAGS: &[&str] = &["file", "trace-out"];

#[cold]
fn usage_error(msg: &str) -> ! {
    eprintln!("wave-lts: {msg}");
    std::process::exit(2);
}

/// Parse `--key value` pairs; a flag outside `accepted`, a flag without a
/// value, or a stray word is a usage error (exit 2).
fn parse_args(cmd: &str, argv: &[String], accepted: &[&[&str]]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        let Some(key) = arg.strip_prefix("--") else {
            usage_error(&format!("{cmd}: unexpected argument {arg:?}"));
        };
        if !accepted.iter().any(|list| list.contains(&key)) {
            usage_error(&format!("{cmd}: unknown flag --{key}"));
        }
        let Some(value) = rest.next() else {
            usage_error(&format!("{cmd}: --{key} needs a value"));
        };
        map.insert(key.to_string(), value.clone());
    }
    map
}

/// `--k` parsed as `T`, if given; an unparsable value is a usage error.
fn opt<T: std::str::FromStr>(m: &HashMap<String, String>, k: &str) -> Option<T> {
    m.get(k).map(|v| {
        v.parse()
            .unwrap_or_else(|_| usage_error(&format!("invalid value {v:?} for --{k}")))
    })
}

fn get<T: std::str::FromStr>(m: &HashMap<String, String>, k: &str, default: T) -> T {
    opt(m, k).unwrap_or(default)
}

fn mesh_kind(name: &str) -> MeshKind {
    match name {
        "trench" => MeshKind::Trench,
        "trench-big" => MeshKind::TrenchBig,
        "embedding" => MeshKind::Embedding,
        "crust" => MeshKind::Crust,
        other => {
            eprintln!("unknown mesh {other:?}; expected trench|trench-big|embedding|crust");
            std::process::exit(2);
        }
    }
}

fn strategy(name: &str) -> Strategy {
    match name {
        "scotch" => Strategy::ScotchBaseline,
        "scotch-p" => Strategy::ScotchP,
        "metis" => Strategy::MetisMc,
        "patoh" => Strategy::Patoh { final_imbal: 0.05 },
        "patoh-0.01" => Strategy::Patoh { final_imbal: 0.01 },
        other => {
            eprintln!(
                "unknown strategy {other:?}; expected scotch|scotch-p|metis|patoh|patoh-0.01"
            );
            std::process::exit(2);
        }
    }
}

fn transport_kind(name: &str) -> wave_lts::runtime::TransportKind {
    match wave_lts::runtime::TransportKind::parse(name) {
        Some(k) => k,
        None => {
            eprintln!("unknown transport {name:?}; expected channel|unix-socket|process");
            std::process::exit(2);
        }
    }
}

/// Parse the `--fault-*` flags into `(rank, plan)`; `None` when no fault
/// flag is present.
fn fault_from_args(m: &HashMap<String, String>) -> Option<(usize, wave_lts::runtime::FaultPlan)> {
    let plan = wave_lts::runtime::FaultPlan {
        send_delay_us: get(m, "fault-send-delay-us", 0),
        drop_every: opt(m, "fault-drop-every"),
        die_on_send_at_level: opt(m, "fault-die-at-level"),
        die_after_sends: opt(m, "fault-die-after-k"),
        recv_timeout_ms: opt(m, "fault-recv-timeout-ms"),
    };
    let armed = plan.send_delay_us > 0
        || plan.drop_every.is_some()
        || plan.die_on_send_at_level.is_some()
        || plan.die_after_sends.is_some()
        || plan.recv_timeout_ms.is_some();
    armed.then(|| (get(m, "fault-rank", 0usize), plan))
}

/// `--flight N` sets the recorder ring capacity (`0` = recorder off).
fn flight_from_args(m: &HashMap<String, String>) -> usize {
    get(m, "flight", FlightRecorder::DEFAULT_CAPACITY)
}

fn build(m: &HashMap<String, String>) -> BenchmarkMesh {
    let kind = mesh_kind(&get::<String>(m, "mesh", "trench".into()));
    let elements: usize = get(m, "elements", 20_000);
    if get::<String>(m, "geometry", "inclusion".into()) == "graded" {
        BenchmarkMesh::crust_geometric(elements)
    } else {
        BenchmarkMesh::build(kind, elements)
    }
}

fn cmd_info(m: &HashMap<String, String>) {
    let b = build(m);
    let model = b.levels.speedup_model();
    println!("mesh          : {}", b.kind.name());
    println!("elements      : {}", b.mesh.n_elems());
    println!(
        "grid          : {} x {} x {}",
        b.mesh.nx, b.mesh.ny, b.mesh.nz
    );
    println!("GLL DOF (p=4) : {}", b.mesh.n_gll_nodes(4));
    println!("LTS levels    : {}", b.levels.n_levels);
    println!("histogram     : {:?}", b.levels.histogram());
    println!("global Δt     : {:.4}", b.levels.dt_global);
    println!(
        "Eq.9 speed-up : {:.2}x (paper at full scale: {:.1}x)",
        model.speedup(),
        b.kind.paper_speedup()
    );
}

fn cmd_partition(m: &HashMap<String, String>) {
    let b = build(m);
    let k: usize = get(m, "parts", 8);
    let seed: u64 = get(m, "seed", 1);
    let s = strategy(&get::<String>(m, "strategy", "scotch-p".into()));
    let t0 = std::time::Instant::now();
    let part = partition_mesh(&b.mesh, &b.levels, k, s, seed);
    let dt = t0.elapsed();
    if let Some(out) = m.get("out") {
        mesh_io::write_ids(File::create(out).expect("create partition file"), &part)
            .expect("write partition");
        println!("partition written  : {out}");
    }
    let rep = load_imbalance(&b.levels, &part, k);
    println!("strategy        : {}", s.name());
    println!("parts           : {k} (in {dt:.1?})");
    println!("total imbalance : {:.1}%", rep.total_pct);
    println!(
        "per-level       : {:?}",
        rep.per_level_pct
            .iter()
            .map(|p| format!("{p:.0}%"))
            .collect::<Vec<_>>()
    );
    println!("edge cut        : {}", edge_cut(&b.mesh, &b.levels, &part));
    println!(
        "MPI volume/∆t   : {}",
        mpi_volume(&b.mesh, &b.levels, &part)
    );
}

fn cmd_simulate(m: &HashMap<String, String>) {
    let ranks: usize = get(m, "ranks", 0);
    // the trace is rendered from the flight rings: without them it is empty
    if ranks > 0 && flight_from_args(m) == 0 && m.contains_key("trace-out") {
        usage_error("simulate: --trace-out needs the flight recorder, which --flight 0 disables");
    }
    // refuse an unknown transport before building anything
    let transport_name: String = get(m, "transport", "channel".into());
    if transport_name != "process" {
        transport_kind(&transport_name);
    }
    let b = build(m);
    let order: usize = get(m, "order", 4);
    let steps: usize = get(m, "steps", 20);
    let elastic: bool = get(m, "elastic", false);
    let compare: bool = get(m, "compare", false);
    let threads: usize = get(m, "threads", 1);
    let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
    println!(
        "simulating {} global steps of Δt = {:.4} on {} ({} elements, order {order}, {})",
        steps,
        dt,
        b.kind.name(),
        b.mesh.n_elems(),
        if elastic { "elastic" } else { "acoustic" }
    );
    let mesh = &b.mesh;
    if ranks > 0 && transport_name == "process" {
        run_sim_multiprocess(m, dt, ranks);
    } else if ranks > 0 && elastic {
        run_sim_distributed(m, &b, &Elastic { mesh, order }, dt, steps, ranks, threads);
    } else if ranks > 0 {
        run_sim_distributed(m, &b, &Acoustic { mesh, order }, dt, steps, ranks, threads);
    } else if elastic {
        let op = ElasticOperator::poisson(&b.mesh, order);
        run_sim(&op, &b, dt, steps, compare, threads);
    } else {
        let op = AcousticOperator::new(&b.mesh, order);
        run_sim(&op, &b, dt, steps, compare, threads);
    }
}

/// The smooth initial displacement `sin(amp·i)` over the problem's DOFs,
/// shared by the in-process run and every worker process.
fn initial_u<P: Decompose>(b: &BenchmarkMesh, order: usize, amp: f64) -> Vec<f64> {
    let ndof = P::COMPONENTS as usize * b.mesh.n_gll_nodes(order);
    (0..ndof).map(|i| ((i as f64) * amp).sin()).collect()
}

/// The tail of every `simulate --ranks N` run, whatever its transport. A
/// failed run writes the crash-report artifacts (JSON + `.txt` +
/// `.trace.json`) and exits 4; a successful one prints the Fig. 1
/// busy/stall bars, Eq. 21 λ per level and, with `--trace-out`, the Chrome
/// trace of the ranks' flight recordings.
fn report_distributed(
    m: &HashMap<String, String>,
    run: &str,
    wall: std::time::Duration,
    mut out: RunOutput,
) {
    let recordings = std::mem::take(&mut out.recordings);
    let (u, _, stats) = match out.into_result() {
        Ok(t) => t,
        Err(e) => {
            use wave_lts::runtime::postmortem::{reason_for, CrashReport};
            let path: String = get(m, "crash-report", "crash_report.json".into());
            eprintln!("distributed run failed: {e}");
            let rep = CrashReport::new(reason_for(&e), e.to_string(), recordings);
            match rep.write(std::path::Path::new(&path)) {
                Ok(paths) => eprintln!(
                    "crash report : {} (+ {}, {})",
                    paths[0].display(),
                    paths[1].display(),
                    paths[2].display()
                ),
                Err(we) => eprintln!("crash report could not be written: {we}"),
            }
            std::process::exit(4);
        }
    };
    let norm: f64 = u.iter().map(|x| x * x).sum::<f64>().sqrt();
    println!("distributed : {run}, {wall:.2?}, ‖u‖ = {norm:.6e}");
    print!("{}", ascii_timeline(&stats, 48));
    for (l, lam) in lambda_from_stats(&stats) {
        println!("  level {l}: Eq. 21 λ = {lam:.2}");
    }
    let Some(trace_out) = m.get("trace-out") else {
        return;
    };
    let evicted: u64 = recordings.iter().map(|r| r.dropped).sum();
    if evicted > 0 {
        eprintln!(
            "trace: the flight rings evicted {evicted} events, so {trace_out} holds only \
             each rank's latest ones; --flight N keeps more"
        );
    }
    let trace = flight_chrome_trace(&[("simulate", &recordings)]);
    match std::fs::write(trace_out, trace.render()) {
        Ok(()) => println!("Chrome trace (chrome://tracing, Perfetto): {trace_out}"),
        Err(e) => eprintln!("could not write {trace_out}: {e}"),
    }
}

/// `simulate --ranks N`: partition, run the threaded message-passing
/// runtime with the stall monitor on every rank, and report it.
fn run_sim_distributed<P: Decompose>(
    m: &HashMap<String, String>,
    b: &BenchmarkMesh,
    problem: &P,
    dt: f64,
    steps: usize,
    ranks: usize,
    threads: usize,
) {
    use wave_lts::obs::MetricsRegistry;

    let s = strategy(&get::<String>(m, "strategy", "scotch-p".into()));
    let seed: u64 = get(m, "seed", 1);
    let part = partition_mesh(&b.mesh, &b.levels, ranks, s, seed);
    let transport = transport_kind(&get::<String>(m, "transport", "channel".into()));
    let cfg = DistributedConfig {
        stall_monitor: Some(MonitorConfig),
        threads_per_rank: threads.max(1),
        overlap: get(m, "overlap", false),
        transport,
        flight_capacity: flight_from_args(m),
        fault: fault_from_args(m),
        ..DistributedConfig::new(ranks)
    };
    let u0 = initial_u::<P>(b, get(m, "order", 4), 0.003);
    let v0 = vec![0.0; u0.len()];
    let spec = RunSpec {
        elem_level: &b.levels.elem_level,
        partition: &part,
        dt,
        u0: &u0,
        v0: &v0,
        n_steps: steps,
        sources: &[],
        cfg,
    };
    let t0 = std::time::Instant::now();
    let out = run(problem, &spec, None, &mut MetricsRegistry::new());
    let run = format!(
        "{ranks} ranks ({}, {}{})",
        s.name(),
        transport.name(),
        if cfg.overlap { ", overlap" } else { "" }
    );
    report_distributed(m, &run, t0.elapsed(), out);
}

/// `simulate --ranks N --transport process`: spawn one `wave-lts worker`
/// OS process per rank, route halo frames over Unix sockets, and print the
/// same report as the in-process runner. Every mesh, run and fault flag
/// given is forwarded verbatim, so workers rebuild the mesh and partition
/// deterministically with the same defaults; `Δt` crosses as raw bits, so
/// results are bitwise identical to the in-process transports.
fn run_sim_multiprocess(m: &HashMap<String, String>, dt: f64, ranks: usize) {
    use wave_lts::runtime::process::{run_coordinator, ProcSpec};

    let bin = std::env::current_exe().expect("current exe");
    let mut args = vec![
        "worker".to_string(),
        "--dt-bits".to_string(),
        dt.to_bits().to_string(),
    ];
    // the worker whose rank matches `--fault-rank` wraps its own endpoint
    for key in MESH_FLAGS.iter().chain(RUN_FLAGS).chain(FAULT_FLAGS) {
        if let Some(v) = m.get(*key) {
            args.push(format!("--{key}"));
            args.push(v.clone());
        }
    }
    let spec = ProcSpec {
        bin,
        args,
        n_ranks: ranks,
        timeout: std::time::Duration::from_secs(600),
    };
    let t0 = std::time::Instant::now();
    let out = run_coordinator(&spec);
    let run = format!("{ranks} worker processes (unix-socket)");
    report_distributed(m, &run, t0.elapsed(), out);
}

/// The internal per-rank process behind `--transport process`. Rebuilds
/// the mesh and partition deterministically from the same parameters the
/// coordinator used, dials `--socket`, builds and steps only its own rank's
/// world, and reports its whole outcome — fields and statistics, or its
/// typed error — in one `Report` frame on a second connection. Exits 3 if
/// the rank fails; the coordinator reads the cause from the report.
fn cmd_worker(m: &HashMap<String, String>) {
    let (Some(socket), Some(rank), Some(ranks)) =
        (m.get("socket"), opt(m, "rank"), opt(m, "ranks"))
    else {
        usage_error("worker: --socket, --rank and --ranks are required");
    };
    if rank >= ranks {
        usage_error(&format!("worker: --rank {rank} out of --ranks {ranks}"));
    }
    let b = build(m);
    let order: usize = get(m, "order", 4);
    let mesh = &b.mesh;
    let path = std::path::Path::new(socket);
    if get(m, "elastic", false) {
        worker_run(m, &b, &Elastic { mesh, order }, path, rank, ranks);
    } else {
        worker_run(m, &b, &Acoustic { mesh, order }, path, rank, ranks);
    }
}

fn worker_run<P: Decompose>(
    m: &HashMap<String, String>,
    b: &BenchmarkMesh,
    problem: &P,
    path: &std::path::Path,
    rank: usize,
    ranks: usize,
) {
    use wave_lts::runtime::process::{worker_connect, worker_report};
    use wave_lts::runtime::{run_rank, TransportKind};

    let order: usize = get(m, "order", 4);
    let s = strategy(&get::<String>(m, "strategy", "scotch-p".into()));
    let part = partition_mesh(&b.mesh, &b.levels, ranks, s, get(m, "seed", 1));
    let default_dt = b.levels.dt_global * cfl_dt_scale(order, 3);
    let dt = f64::from_bits(get(m, "dt-bits", default_dt.to_bits()));
    let amp = f64::from_bits(get(m, "u0-bits", 0.003f64.to_bits()));
    let u0 = initial_u::<P>(b, order, amp);
    let v0 = vec![0.0; u0.len()];
    let spec = RunSpec {
        elem_level: &b.levels.elem_level,
        partition: &part,
        dt,
        u0: &u0,
        v0: &v0,
        n_steps: get(m, "steps", 20),
        sources: &[],
        cfg: DistributedConfig {
            stall_monitor: Some(MonitorConfig),
            overlap: get(m, "overlap", false),
            threads_per_rank: get(m, "threads", 1usize).max(1),
            transport: TransportKind::UnixSocket,
            flight_capacity: flight_from_args(m),
            fault: fault_from_args(m),
            ..DistributedConfig::new(ranks)
        },
    };
    let transport = match worker_connect(path, rank, ranks) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("worker rank {rank}: connect {}: {e}", path.display());
            std::process::exit(3);
        }
    };
    let (outcome, recording) = run_rank(problem, &spec, rank, Box::new(transport));
    let failed = outcome.as_ref().err().map(|e| e.to_string());
    if let Err(e) = worker_report(path, outcome, recording) {
        eprintln!("worker rank {rank}: report: {e}");
        std::process::exit(3);
    }
    if let Some(e) = failed {
        eprintln!("worker rank {rank}: {e}");
        std::process::exit(3);
    }
}

fn run_sim<O: Operator + wave_lts::lts::DofTopology>(
    op: &O,
    b: &BenchmarkMesh,
    dt: f64,
    steps: usize,
    compare: bool,
    threads: usize,
) {
    let setup = LtsSetup::new(op, &b.levels.elem_level);
    let ndof = Operator::ndof(op);
    println!("DOF: {ndof}, LTS levels: {}", setup.n_levels);
    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.003).sin()).collect();
    let mut u = u0.clone();
    let mut v = vec![0.0; ndof];
    let mut lts = LtsNewmark::new(op, &setup, dt);
    lts.threads = threads.max(1);
    let t0 = std::time::Instant::now();
    lts.run(&mut u, &mut v, 0.0, steps, &[]);
    let t_lts = t0.elapsed();
    let norm: f64 = u.iter().map(|x| x * x).sum::<f64>().sqrt();
    println!(
        "LTS      : {t_lts:.2?} ({:.1?}/step), ‖u‖ = {norm:.6e}",
        t_lts / steps as u32
    );
    println!(
        "masked element-ops: {} ({} per ∆t)",
        lts.stats.elem_ops,
        lts.stats.elem_ops / steps as u64
    );
    if compare {
        let p_max = 1usize << (setup.n_levels - 1);
        let mut u = u0;
        let mut v = vec![0.0; ndof];
        let mut nm = Newmark::new(op, dt / p_max as f64);
        let t0 = std::time::Instant::now();
        nm.run(&mut u, &mut v, 0.0, steps * p_max, &[]);
        let t_ref = t0.elapsed();
        println!(
            "non-LTS  : {t_ref:.2?} → measured speed-up {:.2}x (model {:.2}x)",
            t_ref.as_secs_f64() / t_lts.as_secs_f64(),
            b.levels.speedup_model().speedup()
        );
    }
}

/// `postmortem --file report.json [--trace-out out.json]`: re-parse a
/// crash report, validate its causal merge, and print the critical-path
/// attribution. Exits 0 only when the report parses *and* its recordings
/// merge causally — the CI gate relies on exactly that.
fn cmd_postmortem(m: &HashMap<String, String>) {
    use wave_lts::runtime::postmortem::read_report;
    let Some(file) = m.get("file") else {
        eprintln!("postmortem: --file is required");
        std::process::exit(2);
    };
    let rep = match read_report(std::path::Path::new(file)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("postmortem: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", rep.render_text());
    if let Some(out) = m.get("trace-out") {
        let trace = flight_chrome_trace(&[(file.as_str(), &rep.recordings)]);
        match std::fs::write(out, trace.render()) {
            Ok(()) => println!("Chrome trace: {out}"),
            Err(e) => {
                eprintln!("could not write {out}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = wave_lts::obs::merge_recordings(&rep.recordings) {
        eprintln!("postmortem: causal merge failed: {e}");
        std::process::exit(1);
    }
}

fn cmd_export(m: &HashMap<String, String>) {
    let b = build(m);
    let out: String = get(m, "out", "mesh.wlts".into());
    mesh_io::write_mesh(File::create(&out).expect("create mesh file"), &b.mesh)
        .expect("write mesh");
    let lvl_out = format!("{out}.levels");
    mesh_io::write_levels(
        File::create(&lvl_out).expect("create level file"),
        &b.levels,
    )
    .expect("write levels");
    println!("mesh written   : {out}");
    println!("levels written : {lvl_out}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        usage_error(
            "usage: wave-lts <info|partition|simulate|export|postmortem> [--key value ...]",
        );
    };
    let (run, accepted): (fn(&_), &[&[&str]]) = match cmd.as_str() {
        "info" => (cmd_info, &[MESH_FLAGS]),
        "partition" => (cmd_partition, &[MESH_FLAGS, PARTITION_FLAGS]),
        "simulate" => (
            cmd_simulate,
            &[MESH_FLAGS, RUN_FLAGS, FAULT_FLAGS, SIMULATE_FLAGS],
        ),
        "export" => (cmd_export, &[MESH_FLAGS, EXPORT_FLAGS]),
        "worker" => (
            cmd_worker,
            &[MESH_FLAGS, RUN_FLAGS, FAULT_FLAGS, WORKER_FLAGS],
        ),
        "postmortem" => (cmd_postmortem, &[POSTMORTEM_FLAGS]),
        other => usage_error(&format!(
            "unknown command {other:?}; expected info|partition|simulate|export|postmortem|worker"
        )),
    };
    run(&parse_args(cmd, &argv[1..], accepted));
}
