//! Fig. 1 — the load-imbalance stall: a 1-D mesh with a fine region, two
//! ranks. A standard (work-balanced but level-oblivious) partition gives
//! processor A three times the fine elements of processor B, so B stalls at
//! every fine sub-step; a per-level (SCOTCH-P-style) split removes the stall.
//!
//! Runs the *real* threaded message-passing runtime with amplified
//! per-element work and prints measured busy/stall bars. `--trace-out`
//! renders both runs' flight recordings side by side, one pid per
//! partition; `--flight N` sets the ring size (`0` = recorder off).

use lts_bench::{usage_error, Args};
use lts_core::Chain1d;
use lts_obs::{flight_chrome_trace, FlightRecorder, Json, MetricsRegistry, RankRecording};
use lts_runtime::stats::{ascii_timeline, lambda_from_stats, profile_json};
use lts_runtime::{run, DistributedConfig, MonitorConfig, RunSpec};

fn main() {
    let args = Args::parse(&[
        "steps",
        "amplify",
        "threads",
        "profile",
        "trace-out",
        "flight",
    ]);
    let steps: usize = args.get("steps", 60);
    let amplify: u32 = args.get("amplify", 1_500_000);
    let threads: usize = args.get("threads", 1);
    let profile_path: String = args.get("profile", "fig01_profile.json".to_string());
    let trace_path: String = args.get("trace-out", String::new());
    let flight: usize = args.get("flight", FlightRecorder::DEFAULT_CAPACITY);

    // Fig. 1 geometry: a fine region Ω_f (4 elements, p = 2) next to a
    // coarse region Ω_c (4 elements, p = 1), embedded in a longer chain.
    let mut vel = vec![1.0; 16];
    for v in vel.iter_mut().take(12).skip(4) {
        *v = 2.0; // 8 fine elements in the middle
    }
    let c = Chain1d::with_velocities(vel, 1.0);
    let (lv, dt) = c.assign_levels(0.5, 2);
    let fine: Vec<usize> = (0..16).filter(|&e| lv[e] == 1).collect();
    println!("chain: 16 elements, fine (p=2) elements at {fine:?}, Δt = {dt}");

    let u0: Vec<f64> = (0..17)
        .map(|i| (-((i as f64 - 8.0) / 2.0f64).powi(2)).exp())
        .collect();
    let v0 = vec![0.0; 17];

    // (a) standard partition: geometric split — rank 0 gets 6 of 8 fine
    // elements (the paper's 3:1 fine imbalance)
    let naive: Vec<u32> = (0..16).map(|e| u32::from(e >= 10)).collect();
    // (b) per-level balanced split: each rank gets half of each level
    let balanced: Vec<u32> = (0..16)
        .map(|e| {
            let lvl = lv[e as usize];
            let peers: Vec<usize> = (0..16).filter(|&x| lv[x] == lvl).collect();
            let pos = peers.iter().position(|&x| x == e as usize).unwrap();
            u32::from(pos >= peers.len() / 2)
        })
        .collect();

    let cfg = DistributedConfig {
        work_amplify: amplify,
        // live stall detection: warn when a rank waits through half a window
        stall_monitor: Some(MonitorConfig),
        threads_per_rank: threads.max(1),
        flight_capacity: flight,
        ..DistributedConfig::new(2)
    };
    if !trace_path.is_empty() && cfg.flight_capacity == 0 {
        usage_error("--trace-out needs the flight recorder, which --flight 0 disables");
    }
    let mut runs: Vec<Json> = Vec::new();
    let mut traced: Vec<(&str, Vec<RankRecording>)> = Vec::new();
    for (name, part) in [
        ("standard partition (level-oblivious)", &naive),
        ("p-level balanced partition", &balanced),
    ] {
        let fine_per_rank: Vec<usize> = (0..2)
            .map(|r| (0..16).filter(|&e| part[e] == r && lv[e] == 1).count())
            .collect();
        let spec = RunSpec {
            elem_level: &lv,
            partition: part,
            dt,
            u0: &u0,
            v0: &v0,
            n_steps: steps,
            sources: &[],
            cfg,
        };
        let mut out = run(&c, &spec, None, &mut MetricsRegistry::new());
        traced.push((name, std::mem::take(&mut out.recordings)));
        let (_, _, stats) = out.into_result().expect("distributed run failed");
        println!("\n== {name} (fine elements per rank: {fine_per_rank:?}) ==");
        print!("{}", ascii_timeline(&stats, 48));
        let worst = stats
            .iter()
            .map(|s| s.wait_fraction())
            .fold(0.0f64, f64::max);
        println!("worst stall fraction: {:.0}%", 100.0 * worst);
        for (l, lam) in lambda_from_stats(&stats) {
            println!("  level {l}: Eq. 21 λ = {:.2}", lam);
        }
        runs.push(Json::Obj(vec![
            ("partition".to_string(), Json::str(name)),
            (
                "fine_per_rank".to_string(),
                Json::Arr(
                    fine_per_rank
                        .iter()
                        .map(|&n| Json::UInt(n as u64))
                        .collect(),
                ),
            ),
            ("profile".to_string(), profile_json(&stats)),
        ]));
    }
    let doc = Json::Obj(vec![
        ("figure".to_string(), Json::str("fig01_timeline")),
        ("steps".to_string(), Json::UInt(steps as u64)),
        ("runs".to_string(), Json::Arr(runs)),
    ]);
    match std::fs::write(&profile_path, doc.render_pretty()) {
        Ok(()) => {
            println!("\nwrote per-rank per-level busy/wait/exchange profile to {profile_path}")
        }
        Err(e) => eprintln!("\ncould not write {profile_path}: {e}"),
    }
    if !trace_path.is_empty() {
        let evicted: u64 = traced.iter().flat_map(|(_, r)| r).map(|r| r.dropped).sum();
        if evicted > 0 {
            eprintln!(
                "trace: the flight rings evicted {evicted} events, so {trace_path} holds only \
                 each rank's latest ones; --flight N keeps more"
            );
        }
        let runs: Vec<(&str, &[RankRecording])> =
            traced.iter().map(|(n, r)| (*n, r.as_slice())).collect();
        match std::fs::write(&trace_path, flight_chrome_trace(&runs).render()) {
            Ok(()) => println!("wrote Chrome trace (chrome://tracing, Perfetto) to {trace_path}"),
            Err(e) => eprintln!("could not write {trace_path}: {e}"),
        }
    }
    println!(
        "\npaper's Fig. 1: the level-oblivious split stalls one processor at every ∆τ sub-step;"
    );
    println!("balancing each p-level separately removes the stall — the motivation for SCOTCH-P.");
    println!("(on single-core hosts both ranks additionally show a symmetric time-sharing wait;");
    println!(" the signature of the Fig. 1 pathology is the *asymmetry* between the ranks)");
}
