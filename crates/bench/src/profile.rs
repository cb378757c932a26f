//! The `lts-profile` deterministic-counter regression gate.
//!
//! Runs a fixed scenario matrix — graded benchmark meshes × partition
//! strategies × rank counts — through the real threaded runtime and writes a
//! `BENCH_lts.json` document: per scenario its parameters, its level count
//! and four **deterministic counters** (element operations, messages, DOF
//! volumes, exchanges — exact integers, independent of timing). It records
//! no timing: wall time is perfbench's to measure.
//!
//! [`compare_bench`] is the `bench-compare` gate: every baseline scenario
//! must be present, with parameters and counters matching *exactly* (any
//! drift is a correctness regression in disguise). A document may carry
//! more fields than these (an older baseline's timing blocks or `smoke`
//! flag); they are ignored.

use lts_core::Source;
use lts_mesh::{BenchmarkMesh, MeshKind};
use lts_obs::{Json, MetricsRegistry};
use lts_partition::{partition_mesh, Strategy};
use lts_runtime::stats::names;
use lts_runtime::{run, Acoustic, DistributedConfig, RunSpec};
use lts_sem::gll::cfl_dt_scale;

pub(crate) const SCHEMA: &str = "lts-bench/1";

/// One cell of the benchmark matrix. Parameters are part of the identity:
/// two documents may only compare counters for scenarios whose parameters
/// (encoded in the fixed matrix) agree.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Scenario {
    /// Mesh key: `"trench"` (graded surface strip), `"trench-big"` (one
    /// extra refinement layer, 6 levels), `"embedding"` (small fast block)
    /// or `"crust"` (geometric crust grading).
    pub(crate) mesh: &'static str,
    /// Strategy key: `"scotch"`, `"scotch-p"`, `"metis"` or `"patoh"`.
    pub(crate) strategy: &'static str,
    pub(crate) ranks: usize,
    pub(crate) elements: usize,
    pub(crate) steps: usize,
    pub(crate) order: usize,
    pub(crate) seed: u64,
    /// Communication/computation overlap: boundary partials are sent
    /// before the interior apply instead of after the full apply.
    pub(crate) overlap: bool,
}

impl Scenario {
    pub(crate) fn id(&self) -> String {
        // The order is part of the identity only when it differs from the
        // historical default (1), so legacy baseline ids stay stable.
        let p = if self.order > 1 {
            format!("__p{}", self.order)
        } else {
            String::new()
        };
        let ov = if self.overlap { "__ov" } else { "" };
        format!("{}__{}__r{}{p}{ov}", self.mesh, self.strategy, self.ranks)
    }

    pub(crate) fn strategy_enum(&self) -> Strategy {
        match self.strategy {
            "scotch" => Strategy::ScotchBaseline,
            "scotch-p" => Strategy::ScotchP,
            "metis" => Strategy::MetisMc,
            "patoh" => Strategy::Patoh { final_imbal: 0.05 },
            other => panic!("unknown strategy key {other:?}"),
        }
    }

    pub(crate) fn build_mesh(&self) -> BenchmarkMesh {
        match self.mesh {
            "trench" => BenchmarkMesh::build(MeshKind::Trench, self.elements),
            "trench-big" => BenchmarkMesh::build(MeshKind::TrenchBig, self.elements),
            "embedding" => BenchmarkMesh::build(MeshKind::Embedding, self.elements),
            "crust" => BenchmarkMesh::crust_geometric(self.elements),
            other => panic!("unknown mesh key {other:?}"),
        }
    }
}

/// Shared per-scenario parameters.
const ELEMENTS: usize = 256;
const STEPS: usize = 4;
const ORDER: usize = 1;
const SEED: u64 = 1;
/// The paper's production polynomial order. Order-4 scenarios exercise the
/// SIMD stiffness batch at its real arithmetic intensity; steps are capped
/// at 2 so the matrix stays fast despite the ~60× heavier elements.
const P4_ORDER: usize = 4;
const P4_STEPS: usize = 2;

fn scenario(mesh: &'static str, strategy: &'static str, ranks: usize) -> Scenario {
    Scenario {
        mesh,
        strategy,
        ranks,
        elements: ELEMENTS,
        steps: STEPS,
        order: ORDER,
        seed: SEED,
        overlap: false,
    }
}

fn scenario_ov(mesh: &'static str, strategy: &'static str, ranks: usize) -> Scenario {
    Scenario {
        overlap: true,
        ..scenario(mesh, strategy, ranks)
    }
}

fn scenario_p4(mesh: &'static str, strategy: &'static str, ranks: usize) -> Scenario {
    Scenario {
        order: P4_ORDER,
        steps: P4_STEPS,
        ..scenario(mesh, strategy, ranks)
    }
}

fn scenario_p4_ov(mesh: &'static str, strategy: &'static str, ranks: usize) -> Scenario {
    Scenario {
        overlap: true,
        ..scenario_p4(mesh, strategy, ranks)
    }
}

/// The scenario matrix: 2 meshes × 4 strategies × {2, 4, 8} ranks, plus an
/// overlap twin of every r8 scenario so the wait-time reduction from
/// comm/compute overlap is tracked by the bench gate, not claimed.
///
/// On top of that, every one of the four benchmark meshes gets an order-4
/// (`__p4`) block — r2, r8 and an r8 overlap twin under the default
/// partitioner — so the SIMD stiffness batch runs at the paper's real
/// polynomial order inside the gated matrix, not only in microbenches.
pub(crate) fn matrix() -> Vec<Scenario> {
    let mut out = Vec::new();
    for mesh in ["trench", "crust"] {
        for strategy in ["scotch", "scotch-p", "metis", "patoh"] {
            for ranks in [2, 4, 8] {
                out.push(scenario(mesh, strategy, ranks));
            }
            out.push(scenario_ov(mesh, strategy, 8));
        }
    }
    for mesh in ["trench", "trench-big", "embedding", "crust"] {
        out.push(scenario_p4(mesh, "scotch", 2));
        out.push(scenario_p4(mesh, "scotch", 8));
        out.push(scenario_p4_ov(mesh, "scotch", 8));
    }
    out
}

/// Run one scenario with a flight ring of `flight_capacity` events per
/// rank (`0` = recorder off) and return its result object; every counter
/// in `"counters"` is deterministic, with the recorder on or off.
pub(crate) fn run_scenario(sc: &Scenario, flight_capacity: usize) -> Json {
    let b = sc.build_mesh();
    let part = partition_mesh(&b.mesh, &b.levels, sc.ranks, sc.strategy_enum(), sc.seed);
    let problem = Acoustic {
        mesh: &b.mesh,
        order: sc.order,
    };
    let zero = vec![0.0; b.mesh.n_gll_nodes(sc.order)];
    let spec = RunSpec {
        elem_level: &b.levels.elem_level,
        partition: &part,
        dt: b.levels.dt_global * cfl_dt_scale(sc.order, 3),
        u0: &zero,
        v0: &zero,
        n_steps: sc.steps,
        sources: &[Source::ricker(0, 0.3, 1.0, 1.0)],
        cfg: DistributedConfig {
            overlap: sc.overlap,
            flight_capacity,
            ..DistributedConfig::new(sc.ranks)
        },
    };
    let (_, _, stats) = run(&problem, &spec, None, &mut MetricsRegistry::new())
        .into_result()
        .expect("distributed run failed");
    let sum_counter =
        |name: &str| -> u64 { stats.iter().map(|s| s.registry.counter_total(name)).sum() };
    let counters = COUNTERS
        .iter()
        .map(|&(key, name)| (key.to_string(), Json::UInt(sum_counter(name))))
        .collect();
    Json::Obj(vec![
        ("id".to_string(), Json::str(sc.id())),
        ("mesh".to_string(), Json::str(sc.mesh)),
        ("strategy".to_string(), Json::str(sc.strategy)),
        ("ranks".to_string(), Json::UInt(sc.ranks as u64)),
        ("elements".to_string(), Json::UInt(b.mesh.n_elems() as u64)),
        ("steps".to_string(), Json::UInt(sc.steps as u64)),
        ("order".to_string(), Json::UInt(sc.order as u64)),
        ("seed".to_string(), Json::UInt(sc.seed)),
        ("overlap".to_string(), Json::Bool(sc.overlap)),
        ("n_levels".to_string(), Json::UInt(b.levels.n_levels as u64)),
        ("counters".to_string(), Json::Obj(counters)),
    ])
}

/// Run the matrix and build the `BENCH_lts.json` document.
pub fn run_suite(flight_capacity: usize) -> Json {
    let scenarios = matrix();
    let mut out = Vec::with_capacity(scenarios.len());
    for sc in &scenarios {
        eprintln!("# lts-profile: {}", sc.id());
        out.push(run_scenario(sc, flight_capacity));
    }
    Json::Obj(vec![
        ("schema".to_string(), Json::str(SCHEMA)),
        ("scenarios".to_string(), Json::Arr(out)),
    ])
}

/// The gated counters: document key and the rank-registry counter summed
/// over ranks.
pub const COUNTERS: [(&str, &str); 4] = [
    ("elem_ops", names::ELEM_OPS),
    ("msgs_sent", names::MSGS_SENT),
    ("dofs_sent", names::DOFS_SENT),
    ("exchanges", names::EXCHANGES),
];

/// A scenario's identity besides its id: its parameters and level count.
const PARAMS: [&str; 9] = [
    "mesh", "strategy", "ranks", "elements", "steps", "order", "seed", "overlap", "n_levels",
];

fn counter(sc: &Json, key: &str) -> Option<u64> {
    sc.get("counters")
        .and_then(|o| o.get(key))
        .and_then(|v| v.as_u64())
}

/// Structural check of a BENCH document. Returns the scenario count.
pub fn validate_bench(doc: &Json) -> Result<usize, String> {
    if doc.get("schema").and_then(|s| s.as_str()) != Some(SCHEMA) {
        return Err(format!("schema field missing or not {SCHEMA:?}"));
    }
    let scenarios = doc
        .get("scenarios")
        .and_then(|s| s.as_arr())
        .ok_or("missing scenarios array")?;
    if scenarios.is_empty() {
        return Err("scenarios array is empty".to_string());
    }
    for (i, sc) in scenarios.iter().enumerate() {
        let id = sc
            .get("id")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("scenario {i}: missing id"))?;
        if let Some(key) = PARAMS.iter().find(|&&key| sc.get(key).is_none()) {
            return Err(format!("scenario {id}: missing {key}"));
        }
        if let Some((key, _)) = COUNTERS.iter().find(|(key, _)| counter(sc, key).is_none()) {
            return Err(format!("scenario {id}: missing counter {key}"));
        }
    }
    Ok(scenarios.len())
}

fn index_by_id(doc: &Json) -> Vec<(&str, &Json)> {
    doc.get("scenarios")
        .and_then(|s| s.as_arr())
        .map(|arr| {
            arr.iter()
                .filter_map(|sc| sc.get("id").and_then(|v| v.as_str()).map(|id| (id, sc)))
                .collect()
        })
        .unwrap_or_default()
}

/// `bench-compare`: check `current` against `baseline`. Every baseline
/// scenario must be in `current` (matched by id), with parameters and
/// counters equal **exactly**; scenarios only `current` has are not
/// compared. Returns the list of failures — empty means the gate passes.
pub fn compare_bench(baseline: &Json, current: &Json) -> Vec<String> {
    let mut failures = Vec::new();
    let base = index_by_id(baseline);
    let cur = index_by_id(current);
    if base.is_empty() {
        failures.push("baseline has no scenarios".to_string());
    }
    for (id, b) in &base {
        let Some((_, c)) = cur.iter().find(|(cid, _)| cid == id) else {
            failures.push(format!("{id}: missing from the current document"));
            continue;
        };
        for key in PARAMS {
            let (bv, cv) = (b.get(key), c.get(key));
            if bv != cv {
                let show = |v: Option<&Json>| v.map_or("missing".to_string(), Json::render);
                failures.push(format!("{id}: {key} changed {} -> {}", show(bv), show(cv)));
            }
        }
        for (key, _) in COUNTERS {
            let (bv, cv) = (counter(b, key), counter(c, key));
            if bv != cv {
                failures.push(format!(
                    "{id}: counter {key} drifted {} -> {}",
                    bv.map_or("missing".to_string(), |v| v.to_string()),
                    cv.map_or("missing".to_string(), |v| v.to_string()),
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_obs::FlightRecorder;

    fn tiny() -> Scenario {
        Scenario {
            mesh: "trench",
            strategy: "scotch",
            ranks: 2,
            elements: 64,
            steps: 2,
            order: 1,
            seed: 1,
            overlap: false,
        }
    }

    fn tiny_doc() -> Json {
        Json::Obj(vec![
            ("schema".to_string(), Json::str(SCHEMA)),
            (
                "scenarios".to_string(),
                Json::Arr(vec![run_scenario(
                    &tiny(),
                    FlightRecorder::DEFAULT_CAPACITY,
                )]),
            ),
        ])
    }

    /// The first scenario's counter fields, for tampering.
    fn first_counters(doc: &mut Json) -> &mut Vec<(String, Json)> {
        fn field<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
            let Json::Obj(fields) = obj else {
                panic!("not an object")
            };
            &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1
        }
        let Json::Arr(scenarios) = field(doc, "scenarios") else {
            panic!("scenarios is not an array")
        };
        let Json::Obj(counters) = field(&mut scenarios[0], "counters") else {
            panic!("counters is not an object")
        };
        counters
    }

    #[test]
    fn matrix_covers_order_4_on_every_mesh_with_unique_ids() {
        let full = matrix();
        // 2 meshes × 4 strategies × {2,4,8} ranks, plus one r8 overlap
        // twin per mesh × strategy, plus the order-4 block (r2/r8/r8-ov)
        // on each of the four benchmark meshes
        assert_eq!(full.len(), 2 * 4 * 3 + 2 * 4 + 4 * 3);
        assert!(full.iter().any(|s| s.overlap && s.ranks == 8));
        // every benchmark mesh has order-4 coverage, including an overlap
        // twin, and the order is encoded in the id before the __ov suffix
        for mesh in ["trench", "trench-big", "embedding", "crust"] {
            assert!(full
                .iter()
                .any(|s| s.mesh == mesh && s.order == 4 && !s.overlap));
            let ov = full
                .iter()
                .find(|s| s.mesh == mesh && s.order == 4 && s.overlap)
                .expect("p4 overlap twin");
            assert_eq!(ov.id(), format!("{mesh}__scotch__r8__p4__ov"));
            assert_eq!(ov.steps, P4_STEPS, "p4 scenarios cap steps");
        }
        let mut ids: Vec<String> = full.iter().map(|s| s.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), full.len(), "scenario ids must be unique");
    }

    #[test]
    fn counters_are_deterministic_across_runs() {
        let a = run_scenario(&tiny(), FlightRecorder::DEFAULT_CAPACITY);
        let b = run_scenario(&tiny(), FlightRecorder::DEFAULT_CAPACITY);
        for (key, _) in COUNTERS {
            let av = counter(&a, key);
            let bv = counter(&b, key);
            assert_eq!(av, bv, "counter {key} must be timing-independent");
            assert!(av.unwrap() > 0 || key == "dofs_sent", "counter {key} zero");
        }
    }

    #[test]
    fn generated_document_validates_and_compares_clean() {
        let doc = tiny_doc();
        let n = validate_bench(&doc).expect("valid");
        assert_eq!(n, 1);
        // round-trip through the renderer + parser, as bench-compare does
        let reparsed = Json::parse(&doc.render_pretty()).expect("round-trip");
        assert_eq!(validate_bench(&reparsed), Ok(1));
        let failures = compare_bench(&doc, &reparsed);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn compare_detects_counter_drift() {
        let doc = tiny_doc();
        let mut tampered = Json::parse(&doc.render()).unwrap();
        // bump elem_ops by one in the reparsed copy
        let eo = first_counters(&mut tampered)
            .iter_mut()
            .find(|(k, _)| k == "elem_ops")
            .unwrap();
        eo.1 = Json::UInt(eo.1.as_u64().unwrap() + 1);
        let failures = compare_bench(&doc, &tampered);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("elem_ops"), "{failures:?}");
    }

    #[test]
    fn compare_fails_when_a_baseline_scenario_is_missing() {
        let doc = tiny_doc();
        let empty = Json::Obj(vec![
            ("schema".to_string(), Json::str(SCHEMA)),
            ("scenarios".to_string(), Json::Arr(vec![])),
        ]);
        let failures = compare_bench(&doc, &empty);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].starts_with(&format!("{}: missing", tiny().id())),
            "{failures:?}"
        );
        // a scenario only the current document has is not compared, but a
        // baseline with nothing to compare fails
        assert!(compare_bench(&empty, &empty)[0].contains("no scenarios"));
        assert_eq!(compare_bench(&empty, &doc).len(), 1);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate_bench(&Json::Obj(vec![])).is_err());
        let wrong_schema = Json::Obj(vec![("schema".to_string(), Json::str("nope"))]);
        assert!(validate_bench(&wrong_schema).is_err());
        let mut doc = tiny_doc();
        first_counters(&mut doc).retain(|(k, _)| k != "dofs_sent");
        let err = validate_bench(&doc).unwrap_err();
        assert!(err.contains("missing counter dofs_sent"), "{err}");
    }
}
