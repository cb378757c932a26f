//! Post-mortem crash reports built from drained flight-recorder rings.
//!
//! When a distributed run dies — an injected fault, a peer disconnect, a
//! forced recv timeout, a panicked rank — the runtime drains every rank's
//! [`lts_obs::FlightRecorder`] ring and hands the recordings here. A
//! [`CrashReport`] bundles them with the failure reason ([`reason_for`]
//! classifies the [`crate::RuntimeError`]) and writes three artifacts next
//! to each other:
//!
//! * `PATH` — the JSON document (schema `SCHEMA`), machine-parseable and
//!   re-readable via [`read_report`];
//! * `PATH.txt` — a human-readable rendering: causal-merge verdict, the
//!   critical-path attribution (per-(rank, level) compute vs. wait, top
//!   cross-rank wait edges), and the last events on every rank;
//! * `PATH.trace.json` — a Chrome trace (`chrome://tracing` / Perfetto) of
//!   the merged recordings via [`lts_obs::flight_chrome_trace`].
//!
//! Everything here is allocation-happy cold-path code that runs once, after
//! the run is already dead; the *recording* side stays allocation-free (see
//! [`lts_obs::flight`]).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use lts_obs::{
    critical_path, flight_chrome_trace, merge_recordings, Json, RankRecording, NO_LEVEL, NO_PEER,
};

/// Schema tag stamped into (and required from) every report document.
pub(crate) const SCHEMA: &str = "wave-lts-crash/2";

/// A self-contained post-mortem: the failure reason plus every rank's
/// drained flight ring.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashReport {
    /// Short machine-oriented cause, as [`reason_for`] classifies the
    /// error: `"fault-injected"`, `"exchange-timeout"`, `"peer-lost"`,
    /// `"rank-panicked"`, `"transport-io"` or `"runtime-error"`.
    pub reason: String,
    /// Human detail — typically the [`crate::RuntimeError`] display.
    pub(crate) detail: String,
    /// One drained ring per rank, index-aligned with rank ids.
    pub recordings: Vec<RankRecording>,
}

impl CrashReport {
    pub fn new(
        reason: impl Into<String>,
        detail: impl Into<String>,
        recordings: Vec<RankRecording>,
    ) -> CrashReport {
        CrashReport {
            reason: reason.into(),
            detail: detail.into(),
            recordings,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("reason".into(), Json::str(&self.reason)),
            ("detail".into(), Json::str(&self.detail)),
            (
                "ranks".into(),
                Json::Arr(self.recordings.iter().map(RankRecording::to_json).collect()),
            ),
        ])
    }

    /// Parse a document produced by [`CrashReport::to_json`]. Rejects
    /// unknown schemas so older tooling fails loudly instead of
    /// misreading.
    pub fn from_json(doc: &Json) -> Result<CrashReport, String> {
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing \"schema\"")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (expected {SCHEMA:?})"
            ));
        }
        let reason = doc
            .get("reason")
            .and_then(Json::as_str)
            .ok_or("missing \"reason\"")?
            .to_string();
        let detail = doc
            .get("detail")
            .and_then(Json::as_str)
            .ok_or("missing \"detail\"")?
            .to_string();
        let mut recordings = Vec::new();
        for r in doc
            .get("ranks")
            .and_then(Json::as_arr)
            .ok_or("missing \"ranks\"")?
        {
            recordings.push(RankRecording::from_json(r)?);
        }
        Ok(CrashReport {
            reason,
            detail,
            recordings,
        })
    }

    /// Render the human-readable report: header, causal-merge verdict,
    /// critical-path attribution, and each rank's tail events.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let events: usize = self.recordings.iter().map(|r| r.events.len()).sum();
        let dropped: u64 = self.recordings.iter().map(|r| r.dropped).sum();
        let _ = writeln!(out, "== wave-lts crash report ({SCHEMA}) ==");
        let _ = writeln!(out, "reason : {}", self.reason);
        let _ = writeln!(out, "detail : {}", self.detail);
        let _ = writeln!(
            out,
            "ranks  : {} ({events} events, {dropped} evicted from rings)",
            self.recordings.len()
        );
        out.push('\n');

        match merge_recordings(&self.recordings) {
            Ok(merged) => {
                let _ = writeln!(
                    out,
                    "causal merge : OK — {} events totally ordered (happens-before \
                     via matched send/recv seqs)",
                    merged.len()
                );
            }
            Err(e) => {
                let _ = writeln!(out, "causal merge : FAILED — {e}");
            }
        }

        match critical_path(&self.recordings) {
            Ok(cp) if cp.total_ns > 0 => {
                out.push('\n');
                let total = cp.total_ns as f64;
                let _ = writeln!(
                    out,
                    "critical path : {} = compute {} ({:.0}%) + wait {} ({:.0}%)",
                    fmt_ns(cp.total_ns),
                    fmt_ns(cp.compute_ns()),
                    100.0 * cp.compute_ns() as f64 / total,
                    fmt_ns(cp.wait_ns()),
                    100.0 * cp.wait_ns() as f64 / total,
                );
                let _ = writeln!(out, "  rank level    compute       wait    share");
                for &((rank, level), (c, w)) in cp.by_rank_level.iter().take(8) {
                    let _ = writeln!(
                        out,
                        "  {:>4} {:>5} {:>10} {:>10}   {:>5.1}%",
                        rank,
                        fmt_level(level),
                        fmt_ns(c),
                        fmt_ns(w),
                        100.0 * (c + w) as f64 / total,
                    );
                }
                if !cp.edges.is_empty() {
                    let _ = writeln!(out, "top wait edges (receiver bound by sender):");
                    for e in cp.edges.iter().take(8) {
                        let _ = writeln!(
                            out,
                            "  rank {} -> rank {}  level {}  {}",
                            e.from_rank,
                            e.to_rank,
                            fmt_level(e.level),
                            fmt_ns(e.wait_ns),
                        );
                    }
                }
            }
            Ok(_) => {}
            Err(e) => {
                let _ = writeln!(out, "critical path : unavailable — {e}");
            }
        }

        out.push('\n');
        let _ = writeln!(out, "last events per rank (oldest → newest):");
        for rec in &self.recordings {
            let tail = rec.events.len().saturating_sub(6);
            let _ = writeln!(
                out,
                "  rank {} ({} events, {} evicted):",
                rec.rank,
                rec.events.len(),
                rec.dropped
            );
            for ev in &rec.events[tail..] {
                let _ = writeln!(
                    out,
                    "    t+{:<12} step {:<6} level {:<3} {:<14} peer {:<4} seq {}",
                    fmt_ns(ev.t_ns),
                    ev.step,
                    fmt_level(ev.level),
                    ev.kind.name(),
                    fmt_peer(ev.peer),
                    ev.seq,
                );
            }
        }
        out
    }

    /// Write the three artifacts: `path` (JSON), `path.txt` (text),
    /// `path.trace.json` (Chrome trace). Returns the paths written.
    pub fn write(&self, path: &Path) -> Result<[PathBuf; 3], String> {
        let json_path = path.to_path_buf();
        let txt_path = sibling(path, ".txt");
        let trace_path = sibling(path, ".trace.json");
        std::fs::write(&json_path, self.to_json().render_pretty())
            .map_err(|e| format!("write {}: {e}", json_path.display()))?;
        std::fs::write(&txt_path, self.render_text())
            .map_err(|e| format!("write {}: {e}", txt_path.display()))?;
        let trace = flight_chrome_trace(&[("crash report", &self.recordings)]);
        std::fs::write(&trace_path, trace.render())
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        Ok([json_path, txt_path, trace_path])
    }
}

/// Read and parse a crash-report JSON written by [`CrashReport::write`].
pub fn read_report(path: &Path) -> Result<CrashReport, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&s).map_err(|e| format!("{}: {e}", path.display()))?;
    CrashReport::from_json(&doc)
}

/// `report.json` + `.txt` → `report.json.txt` (suffix appended, never
/// replacing the extension, so the JSON stays openable by name).
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

fn fmt_level(level: u8) -> String {
    if level == NO_LEVEL {
        "-".to_string()
    } else {
        level.to_string()
    }
}

fn fmt_peer(peer: u32) -> String {
    if peer == NO_PEER {
        "-".to_string()
    } else {
        peer.to_string()
    }
}

/// Human duration: ns under 10 µs, µs under 10 ms, else ms.
fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{:.1}ms", ns as f64 / 1e6)
    }
}

/// Classify a runtime error into the short `reason` tag. Lives here (not on
/// the error) so the tag set stays next to the schema it feeds.
pub fn reason_for(e: &crate::RuntimeError) -> &'static str {
    use crate::RuntimeError::*;
    match e {
        FaultInjected { .. } => "fault-injected",
        ExchangeTimeout { .. } => "exchange-timeout",
        PeerDisconnected { .. } | ChannelClosed { .. } => "peer-lost",
        RankPanicked { .. } => "rank-panicked",
        TransportIo { .. } => "transport-io",
        _ => "runtime-error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_obs::{EventKind, FlightRecorder};
    use std::time::Instant;

    fn sample_report() -> CrashReport {
        let epoch = Instant::now();
        let mut a = FlightRecorder::with_epoch(64, epoch);
        let mut b = FlightRecorder::with_epoch(64, epoch);
        a.record(EventKind::StepBegin, NO_LEVEL, 0, NO_PEER, 0);
        a.record(EventKind::Send, 1, 0, 1, 0);
        b.record(EventKind::StepBegin, NO_LEVEL, 0, NO_PEER, 0);
        b.record(EventKind::ExchangeBegin, 1, 0, NO_PEER, 0);
        b.record(EventKind::Recv, 1, 0, 0, 0);
        b.record(EventKind::ExchangeEnd, 1, 0, NO_PEER, 0);
        b.record(EventKind::Fault, 1, 0, 0, 0);
        CrashReport::new(
            "fault-injected",
            "rank 1: injected fault fired during level-1 exchange",
            vec![a.snapshot(0), b.snapshot(1)],
        )
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let rep = sample_report();
        let rendered = rep.to_json().render_pretty();
        let back = CrashReport::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        // schema 1 carried a "lambda" table
        for schema in ["wave-lts-crash/1", "wave-lts-crash/99"] {
            let mut doc = sample_report().to_json();
            if let Json::Obj(fields) = &mut doc {
                fields[0].1 = Json::str(schema);
            }
            let err = CrashReport::from_json(&doc).unwrap_err();
            assert!(err.contains("unsupported schema"), "{err}");
        }
    }

    #[test]
    fn render_text_reports_merge_and_tail() {
        let text = sample_report().render_text();
        assert!(text.contains("reason : fault-injected"), "{text}");
        assert!(text.contains("causal merge : OK"), "{text}");
        assert!(text.contains("fault"), "{text}");
    }

    #[test]
    fn write_and_read_round_trip() {
        let dir = std::env::temp_dir().join(format!("wlts-pm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let rep = sample_report();
        let written = rep.write(&path).unwrap();
        assert_eq!(written[1], dir.join("report.json.txt"));
        let back = read_report(&path).unwrap();
        assert_eq!(back, rep);
        // The Chrome trace must be valid per the exporter's own checker.
        let trace = std::fs::read_to_string(&written[2]).unwrap();
        lts_obs::validate_trace(&trace).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
