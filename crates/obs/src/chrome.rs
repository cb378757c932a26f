//! Chrome Trace Format builder.
//!
//! Renders `trace_event` JSON loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev): a `{"traceEvents": [...]}` document
//! of complete (`"X"`) slices and metadata (`"M"`) records. The convention
//! across this workspace is **pid = run, tid = rank**, with one category per
//! LTS level (`"level0"`, `"level1"`, …) so Perfetto can filter a single
//! level's slices. Timestamps are microseconds.
//!
//! The builder is plain data over [`Json`]. Its one producer is
//! [`crate::flight_chrome_trace`], which renders flight-recorder rings.

use crate::export::Json;

/// Category string for an LTS level (`None` → the run-wide category).
pub(crate) fn level_category(level: Option<u8>) -> String {
    match level {
        Some(l) => format!("level{l}"),
        None => "run".to_string(),
    }
}

/// Incremental `trace_event` document builder.
#[derive(Debug, Default, Clone)]
pub struct ChromeTrace {
    events: Vec<Json>,
}

impl ChromeTrace {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Label a process track (`"M"` metadata event).
    pub(crate) fn process_name(&mut self, pid: u64, name: &str) {
        self.events.push(Json::Obj(vec![
            ("name".to_string(), Json::str("process_name")),
            ("ph".to_string(), Json::str("M")),
            ("pid".to_string(), Json::UInt(pid)),
            ("tid".to_string(), Json::UInt(0)),
            (
                "args".to_string(),
                Json::Obj(vec![("name".to_string(), Json::str(name))]),
            ),
        ]));
    }

    /// Label a thread track (`"M"` metadata event).
    pub(crate) fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(Json::Obj(vec![
            ("name".to_string(), Json::str("thread_name")),
            ("ph".to_string(), Json::str("M")),
            ("pid".to_string(), Json::UInt(pid)),
            ("tid".to_string(), Json::UInt(tid)),
            (
                "args".to_string(),
                Json::Obj(vec![("name".to_string(), Json::str(name))]),
            ),
        ]));
    }

    /// A complete (`"X"`) slice: `ts`/`dur` in microseconds.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        cat: &str,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(String, Json)>,
    ) {
        let mut fields = vec![
            ("name".to_string(), Json::str(name)),
            ("cat".to_string(), Json::str(cat)),
            ("ph".to_string(), Json::str("X")),
            ("ts".to_string(), Json::Num(ts_us)),
            ("dur".to_string(), Json::Num(dur_us.max(0.0))),
            ("pid".to_string(), Json::UInt(pid)),
            ("tid".to_string(), Json::UInt(tid)),
        ];
        if !args.is_empty() {
            fields.push(("args".to_string(), Json::Obj(args)));
        }
        self.events.push(Json::Obj(fields));
    }

    /// The `trace_event` document.
    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("displayTimeUnit".to_string(), Json::str("ms")),
            ("traceEvents".to_string(), Json::Arr(self.events.clone())),
        ])
    }

    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

/// Structural check of a rendered trace: parses the JSON, verifies every
/// event carries `ph`/`pid`/`tid` (+ `ts`/`dur` for `"X"`), and that `ts` is
/// monotonically non-decreasing per `(pid, tid)` in emission order for slice
/// events. Returns the number of events.
pub fn validate_trace(rendered: &str) -> Result<usize, String> {
    let doc = Json::parse(rendered)?;
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut last_ts: std::collections::BTreeMap<(u64, u64), f64> =
        std::collections::BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|p| p.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let pid = ev
            .get("pid")
            .and_then(|p| p.as_u64())
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = ev
            .get("tid")
            .and_then(|t| t.as_u64())
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        if ev.get("name").and_then(|n| n.as_str()).is_none() {
            return Err(format!("event {i}: missing name"));
        }
        if ph == "X" {
            let ts = ev
                .get("ts")
                .and_then(|t| t.as_f64())
                .ok_or_else(|| format!("event {i}: X without ts"))?;
            let dur = ev
                .get("dur")
                .and_then(|d| d.as_f64())
                .ok_or_else(|| format!("event {i}: X without dur"))?;
            if dur < 0.0 {
                return Err(format!("event {i}: negative dur {dur}"));
            }
            let key = (pid, tid);
            if let Some(&prev) = last_ts.get(&key) {
                if ts + 1e-9 < prev {
                    return Err(format!(
                        "event {i}: ts {ts} decreases below {prev} on pid {pid} tid {tid}"
                    ));
                }
            }
            last_ts.insert(key, ts);
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_parser() {
        let mut t = ChromeTrace::new();
        t.process_name(1, "run \"A\"");
        t.thread_name(1, 0, "rank 0");
        t.complete(1, 0, "busy", "level0", 0.0, 10.0, vec![]);
        t.complete(
            1,
            0,
            "wait",
            "level1",
            10.0,
            2.5,
            vec![("step".to_string(), Json::UInt(3))],
        );
        let rendered = t.render();
        let doc = Json::parse(&rendered).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(
            events[0].get("args").unwrap().get("name").unwrap().as_str(),
            Some("run \"A\"")
        );
        assert_eq!(events[3].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[3].get("dur").unwrap().as_f64(), Some(2.5));
        assert_eq!(
            events[3].get("args").unwrap().get("step").unwrap().as_u64(),
            Some(3)
        );
        assert_eq!(validate_trace(&rendered), Ok(4));
    }

    #[test]
    fn escapes_hostile_names() {
        let mut t = ChromeTrace::new();
        t.complete(1, 7, "a\"b\\c\nd\te", "cat,\"x\"", 1.0, 1.0, vec![]);
        let rendered = t.render();
        let doc = Json::parse(&rendered).expect("escaped output parses");
        let ev = &doc.get("traceEvents").unwrap().as_arr().unwrap()[0];
        assert_eq!(ev.get("name").unwrap().as_str(), Some("a\"b\\c\nd\te"));
        assert_eq!(ev.get("cat").unwrap().as_str(), Some("cat,\"x\""));
    }

    #[test]
    fn validate_rejects_nonmonotone_ts_per_tid() {
        let mut t = ChromeTrace::new();
        t.complete(1, 0, "a", "run", 10.0, 1.0, vec![]);
        t.complete(1, 1, "b", "run", 0.0, 1.0, vec![]); // other tid: fine
        assert_eq!(validate_trace(&t.render()), Ok(2));
        t.complete(1, 0, "c", "run", 5.0, 1.0, vec![]); // rewinds tid 0
        let err = validate_trace(&t.render()).unwrap_err();
        assert!(err.contains("decreases"), "{err}");
    }

    #[test]
    fn validate_rejects_missing_fields() {
        let no_ph = r#"{"traceEvents":[{"name":"x","pid":1,"tid":0}]}"#;
        assert!(validate_trace(no_ph).unwrap_err().contains("missing ph"));
        let no_dur = r#"{"traceEvents":[{"name":"x","ph":"X","ts":0,"pid":1,"tid":0}]}"#;
        assert!(validate_trace(no_dur).unwrap_err().contains("without dur"));
        assert!(validate_trace("[]").is_err());
    }
}
