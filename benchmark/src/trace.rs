//! Spans recorded by the benchmark around its calls into each layer,
//! kept in memory and written out as Chrome trace events when a traced
//! run ends (loadable in Perfetto beside the daemon's `--trace-out`).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// One interval at a layer boundary. `parent` indexes the causing span
/// in the same list; spans of one request share `op`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    pub name: String,
    pub op: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The span was not observed in place: its duration was measured on
    /// twin state (or by a separate microbenchmark) and it was laid
    /// inside its parent.
    pub derived: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent].push((start, end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Mean self time per span name, in nanoseconds, with the span count.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, (f64, u64)> {
    let mut sums: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = sums.entry(span.name.clone()).or_default();
        entry.0 += own as f64;
        entry.1 += 1;
    }
    for (sum, count) in sums.values_mut() {
        *sum /= *count as f64;
    }
    sums
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    serde_json::to_string(&s).expect("strings serialize")
}

/// Writes the spans as complete ("X") Chrome trace events, one lane per
/// request chain, with the counts as trace metadata.
pub fn write_chrome_trace(
    path: &Path,
    workload: &str,
    spans: &[Span],
    counts: &BTreeMap<String, u64>,
) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    let own = self_times(spans);
    let mut lanes: BTreeMap<&str, usize> = BTreeMap::new();
    write!(
        out,
        "{{\"displayTimeUnit\":\"ns\",\"metadata\":{{\"workload\":{}",
        json_string(workload)
    )?;
    for (name, value) in counts {
        write!(out, ",{}:{value}", json_string(name))?;
    }
    write!(out, "}},\"traceEvents\":[")?;
    for (i, span) in spans.iter().enumerate() {
        // One lane per session (the op id is `session:seq`).
        let lane_key = span.op.split(':').next().unwrap_or("");
        let next = lanes.len() + 1;
        let lane = *lanes.entry(lane_key).or_insert(next);
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(
            out,
            "\n{{\"name\":{},\"cat\":\"msmr-benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":{lane},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":{},\"self_ns\":{},\"derived\":{}}}}}",
            json_string(&span.name),
            span.start_ns as f64 / 1e3,
            span.duration_ns() as f64 / 1e3,
            json_string(&span.op),
            span.parent.map_or("null".to_string(), |p| json_string(&spans[p].name)),
            own[i],
            span.derived,
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            op: "s:1".to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            derived: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("op", 0, 100, None),
            span("decode", 10, 20, Some(0)),
            span("admit", 20, 70, Some(0)),
            span("extend", 30, 45, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 10, 35, 15]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 60, Some(0)),
            // Starts inside the parent and overhangs its end.
            span("c", 90, 130, Some(0)),
        ];
        // Cover is [10, 60) ∪ [90, 100) = 60.
        assert_eq!(self_times(&spans)[0], 40);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["op"], (40.0, 1));
        assert_eq!(by_name["a"], (40.0, 1));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let spans = vec![
            span("op", 0, 1_500, None),
            span("decode \"q\"", 100, 400, Some(0)),
        ];
        let counts = BTreeMap::from([("ops".to_string(), 1u64)]);
        write_chrome_trace(&path, "unit", &spans, &counts).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let value: serde::Value = serde_json::from_str(&text).unwrap();
        let Some(serde::Value::Seq(events)) = value.get("traceEvents") else {
            panic!("no traceEvents array in {text}");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("self_ns")),
            Some(&serde::Value::UInt(300))
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
