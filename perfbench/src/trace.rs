//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, the span that caused it and the id of
//! the operation (sweep op or request) it belongs to. Spans stay in memory and
//! are written out once, when the run ends. A span's self time is its duration
//! minus the part of it that its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::median;

pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let mut spans = self.spans.lock().expect("no span holder panics");
        let id = spans.len();
        spans.push(Span {
            id,
            name,
            op,
            parent,
            start_us: self.us(start),
            end_us: self.us(end),
        });
        id
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("no span holder panics");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .collect()
    }

    /// Per span name: count, median duration and median / total self time.
    pub fn summary(&self) -> String {
        let spans = self.spans.lock().expect("no span holder panics");
        let mut children: HashMap<usize, Vec<(f64, f64)>> = HashMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_us, s.end_us));
            }
        }
        let mut by_name: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for s in spans.iter() {
            let covered = children.get(&s.id).map_or(0.0, |c| union_length(c));
            let entry = by_name.entry(s.name).or_default();
            entry.0.push((s.end_us - s.start_us) / 1e3);
            entry.1.push((s.end_us - s.start_us - covered) / 1e3);
        }
        let mut out = format!(
            "{:<28} {:>7} {:>14} {:>14} {:>14}\n",
            "span", "count", "p50 ms", "self p50 ms", "self total ms"
        );
        for (name, (dur, own)) in by_name {
            let _ = writeln!(
                out,
                "{:<28} {:>7} {:>14.4} {:>14.4} {:>14.3}",
                name,
                dur.len(),
                median(&dur),
                median(&own),
                own.iter().sum::<f64>()
            );
        }
        out
    }

    /// Writes every span as a JSON array to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("no span holder panics");
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}{}",
                s.id,
                s.name,
                s.op,
                parent,
                s.start_us,
                s.end_us,
                if i + 1 < spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Runs `f` inside a span when tracing, or just runs it. `f` receives the
/// span's id, to parent its children, and the same closure serves both runs.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> R,
) -> R {
    let Some(t) = tracer else { return f(None) };
    // Reserve the id first so children can point at it before it ends.
    let start = Instant::now();
    let id = t.record(name, op, parent, start, start);
    let out = f(Some(id));
    let end = t.us(Instant::now());
    t.spans.lock().expect("no span holder panics")[id].end_us = end;
    out
}

/// Length of the union of `[start, end)` intervals.
fn union_length(intervals: &[(f64, f64)]) -> f64 {
    let mut sorted = intervals.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut cur): (f64, Option<(f64, f64)>) = (0.0, None);
    for (s, e) in sorted {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_length(&[(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(union_length(&[]), 0.0);
    }
}
