//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<module>.<operation>`, e.g.
//! `core.pool.step`), a start and end on the wall clock and the span
//! that was open when it began. Spans stay in memory and are written
//! out as JSON lines when the run ends. A layer's self time is the
//! total duration of its spans minus the part their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent: a root span.
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. `None` where a caller passes
/// `Option<&mut Tracer>` means tracing is off and costs one branch; a
/// recorder made with [`Tracer::off`] records nothing either, so code
/// written against a `Tracer` runs with and without spans.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder whose spans only run their closure.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(ROOT),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Number of spans named `name` and their total duration in ns.
    pub fn total_ns(&self, name: &str) -> (usize, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, t), s| (n + 1, t + (s.end_ns - s.start_ns)))
    }

    /// Mean duration in ns of the spans named `name` (0 for none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (n, total) = self.total_ns(name);
        total as f64 / n.max(1) as f64
    }

    /// Self time in seconds per layer (the first segment of a span
    /// name) over the spans named `root` and their descendants: span
    /// durations minus the time their children cover.
    pub fn self_seconds(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        // A parent always precedes its children.
        let mut inside = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            inside[i] = s.name == root || (s.parent != ROOT && inside[s.parent as usize]);
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for ((s, covered), inside) in self.spans.iter().zip(child_ns).zip(inside) {
            if !inside {
                continue;
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Run `f` inside a span when tracing is on, plainly otherwise.
pub fn maybe<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("bench.round", || {
            std::thread::sleep(std::time::Duration::from_millis(4));
        });
        let parent = t.self_seconds("bench.round")["bench"];
        let mut nested = Tracer::new();
        nested.enter("bench.round");
        nested.span("core.pool.step", || {
            std::thread::sleep(std::time::Duration::from_millis(4));
        });
        nested.exit();
        let own = nested.self_seconds("bench.round");
        assert!(parent >= 0.004);
        assert!(own["bench"] < own["core"], "child time is not self time");
        assert_eq!(nested.total_ns("core.pool.step").0, 1);
    }

    #[test]
    fn self_time_counts_only_spans_under_the_root() {
        let mut t = Tracer::new();
        t.span("bench.round", || {});
        t.span("bench.probe", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        t.enter("bench.probe");
        t.span("rdf.store.match", || {});
        t.exit();
        let own = t.self_seconds("bench.round");
        assert!(!own.contains_key("rdf"), "probe spans are not in the round");
        assert!(own["bench"] < 0.002, "the probe's sleep is not round time");
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("core.pool.step", || 3), 3);
        assert_eq!(t.total_ns("core.pool.step").0, 0);
        assert!(t.self_seconds("bench.round").is_empty());
    }
}
