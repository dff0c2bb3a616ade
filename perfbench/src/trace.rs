//! Benchmark-side spans around each call into a layer.
//!
//! A span records its name, start, end, the span that caused it and the
//! workload. Spans stay in memory and are written out as JSON lines when
//! the run ends. A disabled tracer records nothing, so the measured loops
//! can run the same code with tracing on or off.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct SpanRecord {
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

impl SpanRecord {
    fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    workload: String,
    enabled: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<SpanRecord>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[id].end_ns = end;
            self.tracer.open.borrow_mut().pop();
        }
    }
}

impl Tracer {
    pub fn new(workload: &str, enabled: bool) -> Tracer {
        Tracer {
            workload: workload.to_string(),
            enabled: Cell::new(enabled),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one. Names read
    /// `<layer>.<call>`; the layer is the part before the first dot.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled.get() {
            return SpanGuard {
                tracer: self,
                id: None,
            };
        }
        let parent = self.open.borrow().last().copied();
        let start = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(SpanRecord {
            parent,
            name,
            start_ns: start,
            end_ns: start,
        });
        self.open.borrow_mut().push(id);
        SpanGuard {
            tracer: self,
            id: Some(id),
        }
    }

    /// Durations in seconds of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::duration_s)
            .collect()
    }

    /// Self time in seconds per layer, summed over every span that
    /// descends from a span called `root`: a span's duration minus the
    /// part its direct children cover. Also returns how many `root`
    /// spans there were.
    pub fn self_times_under(&self, root: &str) -> (BTreeMap<String, f64>, usize) {
        let spans = self.spans.borrow();
        let mut child_cover = vec![0.0f64; spans.len()];
        for span in spans.iter() {
            if let Some(p) = span.parent {
                child_cover[p] += span.duration_s();
            }
        }
        let under_root = |mut id: usize| loop {
            match spans[id].parent {
                Some(p) if spans[p].name == root => return true,
                Some(p) => id = p,
                None => return false,
            }
        };
        let mut layers = BTreeMap::new();
        for (id, span) in spans.iter().enumerate() {
            if span.name != root && under_root(id) {
                let layer = span.name.split('.').next().unwrap_or(span.name);
                *layers.entry(layer.to_string()).or_insert(0.0) +=
                    span.duration_s() - child_cover[id];
            }
        }
        let roots = spans.iter().filter(|s| s.name == root).count();
        (layers, roots)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.borrow().iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"workload\":\"{}\"}}",
                span.name, span.start_ns, span.end_ns, self.workload
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::Tracer;

    #[test]
    fn self_time_subtracts_children_and_skips_disabled_spans() {
        let tracer = Tracer::new("w", true);
        {
            let _root = tracer.span("path.x");
            let _outer = tracer.span("core.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = tracer.span("relation.inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        tracer.set_enabled(false);
        drop(tracer.span("core.ignored"));
        let (layers, roots) = tracer.self_times_under("path.x");
        assert_eq!(roots, 1);
        assert!(layers["core"] >= 0.002 && layers["relation"] >= 0.002);
        assert!(tracer.durations("core.ignored").is_empty());
        let outer = tracer.durations("core.outer")[0];
        assert!((layers["core"] + layers["relation"] - outer).abs() < 1e-9);
    }
}
