//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its own calls into
//! the engine's public functions; nothing inside the engine is
//! instrumented. A disabled recorder reads no clock and allocates
//! nothing, so untraced sessions pay only for the branch.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One timed interval around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.process`.
    pub name: &'static str,
    /// Linear-layer index, for per-layer phases.
    pub layer: Option<usize>,
    /// Session (or probe) the span belongs to.
    pub session: u64,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Collects spans in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder, switched on or off.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; `None` when recording is off.
    pub fn open(
        &mut self,
        name: &'static str,
        layer: Option<usize>,
        session: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            layer,
            session,
            parent,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`] (no-op for `None`).
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: Option<usize>,
        session: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, layer, session, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span whose ends were timestamped elsewhere (e.g. on a
    /// pool worker); `None` when recording is off.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: Option<usize>,
        session: u64,
        parent: Option<SpanId>,
        (start, end): (Instant, Instant),
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            layer,
            session,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        Some(self.spans.len() - 1)
    }

    /// Durations (ms) of every span with this name and layer.
    pub fn durations_ms(&self, name: &str, layer: Option<usize>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.layer == layer)
            .map(Span::ms)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":{},\"session\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                opt(s.layer),
                s.session,
                opt(s.parent),
                s.start_ns,
                s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None, 0, None);
        assert!(id.is_none());
        t.close(id);
        assert_eq!(t.time("y", Some(1), 0, None, || 5), 5);
        assert!(t.durations_ms("x", None).is_empty());
        assert!(t.durations_ms("y", Some(1)).is_empty());
    }

    #[test]
    fn spans_nest_and_filter_by_layer() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", None, 3, None);
        t.time("inner", Some(0), 3, outer, || ());
        t.time("inner", Some(1), 3, outer, || ());
        t.close(outer);
        assert_eq!(t.durations_ms("inner", Some(0)).len(), 1);
        assert_eq!(t.durations_ms("inner", Some(1)).len(), 1);
        assert_eq!(t.spans[1].parent, outer);
        assert!(t.spans[0].end_ns >= t.spans[2].end_ns);
    }
}
