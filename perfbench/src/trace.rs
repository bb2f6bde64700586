//! In-memory span recording for the traced mode.
//!
//! A span marks one call into a public function of the workspace,
//! timed from the benchmark's side of the call. Spans are kept in
//! memory and written out once, when the run ends.

use condep::telemetry::json::JsonWriter;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Records spans for one workload.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// Sets the op id of the spans recorded from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        // Read the clock last, so the bookkeeping above is not charged
        // to the span.
        self.spans[idx].start_ns = self.now_ns();
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) -> &Span {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = end;
        &self.spans[idx]
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in µs.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let idx = self.enter(name);
        let out = f();
        let us = self.exit(idx).us();
        (out, us)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time in µs: its duration minus the durations of
    /// its direct children. Children of one span never overlap, since
    /// every span is a call made from one thread.
    pub fn self_us(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.us();
            }
        }
        out
    }

    /// The per-layer self-time table, one row per span name, sorted by
    /// total self time.
    pub fn self_time_table(&self) -> Vec<LayerRow> {
        let self_us = self.self_us();
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, us) in self.spans.iter().zip(&self_us) {
            by_name.entry(s.name).or_default().push(*us);
        }
        let total: f64 = self_us.iter().sum();
        let mut rows: Vec<LayerRow> = by_name
            .into_iter()
            .map(|(name, v)| {
                let sum: f64 = v.iter().sum();
                LayerRow {
                    name,
                    calls: v.len(),
                    p50_self_us: crate::stats::median(&v),
                    total_self_ms: sum / 1e3,
                    share: if total > 0.0 { sum / total } else { 0.0 },
                }
            })
            .collect();
        rows.sort_by(|a, b| b.total_self_ms.total_cmp(&a.total_self_ms));
        rows
    }

    /// Writes the spans as one JSON array under `key`.
    pub fn write_spans(&self, key: &str, w: &mut JsonWriter) {
        w.key(key);
        w.begin_array();
        for s in &self.spans {
            w.begin_object();
            w.key("name");
            w.value_str(s.name);
            w.key("start_ns");
            w.value_u64(s.start_ns);
            w.key("end_ns");
            w.value_u64(s.end_ns);
            w.key("parent");
            match s.parent {
                Some(p) => w.value_u64(p as u64),
                None => w.value_null(),
            }
            w.key("op");
            w.value_u64(s.op);
            w.end_object();
        }
        w.end_array();
    }
}

/// One row of a self-time table.
#[derive(Clone, Debug)]
pub struct LayerRow {
    pub name: &'static str,
    pub calls: usize,
    pub p50_self_us: f64,
    pub total_self_ms: f64,
    /// Share of all self time recorded for the workload.
    pub share: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::default();
        let root = t.enter("op");
        let ((), _) = t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root);
        let self_us = t.self_us();
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!((self_us[0] + spans[1].us() - spans[0].us()).abs() < 1e-6);
        assert!(self_us[0] >= 0.0 && self_us[0] < spans[1].us());
    }
}
