//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer of
//! the program. A call the benchmark cannot wrap because it happens inside
//! another layer (the fingerprint inside `ProfileCache::get_or_insert_with`,
//! a retime inside `run_corner`) is timed on its own with the same input
//! and attached to the enclosing span as a *synthetic* child, so the inner
//! layer gets its share and the outer layer keeps only its self time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Name of the spans that wrap the benchmark's own measurement work (the
/// stand-alone calls behind synthetic children). They keep that work out
/// of their parent's self time and are not a layer of the program.
pub const MEASURE: &str = "bench.measure";

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or study round) the span belongs to.
    pub request: u64,
    /// Timed stand-alone on the same input rather than wrapped in place.
    pub synthetic: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

/// A span recorder. A disabled tracer runs the wrapped calls and records
/// nothing, so traced and untraced replays share one code path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    /// A recorder; `enabled = false` gives the no-op tracer.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Spans are plain data: every update leaves them valid.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans opened from now on with request id `id`.
    pub fn set_request(&self, id: u64) {
        self.lock().request = id;
    }

    /// Runs `f` inside a span named `name` and returns its value with the
    /// span's index (`None` when disabled).
    pub fn span_idx<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Option<usize>) {
        if !self.enabled {
            return (f(), None);
        }
        let idx = {
            let start_ns = self.now_ns();
            let mut inner = self.lock();
            let idx = inner.spans.len();
            let parent = inner.stack.last().copied();
            let request = inner.request;
            inner.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request,
                synthetic: false,
            });
            inner.stack.push(idx);
            idx
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        inner.spans[idx].end_ns = end_ns;
        inner.stack.pop();
        (out, Some(idx))
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_idx(name, f).0
    }

    /// Attaches a synthetic child of `duration_ns` named `name` to span
    /// `parent` (clamped to the parent's extent).
    pub fn attach(&self, parent: Option<usize>, name: &'static str, duration_ns: u64) {
        let Some(parent) = parent else { return };
        let mut inner = self.lock();
        let (start_ns, end_ns, request) = {
            let p = &inner.spans[parent];
            (p.start_ns, p.end_ns, p.request)
        };
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns.saturating_add(duration_ns).min(end_ns),
            parent: Some(parent),
            request,
            synthetic: true,
        });
    }

    /// A copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// File-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.lock().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"synthetic\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.synthetic
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part its children
/// cover (synthetic children included).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Per-call self times by layer name, microseconds, excluding the
/// benchmark's own [`MEASURE`] spans.
pub fn self_times_by_layer(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        if s.name != MEASURE {
            by.entry(s.name).or_default().push(t as f64 / 1e3);
        }
    }
    by
}

/// Times one call, in nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
            synthetic: false,
        }
    }

    #[test]
    fn inner_calls_count_as_the_inner_layers_share() {
        let spans = vec![
            span("serve.request", 0, 1000, None),
            span("cache.lookup", 100, 600, Some(0)),
            Span {
                synthetic: true,
                ..span("netlist.fingerprint", 100, 400, Some(1))
            },
            span(MEASURE, 700, 900, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![300, 200, 300, 200]);
        let by = self_times_by_layer(&spans);
        assert_eq!(by["cache.lookup"], vec![0.2]);
        assert_eq!(by["netlist.fingerprint"], vec![0.3]);
        assert!(!by.contains_key(MEASURE));
    }

    #[test]
    fn nested_spans_record_parents_and_requests() {
        let t = Tracer::new(true);
        t.set_request(9);
        let (_, outer) = t.span_idx("outer", || t.span("inner", || 1));
        t.attach(outer, "synthetic", u64::MAX);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 9));
        // A synthetic child never outlasts its parent.
        assert_eq!(spans[2].end_ns, spans[0].end_ns);
        assert!(Tracer::new(false).spans().is_empty());
    }
}
