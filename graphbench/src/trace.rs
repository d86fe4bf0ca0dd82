//! The benchmark's own spans: one around each call into a layer.
//!
//! A [`Tracer`] belongs to one thread. Spans go into a buffer allocated
//! before the timed window and are written out as `trace.jsonl` when the
//! run ends; a full buffer drops further spans (counted) rather than
//! reallocate inside the window. A disabled tracer records nothing, so an
//! untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans each tracer can hold.
const CAPACITY: usize = 400_000;

/// Returned by [`Tracer::open`] when nothing was recorded.
const NOT_RECORDED: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span in this tracer, or `NOT_RECORDED`.
    parent: u32,
    /// Spans of one request (or one batch pass) share this.
    request: u32,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
    enabled: bool,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`. Only an enabled
    /// tracer allocates its buffer.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(if enabled { CAPACITY } else { 0 }),
            open: Vec::with_capacity(16),
            dropped: 0,
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span under the innermost open one. Close it with
    /// [`Tracer::close`], innermost first.
    pub fn open(&mut self, name: &'static str, request: u32) -> u32 {
        if !self.enabled {
            return NOT_RECORDED;
        }
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return NOT_RECORDED;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NOT_RECORDED),
            request,
        });
        self.open.push(id);
        id
    }

    /// End the span [`Tracer::open`] returned.
    pub fn close(&mut self, id: u32) {
        if id == NOT_RECORDED {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    /// Durations, in nanoseconds, of every recorded span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    pub fn recorded(&self) -> u64 {
        self.spans.len() as u64
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Per span name: how many, their total time, and their self time (total
/// minus the time covered by child spans), in nanoseconds.
pub fn self_times(tracers: &[Tracer]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for t in tracers {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if s.parent != NOT_RECORDED {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in t.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(children);
        }
    }
    out
}

/// Write every span as one JSON object per line. Span ids are unique
/// within a thread.
pub fn write_jsonl(path: &std::path::Path, tracers: &[Tracer]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, t) in tracers.iter().enumerate() {
        for (id, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == NOT_RECORDED {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"thread\":{thread},\"id\":{id},\"parent\":{parent},\"request\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.open("outer", 7);
        t.span("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(outer);
        let times = self_times(&[t]);
        let (n, total, own) = times["outer"];
        let (_, inner_total, inner_own) = times["inner"];
        assert_eq!(n, 1);
        assert_eq!(inner_total, inner_own);
        assert_eq!(own, total - inner_total);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.open("x", 0);
        t.close(id);
        assert_eq!(t.recorded(), 0);
    }
}
