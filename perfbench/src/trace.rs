//! In-memory spans recorded by the benchmark around each public call.
//!
//! A span is `(name, start, end, parent, launch)`. Spans around calls the
//! benchmark makes (`run`, `submit_within`, `wait`, verification) are
//! timed directly; their children (`queued`, `t_O`, `compute`, `sync`,
//! `handoff`) are laid out from the `KernelStats` the call returned. The
//! program's own tracing stays off: these spans see only what a caller of
//! the public API sees.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use blocksync_core::KernelStats;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<SpanId>,
    launch: u64,
}

/// One thread's span buffer. A disabled tracer records nothing, so the
/// untraced runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a span between two instants.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        launch: u64,
    ) -> Option<SpanId> {
        let (s, e) = (start - self.epoch, end - self.epoch);
        self.span_at(name, s, e.max(s), parent, launch)
    }

    /// Record a span derived from returned stats: `len` long, starting
    /// `offset` after `origin`.
    pub fn derived(
        &mut self,
        name: &'static str,
        origin: Instant,
        offset: Duration,
        len: Duration,
        parent: Option<SpanId>,
        launch: u64,
    ) -> Option<SpanId> {
        let s = origin - self.epoch + offset;
        self.span_at(name, s, s + len, parent, launch)
    }

    /// Children of a launch span laid out from its stats, from `start`:
    /// pool queueing (pooled launches only), `t_O`, then the mean block's
    /// compute and sync time. Returns the laid-out length; what is left of
    /// the parent is teardown and the caller's wake-up.
    pub fn launch_children(
        &mut self,
        start: Instant,
        st: &KernelStats,
        parent: Option<SpanId>,
        id: u64,
    ) -> Duration {
        let q = st.pool.as_ref().map_or(Duration::ZERO, |p| p.queued);
        let (t_o, c, s) = (st.launch, st.avg_compute(), st.avg_sync());
        if st.pool.is_some() {
            self.derived("queued", start, Duration::ZERO, q, parent, id);
        }
        self.derived("t_O", start, q, t_o, parent, id);
        self.derived("compute", start, q + t_o, c, parent, id);
        self.derived("sync", start, q + t_o + c, s, parent, id);
        q + t_o + c + s
    }

    fn span_at(
        &mut self,
        name: &'static str,
        start: Duration,
        end: Duration,
        parent: Option<SpanId>,
        launch: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            launch,
        });
        Some(self.spans.len() - 1)
    }

    /// Move another thread's spans, timed from the same epoch, into this
    /// buffer, keeping parents.
    pub fn absorb(&mut self, other: Tracer) {
        debug_assert_eq!(self.epoch, other.epoch, "tracers must share an epoch");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name, qualified by its root span's name when it has a
    /// parent (`service.launch/sync`): (spans, total time, self time).
    /// Self time is a span's duration minus the part of it its children
    /// cover.
    pub fn self_times(&self) -> BTreeMap<String, (usize, Duration, Duration)> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let root = |mut i: SpanId| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            self.spans[i].name
        };
        let mut out: BTreeMap<String, (usize, Duration, Duration)> = BTreeMap::new();
        for (i, (s, kids)) in self.spans.iter().zip(children.iter_mut()).enumerate() {
            let key = match s.parent {
                Some(_) => format!("{}/{}", root(i), s.name),
                None => s.name.to_string(),
            };
            let total = s.end - s.start;
            let covered = covered(kids, s.start, s.end);
            let e = out.entry(key).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(covered);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"launch\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.launch
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(Duration, Duration)], lo: Duration, hi: Duration) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, true);
        let root = t.derived("root", epoch, ms(0), ms(10), None, 1);
        t.derived("a", epoch, ms(1), ms(4), root, 1);
        t.derived("b", epoch, ms(3), ms(4), root, 1); // overlaps a by 2 ms
        t.derived("c", epoch, ms(9), ms(5), root, 1); // clipped to 1 ms
        let st = t.self_times();
        assert_eq!(st["root"], (1, ms(10), ms(3)));
        assert_eq!(st["root/a"].2, ms(4));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, false);
        assert!(t.derived("x", epoch, ms(0), ms(1), None, 0).is_none());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true);
        a.derived("a", epoch, ms(0), ms(1), None, 0);
        let mut b = Tracer::new(epoch, true);
        let p = b.derived("p", epoch, ms(0), ms(4), None, 7);
        b.derived("k", epoch, ms(1), ms(1), p, 7);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.self_times()["p"].2, ms(3));
    }
}
