//! The benchmark's span recorder.
//!
//! Spans are recorded around calls into the library's public functions
//! (the library itself is not instrumented by this recorder).  Each span
//! keeps its name, start, end, parent span and a request id in memory
//! preallocated before the timed region, so recording never allocates;
//! the spans are written out when the run ends and per-layer self time is
//! computed from them.

use std::io::Write as _;
use std::time::Instant;

/// Every span name the benchmark records.  The layer is the part before
/// the first `.`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    ModelWhiten,
    OddEvenFactor,
    OddEvenSolve,
    OddEvenSelinv,
    OddEvenPlanBuild,
    SeqRts,
    AssociativeSmooth,
    ServeSubmit,
    ServeDrain,
    ClusterSpawn,
    ClusterSend,
    ClusterPoll,
    WireEncode,
    WireDecode,
    DriverCollect,
}

impl Name {
    /// The span's printed name.
    pub fn label(self) -> &'static str {
        match self {
            Name::ModelWhiten => "model.whiten_model",
            Name::OddEvenFactor => "odd_even.execute",
            Name::OddEvenSolve => "odd_even.solve_into",
            Name::OddEvenSelinv => "odd_even.selinv_into",
            Name::OddEvenPlanBuild => "odd_even.plan_build",
            Name::SeqRts => "seq.rts_smooth",
            Name::AssociativeSmooth => "associative.smooth",
            Name::ServeSubmit => "serve.try_submit",
            Name::ServeDrain => "serve.drain",
            Name::ClusterSpawn => "cluster.spawn",
            Name::ClusterSend => "cluster.send",
            Name::ClusterPoll => "cluster.poll",
            Name::WireEncode => "wire.encode",
            Name::WireDecode => "wire.decode",
            Name::DriverCollect => "driver.collect",
        }
    }

    /// The layer the span's time is attributed to.
    pub fn layer(self) -> &'static str {
        let label = self.label();
        &label[..label.find('.').unwrap_or(label.len())]
    }
}

/// No request: the span serves many requests at once (a drain, a poll).
pub const NO_REQ: u64 = u64::MAX;

/// Request id of event/step `index` of stream `key`.
pub fn req(key: u64, index: u64) -> u64 {
    (key << 40) | (index & ((1 << 40) - 1))
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
    req: u64,
}

const NO_SPAN: u32 = u32::MAX;

/// Records spans when on; every call is a single branch when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
}

/// Handle of an open span (pass it back to [`Tracer::end`]).
#[must_use]
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

impl Tracer {
    /// A recorder; `capacity` spans are preallocated when `on`.
    pub fn new(on: bool, capacity: usize) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            open: Vec::with_capacity(if on { 64 } else { 0 }),
            dropped: 0,
        }
    }

    /// `true` when spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Pauses or resumes recording (for untraced passes of a traced run;
    /// spans must not be open).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty());
        self.on = on && self.spans.capacity() > 0;
    }

    /// A position in the span log, for [`Tracer::attributed_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: Name, req: u64) -> Open {
        if !self.on {
            return Open(NO_SPAN);
        }
        if self.spans.len() == self.spans.capacity() || self.open.len() == self.open.capacity() {
            self.dropped += 1;
            return Open(NO_SPAN);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_SPAN);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            req,
        });
        self.open.push(idx);
        Open(idx)
    }

    /// Closes a span opened by [`Tracer::begin`].
    #[inline]
    pub fn end(&mut self, span: Open) {
        if span.0 == NO_SPAN {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[span.0 as usize].end_ns = end_ns;
        debug_assert_eq!(
            self.open.last(),
            Some(&span.0),
            "spans close innermost first"
        );
        self.open.pop();
    }

    /// Times `f` as one span.
    #[inline]
    pub fn time<T>(&mut self, name: Name, req: u64, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, req);
        let out = f();
        self.end(span);
        out
    }

    /// Spans that did not fit the preallocated buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations (seconds) of every span named `name` recorded since
    /// `mark`.
    pub fn durations(&self, name: Name, mark: usize) -> Vec<f64> {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Summed durations (seconds) of every span named `name` recorded
    /// since `mark`.
    pub fn total(&self, name: Name, mark: usize) -> f64 {
        self.durations(name, mark).iter().sum()
    }

    /// Self time (seconds) per layer: each span's duration minus the part
    /// its child spans cover, summed by layer, sorted by layer name.
    pub fn layer_self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*c) as f64 * 1e-9;
            match out.iter_mut().find(|(l, _)| *l == s.name.layer()) {
                Some((_, t)) => *t += own,
                None => out.push((s.name.layer(), own)),
            }
        }
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Summed self time of every layer (seconds) over the spans recorded
    /// since `mark`: the wall time those spans account for.  Equals the
    /// summed duration of the top-level spans among them.
    pub fn attributed_since(&self, mark: usize) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.parent == NO_SPAN || (s.parent as usize) < mark)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Writes the spans as tab-separated rows (`id name layer start_ns
    /// end_ns parent req`) after `header` lines prefixed with `#`.
    pub fn write(
        &self,
        path: &std::path::Path,
        header: &[(String, String)],
    ) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (k, v) in header {
            writeln!(w, "# {k}={v}")?;
        }
        writeln!(w, "id\tname\tlayer\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                -1
            } else {
                i64::from(s.parent)
            };
            let req = if s.req == NO_REQ { -1 } else { s.req as i64 };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{}\t{parent}\t{req}",
                s.name.label(),
                s.name.layer(),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, 8);
        let outer = t.begin(Name::ServeDrain, NO_REQ);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = t.begin(Name::DriverCollect, req(3, 4));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let layers = t.layer_self_times();
        let total = t.total(Name::ServeDrain, 0);
        assert_eq!(layers.len(), 2);
        assert!((t.attributed_since(0) - total).abs() < 1e-9);
        assert!(layers.iter().all(|(_, s)| *s >= 0.0015));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, 8);
        let s = t.begin(Name::ServeDrain, NO_REQ);
        t.end(s);
        assert!(t.durations(Name::ServeDrain, 0).is_empty());
    }
}
