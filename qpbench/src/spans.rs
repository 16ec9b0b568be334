//! In-memory spans around the benchmark's calls into each layer.
//!
//! A [`Spans`] is either off (the end-to-end run: `span` calls the
//! closure and records nothing, not even a clock read) or on (the
//! traced run: one record per call, kept in memory and summarised when
//! the run ends).

use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary, e.g. `"xport.poll"`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

/// Span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans { on: false, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// A recording recorder.
    pub fn on() -> Spans {
        Spans {
            on: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, recording a span named `name` around it when on.
    /// Spans opened inside `f` get this span as their parent.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Every span recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of the spans named `name`, ascending.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        let mut d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        crate::stats::sort(&mut d);
        d
    }
}
