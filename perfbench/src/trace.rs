//! In-memory spans recorded from the benchmark's side of each public call,
//! and the self-time attribution of the traced run.
//!
//! A span is (name, start, end, parent, request id). Names are
//! `layer.operation`; a layer's self time is the summed duration of its
//! spans minus the parts their child spans cover. Times are integer
//! nanoseconds from one origin, so the attribution adds up exactly:
//! `sum(self times) + unattributed == wall`.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// Span recorder. Disabled tracers record nothing and add no clock reads.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, request: Option<u64>, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Nanoseconds since the tracer was created.
    pub fn elapsed_ns(&self) -> u64 {
        self.now_ns()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }
}

/// Layer of a span name: the part before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer (nanoseconds, sorted by layer name) and the
/// unattributed remainder of `wall_ns`.
pub fn attribute(spans: &[Span], wall_ns: u64) -> (Vec<(String, u64)>, u64) {
    let mut child_ns = vec![0u64; spans.len()];
    let mut top_ns = 0u64;
    for s in spans {
        let d = s.end_ns - s.start_ns;
        match s.parent {
            Some(p) => child_ns[p] += d,
            None => top_ns += d,
        }
    }
    let mut per_layer: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = (s.end_ns - s.start_ns) - child_ns[i];
        *per_layer.entry(layer_of(s.name).to_string()).or_default() += own;
    }
    (per_layer.into_iter().collect(), wall_ns - top_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_remainder_sum_to_wall() {
        let t = Tracer::new(true);
        t.span("fleet.round", Some(1), || {
            t.span("serve.prepare", None, || {
                std::hint::black_box((0..1000).sum::<u64>())
            });
            t.span("des.simulate", None, || ());
        });
        t.span("bench.verify", None, || ());
        let wall = t.elapsed_ns();
        let spans = t.spans();
        let (layers, rest) = attribute(&spans, wall);
        let total: u64 = layers.iter().map(|(_, ns)| ns).sum::<u64>() + rest;
        assert_eq!(total, wall);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(layers.len(), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("fleet.round", None, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
