//! In-memory spans around the benchmark's calls into each layer, their
//! self times, and the JSON dump written at exit.

use std::collections::BTreeMap;
use std::time::Instant;

use credence_json::{obj, to_string, Value};

pub const NONE: u32 = u32::MAX;

/// One span: name, start and end (ns since the tracer started), the span
/// that caused it, and the request it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub request: u32,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span that is a child of the innermost open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u32,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end = self.now();
        out
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .collect()
    }

    /// Self time (ns) of every span: its duration minus the part its
    /// children cover. Children never overlap: spans are opened and closed
    /// on one thread.
    pub fn self_times(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if s.parent != NONE {
                let p = s.parent as usize;
                out[p] = out[p].saturating_sub(s.end - s.start);
            }
        }
        out
    }

    pub fn to_json(&self) -> String {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("name", Value::from(s.name)),
                    ("start_ns", Value::from(s.start as usize)),
                    ("end_ns", Value::from(s.end as usize)),
                    (
                        "parent",
                        if s.parent == NONE {
                            Value::Null
                        } else {
                            Value::from(s.parent as usize)
                        },
                    ),
                    ("request", Value::from(s.request as usize)),
                ])
            })
            .collect();
        to_string(&obj([("spans", Value::Array(spans))]))
    }
}

/// Median of `values` (0 when empty).
pub fn p50(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Per-layer self time over the spans under `root` roots: (layer → self
/// times in ns, one entry per span), plus the roots' total duration.
/// `nested` is subtracted from a span's self time: work inside it that was
/// re-measured by a root span of its own for the same request.
pub fn layer_self_times(
    tracer: &Tracer,
    root: &str,
    layer_of: impl Fn(&str) -> &'static str,
    nested: impl Fn(&Span) -> u64,
) -> (BTreeMap<&'static str, Vec<u64>>, u64) {
    let selfs = tracer.self_times();
    let mut in_root = vec![false; tracer.spans.len()];
    let mut total = 0;
    let mut layers: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (i, s) in tracer.spans.iter().enumerate() {
        // Parents precede children, so one pass marks every descendant.
        in_root[i] = if s.parent == NONE {
            s.name == root
        } else {
            in_root[s.parent as usize]
        };
        if !in_root[i] {
            continue;
        }
        if s.parent == NONE {
            total += s.end - s.start;
            layers.entry("unattributed").or_default().push(selfs[i]);
        } else {
            let own = selfs[i].saturating_sub(nested(s));
            layers.entry(layer_of(s.name)).or_default().push(own);
        }
    }
    (layers, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_layers_sum_to_the_root() {
        let mut t = Tracer::new();
        t.span("request", 0, |t| {
            t.span("a", 0, |t| {
                t.span("b", 0, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        });
        let selfs = t.self_times();
        let total = t.spans[0].end - t.spans[0].start;
        assert_eq!(selfs.iter().sum::<u64>(), total);
        assert_eq!(t.spans[2].parent, 1);
        let (layers, root_total) =
            layer_self_times(&t, "request", |n| if n == "b" { "x" } else { "y" }, |_| 0);
        assert_eq!(root_total, total);
        let sum: u64 = layers.values().flatten().sum();
        assert_eq!(sum, total);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p50(&v), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(p50(&[]), 0.0);
    }
}
