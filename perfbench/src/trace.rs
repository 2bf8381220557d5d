//! In-memory spans recorded around calls into the library's layers.
//!
//! The benchmark traces from the outside: every span wraps one call
//! into a crate's public API, so the program itself carries no
//! tracing. Spans stay in memory and are written out once, at the end
//! of the run, as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The crate (layer) the wrapped call belongs to.
    pub layer: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The loop iteration the span belongs to.
    pub iteration: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Records spans when enabled; a disabled tracer only runs the closure.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
    }

    /// Runs `f` inside a span named `name` on `layer`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.timed(name, layer, f).0
    }

    /// [`span`](Self::span), also returning the host seconds `f` took
    /// (measured whether or not the tracer is enabled).
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        if !self.enabled {
            let started = Instant::now();
            let r = f(self);
            return (r, started.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        (r, self.spans[id].secs())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Host seconds in spans named `name`, summed per loop iteration.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let mut per: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per.entry(s.iteration).or_default() += s.secs();
        }
        per.into_values().collect()
    }

    /// Per-iteration self time of each layer: a span's duration minus
    /// the part its child spans cover, summed per (layer, iteration).
    /// Spans recorded outside the loop (iteration 0) are left out.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut per: BTreeMap<(&'static str, u32), f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            if s.iteration == 0 {
                continue;
            }
            let own = (s.end - s.start).saturating_sub(*c).as_secs_f64();
            *per.entry((s.layer, s.iteration)).or_default() += own;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((layer, _), secs) in per {
            out.entry(layer).or_default().push(secs);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\
                 \"workload\":\"{workload}\",\"seed\":{seed},\"iteration\":{},\
                 \"start_us\":{},\"end_us\":{}}}",
                s.name,
                s.layer,
                s.iteration,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_iteration(1);
        t.span("outer", "a", |t| {
            std::thread::sleep(Duration::from_millis(5));
            t.span("inner", "b", |_| {
                std::thread::sleep(Duration::from_millis(10))
            });
        });
        let selfs = t.self_times();
        assert!(selfs["a"][0] >= 0.004 && selfs["a"][0] < 0.010, "{selfs:?}");
        assert!(selfs["b"][0] >= 0.010, "{selfs:?}");
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", "a", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
