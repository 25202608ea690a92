//! In-memory spans recorded by the benchmark around each call into a
//! layer.
//!
//! A span carries its name (`<layer>.<call>`), start and end in
//! nanoseconds since the recorder was armed, and the span open around it.
//! Spans are kept in memory and written out once, when the benchmark ends.
//! A layer's self time is the summed duration of its spans minus the part
//! their child spans cover. The recorder is off unless [`arm`] was called;
//! an unarmed [`enter`] costs one thread-local flag read.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    /// The layer the span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread, dropping any recorded before.
pub fn arm() {
    RECORDER.with(|r| {
        *r.borrow_mut() =
            Some(Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() });
    });
}

/// Stops recording and returns every span recorded since [`arm`], in the
/// order they were opened.
pub fn disarm() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|rec| rec.spans).unwrap_or_default())
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Opens a span named `name` inside the innermost open span.
pub fn enter(name: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else { return Guard(None) };
        let idx = rec.spans.len();
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span { name, start_ns, end_ns: start_ns, parent: rec.open.last().copied() });
        rec.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end_ns = rec.origin.elapsed().as_nanos() as u64;
                rec.open.retain(|&open| open != idx);
            }
        });
    }
}

/// Self time per layer, seconds, in first-seen order: each span's
/// duration minus its direct children's durations, summed by layer.
pub fn self_seconds(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    for (span, children) in spans.iter().zip(&child_ns) {
        let own = span.duration_ns().saturating_sub(*children) as f64 * 1e-9;
        match layers.iter_mut().find(|(layer, _)| *layer == span.layer()) {
            Some((_, total)) => *total += own,
            None => layers.push((span.layer(), own)),
        }
    }
    layers
}

/// The spans as JSON lines: `{"name", "start_ns", "end_ns", "parent"}`.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for span in spans {
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            span.name, span.start_ns, span.end_ns, parent
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { name: "bench.pass", start_ns: 0, end_ns: 100, parent: None },
            Span { name: "core.run", start_ns: 10, end_ns: 70, parent: Some(0) },
            Span { name: "core.run", start_ns: 70, end_ns: 90, parent: Some(0) },
        ];
        let layers = self_seconds(&spans);
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].0, "bench");
        assert!((layers[0].1 - 20e-9).abs() < 1e-15);
        assert!((layers[1].1 - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn unarmed_enter_records_nothing_and_nesting_links_parents() {
        drop(enter("core.run"));
        assert!(disarm().is_empty());
        arm();
        {
            let _outer = enter("bench.pass");
            let _inner = enter("core.run");
        }
        let spans = disarm();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(to_json_lines(&spans).contains("\"parent\":0"));
    }
}
