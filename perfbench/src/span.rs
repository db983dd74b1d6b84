//! In-memory span recording around calls into the product's layers.
//!
//! A [`Recorder`] belongs to one worker thread. When tracing is off,
//! [`Recorder::span`] only calls its closure, so the untraced run does
//! exactly the work of the traced one minus the clock reads. When it
//! is on, every span stores its name, start, end, parent span and the
//! path or interval it worked for; self times are the span's duration
//! minus the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// The path (fleet) or interval (audit) the span worked for.
    pub unit: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open (innermost last); a span's
    /// slot is reserved when it opens so parents precede children.
    open: Vec<usize>,
    unit: u64,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant) -> Recorder {
        Recorder {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tag the spans that follow with a path or interval id.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub calls: u64,
    /// Sum of span durations (inclusive of children).
    pub total_ns: u64,
    /// Sum of self times (children excluded).
    pub self_ns: u64,
}

/// Fold spans (from any number of recorders, each slice self-contained
/// so parent indices resolve within it) into per-name totals.
pub fn totals(recorders: &[Vec<Span>]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for spans in recorders {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        for (s, c) in spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(*c);
        }
    }
    out
}

/// Render spans as tab-separated lines:
/// `worker name start_ns end_ns parent unit` (parent `-` for roots).
pub fn render_tsv(recorders: &[Vec<Span>]) -> String {
    let mut s = String::from("worker\tname\tstart_ns\tend_ns\tparent\tunit\n");
    for (w, spans) in recorders.iter().enumerate() {
        for sp in spans {
            let parent = sp.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{w}\t{}\t{}\t{}\t{parent}\t{}",
                sp.name, sp.start_ns, sp.end_ns, sp.unit
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(true, Instant::now());
        r.span("outer", |r| {
            r.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = r.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        let t = totals(&[spans]);
        let (outer, inner) = (t["outer"], t["inner"]);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut r = Recorder::new(false, Instant::now());
        assert_eq!(r.span("x", |_| 7), 7);
        assert!(r.into_spans().is_empty());
    }
}
