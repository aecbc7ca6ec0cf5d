//! In-memory spans for the traced run (`--trace 1`), recorded from the benchmark's own
//! files around its calls into each layer; spans *inside* the engine are a later issue.
//!
//! A span carries name, start, end, parent, the turn it belongs to and how many work
//! units (packets, frames, events, calls) it covered. Spans are kept in a pre-sized
//! vector and written out once, at exit, to `target/benchmark/<workload>/trace.jsonl`.
//! A layer's **self time** is its spans' duration minus the part their direct children
//! cover, so nested spans never count a nanosecond twice and the per-layer figures
//! printed by the benchmark can be recomputed from the file alone.

use std::io::Write;
use std::time::Instant;

/// "No parent": the span is a root.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>` — the layer is everything before the first dot.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The turn (or, on `contention_cold`, the leg) this span belongs to.
    pub turn: u32,
    /// Work units the span covered (per-packet calls are spanned one burst at a time: a
    /// span around each ~30 ns call would cost more than the call).
    pub units: u32,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// The span recorder. Single-threaded by construction (the benchmark drives the engine
/// from one thread).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    turn: u32,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, so recording does not allocate while a
    /// measured call is running.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            turn: 0,
        }
    }

    /// Forgets every span (capacity kept) — used to discard warm-up replays.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.open.clear();
    }

    /// Sets the turn id stamped on spans opened from now on.
    pub fn set_turn(&mut self, turn: u32) {
        self.turn = turn;
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.open.push(id);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            turn: self.turn,
            units: 1,
        });
        // Read the clock last, so the bookkeeping above lands outside the span.
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span, as one work unit.
    pub fn exit(&mut self, id: SpanId) {
        self.exit_units(id, 1);
    }

    /// Closes `id` recording that it covered `units` work units.
    pub fn exit_units(&mut self, id: SpanId, units: usize) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost-first");
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        span.units = units as u32;
    }

    /// Runs `f` inside a one-unit span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Runs `f` inside a span named `name`; `f` returns its result and the work units it
    /// covered.
    pub fn span_units<R>(&mut self, name: &'static str, f: impl FnOnce() -> (R, usize)) -> R {
        let id = self.enter(name);
        let (out, units) = f();
        self.exit_units(id, units);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: duration minus the duration of its direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != ROOT {
            let p = span.parent as usize;
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Writes one JSON object per span: `{"id":..,"name":..,"start_ns":..,"end_ns":..,
/// "parent":..|null,"turn":..,"units":..}`.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"turn\":{},\"units\":{}}}",
            s.name, s.start_ns, s.end_ns, s.turn, s.units
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            turn: 0,
            units: 2,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children_only() {
        // root 0..100 { a 10..60 { b 20..30 }, c 70..90 }
        let spans = [
            span("core.turn", 0, 100, ROOT),
            span("rtc.a", 10, 60, 0),
            span("rtc.b", 20, 30, 1),
            span("sim.c", 70, 90, 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        // Self times partition the root's duration exactly.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_stamps_turns_and_keeps_opening_order() {
        let mut t = Tracer::with_capacity(8);
        t.set_turn(7);
        let outer = t.enter("core.turn");
        t.span("rtc.pacer", || std::hint::black_box(1 + 1));
        t.span_units("rtc.pacer", || (std::hint::black_box(2 + 2), 5));
        t.exit(outer);
        t.set_turn(8);
        t.span("mllm.respond", || ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (ROOT, 0, 0, ROOT)
        );
        assert_eq!((s[0].turn, s[3].turn), (7, 8));
        assert_eq!((s[1].units, s[2].units), (1, 5));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[2].start_ns && s[2].end_ns <= s[0].end_ns);
        let own = self_times_ns(s);
        assert_eq!(
            own[0],
            s[0].duration_ns() - s[1].duration_ns() - s[2].duration_ns()
        );
    }

    #[test]
    fn jsonl_lines_strict_parse_and_round_trip_the_fields() {
        let spans = [span("core.turn", 5, 50, ROOT), span("netsim.link_send", 6, 9, 0)];
        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v: serde::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(
            v.field("name").unwrap(),
            &serde::Value::Str("netsim.link_send".into())
        );
        assert_eq!(v.field("parent").unwrap(), &serde::Value::I64(0));
        let root: serde::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(root.field("parent").unwrap(), &serde::Value::Null);
    }
}
