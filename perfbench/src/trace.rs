//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a
//! layer's public function: name, start, end, and the span that caused
//! it. Spans nest through the closure form of [`Tracer::span`], so a
//! layer's self time is its duration minus the time its child spans
//! cover. Each thread owns one tracer; they are merged at the end.
//! With tracing off no clock is read and nothing is stored.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Raw spans kept for the written trace; past this, spans still feed
/// the per-name totals but are not stored one by one.
const MAX_STORED: usize = 200_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    thread: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

/// Per-name totals: how many spans, their summed duration and their
/// summed self time.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

pub struct Tracer {
    on: bool,
    thread: u32,
    origin: Instant,
    next_id: u64,
    stack: Vec<Open>,
    stored: Vec<Span>,
    dropped: u64,
    totals: BTreeMap<&'static str, Totals>,
    root_ns: u64,
    /// Wall time spent with recording on, closed intervals only.
    on_ns: u64,
    on_since: Instant,
}

impl Tracer {
    /// A tracer for thread number `thread`, timing from `origin`.
    pub fn new(on: bool, thread: u32, origin: Instant) -> Tracer {
        Tracer {
            on,
            thread,
            origin,
            next_id: (u64::from(thread) << 40) + 1,
            stack: Vec::new(),
            stored: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
            root_ns: 0,
            on_ns: 0,
            on_since: origin,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between spans (the traced run
    /// alternates traced and untraced rounds to measure the overhead).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        if self.on && !on {
            self.on_ns += self.on_since.elapsed().as_nanos() as u64;
        } else if !self.on && on {
            self.on_since = Instant::now();
        }
        self.on = on;
    }

    /// A tracer for another thread, sharing this one's clock origin.
    pub fn child(&self, thread: u32) -> Tracer {
        Tracer::new(self.on, thread, self.origin)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Opens a span named `name`; [`exit`](Tracer::exit) closes it.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.stack.push(Open {
            id: self.next_id,
            name,
            start: Instant::now(),
            child_ns: 0,
        });
        self.next_id += 1;
    }

    /// Closes the span [`enter`](Tracer::enter) opened last.
    pub fn exit(&mut self) {
        if self.on {
            self.close();
        }
    }

    fn close(&mut self) {
        let open = self.stack.pop().expect("close without open span");
        let end = Instant::now();
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let totals = self.totals.entry(open.name).or_default();
        totals.count += 1;
        totals.total_ns += dur;
        totals.self_ns += dur.saturating_sub(open.child_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => {
                self.root_ns += dur;
                0
            }
        };
        if self.stored.len() < MAX_STORED {
            self.stored.push(Span {
                id: open.id,
                parent,
                thread: self.thread,
                name: open.name,
                start_ns: open.start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
            });
        } else {
            self.dropped += 1;
        }
    }

    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// The share of the wall clock spent recording that this thread's
    /// root spans cover.
    pub fn coverage(&self) -> f64 {
        let mut on_ns = self.on_ns;
        if self.on {
            on_ns += self.on_since.elapsed().as_nanos() as u64;
        }
        self.root_ns as f64 / on_ns.max(1) as f64
    }

    /// Folds another thread's spans into this tracer (root time is kept
    /// per thread: coverage is measured on the main thread only).
    pub fn absorb(&mut self, other: Tracer) {
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.self_ns += t.self_ns;
        }
        let room = MAX_STORED.saturating_sub(self.stored.len());
        self.dropped += other.dropped + other.stored.len().saturating_sub(room) as u64;
        self.stored.extend(other.stored.into_iter().take(room));
    }

    /// Writes every stored span as one JSON object per line, then one
    /// line per span name with its count, total and self time.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.stored {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.thread, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, t) in &self.totals {
            writeln!(
                out,
                "{{\"layer\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        writeln!(out, "{{\"dropped_spans\":{}}}", self.dropped)?;
        out.flush()
    }

    /// Human-readable self-time table, largest first.
    pub fn self_time_table(&self) -> String {
        let mut rows: Vec<(&str, Totals)> = self.totals.iter().map(|(n, t)| (*n, *t)).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
        let mut s = String::from(
            "span                                      count     total_s      self_s\n",
        );
        for (name, t) in rows {
            s.push_str(&format!(
                "{name:<40} {:>8} {:>11.4} {:>11.4}\n",
                t.count,
                t.total_s(),
                t.self_ns as f64 / 1e9
            ));
        }
        s
    }
}
