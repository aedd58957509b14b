//! The traced run's span recorder.
//!
//! A span records a name, a start and an end (wall ns since the
//! episode began), its parent span and the request (op) it belongs to.
//! Spans wrap the calls the benchmark makes into a layer; *shadow*
//! spans time a layer function the benchmark calls itself on the run's
//! own data (RPC encode/decode, an IPC round trip, the commit fold)
//! instead of a call into the system under test. Spans are kept in
//! memory and written out when the run ends. Self time is a span's
//! duration minus the time its child spans cover.
//!
//! Recording is off in untraced runs: `begin` then returns [`NONE`] and
//! `end` ignores it, so the untraced path pays one branch per call.

use crate::util::Clock;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// "No span": the parent of a root span, and the id `begin` hands out
/// while recording is off.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u32,
    pub shadow: bool,
    /// One number of layer context: pages locked by a transition call,
    /// bytes in a shadow frame, lateness of a request.
    pub tag: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Spans {
    on: bool,
    clock: Clock,
    pub list: Vec<Span>,
    stack: Vec<u32>,
    /// The request id stamped on spans begun from now on.
    pub req: u32,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            clock: Clock::start(),
            list: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NONE;
        }
        let id = self.list.len() as u32;
        self.list.push(Span {
            name,
            start: self.clock.ns(),
            end: 0,
            parent: self.stack.last().copied().unwrap_or(NONE),
            req: self.req,
            shadow: false,
            tag: 0,
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        if id != NONE {
            let name = self.list[id as usize].name;
            self.end_as(id, name, 0);
        }
    }

    /// Ends span `id`, renaming it (a call is classified as plain or
    /// transition only once it has returned) and tagging it.
    pub fn end_as(&mut self, id: u32, name: &'static str, tag: u64) {
        if id == NONE {
            return;
        }
        let now = self.clock.ns();
        let s = &mut self.list[id as usize];
        s.end = now;
        s.name = name;
        s.tag = tag;
        debug_assert_eq!(self.stack.last(), Some(&id), "spans end in LIFO order");
        self.stack.pop();
    }

    /// Runs `f` inside a shadow span. Only called while recording.
    pub fn shadow<R>(&mut self, name: &'static str, tag: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = std::hint::black_box(f());
        if id != NONE {
            self.list[id as usize].shadow = true;
        }
        self.end_as(id, name, tag);
        r
    }

    pub fn named(&self, name: &str) -> impl Iterator<Item = &Span> + '_ {
        let name = name.to_owned();
        self.list.iter().filter(move |s| s.name == name)
    }

    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.named(name).map(Span::dur).collect()
    }

    /// Per-span self time: duration minus the time its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.list.len()];
        for s in &self.list {
            if s.parent != NONE {
                covered[s.parent as usize] += s.dur();
            }
        }
        self.list
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur().saturating_sub(c))
            .collect()
    }

    /// Total self time per span name, in ns.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.list.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.list.iter().zip(self.self_times()).enumerate() {
            let parent = if s.parent == NONE {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"shadow\":{},\"tag\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start, s.end, s.req, s.shadow, s.tag
            );
        }
        out
    }
}
