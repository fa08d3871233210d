//! The ring-buffered structured tracer.
//!
//! A [`Trace`] holds the most recent `capacity` events of one episode.
//! Recording is append-only and purely a function of the recorded events,
//! so keeping a trace alongside a chained trace hash never perturbs
//! determinism: the ring is evidence *about* the run, not part of it.
//!
//! When the buffer is full the oldest events are discarded and counted in
//! [`Trace::dropped`] — a failing episode's trace therefore always ends at
//! the failure, with the causal story of the final events intact.

use std::collections::VecDeque;

use crate::event::{TraceEvent, Traced};

/// Default ring capacity: enough to hold a full DST episode's judgment
/// tail while keeping a 1000-episode sweep's memory use modest.
pub const DEFAULT_TRACE_CAPACITY: usize = 2048;

/// A bounded, ordered buffer of [`Traced`] events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    events: VecDeque<Traced>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// An empty trace holding at most `capacity` events. A capacity of 0
    /// disables recording entirely (every push is counted as dropped).
    pub fn with_capacity(capacity: usize) -> Self {
        Trace { events: VecDeque::with_capacity(capacity.min(1024)), capacity, dropped: 0 }
    }

    /// Records one event at virtual time `at_micros`, evicting the oldest
    /// event if the ring is full.
    pub fn push(&mut self, at_micros: u64, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(Traced { at_micros, event });
    }

    /// Events currently buffered, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Traced> {
        self.events.iter()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted (or never stored) because of the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the buffered events as human-readable lines, one per event,
    /// with a header noting any eviction. The causal story of an episode.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!(
                "... {} earlier event(s) evicted from the {}-event ring ...\n",
                self.dropped, self.capacity
            ));
        }
        for ev in &self.events {
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }

    /// Renders the buffered events as JSONL, each line prefixed with the
    /// given extra string fields (e.g. episode arm and seed).
    pub fn to_jsonl(&self, extra: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json(extra));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(msg: u64) -> TraceEvent {
        TraceEvent::MessageSent { msg, flow: 0 }
    }

    #[test]
    fn ring_keeps_the_newest_events() {
        let mut t = Trace::with_capacity(3);
        for i in 0..5 {
            t.push(i * 10, ev(i));
        }
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.dropped(), 2);
        let msgs: Vec<u64> = t
            .events()
            .map(|e| match e.event {
                TraceEvent::MessageSent { msg, .. } => msg,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(msgs, vec![2, 3, 4]);
        assert!(t.render().starts_with("... 2 earlier event(s)"));
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let mut t = Trace::with_capacity(0);
        t.push(0, ev(1));
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.render(), "... 1 earlier event(s) evicted from the 0-event ring ...\n");
    }

    #[test]
    fn jsonl_has_one_line_per_event_with_prefix() {
        let mut t = Trace::with_capacity(8);
        t.push(1, ev(1));
        t.push(2, TraceEvent::Tick);
        let jsonl = t.to_jsonl(&[("episode", "lossy"), ("seed", "7")]);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(line.starts_with("{\"episode\":\"lossy\",\"seed\":\"7\","), "{line}");
            assert!(line.ends_with('}'));
        }
    }
}
