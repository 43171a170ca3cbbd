//! The in-memory sink: records every telemetry call as an owned value,
//! for tests that assert on engine behavior (counters, span shapes)
//! without touching the filesystem.

use std::sync::Mutex;

use zen2_sim::obs::{Attr, AttrValue, Recorder, SpanId};

/// An owned attribute value (the facade hands out borrows only).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// A flag.
    Bool(bool),
}

impl Value {
    fn own(v: AttrValue<'_>) -> Value {
        match v {
            AttrValue::U64(n) => Value::U64(n),
            AttrValue::F64(x) => Value::F64(x),
            AttrValue::Str(s) => Value::Str(s.to_string()),
            AttrValue::Bool(b) => Value::Bool(b),
        }
    }
}

/// One recorded telemetry call.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A span opened.
    SpanOpen {
        /// The span's id.
        id: u64,
        /// The parent span, if any.
        parent: Option<u64>,
        /// The span name (`"sweep"`, `"case"`, …).
        name: &'static str,
        /// The open-call attributes, owned.
        attrs: Vec<(&'static str, Value)>,
    },
    /// A span closed.
    SpanClose {
        /// The id of the span being closed.
        id: u64,
    },
    /// A counter increment.
    Counter {
        /// The counter name.
        name: &'static str,
        /// The increment (never zero).
        delta: u64,
    },
    /// A gauge level.
    Gauge {
        /// The gauge name.
        name: &'static str,
        /// The level.
        value: f64,
    },
    /// One distribution observation.
    Observe {
        /// The distribution name.
        name: &'static str,
        /// The observation.
        value: f64,
    },
    /// A point event.
    Event {
        /// The event name.
        name: &'static str,
        /// The event attributes, owned.
        attrs: Vec<(&'static str, Value)>,
    },
}

/// Collects every call into a `Vec<Record>` behind a mutex.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<Record>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A copy of everything recorded so far, in arrival order.
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().expect("memory sink poisoned").clone()
    }

    /// Sum of all deltas recorded for counter `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.records()
            .iter()
            .filter_map(|r| match r {
                Record::Counter { name: n, delta } if *n == name => Some(*delta),
                _ => None,
            })
            .sum()
    }

    /// How many spans named `name` were opened.
    pub fn span_count(&self, name: &str) -> usize {
        self.records()
            .iter()
            .filter(|r| matches!(r, Record::SpanOpen { name: n, .. } if *n == name))
            .count()
    }

    /// The last level recorded for gauge `name`, if any.
    pub fn gauge_last(&self, name: &str) -> Option<f64> {
        self.records().iter().rev().find_map(|r| match r {
            Record::Gauge { name: n, value } if *n == name => Some(*value),
            _ => None,
        })
    }

    fn push(&self, r: Record) {
        self.records.lock().expect("memory sink poisoned").push(r);
    }
}

fn own_attrs(attrs: &[Attr<'_>]) -> Vec<(&'static str, Value)> {
    attrs.iter().map(|(k, v)| (*k, Value::own(*v))).collect()
}

impl Recorder for MemorySink {
    fn span_open(
        &self,
        id: SpanId,
        parent: Option<SpanId>,
        name: &'static str,
        attrs: &[Attr<'_>],
    ) {
        self.push(Record::SpanOpen {
            id: id.0,
            parent: parent.map(|p| p.0),
            name,
            attrs: own_attrs(attrs),
        });
    }

    fn span_close(&self, id: SpanId) {
        self.push(Record::SpanClose { id: id.0 });
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.push(Record::Counter { name, delta });
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.push(Record::Gauge { name, value });
    }

    fn observe(&self, name: &'static str, value: f64) {
        self.push(Record::Observe { name, value });
    }

    fn event(&self, name: &'static str, attrs: &[Attr<'_>]) {
        self.push(Record::Event { name, attrs: own_attrs(attrs) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_summarizes() {
        let sink = MemorySink::new();
        sink.span_open(SpanId(7), None, "case", &[("index", AttrValue::U64(3))]);
        sink.counter("cache.hit", 2);
        sink.counter("cache.hit", 3);
        sink.gauge("cache.len", 1.0);
        sink.gauge("cache.len", 4.0);
        sink.span_close(SpanId(7));
        assert_eq!(sink.counter_total("cache.hit"), 5);
        assert_eq!(sink.counter_total("cache.miss"), 0);
        assert_eq!(sink.span_count("case"), 1);
        assert_eq!(sink.gauge_last("cache.len"), Some(4.0));
        let records = sink.records();
        assert_eq!(records.len(), 6);
        assert_eq!(
            records[0],
            Record::SpanOpen {
                id: 7,
                parent: None,
                name: "case",
                attrs: vec![("index", Value::U64(3))],
            }
        );
    }
}
