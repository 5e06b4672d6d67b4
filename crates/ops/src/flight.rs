//! The flight recorder: a bounded ring of recent per-interval facts.
//!
//! A soak run that ends in a safety violation is only as useful as the
//! evidence it leaves behind. The recorder keeps the last `capacity`
//! entries — decision rows, observe events, whatever the owner pushes
//! — at O(1) per interval and renders them as NDJSON on demand, so a
//! dying run can dump *what led up to the failure* without having
//! logged anything during the healthy hours before it. The dump's
//! first line is a `flight_meta` record stating how many earlier
//! entries the ring had already forgotten.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use sw_observe::event::{push_json_str, push_json_value, Value};

/// One recorded entry: an interval stamp, a kind tag, and named fields.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEntry {
    /// Broadcast interval the entry belongs to.
    pub t: u64,
    /// Entry kind (`decision`, `report_missed`, `safety_violation`, …).
    pub kind: &'static str,
    /// Named payload fields, rendered in insertion order.
    pub fields: Vec<(&'static str, Value)>,
}

impl FlightEntry {
    fn render(&self, out: &mut String) {
        let _ = write!(out, "{{\"t\":{},\"kind\":", self.t);
        push_json_str(out, self.kind);
        for (name, value) in &self.fields {
            out.push(',');
            push_json_str(out, name);
            out.push(':');
            push_json_value(out, value);
        }
        out.push_str("}\n");
    }
}

/// A bounded ring buffer of [`FlightEntry`] values.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    entries: VecDeque<FlightEntry>,
    forgotten: u64,
}

impl FlightRecorder {
    /// A ring keeping the most recent `capacity` entries (0 records
    /// nothing, which is how a disabled recorder is spelled).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity,
            entries: VecDeque::with_capacity(capacity.min(4096)),
            forgotten: 0,
        }
    }

    /// True when this recorder keeps nothing (capacity 0).
    pub fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Appends one entry, evicting the oldest when full. Fields are
    /// `(name, count)` pairs — a counter record's `named()`, or a
    /// literal list.
    pub fn push(
        &mut self,
        t: u64,
        kind: &'static str,
        fields: impl IntoIterator<Item = (&'static str, u64)>,
    ) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.forgotten += 1;
        }
        self.entries.push_back(FlightEntry {
            t,
            kind,
            fields: fields
                .into_iter()
                .map(|(k, v)| (k, Value::U64(v)))
                .collect(),
        });
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded (or capacity is 0).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates the held entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &FlightEntry> {
        self.entries.iter()
    }

    /// Renders the ring as NDJSON: one `flight_meta` line (`reason`,
    /// held/forgotten counts) followed by every held entry, oldest
    /// first.
    pub fn to_ndjson(&self, reason: &str) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"kind\":\"flight_meta\",\"reason\":");
        push_json_str(&mut out, reason);
        let _ = writeln!(
            out,
            ",\"entries\":{},\"forgotten\":{}}}",
            self.entries.len(),
            self.forgotten
        );
        for e in &self.entries {
            e.render(&mut out);
        }
        out
    }

    /// Dumps the ring to `path` as NDJSON; returns the byte count
    /// written.
    pub fn dump(&self, path: impl AsRef<Path>, reason: &str) -> io::Result<u64> {
        let body = self.to_ndjson(reason);
        std::fs::write(path, &body)?;
        Ok(body.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_the_most_recent() {
        let mut fr = FlightRecorder::new(3);
        for t in 1..=5u64 {
            fr.push(t, "decision", [("queries", t)]);
        }
        assert_eq!(fr.len(), 3);
        let ts: Vec<u64> = fr.entries().map(|e| e.t).collect();
        assert_eq!(ts, vec![3, 4, 5]);
        let dump = fr.to_ndjson("test");
        let mut lines = dump.lines();
        assert_eq!(
            lines.next().unwrap(),
            "{\"kind\":\"flight_meta\",\"reason\":\"test\",\"entries\":3,\"forgotten\":2}"
        );
        assert_eq!(
            lines.next().unwrap(),
            "{\"t\":3,\"kind\":\"decision\",\"queries\":3}"
        );
        assert_eq!(dump.lines().count(), 4);
    }

    #[test]
    fn zero_capacity_is_disabled() {
        let mut fr = FlightRecorder::new(0);
        fr.push(1, "decision", []);
        assert!(fr.is_disabled());
        assert!(fr.is_empty());
        assert_eq!(fr.to_ndjson("r").lines().count(), 1, "meta line only");
    }

    #[test]
    fn dump_writes_ndjson_to_disk() {
        let mut fr = FlightRecorder::new(2);
        fr.push(7, "safety_violation", [("item", 42)]);
        let dir = std::env::temp_dir().join(format!("sw-ops-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.ndjson");
        let n = fr.dump(&path, "unit test").unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(n as usize, body.len());
        assert!(body.contains("\"item\":42"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
