//! The flight recorder: a bounded ring of recent structured events.
//!
//! Writers claim a slot with one atomic `fetch_add` on the ring cursor —
//! writers on different slots never contend — and publish the event under
//! that slot's own mutex (a per-slot lock, not a global one; the workspace
//! forbids `unsafe`, so a seqlock over non-atomic payloads is off the
//! table).  The ring keeps the last `capacity` events; older events are
//! overwritten, which is the point: when the fleet poisons, the recorder
//! holds the moments *before* the crash.
//!
//! Dumps are encode-only (`render_json`, [`FlightRecorder::dump_to_dir`]):
//! the recorder never reads a dump back, so the decode-hygiene policy does
//! not apply to this path (see ROADMAP standing policies).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// One typed field value of an [`Event`].
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Text.
    Text(String),
}

impl FieldValue {
    fn render_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => out.push_str(&v.to_string()),
            FieldValue::I64(v) => out.push_str(&v.to_string()),
            FieldValue::F64(v) if v.is_finite() => out.push_str(&v.to_string()),
            FieldValue::F64(_) => out.push_str("null"),
            FieldValue::Text(v) => {
                out.push('"');
                out.push_str(&escape_json(v));
                out.push('"');
            }
        }
    }
}

/// One structured event in the ring.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// Wall-clock microseconds since the Unix epoch at record time.
    pub unix_micros: u64,
    /// Event kind (`"span"`, `"migration_triggered"`, `"wal_fsync_failed"`, …).
    pub kind: &'static str,
    /// Typed key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// The bounded event ring.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<Event>>>,
    cursor: AtomicU64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one event; a no-op while recording is disabled.  Claiming
    /// the slot is a single `fetch_add`; only two writers landing on the
    /// same slot (one full ring apart) ever touch the same lock.
    pub fn record(&self, kind: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        if !crate::enabled() {
            return;
        }
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let unix_micros = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
        // A lapped writer (seq smaller than what the slot already holds)
        // must not roll the ring backwards.
        if slot.as_ref().is_none_or(|held| held.seq < seq) {
            *slot = Some(Event {
                seq,
                unix_micros,
                kind,
                fields,
            });
        }
    }

    /// The retained events, oldest first (read-side).
    pub fn events(&self) -> Vec<Event> {
        let mut events: Vec<Event> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Renders the retained events as a JSON document (encode-only).
    pub fn render_json(&self) -> String {
        let events = self.events();
        let mut out = String::from("{\n  \"events\": [\n");
        for (i, event) in events.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"seq\": {}, \"unix_micros\": {}, \"kind\": \"{}\"",
                event.seq,
                event.unix_micros,
                escape_json(event.kind)
            ));
            for (key, value) in &event.fields {
                out.push_str(&format!(", \"{}\": ", escape_json(key)));
                value.render_json(&mut out);
            }
            out.push('}');
            if i + 1 < events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the ring as `flight-recorder-<label>-<pid>.json` under `dir`
    /// (created if missing) and returns the path.  Called when the fleet
    /// poisons, when a checkpoint/recovery fails, and on demand.  A later
    /// dump of the same label by the same process replaces the earlier one
    /// (through a temporary file and a rename, so a reader never sees a
    /// half-written dump): the ring already holds the events before it, and
    /// a process leaves at most one dump per label behind.
    pub fn dump_to_dir(&self, dir: &Path, label: &str) -> std::io::Result<PathBuf> {
        static DUMPS: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(dir)?;
        let pid = std::process::id();
        let path = dir.join(format!("flight-recorder-{label}-{pid}.json"));
        // One temporary name per call, so two threads dumping the same
        // label never write into each other's file.
        let seq = DUMPS.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!("flight-recorder-{label}-{pid}.json.tmp{seq}"));
        let written =
            std::fs::write(&tmp, self.render_json()).and_then(|()| std::fs::rename(&tmp, &path));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written.map(|()| path)
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_keeps_the_newest_events() {
        let _guard = crate::tests::enabled_lock();
        let recorder = FlightRecorder::with_capacity(4);
        for i in 0..10u64 {
            recorder.record("tick", vec![("i", FieldValue::U64(i))]);
        }
        let events = recorder.events();
        assert_eq!(events.len(), 4);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest events were overwritten");
        assert_eq!(events[3].fields, vec![("i", FieldValue::U64(9))]);
    }

    #[test]
    fn concurrent_writers_fill_the_ring_consistently() {
        let _guard = crate::tests::enabled_lock();
        let recorder = std::sync::Arc::new(FlightRecorder::with_capacity(64));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let recorder = recorder.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        recorder.record("stress", vec![("v", FieldValue::U64(t * 1000 + i))]);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let events = recorder.events();
        assert_eq!(events.len(), 64);
        // The ring retains exactly the highest 64 sequence numbers.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (8000 - 64..8000).collect::<Vec<u64>>());
    }

    #[test]
    fn json_dump_escapes_and_round_names_the_file() {
        let _guard = crate::tests::enabled_lock();
        let recorder = FlightRecorder::with_capacity(8);
        recorder.record(
            "note",
            vec![
                ("text", FieldValue::Text("a \"quoted\"\nline".to_string())),
                ("neg", FieldValue::I64(-3)),
                ("ratio", FieldValue::F64(0.5)),
                ("nan", FieldValue::F64(f64::NAN)),
            ],
        );
        let json = recorder.render_json();
        assert!(json.contains("\\\"quoted\\\"\\nline"), "{json}");
        assert!(json.contains("\"neg\": -3"), "{json}");
        assert!(json.contains("\"ratio\": 0.5"), "{json}");
        assert!(json.contains("\"nan\": null"), "{json}");

        let dir = std::env::temp_dir().join(format!("tkcm-obs-dump-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = recorder.dump_to_dir(&dir, "test").unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert_eq!(
            name,
            format!("flight-recorder-test-{}.json", std::process::id())
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
        // A second dump of the same label replaces the first.
        recorder.record("note", vec![("second", FieldValue::U64(2))]);
        assert_eq!(recorder.dump_to_dir(&dir, "test").unwrap(), path);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            recorder.render_json()
        );
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
