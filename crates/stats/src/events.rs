//! The flight recorder: a fixed-capacity ring of recent structured
//! events, kept so the post-mortem exists *before* anything went wrong.
//!
//! Counters say how often something happened; the flight recorder says
//! what happened *last*, in order. Every seam that already feeds the
//! [`crate::StatsRegistry`] counters (`record_admit`, `record_overload`,
//! TTL evictions, snapshot quarantines, seq dedupes, client attach /
//! detach) also appends one [`Event`] here. Recording is one short
//! mutex push into a bounded ring — no allocation beyond the event
//! itself, no I/O — so it is safe on the admission hot path; when the
//! ring is full the oldest event is overwritten (the recorder remembers
//! how many were dropped).
//!
//! The recorded history is exported as a [`FlightDump`]: seq-ordered
//! (oldest first), serde-serializable JSON. Three surfaces dump it:
//! the side-channel `flight` command, the daemon's SIGTERM path
//! (`--flight-out`), and the daemon's panic hook — so a crashed or
//! killed run still leaves a readable record of its last moments.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Default event capacity of the recorder ring.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// What happened. Unit variants only, so the wire form is a plain
/// string (`"Admit"`) and adding a payload later is a wire change the
/// reader will reject loudly instead of misparse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// An admission was accepted.
    Admit,
    /// An admission was rejected.
    Reject,
    /// An admitted job was withdrawn.
    Withdraw,
    /// A session (re)submission replaced the job set.
    Submit,
    /// A request bounced with a typed `Overload` frame.
    Overload,
    /// The TTL reaper evicted an idle session.
    Eviction,
    /// A session snapshot was written to the snapshot store.
    SnapshotWrite,
    /// A corrupt snapshot file was quarantined at restore time.
    SnapshotQuarantine,
    /// A replayed seq named a recorded decision with a different op.
    SeqConflict,
    /// A replayed op was acknowledged by seq-dedupe without re-applying.
    Dedup,
    /// A client attached to the main endpoint.
    ClientAttach,
    /// A client detached from the main endpoint.
    ClientDetach,
}

impl EventKind {
    /// Every kind, in declaration order: the order a parse error lists
    /// the names in.
    const ALL: [EventKind; 12] = [
        EventKind::Admit,
        EventKind::Reject,
        EventKind::Withdraw,
        EventKind::Submit,
        EventKind::Overload,
        EventKind::Eviction,
        EventKind::SnapshotWrite,
        EventKind::SnapshotQuarantine,
        EventKind::SeqConflict,
        EventKind::Dedup,
        EventKind::ClientAttach,
        EventKind::ClientDetach,
    ];

    /// The lowercase, separator-free name a filter spells the kind with.
    fn name(self) -> &'static str {
        match self {
            EventKind::Admit => "admit",
            EventKind::Reject => "reject",
            EventKind::Withdraw => "withdraw",
            EventKind::Submit => "submit",
            EventKind::Overload => "overload",
            EventKind::Eviction => "eviction",
            EventKind::SnapshotWrite => "snapshotwrite",
            EventKind::SnapshotQuarantine => "snapshotquarantine",
            EventKind::SeqConflict => "seqconflict",
            EventKind::Dedup => "dedup",
            EventKind::ClientAttach => "clientattach",
            EventKind::ClientDetach => "clientdetach",
        }
    }
}

/// Parses a kind name case-insensitively, ignoring `-` and `_`, so
/// `snapshot-write`, `SnapshotWrite` and `snapshot_write` all name
/// [`EventKind::SnapshotWrite`].
impl std::str::FromStr for EventKind {
    type Err = String;

    fn from_str(name: &str) -> Result<EventKind, String> {
        let normalized = name.replace(['-', '_'], "").to_ascii_lowercase();
        EventKind::ALL
            .into_iter()
            .find(|kind| kind.name() == normalized)
            .ok_or_else(|| {
                let names: Vec<&str> = EventKind::ALL.iter().map(|kind| kind.name()).collect();
                format!("unknown event kind `{name}` (one of: {})", names.join(", "))
            })
    }
}

/// One recorded event.
///
/// `session` and `op_seq` are filled when the recording seam knows them
/// (the cluster store labels its sessions; the session layer knows its
/// own decision seq) and `None` otherwise, so a connection's private
/// session records unlabeled events through the same seams.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Recorder-assigned monotonic sequence number (1-based).
    pub seq: u64,
    /// Microseconds since the recorder was created (daemon boot).
    pub ts_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// Session name, when the seam knows it.
    pub session: Option<String>,
    /// The session-level decision seq of the op, when the seam knows it.
    pub op_seq: Option<u64>,
}

/// A serializable export of the recorder's current contents:
/// seq-ordered events (oldest first) plus the bookkeeping needed to
/// read a truncated history honestly.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Ring capacity the recorder ran with.
    pub capacity: u64,
    /// Events ever recorded (monotonic).
    pub recorded: u64,
    /// Events overwritten by newer ones (`recorded - events.len()`).
    pub dropped: u64,
    /// The surviving events, seq-ordered oldest first.
    pub events: Vec<Event>,
}

impl FlightDump {
    /// Events of one kind still in the dump.
    #[must_use]
    pub fn count(&self, kind: EventKind) -> u64 {
        self.events.iter().filter(|e| e.kind == kind).count() as u64
    }
}

/// The fixed-capacity, overwrite-oldest event ring.
///
/// All state lives behind one mutex; the critical section is a seq
/// increment and a bounded `VecDeque` push, so contention is comparable
/// to the registry's per-verdict solver-table lock.
#[derive(Debug)]
pub struct FlightRecorder {
    start: Instant,
    capacity: usize,
    inner: Mutex<FlightInner>,
}

#[derive(Debug)]
struct FlightInner {
    next_seq: u64,
    ring: VecDeque<Event>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// Creates a recorder with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// Creates a recorder holding at most `capacity` events (min 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            start: Instant::now(),
            capacity,
            inner: Mutex::new(FlightInner {
                next_seq: 0,
                ring: VecDeque::with_capacity(capacity),
            }),
        }
    }

    /// Ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends one event, overwriting the oldest when full.
    pub fn record(&self, kind: EventKind, session: Option<&str>, op_seq: Option<u64>) {
        let ts_us = self.start.elapsed().as_micros() as u64;
        let mut inner = self.inner.lock().expect("flight recorder lock");
        inner.next_seq += 1;
        let event = Event {
            seq: inner.next_seq,
            ts_us,
            kind,
            session: session.map(str::to_string),
            op_seq,
        };
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(event);
    }

    /// Events ever recorded (monotonic; not capped by the ring).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.inner.lock().expect("flight recorder lock").next_seq
    }

    /// Point-in-time export of the surviving events, oldest first.
    #[must_use]
    pub fn dump(&self) -> FlightDump {
        let inner = self.inner.lock().expect("flight recorder lock");
        let events: Vec<Event> = inner.ring.iter().cloned().collect();
        FlightDump {
            capacity: self.capacity as u64,
            recorded: inner.next_seq,
            dropped: inner.next_seq - events.len() as u64,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_seq_ordered_and_timestamped() {
        let recorder = FlightRecorder::new();
        recorder.record(EventKind::ClientAttach, None, None);
        recorder.record(EventKind::Admit, Some("tenant-a"), Some(1));
        recorder.record(EventKind::Reject, Some("tenant-a"), Some(2));
        let dump = recorder.dump();
        assert_eq!(dump.recorded, 3);
        assert_eq!(dump.dropped, 0);
        assert_eq!(dump.capacity, DEFAULT_FLIGHT_CAPACITY as u64);
        let seqs: Vec<u64> = dump.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert!(dump.events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert_eq!(dump.events[1].session.as_deref(), Some("tenant-a"));
        assert_eq!(dump.events[1].op_seq, Some(1));
        assert_eq!(dump.count(EventKind::Admit), 1);
        assert_eq!(dump.count(EventKind::Eviction), 0);
    }

    #[test]
    fn kind_names_parse_case_and_separator_insensitively() {
        for kind in EventKind::ALL {
            assert_eq!(kind.name().parse(), Ok(kind));
            assert_eq!(format!("{kind:?}").to_uppercase().parse(), Ok(kind));
        }
        assert_eq!("Snapshot-Write".parse(), Ok(EventKind::SnapshotWrite));
        assert_eq!("seq_conflict".parse(), Ok(EventKind::SeqConflict));
        let message = "bogus".parse::<EventKind>().unwrap_err();
        assert!(
            message.starts_with("unknown event kind `bogus` (one of: admit, reject, "),
            "{message}"
        );
        assert!(
            message.ends_with("clientattach, clientdetach)"),
            "{message}"
        );
    }

    #[test]
    fn full_ring_overwrites_oldest_and_counts_drops() {
        let recorder = FlightRecorder::with_capacity(4);
        for i in 0..10u64 {
            recorder.record(EventKind::Admit, None, Some(i + 1));
        }
        let dump = recorder.dump();
        assert_eq!(dump.capacity, 4);
        assert_eq!(dump.recorded, 10);
        assert_eq!(dump.dropped, 6);
        let seqs: Vec<u64> = dump.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10], "oldest events were overwritten");
    }

    #[test]
    fn dump_round_trips_through_json() {
        let recorder = FlightRecorder::with_capacity(8);
        recorder.record(EventKind::SnapshotQuarantine, Some("tenant-x"), None);
        recorder.record(EventKind::Dedup, Some("tenant-y"), Some(7));
        let dump = recorder.dump();
        let json = serde_json::to_string(&dump).expect("dumps serialize");
        let parsed: FlightDump = serde_json::from_str(&json).expect("dumps parse");
        assert_eq!(parsed, dump);
    }

    #[test]
    fn events_tolerate_unknown_fields_for_forward_compat() {
        // A newer daemon may append fields; an older reader must still
        // parse the ones it knows. The vendored derive reads only the
        // declared keys, which this test pins.
        let json = r#"{"seq":3,"ts_us":99,"kind":"Overload","session":"t",
                       "op_seq":null,"future_field":{"nested":[1,2]}}"#;
        let event: Event = serde_json::from_str(json).expect("unknown fields are ignored");
        assert_eq!(event.seq, 3);
        assert_eq!(event.kind, EventKind::Overload);
        assert_eq!(event.session.as_deref(), Some("t"));
        assert_eq!(event.op_seq, None);
    }

    #[test]
    fn concurrent_recording_never_loses_events() {
        let recorder = std::sync::Arc::new(FlightRecorder::with_capacity(4096));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let recorder = std::sync::Arc::clone(&recorder);
                scope.spawn(move || {
                    for i in 0..250u64 {
                        recorder.record(EventKind::Admit, None, Some(i));
                    }
                });
            }
        });
        let dump = recorder.dump();
        assert_eq!(dump.recorded, 1000);
        assert_eq!(dump.dropped, 0);
        // Seqs are unique and strictly increasing in the dump.
        assert!(dump.events.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}
