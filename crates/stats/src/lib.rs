//! `msmr-stats` — live observability for the admission daemons.
//!
//! The daemon of this workspace (`msmr-served`, with or without
//! `--cluster`) serves online admission traffic, but until this crate
//! the only visibility was post-hoc `BENCH_kernels.json` entries. `msmr-stats`
//! is the missing live layer, modeled on sched_ext's `scx_stats` +
//! `scxtop` split: a small serializable metrics model, a lock-cheap
//! registry every layer feeds, and tooling on top.
//!
//! * [`StatsRegistry`] — atomics-only monotonic counters (admits,
//!   rejects, withdraws, online-seam vs `cold_fallback` decides, overloads,
//!   evictions, snapshot writes), an attached-clients gauge and one
//!   log-bucket [`LatencyHisto`] per op — the daemon's only latency
//!   view: the full-lifetime distribution, from which every served
//!   sample total and p50/p99 estimate derives
//!   ([`OpLatency::from_counts`]). The serve session layer, the
//!   cluster engine/store/worker-pool and the solver registry (through
//!   its verdict hook) all feed the same instance; recording a sample
//!   is a handful of relaxed atomic ops, so the hot admission path
//!   never takes a lock for a counter.
//! * [`StatsSnapshot`] — the serde-serializable point-in-time view
//!   ([`model`]): counters, gauges (live sessions per shard, worker
//!   queue depth), per-op latency histograms, a per-solver work table
//!   aggregated from [`msmr_sched::SolverStats`], and per-session rows.
//!   It travels two ways: as the protocol-v4 `stats` op, and over the
//!   [`listener`] side channel (`--stats-addr`), one snapshot line per
//!   connection, so scraping never competes with admission traffic.
//!   The side channel also answers `flight` with the recorder dump.
//! * [`FlightRecorder`] — a fixed-capacity, lock-cheap ring of
//!   structured [`Event`]s ([`events`]) fed from the same seams as the
//!   counters: admit/reject/withdraw with session and seq, overload
//!   bounces, TTL evictions, snapshot writes and quarantines, seq
//!   conflicts, dedups, client attach/detach. Dumpable as seq-ordered
//!   JSON over the side channel, to `--flight-out` on shutdown
//!   (including SIGTERM) and from a panic hook — the daemon's black
//!   box, consumed by `msmr-chaos` post-failure accounting.
//! * [`TraceWriter`] — per-solve span export as Chrome trace-event JSON
//!   (`--trace-out`): one complete `"X"` event per solver per decision
//!   on a stable per-solver lane (`tid`), `"M"` metadata events naming
//!   the process and each lane, periodic `"C"` counter events for
//!   saturation gauges, args carrying the full `SolverStats`, so an
//!   entire replay opens in Perfetto with one named track per solver
//!   and counter tracks beside the spans.
//! * [`audit`] — the one home of the model's own invariants: histogram
//!   summaries match their buckets, trace tallies and per-solver span
//!   counts match expectations and decision counters, and counters,
//!   flight events and histograms reconcile with a surviving history.
//!   `msmr-top`'s validators and every `msmr-chaos` scenario call it.
//! * `msmr-top` — a std-only terminal dashboard over the side channel:
//!   one repaint per snapshot poll with per-op histogram sparklines,
//!   per-session and per-solver tables, warm/cold ratio and a
//!   queue-depth sparkline. Its `--once` / `--check-trace` modes
//!   double as the validators the CI smoke scripts use, and `--replay`
//!   renders an offline post-mortem from a recorded trace (plus
//!   optional flight dump).
//!
//! Instrumentation is provenance-only by construction: nothing in this
//! crate touches a [`msmr_sched::Verdict`], so the byte-identity
//! contract between warm and cold evaluation is unaffected (pinned by
//! `msmr_serve::normalized_verdict_json` and its unit test).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod events;
pub mod histo;
pub mod listener;
pub mod model;
pub mod percentile;
pub mod registry;
pub mod trace;

pub use events::{Event, EventKind, FlightDump, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use histo::{bucket_bounds, bucket_index, percentile_from_counts, LatencyHisto, HISTO_BUCKETS};
pub use listener::{
    fetch_flight_dump, fetch_stats_json, serve_stats, FlightProvider, SnapshotProvider,
};
pub use model::{OpLatency, SessionRow, SolverRow, StatsCounters, StatsGauges, StatsSnapshot};
pub use percentile::nearest_rank;
pub use registry::StatsRegistry;
pub use trace::{
    parse_trace, SolverLane, TraceCounterSample, TraceEvents, TraceSpan, TraceSummary, TraceWriter,
};
