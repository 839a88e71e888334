//! Tier-wide stats aggregation.
//!
//! The router answers the protocol's `Stats(None)` op — and serves its
//! own `--stats-addr` side channel — with one merged
//! [`StatsSnapshot`]: each alive backend is scraped over a pooled
//! control connection with the same `stats` op any client could send,
//! and the per-backend snapshots fold through
//! [`StatsSnapshot::merged`]. Counters sum exactly (the acceptance
//! check `msmr-admit --replay --check-stats` relies on this), scalar gauges
//! sum, per-shard gauges and session rows concatenate per backend, and
//! per-op latency merges through the log-bucket histograms.
//!
//! A backend that fails mid-scrape is skipped rather than failing the
//! whole snapshot — it is dying or dead, and the health monitor will
//! notice on its own clock.

use msmr_serve::protocol::{Frame, Op, StatsOp};
use msmr_stats::StatsSnapshot;

use crate::RouterState;

/// One backend's snapshot over a pooled control connection.
fn scrape(state: &RouterState, addr: &str) -> Option<StatsSnapshot> {
    let mut conn = state.pool().checkout(addr).ok()?;
    let frames = conn.control(Op::Stats(StatsOp { session: None })).ok()?;
    state.pool().checkin(conn);
    frames.into_iter().find_map(|frame| match frame {
        Frame::Stats(f) => Some(f.stats),
        _ => None,
    })
}

/// The tier-wide snapshot: every alive backend scraped and merged.
#[must_use]
pub fn aggregate(state: &RouterState) -> StatsSnapshot {
    let parts: Vec<StatsSnapshot> = state
        .alive_backends()
        .iter()
        .filter_map(|addr| scrape(state, addr))
        .collect();
    StatsSnapshot::merged(&parts)
}
