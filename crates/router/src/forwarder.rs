//! The per-connection forwarding loop: parse each client request line
//! just enough to pick a backend, forward the client's own bytes, and
//! stream the backend's response lines back verbatim.
//!
//! Byte-identity is structural here: response lines cross the router
//! untouched (never deserialized-and-reserialized), so the verdict
//! frames a routed replay observes are the backend daemon's exact
//! bytes. The router only *reads* relayed lines (to spot the
//! terminating `Done` and attach/detach transitions); the only frames
//! it authors are its own local answers — aggregated `Stats(None)` and
//! routing errors, built with the same [`FrameSink`] the daemons use —
//! and request lines come off the socket through the daemons' own
//! [`read_request`], malformed-request answer included.
//!
//! Re-routing is re-checked per request under the session's forwarding
//! lock: when migration (or failover) moves the attached session, the
//! forwarder detaches from the old backend, attaches on the new one
//! with a synthesized `Attach { create: false }` control exchange
//! (absorbed, not relayed) and forwards the pending request there.

use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use msmr_serve::protocol::{
    AttachOp, DetachOp, Frame, Op, Request, Response, ShutdownOp, StatsFrame,
};
use msmr_serve::{read_request, FrameSink};

use crate::pool::{BackendConn, CONTROL_ID};
use crate::{stats_agg, RouterState};

/// What a relay observed about the stream it forwarded, beyond moving
/// the bytes: attachment transitions the router must mirror.
struct RelayOutcome {
    saw_attach: bool,
    saw_detach: bool,
}

/// Forwards one request line and relays the response stream verbatim
/// until the matching `Done`.
fn relay_request<W: Write>(
    conn: &mut BackendConn,
    raw_line: &[u8],
    id: u64,
    writer: &mut W,
) -> io::Result<RelayOutcome> {
    conn.send_raw_line(raw_line)?;
    let mut outcome = RelayOutcome {
        saw_attach: false,
        saw_detach: false,
    };
    loop {
        let line = conn.read_raw_line()?;
        writer.write_all(&line)?;
        writer.flush()?;
        // Parsed only to steer the relay; the bytes above went out
        // untouched either way.
        let Ok(response) = std::str::from_utf8(&line)
            .map_err(|_| ())
            .and_then(|text| serde_json::from_str::<Response>(text).map_err(|_| ()))
        else {
            continue;
        };
        if response.id != id {
            continue;
        }
        match response.frame {
            Frame::Done(_) => return Ok(outcome),
            Frame::Attach(_) => outcome.saw_attach = true,
            Frame::Detach(_) => outcome.saw_detach = true,
            _ => {}
        }
    }
}

/// Politely releases a client's dedicated backend connection: detach
/// when attached (so the backend's attached-clients gauge stays
/// truthful), then pool the clean stream. Streams that fail the detach
/// are dropped — closing them detaches server-side anyway.
fn release(state: &RouterState, mut conn: BackendConn) {
    if conn.attached.take().is_some() && conn.control(Op::Detach(DetachOp {})).is_err() {
        return;
    }
    state.pool().checkin(conn);
}

/// The session name an op addresses explicitly (not via attachment).
fn explicit_session(op: &Op) -> Option<&str> {
    match op {
        Op::Snapshot(op) => op.session.as_deref(),
        Op::Restore(op) => op.session.as_deref(),
        Op::Stats(op) => op.session.as_deref(),
        _ => None,
    }
}

/// Serves one client connection: the router side of the NDJSON
/// protocol. Returns when the client closes, a `shutdown` op is
/// processed, or a backend dies mid-relay (the torn client connection
/// is the signal resuming clients reconnect and replay on).
///
/// # Errors
///
/// Client-transport failures and mid-relay backend failures.
pub fn handle_connection<R: BufRead, W: Write>(
    state: &Arc<RouterState>,
    mut reader: R,
    mut writer: W,
    shutdown: &Arc<AtomicBool>,
) -> io::Result<()> {
    let mut conn: Option<BackendConn> = None;
    let (mut buffer, mut out) = (Vec::new(), Vec::new());
    let result = loop {
        let Some(request) = read_request(&mut reader, &mut buffer, &mut writer)? else {
            break Ok(());
        };
        // `buffer` is relayed as the backend's request line.
        if !buffer.ends_with(b"\n") {
            buffer.push(b'\n');
        }
        if request.id == CONTROL_ID {
            let message = format!("request id {CONTROL_ID} is reserved by the router");
            FrameSink::reply_error(&mut writer, request.id, message)?;
            continue;
        }
        match &request.op {
            // The tier-wide stats view is the router's own answer: the
            // exact per-field sum of its backends' snapshots.
            Op::Stats(op) if op.session.is_none() => {
                let stats = stats_agg::aggregate(state);
                let mut sink = FrameSink::new(&mut writer, &mut out, request.id);
                sink.send(Frame::Stats(StatsFrame { stats }));
                sink.finish()?;
            }
            // Shutdown shuts the tier down: every alive backend gets
            // the op (each snapshots its sessions on the way down),
            // then the router stops accepting.
            Op::Shutdown(_) => {
                for addr in state.alive_backends() {
                    if let Ok(mut control) = state.pool().checkout(&addr) {
                        let _ = control.control(Op::Shutdown(ShutdownOp {}));
                    }
                }
                let sink = FrameSink::new(&mut writer, &mut out, request.id);
                sink.finish()?;
                shutdown.store(true, Ordering::SeqCst);
                conn = None;
                break Ok(());
            }
            _ => match forward(state, &mut conn, &request, &buffer, &mut writer) {
                Ok(()) => {}
                Err(Refusal::Reply(message)) => {
                    FrameSink::reply_error(&mut writer, request.id, message)?;
                }
                Err(Refusal::Fatal(e)) => break Err(e),
            },
        }
    };
    if let Some(conn) = conn.take() {
        release(state, conn);
    }
    result
}

/// Why a request was not relayed to the end.
enum Refusal {
    /// Nothing was relayed: the router answers the request itself with
    /// this error (no backend, not attached, a typed error behind a
    /// synthesized attach) and the client connection goes on.
    Reply(String),
    /// The client transport or a backend failed mid-exchange: the
    /// client connection is torn down.
    Fatal(io::Error),
}

impl From<io::Error> for Refusal {
    fn from(e: io::Error) -> Self {
        Refusal::Fatal(e)
    }
}

/// A pooled connection to `backend`, or the refusal naming it unreachable.
fn checkout(state: &RouterState, backend: &str) -> Result<BackendConn, Refusal> {
    let refused = |e| Refusal::Reply(format!("backend {backend} unreachable: {e}"));
    state.pool().checkout(backend).map_err(refused)
}

/// Routes one session-addressed request to the backend that owns the
/// session and relays the answer; `conn` is the client's dedicated
/// backend connection, which attaches move and detaches release.
fn forward<W: Write>(
    state: &RouterState,
    conn: &mut Option<BackendConn>,
    request: &Request,
    raw_line: &[u8],
    writer: &mut W,
) -> Result<(), Refusal> {
    let id = request.id;
    match &request.op {
        Op::Attach(op) => {
            let session = &op.session;
            let backend = state.route(session).ok_or_else(|| {
                Refusal::Reply(format!("no alive backend to place session `{session}`"))
            })?;
            if let Some(existing) = conn.as_mut().filter(|c| c.backend == backend) {
                if relay_request(existing, raw_line, id, writer)?.saw_attach {
                    existing.attached = Some(session.clone());
                    state.note_placement(session, &backend);
                }
            } else {
                // Attach on the new backend first; the old attachment
                // is only released once the new one succeeded (a failed
                // attach leaves the client attached where it was, like
                // on a daemon).
                let mut fresh = checkout(state, &backend)?;
                if relay_request(&mut fresh, raw_line, id, writer)?.saw_attach {
                    fresh.attached = Some(session.clone());
                    state.note_placement(session, &backend);
                    if let Some(old) = conn.replace(fresh) {
                        release(state, old);
                    }
                } else {
                    state.pool().checkin(fresh);
                }
            }
        }
        // Ops naming a session explicitly route by that name, on a
        // pooled connection when the owner is not the currently
        // attached backend. `Restore(None)` is refused: restoring a
        // whole snapshot directory onto one backend would pull
        // sessions owned by its peers.
        Op::Restore(op) if op.session.is_none() => {
            let message = "restore without a session name is ambiguous behind the router; \
                           name the session";
            return Err(Refusal::Reply(message.to_string()));
        }
        op if explicit_session(op).is_some() => {
            let name = explicit_session(op).expect("guard");
            let backend = state
                .route(name)
                .ok_or_else(|| Refusal::Reply(format!("no alive backend owns session `{name}`")))?;
            if let Some(existing) = conn.as_mut().filter(|c| c.backend == backend) {
                relay_request(existing, raw_line, id, writer)?;
            } else {
                let mut temp = checkout(state, &backend)?;
                relay_request(&mut temp, raw_line, id, writer)?;
                state.pool().checkin(temp);
            }
        }
        // Everything else rides the attached session's connection.
        _ => {
            let session = conn
                .as_ref()
                .and_then(|c| c.attached.clone())
                .ok_or_else(|| Refusal::Reply("not attached: send attach first".to_string()))?;
            // The session's forwarding lock serializes this request
            // against migration: route re-checks happen inside it, and
            // a migrating session's in-flight request drains before the
            // routing entry flips. A refusal leaves with the lock
            // released, before the caller writes to the client.
            let lock = state.session_lock(&session);
            let guard = lock.lock().expect("session forwarding lock");
            let backend = state.route(&session).ok_or_else(|| {
                Refusal::Reply(format!("no alive backend owns session `{session}`"))
            })?;
            if conn.as_ref().is_some_and(|c| c.backend != backend) {
                // The session moved (migration, or failover off a dead
                // backend): follow it with an absorbed attach.
                let fresh = follow_session(state, &session, &backend)?;
                let old = conn.replace(fresh).expect("attached conn exists");
                if state.backend(&old.backend).is_some_and(|b| b.is_alive()) {
                    release(state, old);
                }
            }
            let existing = conn.as_mut().expect("attached conn exists");
            let outcome = relay_request(existing, raw_line, id, writer);
            drop(guard);
            if outcome?.saw_detach {
                existing.attached = None;
                if let Some(clean) = conn.take() {
                    state.pool().checkin(clean);
                }
            }
        }
    }
    Ok(())
}

/// Opens a connection to `backend` and attaches it to `session` with an
/// absorbed `Attach { create: false }` — `false` because the session
/// must already exist there (restored by migration/failover, or
/// resurrectable from the shared snapshot directory by the backend's
/// own attach-time restore).
fn follow_session(
    state: &RouterState,
    session: &str,
    backend: &str,
) -> Result<BackendConn, Refusal> {
    let mut fresh = state.pool().checkout(backend)?;
    let frames = fresh.control(Op::Attach(AttachOp {
        session: session.to_string(),
        create: Some(false),
    }))?;
    if let Some(message) = BackendConn::first_error(&frames) {
        state.pool().checkin(fresh);
        return Err(Refusal::Reply(message));
    }
    fresh.attached = Some(session.to_string());
    Ok(fresh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_serve::protocol::{read_response, write_request, RestoreOp, SnapshotOp, StatusOp};

    /// Drives `requests` through the forwarder and returns the message
    /// of the error each one was answered with (in request order).
    fn refusals(state: &Arc<RouterState>, requests: &[Op]) -> Vec<String> {
        let mut input = b"not json\n".to_vec();
        for (index, op) in requests.iter().enumerate() {
            let id = index as u64 + 1;
            write_request(&mut input, &Request { id, op: op.clone() }).unwrap();
        }
        let mut output = Vec::new();
        let shutdown = Arc::new(AtomicBool::new(false));
        handle_connection(state, input.as_slice(), &mut output, &shutdown).unwrap();
        let mut reader = output.as_slice();
        let mut messages = Vec::new();
        while let Some(response) = read_response(&mut reader).unwrap() {
            match response.frame {
                Frame::Error(error) => {
                    assert_eq!(response.id, messages.len() as u64, "one error per request");
                    messages.push(error.message);
                }
                Frame::Done(done) => assert_eq!(done.frames, 1),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        messages
    }

    #[test]
    fn requests_the_router_cannot_place_are_answered_locally_and_the_connection_goes_on() {
        let attach = |session: &str| {
            Op::Attach(AttachOp {
                session: session.to_string(),
                create: None,
            })
        };
        // No backend at all: nothing routes.
        let messages = refusals(
            &RouterState::new(&[]),
            &[
                attach("s"),
                Op::Status(StatusOp {}),
                Op::Restore(RestoreOp { session: None }),
                Op::Snapshot(SnapshotOp {
                    session: Some("s".to_string()),
                }),
            ],
        );
        assert!(
            messages[0].starts_with("malformed request: "),
            "{}",
            messages[0]
        );
        assert_eq!(
            messages[1..],
            [
                "no alive backend to place session `s`",
                "not attached: send attach first",
                "restore without a session name is ambiguous behind the router; name the session",
                "no alive backend owns session `s`",
            ]
        );

        // A backend nobody listens on: placed, then unreachable.
        let dead = "127.0.0.1:1".to_string();
        let messages = refusals(
            &RouterState::new(std::slice::from_ref(&dead)),
            &[
                attach("s"),
                Op::Stats(msmr_serve::protocol::StatsOp {
                    session: Some("s".to_string()),
                }),
            ],
        );
        for message in &messages[1..] {
            assert!(
                message.starts_with("backend 127.0.0.1:1 unreachable: "),
                "{message}"
            );
        }
        assert_eq!(messages.len(), 3);
    }

    #[test]
    fn the_control_id_is_refused_from_clients() {
        let mut input = Vec::new();
        let request = Request {
            id: CONTROL_ID,
            op: Op::Status(StatusOp {}),
        };
        write_request(&mut input, &request).unwrap();
        let mut output = Vec::new();
        let shutdown = Arc::new(AtomicBool::new(false));
        handle_connection(
            &RouterState::new(&[]),
            input.as_slice(),
            &mut output,
            &shutdown,
        )
        .unwrap();
        let response = read_response(&mut output.as_slice()).unwrap().unwrap();
        assert_eq!(response.id, CONTROL_ID);
        let Frame::Error(error) = response.frame else {
            panic!("expected error frame, got {:?}", response.frame);
        };
        assert_eq!(
            error.message,
            format!("request id {CONTROL_ID} is reserved by the router")
        );
    }
}
