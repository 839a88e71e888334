//! Observed decision histories and the two offline oracles that check
//! them byte for byte.
//!
//! Every verdict a daemon streams must equal an offline replay of the
//! same history (after [`normalized_verdict_json`] zeroes the provenance
//! fields). A [`Decision`] is one admit or withdraw as a client observed
//! it; [`Decision::from_frames`] is the one place a response stream
//! becomes a decision, and [`surviving`] the one place a resuming
//! client's observation log becomes a history. The two oracles replay a
//! history differently:
//!
//! * [`replay_warm`] feeds it, in seq order, through a fresh
//!   [`AdmissionSession`] — the serialized replay that interleaved,
//!   resumed or failed-over histories are checked against;
//! * [`replay_cold`] evaluates every job set the history visits from
//!   scratch with [`SolverRegistry::evaluate`], tracking handles with the
//!   swap-removal the sessions use — no warm tables, no decider state.

use std::collections::BTreeMap;
use std::io;

use msmr_model::{JobId, JobSet};
use msmr_sched::{SolveCtx, SolverRegistry};

use crate::protocol::{Frame, JobSpec, Op, Response};
use crate::{normalized_verdict_json, AdmissionSession, ObservedOp, SessionConfig};

/// What one decision did.
#[derive(Debug, Clone, PartialEq)]
pub enum DecisionOp {
    /// An arriving job was decided.
    Admit {
        /// The job the client offered.
        spec: JobSpec,
        /// Whether the daemon admitted it.
        admitted: bool,
        /// The handle the daemon assigned (present iff admitted).
        handle: Option<u64>,
    },
    /// An admitted job was withdrawn.
    Withdraw {
        /// The withdrawn job's handle.
        handle: u64,
    },
}

/// One decision of a session's history, as observed on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The session's decision sequence number (1-based).
    pub seq: u64,
    /// The op and its outcome.
    pub op: DecisionOp,
    /// Normalized verdict JSON lines in stream order. Empty on a
    /// `deduped` ack that re-reported the decision without streaming it;
    /// [`replay_warm`] then skips only the byte compare.
    pub verdicts: Vec<String>,
    /// The ack re-reported an already-applied decision (protocol v5
    /// seq-idempotent replay) instead of applying it.
    pub deduped: bool,
}

impl Decision {
    /// Reduces the response stream of one sent admit or withdraw to the
    /// decision it reports.
    ///
    /// # Errors
    ///
    /// A daemon `Error` frame as `io::ErrorKind::Other`, a typed
    /// `Overload` as `io::ErrorKind::WouldBlock` (retryable), and as
    /// `io::ErrorKind::InvalidData` a stream without the matching ack
    /// frame, an ack without a decision seq, or any frame an admit or
    /// withdraw does not produce (a `Done` counting the wrong number of
    /// frames included). `sent` must be an admit or a withdraw.
    pub fn from_frames(sent: &Op, frames: &[Response]) -> io::Result<Decision> {
        let what = match sent {
            Op::Admit(_) => "admit",
            Op::Withdraw(_) => "withdraw",
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "only admits and withdraws are decisions",
                ))
            }
        };
        let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
        let mut verdicts = Vec::new();
        let mut ack = None;
        for (i, response) in frames.iter().enumerate() {
            match (&response.frame, sent) {
                (Frame::Verdict(v), _) => verdicts.push(normalized_verdict_json(&v.verdict)),
                (Frame::Admit(a), Op::Admit(op)) => {
                    let op = DecisionOp::Admit {
                        spec: op.job.clone(),
                        admitted: a.admitted,
                        handle: a.job,
                    };
                    ack = Some((a.seq, a.deduped, op));
                }
                (Frame::Withdraw(w), Op::Withdraw(op)) => {
                    ack = Some((w.seq, w.deduped, DecisionOp::Withdraw { handle: op.job }));
                }
                (Frame::Error(e), _) => return Err(io::Error::other(e.message.clone())),
                (Frame::Overload(overload), _) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        format!(
                            "server overloaded ({}/{} tasks queued)",
                            overload.queued, overload.capacity
                        ),
                    ))
                }
                (Frame::Done(done), _) if done.frames as usize == i => {}
                (other, _) => return Err(invalid(format!("{what} answered with {other:?}"))),
            }
        }
        let (seq, deduped, op) =
            ack.ok_or_else(|| invalid(format!("daemon answered {what} without a {what} frame")))?;
        let seq = seq.ok_or_else(|| invalid(format!("{what} frame carries no decision seq")))?;
        Ok(Decision {
            seq,
            op,
            verdicts,
            deduped: deduped == Some(true),
        })
    }
}

/// The surviving history of a [`ResumingClient`](crate::ResumingClient)
/// run: the last observed application of each seq, in seq order, paired
/// with its [`Decision`]. The op keeps its raw frames for checks the
/// normalized verdicts cannot make (the `cold_fallback` provenance).
///
/// # Errors
///
/// The first surviving op [`Decision::from_frames`] refuses, with its
/// seq prefixed to the message.
pub fn surviving(observed: Vec<ObservedOp>) -> io::Result<Vec<(ObservedOp, Decision)>> {
    let mut last = BTreeMap::new();
    for op in observed {
        last.insert(op.seq, op);
    }
    last.into_values()
        .map(|op| {
            let decision = Decision::from_frames(&op.op, &op.frames)
                .map_err(|e| io::Error::new(e.kind(), format!("seq {}: {e}", op.seq)))?;
            Ok((op, decision))
        })
        .collect()
}

/// The warm oracle: replays a seq-ordered history through a fresh
/// [`AdmissionSession`] built from `config`, opened with `trace`'s
/// pipeline, and asserts the byte-identity contract — the same
/// admit/reject outcome per seq and byte-identical normalized verdicts,
/// except for a `deduped` ack that streamed none (its byte compare is
/// skipped). Every op is replayed as it was recorded: with full-suite
/// evaluation when `evaluate`, else decider-only, comparing the one
/// verdict the decider streamed.
///
/// # Errors
///
/// A display string naming the first divergent seq: a gap in the seq
/// numbering (seqs must run 1, 2, 3, …), a replay error, an outcome
/// flip, a verdict-count mismatch or a byte difference.
pub fn replay_warm(
    trace: &JobSet,
    decisions: &[Decision],
    config: &SessionConfig,
    evaluate: bool,
) -> Result<(), String> {
    let mut mirror = AdmissionSession::new(config.clone());
    let (pipeline, _) = trace.restrict_to(&[]).map_err(|e| e.to_string())?;
    mirror.submit(pipeline, false, |_| {});
    for (i, decision) in decisions.iter().enumerate() {
        let seq = i as u64 + 1;
        if decision.seq != seq {
            return Err(format!(
                "history has seq {} at slot {seq}: the surviving record is not contiguous",
                decision.seq
            ));
        }
        let mut offline = Vec::new();
        match &decision.op {
            DecisionOp::Admit { spec, admitted, .. } => {
                let outcome = mirror
                    .admit(spec, evaluate, |v| offline.push(normalized_verdict_json(v)))
                    .map_err(|e| format!("offline replay failed at seq {seq}: {e}"))?;
                if outcome.admitted != *admitted {
                    return Err(format!(
                        "seq {seq} decided {admitted} online but {} offline",
                        outcome.admitted
                    ));
                }
            }
            DecisionOp::Withdraw { handle } => {
                mirror
                    .withdraw(*handle, evaluate, |v| {
                        offline.push(normalized_verdict_json(v));
                    })
                    .map_err(|e| format!("offline replay failed at seq {seq}: {e}"))?;
            }
        }
        if !(decision.deduped && decision.verdicts.is_empty()) {
            compare(seq, &decision.verdicts, &offline)?;
        }
    }
    Ok(())
}

/// The cold oracle: walks a history in order, evaluating every job set
/// it visits from scratch with `config`'s bound and node budget
/// ([`SolverRegistry::paper_suite`] + [`SolverRegistry::evaluate`]). An
/// admit evaluates the admitted set plus the arrival and must be
/// decided as `config.decider`'s verdict decides; a withdraw
/// swap-removes the handle's job exactly as the sessions do and
/// evaluates the reduced set (nothing when it emptied). The mirror
/// follows the observed outcomes, so any seq numbering is accepted. With
/// `evaluate` unset the history is decider-only: each visited set is
/// solved by the decider alone and its one verdict compared.
///
/// # Errors
///
/// A display string naming the first divergent seq: an outcome that
/// differs from the decider's cold verdict, an admit without a handle, a
/// withdraw of a handle the mirror never admitted, a verdict-count
/// mismatch or a byte difference.
pub fn replay_cold(
    trace: &JobSet,
    decisions: &[Decision],
    config: &SessionConfig,
    evaluate: bool,
) -> Result<(), String> {
    let registry = SolverRegistry::paper_suite(config.bound);
    let budget = config.budget();
    let decider = registry
        .solver(&config.decider)
        .ok_or_else(|| format!("decider `{}` is not in the suite", config.decider))?;
    let solve = |jobs: &JobSet| {
        if evaluate {
            registry.evaluate(jobs, budget)
        } else {
            vec![decider.solve(&SolveCtx::with_budget(jobs, budget))]
        }
    };
    let (mut mirror, _) = trace.restrict_to(&[]).map_err(|e| e.to_string())?;
    let mut handles: Vec<u64> = Vec::new();
    for decision in decisions {
        let seq = decision.seq;
        let offline = match &decision.op {
            DecisionOp::Admit {
                spec,
                admitted,
                handle,
            } => {
                mirror
                    .push(spec.to_builder())
                    .map_err(|e| format!("seq {seq} offers an invalid job: {e}"))?;
                let verdicts = solve(&mirror);
                let decided = verdicts
                    .iter()
                    .any(|v| v.solver == config.decider && v.is_accepted());
                if decided != *admitted {
                    return Err(format!(
                        "seq {seq} decided {admitted} online but {decided} offline"
                    ));
                }
                if decided {
                    handles.push(handle.ok_or_else(|| format!("seq {seq} admitted no handle"))?);
                } else {
                    mirror.pop();
                }
                verdicts
            }
            DecisionOp::Withdraw { handle } => {
                let index = handles.iter().position(|h| h == handle).ok_or_else(|| {
                    format!("seq {seq} withdraws handle {handle}, which was never admitted")
                })?;
                handles.swap_remove(index);
                mirror.swap_remove(JobId::new(index));
                if mirror.is_empty() {
                    Vec::new()
                } else {
                    solve(&mirror)
                }
            }
        };
        let offline: Vec<String> = offline.iter().map(normalized_verdict_json).collect();
        compare(seq, &decision.verdicts, &offline)?;
    }
    Ok(())
}

/// The byte compare both oracles share.
fn compare(seq: u64, online: &[String], offline: &[String]) -> Result<(), String> {
    if online.len() != offline.len() {
        return Err(format!(
            "seq {seq} streamed {} verdicts online but {} offline",
            online.len(),
            offline.len()
        ));
    }
    for (j, (online, offline)) in online.iter().zip(offline).enumerate() {
        if online != offline {
            return Err(format!(
                "seq {seq} verdict {j} diverges:\n  online:  {online}\n  offline: {offline}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::MixRng;
    use crate::protocol::{AdmitFrame, AdmitOp, DoneFrame, WithdrawOp};
    use msmr_workload::{arrival_order, EdgeWorkloadConfig, EdgeWorkloadGenerator};

    /// A 12-job mixed admit/withdraw history recorded in-process from an
    /// [`AdmissionSession`], with full-suite evaluation when `evaluate`.
    fn recorded(evaluate: bool) -> (JobSet, Vec<Decision>, SessionConfig) {
        let trace = EdgeWorkloadGenerator::new(EdgeWorkloadConfig::scaled(12).with_beta(0.4))
            .unwrap()
            .generate_seeded(5);
        let config = SessionConfig {
            node_limit: Some(20_000),
            ..SessionConfig::default()
        };
        let mut session = AdmissionSession::new(config.clone());
        session.submit(trace.restrict_to(&[]).unwrap().0, false, |_| {});
        let mut rng = MixRng::new(3);
        let mut handles = Vec::new();
        let mut decisions = Vec::new();
        for id in arrival_order(&trace) {
            let spec = JobSpec::from_job(trace.job(id));
            let mut verdicts = Vec::new();
            let outcome = session
                .admit(&spec, evaluate, |v| {
                    verdicts.push(normalized_verdict_json(v))
                })
                .unwrap();
            handles.extend(outcome.handle);
            let op = DecisionOp::Admit {
                spec,
                admitted: outcome.admitted,
                handle: outcome.handle,
            };
            decisions.push((op, verdicts));
            if !handles.is_empty() && rng.next_f64() < 0.3 {
                let handle = handles.swap_remove((rng.next_u64() % handles.len() as u64) as usize);
                let mut verdicts = Vec::new();
                session
                    .withdraw(handle, evaluate, |v| {
                        verdicts.push(normalized_verdict_json(v));
                    })
                    .unwrap();
                decisions.push((DecisionOp::Withdraw { handle }, verdicts));
            }
        }
        let decisions = (1..)
            .zip(decisions)
            .map(|(seq, (op, verdicts))| Decision {
                seq,
                op,
                verdicts,
                deduped: false,
            })
            .collect();
        (trace, decisions, config)
    }

    type Oracle = fn(&JobSet, &[Decision], &SessionConfig, bool) -> Result<(), String>;
    const ORACLES: [(&str, Oracle); 2] = [("warm", replay_warm), ("cold", replay_cold)];

    /// The index of the first admit decided `admitted` with the full
    /// suite's five verdicts.
    fn an_admit(decisions: &[Decision], admitted: bool) -> usize {
        decisions
            .iter()
            .position(|d| {
                d.verdicts.len() == 5
                    && matches!(d.op, DecisionOp::Admit { admitted: a, .. } if a == admitted)
            })
            .expect("the history holds such an admit")
    }

    fn assert_names_seq(result: Result<(), String>, seq: u64, oracle: &str, what: &str) {
        let err = result.expect_err(&format!("{oracle} oracle accepted {what}"));
        assert!(
            err.contains(&format!("seq {seq} ")),
            "{oracle} oracle on {what}: {err}"
        );
    }

    #[test]
    fn both_oracles_accept_the_recorded_history() {
        let (trace, decisions, config) = recorded(true);
        let withdraws = decisions
            .iter()
            .filter(|d| matches!(d.op, DecisionOp::Withdraw { .. }))
            .count();
        assert!(withdraws >= 2, "the mix withdrew {withdraws} job(s)");
        an_admit(&decisions, true);
        an_admit(&decisions, false);
        for (name, oracle) in ORACLES {
            oracle(&trace, &decisions, &config, true)
                .unwrap_or_else(|e| panic!("{name} oracle rejects the recorded history: {e}"));
        }
    }

    #[test]
    fn both_oracles_name_the_seq_of_a_tampered_decision() {
        let (trace, decisions, config) = recorded(true);
        fn flip_byte(d: &mut Decision) {
            let line = &mut d.verdicts[1];
            let at = line.find(|c: char| c.is_ascii_digit()).expect("a digit");
            let digit = if &line[at..=at] == "7" { "8" } else { "7" };
            line.replace_range(at..=at, digit);
        }
        fn flip_admitted(d: &mut Decision) {
            if let DecisionOp::Admit { admitted, .. } = &mut d.op {
                *admitted = !*admitted;
            }
        }
        fn drop_verdict(d: &mut Decision) {
            d.verdicts.pop();
        }
        type Tamper = fn(&mut Decision);
        let tampers: [(&str, bool, Tamper); 4] = [
            ("a flipped verdict byte", true, flip_byte),
            ("a flipped admit", true, flip_admitted),
            ("a flipped reject", false, flip_admitted),
            ("a dropped verdict", true, drop_verdict),
        ];
        for (what, admitted, tamper) in tampers {
            let at = an_admit(&decisions, admitted);
            let mut tampered = decisions.clone();
            tamper(&mut tampered[at]);
            for (name, oracle) in ORACLES {
                let result = oracle(&trace, &tampered, &config, true);
                assert_names_seq(result, tampered[at].seq, name, what);
            }
        }
    }

    #[test]
    fn both_oracles_check_a_decider_only_history_against_the_decider() {
        let (trace, decisions, config) = recorded(false);
        assert!(decisions.iter().all(|d| d.verdicts.len() <= 1));
        let at = decisions
            .iter()
            .position(|d| matches!(d.op, DecisionOp::Admit { .. }))
            .unwrap();
        let mut tampered = decisions.clone();
        let line = &mut tampered[at].verdicts[0];
        *line = line.replacen("\"kind\":\"", "\"kind\":\"X", 1);
        for (name, oracle) in ORACLES {
            oracle(&trace, &decisions, &config, false)
                .unwrap_or_else(|e| panic!("{name} oracle rejects the decider-only history: {e}"));
            let full_suite = oracle(&trace, &decisions, &config, true);
            assert_names_seq(full_suite, 1, name, "a decider-only history as full-suite");
            let result = oracle(&trace, &tampered, &config, false);
            assert_names_seq(result, tampered[at].seq, name, "a tampered decider verdict");
        }
    }

    #[test]
    fn warm_oracle_rejects_a_seq_gap() {
        let (trace, mut decisions, config) = recorded(true);
        let last = decisions.len() - 1;
        decisions[last].seq += 1;
        let seq = decisions[last].seq;
        assert_names_seq(
            replay_warm(&trace, &decisions, &config, true),
            seq,
            "warm",
            "a seq gap",
        );
    }

    #[test]
    fn cold_oracle_rejects_a_withdraw_of_an_unknown_handle() {
        let (trace, mut decisions, config) = recorded(true);
        let at = decisions
            .iter()
            .position(|d| matches!(d.op, DecisionOp::Withdraw { .. }))
            .unwrap();
        decisions[at].op = DecisionOp::Withdraw { handle: 999 };
        let seq = decisions[at].seq;
        assert_names_seq(
            replay_cold(&trace, &decisions, &config, true),
            seq,
            "cold",
            "an unknown handle",
        );
    }

    #[test]
    fn only_a_deduped_ack_may_skip_the_warm_byte_compare() {
        let (trace, mut decisions, config) = recorded(true);
        let at = an_admit(&decisions, true);
        decisions[at].verdicts.clear();
        let seq = decisions[at].seq;
        assert_names_seq(
            replay_warm(&trace, &decisions, &config, true),
            seq,
            "warm",
            "an applied admit that streamed no verdicts",
        );
        decisions[at].deduped = true;
        replay_warm(&trace, &decisions, &config, true)
            .unwrap_or_else(|e| panic!("warm oracle rejects a deduped ack: {e}"));
    }

    fn empty_admit() -> Op {
        Op::Admit(AdmitOp {
            job: JobSpec {
                arrival: 0,
                deadline: 10,
                stages: vec![],
            },
            evaluate: Some(false),
            seq: None,
        })
    }

    fn admit_ack(seq: u64, deduped: bool) -> Frame {
        Frame::Admit(AdmitFrame {
            admitted: true,
            job: Some(4),
            jobs: 1,
            decider: "OPDCA".into(),
            seq: Some(seq),
            deduped: deduped.then_some(true),
        })
    }

    /// `frames` followed by the `Done` that counts them.
    fn stream(frames: Vec<Frame>) -> Vec<Response> {
        let done = Frame::Done(DoneFrame {
            frames: frames.len() as u64,
        });
        frames
            .into_iter()
            .chain([done])
            .map(|frame| Response { id: 1, frame })
            .collect()
    }

    #[test]
    fn surviving_keeps_the_last_application_of_each_seq_in_seq_order() {
        let observed = |seq, frames| ObservedOp {
            seq,
            op: empty_admit(),
            frames: stream(frames),
        };
        let log = vec![
            observed(2, vec![admit_ack(2, false)]),
            observed(1, vec![admit_ack(1, false)]),
            observed(2, vec![admit_ack(2, true)]),
        ];
        let history: Vec<(u64, bool)> = surviving(log)
            .unwrap()
            .iter()
            .map(|(op, decision)| {
                assert_eq!(op.seq, decision.seq);
                (decision.seq, decision.deduped)
            })
            .collect();
        assert_eq!(history, [(1, false), (2, true)]);

        let err = surviving(vec![observed(3, vec![])]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().starts_with("seq 3: "), "{err}");
    }

    #[test]
    fn the_reducer_reads_acks_and_refuses_streams_without_one() {
        let admit = empty_admit();
        let ack = admit_ack(9, true);
        let decision = Decision::from_frames(&admit, &stream(vec![ack.clone()])).unwrap();
        assert_eq!(decision.seq, 9);
        assert!(decision.deduped);
        assert!(matches!(
            decision.op,
            DecisionOp::Admit {
                admitted: true,
                handle: Some(4),
                ..
            }
        ));
        let withdraw = Op::Withdraw(WithdrawOp {
            job: 4,
            evaluate: None,
            seq: None,
        });
        for (sent, frames) in [
            (&admit, stream(vec![])),
            (&withdraw, stream(vec![])),
            (&withdraw, stream(vec![ack])),
        ] {
            let err = Decision::from_frames(sent, &frames).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }
}
