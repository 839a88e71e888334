//! `msmr-benchmark compare PARENT.json CHANGE.json`: one row per
//! (workload, end-to-end metric), judged by the benchmark's own bounds.

use crate::metrics::END_TO_END;
use crate::results::Results;
use crate::stats::{Better, Summary};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's value is no worse than the parent's by more than the
    /// bound.
    Ok,
    /// Worse by more than the bound.
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the two cannot be told apart — reported as such, not as unchanged.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `change` is than `parent`, as a share of the parent's
/// median (negative = better).
fn worsening(parent: f64, change: f64, better: Better) -> f64 {
    if parent == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (change - parent) / parent.abs(),
        Better::Higher => (parent - change) / parent.abs(),
    }
}

/// The rule of choosing-metrics §6.5: a spread wider than the bound makes
/// the pair unresolved unless every run of the change reads better than
/// every run of the parent; otherwise the reported values decide.
pub fn judge(parent: &Summary, change: &Summary, better: Better, bound: f64) -> Verdict {
    if parent.spread() > bound || change.spread() > bound {
        let all_better = match better {
            Better::Lower => change.max < parent.min,
            Better::Higher => change.min > parent.max,
        };
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(parent.value, change.value, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints the table; `Ok(true)` when nothing is worse and no workload's
/// failed share rose.
///
/// # Errors
///
/// A display string when a file does not load or the two files do not
/// cover the same workloads.
pub fn compare(parent_path: &str, change_path: &str) -> Result<bool, String> {
    let parent = Results::load(parent_path)?;
    let change = Results::load(change_path)?;
    println!(
        "parent {} ({}, seed {}, loadavg {})\nchange {} ({}, seed {}, loadavg {})",
        parent_path,
        parent.git_sha,
        parent.seed,
        parent.loadavg,
        change_path,
        change.git_sha,
        change.seed,
        change.loadavg
    );
    println!(
        "{:<16} {:<14} {:>12} {:>23} {:>12} {:>23} {:>17} {:>6}  verdict",
        "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "change/parent", "bound"
    );
    let mut passed = true;
    for (name, before) in &parent.workloads {
        let after = change
            .workloads
            .get(name)
            .ok_or_else(|| format!("{change_path} has no workload `{name}`"))?;
        for def in &END_TO_END {
            let (Some(p), Some(c)) = (
                before.end_to_end.get(def.name),
                after.end_to_end.get(def.name),
            ) else {
                return Err(format!(
                    "{name}: metric `{}` is missing from one file",
                    def.name
                ));
            };
            let verdict = judge(p, c, def.better, def.bound);
            passed &= verdict != Verdict::Worse;
            println!(
                "{:<16} {:<14} {:>12.3} {:>23} {:>12.3} {:>23} {:>8.3} of {:<8.3} {:>4.0}%  {}",
                name,
                def.name,
                p.value,
                format!("[{:.3}, {:.3}]", p.q1, p.q3),
                c.value,
                format!("[{:.3}, {:.3}]", c.q1, c.q3),
                c.value / p.value,
                p.value,
                def.bound * 100.0,
                verdict.label()
            );
        }
        let rose = after.failed_share > before.failed_share;
        passed &= !rose;
        println!(
            "{:<16} {:<14} {:>12.6} {:>23} {:>12.6} {:>23} {:>17} {:>6}  {}",
            name,
            "failed_share",
            before.failed_share,
            "",
            after.failed_share,
            "",
            "",
            "0",
            if rose { "worse" } else { "ok" }
        );
    }
    Ok(passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The direction only picks which quartile `value` is; `judge` gets
    /// the direction under test as its own argument.
    fn runs(values: &[f64]) -> Summary {
        let mut summary = Summary::of("us", Better::Lower, values.to_vec());
        summary.value = summary.median;
        summary
    }

    #[test]
    fn medians_within_the_bound_are_ok_and_beyond_it_worse() {
        let parent = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(
            judge(
                &parent,
                &runs(&[108.0, 109.0, 107.0, 108.5, 107.5]),
                Better::Lower,
                0.10
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                &parent,
                &runs(&[112.0, 113.0, 111.0, 112.5, 111.5]),
                Better::Lower,
                0.10
            ),
            Verdict::Worse
        );
        // The same numbers as a rate: lower is the bad direction.
        assert_eq!(
            judge(
                &parent,
                &runs(&[88.0, 89.0, 87.0, 88.5, 87.5]),
                Better::Higher,
                0.10
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                &parent,
                &runs(&[112.0, 113.0, 111.0, 112.5, 111.5]),
                Better::Higher,
                0.10
            ),
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = runs(&[80.0, 120.0, 100.0, 90.0, 115.0]);
        let steady = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(
            judge(&noisy, &steady, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // …unless every run of the change beats every run of the parent.
        let clear_win = runs(&[60.0, 61.0, 59.0, 60.5, 59.5]);
        assert_eq!(judge(&noisy, &clear_win, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&noisy, &clear_win, Better::Higher, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn ratios_are_signed_by_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }
}
