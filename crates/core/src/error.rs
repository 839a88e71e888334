//! Error types of the scheduling crate.

use std::error::Error;
use std::fmt;

use msmr_model::JobId;

/// Returned when a priority-assignment algorithm proves (with respect to
/// its schedulability test) that no feasible assignment exists.
///
/// The error carries the partial progress made before the failure so
/// callers — in particular the admission-controller variants — can inspect
/// which jobs were involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct InfeasibleError {
    /// Name of the algorithm that failed (`"OPDCA"`, `"DMR"`, ...).
    pub(crate) algorithm: &'static str,
    /// Jobs that could not be scheduled feasibly (for OPDCA: the jobs left
    /// without a priority; for DMR: the jobs still missing their deadline
    /// after the repair phase).
    pub(crate) unschedulable: Vec<JobId>,
}

impl InfeasibleError {
    /// Creates an infeasibility report.
    #[must_use]
    pub(crate) fn new(algorithm: &'static str, unschedulable: Vec<JobId>) -> Self {
        InfeasibleError {
            algorithm,
            unschedulable,
        }
    }
}

impl fmt::Display for InfeasibleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} found no feasible priority assignment ({} unschedulable job(s): {})",
            self.algorithm,
            self.unschedulable.len(),
            self.unschedulable
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

impl Error for InfeasibleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_algorithm_and_jobs() {
        let err = InfeasibleError::new("OPDCA", vec![JobId::new(1), JobId::new(3)]);
        let text = err.to_string();
        assert!(text.contains("OPDCA"));
        assert!(text.contains("J1"));
        assert!(text.contains("J3"));
    }

    #[test]
    fn implements_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<InfeasibleError>();
    }
}
