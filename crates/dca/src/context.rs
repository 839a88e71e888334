//! Higher-/lower-priority interference sets (`H_i`, `L_i`).

use std::collections::BTreeSet;

use msmr_model::JobId;

/// The interference sets of one target job: the set `H_i` of
/// higher-priority jobs and the set `L_i` of lower-priority jobs.
///
/// The input of the reference bounds
/// ([`ReferenceBounds`](crate::reference::ReferenceBounds)); the shipped
/// [`DelayEvaluator`](crate::DelayEvaluator) keeps the same sets as
/// [`JobMask`](crate::JobMask)s. The delay composition bounds are
/// functions of these *sets only* — never of the relative order inside
/// them — which is exactly what makes the resulting schedulability test
/// OPA-compatible (conditions 1 and 2 of §III-B).
///
/// A job absent from both sets is treated as unrelated to the target (e.g.
/// jobs that cannot interfere, or jobs whose relative priority is not yet
/// decided in a pairwise assignment search).
///
/// # Example
///
/// ```
/// use msmr_dca::reference::InterferenceSets;
/// use msmr_model::JobId;
///
/// // Priority order J2 > J0 > J1 (highest to lowest); target J0.
/// let ctx = InterferenceSets::from_total_order(
///     &[JobId::new(2), JobId::new(0), JobId::new(1)],
///     JobId::new(0),
/// );
/// assert!(ctx.is_higher(JobId::new(2)));
/// assert!(ctx.is_lower(JobId::new(1)));
/// assert!(!ctx.is_higher(JobId::new(0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InterferenceSets {
    higher: BTreeSet<JobId>,
    lower: BTreeSet<JobId>,
}

impl InterferenceSets {
    /// Creates interference sets from explicit higher- and lower-priority
    /// job collections.
    ///
    /// The target job itself should appear in neither set; it is ignored by
    /// the delay bounds if it does.
    #[must_use]
    pub fn new<H, L>(higher: H, lower: L) -> Self
    where
        H: IntoIterator<Item = JobId>,
        L: IntoIterator<Item = JobId>,
    {
        InterferenceSets {
            higher: higher.into_iter().collect(),
            lower: lower.into_iter().collect(),
        }
    }

    /// Builds the sets of a target job from a total priority order given
    /// from highest to lowest priority.
    ///
    /// Jobs not mentioned in `order` are unrelated to the target.
    ///
    /// # Panics
    ///
    /// Panics if `target` does not appear in `order`.
    #[must_use]
    pub fn from_total_order(order: &[JobId], target: JobId) -> Self {
        let position = order
            .iter()
            .position(|&id| id == target)
            .expect("target job must appear in the priority order");
        InterferenceSets {
            higher: order[..position].iter().copied().collect(),
            lower: order[position + 1..].iter().copied().collect(),
        }
    }

    /// Builds the sets used by Audsley's optimal priority assignment when
    /// probing whether `target` can take the current (lowest unassigned)
    /// priority: all other `unassigned` jobs are assumed higher priority,
    /// and the already-`assigned` jobs (which hold lower priorities) form
    /// `L_i`.
    #[must_use]
    pub fn for_opa_probe<U, A>(unassigned: U, assigned: A, target: JobId) -> Self
    where
        U: IntoIterator<Item = JobId>,
        A: IntoIterator<Item = JobId>,
    {
        let higher = unassigned.into_iter().filter(|&id| id != target).collect();
        let lower = assigned.into_iter().filter(|&id| id != target).collect();
        InterferenceSets { higher, lower }
    }

    /// The set of higher-priority jobs `H_i`.
    #[must_use]
    pub fn higher(&self) -> &BTreeSet<JobId> {
        &self.higher
    }

    /// The set of lower-priority jobs `L_i`.
    #[must_use]
    pub fn lower(&self) -> &BTreeSet<JobId> {
        &self.lower
    }

    /// Returns `true` if `job` is in `H_i`.
    #[must_use]
    pub fn is_higher(&self, job: JobId) -> bool {
        self.higher.contains(&job)
    }

    /// Returns `true` if `job` is in `L_i`.
    #[must_use]
    pub fn is_lower(&self, job: JobId) -> bool {
        self.lower.contains(&job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> JobId {
        JobId::new(i)
    }

    #[test]
    fn from_total_order_splits_around_target() {
        let order = [id(3), id(1), id(0), id(2)];
        let ctx = InterferenceSets::from_total_order(&order, id(0));
        assert_eq!(ctx.higher().len(), 2);
        assert!(ctx.is_higher(id(3)) && ctx.is_higher(id(1)));
        assert_eq!(ctx.lower().len(), 1);
        assert!(ctx.is_lower(id(2)));
        assert!(!ctx.is_higher(id(0)) && !ctx.is_lower(id(0)));
    }

    #[test]
    fn highest_and_lowest_priority_targets() {
        let order = [id(0), id(1), id(2)];
        let top = InterferenceSets::from_total_order(&order, id(0));
        assert!(top.higher().is_empty());
        assert_eq!(top.lower().len(), 2);
        let bottom = InterferenceSets::from_total_order(&order, id(2));
        assert_eq!(bottom.higher().len(), 2);
        assert!(bottom.lower().is_empty());
    }

    #[test]
    #[should_panic(expected = "must appear")]
    fn missing_target_panics() {
        let _ = InterferenceSets::from_total_order(&[id(1)], id(0));
    }

    #[test]
    fn opa_probe_excludes_target() {
        let ctx =
            InterferenceSets::for_opa_probe(vec![id(0), id(1), id(2)], vec![id(3), id(4)], id(1));
        assert!(ctx.is_higher(id(0)) && ctx.is_higher(id(2)));
        assert!(!ctx.is_higher(id(1)));
        assert!(ctx.is_lower(id(3)) && ctx.is_lower(id(4)));
    }
}
