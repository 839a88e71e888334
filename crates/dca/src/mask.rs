//! Allocation-free bitsets over job ids.

use msmr_model::JobId;

/// Number of inline words: ids below `64 · INLINE_WORDS` never touch the
/// heap, which covers the paper's evaluation scale (100 jobs) and the
/// branch-and-bound's allocation-free guarantee.
const INLINE_WORDS: usize = 2;

/// A set of [`JobId`]s stored as a bitmask.
///
/// The first 128 ids live in inline words, so sets over job populations of
/// `n ≤ 128` never touch the heap — the property the branch-and-bound
/// search relies on for allocation-free nodes. Larger populations spill
/// into a heap-backed tail of additional words;
/// [`JobMask::with_capacity`] pre-sizes that tail once so later mutations
/// stay allocation-free too.
///
/// # Example
///
/// ```
/// use msmr_dca::JobMask;
/// use msmr_model::JobId;
///
/// let mut mask = JobMask::new();
/// assert!(mask.insert(JobId::new(3)));
/// assert!(!mask.insert(JobId::new(3)));
/// assert!(mask.contains(JobId::new(3)));
/// assert_eq!(mask.iter().collect::<Vec<_>>(), vec![JobId::new(3)]);
/// assert!(mask.remove(JobId::new(3)));
/// assert!(mask.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobMask {
    /// Bits for ids `0..64·INLINE_WORDS`.
    head: [u64; INLINE_WORDS],
    /// Bits for ids `64·INLINE_WORDS..`; word `w` holds ids
    /// `64·(INLINE_WORDS + w) ..`.
    tail: Vec<u64>,
}

impl JobMask {
    /// Creates an empty mask. No allocation is performed; the tail grows
    /// lazily if ids ≥ 128 are inserted.
    #[must_use]
    pub fn new() -> Self {
        JobMask::default()
    }

    /// Creates an empty mask whose tail is pre-sized for ids `0..n`, so
    /// subsequent insertions never allocate.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        let words = n.div_ceil(64);
        JobMask {
            head: [0; INLINE_WORDS],
            tail: vec![0; words.saturating_sub(INLINE_WORDS)],
        }
    }

    /// Inserts a job id; returns `true` if it was not already present.
    pub fn insert(&mut self, job: JobId) -> bool {
        let idx = job.index();
        let word = self.word_mut(idx);
        let bit = 1u64 << (idx % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Removes a job id; returns `true` if it was present.
    pub fn remove(&mut self, job: JobId) -> bool {
        let idx = job.index();
        if idx >= 64 * INLINE_WORDS && idx / 64 - INLINE_WORDS >= self.tail.len() {
            return false;
        }
        let word = self.word_mut(idx);
        let bit = 1u64 << (idx % 64);
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// Returns `true` if the id is in the set.
    #[must_use]
    pub fn contains(&self, job: JobId) -> bool {
        let idx = job.index();
        let word = idx / 64;
        let bit = 1u64 << (idx % 64);
        if word < INLINE_WORDS {
            self.head[word] & bit != 0
        } else {
            self.tail
                .get(word - INLINE_WORDS)
                .is_some_and(|w| w & bit != 0)
        }
    }

    /// Removes every id without releasing the tail storage.
    pub fn clear(&mut self) {
        self.head = [0; INLINE_WORDS];
        self.tail.fill(0);
    }

    /// Overwrites the set with `a ∩ b`, one word at a time.
    pub fn assign_intersection(&mut self, a: &JobMask, b: &JobMask) {
        self.assign_with(a, b, |x, y| x & y);
    }

    /// Overwrites the set with `a ∖ b`, one word at a time.
    pub fn assign_difference(&mut self, a: &JobMask, b: &JobMask) {
        self.assign_with(a, b, |x, y| x & !y);
    }

    /// `self = op(a, b)` word by word, for an `op` with `op(0, y) = 0`:
    /// the result fits in `a`'s words, and the tail only ever grows.
    fn assign_with(&mut self, a: &JobMask, b: &JobMask, op: impl Fn(u64, u64) -> u64) {
        for w in 0..INLINE_WORDS {
            self.head[w] = op(a.head[w], b.head[w]);
        }
        if self.tail.len() < a.tail.len() {
            self.tail.resize(a.tail.len(), 0);
        }
        for (w, slot) in self.tail.iter_mut().enumerate() {
            let x = a.tail.get(w).copied().unwrap_or(0);
            *slot = op(x, b.tail.get(w).copied().unwrap_or(0));
        }
    }

    /// Number of ids in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.head
            .iter()
            .chain(&self.tail)
            .map(|word| word.count_ones() as usize)
            .sum()
    }

    /// Returns `true` if the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head.iter().all(|&w| w == 0) && self.tail.iter().all(|&w| w == 0)
    }

    /// Iterates over the ids in ascending order.
    pub fn iter(&self) -> JobMaskIter<'_> {
        JobMaskIter {
            mask: self,
            word: self.head[0],
            next_word: 1,
        }
    }

    /// Iterates over the ids of `self ∩ other` in ascending order, one
    /// word at a time and without materialising the intersection.
    pub fn iter_and<'a>(&'a self, other: &'a JobMask) -> JobMaskAndIter<'a> {
        JobMaskAndIter {
            masks: [self, other],
            word: self.head[0] & other.head[0],
            next_word: 1,
        }
    }

    fn word_mut(&mut self, idx: usize) -> &mut u64 {
        let word = idx / 64;
        if word < INLINE_WORDS {
            &mut self.head[word]
        } else {
            let word = word - INLINE_WORDS;
            if word >= self.tail.len() {
                self.tail.resize(word + 1, 0);
            }
            &mut self.tail[word]
        }
    }
}

impl FromIterator<JobId> for JobMask {
    fn from_iter<I: IntoIterator<Item = JobId>>(iter: I) -> Self {
        let mut mask = JobMask::new();
        for job in iter {
            mask.insert(job);
        }
        mask
    }
}

impl<'a> IntoIterator for &'a JobMask {
    type Item = JobId;
    type IntoIter = JobMaskIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Ascending iterator over the ids of a [`JobMask`].
#[derive(Debug, Clone)]
pub struct JobMaskIter<'a> {
    mask: &'a JobMask,
    /// Remaining bits of the word currently being drained.
    word: u64,
    /// Index of the next word to drain (`< INLINE_WORDS`: head word,
    /// otherwise tail word `next_word - INLINE_WORDS`).
    next_word: usize,
}

impl Iterator for JobMaskIter<'_> {
    type Item = JobId;

    fn next(&mut self) -> Option<JobId> {
        loop {
            if self.word != 0 {
                let bit = self.word.trailing_zeros() as usize;
                self.word &= self.word - 1;
                return Some(JobId::new((self.next_word - 1) * 64 + bit));
            }
            self.word = if self.next_word < INLINE_WORDS {
                self.mask.head[self.next_word]
            } else if let Some(&word) = self.mask.tail.get(self.next_word - INLINE_WORDS) {
                word
            } else {
                return None;
            };
            self.next_word += 1;
        }
    }
}

/// Ascending iterator over the ids of the intersection of two
/// [`JobMask`]s ([`JobMask::iter_and`]). A type of its own, so the plain
/// [`JobMaskIter`] walk in the search engines' per-node loops keeps one
/// load per word.
#[derive(Debug, Clone)]
pub struct JobMaskAndIter<'a> {
    masks: [&'a JobMask; 2],
    /// Remaining bits of the intersected word currently being drained.
    word: u64,
    /// Index of the next word to drain, as in [`JobMaskIter`].
    next_word: usize,
}

impl Iterator for JobMaskAndIter<'_> {
    type Item = JobId;

    fn next(&mut self) -> Option<JobId> {
        loop {
            if self.word != 0 {
                let bit = self.word.trailing_zeros() as usize;
                self.word &= self.word - 1;
                return Some(JobId::new((self.next_word - 1) * 64 + bit));
            }
            let [a, b] = self.masks;
            self.word = if self.next_word < INLINE_WORDS {
                a.head[self.next_word] & b.head[self.next_word]
            } else if let Some(&word) = a.tail.get(self.next_word - INLINE_WORDS) {
                word & b
                    .tail
                    .get(self.next_word - INLINE_WORDS)
                    .copied()
                    .unwrap_or(0)
            } else {
                return None;
            };
            self.next_word += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jid(i: usize) -> JobId {
        JobId::new(i)
    }

    #[test]
    fn insert_remove_contains_small_ids() {
        let mut mask = JobMask::new();
        assert!(mask.is_empty());
        assert!(mask.insert(jid(0)));
        assert!(mask.insert(jid(63)));
        assert!(!mask.insert(jid(63)));
        assert!(mask.contains(jid(0)) && mask.contains(jid(63)));
        assert!(!mask.contains(jid(1)));
        assert_eq!(mask.len(), 2);
        assert!(mask.remove(jid(0)));
        assert!(!mask.remove(jid(0)));
        assert_eq!(mask.len(), 1);
    }

    #[test]
    fn spills_past_128_jobs() {
        let mut mask = JobMask::with_capacity(300);
        for i in [0usize, 64, 65, 127, 128, 130, 299] {
            assert!(mask.insert(jid(i)));
        }
        assert_eq!(mask.len(), 7);
        assert!(mask.contains(jid(130)));
        assert!(!mask.contains(jid(131)));
        assert!(!mask.contains(jid(1000)));
        assert_eq!(
            mask.iter().map(JobId::index).collect::<Vec<_>>(),
            vec![0, 64, 65, 127, 128, 130, 299]
        );
        assert!(mask.remove(jid(128)));
        assert!(!mask.contains(jid(128)));
        // Removing an id beyond the tail is a no-op, not a panic.
        assert!(!mask.remove(jid(100_000)));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut mask = JobMask::with_capacity(256);
        mask.insert(jid(200));
        mask.clear();
        assert!(mask.is_empty());
        assert!(!mask.contains(jid(200)));
        // Tail storage survived the clear, so this insert is in-place.
        assert!(mask.insert(jid(200)));
    }

    #[test]
    fn from_iterator_and_into_iterator() {
        let mask: JobMask = [jid(5), jid(2), jid(5), jid(90)].into_iter().collect();
        assert_eq!(mask.len(), 3);
        let ids: Vec<JobId> = (&mask).into_iter().collect();
        assert_eq!(ids, vec![jid(2), jid(5), jid(90)]);
    }

    #[test]
    fn word_operations_match_the_set_algebra() {
        let a: JobMask = [0usize, 3, 64, 130, 250].into_iter().map(jid).collect();
        let b: JobMask = [3usize, 130, 131].into_iter().map(jid).collect();
        // A longer stale tail must come back zeroed.
        let mut out = JobMask::with_capacity(512);
        out.insert(jid(400));
        out.assign_intersection(&a, &b);
        assert_eq!(out.iter().map(JobId::index).collect::<Vec<_>>(), [3, 130]);
        out.assign_difference(&a, &b);
        assert_eq!(
            out.iter().map(JobId::index).collect::<Vec<_>>(),
            [0, 64, 250]
        );
        let mut small = JobMask::new();
        small.assign_difference(&a, &JobMask::new());
        assert_eq!(small, a);
    }

    #[test]
    fn iter_and_yields_the_intersection() {
        let a: JobMask = [0usize, 3, 64, 130, 250].into_iter().map(jid).collect();
        let b: JobMask = [3usize, 64, 130, 131].into_iter().map(jid).collect();
        let ids = |iter: JobMaskAndIter<'_>| iter.map(JobId::index).collect::<Vec<_>>();
        assert_eq!(ids(a.iter_and(&b)), [3, 64, 130]);
        assert_eq!(ids(b.iter_and(&a)), [3, 64, 130]);
        // A shorter tail on either side reads as zeros.
        assert_eq!(ids(a.iter_and(&JobMask::new())), Vec::<usize>::new());
        let head_only: JobMask = [0usize, 3].into_iter().map(jid).collect();
        assert_eq!(ids(head_only.iter_and(&a)), [0, 3]);
        assert_eq!(ids(a.iter_and(&head_only)), [0, 3]);
    }

    #[test]
    fn sets_of_128_or_fewer_jobs_never_allocate_a_tail() {
        let mask = JobMask::with_capacity(128);
        assert!(mask.tail.is_empty());
        let mut mask = JobMask::new();
        for i in 0..128 {
            mask.insert(jid(i));
        }
        assert!(mask.tail.is_empty());
        assert_eq!(mask.len(), 128);
    }
}
