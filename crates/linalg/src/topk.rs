//! Bounded top-k selection.
//!
//! Every Row-Top-k implementation in the workspace (Naive, TA, cover trees,
//! LEMP) funnels scored items through this structure. It keeps the `k`
//! largest scores seen so far in a binary min-heap so that the *smallest
//! retained score* — the running threshold `θ′` of Sec. 4.5 — is available in
//! O(1).

/// An item with a score, ordered by score (ties broken by smaller id first
/// when draining, matching the paper's "ties broken arbitrarily" contract
/// deterministically).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredItem {
    /// Item identifier (probe-vector column id).
    pub id: usize,
    /// Score (inner product).
    pub score: f64,
}

/// Keeps the `k` largest-scored items pushed into it.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    // Min-heap on score: heap[0] is the weakest retained item.
    heap: Vec<ScoredItem>,
}

impl TopK {
    /// A selector retaining the `k` largest items. `k == 0` retains nothing.
    pub fn new(k: usize) -> Self {
        Self { k, heap: Vec::with_capacity(k) }
    }

    /// Capacity `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of items currently retained (≤ k).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing has been retained.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// `true` once `k` items are retained; from then on [`TopK::threshold`]
    /// is a meaningful lower bound.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// The smallest retained score: the score a new item must *exceed* to
    /// displace one (the running `θ′` of the paper). `-∞` until full, so it
    /// can always be used as a pruning threshold.
    #[inline]
    pub fn threshold(&self) -> f64 {
        if self.is_full() && self.k > 0 {
            self.heap[0].score
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Offers an item; keeps it only if it beats the current threshold.
    /// Returns `true` if the item was retained.
    ///
    /// Inlined for the common case of a full heap and a losing score (one
    /// comparison); the heap update stays out of line.
    #[inline]
    pub fn push(&mut self, id: usize, score: f64) -> bool {
        // `k == 0` is always "full" and has no root to compare with.
        if self.k > 0 && (!self.is_full() || score > self.heap[0].score) {
            self.retain(id, score);
            true
        } else {
            false
        }
    }

    /// Adds an item that beats the threshold: appends it while the heap is
    /// filling, else replaces the weakest retained item.
    #[inline(never)]
    fn retain(&mut self, id: usize, score: f64) {
        if self.heap.len() < self.k {
            self.heap.push(ScoredItem { id, score });
            let mut i = self.heap.len() - 1;
            // sift up (min-heap on score)
            while i > 0 {
                let parent = (i - 1) / 2;
                if self.heap[parent].score <= self.heap[i].score {
                    break;
                }
                self.heap.swap(parent, i);
                i = parent;
            }
        } else {
            self.heap[0] = ScoredItem { id, score };
            self.sift_down(0);
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut smallest = i;
            if l < n && self.heap[l].score < self.heap[smallest].score {
                smallest = l;
            }
            if r < n && self.heap[r].score < self.heap[smallest].score {
                smallest = r;
            }
            if smallest == i {
                return;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }

    /// Drains the retained items sorted by descending score (ties by
    /// ascending id). The selector is left empty and reusable.
    pub fn drain_sorted(&mut self) -> Vec<ScoredItem> {
        let mut items = std::mem::take(&mut self.heap);
        items.sort_by(|a, b| {
            b.score.partial_cmp(&a.score).expect("scores are finite").then(a.id.cmp(&b.id))
        });
        items
    }

    /// Clears retained items without changing `k`.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_largest() {
        let mut t = TopK::new(3);
        for (id, s) in [(0, 1.0), (1, 5.0), (2, 3.0), (3, 4.0), (4, 2.0)] {
            t.push(id, s);
        }
        let out = t.drain_sorted();
        let ids: Vec<usize> = out.iter().map(|x| x.id).collect();
        assert_eq!(ids, vec![1, 3, 2]);
    }

    #[test]
    fn threshold_tracks_weakest_retained() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), f64::NEG_INFINITY);
        t.push(0, 10.0);
        assert_eq!(t.threshold(), f64::NEG_INFINITY); // not yet full
        t.push(1, 7.0);
        assert_eq!(t.threshold(), 7.0);
        t.push(2, 8.0);
        assert_eq!(t.threshold(), 8.0);
        t.push(3, 1.0); // rejected
        assert_eq!(t.threshold(), 8.0);
    }

    #[test]
    fn push_reports_retention() {
        let mut t = TopK::new(1);
        assert!(t.push(0, 1.0));
        assert!(!t.push(1, 0.5));
        assert!(t.push(2, 2.0));
    }

    #[test]
    fn zero_k_retains_nothing() {
        let mut t = TopK::new(0);
        assert!(!t.push(0, 100.0));
        assert!(t.is_empty());
        assert_eq!(t.threshold(), f64::NEG_INFINITY);
        assert!(t.drain_sorted().is_empty());
    }

    #[test]
    fn ties_are_broken_by_id_when_draining() {
        let mut t = TopK::new(2);
        t.push(7, 1.0);
        t.push(3, 1.0);
        let out = t.drain_sorted();
        assert_eq!(out[0].id, 3);
        assert_eq!(out[1].id, 7);
    }

    #[test]
    fn matches_full_sort_on_random_input() {
        // Deterministic xorshift so the test is reproducible without rand.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for k in [1usize, 4, 16, 100] {
            let scores: Vec<f64> = (0..200).map(|_| next()).collect();
            let mut t = TopK::new(k);
            for (id, &s) in scores.iter().enumerate() {
                t.push(id, s);
            }
            let got: Vec<usize> = t.drain_sorted().into_iter().map(|x| x.id).collect();
            let mut expect: Vec<usize> = (0..scores.len()).collect();
            expect.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
            expect.truncate(k);
            assert_eq!(got, expect, "k={k}");
        }
    }

    /// `push` as it was before the inline fast path: the reference the
    /// split version must match push for push.
    fn reference_push(k: usize, heap: &mut Vec<ScoredItem>, id: usize, score: f64) -> bool {
        if k == 0 {
            return false;
        }
        if heap.len() < k {
            heap.push(ScoredItem { id, score });
            let mut i = heap.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if heap[parent].score <= heap[i].score {
                    break;
                }
                heap.swap(parent, i);
                i = parent;
            }
            true
        } else if score > heap[0].score {
            heap[0] = ScoredItem { id, score };
            let n = heap.len();
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut smallest = i;
                if l < n && heap[l].score < heap[smallest].score {
                    smallest = l;
                }
                if r < n && heap[r].score < heap[smallest].score {
                    smallest = r;
                }
                if smallest == i {
                    break;
                }
                heap.swap(i, smallest);
                i = smallest;
            }
            true
        } else {
            false
        }
    }

    #[test]
    fn inline_fast_path_matches_the_reference_push_under_ties() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for k in [0usize, 1, 2, 4, 16, 100] {
            for stream in 0..6 {
                // Few distinct values (many ties at the threshold), then a
                // rising run, so both the filling and the full heap see
                // equal, losing and winning offers.
                let distinct = [3, 8, 50][stream % 3];
                let mut top = TopK::new(k);
                let mut reference = TopK::new(k);
                for id in 0..400 {
                    let score = if id < 300 {
                        (next() % distinct) as f64 * 0.25 - 1.0
                    } else {
                        id as f64 * 0.01
                    };
                    let got = top.push(id, score);
                    let want = reference_push(k, &mut reference.heap, id, score);
                    assert_eq!(got, want, "k={k} stream={stream} id={id}");
                    assert_eq!(top.threshold().to_bits(), reference.threshold().to_bits());
                    assert_eq!(top.clone().drain_sorted(), reference.clone().drain_sorted());
                    assert_eq!(top.heap, reference.heap, "same heap layout");
                }
            }
        }
    }

    #[test]
    fn clear_resets_and_is_reusable() {
        let mut t = TopK::new(2);
        t.push(0, 1.0);
        t.push(1, 2.0);
        t.clear();
        assert!(t.is_empty());
        t.push(5, 9.0);
        assert_eq!(t.drain_sorted()[0].id, 5);
    }
}
