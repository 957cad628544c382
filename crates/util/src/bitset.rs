//! A compact fixed-capacity bit set.
//!
//! Used for per-node token bookkeeping in the gossip substrate (where a node
//! may hold up to `n` distinct tokens and the coverage checker needs fast
//! union / count), for subset enumeration in the exact weak-conductance
//! code on tiny graphs, and for the CONGEST router's per-round receiver
//! marks.

/// A fixed-capacity set of `usize` keys in `[0, capacity)` backed by `u64`
/// words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

const WORD_BITS: usize = 64;

impl BitSet {
    /// Create an empty set able to hold keys `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            capacity,
        }
    }

    /// Create a set containing every key in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    /// Capacity (exclusive upper bound on keys).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn trim(&mut self) {
        let extra = self.words.len() * WORD_BITS - self.capacity;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }

    /// Insert `key`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    /// Panics if `key >= capacity`.
    #[inline]
    pub fn insert(&mut self, key: usize) -> bool {
        assert!(key < self.capacity, "BitSet key {key} out of range");
        let w = &mut self.words[key / WORD_BITS];
        let mask = 1u64 << (key % WORD_BITS);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Remove `key`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, key: usize) -> bool {
        assert!(key < self.capacity, "BitSet key {key} out of range");
        let w = &mut self.words[key / WORD_BITS];
        let mask = 1u64 << (key % WORD_BITS);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, key: usize) -> bool {
        if key >= self.capacity {
            return false;
        }
        self.words[key / WORD_BITS] & (1u64 << (key % WORD_BITS)) != 0
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union; both sets must share a capacity.
    ///
    /// Returns the number of newly inserted elements (useful for gossip
    /// progress tracking).
    pub fn union_with(&mut self, other: &BitSet) -> usize {
        assert_eq!(
            self.capacity, other.capacity,
            "BitSet capacity mismatch in union"
        );
        let mut added = 0;
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            let before = a.count_ones();
            *a |= b;
            added += (a.count_ones() - before) as usize;
        }
        added
    }

    /// True iff every element of `other` is in `self` — one word-wise pass;
    /// both sets must share a capacity.
    pub fn is_superset(&self, other: &BitSet) -> bool {
        assert_eq!(
            self.capacity, other.capacity,
            "BitSet capacity mismatch in superset test"
        );
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(&a, &b)| b & !a == 0)
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "BitSet capacity mismatch in intersection"
        );
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
    }

    /// Iterate over members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * WORD_BITS + tz)
                }
            })
        })
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129), "double insert reports false");
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert_eq!(s.len(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn full_and_trim() {
        let s = BitSet::full(67);
        assert_eq!(s.len(), 67);
        assert!(s.contains(66));
        assert!(!s.contains(67));
    }

    #[test]
    fn union_counts_new_elements() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(1);
        a.insert(50);
        b.insert(50);
        b.insert(99);
        let added = a.union_with(&b);
        assert_eq!(added, 1);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn intersect() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        for k in 0..10 {
            a.insert(k);
        }
        b.insert(3);
        b.insert(7);
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 7]);
    }

    #[test]
    fn iter_in_order() {
        let mut s = BitSet::new(200);
        for k in [199, 5, 64, 63, 128] {
            s.insert(k);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 63, 64, 128, 199]);
    }

    #[test]
    fn superset_is_word_wise_containment() {
        let mut big = BitSet::new(200);
        let mut small = BitSet::new(200);
        assert!(big.is_superset(&small), "everything contains the empty set");
        for k in [0, 63, 64, 150, 199] {
            big.insert(k);
        }
        for k in [0, 64, 199] {
            small.insert(k);
        }
        assert!(big.is_superset(&small));
        assert!(!small.is_superset(&big));
        assert!(big.is_superset(&big));
        small.insert(100); // a member big lacks, in a word big shares
        assert!(!big.is_superset(&small));
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn superset_rejects_capacity_mismatch() {
        let _ = BitSet::new(10).is_superset(&BitSet::new(11));
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::full(33);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = BitSet::new(8);
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = BitSet::new(8);
        s.insert(8);
    }
}
