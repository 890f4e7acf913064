//! A small fixed-capacity bitset used for process sets and reachability masks.
//!
//! The model deals in sets of processes (e.g. Protocol S's `seen_i`, the set
//! of processes an information level has reached) and sets of `(process,
//! round)` pairs. A compact bitset keeps those operations allocation-free in
//! the inner simulation loops.

use serde::ser::{Serialize, SerializeStruct, Serializer};
use std::fmt;

/// Small sets (up to `INLINE_WORDS * 64` elements) live entirely on the
/// stack; only the large `(process, round)` reachability masks spill to the
/// heap. Two words cover 128 bits, exactly `MAX_PROCESSES`, so every process
/// set in the simulator clones without touching the allocator.
const INLINE_WORDS: usize = 2;

/// Number of `u64` words needed for `capacity` bits.
#[inline]
fn word_count(capacity: usize) -> usize {
    capacity.div_ceil(64)
}

/// Storage for the bit words. The variant is a pure function of the
/// capacity (inline iff `word_count(capacity) <= INLINE_WORDS`), and words
/// past the logical count are kept at zero, so the derived equality and hash
/// are consistent across sets of equal capacity.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Blocks {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

/// A fixed-capacity set of small integers backed by `u64` blocks.
///
/// # Examples
///
/// ```
/// use ca_core::bitset::BitSet;
/// let mut s = BitSet::new(10);
/// s.insert(3);
/// s.insert(7);
/// assert!(s.contains(3));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 7]);
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct BitSet {
    blocks: Blocks,
    capacity: usize,
}

impl Clone for BitSet {
    #[inline]
    fn clone(&self) -> Self {
        BitSet {
            blocks: self.blocks.clone(),
            capacity: self.capacity,
        }
    }

    /// Clones without reallocating when the destination's block buffer is
    /// already large enough (the scratch-run pattern in the Monte Carlo
    /// engine clones into the same destination every trial).
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        match (&mut self.blocks, &source.blocks) {
            (Blocks::Heap(dst), Blocks::Heap(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
        self.capacity = source.capacity;
    }
}

impl BitSet {
    /// Creates an empty set with room for elements `0..capacity`.
    #[inline]
    pub fn new(capacity: usize) -> Self {
        let words = word_count(capacity);
        let blocks = if words <= INLINE_WORDS {
            Blocks::Inline([0; INLINE_WORDS])
        } else {
            Blocks::Heap(vec![0; words])
        };
        BitSet { blocks, capacity }
    }

    /// The logical words, exactly `word_count(capacity)` of them.
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.blocks {
            Blocks::Inline(a) => &a[..word_count(self.capacity)],
            Blocks::Heap(v) => v,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        let count = word_count(self.capacity);
        match &mut self.blocks {
            Blocks::Inline(a) => &mut a[..count],
            Blocks::Heap(v) => v,
        }
    }

    /// Creates a set containing all of `0..capacity`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ca_core::bitset::BitSet;
    /// let s = BitSet::full(5);
    /// assert_eq!(s.len(), 5);
    /// assert!(s.is_full());
    /// ```
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet::new(capacity);
        for b in s.words_mut() {
            *b = u64::MAX;
        }
        s.trim();
        s
    }

    /// Creates a set from an iterator of elements.
    ///
    /// # Panics
    ///
    /// Panics if any element is `>= capacity`.
    pub fn from_iter_with_capacity(capacity: usize, iter: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new(capacity);
        for x in iter {
            s.insert(x);
        }
        s
    }

    /// The capacity (one past the largest storable element).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `x`, returning whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `x >= capacity`.
    #[inline]
    pub fn insert(&mut self, x: usize) -> bool {
        assert!(
            x < self.capacity,
            "element {x} out of range 0..{}",
            self.capacity
        );
        let (b, bit) = (x / 64, 1u64 << (x % 64));
        let word = &mut self.words_mut()[b];
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Removes `x`, returning whether it was present.
    #[inline]
    pub fn remove(&mut self, x: usize) -> bool {
        if x >= self.capacity {
            return false;
        }
        let (b, bit) = (x / 64, 1u64 << (x % 64));
        let word = &mut self.words_mut()[b];
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// Returns whether `x` is in the set.
    #[inline]
    pub fn contains(&self, x: usize) -> bool {
        x < self.capacity && self.words()[x / 64] & (1u64 << (x % 64)) != 0
    }

    /// Number of elements in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.words().iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Returns whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&b| b == 0)
    }

    /// Returns whether the set contains all of `0..capacity`.
    ///
    /// Compares words against all-ones and stops at the first gap instead
    /// of popcounting every word (`count_ones` is a software loop on
    /// targets built without `popcnt`).
    #[inline]
    pub fn is_full(&self) -> bool {
        let words = self.words();
        let Some((&last, body)) = words.split_last() else {
            return true;
        };
        let tail = self.capacity % 64;
        let last_full = if tail == 0 {
            u64::MAX
        } else {
            u64::MAX >> (64 - tail)
        };
        last == last_full && body.iter().all(|&w| w == u64::MAX)
    }

    /// Removes all elements.
    #[inline]
    pub fn clear(&mut self) {
        for b in self.words_mut() {
            *b = 0;
        }
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    #[inline]
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a |= b;
        }
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    #[inline]
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= b;
        }
    }

    /// Returns whether `self` is a subset of `other`.
    #[inline]
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the elements in increasing order.
    #[inline]
    pub fn iter(&self) -> Iter<'_> {
        let words = self.words();
        Iter {
            words,
            block: 0,
            bits: words.first().copied().unwrap_or(0),
        }
    }

    #[inline]
    fn trim(&mut self) {
        let extra = word_count(self.capacity) * 64 - self.capacity;
        if extra > 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }
}

impl Serialize for BitSet {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Keep the wire format of the old derived impl, when the words were a
        // plain `Vec<u64>` field: `{"blocks":[...],"capacity":N}`.
        let mut st = serializer.serialize_struct("BitSet", 2)?;
        st.serialize_field("blocks", &self.words())?;
        st.serialize_field("capacity", &self.capacity)?;
        st.end()
    }
}

impl serde::de::Deserialize for BitSet {
    fn deserialize(value: &serde::json::Value) -> Result<Self, serde::json::Error> {
        let obj = value.as_object().ok_or_else(|| {
            serde::json::Error::custom(format!("expected object for BitSet, got {}", value.kind()))
        })?;
        let capacity: usize = serde::de::field(obj, "capacity")?;
        let words: Vec<u64> = serde::de::field(obj, "blocks")?;
        if words.len() != word_count(capacity) {
            return Err(serde::json::Error::custom(format!(
                "bitset with capacity {capacity} needs {} block(s), got {}",
                word_count(capacity),
                words.len()
            )));
        }
        let mut s = BitSet::new(capacity);
        s.words_mut().copy_from_slice(&words);
        // Clearing bits beyond the capacity keeps the derived equality and
        // hash honest even for hostile input.
        s.trim();
        Ok(s)
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<usize> for BitSet {
    fn extend<T: IntoIterator<Item = usize>>(&mut self, iter: T) {
        for x in iter {
            self.insert(x);
        }
    }
}

/// Iterator over the elements of a [`BitSet`] in increasing order.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    words: &'a [u64],
    block: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let tz = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.block * 64 + tz);
            }
            self.block += 1;
            if self.block >= self.words.len() {
                return None;
            }
            self.bits = self.words[self.block];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(100);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(99));
        assert!(!s.insert(99), "re-insert reports not fresh");
        assert_eq!(s.len(), 4);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(99));
        assert!(!s.contains(1));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn full_and_trim() {
        let s = BitSet::full(65);
        assert_eq!(s.len(), 65);
        assert!(s.is_full());
        assert!(s.contains(64));
        let s = BitSet::full(64);
        assert_eq!(s.len(), 64);
    }

    #[test]
    fn union_intersect_subset() {
        let a = BitSet::from_iter_with_capacity(10, [1, 3, 5]);
        let b = BitSet::from_iter_with_capacity(10, [3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 3, 4, 5]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3]);
        assert!(i.is_subset(&a));
        assert!(i.is_subset(&b));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn iter_crosses_block_boundaries() {
        let s = BitSet::from_iter_with_capacity(200, [0, 63, 64, 127, 128, 199]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 199]);
    }

    #[test]
    fn is_full_at_word_boundaries() {
        for capacity in [0, 1, 63, 64, 65, 1000] {
            let mut s = BitSet::full(capacity);
            assert!(s.is_full(), "full({capacity})");
            if capacity == 0 {
                continue;
            }
            // Punch a hole in the first word, the last word and (when there
            // is one) a middle word: each must be caught.
            for x in [0, capacity / 2, capacity - 1] {
                s.remove(x);
                assert!(!s.is_full(), "capacity {capacity} missing {x}");
                s.insert(x);
                assert!(s.is_full(), "capacity {capacity} refilled {x}");
            }
            let mut grow = BitSet::new(capacity);
            for x in 0..capacity {
                assert!(!grow.is_full(), "capacity {capacity} at {x} elements");
                grow.insert(x);
            }
            assert!(grow.is_full(), "capacity {capacity} filled one by one");
        }
    }

    #[test]
    fn zero_capacity() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert!(s.is_full());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn debug_formatting_nonempty() {
        let s = BitSet::from_iter_with_capacity(8, [2, 5]);
        assert_eq!(format!("{s:?}"), "{2, 5}");
        let empty = BitSet::new(8);
        assert_eq!(format!("{empty:?}"), "{}");
    }

    #[test]
    fn extend_trait() {
        let mut s = BitSet::new(8);
        s.extend([1usize, 2, 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn union_capacity_mismatch_panics() {
        let mut a = BitSet::new(8);
        a.union_with(&BitSet::new(9));
    }

    #[test]
    fn remove_out_of_range_is_noop() {
        let mut s = BitSet::new(4);
        assert!(!s.remove(100));
        assert!(!s.contains(100));
    }
}
