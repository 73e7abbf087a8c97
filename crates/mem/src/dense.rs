//! A map keyed by a small fieldless enum, stored as one slot per
//! variant.
//!
//! The statistics counters behind the paper's Fig. 2 breakdowns are
//! bumped on every syscall, object allocation and frame allocation.
//! [`DenseMap`] makes each bump an array index instead of a B-tree
//! search, and keeps the read semantics of the `BTreeMap` it replaces:
//! a key is present only once touched, iteration runs in key (`Ord`)
//! order, and `Debug`/`PartialEq` see exactly the present entries.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Index;

/// A fieldless enum usable as a [`DenseMap`] key.
///
/// `ALL` lists every variant in `Ord` order and `index` is the
/// variant's position in it (`ALL[k.index()] == k`). For an enum that
/// derives `Ord` and declares no discriminants, `self as usize` is that
/// position; [`assert_dense_key`] checks it.
pub trait DenseKey: Copy + Ord + 'static {
    /// Every variant, in `Ord` order.
    const ALL: &'static [Self];

    /// Position of `self` in [`DenseKey::ALL`].
    fn index(self) -> usize;
}

/// Checks that `K::ALL` is strictly increasing under `Ord` and that
/// `index` is each key's position in it. Each key type calls this from
/// a test beside its definition.
///
/// # Panics
/// Panics when either property fails.
pub fn assert_dense_key<K: DenseKey + fmt::Debug>() {
    for (i, &k) in K::ALL.iter().enumerate() {
        assert_eq!(k.index(), i, "{k:?} is not at its index in ALL");
    }
    for pair in K::ALL.windows(2) {
        assert!(pair[0] < pair[1], "ALL is not in Ord order at {pair:?}");
    }
}

/// A map from a [`DenseKey`] enum to `V`, one slot per variant.
///
/// Slots are allocated on the first [`DenseMap::get_or_default`], so an
/// untouched map costs no heap, and a variant missing from
/// [`DenseKey::ALL`] panics there rather than dropping out of
/// iteration. There is no removal: like the counters it holds, a key
/// once touched stays present.
#[derive(Clone)]
pub struct DenseMap<K, V> {
    /// `K::ALL.len()` slots once any key was touched, else empty.
    slots: Vec<Option<V>>,
    _key: PhantomData<K>,
}

impl<K: DenseKey, V> DenseMap<K, V> {
    /// The value for `key`, if it was ever touched.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.slots.get(key.index())?.as_ref()
    }

    /// The value for `key`, inserting `V::default()` first if absent
    /// (`BTreeMap::entry(key).or_default()`).
    #[inline]
    pub fn get_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        if self.slots.is_empty() {
            self.slots.resize_with(K::ALL.len(), || None);
        }
        self.slots[key.index()].get_or_insert_with(V::default)
    }

    /// Present entries, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static K, &V)> + '_ {
        K::ALL
            .iter()
            .zip(&self.slots)
            .filter_map(|(k, slot)| Some((k, slot.as_ref()?)))
    }

    /// Present values, in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.slots.iter().flatten()
    }

    /// Number of present keys.
    pub fn len(&self) -> usize {
        self.values().count()
    }

    /// Whether no key is present.
    pub fn is_empty(&self) -> bool {
        self.values().next().is_none()
    }
}

impl<K: DenseKey, V> Default for DenseMap<K, V> {
    fn default() -> Self {
        DenseMap {
            slots: Vec::new(),
            _key: PhantomData,
        }
    }
}

impl<K: DenseKey + fmt::Debug, V: fmt::Debug> fmt::Debug for DenseMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: DenseKey, V: PartialEq> PartialEq for DenseMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<K: DenseKey, V: Eq> Eq for DenseMap<K, V> {}

impl<K: DenseKey, V> Index<&K> for DenseMap<K, V> {
    type Output = V;

    /// # Panics
    /// Panics when `key` is absent, as `BTreeMap`'s `Index` does.
    fn index(&self, key: &K) -> &V {
        #[expect(
            clippy::expect_used,
            reason = "indexing an absent key panics by contract"
        )]
        self.get(key).expect("no entry found for key")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::PageKind;

    #[test]
    #[should_panic(expected = "no entry found for key")]
    fn indexing_an_absent_key_panics() {
        let m: DenseMap<PageKind, u64> = DenseMap::default();
        let _ = m[&PageKind::Slab];
    }
}
