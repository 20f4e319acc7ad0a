//! A fast hasher for maps keyed by program-generated ids.
//!
//! std's default `RandomState` runs SipHash-1-3, which is built to resist
//! hash flooding by keys an adversary picks.  The hottest maps of the gate
//! pipeline never see such keys: they are keyed only by ids the program
//! allocates itself — [`StateId`](crate::StateId)s, [`InternalSymbol`]s
//! (a variable index plus a tag, which is a transition number), class ids
//! of the reduction, `AmpId`s — and tuples of those.  For those maps
//! [`IdHasher`] folds each integer word into the state with one rotate, one
//! xor and one multiply (the Fx scheme), which costs a fraction of a SipHash
//! round.
//!
//! **Which maps may use it.**  Only maps whose keys are made *entirely* of
//! program-generated ids: the swap ladder's per-pass interner and layer
//! dedup, the binary product's pair table, the reduction's symbol and
//! signature → class tables, and `TreeAutomaton::dedup_transitions`.
//!
//! **Which maps keep SipHash.**  The process-wide amplitude intern table
//! (`autoq_amplitude::intern`) and the tree arena ([`crate::arena`]) hash
//! keys that derive from amplitude *values* — bigint coefficients that come
//! straight from untrusted jobs — and use the hash to pick a shard.  A
//! multiplicative hash of attacker-chosen words is easy to collide, which
//! would pile every entry into one shard and one probe chain, so they keep
//! `RandomState`.  The daemon's verdict cache, keyed by job content, keeps
//! it for the same reason.  The inclusion and certificate tables keep it
//! too: inclusion takes a few percent of a job, too little to repay
//! auditing where each of their keys comes from.
//!
//! [`InternalSymbol`]: crate::InternalSymbol

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An odd 64-bit constant with well-spread bits (the Fx multiplier).
const MULTIPLIER: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style word hasher for keys made only of program-generated ids (see
/// the module docs for which maps may use it and which must not).
///
/// ```
/// use autoq_treeaut::{IdHashMap, StateId};
/// let mut map: IdHashMap<(StateId, StateId), u32> = IdHashMap::default();
/// map.insert((StateId::new(1), StateId::new(2)), 7);
/// assert_eq!(map[&(StateId::new(1), StateId::new(2))], 7);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add(value as u64);
    }

    /// The last multiply leaves the high bits best mixed; the table picks
    /// its bucket from the low bits, so rotate the high bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` keyed by program-generated ids, hashed with [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of program-generated ids, hashed with [`IdHasher`].
pub type IdHashSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InternalSymbol, StateId, Tag};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        let a = (
            StateId::new(3),
            InternalSymbol::new(1).with_tag(Tag::Pair(4, 5)),
        );
        assert_eq!(hash_of(&a), hash_of(&a.clone()));
        let hashes: HashSet<u64> = (0..1000u32).map(|q| hash_of(&StateId::new(q))).collect();
        assert_eq!(hashes.len(), 1000);
        // Tuples that only swap their fields must not collide.
        assert_ne!(
            hash_of(&(StateId::new(1), StateId::new(2))),
            hash_of(&(StateId::new(2), StateId::new(1)))
        );
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let mut short = IdHasher::default();
        short.write(&[1, 2, 3]);
        let mut long = IdHasher::default();
        long.write(&[1, 2, 3, 0, 0, 0, 0, 0, 9]);
        assert_ne!(short.finish(), IdHasher::default().finish());
        assert_ne!(short.finish(), long.finish());
    }

    #[test]
    fn sequential_ids_spread_over_low_bits() {
        // The table indexes buckets by the low bits of the hash: dense ids
        // must not crowd into a few of 64 buckets.
        let mut buckets = [0u32; 64];
        for q in 0..6400u32 {
            buckets[(hash_of(&(StateId::new(q), StateId::new(0))) & 63) as usize] += 1;
        }
        assert!(buckets.iter().all(|&count| (50..=150).contains(&count)));
    }

    #[test]
    fn maps_and_sets_work_through_the_aliases() {
        let mut set: IdHashSet<(StateId, u32)> = IdHashSet::default();
        assert!(set.insert((StateId::new(1), 2)));
        assert!(!set.insert((StateId::new(1), 2)));
        // The reduction's signature table is keyed by boxed tuple slices.
        type Signature = Box<[(u32, u32, u32)]>;
        let mut map: IdHashMap<Signature, u32> = IdHashMap::default();
        map.insert(Box::from(&[(1, 2, 3)][..]), 9);
        assert_eq!(map.get(&[(1, 2, 3)][..]), Some(&9));
    }
}
