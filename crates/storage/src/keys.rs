//! The key index under every set and packed build side: where a key of
//! cells sits in an arena of keys.
//!
//! A [`KeyIndex`] does not hold the keys. Its owner keeps them in an arena —
//! a flat vector of cells, `width` per key, in insertion order (a
//! `TupleSet`'s tuples, a `WordTable`'s keys) — and the index maps a key to
//! its position there, or records where a new key will go. It has two
//! layouts, and the keys choose between them:
//!
//! - **hashed**: open addressing over `hash32 << 32 | (index + 1)` slots, at
//!   most half full, probed linearly from the top bits of the hash. A miss
//!   rarely touches the arena and growing never does;
//! - **by position**: when every cell of every key is a word under a
//!   per-column power-of-two bound `2^bits`, the key *is* its slot:
//!   `dir[c0 << (b1 + …) | c1 << … | …] = index + 1`. No hash, and no
//!   compare against the arena: a key is there exactly when its entry is.
//!
//! A hashed index switches to positions at a growth point, when the bounds
//! that cover every key so far (plus the one being added) give a directory
//! of no more bytes than the slots the growth would allocate. A key outside
//! the directory's bounds re-lays the index out from the arena: a wider
//! directory under the same bytes rule, or hashed slots. Which layout holds
//! never changes what a lookup or an insert returns — indices are arena
//! positions either way — so it is invisible above this module except in
//! memory and time.

use crate::hasher::FxHasher;
use crate::value::Value;
use std::hash::{Hash, Hasher};

/// One cell of a key a [`KeyIndex`] indexes.
pub trait KeyCell: PartialEq {
    /// Whether a key of these cells can be addressed by position: its cells
    /// are words.
    const WORDS: bool = false;

    /// The cell as a word; asked only when [`KeyCell::WORDS`].
    fn word(&self) -> u64 {
        u64::MAX
    }

    /// Feed the hasher the cell, as the cell's own `Hash` would.
    fn hash_into(&self, h: &mut FxHasher);
}

impl KeyCell for u64 {
    const WORDS: bool = true;

    #[inline(always)]
    fn word(&self) -> u64 {
        *self
    }

    #[inline(always)]
    fn hash_into(&self, h: &mut FxHasher) {
        h.write_u64(*self);
    }
}

impl KeyCell for Value {
    #[inline(always)]
    fn hash_into(&self, h: &mut FxHasher) {
        self.hash(h);
    }
}

/// The 32 bits of a key's FxHash a hashed slot keeps (the upper half).
#[inline(always)]
pub fn hash32<C: KeyCell>(key: &[C]) -> u32 {
    let mut h = FxHasher::default();
    for c in key {
        c.hash_into(&mut h);
    }
    (h.finish() >> 32) as u32
}

/// Key `i` of an arena of `width`-cell keys: `N` cells when `N` is not 0,
/// else `width`. A caller compiles its loop once per key width 1–4 (`N`) —
/// the key's length, and so its hash, compare and position loops, are
/// constants there — and once for wider keys (`N = 0`).
#[inline(always)]
pub fn nth<C, const N: usize>(cells: &[C], width: usize, i: usize) -> &[C] {
    let w = if N == 0 { width } else { N };
    &cells[i * w..i * w + w]
}

/// Where the keys are found.
#[derive(Debug, Clone)]
enum Layout {
    /// `hash32 << 32 | (index + 1)`; 0 is an empty slot. The length is 0 or
    /// a power of two ≥ 8.
    Hashed(Vec<u64>),
    /// `dir[position] = index + 1`; 0: no key there. Column `c` of a key
    /// takes `bits[c]` bits of its position, the first column the highest.
    ByPosition { dir: Vec<u32>, bits: Box<[u32]> },
}

impl Default for Layout {
    fn default() -> Self {
        Layout::Hashed(Vec::new())
    }
}

/// The index of an arena of keys; see the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct KeyIndex {
    layout: Layout,
    /// Per key column, the largest word of the keys indexed (words only).
    max: Vec<u64>,
    /// Times a directory was laid out again for a key outside its bounds.
    relayouts: u32,
}

/// Slots a hashed index of `keys` keys holds: a power of two ≥ 8, at most
/// half full.
fn slots_for(keys: usize) -> usize {
    (2 * keys).next_power_of_two().max(8)
}

/// A directory's bytes are capped by this many position bits, whatever the
/// slots it replaces would hold.
const MAX_BITS: u32 = 36;

/// The position of a key under `bits` per column, or `None` when a cell is
/// outside its column's bound.
#[inline(always)]
fn position<C: KeyCell>(bits: &[u32], key: &[C]) -> Option<usize> {
    let mut at = 0u64;
    for (c, &b) in key.iter().zip(bits.iter()) {
        let w = c.word();
        if w >> b != 0 {
            return None;
        }
        at = at << b | w;
    }
    Some(at as usize)
}

/// The slot a hash's probe sequence starts at, in `len` slots.
#[inline(always)]
fn home(len: usize, hash32: u32) -> usize {
    (hash32 >> (32 - len.trailing_zeros())) as usize
}

/// The index of `key` under `slots`, or the empty slot its probe sequence
/// ends at; the key has `N` cells (any number when `N` is 0).
#[inline(always)]
fn probe<C: KeyCell, const N: usize>(
    slots: &[u64],
    arena: &[C],
    key: &[C],
    hash32: u32,
) -> Result<usize, usize> {
    let mask = slots.len() - 1;
    let mut at = home(slots.len(), hash32);
    loop {
        let slot = slots[at];
        if slot == 0 {
            return Err(at);
        }
        if (slot >> 32) as u32 == hash32 {
            let i = (slot as u32 - 1) as usize;
            // Zero-width keys are all equal. Comparing them anyway hands the
            // empty arena's dangling pointer to the platform's `bcmp`, which
            // is ~20x slower than a hit.
            if key.is_empty() || nth::<C, N>(arena, key.len(), i) == key {
                return Ok(i);
            }
        }
        at = (at + 1) & mask;
    }
}

impl KeyIndex {
    /// True while keys are addressed by position.
    #[inline]
    pub fn by_position(&self) -> bool {
        matches!(self.layout, Layout::ByPosition { .. })
    }

    /// Times the index was laid out again because a key fell outside its
    /// directory.
    pub fn relayouts(&self) -> u32 {
        self.relayouts
    }

    /// Bytes held by the slots or the directory (a few words per key
    /// column besides, like the arena's column kinds, are not counted).
    pub fn heap_bytes(&self) -> u64 {
        match &self.layout {
            Layout::Hashed(slots) => 8 * slots.len() as u64,
            Layout::ByPosition { dir, .. } => 4 * dir.len() as u64,
        }
    }

    /// The index of `key` among the keys of `arena`, if there.
    #[inline]
    pub fn find<C: KeyCell>(&self, arena: &[C], key: &[C]) -> Option<usize> {
        match &self.layout {
            Layout::ByPosition { dir, bits } => {
                let i = dir[position(bits, key)?];
                (i as usize).checked_sub(1)
            }
            Layout::Hashed(slots) if slots.is_empty() => None,
            Layout::Hashed(slots) => probe::<C, 0>(slots, arena, key, hash32(key)).ok(),
        }
    }

    /// The index of `key` (of `N` cells, any number when `N` is 0) among the
    /// `len` keys of `arena`, or `Err(len)` when absent: the key is then
    /// recorded as key `len`, and the caller appends it to the arena. `hash`
    /// is the key's [`hash32`] if known; it is computed only when the index
    /// is hashed.
    #[inline(always)]
    pub fn intern<C: KeyCell, const N: usize>(
        &mut self,
        arena: &[C],
        len: usize,
        key: &[C],
        hash: Option<u32>,
    ) -> Result<usize, usize> {
        loop {
            match &mut self.layout {
                Layout::ByPosition { dir, bits } => {
                    if let Some(at) = position(bits, key) {
                        if dir[at] != 0 {
                            return Ok(dir[at] as usize - 1);
                        }
                        dir[at] = Self::entry(len);
                        self.note(key);
                        return Err(len);
                    }
                    self.relayouts += 1;
                    self.lay_out::<C, N>(arena, len, key);
                }
                Layout::Hashed(slots) if (len + 1) * 2 > slots.len() => {
                    self.lay_out::<C, N>(arena, len, key);
                }
                Layout::Hashed(slots) => {
                    let hash = hash.unwrap_or_else(|| hash32(key));
                    return match probe::<C, N>(slots, arena, key, hash) {
                        Ok(i) => Ok(i),
                        Err(at) => {
                            slots[at] = u64::from(hash) << 32 | u64::from(Self::entry(len));
                            self.note(key);
                            Err(len)
                        }
                    };
                }
            }
        }
    }

    /// The entry of key `i`: `i + 1`.
    #[inline(always)]
    fn entry(i: usize) -> u32 {
        assert!(i < u32::MAX as usize, "key index overflow");
        i as u32 + 1
    }

    /// Raise the column maxima to a key just indexed.
    #[inline(always)]
    fn note<C: KeyCell>(&mut self, key: &[C]) {
        if C::WORDS {
            if self.max.len() != key.len() {
                self.max.resize(key.len(), 0);
            }
            for (m, c) in self.max.iter_mut().zip(key) {
                *m = (*m).max(c.word());
            }
        }
    }

    /// The bits per column of a directory covering the keys indexed and
    /// `key`, if it takes no more bytes than the slots of a hashed index of
    /// `keys` keys.
    fn directory_bits<C: KeyCell>(&self, key: &[C], keys: usize) -> Option<Box<[u32]>> {
        if !C::WORDS {
            return None;
        }
        let max = |c: usize| self.max.get(c).copied().unwrap_or(0);
        let bits: Box<[u32]> = (key.iter().enumerate())
            .map(|(c, cell)| 64 - max(c).max(cell.word()).leading_zeros())
            .collect();
        let total: u32 = bits.iter().sum();
        (total <= MAX_BITS && 4u64 << total <= 8 * slots_for(keys) as u64).then_some(bits)
    }

    /// Lay the `len` keys of `arena` out so that `key` fits too: by
    /// position if the bytes rule allows it, else in hashed slots for one
    /// more key — the hashed layout's entries moved by the hashes they keep
    /// (the arena is not read), a directory's keys hashed again.
    #[cold]
    fn lay_out<C: KeyCell, const N: usize>(&mut self, arena: &[C], len: usize, key: &[C]) {
        let width = key.len();
        if let Some(bits) = self.directory_bits(key, len + 1) {
            let mut dir = vec![0u32; 1 << bits.iter().sum::<u32>()];
            for i in 0..len {
                if let Some(at) = position(&bits, nth::<C, N>(arena, width, i)) {
                    dir[at] = Self::entry(i);
                }
            }
            self.layout = Layout::ByPosition { dir, bits };
            return;
        }
        let old = match std::mem::take(&mut self.layout) {
            Layout::Hashed(slots) => slots,
            Layout::ByPosition { .. } => (0..len)
                .map(|i| u64::from(hash32(nth::<C, N>(arena, width, i))) << 32 | (i as u64 + 1))
                .collect(),
        };
        let mut slots = vec![0u64; slots_for(len + 1)];
        let mask = slots.len() - 1;
        for slot in old.into_iter().filter(|&s| s != 0) {
            let mut at = home(slots.len(), (slot >> 32) as u32);
            while slots[at] != 0 {
                at = (at + 1) & mask;
            }
            slots[at] = slot;
        }
        self.layout = Layout::Hashed(slots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Intern `key` into an arena of 2-cell keys.
    fn intern(index: &mut KeyIndex, arena: &mut Vec<u64>, key: [u64; 2]) -> Result<usize, usize> {
        let got = index.intern::<u64, 2>(arena, arena.len() / 2, &key, None);
        if got.is_err() {
            arena.extend_from_slice(&key);
        }
        got
    }

    #[test]
    fn small_keys_move_to_positions_and_a_wide_key_moves_them_back() {
        let (mut index, mut arena) = (KeyIndex::default(), Vec::new());
        for i in 0..64u64 {
            assert_eq!(
                intern(&mut index, &mut arena, [i % 8, i / 8]),
                Err(i as usize)
            );
        }
        // 64 keys under 3 + 3 bits: 256 bytes of directory against 1 KiB of
        // slots.
        assert!(index.by_position());
        assert_eq!(intern(&mut index, &mut arena, [5, 2]), Ok(21));
        assert_eq!(index.find(&arena, &[5, 2]), Some(21));
        assert_eq!(index.find(&arena, &[8, 0]), None);
        // Just past a bound: a wider directory.
        let relayouts = index.relayouts();
        assert_eq!(intern(&mut index, &mut arena, [8, 0]), Err(64));
        assert!(index.by_position());
        assert_eq!(index.relayouts(), relayouts + 1);
        // Far past it: hashed again, every index kept.
        assert_eq!(intern(&mut index, &mut arena, [1 << 40, 1]), Err(65));
        assert!(!index.by_position());
        assert_eq!(index.relayouts(), relayouts + 2);
        for i in 0..64u64 {
            assert_eq!(index.find(&arena, &[i % 8, i / 8]), Some(i as usize));
        }
        assert_eq!(index.find(&arena, &[1 << 40, 1]), Some(65));
    }

    #[test]
    fn value_keys_stay_hashed_and_zero_width_keys_are_one_key() {
        let mut index = KeyIndex::default();
        let mut arena: Vec<Value> = Vec::new();
        for i in 0..100i64 {
            let key = [Value::Int(i % 10)];
            if let Err(at) = index.intern::<Value, 1>(&arena, arena.len(), &key, None) {
                assert_eq!(at, arena.len());
                arena.extend_from_slice(&key);
            }
        }
        assert_eq!(arena.len(), 10);
        assert!(!index.by_position());
        let mut index = KeyIndex::default();
        let none: [u64; 0] = [];
        assert_eq!(index.intern::<u64, 0>(&[], 0, &none, None), Err(0));
        assert_eq!(index.intern::<u64, 0>(&[], 1, &none, None), Ok(0));
        assert_eq!(index.find(&[], &none), Some(0));
    }
}
