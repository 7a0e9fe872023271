//! An append-once, lock-free-read array indexed by dense `u32` ids.
//!
//! Both process-global interners — the [`crate::Symbol`] table and the
//! value dictionary in `gbc-storage` — assign ids densely under a
//! writer lock and must answer id → entry lookups from any thread
//! without taking that lock. [`Slots`] is the id → entry side they
//! share: chunk `c` holds `BASE << c` [`OnceLock`] slots, so 21
//! geometrically sized chunks cover the whole `u32` range while early
//! lookups stay in one small, always-hot array. A lookup is two shifts
//! and two indexed loads; a slot is written once and never moves.

use std::sync::OnceLock;

/// Slots in chunk 0; chunk `c` holds `BASE << c`.
const BASE: u32 = 4096;
/// Chunks needed to cover every `u32` id.
const NUM_CHUNKS: usize = 21;

/// Chunked id → `T` storage with lock-free reads. See the module docs.
pub struct Slots<T> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; NUM_CHUNKS],
}

impl<T> Slots<T> {
    /// An empty table; usable in a `static`.
    pub const fn new() -> Slots<T> {
        Slots { chunks: [const { OnceLock::new() }; NUM_CHUNKS] }
    }

    /// (chunk index, offset within chunk) for an id.
    fn locate(id: u32) -> (usize, usize) {
        let k = (id / BASE) + 1;
        let c = (31 - k.leading_zeros()) as usize;
        let start = (BASE as u64) * ((1u64 << c) - 1);
        (c, (id as u64 - start) as usize)
    }

    /// The entry stored for `id`, if one was set.
    pub fn get(&self, id: u32) -> Option<&T> {
        let (c, off) = Slots::<T>::locate(id);
        // A never-initialised chunk means the id was never assigned.
        self.chunks[c].get().and_then(|ch| ch[off].get())
    }

    /// Store `value` for `id`.
    ///
    /// # Panics
    /// Panics when `id` already holds an entry: ids are assigned once.
    pub fn set(&self, id: u32, value: T) {
        let (c, off) = Slots::<T>::locate(id);
        let chunk = self.chunks[c].get_or_init(|| {
            let len = (BASE as usize) << c;
            let mut v = Vec::with_capacity(len);
            v.resize_with(len, OnceLock::new);
            v.into_boxed_slice()
        });
        if chunk[off].set(value).is_err() {
            panic!("slot {id} set twice");
        }
    }
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_locate_covers_boundaries() {
        for id in [0, 1, BASE - 1, BASE, 3 * BASE - 1, 3 * BASE, 7 * BASE - 1, 1_000_000, u32::MAX]
        {
            let (c, off) = Slots::<u8>::locate(id);
            assert!(c < NUM_CHUNKS);
            assert!(off < (BASE as usize) << c, "id {id} → chunk {c} off {off}");
        }
    }

    #[test]
    fn set_then_get_across_chunks() {
        let slots: Slots<u32> = Slots::new();
        for id in [0, BASE - 1, BASE, 5 * BASE] {
            assert_eq!(slots.get(id), None);
            slots.set(id, id + 7);
            assert_eq!(slots.get(id), Some(&(id + 7)));
        }
        assert_eq!(slots.get(1), None, "untouched slot in a live chunk");
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn double_set_panics() {
        let slots: Slots<u8> = Slots::new();
        slots.set(3, 1);
        slots.set(3, 2);
    }
}
