//! Cube interning and the shared cube-state table.
//!
//! Every `1` entry of the KC matrix corresponds to a *network cube* — a
//! concrete product term of a concrete node. The same network cube can
//! appear at several matrix positions (through different co-kernels), and
//! in Algorithm L the overlapping blocks `B_ij` replicate entries across
//! processors; cube identity is therefore global. The
//! [`CubeRegistry`] interns `(node, cube)` pairs into dense [`CubeId`]s,
//! and [`CubeStates`] keeps one atomic word per cube implementing the
//! paper's Table 5:
//!
//! | state   | V | T | meaning                                     |
//! |---------|---|---|---------------------------------------------|
//! | FREE    | w | — | not covered by any best rectangle           |
//! | COVERED | 0 | w | speculatively covered by `owner`, not divided |
//! | DIVIDED | 0 | 0 | covered by some rectangle and divided       |
//!
//! `value_for(cube, asking_proc)` returns the *trueval* `w` to the owner
//! while COVERED (the owner may still improve its own best rectangle) and
//! `0` to everyone else — the §5.3 mechanism that stops two processors
//! from both banking the same literals.

use parking_lot::Mutex;
use pf_sop::fx::FxHashMap;
use pf_sop::{Cube, Lit};
use std::sync::atomic::{AtomicU32, Ordering};

/// Dense id of an interned network cube.
pub type CubeId = u32;

/// Processor id in the parallel algorithms (0-based).
pub type ProcId = u16;

/// The per-cube state of Table 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CubeState {
    /// Not covered by any processor's current best rectangle.
    Free,
    /// Speculatively covered by this processor's best rectangle.
    Covered(ProcId),
    /// Extracted: the covering rectangle has been divided out.
    Divided,
}

// Atomic encoding: bit 17 = divided, bit 16 = covered, bits 0..16 = owner.
const DIVIDED_BIT: u32 = 1 << 17;
const COVERED_BIT: u32 = 1 << 16;
const OWNER_MASK: u32 = 0xFFFF;

/// Interns `(node, cube)` pairs and records each cube's literal weight.
///
/// Interning is mutex-protected (it happens during matrix construction,
/// off the hot search path); lookups of weight by id are lock-free.
/// Cubes of up to [`Cube::INLINE`] literals are stored in place, so
/// building a key to probe with allocates nothing.
#[derive(Default)]
pub struct CubeRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    index: FxHashMap<(u32, Cube), CubeId>,
    weights: Vec<u32>,
}

impl CubeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns the cube `cube` of node `node`, returning its id. The
    /// weight recorded is the cube's literal count.
    pub fn intern(&self, node: u32, cube: &Cube) -> CubeId {
        self.intern_lits(node, cube.lits())
    }

    /// [`CubeRegistry::intern`] for the cube with the sorted,
    /// duplicate-free literals `lits` — so a caller can build the cube
    /// in a reused buffer.
    pub fn intern_lits(&self, node: u32, lits: &[Lit]) -> CubeId {
        let mut g = self.inner.lock();
        let g = &mut *g;
        *g.index
            .entry((node, Cube::from_sorted_slice(lits)))
            .or_insert_with(|| {
                g.weights.push(lits.len() as u32);
                (g.weights.len() - 1) as CubeId
            })
    }

    /// Looks up an already-interned cube.
    pub fn lookup(&self, node: u32, cube: &Cube) -> Option<CubeId> {
        self.inner.lock().index.get(&(node, cube.clone())).copied()
    }

    /// The literal weight of a cube.
    pub fn weight(&self, id: CubeId) -> u32 {
        self.inner.lock().weights[id as usize]
    }

    /// Number of interned cubes.
    pub fn len(&self) -> usize {
        self.inner.lock().weights.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all weights, indexed by [`CubeId`] — taken once per
    /// search pass so the hot loop never locks.
    pub fn weights_snapshot(&self) -> Vec<u32> {
        self.inner.lock().weights.clone()
    }

    /// Appends the weights of cubes interned since `cache.len()` to
    /// `cache` — the incremental form of [`CubeRegistry::weights_snapshot`],
    /// used by the parallel workers to avoid re-copying the whole table
    /// under the lock after every extraction.
    pub fn extend_weights(&self, cache: &mut Vec<u32>) {
        let g = self.inner.lock();
        if cache.len() < g.weights.len() {
            cache.extend_from_slice(&g.weights[cache.len()..]);
        }
    }
}

/// The shared state table: one atomic word per cube.
///
/// Grows monotonically; `ensure(len)` must be called after interning new
/// cubes and before using their ids (single-threaded phases only — the
/// parallel search phases never resize).
#[derive(Default)]
pub struct CubeStates {
    words: Vec<AtomicU32>,
}

impl CubeStates {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table sized for `n` cubes, all FREE.
    pub fn with_len(n: usize) -> Self {
        CubeStates {
            words: (0..n).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Grows the table to at least `n` entries (new entries FREE).
    pub fn ensure(&mut self, n: usize) {
        while self.words.len() < n {
            self.words.push(AtomicU32::new(0));
        }
    }

    /// Number of tracked cubes.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Decodes the current state of a cube.
    pub fn state(&self, id: CubeId) -> CubeState {
        decode(self.words[id as usize].load(Ordering::Acquire))
    }

    /// The paper's `value` attribute as seen by `asking` (§5.3):
    /// * FREE → the true weight,
    /// * COVERED by `asking` itself → the true weight (trueval),
    /// * COVERED by another processor → 0,
    /// * DIVIDED → 0.
    #[inline]
    pub fn value_for(&self, id: CubeId, weight: u32, asking: ProcId) -> u32 {
        match self.state(id) {
            CubeState::Free => weight,
            CubeState::Covered(owner) if owner == asking => weight,
            _ => 0,
        }
    }

    /// Attempts to speculatively cover a FREE cube for `proc`
    /// (FREE → COVERED(proc)). Returns whether the claim succeeded; a
    /// cube already covered by `proc` also reports success (idempotent).
    pub fn claim(&self, id: CubeId, proc: ProcId) -> bool {
        let target = COVERED_BIT | proc as u32;
        loop {
            let cur = self.words[id as usize].load(Ordering::Acquire);
            match decode(cur) {
                CubeState::Free => {
                    if self.words[id as usize]
                        .compare_exchange(cur, target, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return true;
                    }
                }
                CubeState::Covered(owner) => return owner == proc,
                CubeState::Divided => return false,
            }
        }
    }

    /// Releases a cube this processor had covered
    /// (COVERED(proc) → FREE) — the "copies back the value from
    /// trueval" transition when the owner found a better rectangle.
    /// No-op unless currently covered by `proc`.
    pub fn release(&self, id: CubeId, proc: ProcId) -> bool {
        let cur = COVERED_BIT | proc as u32;
        self.words[id as usize]
            .compare_exchange(cur, 0, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Marks a cube DIVIDED (terminal). Any owner is overridden — the
    /// dividing processor has, by protocol, claimed the cube first or
    /// received it in a shipped partial rectangle.
    pub fn mark_divided(&self, id: CubeId) {
        self.words[id as usize].store(DIVIDED_BIT, Ordering::Release);
    }

    /// Resets every cube to FREE. Used between independent extraction
    /// passes of the sequential driver.
    pub fn reset(&self) {
        for w in &self.words {
            w.store(0, Ordering::Release);
        }
    }
}

#[inline]
fn decode(word: u32) -> CubeState {
    if word & DIVIDED_BIT != 0 {
        CubeState::Divided
    } else if word & COVERED_BIT != 0 {
        CubeState::Covered((word & OWNER_MASK) as ProcId)
    } else {
        CubeState::Free
    }
}

/// A lock-free, append-only variant of [`CubeStates`] for the threaded
/// algorithms: fixed-size chunks of atomics are allocated on demand
/// behind `OnceLock`s, so *reads never take a lock* — the rectangle
/// search evaluates millions of cube values per second and a shared
/// `RwLock` would serialize the processors.
///
/// Capacity is `CHUNK_SIZE · MAX_CHUNKS` (= 64 Mi cubes), far beyond any
/// realistic run; `ensure` panics past that.
pub struct ConcurrentCubeStates {
    chunks: Vec<std::sync::OnceLock<Box<[AtomicU32]>>>,
}

/// Entries per chunk (2^16).
const CHUNK_SIZE: usize = 1 << 16;
/// Maximum number of chunks.
const MAX_CHUNKS: usize = 1 << 10;

impl Default for ConcurrentCubeStates {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentCubeStates {
    /// An empty table.
    pub fn new() -> Self {
        let mut chunks = Vec::with_capacity(MAX_CHUNKS);
        chunks.resize_with(MAX_CHUNKS, std::sync::OnceLock::new);
        ConcurrentCubeStates { chunks }
    }

    /// Makes ids `0..n` addressable (allocates the covering chunks).
    pub fn ensure(&self, n: usize) {
        assert!(n <= CHUNK_SIZE * MAX_CHUNKS, "cube-state table exhausted");
        let needed = n.div_ceil(CHUNK_SIZE);
        for c in 0..needed {
            self.chunks[c].get_or_init(|| {
                (0..CHUNK_SIZE)
                    .map(|_| AtomicU32::new(0))
                    .collect::<Vec<_>>()
                    .into_boxed_slice()
            });
        }
    }

    #[inline]
    fn word(&self, id: CubeId) -> &AtomicU32 {
        let id = id as usize;
        let chunk = self.chunks[id / CHUNK_SIZE]
            .get()
            .expect("ensure() must cover every id in use");
        &chunk[id % CHUNK_SIZE]
    }

    /// Decoded state of a cube.
    pub fn state(&self, id: CubeId) -> CubeState {
        decode(self.word(id).load(Ordering::Acquire))
    }

    /// Table 5's `value` as seen by `asking` (see
    /// [`CubeStates::value_for`]).
    #[inline]
    pub fn value_for(&self, id: CubeId, weight: u32, asking: ProcId) -> u32 {
        match self.state(id) {
            CubeState::Free => weight,
            CubeState::Covered(owner) if owner == asking => weight,
            _ => 0,
        }
    }

    /// FREE → COVERED(proc); idempotent for the same processor.
    pub fn claim(&self, id: CubeId, proc: ProcId) -> bool {
        let w = self.word(id);
        let target = COVERED_BIT | proc as u32;
        loop {
            let cur = w.load(Ordering::Acquire);
            match decode(cur) {
                CubeState::Free => {
                    if w.compare_exchange(cur, target, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return true;
                    }
                }
                CubeState::Covered(owner) => return owner == proc,
                CubeState::Divided => return false,
            }
        }
    }

    /// COVERED(proc) → FREE; no-op for other owners or states.
    pub fn release(&self, id: CubeId, proc: ProcId) -> bool {
        let cur = COVERED_BIT | proc as u32;
        self.word(id)
            .compare_exchange(cur, 0, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Any state → DIVIDED (terminal).
    pub fn mark_divided(&self, id: CubeId) {
        self.word(id).store(DIVIDED_BIT, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_sop::Lit;

    fn cube(ids: &[u32]) -> Cube {
        Cube::from_lits(ids.iter().map(|&i| Lit::pos(i)))
    }

    #[test]
    fn interning_is_idempotent() {
        let reg = CubeRegistry::new();
        let id1 = reg.intern(0, &cube(&[1, 2]));
        let id2 = reg.intern(0, &cube(&[1, 2]));
        assert_eq!(id1, id2);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.weight(id1), 2);
    }

    #[test]
    fn intern_lits_and_intern_agree() {
        let reg = CubeRegistry::new();
        let a = reg.intern(0, &cube(&[1, 2]));
        assert_eq!(reg.intern_lits(0, cube(&[1, 2]).lits()), a);
        let b = reg.intern_lits(0, cube(&[3]).lits());
        assert_eq!(reg.intern(0, &cube(&[3])), b);
        assert_eq!(reg.lookup(0, &cube(&[3])), Some(b));
        assert_ne!(reg.intern_lits(1, cube(&[3]).lits()), b);
        assert_eq!(reg.len(), 3);
        // A cube past the inline capacity round-trips the same way.
        let long = cube(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(long.len() > Cube::INLINE);
        let l = reg.intern_lits(0, long.lits());
        assert_eq!(reg.intern(0, &long), l);
        assert_eq!(reg.lookup(0, &long), Some(l));
        assert_eq!(reg.weight(l), 8);
        assert_eq!(reg.len(), 4);
    }

    #[test]
    fn same_cube_different_node_distinct() {
        let reg = CubeRegistry::new();
        let id1 = reg.intern(0, &cube(&[1, 2]));
        let id2 = reg.intern(1, &cube(&[1, 2]));
        assert_ne!(id1, id2);
    }

    #[test]
    fn lookup_finds_interned_only() {
        let reg = CubeRegistry::new();
        let id = reg.intern(3, &cube(&[4]));
        assert_eq!(reg.lookup(3, &cube(&[4])), Some(id));
        assert_eq!(reg.lookup(3, &cube(&[5])), None);
    }

    #[test]
    fn table5_free_state() {
        let st = CubeStates::with_len(4);
        assert_eq!(st.state(0), CubeState::Free);
        // FREE: everyone sees the weight.
        assert_eq!(st.value_for(0, 7, 0), 7);
        assert_eq!(st.value_for(0, 7, 3), 7);
    }

    #[test]
    fn table5_covered_state() {
        let st = CubeStates::with_len(4);
        assert!(st.claim(0, 2));
        assert_eq!(st.state(0), CubeState::Covered(2));
        // COVERED: owner sees trueval, others see 0 (Example 5.2 fix).
        assert_eq!(st.value_for(0, 7, 2), 7);
        assert_eq!(st.value_for(0, 7, 1), 0);
    }

    #[test]
    fn table5_divided_state() {
        let st = CubeStates::with_len(4);
        st.claim(0, 1);
        st.mark_divided(0);
        assert_eq!(st.state(0), CubeState::Divided);
        assert_eq!(st.value_for(0, 7, 1), 0);
        assert_eq!(st.value_for(0, 7, 2), 0);
        // A divided cube can never be claimed again.
        assert!(!st.claim(0, 1));
    }

    #[test]
    fn claim_is_exclusive_but_idempotent() {
        let st = CubeStates::with_len(2);
        assert!(st.claim(0, 1));
        assert!(!st.claim(0, 2)); // other processor rejected
        assert!(st.claim(0, 1)); // same processor fine
    }

    #[test]
    fn release_restores_trueval_for_everyone() {
        let st = CubeStates::with_len(2);
        st.claim(0, 1);
        assert!(st.release(0, 1));
        assert_eq!(st.state(0), CubeState::Free);
        assert_eq!(st.value_for(0, 9, 2), 9);
        // Releasing an unowned cube is a no-op.
        assert!(!st.release(0, 1));
    }

    #[test]
    fn release_wrong_owner_rejected() {
        let st = CubeStates::with_len(2);
        st.claim(0, 1);
        assert!(!st.release(0, 2));
        assert_eq!(st.state(0), CubeState::Covered(1));
    }

    #[test]
    fn reset_clears_everything() {
        let st = CubeStates::with_len(3);
        st.claim(0, 1);
        st.mark_divided(1);
        st.reset();
        for i in 0..3 {
            assert_eq!(st.state(i), CubeState::Free);
        }
    }

    #[test]
    fn concurrent_states_mirror_locked_table() {
        let st = ConcurrentCubeStates::new();
        st.ensure(3);
        assert_eq!(st.state(0), CubeState::Free);
        assert!(st.claim(0, 2));
        assert_eq!(st.state(0), CubeState::Covered(2));
        assert_eq!(st.value_for(0, 7, 2), 7);
        assert_eq!(st.value_for(0, 7, 1), 0);
        assert!(!st.claim(0, 1));
        assert!(st.release(0, 2));
        assert_eq!(st.state(0), CubeState::Free);
        st.mark_divided(1);
        assert_eq!(st.state(1), CubeState::Divided);
        assert!(!st.claim(1, 0));
    }

    #[test]
    fn concurrent_states_cross_chunk_ids() {
        let st = ConcurrentCubeStates::new();
        let big = (1usize << 16) + 5;
        st.ensure(big + 1);
        assert!(st.claim(big as CubeId, 3));
        assert_eq!(st.state(big as CubeId), CubeState::Covered(3));
        // Chunk 0 unaffected.
        assert_eq!(st.state(0), CubeState::Free);
    }

    #[test]
    fn concurrent_states_parallel_single_winner() {
        use std::sync::Arc;
        let st = Arc::new(ConcurrentCubeStates::new());
        st.ensure(1);
        let mut handles = Vec::new();
        for p in 0..8u16 {
            let st = Arc::clone(&st);
            handles.push(std::thread::spawn(move || st.claim(0, p)));
        }
        let winners: usize = handles
            .into_iter()
            .map(|h| h.join().unwrap() as usize)
            .sum();
        assert_eq!(winners, 1);
    }

    #[test]
    fn concurrent_claims_have_single_winner() {
        use std::sync::Arc;
        let st = Arc::new(CubeStates::with_len(1));
        let mut handles = Vec::new();
        for p in 0..8u16 {
            let st = Arc::clone(&st);
            handles.push(std::thread::spawn(move || st.claim(0, p)));
        }
        let winners: usize = handles
            .into_iter()
            .map(|h| h.join().unwrap() as usize)
            .sum();
        assert_eq!(winners, 1);
    }
}
