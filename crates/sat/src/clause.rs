//! Arena storage for clauses.
//!
//! Clauses live in one contiguous `Vec<u32>` and are addressed by
//! [`ClauseRef`]. Each record is `[header, (activity, lbd, meta)?, lit0, …]`:
//!
//! * `header = len << 2 | deleted << 1 | learnt`
//! * learnt clauses carry three extra words: an `f32` activity (bitcast),
//!   the literal-block distance (LBD) measured when the clause was learned,
//!   and a meta word holding the retention [`Tier`] plus a used-since-last-
//!   reduce flag for the tiered learnt store.
//!
//! Deleting a clause only marks it; [`ClauseDb::compact`] rebuilds the arena
//! and returns a [`Relocation`] table so the solver can patch watchers and
//! reasons.

use crate::lit::{ClauseRef, Lit};
use std::num::NonZeroU32;

const LEARNT_BIT: u32 = 1;
const DELETED_BIT: u32 = 2;

/// Extra record words carried by a learnt clause (activity, LBD, meta).
const LEARNT_EXTRA: usize = 3;

const TIER_MASK: u32 = 0b11;
const USED_BIT: u32 = 0b100;

/// Retention tier of a learnt clause (CaDiCaL-style three-tier store).
///
/// * [`Tier::Core`] — very low LBD; kept forever.
/// * [`Tier::Mid`] — medium LBD; demoted to [`Tier::Local`] when unused
///   between two database reductions.
/// * [`Tier::Local`] — everything else; the activity-ranked deletion pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Deletion pool: worst half retired on every reduction.
    Local = 0,
    /// Kept while it keeps participating in conflicts.
    Mid = 1,
    /// Kept forever.
    Core = 2,
}

impl Tier {
    /// Tier a clause of the given LBD is admitted to.
    pub fn for_lbd(lbd: u32) -> Tier {
        match lbd {
            0..=2 => Tier::Core,
            3..=6 => Tier::Mid,
            _ => Tier::Local,
        }
    }

    fn from_bits(bits: u32) -> Tier {
        match bits & TIER_MASK {
            1 => Tier::Mid,
            2 => Tier::Core,
            _ => Tier::Local,
        }
    }
}

/// Arena of clauses addressed by [`ClauseRef`].
///
/// # Examples
///
/// ```
/// use olsq2_sat::clause::ClauseDb;
/// use olsq2_sat::{Lit, Var};
/// let mut db = ClauseDb::new();
/// let a = Lit::positive(Var::from_index(0));
/// let b = Lit::positive(Var::from_index(1));
/// let cref = db.alloc(&[a, b], false);
/// assert_eq!(db.lits(cref), &[a, b]);
/// assert!(!db.is_learnt(cref));
/// ```
#[derive(Debug, Clone)]
pub struct ClauseDb {
    arena: Vec<u32>,
    /// Number of `u32` words occupied by deleted records.
    wasted: usize,
}

impl Default for ClauseDb {
    fn default() -> Self {
        Self::new()
    }
}

impl ClauseDb {
    /// Creates an empty arena.
    pub fn new() -> ClauseDb {
        // Index 0 is a sentinel so ClauseRef can be NonZeroU32.
        ClauseDb {
            arena: vec![0],
            wasted: 0,
        }
    }

    /// Allocates a clause; `learnt` selects the extended record with
    /// activity and LBD words.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty; empty clauses are handled by the solver
    /// as an immediate UNSAT flag, never stored.
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        assert!(
            !lits.is_empty(),
            "empty clauses are not stored in the arena"
        );
        let at = self.arena.len() as u32;
        let header = (lits.len() as u32) << 2 | if learnt { LEARNT_BIT } else { 0 };
        self.arena.push(header);
        if learnt {
            self.arena.push(0f32.to_bits());
            self.arena.push(lits.len() as u32); // initial LBD upper bound
            self.arena.push(Tier::Local as u32); // meta: tier + used flag
        }
        self.arena.extend(lits.iter().map(|l| l.0));
        ClauseRef(NonZeroU32::new(at).expect("arena index 0 is reserved"))
    }

    #[inline]
    fn header(&self, cref: ClauseRef) -> u32 {
        self.arena[cref.0.get() as usize]
    }

    #[inline]
    fn lits_start(&self, cref: ClauseRef) -> usize {
        let base = cref.0.get() as usize;
        if self.header(cref) & LEARNT_BIT != 0 {
            base + 1 + LEARNT_EXTRA
        } else {
            base + 1
        }
    }

    /// Number of literals in the clause.
    #[inline]
    pub fn len(&self, cref: ClauseRef) -> usize {
        (self.header(cref) >> 2) as usize
    }

    /// Whether the arena holds no live clauses. Mostly useful in tests.
    pub fn is_empty(&self) -> bool {
        self.arena.len() == 1
    }

    /// Whether the clause was learned during conflict analysis.
    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.header(cref) & LEARNT_BIT != 0
    }

    /// Whether the clause has been marked deleted.
    #[inline]
    pub fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.header(cref) & DELETED_BIT != 0
    }

    /// Marks the clause deleted (lazily removed from watchers, reclaimed by
    /// [`ClauseDb::compact`]).
    #[inline]
    pub fn delete(&mut self, cref: ClauseRef) {
        let base = cref.0.get() as usize;
        if self.arena[base] & DELETED_BIT == 0 {
            self.arena[base] |= DELETED_BIT;
            let extra = if self.arena[base] & LEARNT_BIT != 0 {
                1 + LEARNT_EXTRA
            } else {
                1
            };
            self.wasted += extra + self.len(cref);
        }
    }

    /// The literals of the clause.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let start = self.lits_start(cref);
        let len = self.len(cref);
        // SAFETY: `Lit` is #[repr(transparent)] over u32 with no invariants,
        // and the words at `start..start+len` were written from `Lit` codes.
        unsafe { std::slice::from_raw_parts(self.arena[start..start + len].as_ptr().cast(), len) }
    }

    /// Mutable access to the literals (used to reorder watched positions).
    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let start = self.lits_start(cref);
        let len = self.len(cref);
        // SAFETY: see `lits`.
        unsafe {
            std::slice::from_raw_parts_mut(self.arena[start..start + len].as_mut_ptr().cast(), len)
        }
    }

    /// Learned-clause activity, used for deletion ranking.
    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f32 {
        debug_assert!(self.is_learnt(cref));
        f32::from_bits(self.arena[cref.0.get() as usize + 1])
    }

    /// Sets the learned-clause activity.
    #[inline]
    pub fn set_activity(&mut self, cref: ClauseRef, activity: f32) {
        debug_assert!(self.is_learnt(cref));
        self.arena[cref.0.get() as usize + 1] = activity.to_bits();
    }

    /// Literal-block distance recorded for a learned clause.
    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        debug_assert!(self.is_learnt(cref));
        self.arena[cref.0.get() as usize + 2]
    }

    /// Updates the LBD (kept as the minimum seen).
    #[inline]
    pub fn set_lbd(&mut self, cref: ClauseRef, lbd: u32) {
        debug_assert!(self.is_learnt(cref));
        self.arena[cref.0.get() as usize + 2] = lbd;
    }

    /// Retention tier of a learnt clause.
    #[inline]
    pub fn tier(&self, cref: ClauseRef) -> Tier {
        debug_assert!(self.is_learnt(cref));
        Tier::from_bits(self.arena[cref.0.get() as usize + 3])
    }

    /// Sets the retention tier (promotion keeps the maximum seen at call
    /// sites; the arena itself stores whatever is given).
    #[inline]
    pub fn set_tier(&mut self, cref: ClauseRef, tier: Tier) {
        debug_assert!(self.is_learnt(cref));
        let w = &mut self.arena[cref.0.get() as usize + 3];
        *w = (*w & !TIER_MASK) | tier as u32;
    }

    /// Whether the clause participated in a conflict since the last reduce.
    #[inline]
    pub fn is_used(&self, cref: ClauseRef) -> bool {
        debug_assert!(self.is_learnt(cref));
        self.arena[cref.0.get() as usize + 3] & USED_BIT != 0
    }

    /// Marks the clause as used (set during conflict analysis).
    #[inline]
    pub fn set_used(&mut self, cref: ClauseRef, used: bool) {
        debug_assert!(self.is_learnt(cref));
        let w = &mut self.arena[cref.0.get() as usize + 3];
        if used {
            *w |= USED_BIT;
        } else {
            *w &= !USED_BIT;
        }
    }

    /// Fraction of the arena occupied by deleted records.
    pub fn wasted_ratio(&self) -> f64 {
        self.wasted as f64 / self.arena.len() as f64
    }

    /// Rebuilds the arena without deleted records and returns the
    /// old-to-new [`Relocation`]. Every live [`ClauseRef`] held elsewhere
    /// (watchers, reasons, clause lists) must be translated through it.
    pub fn compact(&mut self) -> Relocation {
        let mut new_arena = Vec::with_capacity(self.arena.len() - self.wasted);
        new_arena.push(0);
        let mut old = std::mem::take(&mut self.arena);
        let mut i = 1usize;
        while i < old.len() {
            let header = old[i];
            let len = (header >> 2) as usize;
            let learnt = header & LEARNT_BIT != 0;
            let extra = if learnt { 1 + LEARNT_EXTRA } else { 1 };
            let record = extra + len;
            // The old header slot becomes the record's forwarding word.
            old[i] = if header & DELETED_BIT == 0 {
                let at = new_arena.len() as u32;
                new_arena.extend_from_slice(&old[i..i + record]);
                at
            } else {
                0
            };
            i += record;
        }
        self.arena = new_arena;
        self.wasted = 0;
        Relocation { forward: old }
    }
}

/// Where [`ClauseDb::compact`] moved each record: the old arena, with
/// every record's header slot overwritten by the record's new index
/// (`0` for a deleted record). A lookup is one array read.
#[derive(Debug)]
pub struct Relocation {
    forward: Vec<u32>,
}

impl Relocation {
    /// The new reference of the clause that lived at `old`, or `None` if
    /// it was deleted. `old` must be a reference from before the compaction.
    #[inline]
    pub fn get(&self, old: ClauseRef) -> Option<ClauseRef> {
        NonZeroU32::new(self.forward[old.0.get() as usize]).map(ClauseRef)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lit(i: usize) -> Lit {
        Lit::positive(Var::from_index(i))
    }

    #[test]
    fn alloc_and_read_back() {
        let mut db = ClauseDb::new();
        let c1 = db.alloc(&[lit(0), !lit(1), lit(2)], false);
        let c2 = db.alloc(&[lit(3), lit(4)], true);
        assert_eq!(db.lits(c1), &[lit(0), !lit(1), lit(2)]);
        assert_eq!(db.lits(c2), &[lit(3), lit(4)]);
        assert_eq!(db.len(c1), 3);
        assert!(db.is_learnt(c2));
        assert!(!db.is_learnt(c1));
        assert_eq!(db.lbd(c2), 2);
    }

    #[test]
    fn activity_roundtrip() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&[lit(0), lit(1)], true);
        db.set_activity(c, 3.25);
        assert_eq!(db.activity(c), 3.25);
        db.set_lbd(c, 1);
        assert_eq!(db.lbd(c), 1);
    }

    #[test]
    fn delete_and_compact() {
        let mut db = ClauseDb::new();
        let c1 = db.alloc(&[lit(0), lit(1)], false);
        let c2 = db.alloc(&[lit(2), lit(3), lit(4)], true);
        let c3 = db.alloc(&[lit(5), lit(6)], false);
        db.delete(c2);
        assert!(db.is_deleted(c2));
        let remap = db.compact();
        let n1 = remap.get(c1).expect("live");
        let n3 = remap.get(c3).expect("live");
        assert_eq!(db.lits(n1), &[lit(0), lit(1)]);
        assert_eq!(db.lits(n3), &[lit(5), lit(6)]);
        assert_eq!(remap.get(c2), None);
        assert_eq!(
            db.arena.len(),
            1 + 3 + 3,
            "sentinel plus two binary records"
        );
    }

    #[test]
    fn tier_and_used_roundtrip() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&[lit(0), lit(1), lit(2)], true);
        assert_eq!(db.tier(c), Tier::Local);
        assert!(!db.is_used(c));
        db.set_tier(c, Tier::Core);
        db.set_used(c, true);
        // The meta word must not bleed into the literals or vice versa.
        assert_eq!(db.lits(c), &[lit(0), lit(1), lit(2)]);
        assert_eq!(db.tier(c), Tier::Core);
        assert!(db.is_used(c));
        db.set_used(c, false);
        assert_eq!(db.tier(c), Tier::Core);
        assert!(!db.is_used(c));
        assert_eq!(Tier::for_lbd(2), Tier::Core);
        assert_eq!(Tier::for_lbd(5), Tier::Mid);
        assert_eq!(Tier::for_lbd(9), Tier::Local);
    }

    #[test]
    fn tier_survives_compaction() {
        let mut db = ClauseDb::new();
        let dead = db.alloc(&[lit(0), lit(1)], false);
        let c = db.alloc(&[lit(2), lit(3)], true);
        db.set_tier(c, Tier::Mid);
        db.set_used(c, true);
        db.delete(dead);
        let remap = db.compact();
        let n = remap.get(c).expect("live");
        assert_eq!(db.tier(n), Tier::Mid);
        assert!(db.is_used(n));
        assert_eq!(db.lits(n), &[lit(2), lit(3)]);
    }

    #[test]
    fn lits_mut_reorders() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&[lit(0), lit(1), lit(2)], false);
        db.lits_mut(c).swap(0, 2);
        assert_eq!(db.lits(c), &[lit(2), lit(1), lit(0)]);
    }
}
