//! Slab-backed watch lists: every per-literal list lives in one shared
//! pool, one allocation for the whole structure instead of one per
//! literal. A formula with tens of thousands of variables otherwise pays
//! ~2·vars mallocs as it is built.
//!
//! Layout: `heads[code]` names a `(start, len, cap)` window into `pool`.
//! A push that overflows its window relocates the list to the pool tail
//! with doubled capacity and abandons the old slots (`wasted` tracks
//! them); [`WatchLists::sweep`] rebuilds the pool compactly. Windows of
//! *other* lists never move on a push, and pool indices stay valid across
//! the pool's own reallocation, which is exactly the stability the
//! propagation loop needs (it only ever pushes to lists other than the
//! one it is scanning).
//!
//! Bulk intake counts before it fills: [`WatchLists::announce`] each
//! watcher's list, [`WatchLists::make_room`] once, then `push` them in
//! order. Every list moves at most once per bulk, a fresh one straight
//! to its exact final size, instead of doubling its way up one
//! relocation at a time.

/// One per-literal window into the pool. `cap` slots are reserved
/// starting at `start`; the first `len` hold live watchers.
#[derive(Debug, Clone, Copy, Default)]
struct ListHead {
    start: u32,
    len: u32,
    cap: u32,
}

/// Flat watch-list collection over a copyable watcher type.
#[derive(Debug)]
pub(crate) struct WatchLists<T: Copy> {
    pool: Vec<T>,
    heads: Vec<ListHead>,
    /// Pool slots orphaned by list relocation; reclaimed by `sweep`.
    wasted: usize,
    /// Watchers announced per list since the last `make_room` (scratch,
    /// sized on demand, all zero between bulks).
    want: Vec<u32>,
    /// The lists with a nonzero `want`, each once.
    wanted: Vec<u32>,
}

impl<T: Copy> WatchLists<T> {
    pub(crate) fn new() -> Self {
        WatchLists {
            pool: Vec::new(),
            heads: Vec::new(),
            wasted: 0,
            want: Vec::new(),
            wanted: Vec::new(),
        }
    }

    /// Appends one empty list (callers add two per fresh variable).
    pub(crate) fn push_list(&mut self) {
        self.heads.push(ListHead::default());
    }

    /// The live pool-slot range of `code`'s list in one head load (the
    /// propagation loop reads this once per literal per scheme; separate
    /// `start_of`/`len_of` calls would each re-check bounds). Stable under
    /// pushes to *other* lists, like [`WatchLists::start_of`].
    #[inline]
    pub(crate) fn range_of(&self, code: usize) -> std::ops::Range<usize> {
        let head = self.heads[code];
        head.start as usize..(head.start + head.len) as usize
    }

    /// Reads the watcher at absolute pool slot `idx`.
    #[inline]
    pub(crate) fn at_raw(&self, idx: usize) -> T {
        self.pool[idx]
    }

    /// Writes the watcher at absolute pool slot `idx`.
    #[inline]
    pub(crate) fn set_raw(&mut self, idx: usize, w: T) {
        self.pool[idx] = w;
    }

    /// `copy_within` over absolute pool slots (bulk tail-keep on conflict).
    #[inline]
    pub(crate) fn copy_within_raw(&mut self, src: std::ops::Range<usize>, dst: usize) {
        self.pool.copy_within(src, dst);
    }

    /// Shrinks `code`'s list to `len` (two-pointer compaction epilogue).
    #[inline]
    pub(crate) fn truncate(&mut self, code: usize, len: usize) {
        debug_assert!(len <= self.heads[code].len as usize);
        self.heads[code].len = len as u32;
    }

    /// Appends `w` to `code`'s list, relocating the list to the pool tail
    /// with doubled capacity when its window is full. Other lists' windows
    /// are unaffected either way.
    pub(crate) fn push(&mut self, code: usize, w: T) {
        let head = self.heads[code];
        if head.len < head.cap {
            self.pool[(head.start + head.len) as usize] = w;
            self.heads[code].len += 1;
            return;
        }
        // Min window of 2, not a larger round-up: most lists hold one or
        // two watchers (every literal of a 2/3-clause gets one), and the
        // scan streams the pool — halving dead padding is worth the one
        // extra relocation that longer lists pay on their way up.
        let new_cap = (head.cap * 2).max(2);
        let new_start = self.pool.len();
        debug_assert!(new_start + new_cap as usize <= u32::MAX as usize);
        self.pool.reserve(new_cap as usize);
        for i in 0..head.len as usize {
            let v = self.pool[head.start as usize + i];
            self.pool.push(v);
        }
        // Pad the window to full capacity (with copies of `w`, the only
        // value at hand) so the next relocation starts past it.
        self.pool.resize(new_start + new_cap as usize, w);
        self.wasted += head.cap as usize;
        self.heads[code] = ListHead {
            start: new_start as u32,
            len: head.len + 1,
            cap: new_cap,
        };
    }

    /// Announces one watcher that a bulk fill will `push` to `code`'s
    /// list after the next [`WatchLists::make_room`].
    #[inline]
    pub(crate) fn announce(&mut self, code: usize) {
        if code >= self.want.len() {
            self.want.resize(self.heads.len(), 0);
        }
        if self.want[code] == 0 {
            self.wanted.push(code as u32);
        }
        self.want[code] += 1;
    }

    /// Gives every announced list room for its announced watchers, so the
    /// pushes that follow never relocate. A list that lacks room moves to
    /// a new window at the pool tail: exact-size if it had no window yet
    /// (every list of a fresh model), at least double its old one
    /// otherwise, so a caller that alternates small additions with solves
    /// pays amortized O(1) per watcher, as with `push`, instead of moving
    /// and abandoning the whole list every time. All moves of one call
    /// share a single pool resize (padded with `filler`, which the pushes
    /// overwrite). Cost grows with the announced lists, not with the
    /// number of lists.
    pub(crate) fn make_room(&mut self, filler: T) {
        // The old head and new capacity of a list whose announced
        // watchers overflow its window.
        let moved = |lists: &Self, code: u32| {
            let head = lists.heads[code as usize];
            let need = head.len + lists.want[code as usize];
            (need > head.cap).then(|| (head, need.max(2 * head.cap)))
        };
        let mut tail = self.pool.len();
        let grown: usize = (self.wanted.iter())
            .filter_map(|&code| moved(self, code))
            .map(|(_, cap)| cap as usize)
            .sum();
        // Window starts are stored as u32.
        assert!(tail + grown <= u32::MAX as usize, "watch pool overflow");
        self.pool.resize(tail + grown, filler);
        for i in 0..self.wanted.len() {
            let code = self.wanted[i];
            if let Some((head, cap)) = moved(self, code) {
                let start = head.start as usize;
                self.pool
                    .copy_within(start..start + head.len as usize, tail);
                self.wasted += head.cap as usize;
                self.heads[code as usize] = ListHead {
                    start: tail as u32,
                    len: head.len,
                    cap,
                };
                tail += cap as usize;
            }
            self.want[code as usize] = 0;
        }
        self.wanted.clear();
    }

    /// Keeps the watchers of `code`'s list that `keep` approves of, in
    /// order, compacting the window in place (its capacity stays).
    pub(crate) fn retain(&mut self, code: usize, mut keep: impl FnMut(&T) -> bool) {
        let range = self.range_of(code);
        let start = range.start;
        let mut j = start;
        for i in range {
            let w = self.pool[i];
            if keep(&w) {
                self.pool[j] = w;
                j += 1;
            }
        }
        self.heads[code].len = (j - start) as u32;
    }

    /// Retains watchers `f` approves of (with in-place mutation, e.g. cref
    /// remapping), rebuilding the pool with zero wasted slots. Lists keep
    /// their relative order; capacities snap to the surviving lengths, so
    /// the next push per list relocates once — sweeps are rare (garbage
    /// collection after `reduce_db` or `simplify` deletes enough clauses)
    /// and leave no orphaned slot between the lists the propagation loop
    /// streams.
    pub(crate) fn sweep(&mut self, mut f: impl FnMut(&mut T) -> bool) {
        let live = self.pool.len() - self.wasted;
        let mut new_pool = Vec::with_capacity(live);
        for head in &mut self.heads {
            let new_start = new_pool.len() as u32;
            for i in head.start as usize..(head.start + head.len) as usize {
                let mut w = self.pool[i];
                if f(&mut w) {
                    new_pool.push(w);
                }
            }
            let new_len = new_pool.len() as u32 - new_start;
            *head = ListHead {
                start: new_start,
                len: new_len,
                cap: new_len,
            };
        }
        self.pool = new_pool;
        self.wasted = 0;
    }

    /// Detaches the pool for a scan that needs a local slice (so the
    /// optimizer sees no aliasing with the rest of the solver). The
    /// caller must not touch any list until [`WatchLists::restore_pool`]
    /// puts it back, and may shrink its own list via `truncate` after.
    #[inline]
    pub(crate) fn take_pool(&mut self) -> Vec<T> {
        std::mem::take(&mut self.pool)
    }

    /// Re-attaches a pool taken by [`WatchLists::take_pool`].
    #[inline]
    pub(crate) fn restore_pool(&mut self, pool: Vec<T>) {
        debug_assert!(self.pool.is_empty());
        self.pool = pool;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(w: &WatchLists<u64>, code: usize) -> Vec<u64> {
        w.range_of(code).map(|i| w.at_raw(i)).collect()
    }

    #[test]
    fn push_relocates_without_disturbing_other_lists() {
        let mut w = WatchLists::new();
        for _ in 0..3 {
            w.push_list();
        }
        for i in 0..10u64 {
            w.push(0, i);
            w.push(2, 100 + i);
        }
        w.push(1, 777);
        assert_eq!(collect(&w, 0), (0..10).collect::<Vec<_>>());
        assert_eq!(collect(&w, 1), vec![777]);
        assert_eq!(collect(&w, 2), (100..110).collect::<Vec<_>>());
        assert!(w.wasted > 0);
    }

    #[test]
    fn announced_fill_matches_pushes_without_relocating() {
        let mut bulk = WatchLists::new();
        let mut eager = WatchLists::new();
        for _ in 0..4 {
            bulk.push_list();
            eager.push_list();
        }
        bulk.push(1, 7);
        eager.push(1, 7);
        let stream = [(0, 1u64), (3, 2), (1, 3), (0, 4), (0, 5), (1, 6)];
        for &(code, _) in &stream {
            bulk.announce(code);
        }
        bulk.make_room(0);
        let (pool, wasted) = (bulk.pool.len(), bulk.wasted);
        for &(code, w) in &stream {
            bulk.push(code, w);
            eager.push(code, w);
        }
        assert_eq!(
            (bulk.pool.len(), bulk.wasted),
            (pool, wasted),
            "fill moved a list"
        );
        for code in 0..4 {
            assert_eq!(collect(&bulk, code), collect(&eager, code));
        }
        // Lists 0 and 3 had no window and get exact ones (3 and 1 slots);
        // list 1 outgrows its first window (2 slots, wasted) and doubles.
        assert_eq!((bulk.pool.len(), bulk.wasted), (2 + 3 + 1 + 4, 2));
    }

    #[test]
    fn alternating_small_bulks_grow_geometrically() {
        let mut w = WatchLists::new();
        w.push_list();
        for i in 0..1000u64 {
            w.announce(0);
            w.make_room(0);
            w.push(0, i);
        }
        assert_eq!(collect(&w, 0), (0..1000).collect::<Vec<_>>());
        // Capacities 1, 2, 4, …, 1024: the abandoned windows sum to 1023.
        assert_eq!(w.wasted, 1023);
    }

    #[test]
    fn retain_compacts_one_list_in_order() {
        let mut w = WatchLists::new();
        for _ in 0..2 {
            w.push_list();
        }
        for i in 0..6u64 {
            w.push(0, i);
            w.push(1, i);
        }
        w.retain(0, |v| v % 3 != 0);
        assert_eq!(collect(&w, 0), vec![1, 2, 4, 5]);
        assert_eq!(collect(&w, 1), (0..6).collect::<Vec<_>>());
        w.push(0, 9);
        assert_eq!(collect(&w, 0), vec![1, 2, 4, 5, 9]);
    }

    #[test]
    fn sweep_compacts_and_filters_in_order() {
        let mut w = WatchLists::new();
        for _ in 0..2 {
            w.push_list();
        }
        for i in 0..8u64 {
            w.push(0, i);
            w.push(1, 50 + i);
        }
        w.sweep(|v| {
            *v *= 10;
            *v % 20 == 0
        });
        assert_eq!(w.wasted, 0);
        assert_eq!(collect(&w, 0), vec![0, 20, 40, 60]);
        assert_eq!(collect(&w, 1), vec![500, 520, 540, 560]);
        // Post-sweep pushes still work (each list relocates once).
        w.push(0, 999);
        assert_eq!(collect(&w, 0), vec![0, 20, 40, 60, 999]);
        assert_eq!(collect(&w, 1), vec![500, 520, 540, 560]);
    }

    #[test]
    fn truncate_and_raw_writes_model_two_pointer_compaction() {
        let mut w = WatchLists::new();
        w.push_list();
        for i in 0..6u64 {
            w.push(0, i);
        }
        let range = w.range_of(0);
        let start = range.start;
        // Keep even entries via the solver's two-pointer idiom.
        let mut j = 0;
        for i in 0..range.len() {
            let v = w.at_raw(start + i);
            if v % 2 == 0 {
                w.set_raw(start + j, v);
                j += 1;
            }
        }
        w.truncate(0, j);
        assert_eq!(collect(&w, 0), vec![0, 2, 4]);
    }
}
