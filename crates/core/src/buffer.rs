//! The buffer cache, with Aurora's eviction rule.
//!
//! §4.2.3: "the Aurora database does not write out pages on eviction (or
//! anywhere else) … The guarantee is implemented by evicting a page from
//! the cache only if its 'page LSN' … is greater than or equal to the
//! VDL" — i.e. a page may leave the cache only when the log that produced
//! it is already durable, so a later fetch at the current VDL returns
//! something at least as new.
//!
//! (The paper's phrasing inverts the comparison; the operative invariant,
//! which we implement, is: **evict only pages whose every change is at or
//! below the VDL**. Pages carrying changes above the VDL must stay
//! resident because storage cannot yet serve their latest version.)
//!
//! The same pool serves the baseline engine, which takes the LRU victim
//! from [`BufferPool::lru_victim`] and flushes it first if it is dirty.
//!
//! Frames sit in a slab threaded by a doubly linked recency list, so a
//! hit moves its frame to the most-recent end and an eviction walks from
//! the least-recent end: both O(1) in the common case, where the victim
//! is at or near that end, with no allocation past the slab's growth.

use aurora_sim::hash::{FxBuildHasher, FxHashMap as HashMap};

use aurora_log::{Lsn, Page, PageId};

/// End of the recency list.
const NIL: u32 = u32::MAX;

struct Frame {
    id: PageId,
    page: Page,
    dirty: bool,
    /// Neighbour slots toward the least-recent end and the most-recent end.
    older: u32,
    newer: u32,
}

/// A fixed-capacity page cache with LRU eviction.
pub struct BufferPool {
    /// Page id → its slot in `frames`.
    index: HashMap<PageId, u32>,
    /// Dense slab of resident frames; removal swaps the last one in.
    frames: Vec<Frame>,
    /// Least- and most-recently used slots (`NIL` when empty).
    lru: u32,
    mru: u32,
    capacity: usize,
    /// Cache statistics.
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl BufferPool {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        BufferPool {
            index: HashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default()),
            frames: Vec::new(),
            lru: NIL,
            mru: NIL,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    pub fn contains(&self, id: PageId) -> bool {
        self.index.contains_key(&id)
    }

    /// The slot of a resident page, moved to the most-recent end. Counts
    /// hit/miss.
    fn touch(&mut self, id: PageId) -> Option<usize> {
        match self.index.get(&id) {
            Some(&slot) => {
                self.hits += 1;
                if slot != self.mru {
                    self.unlink(slot);
                    self.link_newest(slot);
                }
                Some(slot as usize)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Borrow a resident page, bumping its recency. Counts hit/miss.
    pub fn get(&mut self, id: PageId) -> Option<&Page> {
        let slot = self.touch(id)?;
        Some(&self.frames[slot].page)
    }

    /// Borrow mutably (engine mutation path); bumps recency and marks the
    /// frame dirty (meaningful for the baseline; harmless for Aurora).
    pub fn get_mut(&mut self, id: PageId) -> Option<&mut Page> {
        let slot = self.touch(id)?;
        let frame = &mut self.frames[slot];
        frame.dirty = true;
        Some(&mut frame.page)
    }

    /// Peek without recency/statistics effects.
    pub fn peek(&self, id: PageId) -> Option<&Page> {
        self.index.get(&id).map(|&s| &self.frames[s as usize].page)
    }

    fn peek_mut(&mut self, id: PageId) -> Option<&mut Frame> {
        self.index.get(&id).map(|&s| &mut self.frames[s as usize])
    }

    /// Insert a page fetched from storage (clean). If the pool is full,
    /// evicts the least-recently-used page whose LSN is at or below `vdl`
    /// (the Aurora rule). Returns `Err(page)` with the offered page if no
    /// frame is evictable (caller must stall until the VDL advances —
    /// in practice the VDL advances continuously and this is momentary).
    pub fn insert(&mut self, id: PageId, page: Page, vdl: Lsn) -> Result<(), Page> {
        if let Some(&slot) = self.index.get(&id) {
            self.refresh(slot, page);
            return Ok(());
        }
        if self.frames.len() >= self.capacity && !self.evict_one(vdl) {
            return Err(page);
        }
        self.push(id, page);
        Ok(())
    }

    /// Evict the least-recently-used page at or below `vdl`, if any.
    fn evict_one(&mut self, vdl: Lsn) -> bool {
        let victim = self.oldest_first().find(|&s| {
            let f = &self.frames[s];
            f.id.0 != 0 && f.page.lsn <= vdl
        });
        match victim {
            Some(slot) => {
                self.remove_slot(slot);
                self.evictions += 1;
                true
            }
            None => false,
        }
    }

    /// Insert without evicting — used for freshly allocated pages inside
    /// an operation (eviction mid-op could pull a page out from under the
    /// B+-tree) and during bootstrap. The pool may temporarily exceed its
    /// capacity; [`BufferPool::shrink_to_capacity`] trims it back.
    pub fn insert_unchecked(&mut self, id: PageId, page: Page) {
        match self.index.get(&id) {
            Some(&slot) => self.refresh(slot, page),
            None => self.push(id, page),
        }
    }

    /// A re-fetch raced with a resident frame: keep the newer image,
    /// without a recency bump.
    fn refresh(&mut self, slot: u32, page: Page) {
        let f = &mut self.frames[slot as usize];
        if page.lsn > f.page.lsn {
            f.page = page;
        }
    }

    /// Stamp a resident page's LSN (after the log manager assigned LSNs to
    /// the records produced by an in-cache mutation).
    pub fn set_lsn(&mut self, id: PageId, lsn: Lsn) {
        if let Some(f) = self.peek_mut(id) {
            if lsn > f.page.lsn {
                f.page.lsn = lsn;
            }
        }
    }

    /// Evict durable LRU pages until the pool is back within capacity.
    /// The meta page (page 0) is never evicted — it anchors allocation.
    pub fn shrink_to_capacity(&mut self, vdl: Lsn) {
        while self.frames.len() > self.capacity && self.evict_one(vdl) {}
    }

    /// The current LRU victim (id, dirty) without removing it — the
    /// baseline engine must flush dirty victims before eviction.
    pub fn lru_victim(&self) -> Option<(PageId, bool)> {
        self.oldest_first()
            .map(|s| &self.frames[s])
            .find(|f| f.id.0 != 0)
            .map(|f| (f.id, f.dirty))
    }

    /// Drop a specific frame (after the baseline flushed it).
    pub fn remove(&mut self, id: PageId) -> Option<Page> {
        let slot = *self.index.get(&id)? as usize;
        self.evictions += 1;
        Some(self.remove_slot(slot))
    }

    /// Dirty page ids (baseline checkpointing).
    pub fn dirty_pages(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self
            .frames
            .iter()
            .filter(|f| f.dirty)
            .map(|f| f.id)
            .collect();
        v.sort_unstable();
        v
    }

    /// Mark a page clean after the baseline flushed it.
    pub fn mark_clean(&mut self, id: PageId) {
        if let Some(f) = self.peek_mut(id) {
            f.dirty = false;
        }
    }

    /// Drop everything (engine crash loses the cache — it is volatile).
    pub fn clear(&mut self) {
        self.index.clear();
        self.frames.clear();
        self.lru = NIL;
        self.mru = NIL;
    }

    /// Cache hit ratio so far.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    // ---- the slab and its recency list ----

    /// Slots from least to most recently used.
    fn oldest_first(&self) -> impl Iterator<Item = usize> + '_ {
        let slot = |s: u32| (s != NIL).then_some(s as usize);
        std::iter::successors(slot(self.lru), move |&s| slot(self.frames[s].newer))
    }

    /// Append a new frame at the most-recent end.
    fn push(&mut self, id: PageId, page: Page) {
        let slot = self.frames.len() as u32;
        self.frames.push(Frame {
            id,
            page,
            dirty: false,
            older: NIL,
            newer: NIL,
        });
        self.index.insert(id, slot);
        self.link_newest(slot);
    }

    /// Take a frame out of the slab, moving the last frame into its slot.
    fn remove_slot(&mut self, slot: usize) -> Page {
        self.unlink(slot as u32);
        let frame = self.frames.swap_remove(slot);
        self.index.remove(&frame.id);
        if slot < self.frames.len() {
            // the former last frame now lives at `slot`: repoint its links
            let (id, older, newer) = {
                let moved = &self.frames[slot];
                (moved.id, moved.older, moved.newer)
            };
            let s = slot as u32;
            self.index.insert(id, s);
            match older {
                NIL => self.lru = s,
                o => self.frames[o as usize].newer = s,
            }
            match newer {
                NIL => self.mru = s,
                n => self.frames[n as usize].older = s,
            }
        }
        frame.page
    }

    fn unlink(&mut self, slot: u32) {
        let Frame { older, newer, .. } = self.frames[slot as usize];
        match older {
            NIL => self.lru = newer,
            o => self.frames[o as usize].newer = newer,
        }
        match newer {
            NIL => self.mru = older,
            n => self.frames[n as usize].older = older,
        }
    }

    fn link_newest(&mut self, slot: u32) {
        let frame = &mut self.frames[slot as usize];
        frame.older = self.mru;
        frame.newer = NIL;
        match self.mru {
            NIL => self.lru = slot,
            m => self.frames[m as usize].newer = slot,
        }
        self.mru = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_at(lsn: u64) -> Page {
        let mut p = Page::new();
        p.lsn = Lsn(lsn);
        p
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut pool = BufferPool::new(2);
        assert!(pool.get(PageId(1)).is_none());
        pool.insert(PageId(1), page_at(1), Lsn(10)).unwrap();
        assert!(pool.get(PageId(1)).is_some());
        assert_eq!(pool.hits, 1);
        assert_eq!(pool.misses, 1);
        assert!((pool.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction_respects_vdl_rule() {
        let mut pool = BufferPool::new(2);
        // page 1 has changes above the VDL (lsn 100 > vdl 50): not evictable
        pool.insert(PageId(1), page_at(100), Lsn(50)).unwrap();
        pool.insert(PageId(2), page_at(10), Lsn(50)).unwrap();
        // touch page 2 so page 1 is LRU; eviction must still pick page 2
        let _ = pool.get(PageId(2));
        pool.insert(PageId(3), page_at(20), Lsn(50)).unwrap();
        assert!(pool.contains(PageId(1)), "non-durable page must stay");
        assert!(!pool.contains(PageId(2)), "durable LRU page evicted");
        assert!(pool.contains(PageId(3)));
    }

    #[test]
    fn insert_fails_when_nothing_evictable() {
        let mut pool = BufferPool::new(1);
        pool.insert(PageId(1), page_at(100), Lsn(50)).unwrap();
        let offered = page_at(10);
        let back = pool.insert(PageId(2), offered, Lsn(50)).unwrap_err();
        assert_eq!(back.lsn, Lsn(10));
        // after the VDL advances past 100, the insert succeeds
        pool.insert(PageId(2), page_at(10), Lsn(100)).unwrap();
        assert!(pool.contains(PageId(2)));
    }

    #[test]
    fn reinsert_keeps_newest_image() {
        let mut pool = BufferPool::new(2);
        pool.insert(PageId(1), page_at(5), Lsn(10)).unwrap();
        pool.insert(PageId(1), page_at(3), Lsn(10)).unwrap(); // stale refetch
        assert_eq!(pool.peek(PageId(1)).unwrap().lsn, Lsn(5));
        pool.insert(PageId(1), page_at(8), Lsn(10)).unwrap();
        assert_eq!(pool.peek(PageId(1)).unwrap().lsn, Lsn(8));
    }

    #[test]
    fn dirty_tracking_and_clean() {
        let mut pool = BufferPool::new(4);
        pool.insert(PageId(1), page_at(1), Lsn(10)).unwrap();
        pool.insert(PageId(2), page_at(2), Lsn(10)).unwrap();
        let _ = pool.get_mut(PageId(2));
        assert_eq!(pool.dirty_pages(), vec![PageId(2)]);
        pool.mark_clean(PageId(2));
        assert!(pool.dirty_pages().is_empty());
    }

    #[test]
    fn clear_empties_pool() {
        let mut pool = BufferPool::new(4);
        pool.insert(PageId(1), page_at(1), Lsn(10)).unwrap();
        pool.clear();
        assert!(pool.is_empty());
        assert!(!pool.contains(PageId(1)));
    }
}
