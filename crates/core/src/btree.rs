//! B+-tree access method.
//!
//! InnoDB's B+-tree, reduced to what the paper's workloads need: fixed
//! `u64` keys, fixed-length rows, point get/insert/update/delete and range
//! scans via leaf sibling links. Structural changes (page splits, root
//! growth) are the canonical mini-transactions of §4.1 — "e.g. split/merge
//! of B+-Tree pages" — and every byte the tree touches flows through a
//! [`PageEditor`], which captures before/after patches for the redo log.
//!
//! The tree is expressed against a [`PageProvider`] so the identical code
//! runs over Aurora's log-only write path, the traditional baseline's
//! WAL+page path, and a plain in-memory provider in unit tests. A provider
//! may fail any access with [`PageMiss`] (buffer-cache miss): the engine
//! then fetches the page from storage and *re-executes the whole
//! operation*, which is safe because mutations happen only after every
//! needed page is resident (reads precede writes in each op).
//!
//! Deletions do not rebalance (no merge): leaves may underflow, as in many
//! production trees (and InnoDB's `MERGE_THRESHOLD` often never triggers).

use aurora_log::{Page, PageId, PAGE_SIZE};

/// A page needed by the operation is not resident; fetch it and retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMiss(pub PageId);

/// One captured byte patch: `(offset, before, after)`.
pub type PagePatch = (u32, Vec<u8>, Vec<u8>);

/// Mutation capture: wraps a resident page and records byte patches as
/// `(offset, before, after)` for the redo log.
pub struct PageEditor<'a> {
    /// The page's bytes, made writable (copied if shared) once, up front.
    bytes: &'a mut [u8],
    patches: &'a mut Vec<PagePatch>,
}

impl<'a> PageEditor<'a> {
    pub fn new(page: &'a mut Page, patches: &'a mut Vec<PagePatch>) -> Self {
        PageEditor {
            bytes: page.bytes_mut(),
            patches,
        }
    }

    /// Current page contents.
    pub fn bytes(&self) -> &[u8] {
        self.bytes
    }

    /// Overwrite a range, capturing the patch. No-op if identical.
    pub fn set(&mut self, offset: usize, data: &[u8]) {
        let range = offset..offset + data.len();
        let before = &self.bytes[range.clone()];
        if before == data {
            return;
        }
        self.patches
            .push((offset as u32, before.to_vec(), data.to_vec()));
        self.bytes[range].copy_from_slice(data);
    }

    pub fn set_u8(&mut self, offset: usize, v: u8) {
        self.set(offset, &[v]);
    }

    pub fn set_u16(&mut self, offset: usize, v: u16) {
        self.set(offset, &v.to_le_bytes());
    }

    pub fn set_u64(&mut self, offset: usize, v: u64) {
        self.set(offset, &v.to_le_bytes());
    }
}

/// Provider of resident pages. Implementations: the Aurora engine's buffer
/// cache (misses go to the storage fleet), the baseline's buffer pool
/// (misses go to EBS), and a plain map in tests.
pub trait PageProvider {
    /// Read access to a resident page.
    fn read(&mut self, id: PageId) -> Result<&Page, PageMiss>;

    /// Mutate a resident page through an editor; the provider turns the
    /// captured patches into one redo record (one `PageWrite` per call).
    fn write(&mut self, id: PageId, f: &mut dyn FnMut(&mut PageEditor<'_>))
        -> Result<(), PageMiss>;

    /// Allocate (and format) a fresh page, logging the allocation.
    fn allocate(&mut self) -> Result<PageId, PageMiss>;
}

// ---------------------------------------------------------------------
// Page layout
// ---------------------------------------------------------------------

const KIND_LEAF: u8 = 1;
const KIND_INTERNAL: u8 = 2;
const KIND_META: u8 = 3;

const OFF_KIND: usize = 0;
const OFF_NKEYS: usize = 1;
const OFF_NEXT: usize = 3; // leaf: next-leaf link (+1, 0 = none); internal: leftmost child
const HDR: usize = 11;

// meta page layout (after the shared kind byte): magic, root pointer,
// reserved allocator slot, row size
const MAGIC: u64 = 0xA080_175D_B00C_0001;
const OFF_META_MAGIC: usize = 8;
const OFF_META_ROOT: usize = 16;
/// Allocator slot in the meta page, shared with the engine's provider.
pub const OFF_META_NEXT_FREE: usize = 24;
const OFF_META_ROW: usize = 32;

fn read_u16(b: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([b[off], b[off + 1]])
}

fn read_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

/// Static tree parameters derived from the row size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeMeta {
    /// Fixed row payload length in bytes.
    pub row_size: usize,
    /// Entries per leaf.
    pub leaf_cap: usize,
    /// Entries per internal node (beyond the leftmost child).
    pub internal_cap: usize,
    /// The meta page holding root/allocator state.
    pub meta_page: PageId,
}

impl TreeMeta {
    pub fn for_row_size(row_size: usize, meta_page: PageId) -> TreeMeta {
        let leaf_cap = (PAGE_SIZE - HDR) / (8 + row_size);
        let internal_cap = (PAGE_SIZE - HDR) / 16;
        assert!(leaf_cap >= 4, "row_size too large for page");
        TreeMeta {
            row_size,
            leaf_cap,
            internal_cap,
            meta_page,
        }
    }
}

/// Errors surfaced to the transaction layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BTreeError {
    /// Resident-set miss: fetch this page, then retry the operation.
    Miss(PageMiss),
    /// Key already exists (insert).
    DuplicateKey(u64),
    /// Key absent (update/delete).
    KeyNotFound(u64),
    /// `insert_no_split` hit a full leaf — the caller must run
    /// [`BTree::prepare_split`] first (protocol violation if it did).
    LeafFull,
    /// The tree was never created on this volume.
    NotInitialized,
    /// Structural corruption: descent reached a page whose kind byte is
    /// neither leaf nor internal. Surfaced as an error (not a panic) so
    /// the engine can abort the one transaction instead of the process.
    Corrupt { page: PageId, kind: u8 },
}

impl From<PageMiss> for BTreeError {
    fn from(m: PageMiss) -> Self {
        BTreeError::Miss(m)
    }
}

impl std::fmt::Display for BTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BTreeError::Miss(m) => write!(f, "page miss: {:?}", m.0),
            BTreeError::DuplicateKey(k) => write!(f, "duplicate key {k}"),
            BTreeError::KeyNotFound(k) => write!(f, "key {k} not found"),
            BTreeError::LeafFull => write!(f, "leaf full; split required first"),
            BTreeError::NotInitialized => write!(f, "tree not initialized"),
            BTreeError::Corrupt { page, kind } => {
                write!(f, "corrupt tree: page {:?} has kind {kind}", page.0)
            }
        }
    }
}

impl std::error::Error for BTreeError {}

/// The B+-tree. Stateless besides [`TreeMeta`]; all state lives in pages.
#[derive(Debug, Clone, Copy)]
pub struct BTree {
    pub meta: TreeMeta,
}

impl BTree {
    pub fn new(meta: TreeMeta) -> Self {
        BTree { meta }
    }

    /// Format a brand-new tree: meta page plus an empty root leaf. Must be
    /// the first thing ever done to the volume region.
    pub fn create<P: PageProvider>(&self, p: &mut P) -> Result<(), BTreeError> {
        let root = p.allocate()?;
        p.write(root, &mut |e| {
            e.set_u8(OFF_KIND, KIND_LEAF);
            e.set_u16(OFF_NKEYS, 0);
            e.set_u64(OFF_NEXT, 0);
        })?;
        let meta_page = self.meta.meta_page;
        let row = self.meta.row_size as u64;
        p.write(meta_page, &mut |e| {
            e.set_u8(OFF_KIND, KIND_META);
            e.set_u64(OFF_META_MAGIC, MAGIC);
            e.set_u64(OFF_META_ROOT, root.0);
            // NOTE: OFF_META_NEXT_FREE is owned by the provider's allocator
            // and must not be reset here (root allocation already bumped it).
            e.set_u64(OFF_META_ROW, row);
        })?;
        Ok(())
    }

    fn root<P: PageProvider>(&self, p: &mut P) -> Result<PageId, BTreeError> {
        let meta = p.read(self.meta.meta_page)?;
        let b = meta.bytes();
        if read_u64(b, OFF_META_MAGIC) != MAGIC || b[OFF_KIND] != KIND_META {
            return Err(BTreeError::NotInitialized);
        }
        Ok(PageId(read_u64(b, OFF_META_ROOT)))
    }

    fn leaf_entry_off(&self, i: usize) -> usize {
        HDR + i * (8 + self.meta.row_size)
    }

    fn internal_entry_off(&self, i: usize) -> usize {
        HDR + i * 16
    }

    /// Descend to the leaf that owns `key`, returning the path
    /// (internal pages with the child index taken) and the leaf id.
    fn descend<P: PageProvider>(
        &self,
        p: &mut P,
        key: u64,
    ) -> Result<(Vec<PageId>, PageId), BTreeError> {
        let mut path = Vec::new();
        let mut cur = self.root(p)?;
        loop {
            let page = p.read(cur)?;
            let b = page.bytes();
            match b[OFF_KIND] {
                KIND_LEAF => return Ok((path, cur)),
                KIND_INTERNAL => {
                    let n = read_u16(b, OFF_NKEYS) as usize;
                    let mut child = PageId(read_u64(b, OFF_NEXT)); // leftmost
                                                                   // last separator <= key wins
                    for i in 0..n {
                        let off = self.internal_entry_off(i);
                        let sep = read_u64(b, off);
                        if sep <= key {
                            child = PageId(read_u64(b, off + 8));
                        } else {
                            break;
                        }
                    }
                    path.push(cur);
                    cur = child;
                }
                k => return Err(BTreeError::Corrupt { page: cur, kind: k }),
            }
        }
    }

    /// Binary search within a leaf; Ok(i) = found at i, Err(i) = insert at i.
    fn leaf_search(&self, b: &[u8], key: u64) -> Result<usize, usize> {
        let n = read_u16(b, OFF_NKEYS) as usize;
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let k = read_u64(b, self.leaf_entry_off(mid));
            match k.cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Point lookup.
    pub fn get<P: PageProvider>(&self, p: &mut P, key: u64) -> Result<Option<Vec<u8>>, BTreeError> {
        let (_, leaf) = self.descend(p, key)?;
        let page = p.read(leaf)?;
        let b = page.bytes();
        match self.leaf_search(b, key) {
            Ok(i) => {
                let off = self.leaf_entry_off(i) + 8;
                Ok(Some(b[off..off + self.meta.row_size].to_vec()))
            }
            Err(_) => Ok(None),
        }
    }

    /// Range scan: up to `limit` rows with key >= `start`, following leaf
    /// sibling links.
    pub fn scan<P: PageProvider>(
        &self,
        p: &mut P,
        start: u64,
        limit: usize,
    ) -> Result<Vec<(u64, Vec<u8>)>, BTreeError> {
        let (_, mut leaf) = self.descend(p, start)?;
        let mut out = Vec::with_capacity(limit);
        loop {
            let page = p.read(leaf)?;
            let b = page.bytes();
            let n = read_u16(b, OFF_NKEYS) as usize;
            let from = match self.leaf_search(b, start) {
                Ok(i) => i,
                Err(i) => i,
            };
            for i in from..n {
                if out.len() >= limit {
                    return Ok(out);
                }
                let off = self.leaf_entry_off(i);
                let k = read_u64(b, off);
                out.push((k, b[off + 8..off + 8 + self.meta.row_size].to_vec()));
            }
            let next = read_u64(b, OFF_NEXT);
            if next == 0 || out.len() >= limit {
                return Ok(out);
            }
            leaf = PageId(next - 1);
        }
    }

    /// Insert a new key. Duplicate keys are rejected. Splits allocate
    /// pages and update ancestors; the caller wraps the whole operation in
    /// one MTR.
    pub fn insert<P: PageProvider>(
        &self,
        p: &mut P,
        key: u64,
        row: &[u8],
    ) -> Result<(), BTreeError> {
        assert_eq!(row.len(), self.meta.row_size);
        let (path, leaf) = self.descend(p, key)?;
        // Pre-check for duplicates.
        let (idx, n) = {
            let page = p.read(leaf)?;
            let b = page.bytes();
            match self.leaf_search(b, key) {
                Ok(_) => return Err(BTreeError::DuplicateKey(key)),
                Err(i) => (i, read_u16(b, OFF_NKEYS) as usize),
            }
        };
        if n < self.meta.leaf_cap {
            self.leaf_insert_at(p, leaf, idx, key, row, n)?;
            return Ok(());
        }
        // Split: allocate right sibling, move upper half, insert, then
        // propagate the separator upward.
        let (sep, right) = self.split_leaf(p, leaf, n)?;
        if key >= sep {
            let (idx, n) = {
                let page = p.read(right)?;
                let b = page.bytes();
                match self.leaf_search(b, key) {
                    Ok(_) => return Err(BTreeError::DuplicateKey(key)),
                    Err(i) => (i, read_u16(b, OFF_NKEYS) as usize),
                }
            };
            self.leaf_insert_at(p, right, idx, key, row, n)?;
        } else {
            let (idx, n) = {
                let page = p.read(leaf)?;
                let b = page.bytes();
                match self.leaf_search(b, key) {
                    Ok(_) => return Err(BTreeError::DuplicateKey(key)),
                    Err(i) => (i, read_u16(b, OFF_NKEYS) as usize),
                }
            };
            self.leaf_insert_at(p, leaf, idx, key, row, n)?;
        }
        self.insert_separator(p, path, leaf, sep, right)?;
        Ok(())
    }

    fn leaf_insert_at<P: PageProvider>(
        &self,
        p: &mut P,
        leaf: PageId,
        idx: usize,
        key: u64,
        row: &[u8],
        n: usize,
    ) -> Result<(), BTreeError> {
        let entry = 8 + self.meta.row_size;
        let off = self.leaf_entry_off(idx);
        // shift tail right by one entry
        let tail_len = (n - idx) * entry;
        let mut buf = Vec::with_capacity(entry + tail_len);
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(row);
        {
            let page = p.read(leaf)?;
            buf.extend_from_slice(&page.bytes()[off..off + tail_len]);
        }
        p.write(leaf, &mut |e| {
            e.set(off, &buf);
            e.set_u16(OFF_NKEYS, (n + 1) as u16);
        })?;
        Ok(())
    }

    /// Split a full leaf; returns (separator key, right sibling id).
    fn split_leaf<P: PageProvider>(
        &self,
        p: &mut P,
        leaf: PageId,
        n: usize,
    ) -> Result<(u64, PageId), BTreeError> {
        let entry = 8 + self.meta.row_size;
        let mid = n / 2;
        let (upper, sep, old_next) = {
            let page = p.read(leaf)?;
            let b = page.bytes();
            let from = self.leaf_entry_off(mid);
            let to = self.leaf_entry_off(n);
            (
                b[from..to].to_vec(),
                read_u64(b, self.leaf_entry_off(mid)),
                read_u64(b, OFF_NEXT),
            )
        };
        let right = p.allocate()?;
        let upper_n = n - mid;
        p.write(right, &mut |e| {
            e.set_u8(OFF_KIND, KIND_LEAF);
            e.set_u16(OFF_NKEYS, upper_n as u16);
            e.set_u64(OFF_NEXT, old_next);
            e.set(HDR, &upper);
        })?;
        // shrink the left leaf and relink
        let zeros = vec![0u8; upper_n * entry];
        let from = self.leaf_entry_off(mid);
        p.write(leaf, &mut |e| {
            e.set_u16(OFF_NKEYS, mid as u16);
            e.set_u64(OFF_NEXT, right.0 + 1);
            // zero the moved region so pages stay canonical (helps tests
            // compare materialized pages across replicas)
            e.set(from, &zeros);
        })?;
        Ok((sep, right))
    }

    /// Insert `sep -> right` into the parent chain (splitting internals as
    /// needed); grows a new root if the path is exhausted.
    fn insert_separator<P: PageProvider>(
        &self,
        p: &mut P,
        mut path: Vec<PageId>,
        left_child: PageId,
        mut sep: u64,
        mut right_child: PageId,
    ) -> Result<(), BTreeError> {
        let mut _left = left_child;
        loop {
            let Some(parent) = path.pop() else {
                // grow a new root
                let new_root = p.allocate()?;
                let old_root = self.root(p)?;
                p.write(new_root, &mut |e| {
                    e.set_u8(OFF_KIND, KIND_INTERNAL);
                    e.set_u16(OFF_NKEYS, 1);
                    e.set_u64(OFF_NEXT, old_root.0);
                    e.set_u64(HDR, sep);
                    e.set_u64(HDR + 8, right_child.0);
                })?;
                let meta_page = self.meta.meta_page;
                p.write(meta_page, &mut |e| {
                    e.set_u64(OFF_META_ROOT, new_root.0);
                })?;
                return Ok(());
            };
            let n = {
                let page = p.read(parent)?;
                read_u16(page.bytes(), OFF_NKEYS) as usize
            };
            if n < self.meta.internal_cap {
                self.internal_insert(p, parent, sep, right_child, n)?;
                return Ok(());
            }
            // split the internal node
            let (new_sep, new_right) = self.split_internal(p, parent, n)?;
            if sep >= new_sep {
                let n = {
                    let page = p.read(new_right)?;
                    read_u16(page.bytes(), OFF_NKEYS) as usize
                };
                self.internal_insert(p, new_right, sep, right_child, n)?;
            } else {
                let n = {
                    let page = p.read(parent)?;
                    read_u16(page.bytes(), OFF_NKEYS) as usize
                };
                self.internal_insert(p, parent, sep, right_child, n)?;
            }
            _left = parent;
            sep = new_sep;
            right_child = new_right;
        }
    }

    fn internal_insert<P: PageProvider>(
        &self,
        p: &mut P,
        node: PageId,
        sep: u64,
        child: PageId,
        n: usize,
    ) -> Result<(), BTreeError> {
        // find position
        let idx = {
            let page = p.read(node)?;
            let b = page.bytes();
            let mut i = 0;
            while i < n && read_u64(b, self.internal_entry_off(i)) < sep {
                i += 1;
            }
            i
        };
        let off = self.internal_entry_off(idx);
        let tail_len = (n - idx) * 16;
        let mut buf = Vec::with_capacity(16 + tail_len);
        buf.extend_from_slice(&sep.to_le_bytes());
        buf.extend_from_slice(&child.0.to_le_bytes());
        {
            let page = p.read(node)?;
            buf.extend_from_slice(&page.bytes()[off..off + tail_len]);
        }
        p.write(node, &mut |e| {
            e.set(off, &buf);
            e.set_u16(OFF_NKEYS, (n + 1) as u16);
        })?;
        Ok(())
    }

    fn split_internal<P: PageProvider>(
        &self,
        p: &mut P,
        node: PageId,
        n: usize,
    ) -> Result<(u64, PageId), BTreeError> {
        let mid = n / 2;
        // entry `mid` is promoted; entries mid+1.. move right
        let (promoted, promoted_child, upper) = {
            let page = p.read(node)?;
            let b = page.bytes();
            let off = self.internal_entry_off(mid);
            (
                read_u64(b, off),
                read_u64(b, off + 8),
                b[self.internal_entry_off(mid + 1)..self.internal_entry_off(n)].to_vec(),
            )
        };
        let right = p.allocate()?;
        let upper_n = n - mid - 1;
        p.write(right, &mut |e| {
            e.set_u8(OFF_KIND, KIND_INTERNAL);
            e.set_u16(OFF_NKEYS, upper_n as u16);
            e.set_u64(OFF_NEXT, promoted_child); // leftmost of right node
            e.set(HDR, &upper);
        })?;
        let zeros = vec![0u8; (n - mid) * 16];
        let from = self.internal_entry_off(mid);
        p.write(node, &mut |e| {
            e.set_u16(OFF_NKEYS, mid as u16);
            e.set(from, &zeros);
        })?;
        Ok((promoted, right))
    }

    /// Would inserting `key` require a leaf split right now?
    pub fn needs_split<P: PageProvider>(&self, p: &mut P, key: u64) -> Result<bool, BTreeError> {
        let (_, leaf) = self.descend(p, key)?;
        let page = p.read(leaf)?;
        Ok(read_u16(page.bytes(), OFF_NKEYS) as usize >= self.meta.leaf_cap)
    }

    /// Split the leaf that would host `key` (propagating splits up the
    /// tree and growing the root as needed) **without inserting anything**.
    /// This is the engine's structural mini-transaction: it carries the
    /// SYSTEM transaction id so user-level undo never reverts tree shape
    /// (InnoDB's "pessimistic" insert works the same way).
    pub fn prepare_split<P: PageProvider>(&self, p: &mut P, key: u64) -> Result<(), BTreeError> {
        let (path, leaf) = self.descend(p, key)?;
        let n = {
            let page = p.read(leaf)?;
            read_u16(page.bytes(), OFF_NKEYS) as usize
        };
        if n < self.meta.leaf_cap {
            return Ok(());
        }
        let (sep, right) = self.split_leaf(p, leaf, n)?;
        self.insert_separator(p, path, leaf, sep, right)?;
        Ok(())
    }

    /// Insert into a leaf known to have room (after [`BTree::needs_split`]
    /// / [`BTree::prepare_split`]). Only row bytes are touched, so the
    /// resulting MTR is safe to attribute to the user transaction.
    pub fn insert_no_split<P: PageProvider>(
        &self,
        p: &mut P,
        key: u64,
        row: &[u8],
    ) -> Result<(), BTreeError> {
        assert_eq!(row.len(), self.meta.row_size);
        let (_, leaf) = self.descend(p, key)?;
        let (idx, n) = {
            let page = p.read(leaf)?;
            let b = page.bytes();
            match self.leaf_search(b, key) {
                Ok(_) => return Err(BTreeError::DuplicateKey(key)),
                Err(i) => (i, read_u16(b, OFF_NKEYS) as usize),
            }
        };
        if n >= self.meta.leaf_cap {
            return Err(BTreeError::LeafFull);
        }
        self.leaf_insert_at(p, leaf, idx, key, row, n)
    }

    /// Overwrite an existing row.
    pub fn update<P: PageProvider>(
        &self,
        p: &mut P,
        key: u64,
        row: &[u8],
    ) -> Result<(), BTreeError> {
        assert_eq!(row.len(), self.meta.row_size);
        let (_, leaf) = self.descend(p, key)?;
        let idx = {
            let page = p.read(leaf)?;
            match self.leaf_search(page.bytes(), key) {
                Ok(i) => i,
                Err(_) => return Err(BTreeError::KeyNotFound(key)),
            }
        };
        let off = self.leaf_entry_off(idx) + 8;
        p.write(leaf, &mut |e| {
            e.set(off, row);
        })?;
        Ok(())
    }

    /// Remove a key (no rebalancing).
    pub fn delete<P: PageProvider>(&self, p: &mut P, key: u64) -> Result<(), BTreeError> {
        let (_, leaf) = self.descend(p, key)?;
        let entry = 8 + self.meta.row_size;
        let (idx, n) = {
            let page = p.read(leaf)?;
            let b = page.bytes();
            match self.leaf_search(b, key) {
                Ok(i) => (i, read_u16(b, OFF_NKEYS) as usize),
                Err(_) => return Err(BTreeError::KeyNotFound(key)),
            }
        };
        let off = self.leaf_entry_off(idx);
        let tail_from = self.leaf_entry_off(idx + 1);
        let tail_len = (n - idx - 1) * entry;
        let mut buf = {
            let page = p.read(leaf)?;
            page.bytes()[tail_from..tail_from + tail_len].to_vec()
        };
        buf.extend_from_slice(&vec![0u8; entry]);
        p.write(leaf, &mut |e| {
            e.set(off, &buf);
            e.set_u16(OFF_NKEYS, (n - 1) as u16);
        })?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// In-memory provider for unit tests
// ---------------------------------------------------------------------

/// A trivially resident provider used by unit tests and the model checker.
#[derive(Default)]
pub struct MemProvider {
    pub pages: std::collections::HashMap<PageId, Page>,
    pub next: u64,
    /// All patches ever captured, for redo-replay tests.
    pub journal: Vec<(PageId, Vec<PagePatch>)>,
}

impl MemProvider {
    pub fn new() -> Self {
        MemProvider {
            pages: Default::default(),
            next: 0,
            journal: Vec::new(),
        }
    }
}

impl PageProvider for MemProvider {
    fn read(&mut self, id: PageId) -> Result<&Page, PageMiss> {
        Ok(self.pages.entry(id).or_default())
    }

    fn write(
        &mut self,
        id: PageId,
        f: &mut dyn FnMut(&mut PageEditor<'_>),
    ) -> Result<(), PageMiss> {
        let page = self.pages.entry(id).or_default();
        let mut patches = Vec::new();
        let mut editor = PageEditor::new(page, &mut patches);
        f(&mut editor);
        self.journal.push((id, patches));
        Ok(())
    }

    fn allocate(&mut self) -> Result<PageId, PageMiss> {
        // page 0 is the meta page; allocation starts at 1
        self.next += 1;
        let id = PageId(self.next);
        self.pages.insert(id, Page::new());
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    const ROW: usize = 32;

    fn tree() -> (BTree, MemProvider) {
        let meta = TreeMeta::for_row_size(ROW, PageId(0));
        let t = BTree::new(meta);
        let mut p = MemProvider::new();
        t.create(&mut p).unwrap();
        (t, p)
    }

    fn row(tag: u64) -> Vec<u8> {
        let mut r = vec![0u8; ROW];
        r[..8].copy_from_slice(&tag.to_le_bytes());
        r
    }

    #[test]
    fn create_then_empty_get() {
        let (t, mut p) = tree();
        assert_eq!(t.get(&mut p, 42).unwrap(), None);
    }

    #[test]
    fn insert_get_roundtrip() {
        let (t, mut p) = tree();
        t.insert(&mut p, 5, &row(50)).unwrap();
        t.insert(&mut p, 1, &row(10)).unwrap();
        t.insert(&mut p, 9, &row(90)).unwrap();
        assert_eq!(t.get(&mut p, 5).unwrap(), Some(row(50)));
        assert_eq!(t.get(&mut p, 1).unwrap(), Some(row(10)));
        assert_eq!(t.get(&mut p, 9).unwrap(), Some(row(90)));
        assert_eq!(t.get(&mut p, 7).unwrap(), None);
    }

    #[test]
    fn corrupt_kind_byte_is_an_error_not_a_panic() {
        // Regression: descent through a page whose kind byte is garbage
        // used to panic ("descend into page ... (corrupt tree)"), taking
        // the whole process down on a single bad page.
        let (t, mut p) = tree();
        t.insert(&mut p, 5, &row(50)).unwrap();
        let root = {
            let meta = p.read(PageId(0)).unwrap();
            PageId(read_u64(meta.bytes(), OFF_META_ROOT))
        };
        p.write(root, &mut |e| e.set_u8(OFF_KIND, 7)).unwrap();
        assert_eq!(
            t.get(&mut p, 5),
            Err(BTreeError::Corrupt {
                page: root,
                kind: 7
            })
        );
        assert_eq!(
            t.scan(&mut p, 0, 10),
            Err(BTreeError::Corrupt {
                page: root,
                kind: 7
            })
        );
        assert_eq!(
            t.insert(&mut p, 6, &row(60)),
            Err(BTreeError::Corrupt {
                page: root,
                kind: 7
            })
        );
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (t, mut p) = tree();
        t.insert(&mut p, 5, &row(1)).unwrap();
        assert_eq!(
            t.insert(&mut p, 5, &row(2)),
            Err(BTreeError::DuplicateKey(5))
        );
        assert_eq!(t.get(&mut p, 5).unwrap(), Some(row(1)));
    }

    #[test]
    fn update_and_delete() {
        let (t, mut p) = tree();
        t.insert(&mut p, 5, &row(1)).unwrap();
        t.update(&mut p, 5, &row(2)).unwrap();
        assert_eq!(t.get(&mut p, 5).unwrap(), Some(row(2)));
        t.delete(&mut p, 5).unwrap();
        assert_eq!(t.get(&mut p, 5).unwrap(), None);
        assert_eq!(
            t.update(&mut p, 5, &row(3)),
            Err(BTreeError::KeyNotFound(5))
        );
        assert_eq!(t.delete(&mut p, 5), Err(BTreeError::KeyNotFound(5)));
    }

    #[test]
    fn many_inserts_force_splits_and_stay_sorted() {
        let (t, mut p) = tree();
        // enough to split leaves (cap = (4096-11)/40 = 102) and internals
        let n = 10_000u64;
        // insert in a scrambled deterministic order
        let mut keys: Vec<u64> = (0..n).collect();
        let mut state = 0x12345678u64;
        for i in (1..keys.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            keys.swap(i, j);
        }
        for &k in &keys {
            t.insert(&mut p, k, &row(k)).unwrap();
        }
        for k in 0..n {
            assert_eq!(t.get(&mut p, k).unwrap(), Some(row(k)), "key {k}");
        }
        // scan everything in order
        let all = t.scan(&mut p, 0, n as usize + 10).unwrap();
        assert_eq!(all.len(), n as usize);
        for (i, (k, v)) in all.iter().enumerate() {
            assert_eq!(*k, i as u64);
            assert_eq!(v, &row(i as u64));
        }
    }

    #[test]
    fn scan_ranges() {
        let (t, mut p) = tree();
        for k in (0..100).map(|i| i * 2) {
            t.insert(&mut p, k, &row(k)).unwrap();
        }
        let got = t.scan(&mut p, 51, 5).unwrap();
        assert_eq!(
            got.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![52, 54, 56, 58, 60]
        );
        // scan past the end
        let got = t.scan(&mut p, 195, 10).unwrap();
        assert_eq!(
            got.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![196, 198]
        );
    }

    #[test]
    fn matches_model_under_mixed_ops() {
        let (t, mut p) = tree();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut state = 99u64;
        for step in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) % 500;
            match step % 4 {
                0 => {
                    let r = row(step);
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(key) {
                        t.insert(&mut p, key, &r).unwrap();
                        e.insert(r);
                    } else {
                        assert!(t.insert(&mut p, key, &r).is_err());
                    }
                }
                1 => {
                    let r = row(step + 1);
                    if let std::collections::btree_map::Entry::Occupied(mut e) = model.entry(key) {
                        t.update(&mut p, key, &r).unwrap();
                        e.insert(r);
                    } else {
                        assert!(t.update(&mut p, key, &r).is_err());
                    }
                }
                2 => {
                    if model.remove(&key).is_some() {
                        t.delete(&mut p, key).unwrap();
                    } else {
                        assert!(t.delete(&mut p, key).is_err());
                    }
                }
                _ => {
                    assert_eq!(t.get(&mut p, key).unwrap(), model.get(&key).cloned());
                }
            }
        }
        // final full comparison via scan
        let all = t.scan(&mut p, 0, 10_000).unwrap();
        let expect: Vec<(u64, Vec<u8>)> = model.into_iter().collect();
        assert_eq!(all, expect);
    }

    /// The load-bearing property for Aurora: replaying the captured patch
    /// journal against blank pages reproduces the exact final page images.
    /// This is what lets storage nodes materialize pages from redo alone.
    #[test]
    fn journal_replay_reproduces_pages() {
        let (t, mut p) = tree();
        for k in 0..2_000u64 {
            t.insert(&mut p, k * 7 % 2_000, &row(k)).unwrap();
        }
        t.delete(&mut p, 7).unwrap();
        t.update(&mut p, 14, &row(999)).unwrap();

        // replay: fresh pages + patches in order
        let mut replay: std::collections::HashMap<PageId, Page> = Default::default();
        for (pid, patches) in &p.journal {
            let page = replay.entry(*pid).or_default();
            for (off, _before, after) in patches {
                page.write_range(*off as usize, after);
            }
        }
        for (pid, page) in &p.pages {
            let replayed = replay.entry(*pid).or_default();
            assert_eq!(
                replayed.bytes(),
                page.bytes(),
                "page {pid:?} mismatch after replay"
            );
        }
    }

    /// Undo property: applying before-images in reverse order restores the
    /// pre-transaction page images (powers rollback and crash undo).
    #[test]
    fn journal_unwind_restores_pages() {
        let (t, mut p) = tree();
        for k in 0..500u64 {
            t.insert(&mut p, k, &row(k)).unwrap();
        }
        let snapshot: Vec<(PageId, Vec<u8>)> = p
            .pages
            .iter()
            .map(|(id, pg)| (*id, pg.bytes().to_vec()))
            .collect();
        let journal_floor = p.journal.len();

        // a "transaction": updates and an insert that splits nothing
        t.update(&mut p, 10, &row(1_000)).unwrap();
        t.update(&mut p, 20, &row(2_000)).unwrap();
        t.delete(&mut p, 30).unwrap();

        // unwind
        let tail: Vec<_> = p.journal.drain(journal_floor..).collect();
        for (pid, patches) in tail.iter().rev() {
            let page = p.pages.get_mut(pid).unwrap();
            for (off, before, _after) in patches.iter().rev() {
                page.write_range(*off as usize, before);
            }
        }
        for (pid, bytes) in snapshot {
            assert_eq!(p.pages[&pid].bytes(), &bytes[..], "page {pid:?}");
        }
    }

    #[test]
    fn editor_skips_identical_writes() {
        let mut page = Page::new();
        let mut patches = Vec::new();
        {
            let mut e = PageEditor::new(&mut page, &mut patches);
            e.set(0, &[0, 0, 0]); // identical to current zeroes
        }
        assert!(patches.is_empty());
        {
            let mut e = PageEditor::new(&mut page, &mut patches);
            e.set(0, &[1, 2, 3]);
        }
        assert_eq!(patches.len(), 1);
        assert_eq!(patches[0], (0, vec![0, 0, 0], vec![1, 2, 3]));
    }
}
