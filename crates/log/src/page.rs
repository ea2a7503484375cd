//! Database pages.
//!
//! A page is a fixed-size block of bytes plus its "page LSN" — the LSN of
//! the last log record applied to it. §4.2.3: "a page in the buffer cache
//! must always be of the latest version", enforced via the page LSN, and a
//! page returned by a storage node is "a version of the page as of the
//! current VDL".
//!
//! `PAGE_SIZE` is 4 KiB here (InnoDB uses 16 KiB); it is a pure scale
//! constant — nothing in the protocol depends on it.
//!
//! A page's bytes are copy-on-write: cloning a [`Page`] shares them, and
//! the first write through either clone copies them. One image can so
//! travel from a segment's coalesced base through a read response into
//! the writer's buffer pool without a copy.

use std::sync::Arc;

use bytes::Bytes;

use crate::lsn::Lsn;

/// Size of every database page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Page identifier: dense page numbers within the (single) volume.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct PageId(pub u64);

/// A materialized page: data plus the LSN of the last applied record.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    /// Shared between clones until one of them writes. A fixed-size
    /// array keeps the pointer thin, so a `Page` is 16 bytes.
    data: Arc<[u8; PAGE_SIZE]>,
    /// LSN of the newest log record reflected in `data`; `Lsn::ZERO` for a
    /// freshly formatted page.
    pub lsn: Lsn,
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl Page {
    /// A zero-filled page at LSN 0.
    pub fn new() -> Page {
        Page {
            data: Arc::new([0; PAGE_SIZE]),
            lsn: Lsn::ZERO,
        }
    }

    /// Build from raw bytes (must be exactly `PAGE_SIZE` long).
    pub fn from_bytes(data: Vec<u8>, lsn: Lsn) -> Page {
        assert_eq!(data.len(), PAGE_SIZE, "page must be {PAGE_SIZE} bytes");
        let mut page = Page { lsn, ..Page::new() };
        page.bytes_mut().copy_from_slice(&data);
        page
    }

    /// Read-only view of the page contents.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data[..]
    }

    /// Mutable view, copying the bytes first if a clone shares them.
    /// Callers that mutate through this are responsible for producing the
    /// corresponding redo patches (see [`crate::record::Patch::capture`])
    /// and bumping [`Page::lsn`].
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut Arc::make_mut(&mut self.data)[..]
    }

    /// Copy a byte range out (for before-images).
    pub fn read_range(&self, offset: usize, len: usize) -> Bytes {
        Bytes::copy_from_slice(&self.data[offset..offset + len])
    }

    /// Overwrite a byte range (copy-on-write, as [`Page::bytes_mut`]).
    pub fn write_range(&mut self, offset: usize, bytes: &[u8]) {
        self.bytes_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// A CRC32 of the page contents, used by the storage scrubber
    /// (Fig. 4 step 8 "periodically validate CRC codes on pages").
    pub fn crc(&self) -> u32 {
        crate::codec::crc32(&self.data[..])
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let nonzero = self.data.iter().filter(|&&b| b != 0).count();
        write!(f, "Page{{lsn:{}, {} nonzero bytes}}", self.lsn, nonzero)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_page_is_zeroed() {
        let p = Page::new();
        assert_eq!(p.lsn, Lsn::ZERO);
        assert!(p.bytes().iter().all(|&b| b == 0));
        assert_eq!(p.bytes().len(), PAGE_SIZE);
    }

    #[test]
    fn write_and_read_ranges() {
        let mut p = Page::new();
        p.write_range(100, b"hello");
        assert_eq!(&p.bytes()[100..105], b"hello");
        assert_eq!(p.read_range(100, 5).as_ref(), b"hello");
    }

    #[test]
    fn crc_changes_with_content() {
        let mut p = Page::new();
        let c0 = p.crc();
        p.write_range(0, &[1]);
        assert_ne!(p.crc(), c0);
    }

    #[test]
    fn a_clone_shares_bytes_until_either_side_writes() {
        let mut a = Page::new();
        a.write_range(0, b"base");
        let mut b = a.clone();
        assert_eq!(a.bytes().as_ptr(), b.bytes().as_ptr());
        b.write_range(0, b"next");
        assert_ne!(a.bytes().as_ptr(), b.bytes().as_ptr());
        assert_eq!(&a.bytes()[..4], b"base");
        assert_eq!(&b.bytes()[..4], b"next");
        // the other direction: the original writes, the clone keeps its bytes
        let c = a.clone();
        assert_eq!(a.bytes().as_ptr(), c.bytes().as_ptr());
        a.bytes_mut()[0] = b'B';
        assert_eq!(&a.bytes()[..4], b"Base");
        assert_eq!(&c.bytes()[..4], b"base");
        // a sole owner writes in place
        let before = b.bytes().as_ptr();
        b.write_range(4, b"!");
        assert_eq!(b.bytes().as_ptr(), before);
    }

    #[test]
    fn a_page_is_a_thin_pointer_and_an_lsn() {
        assert_eq!(std::mem::size_of::<Page>(), 16);
    }

    #[test]
    #[should_panic(expected = "page must be")]
    fn from_bytes_enforces_size() {
        let _ = Page::from_bytes(vec![0u8; 100], Lsn::ZERO);
    }

    #[test]
    fn debug_is_compact() {
        let mut p = Page::new();
        p.write_range(0, &[1, 2, 3]);
        p.lsn = Lsn(9);
        assert_eq!(format!("{p:?}"), "Page{lsn:9, 3 nonzero bytes}");
    }
}
