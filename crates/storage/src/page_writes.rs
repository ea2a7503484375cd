//! A storage node's background page writes.
//!
//! §3.3: background work must yield to foreground work. A coalesce pass
//! dirties every page its records touch, and the node's one disk queue
//! serves both those page writes and the log writes a commit waits on. A
//! pass written as one large IO would hold every log write that lands
//! behind it for the whole transfer, on every node whose pass fires at
//! that moment. [`PageWrites`] instead keeps a byte backlog and hands the
//! node one [`CHUNK_BYTES`] write at a time, the next only once the last
//! has completed, so a log write waits behind at most one chunk.
//!
//! Volatile like the node's other in-flight ops: a crash empties it. The
//! pages themselves are durable segment state either way; the backlog only
//! models the IO that writes them.

use aurora_log::PAGE_SIZE;

/// Bytes per background page write: 16 pages.
pub(crate) const CHUNK_BYTES: usize = 16 * PAGE_SIZE;

/// The unissued page-write bytes and whether a chunk is on the disk.
#[derive(Debug, Default)]
pub(crate) struct PageWrites {
    backlog: usize,
    in_flight: bool,
}

impl PageWrites {
    /// Queue a coalesce pass's dirty pages.
    pub(crate) fn add(&mut self, bytes: usize) {
        self.backlog += bytes;
    }

    /// The next chunk to write, or `None` while one is in flight or the
    /// backlog is empty.
    pub(crate) fn next_chunk(&mut self) -> Option<usize> {
        if self.in_flight || self.backlog == 0 {
            return None;
        }
        let chunk = self.backlog.min(CHUNK_BYTES);
        self.backlog -= chunk;
        self.in_flight = true;
        Some(chunk)
    }

    /// The chunk in flight has completed.
    pub(crate) fn done(&mut self) {
        self.in_flight = false;
    }

    /// Bytes not yet handed out.
    pub(crate) fn backlog(&self) -> usize {
        self.backlog
    }

    /// A crash loses the backlog and the chunk in flight.
    pub(crate) fn crash(&mut self) {
        *self = PageWrites::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Issue and complete chunks until the backlog is empty.
    fn drain(w: &mut PageWrites) -> Vec<usize> {
        let mut chunks = Vec::new();
        while let Some(c) = w.next_chunk() {
            chunks.push(c);
            w.done();
        }
        chunks
    }

    #[test]
    fn no_chunk_exceeds_sixty_four_kib() {
        assert_eq!(CHUNK_BYTES, 64 * 1024);
        let mut w = PageWrites::default();
        w.add(1_680 * PAGE_SIZE + 100);
        let chunks = drain(&mut w);
        assert!(chunks.iter().all(|&c| c > 0 && c <= CHUNK_BYTES));
        assert_eq!(chunks.len(), 106);
    }

    #[test]
    fn at_most_one_chunk_is_in_flight() {
        let mut w = PageWrites::default();
        w.add(3 * CHUNK_BYTES);
        assert_eq!(w.next_chunk(), Some(CHUNK_BYTES));
        assert_eq!(w.next_chunk(), None, "the first chunk is still in flight");
        w.add(CHUNK_BYTES);
        assert_eq!(w.next_chunk(), None, "a new pass waits its turn too");
        w.done();
        assert_eq!(w.next_chunk(), Some(CHUNK_BYTES));
        assert_eq!(w.backlog(), 2 * CHUNK_BYTES);
    }

    #[test]
    fn a_pass_drains_in_full() {
        let mut w = PageWrites::default();
        let bytes = 37 * PAGE_SIZE;
        w.add(bytes);
        let chunks = drain(&mut w);
        assert_eq!(chunks, [CHUNK_BYTES, CHUNK_BYTES, 5 * PAGE_SIZE]);
        assert_eq!(chunks.iter().sum::<usize>(), bytes);
        assert_eq!(w.backlog(), 0);
    }

    #[test]
    fn zero_dirty_pages_issue_nothing() {
        let mut w = PageWrites::default();
        w.add(0);
        assert_eq!(w.next_chunk(), None);
        assert_eq!(w.backlog(), 0);
    }

    #[test]
    fn a_crash_empties_it() {
        let mut w = PageWrites::default();
        w.add(5 * CHUNK_BYTES);
        assert!(w.next_chunk().is_some());
        w.crash();
        assert_eq!(w.backlog(), 0);
        assert_eq!(w.next_chunk(), None, "nothing left to write");
        w.add(PAGE_SIZE);
        assert_eq!(
            w.next_chunk(),
            Some(PAGE_SIZE),
            "the lost chunk's completion is not awaited"
        );
    }
}
