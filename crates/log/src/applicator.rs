//! The log applicator.
//!
//! §4.3: "A great simplifying principle of a traditional database is that
//! the same redo log applicator is used in the forward processing path as
//! well as on recovery … We rely on the same principle in Aurora as well,
//! except that the redo log applicator is decoupled from the database and
//! operates on storage nodes, in parallel, and all the time in the
//! background."
//!
//! This module is that single shared applicator: the engine uses it to
//! mutate buffer-cache pages, replicas use it to apply the streamed log to
//! cached pages, and storage nodes use it to materialize pages from redo.
//! [`unapply_record`] is the inverse used by transaction rollback.

use std::fmt;

use crate::lsn::Lsn;
use crate::page::Page;
use crate::record::{LogRecord, RecordBody};

/// Errors from applying a record to a page image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// The page image is newer than (or equal to) the record — applying
    /// would double-apply. Callers usually treat this as "skip".
    AlreadyApplied { page_lsn: Lsn, record_lsn: Lsn },
    /// Applying out of order: the record expects an older image than the
    /// page has (a gap in the chain was skipped).
    StaleImage { page_lsn: Lsn, expected_before: Lsn },
    /// A patch falls outside the page.
    OutOfBounds { offset: u32, len: usize },
    /// A before-image mismatch detected during unapply (corruption guard).
    BeforeImageMismatch { offset: u32 },
    /// Record does not carry a page payload (txn control records).
    NotAPageRecord,
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::AlreadyApplied {
                page_lsn,
                record_lsn,
            } => write!(
                f,
                "record {record_lsn} already applied (page at {page_lsn})"
            ),
            ApplyError::StaleImage {
                page_lsn,
                expected_before,
            } => write!(
                f,
                "page at {page_lsn} but record expects an image before {expected_before}"
            ),
            ApplyError::OutOfBounds { offset, len } => {
                write!(f, "patch [{offset}..+{len}] outside page")
            }
            ApplyError::BeforeImageMismatch { offset } => {
                write!(f, "before-image mismatch at offset {offset}")
            }
            ApplyError::NotAPageRecord => write!(f, "record has no page payload"),
        }
    }
}

impl std::error::Error for ApplyError {}

/// Apply one redo record to a page image, producing its after-image and
/// advancing the page LSN. Idempotence: records at or below the page LSN
/// are rejected with [`ApplyError::AlreadyApplied`] so callers can skip.
pub fn apply_record(page: &mut Page, record: &LogRecord) -> Result<(), ApplyError> {
    if record.lsn <= page.lsn {
        return Err(ApplyError::AlreadyApplied {
            page_lsn: page.lsn,
            record_lsn: record.lsn,
        });
    }
    match &record.body {
        RecordBody::PageWrite { patches, .. } => {
            for p in patches {
                let off = p.offset as usize;
                let len = p.after.len();
                if off + len > page.bytes().len() {
                    return Err(ApplyError::OutOfBounds {
                        offset: p.offset,
                        len,
                    });
                }
            }
            // one copy-on-write check per record, not per patch
            let bytes = page.bytes_mut();
            for p in patches {
                let off = p.offset as usize;
                bytes[off..off + p.after.len()].copy_from_slice(&p.after);
            }
            page.lsn = record.lsn;
            Ok(())
        }
        RecordBody::PageFormat { init, .. } => {
            if init.len() > page.bytes().len() {
                return Err(ApplyError::OutOfBounds {
                    offset: 0,
                    len: init.len(),
                });
            }
            let bytes = page.bytes_mut();
            bytes.fill(0);
            bytes[..init.len()].copy_from_slice(init);
            page.lsn = record.lsn;
            Ok(())
        }
        _ => Err(ApplyError::NotAPageRecord),
    }
}

/// Undo one record: restore the before-images. Used by transaction
/// rollback (normal-operation aborts and post-crash undo recovery, §4.3).
///
/// The page LSN is *not* rewound — undo generates new history in the real
/// system (compensating records); the caller logs the compensating
/// `PageWrite` built from the returned patches. As a corruption guard this
/// verifies the current content matches the record's after-image.
pub fn unapply_record(page: &mut Page, record: &LogRecord) -> Result<(), ApplyError> {
    match &record.body {
        RecordBody::PageWrite { patches, .. } => {
            // Verify in reverse order, then restore.
            for p in patches.iter().rev() {
                let off = p.offset as usize;
                let len = p.after.len();
                if off + len > page.bytes().len() {
                    return Err(ApplyError::OutOfBounds {
                        offset: p.offset,
                        len,
                    });
                }
                if &page.bytes()[off..off + len] != p.after.as_ref() {
                    return Err(ApplyError::BeforeImageMismatch { offset: p.offset });
                }
                page.write_range(off, &p.before);
            }
            Ok(())
        }
        _ => Err(ApplyError::NotAPageRecord),
    }
}

/// Apply every applicable record from an ordered slice, skipping ones the
/// page already reflects; stops at the first genuine error. Returns how
/// many records were applied. This is the storage node "coalesce" kernel
/// (Fig. 4 step 5) and the recovery replay kernel.
pub fn apply_chain<'a, I>(page: &mut Page, records: I) -> Result<usize, ApplyError>
where
    I: IntoIterator<Item = &'a LogRecord>,
{
    let mut applied = 0;
    for r in records {
        match apply_record(page, r) {
            Ok(()) => applied += 1,
            Err(ApplyError::AlreadyApplied { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsn::{PgId, TxnId};
    use crate::page::PageId;
    use crate::record::Patch;
    use bytes::Bytes;

    fn write_rec(lsn: u64, offset: u32, before: &[u8], after: &[u8]) -> LogRecord {
        LogRecord {
            lsn: Lsn(lsn),
            prev_in_pg: Lsn(lsn - 1),
            pg: PgId(0),
            txn: TxnId(1),
            is_cpl: true,
            body: RecordBody::PageWrite {
                page: PageId(0),
                patches: vec![Patch {
                    offset,
                    before: Bytes::copy_from_slice(before),
                    after: Bytes::copy_from_slice(after),
                }],
            },
        }
    }

    #[test]
    fn apply_then_unapply_restores() {
        let mut page = Page::new();
        page.write_range(10, b"aaaa");
        let snapshot = page.clone();
        let r = write_rec(1, 10, b"aaaa", b"bbbb");
        apply_record(&mut page, &r).unwrap();
        assert_eq!(&page.bytes()[10..14], b"bbbb");
        assert_eq!(page.lsn, Lsn(1));
        unapply_record(&mut page, &r).unwrap();
        assert_eq!(&page.bytes()[10..14], b"aaaa");
        assert_eq!(page.bytes(), snapshot.bytes());
    }

    #[test]
    fn apply_is_idempotent_via_lsn_check() {
        let mut page = Page::new();
        let r = write_rec(5, 0, &[0], &[9]);
        apply_record(&mut page, &r).unwrap();
        let err = apply_record(&mut page, &r).unwrap_err();
        assert!(matches!(err, ApplyError::AlreadyApplied { .. }));
        assert_eq!(page.bytes()[0], 9);
    }

    #[test]
    fn out_of_bounds_rejected_without_partial_apply() {
        let mut page = Page::new();
        let r = LogRecord {
            lsn: Lsn(1),
            prev_in_pg: Lsn::ZERO,
            pg: PgId(0),
            txn: TxnId(1),
            is_cpl: true,
            body: RecordBody::PageWrite {
                page: PageId(0),
                patches: vec![
                    Patch {
                        offset: 0,
                        before: Bytes::from_static(&[0]),
                        after: Bytes::from_static(&[1]),
                    },
                    Patch {
                        offset: u32::MAX,
                        before: Bytes::from_static(&[0]),
                        after: Bytes::from_static(&[1]),
                    },
                ],
            },
        };
        let err = apply_record(&mut page, &r).unwrap_err();
        assert!(matches!(err, ApplyError::OutOfBounds { .. }));
        // first patch must NOT have been applied (validation precedes writes)
        assert_eq!(page.bytes()[0], 0);
        assert_eq!(page.lsn, Lsn::ZERO);
    }

    #[test]
    fn format_resets_page() {
        let mut page = Page::new();
        page.write_range(100, b"junk");
        let r = LogRecord {
            lsn: Lsn(2),
            prev_in_pg: Lsn::ZERO,
            pg: PgId(0),
            txn: TxnId::SYSTEM,
            is_cpl: true,
            body: RecordBody::PageFormat {
                page: PageId(0),
                init: Bytes::from_static(b"HDR"),
            },
        };
        apply_record(&mut page, &r).unwrap();
        assert_eq!(&page.bytes()[0..3], b"HDR");
        assert!(page.bytes()[3..].iter().all(|&b| b == 0));
    }

    #[test]
    fn txn_control_records_do_not_apply() {
        let mut page = Page::new();
        let r = LogRecord {
            lsn: Lsn(1),
            prev_in_pg: Lsn::ZERO,
            pg: PgId(0),
            txn: TxnId(1),
            is_cpl: true,
            body: RecordBody::TxnCommit,
        };
        assert_eq!(apply_record(&mut page, &r), Err(ApplyError::NotAPageRecord));
    }

    #[test]
    fn unapply_detects_corruption() {
        let mut page = Page::new();
        let r = write_rec(1, 0, &[0, 0], &[7, 7]);
        apply_record(&mut page, &r).unwrap();
        page.write_range(0, &[9, 9]); // corrupt
        let err = unapply_record(&mut page, &r).unwrap_err();
        assert!(matches!(err, ApplyError::BeforeImageMismatch { .. }));
    }

    #[test]
    fn chain_applies_in_order_and_skips_old() {
        let mut page = Page::new();
        let r1 = write_rec(1, 0, &[0], &[1]);
        let r2 = write_rec(2, 0, &[1], &[2]);
        let r3 = write_rec(3, 0, &[2], &[3]);
        apply_record(&mut page, &r1).unwrap();
        // chain including the already-applied r1
        let n = apply_chain(&mut page, [&r1, &r2, &r3]).unwrap();
        assert_eq!(n, 2);
        assert_eq!(page.bytes()[0], 3);
        assert_eq!(page.lsn, Lsn(3));
    }

    #[test]
    fn multi_patch_record_applies_all() {
        let mut page = Page::new();
        let r = LogRecord {
            lsn: Lsn(1),
            prev_in_pg: Lsn::ZERO,
            pg: PgId(0),
            txn: TxnId(1),
            is_cpl: true,
            body: RecordBody::PageWrite {
                page: PageId(0),
                patches: vec![
                    Patch {
                        offset: 0,
                        before: Bytes::from_static(&[0]),
                        after: Bytes::from_static(&[1]),
                    },
                    Patch {
                        offset: 4000,
                        before: Bytes::from_static(&[0, 0]),
                        after: Bytes::from_static(&[2, 3]),
                    },
                ],
            },
        };
        apply_record(&mut page, &r).unwrap();
        assert_eq!(page.bytes()[0], 1);
        assert_eq!(&page.bytes()[4000..4002], &[2, 3]);
        unapply_record(&mut page, &r).unwrap();
        assert_eq!(page.bytes()[0], 0);
        assert_eq!(&page.bytes()[4000..4002], &[0, 0]);
    }
}
