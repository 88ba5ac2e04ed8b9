//! The record frame of the two append-only files, the [`super::wal`]
//! and the [`super::spill`] segment: `[u32 payload length][payload]
//! [u64 store_fnv64 of the payload]`, little-endian. A frame is appended
//! with a single write, so the only damage a crash can leave is a
//! *torn tail*; [`scan`] tells that apart from corruption. What the
//! payloads mean, and when the file is fsynced, is each caller's own
//! business.

use hyperbench_core::hash::store_fnv64;

use super::StoreError;

/// Bytes a frame adds around its payload.
const OVERHEAD: usize = 4 + 8;

/// Frames one payload, ready to append.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("record payloads stay far below 4 GiB");
    let mut framed = Vec::with_capacity(payload.len() + OVERHEAD);
    framed.extend_from_slice(&len.to_le_bytes());
    framed.extend_from_slice(payload);
    framed.extend_from_slice(&store_fnv64(payload).to_le_bytes());
    framed
}

/// The payload and stored checksum of the frame `rest` starts with, or
/// `None` when `rest` is too short to hold the frame it declares.
fn split_frame(rest: &[u8]) -> Option<(&[u8], u64)> {
    let len = u32::from_le_bytes(*rest.first_chunk::<4>()?) as usize;
    let (payload, sum) = rest[4..].split_at_checked(len)?;
    Some((payload, u64::from_le_bytes(*sum.first_chunk::<8>()?)))
}

/// Walks a file image frame by frame, handing each intact payload (and
/// its frame's byte offset) to `decode`. Returns everything decoded
/// before the first problem, plus that problem:
///
/// * too few bytes for the declared frame, or a checksum mismatch on
///   the *final* frame (a crash can leave the full length present but
///   the payload half-written on some filesystems) — a torn tail,
///   reported through `torn` with the offset to truncate to;
/// * a checksum mismatch with further bytes behind it —
///   [`StoreError::Corrupt`], naming `what` and the offset;
/// * whatever `decode` rejects.
pub(crate) fn scan<T>(
    bytes: &[u8],
    what: &str,
    torn: impl Fn(u64) -> StoreError,
    mut decode: impl FnMut(&[u8], u64) -> Result<T, StoreError>,
) -> (Vec<T>, Option<StoreError>) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some((payload, stored)) = split_frame(&bytes[pos..]) else {
            return (records, Some(torn(pos as u64)));
        };
        let end = pos + payload.len() + OVERHEAD;
        if store_fnv64(payload) != stored {
            let problem = if end == bytes.len() {
                torn(pos as u64)
            } else {
                StoreError::Corrupt(format!("{what} at offset {pos}: checksum mismatch"))
            };
            return (records, Some(problem));
        }
        match decode(payload, pos as u64) {
            Ok(record) => records.push(record),
            Err(e) => return (records, Some(e)),
        }
        pos = end;
    }
    (records, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Torn-vs-corrupt verdicts are pinned through both callers (the
    // WAL's and the spill's own tests, and `tests/crash_recovery.rs`);
    // these are the two inputs neither payload codec can produce.
    #[test]
    fn empty_payloads_frame_and_huge_lengths_are_torn_not_allocated() {
        let scan_raw = |bytes: &[u8]| {
            scan(
                bytes,
                "test record",
                |offset| StoreError::WalTornTail { offset },
                |payload, _| Ok(payload.to_vec()),
            )
        };
        let mut image = frame(b"abc");
        image.extend_from_slice(&frame(b""));
        let (payloads, problem) = scan_raw(&image);
        assert_eq!(payloads, vec![b"abc".to_vec(), Vec::new()]);
        assert!(problem.is_none(), "{problem:?}");

        let (payloads, problem) = scan_raw(&[0xff, 0xff, 0xff, 0xff, 1, 2, 3]);
        assert!(payloads.is_empty());
        assert!(matches!(
            problem,
            Some(StoreError::WalTornTail { offset: 0 })
        ));
    }
}
