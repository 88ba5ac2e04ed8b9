//! Opaque keyset pagination cursors.
//!
//! `/v1` pages by *keyset*, not by offset: a page answer carries an
//! opaque token encoding the last entry id served, and the next request
//! resumes strictly after that id. Unlike offsets, a cursor stays stable
//! when earlier rows appear or disappear between requests, and the server
//! never re-scans skipped rows.
//!
//! The token is hex over an ASCII payload (`v1:<id>`) plus a 32-bit
//! FNV-1a checksum, so truncated or hand-edited tokens are rejected with
//! a decode error instead of silently paging from the wrong place.
//! Clients must treat tokens as opaque; the encoding may change between
//! API versions.

use crate::hash::fnv1a32;

/// A decoded pagination cursor: resume strictly after this entry id,
/// optionally pinned to the MVCC snapshot the first page was served
/// from (so a multi-page walk over a writable repository sees one
/// consistent generation end to end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageCursor {
    /// The last entry id the previous page served.
    pub after_id: usize,
    /// The snapshot sequence number the walk is pinned to, when the
    /// server is writable. `None` on read-only tokens (and all pre-PR-7
    /// tokens, which keep decoding).
    pub snapshot: Option<u64>,
}

/// Why a cursor token failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CursorError {
    /// Not hex, truncated, or the checksum does not match.
    Malformed,
    /// Decoded payload has an unknown version tag.
    UnknownVersion(String),
}

impl std::fmt::Display for CursorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CursorError::Malformed => write!(f, "malformed cursor token"),
            CursorError::UnknownVersion(v) => write!(f, "unknown cursor version {v:?}"),
        }
    }
}

impl std::error::Error for CursorError {}

/// The token form of an ASCII payload: its bytes in hex, then the
/// payload's FNV-1a 32 checksum as eight more hex digits.
fn seal(payload: &str) -> String {
    let mut out = String::with_capacity(payload.len() * 2 + 8);
    for b in payload.bytes() {
        out.push_str(&format!("{b:02x}"));
    }
    out.push_str(&format!("{:08x}", fnv1a32(payload.as_bytes())));
    out
}

/// Recovers and verifies the payload of a [`seal`]ed token.
fn unseal(token: &str) -> Result<String, CursorError> {
    let token = token.trim();
    if token.len() < 8 + 2 || !token.len().is_multiple_of(2) {
        return Err(CursorError::Malformed);
    }
    let (hex, check) = token.split_at(token.len() - 8);
    let mut payload = Vec::with_capacity(hex.len() / 2);
    for i in (0..hex.len()).step_by(2) {
        let byte = u8::from_str_radix(&hex[i..i + 2], 16).map_err(|_| CursorError::Malformed)?;
        payload.push(byte);
    }
    let expected = u32::from_str_radix(check, 16).map_err(|_| CursorError::Malformed)?;
    if fnv1a32(&payload) != expected {
        return Err(CursorError::Malformed);
    }
    String::from_utf8(payload).map_err(|_| CursorError::Malformed)
}

impl PageCursor {
    /// A cursor with no snapshot pin.
    pub fn after(after_id: usize) -> PageCursor {
        PageCursor {
            after_id,
            snapshot: None,
        }
    }

    /// Encodes into an opaque token.
    pub fn encode(&self) -> String {
        match self.snapshot {
            Some(seq) => seal(&format!("v1:{}:{seq}", self.after_id)),
            None => seal(&format!("v1:{}", self.after_id)),
        }
    }

    /// Decodes and verifies a token produced by [`PageCursor::encode`].
    pub fn decode(token: &str) -> Result<PageCursor, CursorError> {
        let payload = unseal(token)?;
        let Some(rest) = payload.strip_prefix("v1:") else {
            let version = payload.split(':').next().unwrap_or("").to_string();
            return Err(CursorError::UnknownVersion(version));
        };
        let (id_part, snapshot) = match rest.split_once(':') {
            Some((id, seq)) => {
                let seq = seq.parse().map_err(|_| CursorError::Malformed)?;
                (id, Some(seq))
            }
            None => (rest, None),
        };
        let after_id = id_part.parse().map_err(|_| CursorError::Malformed)?;
        Ok(PageCursor { after_id, snapshot })
    }
}

/// One shard's position inside a [`ScatterCursor`].
///
/// `Start` is distinct from `Resume`: a shard whose fetched items all
/// sorted *after* the merged page boundary has been read but not
/// consumed, and must be re-fetched from the top on the next page —
/// collapsing that to "resume after id 0" would skip its first entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSlot {
    /// The shard has not contributed an item yet; fetch from the top.
    Start,
    /// Resume the shard's stream from its own cursor.
    Resume(PageCursor),
    /// The shard's stream is exhausted; skip it.
    Done,
}

/// A scatter-gather cursor: the router's continuation token over a
/// sharded fleet, encoding one per-shard position so the merged walk
/// resumes every shard exactly where its stream stopped.
///
/// Slot `i` holds shard `i`'s own [`PageCursor`] (re-encoded verbatim
/// on the next scatter), `Start` before the shard has contributed, or
/// `Done` once its stream is exhausted. The wire form mirrors
/// [`PageCursor`]: hex over an ASCII payload (`r1:<tok>,<tok>,…` with
/// `s` marking unstarted and `x` marking exhausted shards) plus the
/// same FNV-1a checksum, so a tampered or truncated token fails
/// closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScatterCursor {
    /// Per-shard continuation state, indexed by shard.
    pub shards: Vec<ShardSlot>,
}

impl ScatterCursor {
    /// Encodes into an opaque token.
    pub fn encode(&self) -> String {
        let tokens: Vec<String> = self
            .shards
            .iter()
            .map(|s| match s {
                ShardSlot::Start => "s".to_string(),
                ShardSlot::Resume(cursor) => cursor.encode(),
                ShardSlot::Done => "x".to_string(),
            })
            .collect();
        seal(&format!("r1:{}", tokens.join(",")))
    }

    /// Decodes and verifies a token produced by [`ScatterCursor::encode`].
    pub fn decode(token: &str) -> Result<ScatterCursor, CursorError> {
        let payload = unseal(token)?;
        let Some(rest) = payload.strip_prefix("r1:") else {
            let version = payload.split(':').next().unwrap_or("").to_string();
            return Err(CursorError::UnknownVersion(version));
        };
        let shards = rest
            .split(',')
            .map(|tok| match tok {
                "s" => Ok(ShardSlot::Start),
                "x" => Ok(ShardSlot::Done),
                tok => PageCursor::decode(tok).map(ShardSlot::Resume),
            })
            .collect::<Result<Vec<_>, _>>()?;
        if shards.is_empty() {
            return Err(CursorError::Malformed);
        }
        Ok(ScatterCursor { shards })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for id in [0usize, 1, 42, 99_999, usize::MAX >> 1] {
            for snapshot in [None, Some(0u64), Some(7), Some(u64::MAX >> 1)] {
                let cursor = PageCursor {
                    after_id: id,
                    snapshot,
                };
                assert_eq!(PageCursor::decode(&cursor.encode()), Ok(cursor));
            }
        }
    }

    #[test]
    fn tokens_are_opaque_hex() {
        let token = PageCursor::after(7).encode();
        assert!(token.chars().all(|c| c.is_ascii_hexdigit()));
        assert!(!token.contains("v1"));
    }

    #[test]
    fn tampering_is_rejected() {
        let token = PageCursor::after(7).encode();
        // Flip one payload nibble.
        let mut bad = token.clone().into_bytes();
        bad[0] = if bad[0] == b'0' { b'1' } else { b'0' };
        assert_eq!(
            PageCursor::decode(std::str::from_utf8(&bad).unwrap()),
            Err(CursorError::Malformed)
        );
        // Truncation, garbage, empty.
        assert!(PageCursor::decode(&token[..token.len() - 2]).is_err());
        assert!(PageCursor::decode("zzzz").is_err());
        assert!(PageCursor::decode("").is_err());
    }

    #[test]
    fn scatter_roundtrip_and_tampering() {
        let cursor = ScatterCursor {
            shards: vec![
                ShardSlot::Resume(PageCursor {
                    after_id: 12,
                    snapshot: Some(4),
                }),
                ShardSlot::Done,
                ShardSlot::Start,
                ShardSlot::Resume(PageCursor::after(0)),
            ],
        };
        let token = cursor.encode();
        assert!(token.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(ScatterCursor::decode(&token), Ok(cursor));
        // A PageCursor token is not a ScatterCursor token and vice versa.
        assert!(ScatterCursor::decode(&PageCursor::after(7).encode()).is_err());
        assert!(PageCursor::decode(&token).is_err());
        // Tampering fails closed.
        let mut bad = token.clone().into_bytes();
        bad[0] = if bad[0] == b'0' { b'1' } else { b'0' };
        assert!(ScatterCursor::decode(std::str::from_utf8(&bad).unwrap()).is_err());
        assert!(ScatterCursor::decode(&token[..token.len() - 2]).is_err());
        assert!(ScatterCursor::decode("").is_err());
    }

    #[test]
    fn future_versions_are_flagged() {
        assert_eq!(
            PageCursor::decode(&seal("v9:1")),
            Err(CursorError::UnknownVersion("v9".to_string()))
        );
    }
}
