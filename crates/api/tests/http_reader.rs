//! The one client-side response reader (`hyperbench_api::http`) against
//! everything a peer can do to it: deliver a response in any split,
//! pipeline two into one read, send arbitrary bytes, overrun the caps,
//! lie about the body length, or hang up halfway.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::io::{self, Read};
use std::sync::atomic::{AtomicUsize, Ordering};

use hyperbench_api::http::{encode_request, Response, ResponseReader, MAX_BODY, MAX_HEAD};
use proptest::prelude::*;

/// Records the largest single allocation since the last reset, so a
/// test can show that a lying `Content-Length` never sizes a buffer.
struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a relaxed counter
// update that neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `realloc` are passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// A stream that hands out exactly the given chunks, one per `read`
/// (or less, when the caller's buffer is smaller), then EOF.
struct Chunks(VecDeque<Vec<u8>>);

impl Chunks {
    fn of(parts: &[&[u8]]) -> Chunks {
        Chunks(
            parts
                .iter()
                .filter(|p| !p.is_empty())
                .map(|p| p.to_vec())
                .collect(),
        )
    }
}

impl Read for Chunks {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(front) = self.0.front_mut() else {
            return Ok(0);
        };
        let n = front.len().min(buf.len());
        buf[..n].copy_from_slice(&front[..n]);
        front.drain(..n);
        if front.is_empty() {
            self.0.pop_front();
        }
        Ok(n)
    }
}

const CANNED: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
    Retry-After: 2\r\nContent-Length: 28\r\nConnection: close\r\n\r\n{\"code\":\"degraded\",\"n\":1234}";
const SECOND: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok";

fn one_shot(bytes: &[u8]) -> io::Result<Response> {
    ResponseReader::new(Chunks::of(&[bytes])).read_response()
}

fn kind_of(bytes: &[u8]) -> io::ErrorKind {
    one_shot(bytes).expect_err("input must be rejected").kind()
}

#[test]
fn a_response_decodes_to_status_headers_body_and_keep_alive() {
    let r = one_shot(CANNED).unwrap();
    assert_eq!(r.status, 503);
    assert_eq!(r.header("content-type"), Some("application/json"));
    assert_eq!(r.retry_after(), Some(2));
    assert_eq!(r.text(), r#"{"code":"degraded","n":1234}"#);
    assert!(!r.keep_alive, "Connection: close");
    let r = one_shot(SECOND).unwrap();
    assert!(r.keep_alive, "HTTP/1.1 persists unless told otherwise");
    // No Content-Length means no body (every peer here frames by it).
    let r = one_shot(b"HTTP/1.1 204 No Content\r\n\r\n").unwrap();
    assert_eq!((r.status, r.body.len()), (204, 0));
}

#[test]
fn any_split_of_a_response_equals_one_shot_delivery() {
    let whole = one_shot(CANNED).unwrap();
    for cut in 0..=CANNED.len() {
        let (a, b) = CANNED.split_at(cut);
        let mut reader = ResponseReader::new(Chunks::of(&[a, b]));
        assert_eq!(reader.read_response().unwrap(), whole, "split at {cut}");
        assert!(reader.is_drained(), "split at {cut}");
    }
    // …down to one byte per read.
    let drip: Vec<&[u8]> = CANNED.chunks(1).collect();
    let mut reader = ResponseReader::new(Chunks::of(&drip));
    assert_eq!(reader.read_response().unwrap(), whole);
}

#[test]
fn two_responses_delivered_in_one_read_both_parse() {
    let both = [CANNED, SECOND].concat();
    let mut reader = ResponseReader::new(Chunks::of(&[&both]));
    assert_eq!(reader.read_response().unwrap(), one_shot(CANNED).unwrap());
    assert!(
        !reader.is_drained(),
        "the second response's bytes are carried, not dropped"
    );
    assert_eq!(reader.read_response().unwrap(), one_shot(SECOND).unwrap());
    assert!(reader.is_drained());
    // And wherever the pair is split, nothing is lost either.
    for cut in 0..=both.len() {
        let (a, b) = both.split_at(cut);
        let mut reader = ResponseReader::new(Chunks::of(&[a, b]));
        assert_eq!(reader.read_response().unwrap().status, 503, "cut {cut}");
        assert_eq!(reader.read_response().unwrap().body, b"ok", "cut {cut}");
    }
}

#[test]
fn caps_lies_and_hangups_are_named_errors_that_never_size_a_buffer() {
    use io::ErrorKind::{InvalidData, UnexpectedEof};
    // Nothing at all, half a head, half a body.
    assert_eq!(kind_of(b""), UnexpectedEof);
    assert_eq!(kind_of(&CANNED[..40]), UnexpectedEof);
    assert_eq!(kind_of(&CANNED[..CANNED.len() - 5]), UnexpectedEof);
    // Malformed heads.
    assert_eq!(kind_of(b"BOGUS\r\n\r\n"), InvalidData);
    assert_eq!(
        kind_of(b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n"),
        InvalidData
    );
    assert_eq!(
        kind_of(b"HTTP/1.1 200 OK\r\nx: \xff\xfe\r\n\r\n"),
        InvalidData
    );
    assert_eq!(
        kind_of(b"HTTP/1.1 200 OK\r\nContent-Length: lots\r\n\r\n"),
        InvalidData
    );
    assert_eq!(
        kind_of(b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999999\r\n\r\n"),
        InvalidData
    );

    // A head one byte over the cap is refused, terminated or not; one
    // exactly at the cap is served.
    let head_of = |len: usize| {
        let mut head = b"HTTP/1.1 200 OK\r\nx-pad: ".to_vec();
        head.resize(len, b'a');
        head
    };
    let at_cap = [head_of(MAX_HEAD).as_slice(), b"\r\n\r\n"].concat();
    assert_eq!(one_shot(&at_cap).unwrap().status, 200);
    let over = [head_of(MAX_HEAD + 1).as_slice(), b"\r\n\r\n"].concat();
    assert_eq!(kind_of(&over), InvalidData);
    assert_eq!(kind_of(&head_of(MAX_HEAD + 4096)), InvalidData);

    // Declared sizes: over the cap is refused outright; at the cap
    // with the peer gone is an EOF — and neither reserves what the
    // header claimed. (The heads above sized buffers of ~2 × 64 KiB.)
    LARGEST.store(0, Ordering::Relaxed);
    let over_cap = format!(
        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\nabc",
        MAX_BODY + 1
    );
    assert_eq!(kind_of(over_cap.as_bytes()), InvalidData);
    let hung_up = format!("HTTP/1.1 200 OK\r\nContent-Length: {MAX_BODY}\r\n\r\nabc");
    assert_eq!(kind_of(hung_up.as_bytes()), UnexpectedEof);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < MAX_BODY / 8,
        "a {MAX_BODY}-byte claim drove a {largest}-byte allocation"
    );
}

#[test]
fn requests_are_written_with_host_and_length_first() {
    let wire = encode_request(
        "POST",
        "/v1/query?x=1",
        "127.0.0.1:9",
        &[("connection", "close"), ("x-trace", "7")],
        b"{}",
    );
    assert_eq!(
        wire,
        b"POST /v1/query?x=1 HTTP/1.1\r\nhost: 127.0.0.1:9\r\ncontent-length: 2\r\n\
          connection: close\r\nx-trace: 7\r\n\r\n{}"
    );
}

/// `Client` rides the same reader: a peer that hangs up is a transport
/// failure (`Io`, which the retry policy may replay), while an answer
/// that arrives but breaks the protocol is `Decode` — asking again
/// would not fix it.
#[test]
fn client_separates_hangups_from_protocol_violations() {
    use hyperbench_api::{Client, ClientError};
    use std::io::Write;
    use std::net::TcpListener;

    let answer_with = |response: &'static [u8]| {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = stream.read(&mut [0u8; 1024]);
            stream.write_all(response).unwrap();
        });
        let outcome = Client::new(addr).healthz();
        server.join().unwrap();
        outcome
    };
    match answer_with(b"") {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
        other => panic!("hang-up must be Io(UnexpectedEof), got {other:?}"),
    }
    match answer_with(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{\"entr") {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
        other => panic!("a truncated body must be Io(UnexpectedEof), got {other:?}"),
    }
    for violation in [
        &b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n\xff\xfe"[..],
        b"SMTP ready\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 999999999999\r\n\r\n",
    ] {
        let outcome = answer_with(violation);
        assert!(
            matches!(outcome, Err(ClientError::Decode(_))),
            "{violation:?} must be Decode, got {outcome:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // Garbage — raw, or a valid response with one byte flipped and a
    // random truncation — is answered or refused, never a panic, and
    // whatever is answered stays within the caps.
    #[test]
    fn arbitrary_bytes_never_panic(
        noise in prop::collection::vec(any::<u8>(), 0..300),
        flip in 0usize..CANNED.len(),
        keep in 0usize..=CANNED.len(),
    ) {
        let mut mutated = CANNED.to_vec();
        mutated[flip] ^= noise.first().copied().unwrap_or(0x20);
        mutated.truncate(keep);
        for input in [&noise, &mutated, &[mutated.as_slice(), noise.as_slice()].concat()] {
            let mut reader = ResponseReader::new(Chunks::of(&[input]));
            while let Ok(response) = reader.read_response() {
                prop_assert!(response.body.len() <= MAX_BODY);
            }
        }
    }
}
