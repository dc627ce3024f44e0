//! The `gpa-serve/1` wire protocol: hand-rolled length-prefixed frames.
//!
//! Every message on a serve connection is one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"gpaS"
//! 4       1     protocol version (1 or 2; see below)
//! 5       1     frame kind (1 = Request, 2 = Response, 3 = Shutdown,
//!               4 = Stats, 5 = Dump)
//! 6       4     payload length, u32 big-endian (≤ 64 MiB)
//! 10      len   payload
//! ```
//!
//! A *Request* payload is itself framed: a u32 big-endian knobs length,
//! the UTF-8 JSON knobs object, then the raw image bytes. A *Response*
//! payload is the UTF-8 JSON answer (the `gpa-serve/1` document for
//! Requests, the `gpa-stats/1` snapshot for Stats, the `gpa-trace/1`
//! JSONL flight-recorder dump for Dump). A *Shutdown* payload is empty;
//! it asks the server to drain and exit. *Stats* and *Dump* payloads
//! are empty admin queries; the connection stays open afterwards.
//!
//! # Version compatibility
//!
//! Version 2 added the Stats and Dump admin kinds; nothing else
//! changed. Interop is preserved in both directions by stamping every
//! frame with the *minimum* version that understands its kind
//! ([`FrameKind::min_version`]) and accepting any version in
//! `MIN_VERSION..=VERSION` on read: a v1 client's Request frames are
//! read unchanged by a v2 server, and a v2 server's Response frames
//! (stamped 1 — the kind predates v2) are read unchanged by a v1
//! client. Only the new admin frames carry version 2, and only peers
//! that know the kinds ever send them. A forged frame pairing a v2
//! kind with a v1 stamp is rejected as [`FrameError::BadVersion`].
//!
//! Decoding is strict and every failure mode has a distinct
//! [`FrameError`] code, so clients can tell a version skew from line
//! noise from a truncated stream. The property tests round-trip
//! arbitrary payloads (including the maximum length) and assert the
//! rejection codes for garbage prefixes and cut-off frames.

use std::io::{self, Read, Write};

/// First bytes of every frame.
pub const MAGIC: [u8; 4] = *b"gpaS";
/// Newest wire-protocol version this build speaks (v2 added the Stats
/// and Dump admin kinds).
pub const VERSION: u8 = 2;
/// Oldest wire-protocol version this build still reads.
pub const MIN_VERSION: u8 = 1;
/// Fixed frame-header size (magic + version + kind + length).
pub const HEADER_LEN: usize = 10;
/// Upper bound on a frame payload; larger lengths are rejected before
/// any allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Version tag of the serve-response JSON schema.
pub const SERVE_SCHEMA: &str = "gpa-serve/1";

/// Version tag of the live-stats snapshot JSON schema (the answer to a
/// [`FrameKind::Stats`] frame).
pub const STATS_SCHEMA: &str = "gpa-stats/1";

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: optimize this image with these knobs.
    Request,
    /// Server → client: the `gpa-serve/1` JSON document.
    Response,
    /// Client → server: drain the queue and exit.
    Shutdown,
    /// Client → server: answer with a `gpa-stats/1` snapshot (v2).
    Stats,
    /// Client → server: answer with the flight recorder's contents as a
    /// `gpa-trace/1` JSONL document (v2).
    Dump,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
            FrameKind::Shutdown => 3,
            FrameKind::Stats => 4,
            FrameKind::Dump => 5,
        }
    }

    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Response),
            3 => Some(FrameKind::Shutdown),
            4 => Some(FrameKind::Stats),
            5 => Some(FrameKind::Dump),
            _ => None,
        }
    }

    /// The oldest protocol version that understands this kind — what
    /// [`write_frame`] stamps into the header, so frames of pre-v2
    /// kinds stay readable by v1 peers.
    pub fn min_version(self) -> u8 {
        match self {
            FrameKind::Request | FrameKind::Response | FrameKind::Shutdown => 1,
            FrameKind::Stats | FrameKind::Dump => 2,
        }
    }
}

/// Why a frame could not be decoded. Each variant maps to a stable
/// diagnostic code ([`FrameError::code`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream does not start with [`MAGIC`] — not a gpa-serve peer.
    BadMagic([u8; 4]),
    /// The peer speaks a protocol version this build does not.
    BadVersion(u8),
    /// The kind byte names no known frame kind.
    BadKind(u8),
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    TooLong(usize),
    /// The stream ended inside a frame (header or payload).
    Truncated,
    /// The stream ended cleanly at a frame boundary.
    Eof,
    /// A transport-level read/write failure.
    Io(io::ErrorKind),
}

impl FrameError {
    /// Stable machine-readable code for diagnostics and tests.
    pub fn code(&self) -> &'static str {
        match self {
            FrameError::BadMagic(_) => "bad_magic",
            FrameError::BadVersion(_) => "bad_version",
            FrameError::BadKind(_) => "bad_kind",
            FrameError::TooLong(_) => "too_long",
            FrameError::Truncated => "truncated",
            FrameError::Eof => "eof",
            FrameError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::TooLong(n) => write!(f, "frame length {n} exceeds {MAX_FRAME_LEN}"),
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
            FrameError::Eof => write!(f, "stream closed at a frame boundary"),
            FrameError::Io(kind) => write!(f, "transport error: {kind:?}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame. Fails with `InvalidInput` if the payload exceeds
/// [`MAX_FRAME_LEN`] (a frame that no peer would accept).
///
/// Header and payload go out in one `write_all`: on a socket with
/// Nagle's algorithm on, a separate header write leaves the payload
/// waiting for the peer's delayed ACK.
///
/// # Errors
///
/// Propagates transport write failures.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("payload of {} bytes exceeds MAX_FRAME_LEN", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.push(kind.min_version());
    frame.push(kind.to_byte());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads exactly `buf.len()` bytes. A clean close before the first byte
/// is [`FrameError::Eof`] when `at_boundary`; any later shortfall is
/// [`FrameError::Truncated`].
fn read_exact_frame(
    r: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
) -> Result<(), FrameError> {
    let mut pos = 0;
    while pos < buf.len() {
        match r.read(&mut buf[pos..]) {
            Ok(0) => {
                return Err(if pos == 0 && at_boundary {
                    FrameError::Eof
                } else {
                    FrameError::Truncated
                });
            }
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.kind())),
        }
    }
    Ok(())
}

/// Reads and validates one frame.
///
/// # Errors
///
/// A [`FrameError`] naming the first violation: magic, version, kind,
/// length bound, truncation, or transport failure. A clean close
/// between frames is the distinguished [`FrameError::Eof`].
pub fn read_frame(r: &mut impl Read) -> Result<(FrameKind, Vec<u8>), FrameError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_frame(r, &mut header, true)?;
    if header[..4] != MAGIC {
        let mut seen = [0u8; 4];
        seen.copy_from_slice(&header[..4]);
        return Err(FrameError::BadMagic(seen));
    }
    if !(MIN_VERSION..=VERSION).contains(&header[4]) {
        return Err(FrameError::BadVersion(header[4]));
    }
    let Some(kind) = FrameKind::from_byte(header[5]) else {
        return Err(FrameError::BadKind(header[5]));
    };
    if header[4] < kind.min_version() {
        // A kind stamped older than the version that introduced it is a
        // forgery, not a compatible frame.
        return Err(FrameError::BadVersion(header[4]));
    }
    let len = u32::from_be_bytes(header[6..].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLong(len));
    }
    let mut payload = vec![0u8; len];
    read_exact_frame(r, &mut payload, false)?;
    Ok((kind, payload))
}

/// A decoded request: the per-request knobs JSON and the image bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// UTF-8 JSON object of per-request knobs (may be `{}`).
    pub knobs: String,
    /// The raw image to optimize.
    pub image: Vec<u8>,
}

/// Encodes a request payload (the body of a [`FrameKind::Request`]
/// frame): u32 big-endian knobs length, knobs JSON, image bytes.
pub fn encode_request(knobs: &str, image: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + knobs.len() + image.len());
    payload.extend_from_slice(&(knobs.len() as u32).to_be_bytes());
    payload.extend_from_slice(knobs.as_bytes());
    payload.extend_from_slice(image);
    payload
}

/// Decodes a request payload.
///
/// # Errors
///
/// [`FrameError::Truncated`] when the payload is shorter than its own
/// knobs-length prefix claims (non-UTF-8 knobs are also rejected as
/// truncation of a valid request — the knobs field is JSON by contract).
pub fn decode_request(payload: &[u8]) -> Result<Request, FrameError> {
    if payload.len() < 4 {
        return Err(FrameError::Truncated);
    }
    let knobs_len = u32::from_be_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
    let rest = &payload[4..];
    if rest.len() < knobs_len {
        return Err(FrameError::Truncated);
    }
    let Ok(knobs) = std::str::from_utf8(&rest[..knobs_len]) else {
        return Err(FrameError::Truncated);
    };
    Ok(Request {
        knobs: knobs.to_owned(),
        image: rest[knobs_len..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Request, b"payload").unwrap();
        write_frame(&mut wire, FrameKind::Shutdown, b"").unwrap();
        let mut r = wire.as_slice();
        assert_eq!(
            read_frame(&mut r).unwrap(),
            (FrameKind::Request, b"payload".to_vec())
        );
        assert_eq!(read_frame(&mut r).unwrap(), (FrameKind::Shutdown, vec![]));
        assert_eq!(read_frame(&mut r).unwrap_err(), FrameError::Eof);
    }

    #[test]
    fn admin_frames_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Stats, b"").unwrap();
        write_frame(&mut wire, FrameKind::Dump, b"").unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), (FrameKind::Stats, vec![]));
        assert_eq!(read_frame(&mut r).unwrap(), (FrameKind::Dump, vec![]));
        assert_eq!(read_frame(&mut r).unwrap_err(), FrameError::Eof);
    }

    #[test]
    fn legacy_kinds_are_stamped_version_1_for_old_peers() {
        // The compatibility contract: everything a v1 peer understands
        // still goes out stamped v1, so v1 readers (which require the
        // version byte to equal 1 exactly) keep interoperating.
        for kind in [FrameKind::Request, FrameKind::Response, FrameKind::Shutdown] {
            let mut wire = Vec::new();
            write_frame(&mut wire, kind, b"x").unwrap();
            assert_eq!(wire[4], 1, "{kind:?} must stay readable by v1 peers");
        }
        for kind in [FrameKind::Stats, FrameKind::Dump] {
            let mut wire = Vec::new();
            write_frame(&mut wire, kind, b"").unwrap();
            assert_eq!(wire[4], 2, "{kind:?} is a v2 kind");
        }
    }

    #[test]
    fn v2_kind_with_v1_stamp_is_a_version_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Stats, b"").unwrap();
        wire[4] = 1;
        assert_eq!(
            read_frame(&mut wire.as_slice()).unwrap_err(),
            FrameError::BadVersion(1)
        );
        // …while a legacy kind is read at either stamp.
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Request, b"p").unwrap();
        wire[4] = 2;
        assert_eq!(
            read_frame(&mut wire.as_slice()).unwrap(),
            (FrameKind::Request, b"p".to_vec())
        );
    }

    #[test]
    fn request_payload_roundtrip() {
        let payload = encode_request("{\"deadline_ms\":5}", &[1, 2, 3]);
        let req = decode_request(&payload).unwrap();
        assert_eq!(req.knobs, "{\"deadline_ms\":5}");
        assert_eq!(req.image, vec![1, 2, 3]);
    }

    #[test]
    fn rejection_codes_are_distinct() {
        let mut garbage: &[u8] = b"HTTP/1.1 200 OK\r\n";
        assert_eq!(read_frame(&mut garbage).unwrap_err().code(), "bad_magic");

        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Request, b"xy").unwrap();
        wire[4] = 9;
        assert_eq!(
            read_frame(&mut wire.as_slice()).unwrap_err(),
            FrameError::BadVersion(9)
        );
        wire[4] = VERSION;
        wire[5] = 77;
        assert_eq!(
            read_frame(&mut wire.as_slice()).unwrap_err(),
            FrameError::BadKind(77)
        );
        wire[5] = 1;
        wire[6..10].copy_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_be_bytes());
        assert!(matches!(
            read_frame(&mut wire.as_slice()).unwrap_err(),
            FrameError::TooLong(_)
        ));
    }

    #[test]
    fn truncation_is_not_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Response, b"0123456789").unwrap();
        // Cut inside the header and inside the payload.
        for cut in [3, HEADER_LEN + 4] {
            assert_eq!(
                read_frame(&mut &wire[..cut]).unwrap_err(),
                FrameError::Truncated
            );
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        /// Accepts everything, counting `write` calls.
        struct Counting(usize);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting(0);
        write_frame(&mut w, FrameKind::Response, b"{\"ok\":true}").unwrap();
        write_frame(&mut w, FrameKind::Shutdown, b"").unwrap();
        assert_eq!(w.0, 2);
    }
}
