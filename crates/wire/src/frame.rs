//! Length-prefixed, CRC-protected framing over any byte stream (Unix
//! socket, TCP, pipe, an in-memory cursor in tests).
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "KLMW"
//!      4     2  protocol version (little-endian u16)
//!      6     1  frame kind (application-defined)
//!      7     1  reserved (must be 0)
//!      8     4  payload length (little-endian u32)
//!     12     4  CRC-32 of the payload (little-endian u32)
//!     16     …  payload
//! ```
//!
//! The receiver validates magic, version, and the length bound as soon as
//! the 16-byte header is complete — *before* buffering the payload — and
//! the CRC once the payload is complete.  Any validation failure is a
//! typed [`WireError`]; a failed stream should be torn down (framing
//! cannot resynchronize after corruption).

use crate::crc::crc32;
use crate::error::{Result, WireError};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"KLMW";

/// Protocol version this build encodes and accepts.  Version 3 dropped
/// the backend-policy byte that version 2 carried in the stream-options
/// payload.
pub const VERSION: u16 = 3;

/// Size of the fixed frame header.
pub const HEADER_LEN: usize = 16;

/// Default receiver-side bound on a frame's payload length.
pub const DEFAULT_MAX_FRAME: u32 = 64 << 20;

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Application-defined frame kind byte.
    pub kind: u8,
    /// Payload length in bytes.
    pub len: u32,
    /// CRC-32 of the payload.
    pub crc: u32,
}

/// Encodes a frame header for `payload` into a fixed buffer.
pub fn encode_header(out: &mut [u8; HEADER_LEN], kind: u8, payload: &[u8]) {
    out[0..4].copy_from_slice(&MAGIC);
    out[4..6].copy_from_slice(&VERSION.to_le_bytes());
    out[6] = kind;
    out[7] = 0;
    out[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    out[12..16].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Decodes and validates a frame header (magic and version; the length
/// bound is the receiver's to enforce, see [`FrameReader`]).
pub fn decode_header(bytes: &[u8; HEADER_LEN]) -> Result<FrameHeader> {
    if bytes[0..4] != MAGIC {
        return Err(WireError::BadMagic([
            bytes[0], bytes[1], bytes[2], bytes[3],
        ]));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(WireError::VersionMismatch {
            got: version,
            supported: VERSION,
        });
    }
    Ok(FrameHeader {
        kind: bytes[6],
        len: u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
        crc: u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]),
    })
}

/// Builds one complete frame as owned bytes — the convenience (and fault
/// injection) form; the serving path uses [`FrameWriter`] instead.
pub fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; HEADER_LEN + payload.len()];
    let mut header = [0u8; HEADER_LEN];
    encode_header(&mut header, kind, payload);
    out[..HEADER_LEN].copy_from_slice(&header);
    out[HEADER_LEN..].copy_from_slice(payload);
    out
}

/// Writes frames to a byte sink.  Stateless beyond a scratch header, so
/// steady-state sends allocate nothing: the payload is borrowed from the
/// caller's reusable [`crate::Writer`].
#[derive(Debug)]
pub struct FrameWriter<W: std::io::Write> {
    inner: W,
    header: [u8; HEADER_LEN],
}

impl<W: std::io::Write> FrameWriter<W> {
    /// Wraps a byte sink.
    pub fn new(inner: W) -> FrameWriter<W> {
        FrameWriter {
            inner,
            header: [0u8; HEADER_LEN],
        }
    }

    /// Writes one complete frame (header + payload) and flushes.
    pub fn send(&mut self, kind: u8, payload: &[u8]) -> Result<()> {
        encode_header(&mut self.header, kind, payload);
        self.inner.write_all(&self.header)?;
        self.inner.write_all(payload)?;
        // Qualified call: `.flush()` would alias the streaming smoother's
        // flush in the name-resolved lint call graph.
        std::io::Write::flush(&mut self.inner)?;
        Ok(())
    }

    /// The wrapped sink.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }

    /// Unwraps the sink.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// One step of frame reception.
#[derive(Debug)]
pub enum Progress<'a> {
    /// A complete, CRC-verified frame.
    Frame {
        /// Application-defined frame kind byte.
        kind: u8,
        /// The payload (valid until the next read call).
        payload: &'a [u8],
    },
    /// The source reported `WouldBlock`/`TimedOut`; partial input is
    /// buffered — call again when the source may have more.
    Pending,
    /// Clean end of stream at a frame boundary.
    Closed,
}

/// Reads frames from a byte source, tolerating partial reads: bytes
/// accumulate in an internal buffer across calls, so sources with read
/// timeouts or in non-blocking mode lose nothing between polls.  The
/// buffer is reused frame to frame — steady-state reception allocates
/// nothing once it has grown to the largest frame seen.
#[derive(Debug)]
pub struct FrameReader<R: std::io::Read> {
    inner: R,
    buf: Vec<u8>,
    /// Bytes of `buf` filled with the current frame's prefix.
    filled: usize,
    /// Header of the frame being received (parsed as soon as complete).
    header: Option<FrameHeader>,
    max_frame: u32,
}

impl<R: std::io::Read> FrameReader<R> {
    /// Wraps a byte source with the default frame-size bound.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader::with_max_frame(inner, DEFAULT_MAX_FRAME)
    }

    /// Wraps a byte source with an explicit payload-length bound;
    /// headers claiming more yield [`WireError::Oversized`].
    pub fn with_max_frame(inner: R, max_frame: u32) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
            filled: 0,
            header: None,
            max_frame,
        }
    }

    /// The wrapped source.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Advances frame reception by reading from the source.
    ///
    /// Returns [`Progress::Frame`] when a complete frame passed all
    /// validation, [`Progress::Pending`] when the source would block
    /// mid-accumulation, and [`Progress::Closed`] on a clean end of
    /// stream between frames.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when the stream ends inside a frame;
    /// [`WireError::BadMagic`] / [`WireError::VersionMismatch`] /
    /// [`WireError::Oversized`] on header validation as soon as the
    /// header is complete; [`WireError::BadCrc`] once the payload is; and
    /// [`WireError::Io`] for transport failures.  After any error the
    /// stream is desynchronized and must be torn down.
    pub fn poll(&mut self) -> Result<Progress<'_>> {
        loop {
            let need = match self.header {
                None => HEADER_LEN,
                Some(h) => HEADER_LEN + h.len as usize,
            };
            if self.buf.len() < need {
                self.buf.resize(need, 0);
            }
            if self.filled < need {
                match self.inner.read(&mut self.buf[self.filled..need]) {
                    Ok(0) => {
                        if self.filled == 0 {
                            return Ok(Progress::Closed);
                        }
                        return Err(WireError::Truncated {
                            needed: need,
                            have: self.filled,
                        });
                    }
                    Ok(n) => self.filled += n,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        return Ok(Progress::Pending);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(WireError::Io(e)),
                }
                continue;
            }
            if self.header.is_none() {
                let mut head = [0u8; HEADER_LEN];
                head.copy_from_slice(&self.buf[..HEADER_LEN]);
                let h = decode_header(&head)?;
                if h.len > self.max_frame {
                    return Err(WireError::Oversized {
                        len: h.len,
                        max: self.max_frame,
                    });
                }
                self.header = Some(h);
                continue;
            }
            // lint: allow(panic, "infallible: the branch above runs only when self.header is Some")
            let h = self.header.take().expect("header parsed");
            let payload = &self.buf[HEADER_LEN..HEADER_LEN + h.len as usize];
            let found = crc32(payload);
            if found != h.crc {
                return Err(WireError::BadCrc {
                    expected: h.crc,
                    found,
                });
            }
            self.filled = 0;
            return Ok(Progress::Frame {
                kind: h.kind,
                payload: &self.buf[HEADER_LEN..HEADER_LEN + h.len as usize],
            });
        }
    }

    /// Blocking convenience: polls until a frame or end of stream, treating
    /// [`Progress::Pending`] as "wait and retry" only for sources that can
    /// make progress (a blocking socket with a read timeout).  Returns
    /// `Ok(None)` on a clean close.
    ///
    /// # Errors
    ///
    /// As [`FrameReader::poll`].
    pub fn next_frame(&mut self) -> Result<Option<(u8, &[u8])>> {
        loop {
            // Polonius-style workaround: probe completion with a borrow
            // confined to the loop body, then re-borrow for the return.
            match self.poll()? {
                Progress::Frame { .. } => break,
                Progress::Pending => continue,
                Progress::Closed => return Ok(None),
            }
        }
        // The frame just completed occupies the buffer prefix; recompute
        // its extent from the (already validated) header bytes.
        let mut head = [0u8; HEADER_LEN];
        head.copy_from_slice(&self.buf[..HEADER_LEN]);
        let h = decode_header(&head)?;
        Ok(Some((
            h.kind,
            &self.buf[HEADER_LEN..HEADER_LEN + h.len as usize],
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut sink = Vec::new();
        let mut fw = FrameWriter::new(&mut sink);
        fw.send(7, b"hello").unwrap();
        fw.send(8, b"").unwrap();
        fw.send(9, &[0xFFu8; 100]).unwrap();

        let mut fr = FrameReader::new(Cursor::new(sink));
        let (k, p) = fr.next_frame().unwrap().unwrap();
        assert_eq!((k, p), (7, b"hello".as_slice()));
        let (k, p) = fr.next_frame().unwrap().unwrap();
        assert_eq!((k, p.len()), (8, 0));
        let (k, p) = fr.next_frame().unwrap().unwrap();
        assert_eq!((k, p.len()), (9, 100));
        assert!(fr.next_frame().unwrap().is_none());
    }

    #[test]
    fn truncation_mid_frame_is_detected() {
        let bytes = frame_bytes(3, b"abcdefgh");
        for cut in 1..bytes.len() {
            let mut fr = FrameReader::new(Cursor::new(bytes[..cut].to_vec()));
            match fr.next_frame() {
                Err(WireError::Truncated { have, .. }) => assert_eq!(have, cut),
                other => panic!("cut {cut}: expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_is_detected_by_crc() {
        let bytes = frame_bytes(3, b"abcdefgh");
        for i in HEADER_LEN..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            let mut fr = FrameReader::new(Cursor::new(corrupt));
            assert!(
                matches!(fr.next_frame(), Err(WireError::BadCrc { .. })),
                "payload byte {i}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_detected() {
        let mut bytes = frame_bytes(3, b"xy");
        bytes[0] = b'X';
        let mut fr = FrameReader::new(Cursor::new(bytes));
        assert!(matches!(fr.next_frame(), Err(WireError::BadMagic(_))));

        let mut bytes = frame_bytes(3, b"xy");
        bytes[4] = 0x2A; // version 42
        let mut fr = FrameReader::new(Cursor::new(bytes));
        assert!(matches!(
            fr.next_frame(),
            Err(WireError::VersionMismatch { got: 42, .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut bytes = frame_bytes(3, b"xy");
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut fr = FrameReader::with_max_frame(Cursor::new(bytes), 1024);
        assert!(matches!(
            fr.next_frame(),
            Err(WireError::Oversized {
                len: u32::MAX,
                max: 1024
            })
        ));
    }

    /// A source that yields one byte per call, interleaved with
    /// `WouldBlock` — the shape of a socket with a short read timeout.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        block_next: bool,
    }

    impl std::io::Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.block_next {
                self.block_next = false;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.block_next = true;
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            out[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn partial_reads_accumulate_across_polls() {
        let mut bytes = frame_bytes(5, b"slow and steady");
        bytes.extend_from_slice(&frame_bytes(6, b"second"));
        let mut fr = FrameReader::new(Dribble {
            data: bytes,
            pos: 0,
            block_next: false,
        });
        let mut got = Vec::new();
        loop {
            match fr.poll().unwrap() {
                Progress::Frame { kind, payload } => got.push((kind, payload.to_vec())),
                Progress::Pending => continue,
                Progress::Closed => break,
            }
        }
        assert_eq!(
            got,
            vec![(5, b"slow and steady".to_vec()), (6, b"second".to_vec())]
        );
    }
}
