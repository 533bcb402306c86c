//! Length-prefixed framing over any `Read`/`Write` pair.

use crate::codec::WireError;
use std::io::{self, Read, Write};

/// Hard upper bound on a single frame (16 MiB): bounds allocation driven by
/// untrusted length prefixes and comfortably fits the largest chunk batches.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Body capacity [`read_frame`] reserves before any body bytes arrive.
const INITIAL_BODY_CAPACITY: usize = 64 * 1024;

/// Errors while reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Socket/file error.
    Io(io::Error),
    /// Peer closed the connection cleanly between frames.
    Closed,
    /// Frame exceeded [`MAX_FRAME`].
    TooLarge(usize),
    /// Message body failed to parse.
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            FrameError::Wire(e) => write!(f, "frame body error: {e}"),
        }
    }
}

impl FrameError {
    /// True when this error is a socket deadline expiry (`SO_RCVTIMEO` /
    /// `SO_SNDTIMEO` fired), as opposed to a dead or misbehaving peer.
    /// Timeouts are the signal the failover machinery treats as "peer
    /// unavailable": a hung-but-alive node must look like a dead one.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if e.kind() == io::ErrorKind::WouldBlock
                || e.kind() == io::ErrorKind::TimedOut
        )
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// Writes one frame: `u32 le length || body`.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<(), FrameError> {
    if body.len() > MAX_FRAME {
        return Err(FrameError::TooLarge(body.len()));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. Returns [`FrameError::Closed`] on clean EOF before the
/// length prefix.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut len_buf = [0u8; 4];
    // Distinguish clean close (0 bytes) from a torn prefix.
    let mut got = 0usize;
    while got < 4 {
        let n = r.read(&mut len_buf[got..])?;
        if n == 0 {
            return if got == 0 {
                Err(FrameError::Closed)
            } else {
                Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into()))
            };
        }
        got += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    // Grow with the bytes that actually arrive: a forged prefix alone must
    // not make the reader commit `MAX_FRAME` bytes of memory.
    let mut body = Vec::with_capacity(len.min(INITIAL_BODY_CAPACITY));
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into()));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_multiple_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[9u8; 1000]).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap(), b"first");
        assert_eq!(read_frame(&mut cur).unwrap(), b"");
        assert_eq!(read_frame(&mut cur).unwrap(), vec![9u8; 1000]);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_frame_rejected_on_write() {
        let mut buf = Vec::new();
        let huge = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(
            write_frame(&mut buf, &huge),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn oversized_prefix_rejected_on_read() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cur = Cursor::new(buf);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn torn_prefix_is_io_error_not_closed() {
        let mut cur = Cursor::new(vec![1u8, 0]); // 2 of 4 length bytes
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Io(_))));
    }

    /// A peer that sends `prefix` and then EOF, recording the largest
    /// buffer the reader hands it.
    struct RecordingPeer {
        data: Cursor<Vec<u8>>,
        largest_buf: usize,
    }

    impl Read for RecordingPeer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_buf = self.largest_buf.max(buf.len());
            self.data.read(buf)
        }
    }

    #[test]
    fn forged_prefix_does_not_allocate_the_claimed_length() {
        let mut bytes = (MAX_FRAME as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[7u8; 10]);
        let mut peer = RecordingPeer {
            data: Cursor::new(bytes),
            largest_buf: 0,
        };
        assert!(matches!(
            read_frame(&mut peer),
            Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof
        ));
        assert!(
            peer.largest_buf <= INITIAL_BODY_CAPACITY,
            "reader asked for a {}-byte buffer",
            peer.largest_buf
        );
    }

    #[test]
    fn torn_body_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cur = Cursor::new(buf);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Io(_))));
    }
}
