//! Length-prefixed binary wire codec.
//!
//! Calliope components exchange control information over TCP (paper §2):
//! clients talk to the Coordinator, the Coordinator talks to MSUs, and
//! MSUs open control connections back to clients for VCR commands. All of
//! those connections carry *frames*: a little-endian `u32` length followed
//! by that many bytes of message payload, where the payload is a tagged
//! binary encoding defined by the [`Wire`] trait.
//!
//! The codec is hand-rolled rather than derived: the format is tiny and
//! fixed, every message is enumerated in [`messages`], and owning the
//! byte layout keeps the control plane free of heavyweight dependencies —
//! in the spirit of the original system, which ran on 66 MHz Pentiums.
//!
//! Integers are little-endian. Strings are a `u32` length followed by
//! UTF-8 bytes. `Vec<T>` is a `u32` count followed by the elements.
//! `Option<T>` is a presence byte followed by the value. Enums are a tag
//! byte (documented per type) followed by the variant fields.
//!
//! The UDP data-packet header lives in [`data`]; TCP control messages in
//! [`messages`].

pub mod data;
pub mod messages;
pub mod stats;

use core::fmt;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

/// Maximum accepted frame payload, guarding against corrupt or hostile
/// length prefixes. Control messages are small; 16 MiB is generous.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Errors produced while decoding wire data.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// Which enum.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Bytes remained after the message was fully decoded.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A frame length prefix exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The claimed length.
        len: u32,
    },
    /// A collection length was absurdly large for the remaining input.
    BadLength {
        /// What was being decoded.
        what: &'static str,
        /// The claimed element count or byte length.
        len: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "truncated while decoding {what}"),
            WireError::BadTag { what, tag } => write!(f, "bad tag {tag} for {what}"),
            WireError::BadUtf8 => f.write_str("invalid utf-8 in string"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
            WireError::FrameTooLarge { len } => write!(f, "frame length {len} exceeds limit"),
            WireError::BadLength { what, len } => {
                write!(f, "implausible length {len} for {what}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over a byte slice being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        self.take(n, what)
    }
}

/// A type that can be encoded to and decoded from the Calliope wire
/// format.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value, advancing the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encodes `self` into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Decodes a value from a complete buffer, rejecting trailing bytes.
    fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: r.remaining(),
            });
        }
        Ok(v)
    }
}

impl Wire for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u8("u8")
    }
}

impl Wire for u16 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u16("u16")
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u32("u32")
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64("u64")
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("bool")? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.u32("string length")? as usize;
        if len > r.remaining() {
            return Err(WireError::BadLength {
                what: "string",
                len: len as u64,
            });
        }
        let bytes = r.bytes(len, "string bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.u32("vec length")? as usize;
        // Each element takes at least one byte, so a count beyond the
        // remaining input is certainly corrupt; checking up front avoids
        // huge speculative allocations.
        if len > r.remaining() {
            return Err(WireError::BadLength {
                what: "vec",
                len: len as u64,
            });
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("option tag")? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "option",
                tag,
            }),
        }
    }
}

impl Wire for SocketAddr {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self.ip() {
            IpAddr::V4(ip) => {
                buf.push(4);
                buf.extend_from_slice(&ip.octets());
            }
            IpAddr::V6(ip) => {
                buf.push(6);
                buf.extend_from_slice(&ip.octets());
            }
        }
        self.port().encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let ip = match r.u8("socket addr family")? {
            4 => {
                let b = r.bytes(4, "ipv4 octets")?;
                IpAddr::V4(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
            }
            6 => {
                let b = r.bytes(16, "ipv6 octets")?;
                let mut o = [0u8; 16];
                o.copy_from_slice(b);
                IpAddr::V6(Ipv6Addr::from(o))
            }
            tag => {
                return Err(WireError::BadTag {
                    what: "socket addr family",
                    tag,
                })
            }
        };
        let port = r.u16("socket addr port")?;
        Ok(SocketAddr::new(ip, port))
    }
}

/// Writes one frame (length prefix + payload) to a stream and returns
/// its length on the wire, prefix included.
///
/// The payload is the wire encoding of `msg`, encoded in place after a
/// placeholder prefix that is patched once the length is known.
/// Flushing is left to the caller so several frames can be batched.
pub fn write_frame<W: Write, T: Wire>(w: &mut W, msg: &T) -> io::Result<usize> {
    let mut frame = vec![0u8; 4];
    msg.encode(&mut frame);
    let payload_len = frame.len() - 4;
    debug_assert!(payload_len as u64 <= MAX_FRAME_LEN as u64);
    frame[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    w.write_all(&frame)?;
    Ok(frame.len())
}

/// Reads one frame from a stream and decodes it.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer closed
/// the connection between messages), an error otherwise.
pub fn read_frame<R: Read, T: Wire>(r: &mut R) -> io::Result<Option<T>> {
    Ok(read_frame_len(r)?.map(|(msg, _)| msg))
}

/// [`read_frame`], also returning the frame's length on the wire
/// (prefix included), as parsed from its length prefix.
pub fn read_frame_len<R: Read, T: Wire>(r: &mut R) -> io::Result<Option<(T, usize)>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::FrameTooLarge { len },
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    T::from_bytes(&payload)
        .map(|msg| Some((msg, 4 + payload.len())))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

// Wire impls for the small types defined elsewhere in this crate.

use crate::content::{ContentEntry, ContentKind, ContentTypeSpec, ProtocolId, TypeBody};
use crate::ids::{ClientId, ContentId, DiskId, GroupId, MsuId, PortId, SessionId, StreamId};
use crate::time::{BitRate, ByteRate, MediaTime};
use crate::vcr::VcrCommand;

macro_rules! wire_newtype_u64 {
    ($($t:ty),*) => {
        $(impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                self.0.encode(buf);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(Self(u64::decode(r)?))
            }
        })*
    };
}

wire_newtype_u64!(
    ClientId, SessionId, StreamId, MsuId, DiskId, ContentId, PortId, GroupId, MediaTime, BitRate,
    ByteRate
);

impl Wire for ProtocolId {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.tag());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.u8("protocol id")?;
        ProtocolId::from_tag(tag).ok_or(WireError::BadTag {
            what: "protocol id",
            tag,
        })
    }
}

impl Wire for ContentKind {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ContentKind::Constant { rate } => {
                buf.push(0);
                rate.encode(buf);
            }
            ContentKind::Variable { bandwidth, storage } => {
                buf.push(1);
                bandwidth.encode(buf);
                storage.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("content kind")? {
            0 => Ok(ContentKind::Constant {
                rate: BitRate::decode(r)?,
            }),
            1 => Ok(ContentKind::Variable {
                bandwidth: BitRate::decode(r)?,
                storage: ByteRate::decode(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "content kind",
                tag,
            }),
        }
    }
}

impl Wire for TypeBody {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            TypeBody::Atomic { protocol, kind } => {
                buf.push(0);
                protocol.encode(buf);
                kind.encode(buf);
            }
            TypeBody::Composite { components } => {
                buf.push(1);
                components.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("type body")? {
            0 => Ok(TypeBody::Atomic {
                protocol: ProtocolId::decode(r)?,
                kind: ContentKind::decode(r)?,
            }),
            1 => Ok(TypeBody::Composite {
                components: Vec::<String>::decode(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "type body",
                tag,
            }),
        }
    }
}

impl Wire for ContentTypeSpec {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.name.encode(buf);
        self.body.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ContentTypeSpec {
            name: String::decode(r)?,
            body: TypeBody::decode(r)?,
        })
    }
}

impl Wire for ContentEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.name.encode(buf);
        self.type_name.encode(buf);
        self.bytes.encode(buf);
        self.duration_us.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ContentEntry {
            name: String::decode(r)?,
            type_name: String::decode(r)?,
            bytes: u64::decode(r)?,
            duration_us: u64::decode(r)?,
        })
    }
}

impl Wire for VcrCommand {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.tag());
        if let VcrCommand::Seek(t) = self {
            t.encode(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("vcr command")? {
            0 => Ok(VcrCommand::Play),
            1 => Ok(VcrCommand::Pause),
            2 => Ok(VcrCommand::Seek(MediaTime::decode(r)?)),
            3 => Ok(VcrCommand::FastForward),
            4 => Ok(VcrCommand::FastBackward),
            5 => Ok(VcrCommand::Quit),
            tag => Err(WireError::BadTag {
                what: "vcr command",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip<T: Wire + PartialEq + core::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&0xABCDu16);
        round_trip(&0xDEADBEEFu32);
        round_trip(&u64::MAX);
        round_trip(&true);
        round_trip(&false);
        round_trip(&String::from("héllo wörld"));
        round_trip(&vec![1u32, 2, 3]);
        round_trip(&Option::<u64>::None);
        round_trip(&Some(42u64));
    }

    #[test]
    fn socket_addrs_round_trip() {
        round_trip(&"127.0.0.1:8080".parse::<SocketAddr>().unwrap());
        round_trip(&"[::1]:9".parse::<SocketAddr>().unwrap());
    }

    #[test]
    fn calliope_types_round_trip() {
        round_trip(&StreamId(99));
        round_trip(&MediaTime::from_millis(1500));
        round_trip(&VcrCommand::Seek(MediaTime::from_secs(30)));
        round_trip(&VcrCommand::Quit);
        for spec in crate::content::builtin_types() {
            round_trip(&spec);
        }
        round_trip(&ContentEntry {
            name: "lecture-1".into(),
            type_name: "seminar".into(),
            bytes: 1_350_000_000,
            duration_us: 7_200_000_000,
        });
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let full = VcrCommand::Seek(MediaTime::from_secs(1)).to_bytes();
        for cut in 0..full.len() {
            let err = VcrCommand::from_bytes(&full[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 7u32.to_bytes();
        bytes.push(0);
        assert_eq!(
            u32::from_bytes(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert!(matches!(
            bool::from_bytes(&[7]),
            Err(WireError::BadTag { what: "bool", .. })
        ));
        assert!(matches!(
            VcrCommand::from_bytes(&[99]),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn huge_vec_length_is_rejected_without_allocating() {
        // Claims 4 billion elements but provides none.
        let bytes = u32::MAX.to_bytes();
        assert!(matches!(
            Vec::<u64>::from_bytes(&bytes),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn frame_format_is_a_length_prefix_then_the_payload() {
        let mut buf: Vec<u8> = Vec::new();
        let n = write_frame(&mut buf, &String::from("abc")).unwrap();
        // Prefix: payload length 7 as u32 LE. Payload: the string's
        // own u32 LE length, then its bytes.
        assert_eq!(buf, [7, 0, 0, 0, 3, 0, 0, 0, b'a', b'b', b'c']);
        assert_eq!(n, buf.len());
        let read: Option<(String, usize)> =
            read_frame_len(&mut std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(read, Some(("abc".to_string(), buf.len())));
    }

    #[test]
    fn frame_round_trip_over_a_pipe() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, &String::from("frame one")).unwrap();
        write_frame(&mut buf, &String::from("frame two")).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let a: Option<String> = read_frame(&mut cursor).unwrap();
        let b: Option<String> = read_frame(&mut cursor).unwrap();
        let c: Option<String> = read_frame(&mut cursor).unwrap();
        assert_eq!(a.as_deref(), Some("frame one"));
        assert_eq!(b.as_deref(), Some("frame two"));
        assert_eq!(c, None, "clean EOF yields None");
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        let res: io::Result<Option<String>> = read_frame(&mut cursor);
        assert!(res.is_err());
    }

    #[test]
    fn partial_frame_is_an_io_error() {
        // Length says 10 bytes but only 3 follow: mid-frame EOF must be an
        // error, not a clean None.
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        let mut cursor = std::io::Cursor::new(buf);
        let res: io::Result<Option<String>> = read_frame(&mut cursor);
        assert!(res.is_err());
    }

    proptest! {
        #[test]
        fn prop_strings_round_trip(s in ".*") {
            round_trip(&s);
        }

        #[test]
        fn prop_vecs_round_trip(v in proptest::collection::vec(any::<u64>(), 0..100)) {
            round_trip(&v);
        }

        #[test]
        fn prop_media_times_round_trip(us in any::<u64>()) {
            round_trip(&MediaTime(us));
        }

        #[test]
        fn prop_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Decoding arbitrary bytes may fail but must not panic.
            let _ = VcrCommand::from_bytes(&bytes);
            let _ = ContentTypeSpec::from_bytes(&bytes);
            let _ = Vec::<String>::from_bytes(&bytes);
            let _ = SocketAddr::from_bytes(&bytes);
        }

        #[test]
        fn prop_nested_options_round_trip(v in any::<Option<Option<u32>>>()) {
            round_trip(&v);
        }
    }
}
