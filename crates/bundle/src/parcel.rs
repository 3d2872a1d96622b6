//! A binder-style flat byte buffer.
//!
//! `Parcel` gives the simulator a byte-accurate flattening of bundles so the
//! memory model can account for saved-state footprints, and so IPC payload
//! sizes can feed the latency model. The format is a simple length-prefixed
//! tag stream; it can be read back, which the tests use to prove the
//! flattening is lossless.

use crate::bundle::{Bundle, Value};

/// A flat byte buffer with Android-Parcel-like typed read/write.
///
/// # Examples
///
/// ```
/// use droidsim_bundle::{Bundle, Parcel};
///
/// let mut b = Bundle::new();
/// b.put_i32("answer", 42);
/// let mut p = Parcel::new();
/// p.write_bundle(&b);
/// let restored = p.into_reader().read_bundle().expect("lossless");
/// assert_eq!(restored.i32("answer"), Some(42));
/// ```
#[derive(Debug, Default)]
pub struct Parcel {
    buf: Vec<u8>,
}

/// A reader over a finished parcel: the bytes plus a read offset.
#[derive(Debug)]
pub struct ParcelReader {
    buf: Vec<u8>,
    pos: usize,
}

/// Error produced when reading a malformed parcel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParcelError {
    what: &'static str,
}

impl core::fmt::Display for ParcelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "malformed parcel: {}", self.what)
    }
}

impl std::error::Error for ParcelError {}

const TAG_BOOL: u8 = 1;
const TAG_I32: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_BLOB: u8 = 6;
const TAG_I32LIST: u8 = 7;
const TAG_STRLIST: u8 = 8;
const TAG_BUNDLE: u8 = 9;

impl Parcel {
    /// Creates an empty parcel.
    pub fn new() -> Self {
        Parcel::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a string (length-prefixed UTF-8).
    pub fn write_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a single value with its type tag.
    pub fn write_value(&mut self, value: &Value) {
        match value {
            Value::Bool(v) => {
                self.buf.push(TAG_BOOL);
                self.buf.push(u8::from(*v));
            }
            Value::I32(v) => {
                self.buf.push(TAG_I32);
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
            Value::I64(v) => {
                self.buf.push(TAG_I64);
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
            Value::F64(v) => {
                self.buf.push(TAG_F64);
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
            Value::Str(v) => {
                self.buf.push(TAG_STR);
                self.write_str(v);
            }
            Value::Blob(v) => {
                self.buf.push(TAG_BLOB);
                self.put_u32(v.len() as u32);
                self.buf.extend_from_slice(v);
            }
            Value::I32List(v) => {
                self.buf.push(TAG_I32LIST);
                self.put_u32(v.len() as u32);
                for item in v {
                    self.buf.extend_from_slice(&item.to_le_bytes());
                }
            }
            Value::StrList(v) => {
                self.buf.push(TAG_STRLIST);
                self.put_u32(v.len() as u32);
                for item in v {
                    self.write_str(item);
                }
            }
            Value::Nested(v) => {
                self.buf.push(TAG_BUNDLE);
                self.write_bundle(v);
            }
        }
    }

    /// Writes a whole bundle (entry count, then sorted key/value pairs).
    pub fn write_bundle(&mut self, bundle: &Bundle) {
        self.put_u32(bundle.len() as u32);
        for (key, value) in bundle.iter() {
            self.write_str(key);
            self.write_value(value);
        }
    }

    /// Finishes writing and returns a reader over the bytes.
    pub fn into_reader(self) -> ParcelReader {
        ParcelReader::from_bytes(self.buf)
    }

    /// Finishes writing and returns the raw bytes (binder wire format).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl ParcelReader {
    /// Creates a reader over raw bytes previously produced by
    /// [`Parcel::into_bytes`] (or received "over the wire").
    pub fn from_bytes(bytes: Vec<u8>) -> ParcelReader {
        ParcelReader { buf: bytes, pos: 0 }
    }
}

impl ParcelReader {
    fn need(&self, n: usize, what: &'static str) -> Result<(), ParcelError> {
        if self.remaining() < n {
            Err(ParcelError { what })
        } else {
            Ok(())
        }
    }

    /// Consumes the next `n` bytes; callers check [`Self::need`] first.
    fn take(&mut self, n: usize) -> &[u8] {
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        bytes
    }

    /// Consumes the next `N` bytes as an array.
    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        self.take(N).try_into().expect("take returns N bytes")
    }

    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take_array())
    }

    fn get_i32_le(&mut self) -> i32 {
        i32::from_le_bytes(self.take_array())
    }

    /// Reads a length-prefixed string.
    pub fn read_str(&mut self) -> Result<String, ParcelError> {
        self.need(4, "string length")?;
        let len = self.get_u32_le() as usize;
        self.need(len, "string bytes")?;
        String::from_utf8(self.take(len).to_vec()).map_err(|_| ParcelError { what: "utf-8" })
    }

    /// Reads one tagged value.
    pub fn read_value(&mut self) -> Result<Value, ParcelError> {
        self.need(1, "value tag")?;
        let tag = self.get_u8();
        Ok(match tag {
            TAG_BOOL => {
                self.need(1, "bool")?;
                Value::Bool(self.get_u8() != 0)
            }
            TAG_I32 => {
                self.need(4, "i32")?;
                Value::I32(self.get_i32_le())
            }
            TAG_I64 => {
                self.need(8, "i64")?;
                Value::I64(i64::from_le_bytes(self.take_array()))
            }
            TAG_F64 => {
                self.need(8, "f64")?;
                Value::F64(f64::from_le_bytes(self.take_array()))
            }
            TAG_STR => Value::Str(self.read_str()?),
            TAG_BLOB => {
                self.need(4, "blob length")?;
                let len = self.get_u32_le() as usize;
                self.need(len, "blob bytes")?;
                Value::Blob(self.take(len).to_vec())
            }
            TAG_I32LIST => {
                self.need(4, "list length")?;
                let len = self.get_u32_le() as usize;
                self.need(len * 4, "list items")?;
                Value::I32List((0..len).map(|_| self.get_i32_le()).collect())
            }
            TAG_STRLIST => {
                self.need(4, "list length")?;
                let len = self.get_u32_le() as usize;
                let mut items = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    items.push(self.read_str()?);
                }
                Value::StrList(items)
            }
            TAG_BUNDLE => Value::Nested(self.read_bundle()?),
            _ => {
                return Err(ParcelError {
                    what: "unknown tag",
                })
            }
        })
    }

    /// Reads a whole bundle.
    pub fn read_bundle(&mut self) -> Result<Bundle, ParcelError> {
        self.need(4, "bundle length")?;
        let len = self.get_u32_le() as usize;
        let mut entries = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            let key = self.read_str()?;
            let value = self.read_value()?;
            entries.push((key, value));
        }
        Ok(entries.into_iter().collect())
    }

    /// Unread bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> Bundle {
        let mut inner = Bundle::new();
        inner.put_i32("selector_pos", 3);
        inner.put("checked", vec![1, 4, 7]);
        let mut b = Bundle::new();
        b.put_bool("alarm_on", true);
        b.put_i64("epoch", 1_234_567_890);
        b.put_f64("brightness", 0.75);
        b.put_string("text", "draft message");
        b.put("blob", vec![0u8, 255, 128]);
        b.put("labels", vec!["a".to_owned(), "b".to_owned()]);
        b.put_bundle("listview", inner);
        b
    }

    #[test]
    fn round_trip_is_lossless() {
        let original = sample_bundle();
        let mut parcel = Parcel::new();
        parcel.write_bundle(&original);
        let mut reader = parcel.into_reader();
        let restored = reader.read_bundle().expect("parcel should parse");
        assert_eq!(restored, original);
        assert_eq!(reader.remaining(), 0);
    }

    #[test]
    fn empty_bundle_round_trips() {
        let mut parcel = Parcel::new();
        parcel.write_bundle(&Bundle::new());
        assert_eq!(parcel.len(), 4);
        let restored = parcel.into_reader().read_bundle().unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn wire_format_is_tagged_little_endian() {
        let mut b = Bundle::new();
        b.put_bool("b", true);
        b.put_i32("i", -2);
        b.put_i64("l", 1 << 40);
        b.put_f64("f", 0.75);
        let mut parcel = Parcel::new();
        parcel.write_bundle(&b);
        #[rustfmt::skip]
        let want: Vec<u8> = vec![
            4, 0, 0, 0, // entry count
            1, 0, 0, 0, b'b', TAG_BOOL, 1,
            1, 0, 0, 0, b'f', TAG_F64, 0, 0, 0, 0, 0, 0, 0xe8, 0x3f,
            1, 0, 0, 0, b'i', TAG_I32, 0xfe, 0xff, 0xff, 0xff,
            1, 0, 0, 0, b'l', TAG_I64, 0, 0, 0, 0, 0, 1, 0, 0,
        ];
        assert_eq!(parcel.into_bytes(), want);
    }

    #[test]
    fn truncated_parcel_errors() {
        let mut parcel = Parcel::new();
        parcel.write_bundle(&sample_bundle());
        let mut bytes = parcel.into_bytes();
        bytes.truncate(bytes.len() / 2);
        let mut truncated = ParcelReader::from_bytes(bytes);
        assert!(truncated.read_bundle().is_err());
    }

    #[test]
    fn unknown_tag_errors() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes()); // one entry
        buf.extend_from_slice(&1u32.to_le_bytes()); // key length
        buf.extend_from_slice(b"k");
        buf.push(99); // bogus tag
        let mut reader = ParcelReader::from_bytes(buf);
        let err = reader.read_bundle().unwrap_err();
        assert_eq!(err.to_string(), "malformed parcel: unknown tag");
    }
}
