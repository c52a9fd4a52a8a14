//! Hand-rolled little-endian binary codec and the [`Snapshot`] trait.
//!
//! The codec is deliberately boring: every scalar is fixed-width
//! little-endian, every sequence is a `u64` length prefix followed by its
//! elements, `f64` round-trips through [`f64::to_bits`] so snapshots are
//! **bit-identical** (recovery equivalence demands that the maintained
//! dissimilarity sums come back with the exact accumulated bits, not a
//! re-parsed approximation), and `Option<f64>` is a tag byte plus the bits.
//! There is no compression, no varint, no schema evolution inside a version
//! — any layout change bumps the format version constant instead.

use crate::error::StoreError;

/// Types that can write themselves into / read themselves back from the
/// deterministic binary snapshot format.
///
/// Implementations live next to the state they persist: the window substrate
/// implements it in `tkcm-timeseries`, the engine in `tkcm-core`.  Encoding
/// is fallible because some in-memory states are legitimately not
/// snapshotable (e.g. an engine running a custom dissimilarity measure that
/// the decoder could not reconstruct).
pub trait Snapshot: Sized {
    /// Appends the binary representation of `self` to the encoder.
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError>;

    /// Reads one value back; must consume exactly the bytes
    /// [`Snapshot::write_into`] produced.
    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError>;
}

/// Encodes a value into a standalone byte vector.
pub fn encode_to_vec<T: Snapshot>(value: &T) -> Result<Vec<u8>, StoreError> {
    let mut enc = Encoder::new();
    value.write_into(&mut enc)?;
    Ok(enc.into_bytes())
}

/// Decodes a value from a byte slice, demanding full consumption (trailing
/// bytes mean the payload was produced by a different layout and are
/// reported as corruption rather than ignored).
pub fn decode_from_slice<T: Snapshot>(bytes: &[u8]) -> Result<T, StoreError> {
    let mut dec = Decoder::new(bytes);
    let value = T::read_from(&mut dec)?;
    dec.finish()?;
    Ok(value)
}

/// Append-only little-endian byte writer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// An encoder that appends after the bytes already in `buf` (a file
    /// header, earlier records), so the framing around an encoding is built
    /// in the same buffer instead of copied around it afterwards.
    pub(crate) fn from_vec(buf: Vec<u8>) -> Self {
        Encoder { buf }
    }

    /// The encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (sizes must survive 32 ↔ 64-bit hosts).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `bool` as a single `0`/`1` byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes an optional `f64` as a tag byte plus (when present) the bits.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes_prefixed(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a sequence of fixed-width items, each already in its
    /// little-endian bytes: the `u64` length, then the items back to back —
    /// the bytes `Vec<T>` writes for an item type of `N` bytes, with one
    /// reservation for the whole sequence instead of a push per field.
    pub fn fixed_seq<const N: usize>(&mut self, items: impl ExactSizeIterator<Item = [u8; N]>) {
        self.usize(items.len());
        let start = self.buf.len();
        self.buf.resize(start + N * items.len(), 0);
        for (slot, item) in self.buf[start..].chunks_exact_mut(N).zip(items) {
            slot.copy_from_slice(&item);
        }
    }
}

/// Cursor over an encoded byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Fails unless every byte has been consumed.
    pub fn finish(&self) -> Result<(), StoreError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StoreError::corrupt(format!(
                "{} trailing byte(s) after the last decoded field",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.data.get(self.pos..end))
            .ok_or_else(|| {
                StoreError::corrupt(format!(
                    "needed {n} byte(s) at offset {}, only {} left",
                    self.pos,
                    self.remaining()
                ))
            })?;
        self.pos += n;
        Ok(slice)
    }

    /// Takes the next `N` bytes as a fixed-size array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        <[u8; N]>::try_from(self.take(N)?).map_err(|_| {
            StoreError::corrupt(format!("internal: take({N}) returned a mis-sized slice"))
        })
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Reads a `usize` written by [`Encoder::usize`], rejecting values that
    /// do not fit the host.
    pub fn usize(&mut self) -> Result<usize, StoreError> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| StoreError::corrupt(format!("size {v} does not fit this host's usize")))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`, rejecting any byte other than `0`/`1`.
    pub fn bool(&mut self) -> Result<bool, StoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::corrupt(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads an optional `f64` written by [`Encoder::opt_f64`].
    pub fn opt_f64(&mut self) -> Result<Option<f64>, StoreError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            other => Err(StoreError::corrupt(format!("invalid option tag {other}"))),
        }
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes_prefixed(&mut self) -> Result<&'a [u8], StoreError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Reads a sequence written by [`Encoder::fixed_seq`], turning each
    /// `N`-byte item into a `T` with `item`, which may refuse it.  The
    /// length is checked against the remaining bytes before anything is
    /// allocated.
    pub fn fixed_seq<const N: usize, T>(
        &mut self,
        mut item: impl FnMut([u8; N]) -> Result<T, StoreError>,
    ) -> Result<Vec<T>, StoreError> {
        let len = self.usize()?;
        let bytes = len
            .checked_mul(N)
            .ok_or_else(|| StoreError::corrupt(format!("sequence of {len} item(s) overflows")))
            .and_then(|n| self.take(n))?;
        let mut out = Vec::with_capacity(len);
        for chunk in bytes.chunks_exact(N) {
            let raw = <[u8; N]>::try_from(chunk).map_err(|_| {
                StoreError::corrupt(format!("internal: a sequence chunk is not {N} byte(s)"))
            })?;
            out.push(item(raw)?);
        }
        Ok(out)
    }

    /// Reads a sequence length, sanity-capped so that a corrupted length
    /// prefix cannot trigger a giant allocation before the checksum layer
    /// would have caught it.
    pub fn seq_len(&mut self) -> Result<usize, StoreError> {
        let len = self.usize()?;
        // 8 bytes per element is the smallest element this codec produces in
        // sequences; anything claiming more elements than remaining bytes is
        // structurally impossible.
        if len > self.remaining() {
            return Err(StoreError::corrupt(format!(
                "sequence claims {len} element(s) but only {} byte(s) remain",
                self.remaining()
            )));
        }
        Ok(len)
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        enc.usize(self.len());
        for item in self {
            item.write_into(enc)?;
        }
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        let len = dec.seq_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::read_from(dec)?);
        }
        Ok(out)
    }
}

impl Snapshot for u64 {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        enc.u64(*self);
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        dec.u64()
    }
}

impl Snapshot for f64 {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        enc.f64(*self);
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        dec.f64()
    }
}

impl Snapshot for Option<f64> {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        enc.opt_f64(*self);
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        dec.opt_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut enc = Encoder::new();
        enc.u8(7);
        enc.u32(0xDEAD_BEEF);
        enc.u64(u64::MAX);
        enc.i64(-42);
        enc.usize(123_456);
        enc.f64(-0.1);
        enc.bool(true);
        enc.bool(false);
        enc.opt_f64(Some(f64::NAN));
        enc.opt_f64(None);
        enc.bytes_prefixed(b"abc");

        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), u64::MAX);
        assert_eq!(dec.i64().unwrap(), -42);
        assert_eq!(dec.usize().unwrap(), 123_456);
        assert_eq!(dec.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(dec.bool().unwrap());
        assert!(!dec.bool().unwrap());
        // NaN round-trips bit-exactly.
        assert_eq!(
            dec.opt_f64().unwrap().unwrap().to_bits(),
            f64::NAN.to_bits()
        );
        assert_eq!(dec.opt_f64().unwrap(), None);
        assert_eq!(dec.bytes_prefixed().unwrap(), b"abc");
        dec.finish().unwrap();
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut enc = Encoder::new();
        enc.u64(1);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes[..5]);
        assert!(dec.u64().is_err());
    }

    #[test]
    fn invalid_tags_are_rejected() {
        let mut dec = Decoder::new(&[2]);
        assert!(dec.bool().is_err());
        let mut dec = Decoder::new(&[9]);
        assert!(dec.opt_f64().is_err());
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let mut enc = Encoder::new();
        enc.u32(1);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        dec.u8().unwrap();
        assert!(dec.finish().is_err());
    }

    #[test]
    fn vec_and_option_snapshot_round_trip() {
        let v: Vec<Option<f64>> = vec![Some(1.5), None, Some(-0.0)];
        let bytes = encode_to_vec(&v).unwrap();
        let back: Vec<Option<f64>> = decode_from_slice(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], Some(1.5));
        assert_eq!(back[1], None);
        assert_eq!(back[2].unwrap().to_bits(), (-0.0f64).to_bits());
        // Trailing garbage is corruption.
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(decode_from_slice::<Vec<Option<f64>>>(&longer).is_err());
    }

    #[test]
    fn fixed_sequences_write_the_bytes_of_vec_and_read_them_back() {
        let values = [1.5, -0.0, f64::NAN, f64::MAX, 3.25];
        let mut enc = Encoder::new();
        enc.fixed_seq(values.iter().map(|v| v.to_bits().to_le_bytes()));
        assert_eq!(enc.bytes(), encode_to_vec(&values.to_vec()).unwrap());
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = dec
            .fixed_seq(|b| Ok(f64::from_bits(u64::from_le_bytes(b))))
            .unwrap();
        dec.finish().unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&values));

        // Single bytes, a refused item, a truncated tail and a length
        // that cannot fit all fail the read.
        let mut enc = Encoder::new();
        enc.fixed_seq([0u8, 1, 2].into_iter().map(|b| [b]));
        let bytes = enc.into_bytes();
        assert_eq!(&bytes[8..], &[0, 1, 2]);
        let refuse_two = |[b]: [u8; 1]| match b {
            2 => Err(StoreError::corrupt("tag 2")),
            b => Ok(b),
        };
        assert!(Decoder::new(&bytes).fixed_seq(refuse_two).is_err());
        let read = |bytes: &[u8]| Decoder::new(bytes).fixed_seq(|[b]: [u8; 1]| Ok(b));
        assert_eq!(read(&bytes).unwrap(), vec![0, 1, 2]);
        assert!(read(&bytes[..10]).is_err());
        let mut huge = Encoder::new();
        huge.usize(usize::MAX / 2);
        assert!(Decoder::new(huge.bytes())
            .fixed_seq(|b: [u8; 8]| Ok(u64::from_le_bytes(b)))
            .is_err());
    }

    #[test]
    fn absurd_sequence_lengths_are_rejected_early() {
        let mut enc = Encoder::new();
        enc.usize(usize::MAX / 2);
        let bytes = enc.into_bytes();
        assert!(decode_from_slice::<Vec<u64>>(&bytes).is_err());
    }
}
