//! CRC-32 (IEEE 802.3 polynomial) over byte slices.
//!
//! Every snapshot payload and every WAL record carries a CRC so that a
//! flipped bit anywhere in a file is *detected* at recovery time instead of
//! being silently replayed into engine state.  Every byte the store writes or
//! reads passes through this kernel exactly once, so it runs at memory speed:
//! a slicing-by-16 loop folds 16 bytes per step through 16 lookup tables
//! (table `k` advances a byte's contribution by `k` further bytes), and the
//! bytewise loop over table 0 finishes the last `len % 16` bytes.  The tables
//! are built at compile time by a `const fn`; no external dependency is
//! needed.  `crc32_extend` continues a finished checksum over more bytes,
//! so one checksum can cover data that is not contiguous in memory (the
//! snapshot's version bytes and payload) without joining it into a new
//! buffer.

/// The reflected IEEE polynomial used by zip, Ethernet, PNG, ...
const POLYNOMIAL: u32 = 0xEDB8_8320;

/// Bytes folded per step of the sliced loop (one table per byte).
const SLICES: usize = 16;

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLYNOMIAL
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = build_tables();

/// CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// Continues the finished checksum `crc` of some bytes `a` over `bytes`:
/// `crc32_extend(crc32(a), b) == crc32(a ++ b)`, and `crc32_extend(0, b)`
/// is `crc32(b)`.
pub(crate) fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !crc;
    let (blocks, tail) = bytes.as_chunks::<SLICES>();
    for b in blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][usize::from(lo as u8)]
            ^ t[14][usize::from((lo >> 8) as u8)]
            ^ t[13][usize::from((lo >> 16) as u8)]
            ^ t[12][usize::from((lo >> 24) as u8)]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ b)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise reference loop the sliced kernel must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            let idx = ((crc ^ b as u32) & 0xFF) as usize;
            crc = (crc >> 8) ^ TABLES[0][idx];
        }
        !crc
    }

    /// A deterministic pseudo-random buffer (xorshift64).
    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        for check in [&b"123456789"[..], b"", b"The quick brown fox"] {
            assert_eq!(crc32(check), crc32_bytewise(check));
        }
    }

    #[test]
    fn the_sliced_kernel_matches_the_bytewise_loop_at_every_length_and_offset() {
        let data = noise(300 + SLICES);
        for start in 0..SLICES {
            for len in 0..=300 {
                let bytes = &data[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "length {len} at offset {start}"
                );
            }
        }
    }

    #[test]
    fn extending_at_every_split_point_equals_the_whole_checksum() {
        let data = noise(300);
        let whole = crc32(&data);
        assert_eq!(whole, crc32_bytewise(&data));
        for split in 0..=data.len() {
            let (head, tail) = data.split_at(split);
            assert_eq!(crc32_extend(crc32(head), tail), whole, "split at {split}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"snapshot payload bytes".to_vec();
        let reference = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8u8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&flipped),
                    reference,
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }
}
