//! The binary trace format: block-framed, delta-encoded records, every
//! frame sealed with a chained CRC-32C.
//!
//! ```text
//! magic  "BPTR"            4 bytes
//! version u32              3
//! name_len u32, name bytes
//! record_count u64         u64::MAX when unknown (streamed writes)
//! blocks:
//!   count u32              records in this block (> 0)
//!   payload_len u32        payload bytes (> 0)
//!   payload                delta-encoded records
//!   crc u32                CRC-32C, see below
//! terminator:
//!   count u32 = 0
//!   payload_len u32 = 8
//!   payload                total record count u64 (authoritative)
//!   crc u32
//! ```
//!
//! Within a block each record is:
//!
//! ```text
//! flags   u8               kind code in bits 0..2, taken in bit 3,
//!                          bits 4..7 reserved (must be zero)
//! pc      varint           zigzag(pc - previous record's pc)
//! target  varint           zigzag(target - pc)
//! leading varint           leading_instructions
//! ```
//!
//! Varints are LEB128. The PC delta chain resets at every block
//! boundary (the first record of a block encodes its delta from 0).
//!
//! **Checksums.** Each frame's `crc` is the CRC-32C (Castagnoli,
//! reflected polynomial `0x82F63B78`) of the frame's `count`,
//! `payload_len` and payload, chained from the previous frame's CRC;
//! the first frame's chain starts from the CRC of the file header. A
//! frame's CRC is therefore the CRC of every byte before it that is not
//! itself a CRC, so a corrupt header, a dropped or reordered frame, and
//! a flipped payload bit all fail the same check. The reader checks a
//! frame's CRC before it hands out any of the frame's records; a
//! mismatch is [`TraceIoError::ChecksumMismatch`]. CRC-32C detects
//! every error of up to 3 bits in messages up to 2^31 bits, and a frame
//! is at most [`MAX_BLOCK_BYTES`] (2^27 bits).
//!
//! The terminator makes truncation detectable even for streamed writes
//! whose header count is unknown: a file that ends without it is an I/O
//! error, and a terminator whose count disagrees with the records
//! actually decoded is a [`TraceIoError::CountMismatch`].

use crate::record::{BranchKind, BranchRecord};
use crate::stream::BranchStream;
use crate::trace::Trace;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"BPTR";

/// Version tag of the one format [`write_trace`] and [`BlockWriter`]
/// produce and [`TraceReader`] accepts.
const VERSION: u32 = 3;

/// Header count sentinel for "record count unknown at write time".
const UNKNOWN_COUNT: u64 = u64::MAX;

/// Sanity cap on the header's name length: a corrupt stream must hit
/// the error path, not a multi-gigabyte allocation.
const MAX_NAME_LEN: u32 = 1 << 20;

/// Records per block before the writer flushes: large enough to
/// amortize frame headers and per-block syscalls to noise, small
/// enough that a block's decoded form (~24 bytes/record) stays
/// cache-resident between the decode pass and the consumer.
const BLOCK_RECORDS: u32 = 4096;

/// Sanity cap on a block's payload length: a corrupt frame must hit the
/// error path, not a multi-gigabyte allocation. Writers flushing at
/// [`BLOCK_RECORDS`] stay far below this even at the ~26-byte worst
/// case per record.
const MAX_BLOCK_BYTES: u32 = 1 << 24;

/// Reserved flag bits that must be zero in every record's flags byte.
const FLAG_RESERVED: u8 = 0xF0;
/// Taken bit in the flags byte.
const FLAG_TAKEN: u8 = 0x08;
/// Kind code mask in the flags byte.
const FLAG_KIND: u8 = 0x07;

/// Errors produced while reading or writing a serialized trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream did not start with the expected magic bytes.
    BadMagic([u8; 4]),
    /// The stream uses an unsupported format version.
    UnsupportedVersion(u32),
    /// The trace name is not valid UTF-8.
    BadName,
    /// The header declares an implausibly long trace name (corrupt
    /// stream guard: the length would otherwise be allocated blindly).
    NameTooLong(u32),
    /// A record used an unknown [`BranchKind`] code.
    BadKind(u8),
    /// A record's flags byte has reserved bits set.
    BadFlags(u8),
    /// A varint was longer than the field it encodes.
    BadVarint,
    /// A block declared more payload than the sanity cap allows
    /// (corrupt-frame guard: the length would otherwise be allocated
    /// blindly).
    BlockTooLarge(u32),
    /// Decoding a block ran past its declared payload length.
    BlockOverrun,
    /// A block had payload bytes left after its declared record count
    /// was decoded.
    BlockTrailingBytes(usize),
    /// The terminator frame carried the wrong payload length.
    BadTerminator(u32),
    /// A frame's CRC-32C does not match its bytes: the file is corrupt.
    ChecksumMismatch {
        /// Index of the failing frame (0 is the first block; the
        /// terminator follows the last block).
        block: u64,
    },
    /// The record count declared in the header or terminator disagrees
    /// with the records actually present.
    CountMismatch {
        /// What the header or terminator claimed.
        declared: u64,
        /// What was actually counted.
        actual: u64,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o failure: {e}"),
            TraceIoError::BadMagic(m) => write!(f, "bad trace magic {m:?}"),
            TraceIoError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace version {v} (expected {VERSION})")
            }
            TraceIoError::BadName => write!(f, "trace name is not valid utf-8"),
            TraceIoError::NameTooLong(n) => {
                write!(
                    f,
                    "trace name length {n} exceeds the {MAX_NAME_LEN}-byte cap"
                )
            }
            TraceIoError::BadKind(c) => write!(f, "unknown branch kind code {c}"),
            TraceIoError::BadFlags(b) => {
                write!(f, "record flags {b:#04x} have reserved bits set")
            }
            TraceIoError::BadVarint => write!(f, "varint wider than its field"),
            TraceIoError::BlockTooLarge(n) => {
                write!(f, "block payload length {n} exceeds the sanity cap")
            }
            TraceIoError::BlockOverrun => {
                write!(f, "record decoding ran past the block's payload")
            }
            TraceIoError::BlockTrailingBytes(n) => {
                write!(f, "{n} trailing bytes after the block's declared records")
            }
            TraceIoError::BadTerminator(n) => {
                write!(f, "terminator frame payload length {n}, expected 8")
            }
            TraceIoError::ChecksumMismatch { block } => {
                write!(f, "checksum mismatch in frame {block}")
            }
            TraceIoError::CountMismatch { declared, actual } => {
                write!(f, "declared record count {declared}, found {actual}")
            }
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Slicing-by-8 CRC-32C tables for the reflected polynomial
/// `0x82F63B78`: `CRC32C[0]` is the bytewise table, and `CRC32C[k][b]`
/// advances `CRC32C[0][b]` over `k` more zero bytes, so one step folds
/// eight input bytes with eight independent lookups. A bytewise loop
/// cost 17% of read+simulate throughput; this one stays within noise.
const CRC32C: [[u32; 256]; 8] = crc32c_tables();

const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                (c >> 1) ^ 0x82F6_3B78
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Extends the CRC-32C `crc` of some bytes over `bytes`:
/// `crc32c(crc32c(0, a), b) == crc32c(0, a ++ b)`.
fn crc32c(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = CRC32C[7][(lo & 0xFF) as usize]
            ^ CRC32C[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32C[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32C[4][(lo >> 24) as usize]
            ^ CRC32C[3][w[4] as usize]
            ^ CRC32C[2][w[5] as usize]
            ^ CRC32C[1][w[6] as usize]
            ^ CRC32C[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = CRC32C[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[inline]
fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Precomputed layout of a record whose three varints are all 1–2
/// bytes: bit shifts (`s*`) of each varint's first byte within the
/// 8-byte window, second-byte masks (`m*`: `0x7F` for 2-byte varints,
/// `0` for 1-byte ones), and the record's total byte length. `len == 0`
/// marks layouts that need the careful path (a varint continuing past
/// two bytes).
#[derive(Clone, Copy)]
struct FastLayout {
    s1: u8,
    m1: u8,
    s2: u8,
    m2: u8,
    s3: u8,
    m3: u8,
    len: u8,
}

/// Layout table indexed by the continuation bits of window bytes 1..=6.
///
/// Varint *lengths* are data-dependent, so decoding them sequentially
/// chains a load → test → advance dependency through every field of
/// every record. Gathering all continuation bits at once and looking
/// the whole record layout up from one hot cache region leaves the
/// three value extractions mutually independent — the difference
/// between ~35 and ~20 cycles per record on the simulator's ingest
/// path.
const FAST_LAYOUTS: [FastLayout; 64] = build_fast_layouts();

const fn build_fast_layouts() -> [FastLayout; 64] {
    let empty = FastLayout {
        s1: 0,
        m1: 0,
        s2: 0,
        m2: 0,
        s3: 0,
        m3: 0,
        len: 0,
    };
    let mut table = [empty; 64];
    let mut idx = 0usize;
    while idx < 64 {
        // idx bit (j - 1) is the continuation bit of window byte j.
        let mut off = 1usize; // byte offset of the next varint
        let mut s = [0u8; 3];
        let mut m = [0u8; 3];
        let mut ok = true;
        let mut k = 0usize;
        while k < 3 {
            s[k] = (off * 8) as u8;
            if (idx >> (off - 1)) & 1 == 1 {
                if (idx >> off) & 1 == 1 {
                    // Continues past two bytes: careful path.
                    ok = false;
                    break;
                }
                m[k] = 0x7F;
                off += 2;
            } else {
                m[k] = 0;
                off += 1;
            }
            k += 1;
        }
        if ok {
            table[idx] = FastLayout {
                s1: s[0],
                m1: m[0],
                s2: s[1],
                m2: m[1],
                s3: s[2],
                m3: m[2],
                len: off as u8,
            };
        }
        idx += 1;
    }
    table
}

/// Careful per-byte LEB128 decoder, used at buffer ends and for
/// ≥3-byte varints: decodes one varint from `buf` at `*pos`, advancing
/// `*pos` past it.
///
/// # Errors
///
/// [`TraceIoError::BlockOverrun`] if the varint runs past the end of
/// the buffer, [`TraceIoError::BadVarint`] if it is longer than a u64.
fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, TraceIoError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(TraceIoError::BlockOverrun)?;
        *pos += 1;
        // The 10th byte of a u64 varint may only carry the top bit
        // (shift 63) and no continuation.
        if shift == 63 && byte > 1 {
            return Err(TraceIoError::BadVarint);
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceIoError::BadVarint);
        }
    }
}

fn encode_record(payload: &mut Vec<u8>, record: &BranchRecord, prev_pc: u64) {
    let flags = record.kind.code() | if record.taken { FLAG_TAKEN } else { 0 };
    payload.push(flags);
    push_varint(
        payload,
        zigzag_encode(record.pc.wrapping_sub(prev_pc) as i64),
    );
    push_varint(
        payload,
        zigzag_encode(record.target.wrapping_sub(record.pc) as i64),
    );
    push_varint(payload, u64::from(record.leading_instructions));
}

/// Branch kind by code with invalid codes (5..=7) mapped arbitrarily;
/// validity is checked separately (deferred to the block accumulator on
/// the fast path), and a masked index into a power-of-two table needs
/// no bounds check or branch.
const KIND_BY_CODE: [BranchKind; 8] = [
    BranchKind::Conditional,
    BranchKind::Unconditional,
    BranchKind::Call,
    BranchKind::Return,
    BranchKind::Indirect,
    BranchKind::Conditional,
    BranchKind::Conditional,
    BranchKind::Conditional,
];

/// Decodes `count` records of a block payload into `out` (pre-sized by
/// the caller to exactly `count` slots).
///
/// The fast path per record is kept free of unpredictable branches and
/// off-chain loads: the layout index is gathered with a shift/or tree,
/// the layout table supplies shifts and masks for three mutually
/// independent field extractions, and flags validation is *deferred* —
/// an invalid kind code or reserved bit sets a sticky flag that
/// triggers a careful rescan for the precise typed error after the
/// loop, so the hot loop never branches on record contents.
fn decode_block(payload: &[u8], out: &mut [BranchRecord]) -> Result<(), TraceIoError> {
    let mut pos = 0usize;
    // The delta chain resets per block so blocks decode independently.
    let mut prev_pc = 0u64;
    let mut suspect = false;
    for slot in out.iter_mut() {
        // Fast path: a record whose three varints are all 1–2 bytes
        // fits, with its flags byte, in one 8-byte window (1 + 3×2 = 7)
        // — and realistic delta streams are almost entirely such
        // records. Block tails and longer varints take the careful
        // path.
        if let Some(win) = payload.get(pos..pos + 8) {
            let w = u64::from_le_bytes(win.try_into().expect("8 bytes"));
            // Continuation bits of window bytes 1..=6 → layout bits
            // 0..=5.
            let idx = (((w >> 15) & 0x01)
                | ((w >> 22) & 0x02)
                | ((w >> 29) & 0x04)
                | ((w >> 36) & 0x08)
                | ((w >> 43) & 0x10)
                | ((w >> 50) & 0x20)) as usize;
            let layout = FAST_LAYOUTS[idx & 0x3F];
            if layout.len != 0 {
                let flags = (w & 0xFF) as u8;
                suspect |= (flags & FLAG_RESERVED != 0) | (flags & FLAG_KIND >= 5);
                let kind = KIND_BY_CODE[(flags & FLAG_KIND) as usize];
                let d_pc = ((w >> layout.s1) & 0x7F)
                    | (((w >> (layout.s1 + 8)) & u64::from(layout.m1)) << 7);
                let d_target = ((w >> layout.s2) & 0x7F)
                    | (((w >> (layout.s2 + 8)) & u64::from(layout.m2)) << 7);
                let leading = ((w >> layout.s3) & 0x7F)
                    | (((w >> (layout.s3 + 8)) & u64::from(layout.m3)) << 7);
                pos += layout.len as usize;
                let pc = prev_pc.wrapping_add(zigzag_decode(d_pc) as u64);
                prev_pc = pc;
                *slot = BranchRecord {
                    pc,
                    target: pc.wrapping_add(zigzag_decode(d_target) as u64),
                    kind,
                    taken: flags & FLAG_TAKEN != 0,
                    // A 2-byte varint is at most 0x3FFF: always a valid
                    // u32.
                    leading_instructions: leading as u32,
                };
                continue;
            }
        }
        let record = decode_record_careful(payload, &mut pos, prev_pc)?;
        prev_pc = record.pc;
        *slot = record;
    }
    if suspect {
        return Err(rescan_for_error(payload, out.len()));
    }
    if pos < payload.len() {
        return Err(TraceIoError::BlockTrailingBytes(payload.len() - pos));
    }
    debug_assert_eq!(pos, payload.len(), "window decode cannot overrun");
    Ok(())
}

/// The fast loop flagged an invalid flags byte somewhere in the block;
/// replay it carefully to produce the precise typed error.
#[cold]
fn rescan_for_error(payload: &[u8], count: usize) -> TraceIoError {
    let mut pos = 0usize;
    let mut prev_pc = 0u64;
    for _ in 0..count {
        match decode_record_careful(payload, &mut pos, prev_pc) {
            Ok(record) => prev_pc = record.pc,
            Err(e) => return e,
        }
    }
    // Unreachable in practice: the sticky flag only fires on a byte the
    // careful decoder also rejects.
    TraceIoError::BlockOverrun
}

fn decode_record_careful(
    payload: &[u8],
    pos: &mut usize,
    prev_pc: u64,
) -> Result<BranchRecord, TraceIoError> {
    let flags = *payload.get(*pos).ok_or(TraceIoError::BlockOverrun)?;
    *pos += 1;
    if flags & FLAG_RESERVED != 0 {
        return Err(TraceIoError::BadFlags(flags));
    }
    let kind =
        BranchKind::from_code(flags & FLAG_KIND).ok_or(TraceIoError::BadKind(flags & FLAG_KIND))?;
    let pc = prev_pc.wrapping_add(zigzag_decode(read_varint(payload, pos)?) as u64);
    let target = pc.wrapping_add(zigzag_decode(read_varint(payload, pos)?) as u64);
    let leading = read_varint(payload, pos)?;
    let leading = u32::try_from(leading).map_err(|_| TraceIoError::BadVarint)?;
    Ok(BranchRecord {
        pc,
        target,
        kind,
        taken: flags & FLAG_TAKEN != 0,
        leading_instructions: leading,
    })
}

/// Writes the file header and returns its CRC-32C, the seed of the
/// frame chain.
fn write_header<W: Write>(writer: &mut W, name: &str, count: u64) -> Result<u32, TraceIoError> {
    let mut header = Vec::with_capacity(20 + name.len());
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&(name.len() as u32).to_le_bytes());
    header.extend_from_slice(name.as_bytes());
    header.extend_from_slice(&count.to_le_bytes());
    writer.write_all(&header)?;
    Ok(crc32c(0, &header))
}

/// Streaming block writer for the trace format.
///
/// Records are delta-encoded into an in-memory block and flushed to the
/// underlying writer with **one `write_all` per block** (4096 records),
/// each block sealed with its chained CRC-32C. The writer is streaming:
/// it never holds more than one block, so a trace of any length
/// serializes in O(1) memory — which is what lets `bp_workloads` cache
/// generated benchmarks to disk without materializing them.
///
/// [`BlockWriter::finish`] **must** be called: it flushes the final
/// partial block and writes the terminator frame carrying the
/// authoritative record count. A file abandoned mid-write has no
/// terminator and is reported as truncated by the reader.
///
/// ```
/// use bp_trace::{read_trace, BlockWriter, BranchRecord};
///
/// let mut buf = Vec::new();
/// let mut w = BlockWriter::new(&mut buf, "streamed").unwrap();
/// w.push(&BranchRecord::conditional(0x400, 0x3f0, true)).unwrap();
/// w.push(&BranchRecord::conditional(0x404, 0x3f0, false)).unwrap();
/// assert_eq!(w.finish().unwrap(), 2);
///
/// let back = read_trace(buf.as_slice()).unwrap();
/// assert_eq!(back.len(), 2);
/// assert_eq!(back.name(), "streamed");
/// ```
#[derive(Debug)]
pub struct BlockWriter<W: Write> {
    writer: W,
    /// Frame under construction: 8 header bytes then the payload.
    frame: Vec<u8>,
    block_records: u32,
    prev_pc: u64,
    total: u64,
    declared: Option<u64>,
    /// CRC of the last frame written (of the header before the first).
    crc: u32,
}

impl<W: Write> BlockWriter<W> {
    /// Opens a stream with an *unknown* record count (the header
    /// carries a sentinel; readers learn the true count from the
    /// terminator frame).
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if writing the header fails.
    pub fn new(writer: W, name: &str) -> Result<Self, TraceIoError> {
        Self::open(writer, name, None)
    }

    /// Opens a stream whose record count is known up front, letting
    /// readers report exact [`remaining()`](crate::TraceReader::remaining)
    /// counts. [`BlockWriter::finish`] fails with
    /// [`TraceIoError::CountMismatch`] if a different number of records
    /// was pushed.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if writing the header fails.
    pub fn with_declared_count(writer: W, name: &str, count: u64) -> Result<Self, TraceIoError> {
        Self::open(writer, name, Some(count))
    }

    fn open(mut writer: W, name: &str, declared: Option<u64>) -> Result<Self, TraceIoError> {
        let crc = write_header(&mut writer, name, declared.unwrap_or(UNKNOWN_COUNT))?;
        let mut frame = Vec::with_capacity(BLOCK_RECORDS as usize * 8);
        frame.resize(8, 0);
        Ok(BlockWriter {
            writer,
            frame,
            block_records: 0,
            prev_pc: 0,
            total: 0,
            declared,
            crc,
        })
    }

    /// Appends one record, flushing a full block to the writer.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if a block flush fails.
    pub fn push(&mut self, record: &BranchRecord) -> Result<(), TraceIoError> {
        encode_record(&mut self.frame, record, self.prev_pc);
        self.prev_pc = record.pc;
        self.block_records += 1;
        self.total += 1;
        if self.block_records == BLOCK_RECORDS {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Fills in the frame header of `self.frame`, seals it with the
    /// chained CRC and writes it in one call.
    fn write_frame(&mut self, count: u32) -> Result<(), TraceIoError> {
        let payload_len = (self.frame.len() - 8) as u32;
        self.frame[0..4].copy_from_slice(&count.to_le_bytes());
        self.frame[4..8].copy_from_slice(&payload_len.to_le_bytes());
        self.crc = crc32c(self.crc, &self.frame);
        self.frame.extend_from_slice(&self.crc.to_le_bytes());
        self.writer.write_all(&self.frame)?;
        self.frame.truncate(0);
        self.frame.resize(8, 0);
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), TraceIoError> {
        if self.block_records == 0 {
            return Ok(());
        }
        self.write_frame(self.block_records)?;
        self.block_records = 0;
        // Delta chain resets per block so blocks decode independently.
        self.prev_pc = 0;
        Ok(())
    }

    /// Flushes the final block, writes the terminator frame, and
    /// flushes the underlying writer. Returns the total record count.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on write failure, or
    /// [`TraceIoError::CountMismatch`] if a count declared at open time
    /// does not match the records actually pushed.
    pub fn finish(mut self) -> Result<u64, TraceIoError> {
        self.flush_block()?;
        if let Some(declared) = self.declared {
            if declared != self.total {
                return Err(TraceIoError::CountMismatch {
                    declared,
                    actual: self.total,
                });
            }
        }
        self.frame.extend_from_slice(&self.total.to_le_bytes());
        self.write_frame(0)?;
        // Flush here rather than relying on a buffered writer's Drop,
        // which swallows I/O errors — a full disk must fail the write,
        // not silently truncate the file.
        self.writer.flush()?;
        Ok(self.total)
    }
}

/// Serializes `trace` (block-framed, delta-encoded, CRC-sealed).
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] if the underlying writer fails.
pub fn write_trace<W: Write>(writer: W, trace: &Trace) -> Result<(), TraceIoError> {
    let mut w = BlockWriter::with_declared_count(writer, trace.name(), trace.len() as u64)?;
    for record in trace.iter() {
        w.push(record)?;
    }
    w.finish()?;
    Ok(())
}

/// Deserializes a trace previously written by [`write_trace`] or
/// [`BlockWriter`], materializing every record in memory.
///
/// A `&mut` reference can be passed as the reader. For simulation over
/// large files, prefer [`TraceReader`], which yields records one block
/// at a time; this function is a thin collect wrapper over it.
///
/// # Errors
///
/// Returns a [`TraceIoError`] if the stream is truncated, corrupt, or uses
/// an unsupported version.
pub fn read_trace<R: Read>(reader: R) -> Result<Trace, TraceIoError> {
    let mut stream = TraceReader::new(reader)?;
    let mut trace = Trace::with_capacity(stream.name().to_owned(), stream.remaining().min(1 << 24));
    while let Some(record) = stream.try_next()? {
        trace.push(record);
    }
    Ok(trace)
}

/// Streaming reader over a serialized trace: parses the header eagerly,
/// then reads one block frame at a time with a single `read_exact`,
/// checks its CRC, batch-decodes the whole payload in one tight loop
/// and hands records out as a plain cursor — so a multi-gigabyte trace
/// file simulates in O(1) memory, and the per-record hot path is an
/// indexed copy, not a decoder state machine.
///
/// `TraceReader` implements [`BranchStream`] and can therefore be fed
/// straight to the simulator. Because [`BranchStream::next_record`]
/// cannot surface I/O failures, a mid-stream error *ends* the stream
/// and is stashed where [`TraceReader::error`] (or the fallible
/// [`TraceReader::try_next`]) can observe it; callers that must
/// distinguish corruption or truncation from a clean end of trace check
/// `error()` after draining.
///
/// ```
/// use bp_trace::{write_trace, BranchRecord, BranchStream, Trace, TraceReader};
///
/// let mut trace = Trace::new("on-disk");
/// trace.push(BranchRecord::conditional(0x40, 0x20, true));
/// let mut buf = Vec::new();
/// write_trace(&mut buf, &trace).unwrap();
///
/// let mut reader = TraceReader::new(buf.as_slice()).unwrap();
/// assert_eq!(reader.name(), "on-disk");
/// assert_eq!(reader.remaining(), 1);
/// let first = reader.next_record().unwrap();
/// assert_eq!(first.pc, 0x40);
/// assert!(reader.next_record().is_none());
/// assert!(reader.error().is_none());
/// ```
#[derive(Debug)]
pub struct TraceReader<R> {
    name: String,
    error: Option<TraceIoError>,
    reader: R,
    /// Header-declared record count, if the writer knew it.
    declared: Option<u64>,
    /// Records handed out so far.
    read: u64,
    /// The current block, fully decoded and checked by `load_block`.
    records: Vec<BranchRecord>,
    /// Hand-out cursor into `records`.
    next: usize,
    /// Reused raw-frame scratch buffer: payload then CRC.
    payload: Vec<u8>,
    /// CRC of the last frame read (of the header before the first).
    crc: u32,
    /// Frames read so far: the index of the next one.
    frames: u64,
    finished: bool,
}

impl<R: Read> TraceReader<R> {
    /// Opens a serialized trace, parsing and validating the header.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] if the header is truncated, carries the
    /// wrong magic, an unsupported version, or a non-UTF-8 name.
    pub fn new(mut reader: R) -> Result<Self, TraceIoError> {
        let mut head = [0u8; 12];
        reader.read_exact(&mut head)?;
        let magic: [u8; 4] = head[0..4].try_into().expect("4 bytes");
        if &magic != MAGIC {
            return Err(TraceIoError::BadMagic(magic));
        }
        let version = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(TraceIoError::UnsupportedVersion(version));
        }
        let name_len = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
        if name_len > MAX_NAME_LEN {
            return Err(TraceIoError::NameTooLong(name_len));
        }
        let mut name_bytes = vec![0u8; name_len as usize];
        reader.read_exact(&mut name_bytes)?;
        let mut count = [0u8; 8];
        reader.read_exact(&mut count)?;
        let crc = crc32c(crc32c(crc32c(0, &head), &name_bytes), &count);
        let name = String::from_utf8(name_bytes).map_err(|_| TraceIoError::BadName)?;
        let count = u64::from_le_bytes(count);
        Ok(TraceReader {
            name,
            error: None,
            reader,
            declared: (count != UNKNOWN_COUNT).then_some(count),
            read: 0,
            records: Vec::new(),
            next: 0,
            payload: Vec::new(),
            crc,
            frames: 0,
            finished: false,
        })
    }

    /// Records the stream still claims to contain: exact when the
    /// header carried a count, otherwise the records left in the
    /// current block (a lower bound).
    pub fn remaining(&self) -> usize {
        match self.declared {
            _ if self.finished => 0,
            Some(declared) => declared.saturating_sub(self.read) as usize,
            None => self.records.len() - self.next,
        }
    }

    /// The mid-stream error that ended the stream early, if any.
    pub fn error(&self) -> Option<&TraceIoError> {
        self.error.as_ref()
    }

    /// Reads the next record, surfacing I/O and format errors.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] if the stream is truncated or a frame
    /// is corrupt; the stream yields nothing further afterwards.
    #[inline]
    pub fn try_next(&mut self) -> Result<Option<BranchRecord>, TraceIoError> {
        loop {
            if let Some(&record) = self.records.get(self.next) {
                self.next += 1;
                self.read += 1;
                return Ok(Some(record));
            }
            if self.finished {
                return Ok(None);
            }
            match self.load_block() {
                Ok(true) => continue,
                Ok(false) => return Ok(None),
                Err(e) => {
                    // A failed block may have left partially decoded
                    // records behind; drop them so the stream yields
                    // nothing further.
                    self.records.clear();
                    self.next = 0;
                    self.finished = true;
                    return Err(e);
                }
            }
        }
    }

    /// Reads `len` payload bytes and the frame's CRC, and checks the CRC
    /// over `header` and the payload, which is left in `self.payload`.
    fn read_checked(&mut self, header: &[u8; 8], len: usize) -> Result<(), TraceIoError> {
        self.payload.resize(len + 4, 0);
        self.reader.read_exact(&mut self.payload)?;
        let stored = u32::from_le_bytes(self.payload[len..].try_into().expect("4 bytes"));
        self.payload.truncate(len);
        let crc = crc32c(crc32c(self.crc, header), &self.payload);
        if crc != stored {
            return Err(TraceIoError::ChecksumMismatch { block: self.frames });
        }
        self.crc = crc;
        self.frames += 1;
        Ok(())
    }

    /// Reads, checks and decodes the next block frame. Returns `false`
    /// on the terminator. Out of line: runs once per 4096 records, and
    /// keeping it out of `try_next` lets the hot cursor path inline.
    #[inline(never)]
    fn load_block(&mut self) -> Result<bool, TraceIoError> {
        let mut header = [0u8; 8];
        self.reader.read_exact(&mut header)?;
        let count = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let payload_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if count == 0 {
            // Terminator: payload is the authoritative total count.
            if payload_len != 8 {
                return Err(TraceIoError::BadTerminator(payload_len));
            }
            self.read_checked(&header, 8)?;
            let total = u64::from_le_bytes(self.payload[..8].try_into().expect("8 bytes"));
            for declared in [Some(total), self.declared].into_iter().flatten() {
                if declared != self.read {
                    return Err(TraceIoError::CountMismatch {
                        declared,
                        actual: self.read,
                    });
                }
            }
            self.finished = true;
            return Ok(false);
        }
        if payload_len > MAX_BLOCK_BYTES {
            return Err(TraceIoError::BlockTooLarge(payload_len));
        }
        // A record is at least 4 bytes (flags + three 1-byte varints),
        // so a count the payload cannot possibly hold is provably
        // corrupt — reject it *before* sizing the decode buffer, or a
        // lying count field would trigger a multi-gigabyte allocation.
        if payload_len == 0 || u64::from(count) * 4 > u64::from(payload_len) {
            return Err(TraceIoError::BlockOverrun);
        }
        // One large read per block, the CRC checked before any record
        // is decoded, then one tight batch-decode loop whose output the
        // consumer drains as a plain cursor.
        self.read_checked(&header, payload_len as usize)?;
        self.records.clear();
        self.records
            .resize(count as usize, BranchRecord::conditional(0, 0, false));
        decode_block(&self.payload, &mut self.records)?;
        self.next = 0;
        Ok(true)
    }
}

impl<R: Read> BranchStream for TraceReader<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_record(&mut self) -> Option<BranchRecord> {
        // Cursor-hit fast path: skips the Result plumbing on the
        // per-record hot loop the simulator drives.
        if let Some(&record) = self.records.get(self.next) {
            self.next += 1;
            self.read += 1;
            return Some(record);
        }
        match self.try_next() {
            Ok(record) => record,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Declared counts are claims, not guarantees (the file may be
        // truncated), so they only bound from above; streamed files
        // with no declared count are unbounded.
        (
            0,
            self.declared.map(|d| d.saturating_sub(self.read) as usize),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("io-sample");
        t.push(
            BranchRecord::conditional(0xdead_beef, 0xdead_be00, true).with_leading_instructions(7),
        );
        t.push(BranchRecord::ret(0x1000, 0x2000));
        t.push(BranchRecord::indirect(0x44, 0x9988).with_leading_instructions(2));
        t
    }

    fn regular(n: usize) -> Trace {
        let mut t = Trace::new("regular");
        for i in 0..n {
            let pc = 0x40_0000 + (i as u64 % 97) * 4;
            t.push(
                BranchRecord::conditional(pc, pc.wrapping_sub(0x40), i % 3 == 0)
                    .with_leading_instructions((i % 11) as u32),
            );
        }
        t
    }

    fn written(t: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(&mut buf, t).unwrap();
        buf
    }

    /// Offset of the first frame: the header of a file named `name`.
    fn header_len(name: &str) -> usize {
        4 + 4 + 4 + name.len() + 8
    }

    /// Recomputes every frame CRC of `buf`, so a test can plant a
    /// content defect behind valid checksums and reach the decoder.
    fn reseal(buf: &mut [u8], name: &str) {
        let mut pos = header_len(name);
        let mut crc = crc32c(0, &buf[..pos]);
        loop {
            let count = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
            let len = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap()) as usize;
            crc = crc32c(crc, &buf[pos..pos + 8 + len]);
            buf[pos + 8 + len..pos + 12 + len].copy_from_slice(&crc.to_le_bytes());
            pos += 12 + len;
            if count == 0 {
                break;
            }
        }
    }

    /// Appends one hand-built frame sealed on the chain `crc`; returns
    /// the frame's CRC.
    fn push_frame(buf: &mut Vec<u8>, crc: u32, count: u32, payload: &[u8]) -> u32 {
        let start = buf.len();
        buf.extend_from_slice(&count.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(payload);
        let crc = crc32c(crc, &buf[start..]);
        buf.extend_from_slice(&crc.to_le_bytes());
        crc
    }

    #[test]
    fn crc32c_matches_the_standard_check_value() {
        assert_eq!(crc32c(0, b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(crc32c(0, b"1234"), b"56789"), 0xE306_9283);
        assert_eq!(crc32c(0, b""), 0);
        // The 8-byte steps agree with the bytewise definition at every
        // length and split point.
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        let bytewise = |mut c: u32, data: &[u8]| {
            c = !c;
            for &b in data {
                c = CRC32C[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
            }
            !c
        };
        for len in 0..bytes.len() {
            for split in 0..=len {
                let chained = crc32c(crc32c(0, &bytes[..split]), &bytes[split..len]);
                assert_eq!(
                    chained,
                    bytewise(0, &bytes[..len]),
                    "len {len} split {split}"
                );
            }
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let back = read_trace(written(&t).as_slice()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.name(), "io-sample");
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::new("empty");
        let back = read_trace(written(&t).as_slice()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.name(), "empty");
    }

    #[test]
    fn multi_block_trace_round_trips() {
        // More than BLOCK_RECORDS records forces several block frames.
        let t = regular(10_000);
        assert_eq!(read_trace(written(&t).as_slice()).unwrap(), t);
    }

    #[test]
    fn extreme_field_values_round_trip() {
        let mut t = Trace::new("extremes");
        t.push(BranchRecord {
            pc: u64::MAX,
            target: 0,
            kind: BranchKind::Indirect,
            taken: false,
            leading_instructions: u32::MAX,
        });
        t.push(BranchRecord::conditional(0, u64::MAX, true));
        assert_eq!(read_trace(written(&t).as_slice()).unwrap(), t);
    }

    #[test]
    fn streamed_writer_without_declared_count_round_trips() {
        let t = regular(5_000);
        let mut buf = Vec::new();
        let mut w = BlockWriter::new(&mut buf, t.name()).unwrap();
        for r in t.iter() {
            w.push(r).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 5_000);
        assert_eq!(read_trace(buf.as_slice()).unwrap(), t);
    }

    #[test]
    fn regular_traces_take_at_most_11_bytes_per_record() {
        let t = regular(8_192);
        let bytes = written(&t).len();
        assert!(
            bytes <= 11 * t.len(),
            "{bytes} bytes for {} records is above 11 bytes/record",
            t.len()
        );
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 4096, -4096] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn varint_round_trips_extremes() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX, u64::MAX - 1] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // 10 continuation bytes followed by a large final byte encode
        // more than 64 bits.
        let buf = [0xFFu8; 11];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&buf, &mut pos),
            Err(TraceIoError::BadVarint)
        ));
        // A varint cut off mid-way is an overrun, not a panic.
        let buf = [0x80u8];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&buf, &mut pos),
            Err(TraceIoError::BlockOverrun)
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_trace(&b"XXXX\x03\x00\x00\x00\x00\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadMagic(_)));
        assert!(!format!("{err}").is_empty());
    }

    #[test]
    fn bad_version_is_rejected() {
        // Versions 1 (fixed-width records) and 2 (unchecked frames) are
        // no longer read.
        for version in [1u32, 2, 99] {
            let mut buf = written(&Trace::new("x"));
            buf[4..8].copy_from_slice(&version.to_le_bytes());
            let err = read_trace(buf.as_slice()).unwrap_err();
            assert!(
                matches!(err, TraceIoError::UnsupportedVersion(v) if v == version),
                "{err}"
            );
        }
    }

    #[test]
    fn absurd_name_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"BPTR");
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::NameTooLong(u32::MAX)));
        assert!(format!("{err}").contains("cap"));
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error() {
        // Header, one block and the terminator.
        let t = regular(300);
        let clean = written(&t);
        let mut buf = clean.clone();
        for bit in 0..clean.len() * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert!(
                read_trace(buf.as_slice()).is_err(),
                "flipping bit {bit} of {} went unnoticed",
                clean.len() * 8
            );
            buf[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn flipping_bit_63_of_two_adjacent_payload_words_is_detected() {
        // The pair a `(h ^ w) * K` word hash cancels out.
        let t = regular(300);
        let mut buf = written(&t);
        let payload = header_len(t.name()) + 8;
        buf[payload + 7] ^= 0x80;
        buf[payload + 15] ^= 0x80;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, TraceIoError::ChecksumMismatch { block: 0 }),
            "{err}"
        );
    }

    #[test]
    fn checksum_mismatch_names_the_frame_and_withholds_its_records() {
        let t = regular(10_000);
        let mut buf = written(&t);
        // A bit in the second block: the first block's records are
        // handed out, none of the second's.
        let first_len = u32::from_le_bytes(
            buf[header_len(t.name()) + 4..header_len(t.name()) + 8]
                .try_into()
                .unwrap(),
        ) as usize;
        buf[header_len(t.name()) + 12 + first_len + 20] ^= 0x01;
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let mut read = 0;
        while reader.next_record().is_some() {
            read += 1;
        }
        assert_eq!(read, BLOCK_RECORDS as usize);
        assert!(matches!(
            reader.error(),
            Some(TraceIoError::ChecksumMismatch { block: 1 })
        ));
        assert!(format!("{}", reader.error().unwrap()).contains("checksum"));
    }

    #[test]
    fn corrupt_kind_is_rejected() {
        let t = regular(10);
        let mut buf = written(&t);
        let flags = header_len(t.name()) + 8;
        buf[flags] = (buf[flags] & !FLAG_KIND) | 5;
        reseal(&mut buf, t.name());
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BadKind(5)), "{err}");
    }

    #[test]
    fn reserved_flag_bits_are_rejected() {
        let t = regular(10);
        let mut buf = written(&t);
        buf[header_len(t.name()) + 8] |= 0x40;
        reseal(&mut buf, t.name());
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BadFlags(_)), "{err}");
    }

    #[test]
    fn lying_terminator_count_is_a_count_mismatch() {
        let t = regular(10);
        let mut buf = written(&t);
        let n = buf.len();
        buf[n - 12..n - 4].copy_from_slice(&99u64.to_le_bytes());
        reseal(&mut buf, t.name());
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(
            err,
            TraceIoError::CountMismatch {
                declared: 99,
                actual: 10
            }
        ));
    }

    #[test]
    fn declared_count_mismatch_is_reported_at_finish() {
        let mut buf = Vec::new();
        let mut w = BlockWriter::with_declared_count(&mut buf, "short", 3).unwrap();
        w.push(&BranchRecord::conditional(0x40, 0x20, true))
            .unwrap();
        let err = w.finish().unwrap_err();
        assert!(matches!(
            err,
            TraceIoError::CountMismatch {
                declared: 3,
                actual: 1
            }
        ));
    }

    #[test]
    fn truncated_stream_reports_io_error() {
        let mut buf = written(&sample());
        buf.truncate(buf.len() - 3);
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn missing_terminator_reads_as_truncation() {
        let mut buf = written(&regular(100));
        buf.truncate(buf.len() - 20); // drop the terminator frame
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
    }

    #[test]
    fn truncated_block_payload_reads_as_truncation() {
        let mut buf = written(&regular(100));
        buf.truncate(40); // mid-payload of the first block
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
    }

    #[test]
    fn lying_record_count_is_rejected_without_allocating() {
        // A block claiming u32::MAX records in a 16-byte payload must
        // hit the error path before the decode buffer is sized.
        let mut buf = Vec::new();
        let crc = write_header(&mut buf, "x", UNKNOWN_COUNT).unwrap();
        push_frame(&mut buf, crc, u32::MAX, &[0u8; 16]);
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BlockOverrun));
    }

    #[test]
    fn oversized_block_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        write_header(&mut buf, "x", UNKNOWN_COUNT).unwrap();
        buf.extend_from_slice(&1u32.to_le_bytes()); // one record claimed
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BlockTooLarge(u32::MAX)));
    }

    #[test]
    fn bad_terminator_length_is_rejected() {
        let mut buf = Vec::new();
        let crc = write_header(&mut buf, "x", UNKNOWN_COUNT).unwrap();
        push_frame(&mut buf, crc, 0, &[0u8; 4]); // must be 8
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BadTerminator(4)));
    }

    #[test]
    fn trailing_bytes_in_block_are_rejected() {
        // A block claiming 1 record but carrying 2.
        let mut payload = Vec::new();
        let r = BranchRecord::conditional(0x40, 0x20, true);
        encode_record(&mut payload, &r, 0);
        encode_record(&mut payload, &r, r.pc);
        let mut buf = Vec::new();
        let crc = write_header(&mut buf, "x", UNKNOWN_COUNT).unwrap();
        push_frame(&mut buf, crc, 1, &payload);
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BlockTrailingBytes(_)));
    }

    #[test]
    fn overrun_block_is_rejected() {
        // A block claiming 2 records but carrying bytes for 1.
        let mut payload = Vec::new();
        encode_record(
            &mut payload,
            &BranchRecord::conditional(0x40, 0x20, true),
            0,
        );
        let mut buf = Vec::new();
        let crc = write_header(&mut buf, "x", UNKNOWN_COUNT).unwrap();
        push_frame(&mut buf, crc, 2, &payload);
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BlockOverrun));
    }

    #[test]
    fn streaming_reader_matches_materializing_reader() {
        let t = sample();
        let buf = written(&t);
        let reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.remaining(), t.len());
        assert_eq!(reader.collect_trace(), t);
    }

    #[test]
    fn streaming_reader_stashes_truncation_error() {
        let mut buf = written(&regular(5_000));
        buf.truncate(buf.len() - 30); // inside the second block
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let mut read = 0;
        while reader.next_record().is_some() {
            read += 1;
        }
        assert_eq!(read, BLOCK_RECORDS as usize, "the cut block is withheld");
        assert!(matches!(reader.error(), Some(TraceIoError::Io(_))));
        // try_next after the failure reports a clean end.
        assert!(matches!(reader.try_next(), Ok(None)));
    }

    #[test]
    fn streaming_reader_size_hint_is_upper_bound_only() {
        let buf = written(&sample());
        let reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(BranchStream::size_hint(&reader), (0, Some(3)));
    }
}

#[cfg(test)]
mod probe {
    use super::*;
    use std::time::Instant;

    #[test]
    #[ignore]
    fn decode_cost_breakdown() {
        // Build a realistic-ish delta stream: small pc deltas, backward
        // targets, small leading counts.
        let mut t = Trace::new("probe");
        let mut pc = 0x40_0000u64;
        for i in 0..1_000_000u64 {
            pc = pc.wrapping_add((i % 37) * 4);
            let target = pc.wrapping_sub(0x80 + (i % 9) * 8);
            t.push(
                BranchRecord::conditional(pc, target, i % 3 == 0)
                    .with_leading_instructions((i % 11) as u32),
            );
        }
        let mut file = Vec::new();
        write_trace(&mut file, &t).unwrap();
        let n = t.len() as f64;

        for _ in 0..3 {
            // Pure decode_block over one prepared payload, repeated.
            let mut payload = Vec::new();
            let mut prev = 0u64;
            for r in t.iter().take(4096) {
                encode_record(&mut payload, r, prev);
                prev = r.pc;
            }
            let mut out = vec![BranchRecord::conditional(0, 0, false); 4096];
            let iters = 250;
            let started = Instant::now();
            for _ in 0..iters {
                decode_block(&payload, &mut out).unwrap();
            }
            let pure = started.elapsed().as_secs_f64() / (iters as f64 * 4096.0);

            // CRC-32C over the same payload.
            let started = Instant::now();
            let mut crc = 0;
            for _ in 0..iters {
                crc = crc32c(crc, &payload);
            }
            let check = started.elapsed().as_secs_f64() / (iters as f64 * 4096.0);
            assert_ne!(crc, 1);

            // Full reader drain.
            let started = Instant::now();
            let mut reader = TraceReader::new(file.as_slice()).unwrap();
            let mut drained = 0u64;
            while reader.try_next().unwrap().is_some() {
                drained += 1;
            }
            let full = started.elapsed().as_secs_f64();
            assert_eq!(drained, 1_000_000);
            eprintln!(
                "pure decode_block {:.2} ns/rec | crc32c {:.2} ns/rec | full drain {:.2} ns/rec",
                pure * 1e9,
                check * 1e9,
                full * 1e9 / n
            );
        }
    }
}
