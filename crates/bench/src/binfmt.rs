//! Compact binary on-disk encoding for cache entries.
//!
//! A binary entry is a self-describing container:
//!
//! ```text
//! offset  size  field
//! 0       8     magic + format version (b"FLOVBC1\n")
//! 8       4     kernel_version, u32 LE
//! 12      16    content hash (the cache key's 128-bit value)
//! 28      4     spec_len, u32 LE
//! 32      n     canonical spec JSON, UTF-8 (exact bytes the key hashes)
//! 32+n    4     result_len, u32 LE
//! 36+n    m     RunResult as a binary Value tree (see below)
//! end-4   4     CRC-32C (Castagnoli) over every preceding byte, u32 LE
//! ```
//!
//! The result section is written as the workspace serde shim's [`Value`]
//! tree — one tag byte per node, zigzag-LEB128 varints for integers and
//! lengths, raw little-endian bits for floats — so floats come back
//! bit-for-bit (including NaN payloads, which JSON cannot represent). It
//! is read back by one layout-pinned decoder that walks the bytes in
//! `RunResult`'s field order and writes straight into the struct, so a
//! change to `RunResult`'s fields must change that decoder in step (the
//! round-trip tests fail until it does). A warm cache probe decodes
//! *only* the result: the spec JSON is length-skipped, never parsed.
//! Storing the spec's exact canonical JSON bytes is what lets
//! `flov cache verify` recompute the content hash without trusting the
//! filename.
//!
//! Every decode path is bounds-checked and returns [`BinError`] instead of
//! panicking: a truncated or bit-flipped entry must read as a cache miss
//! (the cache quarantines it), never as a crash.

use crate::spec::RunResult;
use serde::{Serialize, Value};

/// Magic + format version. Bump the trailing digit for incompatible
/// layout changes; readers reject anything else as corrupt.
pub const MAGIC: [u8; 8] = *b"FLOVBC1\n";

/// Fixed-size prefix before the spec JSON.
const HEADER_LEN: usize = 8 + 4 + 16 + 4;

/// Smallest well-formed entry: header + empty spec + result length + CRC.
const MIN_LEN: usize = HEADER_LEN + 4 + 4;

/// Why a binary entry failed to decode. The message names the first
/// offending structure for `flov cache verify` output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinError(pub String);

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BinError {}

fn err<T>(msg: impl Into<String>) -> Result<T, BinError> {
    Err(BinError(msg.into()))
}

// ---------------------------------------------------------------- CRC-32

/// Slice-by-16 lookup tables for CRC-32C (Castagnoli, reflected poly
/// `0x82F63B78`): `T[0]` is the classic byte-at-a-time table; `T[j][b]`
/// advances a byte `j` positions further along. Sixteen table lookups per
/// 16 input bytes have the same dependent-chain depth as byte-at-a-time
/// per iteration, so throughput scales with the stride. This is the
/// portable fallback; x86-64 hosts with SSE4.2 use the dedicated `crc32`
/// instruction instead (the reason Castagnoli was chosen over IEEE).
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0x82F6_3B78 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

fn crc32_sw(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for ch in &mut chunks {
        let a = u32::from_le_bytes(ch[0..4].try_into().expect("4 bytes")) ^ c;
        let b = u32::from_le_bytes(ch[4..8].try_into().expect("4 bytes"));
        let d = u32::from_le_bytes(ch[8..12].try_into().expect("4 bytes"));
        let e = u32::from_le_bytes(ch[12..16].try_into().expect("4 bytes"));
        c = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][(b & 0xFF) as usize]
            ^ t[10][((b >> 8) & 0xFF) as usize]
            ^ t[9][((b >> 16) & 0xFF) as usize]
            ^ t[8][(b >> 24) as usize]
            ^ t[7][(d & 0xFF) as usize]
            ^ t[6][((d >> 8) & 0xFF) as usize]
            ^ t[5][((d >> 16) & 0xFF) as usize]
            ^ t[4][(d >> 24) as usize]
            ^ t[3][(e & 0xFF) as usize]
            ^ t[2][((e >> 8) & 0xFF) as usize]
            ^ t[1][((e >> 16) & 0xFF) as usize]
            ^ t[0][(e >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// SSE4.2 `crc32` instruction path, 8 bytes per instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32_hw(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c = 0xFFFF_FFFFu64;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        c = _mm_crc32_u64(c, u64::from_le_bytes(ch.try_into().expect("8 bytes")));
    }
    let mut c = c as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

/// CRC-32C (Castagnoli) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: feature detection just confirmed SSE4.2 is present.
        return unsafe { crc32_hw(bytes) };
    }
    crc32_sw(bytes)
}

// ------------------------------------------------------------ Value codec

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_SEQ: u8 = 6;
const TAG_MAP: u8 = 7;

pub(crate) fn write_uvarint(mut v: u128, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

fn unzigzag(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
}

pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => err(format!("truncated: wanted {n} bytes at offset {}", self.pos)),
        }
    }

    pub(crate) fn byte(&mut self) -> Result<u8, BinError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn uvarint(&mut self) -> Result<u128, BinError> {
        let mut v: u128 = 0;
        for shift in (0..).step_by(7) {
            if shift >= 128 {
                return err("varint overflows u128");
            }
            let b = self.byte()?;
            v |= ((b & 0x7F) as u128) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        unreachable!()
    }

    /// A length that must fit in the remaining input (each encoded element
    /// is at least one byte), so corrupt counts can't trigger huge
    /// allocations before the read fails.
    pub(crate) fn bounded_len(&mut self) -> Result<usize, BinError> {
        let n = self.uvarint()?;
        let remaining = (self.bytes.len() - self.pos) as u128;
        if n > remaining {
            return err(format!("length {n} exceeds {remaining} remaining bytes"));
        }
        Ok(n as usize)
    }
}

/// Append the binary encoding of `v` to `out`.
pub fn write_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            write_uvarint(zigzag(*i), out);
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            write_uvarint(s.len() as u128, out);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            write_uvarint(items.len() as u128, out);
            for item in items {
                write_value(item, out);
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            write_uvarint(entries.len() as u128, out);
            for (k, v) in entries {
                write_uvarint(k.len() as u128, out);
                out.extend_from_slice(k.as_bytes());
                write_value(v, out);
            }
        }
    }
}

// --------------------------------------------------------- entry container

/// Parse a 32-hex-character cache key into its 16 raw bytes.
pub fn key_bytes(key: &str) -> Option<[u8; 16]> {
    let key = key.as_bytes();
    if key.len() != 32 {
        return None;
    }
    let mut out = [0u8; 16];
    for (i, pair) in key.chunks_exact(2).enumerate() {
        let hex = std::str::from_utf8(pair).ok()?;
        out[i] = u8::from_str_radix(hex, 16).ok()?;
    }
    Some(out)
}

/// Encode one cache entry. `spec_json` must be the spec's *canonical*
/// JSON — the exact bytes `key` was hashed from.
pub fn encode_entry(
    key: &str,
    kernel_version: u32,
    spec_json: &str,
    result: &RunResult,
) -> Vec<u8> {
    let hash = key_bytes(key).expect("cache key is 32 hex chars");
    let mut out = Vec::with_capacity(HEADER_LEN + spec_json.len() + 512);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&kernel_version.to_le_bytes());
    out.extend_from_slice(&hash);
    out.extend_from_slice(&(spec_json.len() as u32).to_le_bytes());
    out.extend_from_slice(spec_json.as_bytes());
    let result_at = out.len();
    out.extend_from_slice(&[0u8; 4]); // result_len back-patched below
    write_value(&result.to_value(), &mut out);
    let result_len = (out.len() - result_at - 4) as u32;
    out[result_at..result_at + 4].copy_from_slice(&result_len.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A fully decoded binary entry (the `flov cache verify` path).
#[derive(Clone, Debug)]
pub struct BinEntry {
    pub kernel_version: u32,
    /// The stored content hash, re-rendered as the 32-hex key.
    pub key: String,
    /// The canonical spec JSON exactly as hashed.
    pub spec_json: String,
    pub result: RunResult,
}

/// Section boundaries of a validated container:
/// `(kernel_version, key, spec_range, result_range)`.
type Frame = (u32, [u8; 16], std::ops::Range<usize>, std::ops::Range<usize>);

/// Validate the container (magic, CRC, lengths) and return its [`Frame`].
fn frame(bytes: &[u8]) -> Result<Frame, BinError> {
    if bytes.len() < MIN_LEN {
        return err(format!("entry too short ({} bytes)", bytes.len()));
    }
    if bytes[..8] != MAGIC {
        return err("bad magic (not a FLOV binary cache entry)");
    }
    let body = &bytes[..bytes.len() - 4];
    let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    let actual_crc = crc32(body);
    if stored_crc != actual_crc {
        return err(format!("CRC mismatch (stored {stored_crc:08x}, computed {actual_crc:08x})"));
    }
    let kernel_version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let hash: [u8; 16] = bytes[12..28].try_into().expect("16 bytes");
    let spec_len = u32::from_le_bytes(bytes[28..32].try_into().expect("4 bytes")) as usize;
    let spec_start = HEADER_LEN;
    let spec_end = spec_start.checked_add(spec_len).filter(|&e| e + 4 <= body.len());
    let Some(spec_end) = spec_end else {
        return err(format!("spec length {spec_len} exceeds entry"));
    };
    let result_len =
        u32::from_le_bytes(bytes[spec_end..spec_end + 4].try_into().expect("4 bytes")) as usize;
    let result_start = spec_end + 4;
    if result_start + result_len != body.len() {
        return err(format!(
            "result length {result_len} does not close the entry \
             ({} bytes remain)",
            body.len() - result_start
        ));
    }
    Ok((kernel_version, hash, spec_start..spec_end, result_start..result_start + result_len))
}

fn hex(hash: &[u8; 16]) -> String {
    hash.iter().map(|b| format!("{b:02x}")).collect()
}

/// Fast cache-probe decode: verify the container, check the stored
/// content hash against `expect_key`, and decode *only* the result
/// section (the spec JSON is skipped, not parsed).
///
/// `Ok(None)` means a well-formed entry for a different kernel version —
/// a plain miss. `Err` means corruption; the caller quarantines the file.
pub fn decode_result(
    bytes: &[u8],
    expect_key: &str,
    expect_kernel_version: u32,
) -> Result<Option<RunResult>, BinError> {
    let (kernel_version, hash, _spec, result) = frame(bytes)?;
    match key_bytes(expect_key) {
        Some(expect) if expect == hash => {}
        _ => return err(format!("stored hash {} does not match key {expect_key}", hex(&hash))),
    }
    if kernel_version != expect_kernel_version {
        return Ok(None);
    }
    direct::run_result(&bytes[result]).map(Some)
}

/// Zero-allocation-per-node direct decode of a [`RunResult`] from the
/// binary Value encoding. The warm-sweep probe path spends nearly all its
/// time here, so instead of building an intermediate `Value` tree (one
/// heap allocation per map key and per node — tens of microseconds for a
/// dense timeline), this module walks the bytes once, comparing field
/// names in place and writing straight into the struct.
///
/// The layout is pinned to the serde shim's derive: structs encode as
/// declaration-ordered maps, so fields arrive in a known order. Any
/// deviation — extra field, reordered field, unexpected tag, trailing
/// bytes — is an error, and the cache quarantines the entry.
mod direct {
    use super::{err, unzigzag, BinError, TAG_FLOAT, TAG_INT, TAG_MAP, TAG_SEQ, TAG_STR};
    use crate::spec::RunResult;
    use flov_noc::stats::IntervalSample;
    use flov_power::model::{DynamicEnergy, PowerReport};

    struct Cur<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Cur<'a> {
        fn byte(&mut self) -> Option<u8> {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            Some(b)
        }

        /// A canonical varint. The writer never ends a varint with a
        /// padding zero byte or sets bits beyond u128, so either is
        /// corruption, and accepting it would return a value whose
        /// encoding differs from the stored bytes.
        fn uvarint(&mut self) -> Option<u128> {
            let mut v: u128 = 0;
            for shift in (0..128).step_by(7) {
                let b = self.byte()?;
                v |= ((b & 0x7F) as u128) << shift;
                if b & 0x80 == 0 {
                    return ((b != 0 || shift == 0) && (shift < 126 || b < 4)).then_some(v);
                }
            }
            None
        }

        fn tag(&mut self, t: u8) -> Option<()> {
            (self.byte()? == t).then_some(())
        }

        /// A map header with exactly `n` entries.
        fn map(&mut self, n: usize) -> Option<()> {
            self.tag(TAG_MAP)?;
            (self.uvarint()? == n as u128).then_some(())
        }

        /// A seq header with exactly `n` elements.
        fn seq(&mut self, n: usize) -> Option<()> {
            self.tag(TAG_SEQ)?;
            (self.uvarint()? == n as u128).then_some(())
        }

        /// A seq header of any length.
        fn seq_len(&mut self) -> Option<usize> {
            self.tag(TAG_SEQ)?;
            let n = self.uvarint()?;
            // Each element is at least one byte.
            (n <= (self.bytes.len() - self.pos) as u128).then_some(n as usize)
        }

        /// A map key that must equal `name`, compared in place.
        fn key(&mut self, name: &str) -> Option<()> {
            let n = self.uvarint()?;
            let end = self.pos.checked_add(usize::try_from(n).ok()?)?;
            let s = self.bytes.get(self.pos..end)?;
            if s == name.as_bytes() {
                self.pos = end;
                Some(())
            } else {
                None
            }
        }

        fn u64_raw(&mut self) -> Option<u64> {
            self.tag(TAG_INT)?;
            u64::try_from(unzigzag(self.uvarint()?)).ok()
        }

        fn f64_raw(&mut self) -> Option<f64> {
            self.tag(TAG_FLOAT)?;
            let end = self.pos.checked_add(8)?;
            let bits = u64::from_le_bytes(self.bytes.get(self.pos..end)?.try_into().ok()?);
            self.pos = end;
            Some(f64::from_bits(bits))
        }

        fn u64(&mut self, name: &str) -> Option<u64> {
            self.key(name)?;
            self.u64_raw()
        }

        fn f64(&mut self, name: &str) -> Option<f64> {
            self.key(name)?;
            self.f64_raw()
        }

        fn string(&mut self, name: &str) -> Option<String> {
            self.key(name)?;
            self.tag(TAG_STR)?;
            let n = self.uvarint()?;
            let end = self.pos.checked_add(usize::try_from(n).ok()?)?;
            let s = std::str::from_utf8(self.bytes.get(self.pos..end)?).ok()?;
            self.pos = end;
            Some(s.to_string())
        }

        fn bool(&mut self, name: &str) -> Option<bool> {
            self.key(name)?;
            match self.byte()? {
                super::TAG_FALSE => Some(false),
                super::TAG_TRUE => Some(true),
                _ => None,
            }
        }
    }

    fn dynamic_energy(c: &mut Cur) -> Option<DynamicEnergy> {
        c.map(9)?;
        Some(DynamicEnergy {
            buffers: c.f64("buffers")?,
            ring: c.f64("ring")?,
            crossbar: c.f64("crossbar")?,
            arbitration: c.f64("arbitration")?,
            links: c.f64("links")?,
            flov_latches: c.f64("flov_latches")?,
            credits: c.f64("credits")?,
            handshake: c.f64("handshake")?,
            gating: c.f64("gating")?,
        })
    }

    fn power(c: &mut Cur) -> Option<PowerReport> {
        c.key("power")?;
        c.map(8)?;
        Some(PowerReport {
            cycles: c.u64("cycles")?,
            seconds: c.f64("seconds")?,
            static_w: c.f64("static_w")?,
            static_router_w: c.f64("static_router_w")?,
            static_link_w: c.f64("static_link_w")?,
            dynamic_w: c.f64("dynamic_w")?,
            dynamic_energy: {
                c.key("dynamic_energy")?;
                dynamic_energy(c)?
            },
            total_w: c.f64("total_w")?,
        })
    }

    // Every timeline sample serializes to the same byte pattern apart
    // from the three varint values, so the hot loop (a dense sweep entry
    // carries hundreds to thousands of samples) matches the fixed runs —
    // map header, length-prefixed key, int tag — with single constant
    // memcmps instead of re-parsing each key.
    const TL_START: &[u8] = &[TAG_MAP, 3, 5, b's', b't', b'a', b'r', b't', TAG_INT];
    const TL_PACKETS: &[u8] = &[7, b'p', b'a', b'c', b'k', b'e', b't', b's', TAG_INT];
    const TL_LATENCY: &[u8] =
        &[11, b'l', b'a', b't', b'e', b'n', b'c', b'y', b'_', b's', b'u', b'm', TAG_INT];

    impl<'a> Cur<'a> {
        fn lit(&mut self, pat: &[u8]) -> Option<()> {
            let end = self.pos.checked_add(pat.len())?;
            if self.bytes.get(self.pos..end)? == pat {
                self.pos = end;
                Some(())
            } else {
                None
            }
        }

        /// The varint payload of an already-tagged non-negative int,
        /// accumulated in u64 (zigzag of a u64 needs at most 65 bits;
        /// anything wider than 63 bits takes the exact u128 path).
        fn int_u64(&mut self) -> Option<u64> {
            let mut v: u64 = 0;
            for shift in (0..63).step_by(7) {
                let b = self.byte()?;
                v |= ((b & 0x7F) as u64) << shift;
                if b & 0x80 == 0 {
                    // Zigzag: even = non-negative. A zero final byte after
                    // the first is padding, which `uvarint` also rejects.
                    return (v & 1 == 0 && (b != 0 || shift == 0)).then_some(v >> 1);
                }
            }
            self.pos -= 9;
            self.u64_wide()
        }

        /// [`Cur::int_u64`]'s rare wide path, kept out of line so the
        /// timeline loop stays small.
        #[cold]
        #[inline(never)]
        fn u64_wide(&mut self) -> Option<u64> {
            u64::try_from(super::unzigzag(self.uvarint()?)).ok()
        }
    }

    fn timeline(c: &mut Cur) -> Option<Vec<IntervalSample>> {
        c.key("timeline")?;
        let n = c.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            c.lit(TL_START)?;
            let start = c.int_u64()?;
            c.lit(TL_PACKETS)?;
            let packets = c.int_u64()?;
            c.lit(TL_LATENCY)?;
            let latency_sum = c.int_u64()?;
            out.push(IntervalSample { start, packets, latency_sum });
        }
        Some(out)
    }

    /// Decode a complete `RunResult`, consuming `bytes` exactly; the error
    /// names the offset where the layout stopped matching.
    pub(super) fn run_result(bytes: &[u8]) -> Result<RunResult, BinError> {
        let mut c = Cur { bytes, pos: 0 };
        match fields(&mut c) {
            Some(r) if c.pos == bytes.len() => Ok(r),
            Some(_) => err(format!("{} trailing bytes after the result", bytes.len() - c.pos)),
            None => err(format!(
                "result does not match the RunResult layout (at byte {} of {})",
                c.pos,
                bytes.len()
            )),
        }
    }

    fn fields(c: &mut Cur) -> Option<RunResult> {
        c.map(20)?;
        Some(RunResult {
            mechanism: c.string("mechanism")?,
            packets: c.u64("packets")?,
            avg_latency: c.f64("avg_latency")?,
            max_latency: c.u64("max_latency")?,
            latency_percentiles: {
                c.key("latency_percentiles")?;
                c.seq(3)?;
                (c.u64_raw()?, c.u64_raw()?, c.u64_raw()?)
            },
            breakdown: {
                c.key("breakdown")?;
                c.seq(5)?;
                [c.f64_raw()?, c.f64_raw()?, c.f64_raw()?, c.f64_raw()?, c.f64_raw()?]
            },
            avg_hops: c.f64("avg_hops")?,
            avg_flov_hops: c.f64("avg_flov_hops")?,
            escape_packets: c.u64("escape_packets")?,
            escape_diversions: c.u64("escape_diversions")?,
            throughput: c.f64("throughput")?,
            power: power(c)?,
            runtime_cycles: c.u64("runtime_cycles")?,
            stalled_injection_cycles: c.u64("stalled_injection_cycles")?,
            gating_events: c.u64("gating_events")?,
            flov_latch_flits: c.u64("flov_latch_flits")?,
            ring_flits: c.u64("ring_flits")?,
            vnet_latency: {
                c.key("vnet_latency")?;
                c.seq(3)?;
                let mut v = [(0u64, 0f64); 3];
                for slot in &mut v {
                    c.seq(2)?;
                    *slot = (c.u64_raw()?, c.f64_raw()?);
                }
                v
            },
            timeline: timeline(c)?,
            delivered_all: c.bool("delivered_all")?,
        })
    }
}

/// Full decode for `flov cache verify`: every section parsed, the spec
/// JSON returned verbatim so the caller can recompute the key.
pub fn decode_entry(bytes: &[u8]) -> Result<BinEntry, BinError> {
    let (kernel_version, hash, spec, result) = frame(bytes)?;
    let spec_json = match std::str::from_utf8(&bytes[spec]) {
        Ok(s) => s.to_string(),
        Err(e) => return err(format!("spec JSON is not UTF-8: {e}")),
    };
    let result = direct::run_result(&bytes[result])?;
    Ok(BinEntry { kernel_version, key: hex(&hash), spec_json, result })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic CRC-32C check value.
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn varints_roundtrip_extremes() {
        for v in [
            0i128,
            1,
            -1,
            63,
            -64,
            i128::from(u64::MAX),
            -i128::from(u64::MAX),
            i128::MAX,
            i128::MIN,
        ] {
            let mut buf = Vec::new();
            write_uvarint(zigzag(v), &mut buf);
            let mut r = Reader { bytes: &buf, pos: 0 };
            assert_eq!(unzigzag(r.uvarint().unwrap()), v, "varint roundtrip for {v}");
            assert_eq!(r.pos, buf.len());
        }
    }

    #[test]
    fn key_bytes_parses_and_rejects() {
        let key = "00ff102030405060708090a0b0c0d0e0";
        let bytes = key_bytes(key).unwrap();
        assert_eq!(bytes[0], 0x00);
        assert_eq!(bytes[1], 0xff);
        assert_eq!(hex(&bytes), key);
        assert!(key_bytes("short").is_none());
        assert!(key_bytes("zz ff102030405060708090a0b0c0d0e0").is_none());
    }
}
