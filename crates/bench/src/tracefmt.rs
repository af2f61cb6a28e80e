//! On-disk flit-trace container (`flov trace record` / `replay`).
//!
//! Layout (all integers little-endian or LEB128 varints):
//!
//! ```text
//! magic        8 bytes   "FLOVTR1\n"
//! kernel       u32 LE    KERNEL_VERSION of the recorder (advisory)
//! spec_len     u32 LE    length of the source-spec JSON
//! spec         bytes     canonical RunSpec JSON of the recorded run
//! n_core       uvarint   core-flip events: (Δcycle, node, active-byte)*
//! n_changed    uvarint   change-pulse cycles: (Δcycle)*
//! n_packets    uvarint   injections: (Δcycle, src, dst, vnet, len)*
//! crc          u32 LE    CRC-32C over everything above
//! ```
//!
//! Cycles are delta-encoded per section (first record is the absolute
//! cycle), which keeps dense traces near one byte per record field. The
//! CRC is the same Castagnoli polynomial as the result-cache container
//! ([`crate::binfmt::crc32`]);
//! [`WorkloadSpec::Trace`](crate::WorkloadSpec::Trace)'s `crc` field pins
//! it into the cache key so a rewritten trace file can never alias a
//! cached result. The kernel-version salt is advisory — replay across
//! versions is legal (the trace is pure data) but the mismatch is
//! surfaced so bit-identity claims are scoped honestly.

use crate::binfmt::{crc32, write_uvarint, BinError, Reader};
use flov_noc::traits::PacketRequest;
use flov_noc::types::{Cycle, NodeId};
use flov_noc::{ConfigError, NocConfig};
use flov_workloads::trace::TraceData;

/// Trace container magic (the result-cache container uses `FLOVBC1\n`).
pub const TRACE_MAGIC: [u8; 8] = *b"FLOVTR1\n";

/// A decoded trace file.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceFile {
    /// `KERNEL_VERSION` of the recording build.
    pub kernel_version: u32,
    /// Canonical JSON of the recorded run's `RunSpec`.
    pub source_spec_json: String,
    pub data: TraceData,
    /// CRC-32C of the file (the value `WorkloadSpec::Trace` pins).
    pub crc: u32,
}

fn err<T>(msg: impl Into<String>) -> Result<T, BinError> {
    Err(BinError(msg.into()))
}

/// Encode a capture into the container bytes (ready to write to disk).
pub fn encode_trace(kernel_version: u32, source_spec_json: &str, data: &TraceData) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + source_spec_json.len() + data.packets.len() * 6);
    out.extend_from_slice(&TRACE_MAGIC);
    out.extend_from_slice(&kernel_version.to_le_bytes());
    out.extend_from_slice(&(source_spec_json.len() as u32).to_le_bytes());
    out.extend_from_slice(source_spec_json.as_bytes());

    write_uvarint(data.core_events.len() as u128, &mut out);
    let mut prev: Cycle = 0;
    for &(cycle, node, on) in &data.core_events {
        write_uvarint((cycle - prev) as u128, &mut out);
        write_uvarint(node as u128, &mut out);
        out.push(on as u8);
        prev = cycle;
    }

    write_uvarint(data.changed_cycles.len() as u128, &mut out);
    prev = 0;
    for &cycle in &data.changed_cycles {
        write_uvarint((cycle - prev) as u128, &mut out);
        prev = cycle;
    }

    write_uvarint(data.packets.len() as u128, &mut out);
    prev = 0;
    for &(cycle, req) in &data.packets {
        write_uvarint((cycle - prev) as u128, &mut out);
        write_uvarint(req.src as u128, &mut out);
        write_uvarint(req.dst as u128, &mut out);
        out.push(req.vnet);
        write_uvarint(req.len as u128, &mut out);
        prev = cycle;
    }

    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn cycle_of(v: u128) -> Result<Cycle, BinError> {
    u64::try_from(v).map_err(|_| BinError("cycle overflows u64".into()))
}

fn node_of(v: u128) -> Result<NodeId, BinError> {
    NodeId::try_from(u64::try_from(v).unwrap_or(u64::MAX))
        .map_err(|_| BinError(format!("node id {v} overflows u16")))
}

/// Read the trace file a [`WorkloadSpec::Trace`] names and check it
/// against the spec: the file must be readable, a valid container, carry
/// the CRC the spec pinned, name only nodes below `cfg`'s core count, and
/// hold only packets of at least one flit on one of `cfg`'s vnets.
///
/// [`WorkloadSpec::Trace`]: crate::spec::WorkloadSpec::Trace
pub fn load_trace(path: &str, crc: u32, cfg: &NocConfig) -> Result<TraceFile, ConfigError> {
    let bad = |why: String| ConfigError::BadTrace { path: path.to_string(), why };
    let bytes = std::fs::read(path).map_err(|e| bad(format!("cannot read: {e}")))?;
    let file = decode_trace(&bytes).map_err(|e| bad(e.0))?;
    if file.crc != crc {
        return Err(bad(format!(
            "CRC {:08x} does not match the spec's {crc:08x} \
             (the file changed since the spec was written)",
            file.crc
        )));
    }
    let cores = cfg.cores();
    if let Some(max) = file.data.max_node().filter(|&n| n as usize >= cores) {
        return Err(bad(format!("references node {max} but the config has {cores} cores")));
    }
    for (i, (cycle, req)) in file.data.packets.iter().enumerate() {
        if req.vnet as usize >= cfg.vnets {
            let vnets = cfg.vnets;
            return Err(bad(format!(
                "packet {i} (cycle {cycle}) is on vnet {} but the config has {vnets} vnets",
                req.vnet
            )));
        }
        if req.len == 0 {
            return Err(bad(format!("packet {i} (cycle {cycle}) has no flits")));
        }
    }
    Ok(file)
}

/// Decode and CRC-check a trace container.
pub fn decode_trace(bytes: &[u8]) -> Result<TraceFile, BinError> {
    if bytes.len() < TRACE_MAGIC.len() + 4 + 4 + 4 {
        return err("trace file too short for header");
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    let actual = crc32(body);
    if stored_crc != actual {
        return err(format!("trace CRC mismatch: stored {stored_crc:08x}, computed {actual:08x}"));
    }

    let mut r = Reader { bytes: body, pos: 0 };
    if r.take(TRACE_MAGIC.len())? != TRACE_MAGIC {
        return err("bad trace magic (not a flov trace file)");
    }
    let kernel_version = u32::from_le_bytes(r.take(4)?.try_into().unwrap());
    let spec_len = u32::from_le_bytes(r.take(4)?.try_into().unwrap()) as usize;
    let source_spec_json = std::str::from_utf8(r.take(spec_len)?)
        .map_err(|_| BinError("source spec is not UTF-8".into()))?
        .to_string();

    let mut data = TraceData::default();
    let n_core = r.bounded_len()?;
    let mut prev: Cycle = 0;
    for _ in 0..n_core {
        let cycle = prev
            .checked_add(cycle_of(r.uvarint()?)?)
            .ok_or_else(|| BinError("core-event cycle overflows u64".into()))?;
        let node = node_of(r.uvarint()?)?;
        let on = match r.byte()? {
            0 => false,
            1 => true,
            b => return err(format!("bad active flag {b}")),
        };
        data.core_events.push((cycle, node, on));
        prev = cycle;
    }

    let n_changed = r.bounded_len()?;
    prev = 0;
    for _ in 0..n_changed {
        let cycle = prev
            .checked_add(cycle_of(r.uvarint()?)?)
            .ok_or_else(|| BinError("change-pulse cycle overflows u64".into()))?;
        data.changed_cycles.push(cycle);
        prev = cycle;
    }

    let n_packets = r.bounded_len()?;
    prev = 0;
    for _ in 0..n_packets {
        let cycle = prev
            .checked_add(cycle_of(r.uvarint()?)?)
            .ok_or_else(|| BinError("packet cycle overflows u64".into()))?;
        let src = node_of(r.uvarint()?)?;
        let dst = node_of(r.uvarint()?)?;
        let vnet = r.byte()?;
        let len = u16::try_from(r.uvarint()?)
            .map_err(|_| BinError("packet length overflows u16".into()))?;
        data.packets.push((cycle, PacketRequest { src, dst, vnet, len }));
        prev = cycle;
    }

    if r.pos != body.len() {
        return err(format!("{} trailing bytes after trace records", body.len() - r.pos));
    }
    Ok(TraceFile { kernel_version, source_spec_json, data, crc: stored_crc })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceData {
        let req = |src, dst, vnet, len| PacketRequest { src, dst, vnet, len };
        TraceData {
            packets: vec![
                (0, req(0, 5, 0, 4)),
                (0, req(3, 1, 2, 4)),
                (17, req(5, 0, 0, 1)),
                (100_000, req(63, 62, 1, 9)),
            ],
            core_events: vec![(0, 2, false), (50, 2, true), (50, 7, false)],
            changed_cycles: vec![0, 50, 99_999],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let data = sample();
        let spec = "{\"fake\":\"spec\"}";
        let bytes = encode_trace(3, spec, &data);
        let file = decode_trace(&bytes).unwrap();
        assert_eq!(file.kernel_version, 3);
        assert_eq!(file.source_spec_json, spec);
        assert_eq!(file.data, data);
        assert_eq!(file.crc, u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap()));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = encode_trace(3, "{}", &TraceData::default());
        let file = decode_trace(&bytes).unwrap();
        assert_eq!(file.data, TraceData::default());
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = encode_trace(3, "{}", &sample());
        // Flip one payload bit: the CRC must catch it.
        bytes[TRACE_MAGIC.len() + 2] ^= 0x40;
        let e = decode_trace(&bytes).unwrap_err();
        assert!(e.0.contains("CRC"), "unexpected error: {}", e.0);

        // Truncation is caught too (either by length or CRC).
        let bytes = encode_trace(3, "{}", &sample());
        assert!(decode_trace(&bytes[..bytes.len() - 5]).is_err());
        assert!(decode_trace(&bytes[..4]).is_err());
    }

    #[test]
    fn foreign_magic_is_rejected() {
        let mut bytes = encode_trace(3, "{}", &TraceData::default());
        bytes[..8].copy_from_slice(b"FLOVBC1\n");
        // Re-stamp a valid CRC so the magic check itself is exercised.
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        let e = decode_trace(&bytes).unwrap_err();
        assert!(e.0.contains("magic"), "unexpected error: {}", e.0);
    }

    #[test]
    fn delta_encoding_is_compact() {
        // 1000 densely-spaced packets should cost ~6 bytes each, not 20+.
        let req = PacketRequest { src: 1, dst: 2, vnet: 0, len: 4 };
        let data =
            TraceData { packets: (0..1000).map(|c| (c * 3, req)).collect(), ..Default::default() };
        let bytes = encode_trace(3, "{}", &data);
        assert!(bytes.len() < 1000 * 8, "trace encoding too fat: {} bytes", bytes.len());
    }
}
