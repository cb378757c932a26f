//! The versioned, length-prefixed wire codec for halo payloads and worker
//! reports — what [`super::socket::SocketTransport`] and the multi-process
//! runner ([`crate::process`]) put on the wire. This file is the one home
//! of the wire contract: `Frame::kind` and `encode` match every variant
//! without a wildcard, so a frame without a kind or a body does not
//! compile, and the tests below check the rest — every kind round-trips,
//! the header admits exactly the declared kinds, the metric tables hold no
//! duplicates, and the bytes of one canonical frame per kind hash to
//! `WIRE_PIN`.
//!
//! Every frame is a 12-byte little-endian header followed by `body_len`
//! bytes of body:
//!
//! ```text
//! offset  size  field
//!      0     4  magic      0x5754_4C53 ("SLTW" on the wire, LE)
//!      4     2  version    6
//!      6     1  kind       0 Hello · 1 Halo · 2 Goodbye · 3 Report
//!      7     1  reserved   0
//!      8     4  body_len
//! ```
//!
//! A `Report` is a worker's whole outcome in one frame: its flight
//! recording, then either its metrics (by the fixed metric-id tables) and
//! final fields, or its typed [`RuntimeError`].
//!
//! Payload `f64`s travel as raw IEEE-754 bit patterns (`to_bits`, LE), so a
//! multi-process run reproduces in-process fields *bitwise* — including NaN
//! payloads, signed zeros and subnormals. Decoding never panics: every read
//! is bounds-checked and malformed input surfaces a [`CodecError`].

use crate::distributed::{RankFields, RankRun};
use crate::error::RuntimeError;
use crate::stats::{names, RankStats};
use lts_obs::{EventKind, FlightEvent, Histogram, Key, MetricsRegistry, RankRecording};

pub(crate) const MAGIC: u32 = 0x5754_4C53;
pub(crate) const VERSION: u16 = 6;
/// Upper bound on `body_len`: rejects absurd allocations from corrupt
/// headers before any buffer is sized.
pub(crate) const MAX_BODY: u32 = 1 << 28;
/// Header size in bytes.
pub const HEADER_LEN: usize = 12;

/// `level` encoding for level-less metric keys.
const NO_LEVEL: u8 = u8::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than a complete frame; not an error on a growing buffer.
    Truncated,
    BadMagic(u32),
    BadVersion(u16),
    UnknownKind(u8),
    /// `body_len` exceeds `MAX_BODY`.
    Oversize(u32),
    /// Structurally invalid body (internal counts disagree with the length).
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadMagic(m) => write!(f, "bad magic 0x{m:08x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            CodecError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            CodecError::Oversize(n) => write!(f, "body length {n} exceeds cap"),
            CodecError::Malformed(what) => write!(f, "malformed body: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A rank's metrics in wire form, by the runtime's fixed metric table
/// (id ↔ name). Only metrics in the table cross the wire; free-form keys
/// stay process-local.
#[derive(Debug, Default)]
struct WireStats {
    /// `(metric id, level | 255, value)`
    counters: Vec<(u8, u8, u64)>,
    /// `(metric id, level | 255, histogram)`
    hists: Vec<(u8, u8, Histogram)>,
    /// `(metric id, level | 255, value)`
    gauges: Vec<(u8, u8, f64)>,
}

/// The fixed metric-id tables. `Key.name` is `&'static str`, so wire-decoded
/// stats can only rebuild metrics whose names are baked in here.
const COUNTER_NAMES: [&str; 7] = [
    names::ELEM_OPS,
    names::EXCHANGES,
    names::MSGS_SENT,
    names::DOFS_SENT,
    names::STALL_WARNINGS,
    names::EXCHANGE_READY,
    names::STALL_WINDOWS,
];
const HIST_NAMES: [&str; 2] = [names::BUSY, names::WAIT];
const GAUGE_NAMES: [&str; 2] = [names::STALL_WAIT_FRAC_WM, names::ELEM_OPS_PER_SEC];

fn table_id(table: &[&str], name: &str) -> Option<u8> {
    table.iter().position(|&n| n == name).map(|i| i as u8)
}

fn wire_level(level: Option<u8>) -> u8 {
    match level {
        Some(l) if l < NO_LEVEL => l,
        _ => NO_LEVEL,
    }
}

fn key_level(wire: u8) -> Option<u8> {
    if wire == NO_LEVEL {
        None
    } else {
        Some(wire)
    }
}

impl WireStats {
    /// Capture the table-known metrics of one rank's view.
    fn from_rank_stats(stats: &RankStats) -> WireStats {
        let mut out = WireStats::default();
        for (key, metric) in stats.registry.iter() {
            if key.label.is_some() {
                continue;
            }
            let lvl = wire_level(key.level);
            match metric {
                lts_obs::Metric::Counter(c) => {
                    if let Some(id) = table_id(&COUNTER_NAMES, key.name) {
                        out.counters.push((id, lvl, *c));
                    }
                }
                lts_obs::Metric::Histogram(h) => {
                    if let Some(id) = table_id(&HIST_NAMES, key.name) {
                        out.hists.push((id, lvl, h.clone()));
                    }
                }
                lts_obs::Metric::Gauge(g) => {
                    if let Some(id) = table_id(&GAUGE_NAMES, key.name) {
                        out.gauges.push((id, lvl, *g));
                    }
                }
            }
        }
        out
    }

    /// Rebuild a [`RankStats`] view (exact counters, exact histogram
    /// contents) for `rank`.
    fn into_rank_stats(self, rank: usize) -> RankStats {
        let mut reg = MetricsRegistry::new();
        for (id, lvl, c) in &self.counters {
            if let Some(&name) = COUNTER_NAMES.get(*id as usize) {
                reg.inc_key(
                    Key {
                        name,
                        level: key_level(*lvl),
                        label: None,
                    },
                    *c,
                );
            }
        }
        for (id, lvl, h) in &self.hists {
            if let Some(&name) = HIST_NAMES.get(*id as usize) {
                reg.set_histogram(
                    Key {
                        name,
                        level: key_level(*lvl),
                        label: None,
                    },
                    h.clone(),
                );
            }
        }
        for (id, lvl, g) in &self.gauges {
            if let Some(&name) = GAUGE_NAMES.get(*id as usize) {
                match key_level(*lvl) {
                    Some(l) => reg.set_gauge_level(name, l, *g),
                    None => reg.set_gauge(name, *g),
                }
            }
        }
        RankStats::from_registry(rank, reg)
    }
}

/// One wire frame.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Worker → router handshake: which rank this connection carries.
    Hello { rank: u32 },
    /// A halo payload from `src` to `dst`, tagged with its LTS level and
    /// the sender's per-directed-edge sequence number.
    Halo {
        src: u32,
        dst: u32,
        level: u8,
        seq: u64,
        payload: Vec<f64>,
    },
    /// `rank`'s endpoint is gone; no further frames from it.
    Goodbye { rank: u32 },
    /// A worker's whole outcome, its last frame: the drained flight
    /// recorder of rank `recording.rank` and its run — final fields in
    /// rank-local numbering plus the local→global DOF map, and its
    /// statistics (the metric-table part of them); or its typed failure.
    Report {
        recording: RankRecording,
        run: RankRun,
    },
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0,
            Frame::Halo { .. } => 1,
            Frame::Goodbye { .. } => 2,
            Frame::Report { .. } => 3,
        }
    }
}

// ---- encoding ------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_u32(out, vs.len() as u32);
    for &x in vs {
        put_f64(out, x);
    }
}

fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    put_u32(out, vs.len() as u32);
    for &x in vs {
        put_u32(out, x);
    }
}

fn put_hist(out: &mut Vec<u8>, h: &Histogram) {
    put_u64(out, h.count);
    put_f64(out, h.sum);
    put_f64(out, h.min);
    put_f64(out, h.max);
}

fn put_recording(out: &mut Vec<u8>, recording: &RankRecording) {
    put_u32(out, recording.rank);
    put_u64(out, recording.dropped);
    put_u32(out, recording.events.len() as u32);
    for ev in &recording.events {
        put_u64(out, ev.t_ns);
        out.push(ev.kind as u8);
        out.push(ev.level);
        put_u32(out, ev.step);
        put_u32(out, ev.peer);
        put_u64(out, ev.seq);
    }
}

fn put_stats(out: &mut Vec<u8>, stats: &WireStats) {
    put_u32(out, stats.counters.len() as u32);
    for &(id, lvl, v) in &stats.counters {
        out.push(id);
        out.push(lvl);
        put_u64(out, v);
    }
    put_u32(out, stats.hists.len() as u32);
    for (id, lvl, h) in &stats.hists {
        out.push(*id);
        out.push(*lvl);
        put_hist(out, h);
    }
    put_u32(out, stats.gauges.len() as u32);
    for &(id, lvl, g) in &stats.gauges {
        out.push(id);
        out.push(lvl);
        put_f64(out, g);
    }
}

fn put_tagged(out: &mut Vec<u8>, tag: u8, fields: &[usize]) {
    out.push(tag);
    for &x in fields {
        put_u32(out, x as u32);
    }
}

/// A [`RuntimeError`] as its variant tag, then its fields in declaration
/// order (`usize` as `u32`, `detail` as a length-prefixed UTF-8 string).
fn put_error(out: &mut Vec<u8>, e: &RuntimeError) {
    use RuntimeError::*;
    match e {
        PeerDisconnected { rank, peer, level } => put_tagged(out, 0, &[*rank, *peer, *level]),
        ChannelClosed { rank, level } => put_tagged(out, 1, &[*rank, *level]),
        NotAPeer { rank, peer, level } => put_tagged(out, 2, &[*rank, *peer, *level]),
        ExchangeTimeout { rank, level } => put_tagged(out, 3, &[*rank, *level]),
        FaultInjected { rank, level } => put_tagged(out, 4, &[*rank, *level]),
        BadPayload { rank, peer, level } => put_tagged(out, 5, &[*rank, *peer, *level]),
        TransportIo {
            rank,
            level,
            detail,
        } => {
            put_tagged(out, 6, &[*rank, *level]);
            put_u32(out, detail.len() as u32);
            out.extend_from_slice(detail.as_bytes());
        }
        RankPanicked { rank } => put_tagged(out, 7, &[*rank]),
        MissingRank { rank } => put_tagged(out, 8, &[*rank]),
    }
}

/// Append `frame`'s bytes (header + body) to `out`.
pub(crate) fn encode(frame: &Frame, out: &mut Vec<u8>) {
    let header_at = out.len();
    put_u32(out, MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(frame.kind());
    out.push(0); // reserved
    put_u32(out, 0); // body_len backpatched below
    let body_at = out.len();
    match frame {
        Frame::Hello { rank } | Frame::Goodbye { rank } => put_u32(out, *rank),
        Frame::Halo {
            src,
            dst,
            level,
            seq,
            payload,
        } => {
            put_u32(out, *src);
            put_u32(out, *dst);
            out.push(*level);
            put_u64(out, *seq);
            put_f64s(out, payload);
        }
        Frame::Report { recording, run } => {
            put_recording(out, recording);
            match run {
                Ok((fields, stats)) => {
                    out.push(0);
                    put_stats(out, &WireStats::from_rank_stats(stats));
                    put_f64s(out, &fields.u);
                    put_f64s(out, &fields.v);
                    put_u32s(out, &fields.global_of_local);
                }
                Err(e) => {
                    out.push(1);
                    put_error(out, e);
                }
            }
        }
    }
    let body_len = (out.len() - body_at) as u32;
    out[header_at + 8..header_at + 12].copy_from_slice(&body_len.to_le_bytes());
}

/// Convenience: one frame as a fresh byte vector.
pub fn encode_vec(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode(frame, &mut out);
    out
}

/// Encode a `Halo` frame straight from a payload slice — the socket hot
/// path, which must not copy the payload into a `Frame` first.
pub(crate) fn encode_halo_into(
    src: u32,
    dst: u32,
    level: u8,
    seq: u64,
    payload: &[f64],
    out: &mut Vec<u8>,
) {
    let header_at = out.len();
    put_u32(out, MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(1); // kind: Halo
    out.push(0); // reserved
    put_u32(out, 0); // body_len backpatched below
    let body_at = out.len();
    put_u32(out, src);
    put_u32(out, dst);
    out.push(level);
    put_u64(out, seq);
    put_f64s(out, payload);
    let body_len = (out.len() - body_at) as u32;
    out[header_at + 8..header_at + 12].copy_from_slice(&body_len.to_le_bytes());
}

// ---- decoding ------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .at
            .checked_add(n)
            .ok_or(CodecError::Malformed("length overflow"))?;
        let s = self
            .buf
            .get(self.at..end)
            .ok_or(CodecError::Malformed("body shorter than its contents"))?;
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u32` count that must be payable by the remaining bytes at
    /// `elem_bytes` each — rejects allocation bombs from corrupt counts.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        let need = n
            .checked_mul(elem_bytes)
            .ok_or(CodecError::Malformed("count overflow"))?;
        if self.buf.len() - self.at < need {
            return Err(CodecError::Malformed("count exceeds body"));
        }
        Ok(n)
    }

    fn f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.count(8)?;
        // lint: allow(hot-path-alloc) — the codec's ownership boundary: a
        // decoded frame owns its payload; halo payloads land in the
        // caller's reused buffer one copy later
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    fn u32s(&mut self) -> Result<Vec<u32>, CodecError> {
        let n = self.count(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn hist(&mut self) -> Result<Histogram, CodecError> {
        Ok(Histogram {
            count: self.u64()?,
            sum: self.f64()?,
            min: self.f64()?,
            max: self.f64()?,
        })
    }

    fn recording(&mut self) -> Result<RankRecording, CodecError> {
        let rank = self.u32()?;
        let dropped = self.u64()?;
        let n = self.count(26)?;
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            let t_ns = self.u64()?;
            let kind = EventKind::from_u8(self.u8()?)
                .ok_or(CodecError::Malformed("unknown flight event kind"))?;
            events.push(FlightEvent {
                t_ns,
                kind,
                level: self.u8()?,
                step: self.u32()?,
                peer: self.u32()?,
                seq: self.u64()?,
            });
        }
        Ok(RankRecording {
            rank,
            dropped,
            events,
        })
    }

    fn stats(&mut self) -> Result<WireStats, CodecError> {
        let mut stats = WireStats::default();
        for _ in 0..self.count(10)? {
            stats.counters.push((self.u8()?, self.u8()?, self.u64()?));
        }
        for _ in 0..self.count(2 + 8 * 4)? {
            stats.hists.push((self.u8()?, self.u8()?, self.hist()?));
        }
        for _ in 0..self.count(10)? {
            stats.gauges.push((self.u8()?, self.u8()?, self.f64()?));
        }
        Ok(stats)
    }

    /// The inverse of [`put_error`].
    fn error(&mut self) -> Result<RuntimeError, CodecError> {
        use RuntimeError::*;
        let tag = self.u8()?;
        let rank = self.u32()? as usize;
        Ok(match tag {
            0 => PeerDisconnected {
                rank,
                peer: self.u32()? as usize,
                level: self.u32()? as usize,
            },
            1 => ChannelClosed {
                rank,
                level: self.u32()? as usize,
            },
            2 => NotAPeer {
                rank,
                peer: self.u32()? as usize,
                level: self.u32()? as usize,
            },
            3 => ExchangeTimeout {
                rank,
                level: self.u32()? as usize,
            },
            4 => FaultInjected {
                rank,
                level: self.u32()? as usize,
            },
            5 => BadPayload {
                rank,
                peer: self.u32()? as usize,
                level: self.u32()? as usize,
            },
            6 => {
                let level = self.u32()? as usize;
                let n = self.count(1)?;
                let detail = String::from_utf8(self.take(n)?.to_vec())
                    .map_err(|_| CodecError::Malformed("error detail is not UTF-8"))?;
                TransportIo {
                    rank,
                    level,
                    detail,
                }
            }
            7 => RankPanicked { rank },
            8 => MissingRank { rank },
            _ => return Err(CodecError::Malformed("unknown runtime error kind")),
        })
    }

    /// A `Report` body. Cold: reports arrive once per worker, at teardown,
    /// so what they allocate is off every hot path.
    #[cold]
    fn report(&mut self) -> Result<Frame, CodecError> {
        let recording = self.recording()?;
        let rank = recording.rank as usize;
        let run = match self.u8()? {
            0 => {
                let stats = self.stats()?.into_rank_stats(rank);
                let fields = RankFields {
                    u: self.f64s()?,
                    v: self.f64s()?,
                    global_of_local: self.u32s()?,
                };
                let n = fields.global_of_local.len();
                if fields.u.len() != n || fields.v.len() != n {
                    return Err(CodecError::Malformed("field lengths disagree"));
                }
                Ok((fields, stats))
            }
            1 => Err(self.error()?),
            _ => return Err(CodecError::Malformed("unknown report outcome")),
        };
        Ok(Frame::Report { recording, run })
    }

    fn done(&self) -> Result<(), CodecError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes after body"))
        }
    }
}

/// Validate a 12-byte header; returns `(kind, body_len)`.
pub fn decode_header(h: &[u8]) -> Result<(u8, u32), CodecError> {
    if h.len() < HEADER_LEN {
        return Err(CodecError::Truncated);
    }
    let magic = u32::from_le_bytes([h[0], h[1], h[2], h[3]]);
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = u16::from_le_bytes([h[4], h[5]]);
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let kind = h[6];
    if kind > 3 {
        return Err(CodecError::UnknownKind(kind));
    }
    let body_len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
    if body_len > MAX_BODY {
        return Err(CodecError::Oversize(body_len));
    }
    Ok((kind, body_len))
}

/// Decode a frame body already split off by its header.
pub(crate) fn decode_body(kind: u8, body: &[u8]) -> Result<Frame, CodecError> {
    let mut r = Reader { buf: body, at: 0 };
    let frame = match kind {
        0 => Frame::Hello { rank: r.u32()? },
        1 => Frame::Halo {
            src: r.u32()?,
            dst: r.u32()?,
            level: r.u8()?,
            seq: r.u64()?,
            payload: r.f64s()?,
        },
        2 => Frame::Goodbye { rank: r.u32()? },
        3 => r.report()?,
        other => return Err(CodecError::UnknownKind(other)),
    };
    r.done()?;
    Ok(frame)
}

/// Decode the first frame in `buf`. Returns the frame and how many bytes it
/// consumed; [`CodecError::Truncated`] means "feed me more bytes".
pub fn decode(buf: &[u8]) -> Result<(Frame, usize), CodecError> {
    let (kind, body_len) = decode_header(buf)?;
    let total = HEADER_LEN + body_len as usize;
    let body = buf.get(HEADER_LEN..total).ok_or(CodecError::Truncated)?;
    Ok((decode_body(kind, body)?, total))
}

// ---- stream I/O ----------------------------------------------------------

/// Stream-side failures of [`read_frame`].
#[derive(Debug)]
pub(crate) enum StreamError {
    /// Clean end of stream at a frame boundary.
    Eof,
    Io(std::io::Error),
    Codec(CodecError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Eof => write!(f, "end of stream"),
            StreamError::Io(e) => write!(f, "stream i/o: {e}"),
            StreamError::Codec(e) => write!(f, "stream codec: {e}"),
        }
    }
}

fn read_exact_or_eof<R: std::io::Read>(
    r: &mut R,
    buf: &mut [u8],
    eof_ok_at_start: bool,
) -> Result<(), StreamError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if got == 0 && eof_ok_at_start {
                    StreamError::Eof
                } else {
                    StreamError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "eof mid-frame",
                    ))
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(StreamError::Io(e)),
        }
    }
    Ok(())
}

/// Read one complete frame from `r`, using `scratch` as the body buffer.
/// [`StreamError::Eof`] is returned only at a clean frame boundary.
pub(crate) fn read_frame<R: std::io::Read>(
    r: &mut R,
    scratch: &mut Vec<u8>,
) -> Result<Frame, StreamError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_or_eof(r, &mut header, true)?;
    read_body(&header, r, scratch)
}

/// Finish reading a frame whose 12-byte header is already in hand (the
/// socket backend reads headers itself so a receive timeout can stay
/// byte-aligned).
pub(crate) fn read_body<R: std::io::Read>(
    header: &[u8],
    mut r: R,
    scratch: &mut Vec<u8>,
) -> Result<Frame, StreamError> {
    let (kind, body_len) = decode_header(header).map_err(StreamError::Codec)?;
    scratch.clear();
    scratch.resize(body_len as usize, 0);
    read_exact_or_eof(&mut r, scratch, false)?;
    decode_body(kind, scratch).map_err(StreamError::Codec)
}

/// Write one frame to `w` (no flush).
pub(crate) fn write_frame<W: std::io::Write>(w: &mut W, frame: &Frame) -> std::io::Result<()> {
    let mut bytes = Vec::new();
    encode(frame, &mut bytes);
    w.write_all(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wire's fingerprint at this [`VERSION`]: the FNV-1a hash of the
    /// canonical frames' bytes (test `canonical_frames_hash_to_the_pin`). A
    /// change to the bytes of any frame fails that test: bump [`VERSION`],
    /// then re-pin this.
    const WIRE_PIN: u64 = 0x27cb_7d5e_a004_573b;

    /// FNV-1a, 64-bit.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// One error of every [`RuntimeError`] variant.
    fn every_error() -> Vec<RuntimeError> {
        use RuntimeError::*;
        vec![
            PeerDisconnected {
                rank: 0,
                peer: 1,
                level: 2,
            },
            ChannelClosed { rank: 1, level: 0 },
            NotAPeer {
                rank: 2,
                peer: 3,
                level: 1,
            },
            ExchangeTimeout { rank: 3, level: 4 },
            FaultInjected { rank: 1, level: 1 },
            BadPayload {
                rank: 0,
                peer: 2,
                level: 3,
            },
            TransportIo {
                rank: 4,
                level: 0,
                detail: "send: broken pipe — ünïcode".into(),
            },
            RankPanicked { rank: 5 },
            MissingRank { rank: 6 },
        ]
    }

    /// A rank's statistics holding every metric of every wire table, at a
    /// level and level-less.
    fn every_metric_stats(rank: usize) -> RankStats {
        let mut reg = MetricsRegistry::new();
        for &name in &COUNTER_NAMES {
            reg.inc_level(name, 0, name.len() as u64);
            reg.inc(name, 1);
        }
        for &name in &HIST_NAMES {
            reg.observe(name, Some(1), 0.25);
            reg.observe(name, None, 3.0);
        }
        for &name in &GAUGE_NAMES {
            reg.set_gauge_level(name, 2, 0.75);
            reg.set_gauge(name, 0.5);
        }
        RankStats::from_registry(rank, reg)
    }

    /// A recording holding one event of every [`EventKind`].
    fn every_event_recording(rank: u32) -> RankRecording {
        let events = (0..=u8::MAX)
            .filter_map(EventKind::from_u8)
            .enumerate()
            .map(|(i, kind)| FlightEvent {
                t_ns: 100 * i as u64,
                kind,
                level: i as u8,
                step: 7,
                peer: rank ^ 1,
                seq: 40 + i as u64,
            })
            .collect();
        RankRecording {
            rank,
            dropped: 3,
            events,
        }
    }

    /// The pinned frames: one of every kind (the report a successful one),
    /// then a failed report of every [`RuntimeError`] variant.
    fn canonical_frames() -> Vec<Frame> {
        let mut frames = vec![
            Frame::Hello { rank: 7 },
            Frame::Halo {
                src: 1,
                dst: 2,
                level: 3,
                seq: 0x0102_0304_0506_0708,
                payload: vec![0.0, -0.0, f64::NAN, f64::INFINITY, 1e-310, -2.5],
            },
            Frame::Goodbye { rank: 0 },
            Frame::Report {
                recording: every_event_recording(1),
                run: Ok((
                    RankFields {
                        u: vec![1.5, -2.5, 0.0],
                        v: vec![0.0, 1e-300, -1.0],
                        global_of_local: vec![10, 11, 12],
                    },
                    every_metric_stats(1),
                )),
            },
        ];
        frames.extend(every_error().into_iter().map(|e| Frame::Report {
            recording: every_event_recording(2),
            run: Err(e),
        }));
        frames
    }

    fn sample_frames() -> Vec<Frame> {
        let mut frames = canonical_frames();
        frames.push(Frame::Halo {
            src: 0,
            dst: 1,
            level: 0,
            seq: 0,
            payload: vec![],
        });
        frames.push(Frame::Report {
            recording: RankRecording::default(),
            run: Ok((
                RankFields {
                    u: vec![],
                    v: vec![],
                    global_of_local: vec![],
                },
                RankStats::default(),
            )),
        });
        frames
    }

    #[test]
    fn round_trip_all_kinds() {
        for f in sample_frames() {
            let bytes = encode_vec(&f);
            let (g, used) = decode(&bytes).expect("decode");
            assert_eq!(used, bytes.len());
            // NaN payloads break PartialEq; compare re-encodings (bit-exact)
            assert_eq!(encode_vec(&g), bytes);
        }
    }

    #[test]
    fn reports_carry_the_typed_outcome() {
        for e in every_error() {
            let bytes = encode_vec(&Frame::Report {
                recording: every_event_recording(2),
                run: Err(e.clone()),
            });
            match decode(&bytes) {
                Ok((Frame::Report { recording, run }, _)) => {
                    assert_eq!(recording, every_event_recording(2));
                    assert_eq!(run.err(), Some(e));
                }
                other => panic!("{e}: {other:?}"),
            }
        }
        let frame = &canonical_frames()[3];
        match decode(&encode_vec(frame)) {
            Ok((
                Frame::Report {
                    run: Ok((f, st)), ..
                },
                _,
            )) => {
                assert_eq!(f.global_of_local, vec![10, 11, 12]);
                assert_eq!(st.rank, 1);
                let sent = every_metric_stats(1);
                assert_eq!(st.elem_ops, sent.elem_ops);
                assert_eq!(st.busy_s.to_bits(), sent.busy_s.to_bits());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn canonical_frames_hash_to_the_pin() {
        let mut bytes = Vec::new();
        for f in canonical_frames() {
            encode(&f, &mut bytes);
        }
        let got = fnv1a(&bytes);
        assert_eq!(
            got, WIRE_PIN,
            "the canonical frames' bytes changed (hash {got:#018x}): bump VERSION, then re-pin WIRE_PIN"
        );
    }

    #[test]
    fn header_admits_exactly_the_declared_kinds() {
        let mut declared: Vec<u8> = canonical_frames().iter().map(Frame::kind).collect();
        declared.dedup();
        let n = declared.len() as u8;
        assert_eq!(declared, (0..n).collect::<Vec<_>>(), "kinds are 0..{n}");
        let mut header = encode_vec(&Frame::Hello { rank: 0 });
        for kind in 0..=u8::MAX {
            header[6] = kind;
            let got = decode_header(&header[..HEADER_LEN]);
            if kind < n {
                assert_eq!(got, Ok((kind, 4)), "kind {kind}");
            } else {
                assert_eq!(got, Err(CodecError::UnknownKind(kind)), "kind {kind}");
            }
        }
    }

    #[test]
    fn metric_tables_have_no_duplicates() {
        for table in [&COUNTER_NAMES[..], &HIST_NAMES, &GAUGE_NAMES] {
            for (i, name) in table.iter().enumerate() {
                assert_eq!(table_id(table, name), Some(i as u8), "{name} listed twice");
            }
        }
    }

    #[test]
    fn mismatched_report_fields_are_malformed() {
        let bytes = encode_vec(&Frame::Report {
            recording: RankRecording::default(),
            run: Ok((
                RankFields {
                    u: vec![1.0, 2.0],
                    v: vec![1.0, 2.0],
                    global_of_local: vec![0, 1, 2],
                },
                RankStats::default(),
            )),
        });
        assert_eq!(
            decode(&bytes).unwrap_err(),
            CodecError::Malformed("field lengths disagree")
        );
    }

    #[test]
    fn truncation_is_always_truncated_error() {
        for f in sample_frames() {
            let bytes = encode_vec(&f);
            for cut in 0..bytes.len() {
                match decode(&bytes[..cut]) {
                    Err(CodecError::Truncated) => {}
                    other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        let bytes = encode_vec(&Frame::Hello { rank: 1 });
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(decode(&bad), Err(CodecError::BadMagic(_))));
        let mut bad = bytes.clone();
        bad[4] = 0x7f;
        assert!(matches!(decode(&bad), Err(CodecError::BadVersion(_))));
        // a peer one version behind is refused
        let mut bad = bytes.clone();
        bad[4..6].copy_from_slice(&(VERSION - 1).to_le_bytes());
        assert_eq!(
            decode(&bad).unwrap_err(),
            CodecError::BadVersion(VERSION - 1)
        );
        let mut bad = bytes.clone();
        bad[6] = 250;
        assert!(matches!(decode(&bad), Err(CodecError::UnknownKind(250))));
        let mut bad = bytes;
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&bad), Err(CodecError::Oversize(_))));
    }

    #[test]
    fn corrupt_counts_do_not_allocate_or_panic() {
        // a Halo whose ndof field claims more doubles than the body holds
        let mut bytes = encode_vec(&Frame::Halo {
            src: 0,
            dst: 1,
            level: 0,
            seq: 9,
            payload: vec![1.0, 2.0],
        });
        // ndof lives right after src+dst+level+seq in the body
        let ndof_at = HEADER_LEN + 17;
        bytes[ndof_at..ndof_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(CodecError::Malformed(_))));
    }

    #[test]
    fn stream_read_write_round_trips() {
        let mut wire = Vec::new();
        for f in sample_frames() {
            write_frame(&mut wire, &f).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire);
        let mut scratch = Vec::new();
        for f in sample_frames() {
            let got = read_frame(&mut cursor, &mut scratch).expect("frame");
            assert_eq!(encode_vec(&got), encode_vec(&f));
        }
        assert!(matches!(
            read_frame(&mut cursor, &mut scratch),
            Err(StreamError::Eof)
        ));
    }

    #[test]
    fn wire_stats_rebuild_exact_counters_and_hists() {
        let mut reg = MetricsRegistry::new();
        reg.inc_level(names::ELEM_OPS, 0, 100);
        reg.inc_level(names::ELEM_OPS, 1, 23);
        reg.inc_level(names::EXCHANGES, 1, 4);
        reg.observe(names::BUSY, Some(0), 0.5);
        reg.observe(names::BUSY, None, 0.25);
        reg.observe(names::WAIT, Some(0), 0.0625);
        reg.set_gauge_level(names::STALL_WAIT_FRAC_WM, 0, 0.5);
        let stats = RankStats::from_registry(3, reg);
        let wire = WireStats::from_rank_stats(&stats);
        let back = wire.into_rank_stats(3);
        assert_eq!(back.elem_ops, 123);
        assert_eq!(back.n_exchanges, 4);
        assert_eq!(back.busy_s.to_bits(), stats.busy_s.to_bits());
        assert_eq!(back.wait_s.to_bits(), stats.wait_s.to_bits());
        assert_eq!(
            back.registry.gauge(names::STALL_WAIT_FRAC_WM, Some(0)),
            Some(0.5)
        );
        let h = back.registry.histogram(names::BUSY, Some(0)).unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum.to_bits(), 0.5f64.to_bits());
    }
}
