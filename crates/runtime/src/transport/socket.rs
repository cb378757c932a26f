//! Unix-domain-socket backend: every endpoint holds one stream to a star
//! router, and halo payloads travel as [`super::codec`] frames — the same
//! bytes the multi-process `wave-lts worker` runner puts on the wire
//! (see [`crate::process`]).
//!
//! `in_process_cluster` builds the fabric inside one process from
//! `UnixStream::pair`s plus one detached router thread per rank, which is
//! how the conformance and bitwise-identity suites exercise the real codec
//! path without spawning OS processes. The router forwards frames verbatim
//! (header + body bytes, no re-encode) and converts a rank's EOF into a
//! `Goodbye` broadcast, after everything that rank already sent — preserving
//! per-sender FIFO and goodbye-after-drain end to end.

use super::codec::{self, decode_header, encode, Frame, StreamError, HEADER_LEN};
use super::{bad_peer, Recv, Transport, TransportError, TransportMetrics};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One rank's endpoint: a single full-duplex stream carrying codec frames.
pub struct SocketTransport {
    rank: usize,
    n: usize,
    stream: UnixStream,
    /// Reused encode buffer; steady-state sends allocate nothing.
    wbuf: Vec<u8>,
    /// Reused body buffer for the blocking read path.
    scratch: Vec<u8>,
    closed: bool,
    /// A mid-frame failure desyncs the byte stream; everything after is noise.
    dead: bool,
    metrics: TransportMetrics,
}

impl SocketTransport {
    /// Wrap an already connected stream (in-process router or a real
    /// `wave-lts worker` connection).
    pub(crate) fn new(rank: usize, n: usize, stream: UnixStream) -> SocketTransport {
        SocketTransport {
            rank,
            n,
            stream,
            wbuf: Vec::new(),
            scratch: Vec::new(),
            closed: false,
            dead: false,
            metrics: TransportMetrics::default(),
        }
    }

    fn write_frame(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.wbuf.clear();
        encode(frame, &mut self.wbuf);
        self.metrics.bytes_sent += self.wbuf.len() as u64;
        (&self.stream)
            .write_all(&self.wbuf)
            .map_err(|e| io_err("send", &e))
    }

    /// Read one frame; `timeout` applies only until the first header byte
    /// arrives (a timeout there leaves the stream aligned), after which the
    /// rest of the frame is read blocking. A timeout that strikes mid-header
    /// marks the endpoint dead: the stream can no longer be trusted.
    fn read_frame_timeout(&mut self, timeout: Option<Duration>) -> Result<Frame, TransportError> {
        if self.dead {
            return Err(TransportError::Closed);
        }
        let mut header = [0u8; HEADER_LEN];
        let mut got = 0usize;
        if timeout.is_some() {
            let _ = self.stream.set_read_timeout(timeout);
        }
        while got < HEADER_LEN {
            match (&self.stream).read(&mut header[got..]) {
                Ok(0) => {
                    self.dead = true;
                    let _ = self.stream.set_read_timeout(None);
                    return Err(TransportError::Closed);
                }
                Ok(k) => {
                    if got == 0 {
                        // aligned again; the rest of the frame reads blocking
                        let _ = self.stream.set_read_timeout(None);
                    }
                    got += k;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    let _ = self.stream.set_read_timeout(None);
                    if got > 0 {
                        self.dead = true;
                    }
                    return Err(TransportError::Timeout);
                }
                Err(e) => {
                    self.dead = true;
                    let _ = self.stream.set_read_timeout(None);
                    return Err(io_err("recv", &e));
                }
            }
        }
        match codec::read_body(&header, &self.stream, &mut self.scratch) {
            Ok(frame) => Ok(frame),
            Err(StreamError::Eof) | Err(StreamError::Io(_)) => {
                self.dead = true;
                Err(TransportError::Closed)
            }
            Err(StreamError::Codec(e)) => {
                self.dead = true;
                Err(TransportError::Codec(e))
            }
        }
    }
}

#[cold]
fn io_err(what: &str, e: &std::io::Error) -> TransportError {
    TransportError::Io(format!("{what}: {e}"))
}

impl Transport for SocketTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn n_ranks(&self) -> usize {
        self.n
    }

    fn backend(&self) -> &'static str {
        "unix-socket"
    }

    fn send(
        &mut self,
        peer: usize,
        level: u8,
        seq: u64,
        payload: &[f64],
    ) -> Result<(), TransportError> {
        if self.closed || self.dead {
            return Err(TransportError::Closed);
        }
        if peer == self.rank || peer >= self.n {
            return Err(bad_peer(peer));
        }
        self.metrics.msgs_sent += 1;
        self.metrics.doubles_sent += payload.len() as u64;
        // frame assembly reuses wbuf; only first-use growth allocates
        self.wbuf.clear();
        encode_halo(self.rank, peer, level, seq, payload, &mut self.wbuf);
        self.metrics.bytes_sent += self.wbuf.len() as u64;
        let wbuf = std::mem::take(&mut self.wbuf);
        let r = (&self.stream)
            .write_all(&wbuf)
            .map_err(|e| io_err("send", &e));
        self.wbuf = wbuf;
        r
    }

    fn recv_into_timeout(
        &mut self,
        buf: &mut Vec<f64>,
        timeout: Option<Duration>,
    ) -> Result<Recv, TransportError> {
        buf.clear();
        loop {
            match self.read_frame_timeout(timeout)? {
                Frame::Halo {
                    src,
                    level,
                    seq,
                    payload,
                    ..
                } => {
                    buf.extend_from_slice(&payload);
                    return Ok(Recv::Msg {
                        from: src as usize,
                        level,
                        seq,
                    });
                }
                Frame::Goodbye { rank } => {
                    return Ok(Recv::Goodbye {
                        from: rank as usize,
                    })
                }
                // handshake/report frames are router business; skip them here
                _ => {}
            }
        }
    }

    fn metrics(&self) -> TransportMetrics {
        self.metrics
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        let _ = self.write_frame(&Frame::Goodbye {
            rank: self.rank as u32,
        });
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.close();
    }
}

/// Encode a Halo frame without constructing a `Frame` (no payload copy).
fn encode_halo(src: usize, dst: usize, level: u8, seq: u64, payload: &[f64], out: &mut Vec<u8>) {
    codec::encode_halo_into(src as u32, dst as u32, level, seq, payload, out);
}

// ---- in-process star router ----------------------------------------------

/// Build `n` socket endpoints wired through detached router threads inside
/// this process. Fails only on fd exhaustion.
pub(crate) fn in_process_cluster(n: usize) -> std::io::Result<Vec<Box<dyn Transport>>> {
    let mut endpoints: Vec<Box<dyn Transport>> = Vec::with_capacity(n);
    let mut router_side = Vec::with_capacity(n);
    for rank in 0..n {
        let (ep, rt) = UnixStream::pair()?;
        endpoints.push(Box::new(SocketTransport::new(rank, n, ep)));
        router_side.push(rt);
    }
    let writers: Vec<Arc<Mutex<UnixStream>>> = router_side
        .iter()
        .map(|s| s.try_clone().map(|c| Arc::new(Mutex::new(c))))
        .collect::<std::io::Result<_>>()?;
    for (rank, stream) in router_side.into_iter().enumerate() {
        let writers = writers.clone();
        std::thread::spawn(move || route_rank(rank, stream, &writers));
    }
    Ok(endpoints)
}

/// Forward rank `from`'s frames until EOF/goodbye, then broadcast its
/// goodbye to everyone else. Frames are relayed verbatim. Shared with the
/// multi-process coordinator ([`crate::process`]), whose star router is the
/// same loop over real worker connections.
pub(crate) fn route_rank(from: usize, mut stream: UnixStream, writers: &[Arc<Mutex<UnixStream>>]) {
    let mut header = [0u8; HEADER_LEN];
    let mut body = Vec::new();
    loop {
        if read_exact(&mut stream, &mut header).is_err() {
            break;
        }
        let Ok((kind, body_len)) = decode_header(&header) else {
            break;
        };
        body.clear();
        body.resize(body_len as usize, 0);
        if read_exact(&mut stream, &mut body).is_err() {
            break;
        }
        match kind {
            // Halo: dst sits at body[4..8]
            1 => {
                let dst = u32::from_le_bytes([body[4], body[5], body[6], body[7]]) as usize;
                if dst < writers.len() && forward(&writers[dst], &header, &body).is_err() {
                    // dst gone; its goodbye will reach the sender separately
                }
            }
            // explicit goodbye: stop forwarding, fall through to broadcast
            2 => break,
            _ => {}
        }
    }
    let bye = codec::encode_vec(&Frame::Goodbye { rank: from as u32 });
    for (dst, w) in writers.iter().enumerate() {
        if dst != from {
            let mut s = lock(w);
            let _ = s.write_all(&bye);
        }
    }
    let _ = lock(&writers[from]).shutdown(std::net::Shutdown::Both);
}

fn forward(w: &Arc<Mutex<UnixStream>>, header: &[u8], body: &[u8]) -> std::io::Result<()> {
    let mut s = lock(w);
    s.write_all(header)?;
    s.write_all(body)
}

fn read_exact(stream: &mut UnixStream, buf: &mut [u8]) -> std::io::Result<()> {
    let mut got = 0usize;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof",
                ))
            }
            Ok(k) => got += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_route_between_endpoints() {
        let mut eps = in_process_cluster(3).unwrap();
        let mut c = eps.pop().unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(2, 1, 5, &[1.0, f64::NAN]).unwrap();
        b.send(2, 0, 6, &[2.0]).unwrap();
        let mut buf = Vec::new();
        let mut seen = Vec::new();
        for _ in 0..2 {
            match c.recv_into(&mut buf).unwrap() {
                Recv::Msg { from, level, seq } => seen.push((from, level, seq, buf.clone())),
                g => panic!("unexpected {g:?}"),
            }
        }
        seen.sort_by_key(|e| e.0);
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[0].1, 1);
        assert_eq!(seen[0].2, 5);
        assert_eq!(seen[0].3[0], 1.0);
        assert!(seen[0].3[1].is_nan());
        assert_eq!(seen[1], (1, 0, 6, vec![2.0]));
        drop(a);
        drop(b);
        assert!(matches!(c.recv_into(&mut buf), Ok(Recv::Goodbye { .. })));
        assert!(matches!(c.recv_into(&mut buf), Ok(Recv::Goodbye { .. })));
    }

    #[test]
    fn timed_recv_times_out_cleanly_and_stream_survives() {
        let mut eps = in_process_cluster(2).unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let mut buf = Vec::new();
        assert_eq!(
            b.recv_into_timeout(&mut buf, Some(Duration::from_millis(20))),
            Err(TransportError::Timeout)
        );
        a.send(1, 9, 3, &[7.0]).unwrap();
        assert_eq!(
            b.recv_into(&mut buf).unwrap(),
            Recv::Msg {
                from: 0,
                level: 9,
                seq: 3
            }
        );
        assert_eq!(buf, vec![7.0]);
    }
}
