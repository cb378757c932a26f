//! Multi-process runner: a coordinator plus `wave-lts worker` OS processes
//! speaking the [`crate::transport::codec`] wire protocol over Unix sockets.
//!
//! The coordinator binds a Unix listener, spawns one worker process per
//! rank, and plays the same star-router role the in-process socket fabric
//! uses ([`crate::transport::socket`]): each worker dials in, identifies
//! itself with a `Hello` frame, and from then on its `Halo` frames are
//! relayed verbatim between ranks. Each worker rebuilds the mesh,
//! partition and plans deterministically from the same CLI parameters,
//! builds only its own rank-local world and steps it through
//! [`crate::distributed::run_rank`] — the rank body the in-process threads
//! run. Payload `f64`s cross the wire as raw bit patterns, so a
//! multi-process run reproduces the in-process fields *bitwise* and its
//! deterministic counters exactly — asserted by
//! `tests/multiprocess_integration.rs`.
//!
//! End-of-run results travel out of band: each worker opens a second,
//! short-lived connection and writes a `Stats` frame (its metrics in wire
//! form) followed by a `Done` frame (final fields in rank-local numbering
//! plus the local→global DOF map), then exits. The coordinator assembles
//! the global fields from the `Done` frames through the same function as
//! the in-process run (lowest owning rank wins) and rebuilds
//! [`RankStats`] views from the `Stats` frames.
//!
//! A worker that dies mid-run takes its halo connection with it; the router
//! broadcasts its goodbye, surviving ranks fail with
//! [`RuntimeError::PeerDisconnected`] and exit nonzero, and the coordinator
//! reports the first casualty as [`RuntimeError::RankPanicked`]. Nothing
//! deadlocks: the coordinator polls child liveness while it waits.

use crate::distributed::{assemble_fields, RankFields, RunResult};
use crate::error::RuntimeError;
use crate::stats::RankStats;
use crate::transport::codec::{self, Frame, StreamError, WireStats};
use crate::transport::socket::{self, SocketTransport};
use lts_obs::RankRecording;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How to launch the worker fleet.
#[derive(Debug, Clone)]
pub struct ProcSpec {
    /// The `wave-lts` binary (usually `std::env::current_exe()`).
    pub bin: PathBuf,
    /// Subcommand plus the parameters every worker shares (mesh, order,
    /// steps, `--dt-bits`, …). The coordinator appends `--socket`,
    /// `--rank` and `--ranks` per worker.
    pub args: Vec<String>,
    pub n_ranks: usize,
    /// Wall-clock budget for the whole run; expiry yields
    /// [`RuntimeError::MissingRank`] instead of a hang.
    pub timeout: Duration,
}

static SOCK_SEQ: AtomicU64 = AtomicU64::new(0);

/// A collision-free socket path in the system temp directory.
pub fn unique_socket_path() -> PathBuf {
    let seq = SOCK_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("wave-lts-{}-{seq}.sock", std::process::id()))
}

#[cold]
fn coord_io(detail: String) -> RuntimeError {
    RuntimeError::TransportIo {
        rank: 0,
        level: 0,
        detail,
    }
}

/// Dial the coordinator at `path` and identify as `rank`: the worker side
/// of the halo fabric. The returned endpoint routes through the
/// coordinator exactly like an in-process socket cluster member.
pub fn worker_connect(
    path: &Path,
    rank: usize,
    n_ranks: usize,
) -> std::io::Result<SocketTransport> {
    let mut stream = UnixStream::connect(path)?;
    codec::write_frame(&mut stream, &Frame::Hello { rank: rank as u32 })?;
    Ok(SocketTransport::new(rank, n_ranks, stream))
}

/// Report a finished worker's results on a fresh connection: one `Stats`
/// frame, the drained flight-recorder ring as a `Flight` frame (so the
/// coordinator's merged post-mortem view covers real OS processes too),
/// one `Done` frame with the fields in rank-local numbering, then a clean
/// shutdown.
pub fn worker_report(
    path: &Path,
    rank: usize,
    stats: &RankStats,
    fields: RankFields,
    recording: &RankRecording,
) -> std::io::Result<()> {
    let mut stream = UnixStream::connect(path)?;
    codec::write_frame(
        &mut stream,
        &Frame::Stats {
            rank: rank as u32,
            stats: WireStats::from_rank_stats(stats),
        },
    )?;
    codec::write_frame(
        &mut stream,
        &Frame::Flight {
            recording: recording.clone(),
        },
    )?;
    codec::write_frame(
        &mut stream,
        &Frame::Done {
            rank: rank as u32,
            u: fields.u,
            v: fields.v,
            global_of_local: fields.global_of_local,
        },
    )?;
    stream.shutdown(std::net::Shutdown::Write)
}

/// A dying worker's last words: open a fresh report connection and ship
/// only the flight recording, so the coordinator's crash report includes
/// the casualty's own tail of events. Best-effort by design — the caller
/// exits nonzero right after, whatever this returns.
pub fn worker_report_crash(path: &Path, recording: &RankRecording) -> std::io::Result<()> {
    let mut stream = UnixStream::connect(path)?;
    codec::write_frame(
        &mut stream,
        &Frame::Flight {
            recording: recording.clone(),
        },
    )?;
    stream.shutdown(std::net::Shutdown::Write)
}

/// Spawn `n_ranks` worker processes, route their halo traffic, collect
/// their results, and assemble the global `(u, v)` plus per-rank stats.
/// Also returns whatever flight recordings the fleet shipped over the wire
/// — index-aligned with ranks, empty for a rank whose recording never
/// arrived. Recordings come back on the `Err` side too: after a casualty
/// the coordinator holds the accept loop open briefly so surviving (and
/// dying) workers can land their crash `Flight` frames.
pub fn run_coordinator(spec: &ProcSpec) -> (RunResult, Vec<RankRecording>) {
    let n = spec.n_ranks;
    let mut flight: Vec<Option<RankRecording>> = vec![None; n];
    let result = coordinate(spec, &mut flight);
    let recordings = flight
        .into_iter()
        .enumerate()
        .map(|(rank, r)| {
            r.unwrap_or(RankRecording {
                rank: rank as u32,
                dropped: 0,
                events: Vec::new(),
            })
        })
        .collect();
    (result, recordings)
}

fn coordinate(spec: &ProcSpec, flight: &mut [Option<RankRecording>]) -> RunResult {
    let n = spec.n_ranks;
    let path = unique_socket_path();
    let listener =
        UnixListener::bind(&path).map_err(|e| coord_io(format!("bind {}: {e}", path.display())))?;
    if let Err(e) = listener.set_nonblocking(true) {
        let _ = std::fs::remove_file(&path);
        return Err(coord_io(format!("nonblocking listener: {e}")));
    }
    let mut children: Vec<Child> = Vec::with_capacity(n);
    for rank in 0..n {
        let spawned = Command::new(&spec.bin)
            .args(&spec.args)
            .arg("--socket")
            .arg(&path)
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--ranks")
            .arg(n.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn();
        match spawned {
            Ok(c) => children.push(c),
            Err(e) => {
                reap(&mut children);
                let _ = std::fs::remove_file(&path);
                return Err(coord_io(format!("spawn worker {rank}: {e}")));
            }
        }
    }
    let collected = collect(&listener, &mut children, n, spec.timeout, flight);
    match &collected {
        Ok(_) => {
            // workers exit right after reporting; reap and demand success
            for (rank, c) in children.iter_mut().enumerate() {
                match c.wait() {
                    Ok(status) if status.success() => {}
                    _ => {
                        let _ = std::fs::remove_file(&path);
                        return Err(RuntimeError::RankPanicked { rank });
                    }
                }
            }
        }
        Err(_) => {
            drain_crash_reports(&listener, &mut children, flight);
            reap(&mut children);
        }
    }
    let _ = std::fs::remove_file(&path);
    let (stats, done) = collected?;
    assemble(stats, done)
}

/// After a casualty, hold the door open briefly: the goodbye cascade kills
/// the surviving workers within milliseconds, and each ships its ring as a
/// crash `Flight` frame on the way down. Best effort with a hard deadline —
/// a worker that never connects just leaves its slot empty.
fn drain_crash_reports(
    listener: &UnixListener,
    children: &mut [Child],
    flight: &mut [Option<RankRecording>],
) {
    let grace = Instant::now() + Duration::from_millis(800);
    let mut stats: Vec<Option<WireStats>> = vec![None; flight.len()];
    let mut done: Vec<Option<RankFields>> = vec![None; flight.len()];
    let mut halo: Vec<Option<UnixStream>> = (0..flight.len()).map(|_| None).collect();
    loop {
        let all_exited = children
            .iter_mut()
            .all(|c| matches!(c.try_wait(), Ok(Some(_))));
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = handle_conn(stream, grace, &mut halo, &mut stats, &mut done, flight);
            }
            Err(_) => {
                if all_exited || Instant::now() > grace {
                    // one last sweep for a report that raced the exit check
                    while let Ok((stream, _)) = listener.accept() {
                        let _ =
                            handle_conn(stream, grace, &mut halo, &mut stats, &mut done, flight);
                    }
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Kill and wait every child; used on all failure paths so no zombie
/// worker outlives its coordinator.
fn reap(children: &mut [Child]) {
    for c in children.iter_mut() {
        let _ = c.kill();
        let _ = c.wait();
    }
}

/// What [`collect`] gathers from the fleet's out-of-band result streams.
type Collected = (Vec<Option<WireStats>>, Vec<Option<RankFields>>);

fn collect(
    listener: &UnixListener,
    children: &mut [Child],
    n: usize,
    timeout: Duration,
    flight: &mut [Option<RankRecording>],
) -> Result<Collected, RuntimeError> {
    let deadline = Instant::now() + timeout;
    let mut halo: Vec<Option<UnixStream>> = (0..n).map(|_| None).collect();
    let mut routers_started = false;
    let mut stats: Vec<Option<WireStats>> = vec![None; n];
    let mut done: Vec<Option<RankFields>> = vec![None; n];
    loop {
        if stats.iter().all(|s| s.is_some()) && done.iter().all(|d| d.is_some()) {
            return Ok((stats, done));
        }
        if Instant::now() > deadline {
            let rank = done.iter().position(|d| d.is_none()).unwrap_or(0);
            return Err(RuntimeError::MissingRank { rank });
        }
        // A child that died without reporting will never report; a child
        // that exited 0 may still have frames buffered in an accepted
        // connection, so only failure exits are terminal here.
        for (rank, c) in children.iter_mut().enumerate() {
            if done[rank].is_some() {
                continue;
            }
            if let Ok(Some(status)) = c.try_wait() {
                if !status.success() {
                    return Err(RuntimeError::RankPanicked { rank });
                }
            }
        }
        match listener.accept() {
            Ok((stream, _)) => {
                handle_conn(stream, deadline, &mut halo, &mut stats, &mut done, flight)?;
                if !routers_started && halo.iter().all(|h| h.is_some()) {
                    start_routers(&mut halo)?;
                    routers_started = true;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(coord_io(format!("accept: {e}"))),
        }
    }
}

/// Classify a fresh connection by its first frame: `Hello` registers the
/// rank's halo stream; anything else is a report connection, drained to EOF.
fn handle_conn(
    stream: UnixStream,
    deadline: Instant,
    halo: &mut [Option<UnixStream>],
    stats: &mut [Option<WireStats>],
    done: &mut [Option<RankFields>],
    flight: &mut [Option<RankRecording>],
) -> Result<(), RuntimeError> {
    if let Err(e) = stream.set_nonblocking(false) {
        return Err(coord_io(format!("blocking conn: {e}")));
    }
    let remaining = deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(1));
    let _ = stream.set_read_timeout(Some(remaining));
    let mut scratch = Vec::new();
    let mut r = &stream;
    match codec::read_frame(&mut r, &mut scratch) {
        Ok(Frame::Hello { rank }) => {
            let rank = rank as usize;
            if rank >= halo.len() || halo[rank].is_some() {
                return Err(coord_io(format!("unexpected hello from rank {rank}")));
            }
            let _ = stream.set_read_timeout(None);
            halo[rank] = Some(stream);
            Ok(())
        }
        Ok(first) => {
            stash(first, stats, done, flight)?;
            loop {
                match codec::read_frame(&mut r, &mut scratch) {
                    Ok(frame) => stash(frame, stats, done, flight)?,
                    Err(StreamError::Eof) => return Ok(()),
                    Err(e) => return Err(coord_io(format!("report stream: {e}"))),
                }
            }
        }
        Err(e) => Err(coord_io(format!("first frame: {e}"))),
    }
}

fn stash(
    frame: Frame,
    stats: &mut [Option<WireStats>],
    done: &mut [Option<RankFields>],
    flight: &mut [Option<RankRecording>],
) -> Result<(), RuntimeError> {
    match frame {
        Frame::Flight { recording } => {
            let rank = recording.rank as usize;
            if rank >= flight.len() {
                return Err(coord_io(format!(
                    "flight recording from unknown rank {rank}"
                )));
            }
            flight[rank] = Some(recording);
        }
        Frame::Stats { rank, stats: ws } => {
            let rank = rank as usize;
            if rank >= stats.len() {
                return Err(coord_io(format!("stats from unknown rank {rank}")));
            }
            stats[rank] = Some(ws);
        }
        Frame::Done {
            rank,
            u,
            v,
            global_of_local,
        } => {
            let rank = rank as usize;
            if rank >= done.len() {
                return Err(coord_io(format!("done from unknown rank {rank}")));
            }
            if u.len() != global_of_local.len() || v.len() != global_of_local.len() {
                return Err(coord_io(format!("rank {rank}: done frame length mismatch")));
            }
            done[rank] = Some(RankFields {
                u,
                v,
                global_of_local,
            });
        }
        // goodbyes and stray halos on a report connection are harmless
        _ => {}
    }
    Ok(())
}

/// Hand all registered halo streams to detached router threads — the same
/// verbatim-relay loop the in-process socket cluster runs.
fn start_routers(halo: &mut [Option<UnixStream>]) -> Result<(), RuntimeError> {
    let mut streams = Vec::with_capacity(halo.len());
    for h in halo.iter_mut() {
        match h.take() {
            Some(s) => streams.push(s),
            None => return Err(coord_io("router start before all hellos".into())),
        }
    }
    let mut writers: Vec<Arc<Mutex<UnixStream>>> = Vec::with_capacity(streams.len());
    for s in &streams {
        match s.try_clone() {
            Ok(c) => writers.push(Arc::new(Mutex::new(c))),
            Err(e) => return Err(coord_io(format!("clone halo stream: {e}"))),
        }
    }
    for (rank, stream) in streams.into_iter().enumerate() {
        let writers = writers.clone();
        std::thread::spawn(move || socket::route_rank(rank, stream, &writers));
    }
    Ok(())
}

/// Rebuild per-rank stats and assemble the global fields: lowest owning
/// rank wins each DOF, exactly like the in-process run.
fn assemble(stats: Vec<Option<WireStats>>, done: Vec<Option<RankFields>>) -> RunResult {
    let mut fields = Vec::with_capacity(done.len());
    for (rank, d) in done.into_iter().enumerate() {
        fields.push(d.ok_or(RuntimeError::MissingRank { rank })?);
    }
    let ndof = fields
        .iter()
        .flat_map(|f| f.global_of_local.iter())
        .map(|&g| g as usize + 1)
        .max()
        .unwrap_or(0);
    let (u, v) = assemble_fields(ndof, fields.iter());
    let mut out = Vec::with_capacity(stats.len());
    for (rank, s) in stats.into_iter().enumerate() {
        let Some(ws) = s else {
            return Err(RuntimeError::MissingRank { rank });
        };
        out.push(ws.into_rank_stats(rank));
    }
    Ok((u, v, out))
}
