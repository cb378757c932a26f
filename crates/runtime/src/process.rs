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
//! Each worker ends by opening a second, short-lived connection and
//! writing one `Report` frame — its flight recording and its whole
//! outcome: final fields and metrics, or its typed [`RuntimeError`] — then
//! exits. The coordinator builds the same [`RunOutput`] from the reports as
//! the in-process [`crate::run`] builds from its rank threads, so a failed
//! run names the same cause on every transport.
//!
//! A worker that dies mid-run takes its halo connection with it; the router
//! broadcasts its goodbye, and surviving ranks fail with
//! [`RuntimeError::PeerDisconnected`] and report it. Only a worker that
//! exits without a report is [`RuntimeError::RankPanicked`]. Nothing
//! deadlocks: the coordinator polls child liveness while it waits.

use crate::distributed::{empty_recording, RankRun, RunOutput};
use crate::error::RuntimeError;
use crate::transport::codec::{self, Frame};
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
pub(crate) fn unique_socket_path() -> PathBuf {
    let seq = SOCK_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("wave-lts-{}-{seq}.sock", std::process::id()))
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

/// Ship a worker's whole outcome on a fresh connection — one `Report`
/// frame with its run (fields and statistics, or its typed failure) and
/// its drained flight recorder — then shut down cleanly.
pub fn worker_report(path: &Path, run: RankRun, recording: RankRecording) -> std::io::Result<()> {
    let mut stream = UnixStream::connect(path)?;
    codec::write_frame(&mut stream, &Frame::Report { recording, run })?;
    stream.shutdown(std::net::Shutdown::Write)
}

/// Spawn `spec.n_ranks` worker processes, route their halo traffic and
/// collect every rank's report into the same [`RunOutput`] the in-process
/// [`crate::run`] returns. A worker that exits without a report is
/// [`RuntimeError::RankPanicked`]; one that has not reported when
/// `spec.timeout` expires is killed and is [`RuntimeError::MissingRank`].
/// When the fleet cannot be started or served at all, every rank fails
/// with [`RuntimeError::TransportIo`].
pub fn run_coordinator(spec: &ProcSpec) -> RunOutput {
    let path = unique_socket_path();
    let reports = match UnixListener::bind(&path) {
        Ok(listener) => coordinate(spec, &path, &listener),
        Err(e) => Err(format!("bind {}: {e}", path.display())),
    };
    let _ = std::fs::remove_file(&path);
    match reports {
        Ok(reports) => RunOutput::from_ranks(reports),
        Err(detail) => RunOutput::fabric_failed(spec.n_ranks, &detail),
    }
}

/// One rank's outcome and flight recording.
type Report = (RankRun, RankRecording);

fn coordinate(
    spec: &ProcSpec,
    path: &Path,
    listener: &UnixListener,
) -> Result<Vec<Report>, String> {
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking listener: {e}"))?;
    let mut children: Vec<Child> = Vec::with_capacity(spec.n_ranks);
    for rank in 0..spec.n_ranks {
        let spawned = Command::new(&spec.bin)
            .args(&spec.args)
            .arg("--socket")
            .arg(path)
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--ranks")
            .arg(spec.n_ranks.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn();
        match spawned {
            Ok(c) => children.push(c),
            Err(e) => {
                reap(&mut children);
                return Err(format!("spawn worker {rank}: {e}"));
            }
        }
    }
    let reports = collect(listener, &mut children, spec.timeout);
    // workers exit right after reporting; one that timed out is killed
    reap(&mut children);
    reports
}

/// Kill and wait every child, so no worker outlives its coordinator.
fn reap(children: &mut [Child]) {
    for c in children.iter_mut() {
        let _ = c.kill();
        let _ = c.wait();
    }
}

/// Serve the fleet until every rank has an outcome: its `Report`, or
/// [`RuntimeError::RankPanicked`] once it has exited without one, or
/// [`RuntimeError::MissingRank`] at the deadline.
fn collect(
    listener: &UnixListener,
    children: &mut [Child],
    timeout: Duration,
) -> Result<Vec<Report>, String> {
    let n = children.len();
    let deadline = Instant::now() + timeout;
    let mut halo: Vec<Option<UnixStream>> = (0..n).map(|_| None).collect();
    // halo streams are registered until the routers start or a rank is lost
    let mut open = true;
    let mut reports: Vec<Option<Report>> = (0..n).map(|_| None).collect();
    while reports.iter().any(Option::is_none) {
        // a worker reports before it exits, so once it is seen exited here,
        // its report (if any) is already in the backlog drained below
        let exited: Vec<bool> = children
            .iter_mut()
            .map(|c| matches!(c.try_wait(), Ok(Some(_))))
            .collect();
        loop {
            match listener.accept() {
                Ok((stream, _)) => take_conn(stream, deadline, &mut halo, open, &mut reports),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("accept: {e}")),
            }
            if open && halo.iter().all(Option::is_some) {
                start_routers(&mut halo)?;
                open = false;
            }
        }
        for (rank, slot) in reports.iter_mut().enumerate() {
            if slot.is_none() && exited[rank] {
                *slot = Some((
                    Err(RuntimeError::RankPanicked { rank }),
                    empty_recording(rank),
                ));
                open = false;
            }
        }
        if !open {
            // no routers will start after a lost rank: hang up on the ranks
            // waiting for them, so they fail and report instead of hanging
            halo.fill_with(|| None);
        }
        if Instant::now() > deadline {
            for (rank, slot) in reports.iter_mut().enumerate() {
                slot.get_or_insert_with(|| {
                    (
                        Err(RuntimeError::MissingRank { rank }),
                        empty_recording(rank),
                    )
                });
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(reports.into_iter().flatten().collect())
}

/// Classify a fresh connection by its first frame: `Hello` registers the
/// rank's halo stream while registration is `open`, and `Report` fills the
/// rank's outcome slot. Anything else — unreadable bytes, a rank out of
/// range or already seen — is dropped.
fn take_conn(
    stream: UnixStream,
    deadline: Instant,
    halo: &mut [Option<UnixStream>],
    open: bool,
    reports: &mut [Option<Report>],
) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let remaining = deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(1));
    let _ = stream.set_read_timeout(Some(remaining));
    match codec::read_frame(&mut &stream, &mut Vec::new()) {
        Ok(Frame::Hello { rank }) => {
            if let Some(slot @ None) = halo.get_mut(rank as usize).filter(|_| open) {
                let _ = stream.set_read_timeout(None);
                *slot = Some(stream);
            }
        }
        Ok(Frame::Report { recording, run }) => {
            if let Some(slot @ None) = reports.get_mut(recording.rank as usize) {
                *slot = Some((run, recording));
            }
        }
        _ => {}
    }
}

/// Hand all registered halo streams to detached router threads — the same
/// verbatim-relay loop the in-process socket cluster runs.
fn start_routers(halo: &mut [Option<UnixStream>]) -> Result<(), String> {
    let streams: Vec<UnixStream> = halo.iter_mut().filter_map(Option::take).collect();
    let mut writers: Vec<Arc<Mutex<UnixStream>>> = Vec::with_capacity(streams.len());
    for s in &streams {
        match s.try_clone() {
            Ok(c) => writers.push(Arc::new(Mutex::new(c))),
            Err(e) => return Err(format!("clone halo stream: {e}")),
        }
    }
    for (rank, stream) in streams.into_iter().enumerate() {
        let writers = writers.clone();
        std::thread::spawn(move || socket::route_rank(rank, stream, &writers));
    }
    Ok(())
}
