//! The parent side of the self-exec worker protocol: a harness forks
//! copies of a binary with [`WORKER_FLAG`], ships each one spec frame
//! down its stdin and reads one report frame back up its stdout (pipes
//! tear the same way sockets do, so the wire codec covers both). The
//! child side is `braid_load::maybe_worker`, which every participating
//! binary calls first thing in `main`.

use braid_net::{read_frame, write_frame, MAX_FRAME_BYTES};
use braid_remote::clientproto::encode_spec;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Argv flag that turns a `maybe_worker`-calling binary into a worker
/// process.
pub const WORKER_FLAG: &str = "--braid-load-worker";

/// How a harness runs its workers.
#[derive(Debug, Clone)]
pub enum SpawnMode {
    /// In-process threads running the worker body directly. No process
    /// isolation, but usable from unit tests (whose libtest binary
    /// cannot be re-executed as a worker) and cheap for smoke runs.
    Thread,
    /// Fork real worker processes by re-executing the given binary with
    /// [`WORKER_FLAG`]. The binary's `main` must call
    /// `braid_load::maybe_worker` first. Use `std::env::current_exe()`
    /// for self-exec.
    Process(PathBuf),
}

/// Fork one worker per spec, then collect one report payload from each,
/// in spec order. Every worker is forked before any is collected, so the
/// processes genuinely overlap.
///
/// # Errors
/// Spawn or pipe failures, a worker exiting non-zero or without a
/// report, or a report frame of the wrong kind.
pub fn fork_workers(
    program: &Path,
    spec_kind: u8,
    specs: &[String],
    report_kind: u8,
) -> Result<Vec<Vec<u8>>, String> {
    let children: Vec<Child> = specs
        .iter()
        .enumerate()
        .map(|(proc, spec)| {
            let mut child = Command::new(program)
                .arg(WORKER_FLAG)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn {program:?} failed: {e}"))?;
            let mut stdin = child.stdin.take().ok_or("child stdin missing")?;
            write_frame(&mut stdin, spec_kind, &encode_spec(spec))
                .map_err(|e| format!("spec write to worker {proc} failed: {e}"))?;
            // Dropping stdin closes the pipe; the worker has its spec.
            Ok(child)
        })
        .collect::<Result<_, String>>()?;
    children
        .into_iter()
        .enumerate()
        .map(|(proc, mut child)| {
            let mut stdout = child.stdout.take().ok_or("child stdout missing")?;
            let frame = read_frame(&mut stdout, MAX_FRAME_BYTES)
                .map_err(|e| format!("report read from worker {proc} failed: {e}"))?
                .ok_or_else(|| format!("worker {proc} exited without a report"))?;
            let status = child
                .wait()
                .map_err(|e| format!("wait on worker {proc} failed: {e}"))?;
            if !status.success() {
                return Err(format!("worker {proc} exited with {status}"));
            }
            if frame.kind != report_kind {
                return Err(format!(
                    "worker {proc} sent frame kind {:#x}, want {report_kind:#x}",
                    frame.kind
                ));
            }
            Ok(frame.payload)
        })
        .collect()
}
