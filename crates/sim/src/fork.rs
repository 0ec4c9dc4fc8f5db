//! The self-exec worker protocol. A parent forks copies of a binary
//! with [`WORKER_FLAG`], ships each one `WORKER_SPEC` frame (a
//! [`ClientSpec`] as JSON) down its stdin and reads one `WORKER_REPORT`
//! frame (a [`ClientReport`] as JSON) back up its stdout; pipes tear the
//! same way sockets do, so the wire framing covers both. [`maybe_worker`],
//! first line of every participating `main`, is the child side.

use crate::clients::run_worker;
use crate::spec::ClientSpec;
use braid_net::{read_frame, write_frame, MAX_FRAME_BYTES};
use braid_remote::clientproto::kind;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

#[cfg(doc)]
use crate::spec::ClientReport;

/// Argv flag that turns a [`maybe_worker`]-calling binary into a worker
/// process.
pub const WORKER_FLAG: &str = "--braid-worker";

/// How a driver runs its workers.
#[derive(Debug, Clone)]
pub enum SpawnMode {
    /// In-process threads running the worker body directly. No process
    /// isolation, but usable from unit tests (whose libtest binary
    /// cannot be re-executed as a worker) and cheap for smoke runs.
    Thread,
    /// Fork real worker processes by re-executing the given binary with
    /// [`WORKER_FLAG`]. The binary's `main` must call [`maybe_worker`]
    /// first. Use `std::env::current_exe()` for self-exec.
    Process(PathBuf),
}

/// Call this first thing in `main`: if the process was started as a
/// worker (argv contains [`WORKER_FLAG`]), run one spec and exit;
/// otherwise return and let `main` proceed. Workers never print to
/// stdout themselves — the pipe *is* the report channel (diagnostics go
/// to stderr, which the parent leaves inherited).
pub fn maybe_worker() {
    if std::env::args().any(|a| a == WORKER_FLAG) {
        std::process::exit(match serve_one_spec() {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("braid worker: {e}");
                2
            }
        });
    }
}

/// One spec frame in, the worker run, one report frame out.
fn serve_one_spec() -> Result<(), String> {
    let frame = read_frame(&mut std::io::stdin().lock(), MAX_FRAME_BYTES)
        .map_err(|e| format!("bad spec frame: {e}"))?
        .ok_or("stdin closed before a spec frame")?;
    if frame.kind != kind::WORKER_SPEC {
        return Err(format!("unexpected spec kind {:#x}", frame.kind));
    }
    let text = String::from_utf8(frame.payload).map_err(|e| format!("spec is not UTF-8: {e}"))?;
    let report = run_worker(&ClientSpec::from_json(&text)?);
    let mut stdout = std::io::stdout().lock();
    write_frame(
        &mut stdout,
        kind::WORKER_REPORT,
        report.to_json().as_bytes(),
    )
    .map_err(|e| format!("report write failed: {e}"))?;
    stdout
        .flush()
        .map_err(|e| format!("report flush failed: {e}"))
}

/// Fork one worker per spec text, then collect one report text from
/// each, in spec order. Every worker is forked before any is collected,
/// so the processes genuinely overlap. On any error every child spawned
/// so far is killed and reaped before the error returns.
///
/// # Errors
/// Spawn or pipe failures, a worker exiting non-zero or without a
/// report, or a report frame of the wrong kind.
pub(crate) fn fork_workers(program: &Path, specs: &[String]) -> Result<Vec<String>, String> {
    let mut children = Vec::with_capacity(specs.len());
    let reports =
        spawn_all(program, specs, &mut children).and_then(|()| collect_all(&mut children));
    if reports.is_err() {
        for child in &mut children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    reports
}

fn spawn_all(program: &Path, specs: &[String], children: &mut Vec<Child>) -> Result<(), String> {
    for (proc, spec) in specs.iter().enumerate() {
        let child = Command::new(program)
            .arg(WORKER_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn of worker {proc} ({program:?}) failed: {e}"))?;
        children.push(child);
        let child = children.last_mut().expect("just pushed");
        let mut stdin = child.stdin.take().ok_or("child stdin missing")?;
        write_frame(&mut stdin, kind::WORKER_SPEC, spec.as_bytes())
            .map_err(|e| format!("spec write to worker {proc} failed: {e}"))?;
        // Dropping stdin closes the pipe; the worker has its spec.
    }
    Ok(())
}

fn collect_all(children: &mut [Child]) -> Result<Vec<String>, String> {
    children
        .iter_mut()
        .enumerate()
        .map(|(proc, child)| {
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
            if frame.kind != kind::WORKER_REPORT {
                return Err(format!(
                    "worker {proc} sent frame kind {:#x}, want {:#x}",
                    frame.kind,
                    kind::WORKER_REPORT
                ));
            }
            String::from_utf8(frame.payload)
                .map_err(|e| format!("worker {proc} report is not UTF-8: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn a_worker_without_a_report_fails_promptly_and_is_named() {
        // `true` exits at once: the spec write meets a closed pipe or the
        // report read meets end of file, and either error names a worker.
        let specs = vec!["{}".to_string(); 3];
        let start = Instant::now();
        let err = fork_workers(Path::new("true"), &specs).expect_err("no worker reports");
        assert!(err.contains("worker "), "error names a worker: {err}");
        assert!(start.elapsed() < Duration::from_secs(10), "{err}");
    }
}
