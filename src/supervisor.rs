//! The one child-process layer: every process `microslip` starts — an
//! `mp-worker` rank, a `run-job` sweep job — is spawned, watched and
//! reaped here, and nowhere else.
//!
//! * [`Child`] is a handle that kills and reaps its process when dropped,
//!   so no early return, failed spawn of a sibling or dropped daemon can
//!   leave an orphan running. Its stderr is appended to a file (a respawn
//!   keeps its predecessor's dying words); stdin and stdout are null.
//! * [`Exit`] is the one reading of how a child ended, from the exit
//!   status and the typed error file it may have left behind.
//! * [`Budget`] turns an exit into a [`Verdict`] under a bounded number of
//!   respawns.
//!
//! Both owners answer a respawn the same way — start over from the newest
//! checkpoint: [`crate::mp`] restarts the whole gang from the newest one
//! every rank holds (a fatal verdict fails the run), [`crate::serve`]
//! requeues the job with `--resume`.

use std::ffi::OsStr;
use std::io;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};

/// Exit code of an injected fault — distinct from 1, so a chaos kill is
/// distinguishable from a real error in the logs.
pub const FAULT_EXIT: i32 = 13;

/// Dies the way a killed node does: one line for the post-mortem, then a
/// hard exit that runs no destructors (no goodbye frame, no flush).
pub fn die_injected(what: &str) -> ! {
    eprintln!("injected fault: {what}");
    std::process::exit(FAULT_EXIT)
}

/// A running child process; dropping the handle kills and reaps it.
#[derive(Debug)]
pub struct Child(std::process::Child);

impl Child {
    /// Starts `exe args…` with stderr appended to the file `stderr`.
    pub fn spawn<S: AsRef<OsStr>>(
        exe: &Path,
        args: impl IntoIterator<Item = S>,
        stderr: &Path,
    ) -> Result<Child, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(stderr)
            .map_err(|e| format!("stderr file {}: {e}", stderr.display()))?;
        Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map(Child)
            .map_err(|e| format!("spawn {}: {e}", exe.display()))
    }

    /// OS process id.
    pub fn id(&self) -> u32 {
        self.0.id()
    }

    /// `None` while the child runs; once it has exited, how (see
    /// [`classify`]).
    pub fn poll(&mut self, error_file: Option<&Path>) -> Option<Exit> {
        self.0.try_wait().transpose().map(|status| classify(status, error_file))
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// How a child ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Exit {
    /// Exit status 0.
    Clean,
    /// Failed and said why: the text of the error file it left behind.
    Typed(String),
    /// Failed without a word (killed, crashed, injected fault): the
    /// rendered exit status.
    Died(String),
    /// The OS could not report the status.
    WaitFailed(String),
}

impl std::fmt::Display for Exit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exit::Clean => write!(f, "exited cleanly"),
            Exit::Typed(text) => write!(f, "{text}"),
            Exit::Died(status) => write!(f, "exited with {status}"),
            Exit::WaitFailed(e) => write!(f, "wait failed: {e}"),
        }
    }
}

/// Reads an exit: a zero status is clean whatever an earlier run left in
/// the directory; a failure is typed when `error_file` exists, a hard
/// death otherwise.
pub fn classify(status: io::Result<ExitStatus>, error_file: Option<&Path>) -> Exit {
    match status {
        Err(e) => Exit::WaitFailed(e.to_string()),
        Ok(status) if status.success() => Exit::Clean,
        Ok(status) => match error_file.and_then(|path| std::fs::read_to_string(path).ok()) {
            Some(text) => Exit::Typed(text.trim().to_string()),
            None => Exit::Died(status.to_string()),
        },
    }
}

/// What the owner does about an [`Exit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    Done,
    /// Start a replacement; `attempt` counts from 1, `status` is the
    /// death being answered.
    Respawn { attempt: usize, status: String },
    /// Give up, with the reason.
    Fatal(String),
}

/// A bounded number of respawns. Only a hard death spends it: a typed
/// error would only repeat, and a wait failure leaves nothing to restart.
#[derive(Clone, Debug)]
pub struct Budget {
    used: usize,
    limit: usize,
}

impl Budget {
    pub fn new(limit: usize) -> Budget {
        Budget { used: 0, limit }
    }

    /// Respawns granted so far.
    pub fn used(&self) -> usize {
        self.used
    }

    pub fn judge(&mut self, exit: Exit) -> Verdict {
        match exit {
            Exit::Clean => Verdict::Done,
            Exit::Died(status) if self.used < self.limit => {
                self.used += 1;
                Verdict::Respawn { attempt: self.used, status }
            }
            Exit::Died(_) if self.limit > 0 => {
                Verdict::Fatal(format!("{exit} after {} respawns; giving up", self.used))
            }
            failed => Verdict::Fatal(failed.to_string()),
        }
    }
}
