//! Where the benchmark keeps files and child processes, and how both go
//! away again: every `mp`/`serve` run gets a directory of its own under
//! `<target>/ledger/`, removed when its guard drops — on failure paths
//! too — and a daemon is killed by its guard. Nothing lands in the system
//! temp dir.

use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The `microslip` binary built alongside this driver: next to the
/// driver's own executable (`target/release/`), or one level up when the
/// driver runs as a root-package example (`target/release/examples/`).
pub fn microslip_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let name = format!("microslip{}", std::env::consts::EXE_SUFFIX);
    me.ancestors()
        .skip(1)
        .take(2)
        .map(|dir| dir.join(&name))
        .find(|p| p.is_file())
        .ok_or_else(|| {
            format!(
                "no `microslip` binary next to {} — build it first: \
                 cargo build --release --offline --bin microslip",
                me.display()
            )
        })
}

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A scratch directory that exists for as long as the guard does.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `<target>/ledger/<label>-<pid>-<n>`, where `<target>` is
    /// the cargo target directory `exe` (the `microslip` binary) sits in.
    pub fn new(exe: &Path, label: &str) -> Result<Scratch, String> {
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or_else(|| format!("{} is not inside a cargo target directory", exe.display()))?;
        let path = target.join("ledger").join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // The shared parent goes too once the last run has left it.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Bytes in regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A running `microslip serve` on a scratch directory of its own. Dropping
/// the guard kills the daemon's whole process group — job workers it may
/// still have running included — reaps it, and then removes the directory.
pub struct Daemon {
    child: Child,
    /// Set once `wait_exit` has reaped the daemon: its process id may be
    /// anyone's by the time the guard drops.
    reaped: bool,
    pub addr: String,
    scratch: Scratch,
}

impl Daemon {
    /// Creates the run directory, spawns the daemon on it with two job
    /// workers and waits until it has published `serve.addr`.
    pub fn start(exe: &Path) -> Result<Daemon, String> {
        let scratch = Scratch::new(exe, "serve")?;
        let child = Command::new(exe)
            .arg("serve")
            .arg("--dir")
            .arg(scratch.path())
            .args(["--max-workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .process_group(0)
            .spawn()
            .map_err(|e| format!("spawning {} serve: {e}", exe.display()))?;
        let mut daemon = Daemon {
            child,
            reaped: false,
            addr: String::new(),
            scratch,
        };
        let addr_file = daemon.dir().join("serve.addr");
        let t0 = Instant::now();
        loop {
            // The daemon writes the file in one call, newline last.
            if let Some(addr) = std::fs::read_to_string(&addr_file)
                .ok()
                .filter(|a| a.ends_with('\n'))
            {
                daemon.addr = addr.trim().to_string();
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!(
                    "serve exited before publishing its address: {status}"
                ));
            }
            if t0.elapsed() > Duration::from_secs(20) {
                return Err("serve did not publish its address within 20 s".into());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// The daemon's run directory.
    pub fn dir(&self) -> &Path {
        self.scratch.path()
    }

    /// Waits for the daemon to exit after a shutdown request; `Ok` only
    /// for a clean exit (it exits non-zero when any job failed).
    pub fn wait_exit(&mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.reaped = true;
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("serve exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(None) => return Err(format!("serve still running {timeout:?} after shutdown")),
                Err(e) => return Err(format!("waiting for serve: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // The daemon leads its own process group (see `start`), so this
        // reaches job workers a plain kill of the daemon would orphan.
        if self.reaped {
            return;
        }
        let group = format!("-{}", self.child.id());
        let _ = Command::new("kill")
            .args(["-KILL", "--", &group])
            .stderr(Stdio::null())
            .status();
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
