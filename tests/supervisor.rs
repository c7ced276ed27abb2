//! The child-process layer on its own: the exit classification as a table,
//! and the property that makes orphans unrepresentable — a dropped handle
//! leaves no process behind.

use std::io;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::ExitStatus;

use microslip::supervisor::{classify, Budget, Child, Exit, Verdict, FAULT_EXIT};

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("microslip-supervisor-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn exit_classification_table() {
    let dir = scratch("table");
    let (written, absent) = (dir.join("rank0.error"), dir.join("rank1.error"));
    std::fs::write(&written, "transport failure: peer 1 disconnected\n").unwrap();
    let exited = |code: i32| Ok(ExitStatus::from_raw(code << 8));
    let killed = || Ok(ExitStatus::from_raw(9));
    let wait_error = || Err(io::Error::other("no such child"));
    let died = |status: &str| Exit::Died(status.into());
    let typed = || Exit::Typed("transport failure: peer 1 disconnected".into());

    // status × error file ⇒ exit
    let table = [
        (exited(0), None, Exit::Clean),
        // A stale error file of an earlier run does not taint a clean exit.
        (exited(0), Some(&written), Exit::Clean),
        (exited(1), Some(&written), typed()),
        (exited(1), Some(&absent), died("exit status: 1")),
        (exited(1), None, died("exit status: 1")),
        (exited(FAULT_EXIT), Some(&absent), died("exit status: 13")),
        (killed(), Some(&absent), died("signal: 9 (SIGKILL)")),
        (killed(), Some(&written), typed()),
        (wait_error(), Some(&written), Exit::WaitFailed("no such child".into())),
    ];
    for (status, file, want) in table {
        let shown = format!("{status:?} with {file:?}");
        assert_eq!(classify(status, file.map(PathBuf::as_path)), want, "{shown}");
    }

    // exit × budget ⇒ verdict
    let fatal = |why: &str| Verdict::Fatal(why.into());
    let respawn = |attempt| Verdict::Respawn { attempt, status: "exit status: 13".into() };
    let mut none = Budget::new(0);
    assert_eq!(none.judge(Exit::Clean), Verdict::Done);
    assert_eq!(none.judge(died("exit status: 13")), fatal("exited with exit status: 13"));
    assert_eq!(none.judge(typed()), fatal("transport failure: peer 1 disconnected"));
    let mut two = Budget::new(2);
    assert_eq!(two.judge(died("exit status: 13")), respawn(1));
    // Only hard deaths spend the budget.
    assert_eq!(two.judge(Exit::Clean), Verdict::Done);
    assert_eq!(two.judge(typed()), fatal("transport failure: peer 1 disconnected"));
    assert_eq!(two.judge(Exit::WaitFailed("gone".into())), fatal("wait failed: gone"));
    assert_eq!(two.used(), 1);
    assert_eq!(two.judge(died("exit status: 13")), respawn(2));
    assert_eq!(
        two.judge(died("exit status: 13")),
        fatal("exited with exit status: 13 after 2 respawns; giving up")
    );
    assert_eq!(two.used(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropping_the_handle_kills_and_reaps_a_live_child() {
    let dir = scratch("drop");
    let spawn = || Child::spawn(Path::new("sleep"), ["600"], &dir.join("sleep.stderr")).unwrap();
    let mut child = spawn();
    let proc_entry = PathBuf::from(format!("/proc/{}", child.id()));
    assert!(proc_entry.exists(), "the child must be running");
    assert_eq!(child.poll(None), None);
    drop(child);
    assert!(!proc_entry.exists(), "a dropped handle must leave no process behind");

    // The gang shape: a later sibling fails to spawn, the early return
    // drops the handles collected so far.
    let mut pids = Vec::new();
    let gang: Result<Vec<Child>, String> = (0..3)
        .map(|rank| {
            if rank == 2 {
                return Child::spawn(&dir.join("no-such-exe"), ["x"], &dir.join("x.stderr"));
            }
            let child = spawn();
            pids.push(child.id());
            Ok(child)
        })
        .collect();
    assert!(gang.unwrap_err().contains("no-such-exe"));
    assert_eq!(pids.len(), 2);
    for pid in pids {
        assert!(!PathBuf::from(format!("/proc/{pid}")).exists(), "rank {pid} orphaned");
    }

    // Stderr is appended, never truncated.
    let log = dir.join("words.stderr");
    for word in ["first", "second"] {
        let mut child =
            Child::spawn(Path::new("sh"), ["-c", &format!("echo {word} >&2")], &log).unwrap();
        while child.poll(None).is_none() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
    assert_eq!(std::fs::read_to_string(&log).unwrap(), "first\nsecond\n");
    let _ = std::fs::remove_dir_all(&dir);
}
