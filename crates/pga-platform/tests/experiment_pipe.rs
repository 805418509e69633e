//! An experiment printed into a reader that stops early (`pga fig2 |
//! head -1`) ends quietly with success instead of panicking on the closed
//! pipe.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn an_experiment_into_a_closed_pipe_exits_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pga"))
        .args(["fig2", "--smoke"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pga fig2");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .expect("read the section header");
    assert!(line.starts_with("== E1/E2: "), "first line {line:?}");
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for pga fig2");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(status.success(), "exit {status:?}, stderr: {stderr}");
}
