//! `pga gen` into a reader that stops early (`pga gen | head -1`) ends
//! quietly with success instead of panicking on the closed pipe.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn gen_into_a_closed_pipe_exits_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pga"))
        .args(["gen", "--ticks", "100000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pga gen");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read one sample");
    assert!(
        line.starts_with("{\"metric\":\"energy\""),
        "first line {line:?}"
    );
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for pga gen");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(status.success(), "exit {status:?}, stderr: {stderr}");
}
