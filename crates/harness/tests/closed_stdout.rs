//! The CLI against a reader that went away: `hyperbench … | head -1`
//! must end with status 0 and print no panic, however much output was
//! still to come.

use std::io::Read;
use std::process::{Command, Stdio};

/// Runs `hyperbench args` with its stdout a pipe whose read end is
/// already closed, so the first write fails with `EPIPE`. Returns the
/// exit status and everything written to stderr.
fn run_with_closed_stdout(args: &[&str]) -> (std::process::ExitStatus, String) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let mut child = Command::new(env!("CARGO_BIN_EXE_hyperbench"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hyperbench");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    (child.wait().expect("wait for hyperbench"), stderr)
}

fn assert_quiet_exit(args: &[&str]) {
    let (status, stderr) = run_with_closed_stdout(args);
    assert!(
        status.success(),
        "hyperbench {args:?} exited with {status}; stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("Broken pipe"),
        "hyperbench {args:?} complained about the closed pipe:\n{stderr}"
    );
}

#[test]
fn help_into_a_closed_pipe_exits_quietly() {
    assert_quiet_exit(&["help"]);
}

#[test]
fn decompose_into_a_closed_pipe_exits_quietly() {
    let dir = std::env::temp_dir().join(format!("hyperbench-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("path.hg");
    let edges: Vec<String> = (0..40).map(|i| format!("e{i}(v{i},v{})", i + 1)).collect();
    std::fs::write(&file, format!("{}.\n", edges.join(",\n"))).unwrap();
    assert_quiet_exit(&["decompose", file.to_str().unwrap(), "--k", "1"]);
    std::fs::remove_dir_all(&dir).unwrap();
}
