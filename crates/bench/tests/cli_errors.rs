//! Bad flag values must fail the bench binaries cleanly: an `error:` line
//! on stderr and exit code 2 — never a panic, and never a hang.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `bin` with `args`, killing it (and failing the test) if it has not
/// exited within a minute. Returns the exit code and captured stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bench binary");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on bench binary") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("{bin} {args:?} hung");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child.stderr.take().expect("piped stderr").read_to_string(&mut stderr).expect("read stderr");
    (status.code(), stderr)
}

fn assert_usage_error(bin: &str, args: &[&str]) {
    let (code, stderr) = run(bin, args);
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    assert_eq!(code, Some(2), "{args:?} exit code; stderr:\n{stderr}");
    assert!(stderr.contains("error:"), "{args:?} printed no error line:\n{stderr}");
}

#[test]
fn throughput_rejects_unrunnable_flags() {
    let bin = env!("CARGO_BIN_EXE_throughput");
    for args in [
        &["--quick", "--k", "0"][..],
        &["--quick", "--k", "1", "--churn", "1"],
        &["--quick", "--churn", "1", "--cluster-m", "4"],
        &["--quick", "--eps", "0"],
        &["--quick", "--runs", "0"],
        &["--quick", "--runs", "3", "--cluster-m", "0"],
    ] {
        assert_usage_error(bin, args);
    }
}

#[test]
fn mixed_workload_rejects_unrunnable_flags() {
    let bin = env!("CARGO_BIN_EXE_mixed_workload");
    for args in [
        &["--quick", "--k", "0"][..],
        &["--quick", "--chunk", "0"],
        &["--quick", "--snapshot-every", "0"],
        &["--quick", "--eps", "1.5"],
    ] {
        assert_usage_error(bin, args);
    }
}
