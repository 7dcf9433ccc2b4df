//! Bad command lines end with a message and exit status 2, never a panic.

use std::process::Command;

/// Runs `bin` with `args`; returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(bin: &str, args: &[&str], want: &str) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, Some(2), "{bin} {args:?}: stderr was\n{stderr}");
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?} panicked:\n{stderr}"
    );
    assert!(
        stderr.contains(want),
        "{bin} {args:?}: want `{want}` in stderr\n{stderr}"
    );
}

#[test]
fn sim_throughput_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_sim_throughput");
    assert_usage_error(bin, &["--bogus"], "unknown argument `--bogus`");
    assert_usage_error(
        bin,
        &["--repeat", "x"],
        "--repeat needs an integer, got `x`",
    );
    assert_usage_error(bin, &["--repeat", "0"], "--repeat must be at least 1");
}

#[test]
fn trace_capture_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_trace_capture");
    assert_usage_error(bin, &["--bogus"], "unknown argument `--bogus`");
    assert_usage_error(
        bin,
        &["--seed", "x", "-o", "t.petr"],
        "--seed needs an integer, got `x`",
    );
    assert_usage_error(bin, &["--export", "in.petr"], "--export needs --perfetto");
    assert_usage_error(bin, &["--workload", "ATF"], "capture mode needs -o");
}

#[test]
fn trace_bisect_names_the_bad_number() {
    let bin = env!("CARGO_BIN_EXE_trace_bisect");
    for flag in ["--seed", "--budget", "--grain"] {
        assert_usage_error(
            bin,
            &["-w", "atf", flag, "x"],
            &format!("{flag} needs an integer, got `x`"),
        );
    }
}

#[test]
fn figure_binaries_share_the_usage_path() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_fig10"),
        &["--bogus"],
        "unknown argument `--bogus`",
    );
}
