//! `rds checkpoint` across processes: one process saves the first half
//! of a stream with two shards, a second restores it and resumes with
//! the second half, and both must report what one uninterrupted `count`
//! over the whole stream reports.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Runs `rds args` with `input` on stdin and returns its stdout,
/// requiring a successful exit.
fn rds(args: &[&str], input: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rds"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("rds starts");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("stdin written");
    let out = child.wait_with_output().expect("rds exits");
    assert!(
        out.status.success(),
        "rds {args:?} exited with {}",
        out.status
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

/// The first `f0 <estimate>` in `out`.
fn f0_field(out: &str) -> Option<&str> {
    let at = out.find("f0 ")?;
    let digits = out[at + 3..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(out.len() - at - 3);
    Some(&out[at..at + 3 + digits])
}

#[test]
fn a_restored_checkpoint_resumes_as_an_uninterrupted_count() {
    let dir: PathBuf = [env!("CARGO_TARGET_TMPDIR"), "checkpoint_process"]
        .iter()
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let chk = dir.join("half.chk").display().to_string();
    // 12 well-separated entities, 10 observations each.
    let lines: Vec<String> = (0..120).map(|i| format!("{}.0\n", (i % 12) * 10)).collect();
    let (first, second, all) = (lines[..60].concat(), lines[60..].concat(), lines.concat());

    let save = rds(
        &[
            "checkpoint",
            "save",
            &chk,
            "--alpha",
            "0.5",
            "--seed",
            "5",
            "--shards",
            "2",
        ],
        &first,
    );
    let pre_crash = f0_field(&save).expect("save reports f0");
    let restore = rds(&["checkpoint", "restore", &chk], &second);
    let restored = f0_field(&restore).expect("restore reports f0");
    let counted = rds(
        &["count", "--alpha", "0.5", "--eps", "1.0", "--seed", "5"],
        &all,
    );

    assert_eq!(restored, pre_crash, "restore: {restore}");
    assert_eq!(counted.trim(), "12.0");
    assert_eq!(restored, "f0 12.0");
    let _ = std::fs::remove_dir_all(&dir);
}
