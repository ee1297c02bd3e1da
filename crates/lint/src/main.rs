//! The `rds-lint` binary: scan the workspace, print diagnostics, write
//! `LINT_report.json`, exit nonzero on findings.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/environment error.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use rds_lint::{report, rules, scan_workspace, workspace};

/// Writes to stdout, swallowing broken-pipe errors so `rds-lint | head`
/// exits cleanly instead of panicking in `println!`.
fn out(s: impl AsRef<str>) {
    let _ = std::io::stdout().write_all(s.as_ref().as_bytes());
}

fn usage() {
    eprintln!(
        "usage: rds-lint [--root <dir>] [--report <path>] [--list]\n\
         \n\
         Scans every first-party .rs file in the workspace for violations\n\
         of the repo's invariant lints (L1..L8), prints\n\
         file:line:col: rule-id message diagnostics, and writes a\n\
         machine-readable JSON report (default: <root>/LINT_report.json)."
    );
}

fn main() -> ExitCode {
    let mut root_arg: Option<PathBuf> = None;
    let mut report_arg: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root_arg = Some(PathBuf::from(v)),
                None => {
                    usage();
                    return ExitCode::from(2);
                }
            },
            "--report" => match args.next() {
                Some(v) => report_arg = Some(PathBuf::from(v)),
                None => {
                    usage();
                    return ExitCode::from(2);
                }
            },
            "--list" => {
                for (id, desc) in rules::RULES {
                    out(format!("{id}: {desc}\n"));
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("rds-lint: unknown argument `{other}`");
                usage();
                return ExitCode::from(2);
            }
        }
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("rds-lint: cannot read current directory: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match root_arg.or_else(|| workspace::find_root(&cwd)) {
        Some(r) => r,
        None => {
            eprintln!(
                "rds-lint: no workspace Cargo.toml found above {}",
                cwd.display()
            );
            return ExitCode::from(2);
        }
    };

    let (findings, files_scanned) = scan_workspace(&root);
    out(report::render_text(&findings));

    let json = report::render_json(&root.to_string_lossy(), files_scanned, &findings);
    let report_path = report_arg.unwrap_or_else(|| root.join("LINT_report.json"));
    if let Err(e) = std::fs::write(&report_path, json) {
        eprintln!(
            "rds-lint: cannot write report {}: {e}",
            report_path.display()
        );
        return ExitCode::from(2);
    }

    if findings.is_empty() {
        out(format!(
            "rds-lint: {files_scanned} files scanned, no findings\n"
        ));
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "rds-lint: {} finding(s) across {files_scanned} files (report: {})",
            findings.len(),
            report_path.display()
        );
        ExitCode::FAILURE
    }
}
