//! Workspace discovery: finds every first-party `.rs` file under the
//! repo root, driven by the `[workspace] members` list in the root
//! `Cargo.toml` so the scan and the build agree on what the workspace is.
//!
//! The vendored shims under `vendor/` are third-party API surface and are
//! not held to the repo's invariants; `crates/lint/tests/fixtures/` holds
//! deliberate violations and must never be scanned as library code.

use std::fs;
use std::path::{Path, PathBuf};

/// Reads the `members = [...]` array of the root manifest. Deliberately
/// minimal TOML handling: the array is a flat list of quoted strings,
/// which is all this workspace uses.
fn workspace_members(root: &Path) -> Vec<String> {
    let manifest = match fs::read_to_string(root.join("Cargo.toml")) {
        Ok(s) => s,
        Err(_) => return Vec::new(),
    };
    let mut members = Vec::new();
    let mut in_members = false;
    for line in manifest.lines() {
        let line = line.trim();
        if !in_members {
            if line.starts_with("members") && line.contains('[') {
                in_members = true;
            } else {
                continue;
            }
        }
        for part in line.split(',') {
            if let Some(open) = part.find('"') {
                if let Some(close) = part[open + 1..].find('"') {
                    members.push(part[open + 1..open + 1 + close].to_string());
                }
            }
        }
        if in_members && line.contains(']') {
            break;
        }
    }
    members
}

fn is_excluded(rel: &str) -> bool {
    rel.starts_with("vendor/")
        || rel.starts_with("target/")
        || rel.starts_with(".git/")
        || rel.starts_with("crates/lint/tests/fixtures/")
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name != "target" && name != ".git" {
                walk(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every first-party `.rs` file, as (workspace-relative path with `/`
/// separators, absolute path), sorted for deterministic reports. Scans
/// each workspace member's directory plus the umbrella crate's root
/// `src/`, `tests/`, `benches/` and `examples/`.
pub fn source_files(root: &Path) -> Vec<(String, PathBuf)> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    for member in workspace_members(root) {
        if member.starts_with("vendor/") {
            continue;
        }
        dirs.push(root.join(member));
    }
    for top in ["src", "tests", "benches", "examples"] {
        dirs.push(root.join(top));
    }

    let mut files = Vec::new();
    for dir in dirs {
        walk(&dir, &mut files);
    }

    let mut out: Vec<(String, PathBuf)> = files
        .into_iter()
        .filter_map(|abs| {
            let rel = abs
                .strip_prefix(root)
                .ok()?
                .to_string_lossy()
                .replace('\\', "/");
            if is_excluded(&rel) {
                None
            } else {
                Some((rel, abs))
            }
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(s) = fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}
