//! Run metadata recorded next to the results: the machine, toolchain,
//! code version, storage, and the shape of what was served.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::inputs::Fnv;
use crate::stats::json_str;

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Reset the peak resident set to the current one (Linux 4.0 and
/// later), so [`peak_rss_mb`] then covers only what follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Trimmed standard output of a command, or `unknown`.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    command_output("rustc", &["--version"])
}

/// The git revision, when the benchmark runs from a git checkout.
pub fn git_revision() -> String {
    command_output("git", &["rev-parse", "HEAD"])
}

/// FNV-1a over the repository's sources (every file under `crates/`
/// and `servebench/src/`, plus the root manifests), in path order: it
/// names the code version when the checkout carries no git metadata.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("servebench/src"), &mut files);
    files.sort();
    let mut h = Fnv::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.bytes(f.to_string_lossy().as_bytes());
            h.bytes(&bytes);
        }
    }
    format!("{:016x}", h.0)
}

/// Filesystem type and mount point holding `path`, from `/proc/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), format!("{fstype} on {mount}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// A JSON array of numbers, `null` where a value is missing.
pub fn json_numbers(values: impl IntoIterator<Item = Option<f64>>) -> String {
    let items: Vec<String> = values
        .into_iter()
        .map(|v| match v {
            Some(v) if v.is_finite() => v.to_string(),
            _ => "null".to_string(),
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// A small JSON object builder for the metadata line.
#[derive(Default)]
pub struct Obj(Vec<String>);

impl Obj {
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.0
            .push(format!("{}: {}", json_str(key), json_str(value)));
        self
    }

    pub fn num(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.0.push(format!("{}: {value}", json_str(key)));
        self
    }

    pub fn raw(mut self, key: &str, json: String) -> Self {
        self.0.push(format!("{}: {json}", json_str(key)));
        self
    }

    pub fn build(self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}
