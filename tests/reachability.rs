//! Contracts state only what runs: every `pub fn` a crate declares must
//! be named somewhere in code that ships — another non-test line of
//! `crates/*/src`, the `kite` facade, an example or `benchmark/src` — or
//! in [`OBSERVED`], the entry and observation points tests use on
//! purpose. A `pub fn` only its own `#[cfg(test)]` module calls is a
//! promise nothing keeps; delete it with the unit test that exercised it.
//!
//! The check is by name, not by path, so it is conservative: a common
//! name (`new`, `len`) always resolves, and the gate can miss an
//! unreachable function but never flags a reachable one.

use std::fs;
use std::path::{Path, PathBuf};

/// `pub fn`s with no non-test caller that stay on purpose, and why.
const OBSERVED: &[(&str, &str)] = &[
    // Host<D>
    ("backend_alive", "recovery and health tests poll the outage"),
    (
        "scheduler_kind",
        "the heap/wheel gate checks which backend ran",
    ),
    (
        "inject_faults",
        "the rate half of the fault API; no shipped scenario arms a rate \
         yet, ROADMAP item 2's fault matrix does",
    ),
    // the fault plan's rate builders: hypervisor and backend-manager
    // unit tests arm one class each
    ("with_copy_failures", "arms grant-copy failures"),
    ("with_notify_drops", "arms notification drops"),
    ("with_notify_delays", "arms notification delays"),
    ("with_xs_failures", "arms xenstore op failures"),
    // observation points
    ("detect_bound", "the bound watchdog tests hold detection to"),
    (
        "io_queue_count",
        "nvme tests count the pairs a restart re-creates",
    ),
    (
        "live_len",
        "reqtrace tests assert the live table is bounded",
    ),
    ("stamp_of", "reqtrace tests read one request's stage stamps"),
    (
        "column_names",
        "sampler tests compare the header with the rows",
    ),
    (
        "seq_between",
        "recovery tests order events between two marks",
    ),
    ("members", "netapp's hotplug tests read bridge membership"),
    (
        "rejects",
        "hostile-backend tests read netfront's and blkfront's refusal \
         counters; no shipped backend writes a response either refuses",
    ),
    (
        "pools_lent",
        "pool-soundness tests audit netfront's and blkfront's grant pools \
         at quiescence",
    ),
    // reference implementations
    (
        "set_copy_mode",
        "netback_batched_matches_single_op runs single-op grant copies \
         as the reference the batched drain must match",
    ),
    // toolstack and xenstore surface
    ("forget", "teardown-and-reconnect tests deprovision a pair"),
    ("tx_start", "the xenstore transaction tests drive it"),
    ("tx_end", "the xenstore transaction tests drive it"),
    (
        "set_quota",
        "the only way to test the per-domain quota defence",
    ),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The file's code up to its first `#[cfg(test)]`, comment lines dropped.
fn shipped_code(path: &Path) -> String {
    let text = fs::read_to_string(path).expect("source file reads");
    text.lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `name` occurs in `code` as a whole word that is not itself a
/// declaration (`fn name`).
fn is_named(code: &str, name: &str) -> bool {
    let bytes = code.as_bytes();
    code.match_indices(name).any(|(at, _)| {
        let end = at + name.len();
        (at == 0 || !is_ident(bytes[at - 1]))
            && (end == bytes.len() || !is_ident(bytes[end]))
            && !code[..at].ends_with("fn ")
    })
}

#[test]
fn every_pub_fn_is_named_by_shipped_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for entry in fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .flatten()
    {
        rust_files(&entry.path().join("src"), &mut files);
    }
    files.sort();
    let declaring = files.len();
    for dir in ["src", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let code: Vec<String> = files.iter().map(|p| shipped_code(p)).collect();
    let corpus = code.join("\n");

    let mut unreachable = Vec::new();
    for (path, code) in files.iter().zip(&code).take(declaring) {
        for (at, _) in code.match_indices("pub fn ") {
            let name: String = code[at + "pub fn ".len()..]
                .bytes()
                .take_while(|&b| is_ident(b))
                .map(char::from)
                .collect();
            let observed = OBSERVED.iter().any(|&(n, _)| n == name);
            if !name.is_empty() && !observed && !is_named(&corpus, &name) {
                let rel = path.strip_prefix(root).unwrap_or(path);
                unreachable.push(format!("{}: pub fn {name}", rel.display()));
            }
        }
    }
    assert!(
        unreachable.is_empty(),
        "pub fns no shipped code names (delete them, or list them in OBSERVED with a reason):\n{}",
        unreachable.join("\n")
    );
}
