//! Contracts state only what runs: every `pub fn` a crate declares must
//! be called somewhere in code that ships — another non-test line of
//! `crates/*/src`, the `kite` facade, an example or `benchmark/src` — or
//! be listed in [`OBSERVED`], the entry and observation points tests use
//! on purpose. A `pub fn` only its own `#[cfg(test)]` module calls is a
//! promise nothing keeps; delete it with the unit test that exercised it.
//!
//! Names are shared (`checksum::finish`, `ReqTracer::finish`), so a name
//! is counted, not just found: a name that `n` `pub fn`s declare needs
//! `n` call sites in shipped code, each given to a different fn it could
//! be calling. A call site is `.name(`, a bare `name(`, or a path ending
//! in `::name`; strings and comments are not code. A call narrows to
//! fewer candidates when its text says so:
//! - `Type::name`, `module::name` and `Self::name` to the fns that type
//!   or file declares;
//! - `self.name(` in an `impl Type` to `Type`'s own fn, and
//!   `self.field.name(` to any *but* `Type`'s;
//! - another `.name(` to the caller's own crate's fns, when it has one;
//! - a bare `name(` to the free fns, its own file's first.
//!
//! A call never counts for the fn it sits in: recursion proves nothing,
//! and a same-named wrapper's call counts only for the fn it wraps.
//! Common names (`new`, `len`) still always resolve, so the gate can miss
//! an unreachable function but does not flag a reachable one.

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
    (
        "rx_dropped",
        "the only record of a frame the NIC's receive ring overflowed or a \
         reset discarded; the NIC tests read it",
    ),
    (
        "last_breach",
        "the SLO breach attribution ROADMAP item 7's `repro explain` walks",
    ),
    ("kind", "trace-query assertions filter events by kind"),
    (
        "evicted",
        "sampler tests check the ring is bounded and drops oldest",
    ),
    ("samples", "sampler tests read the recorded rows"),
    (
        "free_blocks",
        "allocator property tests check blocks are conserved",
    ),
    (
        "free",
        "machine-memory tests free a page to check a freed page is never \
         reused; no shipped path frees one, as no backend owns data pages",
    ),
    (
        "profile",
        "nvme tests size their bounds from the envelope a drive was built \
         with",
    ),
    (
        "bytes_per_hypercall",
        "exported as a derived row: `counters!` calls it through a macro \
         metavariable",
    ),
    (
        "enabled",
        "unit tests of the request tracer, its Chrome export and SLO \
         attribution start from a sampling tracer; `Host` enables one in \
         place",
    ),
    (
        "kite_dhcpd_image",
        "the DHCP daemon VM's image (paper §5.5), held below the driver \
         domains' by the rumprun tests; no figure renders it yet",
    ),
    // SystemConfig knobs only tests turn (DESIGN.md §7)
    (
        "slo",
        "the only way a test reaches the watchdog's SLO probe",
    ),
    (
        "nvme_max_io_queues",
        "the only way a test reaches the controller's queue cap",
    ),
    (
        "scheduler",
        "the heap/wheel gate runs one scenario on each backend",
    ),
    // reference implementations and the kept NAT and blockapp paths
    (
        "set_copy_mode",
        "netback_batched_matches_single_op runs single-op grant copies \
         as the reference the batched drain must match",
    ),
    (
        "copy_mode",
        "the same test reads back which mode a rig runs",
    ),
    (
        "use_nat",
        "the end-to-end NAT tests switch the bridge to `LinkMode::Nat`",
    ),
    ("flows", "the same tests count the SNAT flows it set up"),
    (
        "status",
        "blockapp's tests read the vbd backends it found in xenstore",
    ),
    (
        "end_access",
        "grant-table tests revoke grants; the frontends' grant pools keep \
         theirs for life",
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

/// The file's code up to its first `#[cfg(test)]`.
fn shipped_code(path: &Path) -> String {
    let text = fs::read_to_string(path).expect("source file reads");
    text.lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .collect::<Vec<_>>()
        .join("\n")
}

/// `code` with every comment, string and char literal blanked to spaces,
/// so byte offsets hold and braces inside literals cannot unbalance a
/// body.
fn blank_literals(code: &str) -> String {
    let b = code.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        let raw_hashes = (b[i] == b'r' && (i == 0 || !is_ident(b[i - 1])))
            .then(|| b[i + 1..].iter().take_while(|&&c| c == b'#').count())
            .filter(|&h| b.get(i + 1 + h) == Some(&b'"'));
        if b[i..].starts_with(b"//") {
            i += code[i..].find('\n').unwrap_or(b.len() - i);
        } else if b[i..].starts_with(b"/*") {
            i = code[i + 2..].find("*/").map_or(b.len(), |e| i + 4 + e);
        } else if let Some(h) = raw_hashes {
            let close = format!("\"{}", "#".repeat(h));
            let body = i + 2 + h;
            i = code[body..]
                .find(&close)
                .map_or(b.len(), |e| body + e + close.len());
        } else if b[i] == b'"' {
            i += 1;
            while i < b.len() && b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            i = (i + 1).min(b.len());
        } else if b[i] == b'\'' {
            // A char literal, or a lifetime (`'a` with no closing quote).
            let len = code[i + 1..].chars().next().map_or(0, char::len_utf8);
            if b.get(i + 1) == Some(&b'\\') {
                i += 3 + code[i + 3..].find('\'').unwrap_or(0) + 1;
            } else if b.get(i + 1 + len) == Some(&b'\'') {
                i += len + 2;
            } else {
                i += 1;
                continue;
            }
        } else {
            i += 1;
            continue;
        }
        let end = i.min(b.len());
        out[start..end].fill(b' ');
    }
    String::from_utf8(out).expect("blanking keeps UTF-8")
}

/// An identifier byte; `$` keeps a macro metavariable one word.
fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'$'
}

/// The identifier starting at `at`.
fn ident_at(code: &str, at: usize) -> &str {
    let len = code[at..].bytes().take_while(|&b| is_ident(b)).count();
    &code[at..at + len]
}

/// The identifier ending at `end`.
fn ident_before(code: &str, end: usize) -> &str {
    let len = code[..end]
        .bytes()
        .rev()
        .take_while(|&b| is_ident(b))
        .count();
    &code[end - len..end]
}

/// Whole-word occurrences of `word` in `code`.
fn words<'a>(code: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    let b = code.as_bytes();
    code.match_indices(word)
        .map(|(at, _)| at)
        .filter(move |&at| {
            let end = at + word.len();
            (at == 0 || !is_ident(b[at - 1])) && (end == b.len() || !is_ident(b[end]))
        })
}

/// The end of the brace-balanced block opening at `open`.
fn block_end(code: &str, open: usize) -> usize {
    let mut depth = 0usize;
    for (i, c) in code.bytes().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// Whether the keyword at `at` starts an item (`impl` as a block, not in
/// `-> impl Trait` or `x: impl Fn`).
fn item_start(code: &str, at: usize) -> bool {
    let prev = code[..at].trim_end();
    prev.is_empty()
        || prev.ends_with(['}', ';', '{', ']', ')'])
        || prev.ends_with("pub")
        || prev.ends_with("unsafe")
}

/// Who a fn belongs to: what a call may be narrowed by.
#[derive(Clone, PartialEq, Debug)]
enum Owner {
    Free,
    /// An inherent `impl Type` block.
    Inherent(String),
    /// A trait declaration or a trait impl: reached by dispatch.
    Dispatch(String),
}

/// The `impl` and `trait` blocks of one file: owner and byte range.
fn blocks(code: &str) -> Vec<(Owner, usize, usize)> {
    let mut out = Vec::new();
    for kw in ["impl", "trait"] {
        for at in words(code, kw) {
            let Some(open) = code[at..].find(['{', ';']).map(|o| at + o) else {
                continue;
            };
            if !item_start(code, at) || code.as_bytes()[open] == b';' {
                continue;
            }
            let mut head = code[at + kw.len()..open].trim();
            if head.starts_with('<') {
                let mut depth = 0i32;
                let close = head
                    .char_indices()
                    .position(|(i, c)| {
                        depth += match c {
                            '<' => 1,
                            '>' if !head[..i].ends_with('-') => -1,
                            _ => 0,
                        };
                        depth == 0
                    })
                    .unwrap_or(0);
                head = head[close + 1..].trim();
            }
            let head = head.split(" where").next().unwrap_or(head);
            let (trait_impl, ty) = match head.split_once(" for ") {
                Some((_, ty)) => (true, ty),
                None => (kw == "trait", head),
            };
            let path = ty.trim().trim_start_matches('&');
            let path = path.split(['<', ' ']).next().unwrap_or("");
            let name = path.rsplit("::").next().unwrap_or("");
            let name = name.trim_end_matches(':').to_string();
            let owner = if trait_impl {
                Owner::Dispatch(name)
            } else {
                Owner::Inherent(name)
            };
            out.push((owner, open, block_end(code, open)));
        }
    }
    out
}

/// One source file of the shipped corpus.
struct Src {
    rel: String,
    krate: String,
    stem: String,
    code: String,
    blocks: Vec<(Owner, usize, usize)>,
    /// `use` items: they import or re-export a name, never call it.
    uses: Vec<(usize, usize)>,
}

impl Src {
    /// `text` of file `rel`, which belongs to crate `krate` and is the
    /// module `stem`.
    fn new(rel: String, krate: String, stem: String, text: &str) -> Src {
        let code = blank_literals(text);
        let uses = words(&code, "use")
            .filter(|&at| item_start(&code, at))
            .map(|at| (at, code[at..].find(';').map_or(code.len(), |e| at + e)))
            .collect();
        Src {
            rel,
            krate,
            stem,
            blocks: blocks(&code),
            uses,
            code,
        }
    }

    fn in_use(&self, at: usize) -> bool {
        self.uses.iter().any(|&(from, to)| (from..to).contains(&at))
    }

    /// The names `use ... name as alias` gives `name` in this file.
    fn aliases<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        words(&self.code, name)
            .filter(|&at| self.in_use(at) && self.code[at + name.len()..].starts_with(" as "))
            .map(move |at| ident_at(&self.code, at + name.len() + 4))
    }

    /// The innermost `impl`/`trait` block holding byte `at`.
    fn owner_at(&self, at: usize) -> Owner {
        self.blocks
            .iter()
            .filter(|(_, open, close)| (*open..*close).contains(&at))
            .min_by_key(|(_, open, close)| close - open)
            .map_or(Owner::Free, |(o, _, _)| o.clone())
    }
}

/// One `fn` declaration with a body.
struct Decl {
    file: usize,
    at: usize,
    body: (usize, usize),
    owner: Owner,
    /// A `pub fn` under `crates/*/src`: one the gate requires a call for.
    required: bool,
}

fn decls_of(srcs: &[Src], declaring: usize, name: &str) -> Vec<Decl> {
    let mut out = Vec::new();
    for (file, src) in srcs.iter().enumerate() {
        for at in words(&src.code, name) {
            if !src.code[..at].ends_with("fn ") {
                continue;
            }
            let Some(open) = src.code[at..].find(['{', ';']).map(|o| at + o) else {
                continue;
            };
            if src.code.as_bytes()[open] == b';' {
                continue;
            }
            let required = file < declaring && src.code[..at].ends_with("pub fn ");
            out.push(Decl {
                file,
                at,
                body: (open, block_end(&src.code, open)),
                owner: src.owner_at(at),
                required,
            });
        }
    }
    out
}

/// Every call site of `name` — or of `word`, a `use`'s alias for it —
/// in shipped code, as the set of `decls` it could be calling.
fn call_sites(srcs: &[Src], decls: &[Decl], word: &str) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for (file, src) in srcs.iter().enumerate() {
        let code = &src.code;
        for at in words(code, word) {
            let (before, after) = (&code[..at], &code[at + word.len()..]);
            let called = after.starts_with('(') || after.starts_with("::<");
            if before.ends_with("fn ") || src.in_use(at) {
                continue;
            }
            // The decls passing `keep`, or `None` if none does; never the
            // fn the call is in.
            let pick = |keep: &dyn Fn(&Decl) -> bool| -> Option<Vec<usize>> {
                let picked: Vec<usize> = (0..decls.len())
                    .filter(|&d| keep(&decls[d]))
                    .filter(|&d| {
                        decls[d].file != file || !(decls[d].body.0..decls[d].body.1).contains(&at)
                    })
                    .collect();
                (!picked.is_empty()).then_some(picked)
            };
            let own_type = match src.owner_at(at) {
                Owner::Inherent(t) | Owner::Dispatch(t) => t,
                Owner::Free => String::new(),
            };
            // A type that declares `name` is what the call means, even
            // when the only one is the fn the call is in.
            let inherent_to = |t: &str| {
                let t = Owner::Inherent(t.to_string());
                let keep = |d: &Decl| d.owner == t;
                decls
                    .iter()
                    .any(keep)
                    .then(|| pick(&keep).unwrap_or_default())
            };
            let free = |d: &Decl| d.owner == Owner::Free;
            let candidates = if before.ends_with("::") && !after.starts_with("::") {
                let q = match ident_before(code, at - 2) {
                    "Self" => own_type.as_str(),
                    q => q,
                };
                // A `Type::`, trait or type-parameter path never names a
                // free fn; a `module::` path names nothing else.
                let is_type = q.starts_with(|c: char| c.is_ascii_uppercase());
                inherent_to(q)
                    .or_else(|| pick(&|d: &Decl| free(d) && srcs[d.file].stem == q))
                    .or_else(|| pick(&|d: &Decl| free(d) != is_type))
            } else if before.ends_with('.') && called {
                // The receiver: `self`, `self.field`, or anything else.
                let recv = before[..before.len() - 1].trim_end();
                let last = ident_before(recv, recv.len());
                let rest = &recv[..recv.len() - last.len()];
                let on_field = rest.ends_with('.') && ident_before(rest, rest.len() - 1) == "self";
                // A method call never names a free fn.
                let own_crate = || pick(&|d: &Decl| !free(d) && srcs[d.file].krate == src.krate);
                let found = if own_type.is_empty() || !(last == "self" || on_field) {
                    own_crate()
                } else if last == "self" {
                    inherent_to(&own_type).or_else(own_crate)
                } else {
                    let t = Owner::Inherent(own_type.clone());
                    pick(&|d: &Decl| !free(d) && d.owner != t)
                };
                found.or_else(|| pick(&|d: &Decl| !free(d)))
            } else if !before.ends_with(['.', ':'])
                && (called || (before.ends_with(['(', ' ']) && after.starts_with([')', ','])))
            {
                // A bare call, or a free fn passed by name (`map(f)`):
                // never a method.
                let own_file = pick(&|d: &Decl| free(d) && d.file == file);
                own_file.or_else(|| pick(&free))
            } else {
                continue;
            };
            out.push(candidates.unwrap_or_default());
        }
    }
    out
}

/// The required decls no maximum matching of calls to decls can serve
/// (Kuhn's augmenting paths, required decls only).
fn unmatched(decls: &[Decl], calls: &[Vec<usize>]) -> Vec<usize> {
    fn augment(
        d: usize,
        edges: &[Vec<usize>],
        seen: &mut [bool],
        owner: &mut [Option<usize>],
    ) -> bool {
        for &c in &edges[d] {
            if !std::mem::replace(&mut seen[c], true)
                && owner[c].is_none_or(|o| augment(o, edges, seen, owner))
            {
                owner[c] = Some(d);
                return true;
            }
        }
        false
    }
    let edges: Vec<Vec<usize>> = (0..decls.len())
        .map(|d| {
            (0..calls.len())
                .filter(|&c| calls[c].contains(&d))
                .collect()
        })
        .collect();
    let mut owner = vec![None; calls.len()];
    (0..decls.len())
        .filter(|&d| decls[d].required)
        .filter(|&d| !augment(d, &edges, &mut vec![false; calls.len()], &mut owner))
        .collect()
}

fn corpus(root: &Path) -> (Vec<Src>, usize) {
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
    let srcs = files
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(root).unwrap_or(path);
            let mut parts = rel.iter().map(|p| p.to_string_lossy().into_owned());
            let top = parts.next().unwrap_or_default();
            let krate = if top == "crates" {
                parts.next().unwrap_or_default()
            } else {
                top
            };
            let stem = path.file_stem().unwrap_or_default().to_string_lossy();
            Src::new(
                rel.display().to_string(),
                krate,
                stem.into_owned(),
                &shipped_code(path),
            )
        })
        .collect();
    (srcs, declaring)
}

#[test]
fn every_pub_fn_is_named_by_shipped_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (srcs, declaring) = corpus(root);
    let mut names: Vec<&str> = srcs[..declaring]
        .iter()
        .flat_map(|s| {
            words(&s.code, "fn")
                .filter(|&at| s.code[..at].ends_with("pub "))
                .map(|at| ident_at(&s.code, at + 3))
        })
        .filter(|n| !n.is_empty() && !OBSERVED.iter().any(|&(o, _)| o == *n))
        .collect();
    names.sort();
    names.dedup();
    let mut uncalled = Vec::new();
    for name in names {
        let decls = decls_of(&srcs, declaring, name);
        let mut calls = call_sites(&srcs, &decls, name);
        let mut aliases: Vec<&str> = srcs.iter().flat_map(|s| s.aliases(name)).collect();
        aliases.sort();
        aliases.dedup();
        for alias in aliases {
            calls.extend(call_sites(&srcs, &decls, alias));
        }
        for d in unmatched(&decls, &calls) {
            let line = srcs[decls[d].file].code[..decls[d].at].lines().count();
            uncalled.push(format!("{}:{line}: pub fn {name}", srcs[decls[d].file].rel));
        }
    }
    assert!(
        uncalled.is_empty(),
        "pub fns shipped code does not call (delete them, or list them in \
         OBSERVED with a reason):\n{}",
        uncalled.join("\n")
    );
}

#[test]
fn literals_recursion_and_receivers_narrow_call_sites() {
    let src = |krate: &str, stem: &str, code: &str| {
        Src::new(stem.into(), krate.into(), stem.into(), code)
    };
    let srcs = [
        src(
            "sim",
            "link",
            "impl Link {\n pub fn transmit(&mut self) {}\n \
             pub fn send(&mut self) { self.transmit(); }\n}",
        ),
        src(
            "devices",
            "nic",
            "use m::transmit::Sub;\nimpl Nic {\n pub fn transmit(&mut self) { self.transmit() }\n \
             pub fn push(&mut self) { let c = b'{'; self.link.transmit(); }\n \
             fn log(&self) { let s = \".transmit(\"; // x.transmit()\n }\n}",
        ),
    ];
    let decls = decls_of(&srcs, srcs.len(), "transmit");
    let calls = call_sites(&srcs, &decls, "transmit");
    // Link's `self.transmit()` can only be Link's; Nic's recursion
    // serves nothing; `self.link.transmit()` is anyone's but Nic's. The
    // string, the comment and the `use` path are not calls.
    assert_eq!(calls, [vec![0], vec![], vec![0]]);
    // So Nic::transmit is the one no call can be given to.
    assert_eq!(unmatched(&decls, &calls), [1]);
}
