//! Contracts state only what runs: every `pub` item a crate declares —
//! `pub fn`, `pub` field, enum variant of a `pub enum`, `pub const` —
//! must be used somewhere in code that ships (another non-test line of
//! `crates/*/src`, the `kite` facade, an example or `benchmark/src`),
//! or be listed in [`OBSERVED`], the entry and observation points tests
//! use on purpose. An item only its own `#[cfg(test)]` module uses is a
//! promise nothing keeps; delete it with the unit test that exercised it.
//!
//! What counts as a use:
//! - a `pub fn` (`pub const fn` and `pub unsafe fn` too) needs a call:
//!   `.name(`, a bare `name(`, or a path ending in `::name`;
//! - a `pub` field needs a read: `.name` that is not a method call or
//!   the left side of an assignment, plain (`=`) or compound (`+=`,
//!   `|=`, `<<=` …: a counter only ever bumped is never read), or the
//!   field named in a struct pattern (`S { name, .. }`, `let S { name:
//!   x } = s`);
//! - an enum variant needs a construction: `Enum::Name` or `Self::Name`
//!   (or a bare `Name` a `use` imports) outside every pattern — a match
//!   arm, a `let` pattern or a `matches!` pattern builds nothing, and
//!   neither does an arm body passing on the variant its pattern matched;
//! - a `pub const` needs any mention.
//!
//! Strings and comments are not code, and neither is a `use` item; a
//! format string's inline arguments (`"{NAME}"`) are.
//!
//! Names are shared (`checksum::finish`, `ReqTracer::finish`), so a name
//! is counted, not just found: a name that `n` items of one kind declare
//! needs `n` uses in shipped code, each given to a different item it
//! could mean. A use narrows to fewer candidates when its text says so:
//! - `Type::name`, `module::name` and `Self::name` to the items that
//!   type or file declares;
//! - `self.name(` in an `impl Type` to `Type`'s own fn, and
//!   `self.field.name(` to any *but* `Type`'s;
//! - a field read `recv.name` to the field of `recv`'s type, when the
//!   source states it: `self`, a parameter, a `let` with a type, a
//!   struct literal or a call whose fn's return type is written out,
//!   and chains of fields from those;
//! - another `.name(` to the caller's own crate's fns, when it has one;
//! - a bare `name(` to the free fns, its own file's first;
//! - a struct pattern to the fields of the type it names.
//!
//! A use never counts for the fn or const it sits in: recursion proves
//! nothing, and a same-named wrapper's call counts only for the fn it
//! wraps. Common names (`new`, `len`) still always resolve, so the gate
//! can miss an unreachable item but does not flag a reachable one.
//!
//! That is its blind spot: a method named like a std one (`len`,
//! `is_empty`, `clear`, `iter`, `min`, `name`, `all`) is served by any
//! `.len(` on a `Vec` or `.min(` on a `u64` in its crate, and a `.name`
//! read on a receiver of unstated type counts for every field of that
//! name, so an item can have no reader at all and still pass. The
//! compiler probe covers it, on a scratch copy of the tracked files:
//! make every `pub` field, `pub fn` and `pub const` declared before a
//! file's first `#[cfg(test)]` under `crates/*/src` `pub(crate)`; run
//! `cargo check --offline --keep-going --message-format=json --workspace
//! --lib --bins --examples` and the same against `benchmark/Cargo.toml`;
//! restore `pub` on every item an error names or points at, and repeat
//! until both build. rustc's `never read` / `never used` warnings then
//! list what no shipped code uses: each is deleted, listed in
//! [`OBSERVED`], or kept for a reason DESIGN.md §7 records. The probe
//! cannot judge a field another crate constructs (the literal's error
//! restores it), so its list is a lower bound.

use std::fs;
use std::path::{Path, PathBuf};

/// Items no shipped code uses that stay on purpose, and why. Each key
/// names exactly one declaration: `Type::name` for a method, field,
/// variant or associated const, `file::name` for a free fn or const. An
/// entry whose item shipped code does use is stale and fails the gate.
const OBSERVED: &[(&str, &str)] = &[
    // Host<D>
    (
        "Host::backend_alive",
        "recovery and health tests poll the outage",
    ),
    (
        "Host::scheduler_kind",
        "the heap/wheel gate checks which backend ran",
    ),
    (
        "Host::inject_faults",
        "the rate half of the fault API; no shipped scenario arms a rate \
         yet, ROADMAP item 3's fault matrix does",
    ),
    // the fault plan's rate builders: hypervisor and backend-manager
    // unit tests arm one class each, for ROADMAP item 3's fault matrix
    ("FaultPlan::with_copy_failures", "arms grant-copy failures"),
    ("FaultPlan::with_notify_drops", "arms notification drops"),
    ("FaultPlan::with_notify_delays", "arms notification delays"),
    ("FaultPlan::with_xs_failures", "arms xenstore op failures"),
    // observation points
    (
        "monitor::DETECT_BOUND",
        "the bound watchdog tests hold detection to",
    ),
    (
        "NvmeController::io_queue_count",
        "nvme tests count the pairs a restart re-creates",
    ),
    (
        "ReqTracer::live_len",
        "reqtrace tests assert the live table is bounded",
    ),
    (
        "ReqRecord::stamp_of",
        "reqtrace tests read one request's stage stamps",
    ),
    (
        "TimeSeriesSampler::column_names",
        "sampler tests compare the header with the rows",
    ),
    (
        "TraceQuery::seq_between",
        "recovery tests order events between two marks",
    ),
    (
        "Netfront::rejects",
        "hostile-backend tests read netfront's refusal counters; no \
         shipped backend writes a response it refuses",
    ),
    (
        "Blkfront::rejects",
        "hostile-backend tests read blkfront's refusal counters; no \
         shipped backend writes a response it refuses",
    ),
    (
        "Netfront::pools_lent",
        "pool-soundness tests audit netfront's grant pool at quiescence",
    ),
    (
        "Blkfront::pools_lent",
        "pool-soundness tests audit blkfront's grant pool at quiescence",
    ),
    (
        "Nic::rx_dropped",
        "the only record of a frame the NIC's receive ring overflowed; the \
         NIC tests read it",
    ),
    (
        "RrResult::unanswered",
        "the network closed loop's loss, each request behind a counted \
         drop; fig9's test pins it, ROADMAP item 13 makes it zero",
    ),
    (
        "Host::last_breach",
        "the SLO breach attribution ROADMAP item 7's `repro explain` walks",
    ),
    (
        "TraceQuery::kind",
        "trace-query assertions filter events by kind",
    ),
    (
        "TimeSeriesSampler::samples",
        "sampler tests read the recorded rows",
    ),
    (
        "ExtentAllocator::free_blocks",
        "allocator property tests check blocks are conserved",
    ),
    (
        "CopyStats::bytes_per_hypercall",
        "exported as a derived row: `counters!` calls it through a macro \
         metavariable",
    ),
    // SystemConfig knobs only tests turn (DESIGN.md §7)
    (
        "SystemConfig::slo",
        "the only way a test reaches the watchdog's SLO probe",
    ),
    (
        "SystemConfig::nvme_max_io_queues",
        "the only way a test reaches the controller's queue cap",
    ),
    (
        "SystemConfig::scheduler",
        "the heap/wheel gate runs one scenario on each backend",
    ),
    // reference implementations and the kept NAT path
    (
        "NetbackInstance::set_copy_mode",
        "netback_batched_matches_single_op runs single-op grant copies \
         as the reference the batched drain must match",
    ),
    (
        "NetbackInstance::copy_mode",
        "the same test reads back which mode a rig runs",
    ),
    (
        "Host::use_nat",
        "the end-to-end NAT tests switch a system's bridge to NAT",
    ),
    (
        "Nat::flows",
        "the same tests count the SNAT flows it set up",
    ),
    (
        "GrantTables::end_access",
        "grant-table tests revoke grants; the frontends' grant pools keep \
         theirs for life",
    ),
    // toolstack and xenstore surface
    (
        "BackendManager::forget",
        "teardown-and-reconnect tests deprovision a pair",
    ),
    (
        "Xenstore::tx_start",
        "the xenstore transaction tests drive it",
    ),
    (
        "Xenstore::tx_end",
        "the xenstore transaction tests drive it",
    ),
    (
        "Xenstore::set_quota",
        "the only way to test the per-domain quota defence",
    ),
    // fields, variants and consts
    (
        "Image::parts",
        "the image tests check which parts each driver domain links (no \
         NVMe driver in the network image); callers read the total",
    ),
    (
        "StackRow::total_ns",
        "the profiler tests check each path's inclusive time is its self \
         time plus its children's",
    ),
    (
        "Fault::Hang",
        "health and recovery tests hang a driver domain; no shipped \
         scenario schedules one yet, ROADMAP item 3's fault matrix does",
    ),
    (
        "Fault::Wedge",
        "health and recovery tests wedge one queue; no shipped scenario \
         schedules one yet, ROADMAP item 3's fault matrix does",
    ),
    (
        "NvmeController::profile",
        "tests size their latency and bandwidth bounds from the profile \
         the drive was built with",
    ),
    (
        "DhcpReport::sessions",
        "the perfdhcp tests check every DORA session completed",
    ),
    (
        "IoKind::Flush",
        "a guest durability barrier blkback advertises \
         (`feature-flush-cache`); the storage tests flush through \
         blkfront and the queue-pair path, no figure's workload does",
    ),
    (
        "netif::NET_RX_RING_SIZE",
        "the allocation gate warms up over one Rx ring's worth of posted \
         buffers",
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

/// `text` up to its first `#[cfg(test)]`: the code that ships.
fn shipped(text: &str) -> String {
    text.lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .collect::<Vec<_>>()
        .join("\n")
}

/// `code` with every comment, string and char literal blanked to spaces,
/// so byte offsets hold and braces inside literals cannot unbalance a
/// body; only a format string's inline arguments stay.
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
        if !matches!(b[start], b'/' | b'\'') {
            // A format string's inline arguments (`{NAME}`, `{x:>8}`)
            // use what they name; `{{` is a literal brace.
            let mut j = start;
            while let Some(o) = code[j..end].find('{') {
                let arg = j + o + 1;
                let len = ident_at(code, arg).len();
                if b[arg] == b'{' {
                    j = arg + 1;
                    continue;
                }
                if len > 0 && matches!(b.get(arg + len), Some(b'}' | b':')) {
                    out[arg..arg + len].copy_from_slice(&b[arg..arg + len]);
                }
                j = arg + len;
            }
        }
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

/// The offset of the first non-whitespace byte at or after `at`.
fn skip_ws(code: &str, at: usize) -> usize {
    at + code[at..]
        .bytes()
        .take_while(u8::is_ascii_whitespace)
        .count()
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

/// The first offset from `from` where `stop` holds outside every
/// bracket opened after `from`, or where a bracket closes that opened
/// before it; `code.len()` if neither.
fn scan(code: &str, from: usize, stop: impl Fn(&[u8], usize) -> bool) -> usize {
    let b = code.as_bytes();
    let mut depth = 0usize;
    for i in from..b.len() {
        if depth == 0 && stop(b, i) {
            return i;
        }
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' if depth == 0 => return i,
            b')' | b']' | b'}' => depth -= 1,
            _ => {}
        }
    }
    b.len()
}

/// The top-level comma-separated entries of the bracket group opening
/// at `open`, as byte ranges.
fn entries(code: &str, open: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = open + 1;
    loop {
        let end = scan(code, at, |b, i| b[i] == b',');
        out.push((at, end));
        if code.as_bytes().get(end) != Some(&b',') {
            return out;
        }
        at = end + 1;
    }
}

/// `=>`, the arrow ending a match arm's pattern.
fn arrow(b: &[u8], i: usize) -> bool {
    b[i] == b'=' && b.get(i + 1) == Some(&b'>')
}

/// A plain `=`: not `==`, `=>`, or the tail of `!=`, `<=`, `+=` ….
fn assign(b: &[u8], i: usize) -> bool {
    b[i] == b'='
        && !matches!(b.get(i + 1), Some(b'=' | b'>'))
        && (i == 0 || !b"=!<>+-*/%&|^".contains(&b[i - 1]))
}

/// A compound assignment (`+=`, `|=`, `<<=` …) at the start of `b`.
fn compound(b: &[u8]) -> bool {
    let op = match b {
        [b'<', b'<', ..] | [b'>', b'>', ..] => 2,
        [c, ..] if b"+-*/%&|^".contains(c) => 1,
        _ => return false,
    };
    b.get(op) == Some(&b'=') && b.get(op + 1) != Some(&b'=')
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

/// The arms of every `match` in `code`: where each pattern (guard
/// included) starts, where its `=>` is, and where its body ends.
fn arms(code: &str) -> Vec<(usize, usize, usize)> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    for at in words(code, "match") {
        let open = scan(code, at + 5, |b, i| b[i] == b'{');
        if b.get(open) != Some(&b'{') {
            continue;
        }
        let mut arm = skip_ws(code, open + 1);
        while arm < b.len() && b[arm] != b'}' {
            let to = scan(code, arm, arrow);
            if to == b.len() || !arrow(b, to) {
                break;
            }
            let body = skip_ws(code, to + 2);
            let end = if b[body] == b'{' {
                skip_ws(code, block_end(code, body))
            } else {
                scan(code, body, |b, i| b[i] == b',')
            };
            out.push((arm, to, end));
            arm = skip_ws(code, end + usize::from(b.get(end) == Some(&b',')));
        }
    }
    out
}

/// The byte ranges of `code` that are patterns: match arms (guards
/// included), `let` patterns (so `if let`, `while let` and `let … else`
/// too) and `matches!` patterns.
fn patterns(code: &str, arms: &[(usize, usize, usize)]) -> Vec<(usize, usize)> {
    let b = code.as_bytes();
    let mut out: Vec<(usize, usize)> = arms.iter().map(|&(from, to, _)| (from, to)).collect();
    for at in words(code, "let") {
        let end = scan(code, at + 3, |b, i| {
            let colon = b[i] == b':' && b.get(i + 1) != Some(&b':') && b[i - 1] != b':';
            b[i] == b';' || assign(b, i) || colon
        });
        out.push((at + 3, end));
    }
    for (at, _) in code.match_indices("matches!(") {
        if at > 0 && is_ident(b[at - 1]) {
            continue;
        }
        let open = at + "matches!".len();
        let comma = scan(code, open + 1, |b, i| b[i] == b',');
        if b.get(comma) == Some(&b',') {
            out.push((comma + 1, scan(code, comma + 1, |_, _| false)));
        }
    }
    out
}

/// Who an item belongs to: what a use may be narrowed by.
#[derive(Clone, PartialEq, Debug)]
enum Owner {
    Free,
    /// An inherent `impl Type` block, or the struct or enum declaring a
    /// field or variant.
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

/// What a declaration is.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Fn,
    Field,
    Variant,
    Const,
}

impl Kind {
    /// How a finding names the kind.
    fn label(self) -> &'static str {
        match self {
            Kind::Fn => "pub fn",
            Kind::Field => "pub field",
            Kind::Variant => "variant",
            Kind::Const => "pub const",
        }
    }
}

/// A named field of a struct, or a variant of an enum.
struct Member {
    kind: Kind,
    /// The struct or enum.
    owner: String,
    name: String,
    at: usize,
    /// A `pub` field, or a variant of a `pub enum`.
    public: bool,
    /// A field's type, as [`base_type`] names it.
    ty: String,
}

/// The name a type is known by: `&'a mut kite::Foo<T>` is `Foo`.
fn base_type(ty: &str) -> &str {
    let mut ty = ty.trim_start().trim_start_matches('&');
    if ty.starts_with('\'') {
        ty = ty.split_once(' ').map_or("", |(_, t)| t);
    }
    let ty = ty.trim_start();
    let ty = ty.strip_prefix("mut ").unwrap_or(ty).trim_start();
    let path = ty
        .split(['<', ' ', ',', ')', '>', ';', '='])
        .next()
        .unwrap_or("");
    path.rsplit("::").next().unwrap_or("")
}

/// The fields of every braced struct and the variants of every enum in
/// `code`.
fn members(code: &str) -> Vec<Member> {
    let mut out = Vec::new();
    for (kw, kind) in [("struct", Kind::Field), ("enum", Kind::Variant)] {
        for at in words(code, kw).filter(|&at| item_start(code, at)) {
            let name_at = skip_ws(code, at + kw.len());
            let owner = ident_at(code, name_at).to_string();
            let Some(open) = code[name_at..].find(['{', '(', ';']).map(|o| name_at + o) else {
                continue;
            };
            if code.as_bytes()[open] != b'{' {
                continue;
            }
            let pub_item = code[..at].trim_end().ends_with("pub");
            for (from, _) in entries(code, open) {
                let mut e = skip_ws(code, from);
                while code[e..].starts_with("#[") {
                    e = skip_ws(code, scan(code, e + 2, |_, _| false) + 1);
                }
                let public = code[e..].starts_with("pub ");
                if code[e..].starts_with("pub") {
                    e = skip_ws(code, e + 3);
                    if code[e..].starts_with('(') {
                        e = skip_ws(code, scan(code, e + 1, |_, _| false) + 1);
                    }
                }
                let name = ident_at(code, e);
                if name.is_empty() {
                    continue;
                }
                let rest = code[e + name.len()..].trim_start();
                let ty = rest.strip_prefix(':').map_or("", base_type);
                out.push(Member {
                    kind,
                    owner: owner.clone(),
                    name: name.to_string(),
                    at: e,
                    public: if kind == Kind::Field {
                        public
                    } else {
                        pub_item
                    },
                    ty: ty.to_string(),
                });
            }
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
    /// `use` items: they import or re-export a name, never use it.
    uses: Vec<(usize, usize)>,
    patterns: Vec<(usize, usize)>,
    arms: Vec<(usize, usize, usize)>,
    members: Vec<Member>,
    /// Fields read by a struct pattern: field, struct, offset.
    bound: Vec<(String, String, usize)>,
    /// Every `fn` with a body: where it starts, and its body's range.
    fns: Vec<(usize, usize, usize)>,
    /// `type Alias = Target<..>;`, as alias and target's base name.
    aliases: Vec<(String, String)>,
}

impl Src {
    /// The shipped part of `text`, file `rel`, which belongs to crate
    /// `krate` and is the module `stem`.
    fn new(rel: String, krate: String, stem: String, text: &str) -> Src {
        let code = blank_literals(&shipped(text));
        let uses = words(&code, "use")
            .filter(|&at| item_start(&code, at))
            .map(|at| (at, code[at..].find(';').map_or(code.len(), |e| at + e)))
            .collect();
        let fns = words(&code, "fn")
            .filter(|&at| !ident_at(&code, skip_ws(&code, at + 2)).is_empty())
            .filter_map(|at| {
                let open = at + code[at..].find(['{', ';'])?;
                (code.as_bytes()[open] == b'{').then(|| (at, open, block_end(&code, open)))
            })
            .collect();
        let aliases = words(&code, "type")
            .filter(|&at| item_start(&code, at))
            .filter_map(|at| {
                let (alias, target) = code[at + 4..].split_once('=')?;
                Some((alias.trim().to_string(), base_type(target).to_string()))
            })
            .collect();
        let arms = arms(&code);
        let mut src = Src {
            rel,
            krate,
            stem,
            blocks: blocks(&code),
            uses,
            patterns: patterns(&code, &arms),
            arms,
            members: members(&code),
            bound: Vec::new(),
            fns,
            aliases,
            code,
        };
        src.bound = src.struct_patterns();
        src
    }

    /// Every field a struct pattern in this file names.
    fn struct_patterns(&self) -> Vec<(String, String, usize)> {
        let code = &self.code;
        let mut out = Vec::new();
        for &(from, to) in &self.patterns {
            for open in (from..to).filter(|&i| code.as_bytes()[i] == b'{') {
                let ty = match ident_before(code, code[..open].trim_end().len()) {
                    "Self" => self.own_type(open),
                    t => t.to_string(),
                };
                if !ty.starts_with(|c: char| c.is_ascii_uppercase()) {
                    continue;
                }
                for (e, _) in entries(code, open) {
                    let mut e = skip_ws(code, e);
                    for prefix in ["ref ", "mut "] {
                        if code[e..].starts_with(prefix) {
                            e = skip_ws(code, e + prefix.len());
                        }
                    }
                    let field = ident_at(code, e);
                    let rest = code[e + field.len()..].trim_start();
                    let binds = !rest.starts_with("::") && rest.starts_with([':', ',', '}']);
                    if !field.is_empty() && (binds || rest.is_empty()) {
                        out.push((field.to_string(), ty.clone(), e));
                    }
                }
            }
        }
        out
    }

    fn in_use(&self, at: usize) -> bool {
        self.uses.iter().any(|&(from, to)| (from..to).contains(&at))
    }

    fn in_pattern(&self, at: usize) -> bool {
        self.patterns
            .iter()
            .any(|&(from, to)| (from..to).contains(&at))
    }

    /// The type the path before `name` at byte `at` names (`Self`
    /// resolved), or `""` for a bare name.
    fn qualifier(&self, at: usize) -> String {
        if !self.code[..at].ends_with("::") {
            return String::new();
        }
        match ident_before(&self.code, at - 2) {
            "Self" => self.own_type(at),
            q => q.to_string(),
        }
    }

    /// Whether the mention of `word` at byte `at` is in the body of a
    /// match arm whose pattern names the same variant: `E::V => f(E::V)`
    /// passes a `V` on, it builds none.
    fn passed_on(&self, word: &str, at: usize) -> bool {
        let q = self.qualifier(at);
        self.arms.iter().any(|&(from, arrow, end)| {
            (arrow..end).contains(&at)
                && words(&self.code[..arrow], word).any(|p| p >= from && self.qualifier(p) == q)
        })
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

    /// The type `Self` means at byte `at`, or `""` outside any impl.
    fn own_type(&self, at: usize) -> String {
        match self.owner_at(at) {
            Owner::Inherent(t) | Owner::Dispatch(t) => t,
            Owner::Free => String::new(),
        }
    }

    /// Whether a `use` of this file imports variant `name` of `enum_name`
    /// (`Enum::*`, `Enum::{Name, ..}` or `Enum::Name`).
    fn imports(&self, enum_name: &str, name: &str) -> bool {
        let path = format!("{enum_name}::");
        self.uses.iter().any(|&(from, to)| {
            let item = &self.code[from..to];
            item.match_indices(&path).any(|(at, _)| {
                let rest = &item[at + path.len()..];
                let list = rest
                    .strip_prefix('{')
                    .map_or(rest, |r| r.split('}').next().unwrap_or(r));
                rest.starts_with('*') || list.split(',').any(|v| v.trim() == name)
            })
        })
    }
}

/// One declaration of a name.
struct Decl {
    file: usize,
    at: usize,
    /// What a use inside does not count for: a fn's body, a const's
    /// initialiser.
    body: (usize, usize),
    owner: Owner,
    /// A public item under `crates/*/src`: one the gate requires a use
    /// of.
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
            let required = file < declaring && is_pub_fn(&src.code[..at - 3]);
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

/// Every field or variant named `name`; the public ones under
/// `crates/*/src` are required.
fn member_decls(srcs: &[Src], declaring: usize, kind: Kind, name: &str) -> Vec<Decl> {
    let mut out = Vec::new();
    for (file, src) in srcs.iter().enumerate() {
        for m in src
            .members
            .iter()
            .filter(|m| m.kind == kind && m.name == name)
        {
            out.push(Decl {
                file,
                at: m.at,
                body: (m.at, m.at),
                owner: Owner::Inherent(m.owner.clone()),
                required: file < declaring && m.public,
            });
        }
    }
    out
}

/// Every `const` named `name`; the `pub` ones under `crates/*/src` are
/// required.
fn const_decls(srcs: &[Src], declaring: usize, name: &str) -> Vec<Decl> {
    let mut out = Vec::new();
    for (file, src) in srcs.iter().enumerate() {
        for at in words(&src.code, name) {
            if !src.code[..at].ends_with("const ") {
                continue;
            }
            let end = src.code[at..].find(';').map_or(src.code.len(), |e| at + e);
            out.push(Decl {
                file,
                at,
                body: (at, end),
                owner: src.owner_at(at),
                required: file < declaring && src.code[..at].ends_with("pub const "),
            });
        }
    }
    out
}

/// The indices of `decls` passing `keep`, or `None` if none does; never
/// the one whose body holds byte `at` of file `file`.
fn pick(
    decls: &[Decl],
    file: usize,
    at: usize,
    keep: &dyn Fn(&Decl) -> bool,
) -> Option<Vec<usize>> {
    let picked: Vec<usize> = (0..decls.len())
        .filter(|&d| keep(&decls[d]))
        .filter(|&d| decls[d].file != file || !(decls[d].body.0..decls[d].body.1).contains(&at))
        .collect();
    (!picked.is_empty()).then_some(picked)
}

/// `Some` of the decls type `t` declares, if it declares any — even when
/// the only one is the item the use at byte `at` of `file` is in, which
/// then leaves none.
fn inherent_to(decls: &[Decl], file: usize, at: usize, t: &str) -> Option<Vec<usize>> {
    let t = Owner::Inherent(t.to_string());
    let keep = |d: &Decl| d.owner == t;
    decls
        .iter()
        .any(keep)
        .then(|| pick(decls, file, at, &keep).unwrap_or_default())
}

/// The decls `q::name` can mean: a type's own, a module's free ones, or
/// any of the kind the case of `q` says.
fn qualified(srcs: &[Src], decls: &[Decl], file: usize, at: usize, q: &str) -> Option<Vec<usize>> {
    let q = match q {
        "Self" => srcs[file].own_type(at),
        q => q.to_string(),
    };
    // A `Type::`, trait or type-parameter path never names a free item;
    // a `module::` path names nothing else.
    let is_type = q.starts_with(|c: char| c.is_ascii_uppercase());
    let free = |d: &Decl| d.owner == Owner::Free;
    inherent_to(decls, file, at, &q)
        .or_else(|| {
            pick(decls, file, at, &|d: &Decl| {
                free(d) && srcs[d.file].stem == q
            })
        })
        .or_else(|| pick(decls, file, at, &|d: &Decl| free(d) != is_type))
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
            let choose = |keep: &dyn Fn(&Decl) -> bool| pick(decls, file, at, keep);
            let own_type = src.own_type(at);
            let free = |d: &Decl| d.owner == Owner::Free;
            let candidates = if before.ends_with("::") && !after.starts_with("::") {
                qualified(srcs, decls, file, at, ident_before(code, at - 2))
            } else if before.ends_with('.') && called {
                // The receiver: `self`, `self.field`, or anything else.
                let recv = before[..before.len() - 1].trim_end();
                let last = ident_before(recv, recv.len());
                let rest = &recv[..recv.len() - last.len()];
                let on_field = rest.ends_with('.') && ident_before(rest, rest.len() - 1) == "self";
                // A method call never names a free fn.
                let own_crate = || choose(&|d: &Decl| !free(d) && srcs[d.file].krate == src.krate);
                let found = if own_type.is_empty() || !(last == "self" || on_field) {
                    own_crate()
                } else if last == "self" {
                    inherent_to(decls, file, at, &own_type).or_else(own_crate)
                } else {
                    let t = Owner::Inherent(own_type.clone());
                    choose(&|d: &Decl| !free(d) && d.owner != t)
                };
                found.or_else(|| choose(&|d: &Decl| !free(d)))
            } else if !before.ends_with(['.', ':'])
                && (called || (before.ends_with(['(', ' ']) && after.starts_with([')', ','])))
            {
                // A bare call, or a free fn passed by name (`map(f)`):
                // never a method.
                let own_file = choose(&|d: &Decl| free(d) && d.file == file);
                own_file.or_else(|| choose(&free))
            } else {
                continue;
            };
            out.push(candidates.unwrap_or_default());
        }
    }
    out
}

/// Every read of the field `name` in shipped code, as the set of
/// `decls` it could be reading.
fn field_reads(srcs: &[Src], decls: &[Decl], name: &str) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for (file, src) in srcs.iter().enumerate() {
        let code = &src.code;
        for at in words(code, name) {
            let (before, after) = (&code[..at], &code[at + name.len()..]);
            if !before.ends_with('.') || before.ends_with("..") {
                continue;
            }
            let b = after.trim_start().as_bytes();
            if after.starts_with(['(', ':']) || (!b.is_empty() && assign(b, 0)) || compound(b) {
                continue;
            }
            let own = receiver_type(srcs, file, at - 1).map(Owner::Inherent);
            let candidates = match own {
                Some(own) if decls.iter().any(|d| d.owner == own) => {
                    pick(decls, file, at, &|d: &Decl| d.owner == own)
                }
                _ => pick(decls, file, at, &|_: &Decl| true),
            };
            out.push(candidates.unwrap_or_default());
        }
        for (field, ty, at) in &src.bound {
            let t = Owner::Inherent(ty.clone());
            if field == name {
                if let Some(c) = pick(decls, file, *at, &|d: &Decl| d.owner == t) {
                    out.push(c);
                }
            }
        }
    }
    out
}

/// The innermost fn of file `file` around byte `at`: where it starts,
/// and its body's range.
fn fn_at(src: &Src, at: usize) -> Option<(usize, usize, usize)> {
    src.fns
        .iter()
        .filter(|&&(_, open, close)| (open..close).contains(&at))
        .min_by_key(|&&(_, open, close)| close - open)
        .copied()
}

/// The type of the local or parameter `var` at byte `at` of file
/// `file`, when the innermost fn around it says: `let var: T`, `let var
/// = e;` or `for var in e` with an `e` [`expr_type`] knows, or a
/// parameter `var: T`.
fn var_type(srcs: &[Src], file: usize, var: &str, at: usize) -> Option<String> {
    let code = &srcs[file].code;
    let (sig, open, _) = fn_at(&srcs[file], at)?;
    let binder = |v: &usize| {
        let head = code[..*v].trim_end();
        let head = head.strip_suffix("mut").unwrap_or(head).trim_end();
        let kw = ident_before(head, head.len());
        (kw == "let" || kw == "for") && head.len() > open
    };
    let Some(v) = words(&code[..at], var).filter(binder).last() else {
        let v = words(&code[sig..open], var).next()?;
        let ty = code[sig + v + var.len()..open]
            .trim_start()
            .strip_prefix(':')?;
        return Some(base_type(ty).to_string());
    };
    let rest = skip_ws(code, v + var.len());
    let ty = if let Some(ty) = code[rest..].strip_prefix(':') {
        ty.to_string()
    } else if code[rest..].starts_with('=') {
        expr_type(srcs, file, skip_ws(code, rest + 1))?
    } else if code[rest..].starts_with("in ") {
        // The item type of a `Vec<T>`, `[T; n]` or `impl Iterator<Item = T>`.
        let ty = expr_type(srcs, file, skip_ws(code, rest + 2))?;
        let inner = ty
            .split_once("Item =")
            .or_else(|| ty.split_once(['<', '[']))?;
        inner.1.to_string()
    } else {
        return None;
    };
    Some(base_type(&ty).to_string()).filter(|t| !t.is_empty())
}

/// The type of the expression at byte `at` of file `file`, as written
/// in the source, when it is a struct literal (`T { .. }`) or one call
/// of a fn whose return type its path pins (`T::new(..)`,
/// `module::run(..)`, `run(..)`), and nothing follows.
fn expr_type(srcs: &[Src], file: usize, at: usize) -> Option<String> {
    let code = &srcs[file].code;
    let len = code[at..]
        .bytes()
        .take_while(|&b| is_ident(b) || b == b':')
        .count();
    let path: Vec<&str> = code[at..at + len].split("::").collect();
    let (name, q) = (*path.last()?, path.len().checked_sub(2).map(|i| path[i]));
    let next = skip_ws(code, at + len);
    if name.starts_with(|c: char| c.is_ascii_uppercase()) {
        return (code[next..].starts_with('{')).then(|| name.to_string());
    }
    let end = skip_ws(code, scan(code, next + 1, |_, _| false) + 1);
    if !code[next..].starts_with('(') || !code[end..].starts_with([';', '{']) {
        return None;
    }
    let q = match q {
        Some("Self") => Some(srcs[file].own_type(at)),
        q => q.map(str::to_string),
    };
    let decls = decls_of(srcs, srcs.len(), name);
    let free = |d: &&Decl| d.owner == Owner::Free;
    let mut fits: Vec<&Decl> = match &q {
        Some(q) if q.starts_with(|c: char| c.is_ascii_uppercase()) => decls
            .iter()
            .filter(|d| d.owner == Owner::Inherent(q.clone()))
            .collect(),
        Some(q) => decls
            .iter()
            .filter(free)
            .filter(|d| srcs[d.file].stem == *q)
            .collect(),
        None => decls
            .iter()
            .filter(free)
            .filter(|d| d.file == file)
            .collect(),
    };
    if fits.is_empty()
        && !q
            .as_ref()
            .is_some_and(|q| q.starts_with(char::is_uppercase))
    {
        // A crate alias (`use kite_security as sec`) names no file.
        fits = decls.iter().filter(free).collect();
    }
    let [d] = fits[..] else {
        return None;
    };
    let sig = &srcs[d.file].code[d.at..d.body.0];
    let ret = sig.split_once("->")?.1;
    let ret = ret.split(" where").next().unwrap_or(ret).trim();
    Some(match (&d.owner, ret) {
        (Owner::Inherent(t), "Self") => t.clone(),
        _ => ret.to_string(),
    })
}

/// The type of the receiver ending at byte `dot` of file `file` (a
/// `.`), when its text says: `self`, a typed local or parameter, or a
/// chain of fields from one (`self.dp.nic`). Aliases resolve.
fn receiver_type(srcs: &[Src], file: usize, dot: usize) -> Option<String> {
    let src = &srcs[file];
    let code = &src.code[..dot];
    let mut chain = Vec::new();
    let mut end = code.len();
    loop {
        let id = ident_before(code, end);
        if id.is_empty() {
            return None;
        }
        chain.push(id);
        end -= id.len();
        if !code[..end].ends_with('.') || code[..end].ends_with("..") {
            break;
        }
        end -= 1;
    }
    if code[..end].ends_with(':') {
        return None;
    }
    let resolve = |ty: String| {
        srcs.iter()
            .flat_map(|s| &s.aliases)
            .find(|(alias, _)| *alias == ty)
            .map_or(ty, |(_, target)| target.clone())
    };
    let root = chain.pop()?;
    let mut ty = if root == "self" {
        src.own_type(dot)
    } else {
        var_type(srcs, file, root, dot)?
    };
    for field in chain.into_iter().rev() {
        let owner = resolve(ty);
        ty = srcs
            .iter()
            .flat_map(|s| &s.members)
            .find(|m| m.kind == Kind::Field && m.owner == owner && m.name == field)?
            .ty
            .clone();
    }
    Some(resolve(ty)).filter(|t| !t.is_empty())
}

/// Every construction of a variant named `name` in shipped code — a
/// mention outside every pattern — as the set of `decls` it could be
/// building.
fn constructions(srcs: &[Src], decls: &[Decl], name: &str) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for (file, src) in srcs.iter().enumerate() {
        let code = &src.code;
        for at in words(code, name) {
            let before = &code[..at];
            let declared = decls.iter().any(|d| d.file == file && d.at == at);
            if declared
                || src.in_use(at)
                || src.in_pattern(at)
                || src.passed_on(name, at)
                || before.ends_with('.')
            {
                continue;
            }
            let candidates = if before.ends_with("::") {
                let t = Owner::Inherent(src.qualifier(at));
                pick(decls, file, at, &|d: &Decl| d.owner == t)
            } else if !before.ends_with(':') {
                pick(decls, file, at, &|d: &Decl| match &d.owner {
                    Owner::Inherent(e) => src.imports(e, name),
                    _ => false,
                })
            } else {
                None
            };
            out.extend(candidates);
        }
    }
    out
}

/// Every mention of the const `name` in shipped code, as the set of
/// `decls` it could mean.
fn const_uses(srcs: &[Src], decls: &[Decl], name: &str) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for (file, src) in srcs.iter().enumerate() {
        let code = &src.code;
        for at in words(code, name) {
            let before = &code[..at];
            if before.ends_with("const ") || before.ends_with('.') || src.in_use(at) {
                continue;
            }
            let candidates = if before.ends_with("::") {
                qualified(srcs, decls, file, at, ident_before(code, at - 2))
            } else {
                let free = |d: &Decl| d.owner == Owner::Free;
                pick(decls, file, at, &|d: &Decl| free(d) && d.file == file)
                    .or_else(|| pick(decls, file, at, &free))
            };
            out.push(candidates.unwrap_or_default());
        }
    }
    out
}

/// The required decls no maximum matching of uses to decls can serve
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

/// Whether the `fn` keyword right after `before` starts a public fn:
/// `pub fn`, `pub const fn`, `pub unsafe fn` or `pub const unsafe fn`.
fn is_pub_fn(before: &str) -> bool {
    ["pub ", "pub const ", "pub unsafe ", "pub const unsafe "]
        .iter()
        .any(|p| before.ends_with(p))
}

/// The names of the public items of `kind` under `crates/*/src`.
fn names(srcs: &[Src], declaring: usize, kind: Kind) -> Vec<String> {
    let mut out = Vec::new();
    for s in &srcs[..declaring] {
        let code = &s.code;
        let kw = match kind {
            Kind::Fn => "fn",
            Kind::Const => "const",
            Kind::Field | Kind::Variant => {
                let public = s.members.iter().filter(|m| m.kind == kind && m.public);
                out.extend(public.map(|m| m.name.clone()));
                continue;
            }
        };
        let declared = words(code, kw).filter(|&at| match kind {
            Kind::Fn => is_pub_fn(&code[..at]),
            _ => code[..at].ends_with("pub "),
        });
        out.extend(declared.map(|at| ident_at(code, at + kw.len() + 1).to_string()));
    }
    // `pub const fn` is a fn, not a const.
    out.retain(|n| !n.is_empty() && n != "fn");
    out.sort();
    out.dedup();
    out
}

/// How the gate judges one required declaration.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Verdict {
    /// Shipped code uses it.
    Used,
    /// Nothing shipped uses it, and [`OBSERVED`] does not list it.
    Unused,
    /// Listed in [`OBSERVED`], and nothing shipped uses it.
    Observed,
    /// Listed in [`OBSERVED`], yet shipped code uses it.
    Stale,
}

/// One required declaration, judged.
struct Judged {
    kind: Kind,
    key: String,
    place: String,
    verdict: Verdict,
}

/// Every required declaration of `kind`, judged against `observed`.
fn audit(srcs: &[Src], declaring: usize, kind: Kind, observed: &[&str]) -> Vec<Judged> {
    let mut out = Vec::new();
    for name in names(srcs, declaring, kind) {
        let (mut decls, uses) = match kind {
            Kind::Fn => {
                let decls = decls_of(srcs, declaring, &name);
                let mut calls = call_sites(srcs, &decls, &name);
                let mut aliases: Vec<&str> = srcs.iter().flat_map(|s| s.aliases(&name)).collect();
                aliases.sort();
                aliases.dedup();
                for alias in aliases {
                    calls.extend(call_sites(srcs, &decls, alias));
                }
                (decls, calls)
            }
            Kind::Field => {
                let decls = member_decls(srcs, declaring, kind, &name);
                let reads = field_reads(srcs, &decls, &name);
                (decls, reads)
            }
            Kind::Variant => {
                let decls = member_decls(srcs, declaring, kind, &name);
                let built = constructions(srcs, &decls, &name);
                (decls, built)
            }
            Kind::Const => {
                let decls = const_decls(srcs, declaring, &name);
                let uses = const_uses(srcs, &decls, &name);
                (decls, uses)
            }
        };
        let keys: Vec<String> = decls
            .iter()
            .map(|d| match &d.owner {
                Owner::Inherent(t) | Owner::Dispatch(t) => format!("{t}::{name}"),
                Owner::Free => format!("{}::{name}", srcs[d.file].stem),
            })
            .collect();
        let required: Vec<usize> = (0..decls.len()).filter(|&d| decls[d].required).collect();
        let listed = |d: usize| observed.contains(&keys[d].as_str());
        for &d in &required {
            decls[d].required = !listed(d);
        }
        let unused = unmatched(&decls, &uses);
        for d in required {
            let verdict = if listed(d) {
                // Stale if a use is left over for it once the others
                // have theirs.
                decls[d].required = true;
                let short = unmatched(&decls, &uses).len() > unused.len();
                decls[d].required = false;
                if short {
                    Verdict::Observed
                } else {
                    Verdict::Stale
                }
            } else if unused.contains(&d) {
                Verdict::Unused
            } else {
                Verdict::Used
            };
            let src = &srcs[decls[d].file];
            let line = src.code[..decls[d].at].lines().count();
            out.push(Judged {
                kind,
                key: keys[d].clone(),
                place: format!("{}:{line}", src.rel),
                verdict,
            });
        }
    }
    out
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
            let text = fs::read_to_string(path).expect("source file reads");
            Src::new(rel.display().to_string(), krate, stem.into_owned(), &text)
        })
        .collect();
    (srcs, declaring)
}

fn observed_keys() -> Vec<&'static str> {
    OBSERVED.iter().map(|&(key, _)| key).collect()
}

/// Fails, naming each one, if the workspace declares an item of `kind`
/// that shipped code never uses.
fn assert_all_used(kind: Kind, fix: &str) {
    let (srcs, declaring) = corpus(Path::new(env!("CARGO_MANIFEST_DIR")));
    let unused: Vec<String> = audit(&srcs, declaring, kind, &observed_keys())
        .into_iter()
        .filter(|j| j.verdict == Verdict::Unused)
        .map(|j| format!("{}: {} {}", j.place, j.kind.label(), j.key))
        .collect();
    assert!(
        unused.is_empty(),
        "{}s shipped code does not {fix} (delete them, or list them in \
         OBSERVED with a reason):\n{}",
        kind.label(),
        unused.join("\n")
    );
}

#[test]
fn every_pub_fn_is_named_by_shipped_code() {
    assert_all_used(Kind::Fn, "call");
}

#[test]
fn every_pub_field_is_read_by_shipped_code() {
    assert_all_used(Kind::Field, "read");
}

#[test]
fn every_variant_of_a_pub_enum_is_constructed_by_shipped_code() {
    assert_all_used(Kind::Variant, "construct");
}

#[test]
fn every_pub_const_is_used_by_shipped_code() {
    assert_all_used(Kind::Const, "use");
}

#[test]
fn every_observed_entry_names_one_unused_declaration() {
    let (srcs, declaring) = corpus(Path::new(env!("CARGO_MANIFEST_DIR")));
    let keys = observed_keys();
    let judged: Vec<Judged> = [Kind::Fn, Kind::Field, Kind::Variant, Kind::Const]
        .into_iter()
        .flat_map(|kind| audit(&srcs, declaring, kind, &keys))
        .collect();
    let mut wrong = Vec::new();
    for key in keys {
        let named: Vec<&Judged> = judged.iter().filter(|j| j.key == key).collect();
        match named[..] {
            [j] if j.verdict == Verdict::Observed => {}
            [j] => wrong.push(format!(
                "{key}: {} {} has a shipped use; drop the entry",
                j.kind.label(),
                j.place
            )),
            _ => wrong.push(format!(
                "{key}: names {} required declarations, not one",
                named.len()
            )),
        }
    }
    assert!(
        wrong.is_empty(),
        "stale OBSERVED entries:\n{}",
        wrong.join("\n")
    );
}

/// A one-crate corpus of `(module, code)` files, each its own module.
fn corpus_of(files: &[(&str, &str)]) -> Vec<Src> {
    files
        .iter()
        .map(|&(stem, code)| Src::new(stem.into(), "k".into(), stem.into(), code))
        .collect()
}

/// The keys `audit` judges unused, the rest observed or used.
fn unused(srcs: &[Src], kind: Kind, observed: &[&str]) -> Vec<String> {
    audit(srcs, srcs.len(), kind, observed)
        .into_iter()
        .filter(|j| j.verdict == Verdict::Unused)
        .map(|j| j.key)
        .collect()
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

#[test]
fn dot_reads_struct_patterns_and_shorthand_read_a_field() {
    let srcs = corpus_of(&[
        (
            "report",
            "pub struct Report { pub a: u64, pub b: u64, pub c: u64, pub d: u64 }\n\
             pub struct Other { pub a: u64 }",
        ),
        (
            "render",
            "fn show(r: &Report, o: Other) -> u64 {\n \
             let Report { b, c: seen, .. } = r;\n \
             match o { Other { a } => a + r.a + b + seen }\n}",
        ),
    ]);
    // `r.a` reads one `a`, the `Other { a }` shorthand the other; `b`
    // and `c` are bound by the `let` pattern. Nothing reads `d`.
    assert_eq!(unused(&srcs, Kind::Field, &[]), ["Report::d"]);
}

#[test]
fn a_field_only_written_in_a_literal_is_unread() {
    let srcs = corpus_of(&[
        ("report", "pub struct Report { pub echo: u64, pub n: u64 }"),
        (
            "run",
            "fn run(echo: u64) -> u64 {\n let mut r = Report { echo, n: 1 };\n \
             r.echo = 2;\n r.n\n}",
        ),
    ]);
    // The shorthand `echo` and `r.echo = 2` both write it.
    assert_eq!(unused(&srcs, Kind::Field, &[]), ["Report::echo"]);
}

#[test]
fn a_field_only_bumped_by_a_compound_assignment_is_unread() {
    let srcs = corpus_of(&[
        (
            "stats",
            "pub struct Stats { pub hits: u64, pub mask: u64, pub seen: u64 }",
        ),
        (
            "run",
            "fn run(s: &mut Stats) -> bool {\n s.hits += 1;\n s.mask |= 4;\n s.seen <<= 1;\n \
             s.seen <= s.mask\n}",
        ),
    ]);
    // `+=` counts nothing read; `s.mask` and `s.seen` are compared.
    assert_eq!(unused(&srcs, Kind::Field, &[]), ["Stats::hits"]);
}

#[test]
fn match_arms_and_cfg_test_code_construct_no_variant() {
    let srcs = corpus_of(&[
        (
            "io",
            "pub enum IoKind { Read, Write, Flush, Trim }\n\
             pub fn cost(k: IoKind) -> u64 {\n match k {\n IoKind::Read | IoKind::Flush => 1,\n \
             IoKind::Trim if true => 2,\n _ => 3,\n }\n}\n\
             pub fn trimmed(k: &IoKind) -> bool { matches!(k, IoKind::Trim) }\n\
             pub fn copy(k: &IoKind) -> IoKind { match k { IoKind::Flush => IoKind::Flush, _ => IoKind::Read } }",
        ),
        (
            "run",
            "pub fn run() -> u64 { cost(IoKind::Read) + cost(IoKind::Write) }\n\
             #[cfg(test)]\nmod tests {\n fn t() { super::cost(IoKind::Flush); }\n}",
        ),
    ]);
    // `Flush` and `Trim` appear only in patterns, a test module and an
    // arm that passes a matched `Flush` on.
    assert_eq!(
        unused(&srcs, Kind::Variant, &[]),
        ["IoKind::Flush", "IoKind::Trim"]
    );
}

#[test]
fn const_and_unsafe_fns_are_fns() {
    let srcs = corpus_of(&[
        (
            "time",
            "impl Nanos {\n pub const fn from_micros(us: u64) -> Nanos { Nanos(us) }\n \
             pub const fn zero() -> Nanos { Nanos(0) }\n \
             pub unsafe fn raw(p: *const u8) -> u8 { *p }\n \
             pub const MAX: u64 = 1;\n}",
        ),
        ("run", "fn run() -> Nanos { Nanos::from_micros(1) }"),
    ]);
    // Each needs a call like any `pub fn`; none of them is a const.
    assert_eq!(unused(&srcs, Kind::Fn, &[]), ["Nanos::raw", "Nanos::zero"]);
    assert_eq!(unused(&srcs, Kind::Const, &[]), ["Nanos::MAX"]);
}

#[test]
fn an_observed_key_exempts_only_the_declaration_it_names() {
    let srcs = corpus_of(&[
        (
            "tracer",
            "impl Tracer {\n pub fn enabled(cap: usize) -> Tracer { Tracer }\n}",
        ),
        (
            "reqtrace",
            "impl ReqTracer {\n pub fn enabled(cap: usize) -> ReqTracer { ReqTracer }\n}\n\
             pub const CAP: usize = 8;",
        ),
    ]);
    assert_eq!(
        unused(&srcs, Kind::Fn, &["Tracer::enabled"]),
        ["ReqTracer::enabled"]
    );
    assert_eq!(unused(&srcs, Kind::Const, &[]), ["reqtrace::CAP"]);
    let verdicts: Vec<Verdict> = audit(&srcs, srcs.len(), Kind::Fn, &["Tracer::enabled"])
        .into_iter()
        .map(|j| j.verdict)
        .collect();
    assert_eq!(verdicts, [Verdict::Observed, Verdict::Unused]);
}
