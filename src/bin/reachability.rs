//! The reachability gate: every `pub` item a crate under `crates/*/src`
//! declares must be used by code that ships (another crate's non-test
//! code, the `kite` facade, an example, `benchmark/src`), or be listed
//! with a reason in the observed list.
//!
//! ```text
//! reachability <workspace-root> <observed-list>
//! ```
//!
//! The compiler decides, on a copy of the tree under
//! `<workspace-root>/target/reachability/`:
//!
//! 1. every `pub` fn, field, const, static and type declared before a
//!    file's first `#[cfg(test)]` under `crates/*/src` becomes
//!    `pub(crate)`, each `pub use` one `pub(crate) use` per name, and
//!    every variant of a `pub enum` gets `#[non_exhaustive]`, which no
//!    other crate can construct through. Three rewrites undo what
//!    rustc's liveness forgives: an assignment to a field (`s.f += 1`)
//!    becomes a borrow of its base, a struct loses its derived
//!    `PartialEq`, `Eq`, `PartialOrd`, `Ord` and `Hash`, and an inherent
//!    `min`, `max` or `clamp` is renamed, so a call the type's `Ord`
//!    serves needs nothing of it;
//! 2. `cargo check --offline --keep-going --message-format=json` runs
//!    over the workspace (`--lib --bins --examples`) and `benchmark/`;
//! 3. wherever an error points, the line is restored, and 2 repeats
//!    until both build;
//! 4. rustc's `never read`, `never used` and `never constructed`
//!    warnings are the findings, and two rules finish them:
//!    * a field another crate builds in a literal or pattern (E0451) is
//!      a finding unless its own crate reads it (no `never read` once it
//!      is private again) or another crate does (E0616, or a `.field`
//!      use once it is `#[deprecated]`);
//!    * a variant of an enum that must stay `pub` is a finding if no
//!      other crate names it (E0603, E0639) and rustc says `never
//!      constructed` when its crate alone is checked with the enum
//!      `pub(crate)` and every fn, const and static an
//!      `#[allow(dead_code)]` root.
//!
//! It prints `<verdict> <class> <key> <file>:<line>` per finding (verdict
//! `unused`, or `observed` if the list names its key) and `stale` per
//! list entry that names none, and its rounds and wall time on stderr;
//! it exits 1 on an `unused` or `stale` line. A key is `Type::name` for a
//! member and `file::name` for a free item (`lib.rs` and `mod.rs` go by
//! their crate's or module's name); a list line is a key and its reason.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Component, Path, PathBuf};
use std::process::{Command, ExitCode};
use std::{fs, time::Instant};

/// A file under the tree and a 1-based line.
type Loc = (String, usize);
/// A file, line and column rustc points at.
type Span = (String, usize, usize);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [root, observed] = &args[..] else {
        eprintln!("usage: reachability <workspace-root> <observed-list>");
        return ExitCode::from(2);
    };
    let root = fs::canonicalize(root).map_err(|e| format!("{root}: {e}"));
    match root.and_then(|root| run(&root, Path::new(observed))) {
        Ok(clean) => ExitCode::from(u8::from(!clean)),
        Err(e) => {
            eprintln!("reachability: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(root: &Path, observed: &Path) -> Result<bool, String> {
    let started = Instant::now();
    let list = fs::read_to_string(observed).map_err(|e| format!("{}: {e}", observed.display()))?;
    let mut entries = Vec::new();
    for line in list.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.split_once(' ') {
            Some((key, reason)) if !reason.trim().is_empty() => entries.push(key),
            _ => return Err(format!("observed entry `{line}` states no reason")),
        }
    }
    let mut probe = Probe::new(root)?;
    let findings = probe.findings()?;
    let secs = started.elapsed().as_secs_f64();
    eprintln!("reachability: {} rounds, {secs:.1} s", probe.rounds);
    let mut clean = true;
    for (class, key, (file, line)) in &findings {
        let listed = entries.contains(&key.as_str());
        clean &= listed;
        let verdict = if listed { "observed" } else { "unused" };
        println!("{verdict:8} {class:11} {key} {file}:{line}");
    }
    for key in entries
        .iter()
        .filter(|k| !findings.iter().any(|f| f.1 == **k))
    {
        clean = false;
        println!("{:8} {:11} {key} -", "stale", "-");
    }
    Ok(clean)
}

/// Writes `text` to `path` unless it already holds it, so that a warm
/// run's cargo fingerprints hold.
fn write(path: &Path, text: &[u8]) -> Result<(), String> {
    if fs::read(path).is_ok_and(|old| old == text) {
        return Ok(());
    }
    let dir = path.parent().unwrap_or(path);
    let written = fs::create_dir_all(dir).and_then(|()| fs::write(path, text));
    written.map_err(|e| format!("{}: {e}", path.display()))
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
    {
        if path.is_dir() {
            walk(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// What a rewritten line holds.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Item,
    Field,
    Variant,
    EnumHead,
    /// An assignment to a field, made a borrow of its base.
    Write,
    /// A struct's `#[derive(..)]` without the traits that read fields.
    Derive,
}

/// One line the probe rewrote, and what it declares.
struct Site {
    kind: Kind,
    owner: String,
    name: String,
    probed: String,
}

/// One name a `pub use` re-exports, split onto its statement's first
/// line as its own `use`, at columns `cols` there.
struct Reexport {
    loc: Loc,
    cols: (usize, usize),
    text: String,
}

/// A split re-export's hidden visibility; a published one is `pub`
/// padded to the same width, so columns hold.
const HIDDEN: &str = "pub(crate)";

/// The errors that mean an item is less visible than a use needs; a
/// rewritten statement is never their cause.
const PRIVACY: [&str; 8] = [
    "E0364", "E0365", "E0451", "E0603", "E0616", "E0624", "E0638", "E0639",
];

struct Diag {
    error: bool,
    code: String,
    message: String,
    /// Everything it or its notes point at, macro definitions included.
    spans: Vec<Span>,
    primary: Vec<Span>,
    rendered: String,
}

struct Probe {
    tree: PathBuf,
    target: PathBuf,
    /// Each crate's directory (`crates/x`) and package name.
    packages: Vec<(String, String)>,
    /// The lines of every file under `crates/*/src`, as shipped and as
    /// the probe has them now.
    original: BTreeMap<String, Vec<String>>,
    current: BTreeMap<String, Vec<String>>,
    sites: BTreeMap<Loc, Site>,
    reexports: Vec<Reexport>,
    published: BTreeSet<usize>,
    rounds: usize,
    /// Fields another crate builds in a literal or pattern (E0451), and
    /// fields something reads.
    built: BTreeSet<Loc>,
    read: BTreeSet<Loc>,
}

impl Probe {
    /// Copies the files git would commit under `root` into the scratch
    /// tree and rewrites them (step 1).
    fn new(root: &Path) -> Result<Probe, String> {
        let scratch = root.join("target/reachability");
        let tree = scratch.join("tree");
        let mut git = Command::new("git");
        let files = [
            "ls-files",
            "-z",
            "--cached",
            "--others",
            "--exclude-standard",
        ];
        let out = git.arg("-C").arg(root).args(files).output();
        let mut listed: BTreeSet<PathBuf> = match out {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
                .split('\0')
                .filter(|p| root.join(p).is_file())
                .map(PathBuf::from)
                .collect(),
            _ => BTreeSet::new(),
        };
        // An exported tree has no index: take every file outside `target/`.
        if listed.is_empty() {
            let mut all = Vec::new();
            walk(root, &mut all);
            let outside = |p: &Path| !p.starts_with("target") && !p.starts_with(".git");
            let rel = all.iter().filter_map(|p| p.strip_prefix(root).ok());
            listed = rel.filter(|p| outside(p)).map(Path::to_path_buf).collect();
        }
        for rel in &listed {
            let text = fs::read(root.join(rel)).map_err(|e| format!("{}: {e}", rel.display()))?;
            write(&tree.join(rel), &text)?;
        }
        let mut stale = Vec::new();
        walk(&tree, &mut stale);
        for path in stale {
            let rel = path.strip_prefix(&tree).unwrap_or(&path);
            if !listed.contains(rel) && !rel.ends_with("Cargo.lock") {
                fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
        let mut probe = Probe {
            target: scratch.join("target"),
            packages: Vec::new(),
            original: BTreeMap::new(),
            current: BTreeMap::new(),
            sites: BTreeMap::new(),
            reexports: Vec::new(),
            published: BTreeSet::new(),
            rounds: 0,
            built: BTreeSet::new(),
            read: BTreeSet::new(),
            tree,
        };
        let mut files = Vec::new();
        walk(&probe.tree.join("crates"), &mut files);
        files.sort();
        for path in files {
            let file = probe.rel(&path.to_string_lossy(), "");
            let text = fs::read_to_string(&path).map_err(|e| format!("{file}: {e}"))?;
            if file.ends_with("/Cargo.toml") {
                let name = text
                    .lines()
                    .find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'));
                let dir = file.trim_end_matches("/Cargo.toml").to_string();
                probe.packages.extend(name.map(|n| (dir, n.to_string())));
            } else if file.contains("/src/") && file.ends_with(".rs") {
                let lines: Vec<String> = text.split('\n').map(String::from).collect();
                probe.original.insert(file.clone(), lines.clone());
                probe.demote(&file, &lines);
            }
        }
        Ok(probe)
    }

    fn demote(&mut self, file: &str, lines: &[String]) {
        let mut out = lines.to_vec();
        // The `pub enum` being read and the brace depth inside it.
        let mut in_enum: Option<(String, i32)> = None;
        let mut use_end = 0;
        for (i, line) in lines.iter().enumerate() {
            let t = line.trim_start();
            let indent = &line[..line.len() - t.len()];
            let loc = (file.to_string(), i + 1);
            let mut site = |kind, owner: &str, name: &str, probed: String| {
                let (owner, name) = (owner.to_string(), name.to_string());
                out[i].clone_from(&probed);
                self.sites.insert(
                    loc.clone(),
                    Site {
                        kind,
                        owner,
                        name,
                        probed,
                    },
                );
            };
            if t == "#[cfg(test)]" {
                break;
            } else if i < use_end {
                out[i].clear();
            } else if let Some((owner, depth)) = &mut in_enum {
                if *depth == 1 && t.starts_with(|c: char| c.is_ascii_uppercase()) {
                    site(
                        Kind::Variant,
                        owner,
                        &ident(t),
                        format!("{indent}#[non_exhaustive] {t}"),
                    );
                }
                *depth += braces(t);
                if *depth <= 0 && t.contains('}') {
                    in_enum = None;
                }
            } else if let Some(body) = t.strip_prefix("pub use ") {
                use_end = (i..lines.len())
                    .find(|&j| lines[j].contains(';'))
                    .map_or(i, |j| j + 1);
                let rest: Vec<&str> = lines[i + 1..use_end].iter().map(|l| l.trim()).collect();
                self.split_reexport(&loc, indent, &format!("{body} {}", rest.join(" ")));
                out[i] = self.reexport_line(&loc);
            } else if let Some(rest) = t.strip_prefix("pub ") {
                let field = ident(rest);
                let after = rest[field.len()..].trim_start();
                let (kind, name) = match keyword(rest) {
                    Some(("enum", after)) => (Kind::EnumHead, ident(after)),
                    Some((_, after)) => (Kind::Item, ident(after)),
                    None if after.starts_with(':') && !after.starts_with("::") => {
                        (Kind::Field, field)
                    }
                    None => continue,
                };
                let mut probed = format!("{indent}pub(crate) {rest}");
                if !indent.is_empty() && ["min", "max", "clamp"].contains(&name.as_str()) {
                    probed =
                        probed.replacen(&format!("fn {name}"), &format!("fn {name}_shadowed"), 1);
                }
                site(kind, &owner_of(file, lines, i), &name, probed);
                // A one-line enum has no variant lines to mark.
                if kind == Kind::EnumHead && (braces(t) > 0 || !t.contains(['{', ';'])) {
                    in_enum = Some((name, braces(t)));
                }
            } else if let Some((derive, ty)) = underived(lines, i) {
                site(Kind::Derive, "", &ty, format!("{indent}{derive}"));
            } else if let Some(borrow) = unwritten(t) {
                site(Kind::Write, "", "", format!("{indent}{borrow}"));
            }
        }
        self.current.insert(file.to_string(), out);
    }

    /// Splits `p::{A, B as C};` (a `pub use`'s body) into one `use` per
    /// name, all hidden until another crate needs one.
    fn split_reexport(&mut self, loc: &Loc, indent: &str, body: &str) {
        let body = body.trim().trim_end_matches(';').trim();
        let (prefix, list) = body.split_once('{').unwrap_or(("", body));
        let mut col = indent.chars().count() + 1;
        for item in list
            .trim_end_matches('}')
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
        {
            let text = format!("use {prefix}{item};");
            let end = col + HIDDEN.len() + 1 + text.len();
            self.reexports.push(Reexport {
                loc: loc.clone(),
                cols: (col, end),
                text,
            });
            col = end + 1;
        }
    }

    fn reexport_line(&self, loc: &Loc) -> String {
        let line = &self.original[&loc.0][loc.1 - 1];
        let mut out = line[..line.len() - line.trim_start().len()].to_string();
        for (r, re) in self
            .reexports
            .iter()
            .enumerate()
            .filter(|(_, re)| &re.loc == loc)
        {
            let vis = if self.published.contains(&r) {
                "pub"
            } else {
                HIDDEN
            };
            out += &format!("{vis:<w$} {} ", re.text, w = HIDDEN.len());
        }
        out.trim_end().to_string()
    }

    /// Publishes (or hides) re-export `r`; false if it already was.
    fn publish(&mut self, r: usize, public: bool) -> bool {
        let changed = if public {
            self.published.insert(r)
        } else {
            self.published.remove(&r)
        };
        let loc = self.reexports[r].loc.clone();
        let text = self.reexport_line(&loc);
        self.set(&loc, text);
        changed
    }

    /// The split re-export `span` points into, if any.
    fn reexport_at(&self, (file, line, col): &Span) -> Option<usize> {
        let at = |re: &Reexport| re.loc.0 == *file && re.loc.1 == *line;
        self.reexports
            .iter()
            .position(|re| at(re) && (re.cols.0..re.cols.1).contains(col))
    }

    fn set(&mut self, (file, line): &Loc, text: String) -> bool {
        let old = &mut self.current.get_mut(file).expect("a probed file")[line - 1];
        let changed = *old != text;
        *old = text;
        changed
    }

    fn restore(&mut self, loc: &Loc) -> bool {
        self.set(loc, self.original[&loc.0][loc.1 - 1].clone())
    }

    fn is_probed(&self, loc: &Loc) -> bool {
        self.sites
            .get(loc)
            .is_some_and(|s| self.current[&loc.0][loc.1 - 1] == s.probed)
    }

    fn find(&self, pred: impl Fn(&Site) -> bool) -> Vec<Loc> {
        self.sites
            .iter()
            .filter(|(_, s)| pred(s))
            .map(|(loc, _)| loc.clone())
            .collect()
    }

    /// The line `span` points at, from its column on.
    fn text_at(&self, (file, line, col): &Span) -> String {
        let text = match self.current.get(file) {
            Some(lines) => lines.get(line - 1).cloned(),
            None => fs::read_to_string(self.tree.join(file))
                .ok()
                .and_then(|t| t.lines().nth(line - 1).map(String::from)),
        };
        text.unwrap_or_default().chars().skip(col - 1).collect()
    }

    /// Steps 2–4: the findings as class, key and declaration.
    fn findings(&mut self) -> Result<Vec<(&'static str, String, Loc)>, String> {
        let warnings = loop {
            let diags = self.check_all()?;
            let errors: Vec<&Diag> = diags.iter().filter(|d| d.error).collect();
            if errors.is_empty() {
                break diags;
            }
            let mut progress = false;
            for d in &errors {
                progress |= self.resolve(d);
            }
            if !progress {
                let shown: Vec<&str> = errors.iter().map(|d| d.rendered.as_str()).collect();
                return Err(format!(
                    "no declaration to restore for:\n{}",
                    shown.join("\n")
                ));
            }
        };
        self.check_built()?;
        let mut found = BTreeMap::new();
        for d in warnings.iter().filter(|d| d.code == "dead_code") {
            for (file, line, _) in &d.primary {
                let loc = (file.clone(), *line);
                let class = match self.sites.get(&loc).map(|s| s.kind) {
                    _ if d.message.contains("never read") => "field",
                    Some(Kind::Variant) => "variant",
                    _ => match self.original.get(file).and_then(|l| keyword(&l[line - 1])) {
                        Some(("fn", _)) => "fn",
                        Some(("const" | "static", _)) => "const",
                        _ => "type",
                    },
                };
                found.insert(loc, class);
            }
        }
        for loc in self.built.difference(&self.read) {
            found.insert(loc.clone(), "field-built");
        }
        for loc in self.unbuilt_variants()? {
            found.insert(loc, "variant");
        }
        let shipped = |(file, _): &Loc| file.starts_with("crates/") && file.contains("/src/");
        let keyed = found
            .into_iter()
            .filter(|(loc, _)| shipped(loc))
            .map(|(loc, class)| {
                let key = match self.sites.get(&loc) {
                    Some(s) => format!("{}::{}", s.owner, s.name),
                    // A private item, dead with what alone used it.
                    None => {
                        let lines = &self.original[&loc.0];
                        let t = lines[loc.1 - 1].trim_start();
                        let t = t.strip_prefix("pub(crate) ").unwrap_or(t);
                        let name = keyword(t).map_or(ident(t), |(_, rest)| ident(rest));
                        format!("{}::{name}", owner_of(&loc.0, lines, loc.1 - 1))
                    }
                };
                (class, key, loc)
            });
        Ok(keyed.collect())
    }

    /// Restores whatever `d` points at; false if that changes nothing.
    fn resolve(&mut self, d: &Diag) -> bool {
        let mut progress = false;
        let mut pointed = false;
        // A re-export of a private item is the item's to fix.
        if !matches!(d.code.as_str(), "E0364" | "E0365") {
            let at: Vec<usize> = d
                .spans
                .iter()
                .filter_map(|span| self.reexport_at(span))
                .collect();
            for r in at {
                progress |= self.publish(r, true);
                pointed = true;
            }
        }
        // A site an earlier copy of this error restored still counts.
        let spans = d.spans.iter().map(|s| (s.0.clone(), s.1));
        let mut hit: Vec<Loc> = spans.filter(|l| self.sites.contains_key(l)).collect();
        let named = backticked(&d.message);
        // The last segment of `kite_x::m::Name<T>`.
        let names: Vec<&str> = named.iter().map(|n| last_segment(n)).collect();
        if let "E0616" | "E0451" = d.code.as_str() {
            // field(s) `a`, `b` of struct `S` are private: no declaration span.
            if let Some((owner, fields)) = names.split_last() {
                let of = |s: &Site| s.kind == Kind::Field && s.owner == *owner;
                hit = self.find(|s| of(s) && fields.contains(&s.name.as_str()));
            }
        } else if let ("E0639" | "E0638", true) = (d.code.as_str(), hit.is_empty()) {
            // a struct expression or pattern `Enum::Variant { .. }`
            for span in &d.primary {
                let text = self.text_at(span);
                let path: Vec<&str> = text
                    .split('{')
                    .next()
                    .unwrap_or("")
                    .trim()
                    .split("::")
                    .collect();
                let (name, enum_) = (
                    path[path.len() - 1],
                    path.len().checked_sub(2).map(|i| path[i]),
                );
                let of = |s: &Site| s.kind == Kind::Variant && s.name == name;
                hit.extend(
                    self.find(|s| of(s) && enum_.is_none_or(|e| e == s.owner || e == "Self")),
                );
            }
        } else if hit.is_empty() && !pointed {
            let declared = [Kind::Item, Kind::EnumHead, Kind::Field];
            hit = self.find(|s| declared.contains(&s.kind) && names.contains(&s.name.as_str()));
            // no method named `min` found for struct `Nanos`
            let owned = |l: &Loc| names.contains(&self.sites[l].owner.as_str());
            if hit.iter().any(owned) {
                hit.retain(owned);
            }
            for r in 0..self.reexports.len() {
                let text = self.reexports[r].text.trim_end_matches(';');
                if names.contains(&text.rsplit([':', ' ']).next().unwrap_or(text)) {
                    progress |= self.publish(r, true);
                }
            }
        }
        if PRIVACY.contains(&d.code.as_str()) {
            hit.retain(|l| !matches!(self.sites[l].kind, Kind::Write | Kind::Derive));
        }
        // A comparison or hash of a struct needs the derives it lost.
        if ["PartialEq", "PartialOrd", "Ord", "Hash"]
            .iter()
            .any(|t| d.rendered.contains(t))
        {
            let mut structs: Vec<String> = named.iter().map(|n| ident(last_segment(n))).collect();
            for (file, line, _) in &d.spans {
                let decl = self
                    .original
                    .get(file)
                    .and_then(|l| keyword(l.get(line - 1)?));
                if let Some(("struct", rest)) = decl {
                    structs.push(ident(rest));
                }
            }
            hit.extend(self.find(|s| s.kind == Kind::Derive && structs.contains(&s.name)));
        }
        for loc in hit {
            if self.sites[&loc].kind == Kind::Field {
                match d.code.as_str() {
                    "E0616" => self.read.insert(loc.clone()),
                    "E0451" => self.built.insert(loc.clone()),
                    _ => false,
                };
            }
            progress |= self.restore(&loc);
        }
        progress
    }

    /// The E0451 rule, in two more rounds: a built field is read if its
    /// own crate reads it once it is private again, or if any crate has a
    /// `.field` use of it once it is `#[deprecated]`.
    fn check_built(&mut self) -> Result<(), String> {
        let mut built: Vec<Loc> = self.built.difference(&self.read).cloned().collect();
        if built.is_empty() {
            return Ok(());
        }
        for loc in &built {
            self.set(loc, self.sites[loc].probed.clone());
        }
        // Its own crate builds; the crates that build it fail meanwhile.
        let diags = self.check_all()?;
        let unread: Vec<Loc> = primaries(&diags, |d| d.message.contains("never read"));
        for loc in &built {
            self.restore(loc);
            if !unread.contains(loc) {
                self.read.insert(loc.clone());
            }
        }
        built.retain(|l| unread.contains(l));
        for loc in &built {
            let line = &self.original[&loc.0][loc.1 - 1];
            let t = line.trim_start();
            self.set(
                loc,
                format!("{}#[deprecated] {t}", &line[..line.len() - t.len()]),
            );
        }
        for d in self.check_all()?.iter().filter(|d| d.code == "deprecated") {
            let (Some(name), Some(span)) = (backticked(&d.message).pop(), d.primary.first()) else {
                continue;
            };
            let mut path = name.rsplit("::");
            let (field, owner) = (path.next().unwrap_or(""), path.next().unwrap_or(""));
            // `x.field` reads; a literal's or pattern's `field: ..` does not.
            if self
                .text_at(span)
                .strip_prefix(field)
                .is_some_and(|rest| !rest.starts_with('.'))
            {
                continue;
            }
            let of = |l: &&Loc| self.sites[*l].name == field && self.sites[*l].owner == owner;
            self.read.extend(built.iter().filter(of).cloned());
        }
        for loc in &built {
            self.restore(loc);
        }
        Ok(())
    }

    /// The variant rule's second half: each crate whose `pub` enums keep
    /// a variant no other crate names is checked alone, those enums
    /// `pub(crate)` and every fn, const and static a dead-code root.
    fn unbuilt_variants(&mut self) -> Result<Vec<Loc>, String> {
        let mut out = Vec::new();
        for (dir, package) in self.packages.clone() {
            let prefix = format!("{dir}/");
            let variants = |p: &Probe, head: &Loc| -> Vec<Loc> {
                let enum_ = &p.sites[head].name;
                let of = |(l, s): &(&Loc, &Site)| {
                    l.0 == head.0 && s.kind == Kind::Variant && s.owner == *enum_
                };
                p.sites
                    .range(head.clone()..)
                    .skip(1)
                    .take_while(of)
                    .map(|(l, _)| l.clone())
                    .collect()
            };
            let mut heads = self.find(|s| s.kind == Kind::EnumHead);
            heads.retain(|h| h.0.starts_with(&prefix) && !self.is_probed(h));
            heads.retain(|h| variants(self, h).iter().any(|v| self.is_probed(v)));
            if heads.is_empty() {
                continue;
            }
            let (saved, published) = (self.current.clone(), self.published.clone());
            for head in &heads {
                self.set(head, self.sites[head].probed.clone());
            }
            for (_, lines) in self
                .current
                .iter_mut()
                .filter(|(f, _)| f.starts_with(&prefix))
            {
                for line in lines.iter_mut().take_while(|l| l.trim() != "#[cfg(test)]") {
                    if let Some(("fn" | "const" | "static", _)) = keyword(line) {
                        let t = line.trim_start();
                        *line = format!("{}#[allow(dead_code)] {t}", &line[..line.len() - t.len()]);
                    }
                }
            }
            let warnings = loop {
                let diags = self.check(&["-p", &package, "--lib"], "")?;
                let Some(d) = diags.iter().find(|d| d.error) else {
                    break diags;
                };
                // A re-export of a judged enum goes private with it; an
                // enum the crate cannot hide is not judged.
                let mut progress = false;
                for span in &d.spans {
                    if let Some(r) = self.reexport_at(span) {
                        progress |= self.publish(r, false);
                    }
                    let loc = (span.0.clone(), span.1);
                    if let Some(i) = heads.iter().position(|h| *h == loc) {
                        self.set(&loc, saved[&loc.0][loc.1 - 1].clone());
                        heads.remove(i);
                        progress = true;
                    }
                }
                if !progress {
                    return Err(format!("{package} alone does not build:\n{}", d.rendered));
                }
            };
            let unbuilt = primaries(&warnings, |d| d.code == "dead_code");
            for head in &heads {
                for v in variants(self, head) {
                    let probed = saved[&v.0][v.1 - 1] == self.sites[&v].probed;
                    if probed && (unbuilt.contains(head) || unbuilt.contains(&v)) {
                        out.push(v);
                    }
                }
            }
            (self.current, self.published) = (saved, published);
        }
        Ok(out)
    }

    /// One round: the workspace and, once that builds, `benchmark/`, if
    /// there is one (it would only repeat the workspace's errors).
    fn check_all(&mut self) -> Result<Vec<Diag>, String> {
        self.rounds += 1;
        let mut diags = self.check(&["--workspace", "--lib", "--bins", "--examples"], "")?;
        if !diags.iter().any(|d| d.error) && self.tree.join("benchmark/Cargo.toml").is_file() {
            let bench = ["--manifest-path", "benchmark/Cargo.toml", "--bins"];
            diags.extend(self.check(&bench, "benchmark")?);
        }
        let mut seen = BTreeSet::new();
        diags.retain(|d| seen.insert((d.code.clone(), d.message.clone(), d.primary.clone())));
        Ok(diags)
    }

    /// Writes the current lines and runs one `cargo check`; rustc's
    /// relative paths start from `base`.
    fn check(&self, args: &[&str], base: &str) -> Result<Vec<Diag>, String> {
        for (file, lines) in &self.current {
            write(&self.tree.join(file), lines.join("\n").as_bytes())?;
        }
        let target = self
            .target
            .join(if base.is_empty() { "workspace" } else { base });
        let mut cargo = Command::new("cargo");
        let check = [
            "check",
            "--offline",
            "--keep-going",
            "--message-format=json",
        ];
        cargo
            .current_dir(&self.tree)
            .args(check)
            .args(args)
            .arg("--target-dir")
            .arg(&target);
        let out = cargo.output().map_err(|e| format!("cargo check: {e}"))?;
        let mut diags = Vec::new();
        let mut finished = false;
        for msg in String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|l| parse(l.as_bytes(), &mut 0))
        {
            finished |= msg.get("reason").str() == "build-finished";
            if msg.get("reason").str() != "compiler-message" {
                continue;
            }
            let m = msg.get("message");
            let primary = m
                .get("spans")
                .items()
                .filter(|s| *s.get("is_primary") == Json::Bool(true));
            let mut d = Diag {
                error: m.get("level").str() == "error",
                code: m.get("code").get("code").str().to_string(),
                message: m.get("message").str().to_string(),
                spans: Vec::new(),
                primary: primary.map(|s| self.span(s, base)).collect(),
                rendered: m.get("rendered").str().to_string(),
            };
            self.spans(m, base, &mut d.spans);
            diags.push(d);
        }
        if !finished {
            let stderr = String::from_utf8_lossy(&out.stderr);
            return Err(format!("cargo check {}: {stderr}", args.join(" ")));
        }
        Ok(diags)
    }

    fn spans(&self, m: &Json, base: &str, out: &mut Vec<Span>) {
        let mut stack: Vec<&Json> = m.get("spans").items().collect();
        while let Some(s) = stack.pop() {
            out.push(self.span(s, base));
            let e = s.get("expansion");
            stack.extend(
                [e.get("span"), e.get("def_site_span")]
                    .into_iter()
                    .filter(|j| **j != Json::Null),
            );
        }
        for c in m.get("children").items() {
            self.spans(c, base, out);
        }
    }

    fn span(&self, s: &Json, base: &str) -> Span {
        let file = self.rel(s.get("file_name").str(), base);
        (file, s.get("line_start").num(), s.get("column_start").num())
    }

    /// `file` (relative to `base`, or absolute) relative to the tree.
    fn rel(&self, file: &str, base: &str) -> String {
        let joined = self.tree.join(base).join(file);
        let mut parts: Vec<Component> = Vec::new();
        for c in joined.components() {
            match c {
                Component::ParentDir => drop(parts.pop()),
                Component::CurDir => {}
                c => parts.push(c),
            }
        }
        let path: PathBuf = parts.iter().collect();
        path.strip_prefix(&self.tree)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned()
    }
}

/// The declarations the primary spans of the `keep` diagnostics name.
fn primaries(diags: &[Diag], keep: impl Fn(&Diag) -> bool) -> Vec<Loc> {
    let spans = diags.iter().filter(|d| keep(d)).flat_map(|d| &d.primary);
    spans.map(|(file, line, _)| (file.clone(), *line)).collect()
}

/// `Name` of `kite_x::m::Name<T>`.
fn last_segment(path: &str) -> &str {
    let path = path.split('<').next().unwrap_or(path);
    path.rsplit("::").next().unwrap_or(path)
}

/// The leading identifier of `s`.
fn ident(s: &str) -> String {
    s.chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

/// The keyword a declaration line opens with (`fn`, `const`, `static`,
/// `struct`, `enum`, `trait`, `type`, `union`), past its visibility and
/// qualifiers, and the text after it.
fn keyword(line: &str) -> Option<(&'static str, &str)> {
    let mut t = line.trim_start();
    for prefix in [
        "pub(crate) ",
        "pub(super) ",
        "pub ",
        "const ",
        "unsafe ",
        "async ",
    ] {
        t = t.strip_prefix(prefix).unwrap_or(t);
    }
    let vis = line
        .trim_start()
        .strip_prefix("pub ")
        .unwrap_or(line.trim_start());
    let konst = vis
        .strip_prefix("const ")
        .filter(|r| !r.starts_with("fn ") && !r.starts_with("unsafe "));
    if let Some(rest) = konst {
        return Some(("const", rest));
    }
    let words = ["fn", "static", "struct", "enum", "trait", "type", "union"];
    let after = |k| {
        Some(
            t.strip_prefix(k)?
                .strip_prefix(' ')?
                .trim_start_matches("mut "),
        )
    };
    words.into_iter().find_map(|k| Some((k, after(k)?)))
}

fn braces(t: &str) -> i32 {
    let code = t.split("//").next().unwrap_or("");
    code.matches('{').count() as i32 - code.matches('}').count() as i32
}

/// The type, trait or module the declaration on line `i` sits in, or
/// its file's stem (for `lib.rs` and `mod.rs`, their directory's name).
fn owner_of(file: &str, lines: &[String], i: usize) -> String {
    let width = |l: &str| l.len() - l.trim_start().len();
    let mut indent = width(&lines[i]);
    for l in lines[..i].iter().rev().filter(|l| !l.trim().is_empty()) {
        if width(l) >= indent {
            continue;
        }
        indent = width(l);
        let t = l.trim_start();
        let t = t
            .strip_prefix("pub(crate) ")
            .or(t.strip_prefix("pub "))
            .unwrap_or(t);
        if let Some(mut rest) = t.strip_prefix("impl") {
            if rest.starts_with('<') {
                let mut depth = 0;
                let end = rest.find(|c| {
                    depth += (c == '<') as i32 - (c == '>') as i32;
                    depth == 0
                });
                rest = &rest[end.map_or(rest.len(), |e| e + 1)..];
            }
            let ty = rest
                .rsplit(" for ")
                .next()
                .unwrap_or(rest)
                .trim_start()
                .trim_start_matches('&');
            let path = ty.split(['<', ' ', '{', '(']).next().unwrap_or(ty);
            return path.rsplit("::").next().unwrap_or(path).to_string();
        }
        let kinds = ["struct ", "enum ", "trait ", "union ", "mod "];
        if let Some(rest) = kinds.iter().find_map(|k| t.strip_prefix(k)) {
            return ident(rest);
        }
    }
    let path = Path::new(file);
    let stem = path
        .file_stem()
        .map_or(String::new(), |s| s.to_string_lossy().into_owned());
    let dir = match stem.as_str() {
        "lib" | "main" => path.ancestors().nth(2),
        "mod" => path.parent(),
        _ => None,
    };
    dir.and_then(Path::file_name)
        .map_or(stem, |d| d.to_string_lossy().into_owned())
}

/// A struct's `#[derive(..)]` on line `i` without `PartialEq`, `Eq`,
/// `PartialOrd`, `Ord` and `Hash`, which read every field, and the
/// struct's name; `None` if it derives none of them.
fn underived(lines: &[String], i: usize) -> Option<(String, String)> {
    let list = lines[i]
        .trim_start()
        .strip_prefix("#[derive(")?
        .strip_suffix(")]")?;
    let reading = ["PartialEq", "Eq", "PartialOrd", "Ord", "Hash"];
    let kept: Vec<&str> = list
        .split(',')
        .map(str::trim)
        .filter(|d| !reading.contains(d))
        .collect();
    let mut next = lines[i + 1..].iter().map(|l| l.trim_start());
    let item = next.find(|l| !l.starts_with('#') && !l.starts_with("//"))?;
    match keyword(item)? {
        ("struct", rest) if kept.len() < list.split(',').count() => {
            Some((format!("#[derive({})]", kept.join(", ")), ident(rest)))
        }
        _ => None,
    }
}

/// A statement `base.f op= rhs;` (`=`, `+=`, `|=`, `<<=` …) as `let _ =
/// (&base, rhs);`: rustc counts an assignment through `&mut` as a use.
fn unwritten(t: &str) -> Option<String> {
    let body = t.strip_suffix(';')?;
    let ops = [
        "<<=", ">>=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "=",
    ];
    let (lhs, rhs) = ops
        .iter()
        .find_map(|op| body.split_once(&format!(" {op} ")))?;
    let (base, field) = lhs.rsplit_once('.')?;
    let place = !field.is_empty() && field.chars().all(|c| c.is_alphanumeric() || c == '_');
    let base_ok = base.starts_with(|c: char| c.is_ascii_lowercase());
    (place && base_ok).then(|| format!("let _ = (&{base}, {rhs});"))
}

/// The backticked parts of a rustc message, in order.
fn backticked(message: &str) -> Vec<String> {
    message
        .split('`')
        .skip(1)
        .step_by(2)
        .map(String::from)
        .collect()
}

/// Just enough JSON for cargo's messages: an array is a list whose keys
/// are empty.
#[derive(PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    List(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        let entries = if let Json::List(kv) = self {
            &kv[..]
        } else {
            &[]
        };
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map_or(&Json::Null, |(_, v)| v)
    }

    fn items(&self) -> impl Iterator<Item = &Json> {
        let entries = if let Json::List(kv) = self {
            &kv[..]
        } else {
            &[]
        };
        entries.iter().map(|(_, v)| v)
    }

    fn str(&self) -> &str {
        if let Json::Str(s) = self {
            s
        } else {
            ""
        }
    }

    fn num(&self) -> usize {
        if let Json::Num(n) = self {
            *n as usize
        } else {
            0
        }
    }
}

/// The JSON value at `b[*i..]`, moving `i` past it.
fn parse(b: &[u8], i: &mut usize) -> Option<Json> {
    while b.get(*i)?.is_ascii_whitespace() {
        *i += 1;
    }
    let open = b[*i];
    if open == b'"' {
        return string(b, i).map(Json::Str);
    }
    if open == b'[' || open == b'{' {
        *i += 1;
        let mut items = Vec::new();
        loop {
            while b.get(*i)?.is_ascii_whitespace() || b[*i] == b',' {
                *i += 1;
            }
            // `]` and `}` are two bytes after `[` and `{`.
            if b[*i] == open + 2 {
                *i += 1;
                return Some(Json::List(items));
            }
            let mut key = String::new();
            if open == b'{' {
                key = string(b, i)?;
                *i += b[*i..].iter().position(|&c| c == b':')? + 1;
            }
            items.push((key, parse(b, i)?));
        }
    }
    let len = b[*i..]
        .iter()
        .take_while(|c| c.is_ascii_alphanumeric() || b"+-.".contains(c))
        .count();
    let word = std::str::from_utf8(&b[*i..*i + len]).ok()?;
    *i += len;
    Some(match word {
        "null" => Json::Null,
        "true" => Json::Bool(true),
        "false" => Json::Bool(false),
        n => Json::Num(n.parse().ok()?),
    })
}

/// The JSON string at `b[*i..]` (at its opening quote), moving `i` past it.
fn string(b: &[u8], i: &mut usize) -> Option<String> {
    let mut out = Vec::new();
    *i += 1;
    loop {
        let c = *b.get(*i)?;
        *i += 1;
        match c {
            b'"' => return String::from_utf8(out).ok(),
            b'\\' => {
                let e = *b.get(*i)?;
                *i += 1;
                let c = match e {
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'u' => {
                        let hex = std::str::from_utf8(b.get(*i..*i + 4)?).ok()?;
                        *i += 4;
                        char::from_u32(u32::from_str_radix(hex, 16).ok()?).unwrap_or('\u{fffd}')
                    }
                    e => char::from(e),
                };
                out.extend(c.to_string().bytes());
            }
            c => out.push(c),
        }
    }
}
