//! The reachability gate's rules, pinned on a fixture: the gate
//! (`src/bin/reachability.rs`) runs over the two-crate workspace under
//! `tests/fixtures/reach/`, whose `alpha` declares one item of each
//! finding class next to one used item of each kind, and whose `beta`
//! binary is the shipped code that uses them. `scripts/verify.sh` runs
//! the same gate over this workspace and `cmp`s the fixture's full
//! report with `tests/fixtures/reach/expected.txt`.

use std::process::Command;
use std::sync::OnceLock;

/// The gate's report on the fixture, one line per finding or stale entry.
fn report() -> &'static str {
    static REPORT: OnceLock<String> = OnceLock::new();
    REPORT.get_or_init(|| {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/reach");
        let out = Command::new(env!("CARGO_BIN_EXE_reachability"))
            .args([root, &format!("{root}/observed.txt")])
            .output()
            .expect("the gate runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "findings fail the gate: {stderr}"
        );
        String::from_utf8(out.stdout).expect("the report is UTF-8")
    })
}

/// The verdict and class the report gives `key`; `None` if it is used.
fn verdict(key: &str) -> Option<(&'static str, &'static str)> {
    report().lines().find_map(|line| {
        let mut words = line.split_whitespace();
        let (verdict, class) = (words.next()?, words.next()?);
        (words.next()? == key).then_some((verdict, class))
    })
}

#[test]
fn an_uncalled_pub_fn_is_a_finding() {
    assert_eq!(verdict("alpha::tested_only"), Some(("unused", "fn")));
    assert_eq!(verdict("Mode::describe"), None);
}

#[test]
fn an_unread_pub_field_is_a_finding() {
    assert_eq!(verdict("Counter::bumps"), Some(("unused", "field")));
    assert_eq!(verdict("Counter::total"), None);
}

#[test]
fn an_unbuilt_variant_of_a_pub_enum_is_a_finding() {
    assert_eq!(verdict("Mode::Slow"), Some(("unused", "variant")));
    assert_eq!(verdict("Mode::Fast"), None);
}

#[test]
fn an_unused_pub_const_is_a_finding() {
    assert_eq!(verdict("alpha::SPARE"), Some(("unused", "const")));
    assert_eq!(verdict("alpha::LIMIT"), None);
}

#[test]
fn a_stale_observed_entry_fails_the_gate() {
    // `beta` calls `Counter::spin`, so its entry names no finding.
    assert_eq!(verdict("Counter::spin"), Some(("stale", "-")));
}

#[test]
fn a_field_only_bumped_by_a_compound_assignment_is_unread() {
    // Both are bumped with `+=`; only `total` is also read.
    assert_eq!(verdict("Counter::bumps"), Some(("unused", "field")));
    assert_eq!(verdict("Counter::total"), None);
}

#[test]
fn a_field_only_written_in_a_literal_is_unread() {
    // `beta` builds both in one literal; only `name` is read.
    assert_eq!(verdict("Tag::note"), Some(("unused", "field-built")));
    assert_eq!(verdict("Tag::name"), None);
}

#[test]
fn dot_reads_struct_patterns_and_shorthand_read_a_field() {
    // `beta` reads `counter.total`; `Tag::name` binds `name` by shorthand.
    assert_eq!(verdict("Counter::total"), None);
    assert_eq!(verdict("Tag::name"), None);
}

#[test]
fn match_arms_and_cfg_test_code_construct_no_variant() {
    // `Mode::describe` matches `Slow`; only `alpha`'s tests build it and
    // call `tested_only`.
    assert_eq!(verdict("Mode::Slow"), Some(("unused", "variant")));
    assert_eq!(verdict("alpha::tested_only"), Some(("unused", "fn")));
}

#[test]
fn const_and_unsafe_fns_are_fns() {
    assert_eq!(verdict("Mode::spin"), Some(("observed", "fn")));
    assert_eq!(verdict("alpha::tested_only"), Some(("unused", "fn")));
}

#[test]
fn literals_recursion_and_receivers_narrow_call_sites() {
    // `Mode::spin` calls only itself, and `beta`'s `counter.spin()` is
    // `Counter::spin`.
    assert_eq!(verdict("Mode::spin"), Some(("observed", "fn")));
    assert_eq!(verdict("Counter::spin"), Some(("stale", "-")));
}

#[test]
fn an_observed_key_exempts_only_the_declaration_it_names() {
    let observed: Vec<&str> = report()
        .lines()
        .filter(|l| l.starts_with("observed"))
        .collect();
    assert_eq!(observed.len(), 1, "{observed:?}");
    assert_eq!(verdict("Mode::spin"), Some(("observed", "fn")));
}
