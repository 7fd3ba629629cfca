//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro --all            # everything (several minutes)
//! repro fig7 fig11       # selected experiments
//! repro --list           # what's available
//! repro --json out.json  # machine-readable mechanisms/recovery/ablation results
//! repro top              # kitetop: per-domain health through a crash cycle
//! repro prof             # profiled 4-queue drain: self-time table + stacks
//! repro lat              # per-stage latency waterfalls (echo + 4-ring storage)
//! ```
//!
//! `repro prof` options: `--collapsed <path>` writes the collapsed
//! stacks for flamegraph tooling, `--series-csv <path>` writes the
//! sampler time series.
//!
//! Each experiment prints the paper's reported values alongside this
//! reproduction's measurements. EXPERIMENTS.md is this program's output
//! with commentary.

use kite_bench::experiments::{all_experiments, Experiment};
use kite_bench::report;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("top") {
        print!("{}", report::kitetop_report());
        return;
    }
    if args.first().map(String::as_str) == Some("lat") {
        print!("{}", report::lat_report());
        return;
    }
    if args.first().map(String::as_str) == Some("prof") {
        run_prof(&args[1..]);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--json") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("--json needs an output path");
            std::process::exit(2);
        };
        let snaps = report::standard_snapshots();
        report::print_snapshots(&snaps);
        match report::write_json(path, &snaps) {
            Ok(rows) => println!("wrote {rows} result rows to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let exps = all_experiments();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: repro [--all | --list | --json <path> | top | prof | lat | <id>...]");
        eprintln!("experiments:");
        for e in &exps {
            eprintln!("  {:8} {}", e.id, e.title);
        }
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args.iter().any(|a| a == "--list") {
        for e in &exps {
            println!("{:8} {}", e.id, e.title);
        }
        return;
    }
    let run_all = args.iter().any(|a| a == "--all");
    let selected: Vec<&Experiment> = exps
        .iter()
        .filter(|e| run_all || args.iter().any(|a| a == e.id))
        .collect();
    if selected.is_empty() {
        eprintln!("no matching experiments; try --list");
        std::process::exit(2);
    }
    for e in selected {
        println!("==== {} — {} ====", e.id, e.title);
        (e.run)();
        println!();
    }
}

/// `repro prof [--collapsed <path>] [--series-csv <path>]`
///
/// Prints the per-phase self-time table and the collapsed stacks from
/// the profiled 4-queue netback drains; the optional paths export the
/// collapsed stacks (for `flamegraph.pl` / `inferno-flamegraph`) and
/// the sampler's deterministic time series.
fn run_prof(args: &[String]) {
    let path_after = |flag: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let run = report::prof_run();
    println!("== per-phase self time (wall clock, repeated 4-queue netback drain) ==");
    print!("{}", run.table);
    println!();
    println!("== collapsed stacks (self ns; pipe into flamegraph.pl) ==");
    print!("{}", run.collapsed);
    for (flag, content) in [
        ("--collapsed", &run.collapsed),
        ("--series-csv", &run.series_csv),
    ] {
        if let Some(path) = path_after(flag) {
            if let Err(e) = std::fs::write(path, content) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
    }
}
