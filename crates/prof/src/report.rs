//! Report extraction and rendering: per-phase self-time table and
//! collapsed-stack output for flamegraph tooling.
//!
//! Times come from one rule: a node's self time is its samples × the
//! thread's profiled wall time ÷ all of its samples (those taken with no
//! span open, booked to the root, included). Inclusive time is *defined*
//! as self plus children, so at every node inclusive ≥ Σ children, and
//! Σ self over all rows equals Σ inclusive over the root nodes, exactly.

use crate::phase::Phase;
use crate::profiler::{self, Tree};

/// Aggregated statistics for one phase across every position it appears
/// in the call tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    pub phase: Phase,
    /// Number of completed spans; exact.
    pub calls: u64,
    /// Timer samples taken with this phase innermost: the count behind
    /// `self_ns`. A row with calls and no samples ran for less than the
    /// report's resolution, not for nothing.
    pub sampled: u64,
    /// Inclusive wall time (self plus children), estimated from samples.
    pub total_ns: u64,
    /// Exclusive wall time, estimated from samples.
    pub self_ns: u64,
}

/// One root-to-leaf path of the call tree, for collapsed-stack export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackRow {
    /// Path from outermost to innermost phase.
    pub path: Vec<Phase>,
    /// Completed spans at this tree position; exact.
    pub calls: u64,
    /// Inclusive time at this position: `self_ns` plus the `total_ns`
    /// of the paths one phase longer.
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Snapshot of this thread's accumulated profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfReport {
    /// Per-phase aggregate rows, sorted by `self_ns` descending (ties
    /// broken by phase declaration order so rendering is stable).
    pub rows: Vec<PhaseRow>,
    /// Call-tree paths in lexicographic path order.
    pub stacks: Vec<StackRow>,
    /// Spans dropped because the open-span stack or the call-tree arena
    /// was full.
    pub truncated: u64,
    /// Every sample this thread took, those with no span open included.
    pub samples: u64,
    /// Profiled wall time per sample: the report's resolution.
    pub ns_per_sample: u64,
}

/// Extract a [`ProfReport`] from this thread's profiler state. Does not
/// reset the state; pair with [`crate::reset`] between measurement
/// windows.
pub fn report() -> ProfReport {
    profiler::with_state(|t, samples| {
        let nodes = t.nodes();
        let all: u64 = samples.iter().sum();
        let wall = u128::from(t.wall_ns());
        let self_ns: Vec<u64> = samples
            .iter()
            .map(|&s| (u128::from(s) * wall / u128::from(all.max(1))) as u64)
            .collect();
        // Children follow their parent in the arena, so one backward
        // pass sums inclusive time up.
        let mut total_ns = self_ns.clone();
        for i in (1..nodes.len()).rev() {
            total_ns[i] += nodes[i].children().map(|k| total_ns[k]).sum::<u64>();
        }

        let mut by_phase: [Option<PhaseRow>; Phase::COUNT] = [const { None }; Phase::COUNT];
        for (i, node) in nodes.iter().enumerate().skip(1) {
            let phase = Phase::from_index(node.phase as usize);
            let row = by_phase[phase.index()].get_or_insert(PhaseRow {
                phase,
                calls: 0,
                sampled: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.calls += node.calls;
            row.sampled += samples[i];
            row.total_ns += total_ns[i];
            row.self_ns += self_ns[i];
        }
        let mut rows: Vec<PhaseRow> = by_phase.into_iter().flatten().collect();
        rows.sort_by(|a, b| {
            b.self_ns
                .cmp(&a.self_ns)
                .then(a.phase.index().cmp(&b.phase.index()))
        });

        let mut stacks = Vec::new();
        collect_stacks(t, 0, &mut Vec::new(), &self_ns, &total_ns, &mut stacks);
        stacks.sort_by(|a, b| a.path.cmp(&b.path));

        ProfReport {
            rows,
            stacks,
            truncated: t.truncated,
            samples: all,
            ns_per_sample: wall.checked_div(u128::from(all)).unwrap_or(0) as u64,
        }
    })
}

fn collect_stacks(
    t: &Tree,
    node: usize,
    path: &mut Vec<Phase>,
    self_ns: &[u64],
    total_ns: &[u64],
    out: &mut Vec<StackRow>,
) {
    let n = &t.nodes()[node];
    if node != 0 {
        path.push(Phase::from_index(n.phase as usize));
        out.push(StackRow {
            path: path.clone(),
            calls: n.calls,
            total_ns: total_ns[node],
            self_ns: self_ns[node],
        });
    }
    for c in n.children() {
        collect_stacks(t, c, path, self_ns, total_ns, out);
    }
    if node != 0 {
        path.pop();
    }
}

impl ProfReport {
    /// Render the top-down self-time table, closed by the sample count
    /// and the time one sample stands for. Wall-clock numbers are
    /// nondeterministic by nature; this output is for humans only.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:>10} {:>8} {:>14} {:>14} {:>6}\n",
            "phase", "calls", "samples", "total_ns", "self_ns", "self%"
        ));
        let grand: u64 = self.rows.iter().map(|r| r.self_ns).sum();
        for r in &self.rows {
            let pct = if grand == 0 {
                0.0
            } else {
                100.0 * r.self_ns as f64 / grand as f64
            };
            out.push_str(&format!(
                "{:<22} {:>10} {:>8} {:>14} {:>14} {:>6.1}\n",
                r.phase.name(),
                r.calls,
                r.sampled,
                r.total_ns,
                r.self_ns,
                pct,
            ));
        }
        let outside = self.samples - self.rows.iter().map(|r| r.sampled).sum::<u64>();
        out.push_str(&format!(
            "# {} samples ({outside} outside any span), {} ns per sample\n",
            self.samples, self.ns_per_sample
        ));
        if self.truncated > 0 {
            out.push_str(&format!("# truncated spans: {}\n", self.truncated));
        }
        out
    }

    /// Render collapsed stacks (`kite;outer;inner self_ns`), one line
    /// per call-tree path, suitable for `flamegraph.pl` /
    /// `inferno-flamegraph`.
    pub fn render_collapsed(&self) -> String {
        let mut out = String::new();
        for s in &self.stacks {
            out.push_str("kite");
            for p in &s.path {
                out.push(';');
                out.push_str(p.name());
            }
            out.push_str(&format!(" {}\n", s.self_ns));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{set_samples, with_tree_mut};

    /// Opens `phase`, runs `f` inside it, closes it.
    fn call(t: &mut Tree, phase: Phase, f: impl FnOnce(&mut Tree)) {
        assert!(t.enter(phase).is_some());
        f(t);
        assert!(t.exit(phase).is_some());
    }

    /// pop { emit } pop push, then 10 samples over 10 µs: 1 µs each.
    /// Nodes: root 0, pop 1, emit 2, push 3.
    fn build_synthetic() {
        crate::reset();
        with_tree_mut(|t| {
            call(t, Phase::SchedPop, |t| call(t, Phase::TraceEmit, |_| {}));
            call(t, Phase::SchedPop, |_| {});
            call(t, Phase::SchedPush, |_| {});
        });
        for (node, samples) in [(0, 1), (1, 5), (2, 3), (3, 1)] {
            set_samples(node, samples, 10_000);
        }
    }

    #[test]
    fn self_time_is_samples_times_wall_per_sample() {
        build_synthetic();
        let rep = report();
        assert_eq!((rep.samples, rep.ns_per_sample), (10, 1000));
        let row = |p: Phase| rep.rows.iter().find(|r| r.phase == p).unwrap().clone();
        let pop = row(Phase::SchedPop);
        assert_eq!((pop.calls, pop.sampled), (2, 5));
        assert_eq!((pop.self_ns, pop.total_ns), (5000, 8000));
        assert_eq!(row(Phase::TraceEmit).self_ns, 3000);
        assert_eq!(row(Phase::SchedPush).self_ns, 1000);
        // Rows sort by self time descending; the root's sample is the
        // wall time no span accounts for.
        assert_eq!(rep.rows[0].phase, Phase::SchedPop);
        assert_eq!(rep.rows.iter().map(|r| r.self_ns).sum::<u64>(), 9000);
        crate::reset();
    }

    #[test]
    fn collapsed_paths_are_exact() {
        build_synthetic();
        let text = report().render_collapsed();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "kite;sched_push 1000",
                "kite;sched_pop 5000",
                "kite;sched_pop;trace_emit 3000"
            ],
            "got:\n{text}"
        );
        crate::reset();
    }

    #[test]
    fn table_renders_all_columns_and_its_resolution() {
        build_synthetic();
        let table = report().render_table();
        assert!(table.starts_with("phase"));
        assert!(table.contains("sched_pop"));
        assert!(table.contains("trace_emit"));
        assert!(
            table.ends_with("# 10 samples (1 outside any span), 1000 ns per sample\n"),
            "got:\n{table}"
        );
        crate::reset();
    }

    #[test]
    fn empty_report_is_empty() {
        crate::reset();
        let rep = report();
        assert!(rep.rows.is_empty());
        assert!(rep.stacks.is_empty());
        assert_eq!((rep.samples, rep.ns_per_sample), (0, 0));
        assert_eq!(rep.render_collapsed(), "");
    }
}
