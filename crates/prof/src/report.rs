//! Report extraction and rendering: per-phase self-time table and
//! collapsed-stack output for flamegraph tooling.

use crate::phase::Phase;
use crate::profiler::{self, bucket_upper, HIST_BUCKETS};

/// Aggregated statistics for one phase across every position it appears
/// in the call tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    pub phase: Phase,
    /// Number of completed spans. Exact: non-leaf phases count in the
    /// call tree, leaf phases in their flat counter.
    pub calls: u64,
    /// Inclusive wall time: span entry to exit, children included.
    /// Durations are sampled one call in [`crate::SAMPLE_EVERY`] per
    /// call-tree node and scaled back up by the exact call count, so
    /// this is an estimate (counts are exact, times are sampled).
    pub total_ns: u64,
    /// Exclusive wall time: `total_ns` minus time attributed to child
    /// spans.
    pub self_ns: u64,
    /// Median span duration (upper bound of the log2 histogram bucket
    /// the 50th percentile lands in).
    pub p50_ns: u64,
    /// 99th-percentile span duration (same bucket-bound convention).
    pub p99_ns: u64,
}

/// One root-to-leaf path of the call tree with its exclusive time, for
/// collapsed-stack export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackRow {
    /// Path from outermost to innermost phase.
    pub path: Vec<Phase>,
    /// Calls at this tree position (scaled estimate for leaf phases,
    /// whose per-position counts are sampled).
    pub calls: u64,
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
    /// Spans dropped because the open-span stack was full.
    pub truncated: u64,
}

/// Extract a [`ProfReport`] from this thread's profiler state. Does not
/// reset the state; pair with [`crate::reset`] between measurement
/// windows.
pub fn report() -> ProfReport {
    profiler::with_state(|s| {
        let n = s.nodes.len();
        // Leaf phases only reach the tree one call in LEAF_EVERY; the
        // flat counter holds the exact population to scale back up to.
        // (max() keeps synthetic state driven directly through
        // enter/exit — the unit tests — at scale 1.)
        let mut tree_calls = [0u64; Phase::COUNT];
        for node in s.nodes.iter().skip(1) {
            tree_calls[node.phase as usize] += node.calls;
        }
        let flat_eff = |p: usize| s.flat[p].max(tree_calls[p]);
        // Estimated inclusive time and call count per node: sampled
        // time scaled up by the exact call count (`total × calls /
        // sampled` for non-leaves, `total × flat / tree_calls` for
        // leaves).
        let mut est = vec![0u64; n];
        let mut est_calls = vec![0u64; n];
        for (i, node) in s.nodes.iter().enumerate().skip(1) {
            let p = node.phase as usize;
            if Phase::from_index(p).is_leaf() {
                if tree_calls[p] > 0 {
                    est[i] = (u128::from(node.total_ns) * u128::from(flat_eff(p))
                        / u128::from(tree_calls[p])) as u64;
                    est_calls[i] = (u128::from(node.calls) * u128::from(flat_eff(p))
                        / u128::from(tree_calls[p])) as u64;
                }
            } else {
                est_calls[i] = node.calls;
                if node.sampled > 0 {
                    est[i] = (u128::from(node.total_ns) * u128::from(node.calls)
                        / u128::from(node.sampled)) as u64;
                }
            }
        }
        // Exclusive time per node: total minus the sum of child totals.
        // (Clock jitter and sampling scale can make children sum past
        // the parent; saturate.)
        let mut self_ns = vec![0u64; n];
        for (i, _) in s.nodes.iter().enumerate() {
            let kids: u64 = s.children[i].iter().map(|&c| est[c as usize]).sum();
            self_ns[i] = est[i].saturating_sub(kids);
        }

        let mut calls = [0u64; Phase::COUNT];
        let mut total = [0u64; Phase::COUNT];
        let mut slf = [0u64; Phase::COUNT];
        for (i, node) in s.nodes.iter().enumerate().skip(1) {
            let p = node.phase as usize;
            calls[p] += node.calls;
            total[p] = total[p].saturating_add(est[i]);
            slf[p] = slf[p].saturating_add(self_ns[i]);
        }
        for p in Phase::ALL {
            if p.is_leaf() {
                calls[p.index()] = flat_eff(p.index());
            }
        }

        let mut rows: Vec<PhaseRow> = Phase::ALL
            .iter()
            .filter(|p| calls[p.index()] > 0)
            .map(|&p| {
                let h = &s.hist[p.index()];
                PhaseRow {
                    phase: p,
                    calls: calls[p.index()],
                    total_ns: total[p.index()],
                    self_ns: slf[p.index()],
                    p50_ns: percentile(h, 50),
                    p99_ns: percentile(h, 99),
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.self_ns
                .cmp(&a.self_ns)
                .then(a.phase.index().cmp(&b.phase.index()))
        });

        let mut stacks = Vec::new();
        if n > 0 {
            let mut path = Vec::new();
            collect_stacks(s, 0, &mut path, &self_ns, &est_calls, &mut stacks);
        }
        stacks.sort_by(|a, b| a.path.cmp(&b.path));

        ProfReport {
            rows,
            stacks,
            truncated: s.truncated,
        }
    })
}

fn collect_stacks(
    s: &profiler::ProfilerState,
    node: u32,
    path: &mut Vec<Phase>,
    self_ns: &[u64],
    est_calls: &[u64],
    out: &mut Vec<StackRow>,
) {
    let is_root = node == 0 && path.is_empty();
    if !is_root {
        let n = &s.nodes[node as usize];
        path.push(Phase::from_index(n.phase as usize));
        if n.calls > 0 {
            out.push(StackRow {
                path: path.clone(),
                calls: est_calls[node as usize],
                self_ns: self_ns[node as usize],
            });
        }
    }
    for &c in &s.children[node as usize] {
        collect_stacks(s, c, path, self_ns, est_calls, out);
    }
    if !is_root {
        path.pop();
    }
}

/// Percentile over a log2 histogram: the upper bound of the bucket the
/// q-th percentile count lands in. Returns 0 for an empty histogram.
fn percentile(hist: &[u64; HIST_BUCKETS], q: u32) -> u64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0;
    }
    // Rank of the q-th percentile sample, 1-based, rounded up.
    let rank = (total * u64::from(q)).div_ceil(100).max(1);
    let mut seen = 0u64;
    for (b, &c) in hist.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_upper(b);
        }
    }
    bucket_upper(HIST_BUCKETS - 1)
}

impl ProfReport {
    /// Render the top-down self-time table. Wall-clock numbers are
    /// nondeterministic by nature; this output is for humans only.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:>10} {:>14} {:>14} {:>6} {:>10} {:>10}\n",
            "phase", "calls", "total_ns", "self_ns", "self%", "p50_ns", "p99_ns"
        ));
        let grand: u64 = self.rows.iter().map(|r| r.self_ns).sum();
        for r in &self.rows {
            let pct = if grand == 0 {
                0.0
            } else {
                100.0 * r.self_ns as f64 / grand as f64
            };
            out.push_str(&format!(
                "{:<22} {:>10} {:>14} {:>14} {:>6.1} {:>10} {:>10}\n",
                r.phase.name(),
                r.calls,
                r.total_ns,
                r.self_ns,
                pct,
                r.p50_ns,
                r.p99_ns
            ));
        }
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
    use crate::profiler::{with_state_mut, Enter, ProfilerState};

    /// Synthetic enter/exit helper: always records the duration, so
    /// `sampled == calls` and report numbers are exact.
    fn timed(s: &mut ProfilerState, phase: Phase, f: impl FnOnce(&mut ProfilerState), ns: u64) {
        assert_ne!(s.enter(phase), Enter::Refused);
        f(s);
        s.exit_timed(phase, ns);
    }

    fn build_synthetic() {
        with_state_mut(|s| {
            s.reset();
            // pop(1000) { emit(300) }  pop(500)  push(50)
            timed(
                s,
                Phase::SchedPop,
                |s| timed(s, Phase::TraceEmit, |_| {}, 300),
                1000,
            );
            timed(s, Phase::SchedPop, |_| {}, 500);
            timed(s, Phase::SchedPush, |_| {}, 50);
        });
    }

    #[test]
    fn self_time_excludes_children() {
        build_synthetic();
        let rep = report();
        let pop = rep
            .rows
            .iter()
            .find(|r| r.phase == Phase::SchedPop)
            .unwrap();
        assert_eq!(pop.calls, 2);
        assert_eq!(pop.total_ns, 1500);
        assert_eq!(pop.self_ns, 1200, "300ns of trace_emit must be excluded");
        let emit = rep
            .rows
            .iter()
            .find(|r| r.phase == Phase::TraceEmit)
            .unwrap();
        assert_eq!(emit.self_ns, 300);
        // Rows sort by self time descending.
        assert_eq!(rep.rows[0].phase, Phase::SchedPop);
        with_state_mut(|s| s.reset());
    }

    #[test]
    fn collapsed_paths_are_exact() {
        build_synthetic();
        let rep = report();
        let text = rep.render_collapsed();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"kite;sched_pop 1200"), "got:\n{text}");
        assert!(
            lines.contains(&"kite;sched_pop;trace_emit 300"),
            "got:\n{text}"
        );
        assert!(lines.contains(&"kite;sched_push 50"), "got:\n{text}");
        with_state_mut(|s| s.reset());
    }

    #[test]
    fn table_renders_all_columns() {
        build_synthetic();
        let rep = report();
        let table = rep.render_table();
        assert!(table.starts_with("phase"));
        assert!(table.contains("sched_pop"));
        assert!(table.contains("trace_emit"));
        with_state_mut(|s| s.reset());
    }

    #[test]
    fn percentiles_come_from_histogram_buckets() {
        with_state_mut(|s| {
            s.reset();
            for _ in 0..99 {
                timed(s, Phase::GrantCopy, |_| {}, 100); // bucket 7, upper 128
            }
            timed(s, Phase::GrantCopy, |_| {}, 1_000_000); // bucket 20, upper 2^20
        });
        let rep = report();
        let row = rep
            .rows
            .iter()
            .find(|r| r.phase == Phase::GrantCopy)
            .unwrap();
        assert_eq!(row.p50_ns, 128);
        assert_eq!(row.p99_ns, 128);
        with_state_mut(|s| s.reset());
    }

    #[test]
    fn empty_report_is_empty() {
        with_state_mut(|s| s.reset());
        let rep = report();
        assert!(rep.rows.is_empty());
        assert!(rep.stacks.is_empty());
        assert_eq!(rep.render_collapsed(), "");
    }
}
