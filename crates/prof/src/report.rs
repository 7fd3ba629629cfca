//! Report extraction and rendering: per-phase self-time table and
//! collapsed-stack output for flamegraph tooling.
//!
//! Times come from the sampled set only — the root spans the profiler
//! timed, with everything under them — and are turned into estimates by
//! one rule: trim each node's few largest sampled calls, subtract the
//! calibrated clock-read cost from the rest of its raw self time, then
//! scale the node by its root's `calls / sampled`. The trim is what keeps
//! one preempted or cold timed call from being booked
//! [`crate::SAMPLE_EVERY`] times over.
//! Inclusive time is *defined* as self plus children, so at every node
//! inclusive ≥ Σ children, and Σ self over all rows equals Σ inclusive
//! over the root nodes, exactly.

use crate::phase::Phase;
use crate::profiler::{self, bucket_upper, Node, HIST_BUCKETS, TOP_KEPT};

/// A node trims one sampled call per this many, up to [`TOP_KEPT`]:
/// enough to drop a handful of outliers from a long run, too few to
/// bias a node whose time is legitimately spread over a wide range.
const TRIM_EVERY: u64 = 256;

/// Aggregated statistics for one phase across every position it appears
/// in the call tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    pub phase: Phase,
    /// Number of completed spans; exact.
    pub calls: u64,
    /// How many of them were clock-timed. Root spans decide, so a rare
    /// nested phase can show `sampled == 0`: never sampled, not free.
    pub sampled: u64,
    /// Inclusive wall time (self plus children), estimated from the
    /// root spans sampled one in [`crate::SAMPLE_EVERY`].
    pub total_ns: u64,
    /// Exclusive wall time, clock reads subtracted; same estimate.
    pub self_ns: u64,
    /// Median span duration (upper bound of the log2 histogram bucket
    /// the 50th percentile lands in).
    pub p50_ns: u64,
    /// 99th-percentile span duration (same bucket-bound convention).
    pub p99_ns: u64,
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
    /// Spans dropped because the open-span stack was full.
    pub truncated: u64,
}

/// Extract a [`ProfReport`] from this thread's profiler state. Does not
/// reset the state; pair with [`crate::reset`] between measurement
/// windows.
pub fn report() -> ProfReport {
    profiler::with_state(|s| {
        let n = s.nodes.len();
        // Each subtree is scaled by its root's sampling ratio. Children
        // follow their parent in the arena, so one forward pass hands
        // the ratio down and one backward pass sums inclusive time up.
        let mut ratio = vec![(0u64, 1u64); n];
        let mut self_ns = vec![0u64; n];
        let mut total_ns = vec![0u64; n];
        for (i, node) in s.nodes.iter().enumerate() {
            for k in node.children() {
                ratio[k] = if i == 0 {
                    (s.nodes[k].calls, s.nodes[k].sampled.max(1))
                } else {
                    ratio[i]
                };
            }
        }
        for (i, node) in s.nodes.iter().enumerate().skip(1).rev() {
            let (calls, sampled) = ratio[i];
            self_ns[i] = estimate(node, s.clock_ns, calls, sampled);
            total_ns[i] = self_ns[i] + node.children().map(|k| total_ns[k]).sum::<u64>();
        }

        let mut calls = [0u64; Phase::COUNT];
        let mut sampled = [0u64; Phase::COUNT];
        let mut total = [0u64; Phase::COUNT];
        let mut slf = [0u64; Phase::COUNT];
        for (i, node) in s.nodes.iter().enumerate().skip(1) {
            let p = node.phase as usize;
            calls[p] += node.calls;
            sampled[p] += node.sampled;
            total[p] += total_ns[i];
            slf[p] += self_ns[i];
        }

        let mut rows: Vec<PhaseRow> = Phase::ALL
            .iter()
            .filter(|p| calls[p.index()] > 0)
            .map(|&p| {
                let h = &s.hist[p.index()];
                PhaseRow {
                    phase: p,
                    calls: calls[p.index()],
                    sampled: sampled[p.index()],
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
            collect_stacks(s, 0, &mut path, &self_ns, &total_ns, &mut stacks);
        }
        stacks.sort_by(|a, b| a.path.cmp(&b.path));

        ProfReport {
            rows,
            stacks,
            truncated: s.truncated,
        }
    })
}

/// A node's exclusive time over all `root_calls` calls of its root. The
/// node's largest `sampled / TRIM_EVERY` sampled calls (at most
/// [`TOP_KEPT`]) are trimmed and stand in at the mean of the rest, the
/// rest's clock reads are subtracted, and the sum is scaled by the
/// root's `root_calls / root_sampled`.
fn estimate(node: &Node, clock_ns: u64, root_calls: u64, root_sampled: u64) -> u64 {
    let trim = (node.sampled / TRIM_EVERY).min(TOP_KEPT as u64);
    let kept = node.sampled - trim;
    let raw = node.self_ns - node.top[TOP_KEPT - trim as usize..].iter().sum::<u64>();
    // The trimmed calls take their share of the clock reads with them. A
    // node cannot owe more reads than it measured; capped per node, so a
    // 0 ns span zeroes only itself.
    let reads = node.reads * kept / node.sampled.max(1);
    let net = raw - (clock_ns * reads).min(raw);
    (u128::from(net) * u128::from(node.sampled) * u128::from(root_calls)
        / (u128::from(kept.max(1)) * u128::from(root_sampled))) as u64
}

fn collect_stacks(
    s: &profiler::ProfilerState,
    node: usize,
    path: &mut Vec<Phase>,
    self_ns: &[u64],
    total_ns: &[u64],
    out: &mut Vec<StackRow>,
) {
    let n = &s.nodes[node];
    if node != 0 {
        path.push(Phase::from_index(n.phase as usize));
        if n.calls > 0 {
            out.push(StackRow {
                path: path.clone(),
                calls: n.calls,
                total_ns: total_ns[node],
                self_ns: self_ns[node],
            });
        }
    }
    for c in n.children() {
        collect_stacks(s, c, path, self_ns, total_ns, out);
    }
    if node != 0 {
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
            "{:<22} {:>10} {:>8} {:>14} {:>14} {:>6} {:>10} {:>10}\n",
            "phase", "calls", "sampled", "total_ns", "self_ns", "self%", "p50_ns", "p99_ns"
        ));
        let grand: u64 = self.rows.iter().map(|r| r.self_ns).sum();
        for r in &self.rows {
            let pct = if grand == 0 {
                0.0
            } else {
                100.0 * r.self_ns as f64 / grand as f64
            };
            out.push_str(&format!(
                "{:<22} {:>10} {:>8} {:>14} {:>14} {:>6.1} {:>10} {:>10}\n",
                r.phase.name(),
                r.calls,
                r.sampled,
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
    use crate::profiler::{with_state_mut, ProfilerState};
    use crate::SAMPLE_EVERY;

    /// Synthetic enter/exit helper: always records the duration, so
    /// `sampled == calls` and report numbers are exact.
    fn timed(s: &mut ProfilerState, phase: Phase, f: impl FnOnce(&mut ProfilerState), ns: u64) {
        assert!(s.enter(phase).is_some());
        f(s);
        s.exit(phase, Some(ns));
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
    fn clock_reads_are_subtracted_then_the_root_ratio_scales() {
        build_synthetic();
        let self_of = |clock_ns: u64, phase: Phase| {
            with_state_mut(|s| s.clock_ns = clock_ns);
            let rep = report();
            rep.rows.iter().find(|r| r.phase == phase).unwrap().self_ns
        };
        // pop's 1200 ns hold three reads (its two calls, one child).
        assert_eq!(self_of(20, Phase::SchedPop), 1200 - 3 * 20);
        assert_eq!(self_of(20, Phase::TraceEmit), 300 - 20);
        // A node cheaper than its reads (push, 50 ns) zeroes itself and
        // does not shrink the correction of any other node.
        assert_eq!(self_of(80, Phase::SchedPush), 0);
        assert_eq!(self_of(80, Phase::SchedPop), 1200 - 3 * 80);
        // One more pop that was only counted: 3 calls over 2 samples,
        // and the child under it scales by the same ratio.
        with_state_mut(|s| {
            s.enter(Phase::SchedPop);
            s.exit(Phase::SchedPop, None);
        });
        assert_eq!(self_of(0, Phase::SchedPop), 1800);
        assert_eq!(self_of(0, Phase::TraceEmit), 450);
        with_state_mut(|s| {
            s.reset();
            s.clock_ns = 0;
        });
    }

    #[test]
    fn one_outlier_call_is_trimmed_not_scaled() {
        with_state_mut(|s| {
            s.reset();
            s.clock_ns = 0;
            // 512 sampled pops of 100 ns each, one preempted for 1 ms:
            // with the usual sampling stride the report scales by 61.
            for i in 0..512 {
                timed(
                    s,
                    Phase::SchedPop,
                    |_| {},
                    if i == 300 { 1_000_000 } else { 100 },
                );
            }
            s.nodes[1].calls *= SAMPLE_EVERY;
        });
        let pop = report().rows[0].clone();
        assert_eq!(pop.phase, Phase::SchedPop);
        assert_eq!(pop.sampled, 512);
        // 512 / 256 = 2 calls trimmed: the outlier and one ordinary call,
        // both standing in at the mean of the other 510.
        assert_eq!(pop.self_ns, 512 * SAMPLE_EVERY * 100);
        // Untrimmed, the outlier alone would have added 61 ms.
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
