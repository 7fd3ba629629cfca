//! Request-latency SLO checks over the simulation's histograms.
//!
//! Each datapath keeps one [`Histogram`] of its end-to-end request
//! latencies; on every probe the monitor asks [`breached`] whether that
//! record's p99 exceeds the configured threshold. A breach marks the backend
//! [`Suspect`](crate::HealthState::Suspect) (never `Failed` — slow is not
//! dead).

use kite_sim::{Histogram, Nanos};
use kite_trace::{ReqTracer, Stage};

/// The latency threshold; `None` disables the check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloConfig {
    /// 99th percentile must stay at or under this.
    pub p99: Option<Nanos>,
    /// Quantiles of fewer samples than this are noise, not a breach.
    pub min_samples: u64,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            p99: None,
            min_samples: 16,
        }
    }
}

/// Whether `hist` breaches `cfg`: its p99 exceeds an armed threshold,
/// with at least `min_samples` behind it. An unarmed SLO reads nothing.
pub fn breached(hist: &Histogram, cfg: &SloConfig) -> bool {
    cfg.p99
        .is_some_and(|limit| hist.count() >= cfg.min_samples && hist.quantile(0.99) > limit)
}

/// Which stage a latency breach books to: the one whose own p99 is the
/// largest share of the tail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreachAttribution {
    /// Stage name (see [`Stage::name`]).
    pub stage: &'static str,
    /// That stage's p99 duration.
    pub p99: Nanos,
}

/// Attributes a breach to the per-stage histogram with the largest p99
/// (ties break toward the earlier stage, so the verdict is
/// deterministic). Returns `None` when request tracing is off or no
/// sampled request has completed yet.
pub fn attribute(req: &ReqTracer) -> Option<BreachAttribution> {
    let mut worst: Option<BreachAttribution> = None;
    for &stage in &Stage::ALL {
        let Some(h) = req.stage_hist(stage) else {
            return None; // tracing off: no histograms at all
        };
        if h.count() == 0 {
            continue;
        }
        let p99 = h.quantile(0.99);
        if worst.is_none_or(|w| p99 > w.p99) {
            worst = Some(BreachAttribution {
                stage: stage.name(),
                p99,
            });
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_fast_with_slow_tail() -> Histogram {
        let mut h = Histogram::new();
        for _ in 0..950 {
            h.record(Nanos(10_000)); // 10µs
        }
        for _ in 0..50 {
            h.record(Nanos(2_000_000)); // 2ms tail
        }
        h
    }

    #[test]
    fn unarmed_config_never_breaches() {
        let cfg = SloConfig::default();
        assert!(!breached(&hist_fast_with_slow_tail(), &cfg));
    }

    #[test]
    fn p99_threshold_catches_the_tail() {
        let cfg = SloConfig {
            p99: Some(Nanos::from_millis(1)),
            ..SloConfig::default()
        };
        assert!(breached(&hist_fast_with_slow_tail(), &cfg));
        let lax = SloConfig {
            p99: Some(Nanos::from_millis(5)),
            ..SloConfig::default()
        };
        assert!(!breached(&hist_fast_with_slow_tail(), &lax));
    }

    #[test]
    fn attribute_names_the_dominating_stage() {
        assert!(
            attribute(&ReqTracer::disabled()).is_none(),
            "tracing off: nothing to attribute"
        );
        let mut rt = ReqTracer::default();
        rt.enable(1, 16);
        assert!(attribute(&rt).is_none(), "no completed request yet");
        // One request whose grant-copy stage dwarfs the rest.
        let r = rt.admit(0, Nanos(0)).expect("sampled");
        rt.stamp_at(r, Stage::RingSubmit, 3, None, Nanos(1_000));
        rt.stamp_at(r, Stage::BackendFetch, 2, None, Nanos(2_000));
        rt.stamp_at(r, Stage::GrantCopy, 2, None, Nanos(90_000));
        rt.finish_at(r, 0, Nanos(91_000));
        let b = attribute(&rt).expect("one completed request");
        assert_eq!(b.stage, "grant_copy");
        assert!(b.p99 >= Nanos(88_000), "the 88µs copy leg dominates");
    }

    #[test]
    fn too_few_samples_is_not_a_breach() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(Nanos::from_millis(50));
        }
        let cfg = SloConfig {
            p99: Some(Nanos(1)),
            min_samples: 16,
        };
        assert!(!breached(&h, &cfg), "below min_samples");
        for _ in 0..10 {
            h.record(Nanos::from_millis(50));
        }
        assert!(breached(&h, &cfg), "now conclusive");
    }
}
