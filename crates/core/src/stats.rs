//! Shared driver statistics types, and the one list each is built from.
//!
//! A stats struct states every counter once — field, unit, doc — inside
//! `counters!`; the struct itself, `merge` (stats continuity across a
//! backend teardown/reconnect) and `export` (one snapshot row per
//! counter, named after the field) are generated from that list, so a
//! new counter is one line, and the metrics snapshot publishes it.
//!
//! Netback moves payloads with batched `GNTTABOP_copy`; [`CopyStats`]
//! is that accounting, nested in each driver's stats struct (blkback
//! maps, so its copy counters read zero).

use kite_xen::{BatchResult, CopyMode};

/// Declares a stats struct from one list of counters.
///
/// `field: "unit"` entries become `pub u64` fields; an optional
/// `nested { field: Type = "prefix_" }` block embeds other `counters!`
/// structs (merged and exported under the prefix), and `derived {
/// method: "unit" }` appends float rows from `fn method(&self) -> f64`.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $field:ident : $unit:literal ),* $(,)?
        }
        $( nested { $( $(#[$nmeta:meta])* $nested:ident : $nty:ty = $nprefix:literal ),* $(,)? } )?
        $( derived { $( $derived:ident : $dunit:literal ),* $(,)? } )?
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default)]
        $vis struct $name {
            $( $(#[$fmeta])* pub $field: u64, )*
            $($( $(#[$nmeta])* pub $nested: $nty, )*)?
        }

        impl $name {
            /// Folds another instance's counters into this one — how the
            /// system layer keeps lifetime stats across backend restarts.
            pub fn merge(&mut self, other: &Self) {
                $( self.$field += other.$field; )*
                $($( self.$nested.merge(&other.$nested); )*)?
            }

            /// Appends one row per counter, named `{prefix}{field}`.
            pub fn export(&self, rows: &mut kite_trace::MetricsSnapshot, prefix: &str) {
                $( rows.push_int(format!("{prefix}{}", stringify!($field)), $unit, self.$field); )*
                $($( self.$nested.export(rows, &format!("{prefix}{}", $nprefix)); )*)?
                $($( rows.push_float(
                    format!("{prefix}{}", stringify!($derived)),
                    $dunit,
                    self.$derived(),
                ); )*)?
            }
        }
    };
}
pub(crate) use counters;

counters! {
    /// Grant-copy hypercall accounting.
    pub struct CopyStats {
        /// Grant-copy hypercalls issued (one per batch when batched).
        hypercalls: "count",
        /// Individual copy descriptors carried by those hypercalls.
        ops: "count",
        /// Hypercalls avoided relative to the one-op-per-call shape.
        hypercalls_saved: "count",
        /// Bytes moved by grant copies.
        bytes: "bytes",
    }
    derived { bytes_per_hypercall: "bytes" }
}

impl CopyStats {
    /// Mean payload bytes moved per grant-copy hypercall.
    pub fn bytes_per_hypercall(&self) -> f64 {
        if self.hypercalls == 0 {
            0.0
        } else {
            self.bytes as f64 / self.hypercalls as f64
        }
    }

    /// Accounts one drain's copy issue under `mode`.
    pub fn record(&mut self, mode: CopyMode, result: &BatchResult) {
        let nops = result.ops;
        if nops == 0 {
            return;
        }
        self.ops += nops as u64;
        self.bytes += result.bytes as u64;
        match mode {
            CopyMode::Batched => {
                self.hypercalls += 1;
                self.hypercalls_saved += nops as u64 - 1;
            }
            CopyMode::SingleOp => self.hypercalls += nops as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(ops: usize, bytes: usize) -> BatchResult {
        BatchResult {
            ops,
            bytes,
            ..BatchResult::default()
        }
    }

    #[test]
    fn batched_counts_one_hypercall_per_drain() {
        let mut s = CopyStats::default();
        s.record(CopyMode::Batched, &result(8, 8 * 64));
        s.record(CopyMode::Batched, &result(4, 4 * 64));
        assert_eq!(s.hypercalls, 2);
        assert_eq!(s.ops, 12);
        assert_eq!(s.hypercalls_saved, 10);
        assert_eq!(s.bytes, 12 * 64);
        assert_eq!(s.bytes_per_hypercall(), 6.0 * 64.0);
    }

    #[test]
    fn single_op_counts_one_hypercall_per_op() {
        let mut s = CopyStats::default();
        s.record(CopyMode::SingleOp, &result(8, 8 * 64));
        assert_eq!(s.hypercalls, 8);
        assert_eq!(s.ops, 8);
        assert_eq!(s.hypercalls_saved, 0);
        assert_eq!(s.bytes_per_hypercall(), 64.0);
    }

    #[test]
    fn empty_drain_records_nothing() {
        let mut s = CopyStats::default();
        s.record(CopyMode::Batched, &result(0, 0));
        assert_eq!(
            (s.hypercalls, s.ops, s.hypercalls_saved, s.bytes),
            (0, 0, 0, 0)
        );
    }

    fn sample_a() -> CopyStats {
        let mut s = CopyStats::default();
        s.record(CopyMode::Batched, &result(8, 512));
        s.record(CopyMode::SingleOp, &result(3, 96));
        s
    }

    fn sample_b() -> CopyStats {
        let mut s = CopyStats::default();
        s.record(CopyMode::Batched, &result(4, 256));
        s.record(CopyMode::Batched, &result(16, 2048));
        s
    }

    fn fields(s: &CopyStats) -> [u64; 4] {
        [s.hypercalls, s.ops, s.hypercalls_saved, s.bytes]
    }

    #[test]
    fn merge_with_default_is_identity() {
        let mut s = sample_a();
        let before = fields(&s);
        s.merge(&CopyStats::default());
        assert_eq!(fields(&s), before);

        let mut empty = CopyStats::default();
        empty.merge(&sample_a());
        assert_eq!(fields(&empty), before);
    }

    #[test]
    fn merge_is_commutative() {
        let mut ab = sample_a();
        ab.merge(&sample_b());
        let mut ba = sample_b();
        ba.merge(&sample_a());
        assert_eq!(fields(&ab), fields(&ba));
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = CopyStats::default();
        a.record(CopyMode::Batched, &result(8, 512));
        let mut b = CopyStats::default();
        b.record(CopyMode::Batched, &result(4, 256));
        b.record(CopyMode::SingleOp, &result(2, 64));
        a.merge(&b);
        assert_eq!(a.hypercalls, 4);
        assert_eq!(a.ops, 14);
        assert_eq!(a.bytes, 832);
        assert_eq!(a.hypercalls_saved, 10);
    }

    #[test]
    fn rows_are_named_after_fields_and_merge_adds_each_one() {
        use kite_trace::{MetricValue, MetricsSnapshot};
        let rows = |s: &CopyStats| {
            let mut snap = MetricsSnapshot::new("");
            s.export(&mut snap, "copy_");
            snap.metrics
        };
        let (a, b) = (sample_a(), sample_b());
        let mut ab = a;
        ab.merge(&b);
        let names: Vec<_> = rows(&ab).into_iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "copy_hypercalls",
                "copy_ops",
                "copy_hypercalls_saved",
                "copy_bytes",
                "copy_bytes_per_hypercall"
            ]
        );
        for ((m, x), y) in rows(&ab).iter().zip(rows(&a)).zip(rows(&b)) {
            if let (MetricValue::Int(m), MetricValue::Int(x), MetricValue::Int(y)) =
                (m.value, x.value, y.value)
            {
                assert_eq!(m, x + y);
            }
        }
    }
}
