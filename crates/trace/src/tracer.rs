//! The bounded, virtual-time event recorder.
//!
//! A [`Tracer`] is disabled by default: the emit path is then a single
//! branch on an `Option` discriminant and never runs the caller's
//! event-construction closure, so string-bearing events cost nothing
//! until tracing is switched on. When enabled, events land in a bounded
//! ring; once full the oldest event is dropped and counted, never the
//! newest — recovery milestones near the end of a run survive.

use std::collections::VecDeque;

use kite_sim::Nanos;

/// What became of an `evtchn_send`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NotifyOutcome {
    /// The pending bit flipped and an interrupt will be delivered.
    Delivered,
    /// The port was already pending; the edge coalesced.
    Coalesced,
    /// A fault-injected drop: the edge was lost in "hardware".
    Dropped,
}

impl NotifyOutcome {
    /// Stable lower-case label, used in renderings.
    pub fn name(self) -> &'static str {
        match self {
            NotifyOutcome::Delivered => "delivered",
            NotifyOutcome::Coalesced => "coalesced",
            NotifyOutcome::Dropped => "dropped",
        }
    }
}

/// The typed payload of one trace event.
///
/// Domain and port identifiers are carried as raw integers: this crate
/// sits below `kite-xen` in the dependency graph, so it cannot name
/// `DomainId`/`Port` — emitters pass `id.0`.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// A charged hypercall other than `gnttab_copy` (those get their own
    /// [`EventKind::GrantCopyBatch`] record with batch detail).
    Hypercall {
        /// Hypercall name, e.g. `"gnttab_map"`.
        op: &'static str,
        /// Payload bytes billed with the call, if any.
        bytes: u64,
        /// Virtual cost charged to the calling domain.
        cost: Nanos,
    },
    /// One batched `GNTTABOP_copy` hypercall.
    GrantCopyBatch {
        /// Copy descriptors carried by the batch.
        ops: u32,
        /// Descriptors that completed with `Okay` status.
        ok_ops: u32,
        /// Bytes actually moved (failed descriptors move none).
        bytes: u64,
        /// Virtual cost of the whole batch.
        cost: Nanos,
    },
    /// An `evtchn_send` and its outcome.
    Notify {
        /// Domain on the receiving end of the channel.
        to_dom: u16,
        /// The receiver's port number.
        port: u32,
        /// Delivered, coalesced, or fault-dropped.
        outcome: NotifyOutcome,
        /// Virtual cost charged to the sender.
        cost: Nanos,
    },
    /// A fault-injected delay added to one interrupt delivery.
    NotifyDelayed {
        /// Extra latency beyond the cost model's IRQ delivery time.
        extra: Nanos,
    },
    /// A xenbus state node transition committed to the store.
    XenbusState {
        /// Full path of the `state` node.
        path: String,
        /// The new state's lower-case name, e.g. `"connected"`.
        state: &'static str,
    },
    /// A [`DeviceLifecycle`] operation on a backend device.
    ///
    /// [`DeviceLifecycle`]: ../../kite_core/lifecycle/struct.DeviceLifecycle.html
    Lifecycle {
        /// Device identity, `<kind>/<frontend-domain>/<index>`.
        device: String,
        /// `"retarget"`, `"connect"`, `"close"` or `"abandon"`.
        transition: &'static str,
    },
    /// One non-empty backend ring drain.
    RingDrain {
        /// Which queue drained, e.g. `"netback_tx"`.
        queue: &'static str,
        /// Queue index within the backend (0 on a single-queue one). The
        /// Chrome exporter decides which indices get a track of their own.
        qid: u16,
        /// Ring slots consumed (occupancy at drain start, up to budget).
        consumed: u32,
        /// Frames delivered / requests submitted out of those slots.
        delivered: u32,
        /// Whether the drain ended by notifying the peer.
        notify: bool,
    },
    /// A ring entry the peer wrote that the reader refused because it
    /// names a buffer or a byte range the reader never offered. Nothing
    /// the entry names is touched.
    RingReject {
        /// Which ring, e.g. `"netfront_tx"`.
        queue: &'static str,
        /// Queue index within the device, as for [`EventKind::RingDrain`].
        qid: u16,
        /// The refusal's cause, e.g. `"bad_id"`.
        reason: &'static str,
        /// The id the entry carried.
        id: u32,
    },
    /// A recovery milestone: `"kill"`, `"detect"`, `"reboot"`,
    /// `"reconnect"`, `"first_byte"` — or any scenario-defined marker.
    Milestone {
        /// Milestone label.
        what: &'static str,
    },
    /// A health-monitor verdict change for one watched backend.
    ///
    /// Emitted on every `Healthy → Suspect → Failed` (and back) edge, so
    /// a Perfetto export shows suspicion windows as spans on the Dom0
    /// track. The event is attributed to the *monitoring* domain; `dom`
    /// on the enclosing [`TraceEvent`] names the watcher, this field the
    /// watched backend.
    HealthTransition {
        /// Raw id of the backend domain whose health changed.
        watched: u16,
        /// New state: `"healthy"`, `"suspect"`, or `"failed"`.
        state: &'static str,
        /// What drove the edge: `"heartbeat"`, `"stall"`, `"slo"`, or
        /// `"recovered"`.
        cause: &'static str,
        /// Consecutive missed probes at the time of the transition.
        missed: u32,
    },
}

/// One recorded event: a sequence number (total order of emission), a
/// virtual timestamp, the domain the event is attributed to, and the
/// typed payload.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Emission sequence number; strictly increasing, never reused, and
    /// stable across drops (dropped events leave a gap at the front).
    pub seq: u64,
    /// Virtual time of the enclosing simulation event.
    pub at: Nanos,
    /// Raw id of the domain this event is attributed to.
    pub dom: u16,
    /// The payload.
    pub kind: EventKind,
}

struct Inner {
    now: Nanos,
    next_seq: u64,
    dropped: u64,
    capacity: usize,
    ring: VecDeque<TraceEvent>,
}

/// Default ring capacity used by [`Tracer::enabled`]'s convenience
/// callers; sized so a full crash/recovery scenario fits with zero drops.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Bounded recorder of [`TraceEvent`]s, stamped with virtual time.
#[derive(Default)]
pub struct Tracer {
    inner: Option<Box<Inner>>,
}

impl Tracer {
    /// A tracer that records nothing; the emit path is one branch.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer recording into a drop-oldest ring of `capacity` events.
    pub fn enabled(capacity: usize) -> Tracer {
        let mut t = Tracer::disabled();
        t.enable(capacity);
        t
    }

    /// Switches recording on (idempotent: an enabled tracer keeps its
    /// events and capacity).
    pub fn enable(&mut self, capacity: usize) {
        if self.inner.is_none() {
            self.inner = Some(Box::new(Inner {
                now: Nanos::ZERO,
                next_seq: 0,
                dropped: 0,
                capacity: capacity.max(1),
                ring: VecDeque::new(),
            }));
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advances the clock used to stamp subsequent events. Called once
    /// per simulation event; emitters never pass time explicitly.
    pub fn set_now(&mut self, now: Nanos) {
        if let Some(inner) = &mut self.inner {
            inner.now = now;
        }
    }

    /// Records the event built by `f`, attributed to domain `dom`.
    ///
    /// `f` runs only when the tracer is enabled, so event construction
    /// (including any allocation) is skipped entirely on the disabled
    /// path — that is the whole cost contract of this crate.
    #[inline]
    pub fn emit_with(&mut self, dom: u16, f: impl FnOnce() -> EventKind) {
        let Some(inner) = &mut self.inner else {
            return;
        };
        let _prof = kite_prof::span(kite_prof::Phase::TraceEmit);
        if inner.ring.len() == inner.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.ring.push_back(TraceEvent {
            seq,
            at: inner.now,
            dom,
            kind: f(),
        });
    }

    /// Events dropped from the front of the ring since enabling.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.dropped)
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.ring.len())
    }

    /// Whether no events are held (also true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the held events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.inner.iter().flat_map(|i| i.ring.iter())
    }

    /// The first [`EventKind::Milestone`] named `what`, if any.
    pub fn milestone(&self, what: &str) -> Option<&TraceEvent> {
        self.events()
            .find(|e| matches!(e.kind, EventKind::Milestone { what: w } if w == what))
    }

    /// Virtual-time span from the first milestone `from` to the first
    /// milestone `to` emitted after it.
    pub fn span_between(&self, from: &str, to: &str) -> Option<Nanos> {
        let a = self.milestone(from)?;
        let b = self.events().find(|e| {
            e.seq > a.seq && matches!(e.kind, EventKind::Milestone { what: w } if w == to)
        })?;
        Some(b.at.saturating_sub(a.at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn milestone(what: &'static str) -> EventKind {
        EventKind::Milestone { what }
    }

    #[test]
    fn disabled_tracer_records_nothing_and_never_calls_the_closure() {
        let mut t = Tracer::disabled();
        t.set_now(Nanos::from_secs(1));
        t.emit_with(0, || panic!("closure must not run when disabled"));
        assert!(!t.is_enabled());
        assert_eq!(t.len(), 0);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut t = Tracer::enabled(3);
        for i in 0..5u64 {
            t.set_now(Nanos::from_nanos(i));
            t.emit_with(0, || milestone("tick"));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        // Oldest survivor is the third emission (seq 2).
        assert_eq!(t.events().next().unwrap().seq, 2);
        assert_eq!(t.events().last().unwrap().at, Nanos::from_nanos(4));
    }

    #[test]
    fn seq_ids_are_deterministic_and_dense() {
        let mut t = Tracer::enabled(16);
        for _ in 0..4 {
            t.emit_with(1, || milestone("m"));
        }
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn milestones_bound_an_emission_window() {
        let mut t = Tracer::enabled(16);
        t.set_now(Nanos::from_micros(1));
        t.emit_with(1, || milestone("kill"));
        t.set_now(Nanos::from_micros(2));
        t.emit_with(2, || EventKind::Notify {
            to_dom: 1,
            port: 4,
            outcome: NotifyOutcome::Delivered,
            cost: Nanos::from_nanos(700),
        });
        t.set_now(Nanos::from_micros(5));
        t.emit_with(1, || milestone("reconnect"));
        assert_eq!(t.events().count(), 3);
        assert_eq!(t.events().filter(|e| e.dom == 1).count(), 2);
        let kill = t.milestone("kill").unwrap().seq;
        let rec = t.milestone("reconnect").unwrap().seq;
        assert_eq!(
            t.span_between("kill", "reconnect"),
            Some(Nanos::from_micros(4))
        );
        let between: Vec<u16> = t
            .events()
            .filter(|e| kill < e.seq && e.seq < rec)
            .filter_map(|e| match e.kind {
                EventKind::Notify { to_dom, .. } => Some(to_dom),
                _ => None,
            })
            .collect();
        assert_eq!(between, [1]);
    }

    #[test]
    fn span_between_edge_cases_return_none() {
        let mut t = Tracer::enabled(16);
        t.set_now(Nanos::from_micros(1));
        t.emit_with(0, || milestone("kill"));
        t.set_now(Nanos::from_micros(3));
        t.emit_with(0, || milestone("detect"));
        // Missing start milestone.
        assert_eq!(t.span_between("nonesuch", "detect"), None);
        // Missing end milestone.
        assert_eq!(t.span_between("kill", "nonesuch"), None);
        // End emitted before start: span_between only looks forward in
        // emission order, so the reversed query finds nothing.
        assert_eq!(t.span_between("detect", "kill"), None);
        // Empty tracer: no milestones at all.
        let empty = Tracer::enabled(4);
        assert_eq!(empty.span_between("kill", "detect"), None);
        // Sanity: the forward query still works.
        assert_eq!(
            t.span_between("kill", "detect"),
            Some(Nanos::from_micros(2))
        );
    }

    #[test]
    fn enable_is_idempotent() {
        let mut t = Tracer::enabled(8);
        t.emit_with(0, || milestone("once"));
        t.enable(2);
        assert_eq!(t.len(), 1, "re-enable keeps events and capacity");
        t.emit_with(0, || milestone("twice"));
        t.emit_with(0, || milestone("thrice"));
        assert_eq!(t.dropped(), 0, "original capacity of 8 still in force");
    }
}
