//! Recovery with tracing: a driver-domain crash mid-stream, recorded as
//! structured events and exported as a Chrome-trace JSON with one track
//! per domain, covering the whole kill → detect → reboot → reconnect →
//! first-byte window. The run validates its own export (parses, zero
//! dropped events, monotonic timestamps per track) and asserts the
//! recovery milestones appear in causal order.
//!
//! ```text
//! cargo run --release --example recovery_trace            # temp-dir output
//! cargo run --release --example recovery_trace -- out.json
//! ```
//!
//! Open the file at <https://ui.perfetto.dev>.

use kite::sim::Nanos;
use kite::system::{scenario, BackendOs, Fault, SystemConfig};
use kite::trace::DEFAULT_CAPACITY;

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| {
        std::env::temp_dir()
            .join("kite_recovery_trace.json")
            .to_string_lossy()
            .into_owned()
    });

    let mut sys = SystemConfig::new(BackendOs::Kite, 11)
        .tracing(DEFAULT_CAPACITY)
        .build_net();
    // 30 s of guest→client traffic at 4 msg/s, driver killed at 2 s.
    scenario::steady_stream(&mut sys, 120, 1, 1400, Nanos::from_millis(250));
    sys.fault_at(Nanos::from_secs(2), Fault::Kill);
    sys.run_to_quiescence();

    // The trace must hold the full recovery story, in causal order.
    let seq_of = |what: &str| {
        sys.hv
            .trace
            .milestone(what)
            .unwrap_or_else(|| panic!("milestone {what:?} missing"))
            .seq
    };
    let (kill, detect, reboot, reconnect, first_byte) = (
        seq_of("kill"),
        seq_of("detect"),
        seq_of("reboot"),
        seq_of("reconnect"),
        seq_of("first_byte"),
    );
    assert!(
        kill < detect && detect < reboot && reboot < reconnect && reconnect < first_byte,
        "milestones out of order: {kill} {detect} {reboot} {reconnect} {first_byte}"
    );
    assert_eq!(sys.hv.trace.dropped(), 0, "trace ring must not overflow");
    let outage = sys
        .hv
        .trace
        .span_between("kill", "first_byte")
        .expect("span");

    let doc = sys.hv.export_chrome_trace();
    let events = kite::trace::chrome::validate(&doc).expect("export must validate");
    std::fs::write(&out, &doc).expect("write trace");

    let mut snap = sys.metrics_snapshot("recovery_trace/kite");
    snap.push_int("trace_events", "count", events as u64);
    snap.push_int("kill_to_first_byte", "ns", outage.as_nanos());
    print!("{}", snap.render_text());
    println!("wrote Chrome trace to {out}");
}
