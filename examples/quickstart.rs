//! Quickstart: boot a Kite network driver domain, connect a guest, and
//! push one request/response through the whole PV path.
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- --trace out.json
//! cargo run --release --example quickstart -- --queues 4 --trace out.json
//! cargo run --release --example quickstart -- --bulk
//! ```
//!
//! With `--trace <path>`, the run records every hypercall, notify,
//! xenbus transition and ring drain, and exports a Chrome-trace JSON
//! (open it at <https://ui.perfetto.dev>). With `--queues <n>`, the
//! vif pair negotiates `n` queues on an `n`-vCPU driver domain and the
//! trace shows one ring-drain track per queue. The pair negotiates
//! `feature-gso-tcpv4` either way; with `--bulk` the echo payload grows
//! to a 40KB super-frame, and the snapshot shows the descriptor chains
//! that carried it.

use std::cell::RefCell;
use std::rc::Rc;

use kite::sim::Nanos;
use kite::system::{addrs, scenario, BackendOs, Side, SystemConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).expect("--trace needs a path").clone());
    let queues: u32 = args
        .iter()
        .position(|a| a == "--queues")
        .map(|i| {
            args.get(i + 1)
                .expect("--queues needs a count")
                .parse()
                .expect("--queues takes a number")
        })
        .unwrap_or(1);
    let bulk = args.iter().any(|a| a == "--bulk");

    // One call assembles the paper's Figure 2: Dom0, a Kite driver domain
    // with the NIC passed through, a 22-vCPU guest with netfront, and an
    // external client — with the xenbus handshake already at Connected.
    let mut cfg = SystemConfig::new(BackendOs::Kite, /* seed */ 42).queues(queues);
    if trace_path.is_some() {
        cfg = cfg.tracing(kite::trace::DEFAULT_CAPACITY);
    }
    let mut sys = cfg.build_net();

    // The guest runs a tiny echo server.
    sys.set_guest_app(scenario::echo_server(Nanos::from_micros(5)));

    // The client prints what comes back.
    let echoed = Rc::new(RefCell::new(Vec::new()));
    let sink = echoed.clone();
    sys.set_client_app(Box::new(move |now, msg| {
        sink.borrow_mut().push((now, msg.payload.len()));
        Vec::new()
    }));

    // Send one message per flow and run the event loop to quiescence.
    // Multi-queue runs use several flows per queue (distinct source
    // ports) so Toeplitz steering lands traffic on every ring.
    let flows: u16 = if queues <= 1 { 1 } else { queues as u16 * 8 };
    // Offload is negotiated, so a 40KB payload rides the rings as one
    // descriptor chain each way instead of ~28 MTU-sized slots.
    let payload: Vec<u8> = if bulk {
        (0..40_000u32).map(|i| i as u8).collect()
    } else {
        b"hello through the driver domain".to_vec()
    };
    for f in 0..flows {
        sys.send_udp_at(
            Nanos::from_millis(1 + u64::from(f)),
            Side::Client,
            addrs::GUEST,
            7,
            40000 + f,
            payload.clone(),
        );
    }
    sys.run_to_quiescence();

    let echoed = echoed.borrow();
    for (t, len) in echoed.iter() {
        println!(
            "echo at {t}: {len} bytes (round trip {})",
            *t - Nanos::from_millis(1)
        );
    }
    // All reporting goes through the shared snapshot rendering.
    let mut snap = sys.metrics_snapshot("quickstart/echo");
    snap.push_int("queues", "count", sys.queue_count() as u64);
    snap.push_int("echo_replies", "count", echoed.len() as u64);
    snap.push_int("gso_negotiated", "bool", u64::from(sys.gso_negotiated()));
    snap.push_int(
        "driver_hypercalls",
        "count",
        sys.hv.meter(sys.driver_domain()).total_count(),
    );
    print!("{}", snap.render_text());
    assert_eq!(echoed.len(), flows as usize, "every echo must arrive");
    if bulk {
        let nb = sys.netback_stats();
        assert!(
            nb.gso_tx_frames > 0 && nb.lro_rx_frames > 0,
            "a bulk payload must cross as super-frames both ways"
        );
    }

    if let Some(path) = trace_path {
        let doc = sys.hv.export_chrome_trace();
        let events = kite::trace::chrome::validate(&doc).expect("trace must validate");
        // One `<domain>/q<k>` track per negotiated queue; a single-queue
        // driver domain stays on its own track.
        let dd = sys.driver_domain();
        let name = &sys.hv.domains.get(dd).expect("driver domain").name;
        let n = sys.queue_count();
        let tracks: Vec<String> = (0..n)
            .filter(|_| n > 1)
            .map(|k| format!("\"name\":\"{name}/q{k} (dom {})\"", dd.0))
            .collect();
        let named = doc.matches(&format!("\"name\":\"{name}/q")).count();
        assert_eq!(named, tracks.len(), "one track per negotiated queue");
        for t in &tracks {
            assert_eq!(doc.matches(t.as_str()).count(), 1, "{t}");
        }
        std::fs::write(&path, &doc).expect("write trace");
        println!("wrote Chrome trace to {path} ({events} events)");
    }
}
