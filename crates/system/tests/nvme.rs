//! NVMe queue-pair API: determinism and cursor isolation.
//!
//! 1. A same-seed 4-ring storage run is byte-identical — trace document
//!    and metrics — across the heap and wheel scheduler backends.
//! 2. Per-queue sequential cursors are isolated: a strictly sequential
//!    stream on one queue never pays the random penalty because another
//!    queue writes elsewhere.
//! 3. When the controller caps out of queue pairs, rings share one and
//!    the system still completes and verifies every byte.

use std::cell::RefCell;
use std::rc::Rc;

use kite_devices::{NvmeCmd, NvmeController, NvmeProfile};
use kite_sim::{Nanos, Pcg, SchedulerKind};
use kite_system::{BackendOs, IoKind, IoOp, StorSystem, SystemConfig};

/// The echo workload every storage test below reuses: four sequential
/// write streams in distinct regions, interleaved round-robin, then a
/// read-back of the first stream's head.
fn submit_streams(sys: &mut StorSystem, per_stream: u64) {
    const CHUNK: usize = 8 * 1024;
    let mut t = Nanos::from_micros(100);
    for i in 0..(4 * per_stream) {
        let stream = i % 4;
        let idx = i / 4;
        sys.submit_at(
            t,
            IoOp {
                tag: i,
                kind: IoKind::Write {
                    sector: stream * (1 << 20) + idx * (CHUNK / 512) as u64,
                    data: vec![(i % 251) as u8; CHUNK],
                },
            },
        );
        t += Nanos::from_micros(2);
    }
}

#[test]
fn four_ring_storage_run_is_byte_identical_across_backends() {
    let run = |kind: SchedulerKind| {
        let mut sys = SystemConfig::new(BackendOs::Kite, 42)
            .queues(4)
            .scheduler(kind)
            .tracing(1 << 17)
            .build_stor();
        submit_streams(&mut sys, 16);
        sys.run_to_quiescence();
        assert_eq!(sys.hv.trace.dropped(), 0, "trace ring overflowed");
        assert_eq!(sys.metrics.ios, 64, "{kind:?}: all writes completed");
        (
            sys.now().as_nanos(),
            sys.metrics.ios,
            sys.metrics.write_bytes,
            sys.nvme.seq_hits(),
            sys.nvme.random_penalties(),
            sys.hv.export_chrome_trace(),
        )
    };
    let heap = run(SchedulerKind::Heap);
    let wheel = run(SchedulerKind::Wheel);
    assert_eq!(heap.0, wheel.0, "virtual end time");
    assert_eq!(
        (heap.1, heap.2, heap.3, heap.4),
        (wheel.1, wheel.2, wheel.3, wheel.4),
        "metrics and device counters"
    );
    assert_eq!(heap.5, wheel.5, "trace documents differ between backends");
}

#[test]
fn sequential_cursor_is_immune_to_traffic_on_other_queues() {
    for seed in 0..16u64 {
        let mut rng = Pcg::seeded(seed ^ 0x5eed);
        let mut d = NvmeController::with_profile(4, NvmeProfile::default());
        let qa = d.create_io_queues(0).expect("queue A");
        let qb = d.create_io_queues(1).expect("queue B");
        let mut now = Nanos::from_micros(10);
        let mut sector = 0u64;
        for i in 0..48 {
            // Noise on queue B at a random far-away sector.
            d.sq_push(
                qb,
                NvmeCmd::write((1 << 22) + rng.index(1 << 20) as u64, 4096),
            );
            d.ring_doorbell(qb, now);
            let before = d.random_penalties();
            // Strictly sequential stream on queue A.
            d.sq_push(qa, NvmeCmd::write(sector, 8192));
            d.ring_doorbell(qa, now);
            sector += 16;
            let penalty_paid = d.random_penalties() - before;
            if i == 0 {
                assert_eq!(
                    penalty_paid, 1,
                    "seed {seed}: first command seeds the cursor"
                );
            } else {
                assert_eq!(
                    penalty_paid, 0,
                    "seed {seed}: sequential stream on queue A paid a random \
                     penalty because queue B wrote elsewhere (iteration {i})"
                );
            }
            while d.cq_pop(qa, Nanos::from_secs(10)).is_some() {}
            while d.cq_pop(qb, Nanos::from_secs(10)).is_some() {}
            now += Nanos::from_micros(5);
        }
    }
}

#[test]
fn rings_share_queue_pairs_when_the_controller_caps_out() {
    let mut sys = SystemConfig::new(BackendOs::Kite, 7)
        .queues(4)
        .nvme_max_io_queues(1)
        .build_stor();
    submit_streams(&mut sys, 8);
    sys.run_to_quiescence();
    assert_eq!(
        sys.metrics.ios, 32,
        "all writes completed through one queue"
    );
    assert_eq!(sys.nvme.io_queue_count(), 1, "controller enforced its cap");
    assert_eq!(sys.outstanding(), 0);

    // Read back one stream's head through the shared queue and check
    // the bytes survived the fan-in.
    let read_back: Rc<RefCell<Option<Vec<u8>>>> = Rc::new(RefCell::new(None));
    let rb = read_back.clone();
    sys.set_handler(Box::new(move |_, done| {
        if done.tag == 1000 {
            *rb.borrow_mut() = done.data.clone();
        }
        Vec::new()
    }));
    sys.submit_at(
        sys.now() + Nanos::from_millis(1),
        IoOp {
            tag: 1000,
            kind: IoKind::Read {
                sector: 1 << 20,
                len: 8 * 1024,
            },
        },
    );
    sys.run_to_quiescence();
    let rb = read_back.borrow();
    // Stream 1's first chunk was tag 1: fill byte 1 % 251.
    assert_eq!(rb.as_deref(), Some(vec![1u8; 8 * 1024].as_slice()));
}

#[test]
fn flush_goes_through_the_queue_pair_path() {
    let mut sys = SystemConfig::new(BackendOs::Kite, 3).queues(2).build_stor();
    sys.set_handler(Box::new(|_, done| {
        assert!(done.ok);
        if done.tag == 1 {
            vec![IoOp {
                tag: 2,
                kind: IoKind::Flush,
            }]
        } else {
            Vec::new()
        }
    }));
    sys.submit_at(
        Nanos::from_millis(1),
        IoOp {
            tag: 1,
            kind: IoKind::Write {
                sector: 64,
                data: vec![9u8; 32 * 1024],
            },
        },
    );
    sys.run_to_quiescence();
    assert_eq!(sys.metrics.ios, 2);
    assert_eq!(sys.outstanding(), 0);
}
