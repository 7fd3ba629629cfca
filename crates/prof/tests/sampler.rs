//! The `SIGPROF` sampler against real CPU time, in a process of its own
//! so that no other test's spans or timer share it.

use kite_prof::{self as prof, Phase};

/// Spins `units` fixed slices of integer work under `phase`.
fn spin(phase: Phase, units: u64) {
    let _g = prof::span(phase);
    let mut x = 1u64;
    for i in 0..units * 1_000_000 {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    std::hint::black_box(x);
}

/// The timer really interrupts the thread and books what it finds on
/// top of the stack: two phases whose work is split 1 : 3 by iteration
/// count, about a second of CPU in all, read 2–4.5× apart (≈3.0 on a
/// 2-vCPU VM with a 4 ms kernel tick). Samples land on kernel ticks, so
/// the split is run in two long blocks, not interleaved finely. Release
/// only, like every test that depends on the host's timing.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn samples_split_like_the_cpu_time() {
    prof::enable();
    prof::reset();
    spin(Phase::BlkbackSubmit, 150);
    spin(Phase::BlkbackReap, 450);
    let report = prof::report();
    prof::disable();
    prof::reset();
    let sampled = |p: Phase| {
        let row = report.rows.iter().find(|r| r.phase == p);
        row.map_or(0, |r| r.sampled)
    };
    let (light, heavy) = (sampled(Phase::BlkbackSubmit), sampled(Phase::BlkbackReap));
    assert!(
        light > 0 && 2 * light <= heavy && 2 * heavy <= 9 * light,
        "1 : 3 of the CPU read {light} : {heavy} samples"
    );
}
