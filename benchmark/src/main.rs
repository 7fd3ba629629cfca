//! Two-clock benchmark for the Kite reproduction.
//!
//! `kite-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1]`
//! runs one workload in one process on one thread and prints every metric
//! by name with its unit; the last line of standard output is one JSON
//! object. `--trace 0` measures the end-to-end metrics with profiling,
//! request tracing and allocation counting off in the timed window;
//! `--trace 1` adds the traced repetitions, the layer micro-drivers and
//! the paper-fidelity rows and reports the per-layer metrics.
//!
//! See `benchmark/README.md` for what each number means and why the
//! wall-clock estimator is the *fastest* repetition.

mod alloc;
mod harness;
mod layers;
mod perlayer;
mod rep;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rep::{note, quantile, Rep};
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 7u64, 20.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::ALL
                        .iter()
                        .find(|w| w.name == val)
                        .ok_or_else(bad)?,
                )
            }
            "--seed" => seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is one of {}", names.join(", ")))?,
        seed,
        seconds,
        trace,
    })
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The wall-clock estimator: the fastest time each segment of the
/// repetition took in any repetition, summed.
///
/// Repetitions are identical, segment by segment (`Rep::segments`, plus
/// one tail segment for the harness's checks and the teardown), so the
/// k-th segment does the same work every time and its fastest reading is
/// the one least disturbed. Host noise here comes in bursts of tens of
/// milliseconds on top of multi-second plateaus; a ~100 ms repetition
/// rarely escapes every burst, a ~1 ms segment often does, and over a
/// couple of hundred repetitions every segment gets a clean reading. The
/// sum is what an undisturbed repetition would take. (It is at most the
/// fastest whole repetition; both are printed.)
#[derive(Default)]
pub struct Fastest {
    segments: Vec<Duration>,
}

impl Fastest {
    /// Folds in one repetition that took `wall` in all. Returns false if
    /// its segment count differs from the earlier ones' — repetitions are
    /// then not identical, which is a determinism bug.
    pub fn absorb(&mut self, r: &Rep, wall: Duration) -> bool {
        let tail = wall.saturating_sub(r.segments.iter().sum());
        let segs = r.segments.iter().copied().chain([tail]);
        if self.segments.is_empty() {
            self.segments = segs.collect();
            return true;
        }
        if self.segments.len() != r.segments.len() + 1 {
            return false;
        }
        for (best, s) in self.segments.iter_mut().zip(segs) {
            *best = (*best).min(s);
        }
        true
    }

    pub fn total(&self) -> Duration {
        self.segments.iter().sum()
    }

    /// Fastest set-up: `SystemConfig::new` to the first `run_until`.
    fn setup(&self) -> Duration {
        self.segments.first().copied().unwrap_or_default()
    }
}

/// Everything the untraced part of a run measured.
#[derive(Default)]
pub struct Measured {
    /// The counted repetition: every `sim_*` number comes from here.
    pub counted: Rep,
    digest: u64,
    allocs: u64,
    alloc_bytes: u64,
    pub cold_build: Duration,
    /// Wall time of each whole repetition in the timed window, ascending.
    pub walls: Vec<Duration>,
    pub fastest: Fastest,
    rss_mib: f64,
    /// Totals over every repetition run so far.
    attempted: u64,
    failed: u64,
    pub errors: Vec<String>,
}

impl Measured {
    /// Folds one more repetition into the totals and checks it against
    /// the counted one: same seed, same code, so any difference in the
    /// digest is a harness or determinism bug.
    pub fn absorb(&mut self, what: &str, r: &Rep) {
        self.attempted += r.attempted;
        self.failed += r.failed();
        for e in &r.errors {
            note(&mut self.errors, format!("{what}: {e}"));
        }
        if r.digest() != self.digest {
            note(
                &mut self.errors,
                format!(
                    "{what}: sim_digest {:016x} != {:016x}",
                    r.digest(),
                    self.digest
                ),
            );
        }
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one repetition and times all of it: build, inject, run, the
/// harness's own checks, and tearing the system down again.
pub fn timed(rep: impl FnOnce() -> Rep) -> (Rep, Duration) {
    let t = Instant::now();
    let r = rep();
    (r, t.elapsed())
}

fn measure(w: &Workload, seed: u64, window: Duration) -> Measured {
    // Cold repetition: its build span is the one cold build this process
    // can time; the rest of it warms allocator and page tables (a page
    // fault costs tens of µs here, so timing it would measure the kernel).
    let cold = (w.rep)(seed, false);
    let (counted, allocs, alloc_bytes) = alloc::counted(|| (w.rep)(seed, false));
    let mut me = Measured {
        digest: counted.digest(),
        allocs,
        alloc_bytes,
        cold_build: cold.spans.build,
        ..Measured::default()
    };
    me.absorb("cold repetition", &cold);
    me.absorb("counted repetition", &counted);
    me.counted = counted;
    let start = Instant::now();
    while start.elapsed() < window {
        let (r, wall) = timed(|| (w.rep)(seed, false));
        me.absorb("timed repetition", &r);
        me.walls.push(wall);
        if !me.fastest.absorb(&r, wall) {
            note(
                &mut me.errors,
                format!(
                    "timed repetition ran {} segments, not the usual",
                    r.segments.len()
                ),
            );
        }
    }
    me.walls.sort();
    me.rss_mib = peak_rss_mib();
    me
}

fn end_to_end(w: &Workload, me: &Measured) -> Vec<Metric> {
    let r = &me.counted;
    let virt_s = r.virt_elapsed().as_secs_f64();
    let mut lat = r.lat_ns.clone();
    lat.sort_unstable();
    let ops = w.ops as f64;
    vec![
        m(
            "sim_goodput_gbps",
            r.payload_bytes as f64 * 8.0 / virt_s / 1e9,
            "Gbit/s",
        ),
        m("sim_kops_per_s", r.completed as f64 / virt_s / 1e3, "kop/s"),
        m("sim_lat_p50_us", quantile(&lat, 0.50) as f64 / 1e3, "us"),
        m("sim_lat_p99_us", quantile(&lat, 0.99) as f64 / 1e3, "us"),
        m(
            "sim_ok_pct",
            100.0 * r.completed as f64 / r.attempted as f64,
            "%",
        ),
        m(
            "host_ops_per_s",
            ops / me.fastest.total().as_secs_f64(),
            "op/s",
        ),
        m("host_allocs_per_op", me.allocs as f64 / ops, "count"),
        m(
            "host_alloc_bytes_per_op",
            me.alloc_bytes as f64 / ops,
            "bytes",
        ),
        m("host_peak_rss_mib", me.rss_mib, "MiB"),
        m("setup_s", me.fastest.setup().as_secs_f64(), "s"),
    ]
}

fn print_header(a: &Args) {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let par = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# kite-benchmark workload={} seed={} seconds={} trace={} nproc={nproc} available_parallelism={par} threads=1",
        a.workload.name, a.seed, a.seconds, a.trace as u8
    );
    println!(
        "# The four workloads are unvalidated extrapolations beyond the paper's 10GbE \
         single-queue hardware; paper fidelity is reported separately (workloads.fig*)."
    );
}

fn print_noise(w: &Workload, me: &Measured) {
    let r = &me.counted;
    let n = me.walls.len();
    println!(
        "# {}: {} {}s per repetition, {} latency samples ({} beyond p99); generator lateness 0 ns \
         (every send is scheduled at its due virtual time)",
        w.name,
        w.ops,
        w.op,
        r.lat_ns.len(),
        r.lat_ns.len() / 100,
    );
    println!(
        "# sim_fail_pct {:.4} ({} of {} in the counted repetition; {} guest-sent datagrams reordered \
         inside the guest model, counted not failed)   sim_digest {:016x}",
        100.0 * r.failed() as f64 / r.attempted as f64,
        r.failed(),
        r.attempted,
        r.counter("guest_sent_reordered"),
        me.digest
    );
    println!(
        "# repetitions {n}: sum of fastest segments {:.3} ms ({} segments); whole repetition fastest {:.3} ms, \
         p5 {:.3} ms, median {:.3} ms, p50/min {:.3}; set-up fastest {:.1} us; cold build {:.3} ms",
        me.fastest.total().as_secs_f64() * 1e3,
        me.fastest.segments.len(),
        me.walls[0].as_secs_f64() * 1e3,
        quantile(&me.walls, 0.05).as_secs_f64() * 1e3,
        quantile(&me.walls, 0.50).as_secs_f64() * 1e3,
        quantile(&me.walls, 0.50).as_secs_f64() / me.walls[0].as_secs_f64(),
        me.fastest.setup().as_secs_f64() * 1e6,
        me.cold_build.as_secs_f64() * 1e3,
    );
    if n < 50 {
        println!(
            "# WARNING: only {n} repetitions fit the window (want >= 50); timings are less robust"
        );
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for x in metrics {
        println!("  {:<48} {:>18.6} {}", x.name, x.value, x.unit);
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kite-benchmark: {e}");
            eprintln!("usage: kite-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    print_header(&args);
    let w = args.workload;
    // A traced run splits its budget: 35 % untraced window, 15 % traced
    // repetitions alternating with untraced ones, 40 % layer
    // micro-drivers; the fidelity rows and the fixed repetitions take the
    // rest.
    let share = |f: f64| Duration::from_secs_f64(args.seconds * f);
    let mut me = measure(w, args.seed, share(if args.trace { 0.35 } else { 1.0 }));
    print_noise(w, &me);
    let e2e = end_to_end(w, &me);
    print_metrics("end-to-end:", &e2e);
    let metrics = if args.trace {
        let tr = perlayer::traced(w, args.seed, share(0.15), &mut me);
        let stages = tr.last.stages.unwrap_or_default();
        let s = tr.last.spans;
        println!(
            "# traced: {} repetitions, fastest {:.3} ms, {} stage samples per repetition; harness spans of \
             the last: build {:.3} ms, inject {:.3} ms, run {:.3} ms, collect {:.3} ms",
            tr.reps,
            tr.fastest.total().as_secs_f64() * 1e3,
            stages.samples,
            s.build.as_secs_f64() * 1e3,
            s.inject.as_secs_f64() * 1e3,
            s.run.as_secs_f64() * 1e3,
            s.collect.as_secs_f64() * 1e3,
        );
        let mut per_layer = perlayer::per_layer(w, &me, &tr);
        per_layer.extend(layers::run(args.seed, share(0.4)));
        per_layer.extend(perlayer::fidelity(args.seed));
        print_metrics("per-layer:", &per_layer);
        per_layer
    } else {
        e2e
    };
    for e in &me.errors {
        eprintln!("kite-benchmark: CHECK FAILED: {e}");
    }
    let correct = me.errors.is_empty();
    println!("{}", json_line(correct, me.attempted, me.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
