//! The experiment registry: one entry per paper table/figure.

use kite_security as sec;
use kite_sim::OnlineStats;
use kite_system::BackendOs;
use kite_workloads as wl;

/// One runnable experiment.
pub struct Experiment {
    /// Short id (`fig7`, `table3`, …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Runs and prints the experiment.
    pub run: fn(),
}

/// All experiments in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig1a",
            title: "Driver CVEs per year (context data)",
            run: fig1a,
        },
        Experiment {
            id: "fig5",
            title: "ROP gadgets by category (also Fig 1b totals)",
            run: fig5,
        },
        Experiment {
            id: "table1",
            title: "Lines of code of Kite components",
            run: table1,
        },
        Experiment {
            id: "table3",
            title: "CVEs prevented by syscall removal",
            run: table3,
        },
        Experiment {
            id: "fig4",
            title: "Syscall count, image size, boot time",
            run: fig4,
        },
        Experiment {
            id: "fig6",
            title: "nuttcp UDP throughput + loss",
            run: fig6,
        },
        Experiment {
            id: "fig7",
            title: "Network latency: ping / Netperf / memtier",
            run: fig7,
        },
        Experiment {
            id: "fig8",
            title: "Apache throughput (file-size sweep + 512KB detail)",
            run: fig8,
        },
        Experiment {
            id: "fig9",
            title: "Redis pipelined SET/GET",
            run: fig9,
        },
        Experiment {
            id: "fig10",
            title: "MySQL network-bound (throughput + DomU CPU)",
            run: fig10,
        },
        Experiment {
            id: "table4",
            title: "Relative standard deviations",
            run: table4,
        },
        Experiment {
            id: "fig11",
            title: "dd sequential storage throughput",
            run: fig11,
        },
        Experiment {
            id: "fig12",
            title: "SysBench file I/O (threads + block-size sweeps)",
            run: fig12,
        },
        Experiment {
            id: "fig13",
            title: "MySQL storage-bound",
            run: fig13,
        },
        Experiment {
            id: "fig14",
            title: "Filebench fileserver (I/O-size sweep)",
            run: fig14,
        },
        Experiment {
            id: "fig15",
            title: "Filebench MongoDB profile",
            run: fig15,
        },
        Experiment {
            id: "fig16",
            title: "Filebench webserver",
            run: fig16,
        },
        Experiment {
            id: "dhcp",
            title: "§5.5 daemon VM: perfdhcp DORA latency",
            run: dhcp,
        },
        Experiment {
            id: "mem",
            title: "Driver-domain memory footprint (§1's motivation)",
            run: mem,
        },
    ]
}

fn fig1a() {
    println!(
        "{:>6} {:>14} {:>16}",
        "year", "linux drivers", "windows drivers"
    );
    for (y, l, w) in sec::driver_cves_by_year() {
        println!("{y:>6} {l:>14} {w:>16}");
    }
    println!("(paper: counts rise steeply across the window — shape identical)");
}

fn fig5() {
    println!(
        "scanning {} B of real x86-64 .text once, scaled to each OS's text size...",
        sec::gadgets::FIXTURE.len()
    );
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "os", "total", "datamove", "arith", "ctrlflow", "ret"
    );
    let profiles = sec::figure5_profiles();
    let counts = sec::analyze(&profiles);
    for (p, c) in profiles.iter().zip(&counts) {
        println!(
            "{:<10} {:>12} {:>10} {:>10} {:>10} {:>10}",
            p.name,
            c.total(),
            c.get(sec::Category::DataMove),
            c.get(sec::Category::Arithmetic),
            c.get(sec::Category::ControlFlow),
            c.get(sec::Category::Ret),
        );
    }
    let kite = counts[0].total() as f64;
    println!(
        "ratios vs Kite: default {:.1}x (paper ≈4x), Ubuntu {:.1}x (paper ≈11x)",
        counts[1].total() as f64 / kite,
        counts[5].total() as f64 / kite
    );
}

fn table1() {
    // Our analogous components, counted from the source tree at build time
    // is overkill; report the paper's numbers beside our module map.
    println!("paper component        paper LoC   this reproduction");
    println!("Blkback                     1904   kite-core::blkback");
    println!("Netback                     2791   kite-core::netback");
    println!("HVM extension               1100   kite-xen::xenstore/xenbus + kite-core::backend");
    println!("Configuration                450   kite-core::{{netapp, blockapp}}");
    println!("Utilities                    222   kite-net::bridge as called by kite-core::netapp");
    println!("Daemon VM                     16   kite-core::dhcpd (full server here)");
}

fn table3() {
    let cves = sec::table3_cves();
    let kite = sec::DomainSurface::kite_network();
    let kite_st = sec::DomainSurface::kite_storage();
    let ubuntu = sec::DomainSurface::ubuntu();
    println!(
        "{:<16} {:>6} {:>8} {:>8}",
        "CVE", "kite", "kite-st", "ubuntu"
    );
    for c in &cves {
        println!(
            "{:<16} {:>6} {:>8} {:>8}",
            c.id,
            if kite.mitigates(c) { "safe" } else { "HIT" },
            if kite_st.mitigates(c) { "safe" } else { "HIT" },
            if ubuntu.mitigates(c) { "safe" } else { "HIT" },
        );
    }
    println!(
        "kite mitigates {}/11, ubuntu {}/11 (paper: all 11 vs ~0)",
        kite.mitigated(&cves).len(),
        ubuntu.mitigated(&cves).len()
    );
    for c in sec::environment_cves() {
        println!(
            "{:<16} {:>6} {:>8} {:>8}  (toolstack class)",
            c.id,
            if kite.mitigates(&c) { "safe" } else { "HIT" },
            if kite_st.mitigates(&c) { "safe" } else { "HIT" },
            if ubuntu.mitigates(&c) { "safe" } else { "HIT" },
        );
    }
}

fn fig4() {
    println!(
        "{:<16} {:>10} {:>12} {:>10} {:>12}",
        "domain", "syscalls", "image MiB", "boot s", "CVEs fixed"
    );
    for row in sec::surface_report() {
        println!(
            "{:<16} {:>10} {:>12.1} {:>10.1} {:>9}/11",
            row.name,
            row.syscalls,
            row.image_bytes as f64 / (1024.0 * 1024.0),
            row.boot_secs,
            row.cves_mitigated
        );
    }
    println!("(paper: 14/18 vs 171 syscalls; ~10x image; 7s vs 75s boot)");
}

fn fig6() {
    println!(
        "{:<8} {:>14} {:>10} {:>12}",
        "os", "goodput Gbps", "loss %", "driver CPU %"
    );
    for os in BackendOs::both() {
        let r = wl::nuttcp::run(os, &wl::nuttcp::NuttcpParams::default(), 0);
        println!(
            "{:<8} {:>14.2} {:>10.2} {:>12.1}",
            os.name(),
            r.goodput_gbps,
            r.loss * 100.0,
            r.driver_cpu
        );
    }
    println!("(paper: ≈7 Gbps, <1.5% loss for both)");
}

fn fig7() {
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "os", "ping ms", "ping p99", "netperf ms", "netperf p99", "memtier ms"
    );
    for os in BackendOs::both() {
        let r = wl::latency::figure7(os);
        println!(
            "{:<8} {:>10.2} {:>10.2} {:>12.2} {:>12.2} {:>12.2}",
            os.name(),
            r.ping.mean_ms,
            r.ping.p99_ms,
            r.netperf.mean_ms,
            r.netperf.p99_ms,
            r.memtier.mean_ms
        );
    }
    println!("(paper: ping 0.51/0.31, netperf 0.18/0.10, memtier 0.16/0.15)");
}

fn fig8() {
    println!("-- Fig 8a: server throughput vs file size (MB/s) --");
    print!("{:<8}", "os");
    for sz in wl::apache::FIG8A_SIZES {
        print!("{:>10}", human(sz));
    }
    println!();
    for os in BackendOs::both() {
        print!("{:<8}", os.name());
        for r in wl::apache::figure8a(os, 1200) {
            print!("{:>10.0}", r.throughput_mbps);
        }
        println!();
    }
    println!("-- Fig 8b: 512KB file, 40 concurrent --");
    println!(
        "{:<8} {:>12} {:>10} {:>12} {:>10}",
        "os", "MB/s", "time s", "req/s", "lat ms"
    );
    for os in BackendOs::both() {
        let r = wl::apache::run(os, 524_288, 2000, 40);
        println!(
            "{:<8} {:>12.1} {:>10.3} {:>12.0} {:>10.2}",
            os.name(),
            r.throughput_mbps,
            r.time_secs,
            r.requests_per_sec,
            r.latency_ms
        );
    }
}

fn fig9() {
    println!(
        "{:<8} {:>8} {:>14} {:>14}",
        "os", "threads", "SET ops/s", "GET ops/s"
    );
    for os in BackendOs::both() {
        for r in wl::redis::figure9(os, 8000) {
            println!(
                "{:<8} {:>8} {:>14.0} {:>14.0}",
                os.name(),
                r.threads,
                r.set_ops_per_sec,
                r.get_ops_per_sec
            );
        }
    }
    println!("(paper: flat across threads, Kite ≈ Linux, log-scale)");
}

fn fig10() {
    println!(
        "{:<8} {:>8} {:>10} {:>14}",
        "os", "threads", "tps", "DomU CPU %"
    );
    for os in BackendOs::both() {
        for r in wl::mysql::figure10(os, 2000) {
            println!(
                "{:<8} {:>8} {:>10.0} {:>14.1}",
                os.name(),
                r.threads,
                r.tps,
                r.guest_cpu
            );
        }
    }
    println!("(paper: climbs to ~6k, Kite ≈ Linux on both panels)");
}

fn table4() {
    // RSDs over five runs of each cell. A build is a function of its
    // config and these four load generators draw no random numbers, so
    // the five runs are one input repeated, they agree and every RSD is
    // 0: Table 4 is not reproduced here.
    println!(
        "{:<10} {:>12} {:>12}",
        "benchmark", "Linux RSD %", "Kite RSD %"
    );
    let rsd = |f: &dyn Fn() -> f64| -> f64 {
        let mut s = OnlineStats::new();
        for _ in 0..5 {
            s.push(f());
        }
        s.rsd_percent()
    };
    // One run's headline number, for an OS.
    type Run = fn(BackendOs) -> f64;
    let benches: [(&str, Run); 4] = [
        ("Apache", |os| {
            wl::apache::run(os, 65536, 400, 40).throughput_mbps
        }),
        ("Redis", |os| wl::redis::run(os, 10, 3000).get_ops_per_sec),
        ("Memtier", |os| {
            wl::latency::memtier(os, 4, 600, 8192).mean()
        }),
        ("Sysbench", |os| wl::mysql::run_net(os, 20, 600).tps),
    ];
    for (name, run) in benches {
        let [linux, kite] = BackendOs::both().map(|os| rsd(&|| run(os)));
        println!("{:<10} {:>12.4} {:>12.4}", name, linux, kite);
    }
    println!("(paper: all ≤1.5%; not reproduced: the model is deterministic and these loads draw no random numbers)");
}

fn fig11() {
    println!("{:<8} {:>12} {:>12}", "os", "read MB/s", "write MB/s");
    for os in BackendOs::both() {
        let r = wl::dd::run(os, true, 128 << 20, 42);
        let w = wl::dd::run(os, false, 128 << 20, 42);
        println!("{:<8} {:>12.0} {:>12.0}", os.name(), r.mbps, w.mbps);
    }
    println!("(paper: ≈1 GB/s class, Kite ≈ Linux)");
}

fn fig12() {
    println!("-- Fig 12a: 256KB blocks, thread sweep (MB/s) --");
    print!("{:<8}", "os");
    for t in wl::fileio::FIG12A_THREADS {
        print!("{t:>8}");
    }
    println!();
    for os in BackendOs::both() {
        print!("{:<8}", os.name());
        for t in wl::fileio::FIG12A_THREADS {
            let r = wl::fileio::run(os, t, 256 * 1024, 100 + 8 * u64::from(t), 42);
            print!("{:>8.0}", r.mbps);
        }
        println!();
    }
    println!("-- Fig 12b: 20 threads, block-size sweep (MB/s) --");
    print!("{:<8}", "os");
    for b in wl::fileio::FIG12B_BLOCKS {
        print!("{:>10}", human(b));
    }
    println!();
    for os in BackendOs::both() {
        print!("{:<8}", os.name());
        for b in wl::fileio::FIG12B_BLOCKS {
            let ops = (64usize << 20) / b.max(1 << 16) + 40;
            let r = wl::fileio::run(os, 20, b, ops as u64, 43);
            print!("{:>10.0}", r.mbps);
        }
        println!();
    }
    println!("(paper: rises with both threads and block size; Kite ≥ Linux at the high end)");
}

fn fig13() {
    println!(
        "{:<8} {:>8} {:>10} {:>12}",
        "os", "threads", "tps", "read MB/s"
    );
    for os in BackendOs::both() {
        for t in [1u16, 10, 40, 100] {
            let r = wl::mysql::run_storage(os, t, 10, 42);
            println!(
                "{:<8} {:>8} {:>10.0} {:>12.1}",
                os.name(),
                r.threads,
                r.tps,
                r.read_mbps
            );
        }
    }
    println!("(paper: identical curves for Kite and Linux)");
}

fn fig14() {
    print!("{:<8}", "os");
    for b in wl::filebench::FIG14_IOSIZES {
        print!("{:>10}", human(b));
    }
    println!("  (fileserver MB/s)");
    for os in BackendOs::both() {
        print!("{:<8}", os.name());
        for b in wl::filebench::FIG14_IOSIZES {
            let ops = 400usize / (1 + b / (1 << 20)) + 60;
            let r = wl::filebench::fileserver(os, b, ops as u64, 42);
            print!("{:>10.0}", r.mbps);
        }
        println!();
    }
    println!("(paper: 200→650 MB/s rising with I/O size, Kite slightly better)");
}

fn fig15() {
    println!(
        "{:<8} {:>12} {:>10} {:>10}",
        "os", "thpt Mbps", "us/op", "lat ms"
    );
    for os in BackendOs::both() {
        let r = wl::filebench::mongodb(os, 120, 42);
        println!(
            "{:<8} {:>12.0} {:>10.0} {:>10.2}",
            os.name(),
            r.mbps * 8.0,
            r.us_per_op,
            r.latency_ms
        );
    }
    println!("(paper: Kite outperforms at low concurrency: 770 vs 700 Mbps class)");
}

fn fig16() {
    println!(
        "{:<8} {:>12} {:>10} {:>10}",
        "os", "thpt Mbps", "us/op", "lat ms"
    );
    for os in BackendOs::both() {
        let r = wl::filebench::webserver(os, 400, 42);
        println!(
            "{:<8} {:>12.0} {:>10.0} {:>10.2}",
            os.name(),
            r.mbps * 8.0,
            r.us_per_op,
            r.latency_ms
        );
    }
    println!("(paper: Kite slightly higher throughput, lower latency)");
}

fn dhcp() {
    println!(
        "{:<8} {:>18} {:>16}",
        "daemon", "discover→offer ms", "request→ack ms"
    );
    for d in [BackendOs::Kite, BackendOs::Linux] {
        let r = wl::perfdhcp::run(d, 400, 400);
        println!(
            "{:<8} {:>18.2} {:>16.2}",
            d.name(),
            r.discover_offer_ms,
            r.request_ack_ms
        );
    }
    println!("(paper: ≈0.78 and ≈0.70 ms, rumprun ≈ Linux)");
}

fn mem() {
    // The paper assigns Kite domains 1 GB vs Linux's 2 GB "since rumprun's
    // footprint is smaller". Netback moves payloads between the guest's
    // granted pages and frames it owns, so the driver domain allocates no
    // machine page for its data plane: reservation and image are the
    // footprint.
    println!("{:<8} {:>14} {:>12}", "os", "reservation", "image");
    for os in BackendOs::both() {
        let sys = kite_system::NetSystem::new(os);
        let dom = sys
            .hv
            .domains
            .get(sys.driver_domain())
            .expect("driver domain");
        let image = match os {
            BackendOs::Kite => kite_rumprun::kite_network_image(),
            BackendOs::Linux => kite_linux::ubuntu_image(),
        };
        let image_mib = image.total_bytes as f64 / (1024.0 * 1024.0);
        println!(
            "{:<8} {:>11} MiB {:>8.1} MiB",
            os.name(),
            dom.mem_mib,
            image_mib
        );
    }
    println!("(paper: 1 GB vs 2 GB reservations)");
}

fn human(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}
