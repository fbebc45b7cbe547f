//! E6 — §3.3: Coordinator scalability with fake MSUs.
//!
//! "We start two of these MSUs … and started two clients who together
//! sent 10,000 requests to the coordinator at a rate of about 60
//! requests per second. We measured the Coordinator's CPU utilization
//! at 14% and the network utilization at 6%."
//!
//! This bench runs the *real* Coordinator with real fake MSUs over
//! loopback TCP, then projects the 1996 figures with the calibrated
//! analytic model (a 2026 host measures far lower utilization than a
//! 66 MHz Pentium did, so both views are reported).

use calliope_bench::banner;
use calliope_coord::fake_msu::FakeMsu;
use calliope_coord::{CoordConfig, CoordServer};
use calliope_sim::coord_model::CoordModel;
use calliope_types::wire::messages::{ClientRequest, CoordReply};
use calliope_types::wire::{read_frame, write_frame};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn main() {
    banner("E6", "Coordinator and intra-server network load", "§3.3");

    // --- The real experiment, scaled in duration (not in rate). -----
    let total_requests: usize = if calliope_bench::quick() { 300 } else { 1800 };
    let target_rate = 60.0; // requests/second, as in the paper
    println!("running the real Coordinator + 2 fake MSUs (50 ms delay), 4 client sessions,");
    println!(
        "{total_requests} requests at ~{target_rate:.0} req/s (the paper sent 10,000 at the same rate)…"
    );

    let coord = CoordServer::start(CoordConfig::default()).expect("coordinator");
    let _m1 = FakeMsu::start(coord.msu_addr, 2, Duration::from_millis(50)).expect("fake msu 1");
    let _m2 = FakeMsu::start(coord.msu_addr, 2, Duration::from_millis(50)).expect("fake msu 2");
    while coord.msu_count() < 2 {
        std::thread::sleep(Duration::from_millis(10));
    }
    coord.stats().reset();

    // The paper's two clients evidently pipelined; our client API is
    // synchronous (each request waits out the fake MSU's 50 ms), so four
    // sessions offer the same aggregate 60 req/s.
    const WORKERS: usize = 4;
    let per_client = total_requests / WORKERS;
    let addr = coord.client_addr;
    let started = Instant::now();
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).expect("client connect");
                write_frame(
                    &mut conn,
                    &ClientRequest::Hello {
                        client_name: format!("load-{w}"),
                        admin: false,
                    },
                )
                .expect("hello");
                let _: Option<CoordReply> = read_frame(&mut conn).expect("welcome");
                write_frame(
                    &mut conn,
                    &ClientRequest::RegisterPort {
                        name: "p".into(),
                        type_name: "mpeg1".into(),
                        data_addr: "127.0.0.1:5000".parse().expect("addr"),
                        ctrl_addr: "127.0.0.1:5001".parse().expect("addr"),
                    },
                )
                .expect("register");
                let _: Option<CoordReply> = read_frame(&mut conn).expect("ok");
                // Each worker offers its share of the 60 req/s: schedule
                // + immediate termination per request, like the paper's
                // fake load.
                let interval = Duration::from_secs_f64(WORKERS as f64 / target_rate);
                let t0 = Instant::now();
                for i in 0..per_client {
                    let due = interval * i as u32;
                    let elapsed = t0.elapsed();
                    if due > elapsed {
                        std::thread::sleep(due - elapsed);
                    }
                    write_frame(
                        &mut conn,
                        &ClientRequest::Record {
                            content: format!("c-{w}-{i}"),
                            port: "p".into(),
                            type_name: "mpeg1".into(),
                            est_secs: 1,
                        },
                    )
                    .expect("request");
                    loop {
                        let r: Option<CoordReply> = read_frame(&mut conn).expect("reply");
                        match r.expect("open") {
                            CoordReply::Queued => continue,
                            CoordReply::RecordStarted { .. } => break,
                            other => panic!("unexpected reply: {other:?}"),
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client worker");
    }
    let elapsed = started.elapsed();
    // Let the trailing StreamDones drain.
    std::thread::sleep(Duration::from_millis(300));

    let s = coord.stats();
    println!();
    println!("measured on this host:");
    println!("  requests processed : {}", s.requests());
    println!(
        "  offered rate       : {:.1} req/s",
        total_requests as f64 / elapsed.as_secs_f64()
    );
    println!("  streams started    : {}", s.streams_started());
    println!("  streams terminated : {}", s.streams_done());
    let rates = s.rates();
    println!(
        "  Coordinator CPU    : {:.2}%",
        rates.cpu_utilization * 100.0
    );
    println!(
        "  intra-server net   : {:.2}% of 10 Mbit/s",
        rates.network_utilization * 100.0
    );
    println!("  (paper, on a 66 MHz Pentium: CPU 14%, network 6%)");

    // --- The paper's projection, from the calibrated model. ---------
    let model = CoordModel::default();
    println!();
    println!("calibrated 1996 model (per-request cost from the paper's measurement):");
    for rate in [60.0, 50.0, 100.0, 200.0, 400.0] {
        let l = model.at_rate(rate);
        println!(
            "  {:>5.0} req/s → CPU {:>5.1}%  net {:>4.1}%  mean latency {:>6.2} ms",
            rate,
            l.cpu * 100.0,
            l.network * 100.0,
            l.mean_latency_ms
        );
    }
    println!();
    let rate = model.installation_rate(150, 20, 60.0);
    let l = model.at_rate(rate);
    println!("paper's target installation: 150 MSUs × 20 streams, 1-minute sessions");
    println!(
        "  ⇒ {rate:.0} req/s ⇒ CPU {:.1}%, network {:.1}% — \"relatively insignificant loads\"",
        l.cpu * 100.0,
        l.network * 100.0
    );
    println!(
        "  one Coordinator saturates near {:.0} req/s ≈ {} MSUs at that session length",
        model.max_rate(1.0),
        model.max_msus(20, 60.0, 1.0)
    );

    coord.shutdown();
}
