//! The Multimedia Storage Unit daemon.
//!
//! ```sh
//! calliope-msu --coordinator HOST:PORT [--data-dir PATH] [--disks N]
//!              [--blocks N] [--bind IP] [--tick-ms N] [--previous ID]
//! ```
//!
//! Opens (or formats) `N` file-backed disks of `blocks` × 256 KB under
//! the data directory, registers with the Coordinator, and serves
//! streams until killed. `--tick-ms` is the network thread's timer
//! granularity: the minimum gap between two timer wakeups of the pacer,
//! which otherwise sleeps until the next packet deadline (default 1 ms;
//! smaller values trade CPU for jitter). `--previous` re-registers
//! under a prior identity after a restart (paper §2.2 fault tolerance).

use calliope_msu::config::{DiskSpec, MsuConfig, DEFAULT_NET_TICK};
use calliope_msu::MsuServer;
use calliope_types::MsuId;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: calliope-msu --coordinator HOST:PORT [--data-dir PATH] \
         [--disks N] [--blocks N] [--bind IP] [--tick-ms N] [--previous ID]\n\
         \x20 --tick-ms N  minimum gap between pacing timer wakeups in ms (default {}); \
         smaller values trade CPU for jitter",
        DEFAULT_NET_TICK.as_millis()
    );
    std::process::exit(2);
}

fn main() {
    calliope_obs::init_logging();
    let mut coordinator: Option<SocketAddr> = None;
    let mut data_dir = std::path::PathBuf::from("./calliope-msu-data");
    let mut disks = 2usize;
    let mut blocks = 8192u64; // a 2 GB "Barracuda", sparse on disk
    let mut bind_ip = IpAddr::V4(Ipv4Addr::LOCALHOST);
    let mut tick_ms = DEFAULT_NET_TICK.as_millis() as u64;
    let mut previous: Option<MsuId> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--coordinator" => coordinator = Some(val().parse().unwrap_or_else(|_| usage())),
            "--data-dir" => data_dir = val().into(),
            "--disks" => disks = val().parse().unwrap_or_else(|_| usage()),
            "--blocks" => blocks = val().parse().unwrap_or_else(|_| usage()),
            "--bind" => bind_ip = val().parse().unwrap_or_else(|_| usage()),
            "--tick-ms" => tick_ms = val().parse().unwrap_or_else(|_| usage()),
            "--previous" => previous = Some(MsuId(val().parse().unwrap_or_else(|_| usage()))),
            _ => usage(),
        }
    }
    let Some(coordinator) = coordinator else {
        usage()
    };

    let cfg = MsuConfig {
        coordinator,
        data_dir: data_dir.clone(),
        disks: (0..disks).map(|_| DiskSpec::healthy(blocks)).collect(),
        bind_ip,
        net_tick: Duration::from_millis(tick_ms.max(1)),
        previous_id: previous,
    };
    let server = match MsuServer::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("calliope-msu: {e}");
            std::process::exit(1);
        }
    };
    println!("calliope MSU running");
    println!("  identity    : {}", server.id());
    println!(
        "  disks       : {disks} × {blocks} blocks under {}",
        data_dir.display()
    );
    println!("  disk ids    : {:?}", server.disk_ids());
    println!("(^C to stop)");
    let main_span = tracing::info_span!("msu", id = server.id());
    let _guard = main_span.enter();
    tracing::info!("serving: {disks} disks, tick {tick_ms} ms");
    loop {
        std::thread::sleep(Duration::from_secs(30));
        println!("status: {} active streams", server.stream_count());
    }
}
