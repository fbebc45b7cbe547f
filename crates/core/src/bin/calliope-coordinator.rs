//! The Coordinator daemon.
//!
//! ```sh
//! calliope-coordinator [--bind IP] [--client-port N] [--msu-port N]
//! ```
//!
//! Runs the global resource manager: clients connect to the client
//! port, MSUs register on the MSU port. Prints both addresses on
//! startup and serves until killed.

use calliope_coord::{CoordConfig, CoordServer};
use std::net::IpAddr;

fn usage() -> ! {
    eprintln!("usage: calliope-coordinator [--bind IP] [--client-port N] [--msu-port N]");
    std::process::exit(2);
}

fn main() {
    calliope_obs::init_logging();
    let mut cfg = CoordConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bind" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.bind_ip = v.parse::<IpAddr>().unwrap_or_else(|_| usage());
            }
            "--client-port" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.client_port = v.parse().unwrap_or_else(|_| usage());
            }
            "--msu-port" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.msu_port = v.parse().unwrap_or_else(|_| usage());
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let server = match CoordServer::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("calliope-coordinator: {e}");
            std::process::exit(1);
        }
    };
    println!("calliope coordinator running");
    println!("  client port : {}", server.client_addr);
    println!("  msu port    : {}", server.msu_addr);
    println!("(^C to stop)");
    let main_span = tracing::info_span!("coordinator");
    let _guard = main_span.enter();
    tracing::info!(
        "listening: clients on {}, MSUs on {}",
        server.client_addr,
        server.msu_addr
    );

    // Periodic status line, forever.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(30));
        println!(
            "status: {} MSUs, {} active streams, {} requests served, cpu {:.2}%",
            server.msu_count(),
            server.active_streams(),
            server.stats().requests(),
            server.stats().rates().cpu_utilization * 100.0
        );
    }
}
