//! A command-line Calliope client.
//!
//! ```sh
//! calliope-cli --coordinator HOST:PORT [--admin] <command> [args…]
//!
//! commands:
//!   list                      table of contents
//!   types                     content-type table
//!   upload <name> <secs>      record <secs> s of synthetic MPEG-1
//!   upload-trick <name> <secs> also produce + attach FF/FB files (admin)
//!   play <name>               play to a local port, report quality
//!   delete <name>             delete content (admin)
//!   replicate <name>          copy content onto another disk (admin)
//!   status                    scheduler resource view
//!   stats [msu-N]             live metrics from the Coordinator and MSUs
//!   top [--watch]             merged cluster view from heartbeat snapshots
//! ```
//!
//! `play` accepts VCR commands on stdin while the stream runs:
//! `pause`, `play`, `seek <secs>`, `ff`, `fb`, `quit`.

use calliope::content;
use calliope_client::CalliopeClient;
use calliope_obs::histogram_quantile;
use calliope_types::wire::stats::{MetricEntry, MetricValue, StatsSnapshot};
use calliope_types::{MediaTime, MsuId, VcrCommand};
use std::io::BufRead;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: calliope-cli --coordinator HOST:PORT [--admin] \
         <list|types|upload|upload-trick|play|delete|replicate|status|stats|top> [args…]"
    );
    std::process::exit(2);
}

fn main() {
    calliope_obs::init_logging();
    let mut coordinator: Option<SocketAddr> = None;
    let mut admin = false;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--coordinator" => {
                let v = args.next().unwrap_or_else(|| usage());
                coordinator = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--admin" => admin = true,
            _ => {
                rest.push(arg);
                rest.extend(args.by_ref());
            }
        }
    }
    let Some(coordinator) = coordinator else {
        usage()
    };
    if rest.is_empty() {
        usage()
    }

    let bind = IpAddr::V4(Ipv4Addr::LOCALHOST);
    let mut client = match CalliopeClient::connect(coordinator, bind, "calliope-cli", admin) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("calliope-cli: connect: {e}");
            std::process::exit(1);
        }
    };

    let cmd_span = tracing::info_span!("cli", cmd = rest[0]);
    let _guard = cmd_span.enter();
    let result = match rest[0].as_str() {
        "list" => cmd_list(&mut client),
        "types" => cmd_types(&mut client),
        "upload" => {
            if rest.len() != 3 {
                usage()
            }
            let secs: u32 = rest[2].parse().unwrap_or_else(|_| usage());
            content::upload_mpeg(&mut client, &rest[1], secs, 42).map(|s| {
                println!("uploaded {} bytes as {:?}", s.len(), rest[1]);
            })
        }
        "upload-trick" => {
            if rest.len() != 3 {
                usage()
            }
            let secs: u32 = rest[2].parse().unwrap_or_else(|_| usage());
            content::upload_movie_with_trick(&mut client, &rest[1], secs, 42).map(|s| {
                println!(
                    "uploaded {} bytes as {:?} with FF/FB files attached",
                    s.len(),
                    rest[1]
                );
            })
        }
        "play" => {
            if rest.len() != 2 {
                usage()
            }
            cmd_play(&mut client, &rest[1])
        }
        "delete" => {
            if rest.len() != 2 {
                usage()
            }
            client
                .delete(&rest[1])
                .map(|()| println!("deleted {:?}", rest[1]))
        }
        "replicate" => {
            if rest.len() != 2 {
                usage()
            }
            client
                .replicate(&rest[1])
                .map(|()| println!("replicated {:?}", rest[1]))
        }
        "status" => client.server_status().map(|(msus, streams)| {
            println!("active streams: {streams}");
            for m in msus {
                println!(
                    "{}  {}  net {}/{} kB/s",
                    m.msu,
                    if m.available { "up  " } else { "DOWN" },
                    m.net_used / 1000,
                    m.net_capacity / 1000
                );
                for d in m.disks {
                    println!(
                        "  {}  free {}/{} MB   bw {}/{} kB/s",
                        d.disk,
                        d.free_bytes / 1_000_000,
                        d.capacity_bytes / 1_000_000,
                        d.bw_used / 1000,
                        d.bw_capacity / 1000
                    );
                }
            }
        }),
        "stats" => {
            let msu = match rest.get(1) {
                None => None,
                Some(arg) => {
                    let digits = arg.strip_prefix("msu-").unwrap_or(arg);
                    Some(MsuId(digits.parse().unwrap_or_else(|_| usage())))
                }
            };
            cmd_stats(&mut client, msu)
        }
        "top" => {
            let watch = match rest.get(1).map(String::as_str) {
                None => false,
                Some("--watch") => true,
                Some(_) => usage(),
            };
            cmd_top(&mut client, watch)
        }
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("calliope-cli: {e}");
        std::process::exit(1);
    }
}

fn cmd_list(client: &mut CalliopeClient) -> calliope_types::Result<()> {
    let toc = client.list_content()?;
    if toc.is_empty() {
        println!("(no content)");
    }
    for e in toc {
        println!(
            "{:24} {:12} {:>12} bytes {:>8.1}s",
            e.name,
            e.type_name,
            e.bytes,
            e.duration_us as f64 / 1e6
        );
    }
    Ok(())
}

fn cmd_types(client: &mut CalliopeClient) -> calliope_types::Result<()> {
    for t in client.list_types()? {
        println!("{t:?}");
    }
    Ok(())
}

/// Formats an interpolated µs quantile.
fn fmt_us(v: f64) -> String {
    format!("{v:.0}µs")
}

/// A histogram's p50/p95/p99, interpolated within buckets by
/// [`histogram_quantile`]; `-` when it has no samples.
fn quantiles(value: Option<&MetricValue>) -> String {
    let q = |p: f64| {
        value
            .and_then(|v| histogram_quantile(v, p))
            .map(fmt_us)
            .unwrap_or_else(|| "-".into())
    };
    format!("p50={} p95={} p99={}", q(0.50), q(0.95), q(0.99))
}

/// Prints one snapshot's metrics, histograms as interpolated quantiles.
fn print_snapshot(snap: &StatsSnapshot) {
    println!(
        "=== {} (up {:.1}s) ===",
        snap.source,
        snap.uptime_us as f64 / 1e6
    );
    for m in &snap.metrics {
        println!("  {}", metric_row(m));
    }
}

/// One metric's `stats` line.
fn metric_row(m: &MetricEntry) -> String {
    match &m.value {
        MetricValue::Counter(v) => format!("{:36} {v}", m.name),
        MetricValue::Gauge { value, high_water } => {
            format!("{:36} {value} (high water {high_water})", m.name)
        }
        MetricValue::Histogram { count, .. } => format!(
            "{:36} n={count} mean={:.0}µs {}",
            m.name,
            m.value.mean().unwrap_or(0.0),
            quantiles(Some(&m.value))
        ),
    }
}

fn cmd_stats(client: &mut CalliopeClient, msu: Option<MsuId>) -> calliope_types::Result<()> {
    let snaps = client.stats(msu)?;
    if snaps.is_empty() {
        println!("(no snapshots)");
    }
    for snap in &snaps {
        print_snapshot(snap);
    }
    Ok(())
}

/// One `top` summary row: uptime plus the send-lateness quantiles the
/// operator scans first.
fn top_row(snap: &StatsSnapshot) -> String {
    format!(
        "{:10} up {:>8.1}s  send lateness {}",
        snap.source,
        snap.uptime_us as f64 / 1e6,
        quantiles(snap.get("net.send_lateness_us"))
    )
}

/// The cluster view: one summary row per MSU plus the merged aggregate,
/// assembled by the Coordinator from heartbeat-piggybacked snapshots.
/// `--watch` redraws once a second until interrupted.
fn cmd_top(client: &mut CalliopeClient, watch: bool) -> calliope_types::Result<()> {
    loop {
        let (cluster, msus) = client.cluster_stats()?;
        if watch {
            // ANSI clear + home, like top(1).
            print!("\x1b[2J\x1b[H");
        }
        if msus.is_empty() {
            println!("(no MSU snapshots yet — first heartbeats pending)");
        }
        for snap in &msus {
            println!("{}", top_row(snap));
        }
        if !msus.is_empty() {
            println!("{}", top_row(&cluster));
            println!();
            print_snapshot(&cluster);
        }
        if !watch {
            return Ok(());
        }
        use std::io::Write;
        std::io::stdout().flush().ok();
        std::thread::sleep(Duration::from_secs(1));
    }
}

fn cmd_play(client: &mut CalliopeClient, name: &str) -> calliope_types::Result<()> {
    // Look the type up so the port matches the content.
    let toc = client.list_content()?;
    let entry = toc
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| calliope_types::Error::NoSuchContent { name: name.into() })?;
    if entry.type_name != "mpeg1" {
        return Err(calliope_types::Error::Protocol {
            msg: format!(
                "calliope-cli play only supports atomic mpeg1 content (got {})",
                entry.type_name
            ),
        });
    }
    let port = client.open_port("cli", &entry.type_name)?;
    let mut play = client.play(name, "cli", &[&port])?;
    let stream = play.streams[0];
    println!(
        "playing {name:?} ({:.1}s); VCR commands on stdin: pause/play/seek <s>/ff/fb/quit",
        entry.duration_us as f64 / 1e6
    );

    // Stdin VCR loop on a side thread.
    let (tx, rx) = std::sync::mpsc::channel::<VcrCommand>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            let parts: Vec<&str> = line.split_whitespace().collect();
            let cmd = match parts.as_slice() {
                ["pause"] => VcrCommand::Pause,
                ["play"] => VcrCommand::Play,
                ["ff"] => VcrCommand::FastForward,
                ["fb"] => VcrCommand::FastBackward,
                ["quit"] => VcrCommand::Quit,
                ["seek", s] => match s.parse::<f64>() {
                    Ok(v) => VcrCommand::Seek(MediaTime((v * 1e6) as u64)),
                    Err(_) => continue,
                },
                _ => continue,
            };
            let terminal = cmd.is_terminal();
            if tx.send(cmd).is_err() || terminal {
                break;
            }
        }
    });

    loop {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(cmd) => {
                let terminal = cmd.is_terminal();
                match play.vcr(cmd) {
                    Ok(()) => println!("ok"),
                    Err(e) => println!("vcr error: {e}"),
                }
                if terminal {
                    break;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if play.ended().is_some() {
                    break;
                }
                // Poll for natural end without blocking stdin.
                if let Ok(reason) = play.wait_end(Duration::from_millis(10)) {
                    println!("stream ended: {reason:?}");
                    break;
                }
            }
            Err(_) => break,
        }
    }
    std::thread::sleep(Duration::from_millis(200));
    let s = port.stats(stream);
    println!(
        "{} packets, {} bytes, {} lost, worst lateness {:.1} ms, {:.2}% within 50 ms",
        s.packets,
        s.bytes,
        s.lost,
        s.max_late_us as f64 / 1000.0,
        s.pct_within_50ms()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use calliope_obs::{Registry, LATENCY_US_BUCKETS};

    #[test]
    fn stats_and_top_quantiles_are_histogram_quantile() {
        let reg = Registry::new();
        let h = reg.histogram("net.send_lateness_us", LATENCY_US_BUCKETS);
        for v in [40, 300, 300, 700, 4_000, 4_000, 9_000, 60_000, 2_000_000] {
            h.record(v);
        }
        let snap = reg.snapshot("msu-1");
        let value = snap.get("net.send_lateness_us").unwrap();
        let want = |p| fmt_us(histogram_quantile(value, p).unwrap());
        let expected = format!("p50={} p95={} p99={}", want(0.50), want(0.95), want(0.99));
        // Interpolated, not bucket bounds: rank 4.5 of 9 falls a quarter
        // of the way into the (2500, 5000] bucket, whose bound is 5000.
        assert_eq!(want(0.50), "3125µs");
        assert!(top_row(&snap).ends_with(&format!("send lateness {expected}")));
        assert!(metric_row(&snap.metrics[0]).ends_with(&format!("n=9 mean=230927µs {expected}")));
        // An empty histogram has no quantiles to print.
        let empty = Registry::new();
        empty.histogram("net.send_lateness_us", LATENCY_US_BUCKETS);
        assert!(top_row(&empty.snapshot("msu-2")).ends_with("p50=- p95=- p99=-"));
    }
}
