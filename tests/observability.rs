//! Observability integration: a real Coordinator + MSU serve a stream
//! while a client pulls live metrics snapshots over the wire and checks
//! that the counters actually moved.

use calliope::cluster::Cluster;
use calliope::content;
use calliope_obs::{histogram_quantile, FlightCode};
use calliope_types::wire::messages::DoneReason;
use calliope_types::wire::stats::MetricValue;
use calliope_types::SpanKind;
use std::time::Duration;

#[test]
fn stats_over_the_wire_reflect_a_played_stream() {
    // Honors RUST_LOG so a failing run can be narrated; no-op otherwise.
    calliope_obs::init_logging();
    let cluster = Cluster::builder().msus(1).build().unwrap();
    let msu_id = cluster.msus[0].id();
    let mut client = cluster.client("alice", false).unwrap();

    // One record admission (the upload) and one play admission.
    let original = content::upload_mpeg(&mut client, "movie", 1, 42).unwrap();
    let port = client.open_port("tv", "mpeg1").unwrap();
    let mut play = client.play("movie", "tv", &[&port]).unwrap();
    let stream = play.streams[0];
    let reason = play.wait_end(Duration::from_secs(30)).unwrap();
    assert_eq!(reason, DoneReason::Completed);

    // Full fan-out: the Coordinator's snapshot plus one per MSU.
    let snaps = client.stats(None).unwrap();
    assert_eq!(snaps.len(), 2, "coordinator + 1 MSU: {snaps:#?}");

    let coord = snaps
        .iter()
        .find(|s| s.source == "coordinator")
        .expect("coordinator snapshot present");
    assert_eq!(
        coord.counter("admission.granted"),
        2,
        "record + play admissions"
    );
    assert_eq!(coord.counter("coord.streams_started"), 2);
    assert_eq!(coord.counter("admission.rejected"), 0);
    let wait = coord
        .get("admission.queue_wait_us")
        .expect("queue-wait histogram registered");
    let MetricValue::Histogram { count, .. } = wait else {
        panic!("admission.queue_wait_us must be a histogram, got {wait:?}");
    };
    assert_eq!(*count, 2, "every admission records its queue wait");
    assert!(histogram_quantile(wait, 0.99).is_some());

    let msu = snaps
        .iter()
        .find(|s| s.source == msu_id.to_string())
        .unwrap_or_else(|| panic!("{msu_id} snapshot present in {snaps:#?}"));
    assert!(
        msu.counter("net.packets_sent") > 0,
        "{msu_id} sent packets for {stream}"
    );
    assert_eq!(
        msu.counter("net.bytes_sent"),
        original.len() as u64,
        "{msu_id} accounted every byte of {stream}"
    );
    assert!(
        msu.counter("net.packets_recorded") > 0,
        "upload was counted"
    );
    let disk_read = msu
        .get("disk.read_service_us")
        .expect("disk service-time histogram registered");
    let MetricValue::Histogram { count, .. } = disk_read else {
        panic!("disk.read_service_us must be a histogram");
    };
    assert!(*count > 0, "playback touched the disk");
    match msu.get("spsc.play_ring_depth") {
        Some(MetricValue::Gauge { high_water, .. }) => {
            assert!(*high_water > 0, "play ring was used");
        }
        other => panic!("spsc.play_ring_depth must be a gauge, got {other:?}"),
    }

    // Targeted form: just the one MSU.
    let one = client.stats(Some(msu_id)).unwrap();
    assert_eq!(one.len(), 1);
    assert_eq!(one[0].source, msu_id.to_string());

    // The client's own receive-side view exports the same shape.
    let local = port.snapshot_stats();
    assert_eq!(local.source, "client:tv");
    assert!(local.counter("recv.packets") > 0);
    assert_eq!(local.counter("recv.bytes"), original.len() as u64);
    assert!(local.counter(&format!("stream.{}.packets", stream.0)) > 0);

    cluster.shutdown();
}

/// One playback, one trace id: the context the Coordinator mints at
/// admission reaches the client (via `StreamStart`) and the MSU (via
/// `ScheduleRead`), and both flight recorders stamp their events with
/// it — the end-to-end property one `RUST_LOG=trace` grep relies on.
#[test]
fn one_trace_id_spans_client_coordinator_and_msu() {
    calliope_obs::init_logging();
    let cluster = Cluster::builder().msus(1).build().unwrap();
    let mut client = cluster.client("carol", false).unwrap();
    content::upload_mpeg(&mut client, "traced", 1, 9).unwrap();
    let port = client.open_port("tv", "mpeg1").unwrap();
    let mut play = client.play("traced", "tv", &[&port]).unwrap();

    // Client side: the trace arrived on the wire with the admission.
    let trace = play.traces[0];
    assert!(trace.is_traced(), "admission must mint a trace id");
    assert_eq!(trace.kind, SpanKind::Play);
    play.wait_end(Duration::from_secs(30)).unwrap();

    // The MSU tells the client about the end of the stream directly, so
    // the Coordinator's own copy of `StreamDone` may still be in flight
    // when `wait_end` returns — poll briefly rather than racing it.
    let has = |events: &[calliope_obs::FlightEventRecord], code: FlightCode| {
        events.iter().any(|e| e.code == code && e.trace == trace.id)
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        // Coordinator side: admission and teardown share the id.
        let coord_events = cluster.coord.flight().snapshot();
        let coord_ok = [
            FlightCode::Admit,
            FlightCode::Schedule,
            FlightCode::StreamDone,
        ]
        .into_iter()
        .all(|code| has(&coord_events, code));
        // MSU side: the grant and the group release carry the same id.
        let msu_events = cluster.msus[0].flight().snapshot();
        let msu_ok = [
            FlightCode::Schedule,
            FlightCode::GroupReady,
            FlightCode::StreamDone,
        ]
        .into_iter()
        .all(|code| has(&msu_events, code));
        if coord_ok && msu_ok {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "flight recorders never completed the [{trace}] span: \
             coordinator {coord_events:#?}, MSU {msu_events:#?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    cluster.shutdown();
}

/// The Coordinator's cluster view: heartbeat `Pong`s piggyback each
/// MSU's snapshot, and `ClusterStats` serves the merged aggregate —
/// counters summed, histograms bucket-merged — without any extra RPC.
#[test]
fn cluster_stats_merge_heartbeat_snapshots() {
    let cluster = Cluster::builder()
        .msus(2)
        .heartbeat(Duration::from_millis(50), 20)
        .build()
        .unwrap();
    let mut client = cluster.client("dave", false).unwrap();
    content::upload_mpeg(&mut client, "clip", 1, 21).unwrap();
    let port = client.open_port("tv", "mpeg1").unwrap();
    let mut play = client.play("clip", "tv", &[&port]).unwrap();
    play.wait_end(Duration::from_secs(30)).unwrap();

    // Wait for a heartbeat round to carry both MSUs' post-playback
    // snapshots into the Coordinator's cache.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let (merged, msus) = loop {
        let (merged, msus) = client.cluster_stats().unwrap();
        if msus.len() == 2 && merged.counter("net.packets_sent") > 0 {
            break (merged, msus);
        }
        assert!(
            std::time::Instant::now() < deadline,
            "cluster view never filled: {merged:#?} {msus:#?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };

    assert_eq!(merged.source, "cluster");
    // Counters merge by summation across MSUs.
    for name in ["net.packets_sent", "net.bytes_sent", "msu.io_errors"] {
        let sum: u64 = msus.iter().map(|s| s.counter(name)).sum();
        assert_eq!(merged.counter(name), sum, "{name} must sum across MSUs");
    }
    // The merged send-lateness histogram answers the `top` quantiles.
    let late = merged
        .get("net.send_lateness_us")
        .expect("merged histogram present");
    assert!(matches!(late, MetricValue::Histogram { .. }));
    for p in [0.50, 0.95, 0.99] {
        assert!(
            histogram_quantile(late, p).is_some(),
            "p{} of send lateness",
            p * 100.0
        );
    }
    assert!(cluster.coord.stats().snapshots_merged.get() >= 2);
    cluster.shutdown();
}

#[test]
fn per_stream_counters_appear_and_vanish_with_the_stream() {
    let cluster = Cluster::builder().msus(1).build().unwrap();
    let msu_id = cluster.msus[0].id();
    let mut client = cluster.client("bob", false).unwrap();
    content::upload_mpeg(&mut client, "clip", 2, 7).unwrap();
    let port = client.open_port("tv", "mpeg1").unwrap();
    let mut play = client.play("clip", "tv", &[&port]).unwrap();
    let stream = play.streams[0];

    // While playing, the MSU snapshot carries per-stream counters.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let key = format!("stream.{}.packets", stream.0);
    loop {
        let snap = &client.stats(Some(msu_id)).unwrap()[0];
        if snap.counter(&key) > 0 {
            assert!(snap
                .get(&format!("stream.{}.deadline_misses", stream.0))
                .is_some());
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no per-stream counters for {stream} on {msu_id}: {snap:#?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    play.wait_end(Duration::from_secs(30)).unwrap();
    // Torn down: the per-stream series is gone, the port-wide totals stay.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let snap = &client.stats(Some(msu_id)).unwrap()[0];
        if snap.get(&key).is_none() {
            assert!(snap.counter("net.packets_sent") > 0);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{stream} counters survived teardown on {msu_id}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    cluster.shutdown();
}
