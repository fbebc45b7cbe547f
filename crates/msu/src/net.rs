//! The network process: paced delivery and recording receivers.
//!
//! "The network process then packetizes the buffer and sends it out
//! through the high speed interface. The network process ensures that
//! packet delivery proceeds on schedule." (paper §2.3)
//!
//! One thread paces every play stream. It sleeps until the earliest
//! queued packet deadline — but never fires its timer sooner than
//! `net_tick` after the previous timer wakeup — and then transmits every
//! packet that has come due. Packet lateness is therefore bounded by
//! `net_tick` plus transmission time under light load: the §2.2.1
//! jitter argument, with a finer timer than the paper's 10 ms. With
//! nothing queued the thread blocks outright.
//!
//! Everything else pacing depends on arrives as a [`NetCmd`]: the disk
//! thread delivered pages or the control plane paused, resumed, seeked
//! or switched trick mode ([`NetCmd::Wake`]), or a group was released
//! ([`NetCmd::Release`]). Each wakeup services only the streams it
//! concerns, from a per-stream copy of the pacing state; no periodic
//! scan over every stream remains.
//!
//! Recordings run one receiver thread per stream: it owns the UDP sink
//! socket, feeds packets through the stream's protocol module (which
//! derives delivery times, §2.3.2), and pushes the records into the
//! ring the disk process drains, ringing its doorbell every
//! [`RECORD_BATCH`] records and when the ring closes.

use crate::disk::{DiskCmd, PageRing, RECORD_BATCH};
use crate::metrics::MsuMetrics;
use crate::pacer::Pacer;
use crate::spsc::{Producer, PushError};
use crate::stream::{GroupShared, StreamPhase, StreamShared, DEADLINE_MISS_US};
use calliope_proto::module::ProtocolModule;
use calliope_proto::record::PacketRecord;
use calliope_proto::schedule::CbrSchedule;
use calliope_storage::catalog::FileKind;
use calliope_storage::page::Geometry;
use calliope_types::wire::data::{DataHeader, PacketKind};
use calliope_types::wire::messages::PacingSpec;
use calliope_types::{GroupId, MediaTime, StreamId};
use crossbeam::channel::{Receiver, Sender};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events the network thread reports to the control plane.
#[derive(Debug)]
pub enum NetEvent {
    /// A play stream delivered its last packet and the end-of-stream
    /// marker.
    PlayFinished {
        /// Which stream.
        stream: StreamId,
    },
}

/// Commands accepted by the network thread.
pub enum NetCmd {
    /// Registers a play stream.
    AddPlay {
        /// Shared stream state.
        shared: Arc<StreamShared>,
        /// Group (pacing starts only after release).
        group: Arc<GroupShared>,
        /// Page ring from the disk thread.
        ring: PageRing,
        /// Client display-port address.
        dest: SocketAddr,
        /// Calculated (CBR) or stored (IB-tree) schedule.
        pacing: PacingSpec,
        /// Page geometry (for parsing IB-tree pages).
        geometry: Geometry,
    },
    /// Something a play stream's pacing depends on changed: the disk
    /// thread delivered pages, or a VCR command rewrote its control
    /// block. The thread re-reads the control block and services it.
    Wake {
        /// Which stream.
        stream: StreamId,
    },
    /// Every member of a group is primed: start pacing them together.
    Release {
        /// Which group.
        group: GroupId,
    },
    /// Drops a play stream.
    Remove {
        /// Which stream.
        stream: StreamId,
    },
    /// Stops the thread.
    Shutdown,
}

impl std::fmt::Debug for NetCmd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            NetCmd::AddPlay { .. } => "AddPlay",
            NetCmd::Wake { .. } => "Wake",
            NetCmd::Release { .. } => "Release",
            NetCmd::Remove { .. } => "Remove",
            NetCmd::Shutdown => "Shutdown",
        };
        write!(f, "NetCmd::{name}")
    }
}

/// When the pacing thread's timer should next fire: at the earliest
/// queued packet deadline, but never sooner than `tick` after the
/// previous timer wakeup. `None` — no packet is due at all — means
/// block until a command arrives.
fn next_wake(
    earliest_due: Option<Instant>,
    last_timer: Option<Instant>,
    tick: Duration,
) -> Option<Instant> {
    let due = earliest_due?;
    Some(match last_timer {
        Some(last) => due.max(last + tick),
        None => due,
    })
}

/// Where a queued packet's payload lives.
enum PktPayload {
    /// A range of a refcounted disk page — queuing it made no copy, and
    /// the page returns to its pool when the last packet referencing it
    /// is sent.
    Shared(crate::pool::PageData, std::ops::Range<usize>),
    /// An owned buffer: packets stitched across a page boundary, parsed
    /// IB-tree records, and the end-of-stream flush.
    Owned(Vec<u8>),
}

impl PktPayload {
    fn as_slice(&self) -> &[u8] {
        match self {
            PktPayload::Shared(page, r) => &page[r.clone()],
            PktPayload::Owned(v) => v,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }
}

struct QueuedPkt {
    offset: MediaTime,
    kind: PacketKind,
    payload: PktPayload,
}

struct PlayIo {
    shared: Arc<StreamShared>,
    group: Arc<GroupShared>,
    ring: PageRing,
    dest: SocketAddr,
    geometry: Geometry,
    packetizer: Option<crate::packetize::CbrPacketizer>,
    queue: VecDeque<QueuedPkt>,
    /// The control block as of the last [`refresh`]: every change to it
    /// comes with a command, so timer wakeups pace from this copy
    /// without taking the lock.
    gen: u64,
    kind: FileKind,
    eof: bool,
    pacer: Pacer,
    skip_until: MediaTime,
    wire_seq: u32,
    flushed: bool,
    /// Deadline of the front queued packet: when the timer must next
    /// service this stream. `None` while nothing is queued, paused or
    /// unreleased — then only a command wakes it.
    due: Option<Instant>,
}

/// The sending side every play stream shares.
struct Wire<'a> {
    socket: &'a UdpSocket,
    events: &'a Sender<NetEvent>,
    metrics: &'a MsuMetrics,
    /// One datagram scratch buffer for every stream: header + payload
    /// are encoded into it in place, so steady-state sends never
    /// allocate.
    scratch: Vec<u8>,
    /// Chaos switch: while set, media packets are paced and accounted
    /// normally but never actually transmitted.
    blackhole: &'a AtomicBool,
}

/// The network thread main loop.
///
/// `tick` is the minimum gap between timer wakeups. `blackhole` is the
/// chaos switch: while set, media packets are paced and accounted
/// normally but never actually transmitted — the failure only the
/// client can observe.
pub fn run(
    socket: UdpSocket,
    tick: Duration,
    rx: Receiver<NetCmd>,
    events: Sender<NetEvent>,
    metrics: Arc<MsuMetrics>,
    blackhole: Arc<AtomicBool>,
) {
    let mut plays: HashMap<StreamId, PlayIo> = HashMap::new();
    let mut wire = Wire {
        socket: &socket,
        events: &events,
        metrics: &metrics,
        scratch: Vec::with_capacity(65_536),
        blackhole: &blackhole,
    };
    let mut last_timer: Option<Instant> = None;
    loop {
        let earliest = plays.values().filter_map(|io| io.due).min();
        let wake_at = next_wake(earliest, last_timer, tick);
        let mut cmd = match wake_at {
            None => match rx.recv() {
                Ok(cmd) => Some(cmd),
                Err(_) => return,
            },
            Some(at) => match rx.recv_timeout(at.saturating_duration_since(Instant::now())) {
                Ok(cmd) => Some(cmd),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => None,
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
            },
        };
        while let Some(c) = cmd {
            if !handle_cmd(c, &mut plays, &mut wire) {
                return;
            }
            cmd = match rx.try_recv() {
                Ok(c) => Some(c),
                Err(crossbeam::channel::TryRecvError::Empty) => None,
                Err(crossbeam::channel::TryRecvError::Disconnected) => return,
            };
        }

        let now = Instant::now();
        if wake_at.is_some_and(|at| at <= now) {
            last_timer = Some(now);
            let mut done: Vec<StreamId> = Vec::new();
            for (id, io) in plays.iter_mut() {
                if io.due.is_some_and(|d| d <= now) && service_play(io, now, false, &mut wire) {
                    done.push(*id);
                }
            }
            for id in done {
                plays.remove(&id);
            }
        }
    }
}

/// Applies one command; returns false on `Shutdown`.
fn handle_cmd(cmd: NetCmd, plays: &mut HashMap<StreamId, PlayIo>, wire: &mut Wire<'_>) -> bool {
    let now = Instant::now();
    match cmd {
        NetCmd::AddPlay {
            shared,
            group,
            ring,
            dest,
            pacing,
            geometry,
        } => {
            let packetizer = match pacing {
                PacingSpec::Constant { rate, packet_bytes } => Some(
                    crate::packetize::CbrPacketizer::new(CbrSchedule::new(rate, packet_bytes)),
                ),
                PacingSpec::Stored => None,
            };
            tracing::debug!("play stream {} delivering to {dest}", shared.id);
            let id = shared.id;
            let mut io = PlayIo {
                shared,
                group,
                ring,
                dest,
                geometry,
                packetizer,
                queue: VecDeque::new(),
                gen: 0,
                kind: FileKind::Raw,
                eof: false,
                pacer: Pacer::new(),
                skip_until: MediaTime::ZERO,
                wire_seq: 0,
                flushed: false,
                due: None,
            };
            if !service_play(&mut io, now, true, wire) {
                plays.insert(id, io);
            }
        }
        NetCmd::Wake { stream } => {
            if let Some(io) = plays.get_mut(&stream) {
                if service_play(io, now, true, wire) {
                    plays.remove(&stream);
                }
            }
        }
        NetCmd::Release { group } => {
            // One `now` for every member: they start simultaneously.
            plays.retain(|_, io| io.group.id != group || !service_play(io, now, true, wire));
        }
        NetCmd::Remove { stream } => {
            if let Some(io) = plays.remove(&stream) {
                wire.metrics
                    .play_ring_depth
                    .observe_peak(io.ring.high_water() as u64);
            }
        }
        NetCmd::Shutdown => return false,
    }
    true
}

/// Re-reads the stream's control block into its cached copy, starting
/// pacing if the group has been released. Returns the stream's phase.
fn refresh(io: &mut PlayIo, now: Instant) -> StreamPhase {
    let mut ctl = io.shared.ctl.lock();
    // Pacing starts once the group is released: all group members start
    // simultaneously.
    if io.group.is_released() && !ctl.pacer.is_started() {
        ctl.pacer.start(now);
        ctl.phase = StreamPhase::Running;
    }
    // Generation change (seek / trick switch): discard buffered packets.
    if io.gen != ctl.gen {
        io.gen = ctl.gen;
        io.queue.clear();
        io.skip_until = MediaTime(ctl.skip_until_us);
        io.flushed = false;
        if let Some(pk) = io.packetizer.as_mut() {
            pk.reset(ctl.start_seq);
        }
    }
    io.kind = ctl.file.kind;
    io.eof = ctl.eof;
    io.pacer = ctl.pacer.clone();
    ctl.phase
}

/// Services one play stream: sends every packet due at `now`, refills
/// the queue from the ring, and ends the stream at end of file.
/// `fresh` re-reads the control block first (a command woke the
/// stream). Returns true when the stream should be dropped.
fn service_play(io: &mut PlayIo, now: Instant, mut fresh: bool, wire: &mut Wire<'_>) -> bool {
    if fresh && refresh(io, now) == StreamPhase::Done {
        return true;
    }
    loop {
        while let Some(front) = io.queue.front() {
            match io.pacer.deadline(front.offset) {
                Some(deadline) if deadline <= now => {
                    let late_us = now.saturating_duration_since(deadline).as_micros() as u64;
                    let pkt = io.queue.pop_front().expect("front exists");
                    transmit(io, &pkt, late_us, wire);
                }
                _ => break,
            }
        }
        if !io.queue.is_empty() {
            break;
        }
        if refill(io, now) {
            continue;
        }
        // Starved or finished: only the control block can tell which,
        // and the cached copy may predate a seek.
        if !fresh {
            fresh = true;
            if refresh(io, now) == StreamPhase::Done {
                return true;
            }
            continue;
        }
        // End of stream: flush the final short packet, then the marker.
        if io.eof && io.ring.is_empty() && io.pacer.is_playing() {
            if !io.flushed {
                io.flushed = true;
                if let Some((offset, payload)) = io.packetizer.as_mut().and_then(|pk| pk.flush()) {
                    io.queue.push_back(QueuedPkt {
                        offset,
                        kind: PacketKind::Media,
                        payload: PktPayload::Owned(payload),
                    });
                    continue;
                }
            }
            let header = DataHeader {
                stream: io.shared.id,
                seq: io.wire_seq,
                offset: io.pacer.position(now),
                kind: PacketKind::EndOfStream,
            };
            if !wire.blackhole.load(Ordering::Acquire) {
                let _ = wire.socket.send_to(&header.encode_packet(&[]), io.dest);
            }
            io.shared.ctl.lock().phase = StreamPhase::Done;
            let _ = wire.events.send(NetEvent::PlayFinished {
                stream: io.shared.id,
            });
            return true;
        }
        break;
    }
    wire.metrics
        .play_ring_depth
        .observe_peak(io.ring.high_water() as u64);
    io.due = io
        .queue
        .front()
        .and_then(|front| io.pacer.deadline(front.offset));
    false
}

/// Packetizes the next current-generation page into the (empty) queue;
/// returns false once the ring has nothing more to give.
///
/// Pages are popped only when the queue has drained, so this thread
/// holds at most one page per stream — the "+ 1" of the page pool's
/// ring + 1 sizing, which keeps playback off the heap.
fn refill(io: &mut PlayIo, now: Instant) -> bool {
    while io.queue.is_empty() {
        let Ok(buf) = io.ring.pop() else {
            return false;
        };
        if buf.gen > io.gen {
            // Read after a seek this thread has not been woken for yet.
            refresh(io, now);
        }
        if buf.gen != io.gen {
            continue; // stale page from before a seek
        }
        match io.kind {
            FileKind::Raw => {
                let pk = io.packetizer.as_mut().expect("raw files have a packetizer");
                let start = buf.skip.min(buf.valid);
                for (offset, pb) in pk.feed_ranges(&buf.data[start..buf.valid]) {
                    // In-page packets share the pooled page; only
                    // boundary-straddling packets own their bytes.
                    let payload = match pb {
                        crate::packetize::PacketBytes::Range(r) => {
                            PktPayload::Shared(buf.data.clone(), start + r.start..start + r.end)
                        }
                        crate::packetize::PacketBytes::Stitched(v) => PktPayload::Owned(v),
                    };
                    io.queue.push_back(QueuedPkt {
                        offset,
                        kind: PacketKind::Media,
                        payload,
                    });
                }
            }
            FileKind::IbTree => {
                // A corrupt page loses its packets but must not kill the
                // stream.
                if let Ok(records) = crate::packetize::unpack_ib_page(&io.geometry, &buf.data) {
                    for r in records {
                        if r.offset >= io.skip_until {
                            io.queue.push_back(QueuedPkt {
                                offset: r.offset,
                                kind: r.kind,
                                payload: PktPayload::Owned(r.payload),
                            });
                        }
                    }
                }
            }
        }
    }
    true
}

/// Sends one packet `late_us` behind its deadline and accounts for it.
fn transmit(io: &mut PlayIo, pkt: &QueuedPkt, late_us: u64, wire: &mut Wire<'_>) {
    let header = DataHeader {
        stream: io.shared.id,
        seq: io.wire_seq,
        offset: pkt.offset,
        kind: pkt.kind,
    };
    io.wire_seq = io.wire_seq.wrapping_add(1);
    header.encode_packet_into(pkt.payload.as_slice(), &mut wire.scratch);
    // A transient send failure drops the packet (UDP semantics); the
    // client's sequence numbers expose the loss. A blackholed send is
    // accounted as sent — the NIC doesn't know the port is dead.
    if !wire.blackhole.load(Ordering::Acquire) {
        let _ = wire.socket.send_to(&wire.scratch, io.dest);
    }
    let len = pkt.payload.len();
    let missed = late_us > DEADLINE_MISS_US;
    io.shared.stats.note_packet(len, missed);
    wire.metrics.packets_sent.inc();
    wire.metrics.bytes_sent.add(len as u64);
    wire.metrics.send_lateness_us.record(late_us);
    if missed {
        wire.metrics.deadline_misses.inc();
        tracing::trace!(
            "deadline miss: stream {} packet at {} was {late_us} µs late",
            io.shared.id,
            pkt.offset
        );
    }
}

/// Spawns the receiver thread for one recording stream.
///
/// The receiver owns the UDP sink socket; each datagram is decoded,
/// passed through the protocol module (which derives the delivery
/// time), and pushed into the ring toward the disk process. The thread
/// exits on the client's end-of-stream marker or when `stop` is set;
/// dropping the producer closes the ring, which — with a last ring of
/// `doorbell`, the disk thread's command channel — tells the disk
/// process to finalize the file.
pub fn spawn_record_receiver(
    socket: UdpSocket,
    shared: Arc<StreamShared>,
    mut module: Box<dyn ProtocolModule>,
    mut producer: Producer<PacketRecord>,
    doorbell: Sender<DiskCmd>,
    stop: Arc<AtomicBool>,
    metrics: Arc<MsuMetrics>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        socket
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("socket read timeout");
        let start = Instant::now();
        let mut buf = vec![0u8; 65_536];
        // Records pushed since the doorbell last rang.
        let mut unannounced = 0usize;
        while !stop.load(Ordering::Acquire) {
            let n = match socket.recv(&mut buf) {
                Ok(n) => n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => break,
            };
            let Ok((header, payload)) = DataHeader::decode_packet(&buf[..n]) else {
                continue; // not a Calliope packet; ignore
            };
            if header.stream != shared.id {
                continue;
            }
            if header.kind == PacketKind::EndOfStream {
                break;
            }
            let arrival_us = start.elapsed().as_micros() as u64;
            let record = match module.on_record(header.kind, payload, arrival_us) {
                Ok(Some(r)) => r.record,
                Ok(None) => continue,
                Err(_) => continue,
            };
            shared.stats.note_packet(record.payload.len(), false);
            metrics.packets_recorded.inc();
            metrics.bytes_recorded.add(record.payload.len() as u64);
            let mut rec = record;
            loop {
                match producer.push(rec) {
                    Ok(()) => break,
                    Err(PushError::Full(back)) => {
                        rec = back;
                        if unannounced > 0 {
                            unannounced = 0;
                            let _ = doorbell.send(DiskCmd::Doorbell);
                        }
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(PushError::Closed(_)) => {
                        metrics
                            .record_ring_depth
                            .observe_peak(producer.high_water() as u64);
                        return;
                    }
                }
            }
            unannounced += 1;
            if unannounced >= RECORD_BATCH {
                unannounced = 0;
                let _ = doorbell.send(DiskCmd::Doorbell);
            }
        }
        metrics
            .record_ring_depth
            .observe_peak(producer.high_water() as u64);
        // Closing the ring and ringing once more makes the disk process
        // drain the rest and finalize the file.
        drop(producer);
        let _ = doorbell.send(DiskCmd::Doorbell);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spsc::{self, Consumer, PopError};
    use crate::stream::{ActiveFile, PageBuf, StreamCtl};
    use calliope_types::time::BitRate;
    use calliope_types::{GroupId, StreamId};
    use crossbeam::channel::unbounded;
    use parking_lot::Mutex;

    fn mk_stream(id: u64, kind: FileKind, pages: u64, len: u64) -> Arc<StreamShared> {
        Arc::new(StreamShared {
            id: StreamId(id),
            group: GroupId(id),
            disk: 0,
            trace: Default::default(),
            ctl: Mutex::new(StreamCtl {
                phase: StreamPhase::Priming,
                gen: 0,
                mode: crate::trick::TrickMode::Normal,
                file: ActiveFile {
                    name: "x".into(),
                    kind,
                    pages,
                    len_bytes: len,
                    root: vec![],
                    duration_us: 0,
                },
                next_page: 0,
                pending_skip: 0,
                eof: false,
                skip_until_us: 0,
                start_seq: 0,
                pacer: Pacer::new(),
            }),
            stats: Default::default(),
        })
    }

    /// Packets captured off the wire: headers plus one shared byte
    /// arena, so collecting N packets costs one growing buffer rather
    /// than N per-packet heap copies.
    struct RecvLog {
        arena: Vec<u8>,
        entries: Vec<(DataHeader, std::ops::Range<usize>)>,
    }

    impl RecvLog {
        fn iter(&self) -> impl Iterator<Item = (&DataHeader, &[u8])> {
            self.entries
                .iter()
                .map(|(h, r)| (h, &self.arena[r.clone()]))
        }

        fn last(&self) -> Option<(&DataHeader, &[u8])> {
            self.entries
                .last()
                .map(|(h, r)| (h, &self.arena[r.clone()]))
        }

        fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        fn len(&self) -> usize {
            self.entries.len()
        }
    }

    fn recv_all(socket: &UdpSocket, until_eos: bool, timeout: Duration) -> RecvLog {
        socket
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut log = RecvLog {
            arena: Vec::new(),
            entries: Vec::new(),
        };
        let deadline = Instant::now() + timeout;
        let mut buf = vec![0u8; 65536];
        while Instant::now() < deadline {
            if let Ok(n) = socket.recv(&mut buf) {
                let (h, p) = DataHeader::decode_packet(&buf[..n]).unwrap();
                let at = log.arena.len();
                log.arena.extend_from_slice(p);
                log.entries.push((h, at..at + p.len()));
                if h.kind == PacketKind::EndOfStream && until_eos {
                    break;
                }
            }
        }
        log
    }

    /// A ring whose doorbell goes to `doorbell` (the disk thread's side).
    fn page_ring(c: Consumer<PageBuf>) -> (PageRing, Receiver<DiskCmd>) {
        let (tx, rx) = unbounded();
        (PageRing::new(c, tx), rx)
    }

    fn page(gen: u64, index: u64, valid: usize, fill: u8) -> PageBuf {
        PageBuf {
            gen,
            index,
            skip: 0,
            valid,
            data: vec![fill; 4096].into(),
        }
    }

    /// Pushes a page the way the disk thread delivers one: into the
    /// ring, then a wake for the stream.
    fn deliver(p: &mut Producer<PageBuf>, tx: &Sender<NetCmd>, stream: StreamId, mut b: PageBuf) {
        loop {
            match p.push(b) {
                Ok(()) => break,
                Err(PushError::Full(back)) => {
                    b = back;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(PushError::Closed(_)) => panic!("closed"),
            }
        }
        tx.send(NetCmd::Wake { stream }).unwrap();
    }

    #[test]
    fn plays_a_raw_stream_to_completion() {
        let send_sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let dest = client.local_addr().unwrap();
        let (tx, rx) = unbounded();
        let (etx, erx) = unbounded();
        let tick = Duration::from_millis(2);
        let net = std::thread::spawn(move || {
            run(
                send_sock,
                tick,
                rx,
                etx,
                MsuMetrics::new(),
                Arc::new(AtomicBool::new(false)),
            )
        });

        // 2.5 pages of content at a fast rate.
        let page = 4096usize;
        let len = page as u64 * 2 + 1000;
        let shared = mk_stream(7, FileKind::Raw, 3, len);
        let group = GroupShared::new(GroupId(7), 1);
        let (mut p, c) = spsc::ring(2);
        let (ring, _doorbell) = page_ring(c);
        let geometry = Geometry {
            page_size: page,
            internal_size: 512,
            max_keys: 8,
        };
        tx.send(NetCmd::AddPlay {
            shared: Arc::clone(&shared),
            group: Arc::clone(&group),
            ring,
            dest,
            // 8 Mbit/s, 1000-byte packets: ~1 ms per packet.
            pacing: PacingSpec::Constant {
                rate: BitRate::from_mbps(8),
                packet_bytes: 1000,
            },
            geometry,
        })
        .unwrap();

        // Feed pages like the disk thread would: it marks EOF when it
        // claims the last page, then delivers it, then releases.
        for i in 0..3u64 {
            let valid = if i == 2 { 1000 } else { page };
            if i == 2 {
                shared.ctl.lock().eof = true;
            }
            deliver(
                &mut p,
                &tx,
                StreamId(7),
                self::page(0, i, valid, i as u8 + 1),
            );
        }
        assert!(group.prime(StreamId(7)));
        tx.send(NetCmd::Release { group: GroupId(7) }).unwrap();

        let pkts = recv_all(&client, true, Duration::from_secs(10));
        let eos = pkts.last().unwrap();
        assert_eq!(eos.0.kind, PacketKind::EndOfStream);
        let media: Vec<_> = pkts
            .iter()
            .filter(|(h, _)| h.kind == PacketKind::Media)
            .collect();
        let total: usize = media.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(total as u64, len, "every byte delivered");
        // Sequence numbers are dense.
        for (i, (h, _)) in pkts.iter().enumerate() {
            assert_eq!(h.seq, i as u32);
        }
        // Offsets are monotone and paced (~1 ms apart at 8 Mbit/s).
        for w in media.windows(2) {
            assert!(w[1].0.offset >= w[0].0.offset);
        }
        match erx.recv_timeout(Duration::from_secs(2)).unwrap() {
            NetEvent::PlayFinished { stream } => assert_eq!(stream, StreamId(7)),
        }
        tx.send(NetCmd::Shutdown).unwrap();
        net.join().unwrap();
    }

    #[test]
    fn pacing_waits_for_group_release() {
        let send_sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let dest = client.local_addr().unwrap();
        let (tx, rx) = unbounded();
        let (etx, _erx) = unbounded();
        let net = std::thread::spawn(move || {
            run(
                send_sock,
                Duration::from_millis(2),
                rx,
                etx,
                MsuMetrics::new(),
                Arc::new(AtomicBool::new(false)),
            )
        });

        let shared = mk_stream(9, FileKind::Raw, 1, 1000);
        let group = GroupShared::new(GroupId(9), 2); // expects TWO members
        let (mut p, c) = spsc::ring(2);
        let (ring, _doorbell) = page_ring(c);
        tx.send(NetCmd::AddPlay {
            shared: Arc::clone(&shared),
            group: Arc::clone(&group),
            ring,
            dest,
            pacing: PacingSpec::Constant {
                rate: BitRate::from_mbps(8),
                packet_bytes: 1000,
            },
            geometry: Geometry {
                page_size: 4096,
                internal_size: 512,
                max_keys: 8,
            },
        })
        .unwrap();
        shared.ctl.lock().eof = true;
        deliver(&mut p, &tx, StreamId(9), page(0, 0, 1000, 5));
        group.prime(StreamId(9)); // only one of two members primed

        // Nothing may be sent while the group is unreleased.
        let pkts = recv_all(&client, false, Duration::from_millis(300));
        assert!(pkts.is_empty(), "unreleased group must stay silent");

        // The second member primes. Nothing rescans the group, so the
        // stream stays silent until the release command arrives.
        assert!(group.prime(StreamId(10)));
        let pkts = recv_all(&client, false, Duration::from_millis(150));
        assert!(pkts.is_empty(), "release takes effect only on its command");
        tx.send(NetCmd::Release { group: GroupId(9) }).unwrap();
        let pkts = recv_all(&client, true, Duration::from_secs(5));
        assert!(!pkts.is_empty());
        tx.send(NetCmd::Shutdown).unwrap();
        net.join().unwrap();
    }

    #[test]
    fn stale_generation_pages_are_discarded() {
        let send_sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let dest = client.local_addr().unwrap();
        let (tx, rx) = unbounded();
        let (etx, _erx) = unbounded();
        let net = std::thread::spawn(move || {
            run(
                send_sock,
                Duration::from_millis(2),
                rx,
                etx,
                MsuMetrics::new(),
                Arc::new(AtomicBool::new(false)),
            )
        });

        let shared = mk_stream(11, FileKind::Raw, 2, 2000);
        // Pretend a seek already happened: current gen is 1.
        {
            let mut ctl = shared.ctl.lock();
            ctl.gen = 1;
            ctl.start_seq = 0;
        }
        let group = GroupShared::new(GroupId(11), 1);
        let (mut p, c) = spsc::ring(4);
        let (ring, _doorbell) = page_ring(c);
        tx.send(NetCmd::AddPlay {
            shared: Arc::clone(&shared),
            group: Arc::clone(&group),
            ring,
            dest,
            pacing: PacingSpec::Constant {
                rate: BitRate::from_mbps(8),
                packet_bytes: 1000,
            },
            geometry: Geometry {
                page_size: 4096,
                internal_size: 512,
                max_keys: 8,
            },
        })
        .unwrap();
        // A stale page (gen 0) followed by a current one (gen 1).
        shared.ctl.lock().eof = true;
        deliver(&mut p, &tx, StreamId(11), page(0, 0, 1000, 0xAA));
        deliver(&mut p, &tx, StreamId(11), page(1, 1, 1000, 0xBB));
        assert!(group.prime(StreamId(11)));
        tx.send(NetCmd::Release { group: GroupId(11) }).unwrap();

        let pkts = recv_all(&client, true, Duration::from_secs(5));
        let media: Vec<_> = pkts
            .iter()
            .filter(|(h, _)| h.kind == PacketKind::Media)
            .collect();
        assert_eq!(media.len(), 1);
        assert!(
            media[0].1.iter().all(|&b| b == 0xBB),
            "only the gen-1 page plays"
        );
        tx.send(NetCmd::Shutdown).unwrap();
        net.join().unwrap();
    }

    #[test]
    fn timer_wakes_at_the_earliest_deadline() {
        let now = Instant::now();
        let due = now + Duration::from_millis(7);
        assert_eq!(
            next_wake(Some(due), None, Duration::from_millis(1)),
            Some(due)
        );
        // A previous wakeup long ago does not delay it.
        let last = now - Duration::from_secs(1);
        assert_eq!(
            next_wake(Some(due), Some(last), Duration::from_millis(1)),
            Some(due)
        );
    }

    #[test]
    fn timer_never_fires_sooner_than_a_tick_after_the_last() {
        let last = Instant::now();
        let tick = Duration::from_millis(1);
        // Already overdue, or due inside the tick: both wait the tick out.
        let overdue = last - Duration::from_millis(3);
        assert_eq!(
            next_wake(Some(overdue), Some(last), tick),
            Some(last + tick)
        );
        let soon = last + Duration::from_micros(200);
        assert_eq!(next_wake(Some(soon), Some(last), tick), Some(last + tick));
    }

    #[test]
    fn timer_blocks_when_nothing_is_due() {
        let last = Instant::now();
        assert_eq!(next_wake(None, Some(last), Duration::from_millis(1)), None);
        assert_eq!(next_wake(None, None, Duration::from_millis(1)), None);
    }

    /// A net thread plus one released raw stream of `pages` 4 KB pages
    /// in 1000-byte packets (one per ms at 8 Mbit/s), whose pages the
    /// test delivers by hand.
    struct OneStream {
        tx: Sender<NetCmd>,
        client: UdpSocket,
        shared: Arc<StreamShared>,
        producer: Producer<PageBuf>,
        doorbell: Receiver<DiskCmd>,
        net: std::thread::JoinHandle<()>,
    }

    impl OneStream {
        fn start(id: u64, pages: u64, ring: usize, rate: BitRate) -> OneStream {
            let send_sock = UdpSocket::bind("127.0.0.1:0").unwrap();
            let client = UdpSocket::bind("127.0.0.1:0").unwrap();
            let dest = client.local_addr().unwrap();
            let (tx, rx) = unbounded();
            let (etx, _erx) = unbounded();
            let net = std::thread::spawn(move || {
                run(
                    send_sock,
                    Duration::from_millis(1),
                    rx,
                    etx,
                    MsuMetrics::new(),
                    Arc::new(AtomicBool::new(false)),
                )
            });
            let shared = mk_stream(id, FileKind::Raw, pages, pages * 4096);
            let group = GroupShared::new(GroupId(id), 1);
            let (producer, c) = spsc::ring(ring);
            let (ring, doorbell) = page_ring(c);
            tx.send(NetCmd::AddPlay {
                shared: Arc::clone(&shared),
                group: Arc::clone(&group),
                ring,
                dest,
                pacing: PacingSpec::Constant {
                    rate,
                    packet_bytes: 1000,
                },
                geometry: Geometry {
                    page_size: 4096,
                    internal_size: 512,
                    max_keys: 8,
                },
            })
            .unwrap();
            assert!(group.prime(StreamId(id)));
            tx.send(NetCmd::Release { group: GroupId(id) }).unwrap();
            OneStream {
                tx,
                client,
                shared,
                producer,
                doorbell,
                net,
            }
        }

        fn deliver(&mut self, b: PageBuf) {
            deliver(&mut self.producer, &self.tx, self.shared.id, b);
        }

        fn wake(&self) {
            self.tx
                .send(NetCmd::Wake {
                    stream: self.shared.id,
                })
                .unwrap();
        }

        fn stop(self) {
            self.tx.send(NetCmd::Shutdown).unwrap();
            self.net.join().unwrap();
        }
    }

    #[test]
    fn pause_and_resume_take_effect_on_their_wake() {
        // 1 Mbit/s: a packet every 8 ms, 256 ms of content.
        let mut s = OneStream::start(41, 8, 8, BitRate::from_mbps(1));
        for i in 0..8 {
            s.deliver(page(0, i, 4096, i as u8));
        }
        assert!(!recv_all(&s.client, false, Duration::from_millis(50)).is_empty());

        s.shared.ctl.lock().pacer.pause(Instant::now());
        s.wake();
        std::thread::sleep(Duration::from_millis(20));
        let _ = recv_all(&s.client, false, Duration::from_millis(20)); // in flight
        assert!(
            recv_all(&s.client, false, Duration::from_millis(100)).is_empty(),
            "paused stream is silent"
        );

        // Resuming the control block alone changes nothing: no periodic
        // scan rereads it. The wake that the control plane sends does.
        s.shared.ctl.lock().pacer.resume(Instant::now());
        assert!(
            recv_all(&s.client, false, Duration::from_millis(100)).is_empty(),
            "resume takes effect only on its wake"
        );
        s.wake();
        let pkts = recv_all(&s.client, false, Duration::from_millis(100));
        assert!(pkts.len() >= 5, "resumed: {} packets", pkts.len());
        s.stop();
    }

    #[test]
    fn seek_wake_switches_to_the_new_generation() {
        let mut s = OneStream::start(42, 64, 4, BitRate::from_mbps(8));
        s.deliver(page(0, 0, 4096, 0xAA));
        s.deliver(page(0, 1, 4096, 0xAA));
        assert!(!recv_all(&s.client, false, Duration::from_millis(30)).is_empty());

        // What the disk thread does for a seek to packet 400 (page 100),
        // followed by the control plane's wake and the first delivery.
        let target = CbrSchedule::new(BitRate::from_mbps(8), 1000).offset_of(400);
        {
            let mut ctl = s.shared.ctl.lock();
            ctl.gen = 1;
            ctl.start_seq = 400;
            ctl.pacer.rebase(Instant::now(), target);
        }
        s.wake();
        std::thread::sleep(Duration::from_millis(20));
        let _ = recv_all(&s.client, false, Duration::from_millis(20));
        s.deliver(page(1, 100, 4096, 0xBB));
        let pkts = recv_all(&s.client, false, Duration::from_millis(50));
        let media: Vec<_> = pkts
            .iter()
            .filter(|(h, _)| h.kind == PacketKind::Media)
            .collect();
        assert!(!media.is_empty(), "playback continues after the seek");
        for (h, p) in media {
            assert!(h.offset >= target, "only post-seek packets play");
            assert!(p.iter().all(|&b| b == 0xBB), "stale pages discarded");
        }
        s.stop();
    }

    #[test]
    fn starved_stream_refills_on_the_delivery_wake() {
        let mut s = OneStream::start(43, 8, 4, BitRate::from_mbps(8));
        s.deliver(page(0, 0, 4096, 1));
        // One page is four packets, 1 ms apart.
        assert_eq!(
            recv_all(&s.client, false, Duration::from_millis(100)).len(),
            4
        );
        // The ring is empty; the only page popped left 4 free slots, so
        // the disk thread was asked for more.
        assert!(matches!(s.doorbell.try_recv(), Ok(DiskCmd::Doorbell)));

        // A page pushed without its wake sits unread: the starved stream
        // has no deadline, so the thread is blocked, not polling.
        s.producer.push(page(0, 1, 4096, 2)).unwrap();
        assert!(recv_all(&s.client, false, Duration::from_millis(100)).is_empty());
        s.wake();
        let pkts = recv_all(&s.client, false, Duration::from_millis(100));
        assert_eq!(pkts.len(), 4);
        assert!(pkts.last().unwrap().1.iter().all(|&b| b == 2));
        s.stop();
    }

    #[test]
    fn record_receiver_builds_records_and_closes_ring() {
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        let sink_addr = sink.local_addr().unwrap();
        let shared = mk_stream(21, FileKind::IbTree, 0, 0);
        let (producer, mut consumer) = spsc::ring(64);
        let stop = Arc::new(AtomicBool::new(false));
        let module = calliope_proto::module::registry(
            calliope_types::content::ProtocolId::ConstantRate,
            Some(BitRate::from_kbps(64)),
        );
        let (doorbell, rings) = unbounded();
        let h = spawn_record_receiver(
            sink,
            Arc::clone(&shared),
            module,
            producer,
            doorbell,
            Arc::clone(&stop),
            MsuMetrics::new(),
        );

        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        for seq in 0..5u32 {
            let header = DataHeader {
                stream: StreamId(21),
                seq,
                offset: MediaTime::ZERO,
                kind: PacketKind::Media,
            };
            client
                .send_to(&header.encode_packet(&[seq as u8; 100]), sink_addr)
                .unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        // End-of-stream marker terminates the receiver.
        let eos = DataHeader {
            stream: StreamId(21),
            seq: 5,
            offset: MediaTime::ZERO,
            kind: PacketKind::EndOfStream,
        };
        client.send_to(&eos.encode_packet(&[]), sink_addr).unwrap();
        h.join().unwrap();

        let mut records = Vec::new();
        loop {
            match consumer.pop() {
                Ok(r) => records.push(r),
                Err(PopError::Empty) => std::thread::sleep(Duration::from_millis(1)),
                Err(PopError::Closed) => break,
            }
        }
        assert_eq!(records.len(), 5);
        assert_eq!(
            records[0].offset,
            MediaTime::ZERO,
            "first packet is time zero"
        );
        for w in records.windows(2) {
            assert!(
                w[1].offset >= w[0].offset,
                "arrival-derived schedule is monotone"
            );
        }
        // relaxed: single-threaded test readback.
        assert_eq!(shared.stats.packets.load(Ordering::Relaxed), 5);
        // Five records stay under one batch: the only ring is the close.
        assert!(matches!(rings.try_recv(), Ok(DiskCmd::Doorbell)));
        assert!(rings.try_recv().is_err(), "one ring for the close");
    }

    #[test]
    fn record_receiver_ignores_foreign_and_garbage_datagrams() {
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        let sink_addr = sink.local_addr().unwrap();
        let shared = mk_stream(31, FileKind::IbTree, 0, 0);
        let (producer, mut consumer) = spsc::ring(16);
        let stop = Arc::new(AtomicBool::new(false));
        let module = calliope_proto::module::registry(
            calliope_types::content::ProtocolId::ConstantRate,
            None,
        );
        let (doorbell, _rings) = unbounded();
        let h = spawn_record_receiver(
            sink,
            shared,
            module,
            producer,
            doorbell,
            Arc::clone(&stop),
            MsuMetrics::new(),
        );
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client.send_to(b"not a calliope packet", sink_addr).unwrap();
        // A packet for a different stream id.
        let foreign = DataHeader {
            stream: StreamId(999),
            seq: 0,
            offset: MediaTime::ZERO,
            kind: PacketKind::Media,
        };
        client
            .send_to(&foreign.encode_packet(&[1; 10]), sink_addr)
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::Release);
        h.join().unwrap();
        assert_eq!(consumer.pop(), Err(PopError::Closed), "nothing recorded");
    }
}
