//! The disk process: one thread per disk.
//!
//! "When the client starts a read stream, the MSU's disk process loads
//! data from disk into a shared memory buffer. … The disk process makes
//! sure that the network process always has buffered data ready to
//! send. When data is recorded, the network process fills buffers and
//! the disk process writes full ones to disk." (paper §2.3)
//!
//! The thread services its read streams in round-robin duty-cycle order
//! (§2.2.1), reading a batch of 256 KB pages per eligible stream per
//! pass, and drains recording rings into the file system. It also owns
//! the MSU file system for its disk, so metadata operations (stat,
//! create, seek, trick-switch) arrive as commands with reply channels.
//!
//! The thread never polls: it sleeps on its command channel, and the
//! readers of its rings ring a doorbell ([`DiskCmd::Doorbell`]) when a
//! play ring has room for a read-ahead batch ([`PageRing`]) or a
//! recording ring has filled past [`RECORD_BATCH`] records or closed.

use crate::metrics::{MsuMetrics, DISK_CYCLE_BUDGET_US};
use crate::net::NetCmd;
use crate::pool::{PageData, PagePool};
use crate::spsc::{Consumer, PopError, Producer};
use crate::stream::{raw_seek, ActiveFile, PageBuf, StreamCtl, StreamPhase, StreamShared};
use crate::trick::{self, TrickMode};
use calliope_proto::record::PacketRecord;
use calliope_proto::schedule::CbrSchedule;
use calliope_storage::catalog::FileKind;
use calliope_storage::ibtree::{IbTreeReader, IbTreeWriter};
use calliope_storage::page::Geometry;
use calliope_storage::{coalesce_runs, ElevatorState, MsuFs};
use calliope_types::error::{Error, Result};
use calliope_types::time::MediaTime;
use calliope_types::wire::data::PacketKind;
use calliope_types::StreamId;
use crossbeam::channel::{Receiver, Sender};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Events the disk thread reports to the control plane.
#[derive(Debug)]
pub enum DiskEvent {
    /// A group became fully primed and was released.
    GroupReleased(calliope_types::GroupId),
    /// A recording finished (ring closed) and was finalized.
    RecordFinished {
        /// Which stream.
        stream: StreamId,
        /// Payload bytes recorded.
        bytes: u64,
        /// Recording duration, µs.
        duration_us: u64,
    },
    /// A stream died on an I/O error.
    StreamFailed {
        /// Which stream.
        stream: StreamId,
        /// What happened.
        msg: String,
    },
}

/// Names of the trick-play files attached to a read stream.
#[derive(Clone, Debug, Default)]
pub struct TrickNames {
    /// Fast-forward file, if loaded.
    pub fast_forward: Option<String>,
    /// Fast-backward file, if loaded.
    pub fast_backward: Option<String>,
}

/// Commands accepted by a disk thread.
pub enum DiskCmd {
    /// Looks up a file's metadata (used by the Coordinator RPC path).
    Stat {
        /// File name.
        name: String,
        /// Reply channel.
        reply: Sender<Result<ActiveFile>>,
    },
    /// Creates a file for a recording, reserving space.
    Create {
        /// File name.
        name: String,
        /// Raw or IB-tree.
        kind: FileKind,
        /// Bytes to reserve from the client's length estimate.
        reserve_bytes: u64,
        /// Reply channel.
        reply: Sender<Result<()>>,
    },
    /// Deletes a file.
    Delete {
        /// File name.
        name: String,
        /// Reply channel.
        reply: Sender<Result<()>>,
    },
    /// Reports free space, in bytes.
    FreeBytes {
        /// Reply channel.
        reply: Sender<u64>,
    },
    /// Reads one file page (used by the replication copy path).
    ReadPage {
        /// File name.
        name: String,
        /// File-relative page index.
        page: u64,
        /// Reply channel (the full block).
        reply: Sender<Result<Vec<u8>>>,
    },
    /// Appends one page to an unfinalized file (replication copy path).
    AppendPage {
        /// File name.
        name: String,
        /// The page (one block).
        data: Vec<u8>,
        /// Payload bytes the page contributes to `len_bytes`.
        payload_bytes: u64,
        /// Reply channel.
        reply: Sender<Result<u64>>,
    },
    /// Finalizes a file created through the copy path.
    Finalize {
        /// File name.
        name: String,
        /// Play duration, µs.
        duration_us: u64,
        /// IB-tree root (empty for raw files).
        root: Vec<calliope_storage::catalog::RootEntry>,
        /// Reply channel.
        reply: Sender<Result<()>>,
    },
    /// Registers a play stream: the disk thread fills `producer` with
    /// pages.
    AddRead {
        /// Shared stream state.
        shared: Arc<StreamShared>,
        /// Group for release coordination.
        group: Arc<crate::stream::GroupShared>,
        /// The page ring (capacity 2 = double buffering).
        producer: Producer<PageBuf>,
        /// CBR schedule for raw files (None for stored schedules).
        schedule: Option<CbrSchedule>,
        /// Trick-play files, if any.
        trick: TrickNames,
    },
    /// Registers a recording stream: the disk thread drains `consumer`.
    AddWrite {
        /// Shared stream state (its `ctl.file.name` names the file).
        shared: Arc<StreamShared>,
        /// Records from the protocol module.
        consumer: Consumer<PacketRecord>,
        /// Whether to store the delivery schedule (IB-tree) or
        /// concatenate payloads (raw).
        stores_schedule: bool,
        /// For constant-rate recordings, the nominal rate: the
        /// finalized duration is `bytes / rate`, independent of how
        /// fast the packets arrived.
        cbr_rate: Option<calliope_types::time::BitRate>,
    },
    /// Seeks a play stream to a media time.
    Seek {
        /// Which stream.
        stream: StreamId,
        /// Target offset.
        target: MediaTime,
        /// Reply channel.
        reply: Sender<Result<()>>,
    },
    /// Switches a play stream between normal and trick-mode files.
    Trick {
        /// Which stream.
        stream: StreamId,
        /// Desired mode.
        mode: TrickMode,
        /// Reply channel.
        reply: Sender<Result<()>>,
    },
    /// Drops a stream (its rings are torn down by the owner).
    Remove {
        /// Which stream.
        stream: StreamId,
    },
    /// Wakes the thread for a duty cycle: a play ring has room for a
    /// read-ahead batch, or a recording ring filled past
    /// [`RECORD_BATCH`] or closed. See [`PageRing`].
    Doorbell,
    /// Stops the thread.
    Shutdown,
}

impl std::fmt::Debug for DiskCmd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DiskCmd::Stat { .. } => "Stat",
            DiskCmd::Create { .. } => "Create",
            DiskCmd::Delete { .. } => "Delete",
            DiskCmd::FreeBytes { .. } => "FreeBytes",
            DiskCmd::ReadPage { .. } => "ReadPage",
            DiskCmd::AppendPage { .. } => "AppendPage",
            DiskCmd::Finalize { .. } => "Finalize",
            DiskCmd::AddRead { .. } => "AddRead",
            DiskCmd::AddWrite { .. } => "AddWrite",
            DiskCmd::Seek { .. } => "Seek",
            DiskCmd::Trick { .. } => "Trick",
            DiskCmd::Remove { .. } => "Remove",
            DiskCmd::Doorbell => "Doorbell",
            DiskCmd::Shutdown => "Shutdown",
        };
        write!(f, "DiskCmd::{name}")
    }
}

struct ReadIo {
    shared: Arc<StreamShared>,
    group: Arc<crate::stream::GroupShared>,
    producer: Producer<PageBuf>,
    schedule: Option<CbrSchedule>,
    trick: TrickNames,
    primed: bool,
    /// The normal-rate file (for trick-position math once `ctl.file` is
    /// a filtered one).
    normal: ActiveFile,
}

/// Per-stream read-ahead ceiling: with the ring at capacity 4, up to two
/// pages ride each duty cycle while two are still being drained —
/// double buffering (§2.2.1) with one cycle of slack.
pub const MAX_READ_AHEAD: usize = 2;

/// Records a recording ring collects before its receiver rings the disk
/// thread's doorbell (the ring holds 256): writes go to disk in batches
/// rather than one wakeup per packet.
pub const RECORD_BATCH: usize = 32;

/// Free slots a play ring needs before the duty cycle reads for it: a
/// whole read-ahead batch (or the whole ring, if it is smaller), so
/// every claim is a multi-page run the elevator can coalesce.
fn read_batch(capacity: usize) -> usize {
    MAX_READ_AHEAD.min(capacity)
}

/// The consuming end of a play ring, paired with the doorbell of the
/// disk thread that fills it.
///
/// The disk thread sleeps until a command arrives, so whoever drains a
/// ring must say when it has room: [`pop`](Self::pop) rings the
/// doorbell whenever the ring is left with a full read-ahead batch of
/// free slots. Ringing at that threshold, not on every pop, keeps each
/// duty cycle's claims multi-page.
pub struct PageRing {
    consumer: Consumer<PageBuf>,
    doorbell: Sender<DiskCmd>,
}

impl std::fmt::Debug for PageRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageRing")
            .field("consumer", &self.consumer)
            .finish_non_exhaustive()
    }
}

impl PageRing {
    /// Pairs a ring's consumer with its disk thread's command channel.
    pub fn new(consumer: Consumer<PageBuf>, doorbell: Sender<DiskCmd>) -> PageRing {
        PageRing { consumer, doorbell }
    }

    /// Pops the next page, ringing the doorbell if the ring now has room
    /// for a read-ahead batch.
    pub fn pop(&mut self) -> std::result::Result<PageBuf, PopError> {
        let page = self.consumer.pop()?;
        if self.consumer.slack() >= read_batch(self.consumer.capacity()) {
            // A gone disk thread means the stream is being torn down.
            let _ = self.doorbell.send(DiskCmd::Doorbell);
        }
        Ok(page)
    }

    /// True if no page is buffered.
    pub fn is_empty(&self) -> bool {
        self.consumer.is_empty()
    }

    /// Deepest occupancy the ring has ever reached.
    pub fn high_water(&self) -> usize {
        self.consumer.high_water()
    }
}

/// One page "ticket" claimed from a stream's control block during the
/// gather phase; the I/O happens later, elevator-ordered and coalesced.
struct Claim {
    id: StreamId,
    gen: u64,
    index: u64,
    skip: usize,
    valid: usize,
    /// Absolute device block address (the elevator's sort key).
    abs: u64,
}

enum WriteSink {
    Ib {
        writer: IbTreeWriter,
    },
    Raw {
        buf: Vec<u8>,
        payload_bytes: u64,
        last_offset: MediaTime,
        cbr_rate: Option<calliope_types::time::BitRate>,
    },
}

struct WriteIo {
    consumer: Consumer<PacketRecord>,
    sink: WriteSink,
    file: String,
    failed: bool,
}

/// The disk thread main loop. Runs until `Shutdown` or channel
/// disconnection.
///
/// The thread sleeps on its command channel. Every command — most often
/// a [`DiskCmd::Doorbell`] from a ring's reader or a recording's
/// receiver — is followed by duty cycles until one makes no progress.
/// Delivered pages and group releases wake the network thread through
/// `net`.
pub fn run(
    fs: MsuFs,
    rx: Receiver<DiskCmd>,
    events: Sender<DiskEvent>,
    net: Sender<NetCmd>,
    metrics: Arc<MsuMetrics>,
) {
    let mut disk = DiskThread {
        geo: geometry_for(&fs),
        pool: PagePool::new(fs.block_size()),
        fs,
        elevator: ElevatorState::new(),
        reads: HashMap::new(),
        writes: HashMap::new(),
        order: Vec::new(),
        rr: 0,
        events,
        net,
        metrics,
    };
    while let Ok(cmd) = rx.recv() {
        if !disk.handle_cmd(cmd) {
            return;
        }
        loop {
            match rx.try_recv() {
                Ok(cmd) => {
                    if !disk.handle_cmd(cmd) {
                        return;
                    }
                }
                // Queue drained: cycle until a pass moves no data.
                Err(crossbeam::channel::TryRecvError::Empty) => {
                    if !disk.duty_cycle() {
                        break;
                    }
                }
                Err(crossbeam::channel::TryRecvError::Disconnected) => return,
            }
        }
    }
}

/// Everything one disk thread owns.
struct DiskThread {
    fs: MsuFs,
    geo: Geometry,
    pool: PagePool,
    elevator: ElevatorState,
    reads: HashMap<StreamId, ReadIo>,
    writes: HashMap<StreamId, WriteIo>,
    order: Vec<StreamId>,
    rr: usize,
    events: Sender<DiskEvent>,
    net: Sender<NetCmd>,
    metrics: Arc<MsuMetrics>,
}

impl DiskThread {
    /// One pass over every read and write stream; returns whether it
    /// moved any data.
    fn duty_cycle(&mut self) -> bool {
        let mut progressed = false;
        let cycle_start = Instant::now();
        let metrics = &self.metrics;
        let fs = &mut self.fs;

        // Duty cycle, gather phase: claim the next pages of every stream
        // whose ring has room for a read-ahead batch, so the whole
        // cycle's I/O can be elevator-ordered and coalesced. The claims
        // advance `next_page` under the lock; the reads happen outside
        // it — a concurrent seek bumps `gen` and the network thread
        // discards the stale pages.
        let mut claims: Vec<Claim> = Vec::new();
        let mut failed: Vec<(StreamId, String)> = Vec::new();
        if !self.order.is_empty() {
            for probe in 0..self.order.len() {
                let id = self.order[(self.rr + probe) % self.order.len()];
                let Some(io) = self.reads.get_mut(&id) else {
                    continue;
                };
                if io.producer.is_closed() {
                    continue;
                }
                let slack = io.producer.slack();
                if slack < read_batch(io.producer.capacity()) {
                    continue;
                }
                let mut ctl = io.shared.ctl.lock();
                if ctl.phase == StreamPhase::Done {
                    continue;
                }
                for _ in 0..slack.min(MAX_READ_AHEAD) {
                    if ctl.eof || ctl.next_page >= ctl.file.pages {
                        ctl.eof = true;
                        break;
                    }
                    let page_idx = ctl.next_page;
                    ctl.next_page += 1;
                    if ctl.next_page >= ctl.file.pages {
                        ctl.eof = true;
                    }
                    let skip = std::mem::take(&mut ctl.pending_skip);
                    let valid = match ctl.file.kind {
                        FileKind::Raw => {
                            let start = page_idx * fs.block_size() as u64;
                            (ctl.file.len_bytes - start.min(ctl.file.len_bytes))
                                .min(fs.block_size() as u64) as usize
                        }
                        FileKind::IbTree => fs.block_size(),
                    };
                    match fs.page_block(&ctl.file.name, page_idx) {
                        Ok(abs) => claims.push(Claim {
                            id,
                            gen: ctl.gen,
                            index: page_idx,
                            skip,
                            valid,
                            abs,
                        }),
                        Err(e) => {
                            ctl.phase = StreamPhase::Done;
                            failed.push((id, e.to_string()));
                            break;
                        }
                    }
                }
            }
            self.rr = (self.rr + 1) % self.order.len();
        }

        // Issue phase: SCAN-order the batch, merge physically adjacent
        // blocks into single transfers, and read into pooled buffers.
        if !claims.is_empty() {
            let addrs: Vec<u64> = claims.iter().map(|c| c.abs).collect();
            let head_before = self.elevator.head;
            let issue = self.elevator.plan(&addrs);
            let planned: Vec<u64> = issue.iter().map(|&i| addrs[i]).collect();
            let gather_travel = ElevatorState::travel(head_before, &addrs);
            let scan_travel = ElevatorState::travel(head_before, &planned);
            metrics
                .disk_seek_saved_blocks
                .add(gather_travel.saturating_sub(scan_travel));
            metrics.disk_batch_pages.record(claims.len() as u64);
            metrics.disk_batched_pages_total.add(claims.len() as u64);

            let mut results: Vec<Option<PageData>> = (0..claims.len()).map(|_| None).collect();
            for run in coalesce_runs(&addrs, &issue) {
                metrics.disk_coalesced_runs.add(1);
                if run.len() >= 2 {
                    metrics.disk_batched_pages.add(run.len() as u64);
                }
                let read_start = Instant::now();
                let mut bufs: Vec<crate::pool::PooledBuf> =
                    (0..run.len()).map(|_| self.pool.get()).collect();
                let res = {
                    let mut refs: Vec<&mut [u8]> =
                        bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
                    fs.read_blocks_abs(run.start, &mut refs)
                };
                match res {
                    Ok(()) => {
                        metrics
                            .disk_read_us
                            .record(read_start.elapsed().as_micros() as u64);
                        for (buf, &ci) in bufs.into_iter().zip(&run.members) {
                            results[ci] = Some(buf.freeze());
                        }
                    }
                    Err(e) => {
                        // Unread pooled buffers return via drop. Fail every
                        // stream with a page in this run, once each.
                        for &ci in &run.members {
                            let id = claims[ci].id;
                            if !failed.iter().any(|(f, _)| *f == id) {
                                failed.push((id, e.to_string()));
                            }
                        }
                    }
                }
            }
            let exhausted = self.pool.drain_heap_fallbacks();
            if exhausted > 0 {
                metrics.pool_exhausted.add(exhausted);
            }

            // Deliver phase: push per stream in claim order — claims were
            // taken in ascending page order per stream, so rings stay
            // ordered no matter how the elevator reordered the I/O.
            let mut delivered: Vec<StreamId> = Vec::new();
            for (ci, claim) in claims.iter().enumerate() {
                let Some(data) = results[ci].take() else {
                    continue;
                };
                let Some(io) = self.reads.get_mut(&claim.id) else {
                    continue;
                };
                let page = PageBuf {
                    gen: claim.gen,
                    index: claim.index,
                    skip: claim.skip,
                    valid: claim.valid,
                    data,
                };
                // We claimed at most the ring's slack and are the sole
                // producer, so Full is impossible; Closed pages recycle
                // via drop.
                if io.producer.push(page).is_ok() {
                    progressed = true;
                    if delivered.last() != Some(&claim.id) {
                        delivered.push(claim.id);
                    }
                    if !io.primed {
                        io.primed = true;
                        if io.group.prime(claim.id) {
                            let _ = self.net.send(NetCmd::Release { group: io.group.id });
                            let _ = self.events.send(DiskEvent::GroupReleased(io.group.id));
                        }
                    }
                }
            }
            // The network thread sleeps until its next deadline; a stream
            // it starved for pages has none, so tell it about each one.
            for stream in delivered {
                let _ = self.net.send(NetCmd::Wake { stream });
            }
        }
        for (id, msg) in failed {
            if let Some(io) = self.reads.get(&id) {
                io.shared.ctl.lock().phase = StreamPhase::Done;
            }
            let _ = self
                .events
                .send(DiskEvent::StreamFailed { stream: id, msg });
        }

        // Drain recording rings.
        let mut finished: Vec<StreamId> = Vec::new();
        for (id, w) in self.writes.iter_mut() {
            let write_start = Instant::now();
            let served = serve_write(fs, w);
            if !matches!(served, Ok(ServeWrite::Idle)) {
                metrics
                    .disk_write_us
                    .record(write_start.elapsed().as_micros() as u64);
            }
            match served {
                Ok(ServeWrite::Progress) => progressed = true,
                Ok(ServeWrite::Idle) => {}
                Ok(ServeWrite::Finished { bytes, duration_us }) => {
                    let _ = self.events.send(DiskEvent::RecordFinished {
                        stream: *id,
                        bytes,
                        duration_us,
                    });
                    finished.push(*id);
                    progressed = true;
                }
                Err(e) => {
                    let _ = self.events.send(DiskEvent::StreamFailed {
                        stream: *id,
                        msg: e.to_string(),
                    });
                    finished.push(*id);
                }
            }
        }
        for id in finished {
            self.writes.remove(&id);
        }

        // Duty-cycle accounting: a pass that outruns the 10 ms timer
        // granularity means this disk is oversubscribed.
        if progressed {
            let pass_us = cycle_start.elapsed().as_micros() as u64;
            if pass_us > DISK_CYCLE_BUDGET_US {
                metrics
                    .disk_cycle_overrun_us
                    .record(pass_us - DISK_CYCLE_BUDGET_US);
                tracing::debug!(
                    "duty cycle overran its budget by {} µs",
                    pass_us - DISK_CYCLE_BUDGET_US
                );
            }
        }
        progressed
    }

    /// Applies one command; returns false on `Shutdown`.
    fn handle_cmd(&mut self, cmd: DiskCmd) -> bool {
        let fs = &mut self.fs;
        match cmd {
            DiskCmd::Stat { name, reply } => {
                let _ = reply.send(stat_file(fs, &name));
            }
            DiskCmd::Create {
                name,
                kind,
                reserve_bytes,
                reply,
            } => {
                let _ = reply.send(fs.create(&name, kind, reserve_bytes));
            }
            DiskCmd::Delete { name, reply } => {
                let _ = reply.send(fs.delete(&name));
            }
            DiskCmd::FreeBytes { reply } => {
                let _ = reply.send(fs.free_bytes());
            }
            DiskCmd::ReadPage { name, page, reply } => {
                let mut buf = vec![0u8; fs.block_size()];
                let _ = reply.send(fs.read_page(&name, page, &mut buf).map(|()| buf));
            }
            DiskCmd::AppendPage {
                name,
                data,
                payload_bytes,
                reply,
            } => {
                let _ = reply.send(fs.append_page(&name, &data, payload_bytes));
            }
            DiskCmd::Finalize {
                name,
                duration_us,
                root,
                reply,
            } => {
                let _ = reply.send(fs.finalize(&name, duration_us, root));
            }
            DiskCmd::AddRead {
                shared,
                group,
                producer,
                schedule,
                trick,
            } => {
                let id = shared.id;
                let normal = shared.ctl.lock().file.clone();
                // Size the pool here, on the control path, so the duty
                // cycle never allocates: every stream can have a full ring
                // of pages outstanding plus the one the network thread
                // popped and is still transmitting from.
                let need: u64 = self
                    .reads
                    .values()
                    .map(|io| io.producer.capacity() as u64 + 1)
                    .sum::<u64>()
                    + producer.capacity() as u64
                    + 1;
                self.pool.ensure_capacity(need);
                self.reads.insert(
                    id,
                    ReadIo {
                        shared,
                        group,
                        producer,
                        schedule,
                        trick,
                        primed: false,
                        normal,
                    },
                );
                self.order.push(id);
            }
            DiskCmd::AddWrite {
                shared,
                consumer,
                stores_schedule,
                cbr_rate,
            } => {
                let id = shared.id;
                let file = shared.ctl.lock().file.name.clone();
                drop(shared);
                let sink = if stores_schedule {
                    match IbTreeWriter::new(self.geo) {
                        Ok(writer) => WriteSink::Ib { writer },
                        Err(e) => {
                            // Geometry was validated at startup; treat as
                            // fatal for this stream only.
                            let _ = e;
                            return true;
                        }
                    }
                } else {
                    WriteSink::Raw {
                        buf: Vec::with_capacity(fs.block_size()),
                        payload_bytes: 0,
                        last_offset: MediaTime::ZERO,
                        cbr_rate,
                    }
                };
                self.writes.insert(
                    id,
                    WriteIo {
                        consumer,
                        sink,
                        file,
                        failed: false,
                    },
                );
            }
            DiskCmd::Seek {
                stream,
                target,
                reply,
            } => {
                let res = match self.reads.get_mut(&stream) {
                    Some(io) => do_seek(fs, self.geo, io, target),
                    None => Err(Error::NoSuchStream { stream }),
                };
                let _ = reply.send(res);
            }
            DiskCmd::Trick {
                stream,
                mode,
                reply,
            } => {
                let res = match self.reads.get_mut(&stream) {
                    Some(io) => do_trick(fs, io, mode),
                    None => Err(Error::NoSuchStream { stream }),
                };
                let _ = reply.send(res);
            }
            DiskCmd::Remove { stream } => {
                self.reads.remove(&stream);
                self.order.retain(|s| *s != stream);
                // Recording removal happens via the ring closing; dropping
                // here only matters if the receiver never started.
                self.writes.remove(&stream);
            }
            // Its only job is to end the wait; the duty cycle that
            // follows every command does the work.
            DiskCmd::Doorbell => {}
            DiskCmd::Shutdown => return false,
        }
        true
    }
}

fn geometry_for(fs: &MsuFs) -> Geometry {
    let mut geo = Geometry::paper();
    if fs.block_size() != geo.page_size {
        // Test configurations use small blocks; scale the internal page
        // down proportionally.
        geo = Geometry {
            page_size: fs.block_size(),
            internal_size: (fs.block_size() / 8).max(144),
            max_keys: 8,
        };
    }
    geo
}

fn stat_file(fs: &MsuFs, name: &str) -> Result<ActiveFile> {
    let meta = fs.file(name)?;
    Ok(ActiveFile {
        name: meta.name.clone(),
        kind: meta.kind,
        pages: meta.pages(),
        len_bytes: meta.len_bytes,
        root: meta.root.clone(),
        duration_us: meta.duration_us,
    })
}

enum ServeWrite {
    Progress,
    Idle,
    Finished { bytes: u64, duration_us: u64 },
}

/// Drains up to a bounded batch of records from a recording ring.
fn serve_write(fs: &mut MsuFs, w: &mut WriteIo) -> Result<ServeWrite> {
    let mut any = false;
    for _ in 0..64 {
        match w.consumer.pop() {
            Ok(rec) => {
                any = true;
                if !w.failed {
                    if let Err(e) = sink_push(fs, w, rec) {
                        // Keep draining so the receiver does not wedge,
                        // but stop writing and surface the error once.
                        w.failed = true;
                        return Err(e);
                    }
                }
            }
            Err(PopError::Empty) => {
                return Ok(if any {
                    ServeWrite::Progress
                } else {
                    ServeWrite::Idle
                })
            }
            Err(PopError::Closed) => {
                let (bytes, duration_us) = sink_finish(fs, w)?;
                return Ok(ServeWrite::Finished { bytes, duration_us });
            }
        }
    }
    Ok(ServeWrite::Progress)
}

fn sink_push(fs: &mut MsuFs, w: &mut WriteIo, rec: PacketRecord) -> Result<()> {
    match &mut w.sink {
        WriteSink::Ib { writer } => {
            if let Some(page) = writer.push(&rec)? {
                fs.append_page(&w.file, &page.data, page.payload_bytes)?;
            }
        }
        WriteSink::Raw {
            buf,
            payload_bytes,
            last_offset,
            ..
        } => {
            if rec.kind == PacketKind::Media {
                buf.extend_from_slice(&rec.payload);
                *payload_bytes += rec.payload.len() as u64;
                *last_offset = rec.offset;
                let bs = fs.block_size();
                while buf.len() >= bs {
                    let page: Vec<u8> = buf.drain(..bs).collect();
                    fs.append_page(&w.file, &page, bs as u64)?;
                }
            }
        }
    }
    Ok(())
}

fn sink_finish(fs: &mut MsuFs, w: &mut WriteIo) -> Result<(u64, u64)> {
    match std::mem::replace(
        &mut w.sink,
        WriteSink::Raw {
            buf: Vec::new(),
            payload_bytes: 0,
            last_offset: MediaTime::ZERO,
            cbr_rate: None,
        },
    ) {
        WriteSink::Ib { writer } => {
            let (pages, root, stats) = writer.finish()?;
            for p in pages {
                fs.append_page(&w.file, &p.data, p.payload_bytes)?;
            }
            fs.finalize(&w.file, stats.duration.as_micros(), root)?;
            Ok((stats.payload_bytes, stats.duration.as_micros()))
        }
        WriteSink::Raw {
            mut buf,
            payload_bytes,
            last_offset,
            cbr_rate,
        } => {
            if !buf.is_empty() {
                let valid = buf.len() as u64;
                buf.resize(fs.block_size(), 0);
                fs.append_page(&w.file, &buf, valid)?;
            }
            // Constant-rate content plays at its nominal rate, so its
            // duration is bytes/rate; arrival spacing (which may be a
            // fast upload) is irrelevant.
            let duration_us = match cbr_rate {
                Some(rate) if rate.bps() > 0 => rate.transmit_time(payload_bytes).as_micros(),
                _ => last_offset.as_micros(),
            };
            fs.finalize(&w.file, duration_us, Vec::new())?;
            Ok((payload_bytes, duration_us))
        }
    }
}

fn do_seek(fs: &mut MsuFs, geo: Geometry, io: &mut ReadIo, target: MediaTime) -> Result<()> {
    let now = Instant::now();
    let mut ctl = io.shared.ctl.lock();
    match ctl.file.kind {
        FileKind::Raw => {
            let schedule = io.schedule.ok_or_else(|| Error::Protocol {
                msg: "raw file without a calculated schedule".into(),
            })?;
            let (page, skip, seq) = raw_seek(&schedule, target, fs.block_size());
            apply_seek(&mut ctl, page, skip, seq, 0, schedule.offset_of(seq), now);
        }
        FileKind::IbTree => {
            let reader = IbTreeReader::new(geo, ctl.file.root.clone(), ctl.file.pages)?;
            let file = ctl.file.name.clone();
            // The tree traversal reads pages through the file system; the
            // lock is held, but seeks are rare and the paper accepts "a
            // few seconds of delay" on VCR repositioning.
            let pos = reader.seek(target, |idx, buf| fs.read_page(&file, idx, buf))?;
            apply_seek(&mut ctl, pos.page, 0, 0, target.as_micros(), target, now);
        }
    }
    Ok(())
}

fn apply_seek(
    ctl: &mut StreamCtl,
    page: u64,
    skip: usize,
    seq: u64,
    skip_until_us: u64,
    pace_origin: MediaTime,
    now: Instant,
) {
    ctl.gen += 1;
    ctl.next_page = page;
    ctl.pending_skip = skip;
    ctl.start_seq = seq;
    ctl.skip_until_us = skip_until_us;
    ctl.eof = page >= ctl.file.pages;
    ctl.pacer.rebase(now, pace_origin);
}

fn do_trick(fs: &mut MsuFs, io: &mut ReadIo, mode: TrickMode) -> Result<()> {
    let schedule = io.schedule.ok_or_else(|| Error::Protocol {
        msg: "trick play requires a constant-rate stream".into(),
    })?;
    let target_name = match mode {
        TrickMode::Normal => Some(io.normal.name.clone()),
        TrickMode::FastForward => io.trick.fast_forward.clone(),
        TrickMode::FastBackward => io.trick.fast_backward.clone(),
    };
    let Some(target_name) = target_name else {
        return Err(Error::NoTrickFile {
            content: io.normal.name.clone(),
        });
    };
    let target = stat_file(fs, &target_name)?;

    let now = Instant::now();
    let mut ctl = io.shared.ctl.lock();
    let cur_pos = ctl.pacer.position(now);
    let normal_dur = MediaTime(io.normal.duration_us);
    let to_pos = trick::switch_position(ctl.mode, mode, cur_pos, normal_dur, trick::SKIP);
    // Trick files are raw CBR; seek within the target file.
    let (page, skip, seq) = raw_seek(&schedule, to_pos, fs.block_size());
    ctl.mode = mode;
    ctl.file = target;
    apply_seek(&mut ctl, page, skip, seq, 0, schedule.offset_of(seq), now);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spsc::{self, PushError};
    use crate::stream::GroupShared;
    use calliope_storage::block::MemDisk;
    use calliope_types::time::BitRate;
    use calliope_types::GroupId;
    use crossbeam::channel::unbounded;
    use parking_lot::Mutex;
    use std::time::Duration;

    const BS: usize = 4096;

    fn test_fs() -> MsuFs {
        MsuFs::format_with(Box::new(MemDisk::new(BS, 128)), 4).unwrap()
    }

    fn spawn_disk() -> (
        Sender<DiskCmd>,
        Receiver<DiskEvent>,
        std::thread::JoinHandle<()>,
    ) {
        let fs = test_fs();
        let (tx, rx) = unbounded();
        let (etx, erx) = unbounded();
        let (net_tx, _) = unbounded();
        let h = std::thread::spawn(move || run(fs, rx, etx, net_tx, MsuMetrics::new()));
        (tx, erx, h)
    }

    /// Pushes one record the way a recording receiver does: ringing the
    /// doorbell while the ring is full, since the disk thread only
    /// drains it when told to.
    fn push_record(p: &mut Producer<PacketRecord>, mut rec: PacketRecord, tx: &Sender<DiskCmd>) {
        loop {
            match p.push(rec) {
                Ok(()) => return,
                Err(PushError::Full(back)) => {
                    rec = back;
                    tx.send(DiskCmd::Doorbell).unwrap();
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(PushError::Closed(_)) => panic!("ring closed"),
            }
        }
    }

    fn rpc<T: Send + 'static>(tx: &Sender<DiskCmd>, make: impl FnOnce(Sender<T>) -> DiskCmd) -> T {
        let (rtx, rrx) = unbounded();
        tx.send(make(rtx)).unwrap();
        rrx.recv_timeout(Duration::from_secs(5))
            .expect("disk thread reply")
    }

    fn make_stream(id: u64, file: ActiveFile) -> Arc<StreamShared> {
        Arc::new(StreamShared {
            id: StreamId(id),
            group: GroupId(id),
            disk: 0,
            trace: Default::default(),
            ctl: Mutex::new(StreamCtl {
                phase: StreamPhase::Priming,
                gen: 0,
                mode: TrickMode::Normal,
                eof: file.pages == 0,
                file,
                next_page: 0,
                pending_skip: 0,
                skip_until_us: 0,
                start_seq: 0,
                pacer: crate::pacer::Pacer::new(),
            }),
            stats: Default::default(),
        })
    }

    fn write_raw_content(tx: &Sender<DiskCmd>, name: &str, bytes: &[u8]) {
        let r: Result<()> = rpc(tx, |reply| DiskCmd::Create {
            name: name.into(),
            kind: FileKind::Raw,
            reserve_bytes: bytes.len() as u64,
            reply,
        });
        r.unwrap();
        // Feed through the write path.
        let shared = make_stream(
            999,
            ActiveFile {
                name: name.into(),
                kind: FileKind::Raw,
                pages: 0,
                len_bytes: 0,
                root: vec![],
                duration_us: 0,
            },
        );
        let (mut p, c) = spsc::ring(64);
        tx.send(DiskCmd::AddWrite {
            shared,
            consumer: c,
            stores_schedule: false,
            cbr_rate: None,
        })
        .unwrap();
        for (i, chunk) in bytes.chunks(1000).enumerate() {
            let rec = PacketRecord::media(MediaTime(i as u64 * 10_000), chunk.to_vec());
            push_record(&mut p, rec, tx);
        }
        drop(p);
        tx.send(DiskCmd::Doorbell).unwrap();
    }

    #[test]
    fn record_then_stat_then_play_pages_flow() {
        let (tx, erx, _h) = spawn_disk();
        let content: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        write_raw_content(&tx, "movie", &content);

        // Wait for the RecordFinished event.
        let ev = erx.recv_timeout(Duration::from_secs(5)).unwrap();
        match ev {
            DiskEvent::RecordFinished { bytes, .. } => assert_eq!(bytes, 10_000),
            other => panic!("{other:?}"),
        }

        let file: Result<ActiveFile> = rpc(&tx, |reply| DiskCmd::Stat {
            name: "movie".into(),
            reply,
        });
        let file = file.unwrap();
        assert_eq!(file.len_bytes, 10_000);
        assert_eq!(file.pages, (10_000u64).div_ceil(BS as u64));

        // Play it back through a page ring.
        let shared = make_stream(1, file.clone());
        let group = GroupShared::new(GroupId(1), 1);
        let (p, c) = spsc::ring(2);
        let mut c = PageRing::new(c, tx.clone());
        tx.send(DiskCmd::AddRead {
            shared: Arc::clone(&shared),
            group: Arc::clone(&group),
            producer: p,
            schedule: Some(CbrSchedule::new(BitRate::from_kbps(64), 1000)),
            trick: TrickNames::default(),
        })
        .unwrap();

        // The group releases once the first page is buffered.
        match erx.recv_timeout(Duration::from_secs(5)).unwrap() {
            DiskEvent::GroupReleased(g) => assert_eq!(g, GroupId(1)),
            other => panic!("{other:?}"),
        }

        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < 10_000 {
            match c.pop() {
                Ok(buf) => {
                    assert_eq!(buf.gen, 0);
                    got.extend_from_slice(&buf.data[buf.skip..buf.valid]);
                }
                Err(PopError::Empty) => {
                    assert!(
                        Instant::now() < deadline,
                        "timed out with {} bytes",
                        got.len()
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(PopError::Closed) => break,
            }
        }
        assert_eq!(got, content);
        // EOF reached.
        assert!(shared.ctl.lock().eof);
    }

    #[test]
    fn stat_missing_file_errors() {
        let (tx, _erx, _h) = spawn_disk();
        let r: Result<ActiveFile> = rpc(&tx, |reply| DiskCmd::Stat {
            name: "nope".into(),
            reply,
        });
        assert!(r.is_err());
    }

    #[test]
    fn seek_bumps_generation_and_position() {
        let (tx, erx, _h) = spawn_disk();
        let content = vec![7u8; BS * 4];
        write_raw_content(&tx, "f", &content);
        erx.recv_timeout(Duration::from_secs(5)).unwrap();
        let file: Result<ActiveFile> = rpc(&tx, |reply| DiskCmd::Stat {
            name: "f".into(),
            reply,
        });
        let file = file.unwrap();

        let shared = make_stream(2, file);
        let group = GroupShared::new(GroupId(2), 1);
        let (p, c) = spsc::ring(2);
        let mut c = PageRing::new(c, tx.clone());
        let schedule = CbrSchedule::new(BitRate::from_kbps(800), 100);
        tx.send(DiskCmd::AddRead {
            shared: Arc::clone(&shared),
            group,
            producer: p,
            schedule: Some(schedule),
            trick: TrickNames::default(),
        })
        .unwrap();

        // Let it read a page, then seek past the middle.
        std::thread::sleep(Duration::from_millis(20));
        let target = schedule.offset_of((2 * BS / 100) as u64 + 3);
        let r: Result<()> = rpc(&tx, |reply| DiskCmd::Seek {
            stream: StreamId(2),
            target,
            reply,
        });
        r.unwrap();
        assert_eq!(shared.ctl.lock().gen, 1);

        // Eventually a gen-1 page arrives for page ≥ 2.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match c.pop() {
                Ok(buf) if buf.gen == 1 => {
                    assert!(buf.index >= 2);
                    assert!(buf.skip > 0, "seek landed mid-page");
                    break;
                }
                Ok(_) => {}
                Err(PopError::Empty) => {
                    assert!(Instant::now() < deadline);
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(PopError::Closed) => panic!("ring closed"),
            }
        }
    }

    #[test]
    fn trick_without_files_is_a_clean_error() {
        let (tx, erx, _h) = spawn_disk();
        write_raw_content(&tx, "g", &vec![1u8; 2000]);
        erx.recv_timeout(Duration::from_secs(5)).unwrap();
        let file: Result<ActiveFile> = rpc(&tx, |reply| DiskCmd::Stat {
            name: "g".into(),
            reply,
        });
        let shared = make_stream(3, file.unwrap());
        let group = GroupShared::new(GroupId(3), 1);
        let (p, _c) = spsc::ring(2);
        tx.send(DiskCmd::AddRead {
            shared,
            group,
            producer: p,
            schedule: Some(CbrSchedule::new(BitRate::from_kbps(64), 100)),
            trick: TrickNames::default(),
        })
        .unwrap();
        let r: Result<()> = rpc(&tx, |reply| DiskCmd::Trick {
            stream: StreamId(3),
            mode: TrickMode::FastForward,
            reply,
        });
        assert!(matches!(r, Err(Error::NoTrickFile { .. })));
    }

    #[test]
    fn trick_switch_changes_file_and_mode() {
        let (tx, erx, _h) = spawn_disk();
        write_raw_content(&tx, "n", &vec![1u8; BS * 8]);
        erx.recv_timeout(Duration::from_secs(5)).unwrap();
        write_raw_content(&tx, "n.ff", &vec![2u8; BS]);
        erx.recv_timeout(Duration::from_secs(5)).unwrap();

        let file: Result<ActiveFile> = rpc(&tx, |reply| DiskCmd::Stat {
            name: "n".into(),
            reply,
        });
        let shared = make_stream(4, file.unwrap());
        let group = GroupShared::new(GroupId(4), 1);
        let (p, _c) = spsc::ring(2);
        tx.send(DiskCmd::AddRead {
            shared: Arc::clone(&shared),
            group,
            producer: p,
            schedule: Some(CbrSchedule::new(BitRate::from_kbps(800), 100)),
            trick: TrickNames {
                fast_forward: Some("n.ff".into()),
                fast_backward: None,
            },
        })
        .unwrap();
        let r: Result<()> = rpc(&tx, |reply| DiskCmd::Trick {
            stream: StreamId(4),
            mode: TrickMode::FastForward,
            reply,
        });
        r.unwrap();
        {
            let ctl = shared.ctl.lock();
            assert_eq!(ctl.mode, TrickMode::FastForward);
            assert_eq!(ctl.file.name, "n.ff");
        }
        // FB is not loaded.
        let r: Result<()> = rpc(&tx, |reply| DiskCmd::Trick {
            stream: StreamId(4),
            mode: TrickMode::FastBackward,
            reply,
        });
        assert!(r.is_err());
        // And back to normal.
        let r: Result<()> = rpc(&tx, |reply| DiskCmd::Trick {
            stream: StreamId(4),
            mode: TrickMode::Normal,
            reply,
        });
        r.unwrap();
        assert_eq!(shared.ctl.lock().file.name, "n");
    }

    #[test]
    fn ib_recording_round_trips_through_fs() {
        let (tx, erx, _h) = spawn_disk();
        let r: Result<()> = rpc(&tx, |reply| DiskCmd::Create {
            name: "vbr".into(),
            kind: FileKind::IbTree,
            reserve_bytes: 20 * BS as u64,
            reply,
        });
        r.unwrap();
        let shared = make_stream(
            5,
            ActiveFile {
                name: "vbr".into(),
                kind: FileKind::IbTree,
                pages: 0,
                len_bytes: 0,
                root: vec![],
                duration_us: 0,
            },
        );
        let (mut p, c) = spsc::ring(64);
        tx.send(DiskCmd::AddWrite {
            shared,
            consumer: c,
            stores_schedule: true,
            cbr_rate: None,
        })
        .unwrap();
        let records: Vec<PacketRecord> = (0..200)
            .map(|i| PacketRecord::media(MediaTime(i * 20_000), vec![(i % 250) as u8; 120]))
            .collect();
        for rec in &records {
            push_record(&mut p, rec.clone(), &tx);
        }
        drop(p);
        tx.send(DiskCmd::Doorbell).unwrap();
        match erx.recv_timeout(Duration::from_secs(5)).unwrap() {
            DiskEvent::RecordFinished {
                bytes, duration_us, ..
            } => {
                assert_eq!(bytes, 200 * 120);
                assert_eq!(duration_us, 199 * 20_000);
            }
            other => panic!("{other:?}"),
        }
        let file: Result<ActiveFile> = rpc(&tx, |reply| DiskCmd::Stat {
            name: "vbr".into(),
            reply,
        });
        let file = file.unwrap();
        assert!(file.pages > 0);
        assert!(!file.root.is_empty(), "IB-tree root recorded");
    }

    #[test]
    fn concurrent_streams_all_complete_with_zero_heap_fallbacks() {
        // The batched duty cycle must serve every stream (no starvation
        // under elevator reordering) and, once the pool is sized at
        // admission, steady-state playback must never fall back to the
        // heap for a page buffer.
        let fs = test_fs();
        let (tx, rx) = unbounded();
        let (etx, erx) = unbounded();
        let metrics = MsuMetrics::new();
        let (net_tx, _) = unbounded();
        let h = std::thread::spawn({
            let m = Arc::clone(&metrics);
            move || run(fs, rx, etx, net_tx, m)
        });

        let content: Vec<u8> = (0..BS * 8).map(|i| (i % 241) as u8).collect();
        write_raw_content(&tx, "movie", &content);
        match erx.recv_timeout(Duration::from_secs(5)).unwrap() {
            DiskEvent::RecordFinished { .. } => {}
            other => panic!("{other:?}"),
        }
        let file: Result<ActiveFile> = rpc(&tx, |reply| DiskCmd::Stat {
            name: "movie".into(),
            reply,
        });
        let file = file.unwrap();

        const STREAMS: u64 = 6;
        let mut drains = Vec::new();
        for sid in 0..STREAMS {
            let shared = make_stream(sid + 10, file.clone());
            let group = GroupShared::new(GroupId(sid + 10), 1);
            let (p, c) = spsc::ring(4);
            // The drains pop through the same doorbell-ringing API as
            // the network thread: the disk thread reads only when told.
            let mut c = PageRing::new(c, tx.clone());
            tx.send(DiskCmd::AddRead {
                shared,
                group,
                producer: p,
                schedule: Some(CbrSchedule::new(BitRate::from_kbps(800), 1000)),
                trick: TrickNames::default(),
            })
            .unwrap();
            let want = content.clone();
            drains.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                let deadline = Instant::now() + Duration::from_secs(10);
                while got.len() < want.len() {
                    match c.pop() {
                        Ok(buf) => got.extend_from_slice(&buf.data[buf.skip..buf.valid]),
                        Err(PopError::Empty) => {
                            assert!(
                                Instant::now() < deadline,
                                "stream starved with {} of {} bytes",
                                got.len(),
                                want.len()
                            );
                            std::thread::sleep(Duration::from_micros(500));
                        }
                        Err(PopError::Closed) => break,
                    }
                }
                assert_eq!(got, want);
            }));
        }
        for d in drains {
            d.join().unwrap();
        }
        let mut released = 0;
        while let Ok(ev) = erx.recv_timeout(Duration::from_millis(200)) {
            match ev {
                DiskEvent::GroupReleased(_) => released += 1,
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(released, STREAMS, "every group primed and released");

        let snap = metrics.registry.snapshot("disk-test");
        assert_eq!(
            snap.counter("disk.pool_exhausted"),
            0,
            "steady-state playback heap-allocated a page"
        );
        assert_eq!(
            snap.counter("disk.batched_pages_total"),
            STREAMS * file.pages,
            "every page went through the batched path exactly once"
        );
        tx.send(DiskCmd::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn page_ring_rings_only_with_room_for_a_read_ahead_batch() {
        let (tx, rx) = unbounded();
        let (mut p, c) = spsc::ring(4);
        let mut ring = PageRing::new(c, tx);
        for i in 0..4 {
            p.push(PageBuf {
                gen: 0,
                index: i,
                skip: 0,
                valid: 1,
                data: vec![0; 1].into(),
            })
            .unwrap();
        }
        ring.pop().unwrap();
        assert!(rx.try_recv().is_err(), "one free slot is not a batch");
        ring.pop().unwrap();
        assert!(matches!(rx.try_recv(), Ok(DiskCmd::Doorbell)));
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn duty_cycle_reads_only_full_batches() {
        // A ring left with one free slot is not read for: the claim
        // waits until a whole MAX_READ_AHEAD batch fits, so the elevator
        // always gets multi-page runs.
        let fs = test_fs();
        let (tx, rx) = unbounded();
        let (etx, erx) = unbounded();
        let (net_tx, net_rx) = unbounded();
        let metrics = MsuMetrics::new();
        let h = std::thread::spawn({
            let m = Arc::clone(&metrics);
            move || run(fs, rx, etx, net_tx, m)
        });
        write_raw_content(&tx, "m", &vec![3u8; BS * 8]);
        erx.recv_timeout(Duration::from_secs(5)).unwrap();
        let file: Result<ActiveFile> = rpc(&tx, |reply| DiskCmd::Stat {
            name: "m".into(),
            reply,
        });
        let (p, c) = spsc::ring(4);
        let mut c = PageRing::new(c, tx.clone());
        tx.send(DiskCmd::AddRead {
            shared: make_stream(6, file.unwrap()),
            group: GroupShared::new(GroupId(6), 1),
            producer: p,
            schedule: Some(CbrSchedule::new(BitRate::from_kbps(800), 1000)),
            trick: TrickNames::default(),
        })
        .unwrap();
        // The first pages release the group and wake the network thread.
        match net_rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            NetCmd::Release { group } => assert_eq!(group, GroupId(6)),
            other => panic!("{other:?}"),
        }
        let wait_full = |c: &PageRing| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while c.consumer.len() < 4 {
                assert!(Instant::now() < deadline, "ring never filled");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        wait_full(&c);
        c.pop().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(c.consumer.len(), 3, "one free slot is not read for");
        c.pop().unwrap();
        wait_full(&c);

        // 4 pages to fill, 2 to refill: three two-page batches.
        assert_eq!(metrics.disk_batched_pages_total.get(), 6);
        assert_eq!(metrics.disk_batch_pages.count(), 3);
        tx.send(DiskCmd::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn shutdown_stops_the_thread() {
        let (tx, _erx, h) = spawn_disk();
        tx.send(DiskCmd::Shutdown).unwrap();
        h.join().unwrap();
    }
}
