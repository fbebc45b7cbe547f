//! Shared per-stream and per-group runtime state.
//!
//! The disk thread, network thread, and control thread coordinate
//! through [`StreamShared`]: a small control block under a mutex
//! ([`StreamCtl`]) plus the lock-free page ring (held privately by the
//! two data-path threads). VCR operations mutate the control block and
//! bump its *generation*; pages carry the generation they were read
//! under, so stale pages from before a seek are discarded instead of
//! played.

use crate::pacer::Pacer;
use crate::trick::TrickMode;
use calliope_proto::schedule::CbrSchedule;
use calliope_storage::catalog::{FileKind, RootEntry};
use calliope_types::{GroupId, StreamId, TraceCtx};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Snapshot of the file a stream is currently reading.
#[derive(Clone, Debug)]
pub struct ActiveFile {
    /// File name on the MSU file system.
    pub name: String,
    /// Raw (CBR) or IB-tree (VBR).
    pub kind: FileKind,
    /// Number of pages.
    pub pages: u64,
    /// Payload length in bytes.
    pub len_bytes: u64,
    /// IB-tree root (empty for raw files).
    pub root: Vec<RootEntry>,
    /// Play duration in microseconds.
    pub duration_us: u64,
}

/// Lifecycle of a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamPhase {
    /// Waiting for the first buffer (and for the group to be released).
    Priming,
    /// Delivering (or recording) data.
    Running,
    /// Stopped; threads should drop it.
    Done,
}

/// One page handed from the disk thread to the network thread.
#[derive(Clone, Debug)]
pub struct PageBuf {
    /// Generation the page was read under (stale pages are discarded).
    pub gen: u64,
    /// File-relative page index.
    pub index: u64,
    /// Bytes to skip at the front (set on the first page after a raw
    /// seek, which rarely lands on a page boundary).
    pub skip: usize,
    /// Valid bytes (raw files: the final page is usually short).
    pub valid: usize,
    /// The page itself — pool-backed and refcounted, so handing it to
    /// the network thread (and cloning it into packets) never copies.
    pub data: crate::pool::PageData,
}

/// The mutable control block of a play stream.
#[derive(Debug)]
pub struct StreamCtl {
    /// Lifecycle phase.
    pub phase: StreamPhase,
    /// Bumped by every seek/trick-switch; stale pages are discarded.
    pub gen: u64,
    /// Which file variant is playing (normal / FF / FB).
    pub mode: TrickMode,
    /// The file being read.
    pub file: ActiveFile,
    /// Disk-side: next page to read.
    pub next_page: u64,
    /// Disk-side: byte skip to attach to the next page read (raw seek).
    pub pending_skip: usize,
    /// Disk-side: reached end of file.
    pub eof: bool,
    /// Net-side: for stored schedules, drop records before this offset
    /// (µs) after a seek.
    pub skip_until_us: u64,
    /// Net-side: CBR packet sequence to resume at for this generation.
    pub start_seq: u64,
    /// Deadline computation.
    pub pacer: Pacer,
}

/// State shared by every thread touching one stream.
#[derive(Debug)]
pub struct StreamShared {
    /// Stream id.
    pub id: StreamId,
    /// Its group.
    pub group: GroupId,
    /// Local disk index holding the file.
    pub disk: usize,
    /// End-to-end trace minted by the Coordinator at admission; echoed
    /// on `StreamDone` and `GroupReady` so one id follows the stream
    /// through every component's logs and flight recorders.
    pub trace: TraceCtx,
    /// The control block.
    pub ctl: Mutex<StreamCtl>,
    /// Simple delivery statistics.
    pub stats: StreamStats,
}

/// A packet later than this missed its deadline outright: lateness up
/// to the paper's 10 ms timer granularity is the jitter its design
/// expects (the default `net_tick` is finer still); beyond it the MSU
/// fell behind schedule.
pub const DEADLINE_MISS_US: u64 = 10_000;

/// Per-stream delivery counters: what `StreamDone` and the
/// `stream.{id}.*` stats rows report. MSU-wide totals and the lateness
/// histogram live in [`MsuMetrics`](crate::metrics::MsuMetrics); the
/// client measures true network lateness.
#[derive(Debug, Default)]
pub struct StreamStats {
    /// Packets sent (or recorded).
    pub packets: AtomicU64,
    /// Payload bytes sent (or recorded).
    pub bytes: AtomicU64,
    /// Packets sent more than [`DEADLINE_MISS_US`] behind schedule.
    pub deadline_misses: AtomicU64,
}

impl StreamStats {
    /// Records one sent packet; `missed` is whether it missed its
    /// deadline by more than [`DEADLINE_MISS_US`].
    pub fn note_packet(&self, bytes: usize, missed: bool) {
        // relaxed: independent monotone counters on the send hot
        // path; readers (stats snapshots) tolerate staleness and
        // need no ordering between them.
        self.packets.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        if missed {
            // relaxed: same monotone-counter contract as above.
            self.deadline_misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// State shared by the streams of one group.
#[derive(Debug)]
pub struct GroupShared {
    /// Group id.
    pub id: GroupId,
    /// Expected member count (from the Coordinator).
    pub size: u32,
    /// Members primed so far; when it reaches `size` the group releases.
    pub primed: Mutex<HashSet<StreamId>>,
    /// Set once every member is primed: all members start simultaneously
    /// (paper §2.2: one MSU per group so VCR commands stay in sync).
    pub released: AtomicBool,
    /// Members known so far.
    pub members: Mutex<Vec<StreamId>>,
}

impl GroupShared {
    /// Creates an empty group expecting `size` members.
    pub fn new(id: GroupId, size: u32) -> Arc<GroupShared> {
        Arc::new(GroupShared {
            id,
            size,
            primed: Mutex::new(HashSet::new()),
            released: AtomicBool::new(false),
            members: Mutex::new(Vec::new()),
        })
    }

    /// Marks a member primed; returns true if this releases the group.
    pub fn prime(&self, stream: StreamId) -> bool {
        let mut primed = self.primed.lock();
        primed.insert(stream);
        if primed.len() as u32 >= self.size && !self.released.swap(true, Ordering::AcqRel) {
            return true;
        }
        false
    }

    /// True once all members are primed.
    pub fn is_released(&self) -> bool {
        self.released.load(Ordering::Acquire)
    }
}

/// Computes the CBR packetizer state for a seek to media time `t`:
/// returns `(page, skip_bytes_within_page, packet_seq)`.
pub fn raw_seek(
    schedule: &CbrSchedule,
    t: calliope_types::MediaTime,
    page_size: usize,
) -> (u64, usize, u64) {
    let seq = schedule.seq_at(t);
    let byte = schedule.byte_of(seq);
    let page = byte / page_size as u64;
    let skip = (byte % page_size as u64) as usize;
    (page, skip, seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calliope_types::time::{BitRate, MediaTime};

    #[test]
    fn group_releases_when_all_members_prime() {
        let g = GroupShared::new(GroupId(1), 2);
        assert!(!g.is_released());
        assert!(!g.prime(StreamId(1)), "first member does not release");
        assert!(!g.is_released());
        assert!(g.prime(StreamId(2)), "second member releases");
        assert!(g.is_released());
        // Re-priming does not re-release.
        assert!(!g.prime(StreamId(2)));
    }

    #[test]
    fn duplicate_priming_does_not_release_early() {
        let g = GroupShared::new(GroupId(1), 2);
        assert!(!g.prime(StreamId(1)));
        assert!(!g.prime(StreamId(1)), "same stream twice is one member");
        assert!(!g.is_released());
    }

    #[test]
    fn singleton_group_releases_immediately() {
        let g = GroupShared::new(GroupId(2), 1);
        assert!(g.prime(StreamId(9)));
        assert!(g.is_released());
    }

    #[test]
    fn raw_seek_computes_page_and_skip() {
        let s = CbrSchedule::new(BitRate::from_kbps(1500), 4096);
        // Packet 100 starts at byte 409600 = page 1 (256 KB pages) +
        // 147456 bytes in.
        let t = s.offset_of(100);
        let (page, skip, seq) = raw_seek(&s, t, 256 * 1024);
        assert_eq!(seq, 100);
        assert_eq!(page, 1);
        assert_eq!(skip, 409600 - 262144);
        // Time zero is the file start.
        assert_eq!(raw_seek(&s, MediaTime::ZERO, 256 * 1024), (0, 0, 0));
    }

    #[test]
    fn stats_count_packets_bytes_and_misses() {
        let s = StreamStats::default();
        s.note_packet(4096, false);
        s.note_packet(4096, true);
        s.note_packet(1000, false);
        // relaxed: single-threaded test readback.
        assert_eq!(s.packets.load(Ordering::Relaxed), 3);
        assert_eq!(s.bytes.load(Ordering::Relaxed), 2 * 4096 + 1000);
        assert_eq!(s.deadline_misses.load(Ordering::Relaxed), 1);
    }
}
