//! The intra-server RPC layer: Coordinator ↔ MSU connections.
//!
//! "In Calliope, the Coordinator and MSUs communicate using TCP
//! connections." (paper §2) Each accepted MSU connection gets a reader
//! thread; requests carry correlation ids, replies are routed back to
//! the waiting caller, and unsolicited messages (`StreamDone`) go to a
//! notification channel. A broken connection marks the MSU unavailable
//! — the paper's failure detector.

use calliope_obs::Counter;
use calliope_types::error::{Error, Result};
use calliope_types::wire::messages::{CoordEnvelope, CoordToMsu, MsuToCoord};
use calliope_types::wire::{read_frame_len, write_frame, Wire};
use calliope_types::MsuId;
use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default RPC timeout. Scheduling involves disk metadata work on the
/// MSU; the paper tolerates multi-second VCR repositioning, so be
/// generous.
pub const RPC_TIMEOUT: Duration = Duration::from_secs(15);

/// Writes one frame and counts its length into `bytes`. Every frame
/// the Coordinator sends goes through here.
pub(crate) fn send_frame<W: Write, T: Wire>(bytes: &Counter, w: &mut W, msg: &T) -> io::Result<()> {
    bytes.add(write_frame(w, msg)? as u64);
    Ok(())
}

/// Reads one frame and counts its length into `bytes`. Every frame the
/// Coordinator receives goes through here.
pub(crate) fn recv_frame<R: Read, T: Wire>(bytes: &Counter, r: &mut R) -> io::Result<Option<T>> {
    Ok(read_frame_len(r)?.map(|(msg, len)| {
        bytes.add(len as u64);
        msg
    }))
}

/// One live MSU connection.
struct MsuConn {
    /// Write half (frames are written under the lock).
    writer: Mutex<TcpStream>,
    /// Pending RPCs by correlation id.
    pending: Mutex<HashMap<u64, Sender<MsuToCoord>>>,
}

/// The registry of live MSU connections.
pub struct MsuConns {
    conns: Mutex<HashMap<MsuId, Arc<MsuConn>>>,
    next_req: AtomicU64,
    /// Counts every frame written to an MSU.
    bytes: Arc<Counter>,
}

impl MsuConns {
    /// Creates an empty registry whose writes count into `bytes`.
    pub fn new(bytes: Arc<Counter>) -> MsuConns {
        MsuConns {
            conns: Mutex::new(HashMap::new()),
            next_req: AtomicU64::new(1),
            bytes,
        }
    }

    /// Installs (or replaces) the connection for an MSU.
    pub fn install(&self, msu: MsuId, stream: TcpStream) {
        let conn = Arc::new(MsuConn {
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
        });
        self.conns.lock().insert(msu, conn);
    }

    /// Drops an MSU's connection (it broke) and fast-fails every RPC
    /// still waiting on it: dropping a pending `Sender` disconnects its
    /// bounded channel, so the caller's `recv_timeout` errors
    /// immediately instead of blocking out the full [`RPC_TIMEOUT`].
    pub fn remove(&self, msu: MsuId) {
        let conn = self.conns.lock().remove(&msu);
        if let Some(conn) = conn {
            let waiters: Vec<_> = conn.pending.lock().drain().collect();
            if !waiters.is_empty() {
                tracing::debug!(
                    "{msu} removed with {} in-flight rpc(s); failing them now",
                    waiters.len()
                );
            }
            // The drained Senders drop here, outside the pending lock.
            drop(waiters);
        }
    }

    /// The ids of every currently connected MSU.
    pub fn ids(&self) -> Vec<MsuId> {
        self.conns.lock().keys().copied().collect()
    }

    /// Number of connected MSUs.
    pub fn len(&self) -> usize {
        self.conns.lock().len()
    }

    /// True if no MSUs are connected.
    pub fn is_empty(&self) -> bool {
        self.conns.lock().is_empty()
    }

    /// Sends a request to an MSU and waits for the correlated reply.
    pub fn rpc(&self, msu: MsuId, body: CoordToMsu) -> Result<MsuToCoord> {
        self.rpc_with_timeout(msu, body, RPC_TIMEOUT)
    }

    /// [`rpc`](Self::rpc) with a caller-chosen deadline; the heartbeat
    /// probe uses a much shorter one than scheduling RPCs.
    pub fn rpc_with_timeout(
        &self,
        msu: MsuId,
        body: CoordToMsu,
        timeout: Duration,
    ) -> Result<MsuToCoord> {
        let conn = self
            .conns
            .lock()
            .get(&msu)
            .cloned()
            .ok_or(Error::MsuUnavailable { msu })?;
        // relaxed: a fresh-id counter; uniqueness is all that matters.
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        conn.pending.lock().insert(req_id, tx);
        let write_res = {
            let mut w = conn.writer.lock();
            send_frame(&self.bytes, &mut *w, &CoordEnvelope { req_id, body })
        };
        if write_res.is_err() {
            conn.pending.lock().remove(&req_id);
            return Err(Error::MsuUnavailable { msu });
        }
        match rx.recv_timeout(timeout) {
            Ok(reply) => Ok(reply),
            Err(_) => {
                conn.pending.lock().remove(&req_id);
                Err(Error::MsuUnavailable { msu })
            }
        }
    }

    /// Sends a one-way message (no reply expected).
    pub fn notify(&self, msu: MsuId, body: CoordToMsu) -> Result<()> {
        let conn = self
            .conns
            .lock()
            .get(&msu)
            .cloned()
            .ok_or(Error::MsuUnavailable { msu })?;
        let mut w = conn.writer.lock();
        send_frame(&self.bytes, &mut *w, &CoordEnvelope { req_id: 0, body })
            .map_err(|_| Error::MsuUnavailable { msu })
    }

    /// Routes one incoming envelope: replies complete their pending
    /// RPC; unsolicited messages return `Some` for the caller to
    /// handle.
    pub fn route(&self, msu: MsuId, req_id: u64, body: MsuToCoord) -> Option<MsuToCoord> {
        if req_id == 0 {
            return Some(body);
        }
        let conn = self.conns.lock().get(&msu).cloned()?;
        let waiter = conn.pending.lock().remove(&req_id);
        match waiter {
            Some(tx) => {
                let _ = tx.send(body);
                None
            }
            // Late reply after a timeout: drop it.
            None => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calliope_types::wire::read_frame;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn rpc_round_trip() {
        let conns = MsuConns::new(Arc::default());
        let (coord_side, mut msu_side) = pair();
        conns.install(MsuId(1), coord_side);

        // Fake MSU: echo Pong to whatever arrives.
        let conns2 = Arc::new(conns);
        let conns3 = Arc::clone(&conns2);
        let responder = std::thread::spawn(move || {
            let env: Option<CoordEnvelope> = read_frame(&mut msu_side).unwrap();
            let env = env.unwrap();
            assert_eq!(env.body, CoordToMsu::Ping);
            // Simulate the reply arriving on the reader thread.
            conns3.route(MsuId(1), env.req_id, MsuToCoord::Pong { snapshot: None });
        });
        let reply = conns2.rpc(MsuId(1), CoordToMsu::Ping).unwrap();
        assert_eq!(reply, MsuToCoord::Pong { snapshot: None });
        responder.join().unwrap();
    }

    #[test]
    fn rpc_to_unknown_msu_fails_fast() {
        let conns = MsuConns::new(Arc::default());
        assert!(matches!(
            conns.rpc(MsuId(9), CoordToMsu::Ping),
            Err(Error::MsuUnavailable { .. })
        ));
        assert!(conns.notify(MsuId(9), CoordToMsu::Ping).is_err());
    }

    #[test]
    fn unsolicited_messages_are_surfaced() {
        let conns = MsuConns::new(Arc::default());
        let (coord_side, _msu_side) = pair();
        conns.install(MsuId(1), coord_side);
        let out = conns.route(
            MsuId(1),
            0,
            MsuToCoord::StreamDone {
                stream: calliope_types::StreamId(4),
                reason: calliope_types::wire::messages::DoneReason::Completed,
                bytes: 10,
                duration_us: 20,
                trace: Default::default(),
            },
        );
        assert!(out.is_some());
    }

    #[test]
    fn late_replies_are_dropped() {
        let conns = MsuConns::new(Arc::default());
        let (coord_side, _msu_side) = pair();
        conns.install(MsuId(1), coord_side);
        // No pending id 77: routed reply vanishes.
        assert!(conns
            .route(MsuId(1), 77, MsuToCoord::Pong { snapshot: None })
            .is_none());
    }

    /// The fast-fail path: a caller blocked in `rpc` must error the
    /// moment the connection is removed, not after the full 15 s
    /// `RPC_TIMEOUT` — failover latency is bounded by this.
    #[test]
    fn remove_fails_inflight_rpcs_immediately() {
        let conns = Arc::new(MsuConns::new(Arc::default()));
        let (coord_side, _msu_side) = pair();
        conns.install(MsuId(1), coord_side);
        let conns2 = Arc::clone(&conns);
        let caller = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            let res = conns2.rpc(MsuId(1), CoordToMsu::Ping);
            (res, t0.elapsed())
        });
        // Let the caller get into recv_timeout, then break the conn.
        std::thread::sleep(Duration::from_millis(100));
        conns.remove(MsuId(1));
        let (res, waited) = caller.join().unwrap();
        assert!(matches!(res, Err(Error::MsuUnavailable { .. })));
        assert!(
            waited < Duration::from_secs(5),
            "rpc blocked {waited:?} after remove; fast-fail is broken"
        );
    }

    #[test]
    fn ids_lists_connected_msus() {
        let conns = MsuConns::new(Arc::default());
        assert!(conns.ids().is_empty());
        let (a, _ka) = pair();
        let (b, _kb) = pair();
        conns.install(MsuId(1), a);
        conns.install(MsuId(2), b);
        let mut ids = conns.ids();
        ids.sort();
        assert_eq!(ids, vec![MsuId(1), MsuId(2)]);
    }

    #[test]
    fn remove_breaks_future_rpcs() {
        let conns = MsuConns::new(Arc::default());
        let (coord_side, _msu_side) = pair();
        conns.install(MsuId(1), coord_side);
        assert_eq!(conns.len(), 1);
        conns.remove(MsuId(1));
        assert!(conns.is_empty());
        assert!(conns.rpc(MsuId(1), CoordToMsu::Ping).is_err());
    }
}
