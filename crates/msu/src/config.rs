//! MSU configuration.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::path::PathBuf;
use std::time::Duration;

/// Geometry of one local disk (a file-backed raw device).
#[derive(Clone, Debug)]
pub struct DiskSpec {
    /// Number of 256 KB blocks. A 1995 Seagate Barracuda held 2 GB ≈
    /// 8192 blocks; tests use far fewer (the backing file is sparse).
    pub blocks: u64,
    /// Fault-injection plan for chaos tests; `None` opens the disk
    /// without the [`calliope_storage::FaultyDisk`] wrapper. Even an
    /// all-defaults plan is useful: it arms the runtime kill switch.
    pub fault: Option<calliope_storage::FaultPlan>,
}

impl DiskSpec {
    /// A disk with no fault injection.
    pub fn healthy(blocks: u64) -> DiskSpec {
        DiskSpec {
            blocks,
            fault: None,
        }
    }
}

/// Default [`MsuConfig::net_tick`], shared by every way of starting an
/// MSU (tests, `Cluster`, `calliope-msud`).
pub const DEFAULT_NET_TICK: Duration = Duration::from_millis(1);

/// Configuration for one MSU.
#[derive(Clone, Debug)]
pub struct MsuConfig {
    /// The Coordinator's intra-server (MSU registration) address.
    pub coordinator: SocketAddr,
    /// Directory for the disk image files (`disk0.img`, `disk1.img`, …).
    pub data_dir: PathBuf,
    /// Local disks to create or open.
    pub disks: Vec<DiskSpec>,
    /// IP to bind the MSU's sockets on.
    pub bind_ip: IpAddr,
    /// Network-process timer granularity: the minimum gap between two
    /// timer wakeups of the pacing thread, which otherwise sleeps until
    /// the earliest packet deadline. Packet lateness is bounded by it
    /// plus send time; smaller values trade CPU for jitter. The paper's
    /// FreeBSD timers ticked every 10 ms.
    pub net_tick: Duration,
    /// Previous identity when re-registering after a crash (paper §2.2
    /// fault tolerance).
    pub previous_id: Option<calliope_types::MsuId>,
}

impl MsuConfig {
    /// A small configuration suitable for tests and examples: two
    /// 16 MB disks, loopback networking, the default timer granularity.
    pub fn small(coordinator: SocketAddr, data_dir: PathBuf) -> MsuConfig {
        MsuConfig {
            coordinator,
            data_dir,
            disks: vec![DiskSpec::healthy(64), DiskSpec::healthy(64)],
            bind_ip: IpAddr::V4(Ipv4Addr::LOCALHOST),
            net_tick: DEFAULT_NET_TICK,
            previous_id: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_matches_paper_timer() {
        let cfg = MsuConfig::small("127.0.0.1:9000".parse().unwrap(), "/tmp/x".into());
        assert_eq!(cfg.net_tick, DEFAULT_NET_TICK);
        assert_eq!(cfg.disks.len(), 2);
        assert!(cfg.previous_id.is_none());
    }
}
