//! The simulated disk: in-memory payload store plus a late-90s drive
//! service-time model.

use crate::block::Block;
use crate::block::Bno;
use crate::block::BLOCK_SIZE;
use crate::device::BlockDevice;
use crate::error::DevError;
use crate::faults::FaultOutcome;
use crate::faults::FaultPlan;
use crate::stats::DeviceStats;

/// Forward window within which an access still counts as sequential
/// (read-ahead and track buffers absorb small gaps).
const SEQ_WINDOW: u64 = 16;

/// Service-time parameters of one spindle.
///
/// Defaults model the ~9 GB 7200 rpm Fibre Channel drives of the paper's
/// F630 (per-drive sequential media rate around 6 MB/s, average seek 8 ms,
/// half-rotation 4.2 ms).
#[derive(Debug, Clone, Copy)]
pub struct DiskPerf {
    /// Average seek time in seconds for a random access.
    pub seek_s: f64,
    /// Average rotational delay in seconds (half a revolution).
    pub rotate_s: f64,
    /// Sequential media transfer rate in bytes/second.
    pub seq_bytes_per_s: f64,
}

impl DiskPerf {
    /// The calibrated 1998-era drive used by the experiments.
    pub fn f630_drive() -> DiskPerf {
        DiskPerf {
            seek_s: 0.008,
            rotate_s: 0.0042,
            seq_bytes_per_s: 6.0 * 1024.0 * 1024.0,
        }
    }

    /// A zero-latency device for functional tests.
    pub fn ideal() -> DiskPerf {
        DiskPerf {
            seek_s: 0.0,
            rotate_s: 0.0,
            seq_bytes_per_s: f64::INFINITY,
        }
    }

    /// Modelled service time for one `bytes`-sized access.
    pub fn service_time(&self, sequential: bool, bytes: u64) -> f64 {
        let transfer = if self.seq_bytes_per_s.is_finite() {
            bytes as f64 / self.seq_bytes_per_s
        } else {
            0.0
        };
        if sequential {
            transfer
        } else {
            self.seek_s + self.rotate_s + transfer
        }
    }

    /// Effective throughput (bytes/second) of a pure random 4 KiB workload;
    /// used to size fluid-solver capacities.
    pub fn random_4k_bytes_per_s(&self) -> f64 {
        let t = self.service_time(false, BLOCK_SIZE as u64);
        if t <= 0.0 {
            f64::INFINITY
        } else {
            BLOCK_SIZE as f64 / t
        }
    }
}

/// An in-memory simulated disk.
pub struct SimDisk {
    blocks: Vec<Block>,
    perf: DiskPerf,
    stats: DeviceStats,
    last_read: Option<Bno>,
    last_write: Option<Bno>,
    faults: FaultPlan,
    online: bool,
}

impl SimDisk {
    /// Creates a disk of `nblocks` zeroed blocks.
    pub fn new(nblocks: u64, perf: DiskPerf) -> SimDisk {
        SimDisk {
            blocks: vec![Block::Zero; nblocks as usize],
            perf,
            stats: DeviceStats::default(),
            last_read: None,
            last_write: None,
            faults: FaultPlan::default(),
            online: true,
        }
    }

    /// Mutable access to the fault-injection plan.
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// Representation-level access to a stored block: no service-time
    /// model, no fault injection, no stats. For maintenance passes that
    /// fix up *how* content is stored (e.g. the RAID layer materializing
    /// lazily-kept parity), never for simulated IO. Call sites are
    /// audited by simlint rule D07 against the `[escape_hatch]` allowlist
    /// in `simlint.toml`.
    // simlint: unmetered
    pub fn peek(&self, bno: Bno) -> &Block {
        &self.blocks[bno as usize]
    }

    /// Representation-level store; see [`SimDisk::peek`].
    // simlint: unmetered
    pub fn poke(&mut self, bno: Bno, block: Block) {
        self.blocks[bno as usize] = block;
    }

    /// Simulates whole-device failure: every subsequent access returns
    /// [`DevError::Offline`]. The payloads are destroyed, as when swapping
    /// in a replacement drive.
    pub fn fail(&mut self) {
        self.online = false;
        self.blocks.fill(Block::Zero);
    }

    /// Replaces the failed device with a fresh zeroed one (reconstruction
    /// then repopulates it through the RAID layer).
    pub fn replace(&mut self) {
        self.online = true;
        self.blocks.fill(Block::Zero);
        self.last_read = None;
        self.last_write = None;
    }

    /// Whether the device is serving requests.
    pub fn is_online(&self) -> bool {
        self.online
    }

    /// Charges extra busy time to this spindle (retry backoff, recovery
    /// delays) so it shows up in the device's utilization accounting.
    pub fn add_busy(&mut self, secs: f64) {
        self.stats.busy_secs += secs;
        obs::gauge("disk.busy_secs").add(secs);
    }

    /// Records an injected fault in the observability layer: counted
    /// always, traced (as a `fault_inject` marker) when tracing is on.
    fn note_fault(&self, what: &'static str) {
        obs::counter("disk.soft_faults").inc();
        if obs::trace_enabled() {
            obs::event::emit_labeled(obs::event::EventKind::FaultInject, what, 0, 0.0);
        }
    }

    /// The performance model in force.
    pub fn perf(&self) -> DiskPerf {
        self.perf
    }

    fn check(&self, bno: Bno) -> Result<(), DevError> {
        if !self.online {
            return Err(DevError::Offline);
        }
        if bno >= self.blocks.len() as u64 {
            return Err(DevError::OutOfRange {
                bno,
                nblocks: self.blocks.len() as u64,
            });
        }
        Ok(())
    }

    fn classify(last: &mut Option<Bno>, bno: Bno) -> bool {
        let sequential = match *last {
            Some(prev) => bno > prev && bno - prev <= SEQ_WINDOW,
            None => false,
        };
        *last = Some(bno);
        sequential
    }

    /// One simulated read of `bno` without the payload: range check, fault
    /// draw, seq/rand classification, [`DeviceStats`], obs counters,
    /// service time and trace event. [`BlockDevice::read`] is this plus the
    /// payload copy; callers that would drop the payload (the RAID-4
    /// old-data read while parity is lazy) call this instead.
    pub fn read_access(&mut self, bno: Bno) -> Result<(), DevError> {
        self.check(bno)?;
        match self.faults.read_outcome(bno) {
            FaultOutcome::Clean => {}
            FaultOutcome::Hard => return Err(DevError::Io { bno }),
            FaultOutcome::Soft => {
                self.note_fault("disk.read_soft");
                return Err(DevError::Busy { bno });
            }
        }
        let sequential = Self::classify(&mut self.last_read, bno);
        let bytes = BLOCK_SIZE as u64;
        if sequential {
            self.stats.seq_reads.record(bytes);
            obs::counter("disk.seq_read.bytes").add(bytes);
            obs::counter("disk.seq_read.ops").inc();
        } else {
            self.stats.rand_reads.record(bytes);
            obs::counter("disk.rand_read.bytes").add(bytes);
            obs::counter("disk.rand_read.ops").inc();
        }
        let service = self.perf.service_time(sequential, bytes);
        self.stats.busy_secs += service;
        obs::gauge("disk.busy_secs").add(service);
        if obs::trace_enabled() {
            obs::event::emit(obs::event::EventKind::BlockRead, bytes, service);
            obs::histogram("disk.service_secs").record(service);
        }
        Ok(())
    }
}

impl BlockDevice for SimDisk {
    fn nblocks(&self) -> u64 {
        self.blocks.len() as u64
    }

    fn read(&mut self, bno: Bno) -> Result<Block, DevError> {
        self.read_access(bno)?;
        let block = self.blocks[bno as usize].clone();
        Ok(self.faults.maybe_corrupt(bno, block))
    }

    fn write(&mut self, bno: Bno, block: Block) -> Result<(), DevError> {
        self.check(bno)?;
        match self.faults.write_outcome(bno) {
            FaultOutcome::Clean => {}
            FaultOutcome::Hard => return Err(DevError::Io { bno }),
            FaultOutcome::Soft => {
                self.note_fault("disk.write_soft");
                return Err(DevError::Busy { bno });
            }
        }
        let sequential = Self::classify(&mut self.last_write, bno);
        let bytes = BLOCK_SIZE as u64;
        if sequential {
            self.stats.seq_writes.record(bytes);
            obs::counter("disk.seq_write.bytes").add(bytes);
            obs::counter("disk.seq_write.ops").inc();
        } else {
            self.stats.rand_writes.record(bytes);
            obs::counter("disk.rand_write.bytes").add(bytes);
            obs::counter("disk.rand_write.ops").inc();
        }
        let service = self.perf.service_time(sequential, bytes);
        self.stats.busy_secs += service;
        obs::gauge("disk.busy_secs").add(service);
        if obs::trace_enabled() {
            obs::event::emit(obs::event::EventKind::BlockWrite, bytes, service);
            obs::histogram("disk.service_secs").record(service);
        }
        self.blocks[bno as usize] = block;
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut d = SimDisk::new(8, DiskPerf::ideal());
        d.write(5, Block::Synthetic(77)).unwrap();
        assert!(d.read(5).unwrap().same_content(&Block::Synthetic(77)));
        assert!(d.read(0).unwrap().same_content(&Block::Zero));
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut d = SimDisk::new(4, DiskPerf::ideal());
        assert_eq!(d.read(4), Err(DevError::OutOfRange { bno: 4, nblocks: 4 }));
        assert!(d.write(100, Block::Zero).is_err());
    }

    #[test]
    fn sequential_classification_uses_forward_window() {
        let mut d = SimDisk::new(1000, DiskPerf::f630_drive());
        d.read(10).unwrap(); // first access: random
        d.read(11).unwrap(); // +1: sequential
        d.read(20).unwrap(); // +9 within window: sequential
        d.read(500).unwrap(); // jump: random
        d.read(499).unwrap(); // backward: random
        let s = d.stats();
        assert_eq!(s.seq_reads.ops, 2);
        assert_eq!(s.rand_reads.ops, 3);
    }

    #[test]
    fn service_times_accumulate_and_differ_by_class() {
        let perf = DiskPerf::f630_drive();
        let seq = perf.service_time(true, BLOCK_SIZE as u64);
        let rand = perf.service_time(false, BLOCK_SIZE as u64);
        assert!(rand > 10.0 * seq, "seek should dominate: {rand} vs {seq}");
        let mut d = SimDisk::new(64, perf);
        d.read(0).unwrap();
        d.read(1).unwrap();
        let s = d.stats();
        assert!((s.busy_secs - (rand + seq)).abs() < 1e-9);
    }

    #[test]
    fn random_4k_rate_matches_paper_era_drives() {
        // ~12.9 ms per random 4 KiB IO -> ~0.3 MB/s raw; read-ahead chains
        // raise the effective logical-dump rate, handled by the harness.
        let rate = DiskPerf::f630_drive().random_4k_bytes_per_s();
        assert!(rate > 250_000.0 && rate < 400_000.0, "rate = {rate}");
    }

    #[test]
    fn failed_disk_goes_offline_and_loses_data() {
        let mut d = SimDisk::new(8, DiskPerf::ideal());
        d.write(1, Block::Synthetic(9)).unwrap();
        d.fail();
        assert_eq!(d.read(1), Err(DevError::Offline));
        assert!(!d.is_online());
        d.replace();
        assert!(d.is_online());
        assert!(d.read(1).unwrap().same_content(&Block::Zero));
    }

    #[test]
    fn write_stats_classify_like_reads() {
        let mut d = SimDisk::new(100, DiskPerf::ideal());
        d.write(0, Block::Zero).unwrap();
        d.write(1, Block::Zero).unwrap();
        d.write(50, Block::Zero).unwrap();
        let s = d.stats();
        assert_eq!(s.seq_writes.ops, 1);
        assert_eq!(s.rand_writes.ops, 2);
    }
}
