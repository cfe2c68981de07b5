//! A RAID-4 group: N data spindles plus one dedicated parity spindle.

use blockdev::Block;
use blockdev::BlockDevice;
use blockdev::DevError;
use blockdev::DeviceStats;
use blockdev::DiskPerf;
use blockdev::SimDisk;
use simkit::retry::RetryPolicy;

use crate::error::RaidError;

/// Parity block cached for the stripe currently being written.
#[derive(Debug)]
struct PendingParity {
    stripe: u64,
    parity: Block,
}

/// Books a retry of a transient member fault: the backoff becomes spindle
/// busy time (and media-delay demand), the retry is counted and traced.
fn note_retry(d: &mut SimDisk, backoff: f64) {
    d.add_busy(backoff);
    obs::gauge("media.delay_secs").add(backoff);
    obs::counter("raid.retries").inc();
    if obs::trace_enabled() {
        obs::event::emit_labeled(obs::event::EventKind::MediaRetry, "member io", 0, backoff);
    }
}

/// One member operation under an optional retry policy. Transient faults
/// are retried with metered backoff; the last one propagates if the policy
/// runs out (callers decide whether parity can still serve the request).
fn with_retry<T>(
    d: &mut SimDisk,
    policy: Option<RetryPolicy>,
    mut op: impl FnMut(&mut SimDisk) -> Result<T, DevError>,
) -> Result<T, DevError> {
    let Some(policy) = policy else {
        return op(d);
    };
    let attempts = policy.attempts.max(1);
    let mut attempt = 1;
    loop {
        match op(d) {
            Err(e) if e.is_transient() && attempt < attempts => {
                note_retry(d, policy.backoff_before(attempt));
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Member read under an optional retry policy; see [`with_retry`].
fn read_member(
    d: &mut SimDisk,
    offset: u64,
    policy: Option<RetryPolicy>,
) -> Result<Block, DevError> {
    with_retry(d, policy, |d| d.read(offset))
}

/// Member write under an optional retry policy; see [`with_retry`]. The
/// block is cloned only when a retry may need it again.
fn write_member(
    d: &mut SimDisk,
    offset: u64,
    block: Block,
    policy: Option<RetryPolicy>,
) -> Result<(), DevError> {
    match policy {
        None => d.write(offset, block),
        Some(_) => with_retry(d, policy, |d| d.write(offset, block.clone())),
    }
}

/// A RAID-4 group.
///
/// Logical blocks are striped across the data disks (`disk = bno % ndata`,
/// `offset = bno / ndata`), so sequential logical runs engage every spindle
/// — this is what lets physical dump run the disks at media speed.
pub struct Raid4Group {
    data: Vec<SimDisk>,
    parity: SimDisk,
    blocks_per_disk: u64,
    pending: Option<PendingParity>,
    /// Index of the failed member (`ndata` = parity disk), if any.
    failed: Option<usize>,
    /// True after a second failure: data is unrecoverable.
    lost: bool,
    /// Retry policy for transient member faults (None = no retries).
    retry: Option<RetryPolicy>,
    /// While true, parity *content* is not maintained — only the parity
    /// IO traffic is simulated. A healthy, un-faulted group's parity is a
    /// pure function of its data members (XOR), so the bytes can be
    /// recomputed on demand; skipping the upkeep avoids materializing a
    /// 4 KiB XOR residue for every stripe that ever hosted a literal
    /// (metadata) block, which dominated host memory at paper scales.
    /// Any path that can observe parity content or break the invariant
    /// (fault arming via [`Raid4Group::disk_mut`], member failure, scrub,
    /// reconstruction) first calls [`Raid4Group::materialize_parity`],
    /// which rebuilds the exact bytes eager upkeep would have produced
    /// and drops to eager mode for the rest of the group's life.
    lazy_parity: bool,
}

impl Raid4Group {
    /// Creates a group of `ndata` data disks plus parity, each of
    /// `blocks_per_disk` blocks with the given performance model.
    ///
    /// # Panics
    ///
    /// Panics if `ndata` is zero.
    pub fn new(ndata: usize, blocks_per_disk: u64, perf: DiskPerf) -> Raid4Group {
        assert!(ndata > 0, "a raid group needs at least one data disk");
        Raid4Group {
            data: (0..ndata)
                .map(|_| SimDisk::new(blocks_per_disk, perf))
                .collect(),
            parity: SimDisk::new(blocks_per_disk, perf),
            blocks_per_disk,
            pending: None,
            failed: None,
            lost: false,
            retry: None,
            lazy_parity: true,
        }
    }

    /// Switches from lazy to eager parity, first rebuilding every stripe's
    /// parity bytes from the raw data-member state. Representation-level
    /// only (peek/poke): no service time, no events, no stats — in eager
    /// mode this content would already be present, so the catch-up must be
    /// invisible to every meter. The cached write-back slot is fixed up
    /// too, since all its stripe's data writes have already landed.
    ///
    /// This is the one function allowed to call the unmetered escape
    /// hatches: simlint rule D07 audits every `SimDisk::peek`/`poke` call
    /// site against the `[escape_hatch]` allowlist in `simlint.toml`,
    /// which names exactly this fn.
    fn materialize_parity(&mut self) {
        if !self.lazy_parity {
            return;
        }
        self.lazy_parity = false;
        for offset in 0..self.blocks_per_disk {
            let mut acc = Block::Zero;
            for d in &self.data {
                acc.xor_in_place(d.peek(offset));
            }
            if let Some(p) = &self.pending {
                if p.stripe == offset {
                    self.pending = Some(PendingParity {
                        stripe: offset,
                        parity: acc.clone(),
                    });
                }
            }
            self.parity.poke(offset, acc);
        }
    }

    /// Installs a retry policy for transient member faults. Reads that
    /// stay transient after every attempt fall back to reconstruction
    /// (parity can still serve them); writes surface
    /// [`RaidError::Exhausted`].
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
    }

    /// Usable capacity in blocks (parity excluded).
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64 * self.blocks_per_disk
    }

    /// Number of data disks.
    pub fn ndata(&self) -> usize {
        self.data.len()
    }

    /// Total member count including parity.
    pub fn ndisks(&self) -> usize {
        self.data.len() + 1
    }

    /// The index used to address the parity disk in
    /// [`Raid4Group::fail_disk`].
    pub fn parity_index(&self) -> usize {
        self.data.len()
    }

    fn locate(&self, bno: u64) -> Result<(usize, u64), RaidError> {
        if bno >= self.capacity() {
            return Err(RaidError::OutOfRange {
                bno,
                capacity: self.capacity(),
            });
        }
        Ok((
            (bno % self.data.len() as u64) as usize,
            bno / self.data.len() as u64,
        ))
    }

    /// Reads one logical block, reconstructing from parity when the owning
    /// disk has failed.
    pub fn read(&mut self, bno: u64) -> Result<Block, RaidError> {
        if self.lost {
            return Err(RaidError::TooManyFailures { group: 0 });
        }
        let (disk, offset) = self.locate(bno)?;
        match read_member(&mut self.data[disk], offset, self.retry) {
            Ok(b) => Ok(b),
            // Member down — or transiently failing past the whole retry
            // budget: either way parity can still serve the read.
            Err(DevError::Offline) | Err(DevError::Busy { .. }) => {
                obs::counter("raid.degraded_reads").inc();
                // Weight 0: the member reads below emit their own service.
                obs::event::emit(
                    obs::event::EventKind::RaidDegradedRead,
                    blockdev::BLOCK_SIZE as u64,
                    0.0,
                );
                self.reconstruct_block(disk, offset)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Writes one logical block, maintaining parity by subtraction.
    pub fn write(&mut self, bno: u64, block: Block) -> Result<(), RaidError> {
        if self.lost {
            return Err(RaidError::TooManyFailures { group: 0 });
        }
        let (disk, offset) = self.locate(bno)?;

        // Old data: direct read, or reconstruction if this member is down.
        // While parity is lazy its bytes are never folded in, so the read
        // is simulated without copying them out (reconstruction leaves
        // lazy mode, so the degraded branch always has the bytes).
        let lazy = self.lazy_parity;
        let old = match with_retry(&mut self.data[disk], self.retry, |d| {
            if lazy {
                d.read_access(offset).map(|()| None)
            } else {
                d.read(offset).map(Some)
            }
        }) {
            Ok(b) => b,
            Err(DevError::Offline) | Err(DevError::Busy { .. }) => {
                obs::counter("raid.degraded_reads").inc();
                obs::event::emit(
                    obs::event::EventKind::RaidDegradedRead,
                    blockdev::BLOCK_SIZE as u64,
                    0.0,
                );
                Some(self.reconstruct_block(disk, offset)?)
            }
            Err(e) => return Err(e.into()),
        };

        // Bring the right stripe's parity into the write-back slot.
        if self
            .pending
            .as_ref()
            .map(|p| p.stripe != offset)
            .unwrap_or(false)
        {
            self.flush()?;
        }
        if self.pending.is_none() {
            let parity = match self.parity.read(offset) {
                Ok(b) => b,
                // Parity disk down: nothing to maintain until reconstruct.
                Err(DevError::Offline) => Block::Zero,
                Err(e) => return Err(e.into()),
            };
            self.pending = Some(PendingParity {
                stripe: offset,
                parity,
            });
        }
        // Parity content upkeep (skipped while lazy: the traffic above is
        // still simulated, the bytes are recomputable on demand).
        if !self.lazy_parity {
            if let (Some(p), Some(old)) = (self.pending.as_mut(), &old) {
                p.parity.xor_in_place(old);
                p.parity.xor_in_place(&block);
            }
        }

        match write_member(&mut self.data[disk], offset, block, self.retry) {
            Ok(()) | Err(DevError::Offline) => Ok(()),
            Err(DevError::Busy { .. }) => Err(RaidError::Exhausted {
                bno,
                attempts: self.retry.map(|p| p.attempts).unwrap_or(1),
            }),
            Err(e) => Err(e.into()),
        }
    }

    /// Flushes the cached parity block to the parity spindle.
    pub fn flush(&mut self) -> Result<(), RaidError> {
        if let Some(p) = self.pending.take() {
            // Weight 0: the spindle write below carries the service time.
            obs::event::emit(
                obs::event::EventKind::RaidParity,
                blockdev::BLOCK_SIZE as u64,
                0.0,
            );
            match write_member(&mut self.parity, p.stripe, p.parity, self.retry) {
                Ok(()) | Err(DevError::Offline) => Ok(()),
                Err(DevError::Busy { .. }) => Err(RaidError::Exhausted {
                    bno: p.stripe,
                    attempts: self.retry.map(|q| q.attempts).unwrap_or(1),
                }),
                Err(e) => Err(e.into()),
            }
        } else {
            Ok(())
        }
    }

    /// Reconstructs the content of (`disk`, `offset`) from parity and the
    /// surviving members.
    fn reconstruct_block(&mut self, disk: usize, offset: u64) -> Result<Block, RaidError> {
        self.materialize_parity();
        // The cached parity must be on the spindle before we trust it.
        if self
            .pending
            .as_ref()
            .map(|p| p.stripe == offset)
            .unwrap_or(false)
        {
            self.flush()?;
        }
        let retry = self.retry;
        let mut acc = match read_member(&mut self.parity, offset, retry) {
            Ok(b) => b,
            Err(DevError::Offline) => return Err(RaidError::TooManyFailures { group: 0 }),
            Err(e) => return Err(e.into()),
        };
        for (i, d) in self.data.iter_mut().enumerate() {
            if i == disk {
                continue;
            }
            let b = match read_member(d, offset, retry) {
                Ok(b) => b,
                Err(DevError::Offline) => return Err(RaidError::TooManyFailures { group: 0 }),
                Err(e) => return Err(e.into()),
            };
            acc = acc.xor(&b);
        }
        Ok(acc)
    }

    /// Fails a member. `disk` counts data disks first; `ndata` is the
    /// parity spindle. A second concurrent failure marks the group lost.
    pub fn fail_disk(&mut self, disk: usize) -> Result<(), RaidError> {
        if disk > self.data.len() {
            return Err(RaidError::NoSuchDisk { disk });
        }
        self.materialize_parity();
        if let Some(already) = self.failed {
            if already != disk {
                self.lost = true;
            }
        }
        self.failed = Some(disk);
        obs::counter("raid.disk_failures").inc();
        if obs::trace_enabled() {
            let label = if disk == self.data.len() {
                "parity".to_string()
            } else {
                format!("disk {disk}")
            };
            obs::event::emit_labeled(obs::event::EventKind::RaidFault, &label, 0, 0.0);
        }
        if disk == self.data.len() {
            // Cached parity would be written to a dead spindle anyway.
            self.pending = None;
            self.parity.fail();
        } else {
            self.data[disk].fail();
        }
        Ok(())
    }

    /// Replaces the failed member with a fresh spindle and rebuilds its
    /// contents from the survivors.
    pub fn reconstruct(&mut self) -> Result<(), RaidError> {
        if self.lost {
            return Err(RaidError::TooManyFailures { group: 0 });
        }
        self.materialize_parity();
        let Some(disk) = self.failed else {
            return Ok(());
        };
        self.flush()?;
        obs::counter("raid.reconstructions").inc();
        obs::counter("raid.reconstructed_blocks").add(self.blocks_per_disk);
        if obs::trace_enabled() {
            let label = if disk == self.data.len() {
                "parity".to_string()
            } else {
                format!("disk {disk}")
            };
            obs::event::emit_labeled(
                obs::event::EventKind::RaidReconstruct,
                &label,
                self.blocks_per_disk * blockdev::BLOCK_SIZE as u64,
                0.0,
            );
        }
        if disk == self.data.len() {
            self.parity.replace();
            for offset in 0..self.blocks_per_disk {
                let mut acc = Block::Zero;
                for d in self.data.iter_mut() {
                    acc = acc.xor(&d.read(offset)?);
                }
                self.parity.write(offset, acc)?;
            }
        } else {
            self.data[disk].replace();
            for offset in 0..self.blocks_per_disk {
                let content = self.reconstruct_block(disk, offset)?;
                self.data[disk].write(offset, content)?;
            }
        }
        self.failed = None;
        Ok(())
    }

    /// Verifies parity for every stripe; returns the number of bad stripes.
    pub fn scrub(&mut self) -> Result<u64, RaidError> {
        self.materialize_parity();
        self.flush()?;
        obs::counter("raid.scrubs").inc();
        let mut bad = 0;
        for offset in 0..self.blocks_per_disk {
            let mut acc = self.parity.read(offset)?;
            for d in self.data.iter_mut() {
                acc = acc.xor(&d.read(offset)?);
            }
            if !acc.is_zero() {
                bad += 1;
            }
        }
        Ok(bad)
    }

    /// Whether the group is running without a failed member.
    pub fn is_healthy(&self) -> bool {
        self.failed.is_none() && !self.lost
    }

    /// Aggregate traffic counters over all members (parity included).
    pub fn stats(&self) -> DeviceStats {
        let mut s = DeviceStats::default();
        for d in &self.data {
            s.merge(&d.stats());
        }
        s.merge(&self.parity.stats());
        s
    }

    /// Traffic counters for the data spindles only.
    pub fn data_stats(&self) -> DeviceStats {
        let mut s = DeviceStats::default();
        for d in &self.data {
            s.merge(&d.stats());
        }
        s
    }

    /// Fault-injection access to a member (data disks first, parity last).
    /// Handing out a member implies faults may be armed on it, after which
    /// the lazy-parity invariant (content ≡ raw XOR of members) can break
    /// — so parity goes eager first.
    pub fn disk_mut(&mut self, disk: usize) -> Result<&mut SimDisk, RaidError> {
        self.materialize_parity();
        if disk < self.data.len() {
            Ok(&mut self.data[disk])
        } else if disk == self.data.len() {
            Ok(&mut self.parity)
        } else {
            Err(RaidError::NoSuchDisk { disk })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> Raid4Group {
        Raid4Group::new(4, 32, DiskPerf::ideal())
    }

    #[test]
    fn read_write_round_trip() {
        let mut g = group();
        for bno in 0..g.capacity() {
            g.write(bno, Block::Synthetic(bno + 1000)).unwrap();
        }
        for bno in 0..g.capacity() {
            assert!(g
                .read(bno)
                .unwrap()
                .same_content(&Block::Synthetic(bno + 1000)));
        }
    }

    #[test]
    fn capacity_excludes_parity() {
        let g = group();
        assert_eq!(g.capacity(), 4 * 32);
        assert_eq!(g.ndisks(), 5);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut g = group();
        assert!(matches!(
            g.read(g.capacity()),
            Err(RaidError::OutOfRange { .. })
        ));
    }

    #[test]
    fn scrub_is_clean_after_writes() {
        let mut g = group();
        for bno in 0..64 {
            g.write(bno, Block::Synthetic(bno)).unwrap();
        }
        assert_eq!(g.scrub().unwrap(), 0);
    }

    #[test]
    fn degraded_read_reconstructs_data() {
        let mut g = group();
        for bno in 0..g.capacity() {
            g.write(bno, Block::Synthetic(bno * 7)).unwrap();
        }
        g.flush().unwrap();
        g.fail_disk(1).unwrap();
        for bno in 0..g.capacity() {
            assert!(
                g.read(bno)
                    .unwrap()
                    .same_content(&Block::Synthetic(bno * 7)),
                "bno {bno} wrong after disk failure"
            );
        }
    }

    #[test]
    fn degraded_write_remains_recoverable() {
        let mut g = group();
        for bno in 0..g.capacity() {
            g.write(bno, Block::Synthetic(bno)).unwrap();
        }
        g.fail_disk(2).unwrap();
        // Overwrite blocks that live on the dead disk.
        g.write(2, Block::Synthetic(999)).unwrap();
        g.write(6, Block::Synthetic(998)).unwrap();
        assert!(g.read(2).unwrap().same_content(&Block::Synthetic(999)));
        assert!(g.read(6).unwrap().same_content(&Block::Synthetic(998)));
    }

    #[test]
    fn reconstruct_rebuilds_failed_data_disk() {
        let mut g = group();
        for bno in 0..g.capacity() {
            g.write(bno, Block::Synthetic(bno + 5)).unwrap();
        }
        g.fail_disk(0).unwrap();
        g.write(0, Block::Synthetic(12345)).unwrap();
        g.reconstruct().unwrap();
        assert!(g.is_healthy());
        assert_eq!(g.scrub().unwrap(), 0);
        assert!(g.read(0).unwrap().same_content(&Block::Synthetic(12345)));
        assert!(g.read(4).unwrap().same_content(&Block::Synthetic(9)));
    }

    #[test]
    fn reconstruct_rebuilds_parity_disk() {
        let mut g = group();
        for bno in 0..g.capacity() {
            g.write(bno, Block::Synthetic(bno)).unwrap();
        }
        let parity_idx = g.parity_index();
        g.fail_disk(parity_idx).unwrap();
        g.write(3, Block::Synthetic(777)).unwrap();
        g.reconstruct().unwrap();
        assert_eq!(g.scrub().unwrap(), 0);
        assert!(g.read(3).unwrap().same_content(&Block::Synthetic(777)));
    }

    #[test]
    fn double_failure_loses_data() {
        let mut g = group();
        g.write(0, Block::Synthetic(1)).unwrap();
        g.fail_disk(0).unwrap();
        g.fail_disk(1).unwrap();
        assert!(matches!(g.read(0), Err(RaidError::TooManyFailures { .. })));
        assert!(matches!(
            g.reconstruct(),
            Err(RaidError::TooManyFailures { .. })
        ));
    }

    #[test]
    fn scrub_detects_silent_corruption() {
        let spec = simkit::faults::FaultSpec::builder()
            .disk_corrupt(0, 0xbad)
            .build();
        let mut g = group();
        for bno in 0..16 {
            g.write(bno, Block::Synthetic(bno)).unwrap();
        }
        g.flush().unwrap();
        g.disk_mut(1)
            .unwrap()
            .faults_mut()
            .arm(&spec.disk, simkit::rng::SimRng::seed_from_u64(0));
        assert!(g.scrub().unwrap() > 0);
    }

    #[test]
    fn transient_member_read_faults_retry_to_success() {
        let spec = simkit::faults::FaultSpec::builder()
            .disk_read_soft(0.2)
            .build();
        let mut g = group();
        for bno in 0..g.capacity() {
            g.write(bno, Block::Synthetic(bno + 3)).unwrap();
        }
        g.flush().unwrap();
        for i in 0..g.ndisks() {
            let rng = simkit::rng::SimRng::seed_from_u64(40 + i as u64);
            g.disk_mut(i).unwrap().faults_mut().arm(&spec.disk, rng);
        }
        g.set_retry_policy(RetryPolicy::media_default());
        // Every read still returns correct data despite the soft faults.
        for bno in 0..g.capacity() {
            assert!(g
                .read(bno)
                .unwrap()
                .same_content(&Block::Synthetic(bno + 3)));
        }
        let busy = g.stats().busy_secs;
        assert!(busy > 0.0, "retry backoff must surface as busy time");
    }

    #[test]
    fn exhausted_write_surfaces_typed_error() {
        // Certain transient write failure: the retry budget runs dry.
        let spec = simkit::faults::FaultSpec::builder()
            .disk_write_soft(1.0)
            .build();
        let mut g = group();
        let rng = simkit::rng::SimRng::seed_from_u64(1);
        g.disk_mut(0).unwrap().faults_mut().arm(&spec.disk, rng);
        g.set_retry_policy(RetryPolicy::media_default());
        match g.write(0, Block::Synthetic(1)) {
            Err(RaidError::Exhausted {
                bno: 0,
                attempts: 4,
            }) => {}
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn stripe_cache_amortizes_parity_writes() {
        let mut g = group();
        // One full stripe = 4 sequential logical blocks sharing offset 0.
        for bno in 0..4 {
            g.write(bno, Block::Synthetic(bno)).unwrap();
        }
        g.flush().unwrap();
        // Parity spindle should have seen exactly one write for the stripe.
        let parity_writes = {
            let idx = g.parity_index();
            g.disk_mut(idx).unwrap().stats().writes().ops
        };
        assert_eq!(parity_writes, 1);
        assert_eq!(g.scrub().unwrap(), 0);
    }

    /// Writes `bnos` to a fresh 4+1 group, first handing every member to
    /// `arm` (faults, failure). With `lazy` the members are reached
    /// directly so parity stays lazy and the old-data read goes through
    /// [`SimDisk::read_access`]; otherwise parity goes eager first and the
    /// old data comes from a plain read. Returns the write outcomes, every
    /// obs reading and each member's stats.
    fn lazy_vs_eager(
        lazy: bool,
        policy: Option<RetryPolicy>,
        arm: impl Fn(usize, &mut SimDisk),
        bnos: &[u64],
    ) -> (Vec<Result<(), RaidError>>, obs::MetricsSnapshot, String) {
        obs::metrics::reset();
        let mut g = Raid4Group::new(4, 32, DiskPerf::f630_drive());
        if !lazy {
            g.materialize_parity();
        }
        for (i, d) in g.data.iter_mut().chain([&mut g.parity]).enumerate() {
            arm(i, d);
        }
        if let Some(p) = policy {
            g.set_retry_policy(p);
        }
        assert_eq!(g.lazy_parity, lazy);
        let outcomes = bnos
            .iter()
            .map(|&b| g.write(b, Block::Synthetic(b + 1)))
            .collect();
        let members: Vec<DeviceStats> = g
            .data
            .iter()
            .chain([&g.parity])
            .map(|d| d.stats())
            .collect();
        (outcomes, obs::metrics::snapshot(), format!("{members:?}"))
    }

    #[test]
    fn lazy_old_data_read_keeps_hard_error() {
        // Logical block 4 lives on disk 0 at offset 1.
        let spec = simkit::faults::FaultSpec::builder()
            .disk_fail_read(1)
            .build();
        let arm = |i: usize, d: &mut SimDisk| {
            if i == 0 {
                d.faults_mut()
                    .arm(&spec.disk, simkit::rng::SimRng::seed_from_u64(0));
            }
        };
        let lazy = lazy_vs_eager(true, None, arm, &[0, 4, 5]);
        assert_eq!(lazy.0[1], Err(RaidError::Dev(DevError::Io { bno: 1 })));
        assert_eq!(lazy, lazy_vs_eager(false, None, arm, &[0, 4, 5]));
    }

    #[test]
    fn lazy_old_data_read_on_offline_member_takes_degraded_branch() {
        let arm = |i: usize, d: &mut SimDisk| {
            if i == 1 {
                d.fail();
            }
        };
        let bnos = [0, 1, 5, 2];
        let lazy = lazy_vs_eager(true, None, arm, &bnos);
        assert!(lazy.0.iter().all(|r| r.is_ok()), "{:?}", lazy.0);
        assert_eq!(lazy.1.get("raid.degraded_reads"), 2.0);
        assert_eq!(lazy, lazy_vs_eager(false, None, arm, &bnos));
    }

    #[test]
    fn lazy_old_data_read_draws_and_retries_like_a_plain_read() {
        let spec = simkit::faults::FaultSpec::builder()
            .disk_read_soft(0.3)
            .build();
        let arm = |i: usize, d: &mut SimDisk| {
            let rng = simkit::rng::SimRng::seed_from_u64(90 + i as u64);
            d.faults_mut().arm(&spec.disk, rng);
        };
        let bnos: Vec<u64> = (0..128).collect();
        let policy = Some(RetryPolicy::media_default());
        let lazy = lazy_vs_eager(true, policy, arm, &bnos);
        assert!(lazy.1.get("raid.retries") > 0.0);
        assert!(lazy.1.get("disk.soft_faults") > 0.0);
        assert_eq!(lazy, lazy_vs_eager(false, policy, arm, &bnos));
    }

    #[test]
    fn no_such_disk_is_reported() {
        let mut g = group();
        assert!(matches!(g.fail_disk(9), Err(RaidError::NoSuchDisk { .. })));
        assert!(matches!(g.disk_mut(9), Err(RaidError::NoSuchDisk { .. })));
    }
}
