//! The mounted file system: format, mount, consistency points, crash
//! recovery, block allocation.
//!
//! Invariants maintained here (and exercised by the crash tests):
//!
//! - Between consistency points the on-disk image is exactly the previous
//!   CP: no block referenced by it (or by any snapshot) is ever reused
//!   before the next fsinfo write. Blocks freed since the last completed CP
//!   sit in a "frozen" set the allocator skips.
//! - A consistency point serializes all dirty state bottom-up (directory
//!   blocks, file indirect blocks, inode-file blocks, snapshot/qtree
//!   tables, block-map blocks) into *newly allocated* blocks, then
//!   overwrites only the two fixed fsinfo locations.
//! - The NVRAM log holds every operation since the last CP; mount replays
//!   it, which is the entire crash-recovery story (no fsck).

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::rc::Rc;

use blockdev::Block;
use nvram::NvSized;
use nvram::NvramLog;
use raid::Volume;
use simkit::crash::CrashPoint;
use simkit::meter::Meter;

use crate::blkmap::BlkMap;
use crate::blkmap::BlockSet;
use crate::cost::CostModel;
use crate::error::WaflError;
use crate::ondisk;
use crate::ondisk::DiskInode;
use crate::ondisk::FsInfo;
use crate::ondisk::QtreeEntry;
use crate::ondisk::SnapEntry;
use crate::ondisk::TreeRoot;
use crate::ondisk::BLOCK_SIZE;
use crate::ondisk::FSINFO_BLOCKS;
use crate::types::Attrs;
use crate::types::FileType;
use crate::types::Ino;
use crate::types::WaflConfig;
use crate::types::INODES_PER_BLOCK;
use crate::types::INODE_SIZE;
use crate::types::INO_BLKMAP;
use crate::types::INO_ROOT;
use crate::types::NDIRECT;
use crate::types::PTRS_PER_BLOCK;

/// Number of blocks needed for `bytes`.
pub(crate) fn blocks_of(bytes: u64) -> u64 {
    bytes.div_ceil(BLOCK_SIZE as u64)
}

/// Which L1 indirect block (if any) maps `fbn`. Index 0 is the
/// single-indirect block; indices ≥ 1 are children of the double-indirect
/// block.
pub(crate) fn l1_index(fbn: u64) -> Option<usize> {
    let nd = NDIRECT as u64;
    if fbn < nd {
        None
    } else if fbn < nd + PTRS_PER_BLOCK {
        Some(0)
    } else {
        Some(1 + ((fbn - nd - PTRS_PER_BLOCK) / PTRS_PER_BLOCK) as usize)
    }
}

/// The file block range `[start, end)` covered by L1 block `i`.
pub(crate) fn l1_span(i: usize) -> (u64, u64) {
    let nd = NDIRECT as u64;
    if i == 0 {
        (nd, nd + PTRS_PER_BLOCK)
    } else {
        let start = nd + PTRS_PER_BLOCK + (i as u64 - 1) * PTRS_PER_BLOCK;
        (start, start + PTRS_PER_BLOCK)
    }
}

/// How many L1 blocks a file of `nslots` blocks needs.
pub(crate) fn l1_count(nslots: u64) -> usize {
    if nslots <= NDIRECT as u64 {
        0
    } else {
        // simlint: allow(D05) -- nslots > NDIRECT in this branch, so l1_index is Some by construction
        l1_index(nslots - 1).expect("nslots > NDIRECT") + 1
    }
}

/// A file's logical-to-physical block mapping (fbn → volume block; 0 means
/// hole).
#[derive(Debug, Clone, Default)]
pub(crate) struct FileTree {
    pub(crate) slots: Vec<u32>,
}

impl FileTree {
    pub(crate) fn get(&self, fbn: u64) -> u32 {
        self.slots.get(fbn as usize).copied().unwrap_or(0)
    }

    pub(crate) fn set(&mut self, fbn: u64, bno: u32) {
        if fbn as usize >= self.slots.len() {
            self.slots.resize(fbn as usize + 1, 0);
        }
        self.slots[fbn as usize] = bno;
    }

    pub(crate) fn nslots(&self) -> u64 {
        self.slots.len() as u64
    }
}

/// On-disk homes of a tree's indirect blocks (for freeing on rewrite).
#[derive(Debug, Clone, Default)]
pub(crate) struct TreeMeta {
    /// Home of each L1 indirect block (index 0 = single indirect).
    pub(crate) l1_homes: Vec<u32>,
    /// Home of the double-indirect block (0 = none).
    pub(crate) dind_home: u32,
}

/// The in-memory inode.
#[derive(Debug, Clone)]
pub(crate) struct InodeMem {
    pub(crate) ftype: FileType,
    pub(crate) attrs: Attrs,
    pub(crate) nlink: u16,
    pub(crate) qtree: u16,
    pub(crate) gen: u32,
    pub(crate) size: u64,
    pub(crate) tree: FileTree,
    pub(crate) meta: TreeMeta,
    /// Directory contents (None for regular files).
    pub(crate) dir: Option<BTreeMap<String, Ino>>,
    /// Directory contents changed since the last CP.
    pub(crate) dir_dirty: bool,
    /// File blocks whose mapping changed since the last CP.
    pub(crate) dirty_fbns: BTreeSet<u64>,
}

impl InodeMem {
    /// The directory map, or `WrongType`-flavored `Invalid` if this inode
    /// is not a directory (the `ftype == Dir` ⟺ `dir.is_some()` invariant).
    pub(crate) fn dir_ref(&self) -> Result<&BTreeMap<String, Ino>, WaflError> {
        self.dir.as_ref().ok_or_else(|| WaflError::Invalid {
            reason: "inode has no directory contents".into(),
        })
    }

    /// Mutable counterpart of [`InodeMem::dir_ref`].
    pub(crate) fn dir_mut(&mut self) -> Result<&mut BTreeMap<String, Ino>, WaflError> {
        self.dir.as_mut().ok_or_else(|| WaflError::Invalid {
            reason: "inode has no directory contents".into(),
        })
    }

    pub(crate) fn new_file(attrs: Attrs, qtree: u16, gen: u32) -> InodeMem {
        Self::new_leaf(FileType::File, attrs, qtree, gen)
    }

    /// A non-directory inode (regular file or symlink).
    pub(crate) fn new_leaf(ftype: FileType, attrs: Attrs, qtree: u16, gen: u32) -> InodeMem {
        debug_assert!(ftype != FileType::Dir);
        InodeMem {
            ftype,
            attrs,
            nlink: 1,
            qtree,
            gen,
            size: 0,
            tree: FileTree::default(),
            meta: TreeMeta::default(),
            dir: None,
            dir_dirty: false,
            dirty_fbns: BTreeSet::new(),
        }
    }

    pub(crate) fn new_dir(attrs: Attrs, qtree: u16, gen: u32) -> InodeMem {
        InodeMem {
            ftype: FileType::Dir,
            attrs,
            nlink: 2,
            qtree,
            gen,
            size: 0,
            tree: FileTree::default(),
            meta: TreeMeta::default(),
            dir: Some(BTreeMap::new()),
            dir_dirty: true,
            dirty_fbns: BTreeSet::new(),
        }
    }

    /// Builds the on-disk form. Direct pointers come from the tree; the
    /// indirect homes from the tree metadata.
    pub(crate) fn to_disk(&self) -> DiskInode {
        let mut direct = [0u32; NDIRECT];
        for (i, d) in direct.iter_mut().enumerate() {
            *d = self.tree.get(i as u64);
        }
        DiskInode {
            ftype: Some(self.ftype),
            attrs: self.attrs.clone(),
            nlink: self.nlink,
            qtree: self.qtree,
            gen: self.gen,
            root: TreeRoot {
                size: self.size,
                direct,
                indirect: self.meta.l1_homes.first().copied().unwrap_or(0),
                dindirect: self.meta.dind_home,
            },
        }
    }
}

/// Operations recorded in NVRAM between consistency points.
#[derive(Debug, Clone)]
pub enum LoggedOp {
    /// Create a file or directory.
    Create {
        /// Parent directory.
        parent: Ino,
        /// New entry name.
        name: String,
        /// Kind.
        ftype: FileType,
        /// Initial attributes.
        attrs: Attrs,
    },
    /// Remove a file or (empty) directory.
    Remove {
        /// Parent directory.
        parent: Ino,
        /// Entry name.
        name: String,
    },
    /// Rename/move an entry.
    Rename {
        /// Source directory.
        from_parent: Ino,
        /// Source name.
        from_name: String,
        /// Destination directory.
        to_parent: Ino,
        /// Destination name.
        to_name: String,
    },
    /// Write one block of a file.
    Write {
        /// Target file.
        ino: Ino,
        /// File block number.
        fbn: u64,
        /// Payload.
        block: Block,
    },
    /// Set the byte size (truncating or extending with a hole).
    SetSize {
        /// Target file.
        ino: Ino,
        /// New size in bytes.
        size: u64,
    },
    /// Replace attributes.
    SetAttrs {
        /// Target inode.
        ino: Ino,
        /// New attributes.
        attrs: Attrs,
    },
    /// Create a qtree.
    CreateQtree {
        /// Qtree name (also the directory name under the root).
        name: String,
        /// Byte limit (0 = unlimited).
        limit_bytes: u64,
    },
    /// Create a symbolic link.
    Symlink {
        /// Parent directory.
        parent: Ino,
        /// Link name.
        name: String,
        /// Link target path.
        target: String,
        /// Initial attributes.
        attrs: Attrs,
    },
    /// Add a hard link to an existing file.
    Link {
        /// Directory receiving the new name.
        parent: Ino,
        /// The new name.
        name: String,
        /// The linked inode.
        ino: Ino,
    },
}

impl NvSized for LoggedOp {
    fn nv_bytes(&self) -> u64 {
        match self {
            LoggedOp::Write { .. } => 64 + BLOCK_SIZE as u64,
            LoggedOp::Create { name, .. } | LoggedOp::Remove { name, .. } => 64 + name.len() as u64,
            LoggedOp::Rename {
                from_name, to_name, ..
            } => 64 + (from_name.len() + to_name.len()) as u64,
            LoggedOp::SetSize { .. } => 64,
            LoggedOp::SetAttrs { attrs, .. } => {
                64 + attrs.nt_acl.as_ref().map(|a| a.len() as u64).unwrap_or(0)
            }
            LoggedOp::CreateQtree { name, .. } => 64 + name.len() as u64,
            LoggedOp::Symlink { name, target, .. } => 64 + (name.len() + target.len()) as u64,
            LoggedOp::Link { name, .. } => 64 + name.len() as u64,
        }
    }
}

/// The mounted file system.
pub struct Wafl {
    pub(crate) vol: Volume,
    pub(crate) meter: Rc<Meter>,
    pub(crate) costs: CostModel,
    pub(crate) cfg: WaflConfig,
    pub(crate) nv: NvramLog<LoggedOp>,
    pub(crate) cp_count: u64,
    pub(crate) tick: u64,
    pub(crate) next_ino: Ino,
    pub(crate) next_gen: u32,
    pub(crate) next_qtree: u16,
    pub(crate) inodes: Vec<Option<InodeMem>>,
    pub(crate) blkmap: BlkMap,
    pub(crate) snapshots: Vec<SnapEntry>,
    pub(crate) qtrees: Vec<QtreeEntry>,
    pub(crate) inofile_tree: FileTree,
    pub(crate) inofile_meta: TreeMeta,
    pub(crate) blkmap_tree: FileTree,
    pub(crate) blkmap_meta: TreeMeta,
    pub(crate) snaptable_bno: u32,
    pub(crate) qtree_bno: u32,
    pub(crate) dirty_inodes: BTreeSet<Ino>,
    pub(crate) frozen: BlockSet,
    pub(crate) alloc_cursor: u64,
    pub(crate) replaying: bool,
    /// Roots as of the last completed CP (captured by snapshots).
    pub(crate) last_inofile_root: TreeRoot,
}

impl Wafl {
    /// Creates a fresh, empty file system on the volume.
    pub fn format(vol: Volume, cfg: WaflConfig) -> Result<Wafl, WaflError> {
        let meter = Meter::new_shared();
        Wafl::format_with(vol, cfg, meter, CostModel::zero())
    }

    /// [`Wafl::format`] with an explicit meter and cost model (the
    /// benchmark harness uses this).
    pub fn format_with(
        vol: Volume,
        cfg: WaflConfig,
        meter: Rc<Meter>,
        costs: CostModel,
    ) -> Result<Wafl, WaflError> {
        let nblocks = vol.capacity();
        let mut blkmap = BlkMap::new(nblocks);
        for &b in &FSINFO_BLOCKS {
            blkmap.set_active(b);
        }
        let mut fs = Wafl {
            vol,
            meter,
            costs,
            nv: NvramLog::new(cfg.nvram_bytes),
            cfg,
            cp_count: 0,
            tick: 0,
            next_ino: 3,
            next_gen: 1,
            next_qtree: 1,
            inodes: vec![None; 3],
            blkmap,
            snapshots: Vec::new(),
            qtrees: Vec::new(),
            inofile_tree: FileTree::default(),
            inofile_meta: TreeMeta::default(),
            blkmap_tree: FileTree::default(),
            blkmap_meta: TreeMeta::default(),
            snaptable_bno: 0,
            qtree_bno: 0,
            dirty_inodes: BTreeSet::new(),
            frozen: BlockSet::new(),
            alloc_cursor: 2,
            replaying: false,
            last_inofile_root: TreeRoot::default(),
        };
        // The block-map metadata file (inode 1). Its pointers live in
        // fsinfo; the inode exists so tools see the file.
        let mut blkmap_inode = InodeMem::new_file(Attrs::default(), 0, 0);
        blkmap_inode.size = fs.blkmap.nchunks() * BLOCK_SIZE as u64;
        fs.inodes[INO_BLKMAP as usize] = Some(blkmap_inode);
        // The root directory (inode 2).
        fs.inodes[INO_ROOT as usize] = Some(InodeMem::new_dir(
            Attrs {
                perm: 0o755,
                ..Attrs::default()
            },
            0,
            0,
        ));
        fs.dirty_inodes.insert(INO_BLKMAP);
        fs.dirty_inodes.insert(INO_ROOT);
        fs.blkmap.mark_all_dirty();
        fs.cp()?;
        Ok(fs)
    }

    /// Mounts an existing file system, replaying any NVRAM log.
    ///
    /// This is the crash-recovery path: the object model is rebuilt purely
    /// from the on-disk image (latest valid fsinfo wins), then the logged
    /// operations are re-applied and committed.
    pub fn mount(
        vol: Volume,
        nv: NvramLog<LoggedOp>,
        cfg: WaflConfig,
        meter: Rc<Meter>,
        costs: CostModel,
    ) -> Result<Wafl, WaflError> {
        let mut vol = vol;
        // Pick the valid fsinfo with the highest cp_count.
        let mut best: Option<FsInfo> = None;
        for &b in &FSINFO_BLOCKS {
            if let Ok(block) = vol.read_block(b) {
                if let Ok(fi) = FsInfo::from_block(&block) {
                    if best
                        .as_ref()
                        .map(|o| fi.cp_count > o.cp_count)
                        .unwrap_or(true)
                    {
                        best = Some(fi);
                    }
                }
            }
        }
        let fi = best.ok_or_else(|| WaflError::BadImage {
            reason: "no valid fsinfo copy".into(),
        })?;
        if fi.nblocks != vol.capacity() {
            return Err(WaflError::BadImage {
                reason: format!(
                    "volume is {} blocks but fsinfo says {}",
                    vol.capacity(),
                    fi.nblocks
                ),
            });
        }

        // Block map.
        let (bm_tree, bm_meta) = read_tree(&mut vol, &fi.blkmapfile)?;
        let mut words = Vec::with_capacity(fi.nblocks as usize);
        for chunk in 0..blocks_of(fi.blkmapfile.size) {
            let bno = bm_tree.get(chunk);
            let block = vol.read_block(bno as u64)?;
            words.extend(ondisk::ptrs_from_block(&block));
        }
        words.truncate(fi.nblocks as usize);
        if words.len() < fi.nblocks as usize {
            return Err(WaflError::BadImage {
                reason: "block map shorter than volume".into(),
            });
        }
        let blkmap = BlkMap::from_words(words);

        // Inode file.
        let (ino_tree, ino_meta) = read_tree(&mut vol, &fi.inofile)?;
        let n_inodes = (fi.inofile.size / INODE_SIZE as u64) as usize;
        let mut inodes: Vec<Option<InodeMem>> = vec![None; n_inodes.max(3)];
        let mut max_gen = 0;
        for blk_idx in 0..blocks_of(fi.inofile.size) {
            let bno = ino_tree.get(blk_idx);
            if bno == 0 {
                continue;
            }
            let block = vol.read_block(bno as u64)?;
            let bytes = block.materialize();
            for slot in 0..INODES_PER_BLOCK {
                let ino = blk_idx * INODES_PER_BLOCK + slot;
                if ino as usize >= n_inodes {
                    break;
                }
                let off = (slot as usize) * INODE_SIZE;
                let di = DiskInode::read_from(&bytes[off..off + INODE_SIZE]);
                let Some(ftype) = di.ftype else { continue };
                max_gen = max_gen.max(di.gen);
                let (tree, meta) = if ino == INO_BLKMAP as u64 {
                    (FileTree::default(), TreeMeta::default())
                } else {
                    read_tree(&mut vol, &di.root)?
                };
                let dir = if ftype == FileType::Dir {
                    let mut entries = BTreeMap::new();
                    for fbn in 0..blocks_of(di.root.size) {
                        let dbno = tree.get(fbn);
                        if dbno == 0 {
                            continue;
                        }
                        let dblock = vol.read_block(dbno as u64)?;
                        for (name, child) in ondisk::dir_from_block(&dblock) {
                            entries.insert(name, child);
                        }
                    }
                    Some(entries)
                } else {
                    None
                };
                inodes[ino as usize] = Some(InodeMem {
                    ftype,
                    attrs: di.attrs,
                    nlink: di.nlink,
                    qtree: di.qtree,
                    gen: di.gen,
                    size: di.root.size,
                    tree,
                    meta,
                    dir,
                    dir_dirty: false,
                    dirty_fbns: BTreeSet::new(),
                });
            }
        }

        let snapshots = if fi.snaptable_bno != 0 {
            ondisk::snaptable_from_block(&vol.read_block(fi.snaptable_bno as u64)?)
        } else {
            Vec::new()
        };
        let qtrees = if fi.qtree_bno != 0 {
            ondisk::qtrees_from_block(&vol.read_block(fi.qtree_bno as u64)?)
        } else {
            Vec::new()
        };
        let next_qtree = qtrees.iter().map(|q| q.id + 1).max().unwrap_or(1);

        let mut fs = Wafl {
            vol,
            meter,
            costs,
            nv,
            cfg,
            cp_count: fi.cp_count,
            tick: fi.tick,
            next_ino: fi.next_ino,
            next_gen: max_gen + 1,
            next_qtree,
            inodes,
            blkmap,
            snapshots,
            qtrees,
            inofile_tree: ino_tree,
            inofile_meta: ino_meta,
            blkmap_tree: bm_tree,
            blkmap_meta: bm_meta,
            snaptable_bno: fi.snaptable_bno,
            qtree_bno: fi.qtree_bno,
            dirty_inodes: BTreeSet::new(),
            frozen: BlockSet::new(),
            alloc_cursor: 2,
            replaying: false,
            last_inofile_root: fi.inofile.clone(),
        };
        // Clear any dirt produced while rebuilding the map.
        fs.blkmap.take_dirty();

        // Replay the NVRAM log (the crash-recovery step).
        let ops = fs.nv.drain_for_replay();
        if !ops.is_empty() {
            obs::counter("crash.replays").inc();
            obs::counter("crash.replayed_ops").add(ops.len() as u64);
            fs.replaying = true;
            for op in ops {
                // Replay is best-effort per entry: an op that already
                // reached disk via the last CP (log-then-apply ordering
                // admits at most the final op) fails benignly.
                let _ = fs.apply_logged(op);
            }
            fs.replaying = false;
            fs.cp()?;
        }
        Ok(fs)
    }

    /// Simulates a crash: the in-memory state evaporates; the volume and
    /// the (non-volatile) log survive.
    pub fn crash(self) -> (Volume, NvramLog<LoggedOp>) {
        (self.vol, self.nv)
    }

    /// Re-applies a logged operation (crash replay).
    pub(crate) fn apply_logged(&mut self, op: LoggedOp) -> Result<(), WaflError> {
        match op {
            LoggedOp::Create {
                parent,
                name,
                ftype,
                attrs,
            } => self.create(parent, &name, ftype, attrs).map(|_| ()),
            LoggedOp::Remove { parent, name } => self.remove(parent, &name),
            LoggedOp::Rename {
                from_parent,
                from_name,
                to_parent,
                to_name,
            } => self.rename(from_parent, &from_name, to_parent, &to_name),
            LoggedOp::Write { ino, fbn, block } => self.write_fbn(ino, fbn, block),
            LoggedOp::SetSize { ino, size } => self.set_size(ino, size),
            LoggedOp::SetAttrs { ino, attrs } => self.set_attrs(ino, attrs),
            LoggedOp::CreateQtree { name, limit_bytes } => {
                self.create_qtree(&name, limit_bytes).map(|_| ())
            }
            LoggedOp::Symlink {
                parent,
                name,
                target,
                attrs,
            } => self
                .create_symlink(parent, &name, &target, attrs)
                .map(|_| ()),
            LoggedOp::Link { parent, name, ino } => self.link(parent, &name, ino),
        }
    }

    /// Records an operation in NVRAM, taking a consistency point first if
    /// the log is out of space.
    pub(crate) fn log_op(&mut self, op: LoggedOp) -> Result<(), WaflError> {
        if self.replaying {
            return Ok(());
        }
        self.meter.charge_cpu(self.costs.nvram_log_op);
        match self.nv.append(op) {
            Ok(()) => Ok(()),
            Err(nvram::NvramError::Full) => {
                // Shouldn't normally happen thanks to the watermark, but a
                // burst of large ops can fill the log between checks.
                Err(WaflError::Invalid {
                    reason: "nvram full; consistency point required".into(),
                })
            }
            Err(nvram::NvramError::Disabled) => Ok(()),
            Err(e) => Err(WaflError::Invalid {
                reason: format!("nvram log append failed: {e}"),
            }),
        }
    }

    /// Runs a consistency point if the NVRAM watermark says so.
    pub(crate) fn maybe_auto_cp(&mut self) -> Result<(), WaflError> {
        if !self.replaying && self.cfg.auto_cp_on_watermark && self.nv.is_half_full() {
            self.cp()?;
        }
        Ok(())
    }

    /// Advances the logical clock and returns the new tick.
    pub(crate) fn bump_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Allocates a free block (write-anywhere: next free block at or after
    /// the moving cursor).
    pub(crate) fn alloc_block(&mut self) -> Result<u64, WaflError> {
        let n = self.blkmap.nblocks();
        let cursor = if self.alloc_cursor >= n {
            2
        } else {
            self.alloc_cursor
        };
        // Scan [cursor, n) then wrap to [2, cursor), a word at a time.
        let found = self
            .blkmap
            .find_free(cursor, n, &self.frozen)
            .or_else(|| self.blkmap.find_free(2, cursor, &self.frozen));
        match found {
            Some(bno) => {
                self.alloc_cursor = bno + 1;
                self.blkmap.set_active(bno);
                Ok(bno)
            }
            None => Err(WaflError::NoSpace),
        }
    }

    /// Releases a block from the active file system. It stays unavailable
    /// for reuse until the next CP completes (and forever if a snapshot
    /// still holds it).
    pub(crate) fn free_block(&mut self, bno: u64) {
        self.blkmap.clear_active(bno);
        self.frozen.insert(bno);
    }

    /// Free blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.blkmap.count_free()
    }

    /// Blocks used by the active file system.
    pub fn active_blocks(&self) -> u64 {
        self.blkmap.count_plane(0)
    }

    /// The shared CPU meter.
    pub fn meter(&self) -> Rc<Meter> {
        Rc::clone(&self.meter)
    }

    /// The CPU cost model in force.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Direct access to the volume (the RAID bypass used by image
    /// dump/restore and by fault-injection tests).
    pub fn volume_mut(&mut self) -> &mut Volume {
        &mut self.vol
    }

    /// Read-only view of the volume geometry and counters.
    pub fn volume(&self) -> &Volume {
        &self.vol
    }

    /// The in-memory block map (current plane state).
    pub fn blkmap(&self) -> &BlkMap {
        &self.blkmap
    }

    /// Completed consistency points.
    pub fn cp_count(&self) -> u64 {
        self.cp_count
    }

    /// The logical clock.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// NVRAM log introspection (tests and the restore path use this).
    pub fn nvram(&self) -> &NvramLog<LoggedOp> {
        &self.nv
    }

    /// Mutable NVRAM access (logical restore can bypass logging; paper
    /// footnote 2 notes this is legitimate because an interrupted restore
    /// simply restarts).
    pub fn nvram_mut(&mut self) -> &mut NvramLog<LoggedOp> {
        &mut self.nv
    }

    /// Takes a consistency point: serializes all dirty state and commits
    /// it with an fsinfo write.
    pub fn cp(&mut self) -> Result<(), WaflError> {
        self.cp_inner(true)
    }

    /// A consistency point that stops just before the fsinfo write —
    /// *only* for crash-during-CP tests: everything is serialized to fresh
    /// blocks but the commit record never lands.
    pub fn cp_without_fsinfo(&mut self) -> Result<(), WaflError> {
        self.cp_inner(false)
    }

    /// Asks the armed [`simkit::crash::CrashPlan`] (if any) whether the
    /// power dies *now*, at `point`. A fresh trip counts once on the
    /// `crash.trips` obs counter; a machine that already died keeps
    /// failing without recounting. Inert when nothing is armed.
    fn power_check(point: CrashPoint) -> Result<(), WaflError> {
        let was_alive = simkit::crash::tripped().is_none();
        if simkit::crash::fire(point) {
            if was_alive {
                obs::counter("crash.trips").inc();
            }
            return Err(WaflError::PowerLoss { point });
        }
        Ok(())
    }

    fn cp_inner(&mut self, write_fsinfo: bool) -> Result<(), WaflError> {
        obs::counter("wafl.consistency_points").inc();
        self.meter.charge_cpu(self.costs.cp_fixed);
        let mut blocks_written = 0u64;

        // 1. Serialize dirty directories into fresh blocks.
        let dirty: Vec<Ino> = self.dirty_inodes.iter().copied().collect();
        for &ino in &dirty {
            if self
                .inodes
                .get(ino as usize)
                .and_then(|s| s.as_ref())
                .map(|i| i.dir_dirty)
                .unwrap_or(false)
            {
                blocks_written += self.serialize_dir(ino)?;
            }
        }

        // Crash depth 1: some new directory blocks are on disk, nothing
        // points at them yet.
        Self::power_check(CrashPoint::CpCommit)?;

        // 2. Rewrite dirty L1 indirect blocks of every dirty inode.
        for &ino in &dirty {
            if self
                .inodes
                .get(ino as usize)
                .and_then(|s| s.as_ref())
                .is_some()
            {
                blocks_written += self.rewrite_file_indirects(ino)?;
            }
        }

        // 3. Rewrite the inode-file blocks containing dirty inodes.
        blocks_written += self.rewrite_inofile(&dirty)?;

        // Crash depth 2: the new inode file exists but fsinfo still
        // points at the previous one.
        Self::power_check(CrashPoint::CpCommit)?;

        // 4. Snapshot and qtree tables.
        {
            let entries = self.snapshots.clone();
            let block = ondisk::snaptable_to_block(&entries);
            let new = self.alloc_block()?;
            self.vol.write_block(new, block)?;
            if self.snaptable_bno != 0 {
                self.free_block(self.snaptable_bno as u64);
            }
            self.snaptable_bno = new as u32;
            blocks_written += 1;
        }
        {
            let entries = self.qtrees.clone();
            let block = ondisk::qtrees_to_block(&entries);
            let new = self.alloc_block()?;
            self.vol.write_block(new, block)?;
            if self.qtree_bno != 0 {
                self.free_block(self.qtree_bno as u64);
            }
            self.qtree_bno = new as u32;
            blocks_written += 1;
        }

        // 5. Block map: fixed-point home allocation, then serialization.
        let mut chunk_homes: BTreeMap<u64, u32> = BTreeMap::new();
        let mut tree_homes_done = false;
        loop {
            let newly = self.blkmap.take_dirty();
            let fresh: Vec<u64> = newly
                .into_iter()
                .filter(|c| !chunk_homes.contains_key(c))
                .collect();
            if !fresh.is_empty() {
                for chunk in fresh {
                    let old = self.blkmap_tree.get(chunk);
                    let new = self.alloc_block()?;
                    if old != 0 {
                        self.free_block(old as u64);
                    }
                    chunk_homes.insert(chunk, new as u32);
                }
                continue;
            }
            if !tree_homes_done {
                // Fresh homes for the block-map file's own indirect blocks.
                let nslots = self.blkmap.nchunks();
                let need = l1_count(nslots);
                let mut new_l1 = Vec::with_capacity(need);
                for _ in 0..need {
                    new_l1.push(self.alloc_block()? as u32);
                }
                let new_dind = if need > 1 {
                    self.alloc_block()? as u32
                } else {
                    0
                };
                let old_l1 = std::mem::take(&mut self.blkmap_meta.l1_homes);
                for old in old_l1 {
                    if old != 0 {
                        self.free_block(old as u64);
                    }
                }
                if self.blkmap_meta.dind_home != 0 {
                    self.free_block(self.blkmap_meta.dind_home as u64);
                }
                self.blkmap_meta = TreeMeta {
                    l1_homes: new_l1,
                    dind_home: new_dind,
                };
                tree_homes_done = true;
                continue;
            }
            break;
        }
        // All mutation done: serialize the final words and pointers.
        for (&chunk, &home) in &chunk_homes {
            self.blkmap_tree.set(chunk, home);
        }
        for (&chunk, &home) in &chunk_homes {
            let words = self.blkmap.chunk_words(chunk);
            self.vol
                .write_block(home as u64, ondisk::ptrs_to_block(&words))?;
            blocks_written += 1;
        }
        blocks_written +=
            self.write_tree_indirects(&self.blkmap_tree.slots.clone(), &self.blkmap_meta.clone())?;

        self.meter
            .charge_cpu(self.costs.cp_per_block * blocks_written as f64);

        if !write_fsinfo {
            return Ok(());
        }

        // Crash depth 3: the entire new tree is on disk — every block of
        // it unreachable until the fsinfo write below.
        Self::power_check(CrashPoint::CpCommit)?;

        // 6. Commit: the only in-place writes in the system.
        let inofile_root = self.tree_root_of(&self.inofile_tree, &self.inofile_meta, {
            self.next_ino as u64 * INODE_SIZE as u64
        });
        let blkmap_root = self.tree_root_of(&self.blkmap_tree, &self.blkmap_meta, {
            self.blkmap.nchunks() * BLOCK_SIZE as u64
        });
        self.cp_count += 1;
        let fi = FsInfo {
            cp_count: self.cp_count,
            nblocks: self.blkmap.nblocks(),
            next_ino: self.next_ino,
            snaptable_bno: self.snaptable_bno,
            qtree_bno: self.qtree_bno,
            tick: self.tick,
            inofile: inofile_root.clone(),
            blkmapfile: blkmap_root,
        };
        let block = fi.to_block();
        for (i, &b) in FSINFO_BLOCKS.iter().enumerate() {
            if i > 0 {
                // Crash depth 4: torn commit — one fsinfo copy carries the
                // new cp_count, the other the old. Mount takes the valid
                // copy with the highest cp_count, so this lands post-CP.
                Self::power_check(CrashPoint::CpCommit)?;
            }
            self.vol.write_block(b, block.clone())?;
        }
        self.vol.sync()?;
        self.last_inofile_root = inofile_root;

        // 7. The old image is gone; frozen blocks become reusable and the
        // log is committed. A crash plan tripping inside `commit` models
        // power loss after the CP landed but before the NVRAM flush: the
        // log keeps its (already-applied) entries for reboot to replay.
        self.frozen.clear();
        let was_alive = simkit::crash::tripped().is_none();
        if !self.nv.commit() {
            if was_alive {
                obs::counter("crash.trips").inc();
            }
            return Err(WaflError::PowerLoss {
                point: CrashPoint::NvramFlush,
            });
        }
        for &ino in &dirty {
            if let Some(Some(inode)) = self.inodes.get_mut(ino as usize) {
                inode.dir_dirty = false;
                inode.dirty_fbns.clear();
            }
        }
        self.dirty_inodes.clear();
        Ok(())
    }

    /// Builds a [`TreeRoot`] from an in-memory tree + meta.
    fn tree_root_of(&self, tree: &FileTree, meta: &TreeMeta, size: u64) -> TreeRoot {
        let mut direct = [0u32; NDIRECT];
        for (i, d) in direct.iter_mut().enumerate() {
            *d = tree.get(i as u64);
        }
        TreeRoot {
            size,
            direct,
            indirect: meta.l1_homes.first().copied().unwrap_or(0),
            dindirect: meta.dind_home,
        }
    }

    /// Packs a dirty directory's entries into fresh blocks.
    fn serialize_dir(&mut self, ino: Ino) -> Result<u64, WaflError> {
        let (blocks, old_slots) = {
            let inode = self.inode(ino)?;
            let dir = inode.dir_ref()?;
            let blocks = ondisk::dir_to_blocks(dir.iter().map(|(n, i)| (n.as_str(), *i)));
            (blocks, inode.tree.slots.clone())
        };
        let mut written = 0;
        let mut new_slots = Vec::with_capacity(blocks.len());
        for block in blocks {
            let bno = self.alloc_block()?;
            self.vol.write_block(bno, block)?;
            new_slots.push(bno as u32);
            written += 1;
        }
        for old in old_slots {
            if old != 0 {
                self.free_block(old as u64);
            }
        }
        let inode = self.inode_mut(ino)?;
        inode.size = new_slots.len() as u64 * BLOCK_SIZE as u64;
        let nslots = new_slots.len() as u64;
        inode.tree.slots = {
            let mut v = vec![0u32; nslots as usize];
            v.copy_from_slice(&new_slots);
            v
        };
        // Every mapping changed.
        inode.dirty_fbns = (0..nslots).collect();
        Ok(written)
    }

    /// Rewrites the L1 (and if needed L2) indirect blocks of a file whose
    /// mappings changed.
    fn rewrite_file_indirects(&mut self, ino: Ino) -> Result<u64, WaflError> {
        let (dirty_l1s, nslots, slots, mut meta) = {
            let inode = self.inode(ino)?;
            let nslots = inode.tree.nslots();
            let mut dirty: BTreeSet<usize> = BTreeSet::new();
            for &fbn in &inode.dirty_fbns {
                if let Some(i) = l1_index(fbn) {
                    dirty.insert(i);
                }
            }
            (dirty, nslots, inode.tree.slots.clone(), inode.meta.clone())
        };
        let need = l1_count(nslots);
        // Shrink: free homes beyond the needed count.
        let mut dind_dirty = false;
        while meta.l1_homes.len() > need {
            let Some(old) = meta.l1_homes.pop() else {
                break;
            };
            if old != 0 {
                self.free_block(old as u64);
            }
            dind_dirty = true;
        }
        while meta.l1_homes.len() < need {
            meta.l1_homes.push(0);
            dind_dirty = true;
        }
        let mut written = 0;
        for i in dirty_l1s {
            if i >= need {
                continue; // truncated away
            }
            let (start, end) = l1_span(i);
            let mut ptrs = vec![0u32; PTRS_PER_BLOCK as usize];
            for fbn in start..end.min(nslots) {
                ptrs[(fbn - start) as usize] = slots[fbn as usize];
            }
            let new = self.alloc_block()?;
            self.vol.write_block(new, ondisk::ptrs_to_block(&ptrs))?;
            let old = meta.l1_homes[i];
            if old != 0 {
                self.free_block(old as u64);
            }
            meta.l1_homes[i] = new as u32;
            written += 1;
            if i >= 1 {
                dind_dirty = true;
            }
        }
        // The double-indirect block lists homes of L1s 1...
        if need > 1 {
            if dind_dirty || meta.dind_home == 0 {
                let ptrs: Vec<u32> = meta.l1_homes[1..].to_vec();
                let new = self.alloc_block()?;
                self.vol.write_block(new, ondisk::ptrs_to_block(&ptrs))?;
                if meta.dind_home != 0 {
                    self.free_block(meta.dind_home as u64);
                }
                meta.dind_home = new as u32;
                written += 1;
            }
        } else if meta.dind_home != 0 {
            self.free_block(meta.dind_home as u64);
            meta.dind_home = 0;
        }
        self.inode_mut(ino)?.meta = meta;
        Ok(written)
    }

    /// Rewrites inode-file blocks containing dirty inodes, then all of the
    /// inode file's indirect blocks.
    fn rewrite_inofile(&mut self, dirty: &[Ino]) -> Result<u64, WaflError> {
        let mut written = 0;
        let needed_blocks = (self.next_ino as u64).div_ceil(INODES_PER_BLOCK);
        let mut dirty_blocks: BTreeSet<u64> =
            dirty.iter().map(|&i| i as u64 / INODES_PER_BLOCK).collect();
        // Newly needed inofile blocks (growth) must be written too.
        for b in self.inofile_tree.nslots()..needed_blocks {
            dirty_blocks.insert(b);
        }
        for blk_idx in dirty_blocks {
            let mut buf = vec![0u8; BLOCK_SIZE];
            for slot in 0..INODES_PER_BLOCK {
                let ino = blk_idx * INODES_PER_BLOCK + slot;
                let off = slot as usize * INODE_SIZE;
                let di = match self.inodes.get(ino as usize).and_then(|s| s.as_ref()) {
                    Some(inode) => inode.to_disk(),
                    None => DiskInode::free(),
                };
                di.write_to(&mut buf[off..off + INODE_SIZE]);
            }
            let new = self.alloc_block()?;
            self.vol.write_block(new, Block::from_bytes(&buf))?;
            let old = self.inofile_tree.get(blk_idx);
            if old != 0 {
                self.free_block(old as u64);
            }
            self.inofile_tree.set(blk_idx, new as u32);
            written += 1;
        }
        // Fresh homes for all inode-file indirect blocks (cheap: the inode
        // file is small relative to data).
        let need = l1_count(self.inofile_tree.nslots());
        let mut new_meta = TreeMeta {
            l1_homes: Vec::with_capacity(need),
            dind_home: 0,
        };
        for _ in 0..need {
            new_meta.l1_homes.push(self.alloc_block()? as u32);
        }
        if need > 1 {
            new_meta.dind_home = self.alloc_block()? as u32;
        }
        let old_l1 = std::mem::take(&mut self.inofile_meta.l1_homes);
        for old in old_l1 {
            if old != 0 {
                self.free_block(old as u64);
            }
        }
        if self.inofile_meta.dind_home != 0 {
            self.free_block(self.inofile_meta.dind_home as u64);
        }
        self.inofile_meta = new_meta;
        written += self
            .write_tree_indirects(&self.inofile_tree.slots.clone(), &self.inofile_meta.clone())?;
        Ok(written)
    }

    /// Writes the indirect blocks described by `meta` for `slots`.
    fn write_tree_indirects(&mut self, slots: &[u32], meta: &TreeMeta) -> Result<u64, WaflError> {
        let nslots = slots.len() as u64;
        let mut written = 0;
        for (i, &home) in meta.l1_homes.iter().enumerate() {
            if home == 0 {
                continue;
            }
            let (start, end) = l1_span(i);
            let mut ptrs = vec![0u32; PTRS_PER_BLOCK as usize];
            for fbn in start..end.min(nslots) {
                ptrs[(fbn - start) as usize] = slots[fbn as usize];
            }
            self.vol
                .write_block(home as u64, ondisk::ptrs_to_block(&ptrs))?;
            written += 1;
        }
        if meta.dind_home != 0 {
            let ptrs: Vec<u32> = meta
                .l1_homes
                .get(1..)
                .map(|s| s.to_vec())
                .unwrap_or_default();
            self.vol
                .write_block(meta.dind_home as u64, ondisk::ptrs_to_block(&ptrs))?;
            written += 1;
        }
        Ok(written)
    }
}

/// Parses a file tree from its on-disk root, reading indirect blocks
/// through the volume (mount and snapshot-view path).
pub(crate) fn read_tree(
    vol: &mut Volume,
    root: &TreeRoot,
) -> Result<(FileTree, TreeMeta), WaflError> {
    let nslots = blocks_of(root.size);
    let mut slots = vec![0u32; nslots as usize];
    for (i, slot) in slots
        .iter_mut()
        .enumerate()
        .take(NDIRECT.min(nslots as usize))
    {
        *slot = root.direct[i];
    }
    let mut meta = TreeMeta::default();
    if root.indirect != 0 {
        let ptrs = ondisk::ptrs_from_block(&vol.read_block(root.indirect as u64)?);
        let (start, end) = l1_span(0);
        for fbn in start..end.min(nslots) {
            slots[fbn as usize] = ptrs[(fbn - start) as usize];
        }
        meta.l1_homes.push(root.indirect);
    } else if nslots > NDIRECT as u64 {
        meta.l1_homes.push(0);
    }
    if root.dindirect != 0 {
        meta.dind_home = root.dindirect;
        let children = ondisk::ptrs_from_block(&vol.read_block(root.dindirect as u64)?);
        let n_children = l1_count(nslots).saturating_sub(1);
        for (child_idx, &child) in children.iter().enumerate().take(n_children) {
            meta.l1_homes.push(child);
            if child == 0 {
                continue;
            }
            let ptrs = ondisk::ptrs_from_block(&vol.read_block(child as u64)?);
            let (start, end) = l1_span(child_idx + 1);
            for fbn in start..end.min(nslots) {
                slots[fbn as usize] = ptrs[(fbn - start) as usize];
            }
        }
    }
    Ok((FileTree { slots }, meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::DiskPerf;
    use raid::VolumeGeometry;

    pub(crate) fn small_volume() -> Volume {
        Volume::new(VolumeGeometry::uniform(1, 4, 2048, DiskPerf::ideal()))
    }

    #[test]
    fn geometry_helpers_agree() {
        assert_eq!(l1_index(0), None);
        assert_eq!(l1_index(15), None);
        assert_eq!(l1_index(16), Some(0));
        assert_eq!(l1_index(1039), Some(0));
        assert_eq!(l1_index(1040), Some(1));
        assert_eq!(l1_index(1040 + 1024), Some(2));
        for i in 0..5 {
            let (start, end) = l1_span(i);
            assert_eq!(l1_index(start), Some(i));
            assert_eq!(l1_index(end - 1), Some(i));
            assert_eq!(end - start, PTRS_PER_BLOCK);
        }
        assert_eq!(l1_count(0), 0);
        assert_eq!(l1_count(16), 0);
        assert_eq!(l1_count(17), 1);
        assert_eq!(l1_count(1040), 1);
        assert_eq!(l1_count(1041), 2);
    }

    #[test]
    fn format_then_mount_empty_fs() {
        let fs = Wafl::format(small_volume(), WaflConfig::default()).unwrap();
        assert!(fs.cp_count() >= 1);
        let (vol, nv) = fs.crash();
        let fs2 = Wafl::mount(
            vol,
            nv,
            WaflConfig::default(),
            Meter::new_shared(),
            CostModel::zero(),
        )
        .unwrap();
        // Root exists and is an empty dir.
        let root = fs2.inodes[INO_ROOT as usize].as_ref().unwrap();
        assert_eq!(root.ftype, FileType::Dir);
        assert!(root.dir.as_ref().unwrap().is_empty());
    }

    #[test]
    fn file_tree_set_get_grows() {
        let mut t = FileTree::default();
        assert_eq!(t.get(10), 0);
        t.set(10, 99);
        assert_eq!(t.get(10), 99);
        assert_eq!(t.get(5), 0);
        assert_eq!(t.nslots(), 11);
    }

    #[test]
    fn blocks_of_rounds_up() {
        assert_eq!(blocks_of(0), 0);
        assert_eq!(blocks_of(1), 1);
        assert_eq!(blocks_of(4096), 1);
        assert_eq!(blocks_of(4097), 2);
    }

    #[test]
    fn logged_op_sizes_reflect_payload() {
        let w = LoggedOp::Write {
            ino: 5,
            fbn: 0,
            block: Block::Zero,
        };
        assert!(w.nv_bytes() > BLOCK_SIZE as u64);
        let c = LoggedOp::Create {
            parent: 2,
            name: "hello".into(),
            ftype: FileType::File,
            attrs: Attrs::default(),
        };
        assert_eq!(c.nv_bytes(), 69);
    }

    #[test]
    fn allocator_skips_frozen_blocks() {
        let mut fs = Wafl::format(small_volume(), WaflConfig::default()).unwrap();
        let a = fs.alloc_block().unwrap();
        fs.free_block(a);
        // Even though the word is zero again, the block cannot be reused
        // until a CP commits the free.
        fs.alloc_cursor = a; // force the cursor back
        let b = fs.alloc_block().unwrap();
        assert_ne!(a, b);
        fs.cp().unwrap();
        fs.alloc_cursor = a;
        let c = fs.alloc_block().unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn fsinfo_written_redundantly() {
        let mut fs = Wafl::format(small_volume(), WaflConfig::default()).unwrap();
        fs.cp().unwrap();
        let b0 = fs.vol.read_block(0).unwrap();
        let b1 = fs.vol.read_block(1).unwrap();
        assert!(b0.same_content(&b1));
        let fi = FsInfo::from_block(&b0).unwrap();
        assert_eq!(fi.cp_count, fs.cp_count());
    }
}
