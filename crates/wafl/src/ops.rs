//! File operations: the interface NFS/CIFS requests and the backup engines
//! use.
//!
//! Every mutating operation is logged to NVRAM *before* it mutates the
//! object model (so crash replay applies each op at most once), bumps the
//! logical clock, charges its modelled CPU cost, and may trigger an
//! automatic consistency point at the NVRAM half-full watermark.

use blockdev::Block;

use crate::error::WaflError;
use crate::fs::blocks_of;
use crate::fs::InodeMem;
use crate::fs::LoggedOp;
use crate::fs::Wafl;
use crate::ondisk::QtreeEntry;
use crate::ondisk::BLOCK_SIZE;
use crate::ondisk::MAX_QTREE_NAME;
use crate::types::Attrs;
use crate::types::FileType;
use crate::types::Ino;
use crate::types::INO_ROOT;
use crate::types::MAX_ACL;
use crate::types::MAX_DOS_NAME;
use crate::types::MAX_FILE_BLOCKS;
use crate::types::MAX_NAME;

/// Everything `stat` reports about an inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stat {
    /// The inode number.
    pub ino: Ino,
    /// File kind.
    pub ftype: FileType,
    /// Size in bytes.
    pub size: u64,
    /// Allocated blocks (holes excluded).
    pub blocks: u64,
    /// Attributes including multiprotocol extras.
    pub attrs: Attrs,
    /// Link count.
    pub nlink: u16,
    /// Owning qtree (0 = none).
    pub qtree: u16,
    /// Generation number.
    pub gen: u32,
}

impl Wafl {
    fn validate_name(name: &str) -> Result<(), WaflError> {
        if name.is_empty()
            || name.len() > MAX_NAME
            || name.contains('/')
            || name == "."
            || name == ".."
        {
            return Err(WaflError::Invalid {
                reason: format!("bad name {name:?}"),
            });
        }
        Ok(())
    }

    fn validate_attrs(attrs: &Attrs) -> Result<(), WaflError> {
        if let Some(n) = &attrs.dos_name {
            if n.len() > MAX_DOS_NAME {
                return Err(WaflError::Invalid {
                    reason: "dos name too long".into(),
                });
            }
        }
        if let Some(a) = &attrs.nt_acl {
            if a.len() > MAX_ACL {
                return Err(WaflError::Invalid {
                    reason: "acl too long".into(),
                });
            }
        }
        Ok(())
    }

    pub(crate) fn inode(&self, ino: Ino) -> Result<&InodeMem, WaflError> {
        self.inodes
            .get(ino as usize)
            .and_then(|s| s.as_ref())
            .ok_or_else(|| WaflError::NotFound {
                what: format!("inode {ino}"),
            })
    }

    pub(crate) fn inode_mut(&mut self, ino: Ino) -> Result<&mut InodeMem, WaflError> {
        self.inodes
            .get_mut(ino as usize)
            .and_then(|s| s.as_mut())
            .ok_or_else(|| WaflError::NotFound {
                what: format!("inode {ino}"),
            })
    }

    /// Whether an inode number is currently allocated.
    pub fn inode_exists(&self, ino: Ino) -> bool {
        self.inodes
            .get(ino as usize)
            .map(|s| s.is_some())
            .unwrap_or(false)
    }

    /// One past the largest inode number ever allocated.
    pub fn max_ino(&self) -> Ino {
        self.next_ino
    }

    /// Creates a file or directory under `parent`.
    pub fn create(
        &mut self,
        parent: Ino,
        name: &str,
        ftype: FileType,
        attrs: Attrs,
    ) -> Result<Ino, WaflError> {
        Self::validate_name(name)?;
        Self::validate_attrs(&attrs)?;
        let parent_qtree = {
            let p = self.inode(parent)?;
            if p.ftype != FileType::Dir {
                return Err(WaflError::WrongType { ino: parent });
            }
            if p.dir_ref()?.contains_key(name) {
                return Err(WaflError::Exists { name: name.into() });
            }
            p.qtree
        };
        self.log_op(LoggedOp::Create {
            parent,
            name: name.into(),
            ftype,
            attrs: attrs.clone(),
        })?;
        let tick = self.bump_tick();
        self.meter.charge_cpu(self.costs.inode_op);

        let ino = self.next_ino;
        self.next_ino += 1;
        let gen = self.next_gen;
        self.next_gen += 1;
        let mut attrs = attrs;
        attrs.ctime = tick;
        attrs.mtime = tick;
        attrs.atime = tick;
        let inode = match ftype {
            FileType::File | FileType::Symlink => {
                InodeMem::new_leaf(ftype, attrs, parent_qtree, gen)
            }
            FileType::Dir => InodeMem::new_dir(attrs, parent_qtree, gen),
        };
        if self.inodes.len() <= ino as usize {
            self.inodes.resize(ino as usize + 1, None);
        }
        self.inodes[ino as usize] = Some(inode);
        {
            let p = self.inode_mut(parent)?;
            p.dir_mut()?.insert(name.into(), ino);
            p.dir_dirty = true;
            p.attrs.mtime = tick;
            if ftype == FileType::Dir {
                p.nlink += 1;
            }
        }
        self.dirty_inodes.insert(ino);
        self.dirty_inodes.insert(parent);
        if parent_qtree != 0 {
            if let Some(q) = self.qtrees.iter_mut().find(|q| q.id == parent_qtree) {
                q.files_used += 1;
            }
        }
        self.maybe_auto_cp()?;
        Ok(ino)
    }

    /// Removes a name. The inode (and its blocks) go only when its last
    /// link goes; directories must be empty.
    pub fn remove(&mut self, parent: Ino, name: &str) -> Result<(), WaflError> {
        let ino = self.lookup(parent, name)?;
        let (ftype, qtree, freed_blocks, nlink) = {
            let inode = self.inode(ino)?;
            if inode.ftype == FileType::Dir && !inode.dir_ref()?.is_empty() {
                return Err(WaflError::NotEmpty { ino });
            }
            let freed = inode.tree.slots.iter().filter(|&&b| b != 0).count() as u64;
            (inode.ftype, inode.qtree, freed, inode.nlink)
        };
        self.log_op(LoggedOp::Remove {
            parent,
            name: name.into(),
        })?;
        let tick = self.bump_tick();
        self.meter.charge_cpu(self.costs.inode_op);

        if ftype != FileType::Dir && nlink > 1 {
            // Another name still references the inode: drop this entry only.
            self.inode_mut(ino)?.nlink = nlink - 1;
            {
                let p = self.inode_mut(parent)?;
                p.dir_mut()?.remove(name);
                p.dir_dirty = true;
                p.attrs.mtime = tick;
            }
            self.dirty_inodes.insert(ino);
            self.dirty_inodes.insert(parent);
            self.maybe_auto_cp()?;
            return Ok(());
        }

        let slots = self.inode(ino)?.tree.slots.clone();
        for bno in slots {
            if bno != 0 {
                self.free_block(bno as u64);
            }
        }
        // Indirect blocks of the removed file go too.
        let meta = self.inode(ino)?.meta.clone();
        for home in meta.l1_homes {
            if home != 0 {
                self.free_block(home as u64);
            }
        }
        if meta.dind_home != 0 {
            self.free_block(meta.dind_home as u64);
        }
        self.inodes[ino as usize] = None;
        self.dirty_inodes.insert(ino);
        {
            let p = self.inode_mut(parent)?;
            p.dir_mut()?.remove(name);
            p.dir_dirty = true;
            p.attrs.mtime = tick;
            if ftype == FileType::Dir {
                p.nlink -= 1;
            }
        }
        self.dirty_inodes.insert(parent);
        if qtree != 0 {
            if let Some(q) = self.qtrees.iter_mut().find(|q| q.id == qtree) {
                q.files_used = q.files_used.saturating_sub(1);
                q.bytes_used = q
                    .bytes_used
                    .saturating_sub(freed_blocks * BLOCK_SIZE as u64);
            }
        }
        self.maybe_auto_cp()?;
        Ok(())
    }

    /// Renames `from_parent/from_name` to `to_parent/to_name`.
    ///
    /// The destination must not exist (restores never replace, and keeping
    /// the semantics strict makes incremental-dump move detection
    /// unambiguous).
    pub fn rename(
        &mut self,
        from_parent: Ino,
        from_name: &str,
        to_parent: Ino,
        to_name: &str,
    ) -> Result<(), WaflError> {
        Self::validate_name(to_name)?;
        let ino = self.lookup(from_parent, from_name)?;
        {
            let t = self.inode(to_parent)?;
            if t.ftype != FileType::Dir {
                return Err(WaflError::WrongType { ino: to_parent });
            }
            if t.dir_ref()?.contains_key(to_name) {
                return Err(WaflError::Exists {
                    name: to_name.into(),
                });
            }
        }
        // Moving a directory into itself or its own subtree would detach a
        // cycle from the tree (classic EINVAL).
        if self.inode(ino)?.ftype == FileType::Dir {
            let mut probe = to_parent;
            loop {
                if probe == ino {
                    return Err(WaflError::Invalid {
                        reason: "cannot move a directory under itself".into(),
                    });
                }
                // Walk up via a reverse scan: find probe's parent.
                let parent = self
                    .inodes
                    .iter()
                    .enumerate()
                    .filter_map(|(i, slot)| slot.as_ref().map(|inode| (i as Ino, inode)))
                    .find(|(_, inode)| {
                        inode.ftype == FileType::Dir
                            && inode
                                .dir
                                .as_ref()
                                .map(|d| d.values().any(|&c| c == probe))
                                .unwrap_or(false)
                    })
                    .map(|(i, _)| i);
                match parent {
                    Some(p) if p != probe => probe = p,
                    _ => break,
                }
            }
        }
        self.log_op(LoggedOp::Rename {
            from_parent,
            from_name: from_name.into(),
            to_parent,
            to_name: to_name.into(),
        })?;
        let tick = self.bump_tick();
        self.meter.charge_cpu(self.costs.inode_op);

        let ftype = self.inode(ino)?.ftype;
        {
            let f = self.inode_mut(from_parent)?;
            f.dir_mut()?.remove(from_name);
            f.dir_dirty = true;
            f.attrs.mtime = tick;
            if ftype == FileType::Dir {
                f.nlink -= 1;
            }
        }
        {
            let t = self.inode_mut(to_parent)?;
            t.dir_mut()?.insert(to_name.into(), ino);
            t.dir_dirty = true;
            t.attrs.mtime = tick;
            if ftype == FileType::Dir {
                t.nlink += 1;
            }
        }
        {
            let i = self.inode_mut(ino)?;
            i.attrs.ctime = tick;
        }
        self.dirty_inodes.insert(from_parent);
        self.dirty_inodes.insert(to_parent);
        self.dirty_inodes.insert(ino);
        self.maybe_auto_cp()?;
        Ok(())
    }

    /// Writes one 4 KiB block of a file (write-anywhere: always to a fresh
    /// location).
    pub fn write_fbn(&mut self, ino: Ino, fbn: u64, block: Block) -> Result<(), WaflError> {
        if fbn >= MAX_FILE_BLOCKS {
            return Err(WaflError::Invalid {
                reason: format!("fbn {fbn} beyond maximum file size"),
            });
        }
        let (qtree, is_new_block) = {
            let inode = self.inode(ino)?;
            if inode.ftype == FileType::Dir {
                return Err(WaflError::WrongType { ino });
            }
            (inode.qtree, inode.tree.get(fbn) == 0)
        };
        if is_new_block && qtree != 0 {
            if let Some(q) = self.qtrees.iter().find(|q| q.id == qtree) {
                if q.limit_bytes != 0 && q.bytes_used + BLOCK_SIZE as u64 > q.limit_bytes {
                    return Err(WaflError::QuotaExceeded { qtree });
                }
            }
        }
        self.log_op(LoggedOp::Write {
            ino,
            fbn,
            block: block.clone(),
        })?;
        let tick = self.bump_tick();
        self.meter.charge_cpu(self.costs.fs_write_block);

        let bno = self.alloc_block()?;
        self.vol.write_block(bno, block)?;
        {
            let inode = self.inode_mut(ino)?;
            let old = inode.tree.get(fbn);
            inode.tree.set(fbn, bno as u32);
            inode.dirty_fbns.insert(fbn);
            inode.size = inode.size.max((fbn + 1) * BLOCK_SIZE as u64);
            inode.attrs.mtime = tick;
            if old != 0 {
                self.free_block(old as u64);
            }
        }
        self.dirty_inodes.insert(ino);
        if is_new_block && qtree != 0 {
            if let Some(q) = self.qtrees.iter_mut().find(|q| q.id == qtree) {
                q.bytes_used += BLOCK_SIZE as u64;
            }
        }
        self.maybe_auto_cp()?;
        Ok(())
    }

    /// Reads one 4 KiB block of a file; holes read as zero.
    pub fn read_fbn(&mut self, ino: Ino, fbn: u64) -> Result<Block, WaflError> {
        self.meter.charge_cpu(self.costs.fs_read_block);
        let bno = {
            let inode = self.inode(ino)?;
            if inode.ftype == FileType::Dir {
                return Err(WaflError::WrongType { ino });
            }
            inode.tree.get(fbn)
        };
        if bno == 0 {
            Ok(Block::Zero)
        } else {
            Ok(self.vol.read_block(bno as u64)?)
        }
    }

    /// Sets the byte size exactly, truncating blocks past the end or
    /// extending with a trailing hole.
    pub fn set_size(&mut self, ino: Ino, size: u64) -> Result<(), WaflError> {
        {
            let inode = self.inode(ino)?;
            if inode.ftype == FileType::Dir {
                return Err(WaflError::WrongType { ino });
            }
        }
        self.log_op(LoggedOp::SetSize { ino, size })?;
        let tick = self.bump_tick();
        self.meter.charge_cpu(self.costs.inode_op);

        let keep = blocks_of(size);
        let (freed, qtree) = {
            let inode = self.inode_mut(ino)?;
            let mut freed = Vec::new();
            if (keep as usize) < inode.tree.slots.len() {
                for &bno in &inode.tree.slots[keep as usize..] {
                    if bno != 0 {
                        freed.push(bno as u64);
                    }
                }
                for fbn in keep..inode.tree.nslots() {
                    inode.dirty_fbns.insert(fbn);
                }
                inode.tree.slots.truncate(keep as usize);
            }
            inode.size = size;
            inode.attrs.mtime = tick;
            (freed, inode.qtree)
        };
        let nfreed = freed.len() as u64;
        for bno in freed {
            self.free_block(bno);
        }
        if qtree != 0 && nfreed > 0 {
            if let Some(q) = self.qtrees.iter_mut().find(|q| q.id == qtree) {
                q.bytes_used = q.bytes_used.saturating_sub(nfreed * BLOCK_SIZE as u64);
            }
        }
        self.dirty_inodes.insert(ino);
        self.maybe_auto_cp()?;
        Ok(())
    }

    /// Replaces an inode's attributes (including multiprotocol extras).
    pub fn set_attrs(&mut self, ino: Ino, attrs: Attrs) -> Result<(), WaflError> {
        Self::validate_attrs(&attrs)?;
        self.inode(ino)?;
        self.log_op(LoggedOp::SetAttrs {
            ino,
            attrs: attrs.clone(),
        })?;
        self.bump_tick();
        self.meter.charge_cpu(self.costs.inode_op);
        self.inode_mut(ino)?.attrs = attrs;
        self.dirty_inodes.insert(ino);
        self.maybe_auto_cp()?;
        Ok(())
    }

    /// Looks one name up in a directory.
    pub fn lookup(&self, parent: Ino, name: &str) -> Result<Ino, WaflError> {
        self.meter.charge_cpu(self.costs.lookup_component);
        let p = self.inode(parent)?;
        if p.ftype != FileType::Dir {
            return Err(WaflError::WrongType { ino: parent });
        }
        p.dir_ref()?
            .get(name)
            .copied()
            .ok_or_else(|| WaflError::NotFound {
                what: format!("{name:?} in inode {parent}"),
            })
    }

    /// Resolves a slash-separated path from the root.
    pub fn namei(&self, path: &str) -> Result<Ino, WaflError> {
        let mut ino = INO_ROOT;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            ino = self.lookup(ino, comp)?;
        }
        Ok(ino)
    }

    /// Lists a directory (sorted by name).
    pub fn readdir(&self, ino: Ino) -> Result<Vec<(String, Ino)>, WaflError> {
        let inode = self.inode(ino)?;
        if inode.ftype != FileType::Dir {
            return Err(WaflError::WrongType { ino });
        }
        Ok(inode
            .dir_ref()?
            .iter()
            .map(|(n, i)| (n.clone(), *i))
            .collect())
    }

    /// Stats an inode.
    pub fn stat(&self, ino: Ino) -> Result<Stat, WaflError> {
        let inode = self.inode(ino)?;
        Ok(Stat {
            ino,
            ftype: inode.ftype,
            size: inode.size,
            blocks: inode.tree.slots.iter().filter(|&&b| b != 0).count() as u64,
            attrs: inode.attrs.clone(),
            nlink: inode.nlink,
            qtree: inode.qtree,
            gen: inode.gen,
        })
    }

    /// Creates a symbolic link holding `target` (stored as the link's
    /// first data block, like a classic non-fast symlink).
    pub fn create_symlink(
        &mut self,
        parent: Ino,
        name: &str,
        target: &str,
        attrs: Attrs,
    ) -> Result<Ino, WaflError> {
        if target.len() >= crate::ondisk::BLOCK_SIZE {
            return Err(WaflError::Invalid {
                reason: "symlink target too long".into(),
            });
        }
        self.log_op(LoggedOp::Symlink {
            parent,
            name: name.into(),
            target: target.into(),
            attrs: attrs.clone(),
        })?;
        // The inner ops must not double-log.
        let was_replaying = self.replaying;
        self.replaying = true;
        let result: Result<Ino, WaflError> = (|| {
            let ino = self.create(parent, name, FileType::Symlink, attrs)?;
            if !target.is_empty() {
                self.write_fbn(ino, 0, Block::from_bytes(target.as_bytes()))?;
                self.set_size(ino, target.len() as u64)?;
            }
            Ok(ino)
        })();
        self.replaying = was_replaying;
        let ino = result?;
        self.maybe_auto_cp()?;
        Ok(ino)
    }

    /// Reads a symlink's target.
    pub fn readlink(&mut self, ino: Ino) -> Result<String, WaflError> {
        let size = {
            let inode = self.inode(ino)?;
            if inode.ftype != FileType::Symlink {
                return Err(WaflError::WrongType { ino });
            }
            inode.size as usize
        };
        if size == 0 {
            return Ok(String::new());
        }
        let block = self.read_fbn(ino, 0)?;
        let bytes = block.materialize();
        Ok(String::from_utf8_lossy(&bytes[..size.min(bytes.len())]).into_owned())
    }

    /// Adds a hard link: `parent/name` becomes another name for `ino`.
    ///
    /// Directories cannot be hard-linked, and (as on the real filer) links
    /// may not cross qtree boundaries.
    pub fn link(&mut self, parent: Ino, name: &str, ino: Ino) -> Result<(), WaflError> {
        Self::validate_name(name)?;
        {
            let target = self.inode(ino)?;
            if target.ftype == FileType::Dir {
                return Err(WaflError::WrongType { ino });
            }
            let p = self.inode(parent)?;
            if p.ftype != FileType::Dir {
                return Err(WaflError::WrongType { ino: parent });
            }
            if p.dir_ref()?.contains_key(name) {
                return Err(WaflError::Exists { name: name.into() });
            }
            if p.qtree != target.qtree {
                return Err(WaflError::Invalid {
                    reason: "hard links cannot cross qtrees".into(),
                });
            }
        }
        self.log_op(LoggedOp::Link {
            parent,
            name: name.into(),
            ino,
        })?;
        let tick = self.bump_tick();
        self.meter.charge_cpu(self.costs.inode_op);
        {
            let target = self.inode_mut(ino)?;
            target.nlink += 1;
            target.attrs.ctime = tick;
        }
        {
            let p = self.inode_mut(parent)?;
            p.dir_mut()?.insert(name.into(), ino);
            p.dir_dirty = true;
            p.attrs.mtime = tick;
        }
        self.dirty_inodes.insert(ino);
        self.dirty_inodes.insert(parent);
        self.maybe_auto_cp()?;
        Ok(())
    }

    /// Creates a qtree: a top-level directory that carries its own quota
    /// accounting (the construct the paper used to split `home` into four
    /// pieces for parallel logical dumps).
    pub fn create_qtree(&mut self, name: &str, limit_bytes: u64) -> Result<u16, WaflError> {
        Self::validate_name(name)?;
        if name.len() > MAX_QTREE_NAME {
            return Err(WaflError::Invalid {
                reason: "qtree name too long".into(),
            });
        }
        if self.qtrees.len() >= 64 {
            return Err(WaflError::Invalid {
                reason: "too many qtrees".into(),
            });
        }
        self.log_op(LoggedOp::CreateQtree {
            name: name.into(),
            limit_bytes,
        })?;
        // The directory itself (not logged again: create() skips logging
        // during replay anyway, and here we synthesize it directly).
        let was_replaying = self.replaying;
        self.replaying = true;
        let root_ino = self.create(INO_ROOT, name, FileType::Dir, Attrs::default());
        self.replaying = was_replaying;
        let root_ino = root_ino?;
        let id = self.next_qtree;
        self.next_qtree += 1;
        self.inode_mut(root_ino)?.qtree = id;
        self.qtrees.push(QtreeEntry {
            id,
            root_ino,
            name: name.into(),
            bytes_used: 0,
            files_used: 0,
            limit_bytes,
        });
        self.maybe_auto_cp()?;
        Ok(id)
    }

    /// A file's block mapping (fbn → volume block, 0 = hole) — exposed for
    /// layout tools such as the fragmentation gauge in the workload crate.
    pub fn file_extents(&self, ino: Ino) -> Result<Vec<u32>, WaflError> {
        let inode = self.inode(ino)?;
        if inode.ftype != FileType::File {
            return Err(WaflError::WrongType { ino });
        }
        Ok(inode.tree.slots.clone())
    }

    /// Like [`Wafl::file_extents`] but for any inode kind (directories'
    /// entry blocks included) — used by the consistency checker.
    pub fn file_extents_any(&self, ino: Ino) -> Result<Vec<u32>, WaflError> {
        Ok(self.inode(ino)?.tree.slots.clone())
    }

    /// The on-disk homes of an inode's indirect blocks (L1s and the
    /// double-indirect block) — used by the consistency checker.
    pub fn indirect_homes(&self, ino: Ino) -> Result<Vec<u32>, WaflError> {
        let inode = self.inode(ino)?;
        let mut homes: Vec<u32> = inode
            .meta
            .l1_homes
            .iter()
            .copied()
            .filter(|&b| b != 0)
            .collect();
        if inode.meta.dind_home != 0 {
            homes.push(inode.meta.dind_home);
        }
        Ok(homes)
    }

    /// The inode file's layout: `(block homes, indirect homes)` — used by
    /// the consistency checker.
    pub fn inofile_layout(&self) -> (Vec<u32>, Vec<u32>) {
        let mut meta: Vec<u32> = self
            .inofile_meta
            .l1_homes
            .iter()
            .copied()
            .filter(|&b| b != 0)
            .collect();
        if self.inofile_meta.dind_home != 0 {
            meta.push(self.inofile_meta.dind_home);
        }
        (
            self.inofile_tree
                .slots
                .iter()
                .copied()
                .filter(|&b| b != 0)
                .collect(),
            meta,
        )
    }

    /// The block-map file's layout: `(block homes, indirect homes)`.
    pub fn blkmap_layout(&self) -> (Vec<u32>, Vec<u32>) {
        let mut meta: Vec<u32> = self
            .blkmap_meta
            .l1_homes
            .iter()
            .copied()
            .filter(|&b| b != 0)
            .collect();
        if self.blkmap_meta.dind_home != 0 {
            meta.push(self.blkmap_meta.dind_home);
        }
        (
            self.blkmap_tree
                .slots
                .iter()
                .copied()
                .filter(|&b| b != 0)
                .collect(),
            meta,
        )
    }

    /// Block holding the snapshot table (0 before the first CP).
    pub fn snaptable_bno(&self) -> u32 {
        self.snaptable_bno
    }

    /// Block holding the qtree table (0 before the first CP).
    pub fn qtree_table_bno(&self) -> u32 {
        self.qtree_bno
    }

    /// The qtree table.
    pub fn qtrees(&self) -> &[QtreeEntry] {
        &self.qtrees
    }

    /// Usage of one qtree: `(bytes, files)`.
    pub fn qtree_usage(&self, id: u16) -> Option<(u64, u64)> {
        self.qtrees
            .iter()
            .find(|q| q.id == id)
            .map(|q| (q.bytes_used, q.files_used))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::WaflConfig;
    use blockdev::DiskPerf;
    use raid::Volume;
    use raid::VolumeGeometry;

    fn fs() -> Wafl {
        let vol = Volume::new(VolumeGeometry::uniform(1, 4, 2048, DiskPerf::ideal()));
        Wafl::format(vol, WaflConfig::default()).unwrap()
    }

    #[test]
    fn create_write_read_round_trip() {
        let mut fs = fs();
        let f = fs
            .create(INO_ROOT, "hello.txt", FileType::File, Attrs::default())
            .unwrap();
        fs.write_fbn(f, 0, Block::Synthetic(1)).unwrap();
        fs.write_fbn(f, 1, Block::Synthetic(2)).unwrap();
        assert!(fs
            .read_fbn(f, 0)
            .unwrap()
            .same_content(&Block::Synthetic(1)));
        assert!(fs
            .read_fbn(f, 1)
            .unwrap()
            .same_content(&Block::Synthetic(2)));
        assert_eq!(fs.stat(f).unwrap().size, 8192);
        assert_eq!(fs.stat(f).unwrap().blocks, 2);
    }

    #[test]
    fn holes_read_as_zero() {
        let mut fs = fs();
        let f = fs
            .create(INO_ROOT, "sparse", FileType::File, Attrs::default())
            .unwrap();
        fs.write_fbn(f, 5, Block::Synthetic(9)).unwrap();
        assert!(fs.read_fbn(f, 0).unwrap().same_content(&Block::Zero));
        assert!(fs.read_fbn(f, 4).unwrap().same_content(&Block::Zero));
        assert!(fs
            .read_fbn(f, 5)
            .unwrap()
            .same_content(&Block::Synthetic(9)));
        assert_eq!(fs.stat(f).unwrap().size, 6 * 4096);
        assert_eq!(fs.stat(f).unwrap().blocks, 1);
    }

    #[test]
    fn create_rejects_duplicates_and_bad_names() {
        let mut fs = fs();
        fs.create(INO_ROOT, "a", FileType::File, Attrs::default())
            .unwrap();
        assert!(matches!(
            fs.create(INO_ROOT, "a", FileType::File, Attrs::default()),
            Err(WaflError::Exists { .. })
        ));
        for bad in ["", ".", "..", "x/y"] {
            assert!(matches!(
                fs.create(INO_ROOT, bad, FileType::File, Attrs::default()),
                Err(WaflError::Invalid { .. })
            ));
        }
    }

    #[test]
    fn namei_walks_paths() {
        let mut fs = fs();
        let d1 = fs
            .create(INO_ROOT, "usr", FileType::Dir, Attrs::default())
            .unwrap();
        let d2 = fs
            .create(d1, "local", FileType::Dir, Attrs::default())
            .unwrap();
        let f = fs
            .create(d2, "bin", FileType::File, Attrs::default())
            .unwrap();
        assert_eq!(fs.namei("/usr/local/bin").unwrap(), f);
        assert_eq!(fs.namei("usr/local").unwrap(), d2);
        assert_eq!(fs.namei("/").unwrap(), INO_ROOT);
        assert!(fs.namei("/usr/missing").is_err());
    }

    #[test]
    fn remove_file_frees_space() {
        let mut fs = fs();
        let before = fs.free_blocks();
        let f = fs
            .create(INO_ROOT, "f", FileType::File, Attrs::default())
            .unwrap();
        for i in 0..20 {
            fs.write_fbn(f, i, Block::Synthetic(i)).unwrap();
        }
        fs.remove(INO_ROOT, "f").unwrap();
        fs.cp().unwrap();
        // All data + indirect blocks come back (metadata block homes moved,
        // so allow a little slack rather than exact equality).
        let after = fs.free_blocks();
        assert!(after + 8 >= before, "before={before} after={after}");
        assert!(!fs.inode_exists(f));
    }

    #[test]
    fn rmdir_requires_empty() {
        let mut fs = fs();
        let d = fs
            .create(INO_ROOT, "d", FileType::Dir, Attrs::default())
            .unwrap();
        fs.create(d, "child", FileType::File, Attrs::default())
            .unwrap();
        assert!(matches!(
            fs.remove(INO_ROOT, "d"),
            Err(WaflError::NotEmpty { .. })
        ));
        fs.remove(d, "child").unwrap();
        fs.remove(INO_ROOT, "d").unwrap();
        assert!(fs.namei("/d").is_err());
    }

    #[test]
    fn rename_moves_entries() {
        let mut fs = fs();
        let d = fs
            .create(INO_ROOT, "dir", FileType::Dir, Attrs::default())
            .unwrap();
        let f = fs
            .create(INO_ROOT, "old", FileType::File, Attrs::default())
            .unwrap();
        fs.rename(INO_ROOT, "old", d, "new").unwrap();
        assert!(fs.namei("/old").is_err());
        assert_eq!(fs.namei("/dir/new").unwrap(), f);
        // Destination collisions are refused.
        fs.create(INO_ROOT, "other", FileType::File, Attrs::default())
            .unwrap();
        assert!(matches!(
            fs.rename(d, "new", INO_ROOT, "other"),
            Err(WaflError::Exists { .. })
        ));
    }

    #[test]
    fn rename_refuses_directory_cycles() {
        let mut fs = fs();
        let a = fs
            .create(INO_ROOT, "a", FileType::Dir, Attrs::default())
            .unwrap();
        let b = fs.create(a, "b", FileType::Dir, Attrs::default()).unwrap();
        let c = fs.create(b, "c", FileType::Dir, Attrs::default()).unwrap();
        // a -> a/b/c would orphan a cycle.
        assert!(matches!(
            fs.rename(INO_ROOT, "a", c, "looped"),
            Err(WaflError::Invalid { .. })
        ));
        // a -> a is equally refused.
        assert!(matches!(
            fs.rename(INO_ROOT, "a", a, "self"),
            Err(WaflError::Invalid { .. })
        ));
        // Sideways moves of directories still work.
        let d = fs
            .create(INO_ROOT, "d", FileType::Dir, Attrs::default())
            .unwrap();
        fs.rename(a, "b", d, "b-moved").unwrap();
        assert!(fs.namei("/d/b-moved/c").is_ok());
    }

    #[test]
    fn set_size_truncates_and_extends() {
        let mut fs = fs();
        let f = fs
            .create(INO_ROOT, "f", FileType::File, Attrs::default())
            .unwrap();
        for i in 0..10 {
            fs.write_fbn(f, i, Block::Synthetic(i)).unwrap();
        }
        fs.set_size(f, 3 * 4096).unwrap();
        assert_eq!(fs.stat(f).unwrap().size, 3 * 4096);
        assert_eq!(fs.stat(f).unwrap().blocks, 3);
        assert!(fs.read_fbn(f, 5).unwrap().same_content(&Block::Zero));
        // Extension adds a trailing hole.
        fs.set_size(f, 100 * 4096).unwrap();
        assert_eq!(fs.stat(f).unwrap().blocks, 3);
        assert!(fs.read_fbn(f, 50).unwrap().same_content(&Block::Zero));
    }

    #[test]
    fn attrs_round_trip_including_multiprotocol() {
        let mut fs = fs();
        let f = fs
            .create(INO_ROOT, "f", FileType::File, Attrs::default())
            .unwrap();
        let attrs = Attrs {
            perm: 0o600,
            uid: 42,
            gid: 43,
            dos_attrs: 0x07,
            dos_time: 12345,
            dos_name: Some("LEGACY~1.TXT".into()),
            nt_acl: Some(vec![0xde, 0xad]),
            ..Attrs::default()
        };
        fs.set_attrs(f, attrs.clone()).unwrap();
        let got = fs.stat(f).unwrap().attrs;
        assert_eq!(got.dos_name, attrs.dos_name);
        assert_eq!(got.nt_acl, attrs.nt_acl);
        assert_eq!(got.perm, 0o600);
        // Oversized extras are rejected.
        assert!(fs
            .set_attrs(
                f,
                Attrs {
                    nt_acl: Some(vec![0; 200]),
                    ..Attrs::default()
                }
            )
            .is_err());
    }

    #[test]
    fn qtree_accounting_tracks_usage() {
        let mut fs = fs();
        let q = fs.create_qtree("eng", 0).unwrap();
        let qroot = fs.namei("/eng").unwrap();
        let f = fs
            .create(qroot, "data", FileType::File, Attrs::default())
            .unwrap();
        for i in 0..4 {
            fs.write_fbn(f, i, Block::Synthetic(i)).unwrap();
        }
        assert_eq!(fs.qtree_usage(q), Some((4 * 4096, 1)));
        fs.remove(qroot, "data").unwrap();
        assert_eq!(fs.qtree_usage(q), Some((0, 0)));
    }

    #[test]
    fn qtree_quota_is_enforced() {
        let mut fs = fs();
        let _q = fs.create_qtree("small", 2 * 4096).unwrap();
        let qroot = fs.namei("/small").unwrap();
        let f = fs
            .create(qroot, "f", FileType::File, Attrs::default())
            .unwrap();
        fs.write_fbn(f, 0, Block::Synthetic(1)).unwrap();
        fs.write_fbn(f, 1, Block::Synthetic(2)).unwrap();
        assert!(matches!(
            fs.write_fbn(f, 2, Block::Synthetic(3)),
            Err(WaflError::QuotaExceeded { .. })
        ));
        // Overwriting an existing block is fine (no new allocation charge).
        fs.write_fbn(f, 0, Block::Synthetic(9)).unwrap();
    }

    #[test]
    fn readdir_is_sorted_and_typed() {
        let mut fs = fs();
        fs.create(INO_ROOT, "zeta", FileType::File, Attrs::default())
            .unwrap();
        fs.create(INO_ROOT, "alpha", FileType::Dir, Attrs::default())
            .unwrap();
        let names: Vec<String> = fs
            .readdir(INO_ROOT)
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        let f = fs.namei("/zeta").unwrap();
        assert!(matches!(fs.readdir(f), Err(WaflError::WrongType { .. })));
    }

    #[test]
    fn writes_update_mtime_monotonically() {
        let mut fs = fs();
        let f = fs
            .create(INO_ROOT, "f", FileType::File, Attrs::default())
            .unwrap();
        let t0 = fs.stat(f).unwrap().attrs.mtime;
        fs.write_fbn(f, 0, Block::Synthetic(1)).unwrap();
        let t1 = fs.stat(f).unwrap().attrs.mtime;
        assert!(t1 > t0);
    }

    #[test]
    fn fbn_out_of_range_is_rejected() {
        let mut fs = fs();
        let f = fs
            .create(INO_ROOT, "f", FileType::File, Attrs::default())
            .unwrap();
        assert!(matches!(
            fs.write_fbn(f, MAX_FILE_BLOCKS, Block::Zero),
            Err(WaflError::Invalid { .. })
        ));
    }
}
