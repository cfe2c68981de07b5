//! Read-only views of a snapshot (or of the last consistency point).
//!
//! A [`SnapView`] reads everything from *disk blocks* — the inode file, the
//! indirect blocks, directories, file data — rather than from the mounted
//! object model. That is deliberate: this is the path logical dump uses, so
//! its disk traffic (and its randomness on a fragmented volume) is real and
//! lands in the device counters the benchmark harness reads.

use blockdev::Block;

use crate::error::WaflError;
use crate::fs::blocks_of;
use crate::fs::read_tree;
use crate::fs::Wafl;
use crate::ondisk;
use crate::ondisk::DiskInode;
use crate::ondisk::TreeRoot;
use crate::ondisk::BLOCK_SIZE;
use crate::types::FileType;
use crate::types::Ino;
use crate::types::SnapId;
use crate::types::INODES_PER_BLOCK;
use crate::types::INODE_SIZE;

/// A read-only, disk-parsing view of one file system image.
pub struct SnapView<'a> {
    fs: &'a mut Wafl,
    /// Inode-file block index → volume block (parsed once).
    inofile_slots: Vec<u32>,
    /// Number of inode slots in the image.
    max_ino: Ino,
    /// Cache of the most recently read inode-file block (dump reads inodes
    /// in ascending order, so this captures almost all re-reads).
    cached_ino_block: Option<(u64, Box<[u8; BLOCK_SIZE]>)>,
}

impl Wafl {
    /// Opens a view of snapshot `id`.
    pub fn snap_view(&mut self, id: SnapId) -> Result<SnapView<'_>, WaflError> {
        let root = self
            .snapshot_by_id(id)
            .ok_or(WaflError::NoSuchSnapshot { id })?
            .inofile
            .clone();
        SnapView::open(self, &root)
    }

    /// Opens a view of the most recent consistency point (takes one first
    /// so the view matches the live state).
    pub fn active_view(&mut self) -> Result<SnapView<'_>, WaflError> {
        self.cp()?;
        let root = self.last_inofile_root.clone();
        SnapView::open(self, &root)
    }
}

impl<'a> SnapView<'a> {
    fn open(fs: &'a mut Wafl, root: &TreeRoot) -> Result<SnapView<'a>, WaflError> {
        let (tree, _meta) = read_tree(&mut fs.vol, root)?;
        let max_ino = (root.size / INODE_SIZE as u64) as Ino;
        Ok(SnapView {
            fs,
            inofile_slots: tree.slots,
            max_ino,
            cached_ino_block: None,
        })
    }

    /// One past the largest inode number in the image.
    pub fn max_ino(&self) -> Ino {
        self.max_ino
    }

    fn read_raw(&mut self, bno: u32) -> Result<Block, WaflError> {
        self.fs.meter.charge_cpu(self.fs.costs.fs_read_block);
        Ok(self.fs.vol.read_block(bno as u64)?)
    }

    /// Reads inode `ino` from the image; `Ok(None)` for a free slot.
    pub fn read_inode(&mut self, ino: Ino) -> Result<Option<DiskInode>, WaflError> {
        if ino >= self.max_ino {
            return Ok(None);
        }
        let blk_idx = ino as u64 / INODES_PER_BLOCK;
        let need_read = match &self.cached_ino_block {
            Some((cached, _)) => *cached != blk_idx,
            None => true,
        };
        if need_read {
            let bno = self
                .inofile_slots
                .get(blk_idx as usize)
                .copied()
                .unwrap_or(0);
            if bno == 0 {
                return Ok(None);
            }
            let block = self.read_raw(bno)?;
            self.cached_ino_block = Some((blk_idx, block.materialize()));
        }
        let (_, bytes) = self
            .cached_ino_block
            .as_ref()
            .ok_or_else(|| WaflError::Invalid {
                reason: "inode block cache empty after fill".into(),
            })?;
        let off = (ino as u64 % INODES_PER_BLOCK) as usize * INODE_SIZE;
        let di = DiskInode::read_from(&bytes[off..off + INODE_SIZE]);
        Ok(di.ftype.map(|_| di))
    }

    /// Parses a file's full block mapping (fbn → volume block, 0 = hole),
    /// reading its indirect blocks.
    pub fn file_slots(&mut self, di: &DiskInode) -> Result<Vec<u32>, WaflError> {
        let (tree, _meta) = read_tree(&mut self.fs.vol, &di.root)?;
        Ok(tree.slots)
    }

    /// Reads one file block given a previously parsed slot table.
    pub fn read_file_block(&mut self, slots: &[u32], fbn: u64) -> Result<Block, WaflError> {
        match slots.get(fbn as usize).copied().unwrap_or(0) {
            0 => Ok(Block::Zero),
            bno => self.read_raw(bno),
        }
    }

    /// Reads a directory's entries from its blocks.
    pub fn read_dir(&mut self, di: &DiskInode) -> Result<Vec<(String, Ino)>, WaflError> {
        if di.ftype != Some(FileType::Dir) {
            return Err(WaflError::Invalid {
                reason: "not a directory".into(),
            });
        }
        let slots = self.file_slots(di)?;
        let mut entries = Vec::new();
        for fbn in 0..blocks_of(di.root.size) {
            let bno = slots.get(fbn as usize).copied().unwrap_or(0);
            if bno == 0 {
                continue;
            }
            let block = self.read_raw(bno)?;
            entries.extend(ondisk::dir_from_block(&block));
        }
        Ok(entries)
    }

    /// Resolves a path within the image.
    pub fn namei(&mut self, path: &str) -> Result<Ino, WaflError> {
        let mut ino = crate::types::INO_ROOT;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let di = self.read_inode(ino)?.ok_or_else(|| WaflError::NotFound {
                what: format!("inode {ino}"),
            })?;
            let entries = self.read_dir(&di)?;
            ino = entries
                .iter()
                .find(|(n, _)| n == comp)
                .map(|(_, i)| *i)
                .ok_or_else(|| WaflError::NotFound {
                    what: format!("{comp:?} in {path:?}"),
                })?;
        }
        Ok(ino)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Attrs;
    use crate::types::WaflConfig;
    use crate::types::INO_ROOT;
    use blockdev::DiskPerf;
    use raid::Volume;
    use raid::VolumeGeometry;

    fn fs() -> Wafl {
        let vol = Volume::new(VolumeGeometry::uniform(1, 4, 2048, DiskPerf::ideal()));
        Wafl::format(vol, WaflConfig::default()).unwrap()
    }

    #[test]
    fn active_view_reads_files_from_disk() {
        let mut fs = fs();
        let f = fs
            .create(INO_ROOT, "data", FileType::File, Attrs::default())
            .unwrap();
        for i in 0..30 {
            fs.write_fbn(f, i, Block::Synthetic(100 + i)).unwrap();
        }
        let mut view = fs.active_view().unwrap();
        let di = view.read_inode(f).unwrap().expect("file exists");
        assert_eq!(di.root.size, 30 * 4096);
        let slots = view.file_slots(&di).unwrap();
        for i in 0..30 {
            let got = view.read_file_block(&slots, i).unwrap();
            assert!(got.same_content(&Block::Synthetic(100 + i)), "fbn {i}");
        }
        // Past-EOF reads as a hole.
        assert!(view
            .read_file_block(&slots, 99)
            .unwrap()
            .same_content(&Block::Zero));
    }

    #[test]
    fn snapshot_view_sees_the_past() {
        let mut fs = fs();
        let f = fs
            .create(INO_ROOT, "versioned", FileType::File, Attrs::default())
            .unwrap();
        fs.write_fbn(f, 0, Block::Synthetic(1)).unwrap();
        let id = fs.snapshot_create("before").unwrap();
        fs.write_fbn(f, 0, Block::Synthetic(2)).unwrap();
        fs.create(INO_ROOT, "newer", FileType::File, Attrs::default())
            .unwrap();
        fs.cp().unwrap();

        // The snapshot still shows the old content and no "newer" file.
        let mut snap = fs.snap_view(id).unwrap();
        let di = snap.read_inode(f).unwrap().expect("in snapshot");
        let slots = snap.file_slots(&di).unwrap();
        assert!(snap
            .read_file_block(&slots, 0)
            .unwrap()
            .same_content(&Block::Synthetic(1)));
        assert!(snap.namei("/newer").is_err());
        assert_eq!(snap.namei("/versioned").unwrap(), f);

        // The active view shows the new world.
        let mut live = fs.active_view().unwrap();
        let di = live.read_inode(f).unwrap().expect("live");
        let slots = live.file_slots(&di).unwrap();
        assert!(live
            .read_file_block(&slots, 0)
            .unwrap()
            .same_content(&Block::Synthetic(2)));
        assert!(live.namei("/newer").is_ok());
    }

    #[test]
    fn deleted_files_survive_in_snapshots() {
        let mut fs = fs();
        let f = fs
            .create(INO_ROOT, "doomed", FileType::File, Attrs::default())
            .unwrap();
        fs.write_fbn(f, 0, Block::Synthetic(77)).unwrap();
        let id = fs.snapshot_create("keep").unwrap();
        fs.remove(INO_ROOT, "doomed").unwrap();
        fs.cp().unwrap();
        assert!(fs.namei("/doomed").is_err());

        // "Snapshots can be used as an on-line backup capability allowing
        // users to recover their own files."
        let mut snap = fs.snap_view(id).unwrap();
        let ino = snap.namei("/doomed").unwrap();
        let di = snap.read_inode(ino).unwrap().expect("in snapshot");
        let slots = snap.file_slots(&di).unwrap();
        assert!(snap
            .read_file_block(&slots, 0)
            .unwrap()
            .same_content(&Block::Synthetic(77)));
    }

    #[test]
    fn dir_listing_matches_live_fs() {
        let mut fs = fs();
        for name in ["a", "b", "c"] {
            fs.create(INO_ROOT, name, FileType::File, Attrs::default())
                .unwrap();
        }
        let mut view = fs.active_view().unwrap();
        let root = view.read_inode(INO_ROOT).unwrap().expect("root");
        let entries = view.read_dir(&root).unwrap();
        let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn free_inode_slots_read_as_none() {
        let mut fs = fs();
        let f = fs
            .create(INO_ROOT, "gone", FileType::File, Attrs::default())
            .unwrap();
        fs.remove(INO_ROOT, "gone").unwrap();
        let mut view = fs.active_view().unwrap();
        assert!(view.read_inode(f).unwrap().is_none());
        assert!(view.read_inode(9999).unwrap().is_none());
    }
}
