//! Cross-platform restore: the archival-format payoff of logical backup.
//!
//! "One of the benefits of the format has been the ability to
//! cross-restore BSD dump tapes from one system to another" (§3). This
//! module restores a dump stream onto a deliberately *foreign* file system
//! — a plain in-memory Unix-style tree that knows nothing about WAFL,
//! snapshots, DOS names or NT ACLs. Data and standard attributes survive;
//! the multiprotocol extensions are dropped with a warning, exactly the
//! "attributes may not map across the different file systems" caveat.

use std::collections::BTreeMap;

use blockdev::Block;
use simkit::media::Media;
use wafl::types::Ino;

use crate::logical::format::DumpError;
use crate::logical::format::DumpRecord;
use crate::logical::restore::next_record;
use crate::logical::restore::read_stream_head;

/// A node in the foreign file system.
#[derive(Debug, Clone)]
pub enum ForeignNode {
    /// A directory with Unix attributes.
    Dir {
        /// Children by name.
        entries: BTreeMap<String, ForeignNode>,
        /// Unix permission bits.
        perm: u16,
        /// Owner.
        uid: u32,
        /// Group.
        gid: u32,
    },
    /// A file with Unix attributes and sparse block contents.
    File {
        /// Exact byte size.
        size: u64,
        /// Present blocks by file block number (holes absent).
        blocks: BTreeMap<u64, Block>,
        /// Unix permission bits.
        perm: u16,
        /// Owner.
        uid: u32,
        /// Group.
        gid: u32,
        /// Modification time.
        mtime: u64,
    },
}

impl ForeignNode {
    fn new_dir(perm: u16, uid: u32, gid: u32) -> ForeignNode {
        ForeignNode::Dir {
            entries: BTreeMap::new(),
            perm,
            uid,
            gid,
        }
    }

    /// Looks up a path ("a/b/c") below this node.
    pub fn resolve(&self, path: &str) -> Option<&ForeignNode> {
        let mut node = self;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            match node {
                ForeignNode::Dir { entries, .. } => node = entries.get(comp)?,
                ForeignNode::File { .. } => return None,
            }
        }
        Some(node)
    }

    /// Counts files under this node.
    pub fn count_files(&self) -> u64 {
        match self {
            ForeignNode::File { .. } => 1,
            ForeignNode::Dir { entries, .. } => entries.values().map(|n| n.count_files()).sum(),
        }
    }
}

/// A restored foreign file system plus portability warnings.
#[derive(Debug)]
pub struct ForeignRestore {
    /// The root directory.
    pub root: ForeignNode,
    /// Attributes the foreign system could not represent.
    pub warnings: Vec<String>,
    /// Files restored.
    pub files: u64,
    /// Data blocks restored.
    pub data_blocks: u64,
}

/// Restores a dump stream onto a foreign (non-WAFL) file system.
pub fn restore_to_foreign(drive: &mut dyn Media) -> Result<ForeignRestore, DumpError> {
    let head = read_stream_head(drive)?;
    let mut warnings = head.warnings.clone();

    // Build the directory skeleton and remember each dir's path.
    let mut paths: BTreeMap<Ino, String> = BTreeMap::new();
    paths.insert(head.root_ino, String::new());
    let mut order: Vec<Ino> = vec![head.root_ino];
    let mut i = 0;
    while i < order.len() {
        let dir = order[i];
        i += 1;
        if let Some((_, entries)) = head.dirs.get(&dir) {
            for e in entries {
                if head.dirs.contains_key(&e.ino) {
                    let path = format!("{}/{}", paths[&dir], e.name);
                    paths.insert(e.ino, path);
                    order.push(e.ino);
                }
            }
        }
    }

    let (root_attrs, _) = head.dirs.get(&head.root_ino).cloned().unwrap_or_default();
    let mut root = ForeignNode::new_dir(root_attrs.perm, root_attrs.uid, root_attrs.gid);

    fn insert_at<'a>(
        root: &'a mut ForeignNode,
        path: &str,
    ) -> &'a mut BTreeMap<String, ForeignNode> {
        let mut node = root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let ForeignNode::Dir { entries, .. } = node else {
                unreachable!("dirs are created before their children")
            };
            node = entries
                .entry(comp.to_string())
                .or_insert_with(|| ForeignNode::new_dir(0o755, 0, 0));
        }
        match node {
            ForeignNode::Dir { entries, .. } => entries,
            ForeignNode::File { .. } => unreachable!("path resolves to a dir"),
        }
    }

    // Create dirs (skipping the root, which exists).
    for ino in &order[1..] {
        let Some((attrs, _)) = head.dirs.get(ino).cloned() else {
            continue;
        };
        if attrs.dos_name.is_some() || attrs.nt_acl.is_some() {
            warnings.push(format!(
                "directory {}: DOS/NT attributes not representable here; dropped",
                paths[ino]
            ));
        }
        let path = paths[ino].clone();
        let Some((parent_path, name)) = path.rsplit_once('/') else {
            continue;
        };
        let entries = insert_at(&mut root, parent_path);
        entries.insert(
            name.to_string(),
            ForeignNode::new_dir(attrs.perm, attrs.uid, attrs.gid),
        );
    }

    // Map file inos to their paths. Hard links flatten to independent
    // copies on the foreign system (with a warning), so every path is
    // remembered.
    let mut file_paths: BTreeMap<Ino, Vec<String>> = BTreeMap::new();
    for (dir, (_, entries)) in &head.dirs {
        for e in entries {
            if !head.dirs.contains_key(&e.ino) && head.dumped.get(e.ino) {
                file_paths
                    .entry(e.ino)
                    .or_default()
                    .push(format!("{}/{}", paths[dir], e.name));
            }
        }
    }
    for (ino, names) in &file_paths {
        if names.len() > 1 {
            warnings.push(format!(
                "inode {ino} has {} hard links; flattened to independent copies",
                names.len()
            ));
        }
    }

    // Stream the data section.
    let mut files = 0u64;
    let mut data_blocks = 0u64;
    let mut current: Option<Ino> = None;
    let mut rec = head.pending.clone();
    loop {
        let record = match rec.take() {
            Some(r) => r,
            None => match next_record(drive, &mut warnings)? {
                Some(r) => r,
                None => break,
            },
        };
        match record {
            DumpRecord::Inode {
                ino, size, attrs, ..
            } => {
                let Some(names) = file_paths.get(&ino) else {
                    warnings.push(format!("file inode {ino} not named by any directory"));
                    current = None;
                    continue;
                };
                if attrs.dos_name.is_some() || attrs.nt_acl.is_some() {
                    warnings.push(format!(
                        "file {}: DOS/NT attributes not representable here; dropped",
                        names[0]
                    ));
                }
                for path in names.clone() {
                    let Some((parent_path, name)) = path.rsplit_once('/') else {
                        continue;
                    };
                    let entries = insert_at(&mut root, parent_path);
                    entries.insert(
                        name.to_string(),
                        ForeignNode::File {
                            size,
                            blocks: BTreeMap::new(),
                            perm: attrs.perm,
                            uid: attrs.uid,
                            gid: attrs.gid,
                            mtime: attrs.mtime,
                        },
                    );
                }
                files += 1;
                current = Some(ino);
            }
            DumpRecord::Data { ino, fbns, blocks } => {
                if current != Some(ino) && !file_paths.contains_key(&ino) {
                    warnings.push(format!("stray data for inode {ino}"));
                    continue;
                }
                for path in file_paths[&ino].clone() {
                    let Some((parent_path, name)) = path.rsplit_once('/') else {
                        continue;
                    };
                    let entries = insert_at(&mut root, parent_path);
                    if let Some(ForeignNode::File { blocks: fb, .. }) = entries.get_mut(name) {
                        for (fbn, block) in fbns.iter().cloned().zip(blocks.iter().cloned()) {
                            fb.insert(fbn, block);
                        }
                    }
                }
                data_blocks += fbns.len() as u64;
            }
            DumpRecord::End { .. } => break,
            other => warnings.push(format!("unexpected record: {other:?}")),
        }
    }

    Ok(ForeignRestore {
        root,
        warnings,
        files,
        data_blocks,
    })
}
