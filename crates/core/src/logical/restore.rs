//! Full and incremental restore from a dump stream.
//!
//! Restore first reads the directory records (which the format guarantees
//! precede all files) into an in-memory "desiccated" directory table —
//! exactly the paper's description: restore can run its own `namei` over
//! this table "without ever laying this directory structure on the file
//! system".
//!
//! The kernel-integration fast paths from §3 are both here: files are
//! addressed through the old-inode → new-inode table (the equivalent of
//! building a file handle straight from the inode number in the stream),
//! and directory permissions are set at creation time, so there is no
//! final fix-up pass.
//!
//! Incremental semantics: a dumped directory's entry list is authoritative
//! — names present on the target but absent from the list were deleted (or
//! renamed) since the base dump and are removed. Files in the *dumped*
//! bitmap are recreated from the stream; files in the *used* bitmap only
//! are untouched. A corrupted tape record costs only the file(s) it
//! covered: restore resynchronizes at the next record ("a minor tape
//! corruption will usually affect only that single file").

use std::collections::BTreeMap;

use simkit::crash::CrashPoint;
use simkit::media::Media;
use simkit::media::MediaError;
use wafl::types::Attrs;
use wafl::types::FileType;
use wafl::types::Ino;
use wafl::Wafl;
use wafl::WaflError;

use crate::crashpoint::power_fire;
use crate::logical::format::DumpError;
use crate::logical::format::DumpRecord;
use crate::logical::format::InoMap;
use crate::logical::format::WhichMap;
use crate::report::Profiler;

/// What a restore produced.
#[derive(Debug)]
pub struct RestoreOutcome {
    /// Per-stage resource profiles.
    pub profiler: Profiler,
    /// Files created (or replaced).
    pub files: u64,
    /// Directories created or updated.
    pub dirs: u64,
    /// Data blocks written.
    pub data_blocks: u64,
    /// Target entries deleted by incremental reconciliation.
    pub deleted: u64,
    /// Non-fatal problems (corrupt records skipped, stray data, ...).
    pub warnings: Vec<String>,
    /// Source-inode → restored-inode table (the symbol table successive
    /// incremental restores would consult).
    pub ino_map: BTreeMap<Ino, Ino>,
    /// The level recorded in the stream header.
    pub level: u8,
    /// Inodes the source had in use at dump time (from the first bitmap).
    pub used_inodes: u64,
}

/// The desiccated directory table parsed from the stream head.
pub(crate) struct StreamHead {
    pub(crate) root_ino: Ino,
    pub(crate) level: u8,
    pub(crate) used: InoMap,
    pub(crate) dumped: InoMap,
    pub(crate) dirs: BTreeMap<Ino, (Attrs, Vec<crate::logical::format::DirEntry>)>,
    /// First non-header record, if any (a file header usually).
    pub(crate) pending: Option<DumpRecord>,
    pub(crate) warnings: Vec<String>,
}

/// Reads the stream head: tape header, bitmaps, and every directory
/// record.
pub(crate) fn read_stream_head(drive: &mut dyn Media) -> Result<StreamHead, DumpError> {
    drive.rewind();
    let first = next_record(drive, &mut Vec::new())?.ok_or_else(|| DumpError::BadStream {
        reason: "empty tape".into(),
    })?;
    let (root_ino, level) = match first {
        DumpRecord::Tape {
            root_ino, level, ..
        } => (root_ino, level),
        other => {
            return Err(DumpError::BadStream {
                reason: format!("expected tape header, got {other:?}"),
            })
        }
    };
    let mut used = InoMap::default();
    let mut dumped = InoMap::default();
    let mut dirs = BTreeMap::new();
    let mut pending = None;
    let mut warnings = Vec::new();
    while let Some(rec) = next_record(drive, &mut warnings)? {
        match rec {
            DumpRecord::Bits { which, bits } => match which {
                WhichMap::Used => used = InoMap::from_bytes(bits),
                WhichMap::Dumped => dumped = InoMap::from_bytes(bits),
            },
            DumpRecord::Dir {
                ino,
                attrs,
                entries,
            } => {
                dirs.insert(ino, (attrs, entries));
            }
            other => {
                pending = Some(other);
                break;
            }
        }
    }
    Ok(StreamHead {
        root_ino,
        level,
        used,
        dumped,
        dirs,
        pending,
        warnings,
    })
}

/// Reads the next parseable record, skipping damaged ones with a warning.
pub(crate) fn next_record(
    drive: &mut dyn Media,
    warnings: &mut Vec<String>,
) -> Result<Option<DumpRecord>, DumpError> {
    loop {
        match drive.read_record() {
            Ok(rec) => match DumpRecord::parse(&rec) {
                Ok(parsed) => return Ok(Some(parsed)),
                Err(e) => warnings.push(format!("skipped unparseable record: {e}")),
            },
            Err(MediaError::EndOfData) => return Ok(None),
            Err(MediaError::BadRecord { index }) => {
                warnings.push(format!("skipped damaged tape record {index}"));
                drive.skip_record()?;
            }
            Err(e) => return Err(DumpError::Media(e)),
        }
    }
}

/// Restores a dump stream into the directory `target` (use "/" to restore
/// a whole-volume dump in place). Apply a level-0 stream first, then each
/// incremental in order.
///
/// Prefer [`crate::engine::BackupEngine`] (via [`crate::engine::LogicalEngine`])
/// for new callers; this free function remains as the low-level entry point
/// the engine delegates to.
pub fn restore(
    fs: &mut Wafl,
    drive: &mut dyn Media,
    target: &str,
) -> Result<RestoreOutcome, DumpError> {
    let profiler = Profiler::new();
    let meter = fs.meter();
    let costs = *fs.costs();
    let op_span = profiler.stage("logical restore", fs);

    // ---- Stage: read directories + create the tree ("creating files").
    let mut create_span = profiler.stage("creating files", fs);
    let mut head = read_stream_head(drive)?;
    let mut warnings = std::mem::take(&mut head.warnings);

    let target_root = fs.namei(target)?;
    let mut ino_map: BTreeMap<Ino, Ino> = BTreeMap::new();
    let mut deleted = 0u64;
    let mut dirs_done = 0u64;
    let mut files_created = 0u64;

    // DFS over the dumped directory tree; parents are created before
    // children by construction.
    let mut stack: Vec<(Ino, Ino)> = vec![(head.root_ino, target_root)];
    ino_map.insert(head.root_ino, target_root);
    if let Some((attrs, _)) = head.dirs.get(&head.root_ino) {
        // The dump root's own attributes apply to the target directory.
        fs.set_attrs(target_root, attrs.clone())?;
    }
    while let Some((old_dir, new_dir)) = stack.pop() {
        let Some((_, entries)) = head.dirs.get(&old_dir) else {
            continue;
        };
        dirs_done += 1;
        // Reconciliation: names on the target that the (authoritative)
        // dumped listing no longer has were deleted since the base.
        let existing = fs.readdir(new_dir)?;
        for (name, _) in existing {
            if !entries.iter().any(|e| e.name == name) {
                remove_recursive(fs, new_dir, &name)?;
                deleted += 1;
            }
        }
        for entry in entries.clone() {
            let name = entry.name;
            let old_child = entry.ino;
            let dir_attrs = if entry.kind == FileType::Dir {
                head.dirs.get(&old_child).map(|(a, _)| a.clone())
            } else {
                None
            };
            if let Some(attrs) = dir_attrs {
                let new_child = match fs.lookup(new_dir, &name) {
                    Ok(existing_ino) => {
                        // Permissions are set at creation for new dirs; for
                        // survivors, refresh them from the stream.
                        fs.set_attrs(existing_ino, attrs)?;
                        existing_ino
                    }
                    Err(WaflError::NotFound { .. }) => {
                        meter.charge_cpu(costs.restore_file);
                        fs.create(new_dir, &name, FileType::Dir, attrs)?
                    }
                    Err(e) => return Err(e.into()),
                };
                ino_map.insert(old_child, new_child);
                stack.push((old_child, new_child));
            } else if head.dumped.get(old_child) {
                // A file/symlink that will arrive in the data section:
                // (re)create it empty now — the "creating files" phase. A
                // source inode seen before is another name for the same
                // file: hard-link it instead.
                if fs.lookup(new_dir, &name).is_ok() {
                    fs.remove(new_dir, &name)?;
                }
                meter.charge_cpu(costs.restore_file);
                if let Some(&linked) = ino_map.get(&old_child) {
                    fs.link(new_dir, &name, linked)?;
                } else {
                    let new_child = match entry.kind {
                        FileType::Symlink => {
                            fs.create_symlink(new_dir, &name, "", Attrs::default())?
                        }
                        _ => fs.create(new_dir, &name, FileType::File, Attrs::default())?,
                    };
                    ino_map.insert(old_child, new_child);
                    files_created += 1;
                }
            }
            // Entries that are neither dumped dirs nor dumped files are
            // unchanged since the base dump; leave them alone.
        }
    }
    create_span.counts(files_created, dirs_done, 0);
    drop(create_span);

    // ---- Stage: stream the file contents ("filling in data").
    let mut fill_span = profiler.stage("filling in data", fs);
    let mut data_blocks = 0u64;
    let mut current: Option<(Ino, u64)> = None; // (new ino, final size)
    let mut end_seen = false;
    let mut rec = head.pending.take();
    loop {
        // Crash point: power loss mid-restore. A logical restore goes
        // through the file system, so a reboot replays NVRAM and the
        // recovery procedure is simply rerunning the restore (paper
        // footnote 2: restores legitimately bypass logging because an
        // interrupted restore just restarts).
        if power_fire(CrashPoint::Restore) {
            return Err(DumpError::Interrupted {
                point: CrashPoint::Restore,
            });
        }
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
                finalize_file(fs, &mut current)?;
                match ino_map.get(&ino) {
                    Some(&new_ino) => {
                        fs.set_attrs(new_ino, attrs)?;
                        current = Some((new_ino, size));
                    }
                    None => {
                        warnings.push(format!(
                            "file inode {ino} has no directory entry; skipping its data"
                        ));
                        current = None;
                    }
                }
            }
            DumpRecord::Data { ino, fbns, blocks } => {
                let target_ino = match current {
                    Some((new_ino, _)) if ino_map.get(&ino) == Some(&new_ino) => Some(new_ino),
                    _ => ino_map.get(&ino).copied(),
                };
                match target_ino {
                    Some(new_ino) => {
                        // Stream-parse cost, the mirror image of dump's
                        // format conversion.
                        meter.charge_cpu(costs.dump_format_block * fbns.len() as f64);
                        for (fbn, block) in fbns.into_iter().zip(blocks) {
                            fs.write_fbn(new_ino, fbn, block)?;
                            data_blocks += 1;
                        }
                    }
                    None => warnings.push(format!("stray data for undumped inode {ino}")),
                }
            }
            DumpRecord::End {
                files,
                data_blocks: expect_blocks,
                ..
            } => {
                finalize_file(fs, &mut current)?;
                end_seen = true;
                if files != files_created {
                    warnings.push(format!(
                        "trailer says {files} files but {files_created} were created"
                    ));
                }
                if expect_blocks != data_blocks {
                    warnings.push(format!(
                        "trailer says {expect_blocks} blocks but {data_blocks} were written"
                    ));
                }
            }
            other => warnings.push(format!("unexpected record in data section: {other:?}")),
        }
    }
    finalize_file(fs, &mut current)?;
    if !end_seen {
        warnings.push("stream ended without trailer".into());
    }
    fs.cp()?;
    fill_span.counts(files_created, 0, data_blocks);
    drop(fill_span);
    drop(op_span);

    Ok(RestoreOutcome {
        profiler,
        files: files_created,
        dirs: dirs_done,
        data_blocks,
        deleted,
        warnings,
        ino_map,
        level: head.level,
        used_inodes: head.used.count(),
    })
}

/// Applies the exact recorded size (captures trailing holes/truncation).
fn finalize_file(fs: &mut Wafl, current: &mut Option<(Ino, u64)>) -> Result<(), DumpError> {
    if let Some((ino, size)) = current.take() {
        fs.set_size(ino, size)?;
    }
    Ok(())
}

/// Removes a name and everything under it.
pub(crate) fn remove_recursive(fs: &mut Wafl, parent: Ino, name: &str) -> Result<(), WaflError> {
    let ino = fs.lookup(parent, name)?;
    if fs.stat(ino)?.ftype == FileType::Dir {
        let children = fs.readdir(ino)?;
        for (child_name, _) in children {
            remove_recursive(fs, ino, &child_name)?;
        }
    }
    fs.remove(parent, name)
}
