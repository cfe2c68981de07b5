//! The on-tape dump stream format.
//!
//! A dump stream is a sequence of tape records, each starting with a
//! literal-bytes header chunk. The format is *self-describing and
//! architecture neutral* (the paper's archival requirement): every integer
//! is little-endian at a documented offset, names are length-prefixed
//! UTF-8, and nothing in the stream refers to volume block numbers — which
//! is exactly why a logical stream restores onto any file system while an
//! image stream does not.
//!
//! Record types (the BSD `TS_*` naming is kept for recognizability):
//!
//! | type | meaning |
//! |------|---------|
//! | `TS_TAPE`  | stream header: level, dates, subtree root |
//! | `TS_BITS`  | inode bitmap: inodes in use / inodes dumped |
//! | `TS_DIR`   | one directory: attributes + entries |
//! | `TS_INODE` | one file's header: attributes, size |
//! | `TS_DATA`  | a run of that file's blocks (holes skipped) |
//! | `TS_END`   | trailer with totals for verification |

use blockdev::Block;
use simkit::media::Chunk;
use simkit::media::Record;
use wafl::types::Attrs;
use wafl::types::FileType;
use wafl::types::Ino;

/// Magic prefix of every record header ("WDMP").
pub const DUMP_MAGIC: u32 = 0x5744_4d50;
/// Format version.
pub const DUMP_VERSION: u8 = 1;

/// Maximum data blocks carried by one `TS_DATA` record (64 KiB of payload,
/// matching the dump read-ahead chunk).
pub const DATA_RUN: usize = 16;

/// Errors while writing or parsing a stream.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DumpError {
    /// The record is not a dump record or is structurally damaged.
    BadRecord {
        /// Why parsing failed.
        reason: String,
    },
    /// The stream ended unexpectedly or records arrived out of order.
    BadStream {
        /// What was expected.
        reason: String,
    },
    /// An unreadable media record was encountered (tape corruption, a
    /// poisoned network stream, ...).
    Media(simkit::media::MediaError),
    /// A file system error during dump or restore.
    Fs(wafl::WaflError),
    /// The requested path does not exist in the dump.
    NotInDump {
        /// The path looked for.
        path: String,
    },
    /// The machine lost power mid-operation (an armed
    /// [`simkit::crash::CrashPlan`] tripped). Recovery is a reboot:
    /// remount the file system and resume from the NVRAM checkpoint
    /// (dump) or rerun from the start (restore).
    Interrupted {
        /// The crash point that tripped.
        point: simkit::crash::CrashPoint,
    },
}

impl std::fmt::Display for DumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DumpError::BadRecord { reason } => write!(f, "bad dump record: {reason}"),
            DumpError::BadStream { reason } => write!(f, "bad dump stream: {reason}"),
            DumpError::Media(e) => write!(f, "media error: {e}"),
            DumpError::Fs(e) => write!(f, "file system error: {e}"),
            DumpError::NotInDump { path } => write!(f, "not in dump: {path}"),
            DumpError::Interrupted { point } => write!(f, "power loss at {point}"),
        }
    }
}

impl std::error::Error for DumpError {}

impl From<wafl::WaflError> for DumpError {
    fn from(e: wafl::WaflError) -> Self {
        DumpError::Fs(e)
    }
}

impl From<simkit::media::MediaError> for DumpError {
    fn from(e: simkit::media::MediaError) -> Self {
        DumpError::Media(e)
    }
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_name(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    put_u16(buf, s.len() as u16);
    buf.extend_from_slice(s.as_bytes());
}

/// Byte cursor for parsing headers.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn need(&self, n: usize) -> Result<(), DumpError> {
        if self.pos + n > self.buf.len() {
            Err(DumpError::BadRecord {
                reason: "truncated header".into(),
            })
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8, DumpError> {
        self.need(1)?;
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }

    fn u16(&mut self) -> Result<u16, DumpError> {
        self.need(2)?;
        let mut b = [0u8; 2];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 2]);
        self.pos += 2;
        Ok(u16::from_le_bytes(b))
    }

    fn u32(&mut self) -> Result<u32, DumpError> {
        self.need(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 4]);
        self.pos += 4;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, DumpError> {
        self.need(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(u64::from_le_bytes(b))
    }

    fn name(&mut self) -> Result<String, DumpError> {
        let len = self.u16()? as usize;
        self.need(len)?;
        let s = String::from_utf8_lossy(&self.buf[self.pos..self.pos + len]).into_owned();
        self.pos += len;
        Ok(s)
    }

    fn bytes(&mut self, n: usize) -> Result<Vec<u8>, DumpError> {
        self.need(n)?;
        let v = self.buf[self.pos..self.pos + n].to_vec();
        self.pos += n;
        Ok(v)
    }
}

/// Serializes attributes (shared by `TS_DIR` and `TS_INODE`).
fn put_attrs(buf: &mut Vec<u8>, attrs: &Attrs) {
    put_u16(buf, attrs.perm);
    put_u32(buf, attrs.uid);
    put_u32(buf, attrs.gid);
    put_u64(buf, attrs.mtime);
    put_u64(buf, attrs.ctime);
    put_u64(buf, attrs.atime);
    buf.push(attrs.dos_attrs);
    put_u64(buf, attrs.dos_time);
    put_name(buf, attrs.dos_name.as_deref().unwrap_or(""));
    let acl = attrs.nt_acl.as_deref().unwrap_or(&[]);
    put_u16(buf, acl.len() as u16);
    buf.extend_from_slice(acl);
}

fn read_attrs(r: &mut Reader<'_>) -> Result<Attrs, DumpError> {
    let perm = r.u16()?;
    let uid = r.u32()?;
    let gid = r.u32()?;
    let mtime = r.u64()?;
    let ctime = r.u64()?;
    let atime = r.u64()?;
    let dos_attrs = r.u8()?;
    let dos_time = r.u64()?;
    let dos_name = r.name()?;
    let acl_len = r.u16()? as usize;
    let acl = r.bytes(acl_len)?;
    Ok(Attrs {
        perm,
        uid,
        gid,
        mtime,
        ctime,
        atime,
        dos_attrs,
        dos_time,
        dos_name: if dos_name.is_empty() {
            None
        } else {
            Some(dos_name)
        },
        nt_acl: if acl.is_empty() { None } else { Some(acl) },
    })
}

/// Which bitmap a `TS_BITS` record carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WhichMap {
    /// Inodes in use in the dumped subtree at dump time (detects deletions
    /// between incrementals).
    Used,
    /// Inodes actually written to this stream (verifies restores).
    Dumped,
}

/// One directory entry as carried on tape. The kind byte lets restore
/// pre-create the right object (and spot hard links) before the inode
/// records stream in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name.
    pub name: String,
    /// Source inode.
    pub ino: Ino,
    /// What the entry points at.
    pub kind: FileType,
}

/// A parsed dump record.
#[derive(Debug, Clone, PartialEq)]
pub enum DumpRecord {
    /// Stream header.
    Tape {
        /// Incremental level 0–9.
        level: u8,
        /// Dump date (file system ticks).
        dump_date: u64,
        /// Date of the base dump this increments (0 for level 0).
        base_date: u64,
        /// Volume name.
        volume: String,
        /// Inode of the dumped subtree's root.
        root_ino: Ino,
        /// One past the largest inode in the source.
        max_ino: Ino,
    },
    /// An inode bitmap.
    Bits {
        /// Which map this is.
        which: WhichMap,
        /// Bit `i` set ⇔ inode `i` is in the map.
        bits: Vec<u8>,
    },
    /// One directory with its entries.
    Dir {
        /// The directory's inode in the source.
        ino: Ino,
        /// Directory attributes.
        attrs: Attrs,
        /// The directory's entries.
        entries: Vec<DirEntry>,
    },
    /// One file's (or symlink's) header.
    Inode {
        /// The file's inode in the source.
        ino: Ino,
        /// Exact byte size.
        size: u64,
        /// Number of allocated (non-hole) blocks that follow in `TS_DATA`.
        nblocks: u64,
        /// Regular file or symlink (a symlink's data is its target path).
        kind: FileType,
        /// File attributes.
        attrs: Attrs,
    },
    /// A run of file blocks.
    Data {
        /// Owning file inode.
        ino: Ino,
        /// File block number of each payload chunk, in order.
        fbns: Vec<u64>,
        /// The payload blocks.
        blocks: Vec<Block>,
    },
    /// Stream trailer.
    End {
        /// Files written.
        files: u64,
        /// Directories written.
        dirs: u64,
        /// Data blocks written.
        data_blocks: u64,
    },
}

const T_TAPE: u8 = 1;
const T_BITS: u8 = 2;
const T_DIR: u8 = 3;
const T_INODE: u8 = 4;
const T_DATA: u8 = 5;
const T_END: u8 = 6;

fn header(rec_type: u8) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_u32(&mut buf, DUMP_MAGIC);
    buf.push(DUMP_VERSION);
    buf.push(rec_type);
    buf
}

/// Converts a block payload to a tape chunk (synthetic payloads stay
/// compact; everything else is literal).
pub fn block_to_chunk(block: &Block) -> Chunk {
    match block {
        Block::Synthetic(seed) => Chunk::Synthetic {
            seed: *seed,
            len: blockdev::BLOCK_SIZE as u32,
        },
        other => Chunk::Bytes(other.materialize().to_vec()),
    }
}

/// Converts a tape chunk back to a block payload.
pub fn chunk_to_block(chunk: &Chunk) -> Result<Block, DumpError> {
    match chunk {
        Chunk::Synthetic { seed, len } if *len as usize == blockdev::BLOCK_SIZE => {
            Ok(Block::Synthetic(*seed))
        }
        Chunk::Synthetic { .. } => Err(DumpError::BadRecord {
            reason: "synthetic chunk of non-block size".into(),
        }),
        Chunk::Bytes(b) if b.len() == blockdev::BLOCK_SIZE => Ok(Block::from_bytes(b)),
        Chunk::Bytes(_) => Err(DumpError::BadRecord {
            reason: "data chunk of non-block size".into(),
        }),
    }
}

impl DumpRecord {
    /// Serializes into a tape record.
    pub fn to_record(&self) -> Record {
        match self {
            DumpRecord::Tape {
                level,
                dump_date,
                base_date,
                volume,
                root_ino,
                max_ino,
            } => {
                let mut h = header(T_TAPE);
                h.push(*level);
                put_u64(&mut h, *dump_date);
                put_u64(&mut h, *base_date);
                put_name(&mut h, volume);
                put_u32(&mut h, *root_ino);
                put_u32(&mut h, *max_ino);
                Record::from_bytes(h)
            }
            DumpRecord::Bits { which, bits } => {
                let mut h = header(T_BITS);
                h.push(match which {
                    WhichMap::Used => 0,
                    WhichMap::Dumped => 1,
                });
                put_u32(&mut h, bits.len() as u32);
                let mut rec = Record::from_bytes(h);
                rec.push(Chunk::Bytes(bits.clone()));
                rec
            }
            DumpRecord::Dir {
                ino,
                attrs,
                entries,
            } => {
                let mut h = header(T_DIR);
                put_u32(&mut h, *ino);
                put_attrs(&mut h, attrs);
                put_u32(&mut h, entries.len() as u32);
                let mut payload = Vec::new();
                for e in entries {
                    put_u32(&mut payload, e.ino);
                    payload.push(e.kind.to_tag());
                    put_name(&mut payload, &e.name);
                }
                let mut rec = Record::from_bytes(h);
                rec.push(Chunk::Bytes(payload));
                rec
            }
            DumpRecord::Inode {
                ino,
                size,
                nblocks,
                kind,
                attrs,
            } => {
                let mut h = header(T_INODE);
                put_u32(&mut h, *ino);
                put_u64(&mut h, *size);
                put_u64(&mut h, *nblocks);
                h.push(kind.to_tag());
                put_attrs(&mut h, attrs);
                // BSD dump prefixes each file with 1 KiB of header
                // meta-data; pad to keep the on-tape overhead realistic.
                h.resize(h.len().max(1024), 0);
                Record::from_bytes(h)
            }
            DumpRecord::Data { ino, fbns, blocks } => {
                let mut h = header(T_DATA);
                put_u32(&mut h, *ino);
                put_u32(&mut h, fbns.len() as u32);
                for &fbn in fbns {
                    put_u64(&mut h, fbn);
                }
                let mut rec = Record::from_bytes(h);
                for b in blocks {
                    rec.push(block_to_chunk(b));
                }
                rec
            }
            DumpRecord::End {
                files,
                dirs,
                data_blocks,
            } => {
                let mut h = header(T_END);
                put_u64(&mut h, *files);
                put_u64(&mut h, *dirs);
                put_u64(&mut h, *data_blocks);
                Record::from_bytes(h)
            }
        }
    }

    /// Parses a tape record.
    pub fn parse(rec: &Record) -> Result<DumpRecord, DumpError> {
        let chunks = rec.chunks();
        let head = match chunks.first() {
            Some(Chunk::Bytes(b)) => b,
            _ => {
                return Err(DumpError::BadRecord {
                    reason: "missing header chunk".into(),
                })
            }
        };
        let mut r = Reader::new(head);
        if r.u32()? != DUMP_MAGIC {
            return Err(DumpError::BadRecord {
                reason: "bad magic".into(),
            });
        }
        if r.u8()? != DUMP_VERSION {
            return Err(DumpError::BadRecord {
                reason: "unsupported version".into(),
            });
        }
        match r.u8()? {
            T_TAPE => Ok(DumpRecord::Tape {
                level: r.u8()?,
                dump_date: r.u64()?,
                base_date: r.u64()?,
                volume: r.name()?,
                root_ino: r.u32()?,
                max_ino: r.u32()?,
            }),
            T_BITS => {
                let which = match r.u8()? {
                    0 => WhichMap::Used,
                    1 => WhichMap::Dumped,
                    _ => {
                        return Err(DumpError::BadRecord {
                            reason: "unknown bitmap kind".into(),
                        })
                    }
                };
                let len = r.u32()? as usize;
                let bits = match chunks.get(1) {
                    Some(Chunk::Bytes(b)) if b.len() == len => b.clone(),
                    _ => {
                        return Err(DumpError::BadRecord {
                            reason: "bitmap payload mismatch".into(),
                        })
                    }
                };
                Ok(DumpRecord::Bits { which, bits })
            }
            T_DIR => {
                let ino = r.u32()?;
                let attrs = read_attrs(&mut r)?;
                let n = r.u32()? as usize;
                let payload = match chunks.get(1) {
                    Some(Chunk::Bytes(b)) => b,
                    _ => {
                        return Err(DumpError::BadRecord {
                            reason: "missing dir payload".into(),
                        })
                    }
                };
                let mut pr = Reader::new(payload);
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let child = pr.u32()?;
                    let kind =
                        FileType::from_tag(pr.u8()?).ok_or_else(|| DumpError::BadRecord {
                            reason: "bad entry kind".into(),
                        })?;
                    let name = pr.name()?;
                    entries.push(DirEntry {
                        name,
                        ino: child,
                        kind,
                    });
                }
                Ok(DumpRecord::Dir {
                    ino,
                    attrs,
                    entries,
                })
            }
            T_INODE => Ok(DumpRecord::Inode {
                ino: r.u32()?,
                size: r.u64()?,
                nblocks: r.u64()?,
                kind: {
                    let tag = r.u8()?;
                    match FileType::from_tag(tag) {
                        Some(FileType::File) => FileType::File,
                        Some(FileType::Symlink) => FileType::Symlink,
                        _ => {
                            return Err(DumpError::BadRecord {
                                reason: format!("bad inode kind {tag}"),
                            })
                        }
                    }
                },
                attrs: read_attrs(&mut r)?,
            }),
            T_DATA => {
                let ino = r.u32()?;
                let n = r.u32()? as usize;
                let mut fbns = Vec::with_capacity(n);
                for _ in 0..n {
                    fbns.push(r.u64()?);
                }
                if chunks.len() != n + 1 {
                    return Err(DumpError::BadRecord {
                        reason: format!("expected {n} data chunks, got {}", chunks.len() - 1),
                    });
                }
                let mut blocks = Vec::with_capacity(n);
                for c in &chunks[1..] {
                    blocks.push(chunk_to_block(c)?);
                }
                Ok(DumpRecord::Data { ino, fbns, blocks })
            }
            T_END => Ok(DumpRecord::End {
                files: r.u64()?,
                dirs: r.u64()?,
                data_blocks: r.u64()?,
            }),
            t => Err(DumpError::BadRecord {
                reason: format!("unknown record type {t}"),
            }),
        }
    }
}

/// An inode bitmap (the two `TS_BITS` maps).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InoMap {
    bits: Vec<u8>,
}

impl InoMap {
    /// An empty map sized for `max_ino` inodes.
    pub fn new(max_ino: Ino) -> InoMap {
        InoMap {
            bits: vec![0; (max_ino as usize).div_ceil(8)],
        }
    }

    /// Rebuilds from serialized bytes.
    pub fn from_bytes(bits: Vec<u8>) -> InoMap {
        InoMap { bits }
    }

    /// The serialized bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Sets inode `ino`.
    pub fn set(&mut self, ino: Ino) {
        let idx = ino as usize / 8;
        if idx >= self.bits.len() {
            self.bits.resize(idx + 1, 0);
        }
        self.bits[idx] |= 1 << (ino % 8);
    }

    /// Tests inode `ino`.
    pub fn get(&self, ino: Ino) -> bool {
        self.bits
            .get(ino as usize / 8)
            .map(|b| b & (1 << (ino % 8)) != 0)
            .unwrap_or(false)
    }

    /// Number of set bits.
    pub fn count(&self) -> u64 {
        self.bits.iter().map(|b| b.count_ones() as u64).sum()
    }

    /// Iterates set inodes.
    pub fn iter(&self) -> impl Iterator<Item = Ino> + '_ {
        self.bits.iter().enumerate().flat_map(|(i, &b)| {
            (0..8)
                .filter(move |bit| b & (1 << bit) != 0)
                .map(move |bit| (i * 8 + bit) as Ino)
        })
    }
}

/// The file type a dumped inode had (encoded in attrs? No — the record type
/// distinguishes: `TS_DIR` vs `TS_INODE`). Kept for cross-restore adapters.
pub fn record_file_type(rec: &DumpRecord) -> Option<FileType> {
    match rec {
        DumpRecord::Dir { .. } => Some(FileType::Dir),
        DumpRecord::Inode { .. } => Some(FileType::File),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs() -> Attrs {
        Attrs {
            perm: 0o755,
            uid: 10,
            gid: 20,
            mtime: 111,
            ctime: 222,
            atime: 333,
            dos_attrs: 0x20,
            dos_time: 444,
            dos_name: Some("SHORT~1".into()),
            nt_acl: Some(vec![1, 2, 3]),
        }
    }

    #[test]
    fn tape_header_round_trips() {
        let rec = DumpRecord::Tape {
            level: 3,
            dump_date: 1000,
            base_date: 500,
            volume: "home".into(),
            root_ino: 2,
            max_ino: 5000,
        };
        assert_eq!(DumpRecord::parse(&rec.to_record()).unwrap(), rec);
    }

    #[test]
    fn bits_round_trip() {
        let mut map = InoMap::new(100);
        map.set(2);
        map.set(7);
        map.set(99);
        let rec = DumpRecord::Bits {
            which: WhichMap::Used,
            bits: map.as_bytes().to_vec(),
        };
        let back = DumpRecord::parse(&rec.to_record()).unwrap();
        match back {
            DumpRecord::Bits { which, bits } => {
                assert_eq!(which, WhichMap::Used);
                let m = InoMap::from_bytes(bits);
                assert!(m.get(2) && m.get(7) && m.get(99));
                assert!(!m.get(3));
                assert_eq!(m.count(), 3);
                assert_eq!(m.iter().collect::<Vec<_>>(), vec![2, 7, 99]);
            }
            other => panic!("wrong record: {other:?}"),
        }
    }

    #[test]
    fn dir_round_trips_with_attrs() {
        let rec = DumpRecord::Dir {
            ino: 42,
            attrs: attrs(),
            entries: vec![
                DirEntry {
                    name: "hello".into(),
                    ino: 43,
                    kind: FileType::File,
                },
                DirEntry {
                    name: "world.txt".into(),
                    ino: 44,
                    kind: FileType::Symlink,
                },
            ],
        };
        assert_eq!(DumpRecord::parse(&rec.to_record()).unwrap(), rec);
    }

    #[test]
    fn inode_header_is_at_least_1k() {
        // Paper: "Each file and directory is prefixed with 1KB of header
        // meta-data."
        let rec = DumpRecord::Inode {
            ino: 7,
            size: 123,
            nblocks: 1,
            kind: FileType::File,
            attrs: attrs(),
        };
        let tape_rec = rec.to_record();
        assert!(tape_rec.len() >= 1024);
        assert_eq!(DumpRecord::parse(&tape_rec).unwrap(), rec);
    }

    #[test]
    fn data_round_trips_both_payload_kinds() {
        let rec = DumpRecord::Data {
            ino: 9,
            fbns: vec![0, 5, 6],
            blocks: vec![
                Block::Synthetic(77),
                Block::from_bytes(&[1, 2, 3]),
                Block::Zero,
            ],
        };
        let back = DumpRecord::parse(&rec.to_record()).unwrap();
        match back {
            DumpRecord::Data { ino, fbns, blocks } => {
                assert_eq!(ino, 9);
                assert_eq!(fbns, vec![0, 5, 6]);
                assert!(blocks[0].same_content(&Block::Synthetic(77)));
                assert!(blocks[1].same_content(&Block::from_bytes(&[1, 2, 3])));
                assert!(blocks[2].same_content(&Block::Zero));
            }
            other => panic!("wrong record: {other:?}"),
        }
    }

    #[test]
    fn end_round_trips() {
        let rec = DumpRecord::End {
            files: 10,
            dirs: 3,
            data_blocks: 500,
        };
        assert_eq!(DumpRecord::parse(&rec.to_record()).unwrap(), rec);
    }

    #[test]
    fn garbage_is_rejected() {
        let garbage = Record::from_bytes(vec![0xff; 64]);
        assert!(DumpRecord::parse(&garbage).is_err());
        let empty = Record::empty();
        assert!(DumpRecord::parse(&empty).is_err());
    }

    #[test]
    fn data_chunk_count_mismatch_is_rejected() {
        let rec = DumpRecord::Data {
            ino: 1,
            fbns: vec![0, 1],
            blocks: vec![Block::Zero, Block::Zero],
        };
        let mut tape_rec = rec.to_record();
        tape_rec.push(Chunk::Bytes(vec![0; blockdev::BLOCK_SIZE]));
        assert!(DumpRecord::parse(&tape_rec).is_err());
    }

    #[test]
    fn inomap_grows_on_demand() {
        let mut m = InoMap::new(8);
        m.set(1000);
        assert!(m.get(1000));
        assert!(!m.get(999));
    }
}
