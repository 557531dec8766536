//! Write-ahead log: append-only, CRC-checksummed, length-prefixed records.
//!
//! DIPS is a *disk-based* production system (paper §8); a crash must not
//! lose committed recognise–act cycles. This module supplies the log
//! mechanics — framing, checksums, group-commit fsync batching, redo-only
//! recovery with torn-tail truncation, rotation at checkpoints, and
//! injectable storage faults — and the one commit and recovery path its
//! two clients share: the core engine and DIPS both record a
//! transaction's working-memory changes in a [`Journal`], commit it with
//! [`Wal::commit`], and replay what [`Wal::attach`] recovers.
//!
//! ## On-disk format
//!
//! ```text
//! SORETWAL3\n                          (10-byte file magic)
//! [u64 generation]                     (little-endian rotation count)
//! [u32 len][u32 crc][kind byte + payload]   repeated
//! ```
//!
//! `len` counts the kind byte plus the payload, little-endian; `crc` is
//! CRC-32 (IEEE) over those same bytes. Record kinds: `1` = client op,
//! `2` = transaction commit marker, `3` = cycle-boundary marker (carries a
//! client payload, e.g. run statistics). Commit and cycle markers are both
//! *commit points*: recovery replays ops only up to the last intact marker
//! and truncates everything after it, so a torn or short tail can never
//! resurrect half a transaction (redo-only, no undo needed). A log with an
//! older magic (`SORETWAL2`, whose engine cycle markers carried a version
//! field) is refused with [`DbError::WalFormat`] and never truncated.
//!
//! The *generation* pairs a log with the checkpoint it extends. Every
//! [`Wal::rotate`] stamps the caller-supplied generation (rotation is
//! truncate-then-stamp, so a crash mid-rotation leaves the old, smaller
//! generation behind and is detectable). At open, clients compare the
//! log's generation against their checkpoint's ([`Wal::attach`]): equal
//! means replay; checkpoint one ahead means the crash hit between
//! checkpoint rename and log rotation, so the log's records are *stale* —
//! already folded into the checkpoint — and must be discarded, never
//! replayed on top of it.
//!
//! ## Failure hygiene
//!
//! A failed append must not leave half a transaction lying in the file
//! where a *later* commit marker would adopt it into the committed
//! prefix. On a clean injected failure the log truncates back to the
//! last commit point (dropping the whole half-appended batch); on a real
//! I/O error — where the bytes on disk are unknowable — it truncates
//! *and* poisons itself so every later call errors until reopen, which
//! re-runs recovery. Real fsync failures also poison: after `EIO` from
//! `fsync` the kernel may have dropped the dirty pages, so the only safe
//! continuation is recovery from the file itself.
//!
//! ## Durability knob
//!
//! [`WalOptions::group_commit`] batches fsyncs: `1` syncs at every commit
//! point (no committed work is ever lost); `n > 1` syncs every `n` commit
//! points, trading a bounded window of recent commits for fewer fsyncs —
//! the classic group-commit throughput lever (200 one-`modify` firings
//! take 202 flushes at `1` and 25 at `8`, pinned in `tests/durability.rs`).
//!
//! Appends are buffered in memory and hit the file as **one**
//! `write(2)` when the group-commit window closes (or at an explicit
//! [`Wal::sync`], rotation, or drop), so a window of `n` commits costs
//! one write syscall plus one fsync instead of one write per record.
//! The buffer never widens the loss window: everything the group-commit
//! policy promised durable has been both written *and* fsynced.

use crate::error::DbError;
use sorete_base::{Symbol, TimeTag, Value, Wme};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic for WAL files.
pub const WAL_MAGIC: &[u8] = b"SORETWAL3\n";
/// Header length: magic plus the little-endian u64 generation stamp.
const HEADER_LEN: usize = WAL_MAGIC.len() + 8;
/// Largest accepted record body (kind + payload); anything bigger is
/// treated as a corrupt length prefix during recovery.
const MAX_RECORD: u32 = 1 << 30;

const KIND_OP: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_CYCLE: u8 = 3;

/// Check a log's leading bytes: this format's magic passes; another
/// `SORETWALn` magic is the typed [`DbError::WalFormat`] naming it;
/// anything else is not a WAL at all.
fn check_magic(path: &Path, head: &[u8]) -> Result<(), DbError> {
    let head = &head[..head.len().min(WAL_MAGIC.len())];
    if head == WAL_MAGIC {
        return Ok(());
    }
    let stem = &WAL_MAGIC[..WAL_MAGIC.len() - 2];
    match head {
        [s @ .., digit, b'\n'] if s == stem && digit.is_ascii_digit() => Err(DbError::WalFormat {
            path: format!("{:?}", path),
            format: String::from_utf8_lossy(&head[..head.len() - 1]).into_owned(),
        }),
        _ => Err(DbError::Corrupt(format!(
            "{:?} is not a WAL (bad magic)",
            path
        ))),
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Options, stats, fault injection.

/// Tuning knobs for a [`Wal`].
#[derive(Clone, Copy, Debug)]
pub struct WalOptions {
    /// Fsync every `group_commit` commit points (1 = every commit).
    pub group_commit: u32,
}

impl Default for WalOptions {
    fn default() -> WalOptions {
        WalOptions { group_commit: 1 }
    }
}

/// Counters for one WAL session (see the metrics registry's
/// `sorete_wal_*` families).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended this session.
    pub records: u64,
    /// Bytes appended this session (frames, not counting the file magic).
    pub bytes: u64,
    /// Commit points appended (commit + cycle markers).
    pub commits: u64,
    /// Fsyncs issued.
    pub fsyncs: u64,
    /// `write(2)` calls issued (buffered frames flush as one write per
    /// group-commit window, so this is far below `records`).
    pub writes: u64,
    /// Committed records replayed by recovery at open.
    pub recovered_records: u64,
    /// Intact-but-uncommitted tail records discarded by recovery.
    pub discarded_records: u64,
    /// Tail bytes truncated by recovery (torn/short/uncommitted frames).
    pub truncated_bytes: u64,
    /// Transient (retryable) append failures surfaced this session.
    pub transient_errors: u64,
    /// Generation stamp found in (or written to) the header: the number
    /// of checkpoint rotations this log lineage has been through.
    pub generation: u64,
}

/// What an injected storage fault does (mirrors the RHS-level
/// `FaultPlan` from the engine, one layer down).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFaultKind {
    /// The append fails cleanly: nothing from the frame reaches the file,
    /// and the log truncates back to the last commit point (dropping any
    /// earlier records of the same uncommitted batch).
    Fail,
    /// Half the frame reaches the file, then the "machine dies"
    /// (the WAL poisons itself; every later call errors).
    ShortWrite,
    /// The whole frame reaches the file but with a flipped payload byte
    /// (a torn sector), then the "machine dies".
    TornWrite,
    /// The append succeeds but the next fsync fails and the WAL poisons
    /// itself (a dying disk acknowledging writes it cannot persist).
    FsyncError,
    /// A *transient* clean failure: the first `fail_n` appends at or after
    /// [`IoFaultPlan::at`] fail exactly like [`IoFaultKind::Fail`] (batch
    /// dropped, log **not** poisoned), then the storage "heals" and appends
    /// succeed again. This is the sweep-testable model for the retryable
    /// errors (ENOSPC races, NFS hiccups) the supervisor's backoff loop
    /// exists for.
    Transient {
        /// How many consecutive append attempts fail before healing.
        fail_n: u32,
    },
}

/// Inject `kind` on the `at`-th record append (0-based, counted across
/// the whole WAL session).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoFaultPlan {
    /// What goes wrong.
    pub kind: IoFaultKind,
    /// Which record append triggers it.
    pub at: u64,
}

impl IoFaultPlan {
    /// Fault of `kind` on the `n`-th appended record.
    pub fn nth(kind: IoFaultKind, n: u64) -> IoFaultPlan {
        IoFaultPlan { kind, at: n }
    }
}

/// One problem found by the read-only [`Wal::scan`] pass. The first four
/// are exactly the conditions the recovery scanner repairs by truncation;
/// fsck reports them without touching the file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalDefect {
    /// The generation stamp never fully landed (crash while creating a
    /// brand-new log).
    TornHeader {
        /// Stray bytes after the magic.
        bytes: u64,
    },
    /// A length prefix that cannot be a real frame (zero or absurd).
    CorruptLength {
        /// File offset of the frame header.
        offset: u64,
    },
    /// A frame whose body runs past end-of-file (torn final write).
    TornTail {
        /// File offset of the frame header.
        offset: u64,
        /// Bytes missing from the declared frame.
        missing: u64,
    },
    /// A length-intact frame failing its checksum (torn sector, bit rot).
    BadCrc {
        /// File offset of the frame header.
        offset: u64,
    },
    /// A record kind byte this version does not know.
    UnknownKind {
        /// File offset of the frame header.
        offset: u64,
        /// The unknown kind byte.
        kind: u8,
    },
    /// Intact op records after the last commit point — the normal shape of
    /// a crash mid-batch; recovery discards them rather than replaying.
    UncommittedTail {
        /// How many intact records sit past the last commit point.
        records: u64,
        /// Their total framed size.
        bytes: u64,
    },
}

impl fmt::Display for WalDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalDefect::TornHeader { bytes } => {
                write!(f, "torn header: {} stray bytes after magic", bytes)
            }
            WalDefect::CorruptLength { offset } => {
                write!(f, "corrupt length prefix at offset {}", offset)
            }
            WalDefect::TornTail { offset, missing } => {
                write!(
                    f,
                    "torn tail at offset {} ({} bytes missing)",
                    offset, missing
                )
            }
            WalDefect::BadCrc { offset } => write!(f, "checksum mismatch at offset {}", offset),
            WalDefect::UnknownKind { offset, kind } => {
                write!(f, "unknown record kind {} at offset {}", kind, offset)
            }
            WalDefect::UncommittedTail { records, bytes } => {
                write!(
                    f,
                    "uncommitted tail: {} record(s), {} bytes past last commit point",
                    records, bytes
                )
            }
        }
    }
}

/// What a read-only [`Wal::scan`] saw. `recoverable` distinguishes the
/// defects the recovery scanner repairs by design (torn/uncommitted tails)
/// from nothing-wrong; a bad magic is an error, not a scan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalScan {
    /// Header generation stamp.
    pub generation: u64,
    /// Records inside the committed prefix.
    pub committed_records: u64,
    /// Commit points (commit + cycle markers) inside the committed prefix.
    pub commit_points: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// End of the committed prefix (what recovery would truncate to).
    pub committed_bytes: u64,
    /// Everything wrong with the tail, in file order.
    pub defects: Vec<WalDefect>,
}

/// A record recovered from the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A client operation payload.
    Op(Vec<u8>),
    /// A transaction commit marker.
    Commit,
    /// A cycle-boundary marker with its client payload.
    Cycle(Vec<u8>),
}

// ---------------------------------------------------------------------------
// The log.

/// An append-only write-ahead log over one file.
pub struct Wal {
    file: File,
    path: PathBuf,
    opts: WalOptions,
    stats: WalStats,
    /// Record appends this session, for [`IoFaultPlan::at`] matching.
    appended: u64,
    /// Commit points since the last fsync (group commit).
    unsynced_commits: u32,
    /// Header generation stamp (see the module docs).
    generation: u64,
    /// *Logical* offset of the append cursor: file bytes plus buffered
    /// bytes (`end == flushed + buf.len()`).
    end: u64,
    /// Logical offset just past the last commit-point frame (or the
    /// header): the truncation target when a half-appended batch must be
    /// dropped. May point into the buffer.
    tail_base: u64,
    /// Physical file length: everything at or below this offset has been
    /// handed to the OS (though not necessarily fsynced).
    flushed: u64,
    /// Frames appended but not yet written to the file. Flushed as one
    /// `write(2)` when the group-commit window closes (see module docs).
    buf: Vec<u8>,
    /// Reused text buffer a journal op's payload is encoded into.
    text: String,
    fault: Option<IoFaultPlan>,
    /// Transient failures already delivered (see [`IoFaultKind::Transient`]).
    transient_spent: u32,
    /// After a crash (simulated or real) every call errors until reopen.
    poisoned: bool,
    /// Armed by an [`IoFaultKind::FsyncError`] append; fires at next sync.
    fsync_fault_armed: bool,
    /// Span recorder for `wal_append` / `wal_flush` / `wal_fsync`
    /// intervals; disabled (free) unless the client installs one.
    spans: sorete_base::Spans,
}

impl Wal {
    /// Read-only diagnostic scan for `sorete fsck`: walk the framing
    /// exactly like [`Wal::recover`] but report every defect instead of
    /// truncating. Never modifies the file. Errors only when the file is
    /// missing, unreadable, or not a WAL at all (bad magic).
    pub fn scan(path: &Path) -> Result<WalScan, DbError> {
        let buf =
            std::fs::read(path).map_err(|e| DbError::Io(format!("read wal {:?}: {}", path, e)))?;
        let mut scan = WalScan {
            file_bytes: buf.len() as u64,
            ..WalScan::default()
        };
        if buf.is_empty() {
            return Ok(scan);
        }
        check_magic(path, &buf)?;
        if buf.len() < HEADER_LEN {
            scan.defects.push(WalDefect::TornHeader {
                bytes: (buf.len() - WAL_MAGIC.len()) as u64,
            });
            scan.committed_bytes = WAL_MAGIC.len() as u64;
            return Ok(scan);
        }
        scan.generation = u64::from_le_bytes(buf[WAL_MAGIC.len()..HEADER_LEN].try_into().unwrap());
        let mut pos = HEADER_LEN;
        let mut last_commit_end = pos;
        let mut committed = 0u64;
        let mut pending = 0u64;
        while pos + 8 <= buf.len() {
            let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
            let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
            if len == 0 || len > MAX_RECORD {
                scan.defects
                    .push(WalDefect::CorruptLength { offset: pos as u64 });
                break;
            }
            let end = pos + 8 + len as usize;
            if end > buf.len() {
                scan.defects.push(WalDefect::TornTail {
                    offset: pos as u64,
                    missing: (end - buf.len()) as u64,
                });
                break;
            }
            let body = &buf[pos + 8..end];
            if crc32(body) != crc {
                scan.defects.push(WalDefect::BadCrc { offset: pos as u64 });
                break;
            }
            match body[0] {
                KIND_OP => pending += 1,
                KIND_COMMIT | KIND_CYCLE => {
                    pending += 1;
                    committed += pending;
                    pending = 0;
                    last_commit_end = end;
                    scan.commit_points += 1;
                }
                kind => {
                    scan.defects.push(WalDefect::UnknownKind {
                        offset: pos as u64,
                        kind,
                    });
                    break;
                }
            }
            pos = end;
        }
        if pos + 8 > buf.len() && pos < buf.len() {
            // A partial frame header (fewer than 8 bytes) is a torn tail
            // the loop above never entered.
            scan.defects.push(WalDefect::TornTail {
                offset: pos as u64,
                missing: (pos + 8 - buf.len()) as u64,
            });
        }
        if pending > 0 {
            scan.defects.push(WalDefect::UncommittedTail {
                records: pending,
                bytes: (pos - last_commit_end) as u64,
            });
        }
        scan.committed_records = committed;
        scan.committed_bytes = last_commit_end as u64;
        Ok(scan)
    }

    /// Scan `path` without opening it for writing: return the committed
    /// record prefix and recovery counters, and truncate any torn, short,
    /// corrupt, or uncommitted tail in place. A missing file recovers to
    /// an empty log.
    pub fn recover(path: &Path) -> Result<(Vec<WalRecord>, WalStats), DbError> {
        let mut stats = WalStats::default();
        let buf = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), stats)),
            Err(e) => return Err(DbError::Io(format!("read wal {:?}: {}", path, e))),
        };
        if buf.is_empty() {
            return Ok((Vec::new(), stats));
        }
        check_magic(path, &buf)?;
        if buf.len() < HEADER_LEN {
            // Torn initial header: the generation stamp never fully landed,
            // which can only happen while creating a brand-new (gen 0) log.
            stats.truncated_bytes = (buf.len() - WAL_MAGIC.len()) as u64;
            let f = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| DbError::Io(format!("open wal {:?} for truncation: {}", path, e)))?;
            f.set_len(WAL_MAGIC.len() as u64)
                .map_err(|e| DbError::Io(format!("truncate wal {:?}: {}", path, e)))?;
            return Ok((Vec::new(), stats));
        }
        stats.generation = u64::from_le_bytes(buf[WAL_MAGIC.len()..HEADER_LEN].try_into().unwrap());
        let mut pos = HEADER_LEN;
        let mut last_commit_end = pos;
        let mut committed: Vec<WalRecord> = Vec::new();
        let mut pending: Vec<WalRecord> = Vec::new();
        while pos + 8 <= buf.len() {
            let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
            let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
            if len == 0 || len > MAX_RECORD {
                break; // corrupt length prefix
            }
            let end = pos + 8 + len as usize;
            if end > buf.len() {
                break; // short (torn) tail
            }
            let body = &buf[pos + 8..end];
            if crc32(body) != crc {
                break; // torn sector / bit rot
            }
            match body[0] {
                KIND_OP => pending.push(WalRecord::Op(body[1..].to_vec())),
                KIND_COMMIT => {
                    pending.push(WalRecord::Commit);
                    committed.append(&mut pending);
                    last_commit_end = end;
                }
                KIND_CYCLE => {
                    pending.push(WalRecord::Cycle(body[1..].to_vec()));
                    committed.append(&mut pending);
                    last_commit_end = end;
                }
                _ => break, // unknown kind: treat as corruption
            }
            pos = end;
        }
        stats.recovered_records = committed.len() as u64;
        stats.discarded_records = pending.len() as u64;
        stats.truncated_bytes = (buf.len() - last_commit_end) as u64;
        if stats.truncated_bytes > 0 {
            let f = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| DbError::Io(format!("open wal {:?} for truncation: {}", path, e)))?;
            f.set_len(last_commit_end as u64)
                .map_err(|e| DbError::Io(format!("truncate wal {:?}: {}", path, e)))?;
        }
        Ok((committed, stats))
    }

    /// Open `path` for appending, running [`Wal::recover`] first. Returns
    /// the log handle and the committed records to replay (empty for a new
    /// file).
    pub fn open(path: &Path, opts: WalOptions) -> Result<(Wal, Vec<WalRecord>), DbError> {
        let (records, rec_stats) = Wal::recover(path)?;
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| DbError::Io(format!("open wal {:?}: {}", path, e)))?;
        let len = file
            .seek(SeekFrom::End(0))
            .map_err(|e| DbError::Io(format!("seek wal {:?}: {}", path, e)))?;
        let end = if len < HEADER_LEN as u64 {
            // New file, or a torn initial header truncated back to the
            // magic by recovery: (re)write the full header, generation 0.
            file.set_len(0)
                .and_then(|_| file.seek(SeekFrom::Start(0)))
                .and_then(|_| file.write_all(WAL_MAGIC))
                .and_then(|_| file.write_all(&0u64.to_le_bytes()))
                .and_then(|_| file.sync_data())
                .map_err(|e| DbError::Io(format!("init wal {:?}: {}", path, e)))?;
            HEADER_LEN as u64
        } else {
            // Sanity: recover() validated the magic unless the file was
            // empty, but re-check in case of a race with another writer.
            let mut magic = [0u8; WAL_MAGIC.len()];
            file.seek(SeekFrom::Start(0))
                .and_then(|_| file.read_exact(&mut magic))
                .map_err(|e| DbError::Io(format!("read wal magic {:?}: {}", path, e)))?;
            check_magic(path, &magic)?;
            file.seek(SeekFrom::End(0))
                .map_err(|e| DbError::Io(format!("seek wal {:?}: {}", path, e)))?
        };
        let stats = WalStats {
            recovered_records: rec_stats.recovered_records,
            discarded_records: rec_stats.discarded_records,
            truncated_bytes: rec_stats.truncated_bytes,
            generation: rec_stats.generation,
            ..WalStats::default()
        };
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                opts,
                stats,
                appended: 0,
                unsynced_commits: 0,
                generation: rec_stats.generation,
                end,
                tail_base: end,
                flushed: end,
                buf: Vec::new(),
                text: String::new(),
                fault: None,
                transient_spent: 0,
                poisoned: false,
                fsync_fault_armed: false,
                spans: sorete_base::Spans::null(),
            },
            records,
        ))
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Session counters.
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }

    /// The header's generation stamp (checkpoint-rotation count).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Install a span recorder: append, group-commit flush, and fsync
    /// intervals are recorded as `wal_append`/`wal_flush`/`wal_fsync`
    /// spans on the caller's lane (0).
    pub fn set_spans(&mut self, spans: sorete_base::Spans) {
        self.spans = spans;
    }

    /// Arm a storage fault (see [`IoFaultPlan`]).
    pub fn inject_fault(&mut self, plan: IoFaultPlan) {
        self.fault = Some(plan);
        self.transient_spent = 0;
    }

    /// Whether a crash (simulated or real) has retired this handle. A
    /// poisoned log is *not* retryable: the bytes on disk are unknowable
    /// and only reopen (which re-runs recovery) re-establishes the truth.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Append a client op record (not yet committed).
    pub fn append_op(&mut self, payload: &[u8]) -> Result<(), DbError> {
        self.append_record(KIND_OP, payload)
    }

    /// Append a transaction commit marker — a commit point: everything
    /// since the previous marker becomes durable per the group-commit
    /// policy.
    pub fn append_commit(&mut self) -> Result<(), DbError> {
        self.append_record(KIND_COMMIT, &[])?;
        self.commit_point()
    }

    /// Commit one transaction: append `ops`, each encoded straight into
    /// the frame buffer, then its commit point — a cycle-boundary marker
    /// carrying `cycle` (e.g. run statistics), or a plain commit marker.
    /// An asserted tag's WME is read through `wme` (the client's working
    /// memory), or from the journal's own later removal of it. A failed
    /// append leaves the log at its last commit point (see the module
    /// docs), so unless the log is poisoned the caller may commit the
    /// same ops again.
    pub fn commit<'a>(
        &mut self,
        ops: &'a [JournalOp],
        wme: impl Fn(TimeTag) -> Option<&'a Wme>,
        cycle: Option<&[u8]>,
    ) -> Result<(), DbError> {
        let mut text = std::mem::take(&mut self.text);
        let r = self.append_journal(ops, wme, &mut text);
        self.text = text;
        r?;
        match cycle {
            Some(payload) => {
                self.append_record(KIND_CYCLE, payload)?;
                self.commit_point()
            }
            None => self.append_commit(),
        }
    }

    fn append_journal<'a>(
        &mut self,
        ops: &'a [JournalOp],
        wme: impl Fn(TimeTag) -> Option<&'a Wme>,
        text: &mut String,
    ) -> Result<(), DbError> {
        for (i, op) in ops.iter().enumerate() {
            text.clear();
            match op {
                JournalOp::Assert(tag) => {
                    let later = || {
                        ops[i + 1..].iter().find_map(|o| match o {
                            JournalOp::Removed(w) if w.tag == *tag => Some(w),
                            _ => None,
                        })
                    };
                    let Some(w) = wme(*tag).or_else(later) else {
                        self.abort_tail(false);
                        return Err(DbError::Corrupt(format!(
                            "the journal asserts t{} but no WME carries it",
                            tag.raw()
                        )));
                    };
                    push_assert(text, w);
                }
                JournalOp::Removed(w) => push_retract(text, w.tag),
                JournalOp::Update(tag, updates) => push_update(text, *tag, updates),
            }
            self.append_record(KIND_OP, text.as_bytes())?;
        }
        Ok(())
    }

    /// Retire the handle because the client's state ran ahead of the log
    /// (it applied a change the log then refused). Commits still buffered
    /// are intact and reach the file first; after that every call errors
    /// until reopen, which recovers the last commit point.
    pub fn poison(&mut self) {
        if !self.poisoned {
            let _ = self.flush();
            self.poisoned = true;
        }
    }

    /// Open `path` for a client whose state descends from checkpoint
    /// generation `generation` (0 without one), and return the committed
    /// transactions to replay on top of that state. Pairing: a log of the
    /// same generation replays; a log one generation behind (a crash
    /// between checkpoint rename and log rotation) or a brand-new empty
    /// log under a resumed checkpoint is stale — its records are already
    /// in the checkpoint, so they are counted, discarded and the log
    /// rotated to `generation`; any other log is [`DbError::Unpaired`].
    pub fn attach(
        path: &Path,
        opts: WalOptions,
        generation: u64,
    ) -> Result<(Wal, Recovered), DbError> {
        let (mut wal, records) = Wal::open(path, opts)?;
        let mut recovered = Recovered::default();
        if wal.generation == generation {
            let mut ops = Vec::new();
            for rec in records {
                let cycle = match rec {
                    WalRecord::Op(payload) => {
                        ops.push(decode_wme_op(&payload)?);
                        continue;
                    }
                    WalRecord::Commit => None,
                    WalRecord::Cycle(payload) => Some(payload),
                };
                recovered.transactions.push(CommittedTx {
                    ops: std::mem::take(&mut ops),
                    cycle,
                });
            }
            // `Wal::open` only returns the committed prefix.
            debug_assert!(ops.is_empty(), "uncommitted records survived recovery");
        } else if wal.generation + 1 == generation || (wal.generation == 0 && records.is_empty()) {
            recovered.stale_records = records.len() as u64;
            wal.rotate(generation)?;
        } else {
            return Err(DbError::Unpaired {
                wal: wal.generation,
                checkpoint: generation,
            });
        }
        Ok((wal, recovered))
    }

    fn commit_point(&mut self) -> Result<(), DbError> {
        self.stats.commits += 1;
        self.unsynced_commits += 1;
        if self.unsynced_commits >= self.opts.group_commit.max(1) {
            self.sync()?;
        }
        Ok(())
    }

    /// Flush and fsync now, regardless of the group-commit window.
    ///
    /// A *real* fsync failure poisons the log: after `EIO` the kernel may
    /// have dropped the dirty pages, so the in-memory picture of what is
    /// durable can no longer be trusted — only reopening (which re-runs
    /// recovery against the file itself) re-establishes it.
    pub fn sync(&mut self) -> Result<(), DbError> {
        let sp = self.spans.begin();
        let r = self.sync_inner();
        let spans = self.spans.clone();
        spans.end(sp, sorete_base::span::category::WAL_FSYNC, Vec::new);
        r
    }

    fn sync_inner(&mut self) -> Result<(), DbError> {
        if self.poisoned {
            return Err(DbError::Io("wal poisoned by crash".into()));
        }
        self.flush()?;
        if self.fsync_fault_armed {
            self.fsync_fault_armed = false;
            self.poisoned = true;
            return Err(DbError::Io("injected fsync failure".into()));
        }
        if let Err(e) = self.file.sync_data() {
            self.poisoned = true;
            return Err(DbError::Io(format!("fsync wal {:?}: {}", self.path, e)));
        }
        self.stats.fsyncs += 1;
        self.unsynced_commits = 0;
        Ok(())
    }

    /// Hand the buffered frames to the OS as a single `write(2)`. On a
    /// real I/O error an unknown prefix of the buffer may be on disk:
    /// truncate the file back to the last known-good length and retire
    /// the handle (the failed window's commits were never acknowledged
    /// as durable, so dropping them whole is honest).
    fn flush(&mut self) -> Result<(), DbError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let bytes = self.buf.len() as u64;
        let sp = self.spans.begin();
        let r = self.flush_inner();
        let spans = self.spans.clone();
        spans.end(sp, sorete_base::span::category::WAL_FLUSH, || {
            vec![("bytes", bytes)]
        });
        r
    }

    fn flush_inner(&mut self) -> Result<(), DbError> {
        if let Err(e) = self.file.write_all(&self.buf) {
            self.poisoned = true;
            self.buf.clear();
            let ok = self.file.set_len(self.flushed).is_ok()
                && self.file.seek(SeekFrom::Start(self.flushed)).is_ok();
            if ok {
                self.end = self.flushed;
                self.tail_base = self.tail_base.min(self.end);
            }
            return Err(DbError::Io(format!("flush wal {:?}: {}", self.path, e)));
        }
        self.flushed += self.buf.len() as u64;
        self.buf.clear();
        self.stats.writes += 1;
        Ok(())
    }

    /// Rotate after a checkpoint: the checkpoint file now carries all
    /// state, so the log restarts empty under the checkpoint's
    /// `generation` stamp. Order matters: truncate *first*, then stamp —
    /// a crash in between leaves an empty log still carrying the old
    /// generation, which clients detect as stale (checkpoint one ahead)
    /// rather than silently replaying old records under the new stamp.
    pub fn rotate(&mut self, generation: u64) -> Result<(), DbError> {
        if self.poisoned {
            return Err(DbError::Io("wal poisoned by crash".into()));
        }
        // Buffered frames are already folded into the checkpoint this
        // rotation serves; they must not survive into the fresh log.
        self.buf.clear();
        let r = self
            .file
            .set_len(HEADER_LEN as u64)
            .and_then(|_| self.file.seek(SeekFrom::Start(WAL_MAGIC.len() as u64)))
            .and_then(|_| self.file.write_all(&generation.to_le_bytes()))
            .and_then(|_| self.file.sync_data())
            .and_then(|_| self.file.seek(SeekFrom::End(0)));
        match r {
            Ok(_) => {
                self.generation = generation;
                self.stats.generation = generation;
                self.end = HEADER_LEN as u64;
                self.tail_base = self.end;
                self.flushed = self.end;
                self.stats.fsyncs += 1;
                self.unsynced_commits = 0;
                Ok(())
            }
            Err(e) => {
                // The file may be anywhere between truncated and stamped;
                // refuse further use until reopen re-derives the truth.
                self.poisoned = true;
                Err(DbError::Io(format!("rotate wal {:?}: {}", self.path, e)))
            }
        }
    }

    /// Drop a half-appended batch: truncate back to the last commit point
    /// so no later marker can adopt its records into the committed
    /// prefix. `poison` additionally retires the handle (used when the
    /// on-disk bytes are unknowable after a real I/O error).
    fn abort_tail(&mut self, poison: bool) {
        if poison {
            self.poisoned = true;
        }
        if self.tail_base >= self.flushed {
            // The whole uncommitted tail is still buffered; dropping it is
            // a memory truncation, no file surgery needed.
            self.buf.truncate((self.tail_base - self.flushed) as usize);
            self.end = self.tail_base;
            return;
        }
        // An explicit sync() flushed uncommitted frames mid-batch: cut the
        // file back to the last commit point too.
        self.buf.clear();
        let ok = self.file.set_len(self.tail_base).is_ok()
            && self.file.seek(SeekFrom::Start(self.tail_base)).is_ok();
        if ok {
            self.end = self.tail_base;
            self.flushed = self.tail_base;
        } else {
            // Couldn't even truncate: the orphan bytes stay, so the handle
            // must never append a marker that would commit them.
            self.poisoned = true;
        }
    }

    fn append_record(&mut self, kind: u8, payload: &[u8]) -> Result<(), DbError> {
        let sp = self.spans.begin();
        let r = self.append_record_inner(kind, payload);
        let spans = self.spans.clone();
        spans.end(sp, sorete_base::span::category::WAL_APPEND, Vec::new);
        r
    }

    fn append_record_inner(&mut self, kind: u8, payload: &[u8]) -> Result<(), DbError> {
        if self.poisoned {
            return Err(DbError::Io("wal poisoned by crash".into()));
        }
        let n = self.appended;
        self.appended += 1;
        // The frame is built in place at the end of the buffer: header
        // (its checksum patched in once the body is there), kind, payload.
        let start = self.buf.len();
        let len = 1 + payload.len() as u32;
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(&[0; 4]);
        self.buf.push(kind);
        self.buf.extend_from_slice(payload);
        let crc = crc32(&self.buf[start + 8..]);
        self.buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        let frame_len = (self.buf.len() - start) as u64;
        if let Some(plan) = self.fault {
            // Transient faults fire on every append at or after `at` until
            // `fail_n` failures have been delivered — retried appends get
            // fresh record indices, so an exact-index match would let a
            // single retry "skip past" the outage.
            if let IoFaultKind::Transient { fail_n } = plan.kind {
                if n >= plan.at && self.transient_spent < fail_n {
                    self.transient_spent += 1;
                    self.stats.transient_errors += 1;
                    self.buf.truncate(start);
                    self.abort_tail(false);
                    return Err(DbError::Io(format!(
                        "injected transient append failure at record {} ({}/{})",
                        n, self.transient_spent, fail_n
                    )));
                }
            } else if plan.at == n {
                match plan.kind {
                    IoFaultKind::Transient { .. } => unreachable!("handled above"),
                    IoFaultKind::Fail => {
                        // Clean failure: nothing from *this* frame reached
                        // the file, but earlier records of the same batch
                        // did — drop them too, or a later marker would
                        // commit a half-logged transaction.
                        self.buf.truncate(start);
                        self.abort_tail(false);
                        return Err(DbError::Io(format!(
                            "injected append failure at record {}",
                            n
                        )));
                    }
                    IoFaultKind::ShortWrite => {
                        // Flush earlier buffered frames first so the file
                        // shows the same crash shape as an unbuffered log:
                        // the batch prefix intact, this frame torn in half.
                        let frame = self.buf.split_off(start);
                        let _ = self.flush();
                        let cut = frame.len() / 2;
                        let _ = self.file.write_all(&frame[..cut]);
                        let _ = self.file.sync_data();
                        self.poisoned = true;
                        return Err(DbError::Io(format!(
                            "injected short write at record {} ({} of {} bytes)",
                            n,
                            cut,
                            frame.len()
                        )));
                    }
                    IoFaultKind::TornWrite => {
                        // Flip a payload byte so the frame is length-intact
                        // but fails its checksum.
                        let mut frame = self.buf.split_off(start);
                        let _ = self.flush();
                        let i = frame.len() - 1;
                        frame[i] ^= 0x40;
                        let _ = self.file.write_all(&frame);
                        let _ = self.file.sync_data();
                        self.poisoned = true;
                        return Err(DbError::Io(format!("injected torn write at record {}", n)));
                    }
                    IoFaultKind::FsyncError => {
                        self.fsync_fault_armed = true;
                        // The write itself "succeeds"; the sync will not.
                    }
                }
            }
        }
        // Buffered append: the frame reaches the file at the next flush
        // (commit-window close, explicit sync, rotation, or drop). Real
        // write errors therefore surface in flush(), which truncates the
        // partial window away and poisons the handle.
        self.end += frame_len;
        if kind != KIND_OP {
            self.tail_base = self.end;
        }
        self.stats.records += 1;
        self.stats.bytes += frame_len;
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Hand any buffered frames to the OS (matching the unbuffered
        // log, whose appends always reached the page cache even when the
        // final fsync window never closed). Errors are moot here: nothing
        // in the buffer was ever acknowledged as durable.
        if !self.poisoned && !self.buf.is_empty() {
            let _ = self.file.write_all(&self.buf);
        }
    }
}

// ---------------------------------------------------------------------------
// Transactions and the shared WME-op payload codec.
//
// Both the core engine and DIPS log working-memory effects through a
// journal; the ops reach the log in this tab-separated text codec built on
// the Value wire tokens, and come back from recovery as decoded `WmeOp`s.

/// One working-memory change in a transaction's [`Journal`].
#[derive(Debug)]
pub enum JournalOp {
    /// The transaction asserted this tag. The WME itself stays in working
    /// memory; a commit reads it from there.
    Assert(TimeTag),
    /// The transaction removed this WME (moved in, not copied): a commit
    /// logs its retraction, a rollback puts it back.
    Removed(Wme),
    /// In-place slot updates keeping the same tag (DIPS `set-modify`).
    Update(TimeTag, Vec<(Symbol, Value)>),
}

/// A transaction's working-memory changes in the order they happened:
/// what [`Wal::commit`] logs and what a rollback walks backwards.
pub type Journal = Vec<JournalOp>;

/// One committed transaction recovered from the log.
#[derive(Debug, PartialEq)]
pub struct CommittedTx {
    /// Its working-memory ops, in log order.
    pub ops: Vec<WmeOp>,
    /// The cycle marker's payload, or `None` for a plain commit.
    pub cycle: Option<Vec<u8>>,
}

/// What [`Wal::attach`] hands its client.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The committed transactions to replay, in log order.
    pub transactions: Vec<CommittedTx>,
    /// Committed records discarded as stale (see [`Wal::attach`]).
    pub stale_records: u64,
}

/// A logged working-memory operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WmeOp {
    /// A WME entered working memory (carries its assigned time tag).
    Assert(Wme),
    /// The WME with this tag left working memory.
    Retract(TimeTag),
    /// In-place slot updates keeping the same tag (DIPS `set-modify`).
    Update(TimeTag, Vec<(Symbol, Value)>),
}

/// Encode a [`WmeOp`] as a WAL op payload.
pub fn encode_wme_op(op: &WmeOp) -> Vec<u8> {
    let mut s = String::new();
    match op {
        WmeOp::Assert(w) => push_assert(&mut s, w),
        WmeOp::Retract(tag) => push_retract(&mut s, *tag),
        WmeOp::Update(tag, updates) => push_update(&mut s, *tag, updates),
    }
    s.into_bytes()
}

fn push_assert(s: &mut String, w: &Wme) {
    push_head(s, 'A', w.tag);
    s.push('\t');
    Value::Sym(w.class).push_wire(s);
    push_pairs(s, w.slots());
}

fn push_retract(s: &mut String, tag: TimeTag) {
    push_head(s, 'R', tag);
}

fn push_update(s: &mut String, tag: TimeTag, updates: &[(Symbol, Value)]) {
    push_head(s, 'U', tag);
    push_pairs(s, updates);
}

fn push_head(s: &mut String, kind: char, tag: TimeTag) {
    use std::fmt::Write as _;
    let _ = write!(s, "{}\t{}", kind, tag.raw());
}

fn push_pairs(s: &mut String, pairs: &[(Symbol, Value)]) {
    for (a, v) in pairs {
        s.push('\t');
        Value::Sym(*a).push_wire(s);
        s.push('\t');
        v.push_wire(s);
    }
}

/// Decode a [`WmeOp`] payload.
pub fn decode_wme_op(bytes: &[u8]) -> Result<WmeOp, DbError> {
    let text =
        std::str::from_utf8(bytes).map_err(|_| DbError::Corrupt("wme op is not utf-8".into()))?;
    let mut parts = text.split('\t');
    let kind = parts.next().unwrap_or("");
    let tag = parts
        .next()
        .and_then(|t| t.parse::<u64>().ok())
        .map(TimeTag::new)
        .ok_or_else(|| DbError::Corrupt(format!("wme op missing tag: `{}`", text)))?;
    let sym_of = |tok: &str| -> Result<Symbol, DbError> {
        match Value::from_wire(tok).map_err(DbError::Corrupt)? {
            Value::Sym(s) => Ok(s),
            other => Err(DbError::Corrupt(format!(
                "expected symbol, got `{}`",
                other
            ))),
        }
    };
    let pairs = |parts: &mut std::str::Split<'_, char>| -> Result<Vec<(Symbol, Value)>, DbError> {
        let mut out = Vec::new();
        while let Some(attr) = parts.next() {
            let val = parts
                .next()
                .ok_or_else(|| DbError::Corrupt(format!("dangling attribute in `{}`", text)))?;
            out.push((
                sym_of(attr)?,
                Value::from_wire(val).map_err(DbError::Corrupt)?,
            ));
        }
        Ok(out)
    };
    match kind {
        "A" => {
            let class =
                sym_of(parts.next().ok_or_else(|| {
                    DbError::Corrupt(format!("assert missing class: `{}`", text))
                })?)?;
            let slots = pairs(&mut parts)?;
            Ok(WmeOp::Assert(Wme::new(tag, class, slots)))
        }
        "R" => Ok(WmeOp::Retract(tag)),
        "U" => Ok(WmeOp::Update(tag, pairs(&mut parts)?)),
        other => Err(DbError::Corrupt(format!("unknown wme op `{}`", other))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sorete-wal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}-{}.wal", name, std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_recover_committed_prefix() {
        let path = tmp("basic");
        {
            let (mut wal, rec) = Wal::open(&path, WalOptions::default()).unwrap();
            assert!(rec.is_empty());
            wal.append_op(b"one").unwrap();
            wal.append_op(b"two").unwrap();
            wal.append_commit().unwrap();
            wal.append_op(b"uncommitted").unwrap();
        }
        let (records, stats) = Wal::recover(&path).unwrap();
        assert_eq!(
            records,
            vec![
                WalRecord::Op(b"one".to_vec()),
                WalRecord::Op(b"two".to_vec()),
                WalRecord::Commit,
            ]
        );
        assert_eq!(stats.discarded_records, 1);
        assert!(stats.truncated_bytes > 0);
        // Recovery truncated: a second scan finds a clean log.
        let (_, stats2) = Wal::recover(&path).unwrap();
        assert_eq!(stats2.truncated_bytes, 0);
        assert_eq!(stats2.recovered_records, 3);
    }

    #[test]
    fn cycle_markers_are_commit_points_and_carry_payloads() {
        let path = tmp("cycle");
        {
            let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
            wal.append_op(b"x").unwrap();
            wal.commit(&[], |_| None, Some(b"cycle-1-stats")).unwrap();
        }
        let (records, _) = Wal::recover(&path).unwrap();
        assert_eq!(
            records,
            vec![
                WalRecord::Op(b"x".to_vec()),
                WalRecord::Cycle(b"cycle-1-stats".to_vec()),
            ]
        );
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = tmp("torn");
        {
            let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
            wal.append_op(b"safe").unwrap();
            wal.append_commit().unwrap();
            wal.append_op(b"doomed").unwrap();
            wal.append_commit().unwrap();
        }
        // Chop mid-frame: the second commit becomes a torn tail.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let (records, stats) = Wal::recover(&path).unwrap();
        assert_eq!(
            records,
            vec![WalRecord::Op(b"safe".to_vec()), WalRecord::Commit],
            "only the first committed group survives"
        );
        assert!(stats.truncated_bytes > 0);
        // Appending after recovery produces a valid log again.
        let (mut wal, rec) = Wal::open(&path, WalOptions::default()).unwrap();
        assert_eq!(rec.len(), 2);
        wal.append_op(b"after").unwrap();
        wal.append_commit().unwrap();
        drop(wal);
        let (records, _) = Wal::recover(&path).unwrap();
        assert_eq!(records.len(), 4);
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let path = tmp("crc");
        {
            let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
            wal.append_op(b"good").unwrap();
            wal.append_commit().unwrap();
            wal.append_op(b"bad").unwrap();
            wal.append_commit().unwrap();
        }
        // Flip a byte inside the third frame's payload.
        let mut buf = std::fs::read(&path).unwrap();
        let n = buf.len();
        buf[n - 12] ^= 0xFF;
        std::fs::write(&path, &buf).unwrap();
        let (records, stats) = Wal::recover(&path).unwrap();
        assert_eq!(records.len(), 2, "replay stops at the corrupt frame");
        assert!(stats.truncated_bytes > 0);
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let p1 = tmp("gc1");
        let p8 = tmp("gc8");
        let (mut w1, _) = Wal::open(&p1, WalOptions { group_commit: 1 }).unwrap();
        let (mut w8, _) = Wal::open(&p8, WalOptions { group_commit: 8 }).unwrap();
        for _ in 0..16 {
            w1.append_op(b"x").unwrap();
            w1.append_commit().unwrap();
            w8.append_op(b"x").unwrap();
            w8.append_commit().unwrap();
        }
        assert_eq!(w1.stats().fsyncs, 16);
        assert_eq!(w8.stats().fsyncs, 2);
        assert_eq!(w1.stats().commits, 16);
        assert_eq!(w8.stats().commits, 16);
        // Appends are buffered: each group-commit window flushes as one
        // write(2), so gc8 issues 2 writes for its 32 records.
        assert_eq!(w1.stats().writes, 16);
        assert_eq!(w8.stats().writes, 2);
        assert_eq!(w8.stats().records, 32);
        // A 17th commit leaves its window open (buffered, no write yet);
        // a clean drop still hands it to the OS, like the unbuffered log
        // whose appends always reached the page cache.
        w8.append_op(b"tail").unwrap();
        w8.append_commit().unwrap();
        assert_eq!(w8.stats().writes, 2, "open window stays buffered");
        drop(w8);
        let (records, _) = Wal::recover(&p8).unwrap();
        assert_eq!(records.len(), 34, "clean drop flushes the open window");
    }

    #[test]
    fn rotate_empties_the_log() {
        let path = tmp("rotate");
        let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        wal.append_op(b"pre").unwrap();
        wal.append_commit().unwrap();
        wal.rotate(1).unwrap();
        wal.append_op(b"post").unwrap();
        wal.append_commit().unwrap();
        drop(wal);
        let (records, stats) = Wal::recover(&path).unwrap();
        assert_eq!(
            records,
            vec![WalRecord::Op(b"post".to_vec()), WalRecord::Commit]
        );
        assert_eq!(stats.generation, 1, "rotation stamped the generation");
    }

    #[test]
    fn generation_survives_reopen() {
        let path = tmp("gen");
        {
            let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
            assert_eq!(wal.generation(), 0);
            wal.rotate(3).unwrap();
            wal.append_op(b"x").unwrap();
            wal.append_commit().unwrap();
        }
        let (wal, records) = Wal::open(&path, WalOptions::default()).unwrap();
        assert_eq!(wal.generation(), 3);
        assert_eq!(wal.stats().generation, 3);
        assert_eq!(records.len(), 2, "records under the new generation replay");
    }

    #[test]
    fn failed_append_aborts_the_whole_batch() {
        // A clean append failure mid-batch must drop the batch's earlier
        // records, or the *next* successful commit marker would adopt
        // them into the committed prefix (orphan ops from a transaction
        // the client rolled back).
        let path = tmp("abort-batch");
        let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        wal.append_op(b"committed").unwrap();
        wal.append_commit().unwrap();
        wal.inject_fault(IoFaultPlan::nth(IoFaultKind::Fail, 3));
        wal.append_op(b"orphan").unwrap(); // record 2: lands, then...
        assert!(wal.append_op(b"doomed").is_err()); // record 3: batch aborts
                                                    // The client rolled the transaction back; a later transaction
                                                    // commits fine and must not resurrect "orphan".
        wal.append_op(b"next").unwrap();
        wal.append_commit().unwrap();
        drop(wal);
        let (records, _) = Wal::recover(&path).unwrap();
        assert_eq!(
            records,
            vec![
                WalRecord::Op(b"committed".to_vec()),
                WalRecord::Commit,
                WalRecord::Op(b"next".to_vec()),
                WalRecord::Commit,
            ]
        );
    }

    #[test]
    fn injected_faults_crash_then_recover_cleanly() {
        for kind in [
            IoFaultKind::Fail,
            IoFaultKind::ShortWrite,
            IoFaultKind::TornWrite,
            IoFaultKind::FsyncError,
            IoFaultKind::Transient { fail_n: 1 },
        ] {
            let path = tmp(&format!("fault-{:?}", kind));
            let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
            wal.inject_fault(IoFaultPlan::nth(kind, 3)); // the 2nd commit marker
            wal.append_op(b"a").unwrap();
            wal.append_commit().unwrap();
            wal.append_op(b"b").unwrap();
            let r = wal.append_commit();
            assert!(r.is_err(), "{:?} surfaces an error", kind);
            drop(wal);
            let (records, _) = Wal::recover(&path).unwrap();
            // The first committed group always survives; the faulted one
            // never partially survives.
            match kind {
                IoFaultKind::Fail
                | IoFaultKind::ShortWrite
                | IoFaultKind::TornWrite
                | IoFaultKind::Transient { .. } => {
                    assert_eq!(
                        records,
                        vec![WalRecord::Op(b"a".to_vec()), WalRecord::Commit],
                        "{:?}",
                        kind
                    );
                }
                IoFaultKind::FsyncError => {
                    // The frame hit the page cache before the failed sync;
                    // recovery may legitimately see it (fsync failure means
                    // "unknown durability", not "guaranteed loss"), but
                    // never a half-frame.
                    assert!(records.len() == 2 || records.len() == 4, "{:?}", kind);
                }
            }
        }
    }

    #[test]
    fn poisoned_wal_refuses_everything() {
        let path = tmp("poison");
        let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        wal.inject_fault(IoFaultPlan::nth(IoFaultKind::ShortWrite, 0));
        assert!(wal.append_op(b"x").is_err());
        assert!(wal.append_op(b"y").is_err(), "poisoned");
        assert!(wal.sync().is_err(), "poisoned");
        assert!(wal.rotate(1).is_err(), "poisoned");
    }

    #[test]
    fn wme_op_roundtrip() {
        let w = Wme::new(
            TimeTag::new(7),
            Symbol::new("player"),
            vec![
                (Symbol::new("name"), Value::sym("Sue\twith\ttabs")),
                (Symbol::new("rating"), Value::Float(0.5)),
                (Symbol::new("team"), Value::Nil),
            ],
        );
        for op in [
            WmeOp::Assert(w.clone()),
            WmeOp::Retract(TimeTag::new(9)),
            WmeOp::Update(
                TimeTag::new(3),
                vec![(Symbol::new("team"), Value::sym("B"))],
            ),
        ] {
            let enc = encode_wme_op(&op);
            assert_eq!(decode_wme_op(&enc).unwrap(), op, "{:?}", op);
        }
        assert!(decode_wme_op(b"Z\t1").is_err());
        assert!(
            decode_wme_op(b"A\t1\tS:c\tS:attr").is_err(),
            "dangling attr"
        );
    }

    #[test]
    fn commit_logs_a_journal_as_its_encoded_ops() {
        // A journal commits to the same records the op codec produces: the
        // asserted WME read from working memory (or, when the transaction
        // removed it again, from the journal), removals as retractions.
        let w = |tag: u64, n: i64| {
            Wme::new(
                TimeTag::new(tag),
                Symbol::new("c"),
                vec![(Symbol::new("n"), Value::Int(n))],
            )
        };
        let (live, gone) = (w(5, 1), w(6, 2));
        let journal: Journal = vec![
            JournalOp::Assert(TimeTag::new(5)),
            JournalOp::Assert(TimeTag::new(6)),
            JournalOp::Removed(gone.clone()),
            JournalOp::Update(TimeTag::new(5), vec![(Symbol::new("n"), Value::Int(3))]),
        ];
        let path = tmp("commit-journal");
        let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        let wm = |t: TimeTag| (t == live.tag).then_some(&live);
        wal.commit(&journal, wm, Some(b"marker")).unwrap();
        wal.commit(&journal[..1], wm, None).unwrap();
        drop(wal);
        let op = |op: WmeOp| WalRecord::Op(encode_wme_op(&op));
        let (records, _) = Wal::recover(&path).unwrap();
        assert_eq!(
            records,
            vec![
                op(WmeOp::Assert(live.clone())),
                op(WmeOp::Assert(gone.clone())),
                op(WmeOp::Retract(gone.tag)),
                op(WmeOp::Update(
                    TimeTag::new(5),
                    vec![(Symbol::new("n"), Value::Int(3))]
                )),
                WalRecord::Cycle(b"marker".to_vec()),
                op(WmeOp::Assert(live.clone())),
                WalRecord::Commit,
            ]
        );
        // A journal that asserts a tag no WME carries commits nothing.
        let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        let bad: Journal = vec![JournalOp::Removed(gone), JournalOp::Assert(TimeTag::new(9))];
        assert!(wal.commit(&bad, wm, None).is_err());
        wal.commit(&[], wm, None).unwrap();
        drop(wal);
        assert_eq!(Wal::recover(&path).unwrap().0.len(), 8);
    }

    #[test]
    fn attach_groups_transactions_and_pairs_generations() {
        let path = tmp("attach");
        {
            let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
            wal.append_op(&encode_wme_op(&WmeOp::Retract(TimeTag::new(1))))
                .unwrap();
            wal.append_commit().unwrap();
            wal.commit(&[], |_| None, Some(b"c1")).unwrap();
            wal.append_op(&encode_wme_op(&WmeOp::Retract(TimeTag::new(2))))
                .unwrap();
        }
        let (_, rec) = Wal::attach(&path, WalOptions::default(), 0).unwrap();
        assert_eq!(
            rec.transactions,
            vec![
                CommittedTx {
                    ops: vec![WmeOp::Retract(TimeTag::new(1))],
                    cycle: None,
                },
                CommittedTx {
                    ops: Vec::new(),
                    cycle: Some(b"c1".to_vec()),
                },
            ],
            "the uncommitted tail is not a transaction"
        );
        assert_eq!(rec.stale_records, 0);
        // Two generations ahead does not pair; one ahead finds the log
        // stale and rotates it to the checkpoint's generation.
        let err = Wal::attach(&path, WalOptions::default(), 2).err().unwrap();
        assert_eq!(
            err,
            DbError::Unpaired {
                wal: 0,
                checkpoint: 2
            }
        );
        assert!(err.to_string().contains("does not pair"), "{}", err);
        let (wal, rec) = Wal::attach(&path, WalOptions::default(), 1).unwrap();
        assert_eq!((rec.stale_records, rec.transactions.len()), (3, 0));
        assert_eq!(wal.generation(), 1);
    }

    #[test]
    fn an_older_format_is_named_and_never_truncated() {
        // A SORETWAL2 header, a committed op and a torn tail: every entry
        // point refuses it with the typed error and leaves the bytes alone.
        let path = tmp("v2");
        let mut bytes = b"SORETWAL2\n".to_vec();
        bytes.extend_from_slice(&0u64.to_le_bytes());
        for body in [&b"\x01R\t1"[..], b"\x02", b"\x01R\t2"] {
            bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(body).to_le_bytes());
            bytes.extend_from_slice(body);
        }
        bytes.truncate(bytes.len() - 2);
        std::fs::write(&path, &bytes).unwrap();
        let want = DbError::WalFormat {
            path: format!("{:?}", path),
            format: "SORETWAL2".into(),
        };
        assert_eq!(Wal::scan(&path).err(), Some(want.clone()));
        assert_eq!(Wal::recover(&path).err(), Some(want.clone()));
        assert_eq!(
            Wal::open(&path, WalOptions::default()).err(),
            Some(want.clone())
        );
        assert_eq!(
            Wal::attach(&path, WalOptions::default(), 0).err(),
            Some(want.clone())
        );
        assert!(want.to_string().contains("SORETWAL2"), "{}", want);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "the file is untouched"
        );
    }

    #[test]
    fn transient_fault_heals_after_fail_n_and_never_poisons() {
        let path = tmp("transient");
        let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        wal.append_op(b"pre").unwrap();
        wal.append_commit().unwrap();
        wal.inject_fault(IoFaultPlan::nth(IoFaultKind::Transient { fail_n: 2 }, 2));
        // Two attempts fail cleanly (retryable), the third succeeds.
        assert!(wal.append_op(b"try").is_err());
        assert!(!wal.is_poisoned(), "transient faults never poison");
        assert!(wal.append_op(b"try").is_err());
        wal.append_op(b"try").unwrap();
        wal.append_commit().unwrap();
        assert_eq!(wal.stats().transient_errors, 2);
        drop(wal);
        let (records, _) = Wal::recover(&path).unwrap();
        assert_eq!(
            records,
            vec![
                WalRecord::Op(b"pre".to_vec()),
                WalRecord::Commit,
                WalRecord::Op(b"try".to_vec()),
                WalRecord::Commit,
            ],
            "failed attempts leave no trace; the healed append commits once"
        );
    }

    #[test]
    fn transient_fault_aborts_batch_prefix_each_attempt() {
        // Each failed attempt must drop the batch's earlier records, so a
        // retry that re-appends the whole batch never duplicates ops.
        let path = tmp("transient-batch");
        let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        wal.inject_fault(IoFaultPlan::nth(IoFaultKind::Transient { fail_n: 1 }, 1));
        wal.append_op(b"a").unwrap(); // record 0 lands
        assert!(wal.append_op(b"b").is_err()); // record 1 fails, batch dropped
                                               // Retry the whole batch.
        wal.append_op(b"a").unwrap();
        wal.append_op(b"b").unwrap();
        wal.append_commit().unwrap();
        drop(wal);
        let (records, _) = Wal::recover(&path).unwrap();
        assert_eq!(
            records,
            vec![
                WalRecord::Op(b"a".to_vec()),
                WalRecord::Op(b"b".to_vec()),
                WalRecord::Commit,
            ]
        );
    }

    #[test]
    fn scan_is_read_only_and_reports_defects() {
        let path = tmp("scan");
        {
            let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
            wal.rotate(2).unwrap();
            wal.append_op(b"one").unwrap();
            wal.append_commit().unwrap();
            wal.append_op(b"uncommitted").unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.generation, 2);
        assert_eq!(scan.committed_records, 2);
        assert_eq!(scan.commit_points, 1);
        assert_eq!(
            scan.defects,
            vec![WalDefect::UncommittedTail {
                records: 1,
                bytes: before.len() as u64 - scan.committed_bytes,
            }]
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "scan must not modify the file"
        );
        // Now tear the tail mid-frame and flip a committed byte's CRC view.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(before.len() as u64 - 3).unwrap();
        drop(f);
        let scan = Wal::scan(&path).unwrap();
        assert!(
            matches!(scan.defects[0], WalDefect::TornTail { missing: 3, .. }),
            "{:?}",
            scan.defects
        );
        // A non-WAL file is an error, not a scan.
        let bogus = tmp("scan-bogus");
        std::fs::write(&bogus, b"not a wal at all").unwrap();
        assert!(matches!(Wal::scan(&bogus), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn scan_flags_bad_crc() {
        let path = tmp("scan-crc");
        {
            let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
            wal.append_op(b"good").unwrap();
            wal.append_commit().unwrap();
            wal.append_op(b"bad!").unwrap();
            wal.append_commit().unwrap();
        }
        let mut buf = std::fs::read(&path).unwrap();
        let n = buf.len();
        buf[n - 12] ^= 0xFF;
        std::fs::write(&path, &buf).unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.committed_records, 2, "replay stops at the bad frame");
        assert!(
            scan.defects
                .iter()
                .any(|d| matches!(d, WalDefect::BadCrc { .. })),
            "{:?}",
            scan.defects
        );
    }

    #[test]
    fn recover_missing_file_is_empty() {
        let path = tmp("missing");
        let (records, stats) = Wal::recover(&path).unwrap();
        assert!(records.is_empty());
        assert_eq!(stats, WalStats::default());
    }
}
