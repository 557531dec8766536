//! Write-ahead log: append-only, CRC-checksummed, length-prefixed frames,
//! one per committed transaction.
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
//! SORETWAL4\n                          (10-byte file magic)
//! [u64 generation]                     (little-endian rotation count)
//! [u32 len][u32 crc][body]             repeated, one frame per transaction
//!
//! body = [flags u8]                    (bit 0: a cycle payload follows)
//!        [u32 n][n bytes]              (the cycle payload, if flagged)
//!        ([u32 n][n bytes])*           (the ops, in journal order)
//! ```
//!
//! Integers are little-endian; `len` counts the body and `crc` is CRC-32
//! (IEEE) over it. The cycle payload (e.g. run statistics) is opaque to
//! the log; each op is a [`WmeOp`] in its text codec. A frame is written
//! whole, so a frame with a valid checksum *is* a committed transaction:
//! recovery replays the intact frames and truncates the first damaged one
//! and everything after it (a torn, short, bad-checksum, corrupt-length or
//! malformed-body tail), which can never resurrect half a transaction
//! (redo-only, no undo needed). A log with an older magic (`SORETWAL3`, whose transactions
//! spread over op, commit and cycle records; `SORETWAL2`) is refused with
//! [`DbError::WalFormat`] and never truncated.
//!
//! The *generation* pairs a log with the checkpoint it extends. Every
//! [`Wal::rotate`] stamps the caller-supplied generation (rotation is
//! truncate-then-stamp, so a crash mid-rotation leaves the old, smaller
//! generation behind and is detectable). At open, clients compare the
//! log's generation against their checkpoint's ([`Wal::attach`]): equal
//! means replay; checkpoint one ahead means the crash hit between
//! checkpoint rename and log rotation, so the log's frames are *stale* —
//! already folded into the checkpoint — and must be discarded, never
//! replayed on top of it.
//!
//! ## Failure hygiene
//!
//! A transaction's frame is assembled whole in the append buffer before
//! any of its bytes can reach the file, so a failed append only drops
//! that frame from the buffer: nothing of it can be adopted by a later
//! commit. On a real I/O error — where the bytes on disk are unknowable —
//! the log truncates back to its last known-good length *and* poisons
//! itself so every later call errors until reopen, which re-runs recovery.
//! Real fsync failures also poison: after `EIO` from `fsync` the kernel
//! may have dropped the dirty pages, so the only safe continuation is
//! recovery from the file itself.
//!
//! ## Durability knob
//!
//! [`WalOptions::group_commit`] batches fsyncs: `1` syncs at every commit
//! (no committed work is ever lost); `n > 1` syncs every `n` commits,
//! trading a bounded window of recent commits for fewer fsyncs — the
//! classic group-commit throughput lever (200 one-`modify` firings take
//! 202 flushes at `1` and 25 at `8`, pinned in `tests/durability.rs`).
//!
//! Frames are buffered in memory and hit the file as **one** `write(2)`
//! when the group-commit window closes (or at an explicit [`Wal::sync`],
//! rotation, or drop), so a window of `n` commits costs one write syscall
//! plus one fsync. The buffer never widens the loss window: everything
//! the group-commit policy promised durable has been both written *and*
//! fsynced.

use crate::error::DbError;
use sorete_base::wme::{parse_slots, parse_tag, push_slots};
use sorete_base::{Symbol, TimeTag, Value, Wme};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic for WAL files.
pub const WAL_MAGIC: &[u8] = b"SORETWAL4\n";
/// Header length: magic plus the little-endian u64 generation stamp.
const HEADER_LEN: usize = WAL_MAGIC.len() + 8;
/// Largest accepted frame body; anything bigger is treated as a corrupt
/// length prefix during recovery.
const MAX_FRAME: u32 = 1 << 30;
/// Body flag: the frame carries a cycle payload.
const FLAG_CYCLE: u8 = 1;

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
    /// Fsync every `group_commit` commits (1 = every commit).
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
    /// Frames appended this session (one per committed transaction, so
    /// always equal to `commits`).
    pub records: u64,
    /// Bytes appended this session (frames, not counting the file magic).
    pub bytes: u64,
    /// Transactions committed this session.
    pub commits: u64,
    /// Fsyncs issued.
    pub fsyncs: u64,
    /// `write(2)` calls issued (buffered frames flush as one write per
    /// group-commit window).
    pub writes: u64,
    /// Committed frames replayed by recovery at open.
    pub recovered_records: u64,
    /// Tail bytes truncated by recovery (torn/short/corrupt frames).
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
    /// The append fails cleanly: nothing from the frame reaches the file.
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
    /// [`IoFaultPlan::at`] fail exactly like [`IoFaultKind::Fail`] (frame
    /// dropped, log **not** poisoned), then the storage "heals" and appends
    /// succeed again. This is the sweep-testable model for the retryable
    /// errors (ENOSPC races, NFS hiccups) the supervisor's backoff loop
    /// exists for.
    Transient {
        /// How many consecutive append attempts fail before healing.
        fail_n: u32,
    },
}

/// Inject `kind` on the `at`-th frame append (0-based, counted across the
/// whole WAL session; a frame is one transaction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoFaultPlan {
    /// What goes wrong.
    pub kind: IoFaultKind,
    /// Which frame append triggers it.
    pub at: u64,
}

impl IoFaultPlan {
    /// Fault of `kind` on the `n`-th appended frame.
    pub fn nth(kind: IoFaultKind, n: u64) -> IoFaultPlan {
        IoFaultPlan { kind, at: n }
    }
}

/// One problem found by the read-only [`Wal::scan`] pass: exactly the
/// conditions recovery repairs by truncation, which fsck reports without
/// touching the file.
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
    /// A checksummed frame whose body does not split into its flags,
    /// cycle payload and ops.
    BadBody {
        /// File offset of the frame header.
        offset: u64,
    },
}

/// What a read-only [`Wal::scan`] saw; a bad magic is an error, not a
/// scan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalScan {
    /// Header generation stamp.
    pub generation: u64,
    /// Frames (committed transactions) inside the committed prefix.
    pub committed_records: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// End of the committed prefix (what recovery would truncate to).
    pub committed_bytes: u64,
    /// The damage that ends the committed prefix before end-of-file.
    pub defect: Option<WalDefect>,
}

// ---------------------------------------------------------------------------
// The frame walker: the one reader of the framing, behind both the
// read-only scan and recovery.

/// Walk a log's bytes frame by frame: what a scan reports, and the
/// committed transactions recovery replays. An empty file is an empty
/// log.
fn walk(path: &Path, buf: &[u8]) -> Result<(WalScan, Vec<CommittedTx>), DbError> {
    let mut scan = WalScan {
        file_bytes: buf.len() as u64,
        ..WalScan::default()
    };
    let mut txs = Vec::new();
    if buf.is_empty() {
        return Ok((scan, txs));
    }
    check_magic(path, buf)?;
    scan.committed_bytes = WAL_MAGIC.len() as u64;
    if buf.len() < HEADER_LEN {
        // The generation stamp never fully landed, which can only happen
        // while creating a brand-new (gen 0) log.
        let bytes = (buf.len() - WAL_MAGIC.len()) as u64;
        scan.defect = Some(WalDefect::TornHeader { bytes });
        return Ok((scan, txs));
    }
    scan.generation = u64::from_le_bytes(buf[WAL_MAGIC.len()..HEADER_LEN].try_into().unwrap());
    let mut pos = HEADER_LEN;
    scan.defect = loop {
        if pos == buf.len() {
            break None;
        }
        let offset = pos as u64;
        let Some(head) = buf.get(pos..pos + 8) else {
            let missing = (pos + 8 - buf.len()) as u64;
            break Some(WalDefect::TornTail { offset, missing });
        };
        let len = u32::from_le_bytes(head[..4].try_into().unwrap());
        if len == 0 || len > MAX_FRAME {
            break Some(WalDefect::CorruptLength { offset });
        }
        let end = pos + 8 + len as usize;
        let Some(body) = buf.get(pos + 8..end) else {
            let missing = (end - buf.len()) as u64;
            break Some(WalDefect::TornTail { offset, missing });
        };
        if crc32(body) != u32::from_le_bytes(head[4..].try_into().unwrap()) {
            break Some(WalDefect::BadCrc { offset });
        }
        let Some(tx) = decode_body(body) else {
            break Some(WalDefect::BadBody { offset });
        };
        txs.push(tx?);
        pos = end;
    };
    scan.committed_records = txs.len() as u64;
    scan.committed_bytes = pos as u64;
    Ok((scan, txs))
}

/// Decode a checksummed frame body; `None` when its flags or item
/// lengths are damaged.
fn decode_body(body: &[u8]) -> Option<Result<CommittedTx, DbError>> {
    fn item<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
        let n = u32::from_le_bytes(rest.get(..4)?.try_into().unwrap()) as usize;
        let bytes = rest.get(4..4 + n)?;
        *rest = &rest[4 + n..];
        Some(bytes)
    }
    let (&flags, mut rest) = body.split_first()?;
    let cycle = match flags {
        0 => None,
        FLAG_CYCLE => Some(item(&mut rest)?.to_vec()),
        _ => return None,
    };
    let mut ops = Vec::new();
    while !rest.is_empty() {
        match decode_wme_op(item(&mut rest)?) {
            Ok(op) => ops.push(op),
            Err(e) => return Some(Err(e)),
        }
    }
    Some(Ok(CommittedTx { ops, cycle }))
}

// ---------------------------------------------------------------------------
// The log.

/// An append-only write-ahead log over one file.
pub struct Wal {
    file: File,
    path: PathBuf,
    opts: WalOptions,
    stats: WalStats,
    /// Frame appends this session, for [`IoFaultPlan::at`] matching.
    appended: u64,
    /// Commits since the last fsync (group commit).
    unsynced_commits: u32,
    /// Header generation stamp (see the module docs).
    generation: u64,
    /// Physical file length: everything at or below this offset has been
    /// handed to the OS (though not necessarily fsynced).
    flushed: u64,
    /// Frames appended but not yet written to the file. Flushed as one
    /// `write(2)` when the group-commit window closes (see module docs).
    buf: Vec<u8>,
    /// Where in `buf` the frame being assembled starts, while one is:
    /// from [`Wal::append_op`] to [`Wal::append_commit`]. It is never
    /// flushed before it closes.
    open: Option<usize>,
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

fn poisoned() -> DbError {
    DbError::Io("wal poisoned by crash".into())
}

impl Wal {
    /// Read-only diagnostic scan for `sorete fsck`: walk the frames
    /// exactly like [`Wal::recover`] but report the defect that stops the
    /// walk instead of truncating. Never modifies the file. Errors only
    /// when the file is missing, unreadable, not a WAL at all (bad magic),
    /// or holds a checksummed op that does not decode (which recovery
    /// refuses too).
    pub fn scan(path: &Path) -> Result<WalScan, DbError> {
        let buf =
            std::fs::read(path).map_err(|e| DbError::Io(format!("read wal {:?}: {}", path, e)))?;
        Ok(walk(path, &buf)?.0)
    }

    /// Scan `path` without opening it for writing: return the committed
    /// transactions and recovery counters, and truncate any torn, short
    /// or corrupt tail in place. A missing file recovers to an empty log.
    pub fn recover(path: &Path) -> Result<(Vec<CommittedTx>, WalStats), DbError> {
        let buf = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(DbError::Io(format!("read wal {:?}: {}", path, e))),
        };
        let (scan, transactions) = walk(path, &buf)?;
        let stats = WalStats {
            generation: scan.generation,
            recovered_records: scan.committed_records,
            truncated_bytes: scan.file_bytes - scan.committed_bytes,
            ..WalStats::default()
        };
        if stats.truncated_bytes > 0 {
            OpenOptions::new()
                .write(true)
                .open(path)
                .and_then(|f| f.set_len(scan.committed_bytes))
                .map_err(|e| DbError::Io(format!("truncate wal {:?}: {}", path, e)))?;
        }
        Ok((transactions, stats))
    }

    /// Open `path` for appending, running [`Wal::recover`] first. Returns
    /// the log handle and the committed transactions to replay (none for a
    /// new file).
    pub fn open(path: &Path, opts: WalOptions) -> Result<(Wal, Vec<CommittedTx>), DbError> {
        let (transactions, rec_stats) = Wal::recover(path)?;
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
                flushed: end,
                buf: Vec::new(),
                open: None,
                text: String::new(),
                fault: None,
                transient_spent: 0,
                poisoned: false,
                fsync_fault_armed: false,
                spans: sorete_base::Spans::null(),
            },
            transactions,
        ))
    }

    /// Open `path` for a client whose state descends from checkpoint
    /// generation `generation` (0 without one), and return the committed
    /// transactions to replay on top of that state. Pairing: a log of the
    /// same generation replays; a log one generation behind (a crash
    /// between checkpoint rename and log rotation) or a brand-new empty
    /// log under a resumed checkpoint is stale — its transactions are
    /// already in the checkpoint, so they are counted, discarded and the
    /// log rotated to `generation`; any other log is [`DbError::Unpaired`].
    pub fn attach(
        path: &Path,
        opts: WalOptions,
        generation: u64,
    ) -> Result<(Wal, Recovered), DbError> {
        let (mut wal, transactions) = Wal::open(path, opts)?;
        if wal.generation == generation {
            let stale_records = 0;
            return Ok((
                wal,
                Recovered {
                    transactions,
                    stale_records,
                },
            ));
        }
        if wal.generation + 1 == generation || (wal.generation == 0 && transactions.is_empty()) {
            wal.rotate(generation)?;
            let stale_records = transactions.len() as u64;
            let transactions = Vec::new();
            return Ok((
                wal,
                Recovered {
                    transactions,
                    stale_records,
                },
            ));
        }
        Err(DbError::Unpaired {
            wal: wal.generation,
            checkpoint: generation,
        })
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

    /// Install a span recorder: frame appends, group-commit flushes, and
    /// fsyncs are recorded as `wal_append`/`wal_flush`/`wal_fsync` spans on
    /// the caller's lane (0).
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

    /// Add an op payload to the transaction being assembled, starting one
    /// (with no cycle payload) if none is. Nothing is committed until
    /// [`Wal::append_commit`] closes the frame.
    pub fn append_op(&mut self, payload: &[u8]) -> Result<(), DbError> {
        if self.poisoned {
            return Err(poisoned());
        }
        if self.open.is_none() {
            self.open_frame(None);
        }
        self.push_item(payload);
        Ok(())
    }

    /// Commit the transaction [`Wal::append_op`] assembled (an empty one
    /// if none is open): its frame becomes durable per the group-commit
    /// policy.
    pub fn append_commit(&mut self) -> Result<(), DbError> {
        if self.open.is_none() {
            self.open_frame(None);
        }
        self.close_frame()
    }

    /// Commit one transaction as one frame: the `cycle` payload (e.g. run
    /// statistics) if any, then `ops`, each encoded straight into the
    /// frame buffer. An asserted tag's WME is read through `wme` (the
    /// client's working memory), or from the journal's own later removal
    /// of it. A failed commit leaves nothing of the transaction behind
    /// (see the module docs), so unless the log is poisoned the caller may
    /// commit the same ops again.
    pub fn commit<'a>(
        &mut self,
        ops: &'a [JournalOp],
        wme: impl Fn(TimeTag) -> Option<&'a Wme>,
        cycle: Option<&[u8]>,
    ) -> Result<(), DbError> {
        self.open_frame(cycle);
        let mut text = std::mem::take(&mut self.text);
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
                        self.text = text;
                        self.drop_frame();
                        return Err(DbError::Corrupt(format!(
                            "the journal asserts t{} but no WME carries it",
                            tag.raw()
                        )));
                    };
                    push_op(&mut text, &Op::Assert(w));
                }
                JournalOp::Removed(w) => push_op(&mut text, &Op::Retract(w.tag)),
                JournalOp::Update(tag, updates) => push_op(&mut text, &Op::Update(*tag, updates)),
            }
            self.push_item(text.as_bytes());
        }
        self.text = text;
        self.close_frame()
    }

    /// Retire the handle because the client's state ran ahead of the log
    /// (it applied a change the log then refused). Commits still buffered
    /// are intact and reach the file first; after that every call errors
    /// until reopen, which recovers the last commit.
    pub fn poison(&mut self) {
        if !self.poisoned {
            let _ = self.flush();
            self.poisoned = true;
        }
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
            return Err(poisoned());
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

    /// Hand the buffered closed frames to the OS as a single `write(2)`.
    /// On a real I/O error an unknown prefix of them may be on disk:
    /// truncate the file back to the last known-good length and retire the
    /// handle (the failed window's commits were never acknowledged as
    /// durable, so dropping them whole is honest).
    fn flush(&mut self) -> Result<(), DbError> {
        let closed = self.open.unwrap_or(self.buf.len());
        if closed == 0 {
            return Ok(());
        }
        let sp = self.spans.begin();
        let r = self.flush_inner(closed);
        let spans = self.spans.clone();
        spans.end(sp, sorete_base::span::category::WAL_FLUSH, || {
            vec![("bytes", closed as u64)]
        });
        r
    }

    fn flush_inner(&mut self, closed: usize) -> Result<(), DbError> {
        if let Err(e) = self.file.write_all(&self.buf[..closed]) {
            self.poisoned = true;
            self.buf.clear();
            self.open = None;
            let _ = self.file.set_len(self.flushed);
            let _ = self.file.seek(SeekFrom::Start(self.flushed));
            return Err(DbError::Io(format!("flush wal {:?}: {}", self.path, e)));
        }
        self.flushed += closed as u64;
        self.buf.drain(..closed);
        self.open = self.open.map(|_| 0);
        self.stats.writes += 1;
        Ok(())
    }

    /// Rotate after a checkpoint: the checkpoint file now carries all
    /// state, so the log restarts empty under the checkpoint's
    /// `generation` stamp. Order matters: truncate *first*, then stamp —
    /// a crash in between leaves an empty log still carrying the old
    /// generation, which clients detect as stale (checkpoint one ahead)
    /// rather than silently replaying old frames under the new stamp.
    pub fn rotate(&mut self, generation: u64) -> Result<(), DbError> {
        if self.poisoned {
            return Err(poisoned());
        }
        // Buffered frames are already folded into the checkpoint this
        // rotation serves; they must not survive into the fresh log.
        self.buf.clear();
        self.open = None;
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
                self.flushed = HEADER_LEN as u64;
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

    /// Start a transaction's frame at the end of the buffer: a header
    /// whose length and checksum [`Wal::close_frame`] patches in, the
    /// flags, and the cycle payload. A frame still open is abandoned.
    fn open_frame(&mut self, cycle: Option<&[u8]>) {
        self.drop_frame();
        self.open = Some(self.buf.len());
        self.buf.extend_from_slice(&[0; 8]);
        match cycle {
            Some(payload) => {
                self.buf.push(FLAG_CYCLE);
                self.push_item(payload);
            }
            None => self.buf.push(0),
        }
    }

    /// Append one length-prefixed item to the open frame.
    fn push_item(&mut self, bytes: &[u8]) {
        self.buf
            .extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(bytes);
    }

    /// Drop the open frame, if any, from the buffer.
    fn drop_frame(&mut self) {
        if let Some(start) = self.open.take() {
            self.buf.truncate(start);
        }
    }

    /// Close the open frame — the transaction's commit — and count it
    /// toward the group-commit window.
    fn close_frame(&mut self) -> Result<(), DbError> {
        let sp = self.spans.begin();
        let r = self.close_frame_inner();
        let spans = self.spans.clone();
        spans.end(sp, sorete_base::span::category::WAL_APPEND, Vec::new);
        r?;
        self.stats.commits += 1;
        self.unsynced_commits += 1;
        if self.unsynced_commits >= self.opts.group_commit.max(1) {
            self.sync()?;
        }
        Ok(())
    }

    fn close_frame_inner(&mut self) -> Result<(), DbError> {
        let start = self.open.expect("close_frame without an open frame");
        if self.poisoned {
            self.drop_frame();
            return Err(poisoned());
        }
        let len = (self.buf.len() - start - 8) as u32;
        let crc = crc32(&self.buf[start + 8..]);
        self.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        self.buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        let frame_len = (self.buf.len() - start) as u64;
        let n = self.appended;
        self.appended += 1;
        if let Some(plan) = self.fault {
            // Transient faults fire on every append at or after `at` until
            // `fail_n` failures have been delivered — retried appends get
            // fresh frame indices, so an exact-index match would let a
            // single retry "skip past" the outage.
            if let IoFaultKind::Transient { fail_n } = plan.kind {
                if n >= plan.at && self.transient_spent < fail_n {
                    self.transient_spent += 1;
                    self.stats.transient_errors += 1;
                    self.drop_frame();
                    return Err(DbError::Io(format!(
                        "injected transient append failure at frame {} ({}/{})",
                        n, self.transient_spent, fail_n
                    )));
                }
            } else if plan.at == n {
                match plan.kind {
                    IoFaultKind::Transient { .. } => unreachable!("handled above"),
                    IoFaultKind::Fail => {
                        // Clean failure: nothing from this frame reaches
                        // the file.
                        self.drop_frame();
                        return Err(DbError::Io(format!(
                            "injected append failure at frame {}",
                            n
                        )));
                    }
                    IoFaultKind::ShortWrite | IoFaultKind::TornWrite => {
                        // Flush earlier buffered frames first so the file
                        // shows the same crash shape as an unbuffered log:
                        // the committed prefix intact, this frame torn in
                        // half (short) or whole with a flipped byte (torn:
                        // length-intact, failing its checksum).
                        self.open = None;
                        let mut frame = self.buf.split_off(start);
                        let _ = self.flush();
                        let cut = if plan.kind == IoFaultKind::ShortWrite {
                            frame.len() / 2
                        } else {
                            let last = frame.len() - 1;
                            frame[last] ^= 0x40;
                            frame.len()
                        };
                        let _ = self.file.write_all(&frame[..cut]);
                        let _ = self.file.sync_data();
                        self.poisoned = true;
                        return Err(DbError::Io(format!(
                            "injected {:?} at frame {} ({} of {} bytes)",
                            plan.kind,
                            n,
                            cut,
                            frame.len()
                        )));
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
        self.open = None;
        self.stats.records += 1;
        self.stats.bytes += frame_len;
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Hand any buffered closed frames to the OS (matching an
        // unbuffered log, whose appends always reached the page cache even
        // when the final fsync window never closed). Errors are moot here:
        // nothing in the buffer was ever acknowledged as durable.
        if !self.poisoned {
            let closed = self.open.unwrap_or(self.buf.len());
            let _ = self.file.write_all(&self.buf[..closed]);
        }
    }
}

// ---------------------------------------------------------------------------
// Transactions and the WME-op payload codec.
//
// Both the core engine and DIPS log working-memory effects through a
// journal; each op reaches its frame in this tab-separated text codec —
// `A` and the WME's line (`Wme::push_line`), `R` and a tag, or `U`, a tag
// and the updated pairs — and comes back from recovery as a `WmeOp`.

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
    /// The cycle payload, or `None` for a plain commit.
    pub cycle: Option<Vec<u8>>,
}

/// What [`Wal::attach`] hands its client.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The committed transactions to replay, in log order.
    pub transactions: Vec<CommittedTx>,
    /// Committed transactions discarded as stale (see [`Wal::attach`]).
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

/// A [`WmeOp`] borrowed from wherever the op's parts live.
enum Op<'a> {
    Assert(&'a Wme),
    Retract(TimeTag),
    Update(TimeTag, &'a [(Symbol, Value)]),
}

fn push_op(s: &mut String, op: &Op<'_>) {
    use std::fmt::Write as _;
    match op {
        Op::Assert(w) => {
            s.push_str("A\t");
            w.push_line(s);
        }
        Op::Retract(tag) => {
            let _ = write!(s, "R\t{}", tag.raw());
        }
        Op::Update(tag, pairs) => {
            let _ = write!(s, "U\t{}", tag.raw());
            push_slots(s, pairs);
        }
    }
}

/// Encode a [`WmeOp`] as a WAL op payload.
pub fn encode_wme_op(op: &WmeOp) -> Vec<u8> {
    let mut s = String::new();
    let op = match op {
        WmeOp::Assert(w) => Op::Assert(w),
        WmeOp::Retract(tag) => Op::Retract(*tag),
        WmeOp::Update(tag, updates) => Op::Update(*tag, updates),
    };
    push_op(&mut s, &op);
    s.into_bytes()
}

/// Decode a [`WmeOp`] payload.
pub fn decode_wme_op(bytes: &[u8]) -> Result<WmeOp, DbError> {
    let text =
        std::str::from_utf8(bytes).map_err(|_| DbError::Corrupt("wme op is not utf-8".into()))?;
    let (kind, rest) = text.split_once('\t').unwrap_or((text, ""));
    let mut parts = rest.split('\t');
    let op = match kind {
        "A" => Wme::parse_line(&mut parts).map(WmeOp::Assert),
        "R" => parse_tag(parts.next()).map(WmeOp::Retract),
        "U" => {
            parse_tag(parts.next()).and_then(|tag| Ok(WmeOp::Update(tag, parse_slots(&mut parts)?)))
        }
        other => Err(format!("unknown kind `{}`", other)),
    };
    op.map_err(|e| DbError::Corrupt(format!("wme op `{}`: {}", text, e)))
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

    /// The payload of a retraction of tag `n`: the smallest real op.
    fn op(n: u64) -> Vec<u8> {
        encode_wme_op(&WmeOp::Retract(TimeTag::new(n)))
    }

    /// The committed transaction retracting `tags`.
    fn tx(tags: &[u64], cycle: Option<&[u8]>) -> CommittedTx {
        CommittedTx {
            ops: tags
                .iter()
                .map(|&n| WmeOp::Retract(TimeTag::new(n)))
                .collect(),
            cycle: cycle.map(<[u8]>::to_vec),
        }
    }

    /// Append a transaction retracting `tags` through the op-by-op writer.
    fn append(wal: &mut Wal, tags: &[u64]) -> Result<(), DbError> {
        for &n in tags {
            wal.append_op(&op(n))?;
        }
        wal.append_commit()
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn a_transaction_is_one_frame_and_an_open_one_never_lands() {
        let path = tmp("basic");
        {
            let (mut wal, rec) = Wal::open(&path, WalOptions::default()).unwrap();
            assert!(rec.is_empty());
            append(&mut wal, &[1, 2]).unwrap();
            assert_eq!((wal.stats().records, wal.stats().commits), (1, 1));
            wal.append_op(&op(3)).unwrap();
            wal.sync().unwrap();
        }
        let (txs, stats) = Wal::recover(&path).unwrap();
        assert_eq!(txs, vec![tx(&[1, 2], None)]);
        assert_eq!(
            stats.truncated_bytes, 0,
            "the open frame never reached the file"
        );
        assert_eq!(stats.recovered_records, 1);
    }

    #[test]
    fn commit_logs_a_journal_as_one_frame() {
        // A journal commits to the ops the codec produces: the asserted WME
        // read from working memory (or, when the transaction removed it
        // again, from the journal), removals as retractions; the cycle
        // payload rides in the same frame.
        let w = |tag: u64, n: i64| {
            Wme::new(
                TimeTag::new(tag),
                Symbol::new("c"),
                vec![(Symbol::new("n"), Value::Int(n))],
            )
        };
        let (live, gone) = (w(5, 1), w(6, 2));
        let update = vec![(Symbol::new("n"), Value::Int(3))];
        let journal: Journal = vec![
            JournalOp::Assert(TimeTag::new(5)),
            JournalOp::Assert(TimeTag::new(6)),
            JournalOp::Removed(gone.clone()),
            JournalOp::Update(TimeTag::new(5), update.clone()),
        ];
        let path = tmp("commit-journal");
        let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        let wm = |t: TimeTag| (t == live.tag).then_some(&live);
        wal.commit(&journal, wm, Some(b"marker")).unwrap();
        wal.commit(&journal[..1], wm, None).unwrap();
        assert_eq!(wal.stats().records, 2);
        drop(wal);
        let (txs, _) = Wal::recover(&path).unwrap();
        let first = CommittedTx {
            ops: vec![
                WmeOp::Assert(live.clone()),
                WmeOp::Assert(gone.clone()),
                WmeOp::Retract(gone.tag),
                WmeOp::Update(TimeTag::new(5), update),
            ],
            cycle: Some(b"marker".to_vec()),
        };
        let second = CommittedTx {
            ops: vec![WmeOp::Assert(live.clone())],
            cycle: None,
        };
        assert_eq!(txs, vec![first, second]);
        // A journal that asserts a tag no WME carries commits nothing, and
        // the next commit is unaffected.
        let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        let bad: Journal = vec![JournalOp::Removed(gone), JournalOp::Assert(TimeTag::new(9))];
        assert!(wal.commit(&bad, wm, None).is_err());
        wal.commit(&[], wm, None).unwrap();
        drop(wal);
        let (txs, _) = Wal::recover(&path).unwrap();
        assert_eq!(txs.len(), 3);
        assert_eq!(txs[2], tx(&[], None));
    }

    #[test]
    fn payload_bytes_cannot_fake_framing() {
        // Cycle payloads are opaque and length-prefixed: bytes that look
        // like flags, lengths or tabs come back as they went in.
        let path = tmp("payload");
        let payload = [1u8, 0, 0, 0, 0, b'\t', 0xFF, b'\n'];
        let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        wal.commit(&[], |_| None, Some(&payload)).unwrap();
        drop(wal);
        let (txs, _) = Wal::recover(&path).unwrap();
        assert_eq!(txs, vec![tx(&[], Some(&payload))]);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = tmp("torn");
        {
            let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
            append(&mut wal, &[1]).unwrap();
            append(&mut wal, &[2]).unwrap();
        }
        // Chop mid-frame: the second transaction becomes a torn tail.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let (txs, stats) = Wal::recover(&path).unwrap();
        assert_eq!(
            txs,
            vec![tx(&[1], None)],
            "only the first transaction survives"
        );
        assert!(stats.truncated_bytes > 0);
        // Appending after recovery produces a valid log again.
        let (mut wal, rec) = Wal::open(&path, WalOptions::default()).unwrap();
        assert_eq!(rec.len(), 1);
        append(&mut wal, &[3]).unwrap();
        drop(wal);
        let (txs, _) = Wal::recover(&path).unwrap();
        assert_eq!(txs, vec![tx(&[1], None), tx(&[3], None)]);
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let path = tmp("crc");
        {
            let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
            append(&mut wal, &[1]).unwrap();
            append(&mut wal, &[2]).unwrap();
        }
        // Flip a byte inside the second frame's body.
        let mut buf = std::fs::read(&path).unwrap();
        let n = buf.len();
        buf[n - 2] ^= 0xFF;
        std::fs::write(&path, &buf).unwrap();
        let (txs, stats) = Wal::recover(&path).unwrap();
        assert_eq!(txs.len(), 1, "replay stops at the corrupt frame");
        assert!(stats.truncated_bytes > 0);
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let p1 = tmp("gc1");
        let p8 = tmp("gc8");
        let (mut w1, _) = Wal::open(&p1, WalOptions { group_commit: 1 }).unwrap();
        let (mut w8, _) = Wal::open(&p8, WalOptions { group_commit: 8 }).unwrap();
        for _ in 0..16 {
            append(&mut w1, &[1]).unwrap();
            append(&mut w8, &[1]).unwrap();
        }
        assert_eq!(w1.stats().fsyncs, 16);
        assert_eq!(w8.stats().fsyncs, 2);
        assert_eq!(w1.stats().commits, 16);
        assert_eq!(w8.stats().commits, 16);
        // Frames are buffered: each group-commit window flushes as one
        // write(2), so gc8 issues 2 writes for its 16 frames.
        assert_eq!(w1.stats().writes, 16);
        assert_eq!(w8.stats().writes, 2);
        assert_eq!(w8.stats().records, 16);
        // A 17th commit leaves its window open (buffered, no write yet);
        // a clean drop still hands it to the OS, like an unbuffered log
        // whose appends always reached the page cache.
        append(&mut w8, &[2]).unwrap();
        assert_eq!(w8.stats().writes, 2, "open window stays buffered");
        drop(w8);
        let (txs, _) = Wal::recover(&p8).unwrap();
        assert_eq!(txs.len(), 17, "clean drop flushes the open window");
    }

    #[test]
    fn rotate_empties_the_log() {
        let path = tmp("rotate");
        let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        append(&mut wal, &[1]).unwrap();
        wal.rotate(1).unwrap();
        append(&mut wal, &[2]).unwrap();
        drop(wal);
        let (txs, stats) = Wal::recover(&path).unwrap();
        assert_eq!(txs, vec![tx(&[2], None)]);
        assert_eq!(stats.generation, 1, "rotation stamped the generation");
    }

    #[test]
    fn generation_survives_reopen() {
        let path = tmp("gen");
        {
            let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
            assert_eq!(wal.generation(), 0);
            wal.rotate(3).unwrap();
            append(&mut wal, &[1]).unwrap();
        }
        let (wal, txs) = Wal::open(&path, WalOptions::default()).unwrap();
        assert_eq!(wal.generation(), 3);
        assert_eq!(wal.stats().generation, 3);
        assert_eq!(txs.len(), 1, "frames under the new generation replay");
    }

    #[test]
    fn a_failed_append_drops_only_its_frame() {
        // A clean failure drops the failing transaction's frame from the
        // buffer; the transactions before it and after it commit.
        let path = tmp("drop-frame");
        let (mut wal, _) = Wal::open(&path, WalOptions { group_commit: 8 }).unwrap();
        append(&mut wal, &[1]).unwrap();
        wal.inject_fault(IoFaultPlan::nth(IoFaultKind::Fail, 1));
        assert!(append(&mut wal, &[2, 3]).is_err());
        assert!(!wal.is_poisoned());
        append(&mut wal, &[4]).unwrap();
        assert_eq!(wal.stats().records, 2);
        drop(wal);
        let (txs, _) = Wal::recover(&path).unwrap();
        assert_eq!(txs, vec![tx(&[1], None), tx(&[4], None)]);
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
            wal.inject_fault(IoFaultPlan::nth(kind, 1)); // the 2nd frame
            append(&mut wal, &[1]).unwrap();
            assert!(
                append(&mut wal, &[2]).is_err(),
                "{:?} surfaces an error",
                kind
            );
            drop(wal);
            let (txs, _) = Wal::recover(&path).unwrap();
            // The first transaction always survives; the faulted one
            // survives whole or not at all. After a failed fsync the frame
            // may have reached the page cache ("unknown durability", not
            // "guaranteed loss"), but never half of it.
            let kept = vec![tx(&[1], None)];
            let whole = vec![tx(&[1], None), tx(&[2], None)];
            match kind {
                IoFaultKind::FsyncError => assert!(txs == kept || txs == whole, "{:?}", kind),
                _ => assert_eq!(txs, kept, "{:?}", kind),
            }
        }
    }

    #[test]
    fn poisoned_wal_refuses_everything() {
        let path = tmp("poison");
        let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        wal.inject_fault(IoFaultPlan::nth(IoFaultKind::ShortWrite, 0));
        assert!(append(&mut wal, &[1]).is_err());
        assert!(wal.append_op(&op(2)).is_err(), "poisoned");
        assert!(wal.append_commit().is_err(), "poisoned");
        assert!(wal.commit(&[], |_| None, None).is_err(), "poisoned");
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
        // The assert op is `A` and the WME's line, as a checkpoint writes it.
        let mut line = String::from("A\t");
        w.push_line(&mut line);
        assert_eq!(encode_wme_op(&WmeOp::Assert(w)), line.into_bytes());
        assert!(decode_wme_op(b"Z\t1").is_err());
        assert!(decode_wme_op(b"R").is_err(), "missing tag");
        assert!(
            decode_wme_op(b"A\t1\tS:c\tS:attr").is_err(),
            "dangling attr"
        );
    }

    #[test]
    fn attach_pairs_generations() {
        let path = tmp("attach");
        {
            let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
            append(&mut wal, &[1]).unwrap();
            wal.commit(&[], |_| None, Some(b"c1")).unwrap();
        }
        let (_, rec) = Wal::attach(&path, WalOptions::default(), 0).unwrap();
        assert_eq!(rec.transactions, vec![tx(&[1], None), tx(&[], Some(b"c1"))]);
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
        assert_eq!((rec.stale_records, rec.transactions.len()), (2, 0));
        assert_eq!(wal.generation(), 1);
    }

    #[test]
    fn an_older_format_is_named_and_never_truncated() {
        // An older header, a committed op and a torn tail: every entry
        // point refuses it with the typed error and leaves the bytes alone.
        for magic in ["SORETWAL2", "SORETWAL3"] {
            let path = tmp(magic);
            let mut bytes = format!("{}\n", magic).into_bytes();
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
                format: magic.into(),
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
            assert!(want.to_string().contains(magic), "{}", want);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "the file is untouched"
            );
        }
    }

    #[test]
    fn transient_fault_heals_after_fail_n_and_never_poisons() {
        let path = tmp("transient");
        let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
        append(&mut wal, &[1]).unwrap();
        wal.inject_fault(IoFaultPlan::nth(IoFaultKind::Transient { fail_n: 2 }, 1));
        // Two attempts fail cleanly (retryable), the third succeeds.
        assert!(append(&mut wal, &[2, 3]).is_err());
        assert!(!wal.is_poisoned(), "transient faults never poison");
        assert!(append(&mut wal, &[2, 3]).is_err());
        append(&mut wal, &[2, 3]).unwrap();
        assert_eq!(wal.stats().transient_errors, 2);
        drop(wal);
        let (txs, _) = Wal::recover(&path).unwrap();
        assert_eq!(
            txs,
            vec![tx(&[1], None), tx(&[2, 3], None)],
            "failed attempts leave no trace; the healed append commits once"
        );
    }

    #[test]
    fn scan_is_read_only_and_reports_defects() {
        let path = tmp("scan");
        {
            let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
            wal.rotate(2).unwrap();
            append(&mut wal, &[1]).unwrap();
            append(&mut wal, &[2]).unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.generation, 2);
        assert_eq!(scan.committed_records, 2);
        assert_eq!(scan.committed_bytes, before.len() as u64);
        assert_eq!(scan.defect, None);
        // Tear the tail mid-frame: the walk stops there, the file stays.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(before.len() as u64 - 3).unwrap();
        drop(f);
        let torn = std::fs::read(&path).unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert!(
            matches!(scan.defect, Some(WalDefect::TornTail { missing: 3, .. })),
            "{:?}",
            scan.defect
        );
        assert_eq!(scan.committed_records, 1);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            torn,
            "scan must not modify the file"
        );
        // Recovery truncates exactly to what the scan called committed.
        let (_, stats) = Wal::recover(&path).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            scan.committed_bytes
        );
        assert_eq!(
            stats.truncated_bytes,
            scan.file_bytes - scan.committed_bytes
        );
        // A non-WAL file is an error, not a scan.
        let bogus = tmp("scan-bogus");
        std::fs::write(&bogus, b"not a wal at all").unwrap();
        assert!(matches!(Wal::scan(&bogus), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn scan_names_each_defect() {
        let path = tmp("scan-defects");
        {
            let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
            append(&mut wal, &[1]).unwrap();
            append(&mut wal, &[2]).unwrap();
        }
        let clean = std::fs::read(&path).unwrap();
        let first_end = HEADER_LEN + 8 + (clean.len() - HEADER_LEN - 16) / 2;
        let at = first_end as u64;
        // A checksummed body whose flags this format does not know.
        let mut bad_body = clean[..first_end].to_vec();
        let body = [7u8];
        bad_body.extend_from_slice(&1u32.to_le_bytes());
        bad_body.extend_from_slice(&crc32(&body).to_le_bytes());
        bad_body.extend_from_slice(&body);
        let cases: [(Vec<u8>, WalDefect); 4] = [
            (
                clean[..HEADER_LEN - 3].to_vec(),
                WalDefect::TornHeader { bytes: 5 },
            ),
            (
                [&clean[..first_end], &[0u8; 8][..]].concat(),
                WalDefect::CorruptLength { offset: at },
            ),
            (
                {
                    let mut b = clean.clone();
                    let n = b.len();
                    b[n - 1] ^= 0xFF;
                    b
                },
                WalDefect::BadCrc { offset: at },
            ),
            (bad_body, WalDefect::BadBody { offset: at }),
        ];
        for (bytes, defect) in cases {
            std::fs::write(&path, &bytes).unwrap();
            let scan = Wal::scan(&path).unwrap();
            assert!(scan.committed_bytes < bytes.len() as u64, "{:?}", defect);
            assert_eq!(scan.defect, Some(defect));
        }
    }

    #[test]
    fn recover_missing_file_is_empty() {
        let path = tmp("missing");
        let (txs, stats) = Wal::recover(&path).unwrap();
        assert!(txs.is_empty());
        assert_eq!(stats, WalStats::default());
    }
}
