//! Named durable sessions and the store that hosts them.
//!
//! A session is one [`ProductionSystem`] with its own directory under the
//! server's data dir:
//!
//! ```text
//! <data-dir>/<name>/program.ops    rule source (replayed on recovery)
//! <data-dir>/<name>/session.ckpt   latest checkpoint (WAL base)
//! <data-dir>/<name>/session.wal    write-ahead log past the checkpoint
//! <data-dir>/<name>/crash/         crash bundles from this session
//! ```
//!
//! Recovery order matches the CLI runner: load `program.ops`, restore the
//! checkpoint, then attach the WAL — which refuses generation mismatches
//! (the WAL and checkpoint must pair up; the server surfaces that as a
//! `durability` error rather than guessing which state is real).
//!
//! Concurrency: the store holds each session behind its own mutex. A
//! request takes the lock with `try_lock`; if the session is busy the
//! request is rejected with `overloaded` — explicit backpressure instead of
//! an unbounded queue. Aggregate admission control reads the per-session
//! byte gauge that each request republishes (the engine maintains the
//! figure; reading it walks nothing), so it never has to lock a busy
//! session to size the fleet.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

use sorete_core::{CoreError, MatcherKind, ProductionSystem, RunPolicy, WalReplayReport};
use sorete_reldb::WalOptions;

/// A session-level failure, tagged with a protocol error code.
#[derive(Clone, Debug)]
pub struct SessionError {
    /// Protocol error code (`crate::proto::codes`).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl SessionError {
    fn new(code: &'static str, message: impl Into<String>) -> SessionError {
        SessionError {
            code,
            message: message.into(),
        }
    }
}

fn durability_err(e: &CoreError) -> SessionError {
    SessionError::new(crate::proto::codes::DURABILITY, e.to_string())
}

/// One live session: a durable engine plus its bookkeeping.
pub struct Session {
    /// Session name (also the directory name).
    pub name: String,
    /// The session directory.
    pub dir: PathBuf,
    /// The engine.
    pub ps: ProductionSystem,
    /// Mutated since the last checkpoint? Graceful shutdown checkpoints
    /// only dirty sessions.
    pub dirty: bool,
    /// What WAL recovery found when the session was (re)opened.
    pub replay: WalReplayReport,
    /// Was state recovered (checkpoint restored or WAL ops replayed)?
    pub recovered: bool,
}

impl Session {
    /// Open or recover the session named `name` under `data_dir`.
    pub fn open(data_dir: &Path, name: &str) -> Result<Session, SessionError> {
        if !valid_name(name) {
            return Err(SessionError::new(
                crate::proto::codes::BAD_REQUEST,
                format!("invalid session name {:?}", name),
            ));
        }
        let dir = data_dir.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| {
            SessionError::new(
                crate::proto::codes::DURABILITY,
                format!("create {}: {}", dir.display(), e),
            )
        })?;
        let mut ps = ProductionSystem::new(MatcherKind::Rete);
        ps.enable_metrics();
        ps.set_crash_dir(dir.join("crash"));

        let program_path = dir.join("program.ops");
        if let Ok(src) = std::fs::read_to_string(&program_path) {
            ps.load_program(&src).map_err(|e| {
                SessionError::new(
                    crate::proto::codes::BAD_REQUEST,
                    format!("recover {}: {}", program_path.display(), e),
                )
            })?;
        }

        let ckpt_path = dir.join("session.ckpt");
        let mut recovered = false;
        if ckpt_path.exists() {
            ps.resume_from_file(&ckpt_path)
                .map_err(|e| durability_err(&e))?;
            recovered = true;
        }
        let wal_path = dir.join("session.wal");
        let replay = ps
            .attach_wal(&wal_path, WalOptions::default())
            .map_err(|e| durability_err(&e))?;
        recovered = recovered || replay.replayed_ops > 0;

        // Supervise with the session's checkpoint as the degradation
        // target, so hard-budget halts and interrupts cut a checkpoint.
        ps.set_run_policy(RunPolicy {
            checkpoint: Some(ckpt_path),
            ..RunPolicy::supervised()
        });

        Ok(Session {
            name: name.to_string(),
            dir,
            ps,
            dirty: false,
            replay,
            recovered,
        })
    }

    /// Install new rules: persist the source (so recovery can replay it),
    /// then load it into the engine.
    pub fn load_rules(&mut self, src: &str) -> Result<(), SessionError> {
        // Validate before persisting — a bad program must not poison the
        // session directory for the next recovery.
        let mut probe = ProductionSystem::new(MatcherKind::Rete);
        probe
            .load_program(src)
            .map_err(|e| SessionError::new(crate::proto::codes::BAD_REQUEST, e.to_string()))?;
        let path = self.dir.join("program.ops");
        let mut text = std::fs::read_to_string(&path).unwrap_or_default();
        if !text.is_empty() && !text.ends_with('\n') {
            text.push('\n');
        }
        text.push_str(src);
        text.push('\n');
        // Whole-file replace through a temp + rename: a crash mid-write
        // must leave the previous program, not a torn one that fails every
        // later recovery.
        sorete_reldb::persist::atomic_write(&path, text.as_bytes()).map_err(|e| {
            SessionError::new(
                crate::proto::codes::DURABILITY,
                format!("write {}: {}", path.display(), e),
            )
        })?;
        self.ps
            .load_program(src)
            .map_err(|e| SessionError::new(crate::proto::codes::BAD_REQUEST, e.to_string()))?;
        Ok(())
    }

    /// Checkpoint the session (rotating the WAL) and clear the dirty flag.
    pub fn checkpoint(&mut self) -> Result<(), SessionError> {
        let path = self.dir.join("session.ckpt");
        self.ps
            .checkpoint_to(&path)
            .map_err(|e| durability_err(&e))?;
        self.dirty = false;
        Ok(())
    }

    /// Live working-memory bytes, for admission control.
    pub fn bytes(&self) -> u64 {
        self.ps.memory_report().total_bytes()
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
}

/// A session slot: the mutex plus a byte gauge readable without the lock.
pub struct SessionSlot {
    session: Mutex<Session>,
    /// Last observed WM bytes, refreshed after every request that held the
    /// lock. Admission control sums these gauges.
    bytes: AtomicU64,
}

impl SessionSlot {
    /// Try to take the session for one request. `None` means busy.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, Session>> {
        match self.session.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::WouldBlock) => None,
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        }
    }

    /// Block until the session is free (shutdown checkpointing only — the
    /// request path must use [`SessionSlot::try_lock`]).
    pub fn lock(&self) -> MutexGuard<'_, Session> {
        match self.session.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Refresh the byte gauge from a held guard.
    pub fn publish_bytes(&self, g: &Session) {
        self.bytes.store(g.bytes(), Ordering::Relaxed);
    }

    /// Last published WM bytes.
    pub fn published_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// The store of named sessions.
#[derive(Default)]
pub struct SessionStore {
    slots: Mutex<HashMap<String, Arc<SessionSlot>>>,
}

impl SessionStore {
    /// New, empty.
    pub fn new() -> SessionStore {
        SessionStore::default()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of every session's published byte gauge.
    pub fn total_bytes(&self) -> u64 {
        self.slots
            .lock()
            .unwrap()
            .values()
            .map(|s| s.published_bytes())
            .sum()
    }

    /// Look up a session.
    pub fn get(&self, name: &str) -> Option<Arc<SessionSlot>> {
        self.slots.lock().unwrap().get(name).cloned()
    }

    /// All slots, for shutdown checkpointing and recovery scans.
    pub fn all(&self) -> Vec<(String, Arc<SessionSlot>)> {
        let mut v: Vec<_> = self
            .slots
            .lock()
            .unwrap()
            .iter()
            .map(|(k, s)| (k.clone(), s.clone()))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Open (or recover) a session, enforcing the session-count limit.
    /// Returns `(slot, existed_already)`.
    pub fn open(
        &self,
        data_dir: &Path,
        name: &str,
        max_sessions: usize,
    ) -> Result<(Arc<SessionSlot>, bool), SessionError> {
        if let Some(slot) = self.get(name) {
            return Ok((slot, true));
        }
        // Admission check before the (possibly slow) recovery work.
        if self.len() >= max_sessions {
            return Err(SessionError::new(
                crate::proto::codes::SESSION_LIMIT,
                format!("session limit {} reached", max_sessions),
            ));
        }
        let session = Session::open(data_dir, name)?;
        let slot = Arc::new(SessionSlot {
            bytes: AtomicU64::new(session.bytes()),
            session: Mutex::new(session),
        });
        let mut slots = self.slots.lock().unwrap();
        // Double-checked under the map lock: a racing open of the same name
        // keeps the first slot (ours is dropped, releasing its WAL handle).
        if let Some(existing) = slots.get(name) {
            return Ok((existing.clone(), true));
        }
        if slots.len() >= max_sessions {
            return Err(SessionError::new(
                crate::proto::codes::SESSION_LIMIT,
                format!("session limit {} reached", max_sessions),
            ));
        }
        slots.insert(name.to_string(), slot.clone());
        Ok((slot, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sorete-session-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const PROG: &str = "(p bump { [n ^v 1] <S> } (set-modify <S> ^v 2))";

    #[test]
    fn open_load_checkpoint_recover_round_trip() {
        let dir = temp_dir("round-trip");
        {
            let mut s = Session::open(&dir, "a").unwrap();
            assert!(!s.recovered);
            s.load_rules(PROG).unwrap();
            s.ps.make_str("n", &[("v", sorete_base::Value::Int(1))])
                .unwrap();
            s.ps.sync_wal().unwrap();
            s.dirty = true;
            s.checkpoint().unwrap();
        }
        let s = Session::open(&dir, "a").unwrap();
        assert!(s.recovered);
        assert_eq!(s.ps.wm().len(), 1);
        assert!(s.ps.rule("bump").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_program_write_keeps_the_previous_program() {
        let dir = temp_dir("torn-program");
        let program = dir.join("a").join("program.ops");
        let tmp = dir.join("a").join("program.ops.tmp");
        const MORE: &str = "(p other (n ^v 7) (halt))";
        {
            let mut s = Session::open(&dir, "a").unwrap();
            s.load_rules(PROG).unwrap();
            let before = std::fs::read_to_string(&program).unwrap();
            // The temp file cannot be created: the write fails as a typed
            // durability error before anything replaces `program.ops`, and
            // the engine does not take rules it could not persist.
            std::fs::create_dir(&tmp).unwrap();
            let err = s.load_rules(MORE).unwrap_err();
            assert_eq!(err.code, crate::proto::codes::DURABILITY);
            assert_eq!(std::fs::read_to_string(&program).unwrap(), before);
            assert!(s.ps.rule("other").is_none());
            std::fs::remove_dir(&tmp).unwrap();
            // A crash mid-write leaves a partial temp file behind.
            std::fs::write(&tmp, &MORE[..9]).unwrap();
        }
        let mut s = Session::open(&dir, "a").unwrap();
        assert!(s.ps.rule("bump").is_some(), "previous program recovered");
        assert!(s.ps.rule("other").is_none());
        s.load_rules(MORE).unwrap();
        drop(s);
        let s = Session::open(&dir, "a").unwrap();
        assert!(s.ps.rule("bump").is_some() && s.ps.rule("other").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_mismatch_is_refused() {
        let dir = temp_dir("gen-mismatch");
        {
            let mut s = Session::open(&dir, "a").unwrap();
            s.load_rules(PROG).unwrap();
            s.ps.make_str("n", &[("v", sorete_base::Value::Int(1))])
                .unwrap();
            s.ps.sync_wal().unwrap();
            s.checkpoint().unwrap();
            s.ps.make_str("n", &[("v", sorete_base::Value::Int(1))])
                .unwrap();
            s.ps.sync_wal().unwrap();
        }
        // Roll the checkpoint back two generations by deleting it and
        // keeping the rotated WAL: the pairing check must refuse.
        std::fs::remove_file(dir.join("a").join("session.ckpt")).unwrap();
        let err = match Session::open(&dir, "a") {
            Err(e) => e,
            Ok(_) => panic!("expected a generation-mismatch refusal"),
        };
        assert_eq!(err.code, crate::proto::codes::DURABILITY);
        assert!(err.message.contains("generation"), "{}", err.message);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_enforces_session_limit_and_backpressure() {
        let dir = temp_dir("limits");
        let store = SessionStore::new();
        let (slot_a, existed) = store.open(&dir, "a", 2).unwrap();
        assert!(!existed);
        let (_, existed) = store.open(&dir, "a", 2).unwrap();
        assert!(existed, "reopening is idempotent");
        store.open(&dir, "b", 2).unwrap();
        let err = match store.open(&dir, "c", 2) {
            Err(e) => e,
            Ok(_) => panic!("expected the session limit to trip"),
        };
        assert_eq!(err.code, crate::proto::codes::SESSION_LIMIT);

        let held = slot_a.try_lock().unwrap();
        assert!(slot_a.try_lock().is_none(), "busy session rejects");
        drop(held);
        assert!(slot_a.try_lock().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_names_are_rejected() {
        let dir = temp_dir("names");
        for bad in ["", "../escape", "a/b", "x y"] {
            let err = match Session::open(&dir, bad) {
                Err(e) => e,
                Ok(_) => panic!("expected name {:?} to be rejected", bad),
            };
            assert_eq!(err.code, crate::proto::codes::BAD_REQUEST, "{:?}", bad);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
