//! Crash-atomic file writes for the engine's checkpoints, crash bundles
//! and the daemon's persisted programs. The write-ahead log
//! ([`crate::wal`]) covers everything between two such writes.

use crate::error::DbError;

/// Write `bytes` to `path` crash-atomically: write a `.tmp` sibling,
/// fsync it, rename it over the target, and fsync the directory so the
/// rename itself is durable. At every instant either the old complete
/// file or the new complete file is at `path` — never a torn mix — and
/// after `Ok(())` the new contents survive power loss.
pub fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> Result<(), DbError> {
    use std::io::Write as _;
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    let mut f = std::fs::File::create(&tmp)
        .map_err(|e| DbError::Io(format!("create temp for {:?}: {}", path, e)))?;
    f.write_all(bytes)
        .and_then(|_| f.sync_all())
        .map_err(|e| DbError::Io(format!("write temp for {:?}: {}", path, e)))?;
    drop(f);
    std::fs::rename(&tmp, path)
        .map_err(|e| DbError::Io(format!("rename temp into {:?}: {}", path, e)))?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => std::path::Path::new("."),
    };
    // Without this the rename can evaporate on power loss even though the
    // caller was told the write is durable (and may have truncated a WAL
    // on the strength of it). Directories can't be opened for syncing on
    // every platform; where they can't, rename atomicity is the best we get.
    if let Ok(d) = std::fs::File::open(dir) {
        d.sync_all()
            .map_err(|e| DbError::Io(format!("sync directory for {:?}: {}", path, e)))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join("sorete-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("atomic-{}.txt", std::process::id()));
        let tmp = dir.join(format!("atomic-{}.txt.tmp", std::process::id()));
        // A stale temp from a crashed earlier attempt is simply overwritten.
        std::fs::write(&tmp, b"stale garbage").unwrap();
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        assert!(!tmp.exists(), "temp renamed away");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // A target in a nonexistent directory fails without touching
        // anything the caller depends on.
        let bad = dir.join("no-such-dir").join("x.txt");
        assert!(atomic_write(&bad, b"nope").is_err());
    }
}
