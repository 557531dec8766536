//! Helpers shared by the integration suites (`mod common;`).

use std::path::{Path, PathBuf};

/// A per-test directory for crash bundles, removed when the test ends.
///
/// An engine that stops abnormally writes a `sorete-crash-*` bundle; with
/// no crash dir (and no WAL) that lands in the working directory — the
/// repository root under `cargo test`, where concurrently running tests
/// would also race each other's retention pruning.
pub struct CrashDir(PathBuf);

impl CrashDir {
    /// A fresh directory named after `test` under the OS temp dir.
    pub fn new(test: &str) -> CrashDir {
        let dir = std::env::temp_dir().join("sorete-it-crash").join(format!(
            "{}-{}",
            test,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        CrashDir(dir)
    }

    /// The directory (created by the first bundle written into it).
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for CrashDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
