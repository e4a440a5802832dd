//! Persisted state on disk: the one atomic writer and the one JSON reader
//! behind engine checkpoints (`repro --resume`, `coca-serve --resume`) and
//! the scenario runner's result, status and manifest files.
//!
//! [`write_atomic`] writes `<path>.tmp` and renames it over `path`, so a
//! process that dies mid-write leaves the previous file intact, never a
//! torn one. It does not fsync: a rename survives process death, not
//! necessarily power loss.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// Writes `content` to `path` atomically (temp file + rename), creating
/// the parent directory if needed.
pub fn write_atomic(path: &Path, content: &[u8]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    let tmp = tmp_path(path);
    std::fs::write(&tmp, content).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} -> {}: {e}", tmp.display(), path.display()))
}

/// `<path>.tmp`, beside the target so the rename stays on one filesystem.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Serializes `value` to `path` as compact JSON, atomically.
pub fn write_json<T: Serialize + ?Sized>(path: &Path, value: &T) -> Result<(), String> {
    let json = serde_json::to_string(value)
        .map_err(|e| format!("cannot serialize {}: {e}", path.display()))?;
    write_atomic(path, json.as_bytes())
}

/// Reads a value written by [`write_json`].
pub fn read_json<T: Deserialize>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_replaces_atomically() {
        let root = std::env::temp_dir().join(format!("coca-obs-persist-{}", std::process::id()));
        let path = root.join("nested").join("run.ckpt.json");
        write_json(&path, &vec![1.5f64, 2.0]).unwrap();
        write_json(&path, &vec![3.25f64]).unwrap();
        assert_eq!(read_json::<Vec<f64>>(&path).unwrap(), vec![3.25]);
        assert!(!tmp_path(&path).exists(), "temp file renamed away");
        assert_eq!(tmp_path(&path).file_name().unwrap(), "run.ckpt.json.tmp");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn read_errors_name_the_file() {
        let dir = std::env::temp_dir().join(format!("coca-obs-persist-bad-{}", std::process::id()));
        let path = dir.join("bad.json");
        let err = read_json::<Vec<f64>>(&path).unwrap_err();
        assert!(err.contains("cannot read") && err.contains("bad.json"), "{err}");
        write_atomic(&path, b"{not json").unwrap();
        let err = read_json::<Vec<f64>>(&path).unwrap_err();
        assert!(err.contains("cannot parse") && err.contains("bad.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
