//! Bytes the product writes to its cache and ledger directories.

use std::collections::HashMap;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

/// Remembers every file under some directories and, on each call to
/// [`DiskTracker::written_since`], returns the bytes written since the
/// previous call: the whole size of a file that is new or was replaced
/// (tmp+rename gives it a new inode) or rewritten in place, and only the
/// growth of a file that was appended to (the JSONL ledgers).
pub struct DiskTracker {
    dirs: Vec<PathBuf>,
    seen: HashMap<PathBuf, (u64, u64, i64, i64)>,
    /// Files the last [`DiskTracker::written_since`] found written.
    pub last_files: usize,
}

impl DiskTracker {
    pub fn new(dirs: &[&Path]) -> DiskTracker {
        let mut t = DiskTracker {
            dirs: dirs.iter().map(|d| d.to_path_buf()).collect(),
            seen: HashMap::new(),
            last_files: 0,
        };
        t.written_since();
        t
    }

    pub fn written_since(&mut self) -> u64 {
        let mut now = HashMap::new();
        for d in &self.dirs {
            scan(d, &mut now);
        }
        let mut written = 0;
        self.last_files = 0;
        for (path, &(ino, size, mtime, mtime_ns)) in &now {
            let bytes = match self.seen.get(path) {
                Some(&(old_ino, old_size, old_m, old_ns)) if old_ino == ino => {
                    if size > old_size {
                        size - old_size
                    } else if (mtime, mtime_ns) != (old_m, old_ns) {
                        size
                    } else {
                        0
                    }
                }
                _ => size,
            };
            if bytes > 0 {
                self.last_files += 1;
            }
            written += bytes;
        }
        self.seen = now;
        written
    }

    /// Total size of the files currently under the tracked directories.
    pub fn total_bytes(&self) -> u64 {
        self.seen.values().map(|v| v.1).sum()
    }
}

fn scan(dir: &Path, out: &mut HashMap<PathBuf, (u64, u64, i64, i64)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        // In-flight temporaries are counted once renamed into place.
        if path.to_string_lossy().contains(".tmp") {
            continue;
        }
        let Ok(md) = std::fs::metadata(&path) else {
            continue;
        };
        if md.is_dir() {
            scan(&path, out);
        } else {
            out.insert(path, (md.ino(), md.len(), md.mtime(), md.mtime_nsec()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_new_appended_and_replaced_files() {
        let dir = crate::test_dir("disk");
        let mut t = DiskTracker::new(&[&dir]);
        std::fs::write(dir.join("a"), b"12345").unwrap();
        assert_eq!(t.written_since(), 5);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("a"))
            .unwrap();
        std::io::Write::write_all(&mut f, b"678").unwrap();
        assert_eq!(t.written_since(), 3);
        std::fs::write(dir.join("b.tmp.1"), b"xx").unwrap();
        std::fs::rename(dir.join("b.tmp.1"), dir.join("a")).unwrap();
        assert_eq!(t.written_since(), 2);
        assert_eq!(t.written_since(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
