//! Input collection: expand files and directories into [`SourceFile`]s.
//!
//! Lived in the CLI crate until the analysis server (ROADMAP item 1)
//! needed the same corpus walking from inside `core`: the daemon
//! re-collects its watched paths on every request to snapshot the
//! corpus, so the walker has to be shared, not duplicated.

use crate::engine::SourceFile;
use std::path::Path;

/// Load every `.c` file reachable from the given paths, sorted by path
/// for deterministic output.
pub fn collect_sources(paths: &[String]) -> Result<Vec<SourceFile>, String> {
    let mut files: Vec<(String, String)> = Vec::new();
    for p in paths {
        let path = Path::new(p);
        if path.is_dir() {
            walk_dir(path, &mut files)?;
        } else if path.is_file() {
            let content =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            files.push((p.clone(), content));
        } else {
            return Err(format!("{p}: no such file or directory"));
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files.dedup_by(|a, b| a.0 == b.0);
    if files.is_empty() {
        return Err("no .c files found under the given paths".into());
    }
    Ok(files
        .into_iter()
        .map(|(name, content)| SourceFile::new(name, content))
        .collect())
}

fn walk_dir(dir: &Path, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut entries: Vec<_> = entries
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            walk_dir(&path, out)?;
        } else if path.extension().and_then(|s| s.to_str()) == Some("c") {
            let content =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            out.push((path.display().to_string(), content));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ofence-walk-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        dir
    }

    #[test]
    fn collects_recursively_and_sorted() {
        let dir = tempdir("sorted");
        std::fs::write(dir.join("b.c"), "int b;").unwrap();
        std::fs::write(dir.join("a.c"), "int a;").unwrap();
        std::fs::write(dir.join("sub/c.c"), "int c;").unwrap();
        std::fs::write(dir.join("not-c.txt"), "skip").unwrap();
        std::fs::write(dir.join("header.h"), "int h;").unwrap();
        let sources = collect_sources(&[dir.display().to_string()]).unwrap();
        let names: Vec<&str> = sources.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), 3);
        assert!(names[0].ends_with("a.c"));
        assert!(names[1].ends_with("b.c"));
        assert!(names[2].ends_with("c.c"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_path_is_an_error() {
        let err = collect_sources(&["/no/such/path".to_string()]).unwrap_err();
        assert!(err.contains("no such file"), "{err}");
    }

    #[test]
    fn explicit_file_any_extension() {
        let dir = tempdir("file");
        let p = dir.join("x.inc");
        std::fs::write(&p, "int x;").unwrap();
        let sources = collect_sources(&[p.display().to_string()]).unwrap();
        assert_eq!(sources.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_corpus_is_an_error() {
        let dir = tempdir("empty");
        let err = collect_sources(&[dir.display().to_string()]).unwrap_err();
        assert!(err.contains("no .c files"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
