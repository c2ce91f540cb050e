//! Persistent on-disk incremental cache (`.ofence-cache/`).
//!
//! The engine's per-file cache maps a path to `(content hash,
//! FileAnalysis)`. This module makes that map survive the process: it is
//! flushed to disk after a run and re-hydrated before the next one, so a
//! second `ofence analyze` (or every iteration of `ofence watch`) only
//! re-parses the files that actually changed.
//!
//! ## Format
//!
//! The cache is **sharded**: entries are distributed across
//! [`SHARD_COUNT`] files (`shard-00.json` … `shard-15.json`) by a hash
//! of the entry's path. Each shard is a self-contained JSON document
//! with its own header and entry list:
//!
//! ```json
//! {
//!   "format_version": 3,
//!   "tool_version": "0.1.0",
//!   "config_fingerprint": 1234567890,
//!   "entries": [ { "path": "...", "hash": 42, "analysis": { ... } } ]
//! }
//! ```
//!
//! Sharding buys three things on monorepo-scale corpora: shards are
//! written and loaded **in parallel** (serialization of a 100k-file
//! cache is the save-path bottleneck, and JSON encoding cost grows
//! superlinearly with single-document size), corruption is
//! **isolated** — a truncated or hand-edited shard only drops its own
//! entries (they become cold misses) instead of poisoning the whole
//! cache — and a save rewrites only the shards that changed.
//!
//! ## Dirty shards
//!
//! A [`DirtyShards`] tracker (one per engine) records which shards may
//! differ from the directory the engine last loaded from or saved to.
//! A shard is dirty when the engine inserted, replaced or evicted an
//! entry in it, when it was absent, corrupt or stale at load, or when
//! the save goes to another directory. Before saving, every clean shard
//! is also checked with a `stat` against the size, mtime and inode the
//! engine last read or wrote: a shard deleted, truncated or replaced
//! under a long-lived engine is rewritten too. The save writes only
//! dirty shards, so a no-op run writes none and a one-file edit writes
//! one; each write still goes to a temporary file that is renamed into
//! place, so a crashed writer never leaves a truncated shard behind.
//!
//! ## Invalidation rules
//!
//! A shard is **never trusted blindly**. The whole shard is discarded
//! (its entries simply re-analyzed cold) when any of these mismatch:
//!
//! * `format_version` — bumped whenever the serialized shape changes;
//! * `tool_version` — a different build may analyze differently;
//! * `config_fingerprint` — a hash of the full [`AnalysisConfig`], so a
//!   run with different windows/toggles never reuses results computed
//!   under other settings;
//! * any parse/decode failure — a truncated or hand-edited shard is
//!   treated as absent, not as an error.
//!
//! Per entry, the engine additionally compares the stored content hash
//! against the current file content, so stale entries are simply misses.
//!
//! ## What is (and isn't) stored
//!
//! Entries do not store the file's source text: an entry is only ever
//! used when its content hash matches the file on disk, so the engine
//! restores `FileAnalysis::source` from the live corpus. Functions of
//! files with no barrier sites are stored as name/span stubs without
//! their CFG or AST: every downstream consumer of `FileAnalysis::
//! functions` (re-read dataflow gate, patch synthesis, annotation
//! synthesis) reaches a function only through a barrier site in the same
//! file. This keeps warm loads cheap on realistic trees, where most files
//! have no barriers at all. Function summaries exist only when the
//! inter-procedural pass is on (`ipa_depth > 0`), so depth-0 caches
//! carry none. The missing-barrier detector's reader summaries
//! (`FileAnalysis::readers`) are not stored at all, which keeps this
//! format and the per-edit shard writes unchanged by `--missing`: the
//! engine rebuilds them once per hydrated entry, on the worker pool, on
//! its first `--missing` run.

use crate::config::AnalysisConfig;
use crate::ir::BarrierSite;
use crate::sites::{FileAnalysis, FunctionInfo};
use ckit::ast::{FunctionDef, FunctionSig, Type};
use ckit::span::Span;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

/// Bump on any change to the serialized cache shape.
/// v3: sharded container (`shard-NN.json` per path-hash bucket) replaced
/// the single monolithic `cache.json`.
pub const CACHE_FORMAT_VERSION: u32 = 3;

/// Number of shard files the cache is split into. Path-hash modulo; a
/// power of two so the bucket spread is uniform under FNV.
pub const SHARD_COUNT: usize = 16;

/// Legacy (format < 3) monolithic cache file name, recognized only to
/// report a clean "stale cache" outcome instead of "missing".
pub const CACHE_FILE_NAME: &str = "cache.json";

/// Default cache directory name (relative to the working directory).
pub const DEFAULT_CACHE_DIR: &str = ".ofence-cache";

/// FNV-1a content hash — the cache key component for file contents.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Which shard a path's entry lives in.
pub fn shard_of(path: &str) -> usize {
    (content_hash(path.as_bytes()) % SHARD_COUNT as u64) as usize
}

/// File name of shard `i` inside the cache directory.
pub fn shard_file_name(i: usize) -> String {
    format!("shard-{i:02}.json")
}

/// How many threads load/save shards concurrently: one per core, at
/// most one per shard.
fn shard_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(SHARD_COUNT)
}

/// Fingerprint of the analysis configuration: any config change must
/// invalidate the cache, because cached `FileAnalysis` values embed
/// config-dependent decisions (window sizes, expansions, promotions).
pub fn config_fingerprint(config: &AnalysisConfig) -> u64 {
    let text = serde_json::to_string(config).expect("config serializes");
    content_hash(text.as_bytes())
}

/// What `load` found on disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadOutcome {
    /// At least one valid shard was hydrated, `entries` total. Corrupt
    /// or stale sibling shards (if any) were dropped without poisoning
    /// the healthy ones — their entries just re-analyze cold.
    Loaded { entries: usize },
    /// No cache exists yet.
    Missing,
    /// A cache exists but nothing in it was usable; it was ignored.
    Discarded { reason: String },
}

#[derive(Serialize, Deserialize)]
struct CacheDoc {
    format_version: u32,
    /// Version of the cached [`crate::summary::FnSummary`] shape and its
    /// extraction rules — tracked separately from `format_version` so
    /// summary-only changes invalidate warm caches without renumbering
    /// the container format.
    summary_version: u32,
    tool_version: String,
    config_fingerprint: u64,
    entries: Vec<CacheEntry>,
}

#[derive(Serialize, Deserialize)]
struct CacheEntry {
    path: String,
    hash: u64,
    analysis: CachedFile,
}

/// `FileAnalysis` minus the source text (restored from the live corpus
/// on a hash match), with site-free files' functions slimmed to stubs.
#[derive(Serialize, Deserialize)]
struct CachedFile {
    name: String,
    sites: Vec<BarrierSite>,
    functions: Vec<CachedFunction>,
    parse_error_count: usize,
    /// Per-function summaries for the inter-procedural composition pass;
    /// cached so a warm run composes without re-parsing unchanged files.
    summaries: Vec<crate::summary::FnSummary>,
    /// Window calls aligned with `sites` (see [`FileAnalysis`]).
    window_calls: Vec<Vec<crate::summary::WindowCall>>,
}

#[derive(Serialize, Deserialize)]
enum CachedFunction {
    Full(FunctionInfo),
    /// Function of a file with no barrier sites: downstream passes never
    /// consult its CFG or AST, only its existence (function counts).
    Stub {
        name: String,
        span: Span,
    },
}

impl CachedFile {
    fn from_analysis(fa: &FileAnalysis) -> CachedFile {
        let slim = fa.sites.is_empty();
        CachedFile {
            name: fa.name.clone(),
            sites: fa.sites.clone(),
            functions: fa
                .functions
                .iter()
                .map(|f| {
                    if slim {
                        CachedFunction::Stub {
                            name: f.name.clone(),
                            span: f.span,
                        }
                    } else {
                        CachedFunction::Full(f.clone())
                    }
                })
                .collect(),
            parse_error_count: fa.parse_error_count,
            summaries: fa.summaries.clone(),
            window_calls: fa.window_calls.clone(),
        }
    }

    fn into_analysis(self) -> FileAnalysis {
        FileAnalysis {
            file: 0, // re-indexed by the engine on every hit
            name: self.name,
            source: "".into(), // restored from the live corpus
            sites: self.sites,
            functions: self
                .functions
                .into_iter()
                .map(|f| match f {
                    CachedFunction::Full(info) => info,
                    CachedFunction::Stub { name, span } => FunctionInfo {
                        cfg: cfgir::Cfg {
                            name: name.clone(),
                            nodes: Vec::new(),
                            entry: 0,
                            exit: 0,
                        },
                        def: FunctionDef {
                            sig: FunctionSig {
                                name: name.as_str().into(),
                                ret: Type::Void,
                                params: Vec::new(),
                                variadic: false,
                                is_static: false,
                                is_inline: false,
                                span,
                            },
                            body: Vec::new(),
                            span,
                        },
                        name,
                        span,
                    },
                })
                .collect(),
            parse_error_count: self.parse_error_count,
            summaries: self.summaries,
            window_calls: self.window_calls,
            readers: None, // rebuilt once by the engine when needed
        }
    }
}

fn doc_header_error(doc: &CacheDoc, fp: u64) -> Option<String> {
    if doc.format_version != CACHE_FORMAT_VERSION {
        return Some(format!(
            "format version {} (expected {CACHE_FORMAT_VERSION})",
            doc.format_version
        ));
    }
    if doc.summary_version != crate::summary::SUMMARY_VERSION {
        return Some(format!(
            "summary version {} (expected {})",
            doc.summary_version,
            crate::summary::SUMMARY_VERSION
        ));
    }
    if doc.tool_version != env!("CARGO_PKG_VERSION") {
        return Some(format!(
            "written by ofence {} (this is {})",
            doc.tool_version,
            env!("CARGO_PKG_VERSION")
        ));
    }
    if doc.config_fingerprint != fp {
        return Some("analysis configuration changed".to_string());
    }
    None
}

/// Decode one shard's text into its entries, or the reason it is
/// unusable. Each shard carries a full header, so a stale or truncated
/// shard invalidates only itself.
fn decode_shard(text: &str, fp: u64) -> Result<Vec<CacheEntry>, String> {
    let doc: CacheDoc = serde_json::from_str(text).map_err(|e| format!("unreadable cache: {e}"))?;
    match doc_header_error(&doc, fp) {
        Some(reason) => Err(reason),
        None => Ok(doc.entries),
    }
}

fn encode_doc(mut entries: Vec<CacheEntry>, fp: u64) -> String {
    entries.sort_by(|a, b| a.path.cmp(&b.path));
    let doc = CacheDoc {
        format_version: CACHE_FORMAT_VERSION,
        summary_version: crate::summary::SUMMARY_VERSION,
        tool_version: env!("CARGO_PKG_VERSION").to_string(),
        config_fingerprint: fp,
        entries,
    };
    serde_json::to_string(&doc).expect("cache serializes")
}

/// What a `stat` of a shard file shows: enough to notice that another
/// writer replaced (new inode), truncated or rewrote it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Stamp {
    len: u64,
    modified: Option<SystemTime>,
    inode: u64,
}

impl Stamp {
    fn of(meta: &std::fs::Metadata) -> Stamp {
        #[cfg(unix)]
        let inode = std::os::unix::fs::MetadataExt::ino(meta);
        #[cfg(not(unix))]
        let inode = 0;
        Stamp {
            len: meta.len(),
            modified: meta.modified().ok(),
            inode,
        }
    }
}

/// Which shards may differ from the cache directory an engine last
/// loaded from or saved to (see the module docs). A fresh tracker refers
/// to no directory, so its first save writes every shard.
#[derive(Debug)]
pub(crate) struct DirtyShards {
    dir: Option<PathBuf>,
    dirty: [bool; SHARD_COUNT],
    /// For each clean shard, its file's stamp when last read or written.
    stamps: [Option<Stamp>; SHARD_COUNT],
}

impl Default for DirtyShards {
    fn default() -> Self {
        DirtyShards {
            dir: None,
            dirty: [true; SHARD_COUNT],
            stamps: [None; SHARD_COUNT],
        }
    }
}

impl DirtyShards {
    /// Record that the entry for `path` was inserted, replaced or
    /// evicted in memory.
    pub(crate) fn mark(&mut self, path: &str) {
        self.dirty[shard_of(path)] = true;
    }

    /// Start over against `dir`: every shard dirty until read or written.
    fn reset(&mut self, dir: &Path) {
        *self = DirtyShards {
            dir: Some(dir.to_path_buf()),
            ..DirtyShards::default()
        };
    }
}

/// What one cache save wrote.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SaveStats {
    /// Shard files rewritten: 0 for a no-op run, 1 for a one-file edit.
    pub shards_written: u64,
    /// Bytes written across those shards.
    pub bytes: u64,
    /// Wall time of the whole save, in microseconds.
    pub us: u64,
}

/// Run `job` for every shard index in `shards` on up to
/// [`shard_workers`] threads; results come back in `shards` order.
/// Encoding and decoding are allocation-heavy, so the worker count is
/// bounded by the core count: more threads than cores just serialize on
/// the allocator (measured 5-8x slower at 16 threads on one core).
fn per_shard<T: Send>(shards: &[usize], job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots: Vec<Mutex<Option<T>>> = shards.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..shard_workers().min(shards.len()) {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = shards.get(k) else { return };
                let out = job(i);
                *slots[k].lock().expect("shard slot: jobs do not panic") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("shard slot: jobs do not panic")
                .expect("every shard ran")
        })
        .collect()
}

/// Load the cache from `dir`. Never fails: stale or corrupt shards are
/// dropped (reported in the outcome only when *nothing* was usable) and
/// treated as empty. Shards are read and decoded in parallel.
pub fn load(
    dir: &Path,
    config: &AnalysisConfig,
) -> (HashMap<String, (u64, Arc<FileAnalysis>)>, LoadOutcome) {
    load_tracked(dir, config, &mut DirtyShards::default())
}

/// [`load`], resetting `shards` to `dir`: a shard that decoded cleanly
/// is clean (with its file's stamp), an absent, corrupt or stale one is
/// dirty.
pub(crate) fn load_tracked(
    dir: &Path,
    config: &AnalysisConfig,
    shards: &mut DirtyShards,
) -> (HashMap<String, (u64, Arc<FileAnalysis>)>, LoadOutcome) {
    let fp = config_fingerprint(config);
    let all: Vec<usize> = (0..SHARD_COUNT).collect();
    // Per shard: None = file absent, Ok = decoded entries and the stamp
    // of the file they came from, Err = corruption/version reason.
    let outcomes = per_shard(&all, |i| {
        let mut file = std::fs::File::open(dir.join(shard_file_name(i))).ok()?;
        // Stamp the handle that is read: a writer that replaces the file
        // meanwhile leaves a stamp the next save no longer matches.
        let stamp = Stamp::of(&file.metadata().ok()?);
        let mut text = String::new();
        file.read_to_string(&mut text).ok()?;
        Some(decode_shard(&text, fp).map(|entries| (entries, stamp)))
    });
    shards.reset(dir);
    let mut map = HashMap::new();
    let mut entries = 0usize;
    let mut present = 0usize;
    let mut first_reason: Option<String> = None;
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let Some(result) = outcome else { continue };
        present += 1;
        match result {
            Ok((shard_entries, stamp)) => {
                shards.dirty[i] = false;
                shards.stamps[i] = Some(stamp);
                entries += shard_entries.len();
                for e in shard_entries {
                    map.insert(e.path, (e.hash, Arc::new(e.analysis.into_analysis())));
                }
            }
            Err(reason) => {
                if first_reason.is_none() {
                    first_reason = Some(reason);
                }
            }
        }
    }
    if present == 0 {
        // Recognize a pre-v3 monolithic cache so the caller sees a clean
        // "stale, discarded" instead of "missing".
        if dir.join(CACHE_FILE_NAME).exists() {
            return (
                map,
                LoadOutcome::Discarded {
                    reason: format!("monolithic cache from format < {CACHE_FORMAT_VERSION}"),
                },
            );
        }
        return (map, LoadOutcome::Missing);
    }
    match first_reason {
        // Some shards were unusable but others loaded: partial hydration.
        Some(_) if entries > 0 => (map, LoadOutcome::Loaded { entries }),
        Some(reason) => (map, LoadOutcome::Discarded { reason }),
        None => (map, LoadOutcome::Loaded { entries }),
    }
}

/// Write the whole cache to `dir` (created if needed), every shard in
/// parallel. Returns the number of entries written.
pub fn save(
    dir: &Path,
    config: &AnalysisConfig,
    cache: &HashMap<String, (u64, Arc<FileAnalysis>)>,
) -> Result<usize, String> {
    save_dirty(dir, config, cache, &mut DirtyShards::default())?;
    Ok(cache.len())
}

/// Write the shards of `cache` that `shards` marks dirty to `dir`, plus
/// any clean shard whose file changed on disk since it was read or
/// written; everything when `dir` is not the directory `shards` refers
/// to. Each shard goes to a temporary file first and is renamed, so a
/// crashed writer never leaves a truncated shard behind. Shards written
/// become clean; on error the failed ones stay dirty.
pub(crate) fn save_dirty(
    dir: &Path,
    config: &AnalysisConfig,
    cache: &HashMap<String, (u64, Arc<FileAnalysis>)>,
    shards: &mut DirtyShards,
) -> Result<SaveStats, String> {
    let t0 = Instant::now();
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if shards.dir.as_deref() != Some(dir) {
        shards.reset(dir);
    }
    for i in 0..SHARD_COUNT {
        if !shards.dirty[i] {
            let now = std::fs::metadata(dir.join(shard_file_name(i)))
                .ok()
                .map(|m| Stamp::of(&m));
            shards.dirty[i] = now != shards.stamps[i];
        }
    }
    let todo: Vec<usize> = (0..SHARD_COUNT).filter(|&i| shards.dirty[i]).collect();
    let mut groups: Vec<Mutex<Vec<CacheEntry>>> =
        (0..SHARD_COUNT).map(|_| Mutex::new(Vec::new())).collect();
    for (path, (hash, fa)) in cache {
        let i = shard_of(path);
        if shards.dirty[i] {
            groups[i]
                .get_mut()
                .expect("shard group: not shared yet")
                .push(CacheEntry {
                    path: path.clone(),
                    hash: *hash,
                    analysis: CachedFile::from_analysis(fa),
                });
        }
    }
    let fp = config_fingerprint(config);
    let results = per_shard(&todo, |i| {
        let entries =
            std::mem::take(&mut *groups[i].lock().expect("shard group: jobs do not panic"));
        write_shard(dir, i, &encode_doc(entries, fp))
    });
    let mut stats = SaveStats::default();
    let mut first_error = None;
    for (&i, result) in todo.iter().zip(results) {
        match result {
            Ok(stamp) => {
                shards.dirty[i] = false;
                shards.stamps[i] = Some(stamp);
                stats.shards_written += 1;
                stats.bytes += stamp.len;
            }
            Err(e) => {
                first_error.get_or_insert(e);
            }
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    // Drop a leftover pre-v3 monolithic file so it can't shadow the
    // sharded cache in external tooling.
    let _ = std::fs::remove_file(dir.join(CACHE_FILE_NAME));
    stats.us = t0.elapsed().as_micros() as u64;
    Ok(stats)
}

/// Write shard `i` through a temporary file and rename it into place.
/// Returns the stamp of the written file (the rename keeps its inode,
/// size and mtime).
fn write_shard(dir: &Path, i: usize, text: &str) -> Result<Stamp, String> {
    let name = shard_file_name(i);
    let tmp = dir.join(format!("{name}.tmp.{}", std::process::id()));
    let path = dir.join(&name);
    let meta = std::fs::File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(text.as_bytes())?;
            f.metadata()
        })
        .map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Stamp::of(&meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, SourceFile};

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ofence-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn demo_files() -> Vec<SourceFile> {
        vec![
            SourceFile::new(
                "m.c",
                r#"struct m { int init; int y; };
void reader(struct m *a) { if (!a->init) return; smp_rmb(); f(a->y); }
void writer(struct m *b) { b->y = 1; smp_wmb(); b->init = 1; }
"#,
            ),
            SourceFile::new("plain.c", "int helper(int x) { return x + 1; }\n"),
        ]
    }

    /// The shard file holding `path`'s entry for the current layout.
    fn shard_path(dir: &Path, path: &str) -> std::path::PathBuf {
        dir.join(shard_file_name(shard_of(path)))
    }

    #[test]
    fn roundtrip_preserves_results() {
        let dir = tempdir("roundtrip");
        let config = AnalysisConfig::default();
        let files = demo_files();

        let mut e1 = Engine::new(config.clone());
        let r1 = e1.analyze(&files);
        e1.save_disk_cache(&dir).unwrap();

        let mut e2 = Engine::new(config.clone());
        let outcome = e2.load_disk_cache(&dir);
        assert_eq!(outcome, LoadOutcome::Loaded { entries: 2 });
        let r2 = e2.analyze(&files);
        assert_eq!(r2.obs.count_of("engine_cache_hits"), 2);
        assert_eq!(r2.obs.count_of("cache_loads"), 2);
        assert_eq!(r1.sites.len(), r2.sites.len());
        assert_eq!(r1.pairing.pairings.len(), r2.pairing.pairings.len());
        assert_eq!(r1.deviations.len(), r2.deviations.len());
        assert_eq!(r1.annotations.len(), r2.annotations.len());
        // Sources are restored from the live corpus, not the cache file.
        for (a, b) in r1.files.iter().zip(&r2.files) {
            assert_eq!(a.source, b.source);
            assert_eq!(a.functions.len(), b.functions.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sharded on-disk layout is an implementation detail: a save →
    /// load cycle hydrates exactly the map a single-document round-trip
    /// through the same entry codec would produce.
    #[test]
    fn sharded_roundtrip_equals_monolithic() {
        let dir = tempdir("shard-eq-mono");
        let config = AnalysisConfig::default();
        let mut e = Engine::new(config.clone());
        e.analyze(&demo_files());
        e.save_disk_cache(&dir).unwrap();
        let (sharded, outcome) = load(&dir, &config);
        assert_eq!(outcome, LoadOutcome::Loaded { entries: 2 });

        // Monolithic reference: all entries through one CacheDoc.
        let fp = config_fingerprint(&config);
        let entries: Vec<CacheEntry> = sharded
            .iter()
            .map(|(path, (hash, fa))| CacheEntry {
                path: path.clone(),
                hash: *hash,
                analysis: CachedFile::from_analysis(fa),
            })
            .collect();
        let mono = decode_shard(&encode_doc(entries, fp), fp).unwrap();
        assert_eq!(mono.len(), sharded.len());
        for e in mono {
            let (hash, fa) = &sharded[&e.path];
            assert_eq!(e.hash, *hash);
            let rebuilt = e.analysis.into_analysis();
            assert_eq!(rebuilt.name, fa.name);
            assert_eq!(
                serde_json::to_string(&rebuilt.sites).unwrap(),
                serde_json::to_string(&fa.sites).unwrap()
            );
            assert_eq!(rebuilt.parse_error_count, fa.parse_error_count);
            assert_eq!(rebuilt.summaries.len(), fa.summaries.len());
            assert_eq!(
                serde_json::to_string(&rebuilt.window_calls).unwrap(),
                serde_json::to_string(&fa.window_calls).unwrap()
            );
            assert_eq!(rebuilt.functions.len(), fa.functions.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Corrupting one shard drops only its entries; sibling shards stay
    /// hydrated, and the engine's counters match what an undamaged cache
    /// would produce for the surviving entries.
    #[test]
    fn corrupt_shard_does_not_poison_siblings() {
        let dir = tempdir("shard-isolate");
        let config = AnalysisConfig::default();
        let files = demo_files();
        // The two demo paths must land in different shards for the test
        // to mean anything.
        assert_ne!(shard_of("m.c"), shard_of("plain.c"));

        let mut e = Engine::new(config.clone());
        e.analyze(&files);
        e.save_disk_cache(&dir).unwrap();

        std::fs::write(shard_path(&dir, "m.c"), "{ truncated").unwrap();
        let (map, outcome) = load(&dir, &config);
        assert_eq!(outcome, LoadOutcome::Loaded { entries: 1 });
        assert!(map.contains_key("plain.c"));
        assert!(!map.contains_key("m.c"));

        // A warm engine over the damaged cache: one hit, one re-analysis.
        let mut warm = Engine::new(config.clone());
        warm.load_disk_cache(&dir);
        let r = warm.analyze(&files);
        assert_eq!(r.obs.count_of("engine_cache_hits"), 1);
        assert_eq!(r.obs.count_of("engine_files_analyzed"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Eviction and hit counters behave identically whether the cache
    /// came from a sharded disk load or was built in-process — sharding
    /// must be invisible to the engine's accounting.
    #[test]
    fn shard_load_matches_in_process_counters() {
        let dir = tempdir("shard-counters");
        let config = AnalysisConfig::default();
        let files = demo_files();

        // Baseline: warm run against the in-process cache.
        let mut live = Engine::new(config.clone());
        live.analyze(&files);
        let live_warm = live.analyze(&files);

        // Same corpus, warm run against a disk-hydrated cache.
        let mut writer = Engine::new(config.clone());
        writer.analyze(&files);
        writer.save_disk_cache(&dir).unwrap();
        let mut loaded = Engine::new(config.clone());
        loaded.load_disk_cache(&dir);
        let loaded_warm = loaded.analyze(&files);

        for counter in [
            "engine_cache_hits",
            "cache_evictions",
            "engine_files_analyzed",
        ] {
            assert_eq!(
                live_warm.obs.count_of(counter),
                loaded_warm.obs.count_of(counter),
                "{counter} diverged between in-process and sharded-load caches"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_cache_reported() {
        let dir = tempdir("missing");
        let (map, outcome) = load(&dir.join("nope"), &AnalysisConfig::default());
        assert!(map.is_empty());
        assert_eq!(outcome, LoadOutcome::Missing);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_discarded() {
        let dir = tempdir("corrupt");
        for i in 0..SHARD_COUNT {
            std::fs::write(dir.join(shard_file_name(i)), "{ not json").unwrap();
        }
        let (map, outcome) = load(&dir, &AnalysisConfig::default());
        assert!(map.is_empty());
        assert!(
            matches!(outcome, LoadOutcome::Discarded { .. }),
            "{outcome:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A pre-v3 monolithic `cache.json` is recognized and reported as
    /// discarded (stale format), not as a missing cache.
    #[test]
    fn legacy_monolithic_cache_discarded() {
        let dir = tempdir("legacy");
        std::fs::write(dir.join(CACHE_FILE_NAME), "{\"format_version\":2}").unwrap();
        let (map, outcome) = load(&dir, &AnalysisConfig::default());
        assert!(map.is_empty());
        match outcome {
            LoadOutcome::Discarded { reason } => assert!(reason.contains("monolithic")),
            other => panic!("{other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn format_version_mismatch_discarded() {
        let dir = tempdir("version");
        let config = AnalysisConfig::default();
        let mut e = Engine::new(config.clone());
        e.analyze(&demo_files());
        e.save_disk_cache(&dir).unwrap();
        for i in 0..SHARD_COUNT {
            let path = dir.join(shard_file_name(i));
            let text = std::fs::read_to_string(&path).unwrap().replacen(
                &format!("\"format_version\":{CACHE_FORMAT_VERSION}"),
                "\"format_version\":999",
                1,
            );
            std::fs::write(&path, text).unwrap();
        }
        let (map, outcome) = load(&dir, &config);
        assert!(map.is_empty());
        match outcome {
            LoadOutcome::Discarded { reason } => assert!(reason.contains("format version")),
            other => panic!("{other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_change_discards_cache() {
        let dir = tempdir("config");
        let mut e = Engine::new(AnalysisConfig::default());
        e.analyze(&demo_files());
        e.save_disk_cache(&dir).unwrap();
        let other = AnalysisConfig {
            write_window: 9,
            ..Default::default()
        };
        let (map, outcome) = load(&dir, &other);
        assert!(map.is_empty());
        match outcome {
            LoadOutcome::Discarded { reason } => assert!(reason.contains("configuration")),
            other => panic!("{other:?}"),
        }
        // The original config still loads.
        let (map, outcome) = load(&dir, &AnalysisConfig::default());
        assert_eq!(map.len(), 2);
        assert_eq!(outcome, LoadOutcome::Loaded { entries: 2 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_depends_on_config() {
        let a = config_fingerprint(&AnalysisConfig::default());
        let b = config_fingerprint(&AnalysisConfig {
            read_window: 7,
            ..Default::default()
        });
        assert_ne!(a, b);
    }

    /// A warm cache written at one `--ipa-depth` must not be silently
    /// reused at another: summaries are depth-independent but the
    /// composed accesses derived from them are not, so the fingerprint
    /// has to cover the depth.
    #[test]
    fn ipa_depth_change_discards_cache() {
        let dir = tempdir("ipa-depth");
        let mut e = Engine::new(AnalysisConfig::default());
        e.analyze(&demo_files());
        e.save_disk_cache(&dir).unwrap();
        let deep = AnalysisConfig {
            ipa_depth: 2,
            ..Default::default()
        };
        assert_ne!(
            config_fingerprint(&AnalysisConfig::default()),
            config_fingerprint(&deep)
        );
        let (map, outcome) = load(&dir, &deep);
        assert!(map.is_empty());
        match outcome {
            LoadOutcome::Discarded { reason } => assert!(reason.contains("configuration")),
            other => panic!("{other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every shard file's stamp (inode, size, mtime), `None` if absent.
    fn disk_stamps(dir: &Path) -> Vec<Option<Stamp>> {
        (0..SHARD_COUNT)
            .map(|i| {
                std::fs::metadata(dir.join(shard_file_name(i)))
                    .ok()
                    .map(|m| Stamp::of(&m))
            })
            .collect()
    }

    /// Indices of the shards whose file differs between two stamp sets.
    fn changed(before: &[Option<Stamp>], after: &[Option<Stamp>]) -> Vec<usize> {
        (0..SHARD_COUNT)
            .filter(|&i| before[i] != after[i])
            .collect()
    }

    /// A cold engine's cache saved to a fresh `dir`, and a warm engine
    /// loaded from it (the CLI's warm-run shape).
    fn warm_engine(tag: &str) -> (std::path::PathBuf, Engine) {
        let dir = tempdir(tag);
        let config = AnalysisConfig::default();
        let mut cold = Engine::new(config.clone());
        cold.analyze(&demo_files());
        cold.save_disk_cache(&dir).unwrap();
        assert_eq!(cold.last_save().unwrap().shards_written, SHARD_COUNT as u64);
        let mut warm = Engine::new(config);
        assert_eq!(
            warm.load_disk_cache(&dir),
            LoadOutcome::Loaded { entries: 2 }
        );
        (dir, warm)
    }

    /// The `k`th shard index holding neither demo file's entry.
    fn empty_shard(k: usize) -> usize {
        (0..SHARD_COUNT)
            .filter(|&i| i != shard_of("m.c") && i != shard_of("plain.c"))
            .nth(k)
            .unwrap()
    }

    #[test]
    fn noop_warm_run_rewrites_no_shard() {
        let (dir, mut warm) = warm_engine("dirty-noop");
        let before = disk_stamps(&dir);
        warm.analyze(&demo_files());
        assert_eq!(warm.save_disk_cache(&dir).unwrap(), 2);
        let saved = warm.last_save().unwrap();
        assert_eq!((saved.shards_written, saved.bytes), (0, 0));
        assert_eq!(changed(&before, &disk_stamps(&dir)), Vec::<usize>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_file_edit_rewrites_exactly_its_shard() {
        let (dir, mut warm) = warm_engine("dirty-edit");
        let before = disk_stamps(&dir);
        let mut files = demo_files();
        files[0].content =
            format!("{}\nint edited(void) {{ return 1; }}\n", files[0].content).into();
        warm.analyze(&files);
        warm.save_disk_cache(&dir).unwrap();
        assert_eq!(warm.last_save().unwrap().shards_written, 1);
        assert_eq!(changed(&before, &disk_stamps(&dir)), vec![shard_of("m.c")]);
        // The rewritten shard serves the edit: a fresh engine hits both.
        let mut next = Engine::new(AnalysisConfig::default());
        next.load_disk_cache(&dir);
        assert_eq!(next.analyze(&files).obs.count_of("engine_cache_hits"), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deleted_file_shard_is_rewritten_without_it() {
        let (dir, mut warm) = warm_engine("dirty-delete");
        let before = disk_stamps(&dir);
        let mut files = demo_files();
        files.retain(|f| f.name != "plain.c");
        warm.analyze(&files);
        warm.save_disk_cache(&dir).unwrap();
        assert_eq!(
            changed(&before, &disk_stamps(&dir)),
            vec![shard_of("plain.c")]
        );
        let (map, outcome) = load(&dir, &AnalysisConfig::default());
        assert_eq!(outcome, LoadOutcome::Loaded { entries: 1 });
        assert!(!map.contains_key("plain.c"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A shard that was corrupt, missing or written under another config
    /// when the engine loaded is rewritten at the next save, even though
    /// the run changed no entry in it.
    #[test]
    fn bad_shards_at_load_are_rewritten() {
        let dir = tempdir("dirty-bad-load");
        let config = AnalysisConfig::default();
        let mut cold = Engine::new(config.clone());
        cold.analyze(&demo_files());
        cold.save_disk_cache(&dir).unwrap();
        let other_dir = tempdir("dirty-bad-load-other");
        let other = AnalysisConfig {
            write_window: 9,
            ..Default::default()
        };
        save(&other_dir, &other, &HashMap::new()).unwrap();
        let (corrupt, missing, stale) = (empty_shard(0), empty_shard(1), empty_shard(2));
        std::fs::write(dir.join(shard_file_name(corrupt)), "{ truncated").unwrap();
        std::fs::remove_file(dir.join(shard_file_name(missing))).unwrap();
        std::fs::copy(
            other_dir.join(shard_file_name(stale)),
            dir.join(shard_file_name(stale)),
        )
        .unwrap();

        let mut warm = Engine::new(config.clone());
        warm.load_disk_cache(&dir);
        let before = disk_stamps(&dir);
        warm.analyze(&demo_files());
        warm.save_disk_cache(&dir).unwrap();
        let mut rewritten = changed(&before, &disk_stamps(&dir));
        rewritten.sort_unstable();
        let mut expected = vec![corrupt, missing, stale];
        expected.sort_unstable();
        assert_eq!(rewritten, expected);
        // Every shard decodes under the current config again.
        let mut tracker = DirtyShards::default();
        let (_, outcome) = load_tracked(&dir, &config, &mut tracker);
        assert_eq!(outcome, LoadOutcome::Loaded { entries: 2 });
        assert!(tracker.dirty.iter().all(|d| !d), "{tracker:?}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&other_dir);
    }

    #[test]
    fn save_to_another_directory_writes_every_shard() {
        let (dir, mut warm) = warm_engine("dirty-move");
        warm.analyze(&demo_files());
        let elsewhere = tempdir("dirty-move-elsewhere");
        warm.save_disk_cache(&elsewhere).unwrap();
        assert_eq!(warm.last_save().unwrap().shards_written, SHARD_COUNT as u64);
        assert!(disk_stamps(&elsewhere).iter().all(Option::is_some));
        let (_, outcome) = load(&elsewhere, &AnalysisConfig::default());
        assert_eq!(outcome, LoadOutcome::Loaded { entries: 2 });
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&elsewhere);
    }

    /// A long-lived engine (the daemon's) notices a shard deleted or
    /// truncated under it and rewrites it at its next save.
    #[test]
    fn shard_changed_under_live_engine_is_rewritten() {
        let dir = tempdir("dirty-live");
        let mut live = Engine::new(AnalysisConfig::default());
        live.analyze(&demo_files());
        live.save_disk_cache(&dir).unwrap();
        let deleted = empty_shard(0);
        std::fs::remove_file(dir.join(shard_file_name(deleted))).unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(shard_path(&dir, "m.c"))
            .unwrap()
            .set_len(3)
            .unwrap();

        live.analyze(&demo_files());
        live.save_disk_cache(&dir).unwrap();
        assert_eq!(live.last_save().unwrap().shards_written, 2);
        let (map, outcome) = load(&dir, &AnalysisConfig::default());
        assert_eq!(outcome, LoadOutcome::Loaded { entries: 2 });
        assert!(map.contains_key("m.c"));
        assert!(dir.join(shard_file_name(deleted)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn site_free_files_are_slimmed() {
        let dir = tempdir("slim");
        let config = AnalysisConfig::default();
        let mut e = Engine::new(config.clone());
        e.analyze(&demo_files());
        e.save_disk_cache(&dir).unwrap();
        let text = std::fs::read_to_string(shard_path(&dir, "plain.c")).unwrap();
        // plain.c has no barriers: its helper is a stub, not a full AST.
        assert!(text.contains("Stub"), "expected slim entry");
        let (map, _) = load(&dir, &config);
        let (_, fa) = &map["plain.c"];
        assert_eq!(fa.functions.len(), 1);
        assert_eq!(fa.functions[0].name, "helper");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
