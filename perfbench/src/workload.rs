//! The three workloads: their corpora, product flags and the edits that
//! drive them. Inputs are generated from the seed with `ofence_corpus`
//! and written to disk; the program only ever sees those files.

use ofence_corpus::{generate, inject_deviation, inject_edit, Corpus, CorpusSpec, Manifest};
use std::path::{Path, PathBuf};

/// Set-ups per run; the median is reported as `setup_s`.
pub const SETUP_REPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ColdPaper,
    Warm12kEdit,
    Serve1k2Mixed,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    /// A few hundred files: the benchmark's own smoke tests.
    Tiny,
}

impl Kind {
    pub fn parse(name: &str) -> Result<Kind, String> {
        Ok(match name {
            "cold-paper" => Kind::ColdPaper,
            "warm-12k-edit" => Kind::Warm12kEdit,
            "serve-1k2-mixed" => Kind::Serve1k2Mixed,
            _ => {
                return Err(format!(
                    "unknown workload `{name}` (cold-paper, warm-12k-edit, serve-1k2-mixed)"
                ))
            }
        })
    }

    pub fn spec(self, size: Size, seed: u64) -> CorpusSpec {
        let mut spec = match self {
            Kind::ColdPaper => CorpusSpec::paper_scale(seed),
            Kind::Warm12kEdit => CorpusSpec::tier("12k", seed).expect("12k tier"),
            Kind::Serve1k2Mixed => {
                let mut s = CorpusSpec::tier("1200", seed).expect("1200 tier");
                s.cross_file_chains = 12;
                s
            }
        };
        if size == Size::Tiny {
            match self {
                Kind::ColdPaper => {
                    spec.files = 80;
                    spec.decoy_pairs = 3;
                    spec.far_decoy_pairs = 1;
                    spec.reread_decoys = 2;
                    spec.unfenced_decoys = 2;
                    spec.bugs.misplaced = 2;
                    spec.bugs.repeated_read = 1;
                    spec.bugs.unneeded = 4;
                    spec.bugs.missing_barrier = 2;
                }
                Kind::Warm12kEdit => spec.filler_files = 200,
                Kind::Serve1k2Mixed => {
                    spec.filler_files = 120;
                    spec.cross_file_chains = 3;
                }
            }
        }
        spec
    }

    /// Analysis flags the product gets on this workload.
    pub fn analysis_flags(self) -> Vec<String> {
        let flags: &[&str] = match self {
            Kind::ColdPaper => &["--missing"],
            Kind::Warm12kEdit => &[],
            Kind::Serve1k2Mixed => &["--ipa-depth", "2", "--missing"],
        };
        flags.iter().map(|s| s.to_string()).collect()
    }

    pub fn config(self) -> ofence::AnalysisConfig {
        ofence::AnalysisConfig {
            detect_missing: self != Kind::Warm12kEdit,
            ipa_depth: if self == Kind::Serve1k2Mixed { 2 } else { 0 },
            ..Default::default()
        }
    }

    /// Latency limit for `within_slo_share`: about two and a half times
    /// a quiet no-op request for the daemon; for a CLI run, no
    /// multi-second stall beyond what a developer already waits.
    pub fn slo_ms(self) -> f64 {
        match self {
            Kind::Serve1k2Mixed => 1_500.0,
            Kind::ColdPaper | Kind::Warm12kEdit => 5_000.0,
        }
    }
}

/// Write `content` to `path` atomically: a sibling temporary (not a
/// `.c` file, so no corpus walk picks it up) renamed into place.
pub fn write_atomic(path: &Path, content: &str) -> Result<(), String> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("f");
    let tmp = path.with_file_name(format!(".{name}.bench-edit"));
    std::fs::write(&tmp, content).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Write a generated corpus under `dir`.
pub fn write_corpus(corpus: &Corpus, dir: &Path) -> Result<(), String> {
    let mut made = std::collections::HashSet::new();
    for f in &corpus.files {
        let path = dir.join(&f.name);
        if let Some(parent) = path.parent() {
            if made.insert(parent.to_path_buf()) {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("{}: {e}", parent.display()))?;
            }
        }
        std::fs::write(&path, &f.content).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Generate and write a workload's corpus.
pub fn materialize(kind: Kind, size: Size, seed: u64, dir: &Path) -> Result<Corpus, String> {
    let corpus = generate(&kind.spec(size, seed));
    write_corpus(&corpus, dir)?;
    Ok(corpus)
}

/// The benchmark's mirror of a corpus under edit. It applies edits to the
/// files on disk and keeps one manifest per state of the injected
/// deviation, so a response can be graded against every state that was
/// current while its request was in flight.
pub struct Editor {
    corpus: Corpus,
    dir: PathBuf,
    seed_base: u64,
    edits: u64,
    /// Manifests by version; the last is current.
    manifests: Vec<Manifest>,
    /// File and appended text of the currently injected deviation.
    injected: Option<(usize, String)>,
    /// Alternate filler edits with deviation inject/revert edits.
    with_deviations: bool,
}

impl Editor {
    pub fn new(corpus: Corpus, dir: PathBuf, seed: u64, with_deviations: bool) -> Editor {
        let manifests = vec![corpus.manifest.clone()];
        Editor {
            corpus,
            dir,
            // Seeds stay distinct modulo 997 for the first 997 edits, so
            // `inject_edit` never emits a duplicate helper definition.
            seed_base: seed.wrapping_mul(7919).wrapping_add(1) % 1_000_003 * 997,
            edits: 0,
            manifests,
            injected: None,
            with_deviations,
        }
    }

    pub fn version(&self) -> usize {
        self.manifests.len() - 1
    }

    pub fn manifest(&self, version: usize) -> &Manifest {
        &self.manifests[version]
    }

    /// Grade a report against every manifest version in `versions` (those
    /// current while its request was in flight): the first passing grade,
    /// or the last failing one.
    pub fn grade(&self, doc: &serde_json::Value, versions: (usize, usize)) -> crate::oracle::Grade {
        let mut last = crate::oracle::Grade::default();
        for v in versions.0..=versions.1 {
            last = crate::oracle::grade(self.manifest(v), doc);
            if last.pass {
                break;
            }
        }
        last
    }

    /// Apply the next edit to disk; returns the edited file's name.
    pub fn edit(&mut self) -> Result<String, String> {
        let k = self.edits;
        self.edits += 1;
        let seed = self.seed_base + k;
        let idx = if !self.with_deviations || k.is_multiple_of(2) {
            let name = inject_edit(&mut self.corpus, seed);
            self.index_of(&name)
        } else if let Some((idx, text)) = self.injected.take() {
            let f = &mut self.corpus.files[idx];
            f.content = f.content.replacen(&text, "", 1);
            self.corpus.manifest = self.manifests[self.manifests.len() - 2].clone();
            self.manifests.push(self.corpus.manifest.clone());
            idx
        } else {
            let before: Vec<usize> = self.corpus.files.iter().map(|f| f.content.len()).collect();
            let bug = inject_deviation(&mut self.corpus, seed);
            let idx = self.index_of(&bug.file);
            let text = self.corpus.files[idx].content[before[idx]..].to_string();
            self.injected = Some((idx, text));
            self.manifests.push(self.corpus.manifest.clone());
            idx
        };
        let f = &self.corpus.files[idx];
        write_atomic(&self.dir.join(&f.name), &f.content)?;
        Ok(f.name.clone())
    }

    fn index_of(&self, name: &str) -> usize {
        self.corpus
            .files
            .iter()
            .position(|f| f.name == name)
            .expect("edited file belongs to the corpus")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_edits_alternate_inject_and_revert() {
        let dir = crate::test_dir("editor");
        let corpus = materialize(Kind::Serve1k2Mixed, Size::Tiny, 3, &dir).unwrap();
        let base_bugs = corpus.manifest.bugs.len();
        let mut ed = Editor::new(corpus, dir.clone(), 3, true);
        ed.edit().unwrap(); // filler
        assert_eq!(ed.version(), 0);
        let file = ed.edit().unwrap(); // inject
        assert_eq!(ed.manifest(ed.version()).bugs.len(), base_bugs + 1);
        let text = ed.injected.clone().expect("a deviation is injected").1;
        assert!(std::fs::read_to_string(dir.join(&file))
            .unwrap()
            .contains(&text));
        ed.edit().unwrap(); // filler
        ed.edit().unwrap(); // revert
        assert_eq!(ed.manifest(ed.version()).bugs.len(), base_bugs);
        assert!(!std::fs::read_to_string(dir.join(&file))
            .unwrap()
            .contains(&text));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
