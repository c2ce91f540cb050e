//! §6.1 benchmarks: full-corpus analysis time and incremental
//! re-analysis after a single-file edit, at several corpus scales.
//!
//! The paper's numbers on Linux 5.11: 8 minutes for the full 614-file
//! analysis on 16 cores, <30 s to update after editing one file. The
//! shape to reproduce: incremental ≪ full, and full scales roughly
//! linearly with file count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ofence::{AnalysisConfig, Engine};
use ofence_bench::harness::to_source_files;
use ofence_corpus::{generate, BugPlan, CorpusSpec};

fn spec_with_files(files: usize) -> CorpusSpec {
    CorpusSpec {
        seed: 7,
        files,
        patterns_per_file: 1,
        noise_per_file: 2,
        decoy_pairs: files / 40,
        far_decoy_pairs: 0,
        lone_per_file: 1,
        split_fraction: 0.2,
        reread_decoys: 0,
        unfenced_decoys: 0,
        filler_files: 0,
        cross_file_chains: 0,
        chain_depth: 2,
        chain_bugs: 0,
        bugs: BugPlan::none(),
    }
}

fn bench_full_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_analysis");
    group.sample_size(10);
    for files in [50usize, 150, 300, 600] {
        let corpus = generate(&spec_with_files(files));
        let sources = to_source_files(&corpus);
        group.bench_with_input(
            BenchmarkId::from_parameter(files),
            &sources,
            |b, sources| {
                b.iter(|| {
                    let mut engine = Engine::new(AnalysisConfig::default());
                    let result = engine.analyze(sources);
                    assert!(result.stats.pairings > 0);
                    result.stats.pairings
                });
            },
        );
    }
    group.finish();
}

fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_one_file_edit");
    group.sample_size(10);
    for files in [150usize, 600] {
        let corpus = generate(&spec_with_files(files));
        let sources = to_source_files(&corpus);
        // Warm the cache once outside the measurement.
        let mut engine = Engine::new(AnalysisConfig::default());
        let _ = engine.analyze(&sources);
        let mut flip = false;
        group.bench_with_input(BenchmarkId::from_parameter(files), &(), |b, _| {
            b.iter(|| {
                let mut edited = sources.clone();
                // Alternate the edit so the cache entry really misses.
                flip = !flip;
                let suffix = if flip { "\n/* a */\n" } else { "\n/* b */\n" };
                let bumped = format!("{}{}", edited[files / 2].content, suffix);
                edited[files / 2].content = bumped.into();
                let result = engine.analyze(&edited);
                result.stats.pairings
            });
        });
    }
    group.finish();
}

fn bench_patch_synthesis(c: &mut Criterion) {
    // §6.2: patch generation cost for a bug-dense corpus.
    let mut spec = spec_with_files(100);
    spec.bugs = BugPlan {
        misplaced: 10,
        repeated_read: 5,
        wrong_type: 2,
        unneeded: 10,
        missing_barrier: 0,
    };
    let corpus = generate(&spec);
    let sources = to_source_files(&corpus);
    let mut engine = Engine::new(AnalysisConfig::default());
    let result = engine.analyze(&sources);
    assert!(!result.deviations.is_empty());
    c.bench_function("patch_synthesis_per_corpus", |b| {
        b.iter(|| {
            let mut count = 0;
            for d in &result.deviations {
                if ofence::patch::synthesize(d, &result.files[d.site.file]).is_some() {
                    count += 1;
                }
            }
            count
        });
    });
}

criterion_group!(
    benches,
    bench_full_analysis,
    bench_incremental,
    bench_patch_synthesis
);
criterion_main!(benches);
