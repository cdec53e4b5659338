//! The `analyze_tree` workload: the static analyzer over a generated Rust
//! tree, cold (empty cache), warm (everything cached) and after an edit.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tsvd_analyze::cache::{content_hash, workspace_digest};
use tsvd_analyze::lexer::tokenize;
use tsvd_analyze::{analyze_file_with, analyze_paths_with, AnalysisReport, AnalyzeOptions};
use tsvd_analyze::{Cache, Summaries};
use tsvd_core::rng::{mix, SplitMix64};

use crate::inputs::{self, pair_key, Corpus, PairKey};
use crate::report::{median, Results};
use crate::{until, SETUP_REPS};

/// The generated tree on disk.
pub struct Tree {
    root: PathBuf,
    cache: PathBuf,
    corpus: Corpus,
    rels: Vec<String>,
    seed: u64,
}

impl Tree {
    fn write_all(&self) {
        for (rel, src) in &self.corpus.files {
            let path = self.root.join(rel);
            std::fs::create_dir_all(path.parent().expect("corpus paths have a parent"))
                .expect("create corpus directory");
            std::fs::write(&path, src).expect("write corpus file");
        }
    }

    /// Changes [`inputs::EDIT_FILES`] seeded files' `REV` constant, on
    /// disk and in memory.
    fn edit(&mut self, rep: usize) {
        let mut rng = SplitMix64::new(mix(self.seed ^ (rep as u64) << 20 ^ 0x4544_4954));
        for _ in 0..inputs::EDIT_FILES {
            let f = rng.below(self.corpus.files.len() as u64) as usize;
            let (rel, src) = &mut self.corpus.files[f];
            *src = inputs::edit_rev(src, rng.next());
            std::fs::write(self.root.join(rel.as_str()), src.as_bytes())
                .expect("write edited corpus file");
        }
    }

    fn reset_cache(&self) {
        let _ = std::fs::remove_dir_all(&self.cache);
    }

    /// One `analyze_paths_with` call: wall seconds and its report.
    fn analyze(&self, threads: usize, cached: bool) -> (f64, AnalysisReport) {
        let opts = AnalyzeOptions {
            threads,
            cache_dir: cached.then(|| self.cache.clone()),
        };
        let start = Instant::now();
        let report = analyze_paths_with(&self.root, &self.rels, &opts).expect("analyze corpus");
        (start.elapsed().as_secs_f64(), report)
    }
}

/// Generates and writes the corpus and warms up with one uncached
/// analysis, [`SETUP_REPS`] times; returns the tree and each repetition's
/// seconds.
pub fn setup(seed: u64, work: &Path) -> (Tree, Vec<f64>) {
    let mut times = Vec::new();
    let mut tree = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let root = work.join("tree");
        let _ = std::fs::remove_dir_all(&root);
        let corpus = inputs::corpus(seed);
        let t = Tree {
            rels: corpus.files.iter().map(|(rel, _)| rel.clone()).collect(),
            cache: work.join("analyze-cache"),
            root,
            corpus,
            seed,
        };
        t.write_all();
        t.analyze(1, false);
        times.push(start.elapsed().as_secs_f64());
        tree = Some(t);
    }
    (tree.expect("at least one set-up repetition"), times)
}

/// Scores `report` against the plant list: every reported pair must be
/// planted racy, every planted guarded/ordered candidate must be pruned,
/// and the escapes must be exactly the planted ones. Returns
/// `(precision, recall)`.
fn score(corpus: &Corpus, report: &AnalysisReport, res: &mut Results) -> (f64, f64) {
    let reported: BTreeSet<PairKey> = report
        .pairs
        .iter()
        .map(|p| pair_key(&p.first, &p.second))
        .collect();
    for key in reported.difference(&corpus.racy) {
        res.check(false, || {
            format!("reported pair {} / {} is not planted", key.0, key.1)
        });
    }
    let pruned: BTreeSet<PairKey> = report
        .pruned_pairs
        .iter()
        .map(|p| pair_key(&p.first, &p.second))
        .collect();
    for key in &corpus.pruned {
        res.check(pruned.contains(key), || {
            format!("planted false candidate {} / {} not pruned", key.0, key.1)
        });
    }
    let escapes: BTreeSet<(String, u32)> = report
        .escapes
        .iter()
        .map(|e| (e.file.clone(), e.line))
        .collect();
    res.check(escapes == corpus.escapes, || {
        format!(
            "escapes differ from the plant list: {} reported, {} planted",
            escapes.len(),
            corpus.escapes.len()
        )
    });
    let hit = reported.intersection(&corpus.racy).count() as f64;
    (
        hit / reported.len().max(1) as f64,
        hit / corpus.racy.len().max(1) as f64,
    )
}

/// One cached pass (cold, warm or edit) and an uncached pass over the same
/// tree right beside it, in an order that alternates by repetition, so
/// host drift cancels in their ratio. The cached output must equal the
/// uncached one byte for byte. Returns the cached and uncached seconds and
/// the uncached output.
fn twin(tree: &Tree, what: &str, cached_first: bool, res: &mut Results) -> (f64, f64, String) {
    let (first, a) = tree.analyze(1, cached_first);
    let (second, b) = tree.analyze(1, !cached_first);
    let (a, b) = (a.to_jsonl(), b.to_jsonl());
    res.check(a == b, || {
        format!("{what} output differs from the uncached analysis")
    });
    if cached_first {
        (first, second, b)
    } else {
        (second, first, a)
    }
}

/// One cold → warm → edit repetition: `[cold, warm, edit]` and their
/// uncached twins, seconds. Also scores the output against the plant list
/// and checks that `--threads threads` gives the same bytes.
fn rep(tree: &mut Tree, rep: usize, threads: usize, res: &mut Results) -> ([f64; 3], [f64; 3]) {
    tree.reset_cache();
    let (_, reference) = tree.analyze(threads, false);
    score(&tree.corpus, &reference, res);
    let (cold, u1, uncached) = twin(tree, "cold", rep.is_multiple_of(2), res);
    res.check(uncached == reference.to_jsonl(), || {
        format!("--threads {threads} output differs from --threads 1")
    });
    let (warm, u2, _) = twin(tree, "warm", rep % 2 == 1, res);
    tree.edit(rep);
    let (edit, u3, _) = twin(tree, "edit", rep.is_multiple_of(2), res);
    ([cold, warm, edit], [u1, u2, u3])
}

/// The end-to-end run: `wall_s` is cold + warm + edit, `overhead_ratio`
/// that sequence over its uncached twins, and `peak_rss_mb` the peak
/// memory of a repetition.
pub fn run(tree: &mut Tree, seconds: f64, threads: usize, res: &mut Results) {
    let mut wall = Vec::new();
    let mut ratio = Vec::new();
    let mut rss = Vec::new();
    until(seconds, 3, |i| {
        crate::report::reset_peak_rss();
        let (cached, uncached) = rep(tree, i, threads, res);
        rss.push(crate::report::peak_rss_mb());
        let seq: f64 = cached.iter().sum();
        wall.push(seq);
        ratio.push(seq / uncached.iter().sum::<f64>());
    });
    res.put("wall_s", &wall);
    res.put("overhead_ratio", &ratio);
    res.put("peak_rss_mb", &rss);
}

/// Per-phase timings of one cold → warm → edit sequence, taken by calling
/// the analyzer's phases one by one the way `analyze_paths_with` does.
#[derive(Default)]
struct Phases {
    lex: f64,
    fragments: f64,
    propagate: f64,
    file_pass: f64,
    cold_load: f64,
    store: f64,
    warm_load: f64,
    replica: f64,
    edit_analysis_hits: usize,
    edit_fragment_hits: usize,
    tokens: usize,
}

/// Runs `f`, adding its time to `acc` when `spans` is on.
fn timed<T>(spans: bool, acc: &mut f64, f: impl FnOnce() -> T) -> T {
    if !spans {
        return f();
    }
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

fn read_sources(tree: &Tree) -> Vec<(String, String)> {
    tree.rels
        .iter()
        .map(|rel| {
            let src = std::fs::read_to_string(tree.root.join(rel)).expect("read corpus file");
            (rel.clone(), src)
        })
        .collect()
}

/// The cold pass phase by phase (with a span around every call when
/// `spans`), then warm loads, tokenizing, and cache hits after an edit.
fn phases(tree: &mut Tree, rep: usize, spans: bool) -> Phases {
    let mut p = Phases::default();
    tree.reset_cache();
    let cache = Cache::new(Some(tree.cache.clone()));
    let start = Instant::now();
    let sources = read_sources(tree);
    let hashes: Vec<String> = sources.iter().map(|(_, s)| content_hash(s)).collect();
    let keyed: Vec<(&str, &str)> = sources
        .iter()
        .zip(&hashes)
        .map(|((r, _), h)| (r.as_str(), h.as_str()))
        .collect();
    let ws = workspace_digest(&keyed);
    for ((rel, _), hash) in sources.iter().zip(&hashes) {
        timed(spans, &mut p.cold_load, || {
            cache.load_analysis(rel, hash, &ws)
        });
    }
    let mut fragments = Vec::new();
    for ((rel, src), hash) in sources.iter().zip(&hashes) {
        timed(spans, &mut p.cold_load, || cache.load_fragments(rel, hash));
        let f = timed(spans, &mut p.fragments, || {
            Summaries::file_fragments(rel, src)
        });
        timed(spans, &mut p.store, || cache.store_fragments(rel, hash, &f));
        fragments.extend(f);
    }
    let summaries = timed(spans, &mut p.propagate, || {
        Summaries::from_fragments(fragments)
    });
    for ((rel, src), hash) in sources.iter().zip(&hashes) {
        let fa = timed(spans, &mut p.file_pass, || {
            analyze_file_with(rel, src, &summaries)
        });
        timed(spans, &mut p.store, || {
            cache.store_analysis(rel, hash, &ws, &fa)
        });
    }
    p.replica = start.elapsed().as_secs_f64();
    for (rel, hash) in tree.rels.iter().zip(&hashes) {
        timed(spans, &mut p.warm_load, || {
            cache.load_analysis(rel, hash, &ws)
        });
    }
    for (_, src) in &sources {
        p.tokens += timed(spans, &mut p.lex, || tokenize(src)).len();
    }
    tree.edit(rep);
    let edited = read_sources(tree);
    let hashes: Vec<String> = edited.iter().map(|(_, s)| content_hash(s)).collect();
    let keyed: Vec<(&str, &str)> = edited
        .iter()
        .zip(&hashes)
        .map(|((r, _), h)| (r.as_str(), h.as_str()))
        .collect();
    let ws = workspace_digest(&keyed);
    for ((rel, _), hash) in edited.iter().zip(&hashes) {
        p.edit_analysis_hits += usize::from(cache.load_analysis(rel, hash, &ws).is_some());
        p.edit_fragment_hits += usize::from(cache.load_fragments(rel, hash).is_some());
    }
    p
}

/// The traced run's analyzer layers: phase timings from [`phases`],
/// pass totals from `analyze_paths_with`, fan-out speed-up and counts.
/// Returns the tracing overhead: the phase-by-phase cold pass with its
/// spans over the same pass without them.
pub fn layers(tree: &mut Tree, reps: usize, threads: usize, res: &mut Results) -> f64 {
    const NAMES: [&str; 11] = [
        "analyze.cold_s",
        "analyze.warm_s",
        "analyze.edit_s",
        "analyze.lex_ms",
        "analyze.fragments_ms",
        "analyze.propagate_ms",
        "analyze.file_pass_ms",
        "analyze.cache_load_ms",
        "analyze.cache_store_ms",
        "analyze.merge_ms",
        "analyze.fanout_speedup",
    ];
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); NAMES.len()];
    let mut overhead = Vec::new();
    for i in 0..reps.max(1) {
        let plain = phases(tree, 3 * i, false).replica;
        let p = phases(tree, 3 * i + 1, true);
        tree.reset_cache();
        let (cold, report) = tree.analyze(1, true);
        let (warm, _) = tree.analyze(1, true);
        tree.edit(3 * i + 2);
        let (edit, _) = tree.analyze(1, true);
        tree.reset_cache();
        let (fan_one, _) = tree.analyze(1, true);
        tree.reset_cache();
        let (fan_n, _) = tree.analyze(threads, true);
        let parts = p.fragments + p.propagate + p.file_pass + p.cold_load + p.store;
        let row = [
            cold,
            warm,
            edit,
            p.lex * 1e3,
            p.fragments * 1e3,
            p.propagate * 1e3,
            p.file_pass * 1e3,
            p.warm_load * 1e3,
            p.store * 1e3,
            (cold - parts) * 1e3,
            fan_one / fan_n,
        ];
        for (col, v) in cols.iter_mut().zip(row) {
            col.push(v);
        }
        overhead.push(p.replica / plain);
        if i + 1 == reps.max(1) {
            let (precision, recall) = score(&tree.corpus, &report, res);
            res.put1("analyze.files", report.files_scanned as f64);
            res.put1("analyze.tokens", p.tokens as f64);
            res.put1("analyze.pairs", report.pairs.len() as f64);
            res.put1("analyze.pruned_pairs", report.pruned_pairs.len() as f64);
            res.put1("analyze.static_precision", precision);
            res.put1("analyze.static_recall", recall);
            res.put1("analyze.edit_analysis_hits", p.edit_analysis_hits as f64);
            res.put1("analyze.edit_fragment_hits", p.edit_fragment_hits as f64);
        }
    }
    for (name, col) in NAMES.into_iter().zip(&cols) {
        res.put(name, col);
    }
    median(&overhead)
}
