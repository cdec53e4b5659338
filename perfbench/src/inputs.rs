//! Seeded workload inputs: the module suites the runtime workloads execute
//! and the synthetic Rust tree the analyzer workload scans, with its plant
//! list. Everything here is a pure function of the seed.

use std::collections::BTreeSet;

use tsvd_core::rng::{mix, SplitMix64};
use tsvd_workloads::module::Module;
use tsvd_workloads::scenarios::clean;
use tsvd_workloads::suite::{build_suite, SuiteConfig};

/// Modules in the `suite_small` / `fleet_suite` suite.
pub const SUITE_MODULES: usize = 200;
/// Modules in the `cpu_dense` suite.
pub const CPU_MODULES: usize = 48;
/// Source files in the `analyze_tree` corpus.
pub const CORPUS_FILES: usize = 48;
/// Files the `analyze_tree` edit pass changes.
pub const EDIT_FILES: usize = 4;

/// Mixes the repetition index into a workload seed. Each repetition of a
/// run draws its own suite, so a run's median spans several suites and
/// one draw's mix of heavy modules does not decide it.
fn rep_seed(seed: u64, rep: usize, salt: u64) -> u64 {
    mix(seed ^ salt ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The `suite_small` configuration for repetition `rep` of `seed`: the
/// Small-suite analog of `tsvd_workloads::build_suite` at
/// [`SUITE_MODULES`] modules.
pub fn suite_config(seed: u64, rep: usize) -> SuiteConfig {
    SuiteConfig {
        modules: SUITE_MODULES,
        seed: rep_seed(seed, rep, 0x5355_4954),
    }
}

/// The `suite_small` module list.
pub fn suite_small(seed: u64, rep: usize) -> Vec<Module> {
    build_suite(suite_config(seed, rep))
}

/// The `cpu_dense` suite: sleep-free clean modules whose cost is `on_call`
/// and task spawn/join, never an injected delay. Objects per module climb
/// a fixed ladder from a handful (fork/join) through thousands (task
/// swarms, one private dictionary per task) to tens of thousands
/// (read-mostly writers), so every suite has the same largest module and
/// peak memory does not hinge on one draw; the seed sets the rest.
pub fn cpu_dense(seed: u64, rep: usize) -> Vec<Module> {
    let base = rep_seed(seed, rep, 0x4350_5544);
    (0..CPU_MODULES)
        .map(|i| {
            let s = mix(base ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let rung = (i / 3) as u32; // 0 ..= 15
            let m = match i % 3 {
                0 => {
                    let tasks = 16u32 << (rung % 8); // 16 ..= 2048
                    clean::async_chatter(tasks, (24_000 / tasks).max(2))
                }
                1 => clean::fork_join_clean(2 + (s % 7) as u32, 2_000 + (s % 2_000) as u32),
                _ => crate::tasks::read_mostly(
                    2 + (s % 3) as u32,
                    2,
                    64 + (s % 192) as u32,
                    2u32 << (rung % 14), // 2 ..= 16384 private objects per writer
                    2_000 + (s % 2_000) as u32,
                ),
            };
            let name = format!("c{i:03}:{}", m.name());
            Module::new(
                name,
                m.tests(),
                m.expectation(),
                m.uses_async(),
                m.structure(),
                move |ctx| m.run(ctx),
            )
        })
        .collect()
}

/// An unordered static pair key, `(min, max)` of the two site texts.
pub type PairKey = (String, String);

/// Orders two site texts into a [`PairKey`].
pub fn pair_key(a: &str, b: &str) -> PairKey {
    if a <= b {
        (a.to_owned(), b.to_owned())
    } else {
        (b.to_owned(), a.to_owned())
    }
}

/// The generated analyzer corpus and its plant list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corpus {
    /// `(root-relative path, source)` per file.
    pub files: Vec<(String, String)>,
    /// Racy pairs planted: the analyzer must report exactly these.
    pub racy: BTreeSet<PairKey>,
    /// Guarded or ordered candidates planted: the analyzer must prune these.
    pub pruned: BTreeSet<PairKey>,
    /// Raw-collection escapes planted, as `(path, line)`.
    pub escapes: BTreeSet<(String, u32)>,
}

/// One file under construction: lines plus the positions of planted sites.
struct FileGen {
    rel: String,
    lines: Vec<String>,
}

impl FileGen {
    /// Appends a line and returns its 1-based number.
    fn line(&mut self, text: String) -> u32 {
        self.lines.push(text);
        self.lines.len() as u32
    }

    /// Appends a line holding the instrumented call `recv.method(` and
    /// returns the analyzer's site text for it (the method's column).
    fn site(&mut self, text: String, recv: &str, method: &str) -> String {
        let needle = format!("{recv}.{method}(");
        let at = text
            .find(&needle)
            .expect("site line holds the call it plants");
        let col = at + recv.len() + 2;
        let line = self.line(text);
        format!("{}:{line}:{col}", self.rel)
    }
}

/// The shapes a corpus file is made of. The planted ones follow the
/// analyzer's own fixture shapes (shared map, lock discipline, join,
/// scope, channel hand-off, helper flow, escape).
#[derive(Clone, Copy)]
enum Shape {
    Racy,
    Guarded,
    HalfGuarded,
    Joined,
    Scoped,
    Channel,
    Helper,
    Escape,
    Local,
    Filler,
}

/// Shapes per file. Every file holds this multiset in a seeded order, so
/// the seed moves code around and renames it while the tree's size and
/// pair count — what the analyzer's time depends on — stay fixed.
const RECIPE: [(Shape, usize); 10] = [
    (Shape::Racy, 6),
    (Shape::Guarded, 3),
    (Shape::HalfGuarded, 3),
    (Shape::Joined, 3),
    (Shape::Scoped, 3),
    (Shape::Channel, 3),
    (Shape::Helper, 3),
    (Shape::Escape, 3),
    (Shape::Local, 6),
    (Shape::Filler, 12),
];

/// Builds the `analyze_tree` corpus for `seed`.
pub fn corpus(seed: u64) -> Corpus {
    let mut rng = SplitMix64::new(mix(seed ^ 0x414E_414C));
    let mut out = Corpus {
        files: Vec::with_capacity(CORPUS_FILES),
        racy: BTreeSet::new(),
        pruned: BTreeSet::new(),
        escapes: BTreeSet::new(),
    };
    let mut u = 0usize;
    for f in 0..CORPUS_FILES {
        let mut gen = FileGen {
            rel: format!("src/unit_{f:03}.rs"),
            lines: Vec::new(),
        };
        // A quarter of the files import a raw std map; only those plant
        // escapes, since the import is what the escape lint keys on.
        let raw_import = f % 4 == 0;
        gen.line(format!("//! Generated unit {f}."));
        gen.line("use tsvd_collections::Dictionary;".into());
        gen.line("use tsvd_tasks::sync::TsvdMutex;".into());
        gen.line("use tsvd_tasks::Pool;".into());
        if raw_import {
            gen.line("use std::collections::HashMap;".into());
        }
        gen.line(String::new());
        gen.line(format!("pub const REV: u64 = {};", 1000 + rng.below(9000)));
        let mut shapes: Vec<Shape> = RECIPE
            .iter()
            .flat_map(|&(s, n)| std::iter::repeat_n(s, n))
            .collect();
        for i in (1..shapes.len()).rev() {
            shapes.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for mut shape in shapes {
            if matches!(shape, Shape::Escape) && !raw_import {
                shape = Shape::Local;
            }
            u += 1;
            gen.line(String::new());
            plant(&mut gen, &mut out, shape, u, &mut rng);
        }
        let mut src = gen.lines.join("\n");
        src.push('\n');
        out.files.push((gen.rel, src));
    }
    out
}

fn plant(gen: &mut FileGen, out: &mut Corpus, shape: Shape, u: usize, rng: &mut SplitMix64) {
    let v = rng.below(1000);
    match shape {
        Shape::Racy => {
            gen.line(format!("pub fn racy_{u}(pool: &Pool) {{"));
            gen.line(format!("    let shared_{u} = Dictionary::new();"));
            gen.line(format!("    let a_{u} = shared_{u}.clone();"));
            gen.line(format!("    let b_{u} = shared_{u}.clone();"));
            let a = gen.site(
                format!("    pool.spawn(move || a_{u}.set(1, {v}));"),
                &format!("a_{u}"),
                "set",
            );
            gen.line("    pool.spawn(move || {".into());
            let b = gen.site(
                format!("        b_{u}.set(2, {v});"),
                &format!("b_{u}"),
                "set",
            );
            let c = gen.site(format!("        b_{u}.get(&1);"), &format!("b_{u}"), "get");
            gen.line("    });".into());
            let d = gen.site(
                format!("    shared_{u}.len();"),
                &format!("shared_{u}"),
                "len",
            );
            gen.line("}".into());
            for (x, y) in [(&a, &b), (&a, &c), (&a, &d), (&b, &d)] {
                out.racy.insert(pair_key(x, y));
            }
        }
        Shape::Guarded | Shape::HalfGuarded => {
            let both = matches!(shape, Shape::Guarded);
            gen.line(format!("pub fn locked_{u}(pool: &Pool) {{"));
            gen.line(format!("    let table_{u} = Dictionary::new();"));
            gen.line(format!("    let lock_{u} = TsvdMutex::new(0u32);"));
            gen.line(format!("    let t1_{u} = table_{u}.clone();"));
            gen.line(format!("    let l1_{u} = lock_{u}.clone();"));
            gen.line(format!("    let t2_{u} = table_{u}.clone();"));
            if both {
                gen.line(format!("    let l2_{u} = lock_{u}.clone();"));
            }
            gen.line("    pool.spawn(move || {".into());
            gen.line(format!("        let g = l1_{u}.lock();"));
            let a = gen.site(
                format!("        t1_{u}.set(1, {v});"),
                &format!("t1_{u}"),
                "set",
            );
            gen.line("    });".into());
            gen.line("    pool.spawn(move || {".into());
            if both {
                gen.line(format!("        let g = l2_{u}.lock();"));
            }
            let b = gen.site(
                format!("        t2_{u}.set(2, 2);"),
                &format!("t2_{u}"),
                "set",
            );
            if both {
                let c = gen.site(
                    format!("        t2_{u}.get(&1);"),
                    &format!("t2_{u}"),
                    "get",
                );
                out.pruned.insert(pair_key(&a, &b));
                out.pruned.insert(pair_key(&a, &c));
            } else {
                out.racy.insert(pair_key(&a, &b));
            }
            gen.line("    });".into());
            gen.line("}".into());
        }
        Shape::Joined => {
            gen.line(format!("pub fn joined_{u}(pool: &Pool) {{"));
            gen.line(format!("    let ledger_{u} = Dictionary::new();"));
            gen.line(format!("    let l1_{u} = ledger_{u}.clone();"));
            let a = gen.site(
                format!("    let worker_{u} = pool.spawn(move || l1_{u}.set(1, {v}));"),
                &format!("l1_{u}"),
                "set",
            );
            let b = gen.site(
                format!("    ledger_{u}.set(2, 2);"),
                &format!("ledger_{u}"),
                "set",
            );
            gen.line(format!("    let _ = worker_{u}.join();"));
            let c = gen.site(
                format!("    ledger_{u}.set(3, 3);"),
                &format!("ledger_{u}"),
                "set",
            );
            gen.line("}".into());
            out.racy.insert(pair_key(&a, &b));
            out.pruned.insert(pair_key(&a, &c));
        }
        Shape::Scoped => {
            gen.line(format!("pub fn scoped_{u}(pool: &Pool) {{"));
            gen.line(format!("    let grid_{u} = Dictionary::new();"));
            gen.line(format!("    let g1_{u} = grid_{u}.clone();"));
            gen.line("    pool.scope(|s| {".into());
            let a = gen.site(
                format!("        s.spawn(move || g1_{u}.set(1, {v}));"),
                &format!("g1_{u}"),
                "set",
            );
            let b = gen.site(
                format!("        grid_{u}.get(&1);"),
                &format!("grid_{u}"),
                "get",
            );
            gen.line("    });".into());
            let c = gen.site(
                format!("    grid_{u}.set(2, 2);"),
                &format!("grid_{u}"),
                "set",
            );
            gen.line("}".into());
            out.racy.insert(pair_key(&a, &b));
            out.pruned.insert(pair_key(&a, &c));
        }
        Shape::Channel => {
            gen.line(format!("pub fn handoff_{u}(pool: &Pool) {{"));
            gen.line(format!("    let stats_{u} = Dictionary::new();"));
            gen.line(format!("    let s1_{u} = stats_{u}.clone();"));
            gen.line(format!("    let (tx_{u}, rx_{u}) = mpsc::channel();"));
            gen.line("    pool.spawn(move || {".into());
            let a = gen.site(
                format!("        s1_{u}.set(1, {v});"),
                &format!("s1_{u}"),
                "set",
            );
            gen.line(format!("        tx_{u}.send(1);"));
            let b = gen.site(
                format!("        s1_{u}.set(2, 2);"),
                &format!("s1_{u}"),
                "set",
            );
            gen.line("    });".into());
            gen.line(format!("    rx_{u}.recv();"));
            let c = gen.site(
                format!("    stats_{u}.set(3, 3);"),
                &format!("stats_{u}"),
                "set",
            );
            gen.line("}".into());
            out.racy.insert(pair_key(&b, &c));
            out.pruned.insert(pair_key(&a, &c));
        }
        Shape::Helper => {
            gen.line(format!("fn bump_{u}(d: &Dictionary<u64, u64>, k: u64) {{"));
            let h = gen.site("    d.set(k, k);".into(), "d", "set");
            gen.line("}".into());
            gen.line(String::new());
            gen.line(format!("pub fn fan_out_{u}(pool: &Pool) {{"));
            gen.line(format!("    let counts_{u} = Dictionary::new();"));
            gen.line(format!("    let c1_{u} = counts_{u}.clone();"));
            gen.line(format!("    let c2_{u} = counts_{u}.clone();"));
            gen.line(format!("    pool.spawn(move || bump_{u}(&c1_{u}, 1));"));
            gen.line(format!("    pool.spawn(move || bump_{u}(&c2_{u}, {v}));"));
            gen.line("}".into());
            out.racy.insert(pair_key(&h, &h));
        }
        Shape::Escape => {
            gen.line(format!("pub fn leak_{u}(pool: &Pool) {{"));
            let line = gen.line(format!("    let mut cache_{u} = HashMap::new();"));
            gen.line(format!("    cache_{u}.insert(1, {v});"));
            gen.line(format!("    pool.spawn(move || drop(cache_{u}));"));
            gen.line("}".into());
            out.escapes.insert((gen.rel.clone(), line));
        }
        Shape::Local => {
            gen.line(format!("pub fn local_{u}() -> usize {{"));
            gen.line(format!("    let d_{u} = Dictionary::new();"));
            gen.line(format!("    d_{u}.set(1, {v});"));
            gen.line(format!("    d_{u}.get(&1);"));
            gen.line(format!("    d_{u}.len()"));
            gen.line("}".into());
        }
        Shape::Filler => {
            let rounds = 2 + rng.below(6);
            gen.line(format!("pub fn mix_{u}(x: u64) -> u64 {{"));
            gen.line(format!("    let mut acc_{u} = x ^ REV;"));
            for r in 0..rounds {
                gen.line(format!(
                    "    acc_{u} = acc_{u}.rotate_left({}) ^ {};",
                    1 + (r + v) % 63,
                    rng.below(1 << 20)
                ));
            }
            gen.line(format!("    acc_{u}"));
            gen.line("}".into());
        }
    }
}

/// Rewrites `src`'s `REV` constant to `rev` (four digits, so no column
/// moves): an edit that changes the file's content hash and nothing the
/// plant list depends on.
pub fn edit_rev(src: &str, rev: u64) -> String {
    let start = src
        .find("pub const REV: u64 = ")
        .expect("every corpus file defines REV")
        + "pub const REV: u64 = ".len();
    let end = start + src[start..].find(';').expect("REV line ends with ;");
    format!("{}{}{}", &src[..start], 1000 + rev % 9000, &src[end..])
}
