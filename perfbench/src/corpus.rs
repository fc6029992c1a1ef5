//! The benchmark's inputs and the verdict each must receive.
//!
//! Two corpora:
//!
//! - **realistic** — every `examples/*.c`, every fixed trophy in
//!   `trophy-case/`, and [`FUZZ_PROGRAMS`] fuzz programs generated from
//!   the run's seed, one third of each class;
//! - **loops** — the loop-heavy bench programs of `cundef_bench::corpus`
//!   (standard, typed, mem and calls) at their bench sizes.
//!
//! Expected verdicts come from sources independent of the checker under
//! test: the fuzz class contract (a doomed program is undefined with the
//! injected kind's code; a constant expression gets the verdict of the
//! translation-time folder; a defined program and every loop program
//! exit as the native `gcc` build exits), each trophy's `.expected`
//! file, and for the examples the table pinned in [`EXAMPLES`].

use cundef_fuzz::decision::DecisionSource;
use cundef_fuzz::gen::{generate, Class};
use cundef_fuzz::rng::{case_seed, SplitMix64};
use cundef_fuzz::trophy::Trophy;
use cundef_semantics::ast::Stmt;
use cundef_semantics::consteval::{const_eval, ConstStop};
use cundef_semantics::parser::parse;
use cundef_ub::render::Verdict;
use std::path::{Path, PathBuf};

/// Fuzz programs in the realistic corpus (a third of each class).
pub const FUZZ_PROGRAMS: u64 = 300;

/// Where an input comes from; also its oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Source {
    /// `examples/*.c`, checked against [`EXAMPLES`].
    Example,
    /// `trophy-case/*.c`, checked against its `.expected` file.
    Trophy,
    /// A generated constant expression.
    FuzzConst,
    /// A generated UB-free program.
    FuzzDefined,
    /// A generated program with one injected static defect.
    FuzzDoomed,
    /// A loop-heavy bench program.
    Loop,
}

impl Source {
    /// Stable name for the composition report.
    pub fn name(self) -> &'static str {
        match self {
            Source::Example => "example",
            Source::Trophy => "trophy",
            Source::FuzzConst => "fuzz-const",
            Source::FuzzDefined => "fuzz-defined",
            Source::FuzzDoomed => "fuzz-doomed",
            Source::Loop => "loop",
        }
    }

    /// Does the native build fix this input's exit code?
    fn native_exit(self) -> bool {
        matches!(self, Source::FuzzDefined | Source::Loop)
    }
}

/// The answer an input must receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Defined or undefined (no input of the benchmark may stop the
    /// engine).
    pub verdict: Verdict,
    /// The first reported UB code, for undefined inputs.
    pub code: Option<u16>,
    /// The program's exit value, when known for a defined input.
    pub exit: Option<i64>,
}

impl Expect {
    fn defined(exit: Option<i64>) -> Expect {
        Expect {
            verdict: Verdict::Defined,
            code: None,
            exit,
        }
    }

    fn undefined(code: u16) -> Expect {
        Expect {
            verdict: Verdict::Undefined,
            code: Some(code),
            exit: None,
        }
    }
}

/// One benchmark input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    /// Stable label, also the relative path it is written under.
    pub name: String,
    /// The C source.
    pub source: String,
    /// Origin and oracle.
    pub origin: Source,
    /// The verdict it must receive.
    pub expect: Expect,
}

/// Pinned verdicts for `examples/*.c`: `(file, first UB code)` with
/// `None` for a defined program, plus its exit value. Agrees with the
/// defined and undefined example lists the CLI tests enforce.
pub const EXAMPLES: &[(&str, Option<u16>, Option<i64>)] = &[
    ("alias_write.c", Some(33), None),
    ("bad_free.c", Some(40), None),
    ("call_arity.c", Some(50), None),
    ("case_dup.c", Some(83), None),
    ("dangling.c", Some(22), None),
    ("defined.c", None, Some(21)),
    ("division_by_zero.c", Some(2), None),
    ("double_free.c", Some(42), None),
    ("goto_loop.c", None, Some(0)),
    ("goto_vla.c", Some(76), None),
    ("memrep_char.c", None, Some(0)),
    ("misaligned.c", Some(30), None),
    ("narrow_conv.c", None, Some(0)),
    ("neg_array_static.c", Some(70), None),
    ("null_deref.c", Some(20), None),
    ("out_of_bounds.c", Some(23), None),
    ("shift_long.c", Some(7), None),
    ("shift_width.c", Some(7), None),
    ("signed_overflow.c", Some(4), None),
    ("sizeof_expr.c", None, Some(0)),
    ("static_redecl.c", Some(74), None),
    ("uninit_byte.c", Some(28), None),
    ("uninitialized.c", Some(28), None),
    ("unsequenced.c", Some(16), None),
    ("unsigned_wrap.c", None, Some(0)),
    ("vla_size.c", Some(71), None),
    ("void_object.c", Some(82), None),
];

fn example_expect(file: &str) -> Option<Expect> {
    EXAMPLES
        .iter()
        .find(|(f, _, _)| *f == file)
        .map(|&(_, code, exit)| match code {
            Some(c) => Expect::undefined(c),
            None => Expect::defined(exit),
        })
}

/// The verdict of `int main(void) { <expr>; return 0; }` under the
/// translation-time folder: undefined with the folded kind, or defined
/// with exit 0.
fn const_expect(expr: &str) -> Result<Expect, String> {
    let src = format!("int main(void) {{ {expr}; return 0; }}");
    let unit = parse(&src).map_err(|e| format!("constant `{expr}`: {e}"))?;
    let main = unit
        .function_named("main")
        .expect("the wrapper defines main");
    let Stmt::Expr(e) = unit.stmt(main.body[0]) else {
        return Err(format!("constant `{expr}` is not an expression statement"));
    };
    match const_eval(&unit, *e) {
        Ok(_) => Ok(Expect::defined(Some(0))),
        Err(ConstStop::Ub { kind, .. }) => Ok(Expect::undefined(kind.code())),
        Err(ConstStop::NotConst(loc)) => Err(format!("`{expr}` is not constant at {loc}")),
    }
}

fn trophy_expect(t: &Trophy) -> Result<Expect, String> {
    match t.class {
        Class::Defined => Ok(Expect::defined(t.exit)),
        Class::Doomed => t
            .injected
            .map(|k| Expect::undefined(k.code()))
            .ok_or_else(|| format!("{}: doomed trophy without `injected:`", t.stem)),
        Class::ConstExpr => const_expect(
            t.expr
                .as_deref()
                .ok_or_else(|| format!("{}: const-expr trophy without `expr:`", t.stem))?,
        ),
    }
}

/// The `.c` files of `dir`, sorted.
fn c_files(dir: &Path) -> Result<Vec<String>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".c"))
        .collect();
    names.sort();
    Ok(names)
}

/// The realistic corpus for `seed`, rooted at the repository `root`.
/// Exit codes fixed by the native build are filled in by
/// [`Native::fill`].
pub fn realistic(root: &Path, seed: u64) -> Result<Vec<Input>, String> {
    let mut out = Vec::new();
    let examples = root.join("examples");
    for file in c_files(&examples)? {
        let expect = example_expect(&file)
            .ok_or_else(|| format!("examples/{file} has no pinned verdict"))?;
        let source = std::fs::read_to_string(examples.join(&file))
            .map_err(|e| format!("examples/{file}: {e}"))?;
        out.push(Input {
            name: format!("examples/{file}"),
            source,
            origin: Source::Example,
            expect,
        });
    }
    for t in Trophy::load_all(&root.join("trophy-case"))? {
        if !t.fixed {
            // A known-failing trophy has no settled verdict to check.
            continue;
        }
        out.push(Input {
            name: format!("trophy-case/{}.c", t.stem),
            expect: trophy_expect(&t)?,
            source: t.source,
            origin: Source::Trophy,
        });
    }
    for i in 0..FUZZ_PROGRAMS {
        let class = Class::of_case(i);
        let case = generate(class, &mut DecisionSource::from_seed(case_seed(seed, i)));
        let (origin, expect) = match class {
            Class::ConstExpr => (
                Source::FuzzConst,
                const_expect(case.expr.as_deref().expect("const case has an expression"))?,
            ),
            Class::Defined => (Source::FuzzDefined, Expect::defined(None)),
            Class::Doomed => (
                Source::FuzzDoomed,
                Expect::undefined(case.injected.expect("doomed case has a kind").code()),
            ),
        };
        out.push(Input {
            name: format!("fuzz/{}-{i:03}.c", class.name()),
            source: case.source,
            origin,
            expect,
        });
    }
    Ok(out)
}

/// The loop corpus (defined programs; exits from [`Native::fill`]).
pub fn loops() -> Vec<Input> {
    use cundef_bench::corpus;
    [
        corpus::standard(),
        corpus::typed(),
        corpus::mem(),
        corpus::calls(),
    ]
    .into_iter()
    .flatten()
    .map(|p| Input {
        name: format!("loops/{}.c", p.name),
        source: p.source,
        origin: Source::Loop,
        expect: Expect::defined(None),
    })
    .collect()
}

/// A seeded permutation of `0..n` (Fisher–Yates over SplitMix64).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Print file count and total bytes per origin.
pub fn print_composition(workload: &str, inputs: &[Input]) {
    let mut origins: Vec<Source> = inputs.iter().map(|i| i.origin).collect();
    origins.sort();
    origins.dedup();
    for o in origins {
        let of: Vec<&Input> = inputs.iter().filter(|i| i.origin == o).collect();
        let undefined = of
            .iter()
            .filter(|i| i.expect.verdict == Verdict::Undefined)
            .count();
        println!(
            "composition {workload}: class {} files {} bytes {} undefined {}",
            o.name(),
            of.len(),
            of.iter().map(|i| i.source.len()).sum::<usize>(),
            undefined
        );
    }
}

/// The native-compiler oracle: `gcc -std=c11 -O1` builds each program
/// and runs it; its exit status is the expected exit. Results are cached
/// on disk by content hash, so repeated seeds skip the compiler.
pub struct Native {
    compiler: Option<&'static str>,
    dir: PathBuf,
}

impl Native {
    /// Use `gcc` when it is on `PATH`; otherwise exits stay unchecked.
    pub fn detect(dir: PathBuf) -> Native {
        let found = std::process::Command::new("gcc")
            .arg("--version")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        Native {
            compiler: found.then_some("gcc"),
            dir,
        }
    }

    /// Whether a compiler was found.
    pub fn available(&self) -> bool {
        self.compiler.is_some()
    }

    /// Fill in the native exit of every input whose contract takes it
    /// from the native build (two compiler processes at a time).
    pub fn fill(&self, inputs: &mut [Input]) -> Result<(), String> {
        let Some(cc) = self.compiler else {
            return Ok(());
        };
        std::fs::create_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))?;
        let mut todo: Vec<&mut Input> = inputs
            .iter_mut()
            .filter(|i| i.origin.native_exit())
            .collect();
        let half = todo.len() / 2;
        let (a, b) = todo.split_at_mut(half);
        std::thread::scope(|s| {
            let workers: Vec<_> = [a, b]
                .into_iter()
                .map(|part| {
                    s.spawn(move || -> Result<(), String> {
                        for input in part {
                            input.expect.exit = Some(self.exit_of(cc, input)?);
                        }
                        Ok(())
                    })
                })
                .collect();
            workers
                .into_iter()
                .try_for_each(|w| w.join().expect("native oracle worker panicked"))
        })
    }

    fn exit_of(&self, cc: &str, input: &Input) -> Result<i64, String> {
        let key = format!(
            "{:016x}",
            cundef_cache::content_hash(input.source.as_bytes())
        );
        let cached = self.dir.join(format!("{key}.exit"));
        if let Some(e) = std::fs::read_to_string(&cached)
            .ok()
            .and_then(|s| s.trim().parse().ok())
        {
            return Ok(e);
        }
        let c_path = self.dir.join(format!("{key}.c"));
        let bin = self.dir.join(format!("{key}.bin"));
        // The subset calls malloc/free without headers.
        std::fs::write(&c_path, format!("#include <stdlib.h>\n{}", input.source))
            .map_err(|e| format!("{}: {e}", c_path.display()))?;
        let built = std::process::Command::new(cc)
            .args(["-std=c11", "-O1", "-w", "-o"])
            .arg(&bin)
            .arg(&c_path)
            .output()
            .map_err(|e| format!("{cc}: {e}"))?;
        if !built.status.success() {
            return Err(format!(
                "{cc} rejected {}: {}",
                input.name,
                String::from_utf8_lossy(&built.stderr)
            ));
        }
        let ran = std::process::Command::new(&bin)
            .output()
            .map_err(|e| format!("running {}: {e}", input.name))?;
        let _ = std::fs::remove_file(&c_path);
        let _ = std::fs::remove_file(&bin);
        let exit = i64::from(
            ran.status
                .code()
                .ok_or_else(|| format!("native {} died by a signal", input.name))?,
        );
        std::fs::write(&cached, exit.to_string())
            .map_err(|e| format!("{}: {e}", cached.display()))?;
        Ok(exit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark sits in the repository")
            .to_path_buf()
    }

    #[test]
    fn the_table_covers_every_example_and_every_trophy() {
        let root = repo();
        let files = c_files(&root.join("examples")).unwrap();
        assert_eq!(files.len(), EXAMPLES.len(), "one pinned row per example");
        for f in &files {
            assert!(example_expect(f).is_some(), "examples/{f} is not pinned");
        }
        let trophies = Trophy::load_all(&root.join("trophy-case")).unwrap();
        assert!(!trophies.is_empty());
        for t in &trophies {
            assert!(t.fixed, "{} is known-failing", t.stem);
            trophy_expect(t).unwrap();
        }
        let corpus = realistic(&root, 1).unwrap();
        let count = |o: Source| corpus.iter().filter(|i| i.origin == o).count();
        assert_eq!(count(Source::Example), files.len());
        assert_eq!(count(Source::Trophy), trophies.len());
        assert_eq!(
            count(Source::FuzzConst) + count(Source::FuzzDefined) + count(Source::FuzzDoomed),
            FUZZ_PROGRAMS as usize
        );
    }

    /// The pinned table agrees with the CLI end-to-end test's lists of
    /// defined examples and of undefined examples with their codes.
    #[test]
    fn the_table_agrees_with_the_cli_test_lists() {
        let cli = std::fs::read_to_string(repo().join("crates/cli/tests/cli.rs")).unwrap();
        let mut undefined = std::collections::BTreeSet::new();
        let mut defined = Vec::new();
        let mut in_defined = false;
        for line in cli.lines().map(str::trim) {
            if line.starts_with("const DEFINED_EXAMPLES") {
                in_defined = true;
            } else if in_defined && line.starts_with("];") {
                in_defined = false;
            } else if let Some(rest) = line.strip_prefix("(\"examples/") {
                let (file, rest) = rest.split_once('"').unwrap();
                let code = rest.trim_start_matches([',', ' ', '"']);
                let code: u16 = code[..5].parse().unwrap();
                undefined.insert((file.to_string(), code));
            } else if let Some(file) = line
                .strip_prefix("\"examples/")
                .and_then(|r| r.strip_suffix("\","))
                .filter(|_| in_defined)
            {
                defined.push(file.to_string());
            }
        }
        assert!(!undefined.is_empty() && !defined.is_empty());
        for (file, code, exit) in EXAMPLES {
            match code {
                Some(c) => assert!(
                    undefined.contains(&(file.to_string(), *c)),
                    "{file} {c} not in the CLI's undefined list"
                ),
                None => {
                    assert!(
                        defined.iter().any(|d| d == file),
                        "{file} not defined there"
                    );
                    assert!(exit.is_some());
                }
            }
        }
        let pinned_defined = EXAMPLES.iter().filter(|e| e.1.is_none()).count();
        assert_eq!(pinned_defined, defined.len());
        assert_eq!(EXAMPLES.len() - pinned_defined, undefined.len());
    }

    #[test]
    fn same_seed_same_corpus_and_order() {
        let root = repo();
        let a = realistic(&root, 7).unwrap();
        let b = realistic(&root, 7).unwrap();
        assert_eq!(a, b, "byte-identical corpus and expectations");
        let c = realistic(&root, 8).unwrap();
        assert_ne!(
            a.iter().map(|i| &i.source).collect::<Vec<_>>(),
            c.iter().map(|i| &i.source).collect::<Vec<_>>()
        );
        assert_eq!(shuffled(50, 7), shuffled(50, 7));
        assert_ne!(shuffled(50, 7), shuffled(50, 8));
        let mut p = shuffled(50, 7);
        p.sort();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
        assert_eq!(loops(), loops());
        assert_eq!(loops().len(), 12);
    }

    #[test]
    fn doomed_fuzz_programs_expect_the_injected_code() {
        let corpus = realistic(&repo(), 3).unwrap();
        for i in corpus.iter().filter(|i| i.origin == Source::FuzzDoomed) {
            assert_eq!(i.expect.verdict, Verdict::Undefined);
            assert!(i.expect.code.is_some());
        }
    }
}
