//! Engine parity: the bytecode VM must be observationally identical to
//! the tree-walking reference interpreter. Same [`Outcome`] variant,
//! same UB kind, same source location, same detail string, same
//! implementation-defined conversion notes — for every entry of the
//! shared differential table and for every example program in the
//! repository. The tree-walker is the reference semantics; any
//! divergence here is a bytecode compiler or VM bug by definition.

use std::fs;
use std::path::PathBuf;

use cundef_semantics::eval::{Engine, Interp, Limits, Outcome};
use cundef_semantics::parser::parse;

include!("shared/table.rs");

/// Run `src` under the given engine and return the outcome plus the
/// rendered note stream. Notes are compared through their `Debug`
/// rendering so the location and the exact message text both count.
fn run(src: &str, engine: Engine, what: &str) -> (Outcome, String) {
    let unit = parse(src).unwrap_or_else(|e| panic!("{what}: failed to parse: {e}"));
    let mut interp = Interp::with_engine(&unit, Limits::default(), engine);
    let outcome = interp.run_main();
    let notes = format!("{:?}", interp.notes());
    (outcome, notes)
}

/// Assert that both engines agree on `src`, byte for byte.
fn assert_parity(src: &str, what: &str) {
    let (tree_out, tree_notes) = run(src, Engine::Tree, what);
    let (vm_out, vm_notes) = run(src, Engine::Bytecode, what);
    assert_eq!(
        tree_out, vm_out,
        "{what}: engines disagree on the outcome\n--- source ---\n{src}"
    );
    assert_eq!(
        tree_notes, vm_notes,
        "{what}: engines disagree on implementation-defined notes\n--- source ---\n{src}"
    );
}

#[test]
fn every_table_entry_runs_identically_under_both_engines() {
    for expr in TABLE {
        // The same wrapping `differential.rs` uses: the expression as a
        // full expression statement of `main`.
        let src = format!("int main(void) {{ {expr}; return 0; }}");
        assert_parity(&src, &format!("table entry {expr:?}"));
    }
    assert!(TABLE.len() >= 58, "shared table shrank to {}", TABLE.len());
}

#[test]
fn every_example_program_runs_identically_under_both_engines() {
    let examples = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .join("examples");
    let mut paths: Vec<PathBuf> = fs::read_dir(&examples)
        .expect("examples directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 20,
        "only {} example programs found in {}",
        paths.len(),
        examples.display()
    );
    for path in &paths {
        let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_parity(&src, &path.display().to_string());
    }
}

#[test]
fn ub_diagnostics_match_across_engines_in_detail() {
    // A handful of programs whose diagnostics exercise detail strings,
    // notes, and locations beyond what the constant table reaches:
    // each must produce the identical UbError through both engines.
    const PROGRAMS: &[&str] = &[
        // flagship unsequenced side effect (Error 00016)
        "int main(void) { int x = 0; return x + (x = 1); }",
        // uninitialized read through a pointer
        "int main(void) { int x; int *p = &x; return *p; }",
        // out-of-bounds index on a fixed array
        "int main(void) { int a[3]; a[0] = 1; return a[3]; }",
        // use after lifetime end
        "int f(int *p) { return *p; }\n\
         int main(void) { int *q; { int x = 5; q = &x; } return f(q); }",
        // signed overflow in a compound assignment
        "int main(void) { int x = 2147483647; x += 1; return 0; }",
        // division by a variable zero (defeats constant folding)
        "int main(void) { int z = 0; return 1 / z; }",
        // dangling heap pointer
        "int main(void) { int *p = malloc(4); *p = 3; free(p); return *p; }",
        // conversion notes accumulate identically (implementation-defined
        // narrowing emits a note, not a UB stop)
        "int main(void) { int big = 70000; short s = big; return s == 4464 ? 0 : 1; }",
        // goto across iterations keeps locals' init state honest
        "int main(void) { int i = 0; int s = 0;\n\
         again: s = s + i; i = i + 1; if (i < 5) goto again;\n\
         return s == 10 ? 0 : 1; }",
        // a missing return value used as the left operand of each fused
        // binary shape (Error 00052): `BinVS`, `Bin2VF`, an assignment's
        // right side and a loop condition
        "int f(void) { } int main(void) { int x = 1; return f() + x; }",
        "int f(void) { } int main(void) { int x = 1; int y = 2; return f() * (x + y); }",
        "int f(void) { } int main(void) { int x = 1; int y; y = f() - x; return y; }",
        "int f(void) { } int main(void) { int x = 1; while (f() < x) { x = 0; } return 0; }",
        "int f(void) { } int main(void) { return f() + 1; }",
        // …and a void call's value in the same place (Error 00073)
        "void g(void) { } int main(void) { int x = 1; return g() + x; }",
    ];
    for src in PROGRAMS {
        assert_parity(src, "diagnostic program");
    }
}
