//! End-to-end tests of the `cundef` binary against the shipped examples.

use std::path::PathBuf;
use std::process::{Command, Output};

fn workspace_root() -> PathBuf {
    // crates/cli -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf()
}

fn cundef(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cundef"))
        .current_dir(workspace_root())
        .args(args)
        .output()
        .expect("binary should run")
}

#[test]
fn detects_the_flagship_unsequenced_example() {
    let out = cundef(&["examples/unsequenced.c"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout.contains("Error: 00016"), "{stdout}");
    assert!(stdout.contains("6.5:2"), "{stdout}");
    assert!(stdout.contains("Function: main"), "{stdout}");
}

#[test]
fn detects_every_readme_family_across_examples() {
    let cases = [
        ("examples/unsequenced.c", "00016"),
        ("examples/division_by_zero.c", "00002"),
        ("examples/signed_overflow.c", "00004"),
        ("examples/out_of_bounds.c", "00023"),
        ("examples/uninitialized.c", "00028"),
        ("examples/shift_width.c", "00007"),
        ("examples/dangling.c", "00022"),
        ("examples/double_free.c", "00042"),
        ("examples/null_deref.c", "00020"),
        ("examples/call_arity.c", "00050"),
        ("examples/vla_size.c", "00071"),
        ("examples/bad_free.c", "00040"),
        ("examples/static_redecl.c", "00074"),
        ("examples/case_dup.c", "00083"),
        ("examples/neg_array_static.c", "00070"),
        ("examples/void_object.c", "00082"),
        ("examples/shift_long.c", "00007"),
        ("examples/misaligned.c", "00030"),
        ("examples/uninit_byte.c", "00028"),
        ("examples/alias_write.c", "00033"),
        ("examples/goto_vla.c", "00076"),
    ];
    for (file, code) in cases {
        for mode in [&[file][..], &["--batch", file][..]] {
            let out = cundef(mode);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{file} {mode:?} should be undefined\n{stdout}"
            );
            assert!(
                stdout.contains(&format!("Error: {code}")),
                "{file} {mode:?}: expected code {code}, got:\n{stdout}"
            );
            assert!(
                stdout.contains("of ISO/IEC 9899:2011"),
                "{file} must cite C11:\n{stdout}"
            );
        }
    }
}

/// Examples that are fully defined programs: they must exit 0 in every
/// mode. `unsigned_wrap.c` is the width-awareness acceptance case — a
/// width-naive engine reports false SignedOverflow on it — and
/// `memrep_char.c` is the byte-model acceptance case: a char sweep of a
/// long's representation that reassembles the stored value exactly.
const DEFINED_EXAMPLES: [&str; 6] = [
    "examples/defined.c",
    "examples/unsigned_wrap.c",
    "examples/narrow_conv.c",
    "examples/sizeof_expr.c",
    "examples/memrep_char.c",
    "examples/goto_loop.c",
];

#[test]
fn defined_program_exits_zero() {
    let out = cundef(&["examples/defined.c"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no undefined behavior"), "{stdout}");
}

#[test]
fn typed_examples_are_defined_in_every_mode() {
    for file in DEFINED_EXAMPLES {
        for mode in [
            &[file][..],
            &["--batch", file][..],
            &["--phase", "translation", file][..],
            &["--phase", "execution", file][..],
        ] {
            let out = cundef(mode);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{file} {mode:?} must be defined\n{stdout}"
            );
        }
    }
}

#[test]
fn narrowing_conversions_print_notes_not_verdicts() {
    let out = cundef(&["examples/narrow_conv.c"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("note: implementation-defined"), "{stdout}");
    assert!(stdout.contains("`char`"), "{stdout}");
    assert!(stdout.contains("`short`"), "{stdout}");
    // Defined conversions (to unsigned, to _Bool) get no note.
    assert!(!stdout.contains("unsigned char"), "{stdout}");
    assert!(!stdout.contains("_Bool"), "{stdout}");
}

#[test]
fn long_shift_misuse_reports_width_64() {
    let out = cundef(&["examples/shift_long.c"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Error: 00007"), "{stdout}");
    assert!(
        stdout.contains("shift amount 64 >= width 64"),
        "the verdict must be at the promoted left operand's width:\n{stdout}"
    );
    // The defined 32..62-bit shifts earlier in the file are decoys: the
    // report must point at the real line.
    assert!(stdout.contains("Line: 10"), "{stdout}");
}

#[test]
fn byte_model_examples_report_representation_level_detail() {
    // The misaligned cast names the required alignment…
    let out = cundef(&["examples/misaligned.c"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Error: 00030"), "{stdout}");
    assert!(stdout.contains("requires 4-byte alignment"), "{stdout}");
    // …the partial-init read names the first indeterminate byte…
    let out = cundef(&["examples/uninit_byte.c"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Error: 00028"), "{stdout}");
    assert!(stdout.contains("byte 1"), "{stdout}");
    // …and the aliasing write names both types.
    let out = cundef(&["examples/alias_write.c"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Error: 00033"), "{stdout}");
    assert!(stdout.contains("`long`"), "{stdout}");
}

#[test]
fn catalog_summary_prints_the_split() {
    let out = cundef(&["--catalog"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("221"), "{stdout}");
    assert!(stdout.contains("92"), "{stdout}");
    assert!(stdout.contains("129"), "{stdout}");
}

/// Every shipped example, in sorted order (as a shell glob would pass
/// them).
fn all_examples() -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(workspace_root().join("examples"))
        .expect("examples dir")
        .map(|e| {
            format!(
                "examples/{}",
                e.expect("dir entry").file_name().to_string_lossy()
            )
        })
        .filter(|f| f.ends_with(".c"))
        .collect();
    files.sort();
    files
}

#[test]
fn batch_mode_matches_sequential_verdicts_and_output() {
    let files = all_examples();
    assert!(
        files.len() >= 12,
        "example sweep looks too small: {files:?}"
    );
    // Both sweeps exit 1: the translation phase alone flags the static
    // examples.
    for phase in [&[][..], &["--phase", "translation"][..]] {
        let mut args = phase.to_vec();
        args.extend(files.iter().map(String::as_str));
        let sequential = cundef(&args);
        assert_eq!(sequential.status.code(), Some(1), "{phase:?}");

        let batch = cundef(&[&["--batch"][..], &args].concat());
        assert_eq!(batch.status.code(), Some(1), "{phase:?}");
        assert_eq!(
            String::from_utf8_lossy(&batch.stdout),
            String::from_utf8_lossy(&sequential.stdout),
            "{phase:?}: batch stdout must be byte-identical to sequential"
        );
        assert_eq!(
            String::from_utf8_lossy(&batch.stderr),
            String::from_utf8_lossy(&sequential.stderr),
        );

        // And with an explicit worker count exceeding the file count.
        let with_jobs = cundef(&[&["--batch", "--jobs", "32"][..], &args].concat());
        assert_eq!(with_jobs.status.code(), Some(1), "{phase:?}");
        assert_eq!(with_jobs.stdout, sequential.stdout, "{phase:?}");
    }
}

/// The CLI runs the bytecode VM; `engine_parity.rs` runs both examples
/// under the tree-walker too and compares outcome and notes.
#[test]
fn goto_runs_under_both_engines_and_vla_jumps_stay_caught() {
    // A defined program whose control flow is entirely backward gotos
    // must run to completion.
    let out = cundef(&["examples/goto_loop.c"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "goto_loop.c must be defined\n{stdout}"
    );
    // A jump into the scope of a variably modified declaration is
    // translation-phase UB (Error 00076): it must be reported before a
    // single statement executes.
    let out = cundef(&["examples/goto_vla.c"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "goto_vla.c must be undefined\n{stdout}"
    );
    assert!(stdout.contains("Error: 00076"), "{stdout}");
    assert!(stdout.contains("variably modified"), "{stdout}");
}

#[test]
fn batch_jobs_requires_a_positive_integer() {
    let out = cundef(&["--batch", "--jobs", "zero", "examples/defined.c"]);
    assert_eq!(out.status.code(), Some(2));
    let out = cundef(&["--batch", "--jobs", "0", "examples/defined.c"]);
    assert_eq!(out.status.code(), Some(2));
}

/// The four translation-phase examples: file, expected static code, and
/// the dynamic decoy code the evaluator would report if it ever ran.
const STATIC_EXAMPLES: [(&str, &str, Option<&str>); 4] = [
    ("examples/static_redecl.c", "00074", Some("00002")),
    ("examples/case_dup.c", "00083", Some("00002")),
    ("examples/neg_array_static.c", "00070", None), // no main at all
    ("examples/void_object.c", "00082", Some("00002")),
];

#[test]
fn static_examples_are_flagged_without_being_executed() {
    for (file, code, decoy) in STATIC_EXAMPLES {
        for mode in [
            &["--phase", "translation", file][..],
            &["--batch", "--phase", "translation", file][..],
            &[file][..],
            &["--batch", file][..],
        ] {
            let out = cundef(mode);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{file} {mode:?} should be undefined\n{stdout}"
            );
            assert!(
                stdout.contains(&format!("Error: {code}")),
                "{file} {mode:?}: expected {code}:\n{stdout}"
            );
            // The decoy dynamic defect sits on an earlier line: seeing
            // only the static code proves the evaluator never entered
            // the program.
            if let Some(decoy) = decoy {
                assert!(
                    !stdout.contains(&format!("Error: {decoy}")),
                    "{file} {mode:?}: decoy {decoy} reported — the evaluator ran:\n{stdout}"
                );
            }
        }
    }
}

#[test]
fn phase_execution_reaches_the_decoy_instead() {
    // The same file, restricted to the execution phase, must hit the
    // dynamic decoy — demonstrating the phases are genuinely different
    // detectors over one program.
    let out = cundef(&["--phase", "execution", "examples/static_redecl.c"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout.contains("Error: 00002"), "{stdout}");
    assert!(!stdout.contains("Error: 00074"), "{stdout}");
}

#[test]
fn phase_translation_passes_clean_and_dynamic_only_files() {
    // defined.c is clean in both phases; the others are only dynamically
    // undefined — the byte-model ones (alignment, effective types,
    // per-byte init) included — so the translation phase alone passes
    // them.
    for file in [
        "examples/defined.c",
        "examples/division_by_zero.c",
        "examples/misaligned.c",
        "examples/alias_write.c",
        "examples/uninit_byte.c",
    ] {
        let out = cundef(&["--phase", "translation", file]);
        assert_eq!(out.status.code(), Some(0), "{file}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("translation phase found no undefined behavior"),
            "{file}: {stdout}"
        );
    }
}

#[test]
fn files_without_main_are_a_note_not_an_error() {
    let path = std::env::temp_dir().join("cundef_header_lib.c");
    std::fs::write(&path, "int helper(int x) { return x + 1; }\n").unwrap();
    let path = path.to_str().unwrap();

    // Default (phase-less) runs: translation-only checking works out of
    // the box — exit 0 with a "nothing to execute" note.
    let out = cundef(&[path]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("nothing to execute"), "{stdout}");

    // Explicit phases agree.
    for args in [
        &["--phase", "translation", path][..],
        &["--phase", "execution", path][..],
        &["--batch", path][..],
    ] {
        let out = cundef(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
    }

    // Quiet mode stays silent about it.
    let out = cundef(&["-q", path]);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty());
}

#[test]
fn phase_option_rejects_unknown_values() {
    let out = cundef(&["--phase", "bogus", "examples/defined.c"]);
    assert_eq!(out.status.code(), Some(2));
    let out = cundef(&["--phase"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unreadable_file_is_an_engine_failure() {
    let out = cundef(&["examples/no_such_file.c"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn usage_error_without_files() {
    let out = cundef(&[]);
    assert_eq!(out.status.code(), Some(2));
}
