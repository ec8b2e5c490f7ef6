//! `openforhire` validates a study-running command and its target before it
//! runs the study: an unknown command, table, figure or dataset, a missing
//! target, or a fault-schedule file the JSON reader rejects, is an `error:`
//! and exit code 1 straight away, without the `running <preset> preset …`
//! line that starts a study (at paper scale the study alone takes seconds
//! and a gigabyte).

use std::process::Command;

#[test]
fn bad_commands_and_targets_fail_before_the_study() {
    // Nested far past the reader's limit: an error, not a stack overflow.
    let dir = std::env::temp_dir().join(format!("ofh-cli-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(200_000) + &"]".repeat(200_000)).expect("write file");
    let deep = deep.to_str().expect("utf-8 temp path");
    let deep_message = format!("--faults: `{deep}` is not a valid fault schedule: nesting");
    for (args, message) in [
        (&["bogus"][..], "unknown command \"bogus\""),
        (&["table", "99"], "no table 99 (4|5|6|7|8|10|12|13)"),
        (&["table"], "table: which one?"),
        (&["figure", "99"], "no figure 99 (2..=9)"),
        (&["figure"], "figure: which one?"),
        (&["export", "nope"], "no dataset nope (scan|events|flowtuples)"),
        (&["export"], "export: which dataset?"),
        (&["study", "--summary", "--faults", deep], &deep_message),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_openforhire"))
            .args(args)
            .output()
            .expect("run openforhire");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {message}")),
            "{args:?} must fail with {message:?} first, got:\n{stderr}"
        );
        assert!(
            !stderr.lines().any(|l| l.starts_with("running")),
            "{args:?} ran the study before failing:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
    std::fs::remove_dir_all(&dir).ok();
}
