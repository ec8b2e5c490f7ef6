//! `openforhire` validates a study-running command and its target before it
//! runs the study: an unknown command, table, figure or dataset, or a
//! missing target, is an `error:` and exit code 1 straight away, without the
//! `running <preset> preset …` line that starts a study (at paper scale the
//! study alone takes seconds and a gigabyte).

use std::process::Command;

#[test]
fn bad_commands_and_targets_fail_before_the_study() {
    for (args, message) in [
        (&["bogus"][..], "unknown command \"bogus\""),
        (&["table", "99"], "no table 99 (4|5|6|7|8|10|12|13)"),
        (&["table"], "table: which one?"),
        (&["figure", "99"], "no figure 99 (2..=9)"),
        (&["figure"], "figure: which one?"),
        (&["export", "nope"], "no dataset nope (scan|events|flowtuples)"),
        (&["export"], "export: which dataset?"),
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
}
