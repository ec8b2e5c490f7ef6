//! `openforhire obsdiff` fails closed on snapshots from another schema and
//! on files nested too deep to parse: each is an error with a message and
//! exit code 1, never a panic, a stack overflow or a silent pass.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ofh_obs::{MetricsSnapshot, SCHEMA_VERSION};

fn snapshot_file(dir: &Path, schema_version: u32) -> PathBuf {
    let snap = MetricsSnapshot {
        schema_version,
        preset: "quick".into(),
        ..MetricsSnapshot::default()
    };
    let path = dir.join(format!("v{schema_version}.json"));
    std::fs::write(&path, serde_json::to_string(&snap).unwrap()).expect("write snapshot");
    path
}

fn obsdiff(a: &Path, b: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_openforhire"))
        .arg("obsdiff")
        .arg(a)
        .arg(b)
        .output()
        .expect("run openforhire")
}

#[test]
fn schema_v2_snapshot_is_rejected_with_an_error() {
    let dir = std::env::temp_dir().join(format!("ofh-obsdiff-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let current = snapshot_file(&dir, SCHEMA_VERSION);
    let v2 = snapshot_file(&dir, 2);

    // The control: a current-schema snapshot diffs clean against itself.
    let ok = obsdiff(&current, &current);
    let stderr = String::from_utf8_lossy(&ok.stderr);
    assert!(ok.status.success(), "current vs current: {stderr}");

    for (a, b) in [(&v2, &v2), (&current, &v2), (&v2, &current)] {
        let out = obsdiff(a, b);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{a:?} vs {b:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{stderr}");
        assert!(stderr.contains("schema version mismatch"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deeply_nested_file_is_rejected_with_an_error() {
    let dir = std::env::temp_dir().join(format!("ofh-obsdiff-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(200_000) + &"]".repeat(200_000)).expect("write file");
    let out = obsdiff(&deep, &deep);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(!stderr.contains("overflowed"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
