//! `cfir report` must never panic on damaged input: every load path
//! prints the offending file's path to stderr and exits nonzero
//! (exit 2 = usage/IO error), for a truncated schema-v7 snapshot, junk
//! that isn't JSON at all, and well-formed JSON of the wrong shape.

use std::path::PathBuf;
use std::process::Command;

fn report(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cfir"))
        .arg("report")
        .args(args)
        .output()
        .expect("spawn cfir report")
}

fn write_tmp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("cfir-report-test-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write test input");
    path
}

/// The committed schema-v7 baseline bundle, cut off mid-document — the
/// shape a crashed or still-writing producer leaves behind.
fn truncated_snapshot() -> PathBuf {
    let full = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/baselines/smoke.json"
    ))
    .expect("committed baseline present");
    assert!(full.contains("\"schema_version\":7"), "baseline moved on");
    write_tmp("truncated.json", &full[..full.len() / 2])
}

fn assert_clean_failure(out: &std::process::Output, path: &std::path::Path, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{what}: want exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains(path.to_str().unwrap()),
        "{what}: stderr must name the offending file\nstderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{what}: must fail cleanly, not panic\nstderr: {stderr}"
    );
}

#[test]
fn truncated_snapshot_fails_cleanly_on_every_subcommand() {
    let bad = truncated_snapshot();
    let good = concat!(env!("CARGO_MANIFEST_DIR"), "/results/baselines/smoke.json");
    let bad_s = bad.to_str().unwrap();
    for args in [
        vec![bad_s],
        vec!["check", bad_s, good],
        vec!["check", good, bad_s],
        vec!["diff", good, bad_s],
        vec!["bottleneck", bad_s],
        vec!["bottleneck", good, bad_s],
        vec!["cidi", bad_s],
        vec!["sampling", bad_s],
    ] {
        let out = report(&args);
        assert_clean_failure(&out, &bad, &args.join(" "));
    }
}

#[test]
fn non_json_and_wrong_shape_fail_cleanly() {
    let junk = write_tmp("junk.json", "not json at all\x00\x01");
    assert_clean_failure(&report(&[junk.to_str().unwrap()]), &junk, "junk");

    // Valid JSON, but no schema_version: rejected at parse_doc.
    let shape = write_tmp("shape.json", r#"{"runs": []}"#);
    assert_clean_failure(&report(&[shape.to_str().unwrap()]), &shape, "no schema");

    // Valid v7 envelope with an empty runs array: the renderers must
    // error out, not index-panic.
    let empty = write_tmp("empty.json", r#"{"schema_version": 7, "runs": []}"#);
    let es = empty.to_str().unwrap();
    for args in [vec!["cidi", es], vec!["sampling", es]] {
        let out = report(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(0), "{args:?} must fail");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }

    let missing = std::env::temp_dir().join("cfir-report-test-definitely-absent.json");
    assert_clean_failure(
        &report(&[missing.to_str().unwrap()]),
        &missing,
        "missing file",
    );
}
