//! The `armus-bench` command line, driven through the built binary: the
//! three subcommands, their exit codes, and the one JSON envelope.

use std::io::Write;
use std::process::{Command, Output, Stdio};

use serde::Value;

/// Runs `armus-bench args…` with `input` on its standard input.
fn run_with_stdin(args: &[&str], input: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_armus-bench"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn armus-bench");
    // A usage error exits without reading: a closed pipe is not a failure.
    let _ = child.stdin.take().expect("piped stdin").write_all(input);
    child.wait_with_output().expect("wait for armus-bench")
}

fn run(args: &[&str]) -> Output {
    run_with_stdin(args, b"")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn analyze_finds_the_example_4_1_cycle_under_both_models() {
    let example = run(&["analyze", "--example"]);
    assert_eq!(example.status.code(), Some(0));

    let auto = run_with_stdin(&["analyze"], &example.stdout);
    assert_eq!(auto.status.code(), Some(3), "{}", stderr(&auto));
    assert_eq!(
        stdout(&auto).trim(),
        "DEADLOCK: deadlock among t1, t2, t3, t4 on events p1@1, p2@1 [SG cycle]"
    );
    assert!(stderr(&auto).contains("SG with 2 nodes / 2 edges"), "{}", stderr(&auto));

    let wfg = run_with_stdin(&["analyze", "--model", "wfg"], &example.stdout);
    assert_eq!(wfg.status.code(), Some(3), "{}", stderr(&wfg));
    assert!(stdout(&wfg).contains("on events p1@1, p2@1 [WFG cycle]"), "{}", stdout(&wfg));
    assert!(stderr(&wfg).contains("WFG with 4 nodes / 6 edges"), "{}", stderr(&wfg));
}

#[test]
fn analyze_reports_unreadable_and_invalid_input_as_exit_1() {
    assert_eq!(run(&["analyze", "/nonexistent/snapshot.json"]).status.code(), Some(1));
    assert_eq!(run_with_stdin(&["analyze"], b"not json").status.code(), Some(1));
}

#[test]
fn paper_sanity_detects_and_avoids() {
    let out = run(&["paper", "sanity"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    // Figure 1 whole — the parent and its three workers — and once,
    // however many of them the monitor found blocked on its way there.
    let detected: Vec<&str> = text.lines().filter(|line| line.contains("detected:")).collect();
    assert_eq!(detected.len(), 1, "{text}");
    let among = detected[0].split("among ").nth(1).and_then(|rest| rest.split(" on ").next());
    assert_eq!(among.map(|tasks| tasks.split(", ").count()), Some(4), "{text}");
    assert_eq!(text.matches("avoided:").count(), 1, "{text}");
}

#[test]
fn analysis_writes_the_envelope_with_every_witness_confirmed() {
    let path = std::env::temp_dir().join(format!("armus-bench-cli-{}.json", std::process::id()));
    let path_arg = path.to_str().expect("utf-8 temp path");
    let out = run(&["analysis", "--programs", "50", "--json", path_arg]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(&path).expect("json written"))
        .expect("valid json");
    std::fs::remove_file(&path).expect("remove temp json");

    assert_eq!(
        doc.get("command"),
        Some(&Value::Str(format!("analysis --programs 50 --json {path_arg}")))
    );
    assert!(matches!(doc.get("host_cores"), Some(Value::UInt(n)) if *n >= 1));
    let Some(Value::Seq(cells)) = doc.get("cells") else { panic!("cells is a list: {doc:?}") };
    assert_eq!(cells.len(), 2);
    for cell in cells {
        assert_eq!(cell.get("programs"), Some(&Value::UInt(50)));
        assert_eq!(cell.get("witnesses_confirmed"), cell.get("definite_deadlock"), "{cell:?}");
    }
}

#[test]
fn usage_errors_exit_2_with_the_usage_text() {
    for args in [
        &[][..],
        &["frobnicate"],
        &["paper", "--bogus"],
        &["analysis", "--bogus"],
        &["analyze", "--bogus"],
        &["paper", "table9"],
        &["paper", "--samples", "many"],
        &["analyze", "--model", "grg"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("usage: armus-bench <subcommand>"), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?}");
    }
}
