//! End-to-end tests of the `vpm` binary: argument handling must be
//! strict (an unparsable argument is a usage error, never a silent
//! fallback to defaults) and the `matrix` subcommand must be
//! deterministic — same filters, same verdicts, same bytes, regardless
//! of `--jobs`.

use std::process::{Command, Output};

fn vpm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vpm"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn no_command_prints_usage_and_exits_2() {
    let out = vpm(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage: vpm"));
}

#[test]
fn unknown_command_prints_usage_and_exits_2() {
    let out = vpm(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage: vpm"));
}

#[test]
fn unparsable_positional_argument_is_an_error_not_a_default() {
    // Regression: `vpm fig2 junk` used to run the full experiment with
    // the silently substituted default `secs=2`.
    let out = vpm(&["fig2", "junk"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unparsable argument 'junk'"), "{err}");
    assert!(err.contains("usage: vpm"), "{err}");
    assert!(
        stdout(&out).is_empty(),
        "no experiment output on a usage error"
    );
}

#[test]
fn unparsable_seed_argument_is_an_error() {
    let out = vpm(&["baselines", "not-a-seed"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unparsable argument 'not-a-seed'"));
}

#[test]
fn matrix_rejects_bad_filters_with_exit_2() {
    for (args, needle) in [
        (
            vec!["matrix", "--filter", "delay=warp"],
            "unknown delay value 'warp'",
        ),
        (
            vec!["matrix", "--filter", "nonsense"],
            "not of the form axis=value",
        ),
        (
            vec!["matrix", "--filter", "axis=value"],
            "unknown filter axis 'axis'",
        ),
        (vec!["matrix", "--filter"], "--filter needs"),
        (vec!["matrix", "--jobs", "zero"], "--jobs value"),
        (vec!["matrix", "--jobs", "0"], "--jobs value"),
        (vec!["matrix", "--frobnicate"], "unknown matrix option"),
        // Individually valid but jointly empty (partial cells are
        // always honest): must not pass as a green gate.
        (
            vec![
                "matrix",
                "--filter",
                "deploy=partial",
                "--filter",
                "adversary=two-liars",
            ],
            "no cells match",
        ),
    ] {
        let out = vpm(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn matrix_json_is_byte_identical_across_job_counts() {
    // The determinism contract straight through the CLI: a filtered
    // slice evaluated with 1 and with 8 workers prints identical JSON.
    let filter = &[
        "matrix",
        "--filter",
        "delay=congested",
        "--filter",
        "adversary=two-liars",
        "--json",
    ];
    let serial = vpm(&[filter as &[&str], &["--jobs", "1"]].concat());
    let parallel = vpm(&[filter as &[&str], &["--jobs", "8"]].concat());
    assert_eq!(serial.status.code(), Some(0), "{}", stderr(&serial));
    assert_eq!(parallel.status.code(), Some(0), "{}", stderr(&parallel));
    let a = stdout(&serial);
    assert_eq!(a, stdout(&parallel), "--jobs must not change the bytes");
    assert!(a.trim_start().starts_with('['), "JSON array output: {a}");
    assert!(a.contains("two-liars"), "{a}");
}

#[test]
fn fleet_json_is_byte_identical_across_job_counts() {
    // The fleet determinism contract straight through the CLI: the
    // same fleet verified with 1 and with 8 workers prints identical
    // JSON (publishing concurrency differs too — it must not matter).
    let base = &["fleet", "--paths", "8", "--liars", "2", "--json"];
    let serial = vpm(&[base as &[&str], &["--jobs", "1"]].concat());
    let parallel = vpm(&[base as &[&str], &["--jobs", "8"]].concat());
    assert_eq!(serial.status.code(), Some(0), "{}", stderr(&serial));
    assert_eq!(parallel.status.code(), Some(0), "{}", stderr(&parallel));
    let a = stdout(&serial);
    assert_eq!(a, stdout(&parallel), "--jobs must not change the bytes");
    let verdicts: Vec<vpm::sim::FleetPathVerdict> =
        serde_json::from_str(a.trim()).expect("stdout is the verdict list");
    assert_eq!(verdicts.len(), 8);
    assert_eq!(verdicts.iter().filter(|v| v.lie.is_some()).count(), 2);
    assert!(verdicts.iter().all(|v| v.passed()));
}

#[test]
fn fleet_rejects_bad_flags() {
    for (args, needle) in [
        (vec!["fleet", "--paths", "0"], "--paths value"),
        (vec!["fleet", "--paths"], "--paths needs"),
        (vec!["fleet", "--jobs", "zero"], "--jobs value"),
        (vec!["fleet", "--liars", "junk"], "--liars value"),
        (
            vec!["fleet", "--paths", "4", "--liars", "5"],
            "exceeds --paths",
        ),
        (
            vec!["fleet", "--paths", "9000"],
            "overflows the 16-bit HOP id space",
        ),
        (vec!["fleet", "--frobnicate"], "unknown fleet option"),
        (vec!["fleet", "--transport"], "--transport needs"),
        (
            vec!["fleet", "--transport", "udp:1.2.3.4:5"],
            "is not tcp:HOST:PORT",
        ),
        (vec!["fleet", "--transport", "tcp:"], "is not tcp:HOST:PORT"),
    ] {
        let out = vpm(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn fleet_reports_an_unreachable_receipt_server_as_failure() {
    // Port 1 on loopback is essentially never listening; the connect
    // is eager, so this fails fast with a clear message, exit 1.
    let out = vpm(&["fleet", "--paths", "2", "--transport", "tcp:127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("cannot reach receipt server"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn serve_rejects_bad_flags() {
    for (args, needle) in [
        (vec!["serve", "--shards", "0"], "--shards value"),
        (vec!["serve", "--shards", "many"], "--shards value"),
        (vec!["serve", "--listen"], "--listen needs"),
        (vec!["serve", "--frobnicate"], "unknown serve option"),
    ] {
        let out = vpm(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn serve_reports_an_unbindable_listen_address_as_failure() {
    let out = vpm(&["serve", "--listen", "256.256.256.256:0"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("cannot bind"), "{}", stderr(&out));
}

#[test]
fn bench_verifier_emits_valid_json_and_artifact() {
    // Tiny workload: this is a smoke test of plumbing, not a timing
    // assertion.
    let dir = std::env::temp_dir().join(format!("vpm-bench-verifier-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_vpm"))
        .args([
            "bench-verifier",
            "--paths",
            "2",
            "--jobs",
            "2",
            "--shards",
            "4",
            "--frames",
            "32",
            "--subs",
            "2",
            "--repeats",
            "1",
            "--json",
        ])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let printed = stdout(&out);
    let report: vpm::bench::verifier_bench::VerifierBenchReport =
        serde_json::from_str(printed.trim()).expect("stdout is the JSON report");
    assert_eq!(report.config.paths, 2);
    assert!(report
        .results
        .iter()
        .any(|r| r.name == "poll_cursor" && r.items_per_s > 0.0));
    assert!(report.cursor_poll_speedup > 0.0);
    // The artifact on disk is the same report.
    let on_disk = std::fs::read_to_string(dir.join("BENCH_verifier.json")).expect("artifact");
    assert_eq!(on_disk, printed.trim_end());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_verifier_rejects_bad_flags() {
    for (args, needle) in [
        (vec!["bench-verifier", "--paths", "0"], "--paths value"),
        (vec!["bench-verifier", "--frames"], "--frames needs"),
        (
            vec!["bench-verifier", "--frobnicate"],
            "unknown bench-verifier option",
        ),
    ] {
        let out = vpm(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn bench_collector_emits_valid_json_and_artifact() {
    // Tiny workload: this is a smoke test of plumbing, not a timing
    // assertion.
    let dir = std::env::temp_dir().join(format!("vpm-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_vpm"))
        .args([
            "bench-collector",
            "--packets",
            "4000",
            "--paths",
            "20",
            "--repeats",
            "1",
            "--json",
        ])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let printed = stdout(&out);
    let report: vpm::bench::collector_bench::CollectorBenchReport =
        serde_json::from_str(printed.trim()).expect("stdout is the JSON report");
    assert_eq!(report.config.packets, 4000);
    assert!(report
        .results
        .iter()
        .any(|r| r.name == "observe_batch_prehashed" && r.ns_per_packet > 0.0 && r.mpps > 0.0));
    // The artifact on disk is the same report.
    let on_disk = std::fs::read_to_string(dir.join("BENCH_collector.json")).expect("artifact");
    assert_eq!(on_disk, printed.trim_end());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_wire_emits_valid_json_and_artifact() {
    // Tiny workload: this is a smoke test of plumbing, not a timing
    // assertion.
    let dir = std::env::temp_dir().join(format!("vpm-bench-wire-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_vpm"))
        .args([
            "bench-wire",
            "--receipts",
            "8",
            "--records",
            "16",
            "--aggs",
            "8",
            "--repeats",
            "1",
            "--json",
        ])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let printed = stdout(&out);
    let report: vpm::bench::wire_bench::WireBenchReport =
        serde_json::from_str(printed.trim()).expect("stdout is the JSON report");
    assert_eq!(report.config.receipts, 8);
    assert!(report
        .results
        .iter()
        .any(|r| r.name == "encode_compact" && r.mb_per_s > 0.0));
    assert_eq!(report.bytes_per_sample_compact, 7.0);
    // The artifact on disk is the same report.
    let on_disk = std::fs::read_to_string(dir.join("BENCH_wire.json")).expect("artifact");
    assert_eq!(on_disk, printed.trim_end());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_wire_rejects_bad_flags() {
    for (args, needle) in [
        (vec!["bench-wire", "--receipts", "zero"], "--receipts value"),
        (vec!["bench-wire", "--records"], "--records needs"),
        (vec!["bench-wire", "--receipts", "0"], "--receipts value"),
        (
            vec!["bench-wire", "--frobnicate"],
            "unknown bench-wire option",
        ),
    ] {
        let out = vpm(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
    // --window 0 is a legal workload (empty patch-up windows). Run in
    // a temp dir so the artifact never clobbers a real BENCH_wire.json
    // in the checkout.
    let dir = std::env::temp_dir().join(format!("vpm-bench-wire-w0-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_vpm"))
        .args([
            "bench-wire",
            "--receipts",
            "2",
            "--records",
            "2",
            "--aggs",
            "2",
            "--window",
            "0",
            "--repeats",
            "1",
            "--json",
        ])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_collector_rejects_bad_flags() {
    for (args, needle) in [
        (
            vec!["bench-collector", "--packets", "zero"],
            "--packets value",
        ),
        (vec!["bench-collector", "--packets"], "--packets needs"),
        (vec!["bench-collector", "--paths", "0"], "--paths value"),
        (
            vec!["bench-collector", "--frobnicate"],
            "unknown bench-collector option",
        ),
        (
            vec!["bench-collector", "--shards", "2"],
            "unknown bench-collector option",
        ),
    ] {
        let out = vpm(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn matrix_table_matches_golden_file() {
    // Pin the exact table rendering for a small filtered slice. If a
    // legitimate change alters the rendering or the cells' verdicts,
    // regenerate with:
    //   cargo run --release --bin vpm -- matrix --filter delay=constant \
    //     --filter adversary=two-liars --filter rate=0.05 --jobs 2 \
    //     > tests/golden/matrix_slice.txt
    let out = vpm(&[
        "matrix",
        "--filter",
        "delay=constant",
        "--filter",
        "adversary=two-liars",
        "--filter",
        "rate=0.05",
        "--jobs",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let golden = include_str!("golden/matrix_slice.txt");
    assert_eq!(
        stdout(&out),
        golden,
        "vpm matrix rendering drifted from tests/golden/matrix_slice.txt"
    );
}

// ------------------------------------------------------------------ lint

fn lint_scratch_tree(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vpm_lint_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("crates/wire/src")).unwrap();
    std::fs::write(
        dir.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/wire\"]\n",
    )
    .unwrap();
    dir
}

#[test]
fn lint_runs_clean_on_this_tree() {
    let out = vpm(&["lint", "--root", env!("CARGO_MANIFEST_DIR")]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "vpm lint found violations:\n{}{}",
        stdout(&out),
        stderr(&out)
    );
    assert!(stdout(&out).contains("0 violation(s)"), "{}", stdout(&out));
}

#[test]
fn lint_json_output_carries_the_report_fields() {
    let out = vpm(&["lint", "--json", "--root", env!("CARGO_MANIFEST_DIR")]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let s = stdout(&out);
    for field in [
        "\"violations\":",
        "\"allows\":",
        "\"files_scanned\":",
        "\"ok\":true",
    ] {
        assert!(s.contains(field), "missing {field} in {s}");
    }
}

#[test]
fn lint_exits_nonzero_on_an_injected_violation() {
    let dir = lint_scratch_tree("inject");
    std::fs::write(
        dir.join("crates/wire/src/lib.rs"),
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )
    .unwrap();
    let out = vpm(&["lint", "--root", dir.to_str().unwrap(), "--rule", "R1"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected the injected unwrap to fail the gate:\n{}{}",
        stdout(&out),
        stderr(&out)
    );
    assert!(stdout(&out).contains("[R1/unwrap]"), "{}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_rejects_an_unknown_rule_id() {
    let out = vpm(&["lint", "--rule", "R9"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("unknown rule"), "{}", stderr(&out));
}

#[test]
fn lint_r4_fails_on_a_seeded_golden_mismatch() {
    let dir = lint_scratch_tree("r4seed");
    let src_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for rel in [
        "crates/hash/src/sha256.rs",
        "crates/hash/src/lib.rs",
        "crates/core/src/receipt.rs",
        "crates/wire/src/codec.rs",
        "README.md",
    ] {
        let to = dir.join(rel);
        std::fs::create_dir_all(to.parent().unwrap()).unwrap();
        std::fs::copy(src_root.join(rel), to).unwrap();
    }
    // Corrupt one batch-sequence byte of the compact golden frame (hex
    // chars 16..18 encode frame byte 8, the first `batch_seq` byte):
    // the compact and precise frames now disagree and R4 must say so.
    let golden = std::fs::read_to_string(src_root.join("tests/golden/wire_v1.hex")).unwrap();
    let seeded: String = golden
        .lines()
        .map(|line| {
            if let Some(hex) = line.strip_prefix("compact ") {
                let mut h: Vec<u8> = hex.trim().bytes().collect();
                h[16] = if h[16] == b'0' { b'1' } else { b'0' };
                format!("compact {}", String::from_utf8(h).unwrap())
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    std::fs::create_dir_all(dir.join("tests/golden")).unwrap();
    std::fs::write(dir.join("tests/golden/wire_v1.hex"), seeded).unwrap();

    let out = vpm(&["lint", "--root", dir.to_str().unwrap(), "--rule", "R4"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected the seeded mismatch to fail R4:\n{}{}",
        stdout(&out),
        stderr(&out)
    );
    assert!(stdout(&out).contains("[R4/"), "{}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}
