//! Every gated bench bin refuses bad usage with exit code 2 and its
//! usage line, before it measures anything (no report on stdout).

use std::process::Command;

/// The gated bins and whether each reads `--obsv`.
const BINS: [(&str, &str, bool); 7] = [
    ("hotpath", env!("CARGO_BIN_EXE_hotpath"), true),
    ("ingest", env!("CARGO_BIN_EXE_ingest"), true),
    ("spill", env!("CARGO_BIN_EXE_spill"), false),
    ("query", env!("CARGO_BIN_EXE_query"), false),
    ("cluster", env!("CARGO_BIN_EXE_cluster"), false),
    ("regress", env!("CARGO_BIN_EXE_regress"), false),
    ("report", env!("CARGO_BIN_EXE_report"), false),
];

fn assert_refused(bin: &str, exe: &str, args: &[&str]) {
    let out = Command::new(exe).args(args).output().expect("bin runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} measured");
    assert!(
        stderr.contains(&format!("usage: {bin} [--smoke]")),
        "{bin} {args:?}: {stderr}"
    );
}

#[test]
fn a_path_flag_without_its_path_is_refused() {
    for (bin, exe, _) in BINS {
        assert_refused(bin, exe, &["--smoke", "--check"]);
        assert_refused(bin, exe, &["--write", "--smoke"]);
    }
}

#[test]
fn an_unknown_flag_is_refused() {
    for (bin, exe, _) in BINS {
        assert_refused(bin, exe, &["--bogus"]);
    }
}

#[test]
fn obsv_is_refused_by_the_bins_that_do_not_read_it() {
    for (bin, exe, reads_obsv) in BINS {
        if !reads_obsv {
            assert_refused(bin, exe, &["--obsv"]);
        }
    }
}
