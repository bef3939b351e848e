//! Bad command-line arguments get a message and exit status 2 — never a
//! panic (status 101) and never a silently wrong run.

use std::process::{Command, Output};

fn swapsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_swapsim"))
        .args(args)
        .output()
        .expect("swapsim launches")
}

fn assert_rejected(args: &[&str], needle: &str) {
    let out = swapsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(stderr.contains(needle), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran anyway");
}

#[test]
fn negative_or_non_finite_mtbf_is_rejected() {
    assert_rejected(&["faults", "-5", "--quick"], "MTBF");
    assert_rejected(&["faults", "--mtbf", "-5", "--quick"], "MTBF");
    assert_rejected(&["faults", "inf", "--quick"], "MTBF");
    assert_rejected(&["policy", "placements", "-1", "--quick"], "MTBF");
    assert_rejected(&["ext_faults", "--mtbf", "NaN", "--quick"], "MTBF");
}

#[test]
fn compare_without_active_processes_is_rejected() {
    assert_rejected(&["compare", "2.0", "1e6", "0", "0"], "n_active");
    assert_rejected(&["compare", "0.5", "1e6", "33", "40"], "n_active");
}

#[test]
fn negative_state_size_is_rejected() {
    assert_rejected(&["compare", "0.5", "-1", "4", "8"], "state_bytes");
    assert_rejected(&["faults", "1500", "0.5", "-1", "--quick"], "state_bytes");
    assert_rejected(
        &["policy", "placements", "1500", "0.5", "-1"],
        "state_bytes",
    );
    assert_rejected(&["tune", "0.5", "-1", "--quick"], "state_bytes");
    assert_rejected(&["protocol", "4", "28", "inf"], "state_bytes");
}

#[test]
fn protocol_with_more_swaps_than_pairs_is_rejected() {
    assert_rejected(&["protocol", "0", "0"], "swap");
    assert_rejected(&["protocol", "4", "2", "1e6", "3"], "swap");
}

#[test]
fn zero_mtbf_still_means_faults_off() {
    let out = swapsim(&["faults", "0", "--quick"]);
    assert_eq!(out.status.code(), Some(0));
}
