//! `perfbench-digest SCENARIO.json JOBS OUT.txt`: runs `Scenario::run`
//! at JOBS and writes the full-precision text of its results.
//!
//! Kept apart from the traced harness, and built from nothing but the
//! scenario API, so that the end-to-end runs' correctness check does not
//! depend on the inner-layer calls the traced run makes.

mod full_text;

use experiments::scenario::Scenario;
use std::process::ExitCode;

fn run(scenario: &str, jobs: &str, out: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(scenario).map_err(|e| format!("cannot read {scenario}: {e}"))?;
    let mut s: Scenario = serde_json::from_str(&text)
        .map_err(|e| format!("{scenario} is not a valid scenario: {e:?}"))?;
    s.jobs = jobs
        .parse()
        .map_err(|_| format!("JOBS must be a number, got '{jobs}'"))?;
    std::fs::write(out, full_text::digest_text(&s.run()))
        .map_err(|e| format!("cannot write {out}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [scenario, jobs, out] => run(scenario, jobs, out),
        _ => Err("usage: perfbench-digest SCENARIO.json JOBS OUT.txt".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-digest: {e}");
            ExitCode::from(2)
        }
    }
}
