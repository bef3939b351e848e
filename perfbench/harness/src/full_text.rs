//! The full-precision text of a scenario's results, which the
//! benchmark's oracle hashes and compares.

use simulator::runner::ReplicatedResult;

/// Per strategy, its serialized `ReplicatedResult`, then every seed's
/// `RunResult` in `Debug` form (which prints each float's shortest
/// round-trip digits and includes the fault counters that serialization
/// skips). One tab-separated line each.
pub fn digest_text(results: &[ReplicatedResult]) -> String {
    let mut out = String::new();
    for r in results {
        let json = serde_json::to_string(r).expect("results serialize");
        out.push_str(&format!("replicated\t{}\t{json}\n", r.strategy));
        for (seed, run) in r.runs.iter().enumerate() {
            out.push_str(&format!("run\t{}\t{seed}\t{run:?}\n", r.strategy));
        }
    }
    out
}
