//! The paper-claims ledger end to end at a small budget: the JSON
//! parses with the workspace's JSON-subset parser, every row carries a
//! verdict, the MPKI matrix is complete, and the bytes do not depend
//! on the worker count.

use imli_repro::bench::claims::{ledger_configs, run_claims, CLAIMS};
use imli_repro::components::ConfigValue;
use imli_repro::sim::Engine;

const INSTRUCTIONS: u64 = 20_000;

#[test]
fn ledger_is_complete_parseable_and_independent_of_jobs() {
    // The two runs go side by side: each is a whole ledger grid.
    let (one, two) = std::thread::scope(|scope| {
        let two = scope.spawn(|| run_claims(&Engine::with_jobs(2), INSTRUCTIONS, &|_| {}));
        let one = run_claims(&Engine::with_jobs(1), INSTRUCTIONS, &|_| {});
        (one, two.join().expect("the 2-job run finishes"))
    });
    let json = one.to_json();
    assert_eq!(json, two.to_json(), "JSON differs between 1 and 2 jobs");
    assert_eq!(one.to_markdown(), two.to_markdown(), "Markdown differs");

    let doc = ConfigValue::parse(&json).expect("the ledger JSON is in the JSON subset");
    let list = |key: &str| doc.req(key).and_then(|v| v.as_list(key)).expect(key);
    assert_eq!(
        doc.req("instructions")
            .and_then(|v| v.as_u64("instructions")),
        Ok(INSTRUCTIONS)
    );

    let claims = list("claims");
    let expected: usize = CLAIMS.iter().map(|c| c.suites.len().max(1)).sum();
    assert_eq!(claims.len(), expected);
    for claim in claims {
        let verdict = claim.req("verdict").and_then(|v| v.as_str("verdict"));
        assert!(
            matches!(verdict, Ok("holds" | "fails")),
            "row without a verdict: {claim:?}"
        );
        assert!(!claim
            .req("ours")
            .and_then(|v| v.as_str("ours"))
            .expect("ours")
            .is_empty());
    }

    let benchmarks: usize = list("suites")
        .iter()
        .map(|s| {
            s.req("benchmarks")
                .and_then(|b| b.as_list("benchmarks"))
                .expect("list")
                .len()
        })
        .sum();
    assert_eq!(benchmarks, 80);
    let configs = list("configs");
    assert_eq!(configs.len(), ledger_configs().len());
    let cells: usize = configs
        .iter()
        .map(|c| {
            c.req("mpki")
                .and_then(|m| m.as_list("mpki"))
                .expect("mpki")
                .len()
        })
        .sum();
    assert_eq!(cells, configs.len() * 80);
}
