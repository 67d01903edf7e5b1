//! Regression gate over the committed corpus: every minimized pathology
//! the hunter ever found must still reproduce, and its oracle report
//! must re-serialize byte-identically to the committed file.

use std::collections::BTreeSet;
use std::path::Path;

use paraleon_hunt::corpus::load_dir;
use paraleon_hunt::evaluate;

#[test]
fn committed_corpus_cases_still_fire() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let cases = load_dir(&dir).expect("corpus loads");
    assert!(
        cases.len() >= 2,
        "expected at least 2 committed corpus cases in {}, found {}",
        dir.display(),
        cases.len()
    );
    let mut kinds = BTreeSet::new();
    for case in &cases {
        let ev = evaluate(&case.eval, &case.oracles, &case.point)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        assert!(
            ev.report.fired(case.kind),
            "{}: the {} oracle no longer fires",
            case.name,
            case.kind.name()
        );
        let got = serde_json::to_string(&ev.report).expect("report serializes");
        let want = serde_json::to_string(&case.report).expect("report serializes");
        assert_eq!(got, want, "{}: oracle report drifted", case.name);
        kinds.insert(case.kind.name());
    }
    assert!(
        kinds.len() >= 2,
        "corpus must cover at least 2 distinct pathology classes, got {kinds:?}"
    );
}
