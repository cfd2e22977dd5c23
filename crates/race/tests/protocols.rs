//! Tier-1 coverage for the interleaving checker: the production protocol
//! orderings must survive exhaustive enumeration, and every seeded
//! mutation must be detected (the checker's own mutation self-test).

use tempo_race::scenarios::{mutation_cases, protocol_cases};
use tempo_race::Checker;

#[test]
fn clean_protocols_enumerate_completely_with_zero_violations() {
    let checker = Checker::default();
    let cases = protocol_cases();
    assert_eq!(cases.len(), 1, "the catalogue is one clean sweep");
    for case in cases {
        let report = case.run(&checker);
        assert!(
            report.complete,
            "{}: schedule space not fully enumerated ({} executions)",
            case.name, report.executions
        );
        assert!(
            report.violation.is_none(),
            "{}: unexpected violation:\n{}",
            case.name,
            report.violation.as_ref().expect("invariant: checked some")
        );
        assert!(
            report.executions > 1,
            "{}: degenerate enumeration",
            case.name
        );
    }
}

#[test]
fn every_seeded_mutation_is_detected() {
    let checker = Checker::default();
    let cases = mutation_cases();
    assert_eq!(cases.len(), 2, "the catalogue is two seeded mutations");
    for case in cases {
        let report = case.run(&checker);
        assert!(
            report.violation.is_some(),
            "{}: seeded protocol bug was NOT detected ({} executions, complete={})",
            case.name,
            report.executions,
            report.complete
        );
    }
}

#[test]
fn epoch_map_matches_registry_semantics() {
    use std::sync::Arc;
    use tempo_race::EpochMap;

    let map: EpochMap<Arc<u32>> = EpochMap::new();
    let a = Arc::new(1u32);
    let b = Arc::new(2u32);
    let c = Arc::new(3u32);
    assert!(map.is_empty());
    assert_eq!(map.insert("g", Arc::clone(&a)), 1);
    assert_eq!(map.insert("g", Arc::clone(&a)), 2);
    assert!(map.remove("g"));
    assert_eq!(map.insert("g", Arc::clone(&a)), 1);
    assert_eq!(map.replace_if_current("g", &a, Arc::clone(&b)), Some(2));
    // stale writer loses the CAS
    assert_eq!(map.replace_if_current("g", &a, Arc::clone(&c)), None);
    // missing name loses the CAS
    assert_eq!(map.replace_if_current("x", &b, Arc::clone(&c)), None);
    let (got, epoch) = map.get("g").expect("invariant: present");
    assert!(Arc::ptr_eq(&got, &b));
    assert_eq!(epoch, 2);
    assert_eq!(map.len(), 1);
    let listed = map.list();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].0, "g");
}
