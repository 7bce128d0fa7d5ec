//! Regression harness for the protocol models in `exec::modelcheck`.
//!
//! Every shipped protocol is checked in both variants: the `fixed` model
//! mirroring HEAD must verify clean under *exhaustive* interleaving
//! enumeration, and the `reverted` model — the same protocol with its fix
//! mechanically undone — must produce a counterexample. The two PR-7 races
//! (torn matview publish, DELETE clobbering a concurrent INSERT) are the
//! anchor cases: if a model ever stops seeing its bug, the model has gone
//! blunt and this suite fails.

use rasql_exec::modelcheck::{check_exhaustive, check_random, protocols, Limits, ViolationKind};

// ----------------------------------------------------------------
// PR-7 race #1: torn materialized-view publish
// ----------------------------------------------------------------

#[test]
fn matview_publish_head_is_race_free() {
    let out = check_exhaustive(&protocols::matview_publish_fixed(), Limits::default());
    assert!(
        out.violation.is_none(),
        "per-view serialization guard must make publish coherent: {}",
        out.violation.unwrap()
    );
    assert!(!out.stats.truncated, "space must be exhausted, not bounded");
    assert!(out.stats.schedules > 0);
}

#[test]
fn matview_publish_revert_rediscovers_torn_publish() {
    let out = check_exhaustive(&protocols::matview_publish_reverted(), Limits::default());
    let v = out
        .violation
        .expect("removing the view guard must reintroduce the torn publish");
    assert_eq!(v.kind, ViolationKind::Invariant);
    assert!(v.message.contains("torn publish"), "{v}");
    // The counterexample interleaves the two refreshes' publish steps.
    assert!(
        v.schedule.iter().any(|s| s.starts_with("refresh-1"))
            && v.schedule.iter().any(|s| s.starts_with("refresh-2")),
        "{v}"
    );
}

// ----------------------------------------------------------------
// PR-7 race #2: DELETE vs concurrent INSERT
// ----------------------------------------------------------------

#[test]
fn delete_insert_head_is_race_free() {
    let out = check_exhaustive(&protocols::delete_insert_fixed(), Limits::default());
    assert!(
        out.violation.is_none(),
        "version-checked replace_rows_if must preserve concurrent inserts: {}",
        out.violation.unwrap()
    );
    assert!(!out.stats.truncated);
}

#[test]
fn delete_insert_revert_rediscovers_lost_insert() {
    let out = check_exhaustive(&protocols::delete_insert_reverted(), Limits::default());
    let v = out
        .violation
        .expect("unconditional replace must reintroduce the lost insert");
    assert_eq!(v.kind, ViolationKind::Invariant);
    assert!(v.message.contains("lost insert"), "{v}");
}

// ----------------------------------------------------------------
// Admission queue handoff
// ----------------------------------------------------------------

#[test]
fn admission_handoff_head_is_live_and_bounded() {
    let out = check_exhaustive(&protocols::admission_handoff_fixed(), Limits::default());
    assert!(
        out.violation.is_none(),
        "release-then-notify must hand the slot off: {}",
        out.violation.unwrap()
    );
}

#[test]
fn admission_handoff_without_notify_deadlocks() {
    let out = check_exhaustive(&protocols::admission_handoff_reverted(), Limits::default());
    let v = out
        .violation
        .expect("dropping the notify must strand the waiter");
    assert_eq!(v.kind, ViolationKind::Deadlock);
    assert!(v.message.contains("waiter"), "{v}");
}

// ----------------------------------------------------------------
// Result-cache invalidation
// ----------------------------------------------------------------

#[test]
fn result_cache_head_never_serves_stale() {
    let out = check_exhaustive(&protocols::result_cache_fixed(), Limits::default());
    assert!(
        out.violation.is_none(),
        "version-fingerprint keys must make stale hits impossible: {}",
        out.violation.unwrap()
    );
}

#[test]
fn result_cache_without_version_keys_serves_stale() {
    let out = check_exhaustive(&protocols::result_cache_reverted(), Limits::default());
    let v = out
        .violation
        .expect("dropping the fingerprint from the key must allow a stale serve");
    assert_eq!(v.kind, ViolationKind::Invariant);
    assert!(v.message.contains("stale serve"), "{v}");
}

// ----------------------------------------------------------------
// A view statement's journal record vs a concurrent compaction
// ----------------------------------------------------------------

#[test]
fn view_journal_head_never_loses_a_record() {
    let out = check_exhaustive(&protocols::view_journal_fixed(), Limits::default());
    assert!(
        out.violation.is_none(),
        "holding the registry from append to insert must keep the record: {}",
        out.violation.unwrap()
    );
    assert!(!out.stats.truncated);
}

#[test]
fn view_journal_without_the_registry_hold_loses_a_record() {
    let out = check_exhaustive(&protocols::view_journal_reverted(), Limits::default());
    let v = out
        .violation
        .expect("appending outside the registry lock must let a compaction drop the record");
    assert_eq!(v.kind, ViolationKind::Invariant);
    assert!(v.message.contains("lost record"), "{v}");
    assert!(v.schedule.iter().any(|s| s.starts_with("compactor")), "{v}");
}

// ----------------------------------------------------------------
// The suite as a whole + the random scheduler
// ----------------------------------------------------------------

#[test]
fn full_suite_passes_its_own_criterion() {
    for report in protocols::check_all() {
        assert!(
            report.ok(),
            "protocol {} failed: fixed={:?} reverted={:?}",
            report.protocol,
            report.fixed.violation.as_ref().map(ToString::to_string),
            report.reverted.violation.as_ref().map(ToString::to_string),
        );
    }
}

#[test]
fn random_scheduler_also_finds_both_pr7_races() {
    // The exhaustive pass is the gate; the seeded random scheduler is the
    // scale-out mode for protocols with larger state spaces. It must find
    // the same anchor bugs from a fixed seed, deterministically.
    let torn = check_random(&protocols::matview_publish_reverted(), 0xA5EED, 500);
    assert!(
        torn.violation.is_some(),
        "seeded random missed the torn publish"
    );
    let lost = check_random(&protocols::delete_insert_reverted(), 0xA5EED, 500);
    assert!(
        lost.violation.is_some(),
        "seeded random missed the lost insert"
    );
    // And it must NOT flag the fixed protocols.
    assert!(
        check_random(&protocols::matview_publish_fixed(), 0xA5EED, 500)
            .violation
            .is_none()
    );
    assert!(
        check_random(&protocols::delete_insert_fixed(), 0xA5EED, 500)
            .violation
            .is_none()
    );
}
