//! RWS-soundness oracle runs: for every workload, every profiled
//! transaction's predicted read/write-set must be a superset of the keys
//! it concretely touches, and the over-approximation ratio must be a
//! finite number ≥ 1.

use testkit::{check_soundness, check_soundness_sharded, WorkloadKind};

fn assert_sound(kind: WorkloadKind, seed: u64) -> testkit::SoundnessReport {
    let report = check_soundness(kind, seed, 3, 24).unwrap_or_else(|e| panic!("{e}"));
    assert!(report.checked > 0, "{}: no profiled transactions checked", report.workload);
    let ratio = report.ratio();
    assert!(ratio.is_finite(), "{}: ratio must be finite", report.workload);
    assert!(
        ratio >= 1.0,
        "{}: predicted ({}) < touched ({}) — under-approximation slipped past the \
         per-transaction superset check\n{}",
        report.workload,
        report.predicted_keys,
        report.touched_keys,
        report.summary()
    );
    // Per-template accounting must tile the workload totals.
    assert_eq!(
        report.templates.iter().map(|t| t.checked).sum::<usize>(),
        report.checked,
        "{}: per-template checked counts must sum to the total",
        report.workload
    );
    assert_eq!(
        report.templates.iter().map(|t| t.predicted_keys).sum::<u64>(),
        report.predicted_keys
    );
    assert_eq!(
        report.templates.iter().map(|t| t.touched_keys).sum::<u64>(),
        report.touched_keys
    );
    for t in &report.templates {
        assert!(
            t.ratio() >= 1.0 && (0.0..=1.0).contains(&t.pivot_hit_rate()),
            "{}: template `{}` has impossible stats",
            report.workload,
            t.program
        );
    }
    eprintln!("{}", report.summary());
    report
}

#[test]
fn smallbank_predictions_are_supersets() {
    assert_sound(WorkloadKind::SmallBank, 0xABCD);
}

#[test]
fn tpcc_predictions_are_supersets() {
    assert_sound(WorkloadKind::Tpcc, 0x5EED);
}

#[test]
fn rubis_predictions_are_supersets() {
    assert_sound(WorkloadKind::Rubis, 0xF00D);
}

#[test]
fn widened_scan_over_approximates_but_stays_sound() {
    // The widened workload's whole premise: its wide_scan predicts the
    // full static hull while touching only the watermark prefix — loose
    // (ratio > 1) but sound, with the looseness visible in the
    // per-template report, worst template first.
    let report = assert_sound(WorkloadKind::Widened, 0xADA7);
    assert!(
        report.ratio() > 1.2,
        "widened: expected a visibly loose workload, got ratio {:.3}",
        report.ratio()
    );
    let worst = report.worst_templates(3);
    assert_eq!(
        worst.first().map(|t| t.program.as_str()),
        Some("wide_scan"),
        "wide_scan must rank as the loosest template: {:?}",
        worst.iter().map(|t| (&t.program, t.ratio())).collect::<Vec<_>>()
    );
    assert!(worst[0].ratio() > 2.0, "wide_scan ratio {:.3} should dwarf 2×", worst[0].ratio());
    // bump_watermark overwrites its own pivot: the per-template pivot hit
    // rate must notice.
    let bump = report.templates.iter().find(|t| t.program == "bump_watermark");
    if let Some(bump) = bump {
        if bump.pivot_predictions > 0 {
            assert!(
                bump.pivot_hit_rate() < 1.0,
                "bump_watermark rewrites its pivot; hit rate {:.3} should dip below 1",
                bump.pivot_hit_rate()
            );
        }
    }
}

#[test]
fn ratios_are_stable_across_seeds() {
    // Soundness must hold for any stream, not just one lucky seed.
    for seed in [1, 2, 3] {
        assert_sound(WorkloadKind::SmallBank, seed);
    }
}

#[test]
fn routed_predictions_cover_every_access_at_every_shard_count() {
    // Per-shard routing soundness (DESIGN.md §3.5): at every swept shard
    // count, every concretely touched key must land on a shard the
    // transaction's predicted RWS was routed to. At 1 shard everything is
    // single-shard; above that the cross-shard ratio is monotonically
    // non-decreasing (splitting the key space finer can only split more
    // key-sets across shards).
    for kind in WorkloadKind::ALL {
        let mut last_ratio = -1.0f64;
        for shards in [1usize, 2, 4, 8] {
            let report = check_soundness_sharded(kind, 0x5A_0D, 3, 24, shards)
                .unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(report.shards, shards);
            assert_eq!(
                report.single_shard + report.cross_shard,
                report.checked,
                "{}: every checked tx is routed exactly once",
                report.workload
            );
            let ratio = report.cross_shard_ratio();
            if shards == 1 {
                assert_eq!(ratio, 0.0, "{}: one shard cannot split a key-set", report.workload);
            }
            assert!(
                ratio >= last_ratio,
                "{}: cross-shard ratio fell from {last_ratio:.3} to {ratio:.3} at {shards} shards",
                report.workload
            );
            last_ratio = ratio;
            eprintln!(
                "[rws-soundness] {} shards={shards}: single={} cross={} ratio={:.3}",
                report.workload, report.single_shard, report.cross_shard, ratio
            );
        }
    }
}

#[test]
fn adversarial_pack_cross_shard_ratios_are_observable() {
    // The adversarial pack must keep its routing sound too, and its hot
    // key-sets must actually exercise the cross-shard path at 8 shards.
    let mut any_cross = 0usize;
    for kind in WorkloadKind::ADVERSARIAL {
        let report =
            check_soundness_sharded(kind, 0xAD_5D, 3, 24, 8).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.checked > 0, "{}: nothing checked", report.workload);
        any_cross += report.cross_shard;
        eprintln!(
            "[rws-soundness] {} shards=8: single={} cross={} ratio={:.3}",
            report.workload,
            report.single_shard,
            report.cross_shard,
            report.cross_shard_ratio()
        );
    }
    assert!(any_cross > 0, "the adversarial pack never crossed a shard at 8 shards");
}
