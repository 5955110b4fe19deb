//! Helpers shared by the integration tests.

use youtopia::core::MatchConfig;
use youtopia::storage::Wal;
use youtopia::{CoordinatorConfig, Database, MatcherKind, ShardedConfig, ShardedCoordinator};

/// The liveness oracle: a quiesced workload left nothing committable
/// behind. Recovers a copy of `db`'s state from its log with one shard
/// and the naive matcher (E7's baseline, which tries every subset of
/// the pending set that holds the trigger, by increasing size, up to
/// `max_group_size` members) and asserts that the restart's sweep
/// matched no group. The copy has no apply hook, so the oracle suits
/// workloads whose applies the hook never rejects.
///
/// The naive matcher's cost is combinatorial in the pending count, so
/// callers pass the largest minimal group their workload can form
/// rather than the live matcher's bound.
pub fn assert_quiescent(db: &Database, max_group_size: usize) {
    let bytes = db.wal_bytes().expect("the oracle reads a durable database");
    let config = ShardedConfig {
        shards: 1,
        base: CoordinatorConfig {
            matcher: MatcherKind::Naive,
            match_config: MatchConfig {
                max_group_size,
                randomize: false,
            },
            ..CoordinatorConfig::default()
        },
        ..ShardedConfig::default()
    };
    let (_, report) =
        ShardedCoordinator::recover(Wal::from_bytes(bytes), config).expect("the log recovers");
    assert_eq!(
        report.rematched_groups, 0,
        "a committable group was left pending ({} pending)",
        report.restored_pending
    );
}
