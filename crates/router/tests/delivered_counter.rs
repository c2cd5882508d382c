//! `router/delivered` counts every terminal response, including the ones
//! the router answers itself (`no live replica`, cancelled at failover),
//! so `router/submitted − router/delivered` returns to zero in a scrape
//! once the router drains — even after every replica was killed.
//!
//! Its own test binary: the registry and tracing state are process-global.

use lm4db_router::{Router, RouterOptions};
use lm4db_serve::Request;
use lm4db_transformer::{GptModel, ModelConfig};

#[test]
fn delivered_counter_balances_after_killing_every_replica() {
    lm4db_fault::disarm();
    lm4db_obs::set_enabled(true);
    lm4db_obs::reset();
    let m = GptModel::new(ModelConfig::test(), 7);
    let opts = RouterOptions {
        replicas: 2,
        heartbeat_every: 0,
        ..RouterOptions::default()
    };
    let mut router = Router::new(&m, opts);
    let ids: Vec<u64> = (0..6)
        .map(|i| router.submit(Request::greedy(vec![1, 2 + i], 4, usize::MAX)))
        .collect();
    router.step();
    // One request is cancelled at its failover, the rest find no live
    // replica; a late submission fails fast.
    router.kill_replica(0);
    router.cancel(ids[0]);
    router.cancel(ids[1]);
    router.kill_replica(1);
    router.submit(Request::greedy(vec![1, 9], 4, usize::MAX));
    while router.step() {}
    let stats = router.stats();
    let snap = lm4db_obs::snapshot();
    lm4db_obs::set_enabled(false);

    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(stats.submitted, 7);
    assert_eq!(stats.terminal_total(), stats.submitted, "ledger: {stats:?}");
    assert!(
        stats.cancelled > 0 && stats.no_live_replica > 0,
        "{stats:?}"
    );
    assert_eq!(counter("router/delivered"), stats.terminal_total());
    assert_eq!(counter("router/delivered"), counter("router/submitted"));
}
