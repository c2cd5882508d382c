//! Property tests for the consistent-hash ring.
//!
//! Two claims carry the router's scaling story:
//!
//! * **Fair share.** With enough virtual nodes (≥ 64 per replica) no
//!   replica owns more than 2× its fair share of a large random key
//!   population — the load split is smooth enough that adding a replica
//!   actually adds capacity.
//! * **Minimal disruption.** Removing one replica remaps *only* the keys
//!   that replica owned; every other key keeps its assignment. This is
//!   the property that makes failover cheap: one working set moves, the
//!   surviving replicas' prefix caches stay warm.

// splitmix64, so test keys are spread like real fingerprints.
use lm4db_fault::mix;
use lm4db_router::HashRing;
use proptest::prelude::*;

proptest! {
    /// Key distribution stays within 2× of fair share at ≥ 64 vnodes.
    #[test]
    fn load_split_is_within_twice_fair_share(
        replicas in 2u32..9,
        vnodes in 64u32..257,
        key_seed in any::<u64>(),
    ) {
        let ring = HashRing::new(replicas, vnodes);
        const KEYS: u64 = 4096;
        let mut owned = vec![0u64; replicas as usize];
        for k in 0..KEYS {
            let key = mix(key_seed ^ mix(k));
            let r = ring.route(key).expect("non-empty ring routes");
            owned[r as usize] += 1;
        }
        let fair = KEYS / u64::from(replicas);
        for (r, &n) in owned.iter().enumerate() {
            prop_assert!(
                n <= 2 * fair,
                "replica {r} owns {n} of {KEYS} keys — more than 2× the fair \
                 share {fair} ({replicas} replicas, {vnodes} vnodes)"
            );
        }
    }

    /// Removing one replica remaps only that replica's keys; everything
    /// else keeps its owner (and the orphaned keys land on live replicas).
    #[test]
    fn removal_disrupts_only_the_removed_replicas_keys(
        replicas in 2u32..8,
        vnodes in 16u32..129,
        victim_pick in any::<u64>(),
        key_seed in any::<u64>(),
    ) {
        let mut ring = HashRing::new(replicas, vnodes);
        let victim = (victim_pick % u64::from(replicas)) as u32;
        const KEYS: u64 = 1024;
        let before: Vec<u32> = (0..KEYS)
            .map(|k| ring.route(mix(key_seed ^ mix(k))).unwrap())
            .collect();
        ring.remove(victim);
        let after: Vec<u32> = (0..KEYS)
            .map(|k| ring.route(mix(key_seed ^ mix(k))).unwrap())
            .collect();
        for (k, (&b, &a)) in before.iter().zip(after.iter()).enumerate() {
            if b == victim {
                prop_assert!(a != victim, "key {k} still routed to the removed replica");
            } else {
                prop_assert!(
                    a == b,
                    "key {k} moved from surviving replica {b} to {a} — removal \
                     must only remap the victim's keys"
                );
            }
        }
    }

    /// The failover walk agrees with single-routing after a removal: for
    /// a key owned by the victim, the ring's successor order predicts
    /// exactly where the key lands once the victim is gone.
    #[test]
    fn successors_predict_failover_targets(
        replicas in 3u32..8,
        vnodes in 16u32..65,
        key_seed in any::<u64>(),
    ) {
        let ring = HashRing::new(replicas, vnodes);
        for k in 0..256u64 {
            let key = mix(key_seed ^ mix(k));
            let order: Vec<u32> = ring.successors(key).collect();
            let mut shrunk = ring.clone();
            shrunk.remove(order[0]);
            prop_assert!(
                shrunk.route(key) == Some(order[1]),
                "successor order must predict the post-failover owner"
            );
        }
    }
}
