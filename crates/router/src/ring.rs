//! Consistent-hash ring with virtual nodes, plus the prompt-prefix
//! fingerprint that keys routing decisions.
//!
//! The ring is the classic construction: every replica owns `vnodes_per`
//! pseudo-random positions on a `u64` circle, and a key is routed to the
//! replica owning the first position at or clockwise-after the key's own
//! hash. Virtual nodes smooth the load split (the fair-share property is
//! pinned by `tests/ring_props.rs`), and removing a replica remaps *only*
//! the keys that landed on its positions — every other key keeps its
//! replica, which is what makes failover cheap: one replica's cache
//! working set moves, the others stay warm (the minimal-disruption
//! invariant, also property-tested).
//!
//! Positions are pure functions of `(replica, vnode_index)` — no RNG
//! state, no clock — so two rings built from the same member list are
//! identical, in this process or any other. That determinism is load-
//! bearing: the chaos matrix replays routing decisions byte-for-byte
//! across thread counts and trace levels.

use lm4db_fault::mix;

/// The routing key for a prompt: a hash of its first `window` tokens.
///
/// Prompts that share an instruction header (the loadgen workloads all
/// prepend one) share a fingerprint, so affinity routing sends them to
/// the same replica and the replica's token-trie prefix cache serves the
/// header from cache instead of rediscovering it. `window` trades
/// locality granularity against collision rate; 0 hashes the whole
/// prompt.
pub fn prefix_fingerprint(tokens: &[usize], window: usize) -> u64 {
    let take = if window == 0 { tokens.len() } else { window };
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for &t in tokens.iter().take(take) {
        h = mix(h ^ (t as u64).wrapping_add(1));
    }
    h
}

/// A consistent-hash ring over `u32` replica ids.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(position, replica)` pairs; ties break on the replica id
    /// so the ring order is total and member-list-deterministic.
    vnodes: Vec<(u64, u32)>,
    members: Vec<u32>,
    vnodes_per: u32,
}

impl HashRing {
    /// A ring over replicas `0..replicas`, each with `vnodes_per` virtual
    /// nodes (clamped to ≥ 1).
    pub fn new(replicas: u32, vnodes_per: u32) -> Self {
        Self::with_members(&(0..replicas).collect::<Vec<_>>(), vnodes_per)
    }

    /// A ring over an explicit member list (duplicates are ignored).
    pub fn with_members(members: &[u32], vnodes_per: u32) -> Self {
        let mut ms: Vec<u32> = members.to_vec();
        ms.sort_unstable();
        ms.dedup();
        let mut ring = HashRing {
            vnodes: Vec::new(),
            members: ms,
            vnodes_per: vnodes_per.max(1),
        };
        ring.rebuild();
        ring
    }

    fn rebuild(&mut self) {
        self.vnodes.clear();
        self.vnodes
            .reserve(self.members.len() * self.vnodes_per as usize);
        for &rep in &self.members {
            for v in 0..self.vnodes_per {
                let pos = mix((u64::from(rep) << 32) | u64::from(v));
                self.vnodes.push((pos, rep));
            }
        }
        self.vnodes.sort_unstable();
    }

    /// Current members, ascending.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Adds a replica (no-op if present). Only the keys clockwise-before
    /// its new positions move to it.
    pub fn insert(&mut self, replica: u32) {
        if let Err(i) = self.members.binary_search(&replica) {
            self.members.insert(i, replica);
            self.rebuild();
        }
    }

    /// Removes a replica (no-op if absent). Only keys that landed on its
    /// positions are remapped — to each position's clockwise successor.
    pub fn remove(&mut self, replica: u32) {
        if let Ok(i) = self.members.binary_search(&replica) {
            self.members.remove(i);
            self.rebuild();
        }
    }

    /// The replica owning `key`, or `None` on an empty ring.
    pub fn route(&self, key: u64) -> Option<u32> {
        self.successors(key).next()
    }

    /// Distinct replicas in ring order starting at `key`'s position: the
    /// owner first, then each following replica exactly once. Failover
    /// walks this order, skipping dead or open replicas, so every router
    /// in the fleet agrees on the fallback target without coordination.
    pub fn successors(&self, key: u64) -> impl Iterator<Item = u32> + '_ {
        let start = self.vnodes.partition_point(|&(pos, _)| pos < key);
        let n = self.vnodes.len();
        let mut seen: Vec<u32> = Vec::with_capacity(self.members.len());
        (0..n).filter_map(move |i| {
            let (_, rep) = self.vnodes[(start + i) % n];
            if seen.contains(&rep) {
                None
            } else {
                seen.push(rep);
                Some(rep)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_are_deterministic_and_total() {
        let a = HashRing::new(4, 64);
        let b = HashRing::new(4, 64);
        for k in 0..1000u64 {
            let key = mix(k);
            let r = a.route(key).unwrap();
            assert_eq!(Some(r), b.route(key), "two identical rings disagree");
            assert!(r < 4);
        }
    }

    #[test]
    fn successors_visit_every_member_once() {
        let ring = HashRing::new(5, 16);
        for k in 0..50u64 {
            let order: Vec<u32> = ring.successors(mix(k)).collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "order was {order:?}");
            assert_eq!(order[0], ring.route(mix(k)).unwrap());
        }
    }

    #[test]
    fn empty_ring_routes_nothing() {
        let ring = HashRing::with_members(&[], 8);
        assert!(ring.is_empty());
        assert_eq!(ring.route(42), None);
    }

    #[test]
    fn insert_and_remove_are_inverses() {
        let mut ring = HashRing::new(4, 32);
        let before: Vec<Option<u32>> = (0..200).map(|k| ring.route(mix(k))).collect();
        ring.remove(2);
        assert_eq!(ring.members(), &[0, 1, 3]);
        for k in 0..200 {
            assert_ne!(ring.route(mix(k)), Some(2), "removed replica still routed");
        }
        ring.insert(2);
        let after: Vec<Option<u32>> = (0..200).map(|k| ring.route(mix(k))).collect();
        assert_eq!(before, after, "re-adding a member must restore the map");
    }

    #[test]
    fn prefix_fingerprint_depends_only_on_the_window() {
        let a = prefix_fingerprint(&[1, 2, 3, 4, 5, 6], 4);
        let b = prefix_fingerprint(&[1, 2, 3, 4, 9, 9], 4);
        let c = prefix_fingerprint(&[1, 2, 3, 7, 5, 6], 4);
        assert_eq!(a, b, "tail tokens beyond the window must not matter");
        assert_ne!(a, c, "window tokens must matter");
        // window 0 hashes everything.
        assert_ne!(
            prefix_fingerprint(&[1, 2, 3, 4, 5, 6], 0),
            prefix_fingerprint(&[1, 2, 3, 4, 5, 7], 0)
        );
    }
}
