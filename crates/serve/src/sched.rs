//! Multi-tenant scheduling: tenant classes and weighted-fair queues.
//!
//! A production engine serves several *tenants* — traffic classes with
//! their own priorities and latency targets — from one batch. This module
//! provides the admission-side machinery (DESIGN.md §5h):
//!
//! * [`TenantClass`] describes one tenant: a strict-priority **tier**
//!   (lower number wins; tiers model "interactive beats batch"), a
//!   **weight** for fair sharing *within* a tier, and an optional **SLO
//!   deadline** in scheduler steps that the engine's admission controller
//!   targets.
//! * `FairQueues` (crate-internal) holds one FIFO queue per tenant and
//!   picks the next
//!   request to admit by strict priority across tiers and start-time-fair
//!   queuing within a tier: each tenant carries a virtual time that
//!   advances by `SCALE / weight` per admission, and the backlogged tenant
//!   with the smallest virtual time goes next (ties break on the lower
//!   tenant id). The scheme is exactly deterministic — integer virtual
//!   times, no clocks — and has the classic SFQ bound: among continuously
//!   backlogged tenants of one tier, normalized service (admissions ÷
//!   weight) never diverges by more than one maximal increment, so no
//!   tenant starves (pinned by `tests/fairness_props.rs`).
//!
//! Virtual times reset lazily: when a tier's backlog empties, the next
//! arrival starts a fresh busy period at virtual time zero, and a tenant
//! joining a busy tier starts at the tier's smallest backlogged virtual
//! time — so idling never banks credit and joining never inherits debt.

use std::collections::VecDeque;

/// Identifies a tenant: an index into [`crate::EngineOptions::tenants`]
/// (or anything the caller likes when no classes are configured).
pub type TenantId = u32;

/// One tenant's scheduling contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantClass {
    /// Display name (stats tables, traces).
    pub name: String,
    /// Strict-priority tier: requests from tier `t` are only admitted
    /// when every queue in tiers `< t` is empty. 0 is the highest.
    pub tier: u8,
    /// Weighted-fair share within the tier (≥ 1; 0 is clamped to 1).
    pub weight: u32,
    /// SLO target in scheduler steps. Non-zero makes the tenant
    /// SLO-admitted (the engine sheds a submit predicted to miss it, see
    /// [`crate::EngineOptions::tenants`]) and burn-rate watched; 0 means
    /// best-effort (never SLO-shed).
    pub slo_steps: u64,
}

impl TenantClass {
    /// A tier-0, weight-1, best-effort class.
    pub fn new(name: &str) -> Self {
        TenantClass {
            name: name.to_string(),
            tier: 0,
            weight: 1,
            slo_steps: 0,
        }
    }

    /// Sets the strict-priority tier.
    pub fn tier(mut self, tier: u8) -> Self {
        self.tier = tier;
        self
    }

    /// Sets the weighted-fair share.
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Sets the SLO target in scheduler steps.
    pub fn slo_steps(mut self, slo: u64) -> Self {
        self.slo_steps = slo;
        self
    }
}

impl Default for TenantClass {
    fn default() -> Self {
        TenantClass::new("default")
    }
}

/// Virtual-time quantum: one admission advances a tenant's virtual time
/// by `SCALE / weight`, so integer division error is ≤ 1 part in 2¹⁶ per
/// admission for any weight ≤ 2¹⁶.
const SCALE: u64 = 1 << 16;

/// Per-tenant FIFO queues with strict-priority + start-time-fair pick.
/// Generic over the queued item so the engine can store its private
/// pending-request type.
#[derive(Debug)]
pub(crate) struct FairQueues<T> {
    classes: Vec<TenantClass>,
    queues: Vec<VecDeque<T>>,
    vtime: Vec<u64>,
    len: usize,
}

impl<T> FairQueues<T> {
    /// Queues for `classes`; an empty list becomes one default class so
    /// an unconfigured engine degenerates to plain FIFO.
    pub fn new(mut classes: Vec<TenantClass>) -> Self {
        if classes.is_empty() {
            classes.push(TenantClass::default());
        }
        for c in &mut classes {
            c.weight = c.weight.max(1);
        }
        let n = classes.len();
        FairQueues {
            classes,
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            vtime: vec![0; n],
            len: 0,
        }
    }

    /// The configured classes, in tenant-id order.
    pub fn classes(&self) -> &[TenantClass] {
        &self.classes
    }

    /// Maps a request's tenant id to its queue: the id itself when
    /// classes are configured (the engine validates the range at submit),
    /// queue 0 otherwise.
    pub fn class_index(&self, tenant: TenantId) -> usize {
        (tenant as usize).min(self.classes.len() - 1)
    }

    /// Total queued items across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether every tenant queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued items across every class in tiers `<= tier` — what a new
    /// arrival at `tier` must (at least partially) wait behind.
    pub fn queued_at_or_above(&self, tier: u8) -> usize {
        self.classes
            .iter()
            .zip(self.queues.iter())
            .filter(|(c, _)| c.tier <= tier)
            .map(|(_, q)| q.len())
            .sum()
    }

    /// Iterates `(class index, item)` over everything queued, FIFO within
    /// each class (used for stats snapshots and cancellation sweeps).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.queues
            .iter()
            .enumerate()
            .flat_map(|(c, q)| q.iter().map(move |item| (c, item)))
    }

    /// Enqueues `item` for `class`, maintaining the busy-period virtual
    /// time invariants described in the [module docs](self).
    pub fn push(&mut self, class: usize, item: T) {
        if self.queues[class].is_empty() {
            let tier = self.classes[class].tier;
            let tier_min = self
                .classes
                .iter()
                .zip(self.queues.iter())
                .zip(self.vtime.iter())
                .filter(|((c, q), _)| c.tier == tier && !q.is_empty())
                .map(|(_, &v)| v)
                .min();
            match tier_min {
                // Joining a busy tier: start at its smallest backlogged
                // virtual time (no banked credit, no inherited debt).
                Some(v) => self.vtime[class] = self.vtime[class].max(v),
                // Fresh busy period: the whole tier restarts at zero.
                None => {
                    for (i, c) in self.classes.iter().enumerate() {
                        if c.tier == tier {
                            self.vtime[i] = 0;
                        }
                    }
                }
            }
        }
        self.queues[class].push_back(item);
        self.len += 1;
    }

    /// Dequeues the next item: lowest tier first, then smallest virtual
    /// time, then lowest tenant id; charges the tenant's virtual time.
    pub fn pop_next(&mut self) -> Option<(usize, T)> {
        let class = self
            .queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .map(|(i, _)| i)
            .min_by_key(|&i| (self.classes[i].tier, self.vtime[i], i))?;
        let item = self.queues[class].pop_front().expect("queue checked");
        self.len -= 1;
        self.vtime[class] += SCALE / u64::from(self.classes[class].weight);
        Some((class, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_order(q: &mut FairQueues<u32>) -> Vec<usize> {
        std::iter::from_fn(|| q.pop_next().map(|(c, _)| c)).collect()
    }

    #[test]
    fn single_class_is_fifo() {
        let mut q = FairQueues::new(Vec::new());
        for i in 0..5u32 {
            q.push(0, i);
        }
        let items: Vec<u32> = std::iter::from_fn(|| q.pop_next().map(|(_, x)| x)).collect();
        assert_eq!(items, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn weights_split_service_proportionally() {
        // Tenant 0 at weight 3, tenant 1 at weight 1: of every 4
        // admissions, 3 go to tenant 0.
        let mut q = FairQueues::new(vec![
            TenantClass::new("a").weight(3),
            TenantClass::new("b").weight(1),
        ]);
        for i in 0..12u32 {
            q.push(0, i);
            q.push(1, i);
        }
        let order = drain_order(&mut q);
        let first8: Vec<usize> = order[..8].to_vec();
        let a_count = first8.iter().filter(|&&c| c == 0).count();
        assert_eq!(
            a_count, 6,
            "weight 3:1 must serve ~3/4 to tenant a: {order:?}"
        );
    }

    #[test]
    fn strict_priority_preempts_lower_tiers() {
        let mut q = FairQueues::new(vec![
            TenantClass::new("interactive").tier(0),
            TenantClass::new("batch").tier(1),
        ]);
        q.push(1, 0);
        q.push(1, 1);
        q.push(0, 2);
        // Tier 0 jumps the whole tier-1 backlog.
        assert_eq!(q.pop_next().unwrap(), (0, 2));
        assert_eq!(q.pop_next().unwrap().0, 1);
    }

    #[test]
    fn idle_tenant_banks_no_credit() {
        let mut q = FairQueues::new(vec![
            TenantClass::new("a").weight(1),
            TenantClass::new("b").weight(1),
        ]);
        // Tenant 0 is served alone for a while (vtime grows)...
        for i in 0..8u32 {
            q.push(0, i);
        }
        for _ in 0..8 {
            q.pop_next();
        }
        // ...then both arrive. Tenant 1 must NOT monopolize: the empty
        // tier reset means they now alternate.
        for i in 0..4u32 {
            q.push(0, i);
            q.push(1, i);
        }
        let order = drain_order(&mut q);
        let a_first4 = order[..4].iter().filter(|&&c| c == 0).count();
        assert_eq!(a_first4, 2, "equal weights must alternate: {order:?}");
    }

    #[test]
    fn joining_a_busy_tier_inherits_no_debt() {
        let mut q = FairQueues::new(vec![
            TenantClass::new("a").weight(1),
            TenantClass::new("b").weight(1),
        ]);
        for i in 0..6u32 {
            q.push(0, i);
        }
        q.pop_next(); // a's vtime advances while b idles
        q.pop_next();
        for i in 0..6u32 {
            q.push(1, i); // b joins mid-busy-period at a's vtime
        }
        let order = drain_order(&mut q);
        // b must not get all its requests first (that would be banked
        // credit); service alternates from here.
        let b_first4 = order[..4].iter().filter(|&&c| c == 1).count();
        assert!(b_first4 <= 2, "b banked credit while idle: {order:?}");
    }

    #[test]
    fn queued_at_or_above_counts_tiers() {
        let mut q = FairQueues::new(vec![
            TenantClass::new("hi").tier(0),
            TenantClass::new("mid").tier(1),
            TenantClass::new("lo").tier(2),
        ]);
        q.push(0, 0);
        q.push(1, 1);
        q.push(1, 2);
        q.push(2, 3);
        assert_eq!(q.queued_at_or_above(0), 1);
        assert_eq!(q.queued_at_or_above(1), 3);
        assert_eq!(q.queued_at_or_above(2), 4);
        assert_eq!(q.len(), 4);
        assert_eq!(q.iter().filter(|&(c, _)| c == 1).count(), 2);
    }

    #[test]
    fn zero_weight_clamps_to_one() {
        let q: FairQueues<u32> = FairQueues::new(vec![TenantClass::new("z").weight(0)]);
        assert_eq!(q.classes()[0].weight, 1);
    }
}
