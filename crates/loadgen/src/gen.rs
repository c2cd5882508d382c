//! Open-loop arrival generation: tenants, phases, and the generator.
//!
//! **Open loop** means arrivals are a function of *time*, not of the
//! server's progress: a tick's arrivals are submitted whether or not the
//! engine has drained the previous tick's, which is what makes overload
//! (and therefore admission control) observable at all — a closed-loop
//! driver self-throttles and can never offer more than the service rate.
//!
//! **Virtual clock.** Time is a tick counter, one tick per engine
//! scheduler step. Every sample is drawn from a stream derived from
//! `(seed, tenant, tick)`, so the whole schedule is a pure function: the
//! same seed replays byte-identical traffic at any thread count, trace
//! level, or replay order — the soak suite's reproducibility claim rests
//! on this.

use lm4db_serve::{Request, TenantClass};

use crate::rng::Rng;
use crate::workload::{build_request, sample_prompt, PromptShape, Workload};

/// One traffic class: a tenant with its own rate, scheduling class, SLO,
/// and workload mix.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (stats tables, fingerprints).
    pub name: &'static str,
    /// Mean arrivals per tick at phase multiplier 1.0.
    pub rate: f64,
    /// Strict-priority tier the serve scheduler should place this tenant
    /// in (0 = highest).
    pub tier: u8,
    /// Weighted-fair share within the tier.
    pub weight: u32,
    /// SLO deadline in scheduler steps (0 = best-effort, no SLO).
    pub slo_steps: u64,
    /// Wall-clock SLO target in milliseconds. Nothing reads it: the serve
    /// engine has one SLO target, [`TenantSpec::slo_steps`], on the step
    /// clock. It stays only because the `benchmark` package names every
    /// field of this struct, and goes with that package's next change.
    pub slo_wall_ms: u64,
    /// Relative weights over [`Workload::ALL`]; zero entries are never
    /// sampled.
    pub mix: [f64; 7],
}

impl TenantSpec {
    /// The serve-side scheduling class of this tenant: name, tier, weight
    /// and step target.
    pub fn class(&self) -> TenantClass {
        TenantClass::new(self.name)
            .tier(self.tier)
            .weight(self.weight)
            .slo_steps(self.slo_steps)
    }
}

/// A burst overlay on a phase: every `period` ticks, `width` consecutive
/// ticks run at `mul` times the phase rate — flash-crowd arrivals rather
/// than a stationary Poisson stream.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    /// Burst spacing in ticks.
    pub period: u64,
    /// Burst length in ticks (clamped to `period`).
    pub width: u64,
    /// Rate multiplier inside the burst.
    pub mul: f64,
}

/// A stretch of the schedule with one rate regime.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Phase length in ticks.
    pub ticks: u64,
    /// Rate multiplier applied to every tenant's base rate.
    pub rate_mul: f64,
    /// Optional periodic burst overlay.
    pub burst: Option<Burst>,
}

impl Phase {
    /// A stationary Poisson phase.
    pub fn poisson(ticks: u64, rate_mul: f64) -> Self {
        Phase {
            ticks,
            rate_mul,
            burst: None,
        }
    }

    /// A bursty phase: baseline `rate_mul`, spiking by `burst.mul`.
    pub fn bursty(ticks: u64, rate_mul: f64, burst: Burst) -> Self {
        Phase {
            ticks,
            rate_mul,
            burst: Some(burst),
        }
    }
}

/// One generated request, ready to submit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual-clock tick the request arrives at.
    pub tick: u64,
    /// Index into the generator's tenant list (== the serve engine's
    /// tenant id when classes are registered in the same order).
    pub tenant: u32,
    /// Which application issued it.
    pub workload: Workload,
    /// The sampled prompt (header + tail).
    pub prompt: Vec<usize>,
    /// Decode budget drawn for this request.
    pub max_new: usize,
}

impl Arrival {
    /// The serve-engine request for this arrival, tagged with its tenant.
    /// Rebuilding is deterministic: the decode budget and strategy are
    /// derived from the arrival's own fields.
    pub fn to_request(&self) -> Request<'static> {
        // The budget was already drawn at sampling time; reuse it via a
        // fixed stream so to_request() is idempotent.
        let mut rng = Rng::derive(self.max_new as u64, &[self.tick, u64::from(self.tenant)]);
        build_request(self.workload, self.prompt.clone(), self.max_new, &mut rng)
            .with_tenant(self.tenant)
    }
}

/// The seeded open-loop generator. See the [crate docs](crate) for the
/// open-loop and virtual-clock background.
#[derive(Debug, Clone)]
pub struct LoadGen {
    seed: u64,
    shape: PromptShape,
    tenants: Vec<TenantSpec>,
    phases: Vec<Phase>,
    total_ticks: u64,
}

impl LoadGen {
    /// A generator for `tenants` driven through `phases`.
    pub fn new(
        seed: u64,
        shape: PromptShape,
        tenants: Vec<TenantSpec>,
        phases: Vec<Phase>,
    ) -> Self {
        assert!(!tenants.is_empty(), "need at least one tenant");
        assert!(!phases.is_empty(), "need at least one phase");
        let total_ticks = phases.iter().map(|p| p.ticks).sum();
        LoadGen {
            seed,
            shape,
            tenants,
            phases,
            total_ticks,
        }
    }

    /// The tenant specs, in tenant-id order.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// Schedule length in ticks.
    pub fn total_ticks(&self) -> u64 {
        self.total_ticks
    }

    /// The rate multiplier in force at `tick` (0 past the end).
    pub fn rate_mul_at(&self, tick: u64) -> f64 {
        let mut t = tick;
        for p in &self.phases {
            if t < p.ticks {
                let mut mul = p.rate_mul;
                if let Some(b) = p.burst {
                    if b.period > 0 && t % b.period < b.width.min(b.period) {
                        mul *= b.mul;
                    }
                }
                return mul;
            }
            t -= p.ticks;
        }
        0.0
    }

    /// The arrivals at `tick`, in (tenant, draw) order. A pure function of
    /// `(seed, tick)`: calling it twice, out of order, or from different
    /// processes yields identical arrivals.
    pub fn arrivals_at(&self, tick: u64) -> Vec<Arrival> {
        let mul = self.rate_mul_at(tick);
        if mul <= 0.0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (ti, tenant) in self.tenants.iter().enumerate() {
            let mut rng = Rng::derive(self.seed, &[ti as u64, tick]);
            let n = rng.poisson(tenant.rate * mul);
            for _ in 0..n {
                let w = Workload::ALL[rng.weighted(&tenant.mix)];
                let prompt = sample_prompt(w, &self.shape, &mut rng);
                let max_new = 1 + rng.below(self.shape.max_new.max(1) as u64) as usize;
                out.push(Arrival {
                    tick,
                    tenant: ti as u32,
                    workload: w,
                    prompt,
                    max_new,
                });
            }
        }
        out
    }

    /// Total arrivals over the whole schedule (sums every tick's Poisson
    /// draws; O(ticks × tenants) but sampling is cheap).
    pub fn total_offered(&self) -> u64 {
        (0..self.total_ticks)
            .map(|t| self.arrivals_at(t).len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rate: f64) -> TenantSpec {
        TenantSpec {
            name: "t",
            rate,
            tier: 0,
            weight: 1,
            slo_steps: 0,
            slo_wall_ms: 0,
            mix: [1.0; 7],
        }
    }

    #[test]
    fn class_carries_the_scheduling_fields() {
        let s = TenantSpec {
            name: "interactive",
            tier: 1,
            weight: 3,
            slo_steps: 16,
            ..spec(1.0)
        };
        let want = TenantClass::new("interactive")
            .tier(1)
            .weight(3)
            .slo_steps(16);
        assert_eq!(s.class(), want);
    }

    fn shape() -> PromptShape {
        PromptShape {
            vocab: 64,
            max_prompt: 10,
            max_new: 3,
        }
    }

    #[test]
    fn arrivals_are_reproducible_and_order_independent() {
        let g = LoadGen::new(
            42,
            shape(),
            vec![spec(1.5), spec(0.5)],
            vec![Phase::poisson(64, 1.0)],
        );
        let forward: Vec<_> = (0..64).map(|t| g.arrivals_at(t)).collect();
        let backward: Vec<_> = (0..64).rev().map(|t| g.arrivals_at(t)).collect();
        for (t, a) in forward.iter().enumerate() {
            let b = &backward[63 - t];
            assert_eq!(a.len(), b.len(), "tick {t} arrival count changed");
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.prompt, y.prompt, "tick {t} prompts changed");
                assert_eq!(x.workload, y.workload);
                assert_eq!(x.max_new, y.max_new);
            }
        }
    }

    #[test]
    fn different_seeds_produce_different_schedules() {
        let mk = |seed| {
            LoadGen::new(
                seed,
                shape(),
                vec![spec(2.0)],
                vec![Phase::poisson(32, 1.0)],
            )
            .total_offered()
        };
        // Equal totals are possible but the full schedules differing is
        // overwhelmingly likely; compare per-tick counts.
        let g1 = LoadGen::new(1, shape(), vec![spec(2.0)], vec![Phase::poisson(32, 1.0)]);
        let g2 = LoadGen::new(2, shape(), vec![spec(2.0)], vec![Phase::poisson(32, 1.0)]);
        let c1: Vec<usize> = (0..32).map(|t| g1.arrivals_at(t).len()).collect();
        let c2: Vec<usize> = (0..32).map(|t| g2.arrivals_at(t).len()).collect();
        assert_ne!(c1, c2, "seeds 1 and 2 generated identical schedules");
        let _ = mk(3);
    }

    #[test]
    fn phases_and_bursts_shape_the_rate() {
        let g = LoadGen::new(
            7,
            shape(),
            vec![spec(1.0)],
            vec![
                Phase::poisson(10, 1.0),
                Phase::bursty(
                    20,
                    1.0,
                    Burst {
                        period: 10,
                        width: 2,
                        mul: 8.0,
                    },
                ),
                Phase::poisson(5, 0.0),
            ],
        );
        assert_eq!(g.total_ticks(), 35);
        assert_eq!(g.rate_mul_at(0), 1.0);
        assert_eq!(g.rate_mul_at(10), 8.0, "burst tick");
        assert_eq!(g.rate_mul_at(12), 1.0, "between bursts");
        assert_eq!(g.rate_mul_at(20), 8.0, "second burst");
        assert_eq!(g.rate_mul_at(30), 0.0, "silent phase");
        assert_eq!(g.rate_mul_at(99), 0.0, "past the end");
        assert!(g.arrivals_at(31).is_empty());
    }

    #[test]
    fn offered_load_tracks_rate() {
        let lo = LoadGen::new(5, shape(), vec![spec(0.5)], vec![Phase::poisson(400, 1.0)]);
        let hi = LoadGen::new(5, shape(), vec![spec(0.5)], vec![Phase::poisson(400, 4.0)]);
        let (lo_n, hi_n) = (lo.total_offered(), hi.total_offered());
        // 400 ticks at 0.5/tick ≈ 200; at 2.0/tick ≈ 800.
        assert!((120..=280).contains(&lo_n), "lo {lo_n}");
        assert!((600..=1000).contains(&hi_n), "hi {hi_n}");
    }

    #[test]
    fn mix_zero_weights_never_sampled() {
        let mut t = spec(4.0);
        t.mix = [0.0; 7];
        t.mix[Workload::CodeGen.index()] = 1.0;
        let g = LoadGen::new(11, shape(), vec![t], vec![Phase::poisson(64, 1.0)]);
        for tick in 0..64 {
            for a in g.arrivals_at(tick) {
                assert_eq!(a.workload, Workload::CodeGen);
            }
        }
    }

    #[test]
    fn arrivals_convert_to_valid_requests() {
        let g = LoadGen::new(13, shape(), vec![spec(3.0)], vec![Phase::poisson(32, 1.0)]);
        let mut seen = 0;
        for tick in 0..32 {
            for a in g.arrivals_at(tick) {
                let req = a.to_request();
                assert!(!req.prompt.is_empty());
                assert!(req.prompt.len() <= shape().max_prompt);
                seen += 1;
            }
        }
        assert!(seen > 32, "rate 3/tick should produce many arrivals");
    }
}
