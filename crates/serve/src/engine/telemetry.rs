//! The sampler tick: step-clock time series and burn-rate alerting.

use lm4db_obs::AlertState;

use super::Engine;
use crate::sched::TenantId;
use crate::stats::Counter;

/// One sampler tick: snapshots step-based engine state into the global
/// time-series store ([`crate::Stats::sample_series`]) and feeds the
/// burn-rate monitor. Every recorded value is derived from the virtual
/// step clock (tick counts, queue depths, step-latency quantiles) — never
/// wall time — so the sample stream, and any alert trajectory computed
/// over it, is a pure function of the request schedule.
pub(super) fn sample(eng: &mut Engine<'_>) {
    let step = eng.ticks;
    eng.stats.add(Counter::SAMPLER_TICKS, 1);
    let depths = (eng.queue.len(), eng.active.len(), eng.retrying.len());
    eng.stats
        .sample_series(step, depths, eng.queue.classes().len());
    let Some(monitor) = eng.monitor.as_mut() else {
        return;
    };
    for (tenant, class) in eng.queue.classes().iter().enumerate() {
        if class.slo_steps == 0 {
            continue; // best-effort tenants have no burn to monitor
        }
        let tenant = tenant as TenantId;
        let (met, missed, shed) = match eng.stats.tenants.get(&tenant) {
            Some(t) => (t.slo_met, t.slo_missed, t.slo_shed),
            None => (0, 0, 0),
        };
        // Burn inputs: bad = SLO-relevant failures (deadline overruns
        // plus admission sheds), total = every SLO-tracked outcome.
        let bad = missed + shed;
        let total = met + missed + shed;
        for tr in monitor.observe(&class.name, step, bad, total) {
            let (instant, counter) = match tr.to {
                AlertState::Pending => ("slo/pending", Some(Counter::SLO_PENDING)),
                AlertState::Firing => ("slo/firing", Some(Counter::SLO_FIRING)),
                AlertState::Resolved => ("slo/resolved", Some(Counter::SLO_RESOLVED)),
                AlertState::Inactive => ("slo/inactive", None),
            };
            if let Some(counter) = counter {
                eng.stats.add(counter, 1);
            }
            lm4db_obs::instant_arg(instant, u64::from(tenant));
            eng.transitions.push(tr);
        }
    }
}
