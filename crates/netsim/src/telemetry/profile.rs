//! Event-loop self-profiler, compiled in behind `--features profile`.
//!
//! When the feature is off (the default) every method is an inlined
//! no-op and [`Profiler::enabled`] is `const false`, so the event loop's
//! profiling hooks fold away entirely. When on, the profiler counts
//! events processed per [`crate::event::Event`] kind, accumulates
//! wall-clock time per kind, and tracks total run wall-clock.
//!
//! Profile numbers come from the **host clock** ([`std::time::Instant`])
//! and are therefore NOT deterministic — they are reported in the JSON
//! run reports under a separate `profile` section that determinism
//! checks must run without (the CI byte-diff job builds without this
//! feature).

use super::Json;
use crate::event::CohortStats;
#[cfg(feature = "profile")]
use crate::event::EVENT_KIND_NAMES;

/// Number of event kinds tracked (mirrors
/// [`crate::event::EVENT_KIND_NAMES`]).
#[cfg(feature = "profile")]
const KINDS: usize = EVENT_KIND_NAMES.len();

/// Opaque timestamp returned by [`Profiler::mark`]. Zero-sized when
/// profiling is compiled out.
#[cfg(feature = "profile")]
pub(crate) type ProfMark = std::time::Instant;
/// Opaque timestamp returned by [`Profiler::mark`]. Zero-sized when
/// profiling is compiled out.
#[cfg(not(feature = "profile"))]
pub(crate) type ProfMark = ();

#[cfg(feature = "profile")]
#[derive(Debug, Clone)]
struct ProfState {
    events_by_kind: [u64; KINDS],
    wall_by_kind: [std::time::Duration; KINDS],
    started: std::time::Instant,
}

/// Per-run event-loop profiler. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    #[cfg(feature = "profile")]
    state: Option<ProfState>,
}

impl Profiler {
    /// A fresh profiler (starts its run clock when built with the
    /// feature).
    pub fn new() -> Profiler {
        #[cfg(feature = "profile")]
        {
            Profiler {
                state: Some(ProfState {
                    events_by_kind: [0; KINDS],
                    wall_by_kind: [std::time::Duration::ZERO; KINDS],
                    started: std::time::Instant::now(),
                }),
            }
        }
        #[cfg(not(feature = "profile"))]
        {
            Profiler {}
        }
    }

    /// Whether profiling is compiled in. `const`, so guarded code folds
    /// away without the feature.
    #[inline]
    pub const fn enabled() -> bool {
        cfg!(feature = "profile")
    }

    /// Takes a timestamp before dispatching an event.
    #[inline]
    pub(crate) fn mark(&self) -> ProfMark {
        #[cfg(feature = "profile")]
        {
            // simlint: allow(determinism-taint) opt-in `profile` feature; feeds an advisory report excluded from deterministic outputs
            std::time::Instant::now()
        }
    }

    /// Attributes the time since `mark` to event kind `kind`
    /// (an index from [`crate::event::Event::kind_index`]).
    #[inline]
    pub(crate) fn on_event(&mut self, kind: usize, mark: ProfMark) {
        #[cfg(feature = "profile")]
        if let Some(s) = &mut self.state {
            s.events_by_kind[kind] += 1;
            s.wall_by_kind[kind] += mark.elapsed();
        }
        #[cfg(not(feature = "profile"))]
        let _ = (kind, mark);
    }

    /// The profile report as JSON, or `None` when compiled out.
    /// `peak_pending`, `peak_inflight` and `peak_queued` are the high-water
    /// marks the event queue's, the packet pool's and (summed) the ports'
    /// slabs grew to; `port_slab_bytes` is the heap those port slabs and
    /// their stamp columns hold; `cohorts` is how the queue's wheel handed
    /// out its events.
    pub fn report(
        &self,
        peak_pending: usize,
        peak_inflight: usize,
        peak_queued: usize,
        port_slab_bytes: usize,
        cohorts: CohortStats,
    ) -> Option<Json> {
        #[cfg(feature = "profile")]
        {
            let s = self.state.as_ref()?;
            let mut by_kind = Json::obj(vec![]);
            for (i, name) in EVENT_KIND_NAMES.iter().enumerate() {
                by_kind.push(
                    name,
                    Json::obj(vec![
                        ("events", Json::UInt(s.events_by_kind[i])),
                        (
                            "wall_us",
                            Json::Float(s.wall_by_kind[i].as_secs_f64() * 1e6),
                        ),
                    ]),
                );
            }
            let per_promotion = cohorts.promoted as f64 / cohorts.promotions.max(1) as f64;
            Some(Json::obj(vec![
                ("events_by_kind", by_kind),
                ("events_per_promotion", Json::Float(per_promotion)),
                ("max_cohort", Json::UInt(cohorts.max_cohort)),
                ("peak_inflight_packets", Json::UInt(peak_inflight as u64)),
                ("peak_pending_events", Json::UInt(peak_pending as u64)),
                ("peak_queued_packets", Json::UInt(peak_queued as u64)),
                ("port_slab_bytes", Json::UInt(port_slab_bytes as u64)),
                ("promotions", Json::UInt(cohorts.promotions)),
                (
                    "run_wall_us",
                    Json::Float(s.started.elapsed().as_secs_f64() * 1e6),
                ),
            ]))
        }
        #[cfg(not(feature = "profile"))]
        {
            let _ = (
                peak_pending,
                peak_inflight,
                peak_queued,
                port_slab_bytes,
                cohorts,
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_matches_feature() {
        let mut p = Profiler::new();
        // `m` is `()` without the profile feature.
        #[allow(clippy::let_unit_value)]
        let m = p.mark();
        p.on_event(0, m);
        let cohorts = CohortStats {
            promotions: 4,
            promoted: 10,
            max_cohort: 6,
        };
        if Profiler::enabled() {
            let r = p
                .report(3, 2, 5, 440, cohorts)
                .expect("report present with feature");
            let text = r.render();
            assert!(text.contains("\"peak_pending_events\": 3"));
            assert!(text.contains("\"peak_inflight_packets\": 2"));
            assert!(text.contains("\"peak_queued_packets\": 5"));
            assert!(text.contains("\"port_slab_bytes\": 440"));
            assert!(text.contains("\"events_by_kind\""));
            assert!(text.contains("\"promotions\": 4"));
            assert!(text.contains("\"events_per_promotion\": 2.5"));
            assert!(text.contains("\"max_cohort\": 6"));
        } else {
            assert!(p.report(3, 2, 5, 440, cohorts).is_none());
        }
    }

    /// The queue feeds the report's cohort fields: ten events at one
    /// instant are one promotion of ten, three events a tick apart are
    /// three promotions of one. Without the feature nothing is counted.
    #[test]
    fn queue_counts_its_cohorts() {
        use crate::event::{Event, EventQueue, TICK_PS};
        use crate::units::Time;
        let mut q = EventQueue::new();
        for id in 0..10 {
            q.schedule(Time(TICK_PS), Event::Hook { id });
        }
        for k in 2..5 {
            q.schedule(Time(k * TICK_PS), Event::Hook { id: 0 });
        }
        while q.pop().is_some() {}
        let expect = if Profiler::enabled() {
            CohortStats {
                promotions: 4,
                promoted: 13,
                max_cohort: 10,
            }
        } else {
            CohortStats::default()
        };
        assert_eq!(q.cohort_stats(), expect);
    }
}
