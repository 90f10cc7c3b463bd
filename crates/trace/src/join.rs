//! The timestamp join between event instances and power samples.
//!
//! This is the mechanical substrate of analysis Step 1 ("the power
//! consumption of each of the three events is calculated by mapping
//! each pair of power and event traces according to the timestamps").
//!
//! An instance's power is the mean of the samples inside its
//! *attribution window* `[start, start + max(duration, horizon)]`. The
//! forward-looking horizon (default one sampling period, 500 ms)
//! matters: most callbacks finish in single-digit milliseconds, far
//! below the sampling period, and the power their work causes — the
//! network request an `onClick` fires, the service an `onCreate`
//! starts — lands in the sample *after* them. Attributing the
//! following window keeps instances of the same event comparable
//! across contexts, which Step 3's percentile normalization depends
//! on.

use crate::event::EventInstance;
use crate::power::PowerTrace;

/// Default forward attribution horizon, matching the 500 ms sampling
/// period.
pub const DEFAULT_HORIZON_MS: u64 = 500;

/// How an event instance's power is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attribution {
    /// The last full sampling window *before* the event: the state the
    /// event is ending. Used for teardown callbacks (`onPause`,
    /// `onStop`, ...) — whether an `onPause` precedes an activity
    /// switch or a trip to the background, the power just before it is
    /// the same foreground state, so instances stay comparable.
    Before,
    /// The full sampling windows *after* the event: the work the event
    /// causes. Used for everything else (creation/start/resume
    /// callbacks, UI handlers, idle heartbeats).
    After,
}

/// The default attribution policy: teardown lifecycle callbacks read
/// backward, everything else reads forward.
///
/// # Examples
///
/// ```
/// # use energydx_trace::join::{default_attribution, Attribution};
/// assert_eq!(default_attribution("LA;->onPause"), Attribution::Before);
/// assert_eq!(default_attribution("LA;->onResume"), Attribution::After);
/// assert_eq!(default_attribution("Idle(No_Display)"), Attribution::After);
/// ```
pub fn default_attribution(event: &str) -> Attribution {
    const TEARDOWN: [&str; 4] = ["onPause", "onStop", "onDestroy", "onUnbind"];
    if TEARDOWN.iter().any(|t| event.ends_with(t)) {
        Attribution::Before
    } else {
        Attribution::After
    }
}

/// An event instance annotated with its estimated power.
#[derive(Debug, Clone, PartialEq)]
pub struct PoweredInstance {
    /// The underlying event instance.
    pub instance: EventInstance,
    /// Estimated app power during and right after the instance, in
    /// milliwatts.
    pub power_mw: f64,
}

/// Joins event instances with a power trace using the default horizon.
///
/// Instances whose attribution window contains no sample inherit the
/// sample nearest their midpoint; if the power trace is empty they get
/// 0 mW (and the analysis will treat the trace as flat).
///
/// # Examples
///
/// ```
/// use energydx_trace::event::EventInstance;
/// use energydx_trace::power::{PowerSample, PowerTrace};
/// use energydx_trace::join_power;
/// use energydx_trace::util::Component;
///
/// let mut trace = PowerTrace::new();
/// for (ts, mw) in [(0u64, 100.0), (500, 300.0), (1000, 300.0)] {
///     let mut s = PowerSample::new(ts);
///     s.set_component(Component::Cpu, mw);
///     trace.push(s);
/// }
/// let inst = vec![EventInstance::new("LA;->onResume", 0, 40)];
/// let joined = join_power(inst, &trace);
/// // The sample at t = 1000 covers [500, 1000) — the first full
/// // window after the callback, free of pre-event history.
/// assert_eq!(joined[0].power_mw, 300.0);
/// ```
pub fn join_power(
    instances: Vec<EventInstance>,
    power: &PowerTrace,
) -> Vec<PoweredInstance> {
    join_power_with_horizon(instances, power, DEFAULT_HORIZON_MS)
}

/// Joins with an explicit forward horizon in milliseconds.
///
/// Takes the instances by value: each one is *moved* into its
/// [`PoweredInstance`], so the join allocates nothing per instance (no
/// event-name clone).
pub fn join_power_with_horizon(
    instances: Vec<EventInstance>,
    power: &PowerTrace,
    horizon_ms: u64,
) -> Vec<PoweredInstance> {
    instances
        .into_iter()
        .map(|instance| {
            let power_mw = instance_power(&instance, power, horizon_ms);
            PoweredInstance { instance, power_mw }
        })
        .collect()
}

/// Estimates one instance's power against a power trace.
fn instance_power(
    instance: &EventInstance,
    power: &PowerTrace,
    horizon_ms: u64,
) -> f64 {
    match default_attribution(&instance.event) {
        // The last sample at or before the event entry covers
        // a full window of pure pre-event state.
        Attribution::Before => power
            .samples()
            .get(
                power
                    .samples()
                    .partition_point(|s| s.timestamp_ms <= instance.start_ms)
                    .wrapping_sub(1),
            )
            .map(|s| s.total_mw)
            .or_else(|| power.nearest(instance.start_ms).map(|s| s.total_mw)),
        // Samples are trailing-window aggregates: the sample
        // at timestamp `t` covers `[t - period, t)`. The first
        // sample after the event entry therefore still
        // contains up to one period of *pre-event* history;
        // skipping it and reading the following full windows —
        // through the event's end for long instances, two
        // windows for short ones (averaging two samples halves
        // the grid-alignment variance) — attributes exactly
        // the power the event's own work and after-effects
        // cause.
        Attribution::After => {
            let lo = instance.start_ms + horizon_ms;
            let hi = instance.end_ms.max(instance.start_ms + 3 * horizon_ms);
            power.mean_between(lo + 1, hi).or_else(|| {
                power.nearest(instance.midpoint_ms()).map(|s| s.total_mw)
            })
        }
    }
    .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerSample;
    use crate::util::Component;

    fn trace(points: &[(u64, f64)]) -> PowerTrace {
        points
            .iter()
            .map(|&(ts, mw)| {
                let mut s = PowerSample::new(ts);
                s.set_component(Component::Cpu, mw);
                s
            })
            .collect()
    }

    #[test]
    fn long_instance_reads_its_interior() {
        let p =
            trace(&[(0, 100.0), (500, 200.0), (1000, 600.0), (1500, 600.0)]);
        // A 1.5 s instance starting at 0: the first (boundary) sample
        // is skipped; interior samples at 1000 and 1500 count.
        let joined = join_power(vec![EventInstance::new("E", 0, 1500)], &p);
        assert_eq!(joined[0].power_mw, 600.0);
    }

    #[test]
    fn short_instance_reads_the_following_window() {
        let p =
            trace(&[(0, 100.0), (500, 200.0), (1000, 600.0), (1500, 600.0)]);
        // A 60 ms callback at t = 120: the full windows after it are
        // the samples at t = 1000 and t = 1500.
        let joined = join_power(vec![EventInstance::new("E", 120, 180)], &p);
        assert_eq!(joined[0].power_mw, 600.0);
        // A callback at t = 600 attributes the t = 1500 sample (the
        // t = 2000 window does not exist in this trace).
        let joined = join_power(vec![EventInstance::new("E", 600, 610)], &p);
        assert_eq!(joined[0].power_mw, 600.0);
    }

    #[test]
    fn boundary_event_reads_forward_not_backward() {
        // Background (10 mW) then the user resumes the app at t = 1000
        // (400 mW foreground). onStart at t = 1000 must read 400, not
        // the quiet sample behind it.
        let p =
            trace(&[(500, 10.0), (1000, 10.0), (1500, 400.0), (2000, 400.0)]);
        let joined = join_power(
            vec![EventInstance::new("LA;->onStart", 1000, 1002)],
            &p,
        );
        assert_eq!(joined[0].power_mw, 400.0);
    }

    #[test]
    fn instance_past_the_last_sample_falls_back_to_nearest() {
        let p = trace(&[(0, 100.0), (500, 200.0)]);
        let joined = join_power(vec![EventInstance::new("E", 900, 910)], &p);
        assert_eq!(joined[0].power_mw, 200.0);
    }

    #[test]
    fn empty_power_trace_yields_zero() {
        let joined = join_power(
            vec![EventInstance::new("E", 0, 10)],
            &PowerTrace::new(),
        );
        assert_eq!(joined[0].power_mw, 0.0);
    }

    #[test]
    fn join_preserves_order_and_length() {
        let p = trace(&[(0, 50.0)]);
        let inst =
            vec![EventInstance::new("B", 5, 6), EventInstance::new("A", 0, 1)];
        let joined = join_power(inst, &p);
        assert_eq!(joined.len(), 2);
        assert_eq!(joined[0].instance.event, "B");
        assert_eq!(joined[1].instance.event, "A");
    }

    #[test]
    fn teardown_events_read_the_window_before_them() {
        // Foreground at 400 mW, then the app backgrounds at t = 2000
        // (10 mW after). onPause must read the pre-event foreground
        // regardless of what follows.
        let p = trace(&[
            (500, 400.0),
            (1000, 400.0),
            (1500, 400.0),
            (2000, 400.0),
            (2500, 10.0),
            (3000, 10.0),
        ]);
        let joined = join_power(
            vec![EventInstance::new("LA;->onPause", 2000, 2002)],
            &p,
        );
        assert_eq!(joined[0].power_mw, 400.0);
        // An onPause mid-switch (foreground continues) reads the same.
        let p2 = trace(&[
            (500, 400.0),
            (1000, 400.0),
            (1500, 400.0),
            (2000, 400.0),
            (2500, 400.0),
        ]);
        let joined2 = join_power(
            vec![EventInstance::new("LA;->onPause", 2000, 2002)],
            &p2,
        );
        assert_eq!(joined2[0].power_mw, 400.0);
    }

    #[test]
    fn teardown_event_before_first_sample_falls_back_to_nearest() {
        let p = trace(&[(500, 50.0)]);
        let joined =
            join_power(vec![EventInstance::new("LA;->onStop", 100, 101)], &p);
        assert_eq!(joined[0].power_mw, 50.0);
    }

    #[test]
    fn custom_horizon_widens_the_window() {
        let p = trace(&[
            (0, 100.0),
            (500, 200.0),
            (1000, 600.0),
            (1500, 800.0),
            (2000, 1000.0),
        ]);
        let inst = [EventInstance::new("E", 0, 10)];
        let near = join_power_with_horizon(inst.to_vec(), &p, 500);
        let wide = join_power_with_horizon(inst.to_vec(), &p, 1000);
        assert_eq!(near[0].power_mw, 700.0); // samples at 1000 and 1500
        assert_eq!(wide[0].power_mw, 900.0); // samples at 1500 and 2000
    }
}
