//! The activity lifecycle state machine.
//!
//! Android activities move through a fixed lifecycle; the paper's event
//! pool is largely these callbacks (Table I), and its Fig.-1 analysis
//! notes that "five events will typically be generated when a user
//! simply switches from one activity to another" — exactly the sequence
//! [`Device::launch_activity`](crate::Device::launch_activity)
//! dispatches: `old.onPause`, `new.onCreate`, `new.onStart`,
//! `new.onResume`, `old.onStop`.

use std::fmt;

/// The lifecycle callbacks the state machine understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifecycleEvent {
    /// `onCreate` — first creation.
    Create,
    /// `onStart` — becoming visible (also the restart path).
    Start,
    /// `onResume` — entering the foreground.
    Resume,
    /// `onPause` — leaving the foreground.
    Pause,
    /// `onStop` — no longer visible.
    Stop,
    /// `onDestroy` — final teardown.
    Destroy,
}

impl LifecycleEvent {
    /// All events in lifecycle order.
    pub const ALL: [LifecycleEvent; 6] = [
        LifecycleEvent::Create,
        LifecycleEvent::Start,
        LifecycleEvent::Resume,
        LifecycleEvent::Pause,
        LifecycleEvent::Stop,
        LifecycleEvent::Destroy,
    ];

    /// The Android callback name (`onCreate`, ...).
    pub fn callback_name(&self) -> &'static str {
        match self {
            LifecycleEvent::Create => "onCreate",
            LifecycleEvent::Start => "onStart",
            LifecycleEvent::Resume => "onResume",
            LifecycleEvent::Pause => "onPause",
            LifecycleEvent::Stop => "onStop",
            LifecycleEvent::Destroy => "onDestroy",
        }
    }
}

impl fmt::Display for LifecycleEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.callback_name())
    }
}

/// The state of one activity instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LifecycleState {
    /// Not yet created (or never launched).
    #[default]
    NotCreated,
    /// `onCreate` has run.
    Created,
    /// Visible (`onStart` has run).
    Started,
    /// Foreground (`onResume` has run).
    Resumed,
    /// Backgrounded but visible state left (`onPause` has run).
    Paused,
    /// Invisible (`onStop` has run).
    Stopped,
    /// Torn down (`onDestroy` has run).
    Destroyed,
}

impl fmt::Display for LifecycleState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LifecycleState::NotCreated => "not-created",
            LifecycleState::Created => "created",
            LifecycleState::Started => "started",
            LifecycleState::Resumed => "resumed",
            LifecycleState::Paused => "paused",
            LifecycleState::Stopped => "stopped",
            LifecycleState::Destroyed => "destroyed",
        };
        f.write_str(s)
    }
}

impl LifecycleState {
    /// The state after `event` fires, or `None` when the transition is
    /// illegal in this state.
    ///
    /// The automaton follows the Android documentation:
    /// `NotCreated →(create) Created →(start) Started →(resume) Resumed
    /// →(pause) Paused →{(resume) Resumed | (stop) Stopped}` and
    /// `Stopped →{(start) Started | (destroy) Destroyed}` (the
    /// restart path re-enters through `onStart`).
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_droidsim::{LifecycleEvent, LifecycleState};
    /// let s = LifecycleState::NotCreated;
    /// let s = s.apply(LifecycleEvent::Create).unwrap();
    /// assert_eq!(s, LifecycleState::Created);
    /// assert_eq!(s.apply(LifecycleEvent::Resume), None); // must start first
    /// ```
    pub fn apply(self, event: LifecycleEvent) -> Option<LifecycleState> {
        use LifecycleEvent as E;
        use LifecycleState as S;
        match (self, event) {
            (S::NotCreated, E::Create) => Some(S::Created),
            (S::Created, E::Start) => Some(S::Started),
            (S::Started, E::Resume) => Some(S::Resumed),
            (S::Resumed, E::Pause) => Some(S::Paused),
            (S::Paused, E::Resume) => Some(S::Resumed),
            (S::Paused, E::Stop) => Some(S::Stopped),
            (S::Stopped, E::Start) => Some(S::Started),
            (S::Stopped, E::Destroy) => Some(S::Destroyed),
            _ => None,
        }
    }

    /// Whether the activity currently owns the screen.
    pub fn is_foreground(&self) -> bool {
        matches!(self, LifecycleState::Resumed)
    }

    /// Whether the activity still exists (created and not destroyed).
    pub fn is_alive(&self) -> bool {
        !matches!(self, LifecycleState::NotCreated | LifecycleState::Destroyed)
    }
}

/// A lifecycle tracker that counts callbacks, used to assert the
/// balanced-callback invariant in tests: an activity that reaches
/// `Destroyed` has `#create == #destroy`, `#start == #stop`, and
/// `#resume == #pause`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LifecycleAudit {
    counts: [u32; 6],
}

impl LifecycleAudit {
    /// Creates an empty audit.
    pub fn new() -> Self {
        LifecycleAudit::default()
    }

    /// Records one event.
    pub fn record(&mut self, event: LifecycleEvent) {
        self.counts[event as usize] += 1;
    }

    /// Count of one event kind.
    pub fn count(&self, event: LifecycleEvent) -> u32 {
        self.counts[event as usize]
    }

    /// Whether the callback pairs balance (valid once destroyed).
    pub fn is_balanced(&self) -> bool {
        self.count(LifecycleEvent::Create)
            == self.count(LifecycleEvent::Destroy)
            && self.count(LifecycleEvent::Start)
                == self.count(LifecycleEvent::Stop)
            && self.count(LifecycleEvent::Resume)
                == self.count(LifecycleEvent::Pause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LifecycleEvent as E;
    use LifecycleState as S;

    #[test]
    fn happy_path_to_destroyed() {
        let path = [
            E::Create,
            E::Start,
            E::Resume,
            E::Pause,
            E::Stop,
            E::Destroy,
        ];
        let mut s = S::NotCreated;
        let mut audit = LifecycleAudit::new();
        for e in path {
            s = s.apply(e).unwrap_or_else(|| panic!("{e} illegal in {s}"));
            audit.record(e);
        }
        assert_eq!(s, S::Destroyed);
        assert!(audit.is_balanced());
    }

    #[test]
    fn resume_before_create_is_illegal() {
        assert_eq!(S::NotCreated.apply(E::Resume), None);
        assert_eq!(S::Created.apply(E::Resume), None);
    }

    #[test]
    fn pause_resume_cycle_is_legal() {
        let mut s = S::Resumed;
        for _ in 0..5 {
            s = s.apply(E::Pause).unwrap();
            s = s.apply(E::Resume).unwrap();
        }
        assert_eq!(s, S::Resumed);
    }

    #[test]
    fn restart_path_reenters_through_start() {
        let s = S::Stopped.apply(E::Start).unwrap();
        assert_eq!(s, S::Started);
        assert_eq!(s.apply(E::Resume), Some(S::Resumed));
    }

    #[test]
    fn destroyed_is_terminal() {
        for e in E::ALL {
            assert_eq!(S::Destroyed.apply(e), None);
        }
    }

    #[test]
    fn destroy_requires_stop_first() {
        assert_eq!(S::Paused.apply(E::Destroy), None);
        assert_eq!(S::Resumed.apply(E::Destroy), None);
        assert!(S::Stopped.apply(E::Destroy).is_some());
    }

    #[test]
    fn only_resumed_is_foreground() {
        for s in [
            S::NotCreated,
            S::Created,
            S::Started,
            S::Paused,
            S::Stopped,
            S::Destroyed,
        ] {
            assert!(!s.is_foreground());
        }
        assert!(S::Resumed.is_foreground());
    }

    #[test]
    fn alive_states() {
        assert!(!S::NotCreated.is_alive());
        assert!(!S::Destroyed.is_alive());
        assert!(S::Paused.is_alive());
    }

    #[test]
    fn unbalanced_audit_detected() {
        let mut a = LifecycleAudit::new();
        a.record(E::Create);
        a.record(E::Start);
        assert!(!a.is_balanced());
    }

    #[test]
    fn callback_names_match_android() {
        assert_eq!(E::Create.callback_name(), "onCreate");
        assert_eq!(E::Destroy.callback_name(), "onDestroy");
    }
}
