//! User scripts: the action sequences volunteers perform.
//!
//! A [`UserScript`] is a deterministic list of [`Action`]s; the
//! stochastic generator produces varied scripts per user (seeded), with
//! *impacted* users additionally walking the fault's trigger path —
//! reproducing the paper's "traces are collected from different users
//! under different contexts" property that Step 5's percentage sorting
//! relies on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One user action driving the device.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Launch (or switch to) an activity by class descriptor.
    Launch(String),
    /// Tap a widget: dispatches the UI callback on the class.
    Tap(String, String),
    /// Press the back button.
    Back,
    /// Press the home button (background the app).
    Home,
    /// Return to the app from the launcher.
    ResumeApp,
    /// Let time pass (milliseconds).
    Idle(u64),
    /// Start a service.
    StartService(String),
    /// Stop a service.
    StopService(String),
}

/// A named sequence of actions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UserScript {
    /// The actions in order.
    pub actions: Vec<Action>,
}

impl UserScript {
    /// Creates an empty script.
    pub fn new() -> Self {
        UserScript::default()
    }

    /// Appends an action (builder style).
    pub fn then(mut self, action: Action) -> Self {
        self.actions.push(action);
        self
    }

    /// Total scripted idle time in milliseconds.
    pub fn idle_ms(&self) -> u64 {
        self.actions
            .iter()
            .map(|a| match a {
                Action::Idle(ms) => *ms,
                _ => 0,
            })
            .sum()
    }
}

impl FromIterator<Action> for UserScript {
    fn from_iter<T: IntoIterator<Item = Action>>(iter: T) -> Self {
        UserScript {
            actions: iter.into_iter().collect(),
        }
    }
}

/// Parameters for stochastic script generation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptGen {
    /// Activity class descriptors the user can visit (first = main).
    pub activities: Vec<String>,
    /// `(class, callback)` pairs the user can tap.
    pub taps: Vec<(String, String)>,
    /// Number of random interaction rounds before the session ends.
    pub rounds: usize,
    /// Idle between interactions, milliseconds (min, max).
    pub idle_range: (u64, u64),
    /// Trailing background idle at session end, milliseconds — the
    /// window where background ABDs burn power.
    pub tail_idle_ms: u64,
}

impl ScriptGen {
    /// Generates one script. `trigger` actions, when given, are spliced
    /// in at a random round (impacted users walk the fault path).
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_workload::users::ScriptGen;
    /// let gen = ScriptGen {
    ///     activities: vec!["LA;".into()],
    ///     taps: vec![("LA;".into(), "onClick".into())],
    ///     rounds: 5,
    ///     idle_range: (1_000, 3_000),
    ///     tail_idle_ms: 10_000,
    /// };
    /// let script = gen.generate(7, &[]);
    /// assert!(!script.actions.is_empty());
    /// assert_eq!(script, gen.generate(7, &[])); // deterministic
    /// ```
    pub fn generate(&self, seed: u64, trigger: &[Action]) -> UserScript {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut actions = vec![Action::Launch(self.activities[0].clone())];
        let trigger_round = if trigger.is_empty() {
            usize::MAX
        } else {
            rng.gen_range(self.rounds / 2..self.rounds.max(1))
        };
        for round in 0..self.rounds {
            actions.push(Action::Idle(
                rng.gen_range(self.idle_range.0..=self.idle_range.1),
            ));
            if round == trigger_round {
                actions.extend(trigger.iter().cloned());
                continue;
            }
            match rng.gen_range(0..4) {
                0 if self.activities.len() > 1 => {
                    let idx = rng.gen_range(0..self.activities.len());
                    actions.push(Action::Launch(self.activities[idx].clone()));
                }
                1 if !self.taps.is_empty() => {
                    let (class, cb) =
                        self.taps[rng.gen_range(0..self.taps.len())].clone();
                    actions.push(Action::Tap(class, cb));
                }
                2 => {
                    actions.push(Action::Home);
                    // Long enough that the idle's interior covers whole
                    // sampling windows (cf. trace::join).
                    actions.push(Action::Idle(rng.gen_range(3_000..6_000)));
                    actions.push(Action::ResumeApp);
                }
                _ => {
                    let idx = rng.gen_range(0..self.activities.len());
                    actions.push(Action::Launch(self.activities[idx].clone()));
                }
            }
        }
        actions.push(Action::Home);
        actions.push(Action::Idle(self.tail_idle_ms));
        UserScript { actions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen() -> ScriptGen {
        ScriptGen {
            activities: vec!["LA;".into(), "LB;".into()],
            taps: vec![("LA;".into(), "onClick".into())],
            rounds: 8,
            idle_range: (1_000, 2_000),
            tail_idle_ms: 15_000,
        }
    }

    #[test]
    fn scripts_start_with_launch_and_end_backgrounded() {
        let script = gen().generate(3, &[]);
        assert!(matches!(script.actions[0], Action::Launch(_)));
        let n = script.actions.len();
        assert!(matches!(script.actions[n - 2], Action::Home));
        assert!(matches!(script.actions[n - 1], Action::Idle(15_000)));
    }

    #[test]
    fn trigger_actions_are_spliced_in_for_impacted_users() {
        let trigger = vec![Action::Launch("LSettings;".into())];
        let script = gen().generate(5, &trigger);
        assert!(script
            .actions
            .iter()
            .any(|a| matches!(a, Action::Launch(c) if c == "LSettings;")));
        let clean = gen().generate(5, &[]);
        assert!(!clean
            .actions
            .iter()
            .any(|a| matches!(a, Action::Launch(c) if c == "LSettings;")));
    }

    #[test]
    fn different_seeds_produce_different_scripts() {
        assert_ne!(gen().generate(1, &[]), gen().generate(2, &[]));
    }

    #[test]
    fn idle_ms_sums_idles() {
        let s = UserScript::new()
            .then(Action::Idle(100))
            .then(Action::Home)
            .then(Action::Idle(200));
        assert_eq!(s.idle_ms(), 300);
    }

    #[test]
    fn collect_builds_script() {
        let s: UserScript =
            vec![Action::Back, Action::Home].into_iter().collect();
        assert_eq!(s.actions.len(), 2);
    }
}
