//! The two workloads: which apps, how big, how damaged, and what
//! traffic. `README.md` in this directory records why each exists.

use crate::corpus::{AppPool, Corpus, Op, Rng, Stream};
use energydx_workload::{fleet, FleetApp};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    RolloutDashboard,
    SpillCluster,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "rollout-dashboard" => Some(Kind::RolloutDashboard),
            "spill-cluster" => Some(Kind::SpillCluster),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::RolloutDashboard => "rollout-dashboard",
            Kind::SpillCluster => "spill-cluster",
        }
    }
}

/// Release plan of an app's uploads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Releases {
    /// v1 (index 0) only.
    V1,
    /// v2 (index 1) only.
    V2,
    /// Each upload picks v1 or v2: a staged rollout mid-flight.
    Interleaved,
}

impl Releases {
    fn fixed(self) -> Option<u8> {
        match self {
            Releases::V1 => Some(0),
            Releases::V2 => Some(1),
            Releases::Interleaved => None,
        }
    }
}

/// Everything that defines a workload at a seed.
#[derive(Debug, Clone)]
pub struct Spec {
    pub kind: Kind,
    /// `(app, weight)`: uploads pick apps proportionally to weight.
    pub apps: Vec<(FleetApp, u32)>,
    /// Simulated sessions per (app, release).
    pub pool: usize,
    /// Interaction rounds, as a multiple of the scenario's default.
    pub rounds_factor: usize,
    /// Preloaded uploads per phase, in order: `(releases, count per
    /// unit of weight)`.
    pub preload: Vec<(Releases, u32)>,
    /// Release plan of the timed uploads, per app.
    pub timed: Vec<Releases>,
    /// Workers behind a coordinator (1: a single daemon).
    pub workers: usize,
    /// `--mem-budget` per worker, with a spill directory, if any.
    pub mem_budget: Option<usize>,
    /// The apps the rounds visit, round robin.
    pub query_apps: Vec<u16>,
    /// Uploads to the visited app before its fresh `Diagnose`.
    pub k: usize,
    /// Further uploads per round, each to a weighted random app.
    pub spread: usize,
    /// 0: the repeat `Diagnose` asks the visited app again; 1: the
    /// previously visited one.
    pub repeat_lag: usize,
    /// A `Report` every this many rounds.
    pub report_every: usize,
    /// Wall time of one round on a 2-vCPU VM, averaged over a run:
    /// a run measures `--seconds` ÷ this many rounds, so every run of
    /// a workload does the same work whatever the host's speed.
    pub round_ms: f64,
}

/// Users per unit of upload weight.
const USERS_PER_WEIGHT: u32 = 40;

/// The Table-III apps with the given ids, in id order. Workloads use
/// fixed app sets so their shape does not change with the seed; the
/// seed picks users, sessions, damage and arrival order.
fn apps(ids: &[u32]) -> Vec<FleetApp> {
    fleet()
        .into_iter()
        .filter(|a| ids.contains(&a.id))
        .collect()
}

impl Spec {
    pub fn new(kind: Kind) -> Spec {
        match kind {
            Kind::RolloutDashboard => {
                // K-9 Mail (Table-III app 3) is the hot app.
                let mut apps: Vec<(FleetApp, u32)> =
                    self::apps(&[3]).into_iter().map(|a| (a, 25)).collect();
                apps.extend(
                    self::apps(&[5, 12, 18, 21, 23, 28, 33, 38])
                        .into_iter()
                        .map(|a| (a, 2)),
                );
                let mut timed = vec![Releases::V1; apps.len()];
                timed[0] = Releases::Interleaved;
                Spec {
                    kind,
                    apps,
                    pool: 48,
                    rounds_factor: 1,
                    // The hot app mid-rollout (interleaved), the
                    // background apps on their one release.
                    preload: vec![(Releases::Interleaved, 12)],
                    timed,
                    workers: 1,
                    mem_budget: None,
                    // The hot app alone: its interleaved commit path
                    // is what this workload's uploads exercise.
                    query_apps: vec![0],
                    k: 3,
                    spread: 0,
                    repeat_lag: 0,
                    report_every: 4,
                    round_ms: 145.0,
                }
            }
            Kind::SpillCluster => {
                let apps: Vec<(FleetApp, u32)> =
                    self::apps(&[2, 6, 9, 11, 14, 17, 19, 22, 25, 30, 35, 40])
                        .into_iter()
                        .map(|a| (a, 1))
                        .collect();
                let n = apps.len();
                Spec {
                    kind,
                    apps,
                    pool: 40,
                    rounds_factor: 1,
                    preload: vec![(Releases::V1, 160), (Releases::V2, 80)],
                    timed: vec![Releases::V2; n],
                    workers: 3,
                    mem_budget: Some(256 * 1024),
                    query_apps: (0..n as u16).collect(),
                    k: 2,
                    spread: 16,
                    repeat_lag: 1,
                    report_every: 6,
                    round_ms: 250.0,
                }
            }
        }
    }

    /// Measured rounds of a run of `seconds`.
    pub fn rounds(&self, seconds: f64) -> usize {
        ((seconds * 1e3 / self.round_ms).round() as usize).max(1)
    }

    pub fn names(&self) -> Vec<String> {
        self.apps.iter().map(|(a, _)| a.package()).collect()
    }

    pub fn simulate(&self, seed: u64) -> Corpus {
        self.simulate_apps(seed, &self.apps)
    }

    /// App `i`'s sessions, simulated alone.
    pub fn simulate_app(&self, seed: u64, i: usize) -> AppPool {
        let mut corpus = self.simulate_apps(seed, &self.apps[i..=i]);
        corpus.apps.pop().expect("one app simulated")
    }

    fn simulate_apps(&self, seed: u64, apps: &[(FleetApp, u32)]) -> Corpus {
        let apps: Vec<(FleetApp, u32)> = apps
            .iter()
            .map(|(a, w)| (a.clone(), w * USERS_PER_WEIGHT))
            .collect();
        crate::corpus::simulate(&apps, self.pool, self.rounds_factor, seed)
    }

    /// The uploads the prepared state holds, in accept order: each
    /// preload phase walks the apps in a seeded shuffle, `count ×
    /// weight` uploads per app. Interleaved phases alternate releases
    /// only on interleaved apps (the rest stay on v1).
    pub fn preload_ops(&self, seed: u64) -> Vec<Op> {
        let mut rng = Rng::new(seed ^ 0x9e10);
        // Identities continue across phases through one stream.
        let mut stream = Stream::new(seed, 0, Vec::new(), self.releases());
        let mut ops = Vec::new();
        for &(releases, count) in &self.preload {
            let mut slots: Vec<u16> = self
                .apps
                .iter()
                .enumerate()
                .flat_map(|(a, (_, w))| {
                    std::iter::repeat_n(a as u16, (count * w) as usize)
                })
                .collect();
            // A seeded shuffle within the phase: phases stay blocks.
            for i in (1..slots.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                slots.swap(i, j);
            }
            for a in slots {
                let release = match releases {
                    Releases::Interleaved
                        if self.timed[a as usize] == Releases::Interleaved =>
                    {
                        None
                    }
                    Releases::Interleaved => Some(0),
                    other => other.fixed(),
                };
                ops.push(stream.issue(a, release));
            }
        }
        ops
    }

    /// The generator of the timed rounds' uploads: the visited app's,
    /// and the spread ones over every app by weight.
    pub fn round_stream(&self, seed: u64) -> Stream {
        let apps: Vec<(u16, u32)> = self
            .apps
            .iter()
            .enumerate()
            .map(|(a, (_, w))| (a as u16, *w))
            .collect();
        Stream::new(seed, 1, apps, self.releases())
    }

    /// Each app's timed-upload release, `None` = drawn per upload.
    fn releases(&self) -> Vec<Option<u8>> {
        self.timed.iter().map(|r| r.fixed()).collect()
    }
}
