//! Seeded corpus generator: Table-III scenario → droidsim session →
//! `UtilizationSampler` → wire-v3 payload, following the recipe of
//! the workspace's end-to-end test.
//!
//! Simulating a session costs milliseconds, so each (app, release)
//! gets a small pool of simulated sessions and every upload is one of
//! them, restamped with its own user and session and with its CPU
//! utilization scaled by a per-upload factor, so no two accepted
//! traces carry the same power samples. Every byte is a pure function
//! of the seed and the upload's [`Op`], so the client, the reference
//! model and the replay regenerate identical payloads on demand.

use energydx_droidsim::Device;
use energydx_powermodel::{DeviceProfile, UtilizationSampler};
use energydx_trace::store::TraceBundle;
use energydx_trace::util::{Component, UtilizationSample, UtilizationTrace};
use energydx_trace::{wire, FaultInjector, FaultKind};
use energydx_workload::{FleetApp, Scenario, SessionRunner};

/// The two releases every app can carry: v1 is the repaired build,
/// v2 the fault-injected one.
pub const RELEASES: [&str; 2] = ["1.0", "2.0"];

/// SplitMix64 finalizer: the one hash every seeded choice goes through.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stream of uniform draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// How one upload is damaged on its way to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// Delivered intact.
    None,
    /// Truncated or bit-flipped past the header: the salvage decoder
    /// gets a chance at it.
    Salvage,
    /// Cut below the wire header: always undecodable.
    Cut,
    /// A retrying phone resends an earlier intact upload byte for
    /// byte: a duplicate.
    Resend,
}

/// One upload, as a descriptor the payload bytes are derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into the workload's app list.
    pub app: u16,
    /// Index into [`RELEASES`].
    pub release: u8,
    /// Which generator stream issued it (keeps session ids disjoint).
    pub stream: u8,
    /// The stream's per-app upload counter (for a resend: the
    /// original's).
    pub n: u32,
    pub damage: Damage,
}

/// One app's simulated sessions, per release.
#[derive(Debug)]
pub struct AppPool {
    /// Distinct phone users uploading to this app.
    pub users: u32,
    pub sessions: [Vec<TraceBundle>; 2],
}

/// Everything needed to regenerate any upload of a workload.
#[derive(Debug)]
pub struct Corpus {
    pub seed: u64,
    pub apps: Vec<AppPool>,
}

/// Simulates `per_release` sessions for each app and release, with
/// `rounds_factor` times the scenario's interaction rounds, on two
/// threads.
pub fn simulate(
    apps: &[(FleetApp, u32)],
    per_release: usize,
    rounds_factor: usize,
    seed: u64,
) -> Corpus {
    let profiles = DeviceProfile::builtin();
    let one = |app: &FleetApp, users: u32| -> AppPool {
        let mut scenario = app.scenario();
        scenario.script_gen.rounds *= rounds_factor;
        let builds = [
            (
                Scenario::instrument(&scenario.fixed_module()),
                scenario.fault.fixed_hooks(),
            ),
            (
                Scenario::instrument(&scenario.faulty_module()),
                scenario.fault.faulty_hooks(),
            ),
        ];
        let impacted = ((scenario.impacted_fraction * per_release as f64)
            .round() as usize)
            .max(1);
        let sessions = [0usize, 1].map(|release| {
            let (module, hooks) = &builds[release];
            (0..per_release)
                .map(|s| {
                    // Only the faulty build's impacted users walk the
                    // fault path; the repaired build runs the same
                    // scripts harmlessly.
                    let trigger: &[_] =
                        if s < impacted { &scenario.trigger } else { &[] };
                    let script = scenario.script_gen.generate(
                        mix(seed ^ (u64::from(app.id) << 32) ^ s as u64),
                        trigger,
                    );
                    let session = SessionRunner::new(
                        Device::new(module.clone()),
                        hooks.clone(),
                    )
                    .run(&script)
                    .expect("Table-III scenarios drive their devices legally");
                    let profile = &profiles[s % profiles.len()];
                    let mut bundle = TraceBundle::new("", 0, &profile.name);
                    bundle.events = session.events;
                    bundle.utilization = UtilizationSampler::default()
                        .sample(&session.timeline, session.duration_ms);
                    bundle
                })
                .collect()
        });
        AppPool { users, sessions }
    };
    let half = apps.len().div_ceil(2);
    let (left, right) = apps.split_at(half);
    let pools = std::thread::scope(|s| {
        let worker = s.spawn(|| {
            right.iter().map(|(a, u)| one(a, *u)).collect::<Vec<_>>()
        });
        let mut pools: Vec<AppPool> =
            left.iter().map(|(a, u)| one(a, *u)).collect();
        pools.extend(worker.join().expect("simulation thread panicked"));
        pools
    });
    Corpus { seed, apps: pools }
}

impl Corpus {
    /// The phone-side user and session an upload claims.
    pub fn identity(&self, op: &Op) -> (String, u64) {
        let users = self.apps[op.app as usize].users.max(1);
        let user = format!("u{:05}", op.n % users);
        let session = (u64::from(op.stream) << 32) | u64::from(op.n / users);
        (user, session)
    }

    /// The intact bundle an upload carries.
    pub fn bundle(&self, op: &Op) -> TraceBundle {
        let key = mix(self.seed
            ^ (u64::from(op.app) << 48)
            ^ (u64::from(op.release) << 40)
            ^ (u64::from(op.stream) << 32)
            ^ u64::from(op.n));
        let pool = &self.apps[op.app as usize].sessions[op.release as usize];
        let base = &pool[(key % pool.len() as u64) as usize];
        let (user, session) = self.identity(op);
        let mut bundle = TraceBundle::new(user, session, &base.device)
            .with_app_version(RELEASES[op.release as usize]);
        bundle.events = base.events.clone();
        // ±15% CPU load: distinct power samples per upload.
        let scale = 0.85 + 0.3 * ((key >> 11) as f64 / (1u64 << 53) as f64);
        let mut util =
            UtilizationTrace::with_period(base.utilization.period_ms);
        for sample in base.utilization.samples() {
            let mut s: UtilizationSample = *sample;
            s.set(
                Component::Cpu,
                (sample.get(Component::Cpu) * scale).min(1.0),
            );
            util.push(s);
        }
        bundle.utilization = util;
        bundle
    }

    /// The wire bytes an upload delivers, damage included.
    pub fn payload(&self, op: &Op) -> Vec<u8> {
        let bytes = wire::encode_v3(&self.bundle(op)).to_vec();
        match op.damage {
            Damage::None | Damage::Resend => bytes,
            Damage::Cut => bytes[..6].to_vec(),
            Damage::Salvage => {
                let kind = if op.n.is_multiple_of(2) {
                    FaultKind::Truncate
                } else {
                    FaultKind::BitFlip
                };
                let seed = mix(self.seed ^ 0x5a17 ^ u64::from(op.n));
                FaultInjector::with_kinds(seed, 1.0, vec![kind])
                    .corrupt(&bytes, kind)
                    .pop()
                    .expect("truncate and bit-flip deliver one payload")
            }
        }
    }
}

/// Issues the uploads of one generator stream: a seeded, weighted
/// choice of app per upload, a per-app counter for identities, and
/// the damage schedule (1 in 9 salvageable, 1 in 23 cut below the
/// header, 1 in 50 a resend of the app's last intact upload).
#[derive(Debug, Clone)]
pub struct Stream {
    stream: u8,
    rng: Rng,
    /// `(app, weight)` choices.
    apps: Vec<(u16, u32)>,
    total_weight: u64,
    next: Vec<u32>,
    last_clean: Vec<Option<(u8, u32)>>,
    issued: u64,
    /// Per app: its uploads' release, `None` = each upload picks v1
    /// or v2 with equal odds.
    releases: Vec<Option<u8>>,
}

impl Stream {
    pub fn new(
        seed: u64,
        stream: u8,
        apps: Vec<(u16, u32)>,
        releases: Vec<Option<u8>>,
    ) -> Self {
        let total_weight = apps.iter().map(|&(_, w)| u64::from(w)).sum();
        let app_count = releases.len();
        Stream {
            stream,
            rng: Rng::new(seed ^ (u64::from(stream) << 56) ^ 0x57ae),
            apps,
            total_weight,
            next: vec![0; app_count],
            last_clean: vec![None; app_count],
            issued: 0,
            releases,
        }
    }

    /// The next upload to `app`, or else to a weighted random app other
    /// than `avoid` (an app whose next query must find nothing new).
    pub fn next_op(&mut self, app: Option<u16>, avoid: Option<u16>) -> Op {
        let app = app.unwrap_or_else(|| loop {
            let mut pick = self.rng.below(self.total_weight);
            let mut chosen = self.apps[0].0;
            for &(a, w) in &self.apps {
                if pick < u64::from(w) {
                    chosen = a;
                    break;
                }
                pick -= u64::from(w);
            }
            if Some(chosen) != avoid {
                break chosen;
            }
        });
        self.issue(app, self.releases[app as usize])
    }

    /// The next upload to `app` under `release` (`None`: drawn).
    pub fn issue(&mut self, app: u16, release: Option<u8>) -> Op {
        let release = release.unwrap_or_else(|| (self.rng.next() & 1) as u8);
        let i = self.issued;
        self.issued += 1;
        let a = app as usize;
        if i % 50 == 13 {
            if let Some((release, n)) = self.last_clean[a] {
                return Op {
                    app,
                    release,
                    stream: self.stream,
                    n,
                    damage: Damage::Resend,
                };
            }
        }
        let n = self.next[a];
        self.next[a] += 1;
        let damage = if i % 23 == 7 {
            Damage::Cut
        } else if i % 9 == 4 {
            Damage::Salvage
        } else {
            Damage::None
        };
        if damage == Damage::None {
            self.last_clean[a] = Some((release, n));
        }
        Op {
            app,
            release,
            stream: self.stream,
            n,
            damage,
        }
    }
}
