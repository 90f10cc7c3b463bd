//! Seeded fault injection over wire payloads.
//!
//! Fleet uploads cross flaky radios, mid-transfer battery pulls, and
//! buggy vendor ROMs; the collection backend must assume some fraction
//! of payloads arrive damaged. [`FaultInjector`] reproduces the damage
//! modes we have to survive — deterministically, from a seed, so every
//! chaos run is replayable:
//!
//! - [`FaultKind::Drop`] — the payload never arrives.
//! - [`FaultKind::Truncate`] — the connection died mid-transfer; only
//!   a prefix arrives.
//! - [`FaultKind::BitFlip`] — a byte is corrupted in flight or at
//!   rest.
//! - [`FaultKind::Duplicate`] — a retrying client uploads the same
//!   session twice.
//! - [`FaultKind::Reorder`] — two adjacent event records swap, the
//!   signature of a racy logger flushing out of order.
//! - [`FaultKind::ClockSkew`] — the device clock stepped backwards
//!   mid-session (NTP correction), shifting a suffix of event
//!   timestamps.
//!
//! `Reorder` and `ClockSkew` are semantic faults: the payload is
//! decoded, mutated, and re-encoded in its original frame version, so
//! it still parses — the damage surfaces later, in validation, where
//! the repair pass (see [`crate::repair`]) must deal with it.

use crate::rng::SplitMix64;
use crate::wire;
use std::collections::BTreeMap;
use std::fmt;

/// One of the injectable damage modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Payload is lost entirely.
    Drop,
    /// Payload is cut to a random prefix.
    Truncate,
    /// One random byte past the version field is bit-flipped.
    BitFlip,
    /// Payload is delivered twice.
    Duplicate,
    /// Two adjacent event records are swapped.
    Reorder,
    /// A suffix of event timestamps is shifted backwards.
    ClockSkew,
}

impl FaultKind {
    /// All damage modes, in injection rotation order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Drop,
        FaultKind::Truncate,
        FaultKind::BitFlip,
        FaultKind::Duplicate,
        FaultKind::Reorder,
        FaultKind::ClockSkew,
    ];
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Drop => "drop",
            FaultKind::Truncate => "truncate",
            FaultKind::BitFlip => "bit-flip",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::ClockSkew => "clock-skew",
        })
    }
}

/// What [`FaultInjector::inject`] did to a payload set.
#[derive(Debug, Clone, Default)]
pub struct InjectionReport {
    /// The payloads as delivered (drops removed, duplicates doubled).
    pub payloads: Vec<Vec<u8>>,
    /// Payloads that passed through untouched.
    pub clean: usize,
    /// Count of injections per fault kind.
    pub injected: BTreeMap<FaultKind, usize>,
}

impl InjectionReport {
    /// Payloads removed entirely ([`FaultKind::Drop`]).
    pub fn dropped(&self) -> usize {
        self.injected.get(&FaultKind::Drop).copied().unwrap_or(0)
    }

    /// Extra copies delivered ([`FaultKind::Duplicate`]).
    pub fn duplicated(&self) -> usize {
        self.injected
            .get(&FaultKind::Duplicate)
            .copied()
            .unwrap_or(0)
    }

    /// Total faults injected across all kinds.
    pub fn total_injected(&self) -> usize {
        self.injected.values().sum()
    }
}

/// Deterministic, seeded corruption of wire payloads.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: SplitMix64,
    corrupt_fraction: f64,
    kinds: Vec<FaultKind>,
    /// Largest backwards step `ClockSkew` applies, in milliseconds.
    pub max_skew_ms: u64,
}

impl FaultInjector {
    /// Creates an injector that corrupts roughly `corrupt_fraction` of
    /// payloads (each independently), rotating through every
    /// [`FaultKind`].
    pub fn new(seed: u64, corrupt_fraction: f64) -> Self {
        FaultInjector::with_kinds(
            seed,
            corrupt_fraction,
            FaultKind::ALL.to_vec(),
        )
    }

    /// Creates an injector restricted to the given damage modes.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty or `corrupt_fraction` is not in
    /// `[0, 1]`.
    pub fn with_kinds(
        seed: u64,
        corrupt_fraction: f64,
        kinds: Vec<FaultKind>,
    ) -> Self {
        assert!(!kinds.is_empty(), "need at least one fault kind");
        assert!(
            (0.0..=1.0).contains(&corrupt_fraction),
            "corrupt_fraction must be within [0, 1]"
        );
        FaultInjector {
            rng: SplitMix64::new(seed),
            corrupt_fraction,
            kinds,
            max_skew_ms: 100,
        }
    }

    /// Runs the fleet's payloads through the injector. Each payload is
    /// independently corrupted with the configured probability; the
    /// fault kind cycles through the configured list so every mode
    /// gets exercised.
    pub fn inject(
        &mut self,
        payloads: impl IntoIterator<Item = Vec<u8>>,
    ) -> InjectionReport {
        let mut report = InjectionReport::default();
        let mut next_kind = 0usize;
        for payload in payloads {
            if self.rng.unit_f64() >= self.corrupt_fraction {
                report.payloads.push(payload);
                report.clean += 1;
                continue;
            }
            let kind = self.kinds[next_kind % self.kinds.len()];
            next_kind += 1;
            let delivered = self.corrupt(&payload, kind);
            *report.injected.entry(kind).or_insert(0) += 1;
            report.payloads.extend(delivered);
        }
        report
    }

    /// Applies one fault to one payload, returning what actually gets
    /// delivered (empty for a drop, two payloads for a duplicate).
    pub fn corrupt(&mut self, payload: &[u8], kind: FaultKind) -> Vec<Vec<u8>> {
        match kind {
            FaultKind::Drop => vec![],
            FaultKind::Truncate => {
                // Keep at least one byte and lose at least one, so the
                // fault is always material.
                let cut = 1 + self.rng.below(payload.len().max(2) - 1);
                vec![payload[..cut.min(payload.len())].to_vec()]
            }
            FaultKind::BitFlip => {
                let mut flipped = payload.to_vec();
                if flipped.len() > 5 {
                    // Spare magic+version: a flipped magic is just a
                    // drop with extra steps, and we model drops
                    // separately.
                    let idx = 5 + self.rng.below(flipped.len() - 5);
                    flipped[idx] ^= 1 << self.rng.below(8);
                }
                vec![flipped]
            }
            FaultKind::Duplicate => vec![payload.to_vec(), payload.to_vec()],
            FaultKind::Reorder => {
                self.mutate_events(payload, |rng, _max_skew, records| {
                    if records.len() < 2 {
                        return;
                    }
                    let i = rng.below(records.len() - 1);
                    records.swap(i, i + 1);
                })
            }
            FaultKind::ClockSkew => {
                self.mutate_events(payload, |rng, max_skew, records| {
                    if records.is_empty() {
                        return;
                    }
                    let start = rng.below(records.len());
                    let skew = 1 + rng.below(max_skew as usize) as u64;
                    for r in &mut records[start..] {
                        r.timestamp_ms = r.timestamp_ms.saturating_sub(skew);
                    }
                })
            }
        }
    }

    /// Decodes, mutates the event records, and re-encodes in the same
    /// frame version. If the payload does not parse (already damaged),
    /// falls back to a bit flip so the injection still happens.
    fn mutate_events(
        &mut self,
        payload: &[u8],
        mutate: impl FnOnce(
            &mut SplitMix64,
            u64,
            &mut Vec<crate::event::EventRecord>,
        ),
    ) -> Vec<Vec<u8>> {
        let Ok(mut bundle) = wire::decode(payload) else {
            return self.corrupt(payload, FaultKind::BitFlip);
        };
        let mut records = bundle.events.records().to_vec();
        mutate(&mut self.rng, self.max_skew_ms, &mut records);
        bundle.events = records.into_iter().collect();
        let v2 = payload.get(4) == Some(&wire::VERSION_V2);
        let encoded = if v2 {
            wire::try_encode_v2(&bundle)
        } else {
            wire::try_encode(&bundle)
        };
        match encoded {
            Ok(bytes) => vec![bytes],
            Err(_) => self.corrupt(payload, FaultKind::BitFlip),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Direction, EventRecord};
    use crate::store::TraceBundle;

    fn payload(n_events: u64) -> Vec<u8> {
        let mut b = TraceBundle::new("u1", 3, "nexus6");
        for i in 0..n_events {
            b.events.push(EventRecord::new(
                i * 10,
                Direction::Enter,
                format!("LA;->cb{i}"),
            ));
            b.events.push(EventRecord::new(
                i * 10 + 4,
                Direction::Exit,
                format!("LA;->cb{i}"),
            ));
        }
        wire::encode_v2(&b)
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let payloads: Vec<Vec<u8>> = (0..20).map(|_| payload(5)).collect();
        let a = FaultInjector::new(7, 0.5).inject(payloads.clone());
        let b = FaultInjector::new(7, 0.5).inject(payloads.clone());
        assert_eq!(a.payloads, b.payloads);
        assert_eq!(a.injected, b.injected);
        let c = FaultInjector::new(8, 0.5).inject(payloads);
        assert_ne!(a.payloads, c.payloads);
    }

    #[test]
    fn zero_fraction_passes_everything_through() {
        let payloads: Vec<Vec<u8>> = (0..10).map(|_| payload(3)).collect();
        let report = FaultInjector::new(1, 0.0).inject(payloads.clone());
        assert_eq!(report.payloads, payloads);
        assert_eq!(report.clean, 10);
        assert_eq!(report.total_injected(), 0);
    }

    #[test]
    fn full_fraction_rotates_through_all_kinds() {
        let payloads: Vec<Vec<u8>> = (0..12).map(|_| payload(4)).collect();
        let report = FaultInjector::new(2, 1.0).inject(payloads);
        assert_eq!(report.clean, 0);
        assert_eq!(report.total_injected(), 12);
        for kind in FaultKind::ALL {
            assert_eq!(report.injected.get(&kind), Some(&2), "{kind}");
        }
        // 12 in, minus 2 drops, plus 2 duplicate copies.
        assert_eq!(report.payloads.len(), 12);
    }

    #[test]
    fn truncate_always_loses_bytes() {
        let p = payload(6);
        let mut inj = FaultInjector::new(3, 1.0);
        for _ in 0..50 {
            let out = inj.corrupt(&p, FaultKind::Truncate);
            assert_eq!(out.len(), 1);
            assert!(out[0].len() < p.len());
            assert!(!out[0].is_empty());
        }
    }

    #[test]
    fn bitflip_changes_exactly_one_bit() {
        let p = payload(6);
        let mut inj = FaultInjector::new(4, 1.0);
        let out = inj.corrupt(&p, FaultKind::BitFlip);
        let diff: u32 = p
            .iter()
            .zip(&out[0])
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn reorder_still_parses_but_breaks_ordering() {
        let p = payload(8);
        let mut inj = FaultInjector::new(5, 1.0);
        let out = inj.corrupt(&p, FaultKind::Reorder);
        let bundle =
            wire::decode(&out[0]).expect("reordered payload must still parse");
        assert!(bundle.events.validate().is_err());
    }

    #[test]
    fn clock_skew_shifts_a_suffix_backwards() {
        let p = payload(8);
        let mut inj = FaultInjector::new(6, 1.0);
        let out = inj.corrupt(&p, FaultKind::ClockSkew);
        let skewed =
            wire::decode(&out[0]).expect("skewed payload must still parse");
        let original = wire::decode(&p).unwrap();
        assert_ne!(skewed.events, original.events);
        assert_eq!(skewed.events.len(), original.events.len());
    }

    #[test]
    fn semantic_faults_on_garbage_fall_back_to_bitflip() {
        let garbage = vec![0xAB; 64];
        let mut inj = FaultInjector::new(9, 1.0);
        let out = inj.corrupt(&garbage, FaultKind::Reorder);
        assert_eq!(out.len(), 1);
        assert_ne!(out[0], garbage);
    }
}
