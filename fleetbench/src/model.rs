//! What the servers *should* answer, tracked outside them: every
//! upload's acceptance class, each app's accepted traces in accept
//! order per worker, and the batch references the served query bytes
//! must equal.

use crate::corpus::{Corpus, Damage, Op, RELEASES};
use energydx::{DiagnosisReport, EnergyDx};
use energydx_fleetd::cluster::shard_for_user;
use energydx_fleetd::convert::{bundle_to_trace, bundles_to_input};
use energydx_regress::{compare, regression_json, RegressConfig};
use energydx_report::{
    build_model, render_html, render_json, BatchAssembler, DeploymentPanel,
    DEFAULT_TOP_APPS,
};
use energydx_trace::anonymize::scrub;
use energydx_trace::store::{
    prepare_wire, IngestOutcome, PreparedUpload, RejectReason, TraceBundle,
};
use energydx_trace::RepairPolicy;
use std::collections::{BTreeMap, HashSet};

/// One app as the servers should hold it.
#[derive(Debug, Default)]
pub struct AppModel {
    seen: HashSet<(String, u64)>,
    /// Accepted uploads per worker, in accept order, with whether
    /// each was recovered.
    pub accepted: Vec<Vec<(Op, bool)>>,
    /// Quarantine reasons in arrival order.
    pub quarantined: Vec<RejectReason>,
}

#[derive(Debug)]
pub struct Model {
    pub names: Vec<String>,
    pub shards: usize,
    pub apps: Vec<AppModel>,
}

impl Model {
    pub fn new(names: Vec<String>, shards: usize) -> Self {
        let apps = names
            .iter()
            .map(|_| AppModel {
                accepted: vec![Vec::new(); shards],
                ..AppModel::default()
            })
            .collect();
        Model {
            names,
            shards,
            apps,
        }
    }

    /// Applies one delivered upload and returns the outcome the
    /// server must report for it. Intact uploads and resends need no
    /// decode: their key is known by construction. Damaged ones go
    /// through the daemon's own prepare pipeline.
    pub fn apply(
        &mut self,
        corpus: &Corpus,
        op: &Op,
        payload: Option<&[u8]>,
    ) -> IngestOutcome {
        let (key, recovered) = match op.damage {
            Damage::None | Damage::Resend => {
                let (user, session) = corpus.identity(op);
                ((scrub(&user), session), false)
            }
            Damage::Cut | Damage::Salvage => {
                let owned;
                let bytes = match payload {
                    Some(p) => p,
                    None => {
                        owned = corpus.payload(op);
                        &owned
                    }
                };
                match prepare_wire(bytes, &RepairPolicy::default()) {
                    PreparedUpload::Ready {
                        bundle,
                        repairs,
                        salvage,
                    } => (
                        (bundle.user, bundle.session),
                        !repairs.is_empty() || salvage.is_some(),
                    ),
                    PreparedUpload::Rejected(entry) => {
                        self.apps[op.app as usize]
                            .quarantined
                            .push(entry.reason);
                        return IngestOutcome::Rejected(entry.reason);
                    }
                }
            }
        };
        let shard =
            shard_for_user(&self.names[op.app as usize], &key.0, self.shards);
        let app = &mut self.apps[op.app as usize];
        if !app.seen.insert(key) {
            app.quarantined.push(RejectReason::Duplicate);
            return IngestOutcome::Rejected(RejectReason::Duplicate);
        }
        app.accepted[shard].push((*op, recovered));
        if recovered {
            IngestOutcome::Recovered {
                repairs: Vec::new(),
                salvage: None,
            }
        } else {
            IngestOutcome::Clean
        }
    }

    pub fn accepted_total(&self) -> usize {
        self.apps
            .iter()
            .flat_map(|a| a.accepted.iter())
            .map(Vec::len)
            .sum()
    }

    /// Quarantines by reason, over every app.
    pub fn quarantine_counts(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for app in &self.apps {
            for reason in &app.quarantined {
                *counts.entry(reason.to_string()).or_insert(0) += 1;
            }
        }
        counts
    }

    /// The accepted bundles of one app exactly as the servers hold
    /// them (anonymized, repaired), worker by worker in accept order.
    pub fn bundles(
        &self,
        corpus: &Corpus,
        app: usize,
    ) -> Vec<(TraceBundle, bool)> {
        self.apps[app]
            .accepted
            .iter()
            .flatten()
            .map(|(op, recovered)| {
                match prepare_wire(
                    &corpus.payload(op),
                    &RepairPolicy::default(),
                ) {
                    PreparedUpload::Ready { bundle, .. } => {
                        (bundle, *recovered)
                    }
                    PreparedUpload::Rejected(_) => {
                        unreachable!("an accepted upload prepares again")
                    }
                }
            })
            .collect()
    }
}

/// The batch answers one app's queries must equal.
#[derive(Debug)]
pub struct AppReference {
    pub diagnose: String,
    pub regressions: String,
}

fn diagnose(bundles: &[&TraceBundle]) -> DiagnosisReport {
    let owned: Vec<TraceBundle> =
        bundles.iter().map(|b| (*b).clone()).collect();
    EnergyDx::default().diagnose_reference(&bundles_to_input(&owned))
}

pub fn app_reference(bundles: &[(TraceBundle, bool)]) -> AppReference {
    let all: Vec<&TraceBundle> = bundles.iter().map(|(b, _)| b).collect();
    let per_release: Vec<DiagnosisReport> = RELEASES
        .iter()
        .map(|r| {
            let side: Vec<&TraceBundle> = all
                .iter()
                .copied()
                .filter(|b| b.app_version == *r)
                .collect();
            diagnose(&side)
        })
        .collect();
    AppReference {
        diagnose: diagnose(&all).to_canonical_json(),
        regressions: regression_json(&compare(
            RELEASES[0],
            &per_release[0],
            RELEASES[1],
            &per_release[1],
            &RegressConfig::default(),
        )),
    }
}

/// The operator report (HTML, `report.json`) the batch surface
/// renders over every app, with the pinned deployment panel a
/// deterministic-time server also renders.
pub fn report_reference(model: &Model, corpus: &Corpus) -> (String, String) {
    let mut order: Vec<usize> = (0..model.names.len()).collect();
    order.sort_by(|&a, &b| model.names[a].cmp(&model.names[b]));
    let inputs: Vec<_> = order
        .into_iter()
        .filter(|&a| {
            let app = &model.apps[a];
            !app.quarantined.is_empty()
                || app.accepted.iter().any(|w| !w.is_empty())
        })
        .map(|a| {
            let mut assembler = BatchAssembler::new(EnergyDx::default());
            for (bundle, recovered) in model.bundles(corpus, a) {
                assembler.accept(
                    &bundle.app_version.clone(),
                    bundle_to_trace(&bundle),
                    recovered,
                );
            }
            for reason in &model.apps[a].quarantined {
                assembler.reject(&reason.to_string());
            }
            assembler
                .finish(&model.names[a])
                .expect("batch folds finish")
        })
        .collect();
    let report = build_model(
        &inputs,
        DeploymentPanel::pinned(),
        Vec::new(),
        DEFAULT_TOP_APPS,
    );
    (render_html(&report), render_json(&report))
}
