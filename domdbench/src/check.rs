//! The correctness gate. Every answer the program gave is compared, after
//! the timed phase, with an in-process reference computed from scratch at
//! the epoch the answer reports.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use domd_core::{DomdEstimate, TrainedPipeline};
use domd_data::rcc::Rcc;
use domd_data::{AvailId, Dataset};
use domd_features::FeatureEngine;
use domd_serve::{parse_line, render_response, Alert, Op, Reply, Response, TenantSnapshot};

use crate::client::field;
use crate::inputs::{rcc_of, OpKind, Planned};

/// Outcome counts of one checked serving run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Requests whose answer was an `err` line or never arrived.
    pub failed: usize,
    /// Answers that disagree with the reference.
    pub mismatches: Vec<String>,
    /// Rows acked per tenant.
    pub acked_rows: Vec<usize>,
    /// Per tenant, the rows each acked ingest published, by epoch.
    pub published: Vec<BTreeMap<u64, Vec<Rcc>>>,
}

impl Verdict {
    /// The extracts plus every row tenant `t` acked, in publish order.
    pub fn dataset_with_acks(&self, base: &Dataset, t: usize) -> Dataset {
        base.with_rccs_merged(self.published[t].values().flatten().cloned().collect())
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// The part of a response line that is compared: everything from ` op=`.
fn payload(line: &str) -> &str {
    line.find(" op=").map(|i| &line[i + 1..]).unwrap_or(line)
}

fn num(line: &str, key: &str) -> Option<f64> {
    field(line, key)?.parse().ok()
}

/// Reference answers for one pipeline artifact.
pub struct Reference<'a> {
    pub pipeline: &'a TrainedPipeline,
    pub features: FeatureEngine,
}

impl Reference<'_> {
    fn render(reply: Reply) -> String {
        let resp = Response {
            seq: 0,
            tenant: 0,
            outcome: Ok(reply),
            epoch: None,
            queued: 0,
            service: 0,
        };
        payload(&render_response(&resp)).to_string()
    }

    /// Uncached online prediction, the reference for cached serving.
    fn predict(&self, ds: &Dataset, avail: AvailId, t_star: f64) -> (Vec<(f64, f64)>, Vec<String>) {
        let online = self
            .pipeline
            .predict_online_checked(ds, &self.features, avail, t_star);
        (online.estimates, online.warnings)
    }

    pub fn predict_payload(&self, ds: &Dataset, avail: AvailId, t_star: f64) -> String {
        let (estimates, warnings) = self.predict(ds, avail, t_star);
        Self::render(predict_reply(avail, estimates, warnings))
    }

    /// The alert answer: every ongoing avail's headline estimate, ranked
    /// as `rank_alerts` does.
    pub fn alert_payload(&self, ds: &Dataset, t_star: f64, k: usize, min_delay: f64) -> String {
        let ongoing: Vec<AvailId> = ds
            .avails()
            .iter()
            .filter(|a| a.actual_end.is_none())
            .map(|a| a.id)
            .collect();
        let swept = domd_runtime::par_map(domd_runtime::threads(), &ongoing, |_, &avail| {
            let (estimates, warnings) = self.predict(ds, avail, t_star);
            (
                avail,
                estimates.last().map(|&(_, e)| e),
                !warnings.is_empty(),
            )
        });
        Self::render(rank_alerts(swept, k, min_delay))
    }
}

/// The predict reply the handler builds from an online prediction's
/// `(t*, estimate)` pairs and warnings.
pub fn predict_reply(avail: AvailId, estimates: Vec<(f64, f64)>, warnings: Vec<String>) -> Reply {
    Reply::Predict {
        avail,
        estimates: estimates
            .into_iter()
            .map(|(t, e)| DomdEstimate {
                t_star: t,
                estimated_delay: e,
            })
            .collect(),
        degraded: !warnings.is_empty(),
        warnings,
    }
}

/// The alert ranking the handler defines, over swept `(avail, headline
/// estimate, repaired)` tuples: headlines of at least `min_delay`, by
/// delay descending then avail id, first `k`.
pub fn rank_alerts(swept: Vec<(AvailId, Option<f64>, bool)>, k: usize, min_delay: f64) -> Reply {
    let mut alerts: Vec<Alert> = swept
        .into_iter()
        .filter_map(|(avail, headline, repaired)| {
            let estimated_delay = headline?;
            (estimated_delay.is_finite() && estimated_delay >= min_delay).then_some(Alert {
                avail,
                estimated_delay,
                degraded: repaired,
            })
        })
        .collect();
    alerts.sort_by(|a, b| {
        b.estimated_delay
            .total_cmp(&a.estimated_delay)
            .then_with(|| a.avail.0.cmp(&b.avail.0))
    });
    alerts.truncate(k);
    Reply::Alerts(alerts)
}

/// Compares a status answer with a from-scratch aggregate: the count
/// exactly, the sums to the printed precision (a from-scratch build sums
/// rows in another order than the maintained index, so the last bits of
/// an `f64` sum may differ).
pub fn status_matches(
    line: &str,
    reference: &TenantSnapshot,
    query: &domd_index::StatusQuery,
) -> bool {
    let agg = reference.engine.aggregate(query);
    let close = |key: &str, want: f64| {
        num(line, key).is_some_and(|got| (got - want).abs() <= 1e-3 + 1e-9 * want.abs())
    };
    num(line, "count") == Some(agg.count as f64)
        && close("sum_amount", agg.sum_amount)
        && close("sum_duration", agg.sum_duration)
}

/// One acked ingest: its batch and the epoch it published.
struct Ack<'a> {
    epoch: u64,
    planned: &'a Planned,
}

/// Checks one serving run. `base` is every tenant's initial dataset;
/// `responses[i]` answers `planned[i]`.
pub fn check_serving(
    base: &Dataset,
    reference: &Reference<'_>,
    tenants: usize,
    planned: &[Planned],
    responses: &[Option<String>],
) -> Verdict {
    let mut v = Verdict {
        acked_rows: vec![0; tenants],
        ..Verdict::default()
    };
    let base_rows = base.rccs().len() as u64;
    let next_rcc0 = base.rccs().iter().map(|r| r.id.0 + 1).max().unwrap_or(0);

    // Acks: per tenant, epochs 1, 2, ... in publish order; the first row
    // id continues the arena; the row count is the batch size.
    let mut acks: Vec<Vec<Ack<'_>>> = (0..tenants).map(|_| Vec::new()).collect();
    let mut reads: Vec<(usize, u64)> = Vec::new();
    let mut ingests: Vec<(usize, u64)> = Vec::new();
    for (i, (p, r)) in planned.iter().zip(responses).enumerate() {
        let Some(line) = r.as_deref().filter(|l| l.starts_with("ok ")) else {
            v.failed += 1;
            continue;
        };
        if field(line, "tenant") != Some(&p.tenant.to_string()) {
            v.mismatch(format!("request {i}: answered for another tenant: {line}"));
            continue;
        }
        let Some(epoch) = field(line, "epoch").and_then(|e| e.parse::<u64>().ok()) else {
            v.mismatch(format!("request {i}: no epoch: {line}"));
            continue;
        };
        if p.op == OpKind::Ingest {
            match field(line, "new_epoch").and_then(|e| e.parse().ok()) {
                Some(new_epoch) => acks[p.tenant].push(Ack {
                    epoch: new_epoch,
                    planned: p,
                }),
                None => v.mismatch(format!("request {i}: ingest without new_epoch: {line}")),
            }
            let want = format!("rows={}", p.rows.len());
            if !line.split_whitespace().any(|t| t == want) {
                v.mismatch(format!(
                    "request {i}: ingest ack for the wrong row count: {line}"
                ));
            }
            // The ack's row id is checked below, once the publish order is known.
            ingests.push((i, epoch));
        } else {
            reads.push((i, epoch));
        }
    }

    // Per tenant: epoch -> rows published in it, with the RCC ids the
    // snapshot assigns (consecutive from the extracts' max id + 1).
    let mut published: Vec<BTreeMap<u64, Vec<Rcc>>> = Vec::with_capacity(tenants);
    for (t, list) in acks.iter_mut().enumerate() {
        list.sort_by_key(|a| a.epoch);
        let mut next = next_rcc0;
        let mut by_epoch = BTreeMap::new();
        for (k, ack) in list.iter().enumerate() {
            if ack.epoch != k as u64 + 1 {
                v.mismatch(format!(
                    "tenant {t}: acked epochs are not 1..n: {} at position {k}",
                    ack.epoch
                ));
            }
            let rows: Vec<Rcc> = ack
                .planned
                .rows
                .iter()
                .map(|r| {
                    next += 1;
                    rcc_of(next - 1, r)
                })
                .collect();
            v.acked_rows[t] += rows.len();
            by_epoch.insert(ack.epoch, rows);
        }
        published.push(by_epoch);
    }
    // Ack row ids: the first row of the batch published at epoch e sits
    // after the extracts' rows and every row published before e.
    for (i, epoch) in &ingests {
        let p = &planned[*i];
        let Some(line) = responses[*i].as_deref() else {
            continue;
        };
        let Some(new_epoch) = field(line, "new_epoch").and_then(|e| e.parse::<u64>().ok()) else {
            continue;
        };
        let before: usize = published[p.tenant]
            .range(..new_epoch)
            .map(|(_, r)| r.len())
            .sum();
        let want = base_rows as usize + before;
        if field(line, "row") != Some(&want.to_string()) {
            v.mismatch(format!(
                "request {i}: ingest acked row {:?}, expected {want}",
                field(line, "row")
            ));
        }
        if *epoch + 1 > new_epoch {
            v.mismatch(format!(
                "request {i}: ingest published epoch {new_epoch} from pinned epoch {epoch}"
            ));
        }
    }

    // Reads, grouped by (tenant, epoch); every tenant starts from `base`.
    let mut groups: BTreeMap<(usize, u64), Vec<usize>> = BTreeMap::new();
    for (i, epoch) in &reads {
        groups
            .entry((planned[*i].tenant, *epoch))
            .or_default()
            .push(*i);
    }
    let base = Arc::new(base.clone());
    let mut memo: HashMap<(usize, u64, String), String> = HashMap::new();
    let mut current: Option<(usize, u64, Arc<Dataset>)> = None;
    for ((tenant, epoch), idxs) in groups {
        if epoch > published[tenant].len() as u64 {
            v.mismatch(format!(
                "tenant {tenant}: a read pinned epoch {epoch}, beyond every ack"
            ));
            continue;
        }
        // The dataset at (tenant, epoch): extend the previous one of this
        // tenant by the rows published since, or start from the extracts.
        let (from, ds) = match current.take() {
            Some((t, e, ds)) if t == tenant && e <= epoch => (e, ds),
            _ => (0, Arc::clone(&base)),
        };
        let fresh: Vec<Rcc> = published[tenant]
            .range(from + 1..epoch + 1)
            .flat_map(|(_, r)| r.iter().cloned())
            .collect();
        let ds = if fresh.is_empty() {
            ds
        } else {
            Arc::new(ds.with_rccs_merged(fresh))
        };
        // Tenants at epoch 0 all read the extracts, so they share answers.
        let key_tenant = if epoch == 0 { usize::MAX } else { tenant };
        let mut snapshot: Option<TenantSnapshot> = None;
        for i in idxs {
            let p = &planned[i];
            let Some(line) = responses[i].as_deref() else {
                continue;
            };
            let op = match parse_line(&p.line, 0, 0, u64::MAX) {
                Ok(Some(req)) => req.op,
                other => {
                    v.mismatch(format!(
                        "request {i}: the benchmark's own line does not parse: {other:?}"
                    ));
                    continue;
                }
            };
            let ok = match &op {
                Op::Status(q) => {
                    let snap =
                        snapshot.get_or_insert_with(|| TenantSnapshot::from_dataset((*ds).clone()));
                    status_matches(line, snap, q)
                }
                Op::Predict { avail, t_star } => {
                    let key = (key_tenant, epoch, format!("predict {} {t_star}", avail.0));
                    let want = memo
                        .entry(key)
                        .or_insert_with(|| reference.predict_payload(&ds, *avail, *t_star));
                    payload(line) == want
                }
                Op::Alerts {
                    t_star,
                    k,
                    min_delay,
                } => {
                    let key = (key_tenant, epoch, format!("alert {t_star} {k} {min_delay}"));
                    let want = memo
                        .entry(key)
                        .or_insert_with(|| reference.alert_payload(&ds, *t_star, *k, *min_delay));
                    payload(line) == want
                }
                Op::Ingest { .. } => true,
            };
            if !ok {
                v.mismatch(format!("request {i} ({}) at epoch {epoch}: {line}", p.line));
            }
        }
        current = Some((tenant, epoch, ds));
    }
    v.published = published;
    v
}
