//! The traced runs (`--trace 1`): the workload's seeded stream replayed in
//! process, on a core built from the same public constructors `domd
//! serve` uses, with spans around the calls into each layer. Spans live in
//! memory and are reduced to the per-layer metrics at the end.
//!
//! Serving workloads run three passes over the same requests:
//!
//! 1. untraced: a `ServeCore` driven open loop at the workload's top rate,
//!    only completion times taken;
//! 2. traced: a fresh core, the same drive, plus a `StageHook` and spans
//!    around `parse_line` and `render_response`;
//! 3. replica: the handler's public calls made again, in the handler's
//!    order, on a replica of each tenant's state, with a span around each.
//!    The replica must give the traced core's answers and end in its final
//!    state before any number is reported.
//!
//! A layer's self time is its span minus the child spans inside it.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use domd_core::{PipelineInputs, TrainedPipeline};
use domd_data::csv as nmd_csv;
use domd_data::{AvailId, Dataset};
use domd_features::{FeatureCache, FeatureEngine};
use domd_index::{project_dataset, DurableIndex, FlatAvlIndex, HeapSize, RccDelta, RowId};
use domd_ml::DenseMatrix;
use domd_serve::{
    parse_line, rebuild_tenant, render_response, Op, Reply, Request, Response, ServeConfig,
    ServeCore, SharedModel, Stage, StageHook, TenantSnapshot, WallClock,
};

use crate::check::{predict_reply, rank_alerts};
use crate::client::{run_to_end, wait_until};
use crate::inputs::{
    rcc_of, train_artifact, write_extracts, Extracts, OpKind, Planned, StreamGen, GRID_STEP,
    SPLIT_SEED,
};
use crate::rng::Rng;
use crate::stats::{geometric_mean, median, Json};
use crate::workloads::{
    self, ServingSpec, ALL_ROWS_PROBE, CACHE_CAPACITY, DEADLINE_MS, QUEUE_CAPACITY, TENANTS,
    WORKERS, ZIPF_S,
};
use crate::{Outcome, Run};

/// Every per-layer metric, in `BENCHMARK.json` order. A workload that
/// never makes a call reports 0 for it.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("serve.parse_us", "us"),
    ("serve.render_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.shed_share", "share"),
    ("runtime.queue_peak_depth", "count"),
    ("serve.cow_ingest_us", "us"),
    ("index.apply_deltas_us", "us"),
    ("storage.wal_append_us", "us"),
    ("storage.fsync_us", "us"),
    ("storage.fsyncs_per_ack", "count"),
    ("index.status_aggregate_us", "us"),
    ("index.rows_matched_per_status", "count"),
    ("features.features_at_us", "us"),
    ("features.cache_hit_share", "share"),
    ("ml.step_predict_us", "us"),
    ("core.predict_online_us", "us"),
    ("features.invalidations_surgical", "count"),
    ("features.invalidations_full", "count"),
    ("core.alert_sweep_ms", "ms"),
    ("core.alert_avails_swept", "count"),
    ("index.recover_s", "s"),
    ("serve.rebuild_s", "s"),
    ("storage.wal_records_replayed", "count"),
    ("storage.bytes_per_row", "B/row"),
    ("index.heap_mb", "MB"),
    ("data.csv_load_ms", "ms"),
    ("features.sweep_s", "s"),
    ("ml.fit_s", "s"),
    ("trace.overhead_share", "share"),
    ("trace.explained_share_status", "share"),
    ("trace.explained_share_predict", "share"),
    ("trace.explained_share_alert", "share"),
    ("trace.explained_share_ingest", "share"),
    ("trace.explained_share_restart", "share"),
    ("trace.explained_share_train", "share"),
];

/// One timed interval. `parent` is the index of the enclosing span.
#[derive(Debug, Clone)]
struct Span {
    req: usize,
    name: &'static str,
    parent: Option<usize>,
    ns: u64,
}

/// In-memory span log.
#[derive(Default)]
struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Times `f` as a span of request `req`; returns its index and result.
    fn time<R>(
        &mut self,
        req: usize,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            req,
            name,
            parent,
            ns,
        });
        (self.spans.len() - 1, out)
    }

    /// Records an interval measured elsewhere.
    fn record(&mut self, req: usize, name: &'static str, parent: Option<usize>, ns: u64) -> usize {
        self.spans.push(Span {
            req,
            name,
            parent,
            ns,
        });
        self.spans.len() - 1
    }

    /// Self time of every span named `name`: its duration minus its
    /// children's.
    fn self_ns(&self, name: &str) -> Vec<(usize, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.req, s.ns.saturating_sub(child_ns[i]) as f64))
            .collect()
    }

    fn median_self(&self, name: &str) -> f64 {
        let v: Vec<f64> = self.self_ns(name).into_iter().map(|(_, ns)| ns).collect();
        median(&v).unwrap_or(0.0)
    }

    /// Total duration of top-level (parentless) spans per request.
    fn blocking_ns(&self) -> BTreeMap<usize, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent.is_none()) {
            *out.entry(s.req).or_insert(0.0) += s.ns as f64;
        }
        out
    }
}

/// The metric values of one traced run, all others 0.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.0.contains_key(name), "unknown per-layer metric {name}");
        self.0.insert(name, value);
    }

    fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER.iter().map(|(n, u)| (*n, self.0[n], *u)).collect()
    }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    match run.workload.as_str() {
        "read_mix" => serving(run, &workloads::read_mix()),
        "ingest_durable" => serving(run, &workloads::ingest_durable()),
        "restart" => restart(run),
        "retrain" => retrain(run),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn serve_config(store: bool) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        default_budget: DEADLINE_MS,
        cache_capacity: CACHE_CAPACITY,
        sync_each_ingest: store,
        ..ServeConfig::default()
    }
}

/// One optional durable store per tenant.
type Durables = Vec<Option<DurableIndex<FlatAvlIndex>>>;

/// Tenant snapshots and durable stores as `domd serve` builds them on a
/// first start.
fn build_tenants(
    ex: &Extracts,
    tenants: usize,
    store: Option<&Path>,
) -> Result<(Vec<TenantSnapshot>, Durables), String> {
    let mut snapshots = Vec::new();
    let mut durables = Vec::new();
    let projected = store.map(|_| project_dataset(&ex.ds));
    for t in 0..tenants {
        snapshots.push(TenantSnapshot::from_dataset(ex.ds.clone()));
        durables.push(match (store, &projected) {
            (Some(dir), Some(projected)) => Some(
                DurableIndex::create_full(
                    &dir.join(format!("tenant-{t}")),
                    projected.iter().copied().zip(ex.ds.rccs().iter().cloned()),
                )
                .map_err(|e| e.to_string())?,
            ),
            _ => None,
        });
    }
    Ok((snapshots, durables))
}

fn build_core(
    pipeline: &Arc<TrainedPipeline>,
    config: ServeConfig,
    snapshots: Vec<TenantSnapshot>,
    durables: Durables,
) -> Result<ServeCore, String> {
    let model = SharedModel {
        pipeline: Arc::clone(pipeline),
        features: FeatureEngine::default(),
    };
    let mut core = ServeCore::new(config, WallClock::new(), model, snapshots);
    for (t, d) in durables.into_iter().enumerate() {
        if let Some(d) = d {
            core = core.with_durable(t, d).map_err(|e| e.to_string())?;
        }
    }
    Ok(core)
}

/// One request's fate in an in-process drive.
struct Done {
    /// Scheduled send → response rendered.
    latency: Duration,
    /// `parse_line` and `render_response` times (traced drive only).
    parse_ns: u64,
    render_ns: u64,
    /// Just before `submit`.
    submitted: Instant,
    response: Response,
}

/// Drives `core` like `domd serve`'s request loop does — one feeder that
/// parses and submits, `workers` workers that execute and render — open
/// loop at `rate`. With `traced`, parse and render are timed.
fn drive(core: &ServeCore, planned: &[Planned], rate: f64, traced: bool) -> Vec<Option<Done>> {
    let n = planned.len();
    let out: Mutex<Vec<Option<Done>>> = Mutex::new((0..n).map(|_| None).collect());
    let pending: Mutex<Vec<Option<(Instant, u64)>>> = Mutex::new(vec![None; n]);
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let finish = |resp: Response, parse_ns: u64, submitted: Instant| {
        let i = resp.seq as usize;
        let t0 = traced.then(Instant::now);
        let line = render_response(&resp);
        std::hint::black_box(&line);
        let render_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let latency = Instant::now().saturating_duration_since(due(i));
        out.lock().expect("drive sink")[i] = Some(Done {
            latency,
            parse_ns,
            render_ns,
            submitted,
            response: resp,
        });
    };
    domd_runtime::run_workers(core.config().workers + 1, |role| {
        if role != 0 {
            while let Some(req) = core.queue().pop() {
                let seq = req.seq as usize;
                let resp = core.execute(req);
                let (submitted, parse_ns) =
                    pending.lock().expect("pending")[seq].unwrap_or((start, 0));
                finish(resp, parse_ns, submitted);
            }
            return;
        }
        for (i, p) in planned.iter().enumerate() {
            wait_until(due(i));
            let t0 = Instant::now();
            let parsed = parse_line(
                &p.line,
                i as u64,
                core.clock().now(),
                core.config().default_budget,
            );
            let parse_ns = if traced {
                t0.elapsed().as_nanos() as u64
            } else {
                0
            };
            let Ok(Some(req)) = parsed else { continue };
            let submitted = Instant::now();
            pending.lock().expect("pending")[i] = Some((submitted, parse_ns));
            match core.submit(req.clone()) {
                Some(resp) => finish(resp, parse_ns, submitted),
                None => core.fire_stage(Stage::Admitted, &req),
            }
        }
        core.queue().close();
    });
    out.into_inner().expect("drive sink")
}

/// A tenant's state as the replica keeps it.
struct ReplicaTenant {
    snap: TenantSnapshot,
    epoch: u64,
    cache: FeatureCache,
    cache_epoch: u64,
    durable: Option<(DurableIndex<FlatAvlIndex>, RowId)>,
}

/// Replays the handler's calls for one request on the replica, with
/// spans; returns the reply the handler would build.
#[allow(clippy::too_many_arguments)]
fn replica_request(
    tr: &mut Tracer,
    i: usize,
    req: &Request,
    tenant: &mut ReplicaTenant,
    pipeline: &TrainedPipeline,
    engine: &FeatureEngine,
    sync_each_ingest: bool,
    counts: &mut ReplicaCounts,
) -> Result<Reply, String> {
    match &req.op {
        Op::Status(q) => {
            let (_, agg) = tr.time(i, "index.status_aggregate", None, || {
                tenant.snap.engine.aggregate(q)
            });
            counts
                .rows_matched
                .push(tenant.snap.engine.execute(q).len() as f64);
            Ok(Reply::Status(agg))
        }
        Op::Predict { avail, t_star } => {
            if tenant.cache_epoch != tenant.epoch {
                tenant.cache.invalidate();
                tenant.cache_epoch = tenant.epoch;
            }
            let ds = Arc::clone(&tenant.snap.dataset);
            let a = ds.avail(*avail).ok_or("predict on an unknown avail")?;
            let statics = domd_features::static_row(a).to_vec();
            let base = if pipeline.config.stacked {
                pipeline.static_model.as_ref().map(|m| {
                    m.predict(&DenseMatrix::from_vec_of_rows(std::slice::from_ref(
                        &statics,
                    )))[0]
                })
            } else {
                None
            };
            // The call, as the handler makes it: features from the cache
            // (computed on a miss), then each reached step's model.
            let misses = tenant.cache.stats().misses;
            let (parent, online) = tr.time(i, "core.predict_online", None, || {
                pipeline.predict_online_cached(&ds, engine, &mut tenant.cache, *avail, *t_star)
            });
            let missed = (tenant.cache.stats().misses - misses) as usize;
            // Its children, measured right after on the same inputs: a cold
            // feature computation per anchor the call missed, and the model
            // of every reached step on the row the handler assembles.
            let mut cold = Vec::new();
            let mut model_ns = 0;
            for step in pipeline.steps.iter().take(online.estimates.len()) {
                let (ns, feats) =
                    timed_ns(|| engine.features_for_avail_at(&ds, *avail, step.t_star));
                cold.push(ns);
                let mut row = match base {
                    Some(b) => vec![b],
                    None => statics.clone(),
                };
                row.extend(step.selected.iter().map(|&j| feats[j]));
                model_ns += timed_ns(|| std::hint::black_box(step.model.predict_row(&row))).0;
            }
            counts
                .cold_features
                .extend(cold.iter().map(|ns| *ns as f64));
            let cold_ns: u64 = cold.iter().take(missed).sum();
            tr.record(i, "features.features_at", Some(parent), cold_ns);
            tr.record(i, "ml.step_predict", Some(parent), model_ns);
            counts.step_models += cold.len() as u64;
            Ok(predict_reply(*avail, online.estimates, online.warnings))
        }
        Op::Alerts {
            t_star,
            k,
            min_delay,
        } => {
            let ds = Arc::clone(&tenant.snap.dataset);
            let ongoing: Vec<AvailId> = ds
                .avails()
                .iter()
                .filter(|a| a.actual_end.is_none())
                .map(|a| a.id)
                .collect();
            counts.swept.push(ongoing.len() as f64);
            let (_, swept) = tr.time(i, "core.alert_sweep", None, || {
                domd_runtime::par_map(domd_runtime::threads(), &ongoing, |_, &avail| {
                    let online = pipeline.predict_online_checked(&ds, engine, avail, *t_star);
                    (
                        avail,
                        online.estimates.last().map(|&(_, e)| e),
                        !online.warnings.is_empty(),
                    )
                })
            });
            Ok(rank_alerts(swept, *k, *min_delay))
        }
        Op::Ingest { rows } => {
            for r in rows {
                tenant
                    .snap
                    .validate_ingest(r.avail, r.created, r.settled, r.amount)
                    .map_err(|e| e.to_string())?;
            }
            // EpochStore::update: clone the published snapshot, then the
            // handler's closure: WAL append per row, fsync, ingest_batch.
            let (cow, mut next) = tr.time(i, "serve.cow_ingest", None, || tenant.snap.clone());
            if let Some((d, next_id)) = tenant.durable.as_mut() {
                for (k, r) in rows.iter().enumerate() {
                    let projected = next
                        .project_next(*next_id, r.avail, r.created, r.settled)
                        .ok_or("ingest on an unknown avail")?;
                    let rcc = rcc_of(next.next_rcc() + k as u32, r);
                    let (_, inserted) = tr.time(i, "storage.wal_append", None, || {
                        d.insert_full(&projected, &rcc)
                    });
                    if !inserted.map_err(|e| e.to_string())? {
                        return Err(format!("replica durable id {} already live", projected.id));
                    }
                    *next_id += 1;
                }
                if sync_each_ingest {
                    let (_, synced) = tr.time(i, "storage.fsync", None, || d.sync());
                    synced.map_err(|e| e.to_string())?;
                    counts.fsyncs += 1;
                }
            }
            // The index part of ingest_batch, timed on an identical clone
            // of the engine, is the copy-on-write span's child.
            let mut deltas = Vec::with_capacity(rows.len());
            for (k, r) in rows.iter().enumerate() {
                let avail = next
                    .dataset
                    .avail(r.avail)
                    .cloned()
                    .ok_or("ingest on an unknown avail")?;
                deltas.push(RccDelta::Insert {
                    rcc: rcc_of(next.next_rcc() + k as u32, r),
                    avail,
                });
            }
            let mut engine_copy = next.engine.clone();
            tr.time(i, "index.apply_deltas", Some(cow), || {
                engine_copy.apply_deltas(&deltas)
            });
            let t0 = Instant::now();
            let applied = next.ingest_batch(rows).map_err(|e| e.to_string())?;
            tr.spans[cow].ns += t0.elapsed().as_nanos() as u64;
            tenant.snap = next;
            tenant.epoch += 1;
            // The handler's surgical cache maintenance after a publish.
            if tenant.cache_epoch + 1 == tenant.epoch {
                let avails: Vec<AvailId> = rows.iter().map(|r| r.avail).collect();
                tenant.cache.invalidate_avails(&avails);
                tenant.cache_epoch = tenant.epoch;
            }
            counts.acks += 1;
            let row = *applied.first().ok_or("empty ingest batch")?;
            Ok(Reply::Ingested {
                row,
                rows: applied.len() as u32,
                epoch: tenant.epoch,
            })
        }
    }
}

#[derive(Default)]
struct ReplicaCounts {
    rows_matched: Vec<f64>,
    cold_features: Vec<f64>,
    /// Step models run by predicts.
    step_models: u64,
    swept: Vec<f64>,
    fsyncs: u64,
    acks: u64,
}

fn payload(resp: &Response) -> String {
    let line = render_response(resp);
    line.find(" op=")
        .map_or(line.clone(), |i| line[i + 1..].to_string())
}

fn serving(run: &Run, spec: &ServingSpec) -> Result<Outcome, String> {
    let ex = write_extracts(&run.work.join("data"), run.seed, 1)?;
    let pipeline = Arc::new(train_artifact(
        &ex.ds,
        GRID_STEP,
        &run.work.join("pipeline.domd"),
    )?);
    // The opening requests of the end-to-end run's stream, as many as half
    // the run sends at the nominal rate, driven at the top rate, where the
    // queue metrics matter.
    let nominal = spec.rates[0];
    let rate = *spec.rates.last().ok_or("a serving workload needs a rate")?;
    let planned = StreamGen::new(
        Rng::new(run.seed).fork(2),
        &ex.ds,
        &ex.ongoing,
        TENANTS,
        ZIPF_S,
        spec.mix,
    )
    .take(((nominal * run.seconds / 2.0).round() as usize).max(1));
    let mut layers = Layers::new();
    let mut mismatches: Vec<String> = Vec::new();

    let (csv_ms, ds) = timed_ms(|| nmd_csv::read_dataset(&ex.avails_csv, &ex.rccs_csv));
    ds.map_err(|e| e.to_string())?;
    layers.set("data.csv_load_ms", csv_ms);

    // Pass 1: untraced.
    let store_u = spec.store.then(|| run.work.join("store-untraced"));
    let (snaps, durs) = build_tenants(&ex, TENANTS, store_u.as_deref())?;
    let core = build_core(&pipeline, serve_config(spec.store), snaps, durs)?;
    let untraced = drive(&core, &planned, rate, false);
    drop(core);

    // Pass 2: traced, with the stage hook.
    let store_t = spec.store.then(|| run.work.join("store-traced"));
    let (snaps, durs) = build_tenants(&ex, TENANTS, store_t.as_deref())?;
    let heap: usize = snaps.iter().map(|s| s.engine.heap_bytes()).sum();
    layers.set("index.heap_mb", heap as f64 / 1e6);
    let stages: Arc<Mutex<Vec<(u64, Stage, Instant)>>> =
        Arc::new(Mutex::new(Vec::with_capacity(planned.len() * 4)));
    let log = Arc::clone(&stages);
    let hook: Arc<StageHook> = Arc::new(move |stage: Stage, req: &Request| {
        let at = Instant::now();
        log.lock().expect("stage log").push((req.seq, stage, at));
    });
    let core = build_core(&pipeline, serve_config(spec.store), snaps, durs)?.with_hook(hook);
    let traced = drive(&core, &planned, rate, true);
    let metrics = core.metrics();
    layers.set(
        "serve.shed_share",
        (metrics.shed_queue_full + metrics.shed_deadline) as f64 / metrics.submitted.max(1) as f64,
    );
    layers.set("runtime.queue_peak_depth", core.queue().peak_depth() as f64);
    layers.set(
        "features.invalidations_surgical",
        metrics.cache_invalidations_surgical as f64,
    );
    layers.set(
        "features.invalidations_full",
        metrics.cache_invalidations_full as f64,
    );

    let mut tr = Tracer::default();
    let pinned: BTreeMap<u64, Instant> = stages
        .lock()
        .expect("stage log")
        .iter()
        .filter(|(_, s, _)| *s == Stage::Pinned)
        .map(|(q, _, at)| (*q, *at))
        .collect();
    for (i, d) in traced.iter().enumerate() {
        let Some(d) = d else { continue };
        tr.record(i, "serve.parse", None, d.parse_ns);
        if let Some(p) = pinned.get(&(i as u64)) {
            tr.record(
                i,
                "serve.queue_wait",
                None,
                p.saturating_duration_since(d.submitted).as_nanos() as u64,
            );
        }
        tr.record(i, "serve.render", None, d.render_ns);
    }

    // Pass 3: the replica, in each tenant's publish order (a read pinned
    // at epoch e runs after the ingest that published e).
    let mut order: Vec<(usize, u64, u8, usize)> = Vec::new();
    for (i, d) in traced.iter().enumerate() {
        let Some(d) = d else {
            mismatches.push(format!("request {i}: no response in process"));
            continue;
        };
        match (&d.response.outcome, d.response.epoch) {
            (Ok(Reply::Ingested { epoch, .. }), _) => order.push((planned[i].tenant, *epoch, 0, i)),
            (Ok(_), Some(e)) => order.push((planned[i].tenant, e, 1, i)),
            _ => mismatches.push(format!(
                "request {i}: failed in process: {}",
                render_response(&d.response)
            )),
        }
    }
    order.sort();
    let store_r = spec.store.then(|| run.work.join("store-replica"));
    let (snaps, durs) = build_tenants(&ex, TENANTS, store_r.as_deref())?;
    let mut replica: Vec<ReplicaTenant> = snaps
        .into_iter()
        .zip(durs)
        .map(|(snap, d)| ReplicaTenant {
            snap,
            epoch: 0,
            cache: FeatureCache::new(CACHE_CAPACITY),
            cache_epoch: 0,
            durable: d.map(|d| {
                let next = d.max_id().map_or(0, |m| m + 1);
                (d, next)
            }),
        })
        .collect();
    let engine = FeatureEngine::default();
    let mut counts = ReplicaCounts::default();
    for &(t, _, _, i) in &order {
        let Ok(Some(req)) = parse_line(&planned[i].line, i as u64, 0, u64::MAX) else {
            continue;
        };
        let reply = replica_request(
            &mut tr,
            i,
            &req,
            &mut replica[t],
            &pipeline,
            &engine,
            spec.store,
            &mut counts,
        )?;
        let resp = Response {
            seq: i as u64,
            tenant: t,
            outcome: Ok(reply),
            epoch: None,
            queued: 0,
            service: 0,
        };
        let Some(real) = traced[i].as_ref() else {
            continue;
        };
        if payload(&resp) != payload(&real.response) {
            mismatches.push(format!(
                "request {i}: replica {} vs core {}",
                payload(&resp),
                payload(&real.response)
            ));
        }
    }
    // The replica must end where the traced core ended.
    for (t, rep) in replica.iter().enumerate() {
        let store = core.tenant_store(t).ok_or("tenant vanished")?;
        let real = store.pin();
        let same_rows = real.dataset.rccs().len() == rep.snap.dataset.rccs().len()
            && real
                .dataset
                .rccs()
                .iter()
                .zip(rep.snap.dataset.rccs())
                .all(|(a, b)| a.id == b.id && a.amount.to_bits() == b.amount.to_bits());
        if !same_rows
            || real.epoch() != rep.epoch
            || real.engine.arena().len() != rep.snap.engine.arena().len()
        {
            mismatches.push(format!(
                "tenant {t}: replica state differs from the core's at epoch {}",
                real.epoch()
            ));
        }
        if core.durable_rows(t) != rep.durable.as_ref().map(|(d, _)| d.len()) {
            mismatches.push(format!(
                "tenant {t}: replica store rows differ from the core's"
            ));
        }
    }
    drop(core);

    let us = |ns: f64| ns / 1e3;
    layers.set("serve.parse_us", us(tr.median_self("serve.parse")));
    layers.set("serve.render_us", us(tr.median_self("serve.render")));
    layers.set(
        "serve.queue_wait_us",
        us(tr.median_self("serve.queue_wait")),
    );
    layers.set(
        "index.status_aggregate_us",
        us(tr.median_self("index.status_aggregate")),
    );
    layers.set(
        "index.rows_matched_per_status",
        median(&counts.rows_matched).unwrap_or(0.0),
    );
    layers.set(
        "features.features_at_us",
        us(median(&counts.cold_features).unwrap_or(0.0)),
    );
    let stats: Vec<_> = replica.iter().map(|r| r.cache.stats()).collect();
    let (hits, misses) = stats
        .iter()
        .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
    layers.set(
        "features.cache_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let model_ns: f64 = tr.self_ns("ml.step_predict").iter().map(|(_, ns)| ns).sum();
    layers.set(
        "ml.step_predict_us",
        us(model_ns / counts.step_models.max(1) as f64),
    );
    layers.set(
        "core.predict_online_us",
        us(tr.median_self("core.predict_online")),
    );
    layers.set(
        "core.alert_sweep_ms",
        tr.median_self("core.alert_sweep") / 1e6,
    );
    layers.set(
        "core.alert_avails_swept",
        median(&counts.swept).unwrap_or(0.0),
    );
    layers.set(
        "serve.cow_ingest_us",
        us(tr.median_self("serve.cow_ingest")),
    );
    layers.set(
        "index.apply_deltas_us",
        us(tr.median_self("index.apply_deltas")),
    );
    layers.set(
        "storage.wal_append_us",
        us(tr.median_self("storage.wal_append")),
    );
    layers.set("storage.fsync_us", us(tr.median_self("storage.fsync")));
    layers.set(
        "storage.fsyncs_per_ack",
        counts.fsyncs as f64 / counts.acks.max(1) as f64,
    );
    if let Some(dir) = &store_r {
        let rows: usize = replica
            .iter()
            .filter_map(|r| r.durable.as_ref().map(|(d, _)| d.len()))
            .sum();
        layers.set(
            "storage.bytes_per_row",
            dir_bytes(dir) as f64 / rows.max(1) as f64,
        );
    }
    if spec.mix.alert > 0.0 && counts.swept.contains(&0.0) {
        mismatches.push("an alert swept no ongoing avail".into());
    }

    // Overhead and the share of each op's untraced median the blocking
    // spans explain.
    let lat = |v: &[Option<Done>], op: Option<OpKind>| -> Vec<f64> {
        v.iter()
            .zip(&planned)
            .filter(|(_, p)| op.is_none_or(|o| p.op == o))
            .filter_map(|(d, _)| d.as_ref().map(|d| d.latency.as_nanos() as f64))
            .collect()
    };
    // Overhead: geometric mean over the ops of traced / untraced median.
    let ratios: Vec<f64> = OpKind::ALL
        .iter()
        .filter_map(|op| {
            Some(median(&lat(&traced, Some(*op)))? / median(&lat(&untraced, Some(*op)))?)
        })
        .collect();
    if let Some(g) = geometric_mean(&ratios) {
        layers.set("trace.overhead_share", g - 1.0);
    }
    let blocking = tr.blocking_ns();
    for (op, name) in [
        (OpKind::Status, "trace.explained_share_status"),
        (OpKind::Predict, "trace.explained_share_predict"),
        (OpKind::Alert, "trace.explained_share_alert"),
        (OpKind::Ingest, "trace.explained_share_ingest"),
    ] {
        let explained: Vec<f64> = blocking
            .iter()
            .filter(|(i, _)| planned[**i].op == op)
            .map(|(_, ns)| *ns)
            .collect();
        if let (Some(e), Some(u)) = (median(&explained), median(&lat(&untraced, Some(op)))) {
            layers.set(name, e / u);
        }
    }
    finish(run, layers, mismatches, planned.len() as u64 * 2)
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn timed_ns<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_nanos() as u64, out)
}

fn timed_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

fn finish(
    run: &Run,
    layers: Layers,
    mismatches: Vec<String>,
    attempted: u64,
) -> Result<Outcome, String> {
    let mut detail = Json::obj();
    detail
        .set("workload", Json::Str(run.workload.clone()))
        .set("seed", Json::Int(run.seed))
        .set("trace", Json::Bool(true))
        .set("mismatches", Json::first_strings(&mismatches));
    Ok(Outcome {
        correct: mismatches.is_empty(),
        attempted,
        failed: 0,
        metrics: layers.into_metrics(),
        detail,
    })
}

/// One in-process restart: extracts load, recovery, rebuild, core, first
/// answer. Spans go to `tr` when given.
fn restart_once(
    ex: &Extracts,
    dir: &Path,
    pipeline: &Arc<TrainedPipeline>,
    probe: &Request,
    mut tr: Option<&mut Tracer>,
    k: usize,
    layers: &mut Layers,
) -> Result<(f64, Response), String> {
    let t0 = Instant::now();
    let mut span =
        |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| -> Result<(), String> {
            match tr.as_deref_mut() {
                Some(tr) => tr.time(k, name, None, f).1,
                None => f(),
            }
        };
    let mut ds = None;
    span("data.csv_load", &mut || {
        ds = Some(nmd_csv::read_dataset(&ex.avails_csv, &ex.rccs_csv).map_err(|e| e.to_string())?);
        Ok(())
    })?;
    let ds: Dataset = ds.ok_or("no dataset")?;
    let mut recovered = None;
    span("index.recover", &mut || {
        recovered = Some(DurableIndex::<FlatAvlIndex>::recover(dir).map_err(|e| e.to_string())?);
        Ok(())
    })?;
    let (index, report) = recovered.ok_or("no recovery")?;
    let mut rebuilt = None;
    span("serve.rebuild", &mut || {
        rebuilt = Some(rebuild_tenant(&ds, &index).map_err(|e| e.to_string())?);
        Ok(())
    })?;
    let (snap, _) = rebuilt.ok_or("no rebuild")?;
    layers.set("storage.wal_records_replayed", report.replayed as f64);
    layers.set(
        "storage.bytes_per_row",
        dir_bytes(dir) as f64 / report.rows.max(1) as f64,
    );
    layers.set("index.heap_mb", snap.engine.heap_bytes() as f64 / 1e6);
    // The first answer: the aggregate it runs, timed on the rebuilt
    // snapshot, is the child of building the core and serving the probe.
    let mut agg_ns = 0;
    if let Op::Status(q) = &probe.op {
        let (ns, agg) = timed_ns(|| snap.engine.aggregate(q));
        layers.set("index.rows_matched_per_status", agg.count as f64);
        agg_ns = ns;
    }
    let (first_ns, resp) = timed_ns(|| -> Result<Response, String> {
        let core = build_core(pipeline, serve_config(true), vec![snap], vec![Some(index)])?;
        let r = core.serve_one(probe.clone());
        std::hint::black_box(render_response(&r));
        Ok(r)
    });
    if let Some(tr) = tr {
        let first = tr.record(k, "serve.first_answer", None, first_ns + agg_ns);
        tr.record(k, "index.status_aggregate", Some(first), agg_ns);
    }
    Ok((t0.elapsed().as_nanos() as f64, resp?))
}

fn restart(run: &Run) -> Result<Outcome, String> {
    let ex = write_extracts(&run.work.join("data"), run.seed, workloads::RESTART_SCALE)?;
    let ids: Vec<_> = ex.ds.avails().iter().take(60).map(|a| a.id).collect();
    let pipeline = Arc::new(train_artifact(
        &ex.ds.select_avails(&ids),
        50.0,
        &run.work.join("pipeline.domd"),
    )?);
    let mut layers = Layers::new();
    let mut mismatches = Vec::new();
    let dir = run.work.join("store");

    // The store as the end-to-end run leaves it: a first start, then the
    // same acked ingests through a durable core.
    let (snaps, durs) = build_tenants(&ex, 1, Some(&run.work.join("store-base")))?;
    drop((snaps, durs));
    std::fs::rename(run.work.join("store-base").join("tenant-0"), &dir)
        .map_err(|e| e.to_string())?;
    let index = DurableIndex::<FlatAvlIndex>::recover(&dir)
        .map_err(|e| e.to_string())?
        .0;
    let core = build_core(
        &pipeline,
        serve_config(true),
        vec![TenantSnapshot::from_dataset(ex.ds.clone())],
        vec![Some(index)],
    )?;
    let mix = crate::inputs::Mix {
        status: 0.0,
        predict: 0.0,
        alert: 0.0,
        ingest: 1.0,
    };
    let planned = StreamGen::new(
        Rng::new(run.seed).fork(3),
        &ex.ds,
        &ex.ongoing,
        1,
        ZIPF_S,
        mix,
    )
    .take(workloads::RESTART_INGESTS);
    let mut acked_rows = 0;
    for (i, p) in planned.iter().enumerate() {
        let Ok(Some(req)) = parse_line(&p.line, i as u64, core.clock().now(), DEADLINE_MS) else {
            return Err(format!("ingest line {i} does not parse"));
        };
        match core.serve_one(req).outcome {
            Ok(Reply::Ingested { rows, .. }) => acked_rows += rows as usize,
            other => mismatches.push(format!("ingest {i}: {other:?}")),
        }
    }
    drop(core);
    let want_rows = ex.ds.rccs().len() + acked_rows;
    let probe = match parse_line(ALL_ROWS_PROBE, 0, 0, u64::MAX) {
        Ok(Some(r)) => r,
        _ => return Err("probe does not parse".into()),
    };

    // Alternate untraced and traced restarts for `--seconds`.
    let t_end = Instant::now() + Duration::from_secs_f64(run.seconds);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut tr = Tracer::default();
    let mut k = 0;
    while untraced.len() < 2 || traced.len() < 2 || Instant::now() < t_end {
        let tracing = k % 2 == 1;
        let (ns, resp) = restart_once(
            &ex,
            &dir,
            &pipeline,
            &probe,
            tracing.then_some(&mut tr),
            k,
            &mut layers,
        )?;
        match &resp.outcome {
            Ok(Reply::Status(agg)) if agg.count == want_rows => {}
            other => mismatches.push(format!(
                "restart {k}: first answer {other:?}, want {want_rows} rows"
            )),
        }
        if tracing {
            traced.push(ns)
        } else {
            untraced.push(ns)
        }
        k += 1;
    }
    layers.set("data.csv_load_ms", tr.median_self("data.csv_load") / 1e6);
    layers.set("index.recover_s", tr.median_self("index.recover") / 1e9);
    layers.set("serve.rebuild_s", tr.median_self("serve.rebuild") / 1e9);
    layers.set(
        "index.status_aggregate_us",
        tr.median_self("index.status_aggregate") / 1e3,
    );
    let (u, t) = (
        median(&untraced).unwrap_or(0.0),
        median(&traced).unwrap_or(0.0),
    );
    if u > 0.0 {
        layers.set("trace.overhead_share", t / u - 1.0);
        let explained: Vec<f64> = tr.blocking_ns().into_values().collect();
        layers.set(
            "trace.explained_share_restart",
            median(&explained).unwrap_or(0.0) / u,
        );
    }
    finish(run, layers, mismatches, k as u64)
}

fn retrain(run: &Run) -> Result<Outcome, String> {
    let ex = write_extracts(&run.work.join("data"), run.seed, 1)?;
    let mut layers = Layers::new();
    let mut mismatches = Vec::new();
    let config = {
        let mut c = domd_core::PipelineConfig::paper_final();
        c.grid_step = GRID_STEP;
        c
    };
    // The program's own artifact, the reference for the in-process fit.
    let out = run.work.join("pipeline.domd");
    let args: Vec<String> = [
        "train",
        "--data-dir",
        &ex.dir.display().to_string(),
        "--out",
        &out.display().to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    run_to_end(&run.domd, &args, &run.work.join("train.stderr"))?;
    let program_bytes = std::fs::read(&out).map_err(|e| e.to_string())?;

    let t_end = Instant::now() + Duration::from_secs_f64(run.seconds);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut tr = Tracer::default();
    let mut k = 0;
    while untraced.is_empty() || traced.is_empty() || Instant::now() < t_end {
        let tracing = k % 2 == 1;
        let t0 = Instant::now();
        let mut span = |name: &'static str, f: &mut dyn FnMut()| {
            if tracing {
                tr.time(k, name, None, f);
            } else {
                f();
            }
        };
        let mut ds = None;
        span("data.csv_load", &mut || {
            ds = nmd_csv::read_dataset(&ex.avails_csv, &ex.rccs_csv).ok()
        });
        let ds = ds.ok_or("extracts do not parse")?;
        let split = ds.split(SPLIT_SEED);
        let mut inputs = None;
        span("features.sweep", &mut || {
            inputs = Some(PipelineInputs::build(&ds, GRID_STEP))
        });
        let inputs = inputs.ok_or("no inputs")?;
        let mut fitted = None;
        span("ml.fit", &mut || {
            fitted = Some(TrainedPipeline::fit(&inputs, &split.train, &config))
        });
        let fitted = fitted.ok_or("no fit")?;
        let ns = t0.elapsed().as_nanos() as f64;
        if domd_core::save_pipeline_framed(&fitted) != program_bytes {
            mismatches.push(format!(
                "fit {k}: in-process artifact differs from `domd train`'s"
            ));
        }
        if tracing {
            traced.push(ns)
        } else {
            untraced.push(ns)
        }
        k += 1;
    }
    layers.set("data.csv_load_ms", tr.median_self("data.csv_load") / 1e6);
    layers.set("features.sweep_s", tr.median_self("features.sweep") / 1e9);
    layers.set("ml.fit_s", tr.median_self("ml.fit") / 1e9);
    let (u, t) = (
        median(&untraced).unwrap_or(0.0),
        median(&traced).unwrap_or(0.0),
    );
    if u > 0.0 {
        layers.set("trace.overhead_share", t / u - 1.0);
        let explained: Vec<f64> = tr.blocking_ns().into_values().collect();
        layers.set(
            "trace.explained_share_train",
            median(&explained).unwrap_or(0.0) / u,
        );
    }
    finish(run, layers, mismatches, k as u64)
}
