//! The end-to-end runs (`--trace 0`): the real `domd` binary, driven over
//! its stdin/stdout protocol from one client process.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use domd_core::{EvalTable, PipelineInputs};
use domd_features::FeatureEngine;
use domd_index::{DurableIndex, FlatAvlIndex};
use domd_serve::{parse_line, Op, TenantSnapshot};

use crate::check::{check_serving, status_matches, Reference, Verdict};
use crate::client::{run_to_end, Sample, Server};
use crate::inputs::{
    train_artifact, write_extracts, Extracts, Mix, OpKind, Planned, StreamGen, GRID_STEP,
    SPLIT_SEED,
};
use crate::rng::Rng;
use crate::stats::{geometric_mean, median, percentile, summarize, Json};
use crate::{Outcome, Run};

/// Server flags every serving workload passes explicitly, so a change of
/// the CLI defaults cannot change the configuration measured.
pub const WORKERS: usize = 2;
pub const QUEUE_CAPACITY: usize = 64;
pub const DEADLINE_MS: u64 = 200;
pub const CACHE_CAPACITY: usize = 256;

/// A traffic workload against `domd serve`.
pub struct ServingSpec {
    pub store: bool,
    pub mix: Mix,
    /// Fixed offered rates (requests/s); the first is the nominal rate.
    pub rates: &'static [f64],
}

/// Tenants of both traffic workloads, their skew, and the latency limit on
/// every op's tail for a rate to count as met.
pub const TENANTS: usize = 4;
pub const ZIPF_S: f64 = 1.1;
const LATENCY_LIMIT_MS: f64 = 50.0;
/// Server starts measured for `setup_s` per batch. Serving workloads send
/// the nominal rate's traffic in `NOMINAL_CHUNKS` parts and make a batch
/// before the traffic, between every two parts or rates, and after it.
const STARTS_PER_BATCH: usize = 3;
const NOMINAL_CHUNKS: usize = 3;
/// Share of `--seconds` spent at the nominal rate; the other rates split
/// the rest.
const NOMINAL_SHARE: f64 = 0.7;
/// A rate is met only if the generator stayed this punctual (p99).
const LATENESS_LIMIT_MS: f64 = 5.0;

pub fn read_mix() -> ServingSpec {
    ServingSpec {
        store: false,
        mix: Mix {
            status: 50.0,
            predict: 40.0,
            alert: 10.0,
            ingest: 0.0,
        },
        rates: &[100.0, 200.0, 300.0],
    }
}

pub fn ingest_durable() -> ServingSpec {
    ServingSpec {
        store: true,
        mix: Mix {
            status: 20.0,
            predict: 40.0,
            alert: 0.0,
            ingest: 40.0,
        },
        rates: &[50.0, 100.0, 150.0],
    }
}

/// The restart workload's sizes.
pub const RESTART_SCALE: u32 = 4;
pub const RESTART_INGESTS: usize = 64;
const MIN_RESTARTS: usize = 3;
/// Counts every row: everything is created by a huge logical time.
pub const ALL_ROWS_PROBE: &str = "status tenant=0 t=1000000 status=created";
/// The probe every serving start answers first.
pub const SETUP_PROBE: &str = "status tenant=0 t=50 status=active";

const MIN_TRAINS: usize = 2;

pub fn run(run: &Run) -> Result<Outcome, String> {
    match run.workload.as_str() {
        "read_mix" => serving(run, &read_mix()),
        "ingest_durable" => serving(run, &ingest_durable()),
        "restart" => restart(run),
        "retrain" => retrain(run),
        other => Err(format!("unknown workload {other:?}")),
    }
}

pub fn serve_args(
    ex: &Extracts,
    model: &Path,
    tenants: usize,
    store: Option<&Path>,
) -> Vec<String> {
    let mut args: Vec<String> = [
        "serve",
        "--data-dir",
        &ex.dir.display().to_string(),
        "--model",
        &model.display().to_string(),
        "--tenants",
        &tenants.to_string(),
        "--workers",
        &WORKERS.to_string(),
        "--queue-capacity",
        &QUEUE_CAPACITY.to_string(),
        "--deadline-ms",
        &DEADLINE_MS.to_string(),
        "--cache-capacity",
        &CACHE_CAPACITY.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(store) = store {
        args.extend(["--store".to_string(), store.display().to_string()]);
    }
    args
}

/// The status query of a probe line.
pub fn probe_query(line: &str) -> Result<domd_index::StatusQuery, String> {
    match parse_line(line, 0, 0, u64::MAX) {
        Ok(Some(req)) => match req.op {
            Op::Status(q) => Ok(q),
            _ => Err(format!("probe {line:?} is not a status query")),
        },
        other => Err(format!("probe {line:?} does not parse: {other:?}")),
    }
}

/// Starts `domd serve` and times spawn → first answer to `probe`,
/// checking the answer against `reference`.
fn start_server(
    run: &Run,
    args: &[String],
    tag: &str,
    probe: &str,
    reference: &TenantSnapshot,
    v: &mut Verdict,
) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let mut server = Server::spawn(&run.domd, args, &run.work.join(format!("{tag}.stderr")))?;
    let line = server.call(probe)?;
    let took = t0.elapsed().as_secs_f64();
    if !line.starts_with("ok ") || !status_matches(&line, reference, &probe_query(probe)?) {
        v.mismatch(format!(
            "{tag}: first answer {line:?} differs from the reference"
        ));
    }
    Ok((server, took))
}

/// Set-up figures of the counted starts.
#[derive(Default)]
struct Setups {
    /// Spawn → first answer, seconds.
    wall: Vec<f64>,
    /// The server's CPU time at its first answer, seconds.
    cpu: Vec<f64>,
}

/// Makes `n` counted starts of the program through `start`, which returns
/// the server and its set-up time, numbering them on from `*next`, and
/// adds each start's figures to `setups`. Start 0 only warms the page
/// cache and is not counted; each server is killed when the next is up.
/// Returns the last server.
///
/// The host's speed changes from one few-second stretch to the next, and
/// starts made back to back share it, so a run makes its starts in small
/// batches spread over the run.
fn timed_starts(
    n: usize,
    next: &mut usize,
    setups: &mut Setups,
    mut start: impl FnMut(usize) -> Result<(Server, f64), String>,
) -> Result<Server, String> {
    let from = *next;
    let to = from + n - usize::from(from > 0);
    *next = to + 1;
    let mut last: Option<Server> = None;
    for k in from..=to {
        let (server, took) = start(k)?;
        if k > 0 {
            setups.wall.push(took);
            setups.cpu.push(server.usage().cpu_ms / 1e3);
        }
        if let Some(previous) = last.replace(server) {
            previous.kill();
        }
    }
    last.ok_or_else(|| "no server started".to_string())
}

/// Per-op latency samples (ms) of a set of requests; a failed or missing
/// answer counts as an infinite latency, so it misses every limit.
fn latencies(planned: &[Planned], samples: &[Sample]) -> BTreeMap<OpKind, Vec<f64>> {
    let mut by_op: BTreeMap<OpKind, Vec<f64>> = BTreeMap::new();
    for (p, s) in planned.iter().zip(samples) {
        let ok = s.response.as_deref().is_some_and(|l| l.starts_with("ok "));
        let ms = if ok {
            s.latency_ms().unwrap_or(f64::INFINITY)
        } else {
            f64::INFINITY
        };
        by_op.entry(p.op).or_default().push(ms);
    }
    by_op
}

struct Rung {
    rate: f64,
    planned: Vec<Planned>,
    samples: Vec<Sample>,
    cpu_ms: f64,
}

impl Rung {
    fn failed(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| !s.response.as_deref().is_some_and(|l| l.starts_with("ok ")))
            .count()
    }

    fn all_latencies(&self) -> Vec<f64> {
        latencies(&self.planned, &self.samples)
            .into_values()
            .flatten()
            .collect()
    }

    /// Every op's tail (or median, when too few samples for a tail)
    /// within the limit, nothing failed, and the generator on time.
    fn meets(&self) -> bool {
        let lateness: Vec<f64> = self.samples.iter().map(Sample::lateness_ms).collect();
        self.failed() == 0
            && percentile(&lateness, 99.0).is_some_and(|l| l <= LATENESS_LIMIT_MS)
            && latencies(&self.planned, &self.samples).values().all(|v| {
                summarize(v).is_some_and(|s| s.tail.map_or(s.p50, |t| t.value) <= LATENCY_LIMIT_MS)
            })
    }

    fn detail(&self) -> Json {
        let mut o = Json::obj();
        let lateness: Vec<f64> = self.samples.iter().map(Sample::lateness_ms).collect();
        o.num("rate_rps", self.rate)
            .set("requests", Json::Int(self.samples.len() as u64))
            .num(
                "failed_share",
                self.failed() as f64 / self.samples.len().max(1) as f64,
            )
            .num("lateness_p50_ms", median(&lateness).unwrap_or(0.0))
            .num(
                "lateness_p99_ms",
                percentile(&lateness, 99.0).unwrap_or(0.0),
            )
            .num(
                "server_cpu_ms_per_request",
                self.cpu_ms / self.samples.len().max(1) as f64,
            );
        if let Some(s) = summarize(&self.all_latencies()) {
            o.set("all_ms", Json::summary(&s));
        }
        for (op, v) in latencies(&self.planned, &self.samples) {
            if let Some(s) = summarize(&v) {
                o.set(&format!("{}_ms", op.name()), Json::summary(&s));
            }
        }
        o
    }
}

fn serving(run: &Run, spec: &ServingSpec) -> Result<Outcome, String> {
    let ex = write_extracts(&run.work.join("data"), run.seed, 1)?;
    let model = run.work.join("pipeline.domd");
    let pipeline = train_artifact(&ex.ds, GRID_STEP, &model)?;
    let base_snapshot = TenantSnapshot::from_dataset(ex.ds.clone());
    let mut v = Verdict::default();

    // Set-up: fresh starts (each with a fresh store) in batches; the last
    // start of the first batch serves the traffic.
    let store_of = |k: usize| spec.store.then(|| run.work.join(format!("store-{k}")));
    let mut start = |k: usize| {
        let args = serve_args(&ex, &model, TENANTS, store_of(k).as_deref());
        start_server(
            run,
            &args,
            &format!("serve-{k}"),
            SETUP_PROBE,
            &base_snapshot,
            &mut v,
        )
    };
    let (mut setups, mut next) = (Setups::default(), 0);
    let mut server = timed_starts(STARTS_PER_BATCH, &mut next, &mut setups, &mut start)?;
    let store = store_of(next - 1);

    // Timed phase: each fixed rate in turn, open loop.
    let mut gen = StreamGen::new(
        Rng::new(run.seed).fork(2),
        &ex.ds,
        &ex.ongoing,
        TENANTS,
        ZIPF_S,
        spec.mix,
    );
    let mut rungs = Vec::new();
    for (r, &rate) in spec.rates.iter().enumerate() {
        let secs = if r == 0 {
            run.seconds * NOMINAL_SHARE
        } else {
            run.seconds * (1.0 - NOMINAL_SHARE) / (spec.rates.len() - 1) as f64
        };
        let planned = gen.take(((rate * secs).round() as usize).max(1));
        let chunks = if r == 0 { NOMINAL_CHUNKS } else { 1 };
        let (mut samples, mut cpu_ms) = (Vec::new(), 0.0);
        for (c, part) in planned.chunks(planned.len().div_ceil(chunks)).enumerate() {
            if r > 0 || c > 0 {
                timed_starts(STARTS_PER_BATCH, &mut next, &mut setups, &mut start)?.kill();
            }
            let lines: Vec<String> = part.iter().map(|p| p.line.clone()).collect();
            let cpu0 = server.usage().cpu_ms;
            samples.extend(server.open_loop(&lines, rate)?);
            cpu_ms += server.usage().cpu_ms - cpu0;
        }
        rungs.push(Rung {
            rate,
            planned,
            samples,
            cpu_ms,
        });
    }
    let usage = server.usage();
    if spec.store {
        // Crash, not shutdown: the durability check below sees only what
        // the acks made durable.
        server.kill();
    } else {
        server.quit()?;
    }
    timed_starts(STARTS_PER_BATCH, &mut next, &mut setups, &mut start)?.kill();

    // Correctness, after the timed phase.
    let planned: Vec<Planned> = rungs
        .iter()
        .flat_map(|r| r.planned.iter().cloned())
        .collect();
    let responses: Vec<Option<String>> = rungs
        .iter()
        .flat_map(|r| r.samples.iter().map(|s| s.response.clone()))
        .collect();
    let reference = Reference {
        pipeline: &pipeline,
        features: FeatureEngine::default(),
    };
    let mut verdict = check_serving(&ex.ds, &reference, TENANTS, &planned, &responses);
    verdict.mismatches.append(&mut v.mismatches);
    let mut detail = Json::obj();
    if let Some(store) = &store {
        let mut recovered = Vec::new();
        for t in 0..TENANTS {
            let (index, _) =
                DurableIndex::<FlatAvlIndex>::recover(&store.join(format!("tenant-{t}")))
                    .map_err(|e| format!("recovering tenant {t}: {e}"))?;
            let want = ex.ds.rccs().len() + verdict.acked_rows[t];
            if index.len() != want {
                verdict.mismatch(format!(
                    "tenant {t}: store recovered {} rows, acked {want}",
                    index.len()
                ));
            }
            recovered.push(Json::Int(index.len() as u64));
        }
        detail.set("recovered_rows", Json::Arr(recovered));
    }
    let ongoing = ex.ongoing.len();

    let nominal = &rungs[0];
    // Each op's median at the nominal rate, combined so that every op
    // moves the figure by its relative change: a pooled median would sit
    // inside one op's band and miss the ops on either side of it.
    let op_medians: Vec<f64> = latencies(&nominal.planned, &nominal.samples)
        .values()
        .filter_map(|v| median(v))
        .collect();
    let op_p50 = geometric_mean(&op_medians).unwrap_or(f64::INFINITY);
    let max_rate = rungs
        .iter()
        .filter(|r| r.meets())
        .map(|r| r.rate)
        .fold(0.0, f64::max);
    detail
        .set("workload", Json::Str(run.workload.clone()))
        .set("seed", Json::Int(run.seed))
        .num("setup_s", median(&setups.wall).unwrap_or(0.0))
        .set("setup_times_s", Json::nums(&setups.wall))
        .set("setup_cpu_s", Json::nums(&setups.cpu))
        .num("max_rate_rps", max_rate);
    // The per-op figures at the nominal rate, named as in the README.
    for (op, v) in latencies(&nominal.planned, &nominal.samples) {
        let base = if op == OpKind::Ingest {
            "ingest_ack"
        } else {
            op.name()
        };
        let Some(s) = summarize(&v) else { continue };
        detail.num(&format!("{base}_p50_ms"), s.p50);
        if let Some(t) = s.tail {
            let mut tail = Json::obj();
            tail.num("value", t.value)
                .num("percentile", t.percentile)
                .set("n", Json::Int(t.n as u64));
            detail.set(&format!("{base}_tail_ms"), tail);
        }
    }
    detail
        .num("op_p50_ms", op_p50)
        .num("latency_limit_ms", LATENCY_LIMIT_MS)
        .num(
            "failed_share",
            nominal.failed() as f64 / nominal.samples.len() as f64,
        )
        .num("peak_rss_mb", usage.peak_rss_mb)
        .set("ongoing_avails", Json::Int(ongoing as u64))
        .set("rates", Json::Arr(rungs.iter().map(Rung::detail).collect()))
        .set("mismatches", Json::first_strings(&verdict.mismatches));
    let op_cpu = rungs.iter().map(|r| r.cpu_ms).sum::<f64>() / planned.len() as f64;
    let attempted = planned.len() + setups.wall.len();
    Ok(Outcome {
        correct: verdict.correct(),
        attempted: attempted as u64,
        failed: verdict.failed as u64,
        metrics: vec![
            ("setup_s", median(&setups.wall).unwrap_or(0.0), "s"),
            ("op_cpu_ms", op_cpu, "ms"),
            ("peak_rss_mb", usage.peak_rss_mb, "MB"),
        ],
        detail,
    })
}

fn restart(run: &Run) -> Result<Outcome, String> {
    let ex = write_extracts(&run.work.join("data"), run.seed, RESTART_SCALE)?;
    // The artifact only has to load: restart answers status queries.
    let model = run.work.join("pipeline.domd");
    let ids: Vec<_> = ex.ds.avails().iter().take(60).map(|a| a.id).collect();
    let pipeline = train_artifact(&ex.ds.select_avails(&ids), 50.0, &model)?;
    let base_snapshot = TenantSnapshot::from_dataset(ex.ds.clone());
    let mut v = Verdict::default();
    let store = |k: usize| run.work.join(format!("store-{k}"));

    // Set-up: the initial store build from the 4x extracts, each in a
    // fresh store.
    let mut setup_mismatches = Verdict::default();
    let mut start = |k: usize| {
        let args = serve_args(&ex, &model, 1, Some(&store(k)));
        start_server(
            run,
            &args,
            &format!("init-{k}"),
            ALL_ROWS_PROBE,
            &base_snapshot,
            &mut setup_mismatches,
        )
    };
    let (mut setups, mut next) = (Setups::default(), 0);
    let mut server = timed_starts(STARTS_PER_BATCH, &mut next, &mut setups, &mut start)?;
    let args = serve_args(&ex, &model, 1, Some(&store(next - 1)));

    // A fixed number of acked ingests into the WAL.
    let mix = Mix {
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
    .take(RESTART_INGESTS);
    let mut responses = Vec::new();
    for p in &planned {
        responses.push(Some(server.call(&p.line)?));
    }
    let ingest_failed = responses
        .iter()
        .filter(|r| !r.as_deref().is_some_and(|l| l.starts_with("ok ")))
        .count();
    let reference = Reference {
        pipeline: &pipeline,
        features: FeatureEngine::default(),
    };
    let verdict = check_serving(&ex.ds, &reference, 1, &planned, &responses);
    v.mismatches.extend(verdict.mismatches.iter().cloned());
    let acked = TenantSnapshot::from_dataset(verdict.dataset_with_acks(&ex.ds, 0));
    let query = probe_query(ALL_ROWS_PROBE)?;

    // Timed phase: kill -9, restart on the same store, first answer; one
    // more initial store build after each restart.
    let t_end = Instant::now() + std::time::Duration::from_secs_f64(run.seconds);
    let (mut restarts, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    while restarts.len() < MIN_RESTARTS || Instant::now() < t_end {
        let k = restarts.len();
        let t_kill = Instant::now();
        server.kill();
        server = Server::spawn(
            &run.domd,
            &args,
            &run.work.join(format!("restart-{k}.stderr")),
        )?;
        let line = server.call(ALL_ROWS_PROBE)?;
        restarts.push(t_kill.elapsed().as_secs_f64() * 1e3);
        let usage = server.usage();
        cpu.push(usage.cpu_ms);
        rss.push(usage.peak_rss_mb);
        if !line.starts_with("ok ") || !status_matches(&line, &acked, &query) {
            v.mismatch(format!(
                "restart {k}: first answer {line:?} misses acked rows"
            ));
        }
        timed_starts(1, &mut next, &mut setups, &mut start)?.kill();
    }
    server.kill();
    v.mismatches.append(&mut setup_mismatches.mismatches);

    let mut detail = Json::obj();
    detail
        .set("workload", Json::Str(run.workload.clone()))
        .set("seed", Json::Int(run.seed))
        .set("rows", Json::Int(acked.dataset.rccs().len() as u64))
        .set(
            "acked_ingests",
            Json::Int((planned.len() - ingest_failed) as u64),
        )
        .num("setup_s", median(&setups.wall).unwrap_or(0.0))
        .set("setup_times_s", Json::nums(&setups.wall))
        .set("setup_cpu_s", Json::nums(&setups.cpu))
        .num("restart_s", median(&restarts).unwrap_or(0.0) / 1e3)
        .set("restarts", Json::Int(restarts.len() as u64))
        .set("restart_ms", Json::nums(&restarts))
        .num("peak_rss_mb", median(&rss).unwrap_or(0.0))
        .num("failed_share", ingest_failed as f64 / planned.len() as f64)
        .set("mismatches", Json::first_strings(&v.mismatches));
    Ok(Outcome {
        correct: v.correct(),
        attempted: (setups.wall.len() + planned.len() + restarts.len()) as u64,
        failed: ingest_failed as u64,
        metrics: vec![
            ("setup_s", median(&setups.wall).unwrap_or(0.0), "s"),
            ("op_cpu_ms", median(&cpu).unwrap_or(0.0), "ms"),
            ("peak_rss_mb", median(&rss).unwrap_or(0.0), "MB"),
        ],
        detail,
    })
}

/// `Average` row, `MAE 100th` column of `domd evaluate`'s table.
fn average_mae(table: &str) -> Option<String> {
    let row = table
        .lines()
        .find(|l| l.trim_start().starts_with("Average"))?;
    Some(row.split('|').nth(3)?.trim().to_string())
}

fn retrain(run: &Run) -> Result<Outcome, String> {
    let ex = write_extracts(&run.work.join("data"), run.seed, 1)?;
    let data = ex.dir.display().to_string();
    let mut v = Verdict::default();
    let t_end = Instant::now() + std::time::Duration::from_secs_f64(run.seconds);
    let (mut walls, mut cpu, mut rss, mut maes) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut artifact: Option<(PathBuf, Vec<u8>)> = None;

    // Set-up: deploying the retrained artifact to a server configured like
    // the traffic workloads', spawn → first predict; checked at the end.
    let deployed = run.work.join("pipeline-0.domd");
    let avail = ex.ongoing[0];
    let probe = format!("predict tenant=0 avail={} t=50", avail.0);
    let mut deploy_answers: Vec<(usize, String)> = Vec::new();
    let mut deploy = |k: usize| {
        let t0 = Instant::now();
        let mut server = Server::spawn(
            &run.domd,
            &serve_args(&ex, &deployed, TENANTS, None),
            &run.work.join(format!("deploy-{k}.stderr")),
        )?;
        let line = server.call(&probe)?;
        let took = t0.elapsed().as_secs_f64();
        deploy_answers.push((k, line));
        Ok((server, took))
    };
    let (mut setups, mut next) = (Setups::default(), 0);

    while walls.len() < MIN_TRAINS || Instant::now() < t_end {
        let k = walls.len();
        let out = run.work.join(format!("pipeline-{k}.domd"));
        let args: Vec<String> = [
            "train",
            "--data-dir",
            &data,
            "--out",
            &out.display().to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (wall, peak, cpu_ms, _) = run_to_end(
            &run.domd,
            &args,
            &run.work.join(format!("train-{k}.stderr")),
        )?;
        walls.push(wall * 1e3);
        cpu.push(cpu_ms);
        rss.push(peak);
        let eval: Vec<String> = [
            "evaluate",
            "--data-dir",
            &data,
            "--model",
            &out.display().to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (_, _, _, table) =
            run_to_end(&run.domd, &eval, &run.work.join(format!("eval-{k}.stderr")))?;
        maes.push(average_mae(&table).ok_or("evaluate printed no Average row")?);
        let bytes = std::fs::read(&out).map_err(|e| e.to_string())?;
        match &artifact {
            None => artifact = Some((out, bytes)),
            Some((_, first)) if *first != bytes => {
                v.mismatch(format!("train {k}: artifact differs from train 0"))
            }
            Some(_) => {}
        }
        timed_starts(STARTS_PER_BATCH, &mut next, &mut setups, &mut deploy)?.kill();
    }
    if maes.iter().any(|m| *m != maes[0]) {
        v.mismatch(format!("evaluate is not deterministic: {maes:?}"));
    }
    let (model, _) = artifact.ok_or("no training run")?;

    // Reference: the same table computed in process from the artifact.
    let pipeline = domd_core::read_pipeline_file(&model).map_err(|e| e.to_string())?;
    let inputs = PipelineInputs::build(&ex.ds, pipeline.config.grid_step);
    let table = EvalTable::compute(&pipeline, &inputs, &ex.ds.split(SPLIT_SEED).test);
    let mae: f64 = maes[0]
        .parse()
        .map_err(|e| format!("bad MAE {:?}: {e}", maes[0]))?;
    if format!("{:.2}", table.average.mae_100) != maes[0] {
        v.mismatch(format!(
            "evaluate MAE {} differs from in-process {:.4}",
            maes[0], table.average.mae_100
        ));
    }

    let want = Reference {
        pipeline: &pipeline,
        features: FeatureEngine::default(),
    }
    .predict_payload(&ex.ds, avail, 50.0);
    for (k, line) in &deploy_answers {
        if !line.ends_with(&want) || !line.starts_with("ok ") {
            v.mismatch(format!(
                "deploy {k}: {line:?} differs from the reference {want:?}"
            ));
        }
    }

    let mut detail = Json::obj();
    detail
        .set("workload", Json::Str(run.workload.clone()))
        .set("seed", Json::Int(run.seed))
        .num("setup_s", median(&setups.wall).unwrap_or(0.0))
        .set("setup_times_s", Json::nums(&setups.wall))
        .set("setup_cpu_s", Json::nums(&setups.cpu))
        .num("train_s", median(&walls).unwrap_or(0.0) / 1e3)
        .set("trains", Json::Int(walls.len() as u64))
        .set("train_ms", Json::nums(&walls))
        .num("test_mae_days", mae)
        .num("peak_rss_mb", median(&rss).unwrap_or(0.0))
        .num("failed_share", 0.0)
        .set("mismatches", Json::first_strings(&v.mismatches));
    Ok(Outcome {
        correct: v.correct(),
        attempted: (walls.len() * 2 + setups.wall.len()) as u64,
        failed: 0,
        metrics: vec![
            ("setup_s", median(&setups.wall).unwrap_or(0.0), "s"),
            ("op_cpu_ms", median(&cpu).unwrap_or(0.0), "ms"),
            ("peak_rss_mb", median(&rss).unwrap_or(0.0), "MB"),
        ],
        detail,
    })
}
