//! Seeded inputs: the NMD extracts, the pipeline artifact and the request
//! streams. The program under test only ever sees these files and lines.

use std::path::{Path, PathBuf};

use domd_core::{PipelineConfig, PipelineInputs, TrainedPipeline};
use domd_data::csv as nmd_csv;
use domd_data::rcc::{Rcc, RccId, RccType, Swlin};
use domd_data::{censor_ongoing, generate, AvailId, Dataset, GeneratorConfig};
use domd_serve::IngestRow;

use crate::rng::{zipf_weights, Rng};

/// Paper-scale extract sizes (Table 5).
pub const N_AVAILS: usize = 200;
pub const TARGET_RCCS: usize = 52_959;
/// The grid step `domd train` uses by default (11 step models).
pub const GRID_STEP: f64 = 10.0;
/// The split seed `domd train` and `domd evaluate` use by default.
pub const SPLIT_SEED: u64 = 7;

/// Extracts on disk plus the dataset exactly as the program parses it.
pub struct Extracts {
    pub dir: PathBuf,
    pub avails_csv: String,
    pub rccs_csv: String,
    pub ds: Dataset,
    /// Avails censored to "ongoing" (no actual end date).
    pub ongoing: Vec<AvailId>,
}

/// Generates paper-scale extracts (`scale` multiplies the RCC rows), and
/// censors the fifth of the avails that started last to ongoing, each at
/// its own point of progress, so that `alert` has avails to sweep.
/// `domd generate` alone never writes an ongoing avail.
pub fn write_extracts(dir: &Path, seed: u64, scale: u32) -> Result<Extracts, String> {
    let full = generate(&GeneratorConfig {
        n_avails: N_AVAILS,
        target_rccs: TARGET_RCCS,
        scale,
        seed,
    });
    let mut by_start: Vec<_> = full
        .avails()
        .iter()
        .map(|a| (a.actual_start, a.id))
        .collect();
    by_start.sort();
    let mut rng = Rng::new(seed).fork(1);
    let mut ds = full.clone();
    let mut ongoing = Vec::new();
    for &(_, id) in by_start.iter().rev().take(N_AVAILS / 5) {
        let a = full.avail(id).ok_or("generated avail vanished")?;
        let progress = rng.range(0.2, 0.9);
        let as_of = a.actual_start + (progress * a.planned_duration() as f64) as i32;
        ds = censor_ongoing(&ds, &[id], as_of).0;
        ongoing.push(id);
    }
    ongoing.sort();
    let avails_csv = nmd_csv::write_avails(&ds);
    let rccs_csv = nmd_csv::write_rccs(&ds);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    std::fs::write(dir.join("avails.csv"), &avails_csv).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("rccs.csv"), &rccs_csv).map_err(|e| e.to_string())?;
    let ds = nmd_csv::read_dataset(&avails_csv, &rccs_csv).map_err(|e| e.to_string())?;
    Ok(Extracts {
        dir: dir.to_path_buf(),
        avails_csv,
        rccs_csv,
        ds,
        ongoing,
    })
}

/// Trains the artifact the way `domd train` does (paper-final config,
/// split seed 7) on `ds`, writes it to `path`, and returns the pipeline
/// as read back from the file, which is what the server loads.
pub fn train_artifact(
    ds: &Dataset,
    grid_step: f64,
    path: &Path,
) -> Result<TrainedPipeline, String> {
    let mut config = PipelineConfig::paper_final();
    config.grid_step = grid_step;
    config.validate().map_err(|e| e.to_string())?;
    let split = ds.split(SPLIT_SEED);
    let inputs = PipelineInputs::build(ds, grid_step);
    let pipeline = TrainedPipeline::fit(&inputs, &split.train, &config);
    domd_core::write_pipeline_file(path, &pipeline).map_err(|e| e.to_string())?;
    domd_core::read_pipeline_file(path).map_err(|e| e.to_string())
}

/// The RCC an ingested row becomes once the snapshot assigns it `id`.
pub fn rcc_of(id: u32, r: &IngestRow) -> Rcc {
    Rcc {
        id: RccId(id),
        avail: r.avail,
        rcc_type: r.rcc_type,
        swlin: r.swlin,
        created: r.created,
        settled: r.settled,
        amount: r.amount,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    Status,
    Predict,
    Alert,
    Ingest,
}

impl OpKind {
    pub const ALL: [OpKind; 4] = [
        OpKind::Status,
        OpKind::Predict,
        OpKind::Alert,
        OpKind::Ingest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Status => "status",
            OpKind::Predict => "predict",
            OpKind::Alert => "alert",
            OpKind::Ingest => "ingest",
        }
    }
}

/// One request line plus what the checks need to know about it.
#[derive(Debug, Clone)]
pub struct Planned {
    pub op: OpKind,
    pub tenant: usize,
    pub line: String,
    /// The rows of an ingest batch (empty for reads).
    pub rows: Vec<IngestRow>,
}

/// Operation shares of a traffic mix, in percent.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub status: f64,
    pub predict: f64,
    pub alert: f64,
    pub ingest: f64,
}

/// Seeded generator of one workload's request stream.
pub struct StreamGen<'a> {
    rng: Rng,
    ds: &'a Dataset,
    ongoing: &'a [AvailId],
    mix: Mix,
    tenant_weights: Vec<f64>,
    /// Avails each tenant ingested into most recently (newest last);
    /// predicts ask about these when there are any.
    recent: Vec<Vec<AvailId>>,
    /// Ops still to hand out in the current deck.
    deck: Vec<OpKind>,
}

const RECENT: usize = 8;

impl<'a> StreamGen<'a> {
    pub fn new(
        rng: Rng,
        ds: &'a Dataset,
        ongoing: &'a [AvailId],
        tenants: usize,
        zipf_s: f64,
        mix: Mix,
    ) -> StreamGen<'a> {
        StreamGen {
            rng,
            ds,
            ongoing,
            mix,
            tenant_weights: zipf_weights(tenants, zipf_s),
            recent: vec![Vec::new(); tenants],
            deck: Vec::new(),
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<Planned> {
        (0..n).map(|_| self.next()).collect()
    }

    /// The next op, dealt from shuffled decks of 100 that hold each op
    /// exactly its percentage of times, so every stream of a workload has
    /// the same mix, not just the same expected mix.
    fn next_op(&mut self) -> OpKind {
        if self.deck.is_empty() {
            let m = self.mix;
            for (op, share) in OpKind::ALL
                .into_iter()
                .zip([m.status, m.predict, m.alert, m.ingest])
            {
                self.deck
                    .extend(std::iter::repeat_n(op, share.round() as usize));
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i + 1);
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().unwrap_or(OpKind::Status)
    }

    pub fn next(&mut self) -> Planned {
        let op = self.next_op();
        let tenant = self.rng.weighted(&self.tenant_weights);
        match op {
            OpKind::Status => self.status(tenant),
            OpKind::Predict => {
                let avail = match self.recent[tenant].len() {
                    n if n > 0 => self.recent[tenant][self.rng.below(n)],
                    _ if self.rng.unit() < 0.5 => *self.rng.pick(self.ongoing),
                    _ => self.rng.pick(self.ds.avails()).id,
                };
                // A 2.5-point grid of query times keeps answers comparable
                // across requests without making them repeat often.
                let t = 5.0 + 2.5 * self.rng.below(39) as f64;
                let line = format!("predict tenant={tenant} avail={} t={t}", avail.0);
                Planned {
                    op,
                    tenant,
                    line,
                    rows: Vec::new(),
                }
            }
            OpKind::Alert => {
                let t = 20.0 + 10.0 * self.rng.below(9) as f64;
                let k = *self.rng.pick(&[5, 10]);
                let min = *self.rng.pick(&[0, 10]);
                let line = format!("alert tenant={tenant} t={t} k={k} min={min}");
                Planned {
                    op,
                    tenant,
                    line,
                    rows: Vec::new(),
                }
            }
            OpKind::Ingest => self.ingest(tenant),
        }
    }

    fn status(&mut self, tenant: usize) -> Planned {
        let t = (self.rng.range(0.0, 110.0) * 10.0).round() / 10.0;
        let status = ["active", "settled", "created", "not-created"]
            [self.rng.weighted(&[35.0, 20.0, 35.0, 10.0])];
        let mut line = format!("status tenant={tenant} t={t:.1} status={status}");
        match self.rng.weighted(&[40.0, 30.0, 30.0]) {
            0 => {}
            1 => line.push_str(&format!(" type={}", ["G", "NW", "NG"][self.rng.below(3)])),
            _ => {
                // A SWLIN node at full depth. `domd serve` mis-handles
                // shallower nodes (`swlin=CODE:LEN` with LEN < 8 passes the
                // whole code as the prefix; the index then overflows and
                // panics or answers for the wrong subtree), so they are
                // left out until the protocol is fixed.
                let swlin = self.rng.pick(self.ds.rccs()).swlin;
                line.push_str(&format!(" swlin={swlin}:8"));
            }
        }
        Planned {
            op: OpKind::Status,
            tenant,
            line,
            rows: Vec::new(),
        }
    }

    fn ingest(&mut self, tenant: usize) -> Planned {
        let n = 1 + self.rng.below(3);
        let mut rows = Vec::with_capacity(n);
        let mut line = format!("ingest tenant={tenant}");
        for _ in 0..n {
            let avail = *self.rng.pick(self.ongoing);
            let Some(a) = self.ds.avail(avail) else {
                continue;
            };
            let rcc_type = [RccType::Growth, RccType::NewWork, RccType::NewGrowth]
                [self.rng.weighted(&[60.0, 25.0, 15.0])];
            let swlin: Swlin = self.rng.pick(self.ds.rccs()).swlin;
            let created =
                a.actual_start + self.rng.below(a.planned_duration().max(1) as usize) as i32;
            let settled = created + self.rng.below(60) as i32;
            let amount = (self.rng.range(50.0, 20_000.0) * 100.0).round() / 100.0;
            line.push_str(&format!(
                " row={}:{}:{swlin}:{created}:{settled}:{amount}",
                avail.0,
                rcc_type.code()
            ));
            rows.push(IngestRow {
                avail,
                rcc_type,
                swlin,
                created,
                settled,
                amount,
            });
            let recent = &mut self.recent[tenant];
            recent.retain(|x| *x != avail);
            recent.push(avail);
            if recent.len() > RECENT {
                recent.remove(0);
            }
        }
        Planned {
            op: OpKind::Ingest,
            tenant,
            line,
            rows,
        }
    }
}
