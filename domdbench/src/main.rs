//! `domdbench` — the repository's benchmark. For one workload and seed it
//! generates the inputs, drives the real `domd` binary over its line
//! protocol (`--trace 0`, end-to-end metrics) or replays the same stream
//! in process with spans around every layer call (`--trace 1`, per-layer
//! metrics), checks every answer, and prints one JSON result line last.
//!
//! ```text
//! domdbench --workload read_mix --seed 1 --seconds 10 --trace 0 --domd target/release/domd
//! ```
//!
//! `run.sh` next to this package builds both binaries and passes `--domd`.
//! See `README.md` in this directory for the workloads and metrics.

mod check;
mod client;
mod inputs;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use stats::Json;

/// Hard stop for one run: every child is killed and no result printed.
const WATCHDOG: Duration = Duration::from_secs(170);

/// One invocation's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub domd: PathBuf,
    /// Scratch directory for this run's files, removed at the end.
    pub work: PathBuf,
}

/// What a run measured. `metrics` are (name, value, unit).
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth keeping: per-op and per-rate figures,
    /// sample counts, the first mismatches.
    pub detail: Json,
}

fn parse_args() -> Result<Run, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<String, String> {
        let i = raw
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        raw.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let domd = PathBuf::from(get("--domd")?);
    if !domd.is_file() {
        return Err(format!("no domd binary at {}", domd.display()));
    }
    let work =
        PathBuf::from(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
        domd,
        work,
    })
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("domdbench: {e}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("domdbench: run exceeded {WATCHDOG:?}; stopping");
        client::kill_all_children();
        std::process::exit(3);
    });
    if let Err(e) = std::fs::create_dir_all(&run.work) {
        eprintln!("domdbench: creating {}: {e}", run.work.display());
        return ExitCode::from(3);
    }
    // A panic must still stop the children and remove the scratch files.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if run.trace {
            trace::run(&run)
        } else {
            workloads::run(&run)
        }
    }))
    .unwrap_or_else(|_| Err("the benchmark panicked".into()));
    client::kill_all_children();
    let _ = std::fs::remove_dir_all(&run.work);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(out) => {
            println!("{}", out.detail.render());
            let mut metrics = Json::obj();
            for (name, value, unit) in &out.metrics {
                let mut m = Json::obj();
                m.num("value", *value)
                    .set("unit", Json::Str(unit.to_string()));
                metrics.set(name, m);
            }
            let mut last = Json::obj();
            last.set("correct", Json::Bool(out.correct))
                .set("attempted", Json::Int(out.attempted))
                .set("failed", Json::Int(out.failed))
                .set("metrics", metrics);
            println!("{}", last.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("domdbench: {}: {e}", run.workload);
            ExitCode::from(1)
        }
    }
}
