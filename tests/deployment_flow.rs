//! Integration test of the deployment loop the `domd` CLI drives:
//! generate → export CSV → re-ingest → train → persist artifact → reload →
//! answer queries — with bit-identical behaviour across every hop.

use domd::core::{
    backtest, load_pipeline, save_pipeline, BacktestConfig, DomdQueryEngine, PipelineConfig,
    PipelineInputs, TrainedPipeline,
};
use domd::data::csv::{read_dataset, write_avails, write_rccs};
use domd::data::{generate, GeneratorConfig};

fn quick_config() -> PipelineConfig {
    let mut c = PipelineConfig::paper_final();
    c.gbt.n_estimators = 60;
    c.k = 10;
    c.grid_step = 25.0;
    c
}

#[test]
fn csv_hop_preserves_training_outcome() {
    let ds = generate(&GeneratorConfig { n_avails: 50, target_rccs: 4000, scale: 1, seed: 77 });
    // Export + reingest, as a deployment receiving extracts would.
    let ds2 = read_dataset(&write_avails(&ds), &write_rccs(&ds)).expect("roundtrip");
    let split = ds.split(1);
    let cfg = quick_config();
    let p1 = TrainedPipeline::fit(&PipelineInputs::build(&ds, 25.0), &split.train, &cfg);
    let p2 = TrainedPipeline::fit(&PipelineInputs::build(&ds2, 25.0), &split.train, &cfg);
    // Identical data in, identical models out.
    let inputs = PipelineInputs::build(&ds, 25.0);
    assert_eq!(
        p1.predict_steps(&inputs, &split.test).as_slice(),
        p2.predict_steps(&inputs, &split.test).as_slice(),
    );
}

#[test]
fn artifact_hop_preserves_query_answers() {
    let ds = generate(&GeneratorConfig { n_avails: 50, target_rccs: 4000, scale: 1, seed: 78 });
    let split = ds.split(1);
    let inputs = PipelineInputs::build(&ds, 25.0);
    let pipeline = TrainedPipeline::fit(&inputs, &split.train, &quick_config());

    let artifact = save_pipeline(&pipeline);
    let restored = load_pipeline(&artifact).expect("artifact parses");

    let q1 = DomdQueryEngine::new(&ds, &pipeline);
    let q2 = DomdQueryEngine::new(&ds, &restored);
    for &avail in split.test.iter().take(5) {
        for t_star in [0.0, 40.0, 80.0, 120.0] {
            let a1 = q1.query_logical(avail, t_star).expect("known avail");
            let a2 = q2.query_logical(avail, t_star).expect("known avail");
            assert_eq!(a1.estimates.len(), a2.estimates.len());
            for (e1, e2) in a1.estimates.iter().zip(&a2.estimates) {
                assert_eq!(e1.t_star, e2.t_star);
                assert_eq!(
                    e1.estimated_delay.to_bits(),
                    e2.estimated_delay.to_bits(),
                    "avail {avail} t* {t_star}"
                );
            }
        }
    }
}

#[test]
fn backtest_runs_on_generated_history() {
    let ds = generate(&GeneratorConfig { n_avails: 60, target_rccs: 5000, scale: 1, seed: 79 });
    let mut pipeline = quick_config();
    pipeline.grid_step = 50.0;
    let cfg = BacktestConfig { pipeline, min_train: 20, eval_every_days: 500 };
    let points = backtest(&ds, &cfg);
    assert!(!points.is_empty());
    let rendered = domd::core::backtest::render(&points);
    assert!(rendered.contains("overall MAE"));
}

#[test]
fn artifact_parser_never_panics_on_garbage() {
    // Deterministic fuzz over byte-level corruptions of a real artifact.
    let ds = generate(&GeneratorConfig { n_avails: 20, target_rccs: 1200, scale: 1, seed: 80 });
    let split = ds.split(1);
    let inputs = PipelineInputs::build(&ds, 50.0);
    let mut cfg = quick_config();
    cfg.grid_step = 50.0;
    cfg.gbt.n_estimators = 10;
    let pipeline = TrainedPipeline::fit(&inputs, &split.train, &cfg);
    let artifact = save_pipeline(&pipeline);

    // Truncations at many offsets.
    for cut in (0..artifact.len()).step_by(997) {
        let _ = load_pipeline(&artifact[..cut]);
    }
    // Line deletions and swaps.
    let lines: Vec<&str> = artifact.lines().collect();
    for victim in (0..lines.len()).step_by(313) {
        let mut mutated = lines.clone();
        mutated.remove(victim);
        let _ = load_pipeline(&mutated.join("\n"));
    }
    // Token garbling.
    for (i, repl) in [(50, "NaNx"), (200, "-"), (400, "999999999999999999999")] {
        if i < lines.len() {
            let mut mutated = lines.clone();
            let owned = format!("{} {repl}", mutated[i]);
            mutated[i] = &owned;
            let _ = load_pipeline(&mutated.join("\n"));
        }
    }
}

/// CRC-32 and byte length of the `paper_final` artifact trained on the
/// seeded 70-avail dataset below (grid step 25, split seed 7, as
/// `domd train` would). Recorded from the sort-per-node exact-greedy
/// trainer; any change to split search, boosting arithmetic or the
/// artifact format that moves a single bit fails here.
const PINNED_ARTIFACT_CRC32: u32 = 0xf6e5_7293;
const PINNED_ARTIFACT_LEN: usize = 617_087;

#[test]
fn paper_final_artifact_matches_pinned_golden() {
    let ds = generate(&GeneratorConfig { n_avails: 70, target_rccs: 6000, scale: 1, seed: 5 });
    let split = ds.split(7);
    let mut cfg = PipelineConfig::paper_final();
    cfg.grid_step = 25.0;
    let inputs = PipelineInputs::build(&ds, cfg.grid_step);
    let artifact = save_pipeline(&TrainedPipeline::fit(&inputs, &split.train, &cfg));
    let crc = domd::storage::crc::crc32(artifact.as_bytes());
    assert_eq!(
        (crc, artifact.len()),
        (PINNED_ARTIFACT_CRC32, PINNED_ARTIFACT_LEN),
        "trained artifact drifted from the pinned golden (crc32 {crc:#010x}, {} bytes)",
        artifact.len()
    );
}
