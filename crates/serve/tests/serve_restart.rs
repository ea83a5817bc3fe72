//! Kill–restart chaos harness: `domd serve` must be restart-survivable
//! from the store alone.
//!
//! The contract under test, at every seeded kill point:
//!
//! * **Acked ⇒ visible** — an ingest answered `Reply::Ingested` under
//!   fsync-on-ack ([`ServeConfig::sync_each_ingest`]) survives a kill at
//!   *any* later WAL byte offset: after restart the row is served again.
//! * **Rebuild is bit-identical to the live epoch** — the snapshot
//!   bulk-built from the recovered store equals the *live* snapshot that
//!   acked the same rows (the extracts' snapshot plus every surviving
//!   acked batch applied through `ingest_batch`): dataset order, arena
//!   rows, and engine aggregates — unfiltered, type-filtered and
//!   SWLIN-filtered at several depths, every status — compare equal down
//!   to the `f64` bit patterns. It also equals a reference built directly
//!   from the store's rows in row-id order.
//! * **Damage degrades to a prefix, never to garbage** — a bit-flipped
//!   or torn WAL recovers the longest valid prefix and the rebuilt
//!   snapshot still bit-matches the live epoch that acked that prefix.
//! * **Pre-v2 stores still recover unmigrated** — projection-only rows
//!   resolve against the extracts when they provably match, and refuse
//!   with a `migrate-store`-naming error when they do not.
//!
//! The kill itself is simulated at the storage layer: the serving core
//! runs with fsync-on-ack, the process "dies" by dropping the core
//! without the clean-shutdown sync, and the store directory is then
//! truncated / damaged at a chosen byte — exactly the on-disk states a
//! `kill -9` mid-append can leave behind.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use domd_core::{PipelineConfig, PipelineInputs, TrainedPipeline};
use domd_data::rcc::{Rcc, RccStatus, RccType, Swlin};
use domd_data::{corrupt_bytes, generate, Avail, Dataset, GeneratorConfig};
use domd_features::FeatureEngine;
use domd_index::{
    project_dataset, DurableIndex, FlatAvlIndex, RowId, StatusQuery,
};
use domd_serve::{
    rebuild_tenant, Op, Reply, ServeConfig, ServeCore, SharedModel, TenantSnapshot,
};
use domd_storage::RECORD_LEN_V2;

fn base_dataset() -> Dataset {
    generate(&GeneratorConfig { n_avails: 8, target_rccs: 400, scale: 1, seed: 23 })
}

fn model() -> SharedModel {
    static PIPELINE: OnceLock<Arc<TrainedPipeline>> = OnceLock::new();
    let pipeline = Arc::clone(PIPELINE.get_or_init(|| {
        let ds = base_dataset();
        let inputs = PipelineInputs::build(&ds, 50.0);
        let split = ds.split(1);
        let mut cfg = PipelineConfig::default0();
        cfg.k = 6;
        cfg.grid_step = 50.0;
        cfg.gbt.n_estimators = 10;
        Arc::new(TrainedPipeline::fit(&inputs, &split.train, &cfg))
    }));
    SharedModel { pipeline, features: FeatureEngine::default() }
}

fn scratch(label: &str) -> PathBuf {
    let d =
        std::env::temp_dir().join(format!("domd-serve-restart-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A serving core in the durable configuration under test: fsync-on-ack,
/// so an ack is a durability promise a kill cannot revoke.
fn durable_core(snapshot: TenantSnapshot, index: DurableIndex<FlatAvlIndex>) -> ServeCore {
    ServeCore::new(
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            sync_each_ingest: true,
            ..ServeConfig::default()
        },
        domd_serve::ManualClock::new(),
        model(),
        vec![snapshot],
    )
    .with_durable(0, index)
    .expect("tenant 0")
}

/// The `salt`-th acked ingest: avail, type and amount vary with the salt
/// (amounts are not exact binary fractions, so a different summation
/// order shows in the aggregate bits); the SWLIN `1000 + salt` names the
/// row.
fn ingest_op(ds: &Dataset, salt: u32) -> Op {
    let a = &ds.avails()[salt as usize % ds.avails().len()];
    Op::ingest_one(
        a.id,
        RccType::ALL[salt as usize % 3],
        Swlin::from_packed(1_000 + salt).expect("valid packed swlin"),
        a.actual_start + 2,
        a.actual_start + 9,
        12.3 + 0.7 * f64::from(salt),
    )
}

/// Runs `n` ingests, panicking unless every one is acked.
fn ack_ingests(core: &ServeCore, ds: &Dataset, n: u32, salt: u32) {
    for i in 0..n {
        let req = core.stamp(u64::from(i), 0, ingest_op(ds, salt + i));
        match core.serve_one(req).outcome {
            Ok(Reply::Ingested { .. }) => {}
            other => panic!("ingest {i} not acked: {other:?}"),
        }
    }
}

/// Copies a (flat) store directory — the restart starts from this copy,
/// so one acked session can be killed at many different byte offsets.
fn copy_store(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).expect("create store copy");
    for entry in std::fs::read_dir(src).expect("read store dir") {
        let entry = entry.expect("store dir entry");
        if entry.path().is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy store file");
        }
    }
}

/// Reference snapshot over exactly the recovered store's rows: every
/// live row must carry its full payload (the store alone suffices), taken
/// in row-id order straight from the store's entries.
fn reference_for(ds: &Dataset, index: &DurableIndex<FlatAvlIndex>) -> TenantSnapshot {
    let rows: Vec<(Rcc, &Avail)> = index
        .entries_full()
        .into_iter()
        .map(|s| {
            let rcc = s.rcc.expect("recovered row carries a full payload");
            let avail = ds.avail(rcc.avail).expect("row's avail is in the extracts");
            (rcc, avail)
        })
        .collect();
    TenantSnapshot::from_rows(ds.avails().to_vec(), rows)
}

/// The live oracle: the snapshot a server that never restarted holds
/// after acking the ingests `salts` in order — the extracts' snapshot
/// plus each acked one-row batch applied through `ingest_batch`.
fn live_for(ds: &Dataset, salts: impl IntoIterator<Item = u32>) -> TenantSnapshot {
    let mut live = TenantSnapshot::from_dataset(ds.clone());
    for salt in salts {
        let Op::Ingest { rows } = ingest_op(ds, salt) else { unreachable!("ingest op") };
        live.ingest_batch(&rows).expect("live ingest applies");
    }
    live
}

/// The Status Queries the equivalence checks run: every status and
/// type filter, with and without a SWLIN node at depths 1, 3, 5 and 8
/// taken from the first, middle and last arena rows.
fn probe_queries(snap: &TenantSnapshot) -> Vec<StatusQuery> {
    let arena = snap.engine.arena();
    let mut swlins = vec![None];
    if !arena.is_empty() {
        let last = arena.len() as RowId - 1;
        for row in [0, last / 2, last] {
            let code = arena.swlin(row).packed();
            for len in [1u32, 3, 5, 8] {
                swlins.push(Some((code / 10u32.pow(8 - len), len)));
            }
        }
    }
    let types = [None, Some(RccType::Growth), Some(RccType::NewWork), Some(RccType::NewGrowth)];
    let statuses =
        [RccStatus::Active, RccStatus::Settled, RccStatus::Created, RccStatus::NotCreated];
    let mut out = Vec::new();
    for &status in &statuses {
        for t_star in [0.0, 25.0, 60.0, 110.0] {
            for &rcc_type in &types {
                for &swlin_prefix in &swlins {
                    out.push(StatusQuery { rcc_type, swlin_prefix, status, t_star });
                }
            }
        }
    }
    out
}

/// Bit-level equivalence of two snapshots: dataset rows, arena rows, and
/// engine aggregates over [`probe_queries`].
fn assert_bit_identical(rebuilt: &TenantSnapshot, reference: &TenantSnapshot, ctx: &str) {
    assert_eq!(rebuilt.next_rcc(), reference.next_rcc(), "{ctx}: next_rcc");
    assert_eq!(rebuilt.dataset.rccs().len(), reference.dataset.rccs().len(), "{ctx}: rows");
    for (x, y) in rebuilt.dataset.rccs().iter().zip(reference.dataset.rccs()) {
        assert_eq!(x.id, y.id, "{ctx}: dataset order");
        assert_eq!(x.amount.to_bits(), y.amount.to_bits(), "{ctx}: amount bits");
        assert_eq!(x.swlin, y.swlin, "{ctx}: swlin");
    }
    let (ra, fa) = (rebuilt.engine.arena(), reference.engine.arena());
    assert_eq!(ra.len(), fa.len(), "{ctx}: arena");
    for row in 0..ra.len() as RowId {
        let (a, b) = (ra.logical(row), fa.logical(row));
        assert_eq!(ra.rcc_id(row), fa.rcc_id(row), "{ctx}: arena order at {row}");
        assert_eq!(a.avail, b.avail, "{ctx}: avail at {row}");
        assert_eq!(a.start.to_bits(), b.start.to_bits(), "{ctx}: start bits at {row}");
        assert_eq!(a.end.to_bits(), b.end.to_bits(), "{ctx}: end bits at {row}");
        assert_eq!(ra.amount(row).to_bits(), fa.amount(row).to_bits(), "{ctx}: amount at {row}");
        assert_eq!(ra.duration(row).to_bits(), fa.duration(row).to_bits(), "{ctx}: dur at {row}");
    }
    for q in probe_queries(reference) {
        let (x, y) = (rebuilt.engine.aggregate(&q), reference.engine.aggregate(&q));
        assert_eq!(x.count, y.count, "{ctx}: count {q:?}");
        assert_eq!(x.sum_amount.to_bits(), y.sum_amount.to_bits(), "{ctx}: sum bits {q:?}");
        assert_eq!(
            x.sum_duration.to_bits(),
            y.sum_duration.to_bits(),
            "{ctx}: duration bits {q:?}"
        );
    }
}

/// One acked durable session: initializes a full-payload store, acks
/// `ingests` rows under fsync-on-ack, and "dies" (no clean-shutdown
/// sync). Returns the extract row count.
fn acked_session(ds: &Dataset, dir: &Path, ingests: u32) -> usize {
    let projected = project_dataset(ds);
    let index: DurableIndex<FlatAvlIndex> = DurableIndex::create_full(
        dir,
        projected.iter().copied().zip(ds.rccs().iter().cloned()),
    )
    .expect("create full store");
    let core = durable_core(TenantSnapshot::from_dataset(ds.clone()), index);
    ack_ingests(&core, ds, ingests, 0);
    projected.len()
}

/// The tentpole sweep: kill the process at **every WAL byte offset** of
/// an acked session, restart from the store alone, and hold both halves
/// of the contract — every fully-appended record's row is visible, and
/// the rebuilt snapshot is bit-identical to the live epoch that acked
/// the recovered rows.
#[test]
fn kill_at_every_wal_byte_offset_is_survivable() {
    let ds = base_dataset();
    let dir = scratch("sweep");
    const INGESTS: u32 = 6;
    let n = acked_session(&ds, &dir, INGESTS);

    let wal = std::fs::read(dir.join("wal.log")).expect("read wal");
    assert_eq!(wal.len(), INGESTS as usize * RECORD_LEN_V2, "all acked records are v2");

    // The live epoch after each ack: lives[k] acked salts 0..k.
    let lives: Vec<TenantSnapshot> = (0..=INGESTS).map(|k| live_for(&ds, 0..k)).collect();

    let kill = scratch("sweep-kill");
    for cut in 0..=wal.len() {
        copy_store(&dir, &kill);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(kill.join("wal.log"))
            .expect("open wal copy");
        f.set_len(cut as u64).expect("truncate wal at kill point");
        drop(f);

        let (index, report) =
            DurableIndex::<FlatAvlIndex>::recover(&kill).expect("recover from kill point");
        let survived = cut / RECORD_LEN_V2;
        assert_eq!(
            index.len(),
            n + survived,
            "kill at byte {cut}: every fully-appended acked row is visible"
        );
        assert_eq!(report.replayed_v2, survived, "kill at byte {cut}: replay counts v2");
        assert_eq!(report.full_rows, n + survived, "kill at byte {cut}: store is v2-complete");

        let (rebuilt, summary) = rebuild_tenant(&ds, &index).expect("rebuild from store");
        assert_eq!(summary.from_store, n + survived, "store alone rebuilds every row");
        assert_eq!(summary.from_extracts, 0);
        for salt in 0..survived as u32 {
            let swlin = Swlin::from_packed(1_000 + salt).expect("valid");
            assert!(
                rebuilt.dataset.rccs().iter().any(|r| r.swlin == swlin),
                "kill at byte {cut}: acked row salt={salt} missing after restart"
            );
        }
        assert_bit_identical(&rebuilt, &lives[survived], &format!("cut={cut} vs live"));
        assert_bit_identical(&rebuilt, &reference_for(&ds, &index), &format!("cut={cut}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&kill);
}

/// Seeded damage storm: a bit-flipped / torn / duplicated WAL tail
/// (every `corrupt_bytes` fault class) recovers to a *prefix* of the
/// acked rows — contiguous ids, no holes — and the rebuilt snapshot
/// still bit-matches the live epoch that acked what survived.
#[test]
fn seeded_damage_storm_recovers_a_bit_identical_prefix() {
    let ds = base_dataset();
    let dir = scratch("storm");
    const INGESTS: u32 = 6;
    let n = acked_session(&ds, &dir, INGESTS);
    let good = std::fs::read(dir.join("wal.log")).expect("read wal");

    let kill = scratch("storm-kill");
    for seed in 0..48u64 {
        copy_store(&dir, &kill);
        let (bad, _fault) = corrupt_bytes(&good, seed, Some(RECORD_LEN_V2));
        std::fs::write(kill.join("wal.log"), &bad).expect("write damaged wal");

        let (index, _report) =
            DurableIndex::<FlatAvlIndex>::recover(&kill).expect("damage must degrade, not fail");
        let survived = index.len() - n;
        assert!(survived <= INGESTS as usize, "seed {seed}: rows invented from damage");
        // The survivors are a dense id prefix of the acked ingests: WAL
        // replay stops at the first damaged record, never skips over one.
        let mut new_ids: Vec<RowId> =
            index.entries().iter().map(|r| r.id).filter(|&id| id >= n as RowId).collect();
        new_ids.sort_unstable();
        let expect: Vec<RowId> = (0..survived as RowId).map(|i| n as RowId + i).collect();
        assert_eq!(new_ids, expect, "seed {seed}: survivors must be a contiguous prefix");

        let (rebuilt, _) = rebuild_tenant(&ds, &index).expect("rebuild from damaged store");
        let live = live_for(&ds, 0..survived as u32);
        assert_bit_identical(&rebuilt, &live, &format!("seed={seed} vs live"));
        assert_bit_identical(&rebuilt, &reference_for(&ds, &index), &format!("seed={seed}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&kill);
}

/// Restart storm: several serve "processes" in sequence, each acking a
/// few ingests under fsync-on-ack and then dying with a torn in-flight
/// append on the WAL tail. Every restart rebuilds from the store alone,
/// serves every previously acked row bit-identically to a server that
/// never restarted, and continues ingesting — the lifecycle
/// `domd serve --store` runs in production.
#[test]
fn restart_storm_keeps_every_acked_row_across_sessions() {
    let ds = base_dataset();
    let projected = project_dataset(&ds);
    let n = projected.len();
    let dir = scratch("sessions");
    const SESSIONS: u32 = 6;
    const PER_SESSION: u32 = 3;

    // Every salt acked so far, in ack order, across all sessions.
    let acked = |sessions: u32| {
        (0..sessions).flat_map(|s| (0..PER_SESSION).map(move |i| 100 * s + i))
    };
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    for session in 0..SESSIONS {
        let (snapshot, index) = if session == 0 {
            let index: DurableIndex<FlatAvlIndex> = DurableIndex::create_full(
                &dir,
                projected.iter().copied().zip(ds.rccs().iter().cloned()),
            )
            .expect("create full store");
            (TenantSnapshot::from_dataset(ds.clone()), index)
        } else {
            let (index, _) =
                DurableIndex::<FlatAvlIndex>::recover(&dir).expect("recover at session start");
            let expected = n + (session * PER_SESSION) as usize;
            assert_eq!(index.len(), expected, "session {session}: an acked row went missing");
            let (rebuilt, summary) = rebuild_tenant(&ds, &index).expect("rebuild");
            assert_eq!(summary.from_store, expected, "store alone carries every session");
            let live = live_for(&ds, acked(session));
            assert_bit_identical(&rebuilt, &live, &format!("session={session} vs live"));
            assert_bit_identical(
                &rebuilt,
                &reference_for(&ds, &index),
                &format!("session={session}"),
            );
            (rebuilt, index)
        };
        let core = durable_core(snapshot, index);
        ack_ingests(&core, &ds, PER_SESSION, 100 * session);
        drop(core); // the "kill": no clean-shutdown sync

        // A torn in-flight (never-acked) append on the tail: 0..65 junk
        // bytes that recovery must trim without touching acked records.
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let torn = (lcg >> 33) as usize % RECORD_LEN_V2;
        let wal_path = dir.join("wal.log");
        let mut wal = std::fs::read(&wal_path).expect("read wal");
        wal.extend(std::iter::repeat_n(0xAB, torn));
        std::fs::write(&wal_path, &wal).expect("append torn tail");
    }

    // Final restart: all sessions' acks are visible with their payloads.
    let (index, _) = DurableIndex::<FlatAvlIndex>::recover(&dir).expect("final recover");
    assert_eq!(index.len(), n + (SESSIONS * PER_SESSION) as usize);
    let (rebuilt, _) = rebuild_tenant(&ds, &index).expect("final rebuild");
    for session in 0..SESSIONS {
        for i in 0..PER_SESSION {
            let swlin = Swlin::from_packed(1_000 + 100 * session + i).expect("valid");
            assert!(
                rebuilt.dataset.rccs().iter().any(|r| r.swlin == swlin),
                "row from session {session} lost after {SESSIONS} restarts"
            );
        }
    }
    assert_bit_identical(&rebuilt, &live_for(&ds, acked(SESSIONS)), "final vs live");
    assert_bit_identical(&rebuilt, &reference_for(&ds, &index), "final");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pre-v2 (projection-only) store still recovers and serves without
/// migration when its rows provably match the extracts — and refuses
/// with a `migrate-store`-naming error once a v1 mutation has moved a
/// row away from what the extracts can vouch for.
#[test]
fn v1_store_recovers_unmigrated_and_diverged_v1_refuses() {
    let ds = base_dataset();
    let projected = project_dataset(&ds);
    let dir = scratch("v1");
    {
        let _: DurableIndex<FlatAvlIndex> =
            DurableIndex::create(&dir, &projected).expect("create v1 store");
    }
    let (index, report) = DurableIndex::<FlatAvlIndex>::recover(&dir).expect("recover v1");
    assert_eq!(report.full_rows, 0, "a v1 store carries no payloads");
    let (rebuilt, summary) = rebuild_tenant(&ds, &index).expect("v1 rebuild via extracts");
    assert_eq!(summary.from_extracts, projected.len());
    assert_eq!(summary.from_store, 0);
    assert!(summary.matches_extracts);
    assert_bit_identical(&rebuilt, &TenantSnapshot::from_dataset(ds.clone()), "v1");

    // A v1 settle moves a row's logical end with no payload to re-log:
    // the row no longer matches the extracts and must refuse, not guess.
    let mut index = index;
    let victim = projected[0];
    index
        .settle(victim.id, (victim.end * 0.5).max(victim.start))
        .expect("v1 settle");
    index.sync().expect("sync");
    drop(index);
    let (index, report) = DurableIndex::<FlatAvlIndex>::recover(&dir).expect("recover mutated");
    assert_eq!(report.replayed_v1, 1, "the settle replays as a v1 record");
    let err = rebuild_tenant(&ds, &index).expect_err("diverged v1 row must refuse");
    assert_eq!(err.kind(), "corrupt");
    assert!(err.to_string().contains("migrate-store"), "refusal names the repair: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}
