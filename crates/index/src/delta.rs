//! Typed delta stream and incremental view maintenance (ROADMAP item 1).
//!
//! The grouped Status Query aggregates are hierarchical queries over the
//! avail⋈RCC join; per Kara/Nikolic/Olteanu/Zhang (PAPERS.md), maintaining
//! such views by deltas beats recomputation whenever mutation traffic is a
//! small fraction of the dataset. A [`RccDelta`] describes one mutation of
//! the RCC relation — insert, settle (the logical end moves), or remove —
//! and is emitted at the *same call sites*, in the *same order*, as the
//! serving layer's `DurableIndex` WAL-before-apply mutations: the stream
//! is derived from the WAL mutation order, one typed delta per logged
//! record, so applying a delta here replays a change that is already
//! durable. (The WAL record itself carries only the logical projection —
//! no type, SWLIN, or amount — which is why the typed stream is extracted
//! where the mutation is issued rather than parsed back out of the log.)
//!
//! Propagation is O(log n) per delta instead of the O(n log n) rebuild of
//! a from-scratch engine, and it never touches the engine's shared base
//! layer (see [`StatusQueryEngine`]): an insert enters the small owned
//! delta layer, a remove retires a base row or leaves the delta layer, and
//! a settle does both (the old base entry is retired, the re-settled row
//! enters the delta layer). Each group tree of the delta layer touches
//! only the mutated row's type partition and SWLIN root-to-leaf path, and
//! the arena copies only the column chunks it writes. Once the pending
//! rows outnumber `√(base rows)` the engine folds them into a fresh base.
//! The arena is append-only — a removed row stays behind as an orphan no
//! layer references — so every aggregate, visited in ascending row-id
//! order, stays bit-identical to a from-scratch
//! [`StatusQueryEngine::from_arena_rows`] over the live rows of the same
//! arena. That bit-identity is the correctness gate of the delta
//! equivalence suite.

use crate::arena::RccArena;
use crate::status_query::{Layer, StatusQueryEngine};
use crate::traits::MaintainableIndex;
use crate::types::RowId;
use domd_data::avail::Avail;
use domd_data::date::Date;
use domd_data::rcc::Rcc;
use std::sync::Arc;

/// One mutation of the RCC relation, in WAL order.
#[derive(Debug, Clone)]
pub enum RccDelta {
    /// A new RCC row enters the relation.
    Insert {
        /// The full row (the WAL's logical projection lacks type, SWLIN
        /// and amount, so the typed stream carries the record itself).
        rcc: Rcc,
        /// The availability the row belongs to.
        avail: Avail,
    },
    /// Row `row` re-settles at `settled` (covers both settle and reopen:
    /// the new date may precede or follow the old one).
    Settle {
        /// The maintained engine's row id.
        row: RowId,
        /// The new settlement date.
        settled: Date,
        /// The row's own availability, so the logical end is recomputed
        /// with the identical `logical_time` call the original projection
        /// used (bit-identity depends on it).
        avail: Avail,
    },
    /// Row `row` leaves the relation; its arena storage is orphaned.
    Remove {
        /// The maintained engine's row id.
        row: RowId,
    },
}

impl<I: MaintainableIndex> StatusQueryEngine<I> {
    /// Applies one delta in O(log n) plus the amortized fold. Returns the
    /// affected row id, or `None` when the delta names a row the engine
    /// does not hold (out of bounds, already removed, or under a
    /// mismatched avail) — the engine is left untouched in that case, so a
    /// malformed delta can never corrupt the view.
    pub fn apply_delta(&mut self, delta: &RccDelta) -> Option<RowId> {
        match delta {
            RccDelta::Insert { rcc, avail } => Some(self.insert(rcc, avail)),
            RccDelta::Settle { row, settled, avail } => {
                if !self.is_live(*row) || self.arena.avail(*row) != avail.id {
                    return None;
                }
                self.retire(*row);
                Arc::make_mut(&mut self.arena).settle(*row, *settled, avail);
                self.delta.insert_row(&self.arena, *row);
                self.mutated();
                Some(*row)
            }
            RccDelta::Remove { row } => {
                if !self.is_live(*row) {
                    return None;
                }
                self.retire(*row);
                self.mutated();
                Some(*row)
            }
        }
    }

    /// Applies a batch in stream order, returning the affected row ids
    /// (deltas naming unknown rows are skipped, matching
    /// [`Self::apply_delta`]).
    pub fn apply_deltas(&mut self, deltas: &[RccDelta]) -> Vec<RowId> {
        deltas.iter().filter_map(|d| self.apply_delta(d)).collect()
    }

    /// Takes live `row` out of the view at its current arena state: out of
    /// the delta layer if it is there, else onto the base's retired list.
    fn retire(&mut self, row: RowId) {
        if self.delta.holds(&self.arena, row) {
            self.delta.remove_row(&self.arena, row);
        } else if let Err(pos) = self.retired.binary_search(&row) {
            self.retired.insert(pos, row);
        }
    }
}

impl<I: MaintainableIndex> Layer<I> {
    /// Inserts arena row `row`, at its current state, into the layer.
    pub(crate) fn insert_row(&mut self, arena: &RccArena, row: RowId) {
        // domd-lint: allow(wal-order) — applies an insert or settle the serving layer's DurableIndex already WAL-logged; the delta stream is derived from that log order
        let inserted = self.index.insert_logical(&arena.logical(row));
        debug_assert!(inserted, "a row enters a layer at most once");
        self.type_tree.insert(arena.rcc_type(row), row);
        self.swlin_tree.insert(arena.swlin(row), row);
    }

    /// Removes arena row `row`, at its current state, from the layer.
    fn remove_row(&mut self, arena: &RccArena, row: RowId) {
        // domd-lint: allow(wal-order) — applies a settle or removal the serving layer's DurableIndex already WAL-logged; the delta stream is derived from that log order
        let removed = self.index.remove_logical(&arena.logical(row));
        debug_assert!(removed, "rows the layer holds are indexed");
        self.type_tree.remove(arena.rcc_type(row), row);
        self.swlin_tree.remove(arena.swlin(row), row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avl::AvlIndex;
    use crate::flat_avl::FlatAvlIndex;
    use crate::status_query::{StatusQuery, StatusQueryEngine};
    use crate::traits::LogicalTimeIndex;
    use crate::types::project_dataset;
    use domd_data::dataset::Dataset;
    use domd_data::rcc::{RccId, RccStatus, RccType, Swlin};
    use domd_data::{generate, GeneratorConfig};

    fn engine() -> (domd_data::dataset::Dataset, StatusQueryEngine<AvlIndex>) {
        let ds = generate(&GeneratorConfig { n_avails: 10, target_rccs: 600, scale: 1, seed: 3 });
        let proj = project_dataset(&ds);
        let eng = StatusQueryEngine::<AvlIndex>::build(&ds, &proj);
        (ds, eng)
    }

    fn probe_queries() -> Vec<StatusQuery> {
        let mut out = Vec::new();
        for t in [0.0, 20.0, 45.0, 60.0, 90.0, 110.0] {
            for status in
                [RccStatus::Active, RccStatus::Settled, RccStatus::Created, RccStatus::NotCreated]
            {
                out.push(StatusQuery { rcc_type: None, swlin_prefix: None, status, t_star: t });
                out.push(StatusQuery {
                    rcc_type: Some(RccType::Growth),
                    swlin_prefix: None,
                    status,
                    t_star: t,
                });
                out.push(StatusQuery {
                    rcc_type: None,
                    swlin_prefix: Some((4, 1)),
                    status,
                    t_star: t,
                });
            }
        }
        out
    }

    fn assert_matches_scratch(eng: &StatusQueryEngine<AvlIndex>) {
        let live = eng.live_rows();
        let scratch =
            StatusQueryEngine::<AvlIndex>::from_arena_rows(Arc::clone(eng.arena()), &live);
        for q in probe_queries() {
            assert_eq!(eng.execute(&q), scratch.execute(&q), "rows diverge on {q:?}");
            let a = eng.aggregate(&q);
            let b = scratch.aggregate(&q);
            assert_eq!(a.count, b.count, "count diverges on {q:?}");
            assert_eq!(a.sum_amount.to_bits(), b.sum_amount.to_bits(), "amount bits {q:?}");
            assert_eq!(a.sum_duration.to_bits(), b.sum_duration.to_bits(), "duration bits {q:?}");
        }
    }

    #[test]
    fn settle_moves_row_between_status_sets() {
        let (ds, mut eng) = engine();
        let avail = ds.avails()[0].clone();
        let rcc = Rcc {
            id: RccId(9_100_000),
            avail: avail.id,
            rcc_type: RccType::NewWork,
            swlin: "511-22-333".parse().unwrap(),
            created: avail.actual_start + 1,
            settled: avail.actual_start + 10,
            amount: 900.0,
        };
        let row = eng
            .apply_delta(&RccDelta::Insert { rcc, avail: avail.clone() })
            .expect("insert always applies");
        let start = eng.arena().start(row);
        let old_end = eng.arena().end(row);
        let probe = (start + old_end) / 2.0;
        assert!(eng.execute(&active_q(probe)).contains(&row));
        // Push the settlement far out: the row must become active at the
        // old end and stop being settled there.
        eng.apply_delta(&RccDelta::Settle {
            row,
            settled: avail.actual_start + 400,
            avail: avail.clone(),
        })
        .expect("live row settles");
        assert!(eng.arena().end(row) > old_end);
        assert!(eng.execute(&active_q(old_end)).contains(&row));
        assert_matches_scratch(&eng);
    }

    #[test]
    fn remove_orphans_row_everywhere() {
        let (_, mut eng) = engine();
        let row = 5;
        assert!(eng.is_live(row));
        let t = eng.arena().start(row);
        eng.apply_delta(&RccDelta::Remove { row }).expect("live row removes");
        assert!(!eng.is_live(row));
        assert!(!eng.execute(&created_q(t + 1.0)).contains(&row));
        // Idempotence: a second removal is refused, not corrupting.
        assert_eq!(eng.apply_delta(&RccDelta::Remove { row }), None);
        assert_matches_scratch(&eng);
    }

    #[test]
    fn malformed_deltas_leave_engine_untouched() {
        let (ds, mut eng) = engine();
        let before = eng.epoch();
        let avail = ds.avails()[0].clone();
        let out_of_bounds = eng.arena().len() as RowId + 7;
        assert_eq!(eng.apply_delta(&RccDelta::Remove { row: out_of_bounds }), None);
        assert_eq!(
            eng.apply_delta(&RccDelta::Settle {
                row: out_of_bounds,
                settled: avail.actual_start + 5,
                avail: avail.clone(),
            }),
            None
        );
        // Mismatched avail on a live row is refused too.
        let row = 0;
        let wrong = ds.avails().iter().find(|a| a.id != eng.arena().avail(row)).unwrap().clone();
        assert_eq!(
            eng.apply_delta(&RccDelta::Settle { row, settled: wrong.actual_start + 5, avail: wrong }),
            None
        );
        assert_eq!(eng.epoch(), before, "refused deltas must not bump the epoch");
        assert_matches_scratch(&eng);
    }

    fn active_q(t: f64) -> StatusQuery {
        StatusQuery { rcc_type: None, swlin_prefix: None, status: RccStatus::Active, t_star: t }
    }

    fn created_q(t: f64) -> StatusQuery {
        StatusQuery { rcc_type: None, swlin_prefix: None, status: RccStatus::Created, t_star: t }
    }

    // --- layered engine: seeded streams across folds -------------------

    /// SplitMix64: deterministic per seed, no OS entropy.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Every status × {no group, each type, SWLIN depths 1–8, type and
    /// SWLIN} at three `t*`, with SWLIN prefixes cut from a random row.
    fn layered_queries(arena: &RccArena, rng: &mut Mix) -> Vec<StatusQuery> {
        let code = arena.swlin(rng.below(arena.len()) as RowId).packed();
        let mut shapes = vec![(None, None)];
        shapes.extend(RccType::ALL.map(|t| (Some(t), None)));
        for depth in 1..=8u32 {
            let prefix = Some((code / 10u32.pow(8 - depth), depth));
            shapes.push((None, prefix));
            shapes.push((Some(RccType::ALL[depth as usize % 3]), prefix));
        }
        let mut out = Vec::new();
        for t_star in [0.0, rng.below(120) as f64 + 0.5, 60.0] {
            for status in
                [RccStatus::Active, RccStatus::Settled, RccStatus::Created, RccStatus::NotCreated]
            {
                for &(rcc_type, swlin_prefix) in &shapes {
                    out.push(StatusQuery { rcc_type, swlin_prefix, status, t_star });
                }
            }
        }
        out
    }

    /// Rows plus `to_bits` of count, amount sum and duration sum per query.
    type Answers = Vec<(Vec<RowId>, [u64; 3])>;

    fn answers<I: LogicalTimeIndex>(eng: &StatusQueryEngine<I>, queries: &[StatusQuery]) -> Answers {
        queries
            .iter()
            .map(|q| {
                let a = eng.aggregate(q);
                (eng.execute(q), [a.count as u64, a.sum_amount.to_bits(), a.sum_duration.to_bits()])
            })
            .collect()
    }

    /// The layered engine against a single-layer `from_arena_rows` over the
    /// tracked live set: every query, the row universe, liveness of every
    /// arena row, and the SWLIN children along one row's path.
    fn assert_layered_matches<I: MaintainableIndex + std::fmt::Debug>(
        eng: &StatusQueryEngine<I>,
        live: &[RowId],
        queries: &[StatusQuery],
        rng: &mut Mix,
    ) {
        let scratch = StatusQueryEngine::<I>::from_arena_rows(Arc::clone(eng.arena()), live);
        assert!(scratch.is_folded());
        assert_eq!(answers(eng, queries), answers(&scratch, queries));
        assert_eq!(eng.live_rows(), live);
        for row in 0..eng.arena().len() as RowId + 2 {
            assert_eq!(eng.is_live(row), live.binary_search(&row).is_ok(), "row {row}");
        }
        let code = eng.arena().swlin(rng.below(eng.arena().len()) as RowId).packed();
        for len in 0..8u32 {
            let prefix = if len == 0 { 0 } else { code / 10u32.pow(8 - len) };
            assert_eq!(
                eng.swlin_children(prefix, len),
                scratch.swlin_children(prefix, len),
                "children of {prefix}/{len}"
            );
        }
    }

    /// One seeded insert/settle/remove stream, checked after every delta.
    /// Returns the number of folds it crossed.
    fn run_layered_stream<I: MaintainableIndex + Clone + std::fmt::Debug>(
        target_rccs: usize,
        seed: u64,
        steps: usize,
    ) -> usize {
        let ds = generate(&GeneratorConfig { n_avails: 6, target_rccs, scale: 1, seed });
        let mut eng = StatusQueryEngine::<I>::build(&ds, &project_dataset(&ds));
        let mut live: Vec<RowId> = (0..eng.arena().len() as RowId).collect();
        let mut rng = Mix(seed ^ 0x1A7E_12ED);
        let mut folds = 0;
        let mut kept = Vec::new();
        for step in 0..steps {
            let pick = rng.below(4);
            let delta = if pick < 2 || live.is_empty() {
                let avail = ds.avails()[rng.below(ds.avails().len())].clone();
                let swlin = if rng.below(2) == 0 {
                    eng.arena().swlin(rng.below(eng.arena().len()) as RowId)
                } else {
                    Swlin::from_packed(10_000_000 + rng.below(89_999_999) as u32).unwrap()
                };
                let created = avail.actual_start + rng.below(300) as i32;
                let rcc = Rcc {
                    id: RccId(9_300_000 + step as u32),
                    avail: avail.id,
                    rcc_type: RccType::ALL[rng.below(3)],
                    swlin,
                    created,
                    settled: created + rng.below(200) as i32,
                    amount: rng.below(10_000) as f64 + 0.25,
                };
                RccDelta::Insert { rcc, avail }
            } else {
                let row = live[rng.below(live.len())];
                if pick == 2 {
                    let avail = ds.avail(eng.arena().avail(row)).unwrap().clone();
                    let settled = eng.arena().created(row) + rng.below(200) as i32;
                    RccDelta::Settle { row, settled, avail }
                } else {
                    RccDelta::Remove { row }
                }
            };
            let base = Arc::clone(&eng.base);
            let row = eng.apply_delta(&delta).expect("stream names live rows");
            match delta {
                RccDelta::Insert { .. } => live.push(row),
                RccDelta::Settle { .. } => {}
                RccDelta::Remove { .. } => live.retain(|&r| r != row),
            }
            if !Arc::ptr_eq(&base, &eng.base) {
                folds += 1;
                assert!(eng.is_folded(), "a fold empties the delta layer and retired list");
            }
            let queries = layered_queries(eng.arena(), &mut rng);
            assert_layered_matches(&eng, &live, &queries, &mut rng);
            kept.push((eng.clone(), live.clone(), answers(&eng, &queries), queries));
        }
        // Later settles and pushes copied the chunks they wrote: every
        // earlier epoch still answers exactly as it did when it was taken.
        for (old, old_live, recorded, queries) in &kept {
            assert_eq!(&answers(old, queries), recorded);
            assert_eq!(&old.live_rows(), old_live);
        }
        folds
    }

    #[test]
    fn layered_streams_match_from_scratch_across_folds() {
        for (target_rccs, seed) in [(150, 41), (300, 42), (500, 43)] {
            let folds = run_layered_stream::<FlatAvlIndex>(target_rccs, seed, 140);
            assert!(folds >= 3, "stream {seed} crossed only {folds} folds");
            let folds = run_layered_stream::<AvlIndex>(target_rccs, seed, 140);
            assert!(folds >= 3, "stream {seed} crossed only {folds} folds");
        }
    }

    #[test]
    fn swlin_children_drop_a_child_whose_rows_are_all_retired() {
        let (ds, _) = engine();
        // First digit 0 never occurs in generated data, so this row is the
        // only one under SWLIN child 0.
        let avail = ds.avails()[0].clone();
        let lone = Rcc {
            id: RccId(9_200_000),
            avail: avail.id,
            rcc_type: RccType::Growth,
            swlin: "012-34-567".parse().unwrap(),
            created: avail.actual_start + 1,
            settled: avail.actual_start + 20,
            amount: 10.0,
        };
        let mut rccs = ds.rccs().to_vec();
        rccs.push(lone);
        let ds = Dataset::new(ds.avails().to_vec(), rccs);
        let eng = StatusQueryEngine::<AvlIndex>::build(&ds, &project_dataset(&ds));
        let row = (0..eng.arena().len() as RowId).find(|&r| eng.arena().rcc_id(r) == 9_200_000).unwrap();
        assert_eq!(eng.swlin_children(0, 0).first(), Some(&0));
        assert_eq!(eng.swlin_children(0, 1), vec![1]);

        // Re-settled: retired from the base but held by the delta layer.
        let mut settled = eng.clone();
        let delta = RccDelta::Settle { row, settled: avail.actual_start + 90, avail: avail.clone() };
        settled.apply_delta(&delta).unwrap();
        assert_eq!(settled.retired, vec![row]);
        assert_eq!(settled.swlin_children(0, 0).first(), Some(&0));
        assert_eq!(settled.swlin_children(12, 3), vec![123]);

        // Removed, straight from the base or after the settle: its only row
        // is retired, so the child is gone at every depth.
        let mut removed = eng.clone();
        removed.apply_delta(&RccDelta::Remove { row }).unwrap();
        settled.apply_delta(&RccDelta::Remove { row }).unwrap();
        for gone in [&removed, &settled] {
            assert!(gone.base.holds(gone.arena(), row), "no fold yet: the base still holds it");
            assert_eq!(gone.retired, vec![row]);
            assert_ne!(gone.swlin_children(0, 0).first(), Some(&0));
            assert!(gone.swlin_children(0, 1).is_empty());
            assert!(gone.swlin_children(12, 3).is_empty());
            assert_eq!(gone.swlin_children(0, 0), eng.swlin_children(0, 0)[1..].to_vec());
        }
    }
}
