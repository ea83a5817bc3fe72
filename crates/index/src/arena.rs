//! Columnar RCC arena: struct-of-arrays storage for the RCC table.
//!
//! The row-oriented `Rcc` struct interleaves every attribute (dates, SWLIN,
//! amount, type) in one ~40-byte record, so a Status Query aggregation that
//! only touches amounts and durations still drags whole records through the
//! cache. The arena stores each attribute in its own contiguous column —
//! ids, avail, type, SWLIN (interned to a dense `u32` symbol), created /
//! settled as `i32` day numbers, settled amount,
//! and the logical projection (`t*_start`, `t*_end` of Equation 1) — so hot
//! loops stream exactly the columns they need and indexes hold `u32` row
//! ids into the arena instead of owned or cloned records.
//!
//! Bit-identity contract: the logical positions stored here are the *same*
//! `f64` values [`project_dataset`] produces (they are taken verbatim, or
//! computed with the identical `domd_data::logical_time` call on `push`),
//! and `duration(row)` reproduces `f64::from(rcc.duration_days())` exactly
//! because the day numbers subtract to the same integer.

use crate::types::{HeapSize, LogicalRcc, RowId};
use domd_data::avail::{Avail, AvailId};
use domd_data::dataset::Dataset;
use domd_data::date::Date;
use domd_data::hash::FxHashMap;
use domd_data::rcc::{Rcc, RccType, Swlin};

use crate::types::project_dataset;

/// Struct-of-arrays RCC table with interned SWLINs and day-number dates.
#[derive(Debug, Clone)]
pub struct RccArena {
    /// External RCC identifier per row.
    rcc_ids: Vec<u32>,
    /// Owning avail per row.
    avails: Vec<AvailId>,
    /// RCC category per row (1 byte each).
    types: Vec<RccType>,
    /// Interned SWLIN symbol per row; index into `swlin_table`.
    swlin_syms: Vec<u32>,
    /// Symbol → packed 8-digit SWLIN code.
    swlin_table: Vec<u32>,
    /// Packed SWLIN code → symbol (the interner).
    intern: FxHashMap<u32, u32>,
    /// Creation date as a day number ([`Date::days`]).
    created: Vec<i32>,
    /// Settled date as a day number.
    settled: Vec<i32>,
    /// Settled amount ($) per row.
    amounts: Vec<f64>,
    /// Logical creation position `t*_start` (Equation 1).
    starts: Vec<f64>,
    /// Logical settlement position `t*_end`.
    ends: Vec<f64>,
}

impl RccArena {
    /// Builds the arena for `dataset`, computing the logical projection
    /// itself (identical to [`project_dataset`]).
    pub fn from_dataset(dataset: &Dataset) -> Self {
        let projected = project_dataset(dataset);
        Self::from_projected(dataset, &projected)
    }

    /// Builds the arena for `dataset` taking logical positions verbatim
    /// from `projected` (`projected[i]` must describe `dataset.rccs()[i]`),
    /// so arena-backed paths are bit-identical to record-backed ones no
    /// matter how the caller produced the projection.
    pub fn from_projected(dataset: &Dataset, projected: &[LogicalRcc]) -> Self {
        let rccs = dataset.rccs();
        assert_eq!(rccs.len(), projected.len(), "projection must cover the RCC table");
        let mut arena = Self::with_capacity(rccs.len());
        for (r, lr) in rccs.iter().zip(projected) {
            arena.push_columns(r, lr.start, lr.end);
        }
        arena
    }

    /// Builds the arena from `(rcc, owning avail)` rows, row `i` being
    /// `rows[i]`, projecting each exactly as [`Self::push`] does.
    pub fn from_rows(rows: &[(Rcc, &Avail)]) -> Self {
        let mut arena = Self::with_capacity(rows.len());
        for (rcc, avail) in rows {
            arena.push(rcc, avail);
        }
        arena
    }

    /// An empty arena sized for `n` rows.
    fn with_capacity(n: usize) -> Self {
        RccArena {
            rcc_ids: Vec::with_capacity(n),
            avails: Vec::with_capacity(n),
            types: Vec::with_capacity(n),
            swlin_syms: Vec::with_capacity(n),
            swlin_table: Vec::new(),
            intern: FxHashMap::default(),
            created: Vec::with_capacity(n),
            settled: Vec::with_capacity(n),
            amounts: Vec::with_capacity(n),
            starts: Vec::with_capacity(n),
            ends: Vec::with_capacity(n),
        }
    }

    /// Appends one RCC, computing its logical projection from `avail`
    /// exactly as [`project_dataset`] does. Returns the new dense row id.
    pub fn push(&mut self, rcc: &Rcc, avail: &Avail) -> RowId {
        assert_eq!(rcc.avail, avail.id, "RCC must reference the given avail");
        let planned = avail.planned_duration().max(1);
        let start = domd_data::logical_time(rcc.created, avail.actual_start, planned);
        let end = domd_data::logical_time(rcc.settled, avail.actual_start, planned);
        self.push_columns(rcc, start, end)
    }

    fn push_columns(&mut self, r: &Rcc, start: f64, end: f64) -> RowId {
        let row = self.len() as RowId;
        let packed = r.swlin.packed();
        let sym = match self.intern.get(&packed) {
            Some(&s) => s,
            None => {
                let s = self.swlin_table.len() as u32;
                self.swlin_table.push(packed);
                self.intern.insert(packed, s);
                s
            }
        };
        self.rcc_ids.push(r.id.0);
        self.avails.push(r.avail);
        self.types.push(r.rcc_type);
        self.swlin_syms.push(sym);
        self.created.push(r.created.days());
        self.settled.push(r.settled.days());
        self.amounts.push(r.amount);
        self.starts.push(start);
        self.ends.push(end);
        row
    }

    /// Re-settles `row` at `settled`, recomputing the logical end with the
    /// identical `domd_data::logical_time` call [`Self::push`] uses, so a
    /// settled row is bit-identical to one freshly pushed with that date.
    /// Returns the row's *old* logical record (the index entry a maintainer
    /// must retire before inserting [`Self::logical`] of the new state).
    pub fn settle(&mut self, row: RowId, settled: Date, avail: &Avail) -> LogicalRcc {
        assert_eq!(self.avails[row as usize], avail.id, "row must belong to the given avail");
        let old = self.logical(row);
        let planned = avail.planned_duration().max(1);
        self.settled[row as usize] = settled.days();
        self.ends[row as usize] = domd_data::logical_time(settled, avail.actual_start, planned);
        old
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.amounts.len()
    }

    /// True when the arena holds no rows.
    pub fn is_empty(&self) -> bool {
        self.amounts.is_empty()
    }

    /// Number of distinct SWLIN codes interned.
    pub fn n_symbols(&self) -> usize {
        self.swlin_table.len()
    }

    /// External RCC identifier of `row`.
    pub fn rcc_id(&self, row: RowId) -> u32 {
        self.rcc_ids[row as usize]
    }

    /// Owning avail of `row`.
    pub fn avail(&self, row: RowId) -> AvailId {
        self.avails[row as usize]
    }

    /// RCC category of `row`.
    pub fn rcc_type(&self, row: RowId) -> RccType {
        self.types[row as usize]
    }

    /// SWLIN code of `row`, reconstructed from the intern table.
    pub fn swlin(&self, row: RowId) -> Swlin {
        Swlin::from_packed(self.swlin_table[self.swlin_syms[row as usize] as usize])
            // domd-lint: allow(no-panic) — the intern table only ever stores packed codes of validated SWLINs
            .expect("interned SWLINs are valid")
    }

    /// Interned SWLIN symbol of `row`.
    pub fn swlin_sym(&self, row: RowId) -> u32 {
        self.swlin_syms[row as usize]
    }

    /// Creation date of `row`.
    pub fn created(&self, row: RowId) -> Date {
        Date::from_days(self.created[row as usize])
    }

    /// Settled date of `row`.
    pub fn settled(&self, row: RowId) -> Date {
        Date::from_days(self.settled[row as usize])
    }

    /// Settled amount ($) of `row`.
    pub fn amount(&self, row: RowId) -> f64 {
        self.amounts[row as usize]
    }

    /// Duration in days of `row` as `f64`; bit-identical to
    /// `f64::from(rcc.duration_days())` because the day numbers subtract to
    /// the same integer.
    pub fn duration(&self, row: RowId) -> f64 {
        f64::from(self.settled[row as usize] - self.created[row as usize])
    }

    /// Logical creation position of `row`.
    pub fn start(&self, row: RowId) -> f64 {
        self.starts[row as usize]
    }

    /// Logical settlement position of `row`.
    pub fn end(&self, row: RowId) -> f64 {
        self.ends[row as usize]
    }

    /// The full logical projection record of `row`.
    pub fn logical(&self, row: RowId) -> LogicalRcc {
        LogicalRcc {
            id: row,
            avail: self.avails[row as usize],
            start: self.starts[row as usize],
            end: self.ends[row as usize],
        }
    }

    /// Settled-amount column.
    pub fn amounts(&self) -> &[f64] {
        &self.amounts
    }

    /// Logical-start column.
    pub fn starts(&self) -> &[f64] {
        &self.starts
    }

    /// Logical-end column.
    pub fn ends(&self) -> &[f64] {
        &self.ends
    }

    /// RCC-category column.
    pub fn types(&self) -> &[RccType] {
        &self.types
    }

    /// Owning-avail column.
    pub fn avails(&self) -> &[AvailId] {
        &self.avails
    }

    /// Materializes the projection records (for `LogicalTimeIndex::build`).
    pub fn projected(&self) -> Vec<LogicalRcc> {
        (0..self.len() as RowId).map(|row| self.logical(row)).collect()
    }

    /// Iterator over `(type, row)` pairs for group-tree construction.
    pub fn type_rows(&self) -> impl Iterator<Item = (RccType, RowId)> + '_ {
        self.types.iter().enumerate().map(|(i, &t)| (t, i as RowId))
    }

    /// Iterator over `(swlin, row)` pairs for group-tree construction.
    pub fn swlin_rows(&self) -> impl Iterator<Item = (Swlin, RowId)> + '_ {
        self.swlin_syms.iter().enumerate().map(|(i, &s)| {
            let w = Swlin::from_packed(self.swlin_table[s as usize])
                // domd-lint: allow(no-panic) — the intern table only ever stores packed codes of validated SWLINs
                .expect("interned SWLINs are valid");
            (w, i as RowId)
        })
    }
}

impl HeapSize for RccArena {
    fn heap_bytes(&self) -> usize {
        self.rcc_ids.heap_bytes()
            + self.avails.heap_bytes()
            + self.types.capacity() * std::mem::size_of::<RccType>()
            + self.swlin_syms.heap_bytes()
            + self.swlin_table.heap_bytes()
            + self.intern.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.created.heap_bytes()
            + self.settled.heap_bytes()
            + self.amounts.heap_bytes()
            + self.starts.heap_bytes()
            + self.ends.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domd_data::{generate, GeneratorConfig};

    fn dataset() -> Dataset {
        generate(&GeneratorConfig { n_avails: 10, target_rccs: 800, scale: 1, seed: 21 })
    }

    #[test]
    fn columns_match_records() {
        let ds = dataset();
        let arena = RccArena::from_dataset(&ds);
        assert_eq!(arena.len(), ds.rccs().len());
        for (i, r) in ds.rccs().iter().enumerate() {
            let row = i as RowId;
            assert_eq!(arena.rcc_id(row), r.id.0);
            assert_eq!(arena.avail(row), r.avail);
            assert_eq!(arena.rcc_type(row), r.rcc_type);
            assert_eq!(arena.swlin(row), r.swlin);
            assert_eq!(arena.created(row), r.created);
            assert_eq!(arena.settled(row), r.settled);
            assert_eq!(arena.amount(row).to_bits(), r.amount.to_bits());
            assert_eq!(arena.duration(row).to_bits(), f64::from(r.duration_days()).to_bits());
        }
    }

    #[test]
    fn projection_is_bit_identical() {
        let ds = dataset();
        let proj = project_dataset(&ds);
        let arena = RccArena::from_projected(&ds, &proj);
        for (row, lr) in proj.iter().enumerate() {
            let got = arena.logical(row as RowId);
            assert_eq!(got.id, lr.id);
            assert_eq!(got.avail, lr.avail);
            assert_eq!(got.start.to_bits(), lr.start.to_bits());
            assert_eq!(got.end.to_bits(), lr.end.to_bits());
        }
        assert_eq!(arena.projected().len(), proj.len());
    }

    #[test]
    fn interning_dedupes_swlins() {
        let ds = dataset();
        let mut arena = RccArena::from_dataset(&ds);
        let mut distinct: Vec<u32> = ds.rccs().iter().map(|r| r.swlin.packed()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(arena.n_symbols(), distinct.len());

        // Re-pushing existing rows must reuse their interned symbols.
        let before = arena.n_symbols();
        for r in ds.rccs().iter().take(50) {
            let a = ds.avail(r.avail).expect("avail exists");
            arena.push(r, a);
        }
        assert_eq!(arena.n_symbols(), before, "duplicate SWLINs must not re-intern");
        assert_eq!(arena.len(), ds.rccs().len() + 50);
    }

    #[test]
    fn push_matches_from_dataset() {
        let ds = dataset();
        let bulk = RccArena::from_dataset(&ds);
        let mut grown = RccArena::from_dataset(&Dataset::default());
        for r in ds.rccs() {
            let a = ds.avail(r.avail).expect("avail exists");
            grown.push(r, a);
        }
        assert_eq!(grown.len(), bulk.len());
        for row in 0..bulk.len() as RowId {
            assert_eq!(grown.created(row), bulk.created(row));
            assert_eq!(grown.start(row).to_bits(), bulk.start(row).to_bits());
            assert_eq!(grown.end(row).to_bits(), bulk.end(row).to_bits());
        }
    }

    #[test]
    fn from_rows_keeps_the_given_order() {
        let ds = dataset();
        let bulk = RccArena::from_dataset(&ds);
        // Reverse order: row i of the arena is rows[i], whatever the order.
        let rows: Vec<(Rcc, &Avail)> = ds
            .rccs()
            .iter()
            .rev()
            .map(|r| (r.clone(), ds.avail(r.avail).expect("avail exists")))
            .collect();
        let arena = RccArena::from_rows(&rows);
        assert_eq!(arena.len(), bulk.len());
        assert_eq!(arena.n_symbols(), bulk.n_symbols());
        let n = bulk.len() as RowId;
        for row in 0..n {
            let src = n - 1 - row;
            assert_eq!(arena.rcc_id(row), bulk.rcc_id(src));
            assert_eq!(arena.swlin(row), bulk.swlin(src));
            assert_eq!(arena.created(row), bulk.created(src));
            assert_eq!(arena.duration(row).to_bits(), bulk.duration(src).to_bits());
            assert_eq!(arena.start(row).to_bits(), bulk.start(src).to_bits());
            assert_eq!(arena.end(row).to_bits(), bulk.end(src).to_bits());
        }
    }

    #[test]
    fn empty_arena() {
        let arena = RccArena::from_dataset(&Dataset::default());
        assert!(arena.is_empty());
        assert_eq!(arena.n_symbols(), 0);
        assert!(arena.projected().is_empty());
    }

    #[test]
    fn heap_bytes_counts_every_column() {
        let ds = dataset();
        let arena = RccArena::from_dataset(&ds);
        let n = arena.len();
        // Lower bound: the nine per-row columns alone.
        let per_row = 4 + 4 + 1 + 4 + 4 + 4 + 8 + 8 + 8;
        assert!(arena.heap_bytes() >= n * per_row, "heap accounting misses columns");
    }
}
