//! Columnar RCC arena: struct-of-arrays storage for the RCC table.
//!
//! The row-oriented `Rcc` struct interleaves every attribute (dates, SWLIN,
//! amount, type) in one ~40-byte record, so a Status Query aggregation that
//! only touches amounts and durations still drags whole records through the
//! cache. The arena stores each attribute in its own column — ids, avail,
//! type, packed 8-digit SWLIN code, created / settled as `i32` day numbers,
//! settled amount, and the logical projection (`t*_start`, `t*_end` of
//! Equation 1) — so hot loops read exactly the columns they need and
//! indexes hold `u32` row ids into the arena instead of owned or cloned
//! records.
//!
//! Each column is cut into fixed-size chunks of 1024 rows. Full
//! chunks are immutable and `Arc`-shared; only the partial last chunk is
//! owned. Cloning an arena therefore copies one pointer per full chunk
//! plus the tail chunk the next push writes anyway, and a `settle` copies
//! only the chunk it writes. That is what makes a serving epoch cheap to
//! build: epoch `e + 1` shares every untouched chunk with epoch `e`.
//!
//! Bit-identity contract: the logical positions stored here are the *same*
//! `f64` values [`project_dataset`] produces (they are taken verbatim, or
//! computed with the identical `domd_data::logical_time` call on `push`),
//! and `duration(row)` reproduces `f64::from(rcc.duration_days())` exactly
//! because the day numbers subtract to the same integer.

use std::sync::Arc;

use crate::types::{HeapSize, LogicalRcc, RowId};
use domd_data::avail::{Avail, AvailId};
use domd_data::dataset::Dataset;
use domd_data::date::Date;
use domd_data::rcc::{Rcc, RccType, Swlin};

use crate::types::project_dataset;

/// Rows per column chunk: the unit of sharing between arena clones.
const CHUNK_ROWS: usize = 1 << CHUNK_BITS;
const CHUNK_BITS: u32 = 10;

/// One arena column: `Arc`-shared full chunks plus the owned tail chunk
/// that pushes append to.
#[derive(Debug)]
struct Column<T> {
    chunks: Vec<Arc<[T]>>,
    tail: Vec<T>,
}

impl<T: Copy> Column<T> {
    /// Cuts a filled column into chunks (one copy, no per-row checks).
    fn from_vec(values: Vec<T>) -> Self {
        let mut full = values.chunks_exact(CHUNK_ROWS);
        let chunks = full.by_ref().map(Arc::from).collect();
        let mut tail = Vec::with_capacity(CHUNK_ROWS);
        tail.extend_from_slice(full.remainder());
        Column { chunks, tail }
    }

    fn len(&self) -> usize {
        self.chunks.len() * CHUNK_ROWS + self.tail.len()
    }

    fn get(&self, row: RowId) -> T {
        let i = row as usize;
        self.chunk(i >> CHUNK_BITS)[i & (CHUNK_ROWS - 1)]
    }

    fn push(&mut self, value: T) {
        self.tail.push(value);
        if self.tail.len() == CHUNK_ROWS {
            let full = std::mem::replace(&mut self.tail, Vec::with_capacity(CHUNK_ROWS));
            self.chunks.push(Arc::from(full));
        }
    }

    /// The rows of chunk `c`; empty past the tail, so indexing it panics
    /// like an out-of-range row.
    fn chunk(&self, c: usize) -> &[T] {
        match c.cmp(&self.chunks.len()) {
            std::cmp::Ordering::Less => &self.chunks[c],
            std::cmp::Ordering::Equal => &self.tail,
            std::cmp::Ordering::Greater => &[],
        }
    }

    /// Overwrites `row`, copying its chunk first when another arena
    /// shares it.
    fn set(&mut self, row: RowId, value: T) {
        let i = row as usize;
        let j = i & (CHUNK_ROWS - 1);
        match self.chunks.get_mut(i >> CHUNK_BITS) {
            Some(chunk) => match Arc::get_mut(chunk) {
                Some(owned) => owned[j] = value,
                None => {
                    let mut copy = chunk.to_vec();
                    copy[j] = value;
                    *chunk = Arc::from(copy);
                }
            },
            None => {
                let k = i - self.chunks.len() * CHUNK_ROWS;
                self.tail[k] = value;
            }
        }
    }
}

impl<T: Copy> Clone for Column<T> {
    /// Shares the full chunks and copies the tail at full chunk capacity,
    /// so the clone's next push does not reallocate.
    fn clone(&self) -> Self {
        let mut tail = Vec::with_capacity(CHUNK_ROWS);
        tail.extend_from_slice(&self.tail);
        Column { chunks: self.chunks.clone(), tail }
    }
}

impl<T> HeapSize for Column<T> {
    fn heap_bytes(&self) -> usize {
        let per_chunk = CHUNK_ROWS * std::mem::size_of::<T>() + 2 * std::mem::size_of::<usize>();
        self.chunks.heap_bytes() + self.chunks.len() * per_chunk + self.tail.heap_bytes()
    }
}

/// Struct-of-arrays RCC table of chunked columns with day-number dates.
#[derive(Debug, Clone)]
pub struct RccArena {
    /// External RCC identifier per row.
    rcc_ids: Column<u32>,
    /// Owning avail per row.
    avails: Column<AvailId>,
    /// RCC category per row (1 byte each).
    types: Column<RccType>,
    /// Packed 8-digit SWLIN code per row ([`Swlin::packed`]).
    swlins: Column<u32>,
    /// Creation date as a day number ([`Date::days`]).
    created: Column<i32>,
    /// Settled date as a day number.
    settled: Column<i32>,
    /// Settled amount ($) per row.
    amounts: Column<f64>,
    /// Logical creation position `t*_start` (Equation 1).
    starts: Column<f64>,
    /// Logical settlement position `t*_end`.
    ends: Column<f64>,
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
        Self::collect(rccs.len(), rccs.iter().zip(projected).map(|(r, lr)| (r, lr.start, lr.end)))
    }

    /// Builds the arena from `(rcc, owning avail)` rows, row `i` being
    /// `rows[i]`, projecting each exactly as [`Self::push`] does.
    pub fn from_rows(rows: &[(Rcc, &Avail)]) -> Self {
        Self::collect(
            rows.len(),
            rows.iter().map(|(rcc, avail)| {
                let (start, end) = project(rcc, avail);
                (rcc, start, end)
            }),
        )
    }

    /// Bulk build: fills plain column vectors, then cuts each into chunks
    /// once.
    fn collect<'a>(n: usize, rows: impl Iterator<Item = (&'a Rcc, f64, f64)>) -> Self {
        let mut rcc_ids = Vec::with_capacity(n);
        let mut avails = Vec::with_capacity(n);
        let mut types = Vec::with_capacity(n);
        let mut swlins = Vec::with_capacity(n);
        let mut created = Vec::with_capacity(n);
        let mut settled = Vec::with_capacity(n);
        let mut amounts = Vec::with_capacity(n);
        let mut starts = Vec::with_capacity(n);
        let mut ends = Vec::with_capacity(n);
        for (r, start, end) in rows {
            rcc_ids.push(r.id.0);
            avails.push(r.avail);
            types.push(r.rcc_type);
            swlins.push(r.swlin.packed());
            created.push(r.created.days());
            settled.push(r.settled.days());
            amounts.push(r.amount);
            starts.push(start);
            ends.push(end);
        }
        RccArena {
            rcc_ids: Column::from_vec(rcc_ids),
            avails: Column::from_vec(avails),
            types: Column::from_vec(types),
            swlins: Column::from_vec(swlins),
            created: Column::from_vec(created),
            settled: Column::from_vec(settled),
            amounts: Column::from_vec(amounts),
            starts: Column::from_vec(starts),
            ends: Column::from_vec(ends),
        }
    }

    /// Appends one RCC, computing its logical projection from `avail`
    /// exactly as [`project_dataset`] does. Returns the new dense row id.
    pub fn push(&mut self, rcc: &Rcc, avail: &Avail) -> RowId {
        let row = self.len() as RowId;
        let (start, end) = project(rcc, avail);
        self.rcc_ids.push(rcc.id.0);
        self.avails.push(rcc.avail);
        self.types.push(rcc.rcc_type);
        self.swlins.push(rcc.swlin.packed());
        self.created.push(rcc.created.days());
        self.settled.push(rcc.settled.days());
        self.amounts.push(rcc.amount);
        self.starts.push(start);
        self.ends.push(end);
        row
    }

    /// Re-settles `row` at `settled`, recomputing the logical end with the
    /// identical `domd_data::logical_time` call [`Self::push`] uses, so a
    /// settled row is bit-identical to one freshly pushed with that date.
    /// Copies only the chunks it writes. Returns the row's *old* logical
    /// record (the index entry a maintainer must retire before inserting
    /// [`Self::logical`] of the new state).
    pub fn settle(&mut self, row: RowId, settled: Date, avail: &Avail) -> LogicalRcc {
        assert_eq!(self.avail(row), avail.id, "row must belong to the given avail");
        let old = self.logical(row);
        let planned = avail.planned_duration().max(1);
        self.settled.set(row, settled.days());
        self.ends.set(row, domd_data::logical_time(settled, avail.actual_start, planned));
        old
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.amounts.len()
    }

    /// True when the arena holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// External RCC identifier of `row`.
    pub fn rcc_id(&self, row: RowId) -> u32 {
        self.rcc_ids.get(row)
    }

    /// Owning avail of `row`.
    pub fn avail(&self, row: RowId) -> AvailId {
        self.avails.get(row)
    }

    /// RCC category of `row`.
    pub fn rcc_type(&self, row: RowId) -> RccType {
        self.types.get(row)
    }

    /// SWLIN code of `row`.
    pub fn swlin(&self, row: RowId) -> Swlin {
        Swlin::from_packed(self.swlins.get(row))
            // domd-lint: allow(no-panic) — the column only ever stores `Swlin::packed` of validated SWLINs
            .expect("stored SWLINs are valid")
    }

    /// Creation date of `row`.
    pub fn created(&self, row: RowId) -> Date {
        Date::from_days(self.created.get(row))
    }

    /// Settled date of `row`.
    pub fn settled(&self, row: RowId) -> Date {
        Date::from_days(self.settled.get(row))
    }

    /// Settled amount ($) of `row`.
    pub fn amount(&self, row: RowId) -> f64 {
        self.amounts.get(row)
    }

    /// Duration in days of `row` as `f64`; bit-identical to
    /// `f64::from(rcc.duration_days())` because the day numbers subtract to
    /// the same integer.
    pub fn duration(&self, row: RowId) -> f64 {
        f64::from(self.settled.get(row) - self.created.get(row))
    }

    /// Calls `f(amount, duration)` for each row of `rows`, in order: the
    /// aggregation loop of a Status Query. Each run of rows inside one
    /// chunk looks the chunk up once, so ascending rows read the columns
    /// almost as a flat array would.
    pub fn for_each_amount_duration(&self, rows: &[RowId], mut f: impl FnMut(f64, f64)) {
        let mut rest = rows;
        while let Some(&first) = rest.first() {
            let c = first as usize >> CHUNK_BITS;
            let run = rest.iter().position(|&r| r as usize >> CHUNK_BITS != c).unwrap_or(rest.len());
            let (amounts, settled, created) =
                (self.amounts.chunk(c), self.settled.chunk(c), self.created.chunk(c));
            for &r in &rest[..run] {
                let j = r as usize & (CHUNK_ROWS - 1);
                f(amounts[j], f64::from(settled[j] - created[j]));
            }
            rest = &rest[run..];
        }
    }

    /// Logical creation position of `row`.
    pub fn start(&self, row: RowId) -> f64 {
        self.starts.get(row)
    }

    /// Logical settlement position of `row`.
    pub fn end(&self, row: RowId) -> f64 {
        self.ends.get(row)
    }

    /// The full logical projection record of `row`.
    pub fn logical(&self, row: RowId) -> LogicalRcc {
        LogicalRcc { id: row, avail: self.avail(row), start: self.start(row), end: self.end(row) }
    }

}

/// The logical `(start, end)` of `rcc` within `avail` (Equation 1).
fn project(rcc: &Rcc, avail: &Avail) -> (f64, f64) {
    assert_eq!(rcc.avail, avail.id, "RCC must reference the given avail");
    let planned = avail.planned_duration().max(1);
    let start = domd_data::logical_time(rcc.created, avail.actual_start, planned);
    let end = domd_data::logical_time(rcc.settled, avail.actual_start, planned);
    (start, end)
}

impl HeapSize for RccArena {
    fn heap_bytes(&self) -> usize {
        self.rcc_ids.heap_bytes()
            + self.avails.heap_bytes()
            + self.types.heap_bytes()
            + self.swlins.heap_bytes()
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
        assert_eq!(arena.len(), proj.len());
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
        assert_eq!(arena.len(), 0);
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

    #[test]
    fn chunk_boundary_rows_survive_push_clone_and_settle() {
        let ds = generate(&GeneratorConfig { n_avails: 10, target_rccs: 2500, scale: 1, seed: 21 });
        let n = ds.rccs().len() as RowId;
        assert!(n as usize > 2 * CHUNK_ROWS, "rows must span three chunks");
        let bulk = RccArena::from_dataset(&ds);
        // Row-by-row pushes cross the chunk boundaries the bulk cut made.
        let mut grown = RccArena::from_dataset(&Dataset::default());
        for r in ds.rccs() {
            grown.push(r, ds.avail(r.avail).expect("avail exists"));
        }
        let edges = [0, 1022, 1023, 1024, 1025, 2047, 2048, n - 1];
        for row in edges {
            assert_eq!(grown.rcc_id(row), bulk.rcc_id(row), "row {row}");
            assert_eq!(grown.swlin(row), bulk.swlin(row), "row {row}");
            assert_eq!(grown.amount(row).to_bits(), bulk.amount(row).to_bits(), "row {row}");
            assert_eq!(grown.end(row).to_bits(), bulk.end(row).to_bits(), "row {row}");
        }

        // Settling rows 1023 and 1024 on a clone copies their two chunks;
        // the original keeps every bit, and the clone's other rows match.
        let mut next = bulk.clone();
        for row in [1023, 1024] {
            let avail = ds.avail(bulk.avail(row)).expect("avail exists");
            let old = next.settle(row, bulk.settled(row) + 30, avail);
            assert_eq!(old.end.to_bits(), bulk.end(row).to_bits());
            assert_eq!(next.settled(row), bulk.settled(row) + 30);
            assert_ne!(next.end(row).to_bits(), bulk.end(row).to_bits());
        }
        for row in edges.into_iter().filter(|r| ![1023, 1024].contains(r)) {
            assert_eq!(next.settled(row), bulk.settled(row), "row {row}");
            assert_eq!(next.end(row).to_bits(), bulk.end(row).to_bits(), "row {row}");
        }

        // A push on a clone stays out of the original's tail.
        let mut pushed = bulk.clone();
        let r = &ds.rccs()[0];
        let row = pushed.push(r, ds.avail(r.avail).expect("avail exists"));
        assert_eq!(row, n);
        assert_eq!(pushed.len(), bulk.len() + 1);
        assert_eq!(pushed.rcc_id(n - 1), bulk.rcc_id(n - 1));
    }
}
