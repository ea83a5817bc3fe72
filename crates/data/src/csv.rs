//! CSV interchange for the two NMD tables.
//!
//! The deployed pipeline "uses obfuscated data for training and then
//! retrains on raw data in the Navy environment without human intervention"
//! (Abstract) — i.e. the same code must ingest whatever avail/RCC extracts
//! the environment provides. This module writes and parses the two tables
//! in a plain CSV layout (no quoting needed: every field is numeric, a
//! date, or a code), so a deployment can swap the synthetic generator for
//! real extracts without touching the pipeline.
//!
//! Two ingest modes:
//! * **strict** ([`read_avails`] / [`read_rccs`] / [`read_dataset`]) —
//!   the first malformed row aborts the whole extract; right for curated
//!   inputs where any defect means the export job itself is broken;
//! * **lenient** ([`read_avails_lenient`] / [`read_rccs_lenient`], and
//!   [`read_dataset_lenient`](crate::quarantine::read_dataset_lenient)
//!   for the full semantic pass) — malformed rows are collected into a
//!   [`QuarantinedRow`](crate::quarantine::QuarantinedRow) list and the
//!   remaining rows survive; right for unattended retraining where one
//!   bad row must not take down the pipeline.

use crate::avail::{Avail, AvailId, ShipId, StaticAttrs};
use crate::dataset::Dataset;
use crate::date::Date;
use crate::quarantine::QuarantinedRow;
use crate::rcc::{Rcc, RccId, RccType, Swlin};
use std::fmt::Write as _;

/// Header of the avail table CSV.
pub const AVAIL_HEADER: &str = "avail_id,ship_id,plan_start,plan_end,actual_start,actual_end,\
ship_class,rmc_id,ship_age_years,prior_avail_count,prior_avg_delay";

/// Header of the RCC table CSV.
pub const RCC_HEADER: &str = "rcc_id,avail_id,rcc_type,swlin,created,settled,amount";

/// Error produced when parsing a CSV extract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based line number (0 for structural problems — see
    /// [`CsvError::is_structural`]).
    pub line: usize,
    /// The field being parsed when the error occurred, if any.
    pub field: Option<&'static str>,
    /// What went wrong.
    pub message: String,
}

impl CsvError {
    /// A whole-file problem (missing or mismatched header): no single
    /// line is at fault.
    pub fn structural(message: impl Into<String>) -> CsvError {
        CsvError { line: 0, field: None, message: message.into() }
    }

    /// A row-shape problem on one line (wrong field count).
    pub fn at_line(line: usize, message: impl Into<String>) -> CsvError {
        CsvError { line, field: None, message: message.into() }
    }

    /// A value problem in one named field of one line.
    pub fn at_field(line: usize, field: &'static str, message: impl Into<String>) -> CsvError {
        CsvError { line, field: Some(field), message: message.into() }
    }

    /// True for whole-file problems that no row-level quarantine can
    /// work around (the lenient readers refuse the extract too).
    pub fn is_structural(&self) -> bool {
        self.line == 0
    }
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_structural() {
            write!(f, "CSV structure: {}", self.message)
        } else {
            match self.field {
                Some(field) => write!(f, "CSV line {} (field {field}): {}", self.line, self.message),
                None => write!(f, "CSV line {}: {}", self.line, self.message),
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// Serializes the avail table.
pub fn write_avails(dataset: &Dataset) -> String {
    let mut out = String::with_capacity(64 * dataset.avails().len());
    out.push_str(AVAIL_HEADER);
    out.push('\n');
    for a in dataset.avails() {
        let actual_end = a.actual_end.map(|d| d.to_string()).unwrap_or_default();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{}",
            a.id.0,
            a.ship.0,
            a.plan_start,
            a.plan_end,
            a.actual_start,
            actual_end,
            a.statics.ship_class,
            a.statics.rmc_id,
            a.statics.ship_age_years,
            a.statics.prior_avail_count,
            a.statics.prior_avg_delay,
        );
    }
    out
}

/// Serializes the RCC table.
pub fn write_rccs(dataset: &Dataset) -> String {
    let mut out = String::with_capacity(48 * dataset.rccs().len());
    out.push_str(RCC_HEADER);
    out.push('\n');
    for r in dataset.rccs() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            r.id.0, r.avail.0, r.rcc_type, r.swlin, r.created, r.settled, r.amount,
        );
    }
    out
}

/// Splits one row into exactly `N` comma-separated fields in one byte
/// pass, without allocating; any other field count is a row error.
fn fields<const N: usize>(line: &str, line_no: usize) -> Result<[&str; N], CsvError> {
    let mut out = [""; N];
    let mut n = 0usize;
    let mut start = 0usize;
    for (i, &b) in line.as_bytes().iter().enumerate() {
        if b == b',' {
            if let Some(slot) = out.get_mut(n) {
                *slot = &line[start..i];
            }
            n += 1;
            start = i + 1;
        }
    }
    if let Some(slot) = out.get_mut(n) {
        *slot = &line[start..];
    }
    n += 1;
    if n != N {
        return Err(CsvError::at_line(line_no, format!("expected {N} fields, got {n}")));
    }
    Ok(out)
}

/// `str::trim` without its two UTF-8 decodes when the field starts and
/// ends with a visible ASCII byte, as every field an export writes does;
/// no such byte is whitespace, so the result is the same.
fn trim(s: &str) -> &str {
    let visible = |b: Option<&u8>| b.is_some_and(|&b| b > b' ' && b.is_ascii());
    if visible(s.as_bytes().first()) && visible(s.as_bytes().last()) {
        s
    } else {
        s.trim()
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &'static str, line_no: usize) -> Result<T, CsvError>
where
    T::Err: std::fmt::Display,
{
    trim(s).parse().map_err(|e| CsvError::at_field(line_no, what, format!("bad value {s:?}: {e}")))
}

/// [`parse`] for a `u32`, reading one to nine ASCII digits (every id an
/// export writes) directly; any other text takes `str::parse`, so the
/// value or error is the same either way.
fn parse_u32(s: &str, what: &'static str, line_no: usize) -> Result<u32, CsvError> {
    let b = s.as_bytes();
    if (1..=9).contains(&b.len()) && b.iter().all(u8::is_ascii_digit) {
        return Ok(b.iter().fold(0, |n, &d| n * 10 + u32::from(d - b'0')));
    }
    parse(s, what, line_no)
}

fn parse_finite(s: &str, what: &'static str, line_no: usize) -> Result<f64, CsvError> {
    let v: f64 = parse(s, what, line_no)?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(CsvError::at_field(line_no, what, format!("non-finite value {s:?}")))
    }
}

fn check_header(
    lines: &mut std::iter::Enumerate<std::str::Lines<'_>>,
    expected: &str,
    table: &str,
) -> Result<(), CsvError> {
    match lines.next() {
        Some((_, h)) if h.trim() == expected => Ok(()),
        Some((_, h)) => Err(CsvError::structural(format!(
            "{table} header mismatch: expected {expected:?}, found {h:?}"
        ))),
        None => Err(CsvError::structural(format!("empty input: missing {table} header"))),
    }
}

/// Parses one avail-table data row.
fn parse_avail_row(line: &str, line_no: usize) -> Result<Avail, CsvError> {
    let f = fields::<11>(line, line_no)?;
    let actual_end: Option<Date> = if trim(f[5]).is_empty() {
        None
    } else {
        Some(parse(f[5], "actual_end", line_no)?)
    };
    Ok(Avail {
        id: AvailId(parse_u32(f[0], "avail_id", line_no)?),
        ship: ShipId(parse_u32(f[1], "ship_id", line_no)?),
        plan_start: parse(f[2], "plan_start", line_no)?,
        plan_end: parse(f[3], "plan_end", line_no)?,
        actual_start: parse(f[4], "actual_start", line_no)?,
        actual_end,
        statics: StaticAttrs {
            ship_class: parse(f[6], "ship_class", line_no)?,
            rmc_id: parse(f[7], "rmc_id", line_no)?,
            ship_age_years: parse_finite(f[8], "ship_age_years", line_no)?,
            prior_avail_count: parse_u32(f[9], "prior_avail_count", line_no)?,
            prior_avg_delay: parse_finite(f[10], "prior_avg_delay", line_no)?,
        },
    })
}

/// Parses one RCC-table data row.
fn parse_rcc_row(line: &str, line_no: usize) -> Result<Rcc, CsvError> {
    let f = fields::<7>(line, line_no)?;
    let rcc_type: RccType = trim(f[2])
        .parse()
        .map_err(|e| CsvError::at_field(line_no, "rcc_type", e))?;
    let swlin: Swlin =
        trim(f[3]).parse().map_err(|e| CsvError::at_field(line_no, "swlin", e))?;
    Ok(Rcc {
        id: RccId(parse_u32(f[0], "rcc_id", line_no)?),
        avail: AvailId(parse_u32(f[1], "avail_id", line_no)?),
        rcc_type,
        swlin,
        created: parse(f[4], "created", line_no)?,
        settled: parse(f[5], "settled", line_no)?,
        amount: parse_finite(f[6], "amount", line_no)?,
    })
}

/// Lines after the header, counting an unterminated last line: exactly
/// the rows of an extract without blank lines, so reading one allocates
/// its row vector once, at its final size.
fn data_line_count(text: &str) -> usize {
    let newlines = text.bytes().filter(|&b| b == b'\n').count();
    (newlines + usize::from(!text.ends_with('\n'))).saturating_sub(1)
}

fn read_table<T>(
    text: &str,
    header: &str,
    table: &str,
    parse_row: impl Fn(&str, usize) -> Result<T, CsvError>,
) -> Result<Vec<T>, CsvError> {
    let mut lines = text.lines().enumerate();
    check_header(&mut lines, header, table)?;
    let mut out = Vec::with_capacity(data_line_count(text));
    for (i, line) in lines {
        if trim(line).is_empty() {
            continue;
        }
        out.push(parse_row(line, i + 1)?);
    }
    Ok(out)
}

/// Rows that survived a lenient table read, each with its 1-based line
/// number, plus the rows that did not.
#[derive(Debug, Clone)]
pub struct LenientTable<T> {
    /// Successfully parsed rows as `(line number, row)` pairs.
    pub rows: Vec<(usize, T)>,
    /// Rows that failed to parse, with the reason and raw text.
    pub quarantined: Vec<QuarantinedRow>,
}

fn read_table_lenient<T>(
    text: &str,
    header: &str,
    table: &'static str,
    parse_row: impl Fn(&str, usize) -> Result<T, CsvError>,
) -> Result<LenientTable<T>, CsvError> {
    let mut lines = text.lines().enumerate();
    check_header(&mut lines, header, table)?;
    let mut rows = Vec::with_capacity(data_line_count(text));
    let mut quarantined = Vec::new();
    for (i, line) in lines {
        if trim(line).is_empty() {
            continue;
        }
        let line_no = i + 1;
        match parse_row(line, line_no) {
            Ok(row) => rows.push((line_no, row)),
            Err(e) => quarantined.push(QuarantinedRow {
                table,
                line: line_no,
                field: e.field,
                reason: e.message,
                raw: line.to_string(),
            }),
        }
    }
    Ok(LenientTable { rows, quarantined })
}

/// Parses an avail table CSV (as produced by [`write_avails`]), failing
/// on the first malformed row.
pub fn read_avails(text: &str) -> Result<Vec<Avail>, CsvError> {
    read_table(text, AVAIL_HEADER, "avail", parse_avail_row)
}

/// Parses an RCC table CSV (as produced by [`write_rccs`]), failing on
/// the first malformed row.
pub fn read_rccs(text: &str) -> Result<Vec<Rcc>, CsvError> {
    read_table(text, RCC_HEADER, "RCC", parse_rcc_row)
}

/// Lenient counterpart of [`read_avails`]: malformed rows are quarantined
/// instead of aborting the extract. Header problems are still fatal.
pub fn read_avails_lenient(text: &str) -> Result<LenientTable<Avail>, CsvError> {
    read_table_lenient(text, AVAIL_HEADER, "avail", parse_avail_row)
}

/// Lenient counterpart of [`read_rccs`].
pub fn read_rccs_lenient(text: &str) -> Result<LenientTable<Rcc>, CsvError> {
    read_table_lenient(text, RCC_HEADER, "RCC", parse_rcc_row)
}

/// Parses both tables strictly and assembles a [`Dataset`] from the pair.
pub fn read_dataset(avail_csv: &str, rcc_csv: &str) -> Result<Dataset, CsvError> {
    Ok(Dataset::new(read_avails(avail_csv)?, read_rccs(rcc_csv)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorConfig};

    fn small() -> Dataset {
        generate(&GeneratorConfig { n_avails: 15, target_rccs: 600, scale: 1, seed: 31 })
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ds = small();
        let back = read_dataset(&write_avails(&ds), &write_rccs(&ds)).unwrap();
        assert_eq!(back.avails(), ds.avails());
        assert_eq!(back.rccs(), ds.rccs());
    }

    #[test]
    fn ongoing_avails_roundtrip_with_empty_end() {
        let ds = small();
        let victim = ds.avails()[2].id;
        let as_of = ds.avails()[2].actual_start + 30;
        let (censored, _) = crate::generator::censor_ongoing(&ds, &[victim], as_of);
        let text = write_avails(&censored);
        let back = read_avails(&text).unwrap();
        let a = back.iter().find(|a| a.id == victim).unwrap();
        assert_eq!(a.actual_end, None);
    }

    #[test]
    fn rejects_missing_header() {
        assert!(read_avails("nope\n1,2,3").is_err());
        assert!(read_rccs("").is_err());
    }

    #[test]
    fn structural_errors_render_without_line_zero() {
        let e = read_avails("nope\n").unwrap_err();
        assert!(e.is_structural());
        let s = e.to_string();
        assert!(s.starts_with("CSV structure:"), "{s}");
        assert!(!s.contains("line 0"), "{s}");
        // The offending header text is included for the operator.
        assert!(s.contains("\"nope\""), "{s}");
        assert!(s.contains("avail_id"), "expected header named in {s}");

        let empty = read_rccs("").unwrap_err();
        assert!(empty.is_structural());
        assert!(empty.to_string().contains("empty input"), "{empty}");
    }

    #[test]
    fn reports_line_numbers() {
        let mut text = String::from(AVAIL_HEADER);
        text.push_str("\n1,2,1/1/20,6/1/20,1/1/20,,0,0,10.0,1,5.0\nbad,row\n");
        let e = read_avails(&text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("expected 11 fields"));
        assert!(!e.is_structural());
    }

    #[test]
    fn rejects_bad_values_naming_the_field() {
        let mut text = String::from(RCC_HEADER);
        text.push('\n');
        text.push_str("1,5,G,434-11-001,3/22/20,6/16/20,notanumber\n");
        let e = read_rccs(&text).unwrap_err();
        assert_eq!(e.field, Some("amount"));
        assert!(e.to_string().contains("field amount"), "{e}");
        let mut text2 = String::from(RCC_HEADER);
        text2.push('\n');
        text2.push_str("1,5,ZZ,434-11-001,3/22/20,6/16/20,5.0\n");
        assert_eq!(read_rccs(&text2).unwrap_err().field, Some("rcc_type"));
    }

    #[test]
    fn rejects_non_finite_amounts() {
        for bad in ["NaN", "inf", "-inf"] {
            let text = format!("{RCC_HEADER}\n1,5,G,434-11-001,3/22/20,6/16/20,{bad}\n");
            let e = read_rccs(&text).unwrap_err();
            assert_eq!(e.field, Some("amount"), "{bad}: {e}");
        }
        let text = format!("{AVAIL_HEADER}\n1,2,1/1/20,6/1/20,1/1/20,,0,0,NaN,1,5.0\n");
        assert_eq!(read_avails(&text).unwrap_err().field, Some("ship_age_years"));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let ds = small();
        let mut text = write_avails(&ds);
        text.push_str("\n\n");
        assert_eq!(read_avails(&text).unwrap().len(), ds.avails().len());
    }

    #[test]
    fn lenient_keeps_good_rows_and_quarantines_bad_ones() {
        let mut text = String::from(AVAIL_HEADER);
        text.push_str("\n1,2,1/1/20,6/1/20,1/1/20,,0,0,10.0,1,5.0\n");
        text.push_str("bad,row\n");
        text.push_str("3,4,2/1/20,8/1/20,2/1/20,9/1/20,1,1,12.0,0,0.0\n");
        text.push_str("4,4,2/1/20,8/1/20,2/1/20,9/1/20,1,1,twelve,0,0.0\n");
        let out = read_avails_lenient(&text).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].0, 2); // line numbers preserved
        assert_eq!(out.rows[1].0, 4);
        assert_eq!(out.quarantined.len(), 2);
        assert_eq!(out.quarantined[0].line, 3);
        assert_eq!(out.quarantined[0].raw, "bad,row");
        assert_eq!(out.quarantined[1].field, Some("ship_age_years"));
    }

    #[test]
    fn lenient_still_rejects_structural_problems() {
        assert!(read_avails_lenient("totally,wrong,header\n1,2,3\n")
            .unwrap_err()
            .is_structural());
        assert!(read_rccs_lenient("").unwrap_err().is_structural());
    }

    #[test]
    fn lenient_on_clean_extract_quarantines_nothing() {
        let ds = small();
        let out = read_rccs_lenient(&write_rccs(&ds)).unwrap();
        assert!(out.quarantined.is_empty());
        assert_eq!(out.rows.len(), ds.rccs().len());
    }

    /// The row parsers as they stood before the allocation-free rewrite
    /// (a `Vec` of fields per row, a `String` per SWLIN, `split` + `parse`
    /// per date), kept as the reference the production parsers must match
    /// result for result and message for message.
    mod oracle {
        use crate::avail::{Avail, AvailId, ShipId, StaticAttrs};
        use crate::csv::CsvError;
        use crate::date::{Date, DateError};
        use crate::rcc::{Rcc, RccId, RccType, Swlin};

        fn date(s: &str) -> Result<Date, DateError> {
            let bad = || DateError::Unparsable(s.to_string());
            if s.contains('/') {
                let mut it = s.split('/');
                let m: u32 = it.next().ok_or_else(bad)?.trim().parse().map_err(|_| bad())?;
                let d: u32 = it.next().ok_or_else(bad)?.trim().parse().map_err(|_| bad())?;
                let ys = it.next().ok_or_else(bad)?.trim();
                if it.next().is_some() {
                    return Err(bad());
                }
                let mut y: i32 = ys.parse().map_err(|_| bad())?;
                if ys.len() <= 2 {
                    y += 2000;
                }
                Date::from_ymd(y, m, d)
            } else if s.contains('-') {
                let mut it = s.split('-');
                let y: i32 = it.next().ok_or_else(bad)?.trim().parse().map_err(|_| bad())?;
                let m: u32 = it.next().ok_or_else(bad)?.trim().parse().map_err(|_| bad())?;
                let d: u32 = it.next().ok_or_else(bad)?.trim().parse().map_err(|_| bad())?;
                if it.next().is_some() {
                    return Err(bad());
                }
                Date::from_ymd(y, m, d)
            } else {
                Err(bad())
            }
        }

        fn swlin(s: &str) -> Result<Swlin, String> {
            let digits: String = s.chars().filter(|c| c.is_ascii_digit()).collect();
            let seps: usize = s.chars().filter(|&c| c == '-').count();
            if digits.len() != 8 || (s.len() != digits.len() + seps) {
                return Err(format!("SWLIN must contain exactly 8 digits: {s:?}"));
            }
            let packed: u32 = digits.parse().map_err(|_| format!("bad SWLIN {s:?}"))?;
            Swlin::from_packed(packed)
        }

        fn fields(line: &str, want: usize, line_no: usize) -> Result<Vec<&str>, CsvError> {
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != want {
                return Err(CsvError::at_line(
                    line_no,
                    format!("expected {want} fields, got {}", f.len()),
                ));
            }
            Ok(f)
        }

        fn parse<T: std::str::FromStr>(
            s: &str,
            what: &'static str,
            line_no: usize,
        ) -> Result<T, CsvError>
        where
            T::Err: std::fmt::Display,
        {
            s.trim()
                .parse()
                .map_err(|e| CsvError::at_field(line_no, what, format!("bad value {s:?}: {e}")))
        }

        fn parse_date(s: &str, what: &'static str, line_no: usize) -> Result<Date, CsvError> {
            date(s.trim())
                .map_err(|e| CsvError::at_field(line_no, what, format!("bad value {s:?}: {e}")))
        }

        fn parse_finite(s: &str, what: &'static str, line_no: usize) -> Result<f64, CsvError> {
            let v: f64 = parse(s, what, line_no)?;
            if v.is_finite() {
                Ok(v)
            } else {
                Err(CsvError::at_field(line_no, what, format!("non-finite value {s:?}")))
            }
        }

        pub fn avail_row(line: &str, line_no: usize) -> Result<Avail, CsvError> {
            let f = fields(line, 11, line_no)?;
            let actual_end: Option<Date> = if f[5].trim().is_empty() {
                None
            } else {
                Some(parse_date(f[5], "actual_end", line_no)?)
            };
            Ok(Avail {
                id: AvailId(parse(f[0], "avail_id", line_no)?),
                ship: ShipId(parse(f[1], "ship_id", line_no)?),
                plan_start: parse_date(f[2], "plan_start", line_no)?,
                plan_end: parse_date(f[3], "plan_end", line_no)?,
                actual_start: parse_date(f[4], "actual_start", line_no)?,
                actual_end,
                statics: StaticAttrs {
                    ship_class: parse(f[6], "ship_class", line_no)?,
                    rmc_id: parse(f[7], "rmc_id", line_no)?,
                    ship_age_years: parse_finite(f[8], "ship_age_years", line_no)?,
                    prior_avail_count: parse(f[9], "prior_avail_count", line_no)?,
                    prior_avg_delay: parse_finite(f[10], "prior_avg_delay", line_no)?,
                },
            })
        }

        pub fn rcc_row(line: &str, line_no: usize) -> Result<Rcc, CsvError> {
            let f = fields(line, 7, line_no)?;
            let rcc_type: RccType = f[2]
                .trim()
                .parse()
                .map_err(|e| CsvError::at_field(line_no, "rcc_type", e))?;
            let swlin: Swlin =
                swlin(f[3].trim()).map_err(|e| CsvError::at_field(line_no, "swlin", e))?;
            Ok(Rcc {
                id: RccId(parse(f[0], "rcc_id", line_no)?),
                avail: AvailId(parse(f[1], "avail_id", line_no)?),
                rcc_type,
                swlin,
                created: parse_date(f[4], "created", line_no)?,
                settled: parse_date(f[5], "settled", line_no)?,
                amount: parse_finite(f[6], "amount", line_no)?,
            })
        }
    }

    /// An avail row with its floats as bits, so `-0.0` and `0.0` differ.
    type AvailKey = (u32, u32, Date, Date, Date, Option<Date>, u8, u8, u64, u32, u64);
    /// An RCC row with its amount as bits.
    type RccKey = (u32, u32, RccType, Swlin, Date, Date, u64);
    /// A quarantined row's every field.
    type QuarantineKey = (&'static str, usize, Option<&'static str>, String, String);

    fn avail_key(a: &Avail) -> AvailKey {
        let s = &a.statics;
        (
            a.id.0,
            a.ship.0,
            a.plan_start,
            a.plan_end,
            a.actual_start,
            a.actual_end,
            s.ship_class,
            s.rmc_id,
            s.ship_age_years.to_bits(),
            s.prior_avail_count,
            s.prior_avg_delay.to_bits(),
        )
    }

    fn rcc_key(r: &Rcc) -> RccKey {
        (r.id.0, r.avail.0, r.rcc_type, r.swlin, r.created, r.settled, r.amount.to_bits())
    }

    fn quarantine_keys(q: &[QuarantinedRow]) -> Vec<QuarantineKey> {
        q.iter().map(|q| (q.table, q.line, q.field, q.reason.clone(), q.raw.clone())).collect()
    }

    /// Strict and lenient reads of `text` through the production row
    /// parser and through the reference one agree row for row (floats to
    /// the bit) and error for error (line, field and message).
    fn assert_parsers_agree<T, K: PartialEq + std::fmt::Debug>(
        text: &str,
        header: &str,
        table: &'static str,
        production: fn(&str, usize) -> Result<T, CsvError>,
        reference: fn(&str, usize) -> Result<T, CsvError>,
        key: fn(&T) -> K,
    ) {
        let strict = |parse_row: fn(&str, usize) -> Result<T, CsvError>| {
            read_table(text, header, table, parse_row).map(|rows| rows.iter().map(key).collect())
        };
        let got: Result<Vec<K>, CsvError> = strict(production);
        assert_eq!(got, strict(reference), "strict {table} read of {text:?}");
        let lenient = |parse_row: fn(&str, usize) -> Result<T, CsvError>| {
            read_table_lenient(text, header, table, parse_row).map(|t| {
                let rows: Vec<(usize, K)> = t.rows.iter().map(|(l, r)| (*l, key(r))).collect();
                (rows, quarantine_keys(&t.quarantined))
            })
        };
        assert_eq!(lenient(production), lenient(reference), "lenient {table} read of {text:?}");
    }

    fn assert_avails_agree(text: &str) {
        assert_parsers_agree(text, AVAIL_HEADER, "avail", parse_avail_row, oracle::avail_row, avail_key);
    }

    fn assert_rccs_agree(text: &str) {
        assert_parsers_agree(text, RCC_HEADER, "RCC", parse_rcc_row, oracle::rcc_row, rcc_key);
    }

    #[test]
    fn parsers_match_the_reference_on_generated_extracts() {
        for seed in [1, 7, 31, 2024] {
            let ds = generate(&GeneratorConfig { n_avails: 20, target_rccs: 800, scale: 1, seed });
            let (avails, rccs) = (write_avails(&ds), write_rccs(&ds));
            assert_avails_agree(&avails);
            assert_rccs_agree(&rccs);
            // The production readers themselves, not just the row parsers.
            let back = read_dataset(&avails, &rccs).unwrap();
            assert_eq!(back.rccs().iter().map(rcc_key).collect::<Vec<_>>(),
                ds.rccs().iter().map(rcc_key).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parsers_match_the_reference_under_every_corruption_kind() {
        let ds = small();
        let (avails, rccs) = (write_avails(&ds), write_rccs(&ds));
        let mut seen = Vec::new();
        for seed in 0..300u64 {
            let (bad_avails, kind) = crate::fault::corrupt_text(&avails, seed);
            assert_avails_agree(&bad_avails);
            let (bad_rccs, kind2) = crate::fault::corrupt_text(&rccs, seed ^ 0x5EED);
            assert_rccs_agree(&bad_rccs);
            seen.extend([kind, kind2]);
        }
        for kind in crate::fault::FaultKind::ALL {
            assert!(seen.contains(&kind), "no scenario drew {kind}");
        }
    }

    #[test]
    fn parsers_match_the_reference_on_hand_cases() {
        let rcc_rows = [
            "1,5,G,434-11-001,3/22/20,6/16/20,8000",
            " 1 , 5 , G , 434-11-001 , 3/22/20 , 6/16/20 , 8000 ",
            "1,5,NW,434-11-001,3/22/20,6/16/20,8000",
            "1,5,N,43411001,3/22/20,6/16/20,-0",
            "1,5,NG,--434-11--001-,03/02/2020,6/16/2020,1e3",
            "+1,+5,G,434-11-001,+3/22/+20,6/+16/20,+5",
            "1,5,G,434-11-001,3/22/5,6/16/05,1",
            "1,5,G,434-11-001,3/22/020,6/16/0020,1",
            "1,5,G,434-11-001,3/22/12345,6/16/99999,1",
            "1,5,G,434-11-001,2020-03-22,2020-6-16,1",
            "1,5,G,434-11-001, 3 / 22 / 20 ,6/16/20,1",
            "1,5,G,434-11-001,3/22/-5,6/16/-2020,1",
            "1,5,G,434-11-001,-3/22/20,6/16/20,1",
            "1,5,G,434-11-001,3/22/20/1,6/16/20,1",
            "1,5,G,434-11-001,3//20,6/16/20,1",
            "1,5,G,434-11-001,3/22/,6/16/20,1",
            "1,5,G,434-11-001,/22/20,6/16/20,1",
            "1,5,G,434-11-001,13/1/20,2/30/20,1",
            "1,5,G,434-11-001,2020-03,2020-03-22-1,1",
            "1,5,G,434-11-001,1/1/7000000,6/16/20,1",
            "1,5,G,434-11-001,1/1/-2147483648,6/16/20,1",
            "1,5,G,434-11-001,3/22/20x,6/16/20,1",
            "1,5,G,434-11-001,\u{0663}/22/20,6/16/20,1",
            "1,5,G,434-11-00\u{0661},3/22/20,6/16/20,1",
            "1,5,G,434-11-00\u{FF11},3/22/20,6/16/20,1",
            "1,5,G,434-11-01,3/22/20,6/16/20,1",
            "1,5,G,434-11-0011,3/22/20,6/16/20,1",
            "1,5,G,434 11 001,3/22/20,6/16/20,1",
            "1,5,G,--------,3/22/20,6/16/20,1",
            "1,5,G,434-11-001,3/22/20,6/16/20,8000,",
            "1,5,G,434-11-001,3/22/20,6/16/20",
            "1,5,G,,3/22/20,6/16/20,1",
            "1,5,,434-11-001,3/22/20,6/16/20,1",
            ",,,,,,",
            ",,,,,,,,,,,,,,",
            "1,5,G,434-11-001,,6/16/20,1",
            "1,5,X,434-11-001,3/22/20,6/16/20,NaN",
            "1,5,G,434-11-001,3/22/20,6/16/20,inf",
        ];
        let avail_rows = [
            "1,2,1/1/20,6/1/20,1/1/20,,0,0,10.0,1,5.0",
            " 1 , 2 , 1/1/20 , 6/1/2020 , 1/1/20 , 7/1/20 , 0 , 0 , 10.0 , 1 , -0.0 ",
            "1,2,1/1/20,6/1/20,1/1/20,   ,0,0,10.0,1,5.0",
            "1,2,2020-01-01,+6/1/20,1/1/5,1/1/0005,0,0,1e1,1,5",
            "1,2,1/1/20,6/1/20,1/1/20,1/1/7000000,0,0,10.0,1,5.0",
            "1,2,1/1/20,6/1/20,1/1/20,,0,0,10.0,1,5.0,",
            "1,2,1/1/20,6/1/20,1/1/20,,0,0,10.0,1",
            "1,2,1/1/20,6/1/20,1/1/20,,256,0,10.0,1,5.0",
            "1,2,1/1/20,6/\u{0661}/20,1/1/20,,0,0,10.0,1,5.0",
            ",,,,,,,,,,",
        ];
        for row in rcc_rows {
            for eol in ["\n", "\r\n", ""] {
                assert_rccs_agree(&format!("{RCC_HEADER}{eol}{row}{eol}"));
            }
        }
        for row in avail_rows {
            for eol in ["\n", "\r\n", ""] {
                assert_avails_agree(&format!("{AVAIL_HEADER}{eol}{row}{eol}"));
            }
        }
        // All at once: strict stops at the first bad line, lenient keeps
        // going with the same line numbers.
        assert_rccs_agree(&format!("{RCC_HEADER}\n{}\n", rcc_rows.join("\n")));
        assert_avails_agree(&format!("{AVAIL_HEADER}\r\n{}\r\n\r\n", avail_rows.join("\r\n")));
    }

    #[test]
    fn overflowing_year_is_refused_in_its_field() {
        let text = format!("{RCC_HEADER}\n1,5,G,434-11-001,1/1/7000000,6/16/20,8000\n");
        let e = read_rccs(&text).unwrap_err();
        assert_eq!((e.line, e.field), (2, Some("created")), "{e}");
        assert!(e.message.contains("invalid calendar date"), "{e}");
        let lenient = read_rccs_lenient(&text).unwrap();
        assert!(lenient.rows.is_empty());
        assert_eq!(lenient.quarantined[0].field, Some("created"));
    }

    #[test]
    fn row_vectors_are_reserved_at_their_final_size() {
        let ds = small();
        let text = write_rccs(&ds);
        assert_eq!(data_line_count(&text), ds.rccs().len());
        assert_eq!(data_line_count(text.trim_end()), ds.rccs().len());
        assert_eq!(data_line_count(""), 0);
        assert_eq!(data_line_count(RCC_HEADER), 0);
        assert_eq!(read_rccs(&text).unwrap().capacity(), ds.rccs().len());
    }
}
