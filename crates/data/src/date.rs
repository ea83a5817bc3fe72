//! Civil-date arithmetic without external dependencies.
//!
//! Delay computation in the paper (Section 2) is pure day arithmetic between
//! planned/actual start and end dates, so a date is represented as the number
//! of days since the Unix epoch (1970-01-01). Conversions to and from
//! year/month/day use Howard Hinnant's `days_from_civil` / `civil_from_days`
//! algorithms, which are exact over the full `i32` day range we care about.

use std::fmt;
use std::str::FromStr;

/// A calendar date stored as days since 1970-01-01 (may be negative).
///
/// ```
/// use domd_data::date::Date;
/// let d = Date::from_ymd(2019, 5, 7).unwrap();
/// let e = Date::from_ymd(2020, 4, 11).unwrap();
/// assert_eq!(e - d, 340); // planned duration of avail 2 in Table 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date(i32);

/// Error returned when a calendar date is invalid or unparsable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DateError {
    /// The year/month/day triple does not name a real calendar day.
    InvalidComponents { year: i32, month: u32, day: u32 },
    /// The textual form could not be parsed as `M/D/YYYY` or `YYYY-MM-DD`.
    Unparsable(String),
}

impl fmt::Display for DateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DateError::InvalidComponents { year, month, day } => {
                write!(f, "invalid calendar date {year:04}-{month:02}-{day:02}")
            }
            DateError::Unparsable(s) => write!(f, "unparsable date string {s:?}"),
        }
    }
}

impl std::error::Error for DateError {}

/// True when `year` is a leap year in the proleptic Gregorian calendar.
pub fn is_leap_year(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// Number of days in `month` of `year` (month is 1-based).
pub fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Days since epoch of the civil triple (Hinnant's `days_from_civil`),
/// or `None` when the count does not fit the `i32` a [`Date`] holds.
/// Computed in `i64` throughout, so no intermediate step can wrap.
fn days_from_civil(y: i32, m: u32, d: u32) -> Option<i32> {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (i64::from(m) + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    i32::try_from(era * 146_097 + doe - 719_468).ok()
}

/// Civil triple of days since epoch (Hinnant's `civil_from_days`).
fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = z as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    let y = if m <= 2 { y + 1 } else { y };
    (y as i32, m, d)
}

impl Date {
    /// Construct a date from year, 1-based month, and 1-based day. A
    /// year so far out that its day count overflows `i32` (beyond about
    /// ±5.8 million years) is invalid too.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Result<Self, DateError> {
        let invalid = DateError::InvalidComponents { year, month, day };
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return Err(invalid);
        }
        days_from_civil(year, month, day).map(Date).ok_or(invalid)
    }

    /// Construct directly from a days-since-epoch count.
    pub fn from_days(days: i32) -> Self {
        Date(days)
    }

    /// Days since 1970-01-01.
    pub fn days(self) -> i32 {
        self.0
    }

    /// `(year, month, day)` triple of this date.
    pub fn ymd(self) -> (i32, u32, u32) {
        civil_from_days(self.0)
    }

    /// Calendar year.
    pub fn year(self) -> i32 {
        self.ymd().0
    }

    /// Calendar month, 1-based.
    pub fn month(self) -> u32 {
        self.ymd().1
    }

    /// Day of month, 1-based.
    pub fn day(self) -> u32 {
        self.ymd().2
    }

    /// This date shifted forward by `days` (negative shifts backward).
    pub fn plus_days(self, days: i32) -> Self {
        Date(self.0 + days)
    }
}

impl std::ops::Sub for Date {
    type Output = i32;

    /// Signed number of days from `rhs` to `self`.
    fn sub(self, rhs: Date) -> i32 {
        self.0 - rhs.0
    }
}

impl std::ops::Add<i32> for Date {
    type Output = Date;

    fn add(self, rhs: i32) -> Date {
        self.plus_days(rhs)
    }
}

impl fmt::Display for Date {
    /// Formats as `M/D/YYYY`, matching the paper's tables.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{m}/{d}/{y}")
    }
}

impl FromStr for Date {
    type Err = DateError;

    /// Parses `M/D/YYYY` (paper style, 2- or 4-digit year) or ISO `YYYY-MM-DD`.
    fn from_str(s: &str) -> Result<Self, DateError> {
        if let Some((y, m, d)) = canonical_mdy(s) {
            return Date::from_ymd(y, m, d);
        }
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
                // Two-digit years in the paper's tables are all 20xx.
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
}

/// The form every extract writes, `M/D/Y` with nothing but 1–4 ASCII
/// digits per part, as `(year, month, day)`; `None` for any other shape
/// (padding, signs, ISO, longer parts), which the general parser in
/// [`Date::from_str`] handles. Accepts exactly what that parser would and
/// yields the same triple, including the 20xx reading of a one- or
/// two-digit year.
fn canonical_mdy(s: &str) -> Option<(i32, u32, u32)> {
    let mut parts = s.as_bytes().split(|&b| b == b'/');
    let (month, _) = short_digits(parts.next()?)?;
    let (day, _) = short_digits(parts.next()?)?;
    let (year, width) = short_digits(parts.next()?)?;
    if parts.next().is_some() {
        return None;
    }
    // Two-digit years in the paper's tables are all 20xx.
    let century = if width <= 2 { 2000 } else { 0 };
    Some((year as i32 + century, month, day))
}

/// The value and width of 1–4 ASCII digits; `None` for anything else.
fn short_digits(part: &[u8]) -> Option<(u32, usize)> {
    if !(1..=4).contains(&part.len()) || !part.iter().all(u8::is_ascii_digit) {
        return None;
    }
    Some((part.iter().fold(0, |n, &b| n * 10 + u32::from(b - b'0')), part.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Date::from_ymd(1970, 1, 1).unwrap().days(), 0);
        assert_eq!(Date::from_days(0).ymd(), (1970, 1, 1));
    }

    #[test]
    fn known_offsets() {
        assert_eq!(Date::from_ymd(1970, 1, 2).unwrap().days(), 1);
        assert_eq!(Date::from_ymd(1969, 12, 31).unwrap().days(), -1);
        assert_eq!(Date::from_ymd(2000, 3, 1).unwrap().days(), 11_017);
    }

    #[test]
    fn paper_table1_durations() {
        // Avail 2: planned 5/7/19 .. 4/11/20 = 340 days; actual 5/7/19 .. 5/21/21 = 745.
        let plan_s: Date = "5/7/19".parse().unwrap();
        let plan_e: Date = "4/11/20".parse().unwrap();
        let act_e: Date = "5/21/21".parse().unwrap();
        assert_eq!(plan_e - plan_s, 340);
        assert_eq!(act_e - plan_s, 745);
        assert_eq!((act_e - plan_s) - (plan_e - plan_s), 405); // d_2 in the paper
    }

    #[test]
    fn leap_years() {
        assert!(is_leap_year(2000));
        assert!(is_leap_year(2024));
        assert!(!is_leap_year(1900));
        assert!(!is_leap_year(2023));
        assert_eq!(days_in_month(2024, 2), 29);
        assert_eq!(days_in_month(2023, 2), 28);
    }

    #[test]
    fn rejects_invalid() {
        assert!(Date::from_ymd(2023, 2, 29).is_err());
        assert!(Date::from_ymd(2023, 13, 1).is_err());
        assert!(Date::from_ymd(2023, 0, 1).is_err());
        assert!(Date::from_ymd(2023, 4, 31).is_err());
        assert!("not-a-date".parse::<Date>().is_err());
        assert!("1/2".parse::<Date>().is_err());
    }

    #[test]
    fn rejects_day_counts_beyond_i32() {
        // Year 7,000,000 is ~2.56e9 days out: past i32::MAX, so it once
        // wrapped to a date in year -4,759,222.
        let err = "1/1/7000000".parse::<Date>().unwrap_err();
        assert_eq!(err, DateError::InvalidComponents { year: 7_000_000, month: 1, day: 1 });
        assert!("-7000000-01-01".parse::<Date>().is_err());
        assert!(Date::from_ymd(i32::MAX, 12, 31).is_err());
        assert!(Date::from_ymd(i32::MIN, 1, 1).is_err());
        // The widest years that fit still round-trip.
        for days in [i32::MAX, i32::MIN] {
            let (y, m, d) = Date::from_days(days).ymd();
            assert_eq!(Date::from_ymd(y, m, d).unwrap().days(), days);
        }
    }

    #[test]
    fn canonical_form_reads_every_year_width() {
        assert_eq!("3/22/20".parse::<Date>().unwrap().ymd(), (2020, 3, 22));
        assert_eq!("3/22/5".parse::<Date>().unwrap().ymd(), (2005, 3, 22));
        assert_eq!("03/02/2020".parse::<Date>().unwrap().ymd(), (2020, 3, 2));
        assert_eq!("1/1/0020".parse::<Date>().unwrap().ymd(), (20, 1, 1));
        assert_eq!("12/31/999".parse::<Date>().unwrap().ymd(), (999, 12, 31));
        // Shapes outside the canonical form still take the general path.
        assert_eq!(" 3/ 22/ 20".parse::<Date>().unwrap().ymd(), (2020, 3, 22));
        // A sign counts toward the year's width: `+5` is 2005, `+20` is 20.
        assert_eq!("3/22/+5".parse::<Date>().unwrap().ymd(), (2005, 3, 22));
        assert_eq!("3/22/+20".parse::<Date>().unwrap().ymd(), (20, 3, 22));
        assert_eq!("1/1/12345".parse::<Date>().unwrap().ymd(), (12345, 1, 1));
        for bad in ["1//2020", "/1/2020", "1/1/", "1/1/2020/", "13/1/2020", "1/1/2020x"] {
            assert!(bad.parse::<Date>().is_err(), "{bad}");
        }
    }

    #[test]
    fn parse_iso_and_display() {
        let d: Date = "2021-03-01".parse().unwrap();
        assert_eq!(d.ymd(), (2021, 3, 1));
        assert_eq!(d.to_string(), "3/1/2021");
    }

    #[test]
    fn arithmetic() {
        let d = Date::from_ymd(2020, 2, 27).unwrap();
        assert_eq!((d + 3).ymd(), (2020, 3, 1)); // crosses a leap day
        assert_eq!(d.plus_days(-27).ymd(), (2020, 1, 31));
    }

    #[test]
    fn accessors() {
        let d = Date::from_ymd(2022, 11, 8).unwrap();
        assert_eq!(d.year(), 2022);
        assert_eq!(d.month(), 11);
        assert_eq!(d.day(), 8);
    }

    #[test]
    fn roundtrip_dense_range() {
        // Every day across several decades round-trips exactly.
        for days in -20_000..40_000 {
            let d = Date::from_days(days);
            let (y, m, dd) = d.ymd();
            assert_eq!(Date::from_ymd(y, m, dd).unwrap().days(), days);
        }
    }
}
