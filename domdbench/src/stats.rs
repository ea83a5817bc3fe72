//! Order statistics and the hand-rolled JSON the benchmark prints.

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Geometric mean of positive `values`; `None` when empty.
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(p, v.len()) - 1])
}

/// A tail percentile: the highest of the standard percentiles that still
/// has at least ten samples above it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub n: usize,
}

const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let p = TAIL_LADDER
        .iter()
        .copied()
        .find(|p| n >= 10 && n - rank(*p, n) >= 10)?;
    Some(Tail {
        percentile: p,
        value: percentile(values, p)?,
        n,
    })
}

/// Median and tail of one latency sample set, in the unit it was given in.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: Option<Tail>,
}

pub fn summarize(values: &[f64]) -> Option<Summary> {
    Some(Summary {
        n: values.len(),
        p50: median(values)?,
        tail: tail(values),
    })
}

/// A JSON value rendered on the fly.
#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (panics on non-objects: a bug).
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            _ => panic!("set on a non-object"),
        }
        self
    }

    pub fn num(&mut self, key: &str, value: f64) -> &mut Json {
        self.set(key, Json::Num(value))
    }

    /// The first few of `items`, as strings.
    pub fn first_strings(items: &[String]) -> Json {
        Json::Arr(items.iter().take(5).map(|m| Json::Str(m.clone())).collect())
    }

    pub fn nums(items: &[f64]) -> Json {
        Json::Arr(items.iter().map(|x| Json::Num(*x)).collect())
    }

    pub fn summary(s: &Summary) -> Json {
        let mut o = Json::obj();
        o.set("n", Json::Int(s.n as u64)).num("p50", s.p50);
        if let Some(t) = s.tail {
            o.num("tail", t.value).num("tail_percentile", t.percentile);
        }
        o
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // Non-finite numbers are not JSON; they only arise from an
            // empty sample and are written as null.
            Json::Num(x) if x.is_finite() => out.push_str(&format!("{x}")),
            Json::Num(_) => out.push_str("null"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert!(tail(&v[..15]).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.5));
    }
}
