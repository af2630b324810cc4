//! Arithmetic shared by every mode: percentiles, sub-window medians, the
//! quartile spread the acceptance rule uses, `compare` verdicts, and the
//! small JSON reader/writer the result files need (the workspace's
//! `bench::json` is integer-only, and bounds and rates are fractions).

use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the acceptance rule is stated in those
/// terms, so the self-check must use the same interpolation.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median; 0 for fewer than two
/// samples (a single sample has no spread to speak of).
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// A half-open interval `[start, end)` on the benchmark clock, nanoseconds.
pub type Interval = (u64, u64);

/// Splits the window `[start_ns, start_ns + len_ns)` into `parts` equal
/// sub-windows (the last one absorbs the rounding remainder).
pub fn split_window(start_ns: u64, len_ns: u64, parts: usize) -> Vec<Interval> {
    let part = len_ns / parts as u64;
    (0..parts)
        .map(|i| {
            let lo = start_ns + part * i as u64;
            let hi = if i + 1 == parts {
                start_ns + len_ns
            } else {
                lo + part
            };
            (lo, hi)
        })
        .collect()
}

/// Groups `(instant, value)` samples by the interval holding the instant;
/// samples outside every interval are dropped.
pub fn bucket(
    intervals: &[Interval],
    samples: impl IntoIterator<Item = (u64, f64)>,
) -> Vec<Vec<f64>> {
    let mut buckets = vec![Vec::new(); intervals.len()];
    for (t, v) in samples {
        if let Some(i) = intervals
            .iter()
            .position(|(lo, hi)| (*lo..*hi).contains(&t))
        {
            buckets[i].push(v);
        }
    }
    buckets
}

/// One reported metric: its per-sub-window (or per-round, per-repetition)
/// values; the headline value is their median.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric {
            name: name.into(),
            unit,
            samples,
        }
    }

    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric::new(name, unit, vec![value])
    }

    pub fn value(&self) -> f64 {
        median(&self.samples)
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

/// How far a metric may worsen before `compare` calls it a regression.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Bound {
    /// A share of side `a`'s median.
    Relative(f64),
    /// An absolute amount in the metric's own unit.
    Absolute(f64),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The inter-quartile spread to expect of a side's *median* from run to
/// run, judged from its samples: for independent samples the quartiles of
/// the median of `n` lie 1.25 / sqrt(n) as far apart as the samples' own.
pub fn median_spread(samples: &[f64]) -> f64 {
    quartile_spread(samples) * 1.25 / (samples.len().max(1) as f64).sqrt()
}

/// Judges side `b` against side `a`.  Returns `(loss, verdict)`, where
/// `loss` is how much worse `b`'s median is (negative when better), in the
/// bound's terms.  A metric whose median spreads ([`median_spread`]) by
/// more than a relative bound cannot resolve a difference of that size: it
/// is `Unresolved` unless every sample of `b` beats every sample of `a`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: Bound) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let (loss, limit) = match bound {
        Bound::Relative(share) => (if ma == 0.0 { 0.0 } else { worse_by / ma.abs() }, share),
        Bound::Absolute(amount) => (worse_by, amount),
    };
    if let Bound::Relative(share) = bound {
        if median_spread(a) > share || median_spread(b) > share {
            let b_always_better = b.iter().all(|y| {
                a.iter().all(|x| match better {
                    Better::Lower => y < x,
                    Better::Higher => y > x,
                })
            });
            let v = if b_always_better {
                Verdict::Ok
            } else {
                Verdict::Unresolved
            };
            return (loss, v);
        }
    }
    // A hair of slack so a difference of exactly the bound is not tipped
    // over by floating-point rounding.
    let v = if loss > limit * (1.0 + 1e-9) {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (loss, v)
}

/// [`verdict`] for a metric either result file may lack.  A metric on one
/// side only was dropped or renamed, or its workload failed its validity
/// gate and reported nothing: that is `Worse`, never a silent pass.
pub fn verdict_sides(
    a: Option<&[f64]>,
    b: Option<&[f64]>,
    better: Better,
    bound: Bound,
) -> Verdict {
    match (a, b) {
        (Some(a), Some(b)) => verdict(a, b, better, bound).1,
        _ => Verdict::Worse,
    }
}

/// A parsed JSON value (numbers as `f64`).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected token at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => {
                self.at += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.at)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.at));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.at + 1).copied();
                    self.at += 2;
                    match esc {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.at))?;
                            self.at += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }
}

/// Quotes `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a measured number with all its digits (never exponent form,
/// never `NaN`: a metric that could not be computed is a bug upstream).
pub fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "metric value must be finite");
    format!("{x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // 10 samples: p99 is the maximum, p50 the fifth.
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), 10.0);
        assert_eq!(percentile(&w, 50.0), 5.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 45, 50, 70], n=4) == [17.5, 37.5, 55.0]
        let (q1, q3) = quartiles(&[10.0, 20.0, 30.0, 45.0, 50.0, 70.0]);
        assert!((q1 - 17.5).abs() < 1e-12 && (q3 - 55.0).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn sub_window_median_ignores_samples_outside_the_window() {
        let parts = split_window(1_000, 6_001, 6);
        assert_eq!(parts.len(), 6);
        assert_eq!(parts[0], (1_000, 2_000));
        assert_eq!(parts[5], (6_000, 7_001), "remainder goes to the last part");
        // One completion per sub-window except a burst in the third, plus
        // one before and one after the window: the median of per-window
        // counts is 1, where the mean would be 2.5.
        let mut samples: Vec<(u64, f64)> = (0..6).map(|i| (1_000 + i * 1_000, 1.0)).collect();
        samples.extend((0..9).map(|i| (3_001 + i, 1.0)));
        samples.push((999, 1.0));
        samples.push((7_001, 1.0));
        let counts: Vec<f64> = bucket(&parts, samples)
            .iter()
            .map(|b| b.len() as f64)
            .collect();
        assert_eq!(counts, vec![1.0, 1.0, 10.0, 1.0, 1.0, 1.0]);
        assert_eq!(median(&counts), 1.0);
    }

    #[test]
    fn compare_verdicts_at_and_beyond_a_bound() {
        let a = [100.0];
        // Lower is better, 10 %: 110 is exactly at the bound, 110.1 beyond.
        assert_eq!(
            verdict(&a, &[110.0], Better::Lower, Bound::Relative(0.10)).1,
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &[110.1], Better::Lower, Bound::Relative(0.10)).1,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[50.0], Better::Lower, Bound::Relative(0.10)).1,
            Verdict::Ok
        );
        // Higher is better, 7 %.
        assert_eq!(
            verdict(&a, &[93.0], Better::Higher, Bound::Relative(0.07)).1,
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &[92.9], Better::Higher, Bound::Relative(0.07)).1,
            Verdict::Worse
        );
        // Absolute bound (failed_share: +0.001).
        assert_eq!(
            verdict(&[0.0], &[0.001], Better::Lower, Bound::Absolute(0.001)).1,
            Verdict::Ok
        );
        assert_eq!(
            verdict(&[0.0], &[0.002], Better::Lower, Bound::Absolute(0.001)).1,
            Verdict::Worse
        );
        // "Must not drop": a zero bound on a higher-is-better metric.
        assert_eq!(
            verdict(&[2000.0], &[2000.0], Better::Higher, Bound::Relative(0.0)).1,
            Verdict::Ok
        );
        assert_eq!(
            verdict(&[2000.0], &[1000.0], Better::Higher, Bound::Relative(0.0)).1,
            Verdict::Worse
        );
    }

    #[test]
    fn compare_calls_a_metric_missing_from_one_side_worse() {
        let (better, bound) = (Better::Lower, Bound::Relative(0.10));
        let v = [100.0];
        assert_eq!(
            verdict_sides(Some(&v), Some(&v), better, bound),
            Verdict::Ok
        );
        assert_eq!(verdict_sides(Some(&v), None, better, bound), Verdict::Worse);
        assert_eq!(verdict_sides(None, Some(&v), better, bound), Verdict::Worse);
        assert_eq!(verdict_sides(None, None, better, bound), Verdict::Worse);
    }

    #[test]
    fn compare_is_unresolved_when_the_spread_exceeds_the_bound() {
        let noisy_a = [80.0, 100.0, 120.0, 90.0, 110.0, 100.0];
        let noisy_b = [85.0, 105.0, 125.0, 95.0, 115.0, 105.0];
        let (_, v) = verdict(&noisy_a, &noisy_b, Better::Lower, Bound::Relative(0.10));
        assert_eq!(v, Verdict::Unresolved);
        // ... unless every run of b beats every run of a.
        let clear_b = [40.0, 50.0, 60.0, 45.0, 55.0, 50.0];
        let (_, v) = verdict(&noisy_a, &clear_b, Better::Lower, Bound::Relative(0.10));
        assert_eq!(v, Verdict::Ok);
    }

    #[test]
    fn json_round_trips_what_the_result_files_hold() {
        let text = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y\n", "d": true, "e": null}}"#;
        let j = Json::parse(text).unwrap();
        let a = j.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        let b = j.get("b").unwrap();
        assert_eq!(b.get("c").and_then(Json::as_str), Some("x\"y\n"));
        assert_eq!(b.get("d"), Some(&Json::Bool(true)));
        assert_eq!(
            Json::parse(&json_str("q\"\\\n")).unwrap().as_str(),
            Some("q\"\\\n")
        );
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert_eq!(json_num(1.25), "1.25");
    }
}
