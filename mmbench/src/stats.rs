//! Summary statistics, the correctness tally, the peak-memory reader and
//! the one JSON writer the benchmark prints with.

use std::fmt::Write as _;

/// A tail percentile needs at least this many samples beyond it, or it is
/// refused: fewer make the value an accident of the slowest few runs.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample count it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    /// Samples strictly above the nearest-rank position of the percentile.
    pub beyond: usize,
}

/// The nearest-rank `q`-percentile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    assert!((0.0..=1.0).contains(&q), "percentile {q} out of range");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// The median (mean of the two middle values for an even count); 0 for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Operations attempted and failed. An operation fails when the program
/// errs, when its fault set differs from the planted one, or when the
/// verifier rejects the claim.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; returns whether it was correct.
    pub fn record(&mut self, planted: &[usize], got: Option<&[usize]>, verified: bool) -> bool {
        self.attempted += 1;
        let ok = verified && got == Some(planted);
        if !ok {
            self.failed += 1;
        }
        ok
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Peak resident set size in MiB, parsed from the `VmHWM` line of a
/// `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// FNV-1a over a stream of integers: the digest of a run's generated
/// inputs, printed so two runs can show they used the same ones.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn add_all(&mut self, xs: &[usize]) {
        self.add(xs.len() as u64);
        for &x in xs {
            self.add(x as u64);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A JSON value, written compactly with object keys in insertion order.
#[derive(Clone, Debug)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => write!(out, "{n}").expect("writing to a String"),
            // Non-finite numbers have no JSON form; they would mean a
            // division by an empty measurement, which callers rule out.
            Json::Num(x) if x.is_finite() => write!(out, "{x}").expect("writing to a String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_count_and_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&samples, 0.90).expect("10 samples beyond p90 of 100");
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.samples, 100);
        assert_eq!(p90.beyond, 10);
        assert!(percentile(&samples, 0.95).is_none(), "only 5 beyond p95");
        let p99 = percentile(&(1..=1000).map(f64::from).collect::<Vec<_>>(), 0.99).unwrap();
        assert_eq!((p99.value, p99.samples, p99.beyond), (990.0, 1000, 10));
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn a_wrong_fault_set_raises_failed_frac() {
        let mut tally = Tally::default();
        assert!(tally.record(&[3, 64, 90], Some(&[3, 64, 90]), true));
        assert_eq!(tally.failed_frac(), 0.0);
        assert!(
            !tally.record(&[3, 64, 90], Some(&[3, 64]), true),
            "a missed fault"
        );
        assert!(
            !tally.record(&[3, 64], Some(&[3, 64]), false),
            "verifier rejected"
        );
        assert!(!tally.record(&[3], None, true), "the program erred");
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 3
            }
        );
        assert_eq!(tally.failed_frac(), 0.75);
    }

    #[test]
    fn vm_hwm_reader_parses_proc_status() {
        let text = "Name:\tmmbench\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_mib(text), Some(5.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t4000 kB\n"), None);
        let own = peak_rss_mib().expect("/proc/self/status has a VmHWM line");
        assert!(own > 0.0);
    }

    #[test]
    fn digest_separates_inputs() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.add_all(&[1, 2, 3]);
        b.add_all(&[1, 2, 4]);
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.add_all(&[1, 2, 3]);
        assert_eq!(a.hex(), c.hex());
    }

    #[test]
    fn json_renders_compactly_and_escapes() {
        let j = Json::obj([
            ("a", Json::Int(1)),
            ("b", Json::Num(1.5)),
            ("c", Json::str("x\"y")),
            ("d", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(j.render(), r#"{"a":1,"b":1.5,"c":"x\"y","d":[true,null]}"#);
    }
}
