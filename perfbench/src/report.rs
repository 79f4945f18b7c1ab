//! Statistics, provenance and JSON output shared by the workloads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Geometric mean of positive values (0 when there are none).
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values
        .iter()
        .map(|v| v.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / values.len() as f64)
        .exp()
}

/// Share of samples dropped from each end by [`trimmed_mean`].
pub const TRIM: f64 = 0.1;

/// Mean of the samples left after dropping the lowest and the highest
/// `trim` share of them.
///
/// Unlike the median it moves smoothly when the host's speed changes
/// part-way through a run: if some requests ran on a fast host and some
/// on a slow one, the median jumps from one level to the other as their
/// shares pass one half, while this mean moves in proportion. Unlike the
/// plain mean it ignores the rare stalls of a sub-millisecond row.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (sorted.len() as f64 * trim) as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// One cell of the per-row table: a row and the kind of operation on it.
#[derive(Default)]
pub struct Cell {
    pub row: String,
    pub class: &'static str,
    pub lat_ms: Vec<f64>,
    pub statuses: BTreeMap<String, u64>,
}

impl Cell {
    pub fn new(row: String, class: &'static str) -> Cell {
        Cell {
            row,
            class,
            ..Cell::default()
        }
    }

    pub fn p50(&self) -> f64 {
        percentile(&self.lat_ms, 0.5)
    }

    pub fn p90(&self) -> f64 {
        percentile(&self.lat_ms, 0.9)
    }

    pub fn tmean(&self) -> f64 {
        trimmed_mean(&self.lat_ms, TRIM)
    }

    pub fn json(&self) -> String {
        let mut statuses = String::new();
        for (i, (s, n)) in self.statuses.iter().enumerate() {
            if i > 0 {
                statuses.push(',');
            }
            let _ = write!(statuses, "{}:{n}", aqua_serve::json::quote(s));
        }
        format!(
            "{{\"row\":{},\"class\":\"{}\",\"n\":{},\"tmean_ms\":{},\"p50_ms\":{},\"p90_ms\":{},\"status\":{{{statuses}}}}}",
            aqua_serve::json::quote(&self.row),
            self.class,
            self.lat_ms.len(),
            num(self.tmean()),
            num(self.p50()),
            num(self.p90()),
        )
    }
}

/// A named value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// `{"name":{"value":v,"unit":"u"},...}`
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

/// A JSON number with every digit `f64` carries.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// High-water resident set of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without leaving the
/// working directory; "unknown" outside a git checkout.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
