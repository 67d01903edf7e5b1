//! `compare A.json B.json`: judge two `run --out` files against the
//! benchmark's own bounds, one row per (workload, end-to-end metric).

use std::path::Path;

use serde_json::Value;

use crate::spec::{self, Better};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of either side spread wider than the bound, and the two
    /// sides' ranges overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and range of one metric in one file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Range {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Range {
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

/// Direction-aware: how much worse `b` is than `a`, as a share of `a`
/// (negative when better).
fn worse_frac(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// `b` against `a` under `bound`:
/// * worse by more than the bound → regressed;
/// * either side's min–max range wider than the bound → unresolved,
///   unless every run of `b` reads better than every run of `a`;
/// * otherwise ok.
pub fn judge(better: Better, bound: f64, a: Range, b: Range) -> Verdict {
    if worse_frac(better, a.median, b.median) > bound {
        return Verdict::Regressed;
    }
    let b_always_better = match better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    if (a.spread() > bound || b.spread() > bound) && !b_always_better {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str_value(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn rows(doc: &Value) -> &[Value] {
    doc.get("rows").and_then(Value::as_array).unwrap_or(&[])
}

fn row_for<'a>(doc: &'a Value, workload: &str) -> Option<&'a Value> {
    rows(doc)
        .iter()
        .find(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
}

fn range_of(row: &Value, table: &str, metric: &str) -> Option<Range> {
    let m = row.get(table)?.get(metric)?;
    Some(Range {
        median: m.get("median")?.as_f64()?,
        min: m.get("min")?.as_f64()?,
        max: m.get("max")?.as_f64()?,
    })
}

/// Per-layer names that are exact counts or simulated statistics: two
/// sets of one commit must agree on them to the last digit.
fn is_exact(unit: &str, name: &str) -> bool {
    unit == "count" || name.starts_with("netsim.fct_slowdown") || name == "netsim.par_shards"
}

/// Print the comparison; exit code 0 only when every row is ok and
/// every exact value identical.
pub fn compare(a_path: &Path, b_path: &Path) -> u8 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut bad = 0;
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A (base A)", "bound"
    );
    for w in spec::WORKLOADS {
        let (Some(ra), Some(rb)) = (row_for(&a, w.name), row_for(&b, w.name)) else {
            continue;
        };
        let seed = |r: &Value| r.get("seed").and_then(Value::as_u64);
        let same_seed = seed(ra) == seed(rb);
        if !same_seed {
            println!(
                "{:<20} seeds differ: only the work-normalised metrics are compared",
                w.name
            );
        }
        let tables = [
            ("end_to_end", spec::END_TO_END, true),
            ("same_seed", spec::SAME_SEED, same_seed),
        ];
        for (table, metrics, judged) in tables {
            for m in metrics.iter().filter(|_| judged) {
                let (Some(x), Some(y)) = (range_of(ra, table, m.name), range_of(rb, table, m.name))
                else {
                    continue;
                };
                // Simulated statistics repeat exactly for one seed.
                let verdict = if same_seed && m.name.starts_with("sim_") && x.median != y.median {
                    Verdict::Regressed
                } else {
                    judge(m.better, m.bound, x, y)
                };
                bad += usize::from(verdict != Verdict::Ok);
                let base = format!("{:.4} ({:.6} {})", y.median / x.median, x.median, m.unit);
                println!(
                    "{:<20} {:<18} {:>14.6} {:>14.6} {:>22} {:>5.0}%  {}",
                    w.name,
                    m.name,
                    x.median,
                    y.median,
                    base,
                    m.bound * 100.0,
                    verdict.as_str()
                );
            }
        }
        if !same_seed {
            continue;
        }
        let fp = |r: &Value| {
            r.get("fingerprint")
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        if fp(ra) != fp(rb) {
            bad += 1;
            println!(
                "{:<20} fingerprint DIFFERS: {:?} vs {:?}",
                w.name,
                fp(ra),
                fp(rb)
            );
        }
        for p in spec::PER_LAYER.iter().filter(|p| is_exact(p.unit, p.name)) {
            let (Some(x), Some(y)) = (
                range_of(ra, "per_layer", p.name),
                range_of(rb, "per_layer", p.name),
            ) else {
                continue;
            };
            if x.median != y.median {
                bad += 1;
                println!(
                    "{:<20} {:<30} DIFFERS: {} vs {}",
                    w.name, p.name, x.median, y.median
                );
            }
        }
        for (name, r) in [("A", ra), ("B", rb)] {
            if r.get("correct").and_then(Value::as_bool) != Some(true) {
                bad += 1;
                println!(
                    "{:<20} set {name} did not pass its correctness checks",
                    w.name
                );
            }
        }
    }
    println!(
        "{}",
        if bad == 0 {
            "all rows ok"
        } else {
            "NOT all rows ok"
        }
    );
    u8::from(bad != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(median: f64, min: f64, max: f64) -> Range {
        Range { median, min, max }
    }

    #[test]
    fn within_bound_and_tight_is_ok() {
        assert_eq!(
            judge(Better::Lower, 0.10, r(10.0, 9.9, 10.1), r(10.5, 10.4, 10.6)),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                Better::Higher,
                0.10,
                r(100.0, 99.0, 101.0),
                r(95.0, 94.0, 96.0)
            ),
            Verdict::Ok
        );
    }

    #[test]
    fn worse_than_bound_is_regressed_in_either_direction() {
        assert_eq!(
            judge(Better::Lower, 0.10, r(10.0, 9.9, 10.1), r(11.5, 11.4, 11.6)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(
                Better::Higher,
                0.10,
                r(100.0, 99.0, 101.0),
                r(85.0, 84.0, 86.0)
            ),
            Verdict::Regressed
        );
        // Better by any amount is never a regression.
        assert_eq!(
            judge(Better::Lower, 0.10, r(10.0, 9.9, 10.1), r(5.0, 4.9, 5.1)),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_ranges_are_unresolved_unless_b_always_wins() {
        assert_eq!(
            judge(Better::Lower, 0.10, r(10.0, 9.0, 12.0), r(10.2, 10.0, 10.4)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.10, r(10.0, 9.9, 10.1), r(10.2, 9.0, 12.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.10, r(10.0, 9.0, 12.0), r(8.0, 7.9, 8.1)),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                Better::Higher,
                0.10,
                r(10.0, 9.0, 12.0),
                r(13.0, 12.5, 13.5)
            ),
            Verdict::Ok
        );
    }
}
