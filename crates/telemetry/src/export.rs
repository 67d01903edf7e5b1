//! Serialize the registry to JSONL under `results/` and read it back.
//!
//! One JSONL file carries the full registry state — counters, gauges,
//! histogram summaries, every time-series point, and the flight
//! recorder — one self-describing object per line tagged with `kind`.
//! The figure binaries run an experiment with telemetry enabled, export
//! here, then rebuild their plot data from [`read_jsonl`] instead of
//! keeping bespoke in-memory accumulators.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use serde_json::Value;

use crate::{
    counters_snapshot, flight_dropped, flight_events, gauges_snapshot, histogram, series_points,
    Hist,
};

/// Quantiles exported per histogram.
const QUANTILES: [(&str, f64); 4] = [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p999", 0.999)];

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Export the whole registry as JSONL. Parent directories are created;
/// returns the path written.
pub fn write_jsonl(path: impl AsRef<Path>) -> io::Result<PathBuf> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(fs::File::create(path)?);
    let line = |out: &mut dyn Write, v: &Value| -> io::Result<()> {
        let s = serde_json::to_string(v).expect("telemetry values always serialize");
        writeln!(out, "{s}")
    };

    for (name, value) in counters_snapshot() {
        line(
            &mut out,
            &obj(vec![
                ("kind", Value::String("counter".into())),
                ("name", Value::String(name.into())),
                ("value", Value::UInt(value)),
            ]),
        )?;
    }
    for (name, value) in gauges_snapshot() {
        line(
            &mut out,
            &obj(vec![
                ("kind", Value::String("gauge".into())),
                ("name", Value::String(name.into())),
                ("value", Value::Float(value)),
            ]),
        )?;
    }
    for h in Hist::ALL {
        let snap = histogram(h);
        let mut entries = vec![
            ("kind", Value::String("hist".into())),
            ("name", Value::String(h.name().into())),
            ("count", Value::UInt(snap.count())),
            ("min", Value::UInt(snap.min())),
            ("max", Value::UInt(snap.max())),
            ("mean", Value::Float(snap.mean())),
        ];
        for (label, q) in QUANTILES {
            entries.push((label, Value::UInt(snap.value_at_quantile(q))));
        }
        line(&mut out, &obj(entries))?;
    }
    for p in series_points() {
        line(
            &mut out,
            &obj(vec![
                ("kind", Value::String("series".into())),
                ("metric", Value::String(p.metric.into())),
                ("entity", Value::UInt(p.entity as u64)),
                ("t_ns", Value::UInt(p.t_ns)),
                ("value", Value::Float(p.value)),
            ]),
        )?;
    }
    for ev in flight_events() {
        let mut entries = vec![
            ("kind", Value::String("event".into())),
            ("t_ns", Value::UInt(ev.t_ns)),
            ("event", Value::String(ev.event.name().into())),
        ];
        if ev.tenant != 0 {
            // Only multi-tenant (fleet) runs carry the dimension, so
            // standalone dumps stay byte-identical to older exports.
            entries.push(("tenant", Value::UInt(ev.tenant as u64)));
        }
        for (field, value) in ev.event.fields() {
            entries.push((field, Value::Float(value)));
        }
        line(&mut out, &obj(entries))?;
    }
    line(
        &mut out,
        &obj(vec![
            ("kind", Value::String("flight_meta".into())),
            ("dropped", Value::UInt(flight_dropped())),
        ]),
    )?;
    out.flush()?;
    Ok(path.to_path_buf())
}

/// A histogram's exported summary.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Histogram name.
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Mean sample.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// A time-series point read back from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedSeriesPoint {
    /// Metric name.
    pub metric: String,
    /// Entity index.
    pub entity: u32,
    /// Simulation time, nanoseconds.
    pub t_ns: u64,
    /// Sample value.
    pub value: f64,
}

/// A flight-recorder event read back from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedEvent {
    /// Simulation time, nanoseconds.
    pub t_ns: u64,
    /// Owning tenant (0 = standalone/default; absent in the file).
    pub tenant: u32,
    /// Event type name (e.g. `"sa_accept"`).
    pub name: String,
    /// Event payload fields.
    pub fields: Vec<(String, f64)>,
}

impl OwnedEvent {
    /// Look up one payload field.
    pub fn field(&self, name: &str) -> Option<f64> {
        self.fields.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }
}

/// Everything one exported JSONL file contained.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryDump {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries.
    pub histograms: Vec<HistSummary>,
    /// All series points, in file (= time) order.
    pub series: Vec<OwnedSeriesPoint>,
    /// Flight-recorder events, oldest first.
    pub events: Vec<OwnedEvent>,
    /// Events the flight recorder evicted before export.
    pub flight_dropped: u64,
}

impl TelemetryDump {
    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// A gauge's value (0.0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// A histogram summary by name.
    pub fn hist(&self, name: &str) -> Option<&HistSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// `(t_ns, value)` pairs of one `(metric, entity)` series.
    pub fn series_get(&self, metric: &str, entity: u32) -> Vec<(u64, f64)> {
        self.series
            .iter()
            .filter(|p| p.metric == metric && p.entity == entity)
            .map(|p| (p.t_ns, p.value))
            .collect()
    }

    /// Events of one type, oldest first.
    pub fn events_named(&self, name: &str) -> Vec<&OwnedEvent> {
        self.events.iter().filter(|e| e.name == name).collect()
    }
}

fn field<'v>(entries: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(u) => Some(*u),
        Value::Int(i) if *i >= 0 => Some(*i as u64),
        Value::Float(f) if *f >= 0.0 => Some(*f as u64),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::String(s) => Some(s),
        _ => None,
    }
}

fn bad(line_no: usize, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("telemetry jsonl line {line_no}: {what}"),
    )
}

/// Read a file written by [`write_jsonl`].
pub fn read_jsonl(path: impl AsRef<Path>) -> io::Result<TelemetryDump> {
    let text = fs::read_to_string(path.as_ref())?;
    let mut dump = TelemetryDump::default();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let value = serde_json::from_str_value(raw)
            .map_err(|e| bad(line_no, &format!("parse error: {e}")))?;
        let Value::Object(entries) = value else {
            return Err(bad(line_no, "not an object"));
        };
        let kind = field(&entries, "kind")
            .and_then(as_str)
            .ok_or_else(|| bad(line_no, "missing kind"))?;
        let req_u64 = |key: &str| -> io::Result<u64> {
            field(&entries, key)
                .and_then(as_u64)
                .ok_or_else(|| bad(line_no, &format!("missing {key}")))
        };
        let req_f64 = |key: &str| -> io::Result<f64> {
            field(&entries, key)
                .and_then(as_f64)
                .ok_or_else(|| bad(line_no, &format!("missing {key}")))
        };
        let req_str = |key: &str| -> io::Result<String> {
            field(&entries, key)
                .and_then(as_str)
                .map(String::from)
                .ok_or_else(|| bad(line_no, &format!("missing {key}")))
        };
        match kind {
            "counter" => dump.counters.push((req_str("name")?, req_u64("value")?)),
            "gauge" => dump.gauges.push((req_str("name")?, req_f64("value")?)),
            "hist" => dump.histograms.push(HistSummary {
                name: req_str("name")?,
                count: req_u64("count")?,
                min: req_u64("min")?,
                max: req_u64("max")?,
                mean: req_f64("mean")?,
                p50: req_u64("p50")?,
                p90: req_u64("p90")?,
                p99: req_u64("p99")?,
                p999: req_u64("p999")?,
            }),
            "series" => dump.series.push(OwnedSeriesPoint {
                metric: req_str("metric")?,
                entity: req_u64("entity")? as u32,
                t_ns: req_u64("t_ns")?,
                value: req_f64("value")?,
            }),
            "event" => dump.events.push(OwnedEvent {
                t_ns: req_u64("t_ns")?,
                tenant: field(&entries, "tenant").and_then(as_u64).unwrap_or(0) as u32,
                name: req_str("event")?,
                fields: entries
                    .iter()
                    .filter(|(k, _)| !matches!(k.as_str(), "kind" | "t_ns" | "event" | "tenant"))
                    .filter_map(|(k, v)| as_f64(v).map(|f| (k.clone(), f)))
                    .collect(),
            }),
            "flight_meta" => dump.flight_dropped = req_u64("dropped")?,
            other => return Err(bad(line_no, &format!("unknown kind `{other}`"))),
        }
    }
    Ok(dump)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctr, DispatchScope, Event, Gauge};

    #[test]
    fn jsonl_round_trip_preserves_everything() {
        crate::reset();
        crate::set_enabled(true);
        crate::set_time(1_000);
        crate::count_n(Ctr::EcnMarks, 7);
        crate::gauge_set(Gauge::SaTemp, 12.5);
        for v in [100u64, 2_000, 30_000] {
            crate::observe(Hist::RttNs, v);
        }
        crate::series("goodput_gbps", 0, 80.5);
        crate::set_time(2_000);
        crate::series("goodput_gbps", 0, 81.5);
        crate::event(Event::KlTrigger {
            kl: 0.02,
            theta: 0.01,
        });
        crate::event(Event::Dispatch {
            scope: DispatchScope::Global,
        });

        let dir = std::env::temp_dir().join("paraleon-telemetry-test");
        let path = dir.join("round_trip.jsonl");
        write_jsonl(&path).unwrap();
        let dump = read_jsonl(&path).unwrap();

        assert_eq!(dump.counter("ecn_marks"), 7);
        assert_eq!(dump.counter("kl_triggers"), 1);
        assert_eq!(dump.counter("dispatches"), 1);
        assert_eq!(dump.gauge("sa_temp"), 12.5);
        let h = dump.hist("rtt_ns").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 100);
        assert_eq!(h.max, 30_000);
        assert_eq!(
            dump.series_get("goodput_gbps", 0),
            vec![(1_000, 80.5), (2_000, 81.5)]
        );
        let kl = dump.events_named("kl_trigger");
        assert_eq!(kl.len(), 1);
        assert_eq!(kl[0].t_ns, 2_000);
        assert_eq!(kl[0].field("kl"), Some(0.02));
        assert_eq!(dump.flight_dropped, 0);
        crate::reset();
        crate::set_enabled(false);
        let _ = std::fs::remove_dir_all(dir);
    }
}
