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

use serde::{field, Deserialize, Value};

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
#[derive(Debug, Clone, PartialEq, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Deserialize)]
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

/// Read a file written by [`write_jsonl`].
pub fn read_jsonl(path: impl AsRef<Path>) -> io::Result<TelemetryDump> {
    let text = fs::read_to_string(path.as_ref())?;
    let mut dump = TelemetryDump::default();
    for (i, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        read_line(raw, &mut dump).map_err(|e| {
            let what = format!("telemetry jsonl line {}: {e}", i + 1);
            io::Error::new(io::ErrorKind::InvalidData, what)
        })?;
    }
    Ok(dump)
}

/// Add one exported line to `dump`.
fn read_line(raw: &str, dump: &mut TelemetryDump) -> Result<(), String> {
    let v = serde_json::from_str_value(raw).map_err(|e| format!("parse error: {e}"))?;
    let Value::Object(entries) = &v else {
        return Err("not an object".into());
    };
    let kind: String = field(&v, "telemetry", "kind")?;
    let kind = kind.as_str();
    match kind {
        "counter" => dump
            .counters
            .push((field(&v, kind, "name")?, field(&v, kind, "value")?)),
        "gauge" => dump
            .gauges
            .push((field(&v, kind, "name")?, field(&v, kind, "value")?)),
        "hist" => dump.histograms.push(HistSummary::from_value(&v)?),
        "series" => dump.series.push(OwnedSeriesPoint::from_value(&v)?),
        // The payload is flattened into the line, so events are read by hand.
        "event" => dump.events.push(OwnedEvent {
            t_ns: field(&v, kind, "t_ns")?,
            tenant: field::<Option<u32>>(&v, kind, "tenant")?.unwrap_or(0),
            name: field(&v, kind, "event")?,
            fields: entries
                .iter()
                .filter(|(k, _)| !matches!(k.as_str(), "kind" | "t_ns" | "event" | "tenant"))
                .filter_map(|(k, x)| x.as_f64().map(|f| (k.clone(), f)))
                .collect(),
        }),
        "flight_meta" => dump.flight_dropped = field(&v, kind, "dropped")?,
        other => return Err(format!("unknown kind `{other}`")),
    }
    Ok(())
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
        assert!(dump.gauges.contains(&("sa_temp".into(), 12.5)));
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
        assert!(kl[0].fields.contains(&("kl".into(), 0.02)));
        assert_eq!(dump.flight_dropped, 0);
        // An entity that does not fit its `u32` is refused, not read as 0.
        let line = r#"{"kind":"series","metric":"m","entity":4294967296,"t_ns":0,"value":1.0}"#;
        fs::write(&path, line).unwrap();
        let err = read_jsonl(&path).unwrap_err().to_string();
        assert!(err.contains("line 1: OwnedSeriesPoint.entity"), "{err}");
        crate::reset();
        crate::set_enabled(false);
        let _ = std::fs::remove_dir_all(dir);
    }
}
