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

use serde::{Deserialize, Serialize};

use crate::{
    counters_snapshot, flight_dropped, flight_events, gauges_snapshot, histogram, series_points,
    Hist, TimedEvent,
};

/// One exported line: the variant's name under `"kind"`, then its
/// fields (an event's payload nests under `"event"`).
#[derive(Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum Line {
    Counter { name: String, value: u64 },
    Gauge { name: String, value: f64 },
    Hist(HistSummary),
    Series(OwnedSeriesPoint),
    Event(TimedEvent),
    FlightMeta { dropped: u64 },
}

/// Export the whole registry as JSONL. Parent directories are created;
/// returns the path written.
pub fn write_jsonl(path: impl AsRef<Path>) -> io::Result<PathBuf> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let counters = counters_snapshot()
        .into_iter()
        .map(|(name, value)| Line::Counter {
            name: name.into(),
            value,
        });
    let gauges = gauges_snapshot()
        .into_iter()
        .map(|(name, value)| Line::Gauge {
            name: name.into(),
            value,
        });
    let hists = Hist::ALL.iter().map(|&h| {
        let snap = histogram(h);
        Line::Hist(HistSummary {
            name: h.name().into(),
            count: snap.count(),
            min: snap.min(),
            max: snap.max(),
            mean: snap.mean(),
            p50: snap.value_at_quantile(0.5),
            p90: snap.value_at_quantile(0.9),
            p99: snap.value_at_quantile(0.99),
            p999: snap.value_at_quantile(0.999),
        })
    });
    let series = series_points().into_iter().map(|p| {
        Line::Series(OwnedSeriesPoint {
            metric: p.metric.into(),
            entity: p.entity,
            t_ns: p.t_ns,
            value: p.value,
        })
    });
    let events = flight_events().into_iter().map(Line::Event);
    let meta = Line::FlightMeta {
        dropped: flight_dropped(),
    };
    let mut out = io::BufWriter::new(fs::File::create(path)?);
    let lines = counters
        .chain(gauges)
        .chain(hists)
        .chain(series)
        .chain(events);
    for line in lines.chain([meta]) {
        let text = serde_json::to_string(&line).map_err(io::Error::other)?;
        writeln!(out, "{text}")?;
    }
    out.flush()?;
    Ok(path.to_path_buf())
}

/// A histogram's exported summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    pub events: Vec<TimedEvent>,
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

    /// Events of one type ([`Event::name`](crate::Event::name)), oldest
    /// first.
    pub fn events_named(&self, name: &str) -> Vec<&TimedEvent> {
        self.events
            .iter()
            .filter(|e| e.event.name() == name)
            .collect()
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
        let line = serde_json::from_str_value(raw)
            .map_err(|e| e.to_string())
            .and_then(|v| Line::from_value(&v));
        match line.map_err(|e| {
            let what = format!("telemetry jsonl line {}: {e}", i + 1);
            io::Error::new(io::ErrorKind::InvalidData, what)
        })? {
            Line::Counter { name, value } => dump.counters.push((name, value)),
            Line::Gauge { name, value } => dump.gauges.push((name, value)),
            Line::Hist(h) => dump.histograms.push(h),
            Line::Series(p) => dump.series.push(p),
            Line::Event(e) => dump.events.push(e),
            Line::FlightMeta { dropped } => dump.flight_dropped = dropped,
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
        let trigger = Event::KlTrigger {
            kl: 0.02,
            theta: 0.01,
        };
        assert_eq!(kl[0].event, trigger);
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

    /// Every malformed line is an `Err` naming the line, the type and
    /// the field, never a panic or a silently skipped line.
    #[test]
    fn malformed_lines_are_typed_errors() {
        let dir = std::env::temp_dir().join("paraleon-telemetry-malformed");
        let path = dir.join("bad.jsonl");
        fs::create_dir_all(&dir).unwrap();
        let cases = [
            (r#"{"name":"ecn_marks","value":1}"#, "Line: missing `kind`"),
            (r#"{"kind":"bogus"}"#, "Line: unknown kind `bogus`"),
            (
                r#"{"kind":"counter","name":"ecn_marks","value":-1}"#,
                "Line::Counter.value: expected a u64",
            ),
            (
                r#"{"kind":"gauge","name":"sa_temp"}"#,
                "Line::Gauge: missing `value`",
            ),
            (
                r#"{"kind":"hist","name":"rtt_ns"}"#,
                "HistSummary: missing `count`",
            ),
            (
                r#"{"kind":"event","t_ns":1,"event":{"kl":0.1}}"#,
                "TimedEvent.event: Event: missing `name`",
            ),
            (
                r#"{"kind":"event","t_ns":1,"event":{"name":"boom"}}"#,
                "TimedEvent.event: Event: unknown name `boom`",
            ),
            (
                r#"{"kind":"event","t_ns":1,"event":{"name":"ctrl_crash","warm":1}}"#,
                "TimedEvent.event: Event::CtrlCrash.warm: expected a bool",
            ),
            (
                r#"{"kind":"event","t_ns":1,"event":{"name":"kl_trigger","kl":0.1}}"#,
                "TimedEvent.event: Event::KlTrigger: missing `theta`",
            ),
            (
                r#"{"kind":"event","event":{"name":"safe_mode_exit"}}"#,
                "TimedEvent: missing `t_ns`",
            ),
            ("[1]", "expected a Line object"),
        ];
        for (line, want) in cases {
            fs::write(&path, line).unwrap();
            let err = read_jsonl(&path).unwrap_err().to_string();
            assert_eq!(err, format!("telemetry jsonl line 1: {want}"), "{line}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
