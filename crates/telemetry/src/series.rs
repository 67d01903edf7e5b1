//! Per-interval time series keyed by `(metric, entity)`.
//!
//! The closed loop appends one point per metric per λ_MI interval; the
//! experiment binaries later export the log and rebuild their figure
//! data from it. Points are stored in one flat append-only log (cheap
//! pushes, no per-key allocation) and grouped on demand.

/// One sample of one metric for one entity at one simulation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Metric name (static: instrumentation sites use literals).
    pub metric: &'static str,
    /// Entity index (0 for fabric-global metrics, switch/host index for
    /// per-device metrics).
    pub entity: u32,
    /// Simulation time in nanoseconds.
    pub t_ns: u64,
    /// Sample value.
    pub value: f64,
}

/// Append-only log of [`SeriesPoint`]s.
#[derive(Debug, Default)]
pub(crate) struct SeriesStore {
    points: Vec<SeriesPoint>,
}

impl SeriesStore {
    /// Empty store.
    pub(crate) fn new() -> Self {
        SeriesStore::default()
    }

    /// Append one sample.
    #[inline]
    pub(crate) fn push(&mut self, metric: &'static str, entity: u32, t_ns: u64, value: f64) {
        self.points.push(SeriesPoint {
            metric,
            entity,
            t_ns,
            value,
        });
    }

    /// All points in append order.
    pub(crate) fn points(&self) -> &[SeriesPoint] {
        &self.points
    }

    /// Points for one `(metric, entity)` key, in time order (append
    /// order is time order for a monotone clock).
    pub(crate) fn get(&self, metric: &str, entity: u32) -> Vec<SeriesPoint> {
        self.points
            .iter()
            .filter(|p| p.metric == metric && p.entity == entity)
            .copied()
            .collect()
    }

    /// Discard all points.
    pub(crate) fn clear(&mut self) {
        self.points.clear();
    }

    /// Heap + inline bytes held by the log.
    pub(crate) fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.points.capacity() * std::mem::size_of::<SeriesPoint>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_group_by_key() {
        let mut s = SeriesStore::new();
        s.push("goodput_gbps", 0, 100, 40.0);
        s.push("rtt_us", 0, 100, 12.0);
        s.push("goodput_gbps", 0, 200, 45.0);
        s.push("queue_frac", 2, 200, 0.3);
        assert_eq!(s.points().len(), 4);
        let g = s.get("goodput_gbps", 0);
        assert_eq!(g.len(), 2);
        assert_eq!((g[0].t_ns, g[0].value), (100, 40.0));
        assert_eq!((g[1].t_ns, g[1].value), (200, 45.0));
    }
}
