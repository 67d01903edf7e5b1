//! Elastic Sketch (Yang et al., SIGCOMM 2018): Heavy Part + Light Part
//! with vote-based "ostracism" eviction.
//!
//! * **Heavy Part** — an array of buckets, each holding one candidate
//!   elephant: `(flow id, vote⁺, vote⁻, flag)`. `vote⁺` counts bytes of the
//!   resident flow; `vote⁻` counts bytes of colliding flows. When
//!   `vote⁻ / vote⁺` exceeds the ostracism ratio λ, the resident flow is
//!   *ostracised*: its count is flushed to the Light Part and the colliding
//!   flow takes the bucket with `flag = true` (meaning part of its earlier
//!   traffic may live in the Light Part).
//! * **Light Part** — a count-min sketch of byte counters absorbing mice
//!   and evicted residue.
//!
//! The switch control plane calls [`ElasticSketch::drain`] every monitor
//! interval to read and reset the Heavy Part, exactly as the paper's
//! Tofino agent reads and resets the data-plane registers.

use serde::Serialize;

use crate::hash::bucket;
use crate::FlowId;

/// Light Part rows (count-min depth).
const LIGHT_ROWS: usize = 2;
/// Light Part counters per row (count-min width).
const LIGHT_COLS: usize = 4096;
/// Ostracism ratio λ: evict when `vote⁻ ≥ λ · vote⁺`.
const LAMBDA: u64 = 8;

/// Sizing and seeding, mirroring the SRAM budget of a Tofino
/// deployment.
#[derive(Debug, Clone, Serialize)]
pub struct SketchConfig {
    /// Number of Heavy Part buckets (1024 by default). Settable because
    /// tests shrink it to force bucket collisions and evictions.
    pub heavy_buckets: usize,
    /// Base hash seed; distinct measurement points should use distinct
    /// seeds, as hardware hash units differ per switch.
    pub seed: u64,
}

impl Default for SketchConfig {
    fn default() -> Self {
        Self {
            heavy_buckets: 1024,
            seed: 0xE1A5_71C5,
        }
    }
}

/// One Heavy Part bucket.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    flow: FlowId,
    vote_pos: u64,
    vote_neg: u64,
    occupied: bool,
    /// True when the resident flow may have residue in the Light Part.
    flag: bool,
}

/// A drained Heavy Part entry: one candidate elephant and its byte count
/// for the just-ended monitor interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavyEntry {
    /// The resident flow.
    pub flow: FlowId,
    /// Bytes recorded for the resident flow (`vote⁺`).
    pub bytes: u64,
    /// Whether part of this flow's traffic may sit in the Light Part.
    pub flagged: bool,
}

/// The Elastic Sketch data structure (one per measurement point).
#[derive(Debug, Clone)]
pub struct ElasticSketch {
    cfg: SketchConfig,
    heavy: Vec<Bucket>,
    light: Vec<u64>,
    /// Total bytes inserted since the last drain (diagnostics).
    pub bytes_inserted: u64,
    /// Total packets inserted since the last drain (diagnostics).
    pub packets_inserted: u64,
}

impl ElasticSketch {
    /// Allocate a sketch with the given configuration.
    pub fn new(cfg: SketchConfig) -> Self {
        assert!(cfg.heavy_buckets > 0);
        let heavy = vec![Bucket::default(); cfg.heavy_buckets];
        let light = vec![0u64; LIGHT_ROWS * LIGHT_COLS];
        Self {
            cfg,
            heavy,
            light,
            bytes_inserted: 0,
            packets_inserted: 0,
        }
    }

    /// Record one packet of `bytes` for `flow`.
    pub fn insert(&mut self, flow: FlowId, bytes: u64) {
        self.bytes_inserted += bytes;
        self.packets_inserted += 1;
        let idx = bucket(flow, self.cfg.seed, self.cfg.heavy_buckets);
        let b = &mut self.heavy[idx];
        if !b.occupied {
            *b = Bucket {
                flow,
                vote_pos: bytes,
                vote_neg: 0,
                occupied: true,
                flag: false,
            };
            return;
        }
        if b.flow == flow {
            b.vote_pos += bytes;
            return;
        }
        b.vote_neg += bytes;
        if b.vote_neg >= LAMBDA * b.vote_pos.max(1) {
            // Ostracism: flush the incumbent to the Light Part, seat the
            // challenger. The challenger's earlier bytes (its own vote⁻
            // contributions) stay in the Light Part, hence the flag.
            let (old_flow, old_bytes) = (b.flow, b.vote_pos);
            *b = Bucket {
                flow,
                vote_pos: bytes,
                vote_neg: 0,
                occupied: true,
                flag: true,
            };
            self.light_insert(old_flow, old_bytes);
        } else {
            self.light_insert(flow, bytes);
        }
    }

    fn light_insert(&mut self, flow: FlowId, bytes: u64) {
        for row in 0..LIGHT_ROWS {
            let c = bucket(flow, self.cfg.seed ^ (0xA5A5 + row as u64), LIGHT_COLS);
            self.light[row * LIGHT_COLS + c] =
                self.light[row * LIGHT_COLS + c].saturating_add(bytes);
        }
    }

    fn light_query(&self, flow: FlowId) -> u64 {
        (0..LIGHT_ROWS)
            .map(|row| {
                let c = bucket(flow, self.cfg.seed ^ (0xA5A5 + row as u64), LIGHT_COLS);
                self.light[row * LIGHT_COLS + c]
            })
            .min()
            .unwrap_or(0)
    }

    /// Estimated bytes recorded for `flow` in the current interval
    /// (Heavy Part count, plus Light Part residue when flagged).
    pub fn query(&self, flow: FlowId) -> u64 {
        let idx = bucket(flow, self.cfg.seed, self.cfg.heavy_buckets);
        let b = &self.heavy[idx];
        if b.occupied && b.flow == flow {
            if b.flag {
                b.vote_pos + self.light_query(flow)
            } else {
                b.vote_pos
            }
        } else {
            self.light_query(flow)
        }
    }

    /// Read and reset: return all Heavy Part residents (with Light Part
    /// residue folded in for flagged buckets) and clear the sketch. This is
    /// the control-plane operation performed once per monitor interval.
    pub fn drain(&mut self) -> Vec<HeavyEntry> {
        let mut out = Vec::new();
        for i in 0..self.heavy.len() {
            let b = self.heavy[i];
            if b.occupied {
                let bytes = if b.flag {
                    b.vote_pos + self.light_query(b.flow)
                } else {
                    b.vote_pos
                };
                out.push(HeavyEntry {
                    flow: b.flow,
                    bytes,
                    flagged: b.flag,
                });
            }
        }
        self.reset();
        out
    }

    /// Clear all state without reading (used at simulation epoch changes).
    pub fn reset(&mut self) {
        self.heavy.fill(Bucket::default());
        self.light.fill(0);
        self.bytes_inserted = 0;
        self.packets_inserted = 0;
    }

    /// Approximate SRAM footprint in bytes (Table IV memory accounting):
    /// heavy buckets are 2×32-bit counters + 32-bit key + flags ≈ 16 B,
    /// light counters 4 B.
    pub fn memory_bytes(&self) -> usize {
        self.cfg.heavy_buckets * 16 + LIGHT_ROWS * LIGHT_COLS * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch() -> ElasticSketch {
        ElasticSketch::new(SketchConfig::default())
    }

    #[test]
    fn single_flow_is_exact() {
        let mut s = sketch();
        for _ in 0..100 {
            s.insert(7, 1000);
        }
        assert_eq!(s.query(7), 100_000);
    }

    #[test]
    fn drain_returns_heavy_entries_and_resets() {
        let mut s = sketch();
        s.insert(1, 5_000);
        s.insert(2, 7_000);
        let entries = s.drain();
        assert_eq!(entries.len(), 2);
        let total: u64 = entries.iter().map(|e| e.bytes).sum();
        assert_eq!(total, 12_000);
        assert!(s.drain().is_empty());
        assert_eq!(s.query(1), 0);
    }

    #[test]
    fn ostracism_evicts_small_incumbent() {
        // Two flows forced into one bucket: tiny incumbent, huge challenger.
        let cfg = SketchConfig {
            heavy_buckets: 1,
            ..SketchConfig::default()
        };
        let mut s = ElasticSketch::new(cfg);
        s.insert(1, 100); // incumbent
        for _ in 0..20 {
            s.insert(2, 1000); // challenger outvotes it quickly
        }
        let entries = s.drain();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].flow, 2);
        assert!(entries[0].flagged);
    }

    #[test]
    fn evicted_flow_still_queryable_via_light_part() {
        let cfg = SketchConfig {
            heavy_buckets: 1,
            ..SketchConfig::default()
        };
        let mut s = ElasticSketch::new(cfg);
        s.insert(1, 100);
        for _ in 0..20 {
            s.insert(2, 1000);
        }
        // Flow 1 was flushed to the light part; count-min never
        // underestimates, so we must see at least its 100 bytes.
        assert!(s.query(1) >= 100);
    }

    #[test]
    fn elephant_survives_mice_crossfire() {
        let cfg = SketchConfig {
            heavy_buckets: 1,
            ..SketchConfig::default()
        };
        let mut s = ElasticSketch::new(cfg);
        // Elephant inserts large volume, interleaved with many one-shot
        // mice. The vote ratio protects the elephant.
        for i in 0..100u64 {
            s.insert(1, 10_000);
            s.insert(1000 + i, 100);
        }
        let entries = s.drain();
        assert_eq!(entries[0].flow, 1);
        assert_eq!(entries[0].bytes, 1_000_000);
    }

    #[test]
    fn count_min_never_underestimates() {
        let mut s = sketch();
        let mut truth = std::collections::HashMap::new();
        // Overload a small light part via heavy collisions.
        for k in 0..5_000u64 {
            let bytes = 100 + (k % 7) * 50;
            s.insert(k, bytes);
            *truth.entry(k).or_insert(0u64) += bytes;
        }
        for (&k, &t) in truth.iter().take(500) {
            assert!(s.query(k) >= t, "flow {k}: est {} < true {t}", s.query(k));
        }
    }

    #[test]
    fn total_bytes_conserved_across_heavy_entries_plus_light() {
        let mut s = sketch();
        let mut total = 0;
        for k in 0..200u64 {
            s.insert(k, 1_000 + k);
            total += 1_000 + k;
        }
        assert_eq!(s.bytes_inserted, total);
        // 200 flows in 1024 buckets see ~10% birthday collisions whose
        // bytes land in the Light Part; the Heavy Part still covers the
        // large majority of traffic.
        let drained: u64 = s.drain().iter().map(|e| e.bytes).sum();
        assert!(
            drained as f64 >= 0.8 * total as f64,
            "heavy part covered only {drained} of {total}"
        );
    }

    #[test]
    fn memory_accounting_matches_config() {
        assert_eq!(sketch().memory_bytes(), 1024 * 16 + 2 * 4096 * 4);
    }

    #[test]
    fn distinct_seeds_hash_flows_differently() {
        let a = ElasticSketch::new(SketchConfig {
            seed: 1,
            heavy_buckets: 64,
        });
        let b = ElasticSketch::new(SketchConfig {
            seed: 2,
            heavy_buckets: 64,
        });
        let same = (0..64u64)
            .filter(|&f| bucket(f, a.cfg.seed, 64) == bucket(f, b.cfg.seed, 64))
            .count();
        assert!(same < 20);
    }

    use crate::hash::bucket;
}
