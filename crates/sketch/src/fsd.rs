//! Flow size distribution (FSD) snapshots, their network-wide merge, and
//! the KL-divergence change detector that triggers tuning.
//!
//! An [`Fsd`] carries three views of one monitor interval:
//!
//! * a **flow-size histogram** over logarithmic size bins (one unit of mass
//!   per flow), which the FSD-accuracy metric of Figures 10–11 scores;
//! * **flow-mass shares** of elephants vs. mice (PE flows split between
//!   the two by their likelihood weight) — the "dominant flow type and its
//!   proportion µ" that steers the guided SA mutation ([`Fsd::dominant`]),
//!   and the `[mice, elephant]` distribution whose successive KL divergence
//!   `KL(R_t ‖ R_{t−1})` the controller thresholds against θ to decide
//!   whether network-wide traffic changed significantly ([`Fsd::kl_shares`]);
//! * **byte shares** of elephants vs. mice ([`Fsd::elephant_share`]),
//!   which the accuracy metric also scores but no controller decision reads.
//!
//! Local per-switch snapshots are merged into the network-wide FSD by
//! plain addition ([`Fsd::merge`]), which is exact because Keypoint 1
//! (single-sketch insertion) guarantees no flow is double-counted.

use serde::Serialize;

/// Number of logarithmic size bins (2^0 .. 2^39 bytes; everything larger
/// lands in the last bin).
pub(crate) const FSD_BINS: usize = 40;

/// Which flow class dominates a distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FlowType {
    /// Long/large flows wanting throughput.
    Elephant,
    /// Short/small flows wanting low latency.
    Mice,
}

/// One interval's flow size distribution snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fsd {
    /// Per-bin flow mass (bin = ⌊log₂ size⌋, clamped). Inline, so a
    /// snapshot is built, cloned, uploaded and merged without touching
    /// the heap.
    hist: [f64; FSD_BINS],
    /// Bytes attributed to elephants (E fully, PE by likelihood).
    elephant_bytes: f64,
    /// Bytes attributed to mice.
    mice_bytes: f64,
    /// Flow mass attributed to elephants (each flow contributes its
    /// likelihood weight).
    elephant_mass: f64,
    /// Flow mass attributed to mice.
    mice_mass: f64,
}

impl Default for Fsd {
    fn default() -> Self {
        Self::empty()
    }
}

impl Fsd {
    /// An empty distribution.
    pub fn empty() -> Self {
        Self {
            hist: [0.0; FSD_BINS],
            elephant_bytes: 0.0,
            mice_bytes: 0.0,
            elephant_mass: 0.0,
            mice_mass: 0.0,
        }
    }

    /// Whether no flows were recorded.
    pub fn is_empty(&self) -> bool {
        self.flow_mass() == 0.0
    }

    /// Total observed bytes.
    pub fn total_bytes(&self) -> f64 {
        self.elephant_bytes + self.mice_bytes
    }

    /// Byte share attributed to elephants, in `[0, 1]`; 0 when empty.
    pub fn elephant_share(&self) -> f64 {
        let t = self.total_bytes();
        if t <= 0.0 {
            0.0
        } else {
            self.elephant_bytes / t
        }
    }

    /// Total flow mass (≈ number of flows).
    pub fn flow_mass(&self) -> f64 {
        self.elephant_mass + self.mice_mass
    }

    /// Flow-mass share classified (fully or likely) elephant, `[0, 1]`.
    pub fn elephant_flow_share(&self) -> f64 {
        let m = self.flow_mass();
        if m <= 0.0 {
            0.0
        } else {
            self.elephant_mass / m
        }
    }

    /// The dominant flow type and its proportion µ, by **flow count**
    /// ("the network-wide flow size distribution is composed of 80%
    /// elephant flows and 20% mice flows" — §III-C measures composition
    /// in flows, which is what makes the paper's FB_Hadoop narrative
    /// work: mice dominate while arrivals flow, elephants re-dominate as
    /// the mice drain). An empty FSD defaults to mice with µ = 0.5.
    pub fn dominant(&self) -> (FlowType, f64) {
        if self.flow_mass() <= 0.0 {
            return (FlowType::Mice, 0.5);
        }
        let e = self.elephant_flow_share();
        if e >= 0.5 {
            (FlowType::Elephant, e)
        } else {
            (FlowType::Mice, 1.0 - e)
        }
    }

    /// Merge another (local) snapshot into this one; exact under
    /// Keypoint 1's single-insertion guarantee.
    pub fn merge(&mut self, other: &Fsd) {
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
        self.elephant_bytes += other.elephant_bytes;
        self.mice_bytes += other.mice_bytes;
        self.elephant_mass += other.elephant_mass;
        self.mice_mass += other.mice_mass;
    }

    /// A copy with every mass and byte tally multiplied by `w` — the
    /// staleness-weighted partial aggregation primitive: a cached local
    /// snapshot whose upload went missing is merged at a decayed weight
    /// instead of poisoning the network-wide merge at full strength.
    /// `w = 1` is the identity (bit-for-bit), `w = 0` contributes
    /// nothing.
    pub fn scaled(&self, w: f64) -> Fsd {
        if w == 1.0 {
            return self.clone();
        }
        let w = w.max(0.0);
        Fsd {
            hist: self.hist.map(|h| h * w),
            elephant_bytes: self.elephant_bytes * w,
            mice_bytes: self.mice_bytes * w,
            elephant_mass: self.elephant_mass * w,
            mice_mass: self.mice_mass * w,
        }
    }

    /// Histogram normalised to a probability distribution (uniform when
    /// empty, so KL against it is well defined).
    pub fn normalized_hist(&self) -> [f64; FSD_BINS] {
        let total: f64 = self.hist.iter().sum();
        if total <= 0.0 {
            return [1.0 / FSD_BINS as f64; FSD_BINS];
        }
        self.hist.map(|h| h / total)
    }

    /// Smoothed Kullback–Leibler divergence `KL(self ‖ prev)` between the
    /// normalised histograms. Add-ε smoothing keeps the value finite when
    /// a bin empties between intervals.
    pub fn kl_divergence(&self, prev: &Fsd) -> f64 {
        const EPS: f64 = 1e-4;
        let p = self.normalized_hist();
        let q = prev.normalized_hist();
        p.iter()
            .zip(&q)
            .map(|(&pi, &qi)| {
                let pi = pi + EPS;
                let qi = qi + EPS;
                pi * (pi / qi).ln()
            })
            .sum::<f64>()
            .max(0.0)
    }

    /// The `[mice, elephant]` flow-mass distribution (uniform when no
    /// flows were observed). This two-point distribution is what the
    /// controller's change detector compares across intervals: it is the
    /// tuner's actual decision variable (dominant flow type and µ) and,
    /// unlike the size histogram, it is stationary for a stable workload.
    pub(crate) fn share_distribution(&self) -> [f64; 2] {
        let m = self.flow_mass();
        if m <= 0.0 {
            [0.5, 0.5]
        } else {
            [self.mice_mass / m, self.elephant_mass / m]
        }
    }

    /// Smoothed KL divergence between the `[mice, elephant]` flow-mass
    /// share distributions of two snapshots (the quantity thresholded
    /// against θ).
    pub fn kl_shares(&self, prev: &Fsd) -> f64 {
        const EPS: f64 = 1e-4;
        let p = self.share_distribution();
        let q = prev.share_distribution();
        p.iter()
            .zip(&q)
            .map(|(&pi, &qi)| {
                let pi = pi + EPS;
                let qi = qi + EPS;
                pi * (pi / qi).ln()
            })
            .sum::<f64>()
            .max(0.0)
    }

    /// Histogram-intersection similarity with a ground-truth FSD, in
    /// `[0, 1]` (1 = identical). This is the "flow size distribution
    /// accuracy" metric of Figures 10(a)/11(a).
    pub fn similarity(&self, truth: &Fsd) -> f64 {
        let p = self.normalized_hist();
        let q = truth.normalized_hist();
        // Combine histogram similarity with elephant-share agreement, both
        // of which the tuner consumes.
        let hist_sim: f64 = p.iter().zip(&q).map(|(a, b)| a.min(*b)).sum();
        let share_sim = 1.0 - (self.elephant_share() - truth.elephant_share()).abs();
        0.5 * hist_sim + 0.5 * share_sim
    }

    /// Wire size of one snapshot upload (Table IV data-transfer
    /// accounting): the histogram plus the two byte shares as f32s.
    pub fn wire_size_bytes(&self) -> usize {
        FSD_BINS * 4 + 2 * 4
    }
}

/// Histogram bin of a flow of `size_bytes`: ⌊log₂ size⌋, clamped.
pub(crate) fn size_bin(size_bytes: u64) -> usize {
    if size_bytes <= 1 {
        0
    } else {
        (63 - size_bytes.leading_zeros() as usize).min(FSD_BINS - 1)
    }
}

/// Accumulates per-flow observations into an [`Fsd`].
#[derive(Debug, Clone, Default)]
pub struct FsdBuilder {
    fsd: Fsd,
}

impl FsdBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self { fsd: Fsd::empty() }
    }

    /// Add one flow of `size_bytes` whose elephant likelihood weight is
    /// `elephant_weight ∈ [0, 1]` (1 for E, `min(1, Φ/τ)` for PE, 0 for M).
    /// The flow's full size also weights the byte shares.
    pub fn add_flow(&mut self, size_bytes: u64, elephant_weight: f64) {
        self.add_flow_weighted(size_bytes, size_bytes, elephant_weight);
    }

    /// Add one flow whose *size bin* comes from `size_bytes` (bytes so
    /// far) but whose byte-share contribution is `share_bytes` — the
    /// monitor passes the flow's recent-window bytes here so the share
    /// distribution reflects current traffic rather than lifetime volume.
    pub fn add_flow_weighted(&mut self, size_bytes: u64, share_bytes: u64, elephant_weight: f64) {
        let w = elephant_weight.clamp(0.0, 1.0);
        self.fsd.hist[size_bin(size_bytes)] += 1.0;
        self.fsd.elephant_bytes += share_bytes as f64 * w;
        self.fsd.mice_bytes += share_bytes as f64 * (1.0 - w);
        self.fsd.elephant_mass += w;
        self.fsd.mice_mass += 1.0 - w;
    }

    /// Add flows of weight 0 or 1 in bulk: `bins[i]` flows in size bin
    /// `i`, `flows = [mice, elephants]` of them per class, carrying
    /// `share_bytes = [mice, elephants]`. The same as one
    /// [`add_flow_weighted`](Self::add_flow_weighted) per flow, since
    /// every term is an integer and integer sums below 2⁵³ are exact.
    pub(crate) fn add_whole_flows(
        &mut self,
        bins: &[u64; FSD_BINS],
        flows: [u64; 2],
        share_bytes: [u64; 2],
    ) {
        for (h, &n) in self.fsd.hist.iter_mut().zip(bins) {
            *h += n as f64;
        }
        self.fsd.mice_bytes += share_bytes[0] as f64;
        self.fsd.elephant_bytes += share_bytes[1] as f64;
        self.fsd.mice_mass += flows[0] as f64;
        self.fsd.elephant_mass += flows[1] as f64;
    }

    /// Finish and return the snapshot.
    pub fn build(self) -> Fsd {
        self.fsd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn elephant_heavy() -> Fsd {
        let mut b = FsdBuilder::new();
        b.add_flow(10 * MB, 1.0);
        b.add_flow(20 * MB, 1.0);
        b.add_flow(4_000, 0.0);
        b.build()
    }

    fn mice_heavy() -> Fsd {
        // 500 mice × 8 KB = 4 MB of mice bytes vs one 1 MB elephant.
        let mut b = FsdBuilder::new();
        for _ in 0..500 {
            b.add_flow(8_000, 0.0);
        }
        b.add_flow(MB, 1.0);
        b.build()
    }

    #[test]
    fn empty_fsd_is_neutral() {
        let f = Fsd::empty();
        assert!(f.is_empty());
        assert_eq!(f.elephant_share(), 0.0);
        let (_, mu) = f.dominant();
        assert_eq!(mu, 0.5);
    }

    #[test]
    fn dominant_type_follows_flow_composition() {
        // Two elephant flows vs one mouse: elephants dominate by count.
        let (t, mu) = elephant_heavy().dominant();
        assert_eq!(t, FlowType::Elephant);
        assert!((mu - 2.0 / 3.0).abs() < 1e-9, "µ = {mu}");
        // 500 mice vs one elephant: overwhelmingly mice by count, even
        // though byte share is closer.
        let (t, mu) = mice_heavy().dominant();
        assert_eq!(t, FlowType::Mice);
        assert!(mu > 0.99, "µ = {mu}");
        assert!(mice_heavy().elephant_share() > 0.1, "bytes still split");
    }

    #[test]
    fn kl_of_identical_distributions_is_zero() {
        let f = elephant_heavy();
        assert!(f.kl_divergence(&f) < 1e-9);
    }

    #[test]
    fn kl_detects_workload_shift() {
        let e = elephant_heavy();
        let m = mice_heavy();
        let stable = e.kl_divergence(&e);
        let shift = m.kl_divergence(&e);
        assert!(shift > stable + 0.01, "shift {shift} vs stable {stable}");
    }

    #[test]
    fn kl_is_nonnegative_and_finite() {
        let pairs = [
            (Fsd::empty(), Fsd::empty()),
            (elephant_heavy(), Fsd::empty()),
            (Fsd::empty(), mice_heavy()),
            (elephant_heavy(), mice_heavy()),
        ];
        for (a, b) in pairs {
            let kl = a.kl_divergence(&b);
            assert!(kl >= 0.0 && kl.is_finite());
        }
    }

    #[test]
    fn merge_adds_mass_and_bytes() {
        let mut a = elephant_heavy();
        let b = mice_heavy();
        let bytes = a.total_bytes() + b.total_bytes();
        let mass = a.flow_mass() + b.flow_mass();
        a.merge(&b);
        assert!((a.total_bytes() - bytes).abs() < 1e-6);
        assert!((a.flow_mass() - mass).abs() < 1e-6);
    }

    #[test]
    fn merge_order_is_irrelevant() {
        let (x, y) = (elephant_heavy(), mice_heavy());
        let mut ab = x.clone();
        ab.merge(&y);
        let mut ba = y.clone();
        ba.merge(&x);
        assert!((ab.kl_divergence(&ba)).abs() < 1e-12);
        assert!((ab.elephant_share() - ba.elephant_share()).abs() < 1e-12);
    }

    #[test]
    fn pe_weight_splits_bytes() {
        let mut b = FsdBuilder::new();
        b.add_flow(MB, 0.25);
        let f = b.build();
        assert!((f.elephant_share() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn similarity_is_one_for_identical_and_lower_for_different() {
        let e = elephant_heavy();
        assert!((e.similarity(&e) - 1.0).abs() < 1e-9);
        let s = e.similarity(&mice_heavy());
        assert!(s < 0.7, "dissimilar distributions scored {s}");
    }

    #[test]
    fn normalized_hist_sums_to_one() {
        for f in [elephant_heavy(), mice_heavy(), Fsd::empty()] {
            let s: f64 = f.normalized_hist().iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn size_bins_are_logarithmic() {
        let mut b = FsdBuilder::new();
        b.add_flow(1024, 0.0); // bin 10
        b.add_flow(2048, 0.0); // bin 11
        let f = b.build();
        let h = f.normalized_hist();
        assert!((h[10] - 0.5).abs() < 1e-9);
        assert!((h[11] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn huge_flows_clamp_to_last_bin() {
        let mut b = FsdBuilder::new();
        b.add_flow(u64::MAX, 1.0);
        let f = b.build();
        assert!(f.normalized_hist()[FSD_BINS - 1] > 0.99);
    }
}
