//! Runtime configuration shared by all algorithms.

use std::sync::Arc;

use skyline_parallel::LaneCounters;

use crate::telemetry::SpanSink;

/// Pivot-selection strategies for Hybrid's point-based partitioning
/// (paper §VII-C2). All five are performance heuristics: Hybrid's
/// correctness never depends on which pivot is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PivotStrategy {
    /// Virtual point whose coordinates are the per-dimension medians of
    /// the points surviving pre-filtering. The paper's default and best
    /// performer: it yields partitions of roughly equal size.
    Median,
    /// The skyline point with minimum normalised coordinate range
    /// (BSkyTree's choice, Lee & Hwang).
    Balanced,
    /// The point with minimum L1 norm — necessarily a skyline point.
    Manhattan,
    /// The skyline point with extremal normalised log-volume (SaLSa's
    /// heuristic). The paper states maximum `Πᵢ p[i]`; for a minimisation
    /// skyline the skyline-membership guarantee holds for the *minimum*
    /// product, so that is what we select (documented deviation).
    Volume,
    /// A (non-uniformly) random skyline point: start from a uniformly
    /// random point and replace it whenever a later point dominates it.
    Random,
}

impl PivotStrategy {
    /// All strategies, in the paper's Figure 9 order.
    pub const ALL: [PivotStrategy; 5] = [
        PivotStrategy::Balanced,
        PivotStrategy::Volume,
        PivotStrategy::Manhattan,
        PivotStrategy::Random,
        PivotStrategy::Median,
    ];

    /// Name as printed in Figure 9.
    pub fn name(&self) -> &'static str {
        match self {
            PivotStrategy::Median => "Median",
            PivotStrategy::Balanced => "Balanced",
            PivotStrategy::Manhattan => "Manhattan",
            PivotStrategy::Volume => "Volume",
            PivotStrategy::Random => "Random",
        }
    }

    /// Parses a (case-insensitive) strategy name.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "median" => Some(Self::Median),
            "balanced" => Some(Self::Balanced),
            "manhattan" => Some(Self::Manhattan),
            "volume" => Some(Self::Volume),
            "random" => Some(Self::Random),
            _ => None,
        }
    }
}

/// Monotone sort keys for the presorting algorithms (SFS/SaLSa ablation).
///
/// Correctness requires `p ≺ q ⇒ key(p) < key(q)`; each of these keys is a
/// sum/min of per-dimension strictly increasing functions, which satisfies
/// that exactly (see `norms`). In `f32` the key can round to a tie, which
/// the working-set sort resolves in dominance order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortKey {
    /// Manhattan norm `Σᵢ p[i]` (the paper's choice for Q-Flow and SFS).
    #[default]
    L1,
    /// `Σᵢ softplus(p[i])` — the classic SFS "entropy" `Σ ln(1 + p[i])`
    /// generalised to stay defined for negative coordinates.
    Entropy,
    /// `minᵢ p[i]`, ties broken by L1 (SaLSa's key, enables early stop).
    MinCoord,
}

impl SortKey {
    /// Name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            SortKey::L1 => "L1",
            SortKey::Entropy => "entropy",
            SortKey::MinCoord => "minC",
        }
    }
}

/// Tuning knobs for every algorithm in the crate, pre-set to the paper's
/// empirically chosen defaults (§VII-C).
#[derive(Debug, Clone)]
pub struct SkylineConfig {
    /// Q-Flow block size α (paper: 2¹³ optimal across distributions).
    pub alpha_qflow: usize,
    /// Hybrid block size α (paper: 2¹⁰ optimal).
    pub alpha_hybrid: usize,
    /// Pre-filter priority-queue size β (paper: 8, footnote 3).
    pub prefilter_beta: usize,
    /// Hybrid pivot selection strategy (paper default: Median).
    pub pivot: PivotStrategy,
    /// Sort key used by SFS and PSFS.
    pub sort_key: SortKey,
    /// PBSkyTree stops recursing below this partition size (paper: 64).
    pub recursion_leaf: usize,
    /// PBSkyTree batches up to `batch_factor × threads` points (paper: 16).
    pub batch_factor: usize,
    /// Seed for the `Random` pivot strategy.
    pub seed: u64,
    /// External dominance-test counter handle. When set, algorithms
    /// accumulate DTs here instead of a run-local counter set, letting a
    /// caller scope DT totals to one query even under concurrency (see
    /// [`SkylineConfig::lane_counters`]). `None` (the default) keeps the
    /// historical run-local behaviour.
    pub dt_counters: Option<Arc<LaneCounters>>,
    /// Phase-boundary observer (see [`crate::telemetry`]). When set,
    /// algorithms report each phase boundary with the DTs spent since
    /// the previous one; the sink supplies its own timestamps. `None`
    /// (the default) costs nothing.
    pub span_sink: Option<Arc<dyn SpanSink>>,
}

impl SkylineConfig {
    /// A configuration with block sizes tuned to the workload, the hook
    /// the query engine's planner uses instead of the fixed paper
    /// defaults (which were chosen for n = 1M on 16 cores).
    ///
    /// α scales linearly with n (the paper's optima, 2¹⁰ for Hybrid and
    /// 2¹³ for Q-Flow at n = 1M, sit almost exactly on `n/1024` and
    /// `n/128`), clamped below so every block still feeds all `threads`
    /// lanes a few grains of work, and above by the paper's optima —
    /// larger blocks only delay compression without saving dispatches.
    pub fn tuned(n: usize, threads: usize) -> Self {
        let threads = threads.max(1);
        let floor = (16 * threads).next_power_of_two();
        let alpha_hybrid = (n / 1024)
            .next_power_of_two()
            .clamp(floor.min(1 << 10), 1 << 10);
        let alpha_qflow = (n / 128)
            .next_power_of_two()
            .clamp(floor.min(1 << 13), 1 << 13);
        Self {
            alpha_qflow,
            alpha_hybrid,
            ..Self::default()
        }
    }
}

impl Default for SkylineConfig {
    fn default() -> Self {
        Self {
            alpha_qflow: 1 << 13,
            alpha_hybrid: 1 << 10,
            prefilter_beta: 8,
            pivot: PivotStrategy::Median,
            sort_key: SortKey::L1,
            recursion_leaf: 64,
            batch_factor: 16,
            seed: 0x0053_5942_454e_4348, // "SKYBENCH"
            dt_counters: None,
            span_sink: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let cfg = SkylineConfig::default();
        assert_eq!(cfg.alpha_qflow, 8192);
        assert_eq!(cfg.alpha_hybrid, 1024);
        assert_eq!(cfg.prefilter_beta, 8);
        assert_eq!(cfg.pivot, PivotStrategy::Median);
        assert_eq!(cfg.recursion_leaf, 64);
        assert_eq!(cfg.batch_factor, 16);
    }

    #[test]
    fn tuned_alphas_track_workload() {
        // At the paper's scale the paper's optima are reproduced.
        let big = SkylineConfig::tuned(1 << 20, 16);
        assert_eq!(big.alpha_hybrid, 1 << 10);
        assert_eq!(big.alpha_qflow, 1 << 13);
        // Small inputs get proportionally smaller blocks…
        let small = SkylineConfig::tuned(4_096, 2);
        assert!(small.alpha_hybrid < 1 << 10);
        assert!(small.alpha_qflow < 1 << 13);
        // …but a block never starves a wide pool.
        let wide = SkylineConfig::tuned(100, 8);
        assert!(wide.alpha_hybrid >= 128);
        // Untouched knobs keep their defaults.
        assert_eq!(small.prefilter_beta, 8);
        assert_eq!(small.pivot, PivotStrategy::Median);
    }

    #[test]
    fn pivot_parsing_round_trips() {
        for p in PivotStrategy::ALL {
            assert_eq!(PivotStrategy::parse(p.name()), Some(p));
            assert_eq!(PivotStrategy::parse(&p.name().to_uppercase()), Some(p));
        }
        assert_eq!(PivotStrategy::parse("nope"), None);
    }
}
