//! Phase timing diagnostics.
//!
//! Section 7.4 of the paper breaks TKCM's runtime into the pattern-extraction
//! (PE) phase — fetching window data and computing dissimilarities — and the
//! pattern-selection (PS) phase — the dynamic program.  With the default
//! parameters PE accounts for ~92 % of the runtime; raising `k` to 300 pushes
//! PS to ~25 %.  [`PhaseTimer`] collects the same breakdown for our
//! implementation so the experiment harness can reproduce that analysis.
//!
//! Every closed phase span is additionally *recorded* (never read back —
//! the `obs-read-only` policy) into the process-global `tkcm-obs` metrics
//! registry as `tkcm_core_phase_nanos_total{phase=…}`, so fleet-wide phase
//! totals survive even when an individual breakdown is discarded.  The
//! composed path also records its extraction phase split into the stages
//! of its search, as `tkcm_core_search_nanos_total{stage=…}`.

use std::sync::LazyLock;
use std::time::{Duration, Instant};

/// Per-phase nano counters in the global metrics registry, in [`Phase`]
/// declaration order.
static PHASE_NANOS: LazyLock<[tkcm_obs::Counter; 4]> = LazyLock::new(|| {
    ["extraction", "selection", "imputation", "maintenance"].map(|phase| {
        tkcm_obs::registry().counter("tkcm_core_phase_nanos_total", &[("phase", phase)])
    })
});

/// Total imputations timed, fleet-wide.
static IMPUTATIONS: LazyLock<tkcm_obs::Counter> =
    LazyLock::new(|| tkcm_obs::registry().counter("tkcm_core_imputations_total", &[]));

/// Records `elapsed` in `phase`'s global nano counter (record-only).
pub(crate) fn record_phase_nanos(phase: Phase, elapsed: Duration) {
    let index = match phase {
        Phase::Extraction => 0,
        Phase::Selection => 1,
        Phase::Imputation => 2,
        Phase::Maintenance => 3,
    };
    PHASE_NANOS[index].add(nanos(elapsed));
}

fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// The `stage` labels of `tkcm_core_search_nanos_total`, the composed
/// search's split of the extraction phase: the lag-memory seed, the
/// level-1 run bounds, the heap search and the lag-memory rebuild.
pub const SEARCH_STAGES: [&str; 4] = ["seed", "run_bounds", "search", "memory"];

static SEARCH_NANOS: LazyLock<[tkcm_obs::Counter; 4]> = LazyLock::new(|| {
    SEARCH_STAGES.map(|stage| {
        tkcm_obs::registry().counter("tkcm_core_search_nanos_total", &[("stage", stage)])
    })
});

/// The stages of one composed search ([`SEARCH_STAGES`]).
#[derive(Clone, Copy, Debug)]
pub(crate) enum SearchStage {
    /// The query, its chunk summaries, the anchor provenance and the
    /// lag-memory walk.
    Seed,
    /// The level-1 bound of every run.
    RunBounds,
    /// The best-first heap loop, its drain included.
    Search,
    /// The lag-memory rebuild.
    Memory,
}

/// Stopwatch over the stages of one composed search: each
/// [`StageClock::lap`] records the time since the previous one in that
/// stage's global nano counter (record-only).  Stamped only at stage
/// boundaries, never per lag.
pub(crate) struct StageClock(Instant);

impl StageClock {
    pub(crate) fn start() -> Self {
        StageClock(Instant::now())
    }

    pub(crate) fn lap(&mut self, stage: SearchStage) {
        let started = std::mem::replace(&mut self.0, Instant::now());
        SEARCH_NANOS[stage as usize].add(nanos(self.0 - started));
    }
}

/// Accumulated wall-clock time per TKCM phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Pattern extraction: reading the window and computing dissimilarities.
    pub extraction: Duration,
    /// Pattern selection: the dynamic program over `D`.
    pub selection: Duration,
    /// Value imputation: averaging the anchor values and writing back.
    pub imputation: Duration,
    /// Composed-path upkeep outside an imputation: the engine's lag-memory
    /// lookup per imputation.  Zero on the exact-recompute path.
    pub maintenance: Duration,
    /// Number of imputations the breakdown was accumulated over.
    pub imputations: usize,
}

impl PhaseBreakdown {
    /// Total time across all phases.
    pub fn total(&self) -> Duration {
        self.extraction + self.selection + self.imputation + self.maintenance
    }

    /// Fraction of the total spent in pattern extraction (0 when no time was
    /// recorded at all).
    pub fn extraction_share(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.extraction.as_secs_f64() / total
        }
    }

    /// Fraction of the total spent in pattern selection.
    pub fn selection_share(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.selection.as_secs_f64() / total
        }
    }

    /// Fraction of the total spent in composed-path upkeep (`maintenance`).
    pub fn maintenance_share(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.maintenance.as_secs_f64() / total
        }
    }

    /// This breakdown with every wall-clock field zeroed but the imputation
    /// count kept: the canonical shape for equality assertions between two
    /// runs whose timings legitimately differ (threaded vs sequential,
    /// before vs after recovery).  Use via
    /// [`crate::EngineOutcome::timing_stripped`] rather than re-implementing
    /// the stripping in each test suite.
    pub fn zeroed_for_compare(&self) -> PhaseBreakdown {
        PhaseBreakdown {
            imputations: self.imputations,
            ..PhaseBreakdown::default()
        }
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        self.extraction += other.extraction;
        self.selection += other.selection;
        self.imputation += other.imputation;
        self.maintenance += other.maintenance;
        self.imputations += other.imputations;
    }
}

/// Stopwatch that attributes elapsed time to the TKCM phases.
///
/// Dropping a timer mid-phase closes the open span first (see
/// [`PhaseTimer::stop`]): a panic between `start` and `stop` used to
/// silently discard the in-flight time, which made crash-path phase totals
/// in the metrics registry under-count exactly the interesting runs.
#[derive(Debug)]
pub struct PhaseTimer {
    breakdown: PhaseBreakdown,
    started: Option<(Phase, Instant)>,
}

/// The three phases of Algorithm 1, plus the composed path's upkeep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Pattern extraction (step 1).
    Extraction,
    /// Pattern selection (step 2).
    Selection,
    /// Value imputation (step 3).
    Imputation,
    /// Composed-path upkeep (engine tick path only).
    Maintenance,
}

impl PhaseTimer {
    /// Creates an idle timer with an empty breakdown.
    pub fn new() -> Self {
        PhaseTimer {
            breakdown: PhaseBreakdown::default(),
            started: None,
        }
    }

    /// Starts (or switches to) a phase, closing the previously running one.
    pub fn start(&mut self, phase: Phase) {
        self.stop();
        self.started = Some((phase, Instant::now()));
    }

    /// Stops the currently running phase, attributing its elapsed time to
    /// the breakdown and to the global per-phase metrics counter.
    pub fn stop(&mut self) {
        if let Some((phase, at)) = self.started.take() {
            let elapsed = at.elapsed();
            match phase {
                Phase::Extraction => self.breakdown.extraction += elapsed,
                Phase::Selection => self.breakdown.selection += elapsed,
                Phase::Imputation => self.breakdown.imputation += elapsed,
                Phase::Maintenance => self.breakdown.maintenance += elapsed,
            }
            record_phase_nanos(phase, elapsed);
        }
    }

    /// Marks that one complete imputation has been timed.
    pub fn finish_imputation(&mut self) {
        self.stop();
        self.breakdown.imputations += 1;
        IMPUTATIONS.inc();
    }

    /// The breakdown accumulated so far.
    pub fn breakdown(&self) -> PhaseBreakdown {
        self.breakdown
    }
}

impl Default for PhaseTimer {
    fn default() -> Self {
        PhaseTimer::new()
    }
}

impl Drop for PhaseTimer {
    /// Closes a span left open by an early return or a panic, so its
    /// in-flight time still reaches the metrics registry instead of being
    /// silently discarded with the timer.
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_attributes_time_to_phases() {
        let mut timer = PhaseTimer::new();
        timer.start(Phase::Extraction);
        std::thread::sleep(Duration::from_millis(2));
        timer.start(Phase::Selection);
        std::thread::sleep(Duration::from_millis(1));
        timer.start(Phase::Imputation);
        timer.finish_imputation();

        let b = timer.breakdown();
        assert!(b.extraction > Duration::ZERO);
        assert!(b.selection > Duration::ZERO);
        assert_eq!(b.imputations, 1);
        assert!(b.total() >= b.extraction + b.selection);
        let shares = b.extraction_share() + b.selection_share();
        assert!(shares <= 1.0 + 1e-9);
        assert!(b.extraction_share() > 0.0);
    }

    #[test]
    fn empty_breakdown_has_zero_shares() {
        let b = PhaseBreakdown::default();
        assert_eq!(b.total(), Duration::ZERO);
        assert_eq!(b.extraction_share(), 0.0);
        assert_eq!(b.selection_share(), 0.0);
        assert_eq!(b.maintenance_share(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let a = PhaseBreakdown {
            extraction: Duration::from_millis(10),
            selection: Duration::from_millis(5),
            imputation: Duration::from_millis(1),
            maintenance: Duration::from_millis(4),
            imputations: 2,
        };
        let mut b = PhaseBreakdown {
            extraction: Duration::from_millis(1),
            selection: Duration::from_millis(1),
            imputation: Duration::from_millis(1),
            maintenance: Duration::from_millis(1),
            imputations: 1,
        };
        b.merge(&a);
        assert_eq!(b.extraction, Duration::from_millis(11));
        assert_eq!(b.selection, Duration::from_millis(6));
        assert_eq!(b.maintenance, Duration::from_millis(5));
        assert_eq!(b.imputations, 3);
        assert!((b.maintenance_share() - 5.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn stop_without_start_is_a_noop() {
        let mut timer = PhaseTimer::default();
        timer.stop();
        assert_eq!(timer.breakdown(), PhaseBreakdown::default());
    }

    /// The global counter only ever grows, so "grew by at least my own
    /// sleep" holds even with other tests recording concurrently.
    fn selection_nanos() -> u64 {
        match tkcm_obs::registry()
            .snapshot()
            .into_iter()
            .find(|m| {
                m.name == "tkcm_core_phase_nanos_total"
                    && m.labels == vec![("phase", "selection".to_string())]
            })
            .map(|m| m.value)
        {
            Some(tkcm_obs::metrics::SnapshotValue::Counter(v)) => v,
            _ => 0,
        }
    }

    #[test]
    fn dropping_a_timer_mid_phase_closes_the_open_span() {
        let before = selection_nanos();
        {
            let mut timer = PhaseTimer::new();
            timer.start(Phase::Selection);
            std::thread::sleep(Duration::from_millis(2));
            // Dropped mid-phase: no stop(), as on a panic path.
        }
        let after = selection_nanos();
        assert!(
            after >= before + 1_000_000,
            "Drop must attribute the in-flight span: before {before}, after {after}"
        );
    }

    #[test]
    fn a_panic_between_start_and_stop_still_records_the_span() {
        let before = selection_nanos();
        let outcome = std::panic::catch_unwind(|| {
            let mut timer = PhaseTimer::new();
            timer.start(Phase::Selection);
            std::thread::sleep(Duration::from_millis(2));
            panic!("simulated mid-phase failure");
        });
        assert!(outcome.is_err());
        let after = selection_nanos();
        assert!(
            after >= before + 1_000_000,
            "unwinding must close the span: before {before}, after {after}"
        );
    }
}
