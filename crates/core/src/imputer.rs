//! The TKCM imputer: one missing value, one window, one set of references.
//!
//! This is the Rust counterpart of Algorithm 1 in the paper, organised around
//! the three steps of Section 6.1:
//!
//! 1. **Pattern extraction** — compute the dissimilarity `D[j]` of every
//!    candidate pattern in the window against the query pattern `P(t_n)`.
//! 2. **Pattern selection** — find the anchors of the `k` most similar
//!    non-overlapping patterns with the dynamic program of Section 6.1.
//! 3. **Value imputation** — average the values of the incomplete series at
//!    the anchor points (Definition 4).
//!
//! Besides the imputed value, the imputer reports the anchors, their
//! dissimilarities, the ε of Definition 5 and the phase timing breakdown.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use tkcm_timeseries::{SeriesId, SlotState, StreamingWindow, Timestamp, TsError};

use crate::config::TkcmConfig;
use crate::consistency::ConsistencyReport;
use crate::diagnostics::{Phase, PhaseBreakdown, PhaseTimer, SearchStage, StageClock};
use crate::dissimilarity::{l2_distance, l2_from_components};
use crate::pattern::{extract_pattern_at_age, extract_query_pattern, Pattern};
use crate::selection::select_anchors_dp_at;
use crate::signature::{level1_run_len, RunSums, SignatureIndex, SignatureQuery};

/// One selected anchor: time point, dissimilarity of its pattern and the
/// value of the incomplete series there.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Anchor {
    /// The anchor time point `t_i`.
    pub time: Timestamp,
    /// Dissimilarity `δ(P(t_i), P(t_n))`.
    pub dissimilarity: f64,
    /// Value of the incomplete series `s(t_i)`; always an *observed* value —
    /// previously imputed values are never used as anchor values.
    pub value: f64,
}

/// Full result of imputing a single missing value.
#[derive(Clone, Debug, PartialEq)]
pub struct ImputationDetail {
    /// The series that was imputed.
    pub series: SeriesId,
    /// The time point that was imputed (`t_n`).
    pub time: Timestamp,
    /// The imputed value `ŝ(t_n)`.
    pub value: f64,
    /// The selected anchors, in chronological order.
    pub anchors: Vec<Anchor>,
    /// Reference series that formed the query pattern.
    pub references: Vec<SeriesId>,
    /// Whether the requested `k` anchors were found; `false` means the window
    /// did not contain enough usable patterns.
    pub complete: bool,
    /// Whether the value comes from the fallback rule (no usable anchors at
    /// all) rather than from Definition 4.
    pub fallback: bool,
    /// Phase timing of this single imputation.
    pub breakdown: PhaseBreakdown,
}

impl ImputationDetail {
    /// Consistency report (Definition 5 / 6) for this imputation.
    pub fn consistency(&self) -> ConsistencyReport {
        ConsistencyReport::new(
            self.anchors.iter().map(|a| a.time).collect(),
            self.anchors.iter().map(|a| a.value).collect(),
            self.value,
        )
    }

    /// The ε of Definition 5, if any anchors were found.
    pub fn epsilon(&self) -> Option<f64> {
        self.consistency().epsilon
    }
}

/// Counters from one composed imputation
/// ([`TkcmImputer::impute_composed`]).
///
/// Kept *outside* [`ImputationDetail`] so pruned and exhaustive results stay
/// structurally comparable in the equivalence tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Total candidate lags in the window (`J = L − 2l + 1`, or fewer while
    /// the window is filling).
    pub candidates: usize,
    /// Candidates whose exact dissimilarity was evaluated.
    pub shortlisted: usize,
    /// Candidates disposed of without an exact evaluation: lower bound above
    /// the threshold, or a proven missing reference slot.
    pub pruned: usize,
    /// Of `pruned`: lags of level-1 runs the search never expanded — no
    /// per-lag lower bound was even computed.  Counts every lag of such a
    /// run that was not exact-evaluated, including ones anchor provenance
    /// would have disqualified anyway (the whole point is not to look at
    /// them individually).
    pub level1_skipped: usize,
    /// Always 0: no maintained bound prunes candidates any more.  Kept so
    /// the counter layout (snapshots, metrics, benchmark readers) is stable.
    pub maintained_pruned: usize,
}

impl std::ops::AddAssign for PruneStats {
    fn add_assign(&mut self, rhs: PruneStats) {
        self.candidates += rhs.candidates;
        self.shortlisted += rhs.shortlisted;
        self.pruned += rhs.pruned;
        self.level1_skipped += rhs.level1_skipped;
        self.maintained_pruned += rhs.maintained_pruned;
    }
}

impl PruneStats {
    /// Field-wise `self − earlier`, saturating at zero — the per-interval
    /// delta between two cumulative totals (saturating so a caller holding
    /// a stale "earlier" across an engine swap reports zero, not a panic).
    pub fn saturating_delta(&self, earlier: &PruneStats) -> PruneStats {
        PruneStats {
            candidates: self.candidates.saturating_sub(earlier.candidates),
            shortlisted: self.shortlisted.saturating_sub(earlier.shortlisted),
            pruned: self.pruned.saturating_sub(earlier.pruned),
            level1_skipped: self.level1_skipped.saturating_sub(earlier.level1_skipped),
            maintained_pruned: self
                .maintained_pruned
                .saturating_sub(earlier.maintained_pruned),
        }
    }
}

/// An open node of the composed path's best-first search, keyed by an
/// admissible lower bound on the `D` of every candidate it holds: a level-1
/// run of candidates starting at index `idx` ([`Open::is_run`]), or a
/// *cursor* over the surviving lags of an expanded run, standing for its
/// head lag `idx`.  A cursor's lags sit at `lags[start..end]` of the
/// search's lag store with the smallest ([`Lag`] order) at `start`; once
/// the cursor has advanced (`heap`), the segment is a min-heap.
///
/// The order is kept as integers: `order` is the key's [`total_order`],
/// and `tie` is the candidate index, with [`RUN`] set on a run node.
#[derive(Clone, Copy, Debug)]
struct Open {
    order: i64,
    tie: u64,
    start: usize,
    end: usize,
    heap: bool,
}

/// The `tie` bit of a run node: a run sorts after the lags of equal key.
const RUN: u64 = 1 << 63;

impl Open {
    /// The node of the level-1 run starting at candidate `idx`.
    fn run(key: f64, idx: usize) -> Open {
        Open {
            order: total_order(key.to_bits() as i64),
            tie: RUN | idx as u64,
            start: 0,
            end: 0,
            heap: false,
        }
    }

    /// The cursor over `lags[start..end]`, standing for its head.
    fn cursor(lags: &[Lag], start: usize, end: usize, heap: bool) -> Open {
        let (order, idx) = lags[start];
        Open {
            order,
            tie: idx as u64,
            start,
            end,
            heap,
        }
    }

    fn key(&self) -> f64 {
        f64::from_bits(total_order(self.order) as u64)
    }

    fn is_run(&self) -> bool {
        self.tie & RUN != 0
    }

    fn idx(&self) -> usize {
        (self.tie & !RUN) as usize
    }
}

impl Ord for Open {
    /// Reversed, so `BinaryHeap` pops the smallest key first (in
    /// [`f64::total_cmp`]'s order); ties go to lag nodes (one step from an
    /// exact fold), then to the older candidate.  The cursor fields play no
    /// part: distinct nodes never share a `tie`.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.order, other.tie).cmp(&(self.order, self.tie))
    }
}

/// A lag of a cursor: its key's position in [`f64::total_cmp`]'s order
/// ([`total_order`] of its bits), then its candidate index, so a `Lag`'s
/// own order is [`Open::cmp`]'s order among lags, compared as integers.
type Lag = (i64, usize);

/// `f64::total_cmp`'s map from a float's bits to an integer of the same
/// order, and back: flipping every bit but the sign of a negative pattern
/// is its own inverse.
fn total_order(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Restores the min-heap order of `heap` below `i`.
fn sift_down(heap: &mut [Lag], mut i: usize) {
    loop {
        let left = 2 * i + 1;
        let Some(&first) = heap.get(left) else {
            return;
        };
        let child = match heap.get(left + 1) {
            Some(&right) if right < first => left + 1,
            _ => left,
        };
        if heap[child] >= heap[i] {
            return;
        }
        heap.swap(i, child);
        i = child;
    }
}

impl PartialOrd for Open {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Open {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Open {}

/// TKCM imputation of a single missing value over a streaming window.
pub struct TkcmImputer {
    config: TkcmConfig,
}

impl TkcmImputer {
    /// Creates an imputer for a validated configuration.
    pub fn new(config: TkcmConfig) -> Result<Self, TsError> {
        config.validate()?;
        Ok(TkcmImputer { config })
    }

    /// The configuration the imputer runs with.
    pub fn config(&self) -> &TkcmConfig {
        &self.config
    }

    /// Imputes the value of `target` at the *current time* of the window.
    ///
    /// `references` is the reference set `R_s` selected for this tick (see
    /// [`tkcm_timeseries::Catalog::select_references`]); its length may be
    /// smaller than `d` when not enough candidates are alive.
    ///
    /// The imputed value is **not** written back into the window; callers
    /// that want the paper's write-back behaviour (so later patterns can use
    /// the imputed history) should call
    /// [`StreamingWindow::write_imputed`] with the returned value — the
    /// streaming engine does exactly that.
    pub fn impute(
        &self,
        window: &StreamingWindow,
        target: SeriesId,
        references: &[SeriesId],
    ) -> Result<ImputationDetail, TsError> {
        let now = window
            .current_time()
            .ok_or_else(|| TsError::invalid("window", "no tick has been pushed yet"))?;
        if references.is_empty() {
            return Err(TsError::invalid(
                "references",
                "TKCM needs at least one reference series",
            ));
        }
        let l = self.config.pattern_length;
        let mut timer = PhaseTimer::new();

        // -------- Step 1: pattern extraction --------
        timer.start(Phase::Extraction);

        // Effective window content: we can only look back over the ticks that
        // have actually been pushed.
        let filled = window.filled();
        // Candidate anchors have ages l ..= filled - l (condition (1) of
        // Definition 3); candidate index idx (0-based, oldest first) has age
        // `oldest_age - idx`.
        let oldest_age = filled.saturating_sub(l);
        let candidates = (filled + 1).saturating_sub(2 * l);
        // `(idx, D)` of every candidate with a finite `D`, ascending: the
        // only columns the DP reads.
        let mut columns: Vec<(usize, f64)> = Vec::new();
        if candidates > 0 {
            let query = extract_query_pattern(window, references, l)?;
            if let Some(ref q) = query {
                for idx in 0..candidates {
                    let age = oldest_age - idx;
                    // The target value at the anchor must be *observed* to
                    // contribute to the average of Definition 4. Previously
                    // imputed values stay usable inside reference patterns
                    // (Example 1), but feeding them back as anchor values
                    // would let the imputer average its own guesses — during
                    // long outages the most similar patterns are the ones
                    // immediately behind the query, so the error compounds
                    // tick after tick. Checked before pattern extraction so
                    // disqualified candidates don't pay the O(d·l) copy.
                    if window.slot_recent(target, age)?.state != SlotState::Observed {
                        continue;
                    }
                    let candidate = extract_pattern_at_age(window, references, age, l)?;
                    let Some(candidate) = candidate else { continue };
                    let d = l2_distance(&candidate, q);
                    if d < f64::INFINITY {
                        columns.push((idx, d));
                    }
                }
            }
        }

        self.select_and_impute(
            window, target, references, now, oldest_age, candidates, &columns, timer,
        )
    }

    /// Steps 2 and 3 — pattern selection and value imputation — shared
    /// verbatim by the exact and composed extraction paths, so the
    /// bit-identity of the composed path cannot drift through a divergent
    /// tail.  Candidate `idx` (of `candidates`) is anchored
    /// `oldest_age - idx` ticks back; `columns` lists, in ascending index
    /// order, every candidate whose `D` is finite with that `D`, the only
    /// columns the DP evaluates.
    #[allow(clippy::too_many_arguments)]
    fn select_and_impute(
        &self,
        window: &StreamingWindow,
        target: SeriesId,
        references: &[SeriesId],
        now: Timestamp,
        oldest_age: usize,
        candidates: usize,
        columns: &[(usize, f64)],
        mut timer: PhaseTimer,
    ) -> Result<ImputationDetail, TsError> {
        let l = self.config.pattern_length;
        let k = self.config.anchor_count;

        // -------- Step 2: pattern selection --------
        timer.start(Phase::Selection);
        let selection = select_anchors_dp_at(candidates, columns, l, k);

        // -------- Step 3: value imputation --------
        timer.start(Phase::Imputation);
        let mut anchors = Vec::with_capacity(selection.indices.len());
        for &idx in &selection.indices {
            let age = oldest_age - idx;
            let value = window
                .value_recent(target, age)?
                .expect("anchor candidates require an observed target value");
            anchors.push(Anchor {
                // The anchor's real tick time, read from the window's stored
                // per-tick times — `now - age` would only be correct for a
                // one-timestamp-unit cadence.
                time: window
                    .time_of_age(age)
                    .expect("anchor candidates lie inside the pushed window"),
                dissimilarity: columns[columns.partition_point(|&(j, _)| j < idx)].1,
                value,
            });
        }
        anchors.sort_by_key(|a| a.time);

        let (value, fallback) = if anchors.is_empty() {
            (self.fallback_value(window, target, references)?, true)
        } else {
            // Definition 4: the plain mean of the anchor values.
            (mean(anchors.iter().map(|a| a.value)), false)
        };
        timer.finish_imputation();

        Ok(ImputationDetail {
            series: target,
            time: now,
            value,
            anchors,
            references: references.to_vec(),
            complete: selection.complete,
            fallback,
            breakdown: timer.breakdown(),
        })
    }

    /// Exact dissimilarity of the candidate anchored `age` ticks back.
    ///
    /// The exhaustive path materializes a [`Pattern`] per candidate and
    /// calls [`l2_distance`]; doing that per *shortlisted* candidate would
    /// put an allocation on the composed hot path, so this reads each
    /// reference's `l` values straight off its ring as at most two
    /// chronological slices ([`StreamingWindow::value_run`]) and zips them
    /// with the query row.  The pairs and their order are those of the
    /// `l2_components` recurrence — reference-major, chronological within a
    /// reference, `sum += (x−y)·(x−y)` left to right, then
    /// [`l2_from_components`] — which makes a shortlisted candidate's `D[j]`
    /// bit-equal to the exhaustive path's, not just approximately equal.  A
    /// missing (NaN) candidate slot, or a run past the pushed ticks, makes
    /// pattern extraction fail, so `D = +∞`.
    fn exact_fold(
        &self,
        window: &StreamingWindow,
        references: &[SeriesId],
        query: &Pattern,
        age: usize,
    ) -> f64 {
        let l = self.config.pattern_length;
        let mut sum_sq = 0.0f64;
        for (ri, &r) in references.iter().enumerate() {
            let Ok((older, newer)) = window.value_run(r, age, l) else {
                return f64::INFINITY;
            };
            // Column 0 is the oldest tick — same walk as
            // `extract_pattern_at_age`.
            let (row_older, row_newer) = query.row(ri).split_at(older.len());
            for (ys, xs) in [(row_older, older), (row_newer, newer)] {
                for (&y, &x) in ys.iter().zip(xs) {
                    if x.is_nan() {
                        return f64::INFINITY;
                    }
                    sum_sq += (x - y) * (x - y);
                }
            }
        }
        l2_from_components(sum_sq)
    }

    /// Imputes like [`TkcmImputer::impute`], but uses the signature `index`
    /// to *prune* the candidate space before exact evaluation: admissible
    /// lower bounds `LB[j] ≤ D[j]` are compared against the float sum `τ` of
    /// a feasible k-anchor solution, and candidates provably outside every
    /// optimal selection keep `D[j] = +∞` unevaluated.
    ///
    /// One best-first search: a min-heap of open nodes keyed by admissible
    /// bound.  It starts with one node per level-1 run of
    /// [`crate::signature::level1_run_len`]`(l)` lags, all bounded in one
    /// sweep ([`SignatureIndex::run_bounds_sq`]).  Popping a run computes the
    /// level-0 chunk-mean bound and key of every lag it holds in one pass
    /// ([`RunSums::fill`], [`RunSums::keys`], which also drop a lag holding a
    /// missing slot) and replaces the run by one *cursor* over its surviving
    /// lags, standing in the search's heap for its smallest `(key, idx)`.
    /// Popping a cursor takes its head's exact fold and advances it, turning
    /// the rest into a small min-heap of their own the first time.  The heap thus
    /// holds at most one node per run, and pops come out in exactly the
    /// order a heap of one node per lag would give (key, then lag before
    /// run, then older candidate).  The first k non-overlapping finite folds
    /// in pop order certify τ.  The search stops at the first key over the
    /// `τ − S` bar (S: the k−1 smallest Ds the other anchors can have),
    /// which proves every open candidate out at once: the lags of every
    /// unexpanded run and every lag left in a cursor.  The bar never rises
    /// from one pop to the next, so an expansion keeps only the lags keyed
    /// at or under the bar of the pop that expanded the run; the rest are
    /// pruned at once, as the stop would prune them.  Bound order finds
    /// low-D candidates by itself, so nothing is kept from one imputation to
    /// the next.
    ///
    /// Every `D` entering selection comes from the exact fold and all
    /// bounds are admissible (see [`crate::signature`]), so the result is
    /// **bit-identical** to [`TkcmImputer::impute`] — the float-level proof
    /// is in the comments below.  The anchor DP reads only the `(idx, D)`
    /// columns of the finite folds, never all J candidates.
    /// Requires `index` in lock-step with `window`; the streaming engine
    /// keeps it so on its default path.
    pub fn impute_composed(
        &self,
        window: &StreamingWindow,
        target: SeriesId,
        references: &[SeriesId],
        index: &SignatureIndex,
    ) -> Result<(ImputationDetail, PruneStats), TsError> {
        self.impute_composed_impl(window, target, references, index, 1.0, 1.0, None)
    }

    /// Test-only entry: like [`TkcmImputer::impute_composed`] but inflating
    /// the level-0 per-lag bounds by `inflate0` and the level-1 run bounds
    /// by `inflate1` — deliberately *inadmissible* for factors > 1, so the
    /// equivalence suite can prove over-pruning at either level is caught.
    /// Never call it with factors != 1.0 outside tests.
    #[doc(hidden)]
    pub fn impute_composed_with_inflation(
        &self,
        window: &StreamingWindow,
        target: SeriesId,
        references: &[SeriesId],
        index: &SignatureIndex,
        inflate0: f64,
        inflate1: f64,
    ) -> Result<(ImputationDetail, PruneStats), TsError> {
        self.impute_composed_impl(window, target, references, index, inflate0, inflate1, None)
    }

    /// Test-only entry: [`TkcmImputer::impute_composed`], appending the
    /// index of every exact fold to `folds` in the order the search takes
    /// them, so the suite can pin the pop order.
    #[doc(hidden)]
    pub fn impute_composed_traced(
        &self,
        window: &StreamingWindow,
        target: SeriesId,
        references: &[SeriesId],
        index: &SignatureIndex,
        folds: &mut Vec<usize>,
    ) -> Result<(ImputationDetail, PruneStats), TsError> {
        self.impute_composed_impl(window, target, references, index, 1.0, 1.0, Some(folds))
    }

    #[allow(clippy::too_many_arguments)]
    fn impute_composed_impl(
        &self,
        window: &StreamingWindow,
        target: SeriesId,
        references: &[SeriesId],
        index: &SignatureIndex,
        inflate0: f64,
        inflate1: f64,
        mut trace: Option<&mut Vec<usize>>,
    ) -> Result<(ImputationDetail, PruneStats), TsError> {
        if !index.is_synced(window) {
            return Err(TsError::invalid(
                "signature",
                "signature index is not in lock-step with the window",
            ));
        }
        let now = window
            .current_time()
            .ok_or_else(|| TsError::invalid("window", "no tick has been pushed yet"))?;
        if references.is_empty() {
            return Err(TsError::invalid(
                "references",
                "TKCM needs at least one reference series",
            ));
        }
        let l = self.config.pattern_length;
        let k = self.config.anchor_count;
        let run_len = level1_run_len(l);
        let mut timer = PhaseTimer::new();

        // -------- Step 1: pattern extraction, composed --------
        timer.start(Phase::Extraction);
        let mut clock = StageClock::start();
        let filled = window.filled();
        // Candidate index idx (0-based, oldest first) is anchored
        // `oldest_age - idx` ticks back, as in `impute`.
        let oldest_age = filled.saturating_sub(l);
        let newest_age = l;
        let j = (filled + 1).saturating_sub(2 * l);
        // `(idx, D)` of every candidate with a finite exact fold, the only
        // finite `D`s: a pruned or disqualified candidate's `D` stays `+∞`.
        let mut folded: Vec<(usize, f64)> = Vec::new();
        let mut stats = PruneStats::default();
        if j > 0 {
            stats.candidates = j;
            let query = extract_query_pattern(window, references, l)?;
            if let Some(ref q) = query {
                let rows: Vec<&[f64]> = (0..references.len()).map(|ri| q.row(ri)).collect();
                let sig_query = SignatureQuery::new(&rows);
                // Anchor provenance of every candidate, read once: the run
                // of target slots from the oldest candidate to the newest is
                // in candidate-index order.
                let (states_older, states_newer) = window.state_run(target, newest_age, j)?;
                let is_observed = |idx: usize| {
                    let state = match states_older.get(idx) {
                        Some(&state) => state,
                        None => states_newer[idx - states_older.len()],
                    };
                    state == SlotState::Observed
                };
                clock.lap(SearchStage::Query);

                // ---- Best-first search ----
                // A min-heap of open nodes, each keyed by an admissible lower
                // bound on the D of every candidate it holds: one node per
                // level-1 run (its union-envelope bound), replaced on
                // expansion by a cursor over the run's lags keyed by
                // `max(level-0 bound, run key)`.  Both bounds are ≤ D, so
                // keys never fall from parent to child, and when key `b`
                // pops, every candidate still open — in a cursor or in an
                // unexpanded run — has `D ≥ b`.  Each lag enters a cursor at
                // most once, when its run expands, and a popped cursor takes
                // its head's exact fold.  Until τ is certified, a finite fold
                // that does not overlap the seed joins it (candidate ages are
                // consecutive, so candidates overlap iff their indices are
                // closer than l), which walks the greedy seed in ascending
                // bound order.
                //
                // Cursor order: a cursor's head is the smallest of its
                // remaining lags by `(key, idx)` — found by a scan when the
                // run expands, then kept by a min-heap over the rest — and
                // the cursor sits in the search's heap under its head's key
                // and index.  The heap's smallest node is then the
                // smallest open lag or run overall — the node a heap of one
                // node per lag would pop (`Open::cmp` is total: lags share
                // no index, runs share no start, and the run flag separates
                // a run from the lag at its start).  So the pops, the seed,
                // τ, every fold and every count are those of the per-lag
                // heap.
                //
                // τ is the *float* value the DP assigns to the seed subset:
                // the DP accumulates "take" steps innermost-first by
                // ascending candidate index (`D[j_i] + acc`), so folding the
                // seed the same way gives exactly `m_exact[k][J] ≤ τ` at the
                // bit level.
                //
                // Stop rule: candidate c can sit in a k-anchor selection of
                // value ≤ τ only if D[c] ≤ τ − Σ(the other k−1 members' Ds).
                // Each other member is exact-evaluated or still open (D ≥ b),
                // so Σ(others) is at least S, the sum of the k−1 smallest of
                // {the exact folds so far, plus k−1 copies of b}; `best`
                // holds the k−1 smallest finite folds, so S is
                // Σ min(best[i], b).  An open c has D[c] ≥ b, so
                // `b > τ − S` proves every open candidate outside every
                // k-selection of value ≤ τ at once, and their D stays +∞
                // unevaluated: each option the DP's optimal backtrack takes
                // or ties with extends to such a selection, so it holds no
                // open candidate, and options that lose only grow.  With
                // k = 1, S = 0 and the rule is the plain `b > τ`.  S never
                // falls as b rises (a new fold is ≥ the key it popped at),
                // so the first failing pop ends the search.  The drain
                // counts what is still open as pruned: every lag of an
                // unexpanded run (also as level-1 skipped) and every lag
                // left in a cursor, its head included — the lags a per-lag
                // heap would drain one node at a time.
                //
                // Push-time bar: for the same reason the bar `τ − S` of a
                // pop never rises at a later one.  Every later pop has a
                // key ≥ this one's and every later fold is ≥ its own key,
                // so each term min(best[i], b) of S can only grow.  A child
                // lag keyed above the bar of the pop that expands its run
                // would therefore stop the search at or before its own pop,
                // and the drain would count it pruned: it is counted pruned
                // at once and never enters the cursor.  The pops before the
                // stop and every count stay as they were.
                //
                // Float slop: the 1e-9 inflation of τ only *reduces*
                // pruning (`b > τ·(1+ε)` ⇒ D ≥ b > τ); S is a ≤(k−1)-term
                // fold of non-negative floats deflated by 1e-9, which
                // dwarfs its relative rounding, and the final subtraction
                // adds at most one ulp of τ — absorbed by the same margins.
                // Each term of S and its float sum are monotone in their
                // inputs, so the computed bar never rises either.
                //
                // Before τ exists nothing is pruned but certain-missing lags
                // (D = +∞ exactly), so a window with fewer than k
                // non-overlapping finite candidates ends as the exhaustive
                // sweep.
                let keep = k - 1;
                let mut seed: Vec<(usize, f64)> = Vec::with_capacity(k);
                let mut best: Vec<f64> = Vec::with_capacity(keep);
                let run_of = |s: usize| s..(s + run_len).min(j);
                let mut run_sums = RunSums::default();
                let mut run_bounds = Vec::new();
                index.run_bounds_sq(
                    references,
                    oldest_age,
                    j,
                    run_len,
                    l,
                    &sig_query,
                    &mut run_bounds,
                );
                let mut open: BinaryHeap<Open> = run_bounds
                    .iter()
                    .enumerate()
                    .map(|(i, &run_sq)| Open::run((run_sq * inflate1).max(0.0).sqrt(), i * run_len))
                    .collect();
                clock.lap(SearchStage::RunBounds);
                // Every cursor's lags, one segment per expanded run.
                let mut lags: Vec<Lag> = Vec::new();
                let mut threshold = None;
                loop {
                    let Some(mut top) = open.peek_mut() else {
                        break;
                    };
                    let node = *top;
                    if threshold.is_none() && seed.len() == k {
                        seed.sort_unstable_by_key(|&(idx, _)| idx);
                        let mut tau = 0.0f64;
                        for &(_, d) in &seed {
                            // Written `D + acc`, not `acc + D`, to mirror the
                            // DP's take-step expression verbatim (IEEE
                            // addition is commutative, but the proof reads
                            // better when the expressions match token for
                            // token).
                            #[allow(clippy::assign_op_pattern)]
                            {
                                tau = d + tau;
                            }
                        }
                        threshold = Some(tau * (1.0 + 1e-9));
                    }
                    let mut bar = f64::INFINITY;
                    if let Some(threshold) = threshold {
                        let b = node.key();
                        let sum: f64 = (0..keep)
                            .map(|i| best.get(i).map_or(b, |&d| d.min(b)))
                            .sum();
                        bar = threshold - sum * (1.0 - 1e-9);
                        if b > bar {
                            drop(top);
                            for rest in open.drain() {
                                if rest.is_run() {
                                    let skipped = run_of(rest.idx()).len();
                                    stats.pruned += skipped;
                                    stats.level1_skipped += skipped;
                                } else {
                                    stats.pruned += rest.end - rest.start;
                                }
                            }
                            break;
                        }
                    }
                    if node.is_run() {
                        PeekMut::pop(top);
                        let run = run_of(node.idx());
                        let lag_lo = oldest_age - (run.end - 1);
                        run_sums.fill(window, references, lag_lo, run.len(), l, &sig_query)?;
                        let start = lags.len();
                        // Offset `o` of the run's keys is candidate `s + o`.
                        let keys = run_sums.keys(inflate0, node.key());
                        debug_assert_eq!(keys.len(), run.len());
                        for (idx, &key) in run.zip(keys) {
                            if !is_observed(idx) {
                                continue;
                            }
                            // NaN (a missing slot) and keys over the bar fail.
                            if key <= bar {
                                lags.push((total_order(key.to_bits() as i64), idx));
                            } else {
                                stats.pruned += 1;
                            }
                        }
                        // A cursor may never advance: find its head with one
                        // scan, and heap-order the rest at its first advance.
                        if let Some(head) = (start..lags.len()).min_by_key(|&i| lags[i]) {
                            lags.swap(start, head);
                            open.push(Open::cursor(&lags, start, lags.len(), false));
                        }
                        continue;
                    }
                    // Advance the cursor past its head: the first time by
                    // heap-ordering the rest, then by moving its last lag to
                    // the head and sifting it down.
                    let (mut start, mut end) = (node.start, node.end);
                    if node.heap {
                        end -= 1;
                        lags.swap(start, end);
                    } else {
                        start += 1;
                    }
                    if start < end {
                        let cursor = &mut lags[start..end];
                        if node.heap {
                            sift_down(cursor, 0);
                        } else {
                            for i in (0..cursor.len() / 2).rev() {
                                sift_down(cursor, i);
                            }
                        }
                        *top = Open::cursor(&lags, start, end, true);
                    } else {
                        PeekMut::pop(top);
                    }
                    let idx = node.idx();
                    let d = self.exact_fold(window, references, q, oldest_age - idx);
                    stats.shortlisted += 1;
                    if let Some(trace) = trace.as_mut() {
                        trace.push(idx);
                    }
                    if d.is_finite() {
                        folded.push((idx, d));
                        let at = best.partition_point(|&v| v <= d);
                        if at < keep {
                            best.insert(at, d);
                            best.truncate(keep);
                        }
                        if seed.len() < k && !seed.iter().any(|&(p, _)| idx.abs_diff(p) < l) {
                            seed.push((idx, d));
                        }
                    }
                }
                // The DP reads the finite folds in candidate order.
                folded.sort_unstable_by_key(|&(idx, _)| idx);
                clock.lap(SearchStage::Search);
            }
        }

        let detail = self.select_and_impute(
            window, target, references, now, oldest_age, j, &folded, timer,
        )?;
        Ok((detail, stats))
    }

    /// Fallback when no usable anchor exists: the most recent present value
    /// of the target before now, else the mean of the references' current
    /// values, else the target's current value, else 0.
    fn fallback_value(
        &self,
        window: &StreamingWindow,
        target: SeriesId,
        references: &[SeriesId],
    ) -> Result<f64, TsError> {
        for age in 1..window.filled() {
            if let Some(v) = window.value_recent(target, age)? {
                return Ok(v);
            }
        }
        let mut ref_values = Vec::new();
        for &r in references {
            if let Some(v) = window.value_recent(r, 0)? {
                ref_values.push(v);
            }
        }
        if !ref_values.is_empty() {
            return Ok(mean(ref_values.iter().copied()));
        }
        Ok(window.value_recent(target, 0)?.unwrap_or(0.0))
    }
}

/// The mean of finite `values` (at least one): `Σv / n`, or `Σ(v / n)`
/// when the plain sum overflows, so finite values (two observed `1e308`s)
/// never give an infinite mean.  In range the result is the plain one, bit
/// for bit.
fn mean(values: impl Iterator<Item = f64> + Clone) -> f64 {
    let n = values.clone().count() as f64;
    let sum: f64 = values.clone().sum();
    if sum.is_finite() {
        sum / n
    } else {
        values.map(|v| v / n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkcm_timeseries::StreamTick;

    /// Builds a window from chronological per-series values (all series start
    /// at tick 0).
    fn window_with(series: &[Vec<Option<f64>>], capacity: usize) -> StreamingWindow {
        let width = series.len();
        let len = series[0].len();
        let mut w = StreamingWindow::new(width, capacity);
        for t in 0..len {
            let values = series.iter().map(|s| s[t]).collect();
            w.push_tick(&StreamTick::new(Timestamp::new(t as i64), values))
                .unwrap();
        }
        w
    }

    fn small_config(l: usize, k: usize, window: usize) -> TkcmConfig {
        TkcmConfig::builder()
            .window_length(window)
            .pattern_length(l)
            .anchor_count(k)
            .reference_count(2)
            .build()
            .unwrap()
    }

    /// Running example of the paper (Table 2 / Figure 3): s misses 14:20 and
    /// the two most similar patterns are anchored at 14:00 and 13:35, so the
    /// imputed value is (21.9 + 21.8) / 2 = 21.85 °C.
    #[test]
    fn running_example_table_2() {
        let s = vec![
            Some(22.8),
            Some(21.4),
            Some(21.8),
            Some(23.1),
            Some(23.5),
            Some(22.8),
            Some(21.2),
            Some(21.9),
            Some(23.5),
            Some(22.8),
            Some(21.2),
            None,
        ];
        let r1 = vec![
            16.5, 17.2, 17.8, 16.6, 15.8, 16.2, 17.4, 17.7, 15.3, 16.3, 17.1, 17.5,
        ];
        let r2 = vec![
            20.3, 19.8, 18.6, 18.8, 20.0, 20.5, 19.8, 18.2, 20.1, 20.2, 19.9, 18.2,
        ];
        let window = window_with(
            &[
                s,
                r1.into_iter().map(Some).collect(),
                r2.into_iter().map(Some).collect(),
            ],
            12,
        );
        let config = small_config(3, 2, 12);
        let imputer = TkcmImputer::new(config).unwrap();
        let detail = imputer
            .impute(&window, SeriesId(0), &[SeriesId(1), SeriesId(2)])
            .unwrap();

        assert!(!detail.fallback);
        assert!(detail.complete);
        assert_eq!(detail.anchors.len(), 2);
        // 13:25 is tick 0, so 13:35 is tick 2 and 14:00 is tick 7.
        let anchor_times: Vec<i64> = detail.anchors.iter().map(|a| a.time.tick()).collect();
        assert_eq!(anchor_times, vec![2, 7]);
        assert!(
            (detail.value - 21.85).abs() < 1e-9,
            "value {}",
            detail.value
        );
        // Example 9: epsilon = 0.1 °C.
        assert!((detail.epsilon().unwrap() - 0.1).abs() < 1e-9);
        assert!(detail.consistency().is_consistent());
        assert_eq!(detail.breakdown.imputations, 1);
        assert_eq!(detail.references, vec![SeriesId(1), SeriesId(2)]);
        assert_eq!(detail.time, Timestamp::new(11));
    }

    /// On perfectly periodic sines the imputed value matches the true value
    /// (Lemma 5.3: sine waves are pattern-determining for l > 1).
    #[test]
    fn periodic_sines_are_recovered_exactly() {
        let period = 24usize;
        let len = 24 * 8;
        let s: Vec<Option<f64>> = (0..len)
            .map(|t| {
                if t == len - 1 {
                    None
                } else {
                    Some((t as f64 / period as f64 * std::f64::consts::TAU).sin())
                }
            })
            .collect();
        // Reference shifted by a quarter period -> Pearson ~ 0, but pattern
        // determining for l > 1.
        let r: Vec<Option<f64>> = (0..len)
            .map(|t| Some((((t as f64) - 6.0) / period as f64 * std::f64::consts::TAU).sin()))
            .collect();
        let window = window_with(&[s, r.clone(), r], len);
        let truth = ((len - 1) as f64 / period as f64 * std::f64::consts::TAU).sin();

        let config = small_config(6, 3, len);
        let imputer = TkcmImputer::new(config).unwrap();
        let detail = imputer
            .impute(&window, SeriesId(0), &[SeriesId(1), SeriesId(2)])
            .unwrap();
        assert!(!detail.fallback);
        assert!(
            (detail.value - truth).abs() < 1e-6,
            "imputed {} vs truth {truth}",
            detail.value
        );
        // Anchors must lie exactly one/two/three periods back.
        for a in &detail.anchors {
            let age = (len as i64 - 1) - a.time.tick();
            assert_eq!(
                age % period as i64,
                0,
                "anchor age {age} not a multiple of the period"
            );
        }
        // epsilon is ~0 for a perfectly periodic signal.
        assert!(detail.epsilon().unwrap() < 1e-9);
    }

    /// With pattern length 1 a phase-shifted reference confuses TKCM
    /// (Section 5.2): the anchor set then mixes up- and down-slopes and the
    /// error is visibly larger than with l > 1.
    #[test]
    fn longer_patterns_help_for_phase_shifted_references() {
        let period = 48usize;
        let len = 48 * 6;
        let truth_at = |t: usize| (t as f64 / period as f64 * std::f64::consts::TAU).sin();
        let s: Vec<Option<f64>> = (0..len)
            .map(|t| {
                if t == len - 1 {
                    None
                } else {
                    Some(truth_at(t))
                }
            })
            .collect();
        let r: Vec<Option<f64>> = (0..len)
            .map(|t| Some((((t as f64) - 12.0) / period as f64 * std::f64::consts::TAU).sin()))
            .collect();
        let window = window_with(&[s, r], len);
        let truth = truth_at(len - 1);

        let err_for = |l: usize| {
            let config = TkcmConfig::builder()
                .window_length(len)
                .pattern_length(l)
                .anchor_count(4)
                .reference_count(1)
                .build()
                .unwrap();
            let imputer = TkcmImputer::new(config).unwrap();
            let detail = imputer
                .impute(&window, SeriesId(0), &[SeriesId(1)])
                .unwrap();
            (detail.value - truth).abs()
        };

        let err_short = err_for(1);
        let err_long = err_for(12);
        assert!(
            err_long < err_short,
            "expected l=12 (err {err_long}) to beat l=1 (err {err_short})"
        );
        assert!(err_long < 0.05, "err_long = {err_long}");
    }

    #[test]
    fn anchors_do_not_overlap_and_exclude_query_pattern() {
        let len = 80usize;
        let vals: Vec<Option<f64>> = (0..len).map(|t| Some(((t % 10) as f64) * 0.1)).collect();
        let window = window_with(&[vals.clone(), vals], len);
        let config = TkcmConfig::builder()
            .window_length(len)
            .pattern_length(5)
            .anchor_count(6)
            .reference_count(1)
            .build()
            .unwrap();
        let imputer = TkcmImputer::new(config).unwrap();
        let detail = imputer
            .impute(&window, SeriesId(0), &[SeriesId(1)])
            .unwrap();
        let now = 79i64;
        let mut times: Vec<i64> = detail.anchors.iter().map(|a| a.time.tick()).collect();
        times.sort_unstable();
        for pair in times.windows(2) {
            assert!(pair[1] - pair[0] >= 5, "anchors overlap: {times:?}");
        }
        for t in &times {
            assert!(now - t >= 5, "anchor {t} overlaps the query pattern");
            assert!(now - t <= (len as i64 - 5), "anchor {t} outside window");
        }
    }

    #[test]
    fn missing_target_history_disqualifies_anchors() {
        // The target series is missing everywhere except one historical tick;
        // only that tick can be an anchor.
        let len = 40usize;
        let r: Vec<Option<f64>> = (0..len).map(|t| Some((t as f64 * 0.3).sin())).collect();
        let mut s: Vec<Option<f64>> = vec![None; len];
        s[20] = Some(7.5);
        let window = window_with(&[s, r], len);
        let config = TkcmConfig::builder()
            .window_length(len)
            .pattern_length(3)
            .anchor_count(3)
            .reference_count(1)
            .build()
            .unwrap();
        let imputer = TkcmImputer::new(config).unwrap();
        let detail = imputer
            .impute(&window, SeriesId(0), &[SeriesId(1)])
            .unwrap();
        assert!(!detail.fallback);
        assert!(!detail.complete);
        assert_eq!(detail.anchors.len(), 1);
        assert_eq!(detail.anchors[0].time, Timestamp::new(20));
        assert_eq!(detail.value, 7.5);
    }

    #[test]
    fn fallback_when_no_anchor_exists() {
        // Window shorter than 2*l: no candidate anchors at all. The fallback
        // uses the last present value of the target.
        let window = window_with(
            &[
                vec![Some(3.0), Some(4.0), None],
                vec![Some(1.0), Some(1.0), Some(1.0)],
            ],
            16,
        );
        let config = TkcmConfig::builder()
            .window_length(16)
            .pattern_length(2)
            .anchor_count(2)
            .reference_count(1)
            .build()
            .unwrap();
        let imputer = TkcmImputer::new(config).unwrap();
        let detail = imputer
            .impute(&window, SeriesId(0), &[SeriesId(1)])
            .unwrap();
        assert!(detail.fallback);
        assert!(detail.anchors.is_empty());
        assert_eq!(detail.value, 4.0);
        assert_eq!(detail.epsilon(), None);
    }

    #[test]
    fn fallback_uses_reference_mean_when_target_has_no_history() {
        let window = window_with(
            &[
                vec![None, None],
                vec![Some(2.0), Some(4.0)],
                vec![Some(4.0), Some(8.0)],
            ],
            16,
        );
        let config = TkcmConfig::builder()
            .window_length(16)
            .pattern_length(2)
            .anchor_count(1)
            .reference_count(2)
            .build()
            .unwrap();
        let imputer = TkcmImputer::new(config).unwrap();
        let detail = imputer
            .impute(&window, SeriesId(0), &[SeriesId(1), SeriesId(2)])
            .unwrap();
        assert!(detail.fallback);
        assert_eq!(detail.value, 6.0);
    }

    /// The last fallback branches: with the target missing at every older
    /// age and every reference missing now, the fallback is the target's
    /// current value, and 0 when that is missing too.
    #[test]
    fn fallback_ends_with_the_targets_current_value_then_zero() {
        let imputer = TkcmImputer::new(small_config(1, 1, 8)).unwrap();
        let references = [SeriesId(1), SeriesId(2)];
        let reference_values = |last: Option<f64>| vec![Some(1.0), Some(2.0), Some(3.0), last];
        let window = window_with(
            &[
                vec![None, None, None, Some(4.5)],
                reference_values(None),
                reference_values(None),
            ],
            8,
        );
        assert_eq!(
            imputer
                .fallback_value(&window, SeriesId(0), &references)
                .unwrap(),
            4.5
        );
        let window = window_with(
            &[
                vec![None; 4],
                reference_values(None),
                reference_values(None),
            ],
            8,
        );
        assert_eq!(
            imputer
                .fallback_value(&window, SeriesId(0), &references)
                .unwrap(),
            0.0
        );
        // A reference present now still wins over the target's current value.
        let window = window_with(
            &[
                vec![None, None, None, Some(4.5)],
                reference_values(Some(8.0)),
                reference_values(None),
            ],
            8,
        );
        assert_eq!(
            imputer
                .fallback_value(&window, SeriesId(0), &references)
                .unwrap(),
            8.0
        );
    }

    #[test]
    fn empty_reference_set_is_an_error() {
        let window = window_with(&[vec![Some(1.0)]], 8);
        let config = TkcmConfig::builder()
            .window_length(8)
            .pattern_length(1)
            .anchor_count(1)
            .reference_count(1)
            .build()
            .unwrap();
        let imputer = TkcmImputer::new(config).unwrap();
        assert!(imputer.impute(&window, SeriesId(0), &[]).is_err());
        // Empty window is also an error.
        let empty = StreamingWindow::new(1, 8);
        assert!(imputer.impute(&empty, SeriesId(0), &[SeriesId(0)]).is_err());
    }
}
