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

use tkcm_timeseries::{SeriesId, SlotState, StreamingWindow, Timestamp, TsError};

use crate::config::TkcmConfig;
use crate::consistency::ConsistencyReport;
use crate::diagnostics::{Phase, PhaseBreakdown, PhaseTimer};
use crate::dissimilarity::{l2_distance, l2_from_components};
use crate::pattern::{extract_pattern_at_age, extract_query_pattern, Pattern};
use crate::selection::select_anchors_dp;
use crate::signature::{SignatureIndex, SignatureQuery};

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
    /// Of `pruned`: candidates skipped wholesale by the
    /// level-1 run prefilter — no per-lag lower bound was even computed.
    /// Counts every unresolved candidate of a skipped run, including ones
    /// anchor provenance would have disqualified anyway (the whole point is
    /// not to look at them individually).
    pub level1_skipped: usize,
    /// Always 0: no maintained bound prunes candidates any more.  Kept so
    /// the counter layout (snapshots, metrics, benchmark readers) is stable.
    pub maintained_pruned: usize,
    /// Lags in the reference set's lag memory when the imputation began
    /// (the previous imputation's finite exact folds).
    pub maintained_lags: usize,
}

impl std::ops::AddAssign for PruneStats {
    fn add_assign(&mut self, rhs: PruneStats) {
        self.candidates += rhs.candidates;
        self.shortlisted += rhs.shortlisted;
        self.pruned += rhs.pruned;
        self.level1_skipped += rhs.level1_skipped;
        self.maintained_pruned += rhs.maintained_pruned;
        self.maintained_lags += rhs.maintained_lags;
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
            maintained_lags: self.maintained_lags.saturating_sub(earlier.maintained_lags),
        }
    }
}

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
        // Definition 3); candidate j (1-based, oldest first) has age
        // filled - l - (j - 1) - ... expressed directly below.
        let mut dissimilarities: Vec<f64> = Vec::new();
        let mut candidate_ages: Vec<usize> = Vec::new();
        if filled >= 2 * l {
            let oldest_age = filled - l; // j = 1
            let newest_age = l; // j = J
            for age in (newest_age..=oldest_age).rev() {
                candidate_ages.push(age);
            }
            dissimilarities = vec![f64::INFINITY; candidate_ages.len()];
            let query = extract_query_pattern(window, references, l)?;
            if let Some(ref q) = query {
                for (idx, &age) in candidate_ages.iter().enumerate() {
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
                    dissimilarities[idx] = l2_distance(&candidate, q);
                }
            }
        }

        self.select_and_impute(
            window,
            target,
            references,
            now,
            &candidate_ages,
            &dissimilarities,
            timer,
        )
    }

    /// Steps 2 and 3 — pattern selection and value imputation — shared
    /// verbatim by the exact and composed extraction paths, so the
    /// bit-identity of the composed path cannot drift through a divergent
    /// tail.
    #[allow(clippy::too_many_arguments)]
    fn select_and_impute(
        &self,
        window: &StreamingWindow,
        target: SeriesId,
        references: &[SeriesId],
        now: Timestamp,
        candidate_ages: &[usize],
        dissimilarities: &[f64],
        mut timer: PhaseTimer,
    ) -> Result<ImputationDetail, TsError> {
        let l = self.config.pattern_length;
        let k = self.config.anchor_count;

        // -------- Step 2: pattern selection --------
        timer.start(Phase::Selection);
        let selection = select_anchors_dp(dissimilarities, l, k);

        // -------- Step 3: value imputation --------
        timer.start(Phase::Imputation);
        let mut anchors = Vec::with_capacity(selection.indices.len());
        for &idx in &selection.indices {
            let age = candidate_ages[idx];
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
                dissimilarity: dissimilarities[idx],
                value,
            });
        }
        anchors.sort_by_key(|a| a.time);

        let (value, fallback) = if anchors.is_empty() {
            (self.fallback_value(window, target, references)?, true)
        } else {
            // Definition 4: the plain mean of the anchor values.
            let sum = anchors.iter().map(|a| a.value).sum::<f64>();
            (sum / anchors.len() as f64, false)
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
    /// put an allocation on the composed hot path, so this reads the window
    /// directly and folds the pairs through the same `l2_components`
    /// recurrence in the same order — reference-major, chronological within
    /// a reference, `sum += (x−y)·(x−y)` left to right, then
    /// [`l2_from_components`] — which makes a shortlisted candidate's `D[j]`
    /// bit-equal to the exhaustive path's, not just approximately equal.  A
    /// missing candidate slot makes pattern extraction fail, so `D = +∞`.
    fn exact_fold(
        &self,
        window: &StreamingWindow,
        references: &[SeriesId],
        query: &Pattern,
        age: usize,
    ) -> Result<f64, TsError> {
        let l = self.config.pattern_length;
        let mut sum_sq = 0.0f64;
        let mut observed = 0usize;
        for (ri, &r) in references.iter().enumerate() {
            // Column 0 is the oldest tick — same walk as
            // `extract_pattern_at_age`.
            for (col, &q_slot) in query.row(ri).iter().enumerate() {
                let Some(x) = window.value_recent(r, age + (l - 1 - col))? else {
                    return Ok(f64::INFINITY);
                };
                if let Some(y) = q_slot {
                    sum_sq += (x - y) * (x - y);
                    observed += 1;
                }
            }
        }
        Ok(l2_from_components(sum_sq, observed, references.len() * l))
    }

    /// Imputes like [`TkcmImputer::impute`], but uses the signature `index`
    /// and the lag memory `warm` to *prune* the candidate space before
    /// exact evaluation: admissible lower bounds `LB[j] ≤ D[j]` are compared
    /// against the float sum `τ` of a feasible k-anchor solution, and
    /// candidates with `LB[j] > τ` are provably outside every optimal
    /// selection, so their `D[j]` stays `+∞` unevaluated.  Three layers run
    /// before any exact evaluation, cheapest first:
    ///
    /// 1. **Warm τ-seeding** — `warm` holds the lags of the previous
    ///    imputation's finite exact folds for this reference set, best
    ///    first; walking it usually certifies a feasible k-solution after
    ///    about k exact evaluations instead of an O(J·d·l/B) seeding sweep.
    ///    An empty or unhelpful memory falls back to one level-0
    ///    lower-bound sweep.
    /// 2. **Level-1 run prefilter** — one
    ///    [`SignatureIndex::run_lower_bound_sq_with_query`] bound per run of
    ///    `run_len` consecutive lags skips whole runs above the threshold,
    ///    cutting the O(J) per-lag sweep itself.
    /// 3. **Per-survivor bounds** — the level-0 signature bound per lag,
    ///    then an ascending-bound sweep under a tightening per-candidate
    ///    threshold; only candidates that survive are exact-evaluated.
    ///
    /// The memory only orders the seeding walk: every `D` entering selection
    /// comes from the exact fold and all bounds are admissible (see
    /// [`crate::signature`]), so the result is **bit-identical** to
    /// [`TkcmImputer::impute`] for any `warm` — the float-level proof is in
    /// the comments below.  On return `warm` holds this imputation's finite
    /// exact folds in ascending `(D, lag)` order, ready for the next call.
    /// Requires `index` in lock-step with `window`; the streaming engine
    /// keeps it so on its default path.  `run_len` is the level-1 run
    /// width, picked once at engine construction from config geometry
    /// ([`crate::signature::level1_run_len`]).
    pub fn impute_composed(
        &self,
        window: &StreamingWindow,
        target: SeriesId,
        references: &[SeriesId],
        index: &SignatureIndex,
        warm: &mut Vec<usize>,
        run_len: usize,
    ) -> Result<(ImputationDetail, PruneStats), TsError> {
        self.impute_composed_impl(window, target, references, index, warm, run_len, 1.0, 1.0)
    }

    /// Test-only entry: like [`TkcmImputer::impute_composed`] but inflating
    /// the level-0 per-lag bounds by `inflate0` and the level-1 run bounds
    /// by `inflate1` — deliberately *inadmissible* for factors > 1, so the
    /// equivalence suite can prove over-pruning at either level is caught.
    /// Never call it with factors != 1.0 outside tests.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn impute_composed_with_inflation(
        &self,
        window: &StreamingWindow,
        target: SeriesId,
        references: &[SeriesId],
        index: &SignatureIndex,
        warm: &mut Vec<usize>,
        run_len: usize,
        inflate0: f64,
        inflate1: f64,
    ) -> Result<(ImputationDetail, PruneStats), TsError> {
        self.impute_composed_impl(
            window, target, references, index, warm, run_len, inflate0, inflate1,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn impute_composed_impl(
        &self,
        window: &StreamingWindow,
        target: SeriesId,
        references: &[SeriesId],
        index: &SignatureIndex,
        warm: &mut Vec<usize>,
        run_len: usize,
        inflate0: f64,
        inflate1: f64,
    ) -> Result<(ImputationDetail, PruneStats), TsError> {
        if !index.is_synced(window) || index.width() != window.width() {
            return Err(TsError::invalid(
                "signature",
                "signature index is not in lock-step with the window",
            ));
        }
        if run_len == 0 {
            return Err(TsError::invalid(
                "run_len",
                "level-1 run length must be positive",
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
        let mut timer = PhaseTimer::new();

        // -------- Step 1: pattern extraction, composed --------
        timer.start(Phase::Extraction);
        let filled = window.filled();
        let mut dissimilarities: Vec<f64> = Vec::new();
        let mut candidate_ages: Vec<usize> = Vec::new();
        let mut stats = PruneStats {
            maintained_lags: warm.len(),
            ..PruneStats::default()
        };
        if filled >= 2 * l {
            let oldest_age = filled - l;
            let newest_age = l;
            for age in (newest_age..=oldest_age).rev() {
                candidate_ages.push(age);
            }
            let j = candidate_ages.len();
            stats.candidates = j;
            dissimilarities = vec![f64::INFINITY; j];
            let query = extract_query_pattern(window, references, l)?;
            if let Some(ref q) = query {
                let rows: Vec<&[Option<f64>]> = (0..references.len()).map(|ri| q.row(ri)).collect();
                let sig_query = SignatureQuery::new(&rows);
                // `resolved[idx]`: D[idx] is final — exact-evaluated, pruned
                // (stays +∞) or provenance-disqualified; the sweeps below
                // skip it.
                let mut resolved = vec![false; j];

                // ---- Seed a feasible k-solution from the lag memory ----
                // The previous imputation's best lags are usually still
                // among the best one tick later, so the greedy walk tends to
                // certify k tight seeds after about k exact evaluations — no
                // O(J) sweep.  The candidate lag *is* the window age of its
                // anchor (`lag = t_n − t_j`).
                let mut seed: Vec<usize> = Vec::new();
                for &lag in warm.iter() {
                    if seed.len() == k {
                        break;
                    }
                    if lag < newest_age || lag > oldest_age {
                        continue;
                    }
                    let idx = oldest_age - lag;
                    if seed.iter().any(|&p| idx.abs_diff(p) < l) {
                        continue;
                    }
                    if window.slot_recent(target, lag)?.state != SlotState::Observed {
                        continue;
                    }
                    if !resolved[idx] {
                        dissimilarities[idx] = self.exact_fold(window, references, q, lag)?;
                        resolved[idx] = true;
                        stats.shortlisted += 1;
                    }
                    if dissimilarities[idx].is_finite() {
                        seed.push(idx);
                    }
                }
                if seed.len() < k {
                    // Cold start: too few remembered lags to certify a
                    // k-solution.  Fall back to one level-0 lower-bound
                    // sweep: a feasible set of k non-overlapping
                    // finite-D candidates, found greedily in ascending-LB
                    // order (ties by index) so its sum τ is tight, then
                    // earliest-end greedy.  Candidate ages are consecutive,
                    // so candidates overlap iff their indices are closer
                    // than l.  This is the one place the composed path pays
                    // the O(J) per-lag sweep; its exact folds fill the lag
                    // memory, so the next imputation usually will not.
                    let mut lb = vec![0.0f64; j];
                    let mut open = vec![true; j];
                    for (idx, &age) in candidate_ages.iter().enumerate() {
                        if resolved[idx] {
                            if dissimilarities[idx].is_finite() {
                                // Already exact: its D is its own tightest
                                // "lower bound" for pool ordering.
                                lb[idx] = dissimilarities[idx];
                            } else {
                                open[idx] = false;
                            }
                            continue;
                        }
                        if window.slot_recent(target, age)?.state != SlotState::Observed {
                            open[idx] = false;
                            continue;
                        }
                        let (lb_sq, certain_missing) =
                            index.lower_bound_sq_with_query(references, age, l, &sig_query);
                        if certain_missing {
                            open[idx] = false;
                            resolved[idx] = true;
                            stats.pruned += 1;
                            continue;
                        }
                        lb[idx] = (lb_sq * inflate0).max(0.0).sqrt();
                    }
                    let mut order: Vec<usize> = (0..j).filter(|&i| open[i]).collect();
                    // Partial selection instead of a full O(J log J) sort:
                    // only the smallest-LB pool can seed, and the pool is
                    // large enough that k non-overlapping members essentially
                    // always exist (each seed excludes < 2l neighbours).
                    // Seed choice only affects how *tight* τ is — any
                    // feasible seed keeps the pruning admissible — so
                    // truncation never costs correctness, and the
                    // earliest-end fallback below covers the degenerate pool.
                    let pool = (4 * k * l).max(256);
                    if order.len() > pool {
                        order.select_nth_unstable_by(pool, |&a, &b| {
                            lb[a].total_cmp(&lb[b]).then(a.cmp(&b))
                        });
                        order.truncate(pool);
                    }
                    order.sort_by(|&a, &b| lb[a].total_cmp(&lb[b]).then(a.cmp(&b)));
                    seed.clear();
                    for &idx in &order {
                        if seed.len() == k {
                            break;
                        }
                        if seed.iter().any(|&p| idx.abs_diff(p) < l) {
                            continue;
                        }
                        if !resolved[idx] {
                            dissimilarities[idx] =
                                self.exact_fold(window, references, q, candidate_ages[idx])?;
                            resolved[idx] = true;
                            stats.shortlisted += 1;
                        }
                        if dissimilarities[idx].is_finite() {
                            seed.push(idx);
                        }
                    }
                    if seed.len() < k {
                        // Retry earliest-end greedy, which maximises the
                        // number of non-overlapping finite candidates.
                        seed.clear();
                        let mut next_free = 0usize;
                        for idx in 0..j {
                            if seed.len() == k {
                                break;
                            }
                            if idx < next_free || !open[idx] {
                                continue;
                            }
                            if !resolved[idx] {
                                dissimilarities[idx] =
                                    self.exact_fold(window, references, q, candidate_ages[idx])?;
                                resolved[idx] = true;
                                stats.shortlisted += 1;
                            }
                            if dissimilarities[idx].is_finite() {
                                seed.push(idx);
                                next_free = idx + l;
                            }
                        }
                    }
                }
                if seed.len() >= k {
                    // τ is the *float* value the DP assigns to the seed
                    // subset: the DP accumulates "take" steps innermost-
                    // first by ascending candidate index (`D[j_i] + acc`),
                    // so folding the seed the same way gives exactly
                    // `m_exact[k][J] ≤ τ` at the bit level.  Any candidate
                    // with `D > τ` then satisfies: every DP cell on a path
                    // through it has fl-value > τ (an fl-sum of nonnegative
                    // terms is ≥ each term), so all cells with value ≤ τ —
                    // including the whole backtrack of the optimal solution
                    // — are unchanged by leaving such candidates at +∞.
                    seed.sort_unstable();
                    let mut tau = 0.0f64;
                    for &idx in &seed {
                        // Written `D + acc`, not `acc + D`, to mirror the
                        // DP's take-step expression verbatim (IEEE addition
                        // is commutative, but the proof reads better when
                        // the expressions match token for token).
                        #[allow(clippy::assign_op_pattern)]
                        {
                            tau = dissimilarities[idx] + tau;
                        }
                    }
                    // The slack only *reduces* pruning (never admits an
                    // unsafe prune): LB > τ·(1+ε) ⇒ D ≥ LB > τ.
                    let threshold = tau * (1.0 + 1e-9);

                    // ---- Pass 1: level-1 run prefilter + per-lag bounds ----
                    // `bound > threshold` proves the candidate outside every
                    // optimal selection; survivors keep their tightest bound
                    // for pass 2 instead of being exact-evaluated on the
                    // spot.
                    let mut survivors: Vec<(usize, f64)> = Vec::new();
                    let mut s = 0usize;
                    while s < j {
                        let e = (s + run_len).min(j);
                        // Candidate index ascends oldest-first, so the run's
                        // smallest lag is its *last* candidate.
                        let lag_lo = candidate_ages[e - 1];
                        let run_sq = index.run_lower_bound_sq_with_query(
                            references,
                            lag_lo,
                            e - s,
                            l,
                            &sig_query,
                        );
                        if (run_sq * inflate1).max(0.0).sqrt() > threshold {
                            // Every lag in the run is provably outside any
                            // optimal selection — skip it wholesale.  (A run
                            // holding a finite seed can never trip this: the
                            // admissible run bound is ≤ that seed's D ≤ τ.)
                            for slot in resolved[s..e].iter_mut() {
                                if !*slot {
                                    *slot = true;
                                    stats.pruned += 1;
                                    stats.level1_skipped += 1;
                                }
                            }
                            s = e;
                            continue;
                        }
                        for idx in s..e {
                            if resolved[idx] {
                                continue;
                            }
                            let age = candidate_ages[idx];
                            if window.slot_recent(target, age)?.state != SlotState::Observed {
                                resolved[idx] = true;
                                continue;
                            }
                            let (lb_sq, certain_missing) =
                                index.lower_bound_sq_with_query(references, age, l, &sig_query);
                            if certain_missing {
                                resolved[idx] = true;
                                stats.pruned += 1;
                                continue;
                            }
                            let lb = (lb_sq * inflate0).max(0.0).sqrt();
                            if lb > threshold {
                                resolved[idx] = true;
                                stats.pruned += 1;
                                continue;
                            }
                            survivors.push((idx, lb));
                        }
                        s = e;
                    }

                    // ---- Pass 2: ascending-bound sweep under a tightening
                    // per-candidate threshold ----
                    //
                    // Candidate j can sit in a k-anchor selection of value
                    // ≤ τ only if D[j] ≤ τ − Σ(the other k−1 members' Ds).
                    // Each member's D is at least its entry in a *pool* that
                    // assigns every potentially selectable candidate a value
                    // ≤ its exact D — the exact D where one was computed, the
                    // admissible bound otherwise — so Σ(others) is at least
                    // the sum S of the k−1 smallest pool values, and
                    // `bound > threshold − S` proves j outside every optimal
                    // selection: pass 1's test with a sharper right-hand side
                    // (S converges toward the k−1 best exact Ds, so the bar
                    // falls from the k-sum τ toward the k-th best D).  Pass-1
                    // prunes are safely absent from the pool: admissibility
                    // puts them in no optimal selection, and their bounds
                    // exceed τ ≥ every seed D so they can never be among the
                    // k−1 smallest anyway.  Walking survivors in ascending
                    // bound order makes S monotone non-decreasing (an
                    // evaluation replaces a pool bound with the larger exact
                    // D; the walk pointer moves onto later, larger bounds),
                    // so the first survivor over the bar proves every
                    // remaining one out wholesale.
                    //
                    // Float slop: `threshold` already carries the 1e-9
                    // inflation of the τ proof above; S is a ≤(k−1)-term
                    // fold of non-negative floats deflated by 1e-9, which
                    // dwarfs its relative rounding, and the final subtraction
                    // adds at most one ulp of τ — absorbed by the same
                    // margins.
                    survivors.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                    // Evaluated-value pool: every exact D computed so far
                    // (seeds plus seeding-walk evaluations that missed the
                    // seed set), trimmed to the k−1 smallest — larger values
                    // can never enter the k−1 smallest of a merge.
                    let keep = k.saturating_sub(1);
                    let mut best: Vec<f64> = (0..j)
                        .filter(|&i| resolved[i] && dissimilarities[i].is_finite())
                        .map(|i| dissimilarities[i])
                        .collect();
                    best.sort_unstable_by(f64::total_cmp);
                    best.truncate(keep);
                    for pos in 0..survivors.len() {
                        let (idx, lb) = survivors[pos];
                        // S: the k−1 smallest of (evaluated pool ∪ remaining
                        // bounds); both sides are sorted, so merge the heads.
                        // Including j's own bound only lowers S — safe.
                        let mut sum = 0.0f64;
                        let (mut bi, mut si) = (0usize, pos);
                        for _ in 0..keep {
                            let b_v = best.get(bi).copied().unwrap_or(f64::INFINITY);
                            let s_v = survivors.get(si).map_or(f64::INFINITY, |t| t.1);
                            if b_v <= s_v {
                                sum += b_v;
                                bi += 1;
                            } else {
                                sum += s_v;
                                si += 1;
                            }
                        }
                        let budget = threshold - sum * (1.0 - 1e-9);
                        if lb > budget {
                            for &(ridx, _) in &survivors[pos..] {
                                resolved[ridx] = true;
                                stats.pruned += 1;
                            }
                            break;
                        }
                        dissimilarities[idx] =
                            self.exact_fold(window, references, q, candidate_ages[idx])?;
                        resolved[idx] = true;
                        stats.shortlisted += 1;
                        let d = dissimilarities[idx];
                        if d.is_finite() {
                            let at = best.partition_point(|&v| v <= d);
                            if at < keep {
                                best.insert(at, d);
                                best.truncate(keep);
                            }
                        }
                    }
                } else {
                    // No feasible k-solution certified: exhaustive sweep
                    // (rare — degenerate windows).
                    for idx in 0..j {
                        if resolved[idx] {
                            continue;
                        }
                        let age = candidate_ages[idx];
                        if window.slot_recent(target, age)?.state != SlotState::Observed {
                            continue;
                        }
                        dissimilarities[idx] = self.exact_fold(window, references, q, age)?;
                        resolved[idx] = true;
                        stats.shortlisted += 1;
                    }
                }
            }
        }
        // Remember this imputation's finite exact folds, best first, as the
        // next imputation's seeding order.  Only exact folds are finite: a
        // pruned or disqualified candidate's `D` stays `+∞`.
        let mut folds: Vec<(f64, usize)> = dissimilarities
            .iter()
            .zip(&candidate_ages)
            .filter(|(d, _)| d.is_finite())
            .map(|(&d, &lag)| (d, lag))
            .collect();
        folds.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        warm.clear();
        warm.extend(folds.into_iter().map(|(_, lag)| lag));

        let detail = self.select_and_impute(
            window,
            target,
            references,
            now,
            &candidate_ages,
            &dissimilarities,
            timer,
        )?;
        Ok((detail, stats))
    }

    /// Fallback when no usable anchor exists: the most recent present value
    /// of the target, else the mean of the references' current values, else
    /// the mean of everything present in the window, else 0.
    fn fallback_value(
        &self,
        window: &StreamingWindow,
        target: SeriesId,
        references: &[SeriesId],
    ) -> Result<f64, TsError> {
        let filled = window.ticks_seen().min(window.length());
        for age in 1..filled {
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
            return Ok(ref_values.iter().sum::<f64>() / ref_values.len() as f64);
        }
        if let Some(m) = window.buffer(target)?.mean() {
            return Ok(m);
        }
        Ok(0.0)
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
