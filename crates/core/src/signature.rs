//! Quantized pattern-signature index: admissible candidate pruning.
//!
//! Scoring every candidate lag exactly costs `O(d·l)` each, linear in the
//! candidate count `J = L − 2l + 1` per imputation.  This module keeps a coarse, block-quantized summary of every series in the
//! window — a piecewise min/max envelope plus a missing-slot count per block
//! of [`SIGNATURE_BLOCK_LEN`] consecutive ticks — and uses it to compute a
//! cheap *lower bound* `LB[j] ≤ D[j]` on each candidate's L2 dissimilarity.
//! The imputer ([`crate::imputer::TkcmImputer::impute_composed`]) then
//! evaluates exact dissimilarities only for a shortlist and proves the rest
//! out of the k-NN set.
//!
//! # The lower bound, and why it is admissible
//!
//! For a candidate at lag `a`, the exact squared dissimilarity is
//! `D²[a] = scale · Σ (x − y)²` over the pairs `(x, y)` of candidate and
//! query values observed on both sides, with `scale = total/observed ≥ 1`
//! (Definition 2 as implemented by `l2_components`/`l2_from_components`).
//! Split the candidate range into block-aligned segments.  For a segment
//! whose candidate values lie in the envelope `[c_lo, c_hi]` and whose
//! paired query values lie in `[q_lo, q_hi]`, every observed pair satisfies
//! `(x − y)² ≥ g²` where `g = max(0, q_lo − c_hi, c_lo − q_hi)` is the gap
//! between the envelopes.  At least
//! `n_certain = seg_len − missing_candidate − missing_query` pairs are
//! observed on both sides (block-level missing counts over-count a partial
//! segment, which only lowers `n_certain` — still safe), so
//!
//! ```text
//! Σ g² · n_certain  ≤  Σ_observed (x − y)²  ≤  D²[a]
//! ```
//!
//! Envelopes are maintained *outward only*: a write-back widens the block's
//! min/max (never shrinks it), so the envelope stays a superset of the
//! in-window values and the bound stays a lower bound.  Gaps in the data are
//! handled by the missing counts; ring wrap-around is handled by keying the
//! blocks on absolute tick ordinals (`StreamingWindow::ordinal_of_age`),
//! which do not move as the ring wraps.
//!
//! The pruning itself (in the imputer) compares `LB` against the float sum
//! `τ` of a feasible k-solution evaluated exactly; `LB > τ` proves the
//! candidate cannot appear in any optimal selection of ≤ k anchors, because
//! every member of an optimal solution has `D ≤ optimal sum ≤ τ`.

use tkcm_timeseries::{SeriesId, StreamingWindow, TsError};

/// Number of consecutive ticks summarized by one signature block.
///
/// The index is not persisted (decode rebuilds it from the window), so this
/// is not an on-disk constant; it stays covered by the `single-definition`
/// rule of `tkcm-lint` so the block geometry is defined in one place.
pub const SIGNATURE_BLOCK_LEN: u32 = 16;

/// Picks the level-1 run length (in candidate lags) for the composed
/// imputation path from config geometry, block-aligned and static per run.
///
/// The run bound's cost is ~one block walk per `SIGNATURE_BLOCK_LEN`-chunk
/// of the pattern, so wider runs amortize better for longer patterns; but a
/// run's union envelope loosens as it widens, so the width is capped at 8
/// blocks.  Short patterns (where the per-lag sweep is cheap anyway) get a
/// single block.
pub fn level1_run_len(pattern_length: usize) -> usize {
    let b = SIGNATURE_BLOCK_LEN as usize;
    (pattern_length / b).clamp(1, 8) * b
}

/// Summary of one block of [`SIGNATURE_BLOCK_LEN`] consecutive ticks of one
/// series: an outward-only min/max envelope over the observed values, the
/// number of missing slots, and the running sum of the observed values.
#[derive(Clone, Copy, Debug)]
pub struct BlockSummary {
    /// Lower envelope of the observed values (`+∞` while the block is all
    /// missing).  Only ever moves down.
    pub min: f64,
    /// Upper envelope of the observed values (`−∞` while the block is all
    /// missing).  Only ever moves up.
    pub max: f64,
    /// Number of slots in the block with no value.  Exact as long as every
    /// missing → imputed transition is reported via [`SignatureIndex::on_write`].
    pub missing: u32,
    /// Sum of the observed values of the block, accumulated in push order.
    /// Feeds the block-mean (Jensen) lower bound, which is only admissible
    /// while the sum tracks the block's current contents exactly — an
    /// overwrite of an already observed slot cannot be tracked (the old
    /// value is gone), so it *poisons* the sum to NaN and the mean bound is
    /// skipped for that block from then on (the envelope bound still holds).
    pub sum: f64,
}

impl PartialEq for BlockSummary {
    fn eq(&self, other: &Self) -> bool {
        self.min == other.min
            && self.max == other.max
            && self.missing == other.missing
            // A poisoned (NaN) sum compares equal to a poisoned sum, so
            // snapshot round-trips of a poisoned block stay comparable.
            && (self.sum == other.sum || (self.sum.is_nan() && other.sum.is_nan()))
    }
}

impl BlockSummary {
    fn empty() -> Self {
        BlockSummary {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            missing: 0,
            sum: 0.0,
        }
    }

    fn absorb(&mut self, value: Option<f64>) {
        match value {
            Some(v) => {
                self.min = self.min.min(v);
                self.max = self.max.max(v);
                self.sum += v;
            }
            None => self.missing += 1,
        }
    }
}

/// Gap between two min/max envelopes: the smallest possible |x − y| for
/// `x ∈ [a_lo, a_hi]`, `y ∈ [b_lo, b_hi]`.
fn envelope_gap(a: &BlockSummary, b: &BlockSummary) -> f64 {
    let g = (b.min - a.max).max(a.min - b.max);
    g.max(0.0)
}

/// Precomputed query-side context for [`SignatureIndex::lower_bound_sq_with_query`].
///
/// The query pattern is fixed for the whole candidate sweep of one
/// imputation, so its per-sub-range statistics are precomputed once —
/// prefix sums and missing counts for O(1) segment means, and sparse
/// min/max tables for O(1) exact segment envelopes — and reused across all
/// `J` candidates.  Construction is `O(d · l · log l)`, negligible next to
/// the sweep itself.
#[derive(Clone, Debug)]
pub struct SignatureQuery {
    length: usize,
    refs: Vec<QueryRef>,
}

/// Range tables of one reference row of the query pattern.
#[derive(Clone, Debug)]
struct QueryRef {
    /// `prefix_sum[p]` = sum of the observed values at positions `< p`
    /// (missing contributes 0).
    prefix_sum: Vec<f64>,
    /// `prefix_missing[p]` = number of missing slots at positions `< p`.
    prefix_missing: Vec<u32>,
    /// Sparse tables: `mins[k][i]` covers positions `[i, i + 2^k)`; missing
    /// slots hold `+∞` / `−∞` so they drop out of range envelopes.
    mins: Vec<Vec<f64>>,
    maxs: Vec<Vec<f64>>,
}

impl QueryRef {
    fn new(row: &[Option<f64>]) -> Self {
        let l = row.len();
        let mut prefix_sum = Vec::with_capacity(l + 1);
        let mut prefix_missing = Vec::with_capacity(l + 1);
        prefix_sum.push(0.0);
        prefix_missing.push(0);
        for v in row {
            prefix_sum.push(prefix_sum.last().unwrap() + v.unwrap_or(0.0));
            prefix_missing.push(prefix_missing.last().unwrap() + u32::from(v.is_none()));
        }
        let base_min: Vec<f64> = row.iter().map(|v| v.unwrap_or(f64::INFINITY)).collect();
        let base_max: Vec<f64> = row.iter().map(|v| v.unwrap_or(f64::NEG_INFINITY)).collect();
        let mut mins = vec![base_min];
        let mut maxs = vec![base_max];
        let mut width = 1usize;
        while width * 2 <= l {
            let prev_min = mins.last().unwrap();
            let prev_max = maxs.last().unwrap();
            let next_len = l - width * 2 + 1;
            let mut next_min = Vec::with_capacity(next_len);
            let mut next_max = Vec::with_capacity(next_len);
            for i in 0..next_len {
                next_min.push(prev_min[i].min(prev_min[i + width]));
                next_max.push(prev_max[i].max(prev_max[i + width]));
            }
            mins.push(next_min);
            maxs.push(next_max);
            width *= 2;
        }
        QueryRef {
            prefix_sum,
            prefix_missing,
            mins,
            maxs,
        }
    }

    /// Exact min/max over the *observed* values at positions `[a, b]`
    /// (inclusive); `(+∞, −∞)` when every position is missing.
    fn range_min_max(&self, a: usize, b: usize) -> (f64, f64) {
        let len = b - a + 1;
        let k = (usize::BITS - 1 - len.leading_zeros()) as usize;
        let k = k.min(self.mins.len() - 1);
        let right = b + 1 - (1 << k);
        (
            self.mins[k][a].min(self.mins[k][right]),
            self.maxs[k][a].max(self.maxs[k][right]),
        )
    }
}

impl SignatureQuery {
    /// Builds the context from the query pattern's reference rows
    /// (chronological order, position 0 = oldest — exactly
    /// [`crate::pattern::Pattern::row`]).  Every row must have the same
    /// length.
    pub fn new(rows: &[&[Option<f64>]]) -> Self {
        let length = rows.first().map(|r| r.len()).unwrap_or(0);
        assert!(
            rows.iter().all(|r| r.len() == length),
            "SignatureQuery: ragged query rows"
        );
        SignatureQuery {
            length,
            refs: rows.iter().map(|r| QueryRef::new(r)).collect(),
        }
    }

    /// The pattern length the context was built for.
    pub fn length(&self) -> usize {
        self.length
    }
}

/// Block-quantized signature index over all series of one streaming window.
///
/// Maintained in lock-step with the window: [`SignatureIndex::on_push`]
/// after every `push_tick` (O(width)) and [`SignatureIndex::on_write`] after
/// every `write_imputed`.  [`crate::engine::TkcmEngine`] does both
/// automatically when pruning is active.
#[derive(Clone, Debug, PartialEq)]
pub struct SignatureIndex {
    width: usize,
    window_length: usize,
    /// Ordinal of the first tick covered by `blocks[_][0]` (a multiple of
    /// [`SIGNATURE_BLOCK_LEN`]).
    base_ordinal: u64,
    /// Number of ticks absorbed so far (mirrors the window's tick counter).
    ticks_seen: u64,
    /// `blocks[series][b]` summarizes ordinals
    /// `base_ordinal + b·B .. base_ordinal + (b+1)·B`.
    blocks: Vec<Vec<BlockSummary>>,
}

impl SignatureIndex {
    /// Creates an empty index for `width` series over a window of length `L`.
    pub fn new(width: usize, window_length: usize) -> Result<Self, TsError> {
        if width == 0 {
            return Err(TsError::invalid("width", "need at least one series"));
        }
        if window_length == 0 {
            return Err(TsError::invalid("L", "window length must be positive"));
        }
        Ok(SignatureIndex {
            width,
            window_length,
            base_ordinal: 0,
            ticks_seen: 0,
            blocks: vec![Vec::new(); width],
        })
    }

    /// The number of series the index covers.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether the index has absorbed the same number of ticks as a window.
    pub fn is_synced(&self, window: &StreamingWindow) -> bool {
        self.ticks_seen == window.ticks_seen() as u64
    }

    /// Absorbs one arrived tick (`values` in window series order).  O(width).
    pub fn on_push(&mut self, values: &[Option<f64>]) -> Result<(), TsError> {
        if values.len() != self.width {
            return Err(TsError::LengthMismatch {
                left: values.len(),
                right: self.width,
                context: "stream tick width vs signature index width",
            });
        }
        let block_len = SIGNATURE_BLOCK_LEN as u64;
        let ordinal = self.ticks_seen;
        if ordinal == self.block_end() {
            for series in &mut self.blocks {
                series.push(BlockSummary::empty());
            }
        }
        for (series, v) in self.blocks.iter_mut().zip(values.iter()) {
            if let Some(last) = series.last_mut() {
                last.absorb(*v);
            }
        }
        self.ticks_seen += 1;
        // Retire blocks that no longer overlap the window: the oldest
        // in-window ordinal is ticks_seen − L.
        let cutoff = self.ticks_seen.saturating_sub(self.window_length as u64);
        while self.base_ordinal + block_len <= cutoff {
            for series in &mut self.blocks {
                if !series.is_empty() {
                    series.remove(0);
                }
            }
            self.base_ordinal += block_len;
        }
        Ok(())
    }

    /// Reports a value written into an existing slot (the engine's imputed
    /// write-back): widens the block's envelope outward and, when the slot
    /// was missing before, decrements the missing count.
    pub fn on_write(&mut self, series: SeriesId, age: usize, value: f64, was_missing: bool) {
        let Some(ordinal) = self.ordinal_of_age(age) else {
            return;
        };
        let Some(block) = self
            .blocks
            .get_mut(series.index())
            .and_then(|s| Self::block_of(s, self.base_ordinal, ordinal))
        else {
            return;
        };
        block.min = block.min.min(value);
        block.max = block.max.max(value);
        if was_missing {
            block.missing = block.missing.saturating_sub(1);
            // The slot joins the observed set; a NaN (poisoned) sum stays
            // poisoned through the addition, which is exactly right.
            block.sum += value;
        } else {
            // Overwriting an observed slot: the old value's contribution is
            // unknown, so the sum can no longer be trusted.  Poison it —
            // the mean bound degrades to the envelope bound for this block.
            block.sum = f64::NAN;
        }
    }

    /// One past the ordinal covered by the last allocated block.
    fn block_end(&self) -> u64 {
        let block_len = SIGNATURE_BLOCK_LEN as u64;
        let count = self.blocks.first().map(|s| s.len()).unwrap_or(0) as u64;
        self.base_ordinal + count * block_len
    }

    fn ordinal_of_age(&self, age: usize) -> Option<u64> {
        let age = age as u64;
        if age >= self.ticks_seen {
            return None;
        }
        // Ordinal (push-count) arithmetic, not timestamp arithmetic: block
        // membership is defined by push position, so no cadence is assumed.
        Some(self.ticks_seen - 1 - age) // tkcm-lint: allow(cadence)
    }

    fn block_of(series: &mut [BlockSummary], base: u64, ordinal: u64) -> Option<&mut BlockSummary> {
        if ordinal < base {
            return None;
        }
        let idx = ((ordinal - base) / SIGNATURE_BLOCK_LEN as u64) as usize;
        series.get_mut(idx)
    }

    fn block_at(&self, series: usize, ordinal: u64) -> Option<&BlockSummary> {
        if ordinal < self.base_ordinal {
            return None;
        }
        let idx = ((ordinal - self.base_ordinal) / SIGNATURE_BLOCK_LEN as u64) as usize;
        self.blocks.get(series).and_then(|s| s.get(idx))
    }

    /// Like [`SignatureIndex::lower_bound_sq`] but *query-aware*: the query
    /// side is the exact extracted pattern instead of its block envelopes,
    /// which tightens the bound in two ways.
    ///
    /// 1. **Exact query segment statistics** — per candidate segment the
    ///    paired query sub-range's min/max and missing count come from the
    ///    pattern itself ([`SignatureQuery`] precomputes range tables), so
    ///    the envelope gap loses the query-side quantization slack.
    /// 2. **Block-mean (Jensen) bound** — when a segment covers a whole
    ///    block with no missing slot on either side, all
    ///    `B = SIGNATURE_BLOCK_LEN` pairs are observed and
    ///    `Σ (x_i − y_i)² ≥ (Σ (x_i − y_i))² / B = B · (x̄ − ȳ)²`
    ///    (Cauchy–Schwarz), with `x̄` from the maintained block sum and `ȳ`
    ///    from the query prefix sums.  This separates candidates whose
    ///    *level* differs from the query even when their envelopes overlap
    ///    (the common case for smooth seasonal signals), and is deflated by
    ///    one part in 10⁹ so float rounding in the sums can never push it
    ///    above the true value.  A block whose sum was poisoned by an
    ///    overwrite falls back to the envelope bound.
    ///
    /// The per-segment contribution is the max of the two bounds; both are
    /// admissible, so the max is.  Semantics of the returns are identical to
    /// [`SignatureIndex::lower_bound_sq`].
    pub fn lower_bound_sq_with_query(
        &self,
        references: &[SeriesId],
        lag: usize,
        l: usize,
        query: &SignatureQuery,
    ) -> (f64, bool) {
        if self.ticks_seen == 0
            || l == 0
            || query.length != l
            || query.refs.len() != references.len()
        {
            return (0.0, false);
        }
        let Some(query_newest) = self.ordinal_of_age(0) else {
            return (0.0, false);
        };
        let Some(cand_newest) = self.ordinal_of_age(lag) else {
            return (0.0, false);
        };
        let span = (l - 1) as u64;
        if cand_newest < span || query_newest < span {
            return (0.0, false);
        }
        let cand_start = cand_newest - span;
        if cand_start < self.base_ordinal {
            return (0.0, false);
        }
        let block_len = SIGNATURE_BLOCK_LEN as u64;
        let deflate = 1.0 - 1e-9;

        let mut sum = 0.0_f64;
        let mut certain_missing = false;
        for (r, qref) in references.iter().zip(query.refs.iter()) {
            let Some(series) = self.blocks.get(r.index()) else {
                continue;
            };
            let mut seg_start = cand_start;
            while seg_start <= cand_newest {
                let block_base = seg_start & !(block_len - 1);
                let seg_end = (block_base + block_len - 1).min(cand_newest);
                let bi = ((block_base - self.base_ordinal) / block_len) as usize;
                let Some(cand_block) = series.get(bi) else {
                    seg_start = seg_end + 1;
                    continue;
                };
                let full_block = seg_start == block_base && seg_end == block_base + block_len - 1;
                if cand_block.missing > 0 && full_block {
                    certain_missing = true;
                }
                // Pattern positions paired with this segment (0 = oldest).
                let p_s = (seg_start - cand_start) as usize;
                let p_e = (seg_end - cand_start) as usize;
                let q_missing = (qref.prefix_missing[p_e + 1] - qref.prefix_missing[p_s]) as u64;
                let seg_len = seg_end - seg_start + 1;
                let uncertain = u64::from(cand_block.missing) + q_missing;
                if seg_len > uncertain {
                    let clean_block = full_block
                        && cand_block.missing == 0
                        && q_missing == 0
                        && !cand_block.sum.is_nan();
                    if clean_block {
                        // All B pairs observed and the sum unpoisoned: the
                        // mean bound alone — on smooth signals it dominates
                        // the envelope gap (which needs *disjoint* ranges),
                        // and skipping the range-table lookups here keeps
                        // the sweep's constant small.
                        let n = block_len as f64;
                        let cand_mean = cand_block.sum / n;
                        let q_mean = (qref.prefix_sum[p_e + 1] - qref.prefix_sum[p_s]) / n;
                        let diff = cand_mean - q_mean;
                        sum += diff * diff * n * deflate;
                    } else {
                        let n_certain = (seg_len - uncertain) as f64;
                        let (q_min, q_max) = qref.range_min_max(p_s, p_e);
                        let g = (q_min - cand_block.max)
                            .max(cand_block.min - q_max)
                            .max(0.0);
                        if g > 0.0 && g.is_finite() {
                            sum += g * g * n_certain;
                        }
                    }
                }
                seg_start = seg_end + 1;
            }
        }
        (sum, certain_missing)
    }

    /// Level-1 *run* bound: an admissible lower bound on the squared,
    /// unscaled L2 dissimilarity of **every** candidate lag in
    /// `lag_lo .. lag_lo + run_len`, computed from coarse block-envelope
    /// unions — one bound for a whole run of consecutive lags, so the
    /// per-imputation sweep can skip the run wholesale when the bound
    /// already exceeds the pruning threshold.
    ///
    /// For a chunk of `B = SIGNATURE_BLOCK_LEN` query positions `[p_s, p_e]`
    /// the candidate ordinals paired with it across the run sweep the region
    /// `[start(lag_hi) + p_s, start(lag_lo) + p_e]` (length
    /// `chunk_len + run_len − 1`).  The union envelope of the blocks covering
    /// that region contains every candidate value any lag in the run pairs
    /// with the chunk, and the summed block missing counts over-count any
    /// single lag's missing pairs, so with `g` the gap between the union
    /// envelope and the exact query-chunk envelope,
    /// `g² · max(0, chunk_len − q_missing − region_missing)` lower-bounds
    /// each lag's contribution.  Per reference the cost is
    /// `O((l/B) · (run_len/B + 2))` block reads for `run_len` lags — versus
    /// `O(run_len · l/B)` for per-lag level-0 bounds.
    ///
    /// Unlike the per-lag bound there is no certain-missing signal here: a
    /// missing slot in the region need not lie inside any particular lag's
    /// range.  Returns `0.0` (the vacuous bound) whenever a region is not
    /// fully resolvable, so the caller never over-prunes.
    pub fn run_lower_bound_sq_with_query(
        &self,
        references: &[SeriesId],
        lag_lo: usize,
        run_len: usize,
        l: usize,
        query: &SignatureQuery,
    ) -> f64 {
        if self.ticks_seen == 0
            || l == 0
            || run_len == 0
            || query.length != l
            || query.refs.len() != references.len()
        {
            return 0.0;
        }
        let lag_hi = lag_lo + (run_len - 1);
        let need = l as u64 + lag_hi as u64;
        if self.ticks_seen < need {
            return 0.0;
        }
        // Oldest and newest candidate start ordinals across the run: larger
        // lag ⇒ older candidate, so lag_hi anchors the region's left edge.
        let start_hi = self.ticks_seen - need;
        let start_lo = self.ticks_seen - l as u64 - lag_lo as u64;
        let block_len = SIGNATURE_BLOCK_LEN as u64;

        let mut sum = 0.0_f64;
        for (r, qref) in references.iter().zip(query.refs.iter()) {
            let series = r.index();
            let mut p_s = 0usize;
            while p_s < l {
                let p_e = (p_s + SIGNATURE_BLOCK_LEN as usize - 1).min(l - 1);
                let region_start = start_hi + p_s as u64;
                let region_end = start_lo + p_e as u64;
                if region_start >= self.base_ordinal {
                    let mut c_min = f64::INFINITY;
                    let mut c_max = f64::NEG_INFINITY;
                    let mut region_missing = 0u64;
                    let mut resolved = true;
                    let mut b = region_start & !(block_len - 1);
                    while b <= region_end {
                        match self.block_at(series, b) {
                            Some(blk) => {
                                c_min = c_min.min(blk.min);
                                c_max = c_max.max(blk.max);
                                region_missing += u64::from(blk.missing);
                            }
                            None => {
                                resolved = false;
                                break;
                            }
                        }
                        b += block_len;
                    }
                    if resolved {
                        let chunk_len = (p_e - p_s + 1) as u64;
                        let q_missing =
                            u64::from(qref.prefix_missing[p_e + 1] - qref.prefix_missing[p_s]);
                        let uncertain = q_missing + region_missing;
                        if chunk_len > uncertain {
                            let (q_min, q_max) = qref.range_min_max(p_s, p_e);
                            let g = (q_min - c_max).max(c_min - q_max).max(0.0);
                            if g > 0.0 && g.is_finite() {
                                sum += g * g * (chunk_len - uncertain) as f64;
                            }
                        }
                    }
                }
                p_s = p_e + 1;
            }
        }
        sum
    }

    /// Gap-aware lower bound on the *squared, unscaled* L2 dissimilarity of
    /// the candidate anchored `lag` ticks in the past, over the given
    /// reference series with pattern length `l` — i.e. a lower bound on the
    /// `sum_sq` of `l2_components`, hence (since the Definition 2 rescale
    /// factor is ≥ 1) on `D²[lag]`.
    ///
    /// The second return is `true` when the index *proves* the candidate
    /// range contains a missing reference slot (a block fully inside the
    /// range with `missing > 0`): such a candidate has `D = +∞` exactly and
    /// needs no exact evaluation.
    ///
    /// Returns `(0.0, false)` — the vacuous bound — whenever a range is not
    /// fully resolvable, so the caller never over-prunes.
    pub fn lower_bound_sq(&self, references: &[SeriesId], lag: usize, l: usize) -> (f64, bool) {
        if self.ticks_seen == 0 || l == 0 {
            return (0.0, false);
        }
        let Some(query_newest) = self.ordinal_of_age(0) else {
            return (0.0, false);
        };
        // Candidate columns pair with query columns at a constant ordinal
        // offset of exactly `lag`.
        let Some(cand_newest) = self.ordinal_of_age(lag) else {
            return (0.0, false);
        };
        let span = (l - 1) as u64;
        if cand_newest < span || query_newest < span {
            return (0.0, false);
        }
        let cand_start = cand_newest - span;
        let block_len = SIGNATURE_BLOCK_LEN as u64;

        let mut sum = 0.0_f64;
        let mut certain_missing = false;
        for (ri, &r) in references.iter().enumerate() {
            let _ = ri;
            let series = r.index();
            // Walk block-aligned segments of the candidate range.
            let mut seg_start = cand_start;
            while seg_start <= cand_newest {
                let block_base = seg_start - (seg_start % block_len);
                let seg_end = (block_base + block_len - 1).min(cand_newest);
                let seg_len = seg_end - seg_start + 1;
                let Some(cand_block) = self.block_at(series, seg_start) else {
                    seg_start = seg_end + 1;
                    continue;
                };
                if cand_block.missing > 0
                    && seg_start == block_base
                    && seg_end == block_base + block_len - 1
                {
                    // The whole block lies inside the candidate range, so its
                    // missing slots are provably part of the candidate.
                    certain_missing = true;
                }
                // The paired query segment spans at most two query blocks;
                // union their envelopes and missing counts (conservative).
                let q_start = seg_start + lag as u64;
                let q_end = seg_end + lag as u64;
                let Some(q_first) = self.block_at(series, q_start) else {
                    seg_start = seg_end + 1;
                    continue;
                };
                let mut q_env = *q_first;
                let q_last_base = q_end - (q_end % block_len);
                if q_last_base > q_start {
                    let Some(q_second) = self.block_at(series, q_end) else {
                        seg_start = seg_end + 1;
                        continue;
                    };
                    q_env.min = q_env.min.min(q_second.min);
                    q_env.max = q_env.max.max(q_second.max);
                    q_env.missing += q_second.missing;
                }
                let uncertain = (cand_block.missing + q_env.missing) as u64;
                if seg_len > uncertain {
                    let n_certain = (seg_len - uncertain) as f64;
                    let g = envelope_gap(cand_block, &q_env);
                    if g > 0.0 && g.is_finite() {
                        sum += g * g * n_certain;
                    }
                }
                seg_start = seg_end + 1;
            }
        }
        (sum, certain_missing)
    }

    /// Rebuilds the index from the current window contents (tight envelopes,
    /// exact missing counts).  Used when attaching an index to a window that
    /// already has history — a decoded snapshot, whose index is not
    /// persisted — and by tests as the reference state.  The rebuilt
    /// envelopes are contained in the maintained ones, so every bound is at
    /// least as tight and still admissible.
    pub fn rebuild(&mut self, window: &StreamingWindow) -> Result<(), TsError> {
        if window.width() != self.width || window.length() != self.window_length {
            return Err(TsError::invalid(
                "window",
                "signature index was built for a different window shape",
            ));
        }
        let block_len = SIGNATURE_BLOCK_LEN as u64;
        self.ticks_seen = window.ticks_seen() as u64;
        let filled = window.filled() as u64;
        let oldest_ordinal = self.ticks_seen - filled;
        self.base_ordinal = oldest_ordinal - (oldest_ordinal % block_len);
        let block_count = if filled == 0 {
            0
        } else {
            ((self.ticks_seen - 1 - self.base_ordinal) / block_len + 1) as usize
        };
        for (s, series) in self.blocks.iter_mut().enumerate() {
            series.clear();
            series.resize(block_count, BlockSummary::empty());
            for (b, block) in series.iter_mut().enumerate() {
                let block_start = self.base_ordinal + b as u64 * block_len;
                for ordinal in block_start..(block_start + block_len).min(self.ticks_seen) {
                    if ordinal < oldest_ordinal {
                        continue;
                    }
                    let age = (self.ticks_seen - 1 - ordinal) as usize;
                    block.absorb(window.value_recent(SeriesId(s as u32), age)?);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkcm_timeseries::{StreamTick, Timestamp};

    fn push(w: &mut StreamingWindow, ix: &mut SignatureIndex, t: i64, values: Vec<Option<f64>>) {
        w.push_tick(&StreamTick::new(Timestamp::new(t), values.clone()))
            .unwrap();
        ix.on_push(&values).unwrap();
    }

    #[test]
    fn maintained_index_envelopes_contain_the_rebuilt_ones() {
        // While no tick has aged out of a block, maintained == rebuilt
        // exactly; once a block partially retires, the maintained block must
        // stay a *superset* of the tight rebuilt one (values that left the
        // window linger in the envelope until the whole block retires) — the
        // direction admissibility needs.
        let width = 2;
        let cap = 50;
        let mut w = StreamingWindow::new(width, cap);
        let mut ix = SignatureIndex::new(width, cap).unwrap();
        for t in 0..(3 * cap as i64) {
            let v0 = if t % 7 == 3 {
                None
            } else {
                Some((t as f64 * 0.3).sin())
            };
            push(&mut w, &mut ix, t, vec![v0, Some(t as f64)]);
            let mut fresh = SignatureIndex::new(width, cap).unwrap();
            fresh.rebuild(&w).unwrap();
            if (t as usize) < cap {
                assert_eq!(ix, fresh, "tick {t}");
            } else {
                assert_eq!(ix.base_ordinal, fresh.base_ordinal, "tick {t}");
                assert_eq!(ix.ticks_seen, fresh.ticks_seen, "tick {t}");
                for (ms, rs) in ix.blocks.iter().zip(fresh.blocks.iter()) {
                    assert_eq!(ms.len(), rs.len(), "tick {t}");
                    for (m, r) in ms.iter().zip(rs.iter()) {
                        assert!(m.min <= r.min, "tick {t}");
                        assert!(m.max >= r.max, "tick {t}");
                        assert!(m.missing >= r.missing, "tick {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn write_back_widens_and_clears_missing() {
        let mut w = StreamingWindow::new(1, 32);
        let mut ix = SignatureIndex::new(1, 32).unwrap();
        for t in 0..20i64 {
            let v = if t == 19 { None } else { Some(1.0) };
            push(&mut w, &mut ix, t, vec![v]);
        }
        let before = ix.block_at(0, 19).unwrap().missing;
        assert!(before > 0);
        w.write_imputed(SeriesId(0), 0, 5.0).unwrap();
        ix.on_write(SeriesId(0), 0, 5.0, true);
        let block = ix.block_at(0, 19).unwrap();
        assert_eq!(block.missing, before - 1);
        assert_eq!(block.max, 5.0);
        // Envelope only widens: a rebuilt index would have the same bounds
        // here, but writing a value *inside* the envelope must not shrink it.
        ix.on_write(SeriesId(0), 1, 2.0, false);
        assert_eq!(ix.block_at(0, 19).unwrap().max, 5.0);
    }

    #[test]
    fn lower_bound_is_zero_for_identical_ranges() {
        let mut w = StreamingWindow::new(1, 64);
        let mut ix = SignatureIndex::new(1, 64).unwrap();
        for t in 0..64i64 {
            push(&mut w, &mut ix, t, vec![Some(((t % 8) as f64) * 0.5)]);
        }
        // Period-8 signal: candidate at lag 8 is identical to the query.
        let (lb, miss) = ix.lower_bound_sq(&[SeriesId(0)], 8, 8);
        assert_eq!(lb, 0.0);
        assert!(!miss);
    }

    #[test]
    fn lower_bound_separates_disjoint_envelopes() {
        let mut w = StreamingWindow::new(1, 64);
        let mut ix = SignatureIndex::new(1, 64).unwrap();
        // First 32 ticks near 0, last 32 near 100.
        for t in 0..64i64 {
            let v = if t < 32 { t as f64 * 0.01 } else { 100.0 };
            push(&mut w, &mut ix, t, vec![Some(v)]);
        }
        let l = 8usize;
        let (lb, _) = ix.lower_bound_sq(&[SeriesId(0)], 40, l);
        // Gap is at least 100 − 0.32 per pair, 8 pairs.
        assert!(lb > 8.0 * 99.0 * 99.0, "lb = {lb}");
    }

    #[test]
    fn certain_missing_needs_a_fully_covered_block() {
        let cap = 64;
        let mut w = StreamingWindow::new(1, cap);
        let mut ix = SignatureIndex::new(1, cap).unwrap();
        let b = SIGNATURE_BLOCK_LEN as i64;
        for t in 0..(3 * b) {
            let v = if t == b + 2 { None } else { Some(1.0) };
            push(&mut w, &mut ix, t, vec![Some(1.0).filter(|_| v.is_some())]);
        }
        // Candidate covering the full middle block sees the missing slot.
        let l = SIGNATURE_BLOCK_LEN as usize;
        let lag = l; // candidate = middle block exactly
        let (_, certain) = ix.lower_bound_sq(&[SeriesId(0)], lag, l);
        assert!(certain);
        // A short candidate that only clips the block cannot be sure.
        let (_, maybe) = ix.lower_bound_sq(&[SeriesId(0)], l + 10, 4);
        assert!(!maybe);
    }

    #[test]
    fn retired_blocks_are_dropped() {
        let cap = 40;
        let mut w = StreamingWindow::new(1, cap);
        let mut ix = SignatureIndex::new(1, cap).unwrap();
        for t in 0..(10 * cap as i64) {
            push(&mut w, &mut ix, t, vec![Some(t as f64)]);
        }
        let b = SIGNATURE_BLOCK_LEN as usize;
        // At most ceil(L/B) + 1 blocks are ever live.
        assert!(ix.blocks[0].len() <= cap.div_ceil(b) + 1);
        // The oldest retained block still covers the oldest window slot.
        assert!(ix.base_ordinal <= (ix.ticks_seen - cap as u64));
    }

    /// Exact unscaled `sum_sq` of the candidate at `lag`, for checking the
    /// run bound's admissibility against ground truth.
    fn exact_sum_sq(w: &StreamingWindow, lag: usize, l: usize) -> Option<f64> {
        let mut sum = 0.0;
        for col in 0..l {
            let q = w.value_recent(SeriesId(0), l - 1 - col).unwrap();
            let c = w.value_recent(SeriesId(0), lag + l - 1 - col).unwrap();
            match (q, c) {
                (Some(q), Some(c)) => sum += (q - c) * (q - c),
                _ => return None,
            }
        }
        Some(sum)
    }

    #[test]
    fn run_bound_is_admissible_for_every_lag_in_the_run() {
        let cap = 128;
        let mut w = StreamingWindow::new(1, cap);
        let mut ix = SignatureIndex::new(1, cap).unwrap();
        for t in 0..(cap as i64 + 40) {
            let v = if t % 11 == 5 {
                None
            } else {
                Some((t as f64 * 0.37).sin() * 3.0 + if t % 29 == 0 { 50.0 } else { 0.0 })
            };
            push(&mut w, &mut ix, t, vec![v]);
        }
        let l = 16usize;
        let rows: Vec<Option<f64>> = (0..l)
            .map(|col| w.value_recent(SeriesId(0), l - 1 - col).unwrap())
            .collect();
        let query = SignatureQuery::new(&[&rows]);
        for run_len in [1usize, 4, 16, 32] {
            let mut lag_lo = l;
            while lag_lo + run_len - 1 <= cap - l {
                let rb =
                    ix.run_lower_bound_sq_with_query(&[SeriesId(0)], lag_lo, run_len, l, &query);
                for lag in lag_lo..lag_lo + run_len {
                    // Admissible vs the exact sum, and never above the
                    // per-lag level-0 bound's target either.
                    if let Some(exact) = exact_sum_sq(&w, lag, l) {
                        assert!(
                            rb <= exact + 1e-9,
                            "run [{lag_lo}, +{run_len}) lag {lag}: {rb} > {exact}"
                        );
                    }
                }
                lag_lo += run_len;
            }
        }
    }

    #[test]
    fn run_bound_separates_a_level_shifted_region() {
        let cap = 96;
        let mut w = StreamingWindow::new(1, cap);
        let mut ix = SignatureIndex::new(1, cap).unwrap();
        // Old half near 100, recent half (query region) near 0.
        for t in 0..cap as i64 {
            let v = if t < 48 {
                100.0 + (t % 3) as f64
            } else {
                (t % 3) as f64 * 0.1
            };
            push(&mut w, &mut ix, t, vec![Some(v)]);
        }
        let l = 16usize;
        let rows: Vec<Option<f64>> = (0..l)
            .map(|col| w.value_recent(SeriesId(0), l - 1 - col).unwrap())
            .collect();
        let query = SignatureQuery::new(&[&rows]);
        // A run wholly inside the far (level-100) region must get a large
        // positive bound.
        let rb = ix.run_lower_bound_sq_with_query(&[SeriesId(0)], 64, 8, l, &query);
        assert!(rb > 16.0 * 90.0 * 90.0, "rb = {rb}");
        // A run overlapping the query-like recent region must stay vacuous
        // or tiny (the union envelope includes near-query values).
        let rb_near = ix.run_lower_bound_sq_with_query(&[SeriesId(0)], l, 8, l, &query);
        assert!(rb_near <= rb, "near {rb_near} vs far {rb}");
    }

    #[test]
    fn run_bound_is_vacuous_when_the_region_is_unresolvable() {
        let mut w = StreamingWindow::new(1, 32);
        let mut ix = SignatureIndex::new(1, 32).unwrap();
        for t in 0..8i64 {
            push(&mut w, &mut ix, t, vec![Some(t as f64)]);
        }
        let rows: Vec<Option<f64>> = vec![Some(0.0); 4];
        let query = SignatureQuery::new(&[&rows]);
        // Not enough history for lag 30 — must not invent a bound.
        assert_eq!(
            ix.run_lower_bound_sq_with_query(&[SeriesId(0)], 30, 4, 4, &query),
            0.0
        );
        assert_eq!(
            ix.run_lower_bound_sq_with_query(&[SeriesId(0)], 4, 0, 4, &query),
            0.0
        );
    }

    #[test]
    fn constructor_and_width_mismatch_errors() {
        assert!(SignatureIndex::new(0, 8).is_err());
        assert!(SignatureIndex::new(1, 0).is_err());
        let mut ix = SignatureIndex::new(2, 8).unwrap();
        assert!(ix.on_push(&[Some(1.0)]).is_err());
        assert_eq!(ix.width(), 2);
    }
}
