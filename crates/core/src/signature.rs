//! Quantized pattern-signature index: admissible candidate pruning.
//!
//! Scoring every candidate lag exactly costs `O(d·l)` each, linear in the
//! candidate count `J = L − 2l + 1` per imputation.  This module keeps, per
//! block of `B` = [`SIGNATURE_BLOCK_LEN`] consecutive ticks of every series,
//! a min/max envelope, a missing-slot count and a value sum, and derives
//! cheap *lower bounds* `LB[j] ≤ D[j]` on each candidate's L2 dissimilarity
//! from them.  The imputer ([`crate::imputer::TkcmImputer::impute_composed`])
//! evaluates exact dissimilarities only for a shortlist and proves the rest
//! out of the k-NN set: `LB > τ`, the float sum of a feasible k-solution,
//! rules a candidate out of every optimal selection of ≤ k anchors.
//!
//! # The bounds
//!
//! A candidate with a missing slot has `D = +∞`; for a complete one
//! `D² = Σ (x − y)²` over its `d·l` pairs of candidate and query values.
//! Split the candidate range into block-aligned segments.  If the segment's
//! values lie in `[c_lo, c_hi]` and the paired query values in
//! `[q_lo, q_hi]`, every pair has `(x − y)² ≥ g²` with
//! `g = max(0, q_lo − c_hi, c_lo − q_hi)`, so `g²·n_certain` bounds the
//! segment, `n_certain` being its length less the block's missing count.  A
//! segment that is a whole block with no missing slot uses the block-mean
//! bound `(Σx − Σy)² / B ≤ Σ (x − y)²` (Cauchy–Schwarz) instead.
//!
//! # The block ring
//!
//! Like the window's rings, each series' ring of `R = ⌈L/B⌉ + 1` blocks
//! grows as blocks are pushed until it wraps: block `o / B` of tick ordinal
//! `o` lives in slot `(o / B) % R`.  A push that starts a block resets its
//! slot, retiring a block that ended `L + 1` or more ordinals before the
//! newest.  A lookup resolves the blocks from the one holding the oldest
//! in-window ordinal to the newest, which `R` slots hold.  A block may
//! still summarize pushed readings that left the window, which only loosens
//! it.  A write ([`SignatureIndex::on_write`]) re-summarizes its block from
//! the window's in-window slots in ordinal order, as
//! [`SignatureIndex::rebuild`] does for every block; for the engine's only
//! write (a missing slot at age 0) that equals pushing the value, bit for
//! bit.
//!
//! # Float-level admissibility
//!
//! A bound must stay below the *computed* `D`.  With `u = 2⁻⁵³` and
//! `ε = 2u` (`f64::EPSILON`), rounding errors come in two kinds.  A
//! *relative* error is a few `u` times the value computed; the stop rule's
//! margins (τ inflated by `1 + 1e-9`, `S` deflated by `1 − 1e-9`) absorb it.
//! An *absolute* error, from the difference of two nearly equal rounded
//! sums, does not shrink with the result: a bound whose real value is 0 can
//! come out positive, and against `τ = 0` (k exact duplicates) no relative
//! margin helps, so it needs an explicit one.
//!
//! - **Envelope gap** (level-0 partial segments, level-1 runs): min/max are
//!   exact, and the gap is one rounded subtraction of exact values, so a
//!   real gap `≤ 0` stays `≤ 0`.  Squares, counts and sums of non-negative
//!   terms follow: *relative*.  Missing counts are exact integers.
//! - **Block mean**: the block sum `Σc` (`B` sequential adds) errs by at
//!   most `B·u·B·max(|min|, |max|)`.  The query sum `Σq = P[p_e+1] − P[p_s]`
//!   keeps only the rounding of the `B` prefix adds between the two (the
//!   earlier ones cancel exactly), each at most `u·(p_e + 1)·max|q|`.
//!   `|Σc − Σq|` cancels: *absolute*.  The bound subtracts
//!   `(l + 2B + 4)·ε·(B·max(|min|, |max|) + (p_e + 1)·max|q|)`, over twice
//!   those errors plus both subtractions', from `|Σc − Σq|` before squaring;
//!   the square, `/ B` and the `1 − 1e-9` deflation are *relative*.
//! - **The τ / S stop rule** (imputer): τ folds the seed's `D`s like the
//!   DP's take steps, so it is bit-equal to the DP's value; `S` folds at
//!   most `k − 1` non-negative `D`s, and the bar `τ·(1 + 1e-9) −
//!   S·(1 − 1e-9)` rounds by one ulp.  All are a few `u` times `τ + S`,
//!   below the margins' `1e-9·(τ + S)`: *relative*.  Keys are square roots
//!   of bounds: *relative*.

use tkcm_timeseries::{ingest_reading, SeriesId, StreamingWindow, TsError};

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
/// series, folded in ordinal order: the min/max envelope (`+∞`/`−∞` while
/// nothing is observed) and the sum of the observed values, and the number
/// of missing slots.
#[derive(Clone, Copy, Debug, PartialEq)]
struct BlockSummary {
    min: f64,
    max: f64,
    missing: u32,
    sum: f64,
}

impl BlockSummary {
    const EMPTY: BlockSummary = BlockSummary {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        missing: 0,
        sum: 0.0,
    };

    /// Folds in one slot of the window's value plane (NaN = missing).
    fn absorb(&mut self, v: f64) {
        if v.is_nan() {
            self.missing += 1;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
            self.sum += v;
        }
    }
}

/// `R = ⌈L/B⌉ + 1`, the slots of a full block ring over a window of `L`.
fn ring_len(window_length: usize) -> usize {
    window_length.div_ceil(SIGNATURE_BLOCK_LEN as usize) + 1
}

/// A ring's blocks from `slot` on, wrapping once round to `slot − 1`.
fn ring_from(ring: &[BlockSummary], slot: usize) -> impl Iterator<Item = &BlockSummary> {
    let (before, from) = ring.split_at(slot);
    from.iter().chain(before)
}

/// Precomputed query-side context for [`SignatureIndex::lower_bound_sq_with_query`].
///
/// The query pattern is fixed for the whole candidate sweep of one
/// imputation, so its per-sub-range statistics are precomputed once —
/// prefix sums for O(1) segment sums, and sparse min/max tables for O(1)
/// exact segment envelopes — and reused across all `J` candidates.
/// Construction is `O(d · l · log l)`, negligible next to the sweep itself.
#[derive(Clone, Debug)]
pub struct SignatureQuery {
    length: usize,
    /// The block term's factor `(l + 2B + 4)·ε·B` of the mean bound's
    /// rounding margin (module docs).
    block_margin: f64,
    refs: Vec<QueryRef>,
}

/// Range tables of one reference row of the query pattern.
#[derive(Clone, Debug)]
struct QueryRef {
    /// `prefix_sum[p]` = sum of the values at positions `< p`.
    prefix_sum: Vec<f64>,
    /// `(l + 2B + 4)·ε·max|q|`: times `p + 1`, the query term of the mean
    /// bound's rounding margin for a segment ending at position `p`
    /// (module docs).
    query_scale: f64,
    /// Sparse tables: `mins[k][i]` covers positions `[i, i + 2^k)`.
    mins: Vec<Vec<f64>>,
    maxs: Vec<Vec<f64>>,
}

impl QueryRef {
    fn new(row: &[f64], margin_scale: f64) -> Self {
        let l = row.len();
        let mut prefix_sum = Vec::with_capacity(l + 1);
        prefix_sum.push(0.0);
        for v in row {
            prefix_sum.push(prefix_sum.last().unwrap() + v);
        }
        let mut mins = vec![row.to_vec()];
        let mut maxs = vec![row.to_vec()];
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
            query_scale: margin_scale * row.iter().fold(0.0, |m: f64, v| m.max(v.abs())),
            mins,
            maxs,
        }
    }

    /// Exact min/max over the values at positions `[a, b]` (inclusive).
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
    pub fn new(rows: &[&[f64]]) -> Self {
        let length = rows.first().map(|r| r.len()).unwrap_or(0);
        assert!(
            rows.iter().all(|r| r.len() == length),
            "SignatureQuery: ragged query rows"
        );
        let margin_scale = (length + 2 * SIGNATURE_BLOCK_LEN as usize + 4) as f64 * f64::EPSILON;
        SignatureQuery {
            length,
            block_margin: margin_scale * SIGNATURE_BLOCK_LEN as f64,
            refs: rows
                .iter()
                .map(|r| QueryRef::new(r, margin_scale))
                .collect(),
        }
    }

    /// The pattern length the context was built for.
    pub fn length(&self) -> usize {
        self.length
    }
}

/// Block-quantized signature index over all series of one streaming window:
/// a fixed ring of block summaries per series (see the module docs).
///
/// Maintained in lock-step with the window: [`SignatureIndex::on_push`]
/// after every `push_tick` (O(width)) and [`SignatureIndex::on_write`] after
/// every `write_imputed`.  [`crate::engine::TkcmEngine`] does both
/// automatically when pruning is active.
#[derive(Clone, Debug, PartialEq)]
pub struct SignatureIndex {
    window_length: usize,
    /// Number of ticks absorbed so far (mirrors the window's tick counter).
    ticks_seen: u64,
    /// `blocks[series][(o / B) % R]` summarizes the block holding ordinal
    /// `o`; every ring holds `min(⌈ticks_seen / B⌉, R)` pushed blocks, with
    /// `R = ⌈L/B⌉ + 1`.
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
            window_length,
            ticks_seen: 0,
            blocks: (0..width)
                .map(|_| Vec::with_capacity(ring_len(window_length)))
                .collect(),
        })
    }

    /// The number of series the index covers.
    pub fn width(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the index covers a window's series and has absorbed the
    /// same number of ticks.
    pub fn is_synced(&self, window: &StreamingWindow) -> bool {
        self.width() == window.width() && self.ticks_seen == window.ticks_seen() as u64
    }

    /// Absorbs one arrived tick (`values` in window series order).  O(width).
    /// Applies the window's ingest policy ([`ingest_reading`]): a non-finite
    /// reading counts as missing, exactly as `StreamingWindow::push_tick`
    /// stores it — an undercounted missing slot would make the level-0
    /// bound inadmissible.
    pub fn on_push(&mut self, values: &[Option<f64>]) -> Result<(), TsError> {
        if values.len() != self.width() {
            return Err(TsError::LengthMismatch {
                left: values.len(),
                right: self.width(),
                context: "stream tick width vs signature index width",
            });
        }
        let block_len = SIGNATURE_BLOCK_LEN as u64;
        let ordinal = self.ticks_seen;
        let starts_block = ordinal.is_multiple_of(block_len);
        let slot = ((ordinal / block_len) % ring_len(self.window_length) as u64) as usize;
        for (ring, v) in self.blocks.iter_mut().zip(values) {
            if starts_block {
                // The reset retires the block `R` back, already out of the
                // window.  Like the window's rings: grow until the first wrap.
                match ring.get_mut(slot) {
                    Some(block) => *block = BlockSummary::EMPTY,
                    None => ring.push(BlockSummary::EMPTY),
                }
            }
            ring[slot].absorb(ingest_reading(*v).unwrap_or(f64::NAN));
        }
        self.ticks_seen += 1;
        Ok(())
    }

    /// Reports a value written into the existing slot `age` ticks back of
    /// `series` (after `StreamingWindow::write_imputed`): re-summarizes that
    /// slot's block from the window's in-window slots, folded in ordinal
    /// order.  A slot outside the window changes nothing.
    pub fn on_write(
        &mut self,
        window: &StreamingWindow,
        series: SeriesId,
        age: usize,
    ) -> Result<(), TsError> {
        if !self.is_synced(window) {
            return Err(TsError::invalid(
                "signature",
                "signature index is not in lock-step with the window",
            ));
        }
        let Some(ordinal) = window.ordinal_of_age(age) else {
            return Ok(());
        };
        let block_len = SIGNATURE_BLOCK_LEN as u64;
        let ticks = self.ticks_seen;
        let start = ordinal - ordinal % block_len;
        let first = start.max(ticks - window.filled() as u64);
        let last = (start + block_len).min(ticks) - 1;
        let (older, newer) = window.value_run(
            series,
            (ticks - 1 - last) as usize,
            (last + 1 - first) as usize,
        )?;
        let slot = self
            .slot_in_range(ordinal)
            .expect("an in-window block is in range");
        let block = &mut self.blocks[series.index()][slot];
        *block = BlockSummary::EMPTY;
        for &v in older.iter().chain(newer) {
            block.absorb(v);
        }
        Ok(())
    }

    /// Number of the oldest block a lookup resolves: the block holding the
    /// oldest in-window ordinal.
    fn oldest_block(&self) -> u64 {
        self.ticks_seen.saturating_sub(self.window_length as u64) / SIGNATURE_BLOCK_LEN as u64
    }

    /// Ring slot `(o / B) % R` of the block holding ordinal `o`, or `None`
    /// unless that block is in range: between
    /// [`SignatureIndex::oldest_block`] and the newest block.  From it,
    /// [`ring_from`] yields the in-range blocks in ordinal order.
    fn slot_in_range(&self, ordinal: u64) -> Option<usize> {
        let block = ordinal / SIGNATURE_BLOCK_LEN as u64;
        let newest = self.ticks_seen.checked_sub(1)? / SIGNATURE_BLOCK_LEN as u64;
        if block < self.oldest_block() || block > newest {
            return None;
        }
        Some((block % ring_len(self.window_length) as u64) as usize)
    }

    /// Gap-aware lower bound on the *squared* L2 dissimilarity `D²` of the
    /// candidate anchored `lag` ticks in the past against the query pattern,
    /// over the given reference series with pattern length `l`.  The query
    /// side is the exact extracted pattern, which makes the bound tight in
    /// two ways.
    ///
    /// 1. **Exact query segment statistics** — per candidate segment the
    ///    paired query sub-range's min/max come from the pattern itself
    ///    ([`SignatureQuery`] precomputes range tables), so the envelope gap
    ///    has no query-side quantization slack.
    /// 2. **Block-mean bound** — on a whole block with no missing slot,
    ///    `Σ (x_i − y_i)² ≥ (Σ x_i − Σ y_i)² / B` (Cauchy–Schwarz), from the
    ///    block sum and the query prefix sums, less their rounding margin
    ///    (module docs).  It separates candidates whose *level* differs from
    ///    the query even when their envelopes overlap (the common case for
    ///    smooth seasonal signals).
    ///
    /// The second return is `true` when the index *proves* the candidate
    /// range contains a missing reference slot (a block fully inside the
    /// range with `missing > 0`): such a candidate has `D = +∞` exactly and
    /// needs no exact evaluation.
    ///
    /// Returns `(0.0, false)` — the vacuous bound — whenever a range is not
    /// fully resolvable, so the caller never over-prunes.
    pub fn lower_bound_sq_with_query(
        &self,
        references: &[SeriesId],
        lag: usize,
        l: usize,
        query: &SignatureQuery,
    ) -> (f64, bool) {
        if l == 0 || query.length != l || query.refs.len() != references.len() {
            return (0.0, false);
        }
        // Candidate ordinals (push counts, not timestamps).
        let Some(cand_start) = self
            .ticks_seen
            .checked_sub((lag as u64).saturating_add(l as u64))
        else {
            return (0.0, false);
        };
        let cand_newest = cand_start + (l - 1) as u64;
        let block_len = SIGNATURE_BLOCK_LEN as u64;
        // The mean bound's divisor `B`, deflated by one part in 10⁹.
        let deflate_per_block = (1.0 - 1e-9) / block_len as f64;

        let Some(first) = self.slot_in_range(cand_start) else {
            return (0.0, false);
        };
        let mut sum = 0.0_f64;
        let mut certain_missing = false;
        for (r, qref) in references.iter().zip(query.refs.iter()) {
            let Some(ring) = self.blocks.get(r.index()) else {
                continue;
            };
            let mut seg_start = cand_start;
            for cand_block in ring_from(ring, first) {
                if seg_start > cand_newest {
                    break;
                }
                let block_base = seg_start & !(block_len - 1);
                let seg_end = (block_base + block_len - 1).min(cand_newest);
                let full_block = seg_start == block_base && seg_end == block_base + block_len - 1;
                if cand_block.missing > 0 && full_block {
                    certain_missing = true;
                }
                // Pattern positions paired with this segment (0 = oldest).
                let p_s = (seg_start - cand_start) as usize;
                let p_e = (seg_end - cand_start) as usize;
                let seg_len = seg_end - seg_start + 1;
                let uncertain = u64::from(cand_block.missing);
                if seg_len > uncertain {
                    if full_block && uncertain == 0 {
                        // All B pairs present: the mean bound alone — on
                        // smooth signals it dominates the envelope gap
                        // (which needs *disjoint* ranges), and skipping the
                        // range-table lookups here keeps the sweep's
                        // constant small.
                        let q_sum = qref.prefix_sum[p_e + 1] - qref.prefix_sum[p_s];
                        let c_abs = cand_block.min.abs().max(cand_block.max.abs());
                        let margin =
                            query.block_margin * c_abs + qref.query_scale * (p_e + 1) as f64;
                        // Branch-free: a non-positive (or NaN) gap adds 0.
                        let gap = ((cand_block.sum - q_sum).abs() - margin).max(0.0);
                        sum += gap * gap * deflate_per_block;
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

    /// Level-1 *run* bound: an admissible lower bound on the squared L2
    /// dissimilarity of **every** candidate lag in
    /// `lag_lo .. lag_lo + run_len`, computed from coarse block-envelope
    /// unions — one bound for a whole run of consecutive lags, so the
    /// imputer's best-first search can leave the run unexpanded when the
    /// bound already exceeds its stop bar.
    ///
    /// For a chunk of `B = SIGNATURE_BLOCK_LEN` query positions `[p_s, p_e]`
    /// the candidate ordinals paired with it across the run sweep the region
    /// `[start(lag_hi) + p_s, start(lag_lo) + p_e]` (length
    /// `chunk_len + run_len − 1`).  The union envelope of the blocks covering
    /// that region contains every candidate value any lag in the run pairs
    /// with the chunk, and the summed block missing counts over-count any
    /// single lag's missing slots, so with `g` the gap between the union
    /// envelope and the exact query-chunk envelope,
    /// `g² · max(0, chunk_len − region_missing)` lower-bounds each lag's
    /// contribution.  Per reference the cost is
    /// `O((l/B) · (run_len/B + 2))` block reads for `run_len` lags — versus
    /// `O(run_len · l/B)` for per-lag level-0 bounds.
    ///
    /// Unlike the per-lag bound there is no certain-missing signal here: a
    /// missing slot in the region need not lie inside any particular lag's
    /// range.  A chunk whose region is not fully resolvable contributes 0,
    /// so the caller never over-prunes.
    pub fn run_lower_bound_sq_with_query(
        &self,
        references: &[SeriesId],
        lag_lo: usize,
        run_len: usize,
        l: usize,
        query: &SignatureQuery,
    ) -> f64 {
        if l == 0 || run_len == 0 || query.length != l || query.refs.len() != references.len() {
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
            let Some(ring) = self.blocks.get(r.index()) else {
                continue;
            };
            let mut p_s = 0usize;
            while p_s < l {
                let p_e = (p_s + SIGNATURE_BLOCK_LEN as usize - 1).min(l - 1);
                let region_start = start_hi + p_s as u64;
                let region_end = start_lo + p_e as u64;
                if let Some(first) = self.slot_in_range(region_start) {
                    let count = region_end / block_len - region_start / block_len + 1;
                    let mut c_min = f64::INFINITY;
                    let mut c_max = f64::NEG_INFINITY;
                    let mut region_missing = 0u64;
                    for blk in ring_from(ring, first).take(count as usize) {
                        c_min = c_min.min(blk.min);
                        c_max = c_max.max(blk.max);
                        region_missing += u64::from(blk.missing);
                    }
                    let chunk_len = (p_e - p_s + 1) as u64;
                    if chunk_len > region_missing {
                        let (q_min, q_max) = qref.range_min_max(p_s, p_e);
                        let g = (q_min - c_max).max(c_min - q_max).max(0.0);
                        if g > 0.0 && g.is_finite() {
                            sum += g * g * (chunk_len - region_missing) as f64;
                        }
                    }
                }
                p_s = p_e + 1;
            }
        }
        sum
    }

    /// Rebuilds the index from the current window contents: one
    /// [`SignatureIndex::on_write`] re-summary per block in range.  Used when
    /// attaching an index to a window that already has history — a decoded
    /// snapshot, whose index is not persisted — and by tests as the
    /// reference state.
    pub fn rebuild(&mut self, window: &StreamingWindow) -> Result<(), TsError> {
        if window.width() != self.width() || window.length() != self.window_length {
            return Err(TsError::invalid(
                "window",
                "signature index was built for a different window shape",
            ));
        }
        let block_len = SIGNATURE_BLOCK_LEN as u64;
        self.ticks_seen = window.ticks_seen() as u64;
        let pushed =
            (self.ticks_seen.div_ceil(block_len) as usize).min(ring_len(self.window_length));
        for ring in &mut self.blocks {
            ring.clear();
            ring.resize(pushed, BlockSummary::EMPTY);
        }
        let Some(newest) = self.ticks_seen.checked_sub(1) else {
            return Ok(());
        };
        let mut ordinal = self.ticks_seen - window.filled() as u64;
        while ordinal <= newest {
            for s in 0..self.width() {
                self.on_write(window, SeriesId(s as u32), (newest - ordinal) as usize)?;
            }
            ordinal += block_len - ordinal % block_len;
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

    /// The query context of series 0's last `l` values (all present).
    fn query_of(w: &StreamingWindow, l: usize) -> SignatureQuery {
        let row: Vec<f64> = (0..l)
            .map(|col| w.value_recent(SeriesId(0), l - 1 - col).unwrap().unwrap())
            .collect();
        SignatureQuery::new(&[&row])
    }

    /// Start ordinals of every block a lookup resolves.
    fn block_starts(ix: &SignatureIndex) -> impl Iterator<Item = u64> {
        let b = SIGNATURE_BLOCK_LEN as u64;
        (ix.oldest_block() * b..ix.ticks_seen).step_by(b as usize)
    }

    /// The block holding `ordinal`, if a lookup resolves it.
    fn block_at(ix: &SignatureIndex, series: usize, ordinal: u64) -> Option<BlockSummary> {
        Some(ix.blocks[series][ix.slot_in_range(ordinal)?])
    }

    #[test]
    fn maintained_index_envelopes_contain_the_rebuilt_ones() {
        // While no tick has aged out of a block, maintained == rebuilt
        // exactly; once a block partially leaves the window, the maintained
        // block must stay a *superset* of the tight rebuilt one (values that
        // left the window linger until the ring reuses the slot) — the
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
                assert_eq!(ix.ticks_seen, fresh.ticks_seen, "tick {t}");
                for s in 0..width {
                    for o in block_starts(&ix) {
                        let m = block_at(&ix, s, o).unwrap();
                        let r = block_at(&fresh, s, o).unwrap();
                        assert!(m.min <= r.min, "tick {t}");
                        assert!(m.max >= r.max, "tick {t}");
                        assert!(m.missing >= r.missing, "tick {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn filling_the_newest_slot_equals_pushing_the_value() {
        // The engine's write-back (a missing slot at age 0) re-summarizes the
        // newest block in ordinal order, which is bit-equal to having
        // absorbed the value at push time.
        let mut w = StreamingWindow::new(1, 40);
        let mut ix = SignatureIndex::new(1, 40).unwrap();
        let mut pushed = SignatureIndex::new(1, 40).unwrap();
        for t in 0..75i64 {
            let v = (t as f64 * 0.7).sin() * 21.37;
            let missing = t % 5 == 2;
            push(&mut w, &mut ix, t, vec![Some(v).filter(|_| !missing)]);
            if missing {
                w.write_imputed(SeriesId(0), 0, v).unwrap();
                ix.on_write(&w, SeriesId(0), 0).unwrap();
            }
            pushed.on_push(&[Some(v)]).unwrap();
            assert_eq!(ix, pushed, "tick {t}");
        }
    }

    #[test]
    fn an_observed_overwrite_gives_the_exact_block() {
        let mut w = StreamingWindow::new(1, 32);
        let mut ix = SignatureIndex::new(1, 32).unwrap();
        for t in 0..20i64 {
            let v = if t == 19 { None } else { Some(1.0) };
            push(&mut w, &mut ix, t, vec![v]);
        }
        assert_eq!(block_at(&ix, 0, 19).unwrap().missing, 1);
        w.write_imputed(SeriesId(0), 0, 5.0).unwrap();
        ix.on_write(&w, SeriesId(0), 0).unwrap();
        // Overwriting an observed slot shrinks the envelope and the sum to
        // exactly what a rebuild sees.
        w.write_imputed(SeriesId(0), 0, 0.5).unwrap();
        ix.on_write(&w, SeriesId(0), 0).unwrap();
        let block = block_at(&ix, 0, 19).unwrap();
        assert_eq!((block.min, block.max, block.missing), (0.5, 1.0, 0));
        assert_eq!(block.sum, 3.5);
        let mut fresh = SignatureIndex::new(1, 32).unwrap();
        fresh.rebuild(&w).unwrap();
        assert_eq!(ix, fresh);
        // A write is refused by an index that lags the window.
        w.push_tick(&StreamTick::new(Timestamp::new(20), vec![None]))
            .unwrap();
        assert!(ix.on_write(&w, SeriesId(0), 0).is_err());
    }

    #[test]
    fn lower_bound_is_zero_for_identical_ranges() {
        let mut w = StreamingWindow::new(1, 64);
        let mut ix = SignatureIndex::new(1, 64).unwrap();
        for t in 0..64i64 {
            push(&mut w, &mut ix, t, vec![Some(((t % 8) as f64) * 0.5)]);
        }
        // Period-8 signal: candidate at lag 8 is identical to the query.
        let (lb, miss) = ix.lower_bound_sq_with_query(&[SeriesId(0)], 8, 8, &query_of(&w, 8));
        assert_eq!(lb, 0.0);
        assert!(!miss);
    }

    #[test]
    fn mean_bound_is_zero_for_a_flat_lined_duplicate() {
        // A stuck sensor at a non-dyadic level: the block sum and the query
        // prefix-sum difference round differently, and the margin must keep
        // the bound of an exact duplicate (D = 0) at zero.
        let l = 72;
        let mut w = StreamingWindow::new(1, 400);
        let mut ix = SignatureIndex::new(1, 400).unwrap();
        for t in 0..400i64 {
            push(&mut w, &mut ix, t, vec![Some(21.37)]);
        }
        let query = query_of(&w, l);
        for lag in l..=(400 - l) {
            let (lb, _) = ix.lower_bound_sq_with_query(&[SeriesId(0)], lag, l, &query);
            assert_eq!(lb, 0.0, "lag {lag}");
        }
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
        let (lb, _) = ix.lower_bound_sq_with_query(&[SeriesId(0)], 40, l, &query_of(&w, l));
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
        let (_, certain) = ix.lower_bound_sq_with_query(&[SeriesId(0)], lag, l, &query_of(&w, l));
        assert!(certain);
        // A short candidate that only clips the block cannot be sure.
        let (_, maybe) = ix.lower_bound_sq_with_query(&[SeriesId(0)], l + 10, 4, &query_of(&w, 4));
        assert!(!maybe);
    }

    #[test]
    fn the_ring_resolves_exactly_the_in_window_blocks() {
        let cap = 40;
        let b = SIGNATURE_BLOCK_LEN as u64;
        let mut w = StreamingWindow::new(1, cap);
        let mut ix = SignatureIndex::new(1, cap).unwrap();
        for t in 0..(10 * cap as i64) {
            push(&mut w, &mut ix, t, vec![Some(t as f64)]);
        }
        // The ring grew to R = ⌈L/B⌉ + 1 slots and no further.
        assert_eq!(ix.blocks[0].len(), cap.div_ceil(b as usize) + 1);
        let ticks = ix.ticks_seen;
        // Every in-window ordinal resolves to the block that holds it: the
        // value `o` lies in its envelope, and a fully pushed block spans
        // exactly its own B ordinals.
        for o in (ticks - cap as u64)..ticks {
            let block = block_at(&ix, 0, o).unwrap();
            assert!(
                block.min <= o as f64 && o as f64 <= block.max,
                "ordinal {o}"
            );
            let start = o - o % b;
            assert_eq!(block.min, start as f64, "ordinal {o}");
            assert_eq!(
                block.max,
                (start + b).min(ticks) as f64 - 1.0,
                "ordinal {o}"
            );
        }
        // Ordinals of blocks wholly before the window do not resolve.
        let oldest_start = (ticks - cap as u64) / b * b;
        assert!(block_at(&ix, 0, oldest_start - 1).is_none());
        assert!(block_at(&ix, 0, 0).is_none());
        // Nor does a block past the newest one.
        assert!(block_at(&ix, 0, ticks + b).is_none());
    }

    /// Exact `sum_sq` of the candidate at `lag`, for checking the
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
        let l = 16usize;
        let total = cap as i64 + 40;
        for t in 0..total {
            // Gaps everywhere but in the query's last `l` ticks: the imputer
            // never builds an incomplete query.
            let v = if t % 11 == 5 && t < total - l as i64 {
                None
            } else {
                Some((t as f64 * 0.37).sin() * 3.0 + if t % 29 == 0 { 50.0 } else { 0.0 })
            };
            push(&mut w, &mut ix, t, vec![v]);
        }
        let query = query_of(&w, l);
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
        let query = query_of(&w, l);
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
        let query = SignatureQuery::new(&[&[0.0; 4]]);
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
