//! Quantized pattern-signature index: admissible candidate pruning.
//!
//! Scoring every candidate lag exactly costs `O(d·l)` each, linear in the
//! candidate count `J = L − 2l + 1` per imputation.  This module derives
//! cheap *lower bounds* `LB[j] ≤ D[j]` on each candidate's L2 dissimilarity.
//! The imputer ([`crate::imputer::TkcmImputer::impute_composed`]) evaluates
//! exact dissimilarities only for a shortlist and proves the rest out of the
//! k-NN set: `LB > τ`, the float sum of a feasible k-solution, rules a
//! candidate out of every optimal selection of ≤ k anchors.
//!
//! # The bounds
//!
//! A candidate with a missing slot has `D = +∞`; for a complete one
//! `D² = Σ (x − y)²` over its `d·l` pairs of candidate and query values.
//! Both levels split the pattern into *chunks* of `B` =
//! [`SIGNATURE_BLOCK_LEN`] positions, the last one possibly shorter; the
//! query side of a chunk ([`SignatureQuery`]) is its min, max and sum.
//!
//! - **Level 1, a run of lags** ([`SignatureIndex::run_bounds_sq`]): the
//!   index keeps, per block of `B` consecutive ticks of every series, a
//!   min/max envelope and a missing-slot count.  Across a run, the
//!   candidate values paired with a chunk lie in the union envelope of the
//!   blocks covering their region, so with `g` the gap between it and the
//!   query chunk's envelope, every pair but the region's missing slots has
//!   `(x − y)² ≥ g²`.
//! - **Level 0, every lag of a run** ([`RunSums::fill`]): expanding a run
//!   reads the region its lags span once per reference and builds prefix
//!   sums of its values and of its missing slots.  A lag's missing count is
//!   then exact, so `D = +∞` needs no fold, and each chunk of `len`
//!   positions of a complete lag gets the chunk-mean bound
//!   `(Σx − Σy)² / len ≤ Σ (x − y)²` (Cauchy–Schwarz), `Σx` being a
//!   difference of two prefixes.  On a chunk whose values all lie `g` clear
//!   of the query's, `(Σx − Σy)² / len ≥ len·g²`, so it is never looser than
//!   the envelope gap.
//!
//! # The run-wide level-0 pass
//!
//! [`RunSums::fill`] computes the bound of every lag of the run at once and
//! [`RunSums::lower_bound_sq`] only looks it up.  Only one reference's
//! prefixes are live at a time, in buffers reused across runs.  Lag `a` of
//! a run whose largest lag is `lag_hi` starts at region offset
//! `o = lag_hi − a`, so chunk `[p_s, p_e)` of every lag is a difference of
//! two contiguous prefix slices, `P[o + p_e] − P[o + p_s]` over
//! `o = 0 .. run_len`.  The pass is chunk-major: for each reference and
//! then each chunk, one loop over `o` adds that chunk's term to every lag.
//! Each lag therefore sums the same terms in the same order (reference by
//! reference, chunk by chunk) as a per-lag loop would.  The vacuity test is
//! a select, not a branch: `gap.max(0.0)` drops a NaN or negative gap, and
//! `if gap < ∞ { gap } else { 0 }` drops `+∞`.  A vacuous term adds `+0.0`
//! where a per-lag loop would skip it, which leaves every sum's bits as
//! they are.  With no branch in the loop, the compiler can vectorize it.
//! [`RunSums::keys`] then turns every bound into the search's key in one
//! more branch-free pass.
//!
//! # The level-1 sweep
//!
//! [`SignatureIndex::run_bounds_sq`] bounds every run of a search at once,
//! one reference at a time.  It unwraps the reference's block ring once,
//! oldest block first, into sparse tables: the min and max over every
//! power-of-two window of blocks, and a prefix of missing counts.  Chunk `c`
//! of a run's pattern pairs with a region that starts `c` blocks after
//! chunk 0's, and when the run length is a multiple of `B` (the engine's
//! runs are) every full run's region has the same width in blocks, one for
//! a full chunk and one for a shorter last chunk.  Each region's union
//! envelope is then two overlapping power-of-two windows of one table
//! level, and its missing count a difference of two prefixes: O(1) per
//! (run, chunk), where a per-run walk read ~6 blocks.  Min, max and integer
//! counts are exact, so the window split changes no value, and each run
//! adds its terms in the same (reference, chunk) order as a per-run loop,
//! so every run's bound is bit-equal to it; a vacuous term adds `+0.0`, as
//! at level 0.  The unit tests hold the sweep against that per-run loop
//! bit for bit.
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
//! - **Envelope gap** (level 1): min/max are exact, and the gap is one
//!   rounded subtraction of exact values, so a real gap `≤ 0` stays `≤ 0`.
//!   Squares, counts and sums of non-negative terms follow: *relative*.
//!   Missing counts are exact integers.
//! - **Run-local prefix** (level 0): over a region of `n` slots whose
//!   largest magnitude is `max|x|`, each prefix errs by at most
//!   `n·u·n·max|x|`, so a chunk sum `P[b] − P[a]` errs by at most twice that
//!   plus its own rounding; a query chunk sum, folded directly over `len`
//!   values, errs by at most `len·u·len·max|q|`.  `|Σc − Σq|` cancels:
//!   *absolute*.  The bound subtracts `(n + 4)·ε·n·max|x| +
//!   (len + 4)·ε·len·max|q|`, which covers both and the subtractions', from
//!   `|Σc − Σq|` before squaring; the square, `/ len` and the `1 − 1e-9`
//!   deflation are *relative*.  A sum or margin that is not finite (a prefix
//!   that overflowed) makes its term vacuous, never `+∞`.
//! - **The τ / S stop rule** (imputer): τ folds the seed's `D`s like the
//!   DP's take steps, so it is bit-equal to the DP's value; `S` folds at
//!   most `k − 1` non-negative `D`s, and the bar `τ·(1 + 1e-9) −
//!   S·(1 − 1e-9)` rounds by one ulp.  All are a few `u` times `τ + S`,
//!   below the margins' `1e-9·(τ + S)`: *relative*.  Keys are square roots
//!   of bounds: *relative*.

use tkcm_timeseries::{SeriesId, StreamingWindow, TsError};

/// Number of consecutive ticks summarized by one signature block, and the
/// length of a pattern chunk of both bound levels.
///
/// The index is not persisted (decode rebuilds it from the window), so this
/// is not an on-disk constant; it stays covered by the `single-definition`
/// rule of `tkcm-lint` so the block geometry is defined in one place.
pub const SIGNATURE_BLOCK_LEN: u32 = 16;

/// [`SIGNATURE_BLOCK_LEN`] as a chunk length in pattern positions.
const CHUNK: usize = SIGNATURE_BLOCK_LEN as usize;

/// Picks the level-1 run length (in candidate lags) for the composed
/// imputation path from config geometry, block-aligned and static per run.
///
/// The run bound's cost is ~one block walk per `SIGNATURE_BLOCK_LEN`-chunk
/// of the pattern, so wider runs amortize better for longer patterns; but a
/// run's union envelope loosens as it widens, so the width is capped at 8
/// blocks.  Short patterns (where the per-lag sweep is cheap anyway) get a
/// single block.
pub fn level1_run_len(pattern_length: usize) -> usize {
    (pattern_length / CHUNK).clamp(1, 8) * CHUNK
}

/// Summary of one block of [`SIGNATURE_BLOCK_LEN`] consecutive ticks of one
/// series, folded in ordinal order: the min/max envelope (`+∞`/`−∞` while
/// nothing is observed) and the number of missing slots.
#[derive(Clone, Copy, Debug, PartialEq)]
struct BlockSummary {
    min: f64,
    max: f64,
    missing: u32,
}

impl BlockSummary {
    const EMPTY: BlockSummary = BlockSummary {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        missing: 0,
    };

    /// Folds in one value: a non-finite one counts as missing.  That is
    /// the window's ingest policy for a pushed reading, and the window's
    /// value plane holds only finite values and NaN (missing).
    fn absorb(&mut self, v: f64) {
        if !v.is_finite() {
            self.missing += 1;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }
}

/// `R = ⌈L/B⌉ + 1`, the slots of a full block ring over a window of `L`.
fn ring_len(window_length: usize) -> usize {
    window_length.div_ceil(CHUNK) + 1
}

/// Sparse tables over one reference's resolvable blocks, oldest first:
/// `mins[t][b]` and `maxs[t][b]` are the min and max over the `2^t` blocks
/// from `b` on, and `missing[b]` counts the missing slots of the blocks
/// before `b`.  Any window of blocks is then the union of two overlapping
/// power-of-two windows, in O(1).
#[derive(Default)]
struct EnvelopeTable {
    mins: Vec<Vec<f64>>,
    maxs: Vec<Vec<f64>>,
    missing: Vec<u64>,
}

impl EnvelopeTable {
    /// Rebuilds the table over the `count` blocks of `ring` from `slot` on,
    /// wrapping once, for windows of up to `widest` blocks.
    fn build(&mut self, ring: &[BlockSummary], slot: usize, count: usize, widest: usize) {
        let levels = (usize::BITS - widest.max(1).leading_zeros()) as usize;
        self.mins.resize_with(levels, Vec::new);
        self.maxs.resize_with(levels, Vec::new);
        let (mins, maxs) = (&mut self.mins[0], &mut self.maxs[0]);
        mins.clear();
        maxs.clear();
        self.missing.clear();
        mins.reserve(count);
        maxs.reserve(count);
        self.missing.reserve(count + 1);
        let mut missing = 0u64;
        self.missing.push(missing);
        let (before, from) = ring.split_at(slot);
        let from = &from[..count.min(from.len())];
        for part in [from, &before[..count - from.len()]] {
            mins.extend(part.iter().map(|block| block.min));
            maxs.extend(part.iter().map(|block| block.max));
            self.missing.extend(part.iter().map(|block| {
                missing += u64::from(block.missing);
                missing
            }));
        }
        for t in 1..levels {
            next_level(&mut self.mins, t, f64::min);
            next_level(&mut self.maxs, t, f64::max);
        }
    }
}

/// The windows of one width `≥ 1` in an [`EnvelopeTable`]: the union of
/// the two power-of-two windows of its level that start at a window's first
/// and end at its last block.  Min and max are exact, so their overlap
/// changes nothing.
struct Window<'a> {
    width: usize,
    /// Offset of the second power-of-two window.
    second: usize,
    mins: &'a [f64],
    maxs: &'a [f64],
    missing: &'a [u64],
}

impl<'a> Window<'a> {
    fn new(table: &'a EnvelopeTable, width: usize) -> Self {
        let t = (usize::BITS - 1 - width.leading_zeros()) as usize;
        Window {
            width,
            second: width - (1 << t),
            mins: &table.mins[t],
            maxs: &table.maxs[t],
            missing: &table.missing,
        }
    }

    /// The union envelope and the summed missing count of the window of
    /// blocks from `first` on.
    fn union(&self, first: usize) -> (f64, f64, u64) {
        let second = first + self.second;
        (
            self.mins[first].min(self.mins[second]),
            self.maxs[first].max(self.maxs[second]),
            self.missing[first + self.width] - self.missing[first],
        )
    }
}

/// Fills sparse-table level `t` from level `t − 1`: entry `b` combines the
/// two halves starting at `b` and `b + 2^(t−1)`.
fn next_level(levels: &mut [Vec<f64>], t: usize, combine: impl Fn(f64, f64) -> f64) {
    let (done, rest) = levels.split_at_mut(t);
    let prev = &done[t - 1];
    let tail = prev.get(1 << (t - 1)..).unwrap_or(&[]);
    let level = &mut rest[0];
    level.clear();
    level.extend(prev.iter().zip(tail).map(|(&a, &b)| combine(a, b)));
}

/// The query side of both bound levels: per reference row of the query
/// pattern, the min, max, sum and rounding margin of each chunk of
/// [`SIGNATURE_BLOCK_LEN`] positions (the last one possibly shorter).
/// Built once per imputation, in `O(d·l)`.
#[derive(Clone, Debug)]
pub struct SignatureQuery {
    length: usize,
    /// `chunks[r·C + c]` is chunk `c` of reference row `r`, `C = ⌈l/B⌉`.
    chunks: Vec<QueryChunk>,
}

/// One chunk of one query row.
#[derive(Clone, Copy, Debug)]
struct QueryChunk {
    min: f64,
    max: f64,
    /// The chunk's values folded left to right.
    sum: f64,
    /// `(len + 4)·ε·len·max|q|`, the query term of the chunk-mean bound's
    /// rounding margin (module docs).
    margin: f64,
    /// `(1 − 1e-9) / len`, the chunk-mean bound's deflated divisor.
    weight: f64,
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
        let chunks = rows
            .iter()
            .flat_map(|row| row.chunks(CHUNK))
            .map(|chunk| {
                let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
                for &q in chunk {
                    min = min.min(q);
                    max = max.max(q);
                    sum += q;
                }
                let len = chunk.len() as f64;
                QueryChunk {
                    min,
                    max,
                    sum,
                    margin: (len + 4.0) * f64::EPSILON * len * min.abs().max(max.abs()),
                    weight: (1.0 - 1e-9) / len,
                }
            })
            .collect();
        SignatureQuery { length, chunks }
    }

    /// The chunks of each reference row, in row order, if the context was
    /// built for `refs` rows of length `l`.
    fn rows(&self, refs: usize, l: usize) -> Option<std::slice::Chunks<'_, QueryChunk>> {
        let per_row = l.div_ceil(CHUNK);
        (l > 0 && self.length == l && self.chunks.len() == refs * per_row)
            .then(|| self.chunks.chunks(per_row))
    }
}

/// Run-wide level-0 bounds: the chunk-mean bound and the missing flag of
/// every lag in one level-1 run (module docs).
///
/// The lags `lag_lo ..= lag_hi` of a run read one region of
/// `n = (lag_hi − lag_lo) + l` slots per reference, in which lag `a` starts
/// at offset `o = lag_hi − a`.  [`RunSums::fill`] reads that region once per
/// reference into a prefix of its values (a missing slot counts as 0) and
/// one of its missing slots, and adds the reference's terms to every lag at
/// once; [`RunSums::lower_bound_sq`] is then a lookup.  Refilling reuses the
/// buffers, so a search allocates only while its runs grow.
#[derive(Clone, Debug, Default)]
pub struct RunSums {
    lag_lo: usize,
    /// `bounds[o]`: the bound of lag `lag_hi − o`, with
    /// `lag_hi = lag_lo + bounds.len() − 1`; empty while nothing is filled.
    bounds: Vec<f64>,
    /// `holes[o]`: whether lag `lag_hi − o`'s range holds a missing slot.
    holes: Vec<bool>,
    /// `prefix[i]`: the sum of the current reference's first `i` region
    /// values.
    prefix: Vec<f64>,
    /// Laid out like `prefix`: the number of missing slots among them.
    missing: Vec<u32>,
    /// The output of [`RunSums::keys`].
    keys: Vec<f64>,
}

impl RunSums {
    /// Computes the bound and the missing flag of the `run_len` lags from
    /// `lag_lo` on, at pattern length `l`, against `query`.  A query built
    /// for another geometry leaves every bound vacuous; so does a failure,
    /// when the region reaches past the pushed ticks.
    pub fn fill(
        &mut self,
        window: &StreamingWindow,
        references: &[SeriesId],
        lag_lo: usize,
        run_len: usize,
        l: usize,
        query: &SignatureQuery,
    ) -> Result<(), TsError> {
        self.bounds.clear();
        self.holes.clear();
        let Some(rows) = query.rows(references.len(), l).filter(|_| run_len > 0) else {
            return Ok(());
        };
        self.lag_lo = lag_lo;
        self.bounds.resize(run_len, 0.0);
        self.holes.resize(run_len, false);
        let n = run_len - 1 + l;
        for (&r, chunks) in references.iter().zip(rows) {
            let (older, newer) = match window.value_run(r, lag_lo, n) {
                Ok(run) => run,
                Err(err) => {
                    self.bounds.clear();
                    self.holes.clear();
                    return Err(err);
                }
            };
            self.prefix.resize(n + 1, 0.0);
            self.missing.resize(n + 1, 0);
            let (mut sum, mut missing, mut max_abs) = (0.0, 0u32, 0.0f64);
            let mut at = 1;
            for part in [older, newer] {
                let prefix = &mut self.prefix[at..at + part.len()];
                let counts = &mut self.missing[at..at + part.len()];
                for ((&x, p), m) in part.iter().zip(prefix).zip(counts) {
                    let hole = x.is_nan();
                    let v = if hole { 0.0 } else { x };
                    sum += v;
                    missing += u32::from(hole);
                    // `v` is never NaN, so a plain compare is `max`, one
                    // instruction on the loop's critical path.
                    max_abs = if v.abs() > max_abs { v.abs() } else { max_abs };
                    *p = sum;
                    *m = missing;
                }
                at += part.len();
            }
            let margin = (n + 4) as f64 * f64::EPSILON * n as f64 * max_abs;
            // A region without a missing slot holds no hole.
            if missing > 0 {
                for (hole, (first, last)) in self
                    .holes
                    .iter_mut()
                    .zip(self.missing.iter().zip(&self.missing[l..]))
                {
                    *hole |= first != last;
                }
            }
            // Chunk `c` spans the prefixes from `p_s = c·B` to its end `p_e`;
            // lag offset `o` reads them at `o + p_s` and `o + p_e`.
            let mut p_s = 0;
            for (chunk, p_e) in chunks.iter().zip((CHUNK..l).step_by(CHUNK).chain([l])) {
                let starts = &self.prefix[p_s..p_s + run_len];
                let ends = &self.prefix[p_e..p_e + run_len];
                let (q, m, w) = (chunk.sum, margin + chunk.margin, chunk.weight);
                for ((bound, &start), &end) in self.bounds.iter_mut().zip(starts).zip(ends) {
                    // A NaN or infinite gap (a non-finite sum or margin) is
                    // vacuous: `max` drops NaN, the select drops `+∞`, and
                    // neither branches.  `g · (g · w)` overflows only when
                    // the real term does.
                    let gap = ((end - start - q).abs() - m).max(0.0);
                    let g = if gap < f64::INFINITY { gap } else { 0.0 };
                    *bound += g * (g * w);
                }
                p_s = p_e;
            }
        }
        Ok(())
    }

    /// The search key of every lag of the last [`RunSums::fill`], oldest
    /// lag first (lag `lag_hi − o` at offset `o`): the square root of its
    /// bound times `inflate` (1 outside tests), raised to `floor` (the run's
    /// own key), so a child's key never falls below its parent's.  A lag
    /// holding a missing slot gets a NaN key, which no stop bar admits
    /// (`key <= bar` is false).  One branch-free pass, reusing a buffer.
    pub fn keys(&mut self, inflate: f64, floor: f64) -> &[f64] {
        self.keys.clear();
        self.keys
            .extend(self.bounds.iter().zip(&self.holes).map(|(&bound, &hole)| {
                let key = (bound * inflate).max(0.0).sqrt().max(floor);
                if hole {
                    f64::NAN
                } else {
                    key
                }
            }));
        &self.keys
    }

    /// Lower bound on the *squared* L2 dissimilarity `D²` of the candidate
    /// anchored `lag` ticks back against the query of the last
    /// [`RunSums::fill`]: the chunk-mean bound summed over every chunk of
    /// every reference, less its rounding margin (module docs).
    ///
    /// The second return is `true` exactly when the lag's range holds a
    /// missing reference slot, so `D = +∞` and the candidate needs no exact
    /// evaluation.  A lag outside the filled run gets the vacuous
    /// `(0.0, false)`.
    pub fn lower_bound_sq(&self, lag: usize) -> (f64, bool) {
        let offset = (self.lag_lo + self.bounds.len())
            .checked_sub(lag + 1)
            .filter(|_| lag >= self.lag_lo);
        match offset {
            Some(o) if self.holes[o] => (0.0, true),
            Some(o) => (self.bounds[o], false),
            None => (0.0, false),
        }
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
    /// A non-finite reading counts as missing, exactly as
    /// `StreamingWindow::push_tick` stores it
    /// ([`tkcm_timeseries::ingest_reading`]) — an undercounted missing slot
    /// would make the level-1 bound inadmissible.
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
            ring[slot].absorb(v.unwrap_or(f64::NAN));
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
    /// [`SignatureIndex::oldest_block`] and the newest block.  From it, the
    /// in-range blocks follow in ordinal order, wrapping once round the
    /// ring.
    fn slot_in_range(&self, ordinal: u64) -> Option<usize> {
        let block = ordinal / SIGNATURE_BLOCK_LEN as u64;
        let newest = self.ticks_seen.checked_sub(1)? / SIGNATURE_BLOCK_LEN as u64;
        if block < self.oldest_block() || block > newest {
            return None;
        }
        Some((block % ring_len(self.window_length) as u64) as usize)
    }

    /// Level-1 *run* bounds: for every run of the composed search, an
    /// admissible lower bound on the squared L2 dissimilarity of **every**
    /// candidate lag it holds, computed from block-envelope unions — one
    /// bound per run of consecutive lags, so the imputer's best-first search
    /// can leave a run unexpanded when its bound already exceeds the stop
    /// bar.
    ///
    /// The `lags ≤ lag_hi + 1` candidates run from lag `lag_hi` down, in
    /// runs of `run_len`: run `i` holds the lags `lag_hi − i·run_len` down
    /// to `lag_hi − min((i+1)·run_len, lags) + 1`, the last run possibly
    /// shorter.  `bounds` is cleared and receives one bound per run, in run
    /// order.
    ///
    /// For a chunk of `B = SIGNATURE_BLOCK_LEN` query positions `[p_s, p_e]`
    /// the candidate ordinals paired with it across a run sweep the region
    /// `[start(lag_hi) + p_s, start(lag_lo) + p_e]` (length
    /// `chunk_len + run_len − 1`).  The union envelope of the blocks covering
    /// that region contains every candidate value any lag in the run pairs
    /// with the chunk, and the summed block missing counts over-count any
    /// single lag's missing slots, so with `g` the gap between the union
    /// envelope and the exact query-chunk envelope,
    /// `g² · max(0, chunk_len − region_missing)` lower-bounds each lag's
    /// contribution.
    ///
    /// There is no certain-missing signal here: a missing slot in the region
    /// need not lie inside any particular lag's range.  A chunk whose region
    /// starts before the oldest resolvable block contributes 0, and a run
    /// reaching past the pushed ticks gets 0, so the caller never
    /// over-prunes.  The sweep is described in the module docs.
    #[allow(clippy::too_many_arguments)]
    pub fn run_bounds_sq(
        &self,
        references: &[SeriesId],
        lag_hi: usize,
        lags: usize,
        run_len: usize,
        l: usize,
        query: &SignatureQuery,
        bounds: &mut Vec<f64>,
    ) {
        assert!(lags <= lag_hi + 1, "run_bounds_sq: a lag below 0");
        bounds.clear();
        if run_len == 0 {
            return;
        }
        let runs = lags.div_ceil(run_len);
        bounds.resize(runs, 0.0);
        let Some(rows) = query.rows(references.len(), l) else {
            return;
        };
        let Some(newest) = self.ticks_seen.checked_sub(1) else {
            return;
        };
        let block_len = SIGNATURE_BLOCK_LEN as u64;
        let oldest = self.oldest_block();
        let resolvable = (newest / block_len + 1 - oldest) as usize;
        let oldest_slot = (oldest % ring_len(self.window_length) as u64) as usize;
        // Run `i` starts `lag_hi − i·run_len + l` ticks back; runs whose
        // region reaches past the pushed ticks stay vacuous.
        let first_run = (l as u64 + lag_hi as u64)
            .checked_sub(self.ticks_seen)
            .map_or(0, |over| over.div_ceil(run_len as u64) as usize);
        if first_run >= runs {
            return;
        }
        // Per run: the block of its oldest candidate's first ordinal, and
        // its regions' widths in blocks — one for every chunk of B
        // positions, one for a shorter last chunk.  Chunk `c` of a run
        // starts `c` blocks after its chunk 0, with the same width.
        let last_len = (l - 1) % CHUNK + 1;
        let spans: Vec<(u64, usize, usize)> = (first_run..runs)
            .map(|i| {
                let s = i * run_len;
                let e = (s + run_len).min(lags);
                // Oldest and newest candidate start ordinals across the
                // run: the larger lag anchors the region's left edge.
                let start_hi = self.ticks_seen - (l + lag_hi - s) as u64;
                let start_lo = self.ticks_seen - (l + lag_hi + 1 - e) as u64;
                let block = start_hi / block_len;
                let width = |chunk_len: usize| {
                    ((start_lo + chunk_len as u64 - 1) / block_len - block) as usize + 1
                };
                (block, width(CHUNK), width(last_len))
            })
            .collect();
        let widest = spans.iter().map(|&(_, full, _)| full).max().unwrap_or(1);
        let mut table = EnvelopeTable::default();
        for (r, chunks) in references.iter().zip(rows) {
            let Some(ring) = self.blocks.get(r.index()) else {
                continue;
            };
            table.build(ring, oldest_slot, resolvable, widest);
            let last = chunks.len() - 1;
            // Chunk-major: each run still adds its terms in (reference,
            // chunk) order.
            for (c, chunk) in chunks.iter().enumerate() {
                let chunk_len = if c == last { last_len } else { CHUNK } as u64;
                let width_of = |&(_, full, short): &(u64, usize, usize)| {
                    if c == last {
                        short
                    } else {
                        full
                    }
                };
                // Every full run's region has the first run's width when
                // the run length is a multiple of B: its window is looked
                // up at one fixed level of the table.
                let common = Window::new(&table, width_of(&spans[0]));
                for (bound, span) in bounds[first_run..].iter_mut().zip(&spans) {
                    // A region starting before the oldest resolvable block
                    // gives nothing.
                    let Some(first) = (span.0 + c as u64).checked_sub(oldest) else {
                        continue;
                    };
                    let count = width_of(span);
                    let (c_min, c_max, region_missing) = if count == common.width {
                        common.union(first as usize)
                    } else {
                        Window::new(&table, count).union(first as usize)
                    };
                    // As at level 0, selects drop a vacuous gap (`max`
                    // drops NaN and the select `+∞`): its term is `+0.0`,
                    // which leaves the sum's bits as they are.  Only a chunk
                    // the region's missing slots cover is skipped.
                    let gap = (chunk.min - c_max).max(c_min - chunk.max).max(0.0);
                    let g = if gap < f64::INFINITY { gap } else { 0.0 };
                    let present = chunk_len.saturating_sub(region_missing);
                    if present > 0 {
                        *bound += g * g * present as f64;
                    }
                }
            }
        }
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

    /// A ring's blocks from `slot` on, wrapping once round to `slot − 1`.
    fn ring_from(ring: &[BlockSummary], slot: usize) -> impl Iterator<Item = &BlockSummary> {
        let (before, from) = ring.split_at(slot);
        from.iter().chain(before)
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
        // Overwriting an observed slot shrinks the envelope to exactly what a
        // rebuild sees.
        w.write_imputed(SeriesId(0), 0, 0.5).unwrap();
        ix.on_write(&w, SeriesId(0), 0).unwrap();
        let block = block_at(&ix, 0, 19).unwrap();
        assert_eq!((block.min, block.max, block.missing), (0.5, 1.0, 0));
        let mut fresh = SignatureIndex::new(1, 32).unwrap();
        fresh.rebuild(&w).unwrap();
        assert_eq!(ix, fresh);
        // A write is refused by an index that lags the window.
        w.push_tick(&StreamTick::new(Timestamp::new(20), vec![None]))
            .unwrap();
        assert!(ix.on_write(&w, SeriesId(0), 0).is_err());
    }

    /// The level-0 bounds of every lag from `lag_lo` to `lag_hi`, from one
    /// run's prefix sums over series 0.
    fn level0(
        w: &StreamingWindow,
        lag_lo: usize,
        lag_hi: usize,
        l: usize,
        query: &SignatureQuery,
    ) -> Vec<(usize, (f64, bool))> {
        let mut sums = RunSums::default();
        sums.fill(w, &[SeriesId(0)], lag_lo, lag_hi + 1 - lag_lo, l, query)
            .unwrap();
        (lag_lo..=lag_hi)
            .map(|lag| (lag, sums.lower_bound_sq(lag)))
            .collect()
    }

    #[test]
    fn a_non_block_aligned_lag_gets_the_mean_term_on_every_chunk() {
        // History alternates 0/2 and the query −1/1 in phase with it: the
        // envelopes overlap, so only the chunk means separate them.  At an
        // even lag every pair differs by exactly 1, so D² = l, and each chunk
        // of len positions contributes (len·1)² / len = len.
        let l = 40; // chunks of 16, 16 and 8 positions
        let mut w = StreamingWindow::new(1, 200);
        let mut ix = SignatureIndex::new(1, 200).unwrap();
        for t in 0..200i64 {
            let sign = if t % 2 == 0 { 1.0 } else { -1.0 };
            let v = if t >= 160 { sign } else { 1.0 + sign };
            push(&mut w, &mut ix, t, vec![Some(v)]);
        }
        let query = query_of(&w, l);
        for (lag, (lb, missing)) in level0(&w, 40, 120, l, &query) {
            assert!(!missing, "lag {lag}");
            if lag % 2 == 0 {
                // Start ordinal 160 − lag: lags 42, 44, … are not
                // block-aligned, and still every chunk gets its term.
                assert!(lb <= l as f64, "lag {lag}: {lb}");
                assert!(lb >= l as f64 * (1.0 - 1e-6), "lag {lag}: {lb}");
            }
        }
    }

    /// Every lag that is a multiple of `period` pairs an `l = 72` query with
    /// an exact duplicate of itself (D = 0) and must score zero.  With a
    /// non-dyadic level a chunk's prefix difference and the query's directly
    /// folded sum round differently, and the margin must absorb that.
    fn assert_duplicates_score_zero(period: i64, level: f64) {
        let l = 72;
        let cap = 400;
        let mut w = StreamingWindow::new(1, cap);
        let mut ix = SignatureIndex::new(1, cap).unwrap();
        for t in 0..cap as i64 {
            let phase = (t % period) as f64 / period as f64;
            push(&mut w, &mut ix, t, vec![Some(level + 0.37 * phase)]);
        }
        let query = query_of(&w, l);
        for (lag, (lb, missing)) in level0(&w, l, cap - l, l, &query) {
            assert!(!missing, "period {period}, lag {lag}");
            if lag % period as usize == 0 {
                assert_eq!(lb, 0.0, "period {period}, lag {lag}");
            }
        }
    }

    #[test]
    fn lower_bound_is_zero_for_identical_ranges() {
        // Period-8 signal: the candidate at lag 8 is identical to the query.
        let mut w = StreamingWindow::new(1, 64);
        let mut ix = SignatureIndex::new(1, 64).unwrap();
        for t in 0..64i64 {
            push(&mut w, &mut ix, t, vec![Some(((t % 8) as f64) * 0.5)]);
        }
        let [(_, (lb, missing))] = level0(&w, 8, 8, 8, &query_of(&w, 8))[..] else {
            unreachable!()
        };
        assert_eq!(lb, 0.0);
        assert!(!missing);
        // The same over several chunks at a non-dyadic level.
        assert_duplicates_score_zero(8, 1000.1);
    }

    #[test]
    fn mean_bound_is_zero_for_a_flat_lined_duplicate() {
        // A stuck sensor at a non-dyadic level: every lag is a duplicate.
        assert_duplicates_score_zero(1, 21.37);
    }

    #[test]
    fn a_disjoint_chunk_gives_at_least_len_times_the_gap_squared() {
        let mut w = StreamingWindow::new(1, 80);
        let mut ix = SignatureIndex::new(1, 80).unwrap();
        // First 50 ticks near 0, the rest (the query among them) at 100.
        for t in 0..80i64 {
            let v = if t < 50 { t as f64 * 0.01 } else { 100.0 };
            push(&mut w, &mut ix, t, vec![Some(v)]);
        }
        let l = 20; // chunks of 16 and 4 positions
                    // Lag 35 pairs the query with ticks 25..=44: a gap of at least
                    // 100 − 0.44 on every pair.
        let [(_, (lb, _))] = level0(&w, 35, 35, l, &query_of(&w, l))[..] else {
            unreachable!()
        };
        let g = 100.0 - 0.44;
        assert!(lb >= l as f64 * g * g * (1.0 - 1e-6), "lb = {lb}");
    }

    #[test]
    fn one_missing_slot_is_an_exact_certain_missing() {
        let cap = 64;
        let mut w = StreamingWindow::new(1, cap);
        let mut ix = SignatureIndex::new(1, cap).unwrap();
        let hole = 21; // inside a block, clipped by most lags
        for t in 0..cap as i64 {
            push(&mut w, &mut ix, t, vec![Some(1.0).filter(|_| t != hole)]);
        }
        let l = 4;
        for (lag, (lb, missing)) in level0(&w, l, cap - l, l, &query_of(&w, l)) {
            // Lag `lag` covers ticks `cap − lag − l ..= cap − 1 − lag`.
            let covers = (cap - lag - l..cap - lag).contains(&(hole as usize));
            assert_eq!(missing, covers, "lag {lag}");
            assert!(lb.is_finite(), "lag {lag}");
        }
    }

    #[test]
    fn a_non_finite_reading_pushes_like_a_missing_one() {
        // The window stores NaN and ±∞ readings as missing; the index must
        // count them as missing too, or the level-1 bound would undercount.
        let mut hostile = SignatureIndex::new(2, 40).unwrap();
        let mut missing = SignatureIndex::new(2, 40).unwrap();
        for t in 0..70usize {
            let value = (t as f64 * 0.3).sin();
            let dropped = t % 5 == 2 || (48..64).contains(&t);
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][t % 3];
            hostile
                .on_push(&[Some(value), Some(if dropped { bad } else { value })])
                .unwrap();
            missing
                .on_push(&[Some(value), (!dropped).then_some(value)])
                .unwrap();
        }
        assert!(missing.blocks[1].iter().all(|b| b.missing > 0));
        assert_eq!(hostile, missing);
    }

    #[test]
    fn a_lag_outside_the_filled_run_is_vacuous() {
        let mut w = StreamingWindow::new(1, 64);
        let mut ix = SignatureIndex::new(1, 64).unwrap();
        for t in 0..64i64 {
            push(&mut w, &mut ix, t, vec![Some(t as f64)]);
        }
        let l = 8;
        let query = query_of(&w, l);
        let mut sums = RunSums::default();
        assert_eq!(sums.lower_bound_sq(20), (0.0, false));
        sums.fill(&w, &[SeriesId(0)], 16, 16, l, &query).unwrap();
        assert!(sums.lower_bound_sq(20).0 > 0.0);
        assert_eq!(sums.lower_bound_sq(15), (0.0, false));
        assert_eq!(sums.lower_bound_sq(32), (0.0, false));
        // A region past the pushed ticks, and a query of another length,
        // each clear the previous run.
        assert!(sums.fill(&w, &[SeriesId(0)], 50, 16, l, &query).is_err());
        assert_eq!(sums.lower_bound_sq(20), (0.0, false));
        assert_eq!(sums.lower_bound_sq(50), (0.0, false));
        sums.fill(&w, &[SeriesId(0)], 16, 16, l, &query).unwrap();
        sums.fill(&w, &[SeriesId(0)], 16, 16, l, &query_of(&w, 4))
            .unwrap();
        assert_eq!(sums.lower_bound_sq(20), (0.0, false));
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

    /// The sweep's bounds for the runs of `run_len` lags from `lag_hi`
    /// down over `lags` lags.
    fn sweep(
        ix: &SignatureIndex,
        refs: &[SeriesId],
        lag_hi: usize,
        lags: usize,
        run_len: usize,
        l: usize,
        query: &SignatureQuery,
    ) -> Vec<f64> {
        let mut bounds = vec![f64::NAN; 3];
        ix.run_bounds_sq(refs, lag_hi, lags, run_len, l, query, &mut bounds);
        bounds
    }

    /// The level-1 bound of one run of `run_len` lags from `lag_lo` on,
    /// written one run at a time with a serial min/max walk over the ring:
    /// the oracle [`SignatureIndex::run_bounds_sq`] must match bit for bit.
    fn run_bound_oracle(
        ix: &SignatureIndex,
        references: &[SeriesId],
        lag_lo: usize,
        run_len: usize,
        l: usize,
        query: &SignatureQuery,
    ) -> f64 {
        let Some(rows) = query.rows(references.len(), l) else {
            return 0.0;
        };
        let lag_hi = lag_lo + (run_len - 1);
        let need = l as u64 + lag_hi as u64;
        if ix.ticks_seen < need {
            return 0.0;
        }
        let start_hi = ix.ticks_seen - need;
        let start_lo = ix.ticks_seen - l as u64 - lag_lo as u64;
        let block_len = SIGNATURE_BLOCK_LEN as u64;
        let mut sum = 0.0_f64;
        for (r, chunks) in references.iter().zip(rows) {
            let ring = &ix.blocks[r.index()];
            for (c, chunk) in chunks.iter().enumerate() {
                let p_s = c * CHUNK;
                let chunk_len = (l - p_s).min(CHUNK) as u64;
                let region_start = start_hi + p_s as u64;
                let region_end = start_lo + p_s as u64 + chunk_len - 1;
                let Some(first) = ix.slot_in_range(region_start) else {
                    continue;
                };
                let count = region_end / block_len - region_start / block_len + 1;
                let (mut c_min, mut c_max) = (f64::INFINITY, f64::NEG_INFINITY);
                let mut region_missing = 0u64;
                for blk in ring_from(ring, first).take(count as usize) {
                    c_min = c_min.min(blk.min);
                    c_max = c_max.max(blk.max);
                    region_missing += u64::from(blk.missing);
                }
                if chunk_len > region_missing {
                    let g = (chunk.min - c_max).max(c_min - chunk.max).max(0.0);
                    if g > 0.0 && g.is_finite() {
                        sum += g * g * (chunk_len - region_missing) as f64;
                    }
                }
            }
        }
        sum
    }

    /// Holds the sweep against [`run_bound_oracle`] bit for bit, for every
    /// run of the imputer's layout (the largest lag `filled − l`, every
    /// candidate) and of a layout starting past the pushed ticks, at several
    /// run widths.
    fn assert_sweep_matches_oracle(
        ix: &SignatureIndex,
        w: &StreamingWindow,
        refs: &[SeriesId],
        l: usize,
        query: &SignatureQuery,
        case: &str,
    ) {
        let filled = w.filled();
        if filled < 2 * l {
            return;
        }
        let oldest_age = filled - l;
        let layouts = [
            (oldest_age, oldest_age + 1 - l),
            (w.ticks_seen() - l + 20, oldest_age + 1 - l),
        ];
        for (lag_hi, lags) in layouts {
            for run_len in [1, 5, CHUNK, 3 * CHUNK, level1_run_len(l)] {
                let bounds = sweep(ix, refs, lag_hi, lags, run_len, l, query);
                assert_eq!(bounds.len(), lags.div_ceil(run_len), "{case}");
                for (i, bound) in bounds.iter().enumerate() {
                    let s = i * run_len;
                    let e = (s + run_len).min(lags);
                    let expected = run_bound_oracle(ix, refs, lag_hi + 1 - e, e - s, l, query);
                    assert_eq!(
                        bound.to_bits(),
                        expected.to_bits(),
                        "{case}, ticks {}, lag_hi {lag_hi}, runs of {run_len}, run {i}: \
                         sweep {bound} vs oracle {expected}",
                        w.ticks_seen()
                    );
                }
            }
        }
    }

    /// Streams `values(t, series)` for `ticks` ticks into a window of `cap`
    /// over `width` series and, from tick `2l` on and then every `every`
    /// ticks, checks the sweep against the oracle with a query made of the
    /// last `l` values of the references (missing ones read as 0.5).
    fn check_sweep_on(
        case: &str,
        cap: usize,
        width: usize,
        l: usize,
        ticks: usize,
        every: usize,
        values: impl Fn(usize, usize) -> Option<f64>,
    ) {
        let refs: Vec<SeriesId> = (0..width as u32).map(SeriesId).collect();
        let mut w = StreamingWindow::new(width, cap);
        let mut ix = SignatureIndex::new(width, cap).unwrap();
        for t in 0..ticks {
            let row = (0..width).map(|s| values(t, s)).collect();
            push(&mut w, &mut ix, t as i64, row);
            if t + 1 < 2 * l || (t + 1) % every != 0 {
                continue;
            }
            let rows: Vec<Vec<f64>> = refs
                .iter()
                .map(|&r| {
                    (0..l)
                        .map(|col| w.value_recent(r, l - 1 - col).unwrap().unwrap_or(0.5))
                        .collect()
                })
                .collect();
            let rows: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let query = SignatureQuery::new(&rows);
            assert_sweep_matches_oracle(&ix, &w, &refs, l, &query, case);
        }
    }

    #[test]
    fn the_run_sweep_is_bit_equal_to_the_per_run_oracle() {
        let wave = |t: usize, s: usize| ((t * (s + 3)) as f64 * 0.37).sin() * 3.0 + s as f64;
        // Before and across many ring wraps (the seam moves with the tick
        // count), with a partial last run and l a multiple of B, or not.
        for l in [16, 20, 40, 72] {
            check_sweep_on("wave", 300, 2, l, 1000, 7, |t, s| Some(wave(t, s)));
        }
        // Ramps: every region lies clear of the query, so every chunk of
        // every run adds a term and their order shows in the sum's bits.
        check_sweep_on("ramp", 300, 3, 40, 700, 3, |t, s| {
            Some(t as f64 * (0.013 + 0.007 * s as f64) + wave(t, s))
        });
        // Scattered gaps and whole missing blocks.
        check_sweep_on("gaps", 257, 3, 40, 900, 5, |t, s| {
            let gap = (t + 5 * s) % 11 == 3 || (200..240).contains(&((t + 60 * s) % 400));
            (!gap).then(|| wave(t, s))
        });
        // Huge finite readings: envelope gaps and their squares overflow.
        check_sweep_on("±1e300", 300, 2, 72, 800, 9, |t, s| {
            Some(if (t / 37 + s) % 2 == 0 { 1e300 } else { -1e300 })
        });
        check_sweep_on("mixed 1e300", 300, 2, 24, 800, 9, |t, s| {
            Some(if t % 50 < 10 { 1e300 } else { wave(t, s) })
        });
        check_sweep_on("stuck at 1e307", 300, 1, 72, 700, 11, |_, _| Some(1e307));
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
        let (lag_hi, lags) = (cap - l, cap + 1 - 2 * l);
        for run_len in [1usize, 4, 16, 32] {
            let bounds = sweep(&ix, &[SeriesId(0)], lag_hi, lags, run_len, l, &query);
            for (i, &rb) in bounds.iter().enumerate() {
                let s = i * run_len;
                for lag in (lag_hi + 1 - (s + run_len).min(lags))..=lag_hi - s {
                    // Admissible vs the exact sum for every lag of the run.
                    if let Some(exact) = exact_sum_sq(&w, lag, l) {
                        assert!(
                            rb <= exact + 1e-9,
                            "run {i} of {run_len}, lag {lag}: {rb} > {exact}"
                        );
                    }
                }
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
        let [rb] = sweep(&ix, &[SeriesId(0)], 71, 8, 8, l, &query)[..] else {
            unreachable!()
        };
        assert!(rb > 16.0 * 90.0 * 90.0, "rb = {rb}");
        // A run overlapping the query-like recent region must stay vacuous
        // or tiny (the union envelope includes near-query values).
        let [rb_near] = sweep(&ix, &[SeriesId(0)], l + 7, 8, 8, l, &query)[..] else {
            unreachable!()
        };
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
        // Not enough history for lags 30..=33 — must not invent a bound.
        assert_eq!(sweep(&ix, &[SeriesId(0)], 33, 4, 4, 4, &query), [0.0]);
        // No run, no bound; a query of another geometry bounds nothing.
        assert!(sweep(&ix, &[SeriesId(0)], 4, 4, 0, 4, &query).is_empty());
        assert_eq!(sweep(&ix, &[SeriesId(0)], 3, 2, 1, 2, &query), [0.0, 0.0]);
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
