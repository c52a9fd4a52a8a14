//! # tkcm-core
//!
//! Top-k Case Matching (TKCM): continuous imputation of missing values in
//! streams of pattern-determining time series.
//!
//! This crate implements the primary contribution of the EDBT 2017 paper by
//! Wellenzohn et al.:
//!
//! 1. **Patterns** ([`pattern`]): the query pattern `P(t_n)` is a `d × l`
//!    matrix of the `l` most recent values of the `d` reference series
//!    (Definition 1).
//! 2. **Dissimilarity** ([`dissimilarity`]): the L2/Frobenius distance
//!    between two patterns (Definition 2).
//! 3. **Pattern selection** ([`selection`]): the dynamic-programming scheme
//!    of Section 6 that finds the `k` *non-overlapping* patterns minimising
//!    the sum of dissimilarities (Definition 3, Equation 5, Figure 8).
//! 4. **Imputation** ([`imputer`]): the average of the incomplete series at
//!    the selected anchor points (Definition 4, Algorithm 1).
//! 5. **Streaming engine** ([`engine`]): per-tick processing of a whole set
//!    of streams with reference selection, window maintenance and write-back
//!    of imputed values.  Its default path is the *composed* one described
//!    under candidate pruning below; `TkcmConfig::pruning = false` selects
//!    the exhaustive exact path, the oracle the composed path is
//!    bit-identical to.
//! 6. **Consistency diagnostics** ([`consistency`]): the ε of the
//!    pattern-determination property (Definition 5) used in Figure 13.
//! 7. **Phase timing** ([`diagnostics`]): pattern-extraction vs
//!    pattern-selection breakdown reported in Section 7.4.
//! 8. **Candidate pruning** ([`signature`]): admissible lower bounds — block
//!    envelopes per run of lags, chunk means per lag — composed with τ
//!    seeding from the previous imputation's best exact folds and one
//!    best-first search over level-1 runs, level-0 bounds and exact folds.
//!    The composed path is bit-identical to the exhaustive one and several
//!    times faster at paper scale.
//!
//! ## Quick start
//!
//! ```
//! use tkcm_core::{TkcmConfig, TkcmEngine};
//! use tkcm_timeseries::{Catalog, SeriesId, StreamTick, Timestamp};
//!
//! // Two reference series pattern-determine the target series 0.
//! let mut catalog = Catalog::new();
//! catalog
//!     .set_candidates(SeriesId(0), vec![SeriesId(1), SeriesId(2)])
//!     .unwrap();
//!
//! let config = TkcmConfig::builder()
//!     .window_length(64)
//!     .pattern_length(3)
//!     .anchor_count(2)
//!     .reference_count(2)
//!     .build()
//!     .unwrap();
//!
//! let mut engine = TkcmEngine::new(3, config, catalog).unwrap();
//!
//! // Feed fully observed history, then a tick where series 0 is missing.
//! for t in 0..63i64 {
//!     let phase = t as f64 * 0.4;
//!     let tick = StreamTick::new(
//!         Timestamp::new(t),
//!         vec![Some(phase.sin()), Some(phase.cos()), Some((phase * 0.5).sin())],
//!     );
//!     engine.process_tick(&tick).unwrap();
//! }
//! let tick = StreamTick::new(
//!     Timestamp::new(63),
//!     vec![None, Some((63.0f64 * 0.4).cos()), Some((63.0f64 * 0.2).sin())],
//! );
//! let outcome = engine.process_tick(&tick).unwrap();
//! assert_eq!(outcome.imputations.len(), 1);
//! assert!(outcome.imputations[0].value.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod consistency;
pub mod diagnostics;
pub mod dissimilarity;
pub mod engine;
pub mod imputer;
pub mod pattern;
pub mod persist;
pub mod selection;
pub mod signature;

pub use config::{TkcmConfig, TkcmConfigBuilder};
pub use consistency::{epsilon_of_anchors, ConsistencyReport};
pub use diagnostics::{PhaseBreakdown, PhaseTimer};
pub use dissimilarity::l2_distance;
pub use engine::{EngineOutcome, Imputation, TkcmEngine};
pub use imputer::{ImputationDetail, PruneStats, TkcmImputer};
pub use pattern::{extract_pattern, extract_pattern_at_age, extract_query_pattern, Pattern};
pub use persist::{WalEntry, WalWriteBack};
pub use selection::{select_anchors_dp, select_anchors_greedy, AnchorSelection};
pub use signature::{level1_run_len, RunSums, SignatureIndex, SignatureQuery, SIGNATURE_BLOCK_LEN};
