//! TKCM configuration: the parameters `d`, `k`, `l` and `L` of the paper.
//!
//! Defaults follow the calibration of Section 7.2: `d = 3` reference series,
//! `k = 5` anchor points, pattern length `l = 72` and a streaming window of
//! one year of 5-minute samples (`L = 105 120`).  For unit tests and small
//! synthetic datasets smaller values are used, so every parameter is
//! validated explicitly.  The only other field, `pruning`, picks between the
//! engine's composed fast path and its exhaustive oracle; it never changes an
//! imputed value.

use std::fmt;

use tkcm_timeseries::TsError;

/// Configuration of the TKCM imputation algorithm.
#[derive(Clone, Debug, PartialEq)]
pub struct TkcmConfig {
    /// Streaming window length `L` (number of ticks kept in memory).
    pub window_length: usize,
    /// Pattern length `l` (> 0).
    pub pattern_length: usize,
    /// Number of anchor points `k` (> 0).
    pub anchor_count: usize,
    /// Number of reference series `d` (> 0).
    pub reference_count: usize,
    /// The engine's one dispatch switch.  `true` (default) runs the
    /// *composed* path: signature-index pruning ([`crate::signature`])
    /// layered with sparse shortlist maintenance of the Section 6.2 sliding
    /// aggregates ([`crate::incremental`]).  Its bounds are admissible and
    /// every `D` entering selection is computed by the exact fold, so the
    /// output is bit-identical to the exhaustive path.  `false` runs the
    /// exhaustive exact `O(L·l·d)`-per-imputation oracle.
    pub pruning: bool,
}

impl TkcmConfig {
    /// Paper defaults for the SBR-scale datasets: `d = 3`, `k = 5`, `l = 72`,
    /// `L = 105 120` (one year of 5-minute samples).
    pub fn paper_defaults() -> Self {
        TkcmConfig {
            window_length: 105_120,
            pattern_length: 72,
            anchor_count: 5,
            reference_count: 3,
            pruning: true,
        }
    }

    /// Starts building a configuration.
    pub fn builder() -> TkcmConfigBuilder {
        TkcmConfigBuilder::default()
    }

    /// Validates the mutual constraints between the parameters.
    ///
    /// Definition 3 requires anchors in `[t_{n-L+l}, t_{n-l}]` with pairwise
    /// distance at least `l`; for `k` anchors to exist at all the window must
    /// satisfy `L ≥ (k + 1) * l`, i.e. hold the query pattern plus `k`
    /// non-overlapping candidate patterns.
    pub fn validate(&self) -> Result<(), TsError> {
        if self.pattern_length == 0 {
            return Err(TsError::invalid("l", "pattern length must be positive"));
        }
        if self.anchor_count == 0 {
            return Err(TsError::invalid("k", "anchor count must be positive"));
        }
        if self.reference_count == 0 {
            return Err(TsError::invalid("d", "reference count must be positive"));
        }
        if self.window_length == 0 {
            return Err(TsError::invalid("L", "window length must be positive"));
        }
        // Checked arithmetic: configurations can come from decoded snapshot
        // bytes, so (k+1)*l overflowing must reject, not wrap.
        let needed = self
            .anchor_count
            .checked_add(1)
            .and_then(|k| k.checked_mul(self.pattern_length));
        if needed.is_none_or(|needed| self.window_length < needed) {
            return Err(TsError::invalid(
                "L",
                format!(
                    "window length {} too small: need at least (k+1)*l = {} to fit the query \
                     pattern and {} non-overlapping candidate patterns of length {}",
                    self.window_length,
                    needed.map_or_else(|| "overflow".to_string(), |n| n.to_string()),
                    self.anchor_count,
                    self.pattern_length
                ),
            ));
        }
        Ok(())
    }

    /// Number of candidate anchor points in a full window:
    /// `L − 2l + 1` (Section 6.1 — the first `l−1` and last `l` ticks are
    /// excluded).
    pub fn candidate_count(&self) -> usize {
        self.window_length.saturating_sub(2 * self.pattern_length) + 1
    }
}

impl Default for TkcmConfig {
    fn default() -> Self {
        TkcmConfig {
            window_length: 1024,
            pattern_length: 12,
            anchor_count: 5,
            reference_count: 3,
            pruning: true,
        }
    }
}

impl fmt::Display for TkcmConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TKCM(L={}, l={}, k={}, d={}, {})",
            self.window_length,
            self.pattern_length,
            self.anchor_count,
            self.reference_count,
            if self.pruning {
                "composed"
            } else {
                "exhaustive"
            }
        )
    }
}

/// Builder for [`TkcmConfig`].
#[derive(Clone, Debug, Default)]
pub struct TkcmConfigBuilder {
    config: Option<TkcmConfig>,
    window_length: Option<usize>,
    pattern_length: Option<usize>,
    anchor_count: Option<usize>,
    reference_count: Option<usize>,
    pruning: Option<bool>,
}

impl TkcmConfigBuilder {
    /// Starts from an existing configuration instead of the defaults.
    pub fn from_config(config: TkcmConfig) -> Self {
        TkcmConfigBuilder {
            config: Some(config),
            ..Default::default()
        }
    }

    /// Sets the streaming window length `L`.
    pub fn window_length(mut self, value: usize) -> Self {
        self.window_length = Some(value);
        self
    }

    /// Sets the pattern length `l`.
    pub fn pattern_length(mut self, value: usize) -> Self {
        self.pattern_length = Some(value);
        self
    }

    /// Sets the number of anchor points `k`.
    pub fn anchor_count(mut self, value: usize) -> Self {
        self.anchor_count = Some(value);
        self
    }

    /// Sets the number of reference series `d`.
    pub fn reference_count(mut self, value: usize) -> Self {
        self.reference_count = Some(value);
        self
    }

    /// Selects the composed fast path (`true`, default) or the exhaustive
    /// exact oracle (`false`) on the engine tick path.
    pub fn pruning(mut self, value: bool) -> Self {
        self.pruning = Some(value);
        self
    }

    /// A second setter for the same dispatch bit as
    /// [`TkcmConfigBuilder::pruning`]: `false` selects the exhaustive
    /// oracle.  Kept so callers that opt out with
    /// `.pruning(false).incremental(false)` keep their meaning; the later
    /// call wins.
    pub fn incremental(self, value: bool) -> Self {
        self.pruning(value)
    }

    /// Finalises and validates the configuration.
    pub fn build(self) -> Result<TkcmConfig, TsError> {
        let mut config = self.config.unwrap_or_default();
        if let Some(v) = self.window_length {
            config.window_length = v;
        }
        if let Some(v) = self.pattern_length {
            config.pattern_length = v;
        }
        if let Some(v) = self.anchor_count {
            config.anchor_count = v;
        }
        if let Some(v) = self.reference_count {
            config.reference_count = v;
        }
        if let Some(v) = self.pruning {
            config.pruning = v;
        }
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_7_2() {
        let c = TkcmConfig::paper_defaults();
        assert_eq!(c.reference_count, 3);
        assert_eq!(c.anchor_count, 5);
        assert_eq!(c.pattern_length, 72);
        assert_eq!(c.window_length, 105_120);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_overrides_individual_fields() {
        let c = TkcmConfig::builder()
            .window_length(200)
            .pattern_length(4)
            .anchor_count(3)
            .reference_count(2)
            .pruning(false)
            .build()
            .unwrap();
        assert_eq!(c.window_length, 200);
        assert_eq!(c.pattern_length, 4);
        assert_eq!(c.anchor_count, 3);
        assert_eq!(c.reference_count, 2);
        assert!(!c.pruning);
    }

    #[test]
    fn builder_from_config_preserves_unset_fields() {
        let base = TkcmConfig::paper_defaults();
        let c = TkcmConfigBuilder::from_config(base.clone())
            .pattern_length(36)
            .build()
            .unwrap();
        assert_eq!(c.pattern_length, 36);
        assert_eq!(c.window_length, base.window_length);
        assert_eq!(c.anchor_count, base.anchor_count);
    }

    #[test]
    fn zero_parameters_are_rejected() {
        assert!(TkcmConfig::builder().pattern_length(0).build().is_err());
        assert!(TkcmConfig::builder().anchor_count(0).build().is_err());
        assert!(TkcmConfig::builder().reference_count(0).build().is_err());
        assert!(TkcmConfig::builder().window_length(0).build().is_err());
    }

    #[test]
    fn window_must_hold_query_plus_k_patterns() {
        // l = 10, k = 3 -> need L >= 40
        let short = TkcmConfig::builder()
            .window_length(39)
            .pattern_length(10)
            .anchor_count(3)
            .build();
        assert!(short.is_err());
        let ok = TkcmConfig::builder()
            .window_length(40)
            .pattern_length(10)
            .anchor_count(3)
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn candidate_count_matches_paper_formula() {
        let c = TkcmConfig::builder()
            .window_length(10)
            .pattern_length(3)
            .anchor_count(2)
            .build()
            .unwrap();
        // Figure 8: L = 10, l = 3 -> 5 candidate patterns (indices 1..=5).
        assert_eq!(c.candidate_count(), 5);
    }

    #[test]
    fn pruning_defaults_on_with_explicit_opt_out() {
        assert!(TkcmConfig::default().pruning);
        assert!(TkcmConfig::paper_defaults().pruning);
        let c = TkcmConfig::builder().pruning(false).build().unwrap();
        assert!(!c.pruning);
        assert!(c.to_string().contains("exhaustive"));
        assert!(TkcmConfig::default().to_string().contains("composed"));
        // `incremental` is a second setter for the same bit.
        assert!(
            !TkcmConfig::builder()
                .incremental(false)
                .build()
                .unwrap()
                .pruning
        );
        let oracle = TkcmConfig::builder()
            .pruning(false)
            .incremental(false)
            .build()
            .unwrap();
        assert!(!oracle.pruning);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            TkcmConfig::default().to_string(),
            "TKCM(L=1024, l=12, k=5, d=3, composed)"
        );
        assert_eq!(
            TkcmConfig::builder()
                .pruning(false)
                .build()
                .unwrap()
                .to_string(),
            "TKCM(L=1024, l=12, k=5, d=3, exhaustive)"
        );
    }
}
