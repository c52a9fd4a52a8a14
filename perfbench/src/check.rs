//! Output checks.  Every workload compares what the program imputed with an
//! independent computation of the same answer, value bits included.

use tkcm_core::EngineOutcome;

/// One imputed value: `(series, time, value bits)`.
pub type Imputed = (u32, i64, u64);

/// The imputations of one outcome, in series order.
pub fn imputed(outcome: &EngineOutcome) -> Vec<Imputed> {
    let mut values: Vec<Imputed> = outcome
        .imputations
        .iter()
        .map(|i| (i.series.0, i.time.0, i.value.to_bits()))
        .collect();
    values.sort_unstable();
    values
}

/// Counts comparisons and mismatches.  With the negative control on, the
/// first non-empty expectation is perturbed (its lowest value bit flipped),
/// so a run whose checks work must fail.
pub struct Checker {
    negative_control: bool,
    perturbed: bool,
    /// Imputed values compared.
    pub compared: u64,
    pub mismatches: u64,
}

impl Checker {
    pub fn new(negative_control: bool) -> Checker {
        Checker {
            negative_control,
            perturbed: false,
            compared: 0,
            mismatches: 0,
        }
    }

    pub fn same(&mut self, expected: &[Imputed], actual: &[Imputed]) -> bool {
        let mut expected = expected.to_vec();
        if self.negative_control && !self.perturbed && !expected.is_empty() {
            expected[0].2 ^= 1;
            self.perturbed = true;
        }
        self.compared += expected.len() as u64;
        let same = expected == actual;
        if !same {
            self.mismatches += 1;
        }
        same
    }

    /// A check that compared nothing proves nothing: the run is only
    /// correct when values were compared and all of them matched.
    pub fn passed(&self) -> bool {
        self.compared > 0 && self.mismatches == 0
    }
}
