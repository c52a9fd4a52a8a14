//! Figures 4–7: correlation analysis and the effect of the pattern length
//! on the sine families of Section 5.
//!
//! * Figure 4/5 — scatterplot data of `s` against a linearly correlated
//!   reference (`r1 = 1.5·sind(t)+1`) and a quarter-period-shifted reference
//!   (`r2 = sind(t−90)`), plus their Pearson correlations.
//! * Figure 6/7 — the dissimilarity profile `δ(P(t), P(840))` over time for
//!   pattern lengths `l = 1` and `l = 60`, showing that longer patterns
//!   discriminate the correct historical situations.

use tkcm_core::{l2_distance, Pattern};
use tkcm_datasets::sine::analysis_dataset;
use tkcm_timeseries::stats::pearson;
use tkcm_timeseries::Timestamp;

use crate::report::{Report, Table};

use super::Scale;

/// Number of ticks of the analysis signal (two and a half periods, as in the
/// paper's Figures 4–7 which plot t ∈ [0, 840] minutes with period 360).
const ANALYSIS_LEN: usize = 900;
/// The query anchor used throughout Section 5 (t = 840 minutes).
const QUERY_ANCHOR: usize = 840;

/// Builds the dissimilarity profile `δ(P_l(t), P_l(anchor))` for a single
/// reference series given as a dense vector.
pub fn dissimilarity_profile(reference: &[f64], anchor: usize, l: usize) -> Vec<(f64, f64)> {
    assert!(l > 0 && anchor >= l - 1 && anchor < reference.len());
    let query_rows = vec![reference[anchor + 1 - l..=anchor].to_vec()];
    let query = Pattern::from_rows(Timestamp::new(anchor as i64), &query_rows);
    let mut profile = Vec::new();
    for t in (l - 1)..=anchor {
        let rows = vec![reference[t + 1 - l..=t].to_vec()];
        let candidate = Pattern::from_rows(Timestamp::new(t as i64), &rows);
        profile.push((t as f64, l2_distance(&candidate, &query)));
    }
    profile
}

/// Runs the Section 5 analysis and returns the combined report.
pub fn run(_scale: Scale) -> Report {
    let dataset = analysis_dataset(360.0, ANALYSIS_LEN);
    let s = dataset.series[0].to_dense(0.0);
    let r1 = dataset.series[1].to_dense(0.0);
    let r2 = dataset.series[2].to_dense(0.0);

    let mut report = Report::new("Figures 4-7: correlation analysis on sine waves");
    report.note("s(t) = sind(t), r1(t) = 1.5*sind(t)+1 (linear), r2(t) = sind(t-90) (shifted)");

    // Figure 4b/5b: Pearson correlations and scatterplot data.
    let mut corr = Table::new(
        "Pearson correlation with s",
        vec!["reference".into(), "rho".into()],
    );
    corr.push_row(
        "r1 (linear)",
        vec![pearson(&s, &r1).expect("equal lengths")],
    );
    corr.push_row(
        "r2 (shifted)",
        vec![pearson(&s, &r2).expect("equal lengths")],
    );
    report.add_table(corr);

    report.add_series(
        "Figure 4b scatter (r1(t), s(t))",
        r1.iter().zip(s.iter()).map(|(x, y)| (*x, *y)).collect(),
    );
    report.add_series(
        "Figure 5b scatter (r2(t), s(t))",
        r2.iter().zip(s.iter()).map(|(x, y)| (*x, *y)).collect(),
    );

    // Figures 6 and 7: dissimilarity profiles for l = 1 and l = 60 against r1
    // (Fig. 6) and the shifted r2 (Fig. 7).
    for (figure, reference, name) in [(6, &r1, "r1"), (7, &r2, "r2")] {
        for l in [1usize, 60] {
            let profile = dissimilarity_profile(reference, QUERY_ANCHOR, l);
            report.add_series(
                format!("Figure {figure}: delta(P_{l}(t), P_{l}(840)) for {name}"),
                profile,
            );
        }
    }

    // Summary numbers: how many time points have (near-)zero dissimilarity.
    let mut zeros = Table::new(
        "Candidates with near-zero dissimilarity (tolerance 0.05)",
        vec!["reference / l".into(), "count".into()],
    );
    for (reference, name) in [(&r1, "r1"), (&r2, "r2")] {
        for l in [1usize, 60] {
            let profile = dissimilarity_profile(reference, QUERY_ANCHOR, l);
            // Exclude the query anchor itself.
            let count = profile
                .iter()
                .filter(|(t, d)| (*t as usize) < QUERY_ANCHOR && *d < 0.05)
                .count();
            zeros.push_row(format!("{name}, l={l}"), vec![count as f64]);
        }
    }
    report.add_table(zeros);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlations_match_section_5() {
        let report = run(Scale::Quick);
        let table = report.table("Pearson correlation with s").unwrap();
        let rho_linear = table.cell("r1 (linear)", "rho").unwrap();
        let rho_shifted = table.cell("r2 (shifted)", "rho").unwrap();
        assert!(rho_linear > 0.999, "rho_linear = {rho_linear}");
        assert!(rho_shifted.abs() < 0.05, "rho_shifted = {rho_shifted}");
    }

    #[test]
    fn longer_patterns_reduce_zero_dissimilarity_candidates() {
        // Lemma 5.1 / Figure 6: for r1 the number of near-perfect matches
        // shrinks as l grows.
        let report = run(Scale::Quick);
        let table = report
            .table("Candidates with near-zero dissimilarity (tolerance 0.05)")
            .unwrap();
        let short = table.cell("r1, l=1", "count").unwrap();
        let long = table.cell("r1, l=60", "count").unwrap();
        assert!(
            long < short,
            "l=60 ({long}) should have fewer matches than l=1 ({short})"
        );
        assert!(
            long >= 1.0,
            "periodic signal must still repeat at least once"
        );

        let short2 = table.cell("r2, l=1", "count").unwrap();
        let long2 = table.cell("r2, l=60", "count").unwrap();
        assert!(long2 <= short2);
    }

    #[test]
    fn profile_is_zero_at_the_anchor_and_periodic() {
        let dataset = analysis_dataset(360.0, 900);
        let r1 = dataset.series[1].to_dense(0.0);
        let profile = dissimilarity_profile(&r1, 840, 60);
        // Distance at the anchor itself is 0.
        let at_anchor = profile.iter().find(|(t, _)| *t as usize == 840).unwrap();
        assert!(at_anchor.1 < 1e-9);
        // One full period earlier (t = 480) the distance is also ~0.
        let one_period = profile.iter().find(|(t, _)| *t as usize == 480).unwrap();
        assert!(one_period.1 < 1e-9, "distance at t=480 is {}", one_period.1);
        // Half a period earlier the distance is large.
        let half_period = profile.iter().find(|(t, _)| *t as usize == 660).unwrap();
        assert!(half_period.1 > 1.0);
    }

    #[test]
    fn report_contains_all_series() {
        let report = run(Scale::Quick);
        assert_eq!(report.series.len(), 2 + 4);
        assert!(report.series.iter().all(|(_, pts)| !pts.is_empty()));
    }
}
