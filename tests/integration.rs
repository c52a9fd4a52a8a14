//! Integration tests spanning the workspace crates: dataset generation →
//! missing-block injection → streaming imputation → evaluation, exercised
//! through the `tkcm` facade exactly as a downstream user would.

use tkcm::baselines::{CdImputer, LocfImputer, MusclesImputer, SpiritImputer};
use tkcm::prelude::*;

fn quick_config(len: usize, l: usize) -> TkcmConfig {
    TkcmConfig::builder()
        .window_length(len)
        .pattern_length(l)
        .anchor_count(5)
        .reference_count(3)
        .build()
        .expect("valid config")
}

#[test]
fn end_to_end_sbr_shifted_pipeline() {
    // Generate a shifted weather dataset, break one sensor for half a day and
    // check that TKCM recovers it much better than carrying the last value
    // forward.
    let dataset = SbrConfig {
        stations: 5,
        days: 6,
        seed: 21,
        ..SbrConfig::default()
    }
    .shifted()
    .generate();
    let len = dataset.len();
    let scenario = Scenario::tail_block(dataset, SeriesId(0), 0.08);

    let mut tkcm = TkcmOnlineAdapter::new(
        scenario.dataset.width(),
        quick_config(len, 12),
        scenario.catalog.clone(),
    );
    let mut locf = LocfImputer::new();

    let tkcm_out = run_online_scenario(&mut tkcm, &scenario);
    let locf_out = run_online_scenario(&mut locf, &scenario);

    assert_eq!(tkcm_out.scored, scenario.missing_count());
    assert_eq!(tkcm_out.unanswered, 0);
    assert!(tkcm_out.rmse.is_finite());
    assert!(
        tkcm_out.rmse < locf_out.rmse,
        "TKCM ({}) should beat LOCF ({}) on a half-day outage",
        tkcm_out.rmse,
        locf_out.rmse
    );
}

#[test]
fn tkcm_handles_phase_shifted_chlorine_streams() {
    // The headline claim: on phase-shifted streams TKCM stays accurate while
    // the linear online methods degrade.
    let dataset = ChlorineConfig {
        junctions: 8,
        days: 5,
        seed: 4,
        ..ChlorineConfig::default()
    }
    .generate();
    let len = dataset.len();
    let scenario = Scenario::tail_block(dataset, SeriesId(0), 0.15);
    let width = scenario.dataset.width();

    let mut tkcm = TkcmOnlineAdapter::new(width, quick_config(len, 24), scenario.catalog.clone());
    let mut spirit = SpiritImputer::new(width);
    let mut muscles = MusclesImputer::new(width);

    let tkcm_out = run_online_scenario(&mut tkcm, &scenario);
    let spirit_out = run_online_scenario(&mut spirit, &scenario);
    let muscles_out = run_online_scenario(&mut muscles, &scenario);

    assert!(tkcm_out.rmse.is_finite());
    assert!(
        tkcm_out.rmse <= spirit_out.rmse * 1.05,
        "TKCM {} vs SPIRIT {}",
        tkcm_out.rmse,
        spirit_out.rmse
    );
    assert!(
        tkcm_out.rmse <= muscles_out.rmse * 1.05,
        "TKCM {} vs MUSCLES {}",
        tkcm_out.rmse,
        muscles_out.rmse
    );
}

#[test]
fn batch_cd_runs_through_the_same_scenario_api() {
    let dataset = SbrConfig {
        stations: 4,
        days: 4,
        seed: 9,
        ..SbrConfig::default()
    }
    .generate();
    let scenario = Scenario::tail_block(dataset, SeriesId(1), 0.05);
    let out = run_batch_scenario(&CdImputer::new(), &scenario);
    assert_eq!(out.scored, scenario.missing_count());
    assert!(out.rmse.is_finite());
    // On a non-shifted dataset CD must do clearly better than predicting a
    // constant 0 °C (the values are around 10-20 °C).
    assert!(out.rmse < 10.0, "CD rmse {}", out.rmse);
}

#[test]
fn csv_roundtrip_preserves_a_generated_dataset() {
    let dataset = FlightsConfig {
        airports: 3,
        days: 1,
        seed: 5,
        ..FlightsConfig::default()
    }
    .generate();
    let mut buf = Vec::new();
    tkcm::datasets::csv::write_csv(&dataset, &mut buf).expect("write succeeds");
    let parsed = tkcm::datasets::csv::read_csv(
        std::io::BufReader::new(&buf[..]),
        DatasetKind::Flights,
        SampleInterval::ONE_MINUTE,
    )
    .expect("read succeeds");
    assert_eq!(parsed.width(), dataset.width());
    assert_eq!(parsed.len(), dataset.len());
    for (a, b) in dataset.series.iter().zip(parsed.series.iter()) {
        assert_eq!(a.values(), b.values());
    }
}

#[test]
fn engine_survives_every_series_failing_at_some_point() {
    // Rotate a failure through all series; every missing value must either be
    // imputed or explicitly skipped, never silently dropped.
    let width = 4;
    let config = TkcmConfig::builder()
        .window_length(600)
        .pattern_length(8)
        .anchor_count(3)
        .reference_count(2)
        .build()
        .unwrap();
    let mut engine = TkcmEngine::new(width, config, Catalog::ring_neighbours(width)).unwrap();

    let mut imputed = 0usize;
    let mut skipped = 0usize;
    for t in 0..600usize {
        let failing = (t / 50) % width;
        let values: Vec<Option<f64>> = (0..width)
            .map(|s| {
                let v = ((t as f64 + 7.0 * s as f64) * 0.05).sin() * 10.0;
                if t > 100 && s == failing {
                    None
                } else {
                    Some(v)
                }
            })
            .collect();
        let outcome = engine
            .process_tick(&StreamTick::new(Timestamp::new(t as i64), values))
            .expect("tick accepted");
        imputed += outcome.imputations.len();
        skipped += outcome.skipped.len();
    }
    assert_eq!(imputed + skipped, 499);
    assert!(imputed > 450, "imputed {imputed}, skipped {skipped}");
    assert_eq!(engine.imputations_performed(), imputed);
}
