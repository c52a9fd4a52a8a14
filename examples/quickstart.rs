//! Quickstart: impute a missing value with TKCM on the paper's running
//! example (Table 2 / Figure 3).
//!
//! Run with `cargo run --example quickstart`.

use tkcm::core::{TkcmConfig, TkcmImputer};
use tkcm::timeseries::{SeriesId, StreamTick, StreamingWindow, Timestamp};

fn main() {
    // The running example of the paper: one hour of 5-minute measurements
    // (13:25 .. 14:20 mapped to ticks 0..11).  Series s is missing at 14:20.
    let s = [
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
    let r1 = [
        16.5, 17.2, 17.8, 16.6, 15.8, 16.2, 17.4, 17.7, 15.3, 16.3, 17.1, 17.5,
    ];
    let r2 = [
        20.3, 19.8, 18.6, 18.8, 20.0, 20.5, 19.8, 18.2, 20.1, 20.2, 19.9, 18.2,
    ];

    // Push the hour into a streaming window of length L = 12.
    let mut window = StreamingWindow::new(3, 12);
    for t in 0..12usize {
        let tick = StreamTick::new(
            Timestamp::new(t as i64),
            vec![s[t], Some(r1[t]), Some(r2[t])],
        );
        window.push_tick(&tick).expect("ticks advance in order");
    }

    // TKCM with the example's parameters: pattern length l = 3, k = 2 anchor
    // points, d = 2 reference series.
    let config = TkcmConfig::builder()
        .window_length(12)
        .pattern_length(3)
        .anchor_count(2)
        .reference_count(2)
        .build()
        .expect("valid configuration");
    let mut imputer = TkcmImputer::new(config).expect("valid configuration");

    let detail = imputer
        .impute(&window, SeriesId(0), &[SeriesId(1), SeriesId(2)])
        .expect("imputation succeeds");

    println!("Imputed s(14:20) = {:.2} °C", detail.value);
    println!("Anchor points and their pattern dissimilarities:");
    for anchor in &detail.anchors {
        println!(
            "  tick {:>2}  s = {:>5.2} °C  delta = {:.3}",
            anchor.time.tick(),
            anchor.value,
            anchor.dissimilarity
        );
    }
    let consistency = detail.consistency();
    println!(
        "epsilon = {:.2} °C, consistent imputation: {}",
        consistency.epsilon.unwrap_or(f64::NAN),
        consistency.is_consistent()
    );

    // The paper's expected result: anchors at 14:00 and 13:35, value 21.85 °C.
    assert!((detail.value - 21.85).abs() < 1e-9);
}
