//! Golden byte image of one encoded [`StreamingWindow`].
//!
//! `golden/window.bin` was written by the element-by-element ring encoder
//! (one `Vec<T>` element at a time).  Its rings have wrapped, and they hold
//! observed, imputed and missing slots, a `-0.0`, a huge finite reading and
//! an infinite imputed value.  The ring encoders and decoders may change
//! how they move bytes, never which bytes they write: a writer and a reader
//! that changed consistently would still pass every round trip while making
//! existing checkpoint directories unreadable.

use tkcm_store::{decode_from_slice, encode_to_vec};
use tkcm_timeseries::{SeriesId, SlotState, StreamTick, StreamingWindow, Timestamp};

const GOLDEN_WINDOW: &[u8] = include_bytes!("golden/window.bin");

/// Three series in a five-slot window, eight ticks pushed at a 600 s
/// cadence (so every ring wrapped), two of the missing slots imputed.
fn window() -> StreamingWindow {
    let mut window = StreamingWindow::new(3, 5);
    for t in 0..8usize {
        let values = (0..3usize)
            .map(|s| match (t + s) % 4 {
                0 => None,
                _ if t == 5 && s == 2 => Some(-0.0),
                _ if t == 5 && s == 0 => Some(1e300),
                _ => Some(((t * 3 + s) as f64 * 0.7).sin() * 100.0),
            })
            .collect();
        window
            .push_tick(&StreamTick::new(Timestamp::new(600 * t as i64), values))
            .unwrap();
    }
    window.write_imputed(SeriesId(0), 3, 42.25).unwrap();
    window.write_imputed(SeriesId(2), 1, f64::INFINITY).unwrap();
    window
}

/// Every slot of a window, oldest first, as `(state, value bits, time)`.
fn slots(window: &StreamingWindow) -> Vec<(SlotState, Option<u64>, Option<Timestamp>)> {
    let mut out = Vec::new();
    for series in 0..window.width() {
        for age in (0..window.filled()).rev() {
            let slot = window.slot_recent(SeriesId::from(series), age).unwrap();
            out.push((
                slot.state,
                slot.value.map(f64::to_bits),
                window.time_of_age(age),
            ));
        }
    }
    out
}

#[test]
fn the_window_holds_every_slot_kind_in_wrapped_rings() {
    let window = window();
    assert_eq!(window.ticks_seen(), 8);
    assert_eq!(window.filled(), 5);
    let states: Vec<SlotState> = slots(&window).into_iter().map(|s| s.0).collect();
    for kind in [SlotState::Observed, SlotState::Imputed, SlotState::Missing] {
        assert!(states.contains(&kind), "no {kind:?} slot");
    }
}

#[test]
fn a_window_encodes_to_the_golden_bytes() {
    assert_eq!(encode_to_vec(&window()).unwrap(), GOLDEN_WINDOW);
}

#[test]
fn the_golden_window_decodes_back() {
    let back: StreamingWindow = decode_from_slice(GOLDEN_WINDOW).unwrap();
    let want = window();
    assert_eq!(back.length(), want.length());
    assert_eq!(back.width(), want.width());
    assert_eq!(back.ticks_seen(), want.ticks_seen());
    assert_eq!(back.current_time(), want.current_time());
    assert_eq!(slots(&back), slots(&want));
    assert_eq!(encode_to_vec(&back).unwrap(), GOLDEN_WINDOW);
}
