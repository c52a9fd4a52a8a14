//! # tkcm-obs
//!
//! The workspace's observability substrate: one coherent, dependency-free
//! layer every other crate records into, and two export surfaces the
//! outside world reads from.
//!
//! Three building blocks:
//!
//! 1. **Metrics registry** ([`metrics`]) — counters, gauges and fixed-bucket
//!    log-scale histograms, all updated with relaxed atomics.  Handles are
//!    registered once by static name + label set and then recorded into
//!    without any lock; p50/p90/p99 are readable from the histogram buckets
//!    without stopping writers.
//! 2. **Span tracing** ([`span`](mod@span)) — lightweight begin/end spans with a
//!    per-thread stack.  Closing a span records a structured event (name,
//!    parent, depth, nanos) into the flight recorder.
//! 3. **Flight recorder** ([`recorder`](mod@recorder)) — a bounded ring of recent
//!    structured events (batches, checkpoints, rotations, migrations, WAL
//!    fsyncs, recovery steps, prune summaries).  The runtime dumps it to a
//!    timestamped JSON file whenever the fleet poisons or a checkpoint /
//!    recovery fails, so the last moments before a crash are always
//!    inspectable.
//!
//! Export encoders ([`export`]) render the registry as Prometheus-style
//! text exposition or as the repo's hand-rolled JSON.
//!
//! ## Read-side only
//!
//! Observability is strictly *read-side*: imputation and maintenance logic
//! records values but never reads them back, so every bit-identity
//! equivalence property of the workspace holds verbatim with observability
//! enabled.  The `obs-read-only` rule in `tkcm-lint` mechanizes this for
//! `crates/core`.
//!
//! ## Global handles and the enable switch
//!
//! Most callers use the process-global [`registry()`] and [`recorder()`] so
//! constructors never change signatures; isolated [`metrics::Registry::new`]
//! / [`recorder::FlightRecorder::with_capacity`] instances exist for tests.
//! [`set_enabled`]`(false)` turns every recording operation into a cheap
//! early-out (one relaxed atomic load), which is what the benchmark
//! obs-overhead sweep compares against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod recorder;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub use metrics::{Counter, Gauge, Histogram, HistogramCheckpoint, HistogramDelta, Registry};
pub use recorder::{Event, FieldValue, FlightRecorder};
pub use span::SpanGuard;

/// Capacity of the process-global flight recorder: enough for the last few
/// thousand batch/span/checkpoint events without holding more than a few MB.
pub const DEFAULT_RECORDER_CAPACITY: usize = 4096;

/// Global record-enable switch.  `true` by default; flipping it off makes
/// every counter/gauge/histogram/recorder write a single relaxed load plus
/// an early return.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether recording is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables all recording process-wide.  Exists for the
/// obs-overhead benchmark sweep (obs-on vs obs-off ticks/s); production
/// callers leave it on.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-global metrics registry every layer records into.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-global flight recorder
/// ([`DEFAULT_RECORDER_CAPACITY`] slots).
pub fn recorder() -> &'static FlightRecorder {
    RECORDER.get_or_init(|| FlightRecorder::with_capacity(DEFAULT_RECORDER_CAPACITY))
}

/// Opens a span on this thread's span stack; the returned guard records a
/// `span` event into the global [`recorder()`] when dropped.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::enter(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests that toggle or depend on the global enable switch serialize on
    /// this lock so a disabled window never swallows a concurrent test's
    /// recordings.
    pub(crate) fn enabled_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabling_turns_recording_into_a_no_op() {
        let _guard = enabled_lock();
        let registry = Registry::new();
        let counter = registry.counter("tkcm_test_toggle_total", &[]);
        let histogram = registry.histogram("tkcm_test_toggle_nanos", &[]);
        counter.inc();
        histogram.record(10);
        set_enabled(false);
        counter.inc();
        histogram.record(10);
        set_enabled(true);
        counter.inc();
        assert_eq!(counter.value(), 2);
        assert_eq!(histogram.observed_count(), 1);
    }

    #[test]
    fn global_registry_and_recorder_are_singletons() {
        let _guard = enabled_lock();
        let a = registry() as *const Registry;
        let b = registry() as *const Registry;
        assert_eq!(a, b);
        assert_eq!(recorder().capacity(), DEFAULT_RECORDER_CAPACITY);
    }
}
