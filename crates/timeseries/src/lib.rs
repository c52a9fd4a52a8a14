//! # tkcm-timeseries
//!
//! Time-series stream substrate used by the TKCM imputation engine and all
//! baseline algorithms.
//!
//! The crate models the setting of Section 3 of the paper *Continuous
//! Imputation of Missing Values in Streams of Pattern-Determining Time
//! Series* (EDBT 2017):
//!
//! * a set `S = {s1, s2, ...}` of **streaming time series** reporting values
//!   at discrete time points `..., t_{n-2}, t_{n-1}, t_n`,
//! * a value may be **missing** (`NIL` in the paper, [`None`] here),
//! * a **streaming window** `W` keeps the last `L` measurements of every
//!   series in main memory, one `f64` ring per series (NaN marks a missing
//!   slot) with one shared offset and O(1) advance (Lemma 6.1),
//! * every series has an ordered list of **candidate reference series**; the
//!   first `d` candidates that are alive at the current time are the
//!   reference set `R_s` used for imputation.
//!
//! The crate is self-contained (no external dependencies) and is shared by
//! the TKCM core (`tkcm-core`), the baselines (`tkcm-baselines`), the dataset
//! generators (`tkcm-datasets`) and the experiment harness (`tkcm-eval`).
//!
//! ## Example
//!
//! ```
//! use tkcm_timeseries::{Catalog, SeriesId, SlotState, StreamTick, StreamingWindow, Timestamp};
//!
//! // A window over three streams keeping the last 4 measurements each.
//! let mut window = StreamingWindow::new(3, 4);
//! window
//!     .push_tick(&StreamTick::new(
//!         Timestamp::new(0),
//!         vec![Some(21.5), None, Some(19.8)],
//!     ))
//!     .unwrap();
//! assert_eq!(window.currently_missing(), vec![SeriesId(1)]);
//!
//! // Imputed values are written back with provenance.
//! window.write_imputed(SeriesId(1), 0, 20.6).unwrap();
//! let slot = window.slot_recent(SeriesId(1), 0).unwrap();
//! assert_eq!(slot.value, Some(20.6));
//! assert_eq!(slot.state, SlotState::Imputed);
//!
//! // Reference selection skips candidates that are dead at the current tick.
//! let mut catalog = Catalog::new();
//! catalog
//!     .set_candidates(SeriesId(0), vec![SeriesId(1), SeriesId(2)])
//!     .unwrap();
//! let selection = catalog.select_references(SeriesId(0), 1, |id| id == SeriesId(2));
//! assert_eq!(selection.references, vec![SeriesId(2)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod errors;
pub mod missing;
pub mod partition;
pub mod persist;
pub mod series;
pub mod stats;
pub mod stream;
pub mod timestamp;
pub mod window;

pub use catalog::{Catalog, ReferenceSelection};
pub use errors::TsError;
pub use missing::{GapReport, MissingMask};
pub use partition::{FleetPartition, Migration, PARTITION_FORMAT_VERSION};
pub use series::{SeriesId, TimeSeries};
pub use stats::{mean, pearson, population_std, population_variance, Summary};
pub use stream::{SliceStream, StreamSource, StreamTick};
pub use timestamp::{SampleInterval, Timestamp};
pub use window::{ingest_reading, SlotState, StreamingWindow, WindowSlot};
