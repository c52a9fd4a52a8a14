//! Error type shared by the time-series substrate.

use std::fmt;

use crate::series::SeriesId;
use crate::timestamp::Timestamp;

/// Errors produced by the time-series substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum TsError {
    /// A series referred to by id does not exist in the catalog/window.
    UnknownSeries(SeriesId),
    /// A timestamp lies outside the streaming window or the series range.
    TimeOutOfRange {
        /// The requested timestamp.
        requested: Timestamp,
        /// Earliest available timestamp.
        earliest: Timestamp,
        /// Latest available timestamp.
        latest: Timestamp,
    },
    /// An invalid configuration parameter (window length, pattern length, ...).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable explanation.
        message: String,
    },
    /// Two inputs that must have equal length differ in length.
    LengthMismatch {
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
        /// Description of what was being compared.
        context: &'static str,
    },
    /// Failure while parsing or writing CSV data.
    Io(String),
}

impl TsError {
    /// Convenience constructor for [`TsError::InvalidParameter`].
    pub fn invalid(name: &'static str, message: impl Into<String>) -> Self {
        TsError::InvalidParameter {
            name,
            message: message.into(),
        }
    }
}

impl fmt::Display for TsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsError::UnknownSeries(id) => write!(f, "unknown series {id}"),
            TsError::TimeOutOfRange {
                requested,
                earliest,
                latest,
            } => write!(
                f,
                "timestamp {requested} outside available range [{earliest}, {latest}]"
            ),
            TsError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            TsError::LengthMismatch {
                left,
                right,
                context,
            } => write!(
                f,
                "length mismatch in {context}: left has {left} elements, right has {right}"
            ),
            TsError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for TsError {}

impl From<std::io::Error> for TsError {
    fn from(e: std::io::Error) -> Self {
        TsError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TsError::UnknownSeries(SeriesId(3));
        assert!(e.to_string().contains("unknown series"));

        let e = TsError::TimeOutOfRange {
            requested: Timestamp::new(10),
            earliest: Timestamp::new(0),
            latest: Timestamp::new(5),
        };
        assert!(e.to_string().contains("t10"));
        assert!(e.to_string().contains("t5"));

        let e = TsError::invalid("l", "pattern length must be positive");
        assert!(e.to_string().contains("`l`"));

        let e = TsError::LengthMismatch {
            left: 2,
            right: 3,
            context: "pearson",
        };
        assert!(e.to_string().contains("pearson"));

        let io: TsError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&TsError::UnknownSeries(SeriesId(0)));
    }
}
