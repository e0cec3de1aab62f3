//! Error taxonomy for fallible solves.
//!
//! Two layers, mirroring the two layers of the stack:
//!
//! * [`BackendError`] — one backend *operation* failed: the basis turned
//!   out singular during reinversion, or the (simulated) device returned a
//!   [`DeviceError`] (injected fault or genuine capacity overflow).
//! * [`SolveError`] — a whole *solve* could not produce a
//!   [`crate::Status`]. Ordinary outcomes (optimal, infeasible, unbounded,
//!   iteration limit, singular basis) are statuses, not errors; a
//!   `SolveError` means the solve was cut short by machinery, not
//!   mathematics.
//!
//! The fallible entry points ([`crate::SolveRequest`]'s `run`,
//! [`crate::revised::RevisedSimplex::try_solve`]) return these;
//! `RevisedSimplex::solve` keeps the historical panic-on-device-failure
//! behavior by unwrapping them. [`crate::resilient::ResilientSolver`] is the layer
//! that turns `SolveError`s into retries and backend degradation.

use std::fmt;

use gpu_sim::DeviceError;

/// Failure of a single backend operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The basis matrix is numerically singular (reinversion failed).
    Singular,
    /// The (simulated) device failed.
    Device(DeviceError),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Singular => write!(f, "basis matrix is numerically singular"),
            BackendError::Device(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<DeviceError> for BackendError {
    fn from(e: DeviceError) -> Self {
        BackendError::Device(e)
    }
}

/// Why a solve failed to produce a [`crate::Status`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The device failed and the driver could not continue (OOM, transfer
    /// timeout, launch failure, or a dead stream).
    Device(DeviceError),
    /// The numerics collapsed beyond what reinversion could repair
    /// (non-finite values kept reappearing after the recovery budget).
    Numerical(String),
    /// The per-solve deadline expired before termination.
    Timeout {
        /// Wall-clock seconds elapsed when the deadline check fired.
        elapsed_seconds: f64,
        /// The configured limit ([`crate::SolverOptions::time_limit`]).
        limit_seconds: f64,
    },
    /// The solve panicked; a resilience layer caught it.
    Panicked(String),
}

impl SolveError {
    /// Short machine-friendly tag for tables and CSV (parallel to
    /// [`crate::Status::tag`]).
    pub fn tag(&self) -> &'static str {
        match self {
            SolveError::Device(_) => "device-fault",
            SolveError::Numerical(_) => "numerical",
            SolveError::Timeout { .. } => "timeout",
            SolveError::Panicked(_) => "panicked",
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Device(e) => write!(f, "device failure: {e}"),
            SolveError::Numerical(why) => write!(f, "numerical failure: {why}"),
            SolveError::Timeout {
                elapsed_seconds,
                limit_seconds,
            } => write!(
                f,
                "solve exceeded its time limit: {elapsed_seconds:.3} s elapsed > \
                 {limit_seconds:.3} s allowed"
            ),
            SolveError::Panicked(msg) => write!(f, "solve panicked: {msg}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<BackendError> for SolveError {
    fn from(e: BackendError) -> Self {
        match e {
            BackendError::Device(d) => SolveError::Device(d),
            // Ordinary singularity surfaces as `Status::SingularBasis`; a
            // `Singular` reaching this conversion escaped the driver's
            // status mapping, which only happens when recovery machinery
            // itself hit it.
            BackendError::Singular => {
                SolveError::Numerical("basis matrix is numerically singular".into())
            }
        }
    }
}

impl From<DeviceError> for SolveError {
    fn from(e: DeviceError) -> Self {
        SolveError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_error_displays() {
        assert_eq!(
            BackendError::Singular.to_string(),
            "basis matrix is numerically singular"
        );
        let dev = BackendError::from(DeviceError::StreamDead);
        assert_eq!(dev.to_string(), "simulated stream died; context is lost");
    }

    #[test]
    fn solve_error_tags_are_stable() {
        assert_eq!(
            SolveError::Device(DeviceError::StreamDead).tag(),
            "device-fault"
        );
        assert_eq!(SolveError::Numerical("x".into()).tag(), "numerical");
        assert_eq!(
            SolveError::Timeout {
                elapsed_seconds: 2.0,
                limit_seconds: 1.0
            }
            .tag(),
            "timeout"
        );
        assert_eq!(SolveError::Panicked("boom".into()).tag(), "panicked");
    }

    #[test]
    fn conversions_route_correctly() {
        let e: SolveError = BackendError::Device(DeviceError::StreamDead).into();
        assert_eq!(e, SolveError::Device(DeviceError::StreamDead));
        let e: SolveError = BackendError::Singular.into();
        assert!(matches!(e, SolveError::Numerical(_)));
    }
}
