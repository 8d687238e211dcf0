//! Typed simulator errors.
//!
//! A simulated program that deadlocks (every rank parked with no possible
//! progress) or constructs an impossible communicator used to die with a
//! bare `panic!` string. Those panics now carry a [`SimError`] payload via
//! [`std::panic::panic_any`], so harnesses — the cross-backend deadlock-shape
//! oracles in particular — can assert on the *kind* of failure instead of
//! substring-matching a message. [`std::fmt::Display`] keeps the historical
//! "simulated deadlock: …" wording for human eyes and for older tests.

/// Which blocking operation a rank was parked in when the simulation was
/// found deadlocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StuckOp {
    /// A (blocking or nonblocking) receive that never matched a send.
    Recv,
    /// A rendezvous-mode send whose receiver never arrived.
    SendRendezvous,
    /// A collective with missing participants.
    Collective,
}

/// Typed payload of a simulator-detected failure, raised with
/// [`std::panic::panic_any`] on the affected rank and re-raised on the
/// calling thread by the runner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A deadlock: the rank is parked and no live rank is left to release
    /// it (every other rank has exited or is parked too).
    Stuck {
        /// The operation the reporting rank was parked in.
        op: StuckOp,
        /// Communicator id of the stuck operation.
        comm: u64,
        /// Human-readable diagnostic (operation, peers, arrival counts).
        detail: String,
    },
    /// A communicator with zero members was constructed.
    EmptyCommunicator,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stuck { detail, .. } => write!(f, "simulated deadlock: {detail}"),
            SimError::EmptyCommunicator => {
                write!(f, "channel requires at least one member (zero-member communicator)")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Extract a [`SimError`] from a caught panic payload, if it carries one.
pub fn sim_error_of(payload: &(dyn std::any::Any + Send)) -> Option<&SimError> {
    payload.downcast_ref::<SimError>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_deadlock_wording() {
        let e =
            SimError::Stuck { op: StuckOp::Recv, comm: 7, detail: "receive never matched".into() };
        assert_eq!(e.to_string(), "simulated deadlock: receive never matched");
        assert!(SimError::EmptyCommunicator.to_string().contains("at least one member"));
    }

    #[test]
    fn payload_roundtrips_through_panic_any() {
        let err = std::panic::catch_unwind(|| {
            std::panic::panic_any(SimError::EmptyCommunicator);
        })
        .unwrap_err();
        assert_eq!(sim_error_of(err.as_ref()), Some(&SimError::EmptyCommunicator));
    }
}
