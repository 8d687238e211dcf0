//! Nonblocking send handles.

use std::sync::Arc;

use crate::core::SendSlot;

/// Handle on an outstanding nonblocking send, completed by
/// [`crate::RankCtx::wait`]. The send's transfer time reaches the sender's
/// clock and counters only at the wait, so requests are `#[must_use]`.
#[must_use = "nonblocking operations must be completed with wait()"]
#[derive(Debug)]
pub struct Request(pub(crate) RequestInner);

#[derive(Debug)]
pub(crate) enum RequestInner {
    /// Eager nonblocking send: completion time known at post.
    SendEager {
        /// Sender-side completion (post + cost).
        done: f64,
        /// Words sent (for counters at completion).
        words: u64,
        /// Transfer cost, attributed to comm time at wait.
        cost: f64,
    },
    /// Rendezvous nonblocking send: completion determined by the receiver.
    SendRendezvous { slot: Arc<SendSlot>, post: f64, words: u64 },
}
