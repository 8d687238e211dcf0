//! Nonblocking operation handles.

use std::sync::Arc;

use crate::core::{P2pKey, SendSlot};

/// Handle on an outstanding nonblocking operation, completed by
/// [`crate::RankCtx::wait`]. Dropping an un-waited request is a program bug
/// for receives (the message would never be drained); requests are therefore
/// `#[must_use]`.
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
    /// Nonblocking receive: matched at wait time using the posted time.
    Recv { key: P2pKey, post: f64 },
    /// Already-completed request (returned when an operation degenerates).
    Done,
}

impl Request {
    /// A pre-completed request (no operation outstanding).
    pub fn done() -> Self {
        Request(RequestInner::Done)
    }
}
