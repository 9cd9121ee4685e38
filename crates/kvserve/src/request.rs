//! The service request/response model.
//!
//! A front-end speaks to the service in [`Request`]s — point operations,
//! window scans, and the batched [`Request::MGet`]/[`Request::MPut`] that
//! let a client amortize per-request overhead — and receives one
//! [`Response`] per request.  Requests are plain data: they can be built
//! directly, or encoded to / decoded from the compact wire format in
//! [`crate::codec`].
//!
//! Semantics follow the underlying engine ([`abtree::MapHandle`]):
//! `Put` is **insert-if-absent** (it returns the existing value, unchanged,
//! when the key is already present), `Delete` returns the removed value, and
//! a `Scan` covers the inclusive key window `[lo, lo + len - 1]`.

/// One service request over the engine's 8-byte keys and values.
///
/// Keys (including a `Scan`'s `lo`) must not be the engine's reserved
/// sentinel ([`abtree::EMPTY_KEY`], `u64::MAX`): the wire codec rejects
/// such frames on decode and panics on encode, and the router asserts on
/// direct misuse.  A `Scan`'s `len` is additionally capped at
/// [`crate::codec::MAX_DECODED_LEN`] *on the wire* — which also bounds the
/// size of any `Entries` response a decoded frame can produce — while
/// routers accept larger windows from embedded callers (e.g. a full-range
/// dump), whose oversized results only matter if re-encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point lookup of `key`.
    Get {
        /// The key to look up.
        key: u64,
    },
    /// Insert-if-absent of `key -> value` (see [`abtree::MapHandle::insert`]).
    Put {
        /// The key to insert.
        key: u64,
        /// The value to associate with `key` if it is absent.
        value: u64,
    },
    /// Removal of `key`.
    Delete {
        /// The key to remove.
        key: u64,
    },
    /// Range scan over the window `[lo, lo + len - 1]` (clamped below the
    /// engine's reserved sentinel key).
    Scan {
        /// First key of the window.
        lo: u64,
        /// Window length in keys (`0` yields an empty result).
        len: u64,
    },
    /// Batched multi-get: one lookup per key, results in input order.
    MGet {
        /// The keys to look up.
        keys: Vec<u64>,
    },
    /// Batched multi-put: one insert-if-absent per pair, results in input
    /// order.
    MPut {
        /// The `(key, value)` pairs to insert.
        pairs: Vec<(u64, u64)>,
    },
    /// Telemetry scrape: a point-in-time snapshot of every metric the
    /// service's [`obs::Registry`] knows about, answered with
    /// [`Response::Stats`].  Served by the router without touching a
    /// shard, so it does not perturb — and is not counted in — the
    /// per-shard operation counters.
    Stats,
}

/// The response to one [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Result of a point op: the looked-up value (`Get`), the pre-existing
    /// value that made the insert a no-op (`Put`), or the removed value
    /// (`Delete`).
    Value(Option<u64>),
    /// Results of a batch (`MGet`/`MPut`), one entry per input in input
    /// order, with the same per-entry meaning as [`Response::Value`].
    Values(Vec<Option<u64>>),
    /// Result of a `Scan`: the `(key, value)` pairs stored in the window,
    /// sorted by key.
    Entries(Vec<(u64, u64)>),
    /// The request was shed without executing: the client already had its
    /// full budget of requests in flight (see
    /// [`crate::router::Overloaded`]).  A front-end answers with this
    /// instead of blocking its event loop; the client may retry.
    Overloaded,
    /// A protocol-level failure: the server could not (or refused to)
    /// serve the client's frame — a corrupt batch, an oversized length
    /// prefix, a malformed frame header.  Carries a machine-readable
    /// reason `code` (the `netserve` front end defines the codes it
    /// sends); a server closes the connection after sending it.
    Error {
        /// Machine-readable reason code.
        code: u64,
    },
    /// Result of a [`Request::Stats`] scrape: the Prometheus-style text
    /// exposition of every registered metric at the moment the router
    /// served the request (parse it with [`obs::expo::parse`]).
    Stats(String),
}
