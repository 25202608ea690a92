//! Request-plane workload model for the CDN consistency simulator.
//!
//! The consistency plane (cdnc-core) models how *updates* reach edge
//! servers; this crate models the *requests* those edges serve, so the
//! simulator can answer the production question the paper stops short of:
//! how stale was the byte a real user got, and how long did they wait?
//!
//! * [`Catalog`] — Zipf-popularity object catalog with publish/perish
//!   churn and deterministic rank re-normalisation.
//! * [`LruCache`] — per-edge LRU cache with delayed-hit coalescing
//!   (concurrent misses share one origin fetch) and an optional MAD-aware
//!   eviction variant.
//!
//! Everything here is a pure function of a seeded [`cdnc_simcore::SimRng`]
//! stream and the request order, so the workload plane inherits the
//! simulator's bit-identical determinism across runs and worker counts.

pub mod cache;
pub mod catalog;

pub use cache::{Lookup, LruCache, Waiter, Waiters};
pub use catalog::{Catalog, ObjectId};
