//! # cdnc-simcore
//!
//! Deterministic discrete-event simulation engine underpinning the whole
//! `cdn-live-consistency` workspace.
//!
//! The engine is intentionally small and fully deterministic:
//!
//! * [`SimTime`] / [`SimDuration`] — simulated instants and spans counted in
//!   integer microseconds, so no floating-point drift can creep into event
//!   ordering.
//! * [`EventQueue`] — a priority queue of `(SimTime, E)` pairs with *stable*
//!   FIFO tie-breaking, so two runs with the same seed produce bit-identical
//!   schedules.
//! * [`Scheduler`] — an event queue fused with a clock, the main driver loop
//!   used by the crawl simulator and the CDN evaluation simulator.
//! * [`SimRng`] — a seedable random source with the distribution helpers the
//!   paper's workloads need (uniform, exponential, bounded normal) and
//!   deterministic stream forking.
//! * [`stats`] — CDFs, percentiles, Pearson correlation and RMSE: the
//!   estimators used throughout the paper's §3 analysis.
//!
//! # Examples
//!
//! ```
//! use cdnc_simcore::{Scheduler, SimDuration, SimTime};
//!
//! let mut sched: Scheduler<&str> = Scheduler::new();
//! sched.schedule_in(SimDuration::from_secs(10), "poll");
//! sched.schedule_in(SimDuration::from_secs(5), "update");
//! let (t, what) = sched.next().unwrap();
//! assert_eq!(what, "update");
//! assert_eq!(t, SimTime::from_secs(5));
//! ```

pub mod ckpt;
pub mod queue;
pub mod rng;
pub mod scheduler;
pub mod stats;
pub mod time;

pub use queue::EventQueue;
pub use rng::{derive_seed, derive_stream, stream_tag, SimRng, Zipf};
pub use scheduler::Scheduler;
pub use time::{SimDuration, SimTime};
