//! Shared parallelism context of the executor's phases.
//!
//! Every phase of [`crate::executor::Executor::execute`] (map/shuffle, local joins,
//! verification) honours the same `threads` knob of
//! [`crate::executor::ExecutorConfig`]. The dispatch (sequential / ambient pool /
//! bounded pool) lives in [`recpart::parallel`] so the RecPart optimizer's own
//! `threads` knob runs on the exact same plumbing; this module just re-exports it for
//! the executor's internal use.

pub(crate) use recpart::{chunk_ranges, Parallelism, Threads};
