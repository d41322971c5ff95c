//! Helpers shared by the solver crate's integration tests.

pub mod greedy_reference;
