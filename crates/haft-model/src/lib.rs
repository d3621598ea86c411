//! Probabilistic availability model (the paper's PRISM substitute).
//!
//! The paper models HAFT's long-run behaviour as a continuous-time Markov
//! chain (Figure 5): the system leaves the `Correct` state at rate
//! `λ · p(outcome)` — with the outcome probabilities measured by fault
//! injection (Table 4) — and returns at outcome-specific recovery rates
//! (6 h manual recovery, 10 s reboot, 2.5 µs transactional rollback).
//! Figure 10 plots the expected fraction of one hour spent available or
//! corrupted as the fault rate sweeps from once an hour to once a second.
//!
//! This crate implements a small dense-CTMC library with an exact
//! transient solver — the expected state occupancy over a finite horizon,
//! read off one matrix exponential of a block matrix (Van Loan) — and the
//! four-state HAFT chain on top of it. The solve's cost grows only with
//! the logarithm of the rates, so the chain keeps the paper's 2.5 µs
//! transactional recovery beside its 6 h manual one.

pub mod ctmc;
pub mod haft_chain;

pub use ctmc::Ctmc;
pub use haft_chain::{AvailabilityPoint, FaultProbabilities, HaftChain, RecoveryRates, SystemKind};
