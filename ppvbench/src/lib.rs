//! `ppvbench`: the repo's one benchmark — a client of the FastPPV public
//! API that stands the product up in-process, drives it over loopback
//! TCP, checks what comes back, and prints every metric by name with its
//! unit. `README.md` has the design; `main.rs` the command line.

// `new()` here reads a clock, a mask or `/proc`: a `Default` would hide that.
#![allow(clippy::new_without_default)]

pub mod affinity;
pub mod check;
pub mod compare;
pub mod deploy;
pub mod host;
pub mod inputs;
pub mod json;
pub mod profile;
pub mod run;
pub mod stats;
pub mod trace;
