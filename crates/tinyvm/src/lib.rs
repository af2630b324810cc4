//! TinyVM: a runtime performing real OSR transitions over `ssair` functions
//! (the role OSRKit + MCJIT play in §5.4 and §6.1 of the paper).
//!
//! * [`FunctionVersions`] pairs a baseline function with its optimized
//!   clone and the recorded `CodeMapper`;
//! * [`continuation::extract_continuation`] generates the `f'to`
//!   continuation function: a specialization of the target version whose
//!   unique entry is the OSR landing point, with unreachable blocks pruned
//!   (§5.4);
//! * [`runtime::Vm::run_tiered`] is the one execution loop: it runs a
//!   version — on the SSA interpreter or on its register-machine artifact —
//!   under a [`profile::TierController`], and serves every
//!   [`profile::TierDecision`] the controller returns through one handler
//!   and one landing routine: look the paused point up in an entry table
//!   (precomputed, composed, or reconstructed on demand), run the
//!   compensation code on the live state, resume at the landing.  Ladder
//!   hops in either direction, cross-function inline exits and
//!   run-to-completion transitions differ only in what follows the
//!   landing;
//! * [`runtime::Vm::run_with_osr`] and [`runtime::Vm::run_with_deopt`] are
//!   that loop under a fixed-threshold controller: an optimizing OSR at a
//!   hot loop header, and the deoptimizing transition a debugger attach
//!   triggers (§7);
//! * every transition is recorded as an [`runtime::OsrEvent`] for
//!   inspection and testing.
//!
//! # Examples
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use ssair::interp::Val;
//! use tinyvm::{FunctionVersions, runtime::{OsrPolicy, Vm}};
//!
//! let module = minic::compile(
//!     "fn sum(n) {
//!          var s = 0;
//!          for (var i = 0; i < n; i = i + 1) { s = s + i * i; }
//!          return s;
//!      }",
//! )?;
//! let versions = FunctionVersions::standard(module.get("sum").unwrap().clone());
//! let mut vm = Vm::new(module);
//! let (result, events) = vm.run_with_osr(&versions, &[Val::Int(100)], &OsrPolicy::default())?;
//! assert_eq!(result, Some(Val::Int((0..100).map(|i| i * i).sum())));
//! assert!(!events.is_empty(), "the hot loop triggered an OSR");
//! # Ok(())
//! # }
//! ```

pub mod continuation;
pub mod profile;
pub mod runtime;
mod versions;

pub use versions::FunctionVersions;
