//! Satellite: the deoptimization round-trip.  Running the *optimized*
//! version of a kernel, firing a backward (tier-down) OSR mid-loop via
//! `reconstruct`-built compensation code, and finishing in the baseline
//! version must produce exactly the result of pure-baseline
//! interpretation.

use std::sync::Arc;

use ssair::interp::Val;
use ssair::reconstruct::{Direction, Variant};
use tinyvm::runtime::{DeoptPolicy, TransitionOptions, Vm};
use tinyvm::FunctionVersions;

/// Small, loop-heavy kernels that keep the test fast in debug builds.
const KERNELS: &[&str] = &["soplex", "fhourstones", "dcraw", "bullet", "hmmer"];

#[test]
fn deopt_round_trip_matches_pure_baseline() {
    let mut fired = Vec::new();
    for name in KERNELS {
        let kernel = workloads::kernel_source(name).expect("kernel exists");
        let module = minic::compile(&kernel.source).expect("kernel compiles");
        let versions = Arc::new(FunctionVersions::standard(
            module.get(kernel.entry).expect("entry exists").clone(),
        ));
        let vm = Vm::new(module);
        let args: Vec<Val> = kernel.sample_args.iter().map(|n| Val::Int(*n)).collect();
        let expected = vm
            .run_plain(&versions.base, &args)
            .expect("baseline interpretation");
        for use_continuation in [true, false] {
            let policy = DeoptPolicy {
                after_visits: 2,
                options: TransitionOptions {
                    variant: Variant::Avail,
                    use_continuation,
                },
            };
            let (got, events) = vm
                .run_with_deopt(&versions, &args, &policy, None)
                .expect("deopt run");
            assert_eq!(
                got, expected,
                "{name}: optimized-frame -> reconstruct -> baseline-frame \
                 must equal pure-baseline interpretation (continuation={use_continuation})"
            );
            for e in &events {
                assert_eq!(e.direction, Direction::Backward, "{name}: only deopts");
            }
            if use_continuation && !events.is_empty() {
                fired.push(*name);
            }
        }
    }
    assert!(
        fired.len() >= 3,
        "a tier-down transition must actually fire on at least 3 kernels; fired on {fired:?}"
    );
}

#[test]
fn deopt_round_trip_through_precomputed_table() {
    // Same round-trip, but served from the precomputed backward entry
    // table a code cache stores (the engine's tier-down path).
    use ssair::feasibility::precompute_entries;

    let mut fired = 0;
    for name in &["soplex", "fhourstones", "dcraw"] {
        let kernel = workloads::kernel_source(name).expect("kernel exists");
        let module = minic::compile(&kernel.source).expect("kernel compiles");
        let versions = Arc::new(FunctionVersions::standard(
            module.get(kernel.entry).expect("entry exists").clone(),
        ));
        let table = Arc::new(precompute_entries(
            &versions.pair(),
            Direction::Backward,
            Variant::Avail,
        ));
        let vm = Vm::new(module);
        let args: Vec<Val> = kernel.sample_args.iter().map(|n| Val::Int(*n)).collect();
        let expected = vm.run_plain(&versions.base, &args).expect("baseline");
        let (got, events) = vm
            .run_with_deopt(&versions, &args, &DeoptPolicy::default(), Some(&table))
            .expect("deopt run");
        assert_eq!(got, expected, "{name}: table-served deopt round-trip");
        fired += events.len();
    }
    assert!(fired > 0, "at least one table-served deopt fired");
}
