//! Concurrency stress: 8 client threads × 200 mixed hot/cold requests
//! against one in-process service.
//!
//! Asserts (mirroring the PR 3 batch-determinism test):
//! * no deadlock (the test finishes; `scripts/ci.sh` adds a timeout
//!   guard);
//! * single-flight dedup — the solver runs exactly once per unique
//!   key, checked via the `serve.plan.compiles` Obs counter;
//! * every response is byte-identical to that key's cold compile, on
//!   whichever compiler thread it ran.

use std::collections::HashMap;
use std::sync::Arc;

use aqua_dag::Dag;
use aqua_obs::Obs;
use aqua_rational::rng::XorShift64Star;
use aqua_serve::{canonicalize, Service, ServiceConfig};
use aqua_volume::Machine;

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 200;
const UNIQUE_ASSAYS: usize = 25;

/// Assay `i`: a small mix chain whose ratios depend on `i`, so every
/// index canonicalizes to a distinct key and solves quickly.
fn assay(i: usize) -> Dag {
    let mut d = Dag::new();
    let a = d.add_input("A");
    let b = d.add_input("B");
    let m1 = d
        .add_mix("m1", &[(a, 1), (b, i as u64 + 2)], 10)
        .expect("valid mix");
    d.add_process("s1", "sense.OD", m1);
    let m2 = d
        .add_mix("m2", &[(a, 2 * i as u64 + 1), (b, 3)], 10)
        .expect("valid mix");
    d.add_process("s2", "sense.OD", m2);
    d
}

#[test]
fn stress_hot_cold_mix_is_deadlock_free_and_deduplicated() {
    let (obs, sink) = Obs::recording();
    let service = Arc::new(Service::new(ServiceConfig {
        obs,
        ..ServiceConfig::default()
    }));
    let machine = Machine::paper_default();
    let weights = HashMap::new();

    let assays: Vec<Dag> = (0..UNIQUE_ASSAYS).map(assay).collect();
    let keys: Vec<u128> = assays
        .iter()
        .map(|d| canonicalize(d, &weights, &machine).expect("canon").key)
        .collect();
    {
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), UNIQUE_ASSAYS, "assays must be distinct");
    }

    // Fire the mixed workload: each client walks its own seeded
    // schedule over the assay set, so early requests race cold while
    // later ones are hot.
    let results: Vec<Vec<(usize, Arc<str>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let service = Arc::clone(&service);
                let assays = &assays;
                let machine = &machine;
                let weights = &weights;
                scope.spawn(move || {
                    let mut rng = XorShift64Star::new(0xC0FFEE + c as u64);
                    let mut got = Vec::with_capacity(REQUESTS_PER_CLIENT);
                    for _ in 0..REQUESTS_PER_CLIENT {
                        let i = rng.index(assays.len());
                        let served = service
                            .submit_dag(&assays[i], weights, machine, None)
                            .expect("request succeeds");
                        got.push((i, served.plan));
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });

    // Single-flight: with a cache big enough to never evict, the solver
    // ran exactly once per unique key despite 1600 requests.
    let snap = sink.snapshot();
    assert_eq!(
        snap.counter("serve.plan.compiles"),
        UNIQUE_ASSAYS as u64,
        "solver must run exactly once per unique key"
    );
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    assert_eq!(snap.counter("serve.cache.insert"), UNIQUE_ASSAYS as u64);
    assert!(
        snap.counter("serve.cache.hit") >= total - UNIQUE_ASSAYS as u64 * CLIENTS as u64,
        "most requests must be cache hits"
    );

    // Every response matches that assay's cold compile, regardless of
    // which thread got it or whether it was hot or cold.
    let fresh = Service::new(ServiceConfig::default());
    let cold: Vec<Arc<str>> = assays
        .iter()
        .map(|d| {
            fresh
                .submit_dag(d, &weights, &machine, None)
                .expect("cold compile")
                .plan
        })
        .collect();
    for (client, got) in results.iter().enumerate() {
        assert_eq!(got.len(), REQUESTS_PER_CLIENT);
        for (i, plan) in got {
            assert_eq!(
                plan, &cold[*i],
                "client {client} assay {i}: response differs from cold compile"
            );
        }
    }
}
