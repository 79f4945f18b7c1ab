//! Differential cache-equivalence properties (seeded, dependency-free).
//!
//! The service's core promise: a warm-cache response is byte-identical
//! to a cold compile, for the original request AND for any
//! node-permuted or fluid-renamed variant of it — while requests that
//! mean something different (other mix ratios, other machine) never
//! share a cache entry.

use std::collections::HashMap;
use std::sync::Arc;

use aqua_assays::synthetic::{layered_dag, LayeredConfig};
use aqua_dag::Dag;
use aqua_rational::rng::XorShift64Star;
use aqua_serve::{canonicalize, Service, ServiceConfig};
use aqua_volume::Machine;

/// Rebuilds `dag` with its nodes declared in a seeded random order and
/// every fluid renamed — the same computation spelled maximally
/// differently.
fn permuted_renamed_rebuild(dag: &Dag, seed: u64) -> Dag {
    let mut rng = XorShift64Star::new(seed);
    let ids: Vec<_> = dag.node_ids().collect();
    let mut order: Vec<usize> = (0..ids.len()).collect();
    // Fisher-Yates with the seeded xorshift.
    for i in (1..order.len()).rev() {
        order.swap(i, rng.index(i + 1));
    }
    let mut rebuilt = Dag::new();
    let mut new_ids = vec![None; ids.len()];
    for &old_idx in &order {
        let node = dag.node(ids[old_idx]);
        new_ids[old_idx] =
            Some(rebuilt.add_node(format!("renamed_{}_{}", seed, old_idx), node.kind.clone()));
    }
    // Edges in a scrambled order too.
    let mut edges: Vec<_> = dag.edge_ids().collect();
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.index(i + 1));
    }
    for e in edges {
        let edge = dag.edge(e);
        let src = new_ids[edge.src.index()].expect("mapped");
        let dst = new_ids[edge.dst.index()].expect("mapped");
        rebuilt.add_edge(src, dst, edge.fraction);
    }
    rebuilt
}

fn two_input_mix(parts: &[(u64, u64)]) -> Dag {
    let mut d = Dag::new();
    let a = d.add_input("A");
    let b = d.add_input("B");
    for (i, &(pa, pb)) in parts.iter().enumerate() {
        let m = d
            .add_mix(format!("m{i}"), &[(a, pa), (b, pb)], 10)
            .expect("valid mix");
        d.add_process(format!("s{i}"), "sense.OD", m);
    }
    d
}

#[test]
fn random_dags_warm_equals_cold_under_permutation_and_renaming() {
    let machine = Machine::paper_default();
    let weights = HashMap::new();
    let service = Service::new(ServiceConfig::default());
    for seed in 0..12u64 {
        let config = LayeredConfig {
            inputs: 3 + (seed as usize % 3),
            layers: 1 + (seed as usize % 3),
            width: 2 + (seed as usize % 2),
            ..LayeredConfig::default()
        };
        let dag = layered_dag(seed * 7 + 1, &config);
        let variant = permuted_renamed_rebuild(&dag, seed * 131 + 5);
        let ck = canonicalize(&dag, &weights, &machine).expect("canon");
        let cv = canonicalize(&variant, &weights, &machine).expect("canon");
        assert_eq!(ck.key, cv.key, "seed {seed}: variant changed the key");
        assert_eq!(
            ck.encoding, cv.encoding,
            "seed {seed}: variant changed the canonical encoding"
        );

        // Cold compile (fresh service), then warm hits on the shared
        // service for both spellings: all three byte-identical.
        let fresh = Service::new(ServiceConfig::default());
        let cold = fresh
            .submit_dag(&dag, &weights, &machine, None)
            .expect("cold compiles");
        let first = service
            .submit_dag(&dag, &weights, &machine, None)
            .expect("first submit");
        let warm = service
            .submit_dag(&variant, &weights, &machine, None)
            .expect("warm variant");
        assert_eq!(first.key, warm.key, "seed {seed}");
        assert_eq!(
            first.plan, warm.plan,
            "seed {seed}: warm plan differs from first compile"
        );
        assert_eq!(
            cold.plan, warm.plan,
            "seed {seed}: warm plan differs from a cold compile"
        );
    }
}

#[test]
fn renamed_paper_assays_share_the_cache_entry() {
    // Fluid-rename the paper sources textually — a different front-end
    // spelling of the same assay — and check the warm hit is
    // byte-identical to the cold compile.
    let renames: [&[(&str, &str)]; 2] = [
        &[("Glucose", "FluidX7"), ("Reagent", "Zq"), ("Sample", "W1")],
        &[
            ("sample", "specimenA"),
            ("buffer1a", "bufAlpha"),
            ("buffer2", "bufBeta"),
            ("buffer3a", "bufGamma"),
            ("buffer4", "bufDelta"),
            ("buffer5", "bufEpsilon"),
            ("NaOH", "base1"),
        ],
    ];
    let sources = [
        aqua_assays::glucose::SOURCE.to_owned(),
        aqua_assays::glycomics::SOURCE.to_owned(),
    ];
    let machine = Machine::paper_default();
    for (source, renaming) in sources.iter().zip(renames) {
        let mut renamed = source.clone();
        for (from, to) in renaming {
            renamed = renamed.replace(from, to);
        }
        assert_ne!(&renamed, source, "renaming must change the text");

        let service = Service::new(ServiceConfig::default());
        let cold = service
            .submit_src(source, &machine, None)
            .expect("paper assay compiles");
        let warm = service
            .submit_src(&renamed, &machine, None)
            .expect("renamed assay compiles");
        assert_eq!(cold.key, warm.key, "rename changed the key");
        assert_eq!(cold.plan, warm.plan, "warm plan differs from cold");

        // And cold-compiling the renamed variant from scratch still
        // yields the same bytes (equivalence is not a cache artifact).
        let fresh = Service::new(ServiceConfig::default());
        let recold = fresh
            .submit_src(&renamed, &machine, None)
            .expect("renamed assay compiles cold");
        assert_eq!(recold.plan, cold.plan);
    }
}

#[test]
fn different_mix_ratios_never_collide() {
    let machine = Machine::paper_default();
    let weights = HashMap::new();
    // Asymmetric context (a second mix at a fixed ratio) so that
    // ratio-swapped variants are NOT isomorphic here.
    let ratios: [&[(u64, u64)]; 6] = [
        &[(1, 2), (1, 9)],
        &[(1, 3), (1, 9)],
        &[(2, 3), (1, 9)],
        &[(3, 2), (1, 9)],
        &[(1, 4), (1, 9)],
        &[(5, 7), (1, 9)],
    ];
    let mut seen: HashMap<u128, usize> = HashMap::new();
    let service = Service::new(ServiceConfig::default());
    for (i, parts) in ratios.iter().enumerate() {
        let dag = two_input_mix(parts);
        let canon = canonicalize(&dag, &weights, &machine).expect("canon");
        if let Some(&j) = seen.get(&canon.key) {
            panic!("ratio sets {j} and {i} collided on key {:032x}", canon.key);
        }
        seen.insert(canon.key, i);
        // Serving them all through one cache keeps them distinct too.
        let served = service
            .submit_dag(&dag, &weights, &machine, None)
            .expect("compiles");
        assert_eq!(served.key, canon.key);
    }
    assert_eq!(seen.len(), ratios.len());
}

#[test]
fn warm_plan_bytes_are_shared_not_copied() {
    // A cache hit returns the same allocation, not an equal copy — the
    // mechanism behind warm throughput.
    let machine = Machine::paper_default();
    let weights = HashMap::new();
    let service = Service::new(ServiceConfig::default());
    let dag = two_input_mix(&[(1, 4)]);
    let cold = service
        .submit_dag(&dag, &weights, &machine, None)
        .expect("compiles");
    let warm = service
        .submit_dag(&dag, &weights, &machine, None)
        .expect("hits");
    assert!(Arc::ptr_eq(&cold.plan, &warm.plan));
}
