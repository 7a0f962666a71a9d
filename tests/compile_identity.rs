//! The d-DNNF search is pinned to one exact trace: on every structure
//! below, `compile` must produce the same arena (every node, in order,
//! and the root) and the same decision, component and cache-hit counts as
//! the original naive DPLL search did. The expected digests were recorded
//! from that search; `compiler.rs` keeps it as a test-only oracle for
//! random formulas.
//!
//! The default cases are small noisy circuits that compile quickly in
//! debug builds. The ignored case covers the structures the benchmark
//! compiles (the 14 noisy 6-vertex QAOA structures, the noisy 12-cycle,
//! 12-qubit QAOA and the 3×3 VQE in both bases); run it in release with
//! `cargo test --release --test compile_identity -- --include-ignored`.

use qkc::bayesnet::BayesNet;
use qkc::circuit::{Circuit, NoiseChannel};
use qkc::cnf::{encode, simplify};
use qkc::knowledge::{compile, CompileOptions, NnfNode};
use qkc::workloads::{Graph, QaoaMaxCut, VqeIsing};
use std::collections::HashSet;

/// Depolarizing rate of the noisy structures (the benchmark's rate).
const NOISE: f64 = 0.005;

/// What one compile must reproduce exactly: node count, root, FNV-1a
/// digest over every node (tag and payload) and the root, decisions,
/// components, cache hits.
type Trace = (usize, u32, u64, u64, u64, u64);

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Compiles `circuit` the way the pipeline does (BN → CNF → unit
/// simplification → search with the default options) and records the
/// raw search output.
fn trace(circuit: &Circuit) -> Trace {
    let encoding = encode(&BayesNet::from_circuit(circuit));
    let cnf = simplify(&encoding.cnf).expect("satisfiable encoding").cnf;
    let compiled = compile(&cnf, &CompileOptions::default());
    let mut h = Fnv(0xcbf29ce484222325);
    for node in compiled.nnf.nodes() {
        match node {
            NnfNode::True => h.word(0),
            NnfNode::False => h.word(1),
            NnfNode::Lit(l) => {
                h.word(2);
                h.word(i64::from(*l) as u64);
            }
            NnfNode::And(cs) => {
                h.word(3);
                h.word(cs.len() as u64);
                for &c in cs.iter() {
                    h.word(u64::from(c));
                }
            }
            NnfNode::Or(a, b) => {
                h.word(4);
                h.word(u64::from(*a));
                h.word(u64::from(*b));
            }
        }
    }
    h.word(u64::from(compiled.nnf.root()));
    let stats = &compiled.stats;
    (
        compiled.nnf.num_nodes(),
        compiled.nnf.root(),
        h.0,
        stats.decisions,
        stats.components,
        stats.cache_hits,
    )
}

fn noisy(circuit: &Circuit) -> Circuit {
    circuit.with_noise_after_each_gate(&NoiseChannel::depolarizing(NOISE))
}

fn check(cases: Vec<(String, Circuit)>, expected: &[(&str, Trace)]) {
    assert_eq!(cases.len(), expected.len());
    let mut failures = Vec::new();
    for ((name, circuit), &(want_name, want)) in cases.iter().zip(expected) {
        assert_eq!(name, want_name);
        let got = trace(circuit);
        if got != want {
            failures.push(format!("{name}: got {got:?}, want {want:?}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The paper's noisy Bell state, noisy 4-vertex QAOA and a noisy 2×2 VQE.
fn small_cases() -> Vec<(String, Circuit)> {
    let mut bell = Circuit::new(2);
    bell.h(0).phase_damp(0, 0.36).cnot(0, 1);
    let qaoa = QaoaMaxCut::new(Graph::random_regular(4, 3, 0), 1);
    let vqe = VqeIsing::new(2, 2, 1);
    vec![
        ("bell".into(), bell),
        ("qaoa4".into(), noisy(&qaoa.circuit())),
        ("vqe2x2".into(), noisy(&vqe.circuit())),
    ]
}

/// The first 14 distinct noisy 6-vertex 3-regular QAOA structures by
/// graph seed, then the noisy 12-cycle, 12-qubit QAOA and the 3×3
/// two-layer VQE in the Z and X bases.
fn benchmark_cases() -> Vec<(String, Circuit)> {
    let mut cases = Vec::new();
    let mut seen = HashSet::new();
    for graph_seed in 0.. {
        let c = noisy(&QaoaMaxCut::new(Graph::random_regular(6, 3, graph_seed), 1).circuit());
        if seen.insert(c.structural_hash()) {
            cases.push((format!("noisy6_seed{graph_seed}"), c));
            if cases.len() == 14 {
                break;
            }
        }
    }
    let cycle = QaoaMaxCut::new(Graph::cycle(12), 1);
    cases.push(("noisy_cycle12".into(), noisy(&cycle.circuit())));
    let qaoa = QaoaMaxCut::new(Graph::random_regular(12, 3, 0), 1);
    cases.push(("qaoa12".into(), qaoa.circuit()));
    let vqe = VqeIsing::new(3, 3, 2);
    cases.push(("vqe3x3_z".into(), vqe.circuit()));
    cases.push(("vqe3x3_x".into(), vqe.circuit_x_basis()));
    cases
}

#[rustfmt::skip]
const SMALL: &[(&str, Trace)] = &[
    ("bell", (20, 19, 0x8e4da9b25a337c4f, 2, 2, 0)),
    ("qaoa4", (1907, 1906, 0xa435bbf3fd82ccaf, 425, 425, 920)),
    ("vqe2x2", (709, 708, 0x00172397428ea82c, 127, 127, 94)),
];

#[rustfmt::skip]
const BENCHMARK: &[(&str, Trace)] = &[
    ("noisy6_seed0", (13425, 13424, 0xcff64a578ce342b2, 5561, 5561, 10070)),
    ("noisy6_seed1", (5355, 5354, 0x3ec3d79e15141fee, 1611, 1611, 3718)),
    ("noisy6_seed2", (8211, 8210, 0x28adb0884862db64, 3007, 3007, 5588)),
    ("noisy6_seed4", (3654, 3653, 0x1d556b8a46a57a6d, 963, 963, 2574)),
    ("noisy6_seed5", (7779, 7778, 0x2c82f8d80d725cb3, 2655, 2655, 6434)),
    ("noisy6_seed6", (4383, 4382, 0x543500fcb75e26f5, 1151, 1151, 3170)),
    ("noisy6_seed8", (5133, 5132, 0x16bd557aad5372cb, 1645, 1645, 3980)),
    ("noisy6_seed9", (3465, 3464, 0xc149a773d9d03273, 849, 849, 2390)),
    ("noisy6_seed10", (7299, 7298, 0xe4bfe38386fc4698, 2175, 2175, 6762)),
    ("noisy6_seed11", (5457, 5456, 0xbb4ecc5844fd3bc7, 1625, 1625, 4422)),
    ("noisy6_seed13", (4839, 4838, 0x875b3c7e1a222f25, 1635, 1635, 2620)),
    ("noisy6_seed14", (3396, 3395, 0x427097ba31d9b750, 865, 865, 2286)),
    ("noisy6_seed16", (6990, 6989, 0x84f4df136b09959a, 2163, 2163, 6070)),
    ("noisy6_seed17", (5835, 5834, 0xd47dd7abf63d640c, 1799, 1799, 4662)),
    ("noisy_cycle12", (4095, 4094, 0x25b52580f6e9f6e9, 929, 929, 1964)),
    ("qaoa12", (1137, 1136, 0xfbf466fa993ed4a9, 575, 575, 930)),
    ("vqe3x3_z", (2853, 2852, 0x67bcf9dc9caaefb3, 1479, 1479, 1032)),
    ("vqe3x3_x", (7293, 7292, 0x11c2e560b2d2fff5, 9729, 9729, 4654)),
];

#[test]
fn small_noisy_circuits_compile_to_the_recorded_arena() {
    check(small_cases(), SMALL);
}

#[test]
#[ignore = "compiles 18 benchmark structures; run in release"]
fn benchmark_structures_compile_to_the_recorded_arena() {
    check(benchmark_cases(), BENCHMARK);
}
