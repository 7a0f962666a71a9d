//! Gibbs sample streams are pinned to one exact trace: on every case
//! below, each seeded chain must draw the same output stream, end in the
//! same full assignment and report the same acceptance rate, bit for bit,
//! as the sampler that recorded the expected digests. Changes to how the
//! chain schedules its tape passes (held, delta or full differentials,
//! where proposal densities are evaluated) must leave all three intact.
//! Every chain also checks its pass accounting: only the first update and
//! those after an accepted MH proposal run a full differential pass.
//!
//! The default cases are small noisy circuits that sample quickly in debug
//! builds. The ignored case covers the benchmark's sampling structures
//! (the noisy 12-cycle and two noisy 6-vertex 3-regular QAOA structures)
//! at its chain length, 800 warmup steps and 1000 shots thinned by 3; run
//! it in release with
//! `cargo test --release --test gibbs_identity -- --include-ignored`.

use qkc::circuit::{Circuit, NoiseChannel, ParamMap};
use qkc::kc::KcSimulator;
use qkc::knowledge::GibbsOptions;
use qkc::workloads::{Graph, QaoaMaxCut};

/// Depolarizing rate of the noisy structures (the benchmark's rate).
const NOISE: f64 = 0.005;

/// Chain seeds every case runs.
const SEEDS: [u64; 3] = [1, 2, 3];

/// What one chain must reproduce exactly: an FNV-1a digest over its
/// output stream and final full assignment, and the bits of its
/// acceptance rate.
type Trace = (u64, u64);

/// Chain length: warmup steps, shots, steps between shots.
type Length = (usize, usize, usize);

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn trace(sim: &KcSimulator, params: &ParamMap, seed: u64, (warmup, shots, thin): Length) -> Trace {
    let bound = sim.bind(params).expect("bound point");
    let mut sampler = bound.sampler(&GibbsOptions {
        warmup,
        thin,
        seed,
        ..Default::default()
    });
    let mut h = Fnv(0xcbf29ce484222325);
    for x in sampler.sample_outputs(shots, thin) {
        h.word(x as u64);
    }
    for v in sampler.current_assignment() {
        h.word(v as u64);
    }
    // Only the first update and those after an accepted MH proposal may
    // pay a full differential pass.
    let stats = sampler.stats();
    assert_eq!(stats.steps(), (warmup + shots * thin) as u64);
    assert!(
        stats.full_passes <= 1 + stats.mh_accepted,
        "seed {seed}: {stats:?}"
    );
    (h.0, sampler.acceptance_rate().to_bits())
}

struct Case {
    name: &'static str,
    circuit: Circuit,
    params: ParamMap,
    length: Length,
}

fn check(cases: Vec<Case>, expected: &[(&str, [Trace; SEEDS.len()])]) {
    assert_eq!(cases.len(), expected.len());
    let mut failures = Vec::new();
    for (case, &(want_name, want)) in cases.iter().zip(expected) {
        assert_eq!(case.name, want_name);
        let sim = KcSimulator::compile(&case.circuit, &Default::default());
        let got = SEEDS.map(|seed| trace(&sim, &case.params, seed, case.length));
        if got != want {
            failures.push(format!("{}: got {got:x?}, want {want:x?}", case.name));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

fn noisy_qaoa(graph: Graph) -> (Circuit, ParamMap) {
    let q = QaoaMaxCut::new(graph, 1);
    let circuit = q
        .circuit()
        .with_noise_after_each_gate(&NoiseChannel::depolarizing(NOISE));
    (circuit, q.params(&[0.9], &[0.4]))
}

/// The paper's noisy Bell state and a noisy 4-vertex QAOA.
fn small_cases() -> Vec<Case> {
    let mut bell = Circuit::new(2);
    bell.h(0).phase_damp(0, 0.36).cnot(0, 1);
    let (qaoa, qaoa_params) = noisy_qaoa(Graph::random_regular(4, 3, 0));
    vec![
        Case {
            name: "bell",
            circuit: bell,
            params: ParamMap::new(),
            length: (50, 300, 1),
        },
        Case {
            name: "qaoa4",
            circuit: qaoa,
            params: qaoa_params,
            length: (100, 200, 3),
        },
    ]
}

/// The noisy 12-cycle of `noisy_sample` and two noisy 6-vertex
/// structures of `noisy_compile`, at the benchmark's chain length.
fn benchmark_cases() -> Vec<Case> {
    let length = (800, 1000, 3);
    let case = |name, (circuit, params)| Case {
        name,
        circuit,
        params,
        length,
    };
    vec![
        case("noisy_cycle12", noisy_qaoa(Graph::cycle(12))),
        case("noisy6_seed0", noisy_qaoa(Graph::random_regular(6, 3, 0))),
        case("noisy6_seed1", noisy_qaoa(Graph::random_regular(6, 3, 1))),
    ]
}

#[rustfmt::skip]
const SMALL: &[(&str, [Trace; SEEDS.len()])] = &[
    ("bell", [
        (0x03b297f9f6241d26, 0x3fb767dce434a9b1),
        (0x50f1b09090e55584, 0x3fabcb564efe8982),
        (0x3511f052d5177185, 0x3fa30463796ac9e0),
    ]),
    ("qaoa4", [
        (0x9371010283b354ca, 0x3fadfd130463796b),
        (0xcea92ae39e2e9d6b, 0x3fa30463796ac9e0),
        (0x8afe59bd46d782ce, 0x3fa3bfa2608c6f2d),
    ]),
];

#[rustfmt::skip]
const BENCHMARK: &[(&str, [Trace; SEEDS.len()])] = &[
    ("noisy_cycle12", [
        (0x3f0dd1c17837e32e, 0x3fab5a0113f0e8d3),
        (0x1ef89951aeebbf7c, 0x3fada46102b1da46),
        (0xeb3453bd684d33f3, 0x3fab1504d9bc17b7),
    ]),
    ("noisy6_seed0", [
        (0x40371e13bb8197f3, 0x3faf424a5feec0f1),
        (0xdbb6fb7aa8705ea1, 0x3fae95d3ce6ab62a),
        (0x2ea539df5acbbff5, 0x3fb05edad0089f87),
    ]),
    ("noisy6_seed1", [
        (0xd7ebb788e0d9e8c4, 0x3fab5a0113f0e8d3),
        (0x05c619e88cecf708, 0x3fa7d9321f424a60),
        (0x7b043e9577f15b12, 0x3fb0b51618caa4eb),
    ]),
];

#[test]
fn small_chains_draw_the_recorded_streams() {
    check(small_cases(), SMALL);
}

#[test]
#[ignore = "benchmark-sized chains; run in release with --include-ignored"]
fn benchmark_chains_draw_the_recorded_streams() {
    check(benchmark_cases(), BENCHMARK);
}
