//! Property-based tests for the batched evaluation path: `bind_batch` /
//! `evaluate_batch` must match `k` sequential scalar evaluations
//! bit-for-bit on random circuits and parameter sets, and chunked sweeps
//! must be identical for every batch width and thread count.

use proptest::prelude::*;
use qkc::circuit::{Circuit, Param, ParamMap};
use qkc::engine::{BackendKind, Engine, EngineOptions, SweepSpec};
use qkc::kc::KcSimulator;
use qkc::knowledge::LANE_WIDTH;
use qkc::math::Complex;

/// Batch widths straddling the lane-block boundaries of the blocked
/// layout: a lone lane, one short of a block, exactly one block, one into
/// the second block, and a ragged three-block batch. Every width must be
/// bit-for-bit the scalar path — dead remainder lanes change nothing.
const RAGGED_WIDTHS: [usize; 5] = [
    1,
    LANE_WIDTH - 1,
    LANE_WIDTH,
    LANE_WIDTH + 1,
    2 * LANE_WIDTH + 3,
];

/// A random parameterized circuit instruction; rotation angles reference
/// one of two symbols so every circuit stays re-bindable.
#[derive(Debug, Clone)]
enum Instr {
    H(usize),
    T(usize),
    RxA(usize),
    RyB(usize),
    RzA(usize),
    Cnot(usize, usize),
    Cz(usize, usize),
    ZzB(usize, usize),
}

fn arb_instr(n: usize) -> impl Strategy<Value = Instr> {
    let q = 0..n;
    let q2 = 0..n;
    (0usize..8, q, q2).prop_map(move |(kind, a, b)| {
        let b = if a == b { (b + 1) % n } else { b };
        match kind {
            0 => Instr::H(a),
            1 => Instr::T(a),
            2 => Instr::RxA(a),
            3 => Instr::RyB(a),
            4 => Instr::RzA(a),
            5 => Instr::Cnot(a, b),
            6 => Instr::Cz(a, b),
            _ => Instr::ZzB(a, b),
        }
    })
}

fn build(n: usize, instrs: &[Instr]) -> Circuit {
    let mut c = Circuit::new(n);
    for i in instrs {
        match *i {
            Instr::H(a) => c.h(a),
            Instr::T(a) => c.t(a),
            Instr::RxA(a) => c.rx(a, Param::symbol("a")),
            Instr::RyB(a) => c.ry(a, Param::symbol("b")),
            Instr::RzA(a) => c.rz(a, Param::symbol("a")),
            Instr::Cnot(a, b) => c.cnot(a, b),
            Instr::Cz(a, b) => c.cz(a, b),
            Instr::ZzB(a, b) => c.zz(a, b, Param::symbol("b")),
        };
    }
    c
}

fn param_sets(values: &[(f64, f64)]) -> Vec<ParamMap> {
    values
        .iter()
        .map(|&(a, b)| ParamMap::from_pairs([("a", a), ("b", b)]))
        .collect()
}

fn bits_eq(x: Complex, y: Complex) -> bool {
    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `bind_batch` wavefunctions equal `k` sequential scalar binds, bit
    /// for bit, on random pure circuits — at every ragged width straddling
    /// the lane-block boundaries.
    #[test]
    fn bind_batch_matches_sequential_scalar_binds(
        instrs in proptest::collection::vec(arb_instr(3), 1..12),
        angles in proptest::collection::vec(
            (-3.0..3.0f64, -3.0..3.0f64),
            2 * LANE_WIDTH + 3,
        ),
    ) {
        let c = build(3, &instrs);
        let sim = KcSimulator::compile(&c, &Default::default());
        let params = param_sets(&angles);
        let scalars: Vec<Vec<Complex>> = params
            .iter()
            .map(|p| sim.bind(p).unwrap().wavefunction())
            .collect();
        for k in RAGGED_WIDTHS {
            let batch = sim.bind_batch(&params[..k]).unwrap();
            let wfs = batch.wavefunctions();
            for (lane, scalar) in scalars[..k].iter().enumerate() {
                for (x, (&got, &want)) in wfs[lane].iter().zip(scalar).enumerate() {
                    prop_assert!(
                        bits_eq(got, want),
                        "k={k} lane {lane} amp {x}: {got} vs {want}"
                    );
                }
            }
        }
    }

    /// Same contract on noisy circuits, through the random-event
    /// enumeration of `output_probabilities`, at ragged widths around one
    /// lane block.
    #[test]
    fn batched_noisy_probabilities_match_scalar(
        instrs in proptest::collection::vec(arb_instr(2), 1..8),
        angles in proptest::collection::vec(
            (-3.0..3.0f64, -3.0..3.0f64),
            LANE_WIDTH + 1,
        ),
        noise_q in 0usize..2,
    ) {
        let mut c = build(2, &instrs);
        c.depolarize(noise_q, 0.05);
        let sim = KcSimulator::compile(&c, &Default::default());
        let params = param_sets(&angles);
        let scalars: Vec<Vec<f64>> = params
            .iter()
            .map(|p| sim.bind(p).unwrap().output_probabilities())
            .collect();
        for k in [1usize, LANE_WIDTH - 1, LANE_WIDTH, LANE_WIDTH + 1] {
            let batch = sim.bind_batch(&params[..k]).unwrap();
            let probs = batch.output_probabilities();
            for (lane, scalar) in scalars[..k].iter().enumerate() {
                for (x, (&got, &want)) in probs[lane].iter().zip(scalar).enumerate() {
                    prop_assert!(
                        got.to_bits() == want.to_bits(),
                        "k={k} lane {lane} P({x}): {got} vs {want}"
                    );
                }
            }
        }
    }

    /// Engine sweeps are byte-identical for every batch width and thread
    /// count — the chunking contract of the sweep executor.
    #[test]
    fn chunked_sweeps_are_identical_across_batch_widths(
        instrs in proptest::collection::vec(arb_instr(2), 1..8),
        angles in proptest::collection::vec((-3.0..3.0f64, -3.0..3.0f64), 2..8),
    ) {
        let c = build(2, &instrs);
        let params = param_sets(&angles);
        let obs = |bits: usize| bits as f64;
        let run = |threads: usize, batch: usize| {
            let engine = Engine::with_options(
                EngineOptions::default()
                    .with_backend(BackendKind::KnowledgeCompilation)
                    .with_threads(threads)
                    .with_batch(batch),
            );
            engine
                .sweep(&c, &params, &SweepSpec::expectation(&obs).with_seed(3))
                .unwrap()
        };
        let base = run(1, 1);
        for threads in [1usize, 2, 4] {
            for batch in [1usize, LANE_WIDTH, 16] {
                prop_assert_eq!(
                    &base,
                    &run(threads, batch),
                    "threads={} batch={} changed the sweep",
                    threads,
                    batch
                );
            }
        }
    }
}

/// The variational loop's simplex batches ride the batched path; the
/// optimizer trajectory must not depend on the batch width.
#[test]
fn variational_runs_are_identical_across_batch_widths() {
    use qkc::engine::{minimize_variational, VariationalConfig};
    use qkc::optim::NelderMead;
    let mut c = Circuit::new(2);
    c.rx(0, Param::symbol("t"))
        .cnot(0, 1)
        .ry(1, Param::symbol("u"));
    let run = |batch: usize| {
        let engine = Engine::with_options(
            EngineOptions::default()
                .with_backend(BackendKind::KnowledgeCompilation)
                .with_batch(batch),
        );
        minimize_variational(
            &engine,
            &c,
            |x| ParamMap::from_pairs([("t", x[0]), ("u", x[1])]),
            &|bits| bits as f64,
            &[1.9, -0.7],
            &VariationalConfig {
                optimizer: NelderMead::new().with_max_iterations(60),
                shots: 0,
                seed: 4,
            },
        )
        .unwrap()
    };
    let base = run(1);
    for batch in [3usize, 8, 16] {
        let got = run(batch);
        assert_eq!(
            base.optim.x, got.optim.x,
            "batch={batch} changed the optimum"
        );
        assert_eq!(
            base.optim.value.to_bits(),
            got.optim.value.to_bits(),
            "batch={batch} changed the objective value"
        );
        assert_eq!(base.optim.evaluations, got.optim.evaluations);
    }
}

/// `evaluate_batch_delta` promises to be "always safe to call": it must
/// trust its cached lane-blocked value planes only when they came from the
/// batched upward kernel, on the same tape, at the same lane count — and
/// fall back to a full pass otherwise. Exercised at every ragged width:
/// each width change leaves a cached buffer of the *wrong* lane count
/// behind for the next iteration's leading delta call.
#[test]
fn evaluate_batch_delta_gates_on_cached_buffer_validity() {
    use qkc::cnf::Cnf;
    use qkc::knowledge::{
        compile, smooth, AcTape, AcWeights, AcWeightsBatch, CompileOptions, TapeEvaluator,
    };
    use qkc::math::C_ONE;

    let mut f = Cnf::new(3);
    f.add_clause(vec![1, 2]);
    f.add_clause(vec![-1, 3]);
    let compiled = compile(&f, &CompileOptions::default());
    let nnf = smooth(&compiled.nnf, &[vec![1, -1], vec![2, -2], vec![3, -3]]);
    let tape = AcTape::lower(&nnf);
    let bits = |amps: &[Complex]| -> Vec<(u64, u64)> {
        amps.iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    };
    let mut eval = TapeEvaluator::new();
    for k in RAGGED_WIDTHS {
        let mut w = AcWeightsBatch::uniform(3, k);
        for lane in 0..k {
            for v in 1..=3u32 {
                let wv = Complex::new(
                    0.1 + 0.2 * v as f64 + 0.05 * lane as f64,
                    0.3 - 0.01 * lane as f64,
                );
                w.set_lane(v, lane, wv, C_ONE);
            }
        }
        // Leading delta call: the cached buffer (if any) has last
        // iteration's lane count, so this must re-run the full kernel.
        let full = bits(eval.evaluate_batch_delta(&tape, &w, &[]));
        let fresh = bits(TapeEvaluator::new().evaluate_batch(&tape, &w));
        assert_eq!(full, fresh, "k={k}: stale lane count not re-gated");
        // A scalar kernel pass in between runs on its own buffers; the
        // next delta call must still match the fresh full pass.
        let mut sw = AcWeights::uniform(3);
        sw.set(1, Complex::real(0.25), C_ONE);
        let _ = eval.evaluate(&tape, &sw);
        let regated = bits(eval.evaluate_batch_delta(&tape, &w, &[]));
        assert_eq!(regated, fresh, "k={k}: scalar interleave corrupted delta");
        // With a valid cache, a genuine single-variable change listed in
        // `changed_vars` matches a from-scratch full pass bit-for-bit.
        for lane in 0..k {
            w.set_lane(2, lane, Complex::new(0.9 - 0.03 * lane as f64, -0.2), C_ONE);
        }
        let delta = bits(eval.evaluate_batch_delta(&tape, &w, &[2]));
        let recomputed = bits(TapeEvaluator::new().evaluate_batch(&tape, &w));
        assert_eq!(delta, recomputed, "k={k}: delta diverged from full pass");
    }
}
