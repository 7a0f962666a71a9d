//! Arithmetic-circuit kernel throughput: flat-tape vs enum-walk, for every
//! kernel the stack runs — the perf contract of the `AcTape` lowering.
//!
//! Per circuit size (QAOA p=1, 3-regular):
//! * `amp/s` — scalar upward passes per second *as the stack issues them*:
//!   bound amplitude queries sweeping the output basis (the wavefunction /
//!   probability-reconstruction access pattern, where consecutive queries
//!   differ in a few evidence variables and the tape's delta kernel
//!   recomputes only the dirty cone). Enum walk vs tape (`t`-prefixed
//!   column), `ax` their ratio.
//! * `updown/s` — combined upward+downward differential passes (the Gibbs
//!   transition kernel) with fully changing weights — the tape's
//!   no-allocation, no-HashMap full pass vs the enum walk; `udx` the
//!   ratio.
//! * `batch/s` — bindings per second through the k-lane batched upward
//!   pass (k = 16, two lane blocks) *as a parameter sweep issues them*:
//!   one parameter's weights change between consecutive bindings. The
//!   baseline re-runs the tape's full batched pass per binding, the `tb/s`
//!   column rides the batch delta kernel — both over the same lane-blocked
//!   layout, so `bx` (gated ≥ 1.5× at the default sizes) compares delta
//!   against full pass, like with like. The last binding is also checked
//!   lane by lane against the scalar enum walk.
//! * `gibbs/s` — full Gibbs transitions per second on a live sampler,
//!   enum-walk kernel vs tape kernel (delta cone per accepted move, free
//!   re-use on held moves), and `gx` the ratio.
//!
//! Every measured pair is also checked bit-for-bit: the tape result must
//! equal the reference result exactly (the determinism contract lowering
//! preserves). The JSON datapoint additionally records the raw
//! full-recompute upward pass (`*_full_upward_per_sec`), where the two
//! representations are arithmetic-bound and close to parity — the flat
//! tape wins by *keeping state*, not by re-walking faster.
//!
//! Appends one machine-readable datapoint to `BENCH_kernels.json`
//! (override the path with `QKC_BENCH_KERNELS_JSON`). The default quick
//! scale doubles as the CI smoke run.
//!
//! Run with: `cargo run --release --bin ac_kernels`
//! (`QKC_SCALE=paper` for larger circuits.)

use qkc_bench::{time, ResultTable, Scale};
use qkc_core::{KcOptions, KcSimulator};
use qkc_knowledge::{
    evaluate, evaluate_with_differentials, AcWeights, AcWeightsBatch, GibbsOptions, GibbsSampler,
    QueryVar, TapeEvaluator, LANE_WIDTH,
};
use qkc_math::Complex;
use qkc_workloads::{Graph, QaoaMaxCut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;

const BATCH_K: usize = 2 * LANE_WIDTH;

/// Floor on `batch_speedup` (tape batch delta vs tape full batch pass) at
/// the default quick sizes — the batch delta kernel's perf contract,
/// enforced while the numbers are measured (same pattern as the rehydrate
/// and analytic-gradient gates).
const MIN_BATCH_SPEEDUP: f64 = 1.5;

struct Row {
    qubits: usize,
    ac_nodes: usize,
    tape_bytes: usize,
    enum_amp_per_sec: f64,
    tape_amp_per_sec: f64,
    enum_full_up_per_sec: f64,
    tape_full_up_per_sec: f64,
    enum_updown_per_sec: f64,
    tape_updown_per_sec: f64,
    full_batch_per_sec: f64,
    tape_batch_per_sec: f64,
    enum_gibbs_per_sec: f64,
    tape_gibbs_per_sec: f64,
}

fn bits_eq(a: Complex, b: Complex) -> bool {
    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
}

/// Random non-degenerate weights over every CNF variable, representative
/// of a bound parameterized circuit.
fn random_weights(num_vars: usize, rng: &mut StdRng) -> AcWeights {
    let mut w = AcWeights::uniform(num_vars);
    for v in 1..=num_vars as u32 {
        w.set(
            v,
            Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
            Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
        );
    }
    w
}

fn query_vars(sim: &KcSimulator) -> Vec<QueryVar> {
    sim.query()
        .iter()
        .map(|spec| {
            let free = spec.free_values();
            if let Some(_v) = spec.forced_value() {
                QueryVar {
                    label: spec.label.clone(),
                    value_lits: Vec::new(),
                    fixed: Some(0),
                }
            } else {
                QueryVar {
                    label: spec.label.clone(),
                    value_lits: free.iter().map(|&(_, l)| l).collect(),
                    fixed: None,
                }
            }
        })
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    let sizes: Vec<usize> = scale.pick(vec![6, 8, 10], vec![8, 12, 16]);
    let passes: usize = scale.pick(200, 1000);
    let gibbs_steps = scale.pick(400, 4000);
    let repeats = scale.pick(3, 3);

    let mut table = ResultTable::new(
        format!("AC kernel throughput: enum walk vs flat tape (batch k={BATCH_K}: full vs delta)"),
        &[
            "qubits", "nodes", "tapeB", "amp/s", "tamp/s", "ax", "updown/s", "tud/s", "udx",
            "batch/s", "tb/s", "bx", "gibbs/s", "tg/s", "gx",
        ],
    );
    let mut rows: Vec<Row> = Vec::new();

    for &n in &sizes {
        let qaoa = QaoaMaxCut::new(Graph::random_regular(n, 3, 3), 1);
        let sim = KcSimulator::compile(&qaoa.circuit(), &KcOptions::default());
        let nnf = sim.nnf();
        let tape = sim.tape();
        let num_vars = sim.encoding().cnf.num_vars();
        let mut rng = StdRng::seed_from_u64(n as u64);
        let weights = random_weights(num_vars, &mut rng);
        let mut eval = TapeEvaluator::new();

        // Equivalence spot-checks before timing.
        assert!(
            bits_eq(eval.evaluate(tape, &weights), evaluate(nnf, &weights)),
            "tape upward diverged from enum walk at n={n}"
        );
        let tape_value = eval.differentials(tape, &weights);
        let enum_diffs = evaluate_with_differentials(nnf, &weights);
        assert!(bits_eq(tape_value, enum_diffs.value));

        // Interleave enum/tape repeats and keep the best time of each, so
        // host noise cannot skew one side of the ratio.
        let mut enum_amp = f64::INFINITY;
        let mut tape_amp = f64::INFINITY;
        let mut enum_up = f64::INFINITY;
        let mut tape_up = f64::INFINITY;
        let mut enum_ud = f64::INFINITY;
        let mut tape_ud = f64::INFINITY;
        let mut full_b = f64::INFINITY;
        let mut tape_b = f64::INFINITY;
        let mut batch = AcWeightsBatch::uniform(num_vars, BATCH_K);
        for lane in 0..BATCH_K {
            let w = random_weights(num_vars, &mut rng);
            for v in 1..=num_vars as u32 {
                batch.set_lane(v, lane, w.get(v as i32), w.get(-(v as i32)));
            }
        }
        let mut full_eval = TapeEvaluator::new();
        let batch_steps = passes.div_ceil(BATCH_K).max(4) * 4;
        let sweep_seed = 0xBA7C ^ n as u64;
        // Prime the sweep state: apply one untimed pass of the write
        // sequence so every timed sweep — full or delta, any repeat —
        // starts and ends at the identical deterministic weight state
        // (the writes are absolute, so replaying the sequence is
        // idempotent on the end state).
        {
            let mut sweep = StdRng::seed_from_u64(sweep_seed);
            for step in 0..batch_steps {
                let v = 1 + (step % num_vars) as u32;
                for lane in 0..BATCH_K {
                    batch.set_lane(
                        v,
                        lane,
                        Complex::new(sweep.gen::<f64>() - 0.5, sweep.gen::<f64>() - 0.5),
                        Complex::new(sweep.gen::<f64>() - 0.5, sweep.gen::<f64>() - 0.5),
                    );
                }
            }
        }

        // Scalar amplitude queries as the stack issues them: bind once,
        // reconstruct the full wavefunction. The tape path
        // (`BoundKc::wavefunction`) rides the delta kernel in Gray-code
        // order; the enum path re-walks the arena per basis state. Same
        // evidence handling, asserted bitwise-equal amplitudes.
        let bound = sim.bind(&qaoa.default_params()).expect("bind");
        let dim = 1usize << n;
        let mut assignment = vec![0usize; sim.query().len()];
        let amp_sweeps = (passes / dim).max(1);
        for _ in 0..repeats {
            let (wf_enum, t) = time(|| {
                let mut wf = Vec::new();
                for _ in 0..amp_sweeps {
                    wf = (0..dim)
                        .map(|x| {
                            for (i, v) in assignment[..n].iter_mut().enumerate() {
                                *v = (x >> (n - 1 - i)) & 1;
                            }
                            bound.amplitude_assignment_enum_walk(&assignment)
                        })
                        .collect();
                }
                wf
            });
            enum_amp = enum_amp.min(t);
            let (wf_tape, t) = time(|| {
                let mut wf = Vec::new();
                for _ in 0..amp_sweeps {
                    wf = bound.wavefunction();
                }
                wf
            });
            tape_amp = tape_amp.min(t);
            for (x, (&e, &g)) in wf_enum.iter().zip(&wf_tape).enumerate() {
                assert!(bits_eq(e, g), "amplitude {x} diverged");
            }
        }

        for _ in 0..repeats {
            // Raw full-recompute upward passes (JSON only): both sides
            // arithmetic-bound, expected near parity.
            let (acc_enum, t) = time(|| {
                let mut acc = Complex::new(0.0, 0.0);
                for _ in 0..passes {
                    acc += evaluate(nnf, &weights);
                }
                acc
            });
            enum_up = enum_up.min(t);
            let (acc_tape, t) = time(|| {
                let mut acc = Complex::new(0.0, 0.0);
                for _ in 0..passes {
                    acc += eval.evaluate(tape, &weights);
                }
                acc
            });
            tape_up = tape_up.min(t);
            assert!(bits_eq(acc_enum, acc_tape), "upward sums diverged");

            let (acc_enum, t) = time(|| {
                let mut acc = Complex::new(0.0, 0.0);
                for _ in 0..passes {
                    acc += evaluate_with_differentials(nnf, &weights).value;
                }
                acc
            });
            enum_ud = enum_ud.min(t);
            let (acc_tape, t) = time(|| {
                let mut acc = Complex::new(0.0, 0.0);
                for _ in 0..passes {
                    acc += eval.differentials(tape, &weights);
                }
                acc
            });
            tape_ud = tape_ud.min(t);
            assert!(bits_eq(acc_enum, acc_tape), "differential sums diverged");

            // Batched bindings as a parameter sweep issues them: between
            // consecutive k-lane bindings one circuit parameter's weights
            // change (in every lane). The baseline re-runs the full batched
            // pass per step; the delta side recomputes only the dirty cone.
            // Both sides apply the identical weight sequence (same seeded
            // RNG) and the accumulated sums are asserted bit-equal.
            let (acc_full, t) = time(|| {
                let mut acc = Complex::new(0.0, 0.0);
                let mut sweep = StdRng::seed_from_u64(sweep_seed);
                for step in 0..batch_steps {
                    let v = 1 + (step % num_vars) as u32;
                    for lane in 0..BATCH_K {
                        batch.set_lane(
                            v,
                            lane,
                            Complex::new(sweep.gen::<f64>() - 0.5, sweep.gen::<f64>() - 0.5),
                            Complex::new(sweep.gen::<f64>() - 0.5, sweep.gen::<f64>() - 0.5),
                        );
                    }
                    for &r in full_eval.evaluate_batch(tape, &batch) {
                        acc += r;
                    }
                }
                acc
            });
            full_b = full_b.min(t);
            let (acc_tape, t) = time(|| {
                let mut acc = Complex::new(0.0, 0.0);
                let mut sweep = StdRng::seed_from_u64(sweep_seed);
                for step in 0..batch_steps {
                    let v = 1 + (step % num_vars) as u32;
                    for lane in 0..BATCH_K {
                        batch.set_lane(
                            v,
                            lane,
                            Complex::new(sweep.gen::<f64>() - 0.5, sweep.gen::<f64>() - 0.5),
                            Complex::new(sweep.gen::<f64>() - 0.5, sweep.gen::<f64>() - 0.5),
                        );
                    }
                    for &r in eval.evaluate_batch_delta(tape, &batch, &[v]) {
                        acc += r;
                    }
                }
                acc
            });
            tape_b = tape_b.min(t);
            assert!(bits_eq(acc_full, acc_tape), "batched sums diverged");
        }
        // The sweeps end at the same weight state: check the last binding
        // lane by lane against the scalar enum walk.
        let roots = eval.evaluate_batch(tape, &batch).to_vec();
        for (lane, &got) in roots.iter().enumerate() {
            let mut w = AcWeights::uniform(num_vars);
            for v in 1..=num_vars as u32 {
                w.set(v, batch.get(v as i32, lane), batch.get(-(v as i32), lane));
            }
            assert!(
                bits_eq(got, evaluate(nnf, &w)),
                "batch lane {lane} diverged from the enum walk at n={n}"
            );
        }

        // Gibbs transitions on live samplers: same seed, both kernels; the
        // chains are bit-identical, so comparing their final states doubles
        // as an end-to-end equivalence check.
        let vars = query_vars(&sim);
        let options = GibbsOptions {
            warmup: 50,
            thin: 1,
            seed: 12,
            ..Default::default()
        };
        let mut enum_g = f64::INFINITY;
        let mut tape_g = f64::INFINITY;
        let mut final_states: Option<(Vec<usize>, Vec<usize>)> = None;
        for _ in 0..repeats {
            let mut enum_sampler = GibbsSampler::new_enum_walk(
                nnf,
                AcWeights::uniform(num_vars),
                vars.clone(),
                &options,
            );
            let (_, t) = time(|| {
                for _ in 0..gibbs_steps {
                    enum_sampler.step();
                }
            });
            enum_g = enum_g.min(t);
            let mut tape_sampler =
                GibbsSampler::new(tape, AcWeights::uniform(num_vars), vars.clone(), &options);
            let (_, t) = time(|| {
                for _ in 0..gibbs_steps {
                    tape_sampler.step();
                }
            });
            tape_g = tape_g.min(t);
            final_states = Some((enum_sampler.state().to_vec(), tape_sampler.state().to_vec()));
        }
        if let Some((enum_state, tape_state)) = final_states {
            assert_eq!(enum_state, tape_state, "gibbs chains diverged at n={n}");
        }

        let batch_bindings = (batch_steps * BATCH_K) as f64;
        let amp_queries = (amp_sweeps * dim) as f64;
        let row = Row {
            qubits: n,
            ac_nodes: sim.metrics().ac_nodes,
            tape_bytes: sim.metrics().ac_size_bytes,
            enum_amp_per_sec: amp_queries / enum_amp,
            tape_amp_per_sec: amp_queries / tape_amp,
            enum_full_up_per_sec: passes as f64 / enum_up,
            tape_full_up_per_sec: passes as f64 / tape_up,
            enum_updown_per_sec: passes as f64 / enum_ud,
            tape_updown_per_sec: passes as f64 / tape_ud,
            full_batch_per_sec: batch_bindings / full_b,
            tape_batch_per_sec: batch_bindings / tape_b,
            enum_gibbs_per_sec: gibbs_steps as f64 / enum_g,
            tape_gibbs_per_sec: gibbs_steps as f64 / tape_g,
        };
        // Perf regression gate on the lane-blocked batch path, enforced at
        // the default quick sizes where CI runs this binary.
        if scale == Scale::Quick {
            let batch_speedup = row.tape_batch_per_sec / row.full_batch_per_sec;
            assert!(
                batch_speedup >= MIN_BATCH_SPEEDUP,
                "batch_speedup regressed at n={n}: {batch_speedup:.3} < {MIN_BATCH_SPEEDUP}"
            );
        }
        table.row(vec![
            row.qubits.to_string(),
            row.ac_nodes.to_string(),
            row.tape_bytes.to_string(),
            format!("{:.0}", row.enum_amp_per_sec),
            format!("{:.0}", row.tape_amp_per_sec),
            format!("{:.2}x", row.tape_amp_per_sec / row.enum_amp_per_sec),
            format!("{:.0}", row.enum_updown_per_sec),
            format!("{:.0}", row.tape_updown_per_sec),
            format!("{:.2}x", row.tape_updown_per_sec / row.enum_updown_per_sec),
            format!("{:.0}", row.full_batch_per_sec),
            format!("{:.0}", row.tape_batch_per_sec),
            format!("{:.2}x", row.tape_batch_per_sec / row.full_batch_per_sec),
            format!("{:.0}", row.enum_gibbs_per_sec),
            format!("{:.0}", row.tape_gibbs_per_sec),
            format!("{:.2}x", row.tape_gibbs_per_sec / row.enum_gibbs_per_sec),
        ]);
        rows.push(row);
    }
    table.print();
    println!(
        "\nevery pair is bit-for-bit checked while it is measured; `t*` \
         columns are the flat-tape kernels (persistent evaluator buffers, \
         delta recompute of the dirty cone between queries, zero \
         allocations per pass), the others the enum-arena reference walk \
         (batch/s: the tape's full batched pass over the same layout). \
         amp/s sweeps the output basis through a bound artifact — the \
         wavefunction / probability-reconstruction access pattern."
    );

    if let Err(e) = write_json(&rows) {
        eprintln!("warning: could not write BENCH_kernels.json: {e}");
    }
}

/// Appends this run's datapoint to the JSON-lines trajectory file: one
/// self-contained JSON object per run, newest last.
fn write_json(rows: &[Row]) -> std::io::Result<()> {
    let path = std::env::var("QKC_BENCH_KERNELS_JSON")
        .unwrap_or_else(|_| "BENCH_kernels.json".to_string());
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut row_json: Vec<String> = Vec::new();
    for r in rows {
        row_json.push(format!(
            "{{\"qubits\":{},\"ac_nodes\":{},\"tape_bytes\":{},\
             \"enum_upward_per_sec\":{:.1},\"tape_upward_per_sec\":{:.1},\
             \"upward_speedup\":{:.3},\
             \"enum_full_upward_per_sec\":{:.1},\
             \"tape_full_upward_per_sec\":{:.1},\
             \"full_upward_speedup\":{:.3},\
             \"enum_updown_per_sec\":{:.1},\"tape_updown_per_sec\":{:.1},\
             \"updown_speedup\":{:.3},\
             \"full_batch_bindings_per_sec\":{:.1},\
             \"tape_batch_bindings_per_sec\":{:.1},\"batch_speedup\":{:.3},\
             \"enum_gibbs_steps_per_sec\":{:.1},\
             \"tape_gibbs_steps_per_sec\":{:.1},\"gibbs_speedup\":{:.3}}}",
            r.qubits,
            r.ac_nodes,
            r.tape_bytes,
            r.enum_amp_per_sec,
            r.tape_amp_per_sec,
            r.tape_amp_per_sec / r.enum_amp_per_sec,
            r.enum_full_up_per_sec,
            r.tape_full_up_per_sec,
            r.tape_full_up_per_sec / r.enum_full_up_per_sec,
            r.enum_updown_per_sec,
            r.tape_updown_per_sec,
            r.tape_updown_per_sec / r.enum_updown_per_sec,
            r.full_batch_per_sec,
            r.tape_batch_per_sec,
            r.tape_batch_per_sec / r.full_batch_per_sec,
            r.enum_gibbs_per_sec,
            r.tape_gibbs_per_sec,
            r.tape_gibbs_per_sec / r.enum_gibbs_per_sec,
        ));
    }
    let datapoint = format!(
        "{{\"bench\":\"ac_kernels\",\"unix_time\":{unix_time},\
         \"batch_width\":{BATCH_K},\"rows\":[{}]}}\n",
        row_json.join(",")
    );
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    file.write_all(datapoint.as_bytes())?;
    println!("\nappended datapoint to {path}");
    Ok(())
}
