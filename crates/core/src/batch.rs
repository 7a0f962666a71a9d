//! Batched parameter binding: `k` bindings share one arithmetic-circuit
//! traversal per query.
//!
//! [`KcSimulator::bind`] already makes re-binding cheap relative to
//! compilation; [`KcSimulator::bind_batch`] goes further and amortizes the
//! *evaluation* side of a sweep. The Bayes-net weight table is still
//! evaluated once per point (each point has its own parameter values), but
//! the fixed/unit-resolution walk over the parameter variables runs once
//! for the whole batch, and every amplitude / probability / expectation
//! query decodes the tape once while updating `k` weight lanes
//! ([`TapeEvaluator::evaluate_batch`]).
//!
//! Lane `l` of every query is **bit-for-bit identical** to the same query
//! on `bind(&params[l])` — the engine's sweep executor relies on this to
//! keep sweep results byte-identical across batch widths.

use crate::bound::{for_each_output_gray, for_each_rv_assignment, query_values, QueryBuffers};
use crate::pipeline::KcSimulator;
use qkc_circuit::{ParamMap, UnboundParam};
use qkc_knowledge::{AcWeightsBatch, LANE_WIDTH};
use qkc_math::{Complex, C_ONE, C_ZERO};
use qkc_telemetry::count;

/// Records the lane occupancy of a batched bind: `kernel/batch/width`
/// accumulates requested lanes, `kernel/batch/remainder_lanes` the dead
/// lanes padding the last [`LaneBlock`](qkc_knowledge::LaneBlock) of every
/// row. The snapshot tree turns the pair into a SIMD occupancy percentage,
/// so ragged batch widths show up in `BENCH_telemetry.jsonl` instead of
/// silently wasting `(W - k % W) % W` of each remainder block.
pub(crate) fn note_batch_width(k: usize) {
    count("kernel/batch/width", k as u64);
    count(
        "kernel/batch/remainder_lanes",
        ((LANE_WIDTH - k % LANE_WIDTH) % LANE_WIDTH) as u64,
    );
}

impl KcSimulator {
    /// Binds `k` parameter maps at once, producing a batched query handle.
    /// The Bayes-net weight table is evaluated per point; the parameter
    /// walk (including unit-resolved global factors) is shared.
    ///
    /// # Errors
    ///
    /// The first binding error in input order, if any point omits a symbol
    /// the circuit mentions.
    pub fn bind_batch(&self, params: &[ParamMap]) -> Result<BoundKcBatch<'_>, UnboundParam> {
        let tables = params
            .iter()
            .map(|p| self.bayes_net().evaluate_weights(p))
            .collect::<Result<Vec<_>, _>>()?;
        let k = params.len();
        note_batch_width(k);
        let mut weights = AcWeightsBatch::uniform(self.encoding().cnf.num_vars(), k);
        let mut globals = vec![C_ONE; k];
        for (var, node, slot, forced) in self.weighted_params() {
            // Same split as the scalar bind, per lane: forced-true
            // parameters become per-lane global factors, free parameters
            // land in the weight lanes.
            for (lane, table) in tables.iter().enumerate() {
                let value = table.value(node, slot);
                if forced {
                    globals[lane] *= value;
                } else {
                    weights.set_lane(var, lane, value, C_ONE);
                }
            }
        }
        Ok(BoundKcBatch {
            sim: self,
            weights,
            globals,
            buffers: QueryBuffers::new(),
        })
    }
}

/// A compiled simulator bound to `k` concrete parameter vectors at once.
/// Every query answers for all `k` bindings in one AC traversal per
/// evidence assignment.
#[derive(Debug)]
pub struct BoundKcBatch<'a> {
    sim: &'a KcSimulator,
    weights: AcWeightsBatch,
    globals: Vec<Complex>,
    /// Evidence buffer, evaluator and delta state, as in
    /// [`BoundKc`](crate::BoundKc): evidence is shared across lanes, so
    /// each dirty cone is decoded once per batch instead of once per lane.
    buffers: QueryBuffers<AcWeightsBatch>,
}

impl<'a> BoundKcBatch<'a> {
    /// The underlying compiled simulator.
    pub fn simulator(&self) -> &KcSimulator {
        self.sim
    }

    /// Number of bound parameter vectors (lanes).
    pub fn lanes(&self) -> usize {
        self.globals.len()
    }

    /// The amplitude of a full query assignment in every lane: `values`
    /// pairs with [`KcSimulator::query`] order.
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong arity or an out-of-domain value.
    pub fn amplitude_assignment(&self, values: &[usize]) -> Vec<Complex> {
        let tape = self.sim.tape();
        self.buffers
            .amplitude(self.sim, &self.weights, values, |eval, w, changed| {
                let vals = match changed {
                    Some(changed) => eval.evaluate_batch_delta(tape, w, changed),
                    None => eval.evaluate_batch(tape, w),
                };
                self.globals
                    .iter()
                    .zip(vals)
                    .map(|(&g, &v)| g * v)
                    .collect()
            })
            .unwrap_or_else(|| vec![C_ZERO; self.lanes()])
    }

    /// The per-lane amplitude of output bitstring `outputs` (qubit 0 =
    /// most significant bit) with random events assigned `rvs`.
    ///
    /// # Panics
    ///
    /// Panics if `rvs` has the wrong arity.
    pub fn amplitude(&self, outputs: usize, rvs: &[usize]) -> Vec<Complex> {
        self.amplitude_assignment(&query_values(self.sim, outputs, rvs))
    }

    /// The full output wavefunction of every lane (noise-free circuits).
    /// `result[lane][x]` is the amplitude of bitstring `x` under binding
    /// `lane`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has noise or measurement events.
    pub fn wavefunctions(&self) -> Vec<Vec<Complex>> {
        assert_eq!(
            self.sim.num_random_events(),
            0,
            "wavefunction is only defined for noise-free circuits"
        );
        let n = self.sim.num_outputs();
        let mut out = vec![vec![C_ZERO; 1usize << n]; self.lanes()];
        let mut values = vec![0usize; n];
        // Gray-code order (see `BoundKc::wavefunction`): consecutive
        // queries differ in one output variable's evidence — shared across
        // lanes — so the batch delta kernel recomputes a single cone per
        // basis state, decoded once for all lanes. Each amplitude is
        // bit-identical to an independent query; only the visit order
        // changes.
        for_each_output_gray(self.sim, &mut values, |values, x| {
            for (wf, amp) in out.iter_mut().zip(self.amplitude_assignment(values)) {
                wf[x] = amp;
            }
        });
        out
    }

    /// Measurement probabilities of every output bitstring per lane:
    /// `result[lane][x] = Σ_K |amp(x, K)|²`. Enumerates random events —
    /// validation-scale, like the scalar variant.
    pub fn output_probabilities(&self) -> Vec<Vec<f64>> {
        let n = self.sim.num_outputs();
        let mut probs = vec![vec![0.0; 1usize << n]; self.lanes()];
        let mut values = vec![0usize; self.sim.query().len()];
        for_each_rv_assignment(self.sim, |rvs| {
            values[n..].copy_from_slice(rvs);
            // Gray-code output order (see `wavefunctions`); per-x sums
            // still accumulate in the same random-event order, so each
            // probability is bitwise unchanged.
            for_each_output_gray(self.sim, &mut values, |values, x| {
                for (row, amp) in probs.iter_mut().zip(self.amplitude_assignment(values)) {
                    row[x] += amp.norm_sqr();
                }
            });
        });
        probs
    }

    /// The exact expectation of a diagonal observable over the output
    /// distribution of every lane. Pure circuits avoid the random-event
    /// enumeration by writing `|amplitude|²` straight into the per-lane
    /// probability rows during the Gray sweep — no complex wavefunction
    /// buffer is materialized (gradient queries fold many lanes at once,
    /// where that buffer would dominate memory). The fold below runs in
    /// natural basis order either way, so each lane's expectation is
    /// bit-for-bit the scalar fold over that lane's distribution.
    pub fn expectations(&self, observable: &dyn Fn(usize) -> f64) -> Vec<f64> {
        let probs = if self.sim.num_random_events() == 0 {
            let n = self.sim.num_outputs();
            let mut probs = vec![vec![0.0; 1usize << n]; self.lanes()];
            let mut values = vec![0usize; n];
            for_each_output_gray(self.sim, &mut values, |values, x| {
                for (row, amp) in probs.iter_mut().zip(self.amplitude_assignment(values)) {
                    row[x] = amp.norm_sqr();
                }
            });
            probs
        } else {
            self.output_probabilities()
        };
        probs
            .iter()
            .map(|p| {
                p.iter()
                    .enumerate()
                    .map(|(bits, &p)| p * observable(bits))
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{KcOptions, ValueState};
    use qkc_circuit::{Circuit, Param};

    fn bits_eq(a: Complex, b: Complex) -> bool {
        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
    }

    fn sweep_params(k: usize) -> Vec<ParamMap> {
        (0..k)
            .map(|i| {
                ParamMap::from_pairs([("a", 0.2 + 0.31 * i as f64), ("b", 1.7 - 0.53 * i as f64)])
            })
            .collect()
    }

    /// Compiles `c` after asserting its last `idle` qubits are untouched
    /// by any gate: unit resolution forces each to |0⟩, so its value 1 is
    /// `ForcedFalse` and every basis state with one of the `idle` low bits
    /// set is impossible.
    fn compile_with_idle(c: &Circuit, idle: usize) -> KcSimulator {
        let sim = KcSimulator::compile(c, &KcOptions::default());
        let n = sim.num_outputs();
        for q in n - idle..n {
            assert!(
                matches!(sim.query()[q].values[1], ValueState::ForcedFalse),
                "qubit {q} should be idle"
            );
        }
        sim
    }

    fn impossible(x: usize, idle: usize) -> bool {
        x & ((1 << idle) - 1) != 0
    }

    #[test]
    fn batched_wavefunctions_match_scalar_bind_bit_for_bit() {
        for idle in [0usize, 1] {
            let mut c = Circuit::new(3 + idle);
            c.h(0)
                .rx(1, Param::symbol("a"))
                .cnot(0, 1)
                .zz(1, 2, Param::symbol("b"))
                .ry(2, Param::symbol("a"));
            let sim = compile_with_idle(&c, idle);
            for k in [1usize, 3, 8] {
                let params = sweep_params(k);
                let batch = sim.bind_batch(&params).unwrap();
                assert_eq!(batch.lanes(), k);
                let wfs = batch.wavefunctions();
                for (lane, p) in params.iter().enumerate() {
                    let scalar = sim.bind(p).unwrap().wavefunction();
                    for (x, (&got, &want)) in wfs[lane].iter().zip(&scalar).enumerate() {
                        assert!(
                            bits_eq(got, want),
                            "idle={idle} k={k} lane {lane} amp {x}: {got} vs {want}"
                        );
                        if impossible(x, idle) {
                            assert!(bits_eq(got, C_ZERO), "idle={idle} lane {lane} amp {x}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batched_noisy_probabilities_match_scalar_bind_bit_for_bit() {
        for idle in [0usize, 1] {
            let mut c = Circuit::new(2 + idle);
            c.rx(0, Param::symbol("a"))
                .depolarize(0, 0.05)
                .cnot(0, 1)
                .rz(1, Param::symbol("b"));
            let sim = compile_with_idle(&c, idle);
            let params = sweep_params(4);
            let batch = sim.bind_batch(&params).unwrap();
            let probs = batch.output_probabilities();
            for (lane, p) in params.iter().enumerate() {
                let scalar = sim.bind(p).unwrap().output_probabilities();
                for (x, (&got, &want)) in probs[lane].iter().zip(&scalar).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "idle={idle} lane {lane} P({x}): {got} vs {want}"
                    );
                    if impossible(x, idle) {
                        assert_eq!(got.to_bits(), 0, "idle={idle} lane {lane} P({x})");
                    }
                }
            }
        }
    }

    #[test]
    fn batched_expectations_match_scalar_fold() {
        for idle in [0usize, 1] {
            let mut c = Circuit::new(2 + idle);
            c.rx(0, Param::symbol("a")).cnot(0, 1);
            let sim = compile_with_idle(&c, idle);
            let params = sweep_params(3);
            let batch = sim.bind_batch(&params).unwrap();
            let obs = |bits: usize| bits as f64;
            let got = batch.expectations(&obs);
            for (lane, p) in params.iter().enumerate() {
                let wf = sim.bind(p).unwrap().wavefunction();
                let want: f64 = wf
                    .iter()
                    .map(|a| a.norm_sqr())
                    .enumerate()
                    .map(|(bits, p)| p * obs(bits))
                    .sum();
                assert_eq!(
                    got[lane].to_bits(),
                    want.to_bits(),
                    "idle={idle} lane {lane}"
                );
                for (x, &amp) in wf.iter().enumerate() {
                    if impossible(x, idle) {
                        assert!(bits_eq(amp, C_ZERO), "idle={idle} lane {lane} amp {x}");
                    }
                }
            }
        }
    }

    #[test]
    fn global_phase_factors_ride_per_lane() {
        // Rz on |0> is a pure global factor through unit resolution; each
        // lane must carry its own.
        let mut c = Circuit::new(1);
        c.rz(0, Param::symbol("t"));
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let params: Vec<ParamMap> = [0.8, -1.3]
            .iter()
            .map(|&t| ParamMap::from_pairs([("t", t)]))
            .collect();
        let batch = sim.bind_batch(&params).unwrap();
        let amps = batch.amplitude(0, &[]);
        assert!(amps[0].approx_eq(Complex::cis(-0.4), 1e-12));
        assert!(amps[1].approx_eq(Complex::cis(0.65), 1e-12));
    }

    #[test]
    fn empty_batch_binds_and_answers_empty() {
        let mut c = Circuit::new(1);
        c.h(0);
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let batch = sim.bind_batch(&[]).unwrap();
        assert_eq!(batch.lanes(), 0);
        assert!(batch.wavefunctions().is_empty());
        assert!(batch.output_probabilities().is_empty());
        assert!(batch.expectations(&|b| b as f64).is_empty());
    }

    #[test]
    fn unbound_symbol_in_any_lane_is_reported() {
        let mut c = Circuit::new(1);
        c.rx(0, Param::symbol("t"));
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let params = vec![
            ParamMap::from_pairs([("t", 0.4)]),
            ParamMap::new(), // missing t
        ];
        assert!(sim.bind_batch(&params).is_err());
    }
}
