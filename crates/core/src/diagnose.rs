//! Noise-diagnosis queries: the paper's §5 research directions, realized.
//!
//! "MPE queries would answer what error event best explains a given
//! symptomatic observed outcome" — here [`BoundKc::most_probable_explanation`]
//! finds the noise-branch assignment maximizing `|amp(x, K)|²` for an
//! observed output `x`, and [`BoundKc::noise_posterior`] gives the posterior
//! distribution of a single noise event. The MAX operator is undefined for
//! complex amplitudes but well-defined for the real probabilities
//! `|amp|²` (exactly the caveat the paper raises), so both queries work on
//! squared magnitudes of the exact upward-pass amplitudes.

use crate::bound::{for_each_rv_assignment, BoundKc};
use crate::pipeline::QuerySpec;
use qkc_math::{Complex, C_ZERO};

/// One parameter-sensitivity record: how strongly an operation's amplitude
/// entry influences a queried output amplitude.
#[derive(Debug, Clone)]
pub struct Sensitivity {
    /// Index of the operation in the source circuit.
    pub op_index: usize,
    /// The Bayesian-network node whose table holds the entry.
    pub node_label: String,
    /// `∂ amp / ∂ w` for this entry's weight.
    pub derivative: Complex,
    /// The entry's current weight value.
    pub weight: Complex,
}

impl<'a> BoundKc<'a> {
    /// Sensitivity analysis (paper §5): the partial derivative of the
    /// amplitude of `(outputs, rvs)` with respect to every parameter weight
    /// in the circuit — one upward + one downward pass total.
    ///
    /// The amplitude is multilinear in the weights, so `derivative × δ` is
    /// the exact first-order amplitude change if a single table entry's
    /// value moved by `δ`. Entries eliminated by unit resolution (global
    /// factors) are not listed. An impossible assignment (an output or
    /// event value unit resolution ruled out) has amplitude identically
    /// zero, so every listed derivative is zero.
    ///
    /// # Panics
    ///
    /// Panics if `rvs` has the wrong arity.
    pub fn parameter_sensitivities(&self, outputs: usize, rvs: &[usize]) -> Vec<Sensitivity> {
        let diffs = self.differentials_for(outputs, rvs);
        let tape = self.simulator().tape();
        let mut out = Vec::new();
        for (var, node, _) in self.simulator().encoding().vars.params() {
            if self.simulator().fixed_vars().contains_key(&var) {
                continue;
            }
            if let Some(slot) = tape.lit_slot(var as i32) {
                let d = diffs.as_ref().map_or(C_ZERO, |d| d.wrt_slot(slot));
                let role_op = match self.simulator().bayes_net().node(node).role {
                    qkc_bayesnet::NodeRole::QubitState { op_index, .. }
                    | qkc_bayesnet::NodeRole::NoiseSelector { op_index, .. }
                    | qkc_bayesnet::NodeRole::MeasureOutcome { op_index, .. } => op_index,
                    qkc_bayesnet::NodeRole::Initial { qubit } => qubit,
                };
                out.push(Sensitivity {
                    op_index: role_op,
                    node_label: self.simulator().bayes_net().node(node).label.clone(),
                    derivative: self.global() * d,
                    weight: self.weight_of(var),
                });
            }
        }
        out
    }
}

/// The result of an MPE (most probable explanation) query.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The noise/measurement random-event assignment, in circuit order.
    pub events: Vec<usize>,
    /// Its joint probability contribution `|amp(x, K)|²`.
    pub probability: f64,
}

impl<'a> BoundKc<'a> {
    fn rv_specs(&self) -> &[QuerySpec] {
        &self.simulator().query()[self.simulator().num_outputs()..]
    }

    /// Iterates every random-event assignment, calling `f` with the values
    /// and the resulting `|amp(outputs, K)|²`.
    fn for_each_explanation(&self, outputs: usize, mut f: impl FnMut(&[usize], f64)) {
        for_each_rv_assignment(self.simulator(), |rvs| {
            f(rvs, self.amplitude(outputs, rvs).norm_sqr());
        });
    }

    /// The most probable explanation of observing `outputs`: the noise /
    /// measurement branch assignment `K` maximizing `|amp(outputs, K)|²`
    /// (paper §5).
    ///
    /// Uses exact enumeration while the joint event space is at most
    /// `budget` assignments, and greedy coordinate ascent (restarted from
    /// the all-identity assignment) beyond that — the ascent is exact per
    /// coordinate thanks to the upward pass but may return a local optimum.
    ///
    /// Returns `None` if the output has probability zero under every
    /// explanation.
    pub fn most_probable_explanation(&self, outputs: usize, budget: usize) -> Option<Explanation> {
        let domains: Vec<usize> = self.rv_specs().iter().map(|s| s.domain).collect();
        if domains.is_empty() {
            let p = self.amplitude(outputs, &[]).norm_sqr();
            return (p > 0.0).then_some(Explanation {
                events: Vec::new(),
                probability: p,
            });
        }
        let combos: usize = domains.iter().product();
        if combos <= budget {
            let mut best: Option<Explanation> = None;
            self.for_each_explanation(outputs, |rvs, p| {
                if p > 0.0 && best.as_ref().is_none_or(|b| p > b.probability) {
                    best = Some(Explanation {
                        events: rvs.to_vec(),
                        probability: p,
                    });
                }
            });
            return best;
        }
        // Greedy coordinate ascent from the all-identity branch (value 0 is
        // the "no error" Kraus branch for every canonical noise model).
        let mut rvs = vec![0usize; domains.len()];
        let mut current = self.amplitude(outputs, &rvs).norm_sqr();
        loop {
            let mut improved = false;
            for i in 0..rvs.len() {
                let original = rvs[i];
                let mut best_v = original;
                let mut best_p = current;
                for v in 0..domains[i] {
                    if v == original {
                        continue;
                    }
                    rvs[i] = v;
                    let p = self.amplitude(outputs, &rvs).norm_sqr();
                    if p > best_p {
                        best_p = p;
                        best_v = v;
                    }
                }
                rvs[i] = best_v;
                if best_v != original {
                    current = best_p;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        (current > 0.0).then_some(Explanation {
            events: rvs,
            probability: current,
        })
    }

    /// The posterior distribution of random event `rv_index` given the
    /// observation: `P(K_i = k | x) ∝ Σ_{K₋ᵢ} |amp(x, K)|²`.
    ///
    /// Exact (enumerates the event space); intended for circuits with a
    /// moderate number of noise events.
    ///
    /// # Panics
    ///
    /// Panics if `rv_index` is out of range.
    pub fn noise_posterior(&self, outputs: usize, rv_index: usize) -> Vec<f64> {
        let domains: Vec<usize> = self.rv_specs().iter().map(|s| s.domain).collect();
        assert!(rv_index < domains.len(), "rv index out of range");
        let mut weights = vec![0.0; domains[rv_index]];
        self.for_each_explanation(outputs, |rvs, p| {
            weights[rvs[rv_index]] += p;
        });
        let total: f64 = weights.iter().sum();
        if total > 0.0 {
            for w in &mut weights {
                *w /= total;
            }
        }
        weights
    }
}

#[cfg(test)]
mod tests {
    use crate::{KcOptions, KcSimulator};
    use qkc_circuit::{Circuit, Param, ParamMap};
    use qkc_math::C_ZERO;

    /// Noisy Bell pair: observing |01⟩ or |10⟩ is impossible without a
    /// bit-flip; MPE must blame the flip branch.
    #[test]
    fn mpe_blames_the_bit_flip() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).bit_flip(1, 0.1);
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let bound = sim.bind(&ParamMap::new()).unwrap();
        // |01> can only arise from the flip (branch 1).
        let exp = bound.most_probable_explanation(0b01, 1 << 12).unwrap();
        assert_eq!(exp.events, vec![1]);
        // |00> is best explained by no error (branch 0).
        let exp = bound.most_probable_explanation(0b00, 1 << 12).unwrap();
        assert_eq!(exp.events, vec![0]);
    }

    #[test]
    fn mpe_ranks_single_flips_over_double_flips() {
        // Two independent bit flips on a Bell pair: |01> is explained by a
        // single flip on either qubit (flip q1 from |00> or flip q0 from
        // |11> — equally probable), never by the double flip.
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).bit_flip(0, 0.05).bit_flip(1, 0.05);
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let bound = sim.bind(&ParamMap::new()).unwrap();
        let exp = bound.most_probable_explanation(0b01, 1 << 12).unwrap();
        let flips: usize = exp.events.iter().sum();
        assert_eq!(flips, 1, "exactly one flip explains |01>: {:?}", exp.events);
        // The double-flip explanation has zero probability here (it maps
        // the Bell state onto |11>/|00>, not |01>).
        assert!(bound.amplitude(0b01, &[1, 1]).norm_sqr() < 1e-12);
    }

    #[test]
    fn posterior_is_certain_for_forced_events() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).bit_flip(1, 0.2);
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let bound = sim.bind(&ParamMap::new()).unwrap();
        let post = bound.noise_posterior(0b10, 0);
        assert!((post[1] - 1.0).abs() < 1e-12, "flip is certain: {post:?}");
        // For |11>, no flip is far more likely (p=0.8 vs 0.2 is the prior,
        // and both branches can produce |11>... only no-flip can: flip maps
        // |11> -> |10>. So no-flip is certain.
        let post = bound.noise_posterior(0b11, 0);
        assert!((post[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn posterior_mixes_when_both_branches_explain() {
        // Depolarizing after H: outcome |0> is consistent with I and Z
        // branches (and X/Y map it from |1> which is also populated).
        let mut c = Circuit::new(1);
        c.h(0).depolarize(0, 0.3);
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let bound = sim.bind(&ParamMap::new()).unwrap();
        let post = bound.noise_posterior(0, 0);
        assert_eq!(post.len(), 4);
        assert!((post.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Identity branch dominates (prior 0.7) but every branch has mass.
        assert!(post[0] > 0.6);
        assert!(post.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn sensitivities_are_exact_first_order_derivatives() {
        // amp(|11>) for Rx(t) . CNOT is -i·sin(t/2); its derivative w.r.t.
        // the Rx table's sin-entry weight is the CNOT path coefficient 1.
        let mut c = Circuit::new(2);
        c.rx(0, qkc_circuit::Param::symbol("t")).cnot(0, 1);
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let bound = sim.bind(&ParamMap::from_pairs([("t", 0.8)])).unwrap();
        let sens = bound.parameter_sensitivities(0b11, &[]);
        assert!(!sens.is_empty());
        // Multilinearity: amp == Σ contributions is not generally true, but
        // for each weight w: amp = d·w + (terms without w). Verify against
        // the analytic amplitude for the entry equal to -i·sin(t/2).
        let amp = bound.amplitude(0b11, &[]);
        let target = sens
            .iter()
            .find(|s| {
                s.weight
                    .approx_eq(qkc_math::Complex::imag(-(0.4f64).sin()), 1e-12)
            })
            .expect("sin entry present");
        // amp = derivative · weight here because the |11> path uses the
        // sin entry exactly once and every other path is zero.
        assert!(
            (target.derivative * target.weight).approx_eq(amp, 1e-10),
            "d·w = {} vs amp = {amp}",
            target.derivative * target.weight
        );
    }

    #[test]
    fn sensitivities_of_impossible_assignments_are_zero() {
        // Qubit 1 is never touched, so unit resolution rules out its
        // value 1: amp(|01>) is identically zero, and so is every
        // derivative of it — not the derivatives of |00>.
        let mut c = Circuit::new(2);
        c.rx(0, Param::symbol("a")).ry(0, Param::symbol("b"));
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let bound = sim
            .bind(&ParamMap::from_pairs([("a", 0.6), ("b", -1.1)]))
            .unwrap();
        assert_eq!(bound.amplitude(0b01, &[]), C_ZERO);
        let possible = bound.parameter_sensitivities(0b00, &[]);
        assert!(possible.iter().any(|s| s.derivative != C_ZERO));
        let impossible = bound.parameter_sensitivities(0b01, &[]);
        assert_eq!(impossible.len(), possible.len());
        for (got, same) in impossible.iter().zip(&possible) {
            assert_eq!(got.derivative, C_ZERO, "{}", got.node_label);
            assert_eq!(got.node_label, same.node_label);
            assert_eq!(got.weight, same.weight);
        }
    }

    #[test]
    #[should_panic(expected = "random-event arity mismatch")]
    fn sensitivities_reject_wrong_random_event_arity() {
        // One depolarizing event: omitting it would silently marginalize.
        let mut c = Circuit::new(1);
        c.rx(0, Param::symbol("a")).depolarize(0, 0.1);
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let bound = sim.bind(&ParamMap::from_pairs([("a", 0.6)])).unwrap();
        bound.parameter_sensitivities(0, &[]);
    }

    #[test]
    fn ascent_matches_enumeration_on_small_instances() {
        let mut c = Circuit::new(2);
        c.h(0)
            .bit_flip(0, 0.1)
            .cnot(0, 1)
            .phase_flip(1, 0.2)
            .bit_flip(1, 0.15);
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let bound = sim.bind(&ParamMap::new()).unwrap();
        for outputs in 0..4 {
            let exact = bound.most_probable_explanation(outputs, 1 << 12);
            let ascent = bound.most_probable_explanation(outputs, 1);
            let (Some(exact), Some(ascent)) = (exact, ascent) else {
                panic!("both should find explanations");
            };
            // Ascent may hit a local optimum in general, but on these tiny
            // landscapes it matches.
            assert!(
                (exact.probability - ascent.probability).abs() < 1e-9,
                "output {outputs}: {exact:?} vs {ascent:?}"
            );
        }
    }
}
