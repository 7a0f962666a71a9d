//! Gibbs (MCMC) sampling from compiled arithmetic circuits (paper §3.3.2).
//!
//! The chain's state assigns a value to every query variable — final qubit
//! states *and* noise/measurement RVs (the paper's transition list for the
//! Bell example flips `q0m2rv` alongside the qubit states). One coordinate
//! update costs a single upward + downward pass: the downward differentials
//! give the amplitude of every single-variable reassignment at once, and the
//! new value is drawn proportionally to `|amplitude|²`.
//!
//! Transitions run on the flat [`AcTape`] through a persistent
//! [`TapeEvaluator`], so a step performs zero allocations: the value /
//! partial buffers, the conditional-probability column, and the MH proposal
//! scratch are all owned by the sampler. A coordinate update whose weights
//! did not change since the last differential pass reuses its partials
//! (held); one that follows a single-variable move recomputes only that
//! variable's cone upward (delta). Densities that do not move the chain —
//! MH proposals, start states, [`GibbsSampler::current_amplitude`] — are
//! evaluated on a second, proposal-only evaluator, so they leave the
//! chain's differentials intact: a rejected proposal restores the evidence
//! bit for bit and costs the next update nothing, and only an accepted
//! proposal forces a full pass. [`GibbsStats`] counts each kind of step.
//! The unit tests run a reference chain beside it that makes the same
//! transitions with a full enum-walk differential pass
//! ([`evaluate_with_differentials`](crate::evaluate_with_differentials))
//! every update; both draw the same sample stream, bit for bit, for the
//! same seed.

use crate::evaluate::AcWeights;
use crate::tape::{AcTape, TapeEvaluator};
use qkc_cnf::Lit;
use qkc_math::{Complex, C_ONE, C_ZERO};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One query variable of the chain.
#[derive(Debug, Clone)]
pub struct QueryVar {
    /// Display / bookkeeping label.
    pub label: String,
    /// The literal asserting each domain value, indexed by value.
    /// Binary nodes: `[-v, +v]`; multi-valued nodes: positive indicators.
    /// Empty for variables that unit resolution removed from the circuit
    /// entirely (no evidence to apply).
    pub value_lits: Vec<Lit>,
    /// `Some(value)` if the variable is pinned: it never moves. Pinned
    /// variables with literals still receive evidence.
    pub fixed: Option<usize>,
}

/// Configuration of the sampler.
#[derive(Debug, Clone)]
pub struct GibbsOptions {
    /// Coordinate updates discarded before the first recorded sample.
    pub warmup: usize,
    /// Coordinate updates between recorded samples (1 = record after every
    /// update).
    ///
    /// Not read by the sampler: only the `thin` argument of
    /// [`GibbsSampler::sample_with`] (and of the samplers built on it)
    /// thins a chain.
    pub thin: usize,
    /// RNG seed.
    pub seed: u64,
    /// Probability of replacing a coordinate update with an independence
    /// Metropolis–Hastings move (a uniformly proposed full assignment,
    /// accepted with ratio `|amp(y)|²/|amp(x)|²`).
    ///
    /// Plain single-flip Gibbs cannot cross between perfectly correlated
    /// modes (e.g. the two branches of a Bell state) — the mixing caveat of
    /// the paper's §3.3.3. The MH move keeps the stationary distribution
    /// exact while making the chain irreducible over the full support. Set
    /// to 0 for the paper-faithful plain Gibbs kernel.
    pub mh_restart_prob: f64,
}

impl Default for GibbsOptions {
    fn default() -> Self {
        Self {
            warmup: 200,
            thin: 1,
            seed: 0,
            mh_restart_prob: 0.05,
        }
    }
}

/// Where a chain's transitions went. Every coordinate update is exactly one
/// of a full pass, a delta pass or a held step; every MH move is one
/// proposal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GibbsStats {
    /// Coordinate updates that ran a full upward + downward pass (the
    /// first update, and the first after an accepted MH proposal).
    pub full_passes: u64,
    /// Coordinate updates that recomputed only the upward cone of the
    /// variable the previous update moved, then a full downward pass.
    pub delta_passes: u64,
    /// Coordinate updates that reused the previous pass's partials: no
    /// weight changed since it.
    pub held_steps: u64,
    /// Coordinate updates that moved their variable to a new value.
    pub coordinate_moves: u64,
    /// Independence MH proposals.
    pub mh_proposed: u64,
    /// MH proposals accepted that changed the state. (An accepted
    /// proposal equal to the current state changes nothing.)
    pub mh_accepted: u64,
}

impl GibbsStats {
    /// Transitions taken: coordinate updates plus MH proposals.
    pub fn steps(&self) -> u64 {
        self.full_passes + self.delta_passes + self.held_steps + self.mh_proposed
    }

    /// Fraction of transitions that changed the state.
    pub fn acceptance_rate(&self) -> f64 {
        let steps = self.steps();
        if steps == 0 {
            0.0
        } else {
            (self.coordinate_moves + self.mh_accepted) as f64 / steps as f64
        }
    }
}

/// A Gibbs sampler over a smoothed arithmetic circuit, lowered to its flat
/// tape.
#[derive(Debug)]
pub struct GibbsSampler<'a> {
    tape: &'a AcTape,
    /// Runs the chain's differential passes, and nothing else.
    eval: TapeEvaluator,
    /// Evaluates densities that do not move the chain (MH proposals, start
    /// states, [`GibbsSampler::current_amplitude`]) and the model-sampling
    /// magnitudes, so `eval`'s buffers survive them.
    side: TapeEvaluator,
    /// CNF variables whose weights changed since the last differential
    /// pass — the delta set the next pass recomputes the cone of.
    changed: Vec<u32>,
    /// Too many changes to track (initialization, an accepted MH proposal):
    /// the next differential pass runs in full. A rejected proposal
    /// restores the evidence bit for bit and leaves it unset.
    changed_full: bool,
    /// `eval`'s partials still describe the current weights (no weight
    /// change since the last differential pass, rejected proposals
    /// included), so the next update can reuse them without any pass.
    diffs_fresh: bool,
    weights: AcWeights,
    vars: Vec<QueryVar>,
    state: Vec<usize>,
    /// Indices of unfixed variables — vars are immutable after
    /// construction, so this is built once instead of per transition.
    movable: Vec<usize>,
    /// Conditional `|amplitude|²` column scratch, one slot per domain value
    /// of the widest variable — reused every coordinate update.
    probs: Vec<f64>,
    /// MH-move scratch: the pre-proposal state and the proposal, reused.
    saved_state: Vec<usize>,
    /// Model-sampling scratch for chain initialization.
    model_lits: Vec<Lit>,
    rng: StdRng,
    stats: GibbsStats,
    mh_restart_prob: f64,
    /// |amplitude|² of the current state, kept in sync across moves.
    current_density: f64,
}

/// Bounded redraw budget for zero-density starts (see
/// [`GibbsSampler::new`]): model sampling weights branches by magnitude,
/// so each redraw lands on a cancelled state with probability < 1 whenever
/// the wavefunction has support, and the budget is generous enough that
/// exhausting it is astronomically unlikely in that case.
const ZERO_DENSITY_REDRAWS: usize = 32;

impl<'a> GibbsSampler<'a> {
    /// Creates a sampler over the flat compiled tape.
    ///
    /// `base_weights` must already carry parameter-variable values (and 1/1
    /// for summed-out internals); this sampler owns the evidence weights of
    /// the query variables.
    ///
    /// # Panics
    ///
    /// Panics if a query variable has an empty domain.
    pub fn new(
        tape: &'a AcTape,
        base_weights: AcWeights,
        vars: Vec<QueryVar>,
        options: &GibbsOptions,
    ) -> Self {
        let movable = movable_vars(&vars);
        let max_domain = vars.iter().map(|v| v.value_lits.len()).max().unwrap_or(0);
        let mut sampler = Self {
            tape,
            eval: TapeEvaluator::new(),
            side: TapeEvaluator::new(),
            changed: Vec::new(),
            // Start-state draws rewrite every query variable's evidence.
            changed_full: true,
            diffs_fresh: false,
            weights: base_weights,
            state: vec![0; vars.len()],
            vars,
            movable,
            probs: Vec::with_capacity(max_domain),
            saved_state: Vec::new(),
            model_lits: Vec::new(),
            rng: StdRng::seed_from_u64(options.seed),
            stats: GibbsStats::default(),
            mh_restart_prob: options.mh_restart_prob,
            current_density: 0.0,
        };
        // Initialize inside the support: sample a model of the circuit
        // (with query evidence summed out) and read off the query values.
        // Sharply peaked distributions — the variational regime of the
        // paper's Figure 3 — make random initialization land on
        // zero-amplitude states from which single-flip Gibbs cannot escape.
        //
        // The model-sampling magnitudes depend only on the summed-out base
        // weights, which are identical on every redraw attempt (evidence is
        // reset in between), so they are computed once and reused across
        // the whole redraw loop.
        let has_support = sampler.side.model_magnitudes(tape, &sampler.weights) > 0.0;
        sampler.draw_start(has_support);
        // Model sampling weights branches by magnitude, so phase
        // cancellation can still land the draw on a zero-amplitude state
        // (e.g. a destructively interfering branch whose sub-circuit
        // magnitudes dominate). Redraw before warmup, bounded.
        for _ in 0..ZERO_DENSITY_REDRAWS {
            if sampler.current_density > 0.0 {
                break;
            }
            reset_query_weights(&mut sampler.weights, &sampler.vars);
            sampler.draw_start(has_support);
        }
        // Warm-up moves the chain into the support and mixes it.
        for _ in 0..options.warmup {
            sampler.step();
        }
        sampler
    }

    /// Draws a start state by magnitude-weighted model sampling, applies
    /// its evidence, and records the resulting `|amplitude|²`. Expects the
    /// query-variable weights to be in their summed-out (1, 1) state, and
    /// the side evaluator's magnitude buffer to be current for those
    /// weights (it is computed once in the constructor and reused across
    /// redraws, since the weights do not change in between).
    fn draw_start(&mut self, has_support: bool) {
        let model = if has_support {
            self.side
                .draw_model(self.tape, &mut self.rng, &mut self.model_lits);
            Some(&self.model_lits[..])
        } else {
            None
        };
        assign_start_state(&self.vars, model, &mut self.state, &mut self.rng);
        for (var, &value) in self.vars.iter().zip(&self.state) {
            apply_evidence(&mut self.weights, var, value);
        }
        self.current_density = self.current_amplitude().norm_sqr();
    }

    /// The current assignment (one value per query variable).
    pub fn state(&self) -> &[usize] {
        &self.state
    }

    /// The query variables.
    pub fn vars(&self) -> &[QueryVar] {
        &self.vars
    }

    /// Where the chain's transitions went so far (warmup included).
    pub fn stats(&self) -> GibbsStats {
        self.stats
    }

    /// Fraction of transitions that changed the state; see
    /// [`GibbsStats::acceptance_rate`].
    pub fn acceptance_rate(&self) -> f64 {
        self.stats.acceptance_rate()
    }

    /// One transition: with probability `mh_restart_prob` an independence
    /// MH move, otherwise a Gibbs coordinate update — pick a random unfixed
    /// variable, compute the conditional |amplitude|² of each of its values
    /// via one upward+downward pass, and resample it. Zero allocations.
    pub fn step(&mut self) {
        if self.movable.is_empty() {
            return;
        }
        if self.mh_restart_prob > 0.0 && self.rng.gen::<f64>() < self.mh_restart_prob {
            self.mh_move();
            return;
        }
        let i = self.movable[self.rng.gen_range(0..self.movable.len())];
        // Weights unchanged since the last differential pass (previous
        // update resampled the same value, or an MH proposal was rejected):
        // the partials are still exact — skip both passes entirely.
        // Otherwise recompute just the dirty cone of the variables that
        // moved, falling back to a full pass after initialization or an
        // accepted MH proposal. All three paths are bit-for-bit a full
        // recompute.
        if self.diffs_fresh && self.changed.is_empty() && !self.changed_full {
            self.stats.held_steps += 1;
        } else {
            if self.changed_full {
                self.stats.full_passes += 1;
                self.eval.differentials(self.tape, &self.weights);
            } else {
                self.stats.delta_passes += 1;
                self.eval
                    .differentials_delta(self.tape, &self.weights, &self.changed);
            }
            self.changed.clear();
            self.changed_full = false;
            self.diffs_fresh = true;
        }
        // By Darwiche's differential semantics each value's literal
        // derivative is the amplitude with this variable re-assigned — for
        // binary nodes value 0's literal is `-v`, so one rule covers both
        // encodings.
        let (eval, tape) = (&self.eval, self.tape);
        self.probs.clear();
        self.probs.extend(
            self.vars[i]
                .value_lits
                .iter()
                .map(|&lit| eval.wrt_lit(tape, lit).unwrap_or(C_ZERO).norm_sqr()),
        );
        let total: f64 = self.probs.iter().sum();
        if total <= 0.0 {
            // Zero-support column (can only happen from a zero-amplitude
            // start state): leave the coordinate and try another next step.
            return;
        }
        let new_value = qkc_math::sample_cdf(&self.probs, &mut self.rng);
        self.current_density = self.probs[new_value];
        if new_value != self.state[i] {
            self.stats.coordinate_moves += 1;
            self.state[i] = new_value;
            apply_evidence(&mut self.weights, &self.vars[i], new_value);
            // The next differential pass recomputes (only) its cone.
            self.diffs_fresh = false;
            if !self.changed_full {
                self.changed
                    .extend(self.vars[i].value_lits.iter().map(|l| l.unsigned_abs()));
            }
        }
    }

    /// Independence Metropolis–Hastings move: propose a uniform full
    /// assignment; accept with probability `min(1, |amp(y)|²/|amp(x)|²)`
    /// (the proposal is symmetric/uniform, so the ratio is just the target
    /// density ratio). The proposal's density is evaluated on the side
    /// evaluator, and a rejection restores the evidence bit for bit, so
    /// only an accepted proposal costs the chain its differentials.
    fn mh_move(&mut self) {
        self.stats.mh_proposed += 1;
        self.saved_state.clear();
        self.saved_state.extend_from_slice(&self.state);
        for &i in &self.movable {
            self.state[i] = self.rng.gen_range(0..self.vars[i].value_lits.len());
            apply_evidence(&mut self.weights, &self.vars[i], self.state[i]);
        }
        let new_density = self.current_amplitude().norm_sqr();
        let accept = if self.current_density <= 0.0 {
            new_density > 0.0
        } else {
            self.rng.gen::<f64>() < (new_density / self.current_density).min(1.0)
        };
        if accept {
            if self.state != self.saved_state {
                self.stats.mh_accepted += 1;
                // A bulk weight change: the next differential pass runs in
                // full.
                self.diffs_fresh = false;
                self.changed_full = true;
                self.changed.clear();
            }
            self.current_density = new_density;
        } else {
            // Restoring the values restores the evidence weights bit for
            // bit, so the chain's differentials still describe them.
            self.state.copy_from_slice(&self.saved_state);
            for &i in &self.movable {
                apply_evidence(&mut self.weights, &self.vars[i], self.state[i]);
            }
        }
    }

    /// Draws `count` samples, recording the state every `thin` coordinate
    /// updates, and maps each recorded state through `project` (typically:
    /// extract the output-qubit bits).
    pub fn sample_with<T>(
        &mut self,
        count: usize,
        thin: usize,
        mut project: impl FnMut(&[usize]) -> T,
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            for _ in 0..thin.max(1) {
                self.step();
            }
            out.push(project(&self.state));
        }
        out
    }

    /// The amplitude of the chain's current full assignment: a full upward
    /// pass on the side evaluator. Its result does not depend on what that
    /// evaluator computed before, and the chain's differentials stay
    /// intact.
    pub fn current_amplitude(&mut self) -> Complex {
        self.side.evaluate(self.tape, &self.weights)
    }
}

/// Indices of the variables a chain may move; panics if one of them has no
/// literals to set evidence through.
fn movable_vars(vars: &[QueryVar]) -> Vec<usize> {
    assert!(
        vars.iter()
            .all(|v| v.fixed.is_some() || !v.value_lits.is_empty()),
        "movable variables need literals"
    );
    (0..vars.len())
        .filter(|&i| vars[i].fixed.is_none())
        .collect()
}

/// Reads a start state off a sampled model: a pinned variable keeps its
/// value, a free one takes the value whose literal the model asserts, or a
/// uniform draw when there is no model or it asserts none.
fn assign_start_state(
    vars: &[QueryVar],
    model: Option<&[Lit]>,
    state: &mut [usize],
    rng: &mut StdRng,
) {
    let mut polarity: std::collections::HashMap<u32, bool> = std::collections::HashMap::new();
    for &l in model.unwrap_or_default() {
        polarity.insert(l.unsigned_abs(), l > 0);
    }
    for (v, slot) in vars.iter().zip(state.iter_mut()) {
        let chosen = v.fixed.or_else(|| {
            v.value_lits
                .iter()
                .position(|&lit| polarity.get(&lit.unsigned_abs()) == Some(&(lit > 0)))
        });
        *slot = chosen.unwrap_or_else(|| rng.gen_range(0..v.value_lits.len()));
    }
}

/// Restores the summed-out (1, 1) weights of every query literal, undoing
/// applied evidence so model sampling sees the base distribution again.
fn reset_query_weights(weights: &mut AcWeights, vars: &[QueryVar]) {
    for var in vars {
        for &lit in &var.value_lits {
            weights.set(lit.unsigned_abs(), C_ONE, C_ONE);
        }
    }
}

/// Sets the evidence weights of `var` to value `chosen` (nothing to set for
/// a variable unit resolution removed).
fn apply_evidence(weights: &mut AcWeights, var: &QueryVar, chosen: usize) {
    let lits = &var.value_lits;
    if lits.len() == 2 && lits[0] == -lits[1] {
        // Binary-encoded: one CNF variable.
        let (pos, neg) = if chosen == 1 {
            (C_ONE, C_ZERO)
        } else {
            (C_ZERO, C_ONE)
        };
        weights.set(lits[1].unsigned_abs(), pos, neg);
    } else {
        // Indicator-encoded: chosen indicator 1, others 0; negative
        // polarities always 1.
        for (value, &lit) in lits.iter().enumerate() {
            let w = if value == chosen { C_ONE } else { C_ZERO };
            weights.set(lit.unsigned_abs(), w, C_ONE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompileOptions};
    use crate::evaluate::{evaluate, evaluate_with_differentials, sample_model};
    use crate::nnf::Nnf;
    use crate::transform::smooth;
    use qkc_cnf::Cnf;

    /// The enum-walk reference chain: [`GibbsSampler`]'s transitions,
    /// drawing from the RNG in the same order, but with every density
    /// walked on the [`Nnf`] arena and a full
    /// [`evaluate_with_differentials`] pass on every coordinate update (so
    /// `full_passes` counts every update, and nothing is held or delta).
    struct EnumWalkChain<'n> {
        nnf: &'n Nnf,
        weights: AcWeights,
        vars: Vec<QueryVar>,
        movable: Vec<usize>,
        state: Vec<usize>,
        rng: StdRng,
        mh_restart_prob: f64,
        density: f64,
        stats: GibbsStats,
    }

    impl<'n> EnumWalkChain<'n> {
        fn new(nnf: &'n Nnf, weights: AcWeights, vars: Vec<QueryVar>, o: &GibbsOptions) -> Self {
            let mut chain = Self {
                nnf,
                weights,
                movable: movable_vars(&vars),
                state: vec![0; vars.len()],
                vars,
                rng: StdRng::seed_from_u64(o.seed),
                mh_restart_prob: o.mh_restart_prob,
                density: 0.0,
                stats: GibbsStats::default(),
            };
            chain.draw_start();
            for _ in 0..ZERO_DENSITY_REDRAWS {
                if chain.density > 0.0 {
                    break;
                }
                reset_query_weights(&mut chain.weights, &chain.vars);
                chain.draw_start();
            }
            for _ in 0..o.warmup {
                chain.step();
            }
            chain
        }

        fn draw_start(&mut self) {
            let model = sample_model(self.nnf, &self.weights, &mut self.rng);
            assign_start_state(&self.vars, model.as_deref(), &mut self.state, &mut self.rng);
            self.apply_all_evidence();
            self.density = self.amplitude().norm_sqr();
        }

        fn apply_all_evidence(&mut self) {
            for (var, &value) in self.vars.iter().zip(&self.state) {
                apply_evidence(&mut self.weights, var, value);
            }
        }

        fn amplitude(&self) -> Complex {
            evaluate(self.nnf, &self.weights)
        }

        fn step(&mut self) {
            if self.movable.is_empty() {
                return;
            }
            if self.mh_restart_prob > 0.0 && self.rng.gen::<f64>() < self.mh_restart_prob {
                return self.mh_move();
            }
            let i = self.movable[self.rng.gen_range(0..self.movable.len())];
            self.stats.full_passes += 1;
            let d = evaluate_with_differentials(self.nnf, &self.weights);
            let probs: Vec<f64> = self.vars[i]
                .value_lits
                .iter()
                .map(|&lit| d.wrt_lit(lit).unwrap_or(C_ZERO).norm_sqr())
                .collect();
            if probs.iter().sum::<f64>() <= 0.0 {
                return;
            }
            let value = qkc_math::sample_cdf(&probs, &mut self.rng);
            self.density = probs[value];
            if value != self.state[i] {
                self.stats.coordinate_moves += 1;
                self.state[i] = value;
                apply_evidence(&mut self.weights, &self.vars[i], value);
            }
        }

        fn mh_move(&mut self) {
            self.stats.mh_proposed += 1;
            let saved = self.state.clone();
            for &i in &self.movable {
                self.state[i] = self.rng.gen_range(0..self.vars[i].value_lits.len());
            }
            self.apply_all_evidence();
            let density = self.amplitude().norm_sqr();
            let accept = if self.density <= 0.0 {
                density > 0.0
            } else {
                self.rng.gen::<f64>() < (density / self.density).min(1.0)
            };
            if accept {
                if self.state != saved {
                    self.stats.mh_accepted += 1;
                }
                self.density = density;
            } else {
                self.state = saved;
                self.apply_all_evidence();
            }
        }

        fn samples(&mut self, count: usize) -> Vec<Vec<usize>> {
            (0..count)
                .map(|_| {
                    self.step();
                    self.state.clone()
                })
                .collect()
        }
    }

    /// A 2-variable circuit with amplitudes ±1/√2 on (0,0) and (1,1):
    /// a Bell-like parity constraint v1 == v2.
    fn parity_nnf() -> Nnf {
        let mut f = Cnf::new(2);
        f.add_clause(vec![1, -2]);
        f.add_clause(vec![-1, 2]);
        let c = compile(&f, &CompileOptions::default());
        smooth(&c.nnf, &[vec![1, -1], vec![2, -2]])
    }

    fn parity_vars() -> Vec<QueryVar> {
        (1..=2)
            .map(|v| QueryVar {
                label: format!("q{v}"),
                value_lits: vec![-(v as Lit), v as Lit],
                fixed: None,
            })
            .collect()
    }

    #[test]
    fn chain_respects_support() {
        let nnf = parity_nnf();
        let tape = AcTape::lower(&nnf);
        let mut sampler = GibbsSampler::new(
            &tape,
            AcWeights::uniform(2),
            parity_vars(),
            &GibbsOptions {
                warmup: 50,
                thin: 1,
                seed: 42,
                ..Default::default()
            },
        );
        let samples = sampler.sample_with(500, 1, |s| (s[0], s[1]));
        for (a, b) in samples {
            assert_eq!(a, b, "chain left the support");
        }
    }

    #[test]
    fn chain_matches_biased_product_distribution() {
        // Two independent binary vars with amplitude weights (a, b) per
        // polarity: stationary marginals are |a|²/(|a|²+|b|²). Full support,
        // so the chain is irreducible (unlike Bell-like parity modes, which
        // single-flip Gibbs cannot cross — the mixing caveat of §3.3.3).
        let mut f = Cnf::new(2);
        f.add_clause(vec![1, -1]); // tautologies keep vars mentioned
        f.add_clause(vec![2, -2]);
        let c = compile(&f, &CompileOptions::default());
        let groups: Vec<Vec<Lit>> = (1..=2).map(|v| vec![v, -v]).collect();
        let nnf = smooth(&c.nnf, &groups);
        let tape = AcTape::lower(&nnf);
        let base = AcWeights::uniform(2);
        let vars: Vec<QueryVar> = (1..=2)
            .map(|v| QueryVar {
                label: format!("q{v}"),
                value_lits: vec![-(v as Lit), v as Lit],
                fixed: None,
            })
            .collect();
        // Conditional weights come from the evidence replacement — encode a
        // bias by scaling one variable's indicator weights via params? Keep
        // simple: uniform weights give 50/50 marginals.
        let mut sampler = GibbsSampler::new(
            &tape,
            base,
            vars,
            &GibbsOptions {
                warmup: 100,
                thin: 2,
                seed: 7,
                ..Default::default()
            },
        );
        let samples = sampler.sample_with(4000, 2, |s| s[0]);
        let ones = samples.iter().filter(|&&x| x == 1).count() as f64;
        let frac = ones / 4000.0;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "uniform marginal expected, got {frac}"
        );
    }

    #[test]
    fn fixed_vars_never_move() {
        let nnf = parity_nnf();
        let tape = AcTape::lower(&nnf);
        let mut vars = parity_vars();
        vars[0].fixed = Some(1);
        let mut sampler = GibbsSampler::new(
            &tape,
            AcWeights::uniform(2),
            vars,
            &GibbsOptions {
                warmup: 20,
                thin: 1,
                seed: 3,
                ..Default::default()
            },
        );
        let samples = sampler.sample_with(200, 1, |s| (s[0], s[1]));
        for (a, b) in samples {
            assert_eq!(a, 1);
            assert_eq!(b, 1, "parity forces the free var to follow");
        }
    }

    #[test]
    fn zero_density_start_is_redrawn_on_interference_heavy_circuit() {
        // f = (v1 ↔ v2) ∧ (v1 ∨ v3) with phase weights w(±v3) = (1, -1):
        // amp(0,0) = w(+v3) = 1 (v3 forced true), amp(1,1) = 1 + (-1) = 0
        // (destructive interference over the free v3), and the off-parity
        // states are unsatisfiable. Model sampling weights branches by
        // *magnitude*, so it prefers the cancelled (1,1) branch (mass 2 of
        // 3) — without the zero-density redraw the chain starts at a
        // zero-amplitude state it can never leave by single flips, and
        // every sample reports (1,1) even though that state has
        // probability zero.
        let mut f = Cnf::new(3);
        f.add_clause(vec![-1, 2]);
        f.add_clause(vec![1, -2]);
        f.add_clause(vec![1, 3]);
        let c = compile(&f, &CompileOptions::default());
        let groups: Vec<Vec<Lit>> = (1..=3).map(|v| vec![v, -v]).collect();
        let nnf = smooth(&c.nnf, &groups);
        let tape = AcTape::lower(&nnf);
        for seed in 0..20 {
            let mut base = AcWeights::uniform(3);
            base.set(3, C_ONE, qkc_math::Complex::real(-1.0));
            let mut sampler = GibbsSampler::new(
                &tape,
                base,
                parity_vars(),
                &GibbsOptions {
                    warmup: 30,
                    thin: 1,
                    seed,
                    mh_restart_prob: 0.0,
                },
            );
            assert!(
                sampler.current_amplitude().norm_sqr() > 0.0,
                "seed {seed}: chain initialized on a zero-amplitude state"
            );
            for (a, b) in sampler.sample_with(50, 1, |s| (s[0], s[1])) {
                assert_eq!(
                    (a, b),
                    (0, 0),
                    "seed {seed}: sampled a zero-probability state"
                );
            }
        }
    }

    /// Runs the tape chain and the enum-walk reference chain side by side
    /// and asserts they agree bit for bit: start state, every sample,
    /// amplitudes queried mid-chain, final assignment, acceptance rate and
    /// step bookkeeping. Returns the tape chain's stats and samples.
    fn assert_chains_match(
        nnf: &Nnf,
        base: &AcWeights,
        vars: &[QueryVar],
        options: &GibbsOptions,
        at: &str,
    ) -> (GibbsStats, Vec<Vec<usize>>) {
        let tape = AcTape::lower(nnf);
        let mut tape_chain = GibbsSampler::new(&tape, base.clone(), vars.to_vec(), options);
        let mut reference = EnumWalkChain::new(nnf, base.clone(), vars.to_vec(), options);
        assert_eq!(tape_chain.state(), &reference.state[..], "{at}: start");
        let mut stream = Vec::new();
        for _ in 0..4 {
            let a = tape_chain.sample_with(25, 1, <[usize]>::to_vec);
            let b = reference.samples(25);
            assert_eq!(a, b, "{at}: chains diverged");
            let (x, y) = (tape_chain.current_amplitude(), reference.amplitude());
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{at}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{at}");
            stream.extend(a);
        }
        assert_eq!(tape_chain.state(), &reference.state[..], "{at}: final");
        assert_eq!(
            tape_chain.acceptance_rate().to_bits(),
            reference.stats.acceptance_rate().to_bits(),
            "{at}"
        );
        let (t, e) = (tape_chain.stats(), reference.stats);
        assert_eq!(t.steps(), e.steps(), "{at}");
        assert_eq!(
            t.full_passes + t.delta_passes + t.held_steps,
            e.full_passes,
            "{at}: one reference pass per coordinate update"
        );
        assert_eq!(
            (t.coordinate_moves, t.mh_proposed, t.mh_accepted),
            (e.coordinate_moves, e.mh_proposed, e.mh_accepted),
            "{at}"
        );
        assert!(t.full_passes <= 1 + t.mh_accepted, "{at}: {t:?}");
        (t, stream)
    }

    /// A random compiled formula carrying every kind of query variable the
    /// stack hands the sampler: two free binary-encoded variables, one
    /// pinned with evidence, an indicator-encoded variable (exactly one of
    /// 3–4 indicators holds), one pinned without literals (what unit
    /// resolution leaves), and two summed-out variables under random
    /// complex weights. Random clauses over all of them may cut the support
    /// down to nothing, which the chains must also agree on.
    fn random_chain_case(seed: u64) -> (Nnf, AcWeights, Vec<QueryVar>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let domain = rng.gen_range(3..5usize);
        let indicators: Vec<Lit> = (4..4 + domain as Lit).collect();
        let num_vars = 3 + domain + 2;
        let mut f = Cnf::new(num_vars);
        f.add_clause(indicators.clone());
        for (k, &a) in indicators.iter().enumerate() {
            for &b in &indicators[k + 1..] {
                f.add_clause(vec![-a, -b]);
            }
        }
        for _ in 0..rng.gen_range(2..6usize) {
            let len = rng.gen_range(2..4usize);
            let clause = (0..len)
                .map(|_| {
                    let v = rng.gen_range(1..num_vars as Lit + 1);
                    if rng.gen::<bool>() {
                        v
                    } else {
                        -v
                    }
                })
                .collect();
            f.add_clause(clause);
        }
        let mut groups: Vec<Vec<Lit>> = (1..=3).map(|v| vec![-v, v]).collect();
        groups.push(indicators.clone());
        let nnf = smooth(&compile(&f, &CompileOptions::default()).nnf, &groups);
        let mut base = AcWeights::uniform(num_vars);
        for v in num_vars - 1..=num_vars {
            let mut c = || Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
            let (pos, neg) = (c(), c());
            base.set(v as u32, pos, neg);
        }
        let binary = |v: Lit, fixed| QueryVar {
            label: format!("q{v}"),
            value_lits: vec![-v, v],
            fixed,
        };
        let vars = vec![
            binary(1, None),
            binary(2, None),
            binary(3, Some(rng.gen_range(0..2usize))),
            QueryVar {
                label: "rv".into(),
                value_lits: indicators,
                fixed: None,
            },
            QueryVar {
                label: "resolved".into(),
                value_lits: Vec::new(),
                fixed: Some(0),
            },
        ];
        (nnf, base, vars)
    }

    #[test]
    fn tape_and_enum_walk_chains_are_bit_identical() {
        // Same seed, same circuit, both kernels, across MH rates from none
        // to most steps, so accepted and rejected proposals interleave with
        // delta and held updates. Two hand-made circuits pin the corner
        // cases — zero-density redraws (interference circuit) and accepted
        // proposals (full-support OR circuit) — and random formulas cover
        // binary, indicator-encoded and pinned variables.
        let rates = [0.0, 0.1, 0.3, 0.6];
        let mut totals = GibbsStats::default();
        let mut tally = |t: GibbsStats| {
            totals.mh_proposed += t.mh_proposed;
            totals.mh_accepted += t.mh_accepted;
            totals.held_steps += t.held_steps;
            totals.delta_passes += t.delta_passes;
        };

        let mut interference = Cnf::new(3);
        interference.add_clause(vec![-1, 2]);
        interference.add_clause(vec![1, -2]);
        interference.add_clause(vec![1, 3]);
        let mut or = Cnf::new(3);
        or.add_clause(vec![1, 2, 3]);
        let groups: Vec<Vec<Lit>> = (1..=3).map(|v| vec![v, -v]).collect();
        // The summed-out v3's weights: cancelling on the interference
        // circuit; on the OR circuit a phase that makes (0,0) less likely
        // than the other three states, so conditionals depend on the state.
        let cases = [
            (interference, qkc_math::Complex::real(-1.0)),
            (or, qkc_math::Complex::new(0.0, 0.5)),
        ];
        for (case, (f, neg3)) in cases.into_iter().enumerate() {
            let nnf = smooth(&compile(&f, &CompileOptions::default()).nnf, &groups);
            let mut base = AcWeights::uniform(3);
            base.set(3, C_ONE, neg3);
            for mh_restart_prob in rates {
                for seed in 0..10 {
                    let options = GibbsOptions {
                        warmup: 25,
                        thin: 1,
                        seed,
                        mh_restart_prob,
                    };
                    let at = format!("case {case}, mh {mh_restart_prob}, seed {seed}");
                    tally(assert_chains_match(&nnf, &base, &parity_vars(), &options, &at).0);
                }
            }
        }

        let mut indicator_values = std::collections::HashSet::new();
        for formula in 0..12 {
            let (nnf, base, vars) = random_chain_case(formula);
            for mh_restart_prob in rates {
                for seed in 0..3 {
                    let options = GibbsOptions {
                        warmup: 30,
                        thin: 1,
                        seed,
                        mh_restart_prob,
                    };
                    let at = format!("formula {formula}, mh {mh_restart_prob}, seed {seed}");
                    let (t, stream) = assert_chains_match(&nnf, &base, &vars, &options, &at);
                    tally(t);
                    indicator_values.extend(stream.iter().map(|s| s[3]));
                }
            }
        }

        // The cases cover every kind of step, and the indicator-encoded
        // variable moves.
        assert!(totals.mh_accepted > 0, "{totals:?}");
        assert!(totals.mh_proposed > totals.mh_accepted, "{totals:?}");
        assert!(
            totals.held_steps > 0 && totals.delta_passes > 0,
            "{totals:?}"
        );
        assert!(indicator_values.len() >= 3, "{indicator_values:?}");
    }

    #[test]
    fn acceptance_rate_reported() {
        let nnf = parity_nnf();
        let tape = AcTape::lower(&nnf);
        let mut sampler = GibbsSampler::new(
            &tape,
            AcWeights::uniform(2),
            parity_vars(),
            &GibbsOptions::default(),
        );
        sampler.sample_with(100, 1, |_| ());
        let rate = sampler.acceptance_rate();
        assert!((0.0..=1.0).contains(&rate));
    }
}
