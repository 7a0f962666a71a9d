//! Arithmetic-circuit evaluation: the upward pass computes an amplitude
//! (weighted model count over the complex field, §3.3.1); the downward pass
//! computes, in one traversal, the partial derivative with respect to every
//! literal — which by Darwiche's differential semantics is the amplitude of
//! the query with that variable's evidence *replaced* (§3.3.2). The
//! downward pass is what makes Gibbs transitions O(|AC|).

use crate::nnf::{Nnf, NnfNode};
use crate::tape::LaneWeights;
use qkc_cnf::Lit;
use qkc_math::{Complex, C_ONE, C_ZERO};
use std::collections::HashMap;

/// Literal weights for evaluation: a pair `(w(+v), w(-v))` per variable.
///
/// * Parameter variables: `w(+P)` is the amplitude/probability value,
///   `w(-P) = 1`.
/// * Query variables under evidence: the indicator of the observed value
///   gets 1, the others 0.
/// * Everything else (summed-out internal states): both 1.
///
/// Weights are stored interleaved — slot `2v` is `w(+v)`, slot `2v+1` is
/// `w(-v)` — so a literal weight is one indexed load once its slot is
/// known. The compiled tape precomputes literal slots at lowering time,
/// making the leaf fetch branch-free on the hot path.
#[derive(Debug, Clone)]
pub struct AcWeights {
    w: Vec<Complex>,
}

impl AcWeights {
    /// All-ones weights over `num_vars` variables.
    pub fn uniform(num_vars: usize) -> Self {
        Self {
            w: vec![C_ONE; 2 * (num_vars + 1)],
        }
    }

    /// All-zeros weights over `num_vars` variables — the natural starting
    /// point for *tangent* vectors `d(weight)/dθ`, which are zero except at
    /// the parameter variables a symbol actually drives.
    pub fn zeros(num_vars: usize) -> Self {
        Self {
            w: vec![C_ZERO; 2 * (num_vars + 1)],
        }
    }

    /// The interleaved storage slot of a literal: `2v` for `+v`, `2v+1`
    /// for `-v`.
    #[inline]
    pub fn slot_of(l: Lit) -> u32 {
        if l > 0 {
            2 * l as u32
        } else {
            2 * (-l) as u32 + 1
        }
    }

    /// Sets both polarities of variable `v`.
    #[inline]
    pub fn set(&mut self, v: u32, pos: Complex, neg: Complex) {
        self.w[2 * v as usize] = pos;
        self.w[2 * v as usize + 1] = neg;
    }

    /// The weight of a literal.
    #[inline]
    pub fn get(&self, l: Lit) -> Complex {
        self.w[Self::slot_of(l) as usize]
    }

    /// The weight at a precomputed [`slot_of`](AcWeights::slot_of) slot.
    #[inline]
    pub fn by_slot(&self, slot: u32) -> Complex {
        self.w[slot as usize]
    }

    /// Number of interleaved slots (`2 × (num_vars + 1)`).
    #[inline]
    pub(crate) fn num_slots(&self) -> usize {
        self.w.len()
    }

    /// Number of variables covered.
    pub fn num_vars(&self) -> usize {
        self.w.len() / 2 - 1
    }
}

impl LaneWeights<Complex> for AcWeights {
    #[inline(always)]
    fn lanes(&self) -> usize {
        1
    }

    #[inline(always)]
    fn num_slots(&self) -> usize {
        self.w.len()
    }

    #[inline(always)]
    fn row(&self, slot: u32) -> &[Complex] {
        std::slice::from_ref(&self.w[slot as usize])
    }
}

/// Upward pass: the circuit's value under `weights`.
///
/// # Examples
///
/// ```
/// use qkc_cnf::Cnf;
/// use qkc_knowledge::{compile, evaluate, AcWeights, CompileOptions};
///
/// let mut f = Cnf::new(1);
/// f.add_clause(vec![1]);
/// let c = compile(&f, &CompileOptions::default());
/// let w = AcWeights::uniform(1);
/// assert_eq!(evaluate(&c.nnf, &w).re, 1.0);
/// ```
pub fn evaluate(nnf: &Nnf, weights: &AcWeights) -> Complex {
    let mut values = vec![C_ZERO; nnf.num_nodes()];
    for (i, node) in nnf.nodes().iter().enumerate() {
        values[i] = match node {
            NnfNode::True => C_ONE,
            NnfNode::False => C_ZERO,
            NnfNode::Lit(l) => weights.get(*l),
            NnfNode::And(cs) => {
                let mut acc = C_ONE;
                for &c in cs.iter() {
                    acc *= values[c as usize];
                    if acc == C_ZERO {
                        break;
                    }
                }
                acc
            }
            NnfNode::Or(a, b) => values[*a as usize] + values[*b as usize],
        };
    }
    values[nnf.root() as usize]
}

/// The result of a combined upward + downward pass.
#[derive(Debug)]
pub struct Differentials {
    /// Value at the root (the amplitude of the current evidence).
    pub value: Complex,
    partials: Vec<Complex>,
    lit_nodes: HashMap<Lit, u32>,
}

impl Differentials {
    /// `∂f/∂w(lit)`: with evidence weights this is the amplitude of the
    /// same query with `lit`'s variable re-assigned to satisfy `lit`
    /// (Darwiche's differential semantics; requires the circuit to be
    /// smooth over that variable's query group).
    ///
    /// Returns `None` if the literal does not appear in the circuit.
    pub fn wrt_lit(&self, lit: Lit) -> Option<Complex> {
        self.lit_nodes
            .get(&lit)
            .map(|&id| self.partials[id as usize])
    }

    /// The partial derivative of the root with respect to node `id`.
    pub fn wrt_node(&self, id: u32) -> Complex {
        self.partials[id as usize]
    }
}

/// Combined upward and downward pass.
///
/// The downward pass uses prefix/suffix products at AND nodes, so it is
/// exact even when some child values are zero (no divisions).
pub fn evaluate_with_differentials(nnf: &Nnf, weights: &AcWeights) -> Differentials {
    let n = nnf.num_nodes();
    let mut values = vec![C_ZERO; n];
    let mut lit_nodes: HashMap<Lit, u32> = HashMap::new();
    for (i, node) in nnf.nodes().iter().enumerate() {
        values[i] = match node {
            NnfNode::True => C_ONE,
            NnfNode::False => C_ZERO,
            NnfNode::Lit(l) => {
                lit_nodes.insert(*l, i as u32);
                weights.get(*l)
            }
            NnfNode::And(cs) => {
                let mut acc = C_ONE;
                for &c in cs.iter() {
                    acc *= values[c as usize];
                }
                acc
            }
            NnfNode::Or(a, b) => values[*a as usize] + values[*b as usize],
        };
    }
    let mut partials = vec![C_ZERO; n];
    partials[nnf.root() as usize] = C_ONE;
    let mut scratch: Vec<Complex> = Vec::new();
    for (i, node) in nnf.nodes().iter().enumerate().rev() {
        let p = partials[i];
        if p == C_ZERO {
            continue;
        }
        match node {
            NnfNode::And(cs) => {
                // scratch[k] = Π_{j>k} v_j stashed from the right; then a
                // forward sweep carries pq = p·Π_{j<k} v_j so each child's
                // contribution pq·scratch[k] costs a single multiply.
                scratch.clear();
                scratch.resize(cs.len(), C_ONE);
                let mut suffix = C_ONE;
                for (k, &c) in cs.iter().enumerate().rev() {
                    scratch[k] = suffix;
                    suffix *= values[c as usize];
                }
                let mut pq = p;
                for (k, &c) in cs.iter().enumerate() {
                    partials[c as usize] += pq * scratch[k];
                    pq *= values[c as usize];
                }
            }
            NnfNode::Or(a, b) => {
                partials[*a as usize] += p;
                partials[*b as usize] += p;
            }
            _ => {}
        }
    }
    Differentials {
        value: values[nnf.root() as usize],
        partials,
        lit_nodes,
    }
}

/// Samples one model (satisfying assignment) of the circuit, with branch
/// choices weighted by the *absolute* values of the literal weights — so
/// complex-amplitude cancellations cannot hide support.
///
/// Returns the literals along the sampled model, or `None` if the circuit
/// has no model with nonzero weight magnitude. Used to initialize Gibbs
/// chains inside the wavefunction's support, which plain random
/// initialization cannot guarantee for sharply peaked distributions.
pub fn sample_model<R: rand::Rng + ?Sized>(
    nnf: &Nnf,
    weights: &AcWeights,
    rng: &mut R,
) -> Option<Vec<Lit>> {
    let n = nnf.num_nodes();
    let mut mag = vec![0.0f64; n];
    for (i, node) in nnf.nodes().iter().enumerate() {
        mag[i] = match node {
            NnfNode::True => 1.0,
            NnfNode::False => 0.0,
            NnfNode::Lit(l) => weights.get(*l).norm(),
            NnfNode::And(cs) => cs.iter().map(|&c| mag[c as usize]).product(),
            NnfNode::Or(a, b) => mag[*a as usize] + mag[*b as usize],
        };
    }
    if mag[nnf.root() as usize] <= 0.0 {
        return None;
    }
    let mut lits = Vec::new();
    let mut stack = vec![nnf.root()];
    while let Some(id) = stack.pop() {
        match &nnf.nodes()[id as usize] {
            NnfNode::Lit(l) => lits.push(*l),
            NnfNode::And(cs) => stack.extend(cs.iter().copied()),
            NnfNode::Or(a, b) => {
                let (ma, mb) = (mag[*a as usize], mag[*b as usize]);
                let pick_a = if ma + mb <= 0.0 {
                    rng.gen::<bool>()
                } else {
                    rng.gen::<f64>() * (ma + mb) < ma
                };
                stack.push(if pick_a { *a } else { *b });
            }
            _ => {}
        }
    }
    Some(lits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompileOptions};
    use qkc_cnf::Cnf;

    #[test]
    fn derivative_matches_reassignment() {
        // f = (v1 ∨ v2) ∧ (¬v1 ∨ v3): check ∂f/∂λ against evaluating with
        // flipped evidence, for every var and polarity.
        let mut f = Cnf::new(3);
        f.add_clause(vec![1, 2]);
        f.add_clause(vec![-1, 3]);
        let c = compile(&f, &CompileOptions::default());
        // Smooth it over all three variables so differentials are total.
        let groups: Vec<Vec<Lit>> = (1..=3).map(|v| vec![v, -v]).collect();
        let nnf = crate::transform::smooth(&c.nnf, &groups);

        // Evidence: v1=1, v2=0, v3=1.
        let mut w = AcWeights::uniform(3);
        w.set(1, C_ONE, C_ZERO);
        w.set(2, C_ZERO, C_ONE);
        w.set(3, C_ONE, C_ZERO);
        let d = evaluate_with_differentials(&nnf, &w);
        assert_eq!(d.value, C_ONE); // (1∨0)∧(0∨1) = 1

        for v in 1..=3u32 {
            for phase in [true, false] {
                let lit = if phase { v as Lit } else { -(v as Lit) };
                // Re-evaluate with v's evidence replaced.
                let mut w2 = w.clone();
                if phase {
                    w2.set(v, C_ONE, C_ZERO);
                } else {
                    w2.set(v, C_ZERO, C_ONE);
                }
                let want = evaluate(&nnf, &w2);
                let got = d.wrt_lit(lit).unwrap_or(C_ZERO);
                assert!(got.approx_eq(want, 1e-12), "lit {lit}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn prefix_suffix_handles_zero_children() {
        // f = v1 ∧ v2 with w(+v2) = 0: ∂f/∂w(+v1) must still be exact.
        let mut f = Cnf::new(2);
        f.add_clause(vec![1]);
        f.add_clause(vec![2]);
        let c = compile(&f, &CompileOptions::default());
        let mut w = AcWeights::uniform(2);
        w.set(2, C_ZERO, C_ONE);
        let d = evaluate_with_differentials(&c.nnf, &w);
        assert_eq!(d.value, C_ZERO);
        // ∂f/∂w(+v2) = w(+v1) = 1 even though the product is zero.
        assert!(d.wrt_lit(2).unwrap().approx_eq(C_ONE, 1e-15));
    }

    #[test]
    fn sampled_models_satisfy_the_formula() {
        use rand::SeedableRng;
        let mut f = Cnf::new(3);
        f.add_clause(vec![1, 2]);
        f.add_clause(vec![-1, 3]);
        let c = compile(&f, &CompileOptions::default());
        let groups: Vec<Vec<Lit>> = (1..=3).map(|v| vec![v, -v]).collect();
        let nnf = crate::transform::smooth(&c.nnf, &groups);
        let w = AcWeights::uniform(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for _ in 0..50 {
            let lits = sample_model(&nnf, &w, &mut rng).expect("satisfiable");
            let mut assign = [true; 4];
            for &l in &lits {
                assign[l.unsigned_abs() as usize] = l > 0;
            }
            let a: Vec<bool> = (1..=3).map(|v| assign[v]).collect();
            assert!(f.is_satisfied_by(&a), "model {lits:?} violates formula");
        }
    }

    #[test]
    fn unsat_circuit_has_no_model() {
        use rand::SeedableRng;
        let mut f = Cnf::new(1);
        f.add_clause(vec![1]);
        f.add_clause(vec![-1]);
        let c = compile(&f, &CompileOptions::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert!(sample_model(&c.nnf, &AcWeights::uniform(1), &mut rng).is_none());
    }

    #[test]
    fn weights_accessors() {
        let mut w = AcWeights::uniform(2);
        assert_eq!(w.get(1), C_ONE);
        w.set(2, Complex::imag(2.0), Complex::real(3.0));
        assert_eq!(w.get(2), Complex::imag(2.0));
        assert_eq!(w.get(-2), Complex::real(3.0));
        assert_eq!(w.num_vars(), 2);
    }
}
