//! Sampling driver over tensor networks.

use crate::network::TensorNetwork;
use qkc_circuit::{Circuit, CircuitError, ParamMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A tensor-network circuit sampler in the style of qTorch (the paper's
/// Figure 8 baseline).
///
/// Samples are drawn qubit-by-qubit from conditional marginals; each
/// conditional requires contracting the doubled (bra–ket) network, so the
/// per-sample cost is `O(n · contraction)` — the structural reason the paper
/// reports a 66× sampling-cost advantage for compiled arithmetic circuits,
/// which pay compilation once and then evaluate linearly per sample.
///
/// # Examples
///
/// ```
/// use qkc_circuit::{Circuit, ParamMap};
/// use qkc_tensornet::TensorNetworkSimulator;
/// use rand::SeedableRng;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cnot(0, 1);
/// let sim = TensorNetworkSimulator::new();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let s = sim.sample(&c, &ParamMap::new(), 20, &mut rng).unwrap();
/// assert!(s.iter().all(|&x| x == 0 || x == 3));
/// ```
#[derive(Debug, Clone)]
pub struct TensorNetworkSimulator {
    threads: usize,
}

impl Default for TensorNetworkSimulator {
    fn default() -> Self {
        Self::new()
    }
}

impl TensorNetworkSimulator {
    /// Creates a single-threaded sampler.
    pub fn new() -> Self {
        Self { threads: 1 }
    }

    /// Sets the number of worker threads; shots are partitioned across
    /// threads (the qTorch baseline is likewise run with 1 and 16 threads).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Draws one sample from an already-built network.
    pub fn sample_once<R: Rng + ?Sized>(&self, tn: &TensorNetwork, rng: &mut R) -> usize {
        let n = tn.num_qubits();
        let mut fixed: Vec<(usize, usize)> = Vec::with_capacity(n);
        let mut out = 0usize;
        for q in 0..n {
            let w = tn.conditional_marginal(q, &fixed);
            let total = w[0] + w[1];
            let p1 = if total > 0.0 { w[1] / total } else { 0.5 };
            let bit = usize::from(rng.gen::<f64>() < p1);
            fixed.push((q, bit));
            out = (out << 1) | bit;
        }
        out
    }

    /// Draws `shots` measurement outcomes from a noise-free circuit.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NotUnitary`] for noisy circuits or an
    /// unbound-parameter error.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        params: &ParamMap,
        shots: usize,
        rng: &mut R,
    ) -> Result<Vec<usize>, CircuitError> {
        let tn = TensorNetwork::from_circuit(circuit, params)?;
        if self.threads <= 1 {
            return Ok((0..shots).map(|_| self.sample_once(&tn, rng)).collect());
        }
        // Partition shots across threads, each with an independent RNG
        // stream seeded from the caller's RNG.
        let chunk = shots.div_ceil(self.threads);
        let seeds: Vec<u64> = (0..self.threads).map(|_| rng.gen()).collect();
        let mut all = Vec::with_capacity(shots);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (t, &seed) in seeds.iter().enumerate() {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(shots);
                if lo >= hi {
                    break;
                }
                let tn_ref = &tn;
                let this = &*self;
                handles.push(scope.spawn(move || {
                    let mut local_rng = StdRng::seed_from_u64(seed);
                    (lo..hi)
                        .map(|_| this.sample_once(tn_ref, &mut local_rng))
                        .collect::<Vec<usize>>()
                }));
            }
            for h in handles {
                all.extend(h.join().expect("sampler thread panicked"));
            }
        });
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkc_circuit::reference;
    use qkc_math::EmpiricalDistribution;

    #[test]
    fn sampled_distribution_matches_reference() {
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).rx(2, 1.1).cz(1, 2);
        let params = ParamMap::new();
        let probs = reference::pure_probabilities(&reference::run_pure(&c, &params).unwrap());
        let sim = TensorNetworkSimulator::new();
        let mut rng = StdRng::seed_from_u64(23);
        let shots = 20_000;
        let mut emp = EmpiricalDistribution::new(8);
        for s in sim.sample(&c, &params, shots, &mut rng).unwrap() {
            emp.record(s);
        }
        for (b, &p) in probs.iter().enumerate() {
            assert!(
                (emp.probability(b) - p).abs() < 0.015,
                "outcome {b}: {} vs {p}",
                emp.probability(b)
            );
        }
    }

    #[test]
    fn threaded_sampling_returns_all_shots() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let sim = TensorNetworkSimulator::new().with_threads(4);
        let mut rng = StdRng::seed_from_u64(5);
        let s = sim.sample(&c, &ParamMap::new(), 101, &mut rng).unwrap();
        assert_eq!(s.len(), 101);
        assert!(s.iter().all(|&x| x == 0 || x == 3));
    }
}
