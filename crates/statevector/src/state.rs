//! The state-vector representation and its gate-application kernels.

use qkc_math::{CMatrix, Complex, C_ONE, C_ZERO};

/// A pure `n`-qubit quantum state: `2^n` complex amplitudes, big-endian
/// (qubit 0 is the most significant index bit, matching `qkc-circuit`).
///
/// # Examples
///
/// ```
/// use qkc_statevector::StateVector;
/// use qkc_math::CMatrix;
///
/// let mut psi = StateVector::zero_state(2);
/// psi.apply_gate(&CMatrix::hadamard(), &[0]);
/// let p = psi.probabilities();
/// assert!((p[0] - 0.5).abs() < 1e-12 && (p[2] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0...0⟩`.
    pub fn zero_state(num_qubits: usize) -> Self {
        Self::basis_state(num_qubits, 0)
    }

    /// The computational basis state `|index⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^num_qubits`.
    pub fn basis_state(num_qubits: usize, index: usize) -> Self {
        let dim = 1usize << num_qubits;
        assert!(index < dim, "basis index {index} out of range");
        let mut amps = vec![C_ZERO; dim];
        amps[index] = C_ONE;
        Self { num_qubits, amps }
    }

    /// Wraps raw amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn from_amplitudes(amps: Vec<Complex>) -> Self {
        assert!(
            amps.len().is_power_of_two() && !amps.is_empty(),
            "amplitude count must be a nonzero power of two"
        );
        Self {
            num_qubits: amps.len().trailing_zeros() as usize,
            amps,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The amplitude of basis state `index`.
    pub fn amplitude(&self, index: usize) -> Complex {
        self.amps[index]
    }

    /// All amplitudes, basis-ordered.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// Born-rule probabilities of every basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// The 2-norm of the state (1 for a normalized state).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Rescales to unit norm.
    ///
    /// # Panics
    ///
    /// Panics if the state is (numerically) zero.
    pub fn normalize(&mut self) {
        let n = self.norm();
        assert!(n > 1e-300, "cannot normalize a zero state");
        let inv = 1.0 / n;
        for a in &mut self.amps {
            *a = a.scale(inv);
        }
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn inner(&self, other: &StateVector) -> Complex {
        assert_eq!(self.num_qubits, other.num_qubits);
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// The bit position (shift) of `qubit` inside a basis index.
    #[inline]
    fn bit_pos(&self, qubit: usize) -> usize {
        self.num_qubits - 1 - qubit
    }

    /// Applies a dense `2^k × 2^k` unitary to `qubits` (first listed qubit
    /// most significant), serially.
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimension does not match `qubits.len()` or a
    /// qubit repeats / is out of range.
    pub fn apply_gate(&mut self, u: &CMatrix, qubits: &[usize]) {
        self.apply_gate_threaded(u, qubits, 1);
    }

    /// Applies a dense unitary using up to `threads` worker threads.
    ///
    /// Work is split over disjoint amplitude groups, so no synchronization
    /// is needed beyond the final join. A `threads` of 0 or 1 runs serially.
    pub fn apply_gate_threaded(&mut self, u: &CMatrix, qubits: &[usize], threads: usize) {
        let k = qubits.len();
        assert_eq!(u.rows(), 1 << k, "gate dimension mismatch");
        assert!(
            qubits.iter().all(|&q| q < self.num_qubits),
            "qubit out of range"
        );
        if k == 1 {
            self.apply_single(u, qubits[0], threads);
        } else {
            self.apply_multi(u, qubits, threads);
        }
    }

    /// Specialized single-qubit kernel: iterate amplitude pairs.
    // Audited exception to the workspace `unsafe_code` deny: scoped
    // workers write disjoint amplitude groups (see SAFETY below).
    #[allow(unsafe_code)]
    fn apply_single(&mut self, u: &CMatrix, qubit: usize, threads: usize) {
        let p = self.bit_pos(qubit);
        let stride = 1usize << p;
        let dim = self.amps.len();
        let groups = dim >> (p + 1);
        let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
        let work = |amps: &mut [Complex], g0: usize, g1: usize| {
            for g in g0..g1 {
                let start = g << (p + 1);
                for off in 0..stride {
                    let i0 = start + off;
                    let i1 = i0 + stride;
                    let a0 = amps[i0];
                    let a1 = amps[i1];
                    amps[i0] = u00 * a0 + u01 * a1;
                    amps[i1] = u10 * a0 + u11 * a1;
                }
            }
        };
        // groups = 2^(n-1-p) >= 1 always, so the serial path covers all
        // cases. Thread spawning costs ~10-100µs; only parallelize when each
        // worker gets a large block (like qsim, threads pay off at ~18+
        // qubits).
        if threads <= 1 || groups < threads * (1 << 13) {
            work(&mut self.amps, 0, groups);
            return;
        }
        let chunk = groups.div_ceil(threads);
        let amps_ptr = SendPtr(self.amps.as_mut_ptr());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let g0 = t * chunk;
                let g1 = ((t + 1) * chunk).min(groups);
                if g0 >= g1 {
                    break;
                }
                let ptr = amps_ptr;
                scope.spawn(move || {
                    // SAFETY: each group `g` touches only indices in
                    // [g << (p+1), (g+1) << (p+1)), and group ranges are
                    // disjoint across threads.
                    let amps = unsafe { std::slice::from_raw_parts_mut(ptr.get(), dim) };
                    work(amps, g0, g1);
                });
            }
        });
    }

    /// General k-qubit kernel: gather 2^k amplitudes, multiply, scatter.
    // Audited exception to the workspace `unsafe_code` deny: scoped
    // workers write disjoint amplitude groups (see SAFETY below).
    #[allow(unsafe_code)]
    fn apply_multi(&mut self, u: &CMatrix, qubits: &[usize], threads: usize) {
        let k = qubits.len();
        let dim = self.amps.len();
        let positions: Vec<usize> = qubits.iter().map(|&q| self.bit_pos(q)).collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        {
            let mut dedup = sorted.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), k, "repeated qubit in gate application");
        }
        let sub_dim = 1usize << k;
        let outer = dim >> k;
        let expand = |c: usize| -> usize {
            let mut idx = c;
            for &p in &sorted {
                idx = ((idx >> p) << (p + 1)) | (idx & ((1 << p) - 1));
            }
            idx
        };
        let offsets: Vec<usize> = (0..sub_dim)
            .map(|y| {
                let mut off = 0usize;
                for (i, &p) in positions.iter().enumerate() {
                    if (y >> (k - 1 - i)) & 1 == 1 {
                        off |= 1 << p;
                    }
                }
                off
            })
            .collect();
        let work = |amps: &mut [Complex], c0: usize, c1: usize| {
            let mut gathered = vec![C_ZERO; sub_dim];
            for c in c0..c1 {
                let base = expand(c);
                for (y, &off) in offsets.iter().enumerate() {
                    gathered[y] = amps[base | off];
                }
                for (row, &off) in offsets.iter().enumerate() {
                    let mut acc = C_ZERO;
                    for (col, &g) in gathered.iter().enumerate() {
                        acc += u[(row, col)] * g;
                    }
                    amps[base | off] = acc;
                }
            }
        };
        if threads <= 1 || outer < threads * (1 << 13) {
            work(&mut self.amps, 0, outer);
            return;
        }
        let chunk = outer.div_ceil(threads);
        let amps_ptr = SendPtr(self.amps.as_mut_ptr());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let c0 = t * chunk;
                let c1 = ((t + 1) * chunk).min(outer);
                if c0 >= c1 {
                    break;
                }
                let ptr = amps_ptr;
                scope.spawn(move || {
                    // SAFETY: distinct compressed indices expand to disjoint
                    // amplitude groups.
                    let amps = unsafe { std::slice::from_raw_parts_mut(ptr.get(), dim) };
                    work(amps, c0, c1);
                });
            }
        });
    }

    /// Applies a diagonal operator given by its `2^k` diagonal entries.
    pub fn apply_diagonal(&mut self, diag: &[Complex], qubits: &[usize]) {
        let k = qubits.len();
        assert_eq!(diag.len(), 1 << k, "diagonal length mismatch");
        let positions: Vec<usize> = qubits.iter().map(|&q| self.bit_pos(q)).collect();
        for (idx, amp) in self.amps.iter_mut().enumerate() {
            let mut x = 0usize;
            for &p in &positions {
                x = (x << 1) | ((idx >> p) & 1);
            }
            *amp *= diag[x];
        }
    }

    /// Applies a classical permutation of sub-basis states on `qubits`.
    pub fn apply_permutation(&mut self, table: &[usize], qubits: &[usize]) {
        let k = qubits.len();
        assert_eq!(table.len(), 1 << k, "permutation length mismatch");
        let positions: Vec<usize> = qubits.iter().map(|&q| self.bit_pos(q)).collect();
        let mut next = vec![C_ZERO; self.amps.len()];
        for (idx, &amp) in self.amps.iter().enumerate() {
            let mut x = 0usize;
            for &p in &positions {
                x = (x << 1) | ((idx >> p) & 1);
            }
            let y = table[x];
            let mut out = idx;
            for (i, &p) in positions.iter().enumerate() {
                let bit = (y >> (k - 1 - i)) & 1;
                out = (out & !(1 << p)) | (bit << p);
            }
            next[out] = amp;
        }
        self.amps = next;
    }

    /// The probability that `qubit` measures to 1.
    pub fn prob_one(&self, qubit: usize) -> f64 {
        let p = self.bit_pos(qubit);
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| (i >> p) & 1 == 1)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Projects `qubit` onto `outcome` and renormalizes.
    ///
    /// # Panics
    ///
    /// Panics if the outcome has (numerically) zero probability.
    pub fn collapse(&mut self, qubit: usize, outcome: usize) {
        let p = self.bit_pos(qubit);
        for (i, a) in self.amps.iter_mut().enumerate() {
            if (i >> p) & 1 != outcome {
                *a = C_ZERO;
            }
        }
        self.normalize();
    }
}

/// A raw pointer wrapper that is `Send`, used to share the amplitude buffer
/// with scoped worker threads that write disjoint regions.
#[derive(Clone, Copy)]
struct SendPtr(*mut Complex);
// SAFETY (and the audited exception to the workspace `unsafe_code`
// deny): the pointer is only dereferenced inside `std::thread::scope`,
// which joins every worker before the buffer's borrow ends, and workers
// write disjoint index ranges.
#[allow(unsafe_code)]
const _: () = {
    unsafe impl Send for SendPtr {}
    unsafe impl Sync for SendPtr {}
};

impl SendPtr {
    /// Accessor method so closures capture the whole wrapper (which is
    /// `Send`) instead of the raw-pointer field (which is not).
    fn get(self) -> *mut Complex {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qkc_circuit::{Gate, ParamMap};

    fn gate(g: Gate) -> CMatrix {
        g.unitary(&ParamMap::new()).unwrap()
    }

    #[test]
    fn zero_state_has_unit_amplitude_at_origin() {
        let s = StateVector::zero_state(3);
        assert_eq!(s.amplitude(0), C_ONE);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_qubit_gate_on_each_wire() {
        for q in 0..3 {
            let mut s = StateVector::zero_state(3);
            s.apply_gate(&gate(Gate::X), &[q]);
            let expect = 1usize << (2 - q);
            assert_eq!(s.amplitude(expect), C_ONE, "X on qubit {q}");
        }
    }

    #[test]
    fn bell_state_probabilities() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate(&gate(Gate::H), &[0]);
        s.apply_gate(&gate(Gate::Cnot), &[0, 1]);
        let p = s.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn multi_qubit_kernel_matches_reference_embedding() {
        use qkc_circuit::reference;
        let u = gate(Gate::Cnot);
        for (a, b) in [(0, 2), (2, 0), (1, 3), (3, 1)] {
            let mut s = StateVector::zero_state(4);
            // Prepare a non-trivial state first.
            for q in 0..4 {
                s.apply_gate(&gate(Gate::H), &[q]);
                s.apply_gate(&gate(Gate::T), &[q]);
            }
            let mut expect_state: Vec<Complex> = s.amplitudes().to_vec();
            let full = reference::embed_unitary(&u, &[a, b], 4);
            expect_state = full.mul_vec(&expect_state);
            s.apply_gate(&u, &[a, b]);
            for (i, &want) in expect_state.iter().enumerate() {
                assert!(
                    s.amplitude(i).approx_eq(want, 1e-10),
                    "mismatch at {i} for CNOT({a},{b})"
                );
            }
        }
    }

    #[test]
    fn diagonal_kernel_matches_dense() {
        let theta = 0.93;
        let zz = Gate::Zz(theta.into());
        let dense = zz.unitary(&ParamMap::new()).unwrap();
        let diag = zz.diagonal(&ParamMap::new()).unwrap();
        let mut a = StateVector::zero_state(3);
        let mut b = StateVector::zero_state(3);
        for q in 0..3 {
            a.apply_gate(&gate(Gate::H), &[q]);
            b.apply_gate(&gate(Gate::H), &[q]);
        }
        a.apply_gate(&dense, &[2, 0]);
        b.apply_diagonal(&diag, &[2, 0]);
        for i in 0..8 {
            assert!(a.amplitude(i).approx_eq(b.amplitude(i), 1e-12));
        }
    }

    #[test]
    fn permutation_kernel_swaps() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate(&gate(Gate::X), &[1]); // |01>
        s.apply_permutation(&[0, 2, 1, 3], &[0, 1]); // SWAP
        assert_eq!(s.amplitude(2), C_ONE); // |10>
    }

    #[test]
    fn threaded_matches_serial() {
        let mut serial = StateVector::zero_state(6);
        let mut par = StateVector::zero_state(6);
        let ops: Vec<(Gate, Vec<usize>)> = vec![
            (Gate::H, vec![0]),
            (Gate::H, vec![3]),
            (Gate::Cnot, vec![0, 4]),
            (Gate::T, vec![4]),
            (Gate::Cz, vec![3, 5]),
            (Gate::Ccx, vec![0, 3, 1]),
            (Gate::Rx(0.7.into()), vec![2]),
        ];
        for (g, qs) in &ops {
            let u = g.unitary(&ParamMap::new()).unwrap();
            serial.apply_gate(&u, qs);
            par.apply_gate_threaded(&u, qs, 8);
        }
        for i in 0..64 {
            assert!(serial.amplitude(i).approx_eq(par.amplitude(i), 1e-12));
        }
    }

    #[test]
    fn collapse_and_prob_one() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate(&gate(Gate::H), &[0]);
        s.apply_gate(&gate(Gate::Cnot), &[0, 1]);
        assert!((s.prob_one(0) - 0.5).abs() < 1e-12);
        s.collapse(0, 1);
        assert_eq!(s.amplitude(3), C_ONE);
        assert!((s.prob_one(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inner_product_of_orthogonal_states() {
        let a = StateVector::basis_state(2, 1);
        let b = StateVector::basis_state(2, 2);
        assert!(a.inner(&b).approx_zero(1e-15));
        assert!(a.inner(&a).approx_eq(C_ONE, 1e-15));
    }

    proptest! {
        #[test]
        fn gates_preserve_norm(
            seed_gates in proptest::collection::vec(0usize..6, 1..20),
            n in 2usize..6,
        ) {
            let mut s = StateVector::zero_state(n);
            for (i, &g) in seed_gates.iter().enumerate() {
                let q = i % n;
                let q2 = (i + 1) % n;
                match g {
                    0 => s.apply_gate(&gate(Gate::H), &[q]),
                    1 => s.apply_gate(&gate(Gate::T), &[q]),
                    2 => s.apply_gate(&gate(Gate::X), &[q]),
                    3 => s.apply_gate(&gate(Gate::Cnot), &[q, q2]),
                    4 => s.apply_gate(&gate(Gate::Cz), &[q, q2]),
                    _ => s.apply_gate(&gate(Gate::Rx(0.37.into())), &[q]),
                }
            }
            prop_assert!((s.norm() - 1.0).abs() < 1e-9);
        }
    }
}
