//! Batched literal weights: `k` bindings of one compiled circuit in
//! lane-blocked split-plane layout.
//!
//! The paper's economics are compile-once-bind-many (§3.2): after knowledge
//! compilation every variational iteration only rewrites literal weights and
//! re-traverses the same AC. [`AcWeightsBatch`] holds `k` such weight
//! vectors so the tape's batched kernels
//! ([`TapeEvaluator::evaluate_batch`](crate::TapeEvaluator::evaluate_batch)
//! and friends) decode each instruction once and update `k` complex lanes
//! held as [`LaneBlock`]s: per slot, `⌈k/W⌉` blocks of `W` real lanes plus
//! `W` imaginary lanes, so every per-slot update is a straight-line loop
//! the compiler vectorizes.
//!
//! Every lane is **bit-for-bit identical** to the scalar
//! [`evaluate`](crate::evaluate())/
//! [`evaluate_with_differentials`](crate::evaluate_with_differentials())
//! result for the same weights (see [`crate::lanes`]). The engine's sweep
//! executor relies on this to keep results byte-identical across batch
//! widths. Ragged `k` occupies the trailing block's leading lanes; its
//! dead lanes are zero-filled and carried along as a masked remainder.

use crate::lanes::{blocks_for, Lane, LaneBlock, LANE_WIDTH};
use crate::tape::LaneWeights;
use qkc_cnf::Lit;
use qkc_math::{Complex, C_ONE};

/// Literal weights for `k` bindings in lane-blocked split-plane layout:
/// for each weight slot (row), `⌈k/W⌉` [`LaneBlock`]s of `W` lanes.
///
/// Lane `l` of the batch is exactly one scalar
/// [`AcWeights`](crate::AcWeights) vector; evidence that is shared by every
/// binding (query-variable indicators) is written once with
/// [`AcWeightsBatch::set_all`], per-binding parameter values with
/// [`AcWeightsBatch::set_lane`].
/// Rows are ordered by [`AcWeights::slot_of`](crate::AcWeights::slot_of)
/// slot — the blocks of `w(+v)` at row `2v`, of `w(-v)` at row `2v+1` — so
/// the compiled tape's precomputed literal slots index a row of blocks
/// directly. Dead lanes of a ragged trailing block are zero and stay zero.
#[derive(Debug, Clone)]
pub struct AcWeightsBatch {
    blocks: Vec<LaneBlock>,
    lanes: usize,
    num_vars: usize,
}

impl AcWeightsBatch {
    /// All-ones weights over `num_vars` variables and `lanes` bindings.
    pub fn uniform(num_vars: usize, lanes: usize) -> Self {
        let nb = blocks_for(lanes);
        let slots = if lanes == 0 { 0 } else { 2 * (num_vars + 1) };
        let mut blocks = vec![LaneBlock::ONE; slots * nb];
        if !lanes.is_multiple_of(LANE_WIDTH) {
            // Ragged batch: the trailing block of every row carries live
            // lanes only in its head; dead lanes hold exact zeros.
            let mut tail = LaneBlock::ZERO;
            for w in 0..lanes % LANE_WIDTH {
                tail.set(w, C_ONE);
            }
            for s in 0..slots {
                blocks[s * nb + nb - 1] = tail;
            }
        }
        Self {
            blocks,
            lanes,
            num_vars: if lanes == 0 { 0 } else { num_vars },
        }
    }

    /// Number of lanes (bindings) per variable.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of [`LaneBlock`]s per weight row (`⌈lanes/W⌉`).
    #[inline]
    pub fn blocks_per_row(&self) -> usize {
        blocks_for(self.lanes)
    }

    /// Number of variables covered (0 for an empty, zero-lane batch).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Sets both polarities of variable `v` in lane `lane`.
    pub fn set_lane(&mut self, v: u32, lane: usize, pos: Complex, neg: Complex) {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let nb = self.blocks_per_row();
        let (blk, w) = (lane / LANE_WIDTH, lane % LANE_WIDTH);
        self.blocks[2 * v as usize * nb + blk].set(w, pos);
        self.blocks[(2 * v as usize + 1) * nb + blk].set(w, neg);
    }

    /// Sets both polarities of variable `v` in every live lane (shared
    /// evidence). Dead remainder lanes stay zero.
    pub fn set_all(&mut self, v: u32, pos: Complex, neg: Complex) {
        let nb = self.blocks_per_row();
        let full = self.lanes / LANE_WIDTH;
        let rem = self.lanes % LANE_WIDTH;
        for (value, row) in [(pos, 2 * v as usize), (neg, 2 * v as usize + 1)] {
            let blocks = &mut self.blocks[row * nb..(row + 1) * nb];
            for b in &mut blocks[..full] {
                *b = LaneBlock::splat(value);
            }
            if rem != 0 {
                let tail = &mut blocks[full];
                for w in 0..rem {
                    tail.set(w, value);
                }
            }
        }
    }

    /// Copies every lane of variable `v` from `src` (row-level
    /// save/restore around evidence writes).
    ///
    /// # Panics
    ///
    /// Panics if `src` has a different lane count.
    pub fn copy_var_from(&mut self, src: &AcWeightsBatch, v: u32) {
        assert_eq!(self.lanes, src.lanes, "lane count mismatch");
        let nb = self.blocks_per_row();
        let row = 2 * v as usize * nb;
        self.blocks[row..row + 2 * nb].copy_from_slice(&src.blocks[row..row + 2 * nb]);
    }

    /// The weight of literal `l` in lane `lane`.
    #[inline]
    pub fn get(&self, l: Lit, lane: usize) -> Complex {
        self.row_blocks(l)[lane / LANE_WIDTH].get(lane % LANE_WIDTH)
    }

    /// The blocks holding a literal's `k` lane weights.
    #[inline]
    pub fn row_blocks(&self, l: Lit) -> &[LaneBlock] {
        self.row_blocks_by_slot(crate::AcWeights::slot_of(l))
    }

    /// The blocks at a precomputed
    /// [`slot_of`](crate::AcWeights::slot_of) slot.
    #[inline]
    pub fn row_blocks_by_slot(&self, slot: u32) -> &[LaneBlock] {
        let nb = self.blocks_per_row();
        &self.blocks[slot as usize * nb..(slot as usize + 1) * nb]
    }

    /// Number of weight rows covered (`2 × (num_vars + 1)`; 0 when empty).
    #[inline]
    pub(crate) fn num_slots(&self) -> usize {
        if self.lanes == 0 {
            0
        } else {
            2 * (self.num_vars + 1)
        }
    }
}

impl LaneWeights<LaneBlock> for AcWeightsBatch {
    #[inline(always)]
    fn lanes(&self) -> usize {
        self.lanes
    }

    #[inline(always)]
    fn num_slots(&self) -> usize {
        AcWeightsBatch::num_slots(self)
    }

    #[inline(always)]
    fn row(&self, slot: u32) -> &[LaneBlock] {
        self.row_blocks_by_slot(slot)
    }
}

/// Unpacks the first `out.len()` lanes of a block row into `out`.
#[inline]
pub(crate) fn unpack_row(row: &[LaneBlock], out: &mut [Complex]) {
    for (l, o) in out.iter_mut().enumerate() {
        *o = row[l / LANE_WIDTH].get(l % LANE_WIDTH);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompileOptions};
    use crate::evaluate::{evaluate, evaluate_with_differentials, AcWeights};
    use crate::nnf::Nnf;
    use crate::tape::{AcTape, DiffCone, TapeEvaluator};
    use crate::transform::smooth;
    use qkc_cnf::Cnf;
    use qkc_math::C_ZERO;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    fn batch_of(lane_weights: &[AcWeights]) -> AcWeightsBatch {
        let num_vars = lane_weights[0].num_vars();
        let mut batch = AcWeightsBatch::uniform(num_vars, lane_weights.len());
        for (lane, w) in lane_weights.iter().enumerate() {
            for v in 1..=num_vars as u32 {
                batch.set_lane(v, lane, w.get(v as Lit), w.get(-(v as Lit)));
            }
        }
        batch
    }

    fn bits_eq(a: Complex, b: Complex) -> bool {
        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
    }

    fn test_nnf() -> Nnf {
        // (v1 ∨ v2) ∧ (¬v1 ∨ v3), smoothed over all variables.
        let mut f = Cnf::new(3);
        f.add_clause(vec![1, 2]);
        f.add_clause(vec![-1, 3]);
        let c = compile(&f, &CompileOptions::default());
        let groups: Vec<Vec<Lit>> = (1..=3).map(|v| vec![v, -v]).collect();
        smooth(&c.nnf, &groups)
    }

    #[test]
    fn batch_matches_scalar_bit_for_bit() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(11);
        // Ragged widths straddle the block boundary: 1, W−1, W, W+1, 2W+3.
        for k in [
            1usize,
            3,
            LANE_WIDTH - 1,
            LANE_WIDTH,
            LANE_WIDTH + 1,
            2 * LANE_WIDTH + 3,
        ] {
            let lanes: Vec<AcWeights> = (0..k).map(|_| random_weights(3, &mut rng)).collect();
            let got = eval.evaluate_batch(&tape, &batch_of(&lanes)).to_vec();
            assert_eq!(got.len(), k);
            for (lane, w) in lanes.iter().enumerate() {
                let want = evaluate(&nnf, w);
                assert!(
                    bits_eq(got[lane], want),
                    "k {k} lane {lane}: {} vs {want}",
                    got[lane]
                );
            }
        }
    }

    #[test]
    fn batch_matches_scalar_with_zero_weights() {
        // Zero weights exercise the AND short-circuit; signs of zero must
        // still match the scalar kernel.
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut w0 = AcWeights::uniform(3);
        w0.set(1, C_ZERO, Complex::real(-1.0));
        w0.set(2, C_ZERO, C_ONE);
        let mut w1 = AcWeights::uniform(3);
        w1.set(3, C_ZERO, C_ZERO);
        w1.set(1, Complex::real(-2.0), C_ONE);
        let lanes = [w0, w1];
        let mut eval = TapeEvaluator::new();
        let got = eval.evaluate_batch(&tape, &batch_of(&lanes));
        for (lane, w) in lanes.iter().enumerate() {
            assert!(bits_eq(got[lane], evaluate(&nnf, w)), "lane {lane}");
        }
    }

    /// A cone seeded with every literal slot: the batched cone pass then
    /// leaves valid partials at every literal.
    fn literal_cone(tape: &AcTape) -> DiffCone {
        DiffCone::new(tape, tape.lit_slots().iter().map(|&(_, slot)| slot))
    }

    /// Asserts every lane of the evaluator's last batched differential
    /// pass equals the scalar enum-walk differentials of its weights.
    fn assert_lanes_match_scalar(
        nnf: &Nnf,
        tape: &AcTape,
        eval: &TapeEvaluator,
        lanes: &[AcWeights],
    ) {
        for (lane, w) in lanes.iter().enumerate() {
            let scalar = evaluate_with_differentials(nnf, w);
            assert!(
                bits_eq(eval.value_lane(tape, lane), scalar.value),
                "value lane {lane}"
            );
            for v in 1..=3i32 {
                for lit in [v, -v] {
                    assert_eq!(
                        eval.wrt_lit_lane(tape, lit, lane)
                            .map(|c| (c.re.to_bits(), c.im.to_bits())),
                        scalar
                            .wrt_lit(lit)
                            .map(|c| (c.re.to_bits(), c.im.to_bits())),
                        "lit {lit} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn differentials_batch_matches_scalar_bit_for_bit() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let cone = literal_cone(&tape);
        let mut rng = StdRng::seed_from_u64(23);
        for k in [1usize, 5, LANE_WIDTH, LANE_WIDTH + 1, 2 * LANE_WIDTH + 3] {
            let lanes: Vec<AcWeights> = (0..k).map(|_| random_weights(3, &mut rng)).collect();
            eval.differentials_cone_batch(&tape, &batch_of(&lanes), &cone);
            assert_lanes_match_scalar(&nnf, &tape, &eval, &lanes);
        }
    }

    #[test]
    fn differentials_batch_handles_zero_partials() {
        // Evidence weights with zeros: the downward pass must stay exact
        // (prefix/suffix products, no divisions) in every lane.
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut w = AcWeights::uniform(3);
        w.set(1, C_ONE, C_ZERO);
        w.set(2, C_ZERO, C_ONE);
        w.set(3, C_ONE, C_ZERO);
        let lanes = [w.clone(), w];
        let mut eval = TapeEvaluator::new();
        eval.differentials_cone_batch(&tape, &batch_of(&lanes), &literal_cone(&tape));
        assert_lanes_match_scalar(&nnf, &tape, &eval, &lanes);
    }

    #[test]
    fn empty_batch_is_empty() {
        let tape = AcTape::lower(&test_nnf());
        let batch = AcWeightsBatch::uniform(3, 0);
        assert!(TapeEvaluator::new()
            .evaluate_batch(&tape, &batch)
            .is_empty());
        assert_eq!(batch.num_vars(), 0);
        assert_eq!(batch.num_slots(), 0);
    }

    #[test]
    fn accessors_cover_lanes() {
        let mut b = AcWeightsBatch::uniform(2, 3);
        assert_eq!(b.lanes(), 3);
        assert_eq!(b.num_vars(), 2);
        assert_eq!(b.blocks_per_row(), 1);
        b.set_lane(1, 1, Complex::imag(2.0), Complex::real(3.0));
        assert_eq!(b.get(1, 1), Complex::imag(2.0));
        assert_eq!(b.get(-1, 1), Complex::real(3.0));
        assert_eq!(b.get(1, 0), C_ONE);
        b.set_all(2, C_ZERO, C_ONE);
        for lane in 0..3 {
            assert_eq!(b.get(2, lane), C_ZERO);
            assert_eq!(b.get(-2, lane), C_ONE);
        }
        // Dead remainder lanes stay exact zeros (masked remainder block).
        let row = b.row_blocks(2);
        assert_eq!(row.len(), 1);
        for w in 3..LANE_WIDTH {
            assert_eq!(row[0].get(w), C_ZERO);
        }
        let neg = b.row_blocks(-2)[0];
        for w in 3..LANE_WIDTH {
            assert_eq!(neg.get(w), C_ZERO);
        }
    }

    #[test]
    fn ragged_blocks_and_copy() {
        // k = W+2 spans two blocks; copy_var_from restores both rows.
        let k = LANE_WIDTH + 2;
        let mut a = AcWeightsBatch::uniform(2, k);
        let saved = a.clone();
        a.set_all(1, C_ZERO, Complex::real(4.0));
        for lane in 0..k {
            assert_eq!(a.get(1, lane), C_ZERO);
            assert_eq!(a.get(-1, lane), Complex::real(4.0));
        }
        a.copy_var_from(&saved, 1);
        for lane in 0..k {
            assert_eq!(a.get(1, lane), C_ONE);
            assert_eq!(a.get(-1, lane), C_ONE);
        }
    }
}
