//! Flat compiled-circuit tape: the cache-friendly execution form of an
//! [`Nnf`].
//!
//! Every query the system answers — amplitudes, probabilities,
//! expectations, Gibbs transitions, batched sweep lanes — bottoms out in a
//! traversal of the compiled d-DNNF (paper §3.2–3.3). The enum arena is
//! the right shape for *building* (hash-consing, transformation passes) but
//! the wrong shape for *executing*: every AND node chases a `Box<[NnfId]>`
//! pointer, every node pays a 24-byte enum decode, literal leaves branch on
//! the weight sign, and every traversal re-allocates its value buffers.
//! [`AcTape`] is a one-time lowering into a flat, topologically-ordered
//! instruction stream with CSR child storage (one contiguous edge buffer
//! plus per-node ranges), constant folding and dead-node pruning, a
//! dedicated two-child AND opcode (the dominant shape exhaustive-DPLL
//! compilation produces), precomputed branch-free literal weight slots, and
//! a literal→slot table that replaces the per-call `HashMap` the
//! differential pass used to build.
//!
//! [`TapeEvaluator`] owns every scratch buffer the kernels need, so after
//! the first call on a given tape no query allocates — and buffers whose
//! every slot is overwritten by a pass are not even re-zeroed between
//! calls. Each arithmetic kernel — the upward pass (short-circuited or
//! full-product), the dirty-cone delta update, the downward sweep (whole
//! tape or an ancestor cone) and the tangent contraction — is written
//! once, generic over a [`Lane`] type, and walks rows of `nb` lane values
//! per slot: the scalar queries instantiate it at [`Complex`] (`nb = 1`),
//! the `k`-lane batched queries at [`LaneBlock`] (`nb = ⌈k/W⌉`).
//! Magnitude-guided model sampling runs over the same persistent storage.
//!
//! # Determinism contract
//!
//! Every kernel is **bit-for-bit identical**, lane by lane, to the scalar
//! enum-walk reference implementation
//! ([`evaluate`](crate::evaluate()),
//! [`evaluate_with_differentials`](crate::evaluate_with_differentials()),
//! [`sample_model`](crate::sample_model())): the per-node operation
//! sequence (child order, the zero short-circuit at AND nodes, the
//! zero-partial skip in the downward pass, prefix/suffix products —
//! including the multiplications by exact one the reference performs) is
//! mirrored exactly, and model sampling visits OR nodes in the same order
//! so it consumes the same RNG stream. Lowering only performs
//! transformations that provably preserve bits: dead nodes are pruned
//! (they never contribute), ⊤/⊥ become precomputed constants (the values
//! the reference assigns), and an AND whose children are all constants is
//! folded by running the reference recipe at lowering time. OR nodes are
//! never folded — model sampling draws one random number per OR visit, so
//! removing one would shift the stream.

use crate::batch::unpack_row;
use crate::evaluate::AcWeights;
use crate::lanes::{blocks_for, Lane, LaneBlock, LANE_WIDTH};
use crate::nnf::{Nnf, NnfNode};
use crate::AcWeightsBatch;
use qkc_cnf::Lit;
use qkc_math::{Complex, C_ONE, C_ZERO};
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of unique tape stamps (see [`AcTape::lower`]): lets an evaluator
/// prove its cached value buffer belongs to the tape it is handed, so the
/// delta kernels can refuse stale state without trusting the caller.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// Index of an instruction (node) in an [`AcTape`].
pub type TapeId = u32;

/// Instruction opcodes. Kept small so the dispatch in the hot loops
/// compiles to a dense jump table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TapeOpKind {
    /// A precomputed constant: `a` indexes the tape's constant pool.
    Const = 0,
    /// A literal leaf: `a` is the precomputed
    /// [`AcWeights::slot_of`] weight slot, `b` the literal bit-cast to
    /// `u32`.
    Lit = 1,
    /// A two-child product node: children are the slots `a` and `b`.
    /// Split out from [`TapeOpKind::And`] because exhaustive-DPLL
    /// compilation makes binary ANDs the dominant shape — the unrolled
    /// kernel skips the edge-buffer indirection and loop bookkeeping.
    And2 = 2,
    /// A general product node: children are `edges[a..b]`, in source
    /// order.
    And = 3,
    /// A two-child sum node: children are the slots `a` and `b`.
    Or = 4,
}

/// One fixed-size instruction: opcode plus two payload words. 12 bytes,
/// scanned linearly — no per-node heap indirection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeOp {
    /// The opcode.
    pub kind: TapeOpKind,
    /// First payload word (see [`TapeOpKind`]).
    pub a: u32,
    /// Second payload word (see [`TapeOpKind`]).
    pub b: u32,
}

/// A flat, topologically-ordered compiled circuit: the execution form every
/// evaluator in the stack runs on. Build one per compiled [`Nnf`] with
/// [`AcTape::lower`] and reuse it for the artifact's lifetime.
///
/// # Invariants (established by lowering, relied on by the kernels)
///
/// * children precede parents: every child slot referenced by an
///   instruction is smaller than the instruction's own slot;
/// * every `And` edge range lies within the edge buffer, every `Const`
///   index within the constant pool;
/// * `weight_slots` bounds every `Lit` instruction's weight slot.
#[derive(Debug, Clone)]
pub struct AcTape {
    ops: Vec<TapeOp>,
    /// CSR child buffer: a general AND at slot `i` owns
    /// `edges[ops[i].a .. ops[i].b]`.
    edges: Vec<TapeId>,
    /// Folded constant values, indexed by `Const` payloads.
    consts: Vec<Complex>,
    /// `(literal, slot)` pairs sorted by literal — the precomputed
    /// literal→slot table that replaces the differential pass's per-call
    /// `HashMap`.
    lit_slots: Vec<(Lit, TapeId)>,
    /// Reverse CSR: slot `i`'s parents are
    /// `parents[parent_offsets[i] .. parent_offsets[i + 1]]`. Drives the
    /// delta kernels' dirty-cone propagation.
    parent_offsets: Vec<u32>,
    parents: Vec<TapeId>,
    /// One past the largest weight slot any `Lit` instruction reads: the
    /// minimum [`AcWeights::num_slots`] the kernels accept.
    weight_slots: u32,
    /// Largest product-node arity on the tape (`And2` counts as 2; 0 when
    /// the tape has no product nodes). Derived — computed by lowering and
    /// re-derived at wire decode, never serialized — and used by the
    /// batched downward sweeps to size their suffix-stash scratch once per
    /// pass instead of once per node.
    max_and_arity: u32,
    /// Process-unique identity of this lowering (shared by clones, which
    /// are bit-identical).
    stamp: u64,
    root: TapeId,
}

impl AcTape {
    /// Lowers an [`Nnf`] into tape form: prunes nodes unreachable from the
    /// root, folds constants (exactly — see the module docs), renumbers the
    /// survivors topologically, and packs AND children into one contiguous
    /// edge buffer.
    pub fn lower(nnf: &Nnf) -> Self {
        let n = nnf.num_nodes();
        // Pass 1 (forward): which nodes fold to a constant, and to what.
        // The fold replays the reference evaluation recipe over constant
        // inputs, so a folded value is bitwise the value the enum walk
        // would compute.
        let mut folded: Vec<Option<Complex>> = vec![None; n];
        for (i, node) in nnf.nodes().iter().enumerate() {
            folded[i] = match node {
                NnfNode::True => Some(C_ONE),
                NnfNode::False => Some(C_ZERO),
                NnfNode::Lit(_) => None,
                NnfNode::And(cs) => {
                    if cs.iter().all(|&c| folded[c as usize].is_some()) {
                        let mut acc = C_ONE;
                        for &c in cs.iter() {
                            acc *= folded[c as usize].expect("checked const");
                            if acc == C_ZERO {
                                break;
                            }
                        }
                        Some(acc)
                    } else {
                        None
                    }
                }
                // OR nodes never fold: model sampling draws one random
                // number per OR visit, so folding one would shift the
                // stream.
                NnfNode::Or(..) => None,
            };
        }
        // Pass 2 (backward): mark the nodes the tape must materialize.
        // A folded node needs no children; everything else keeps its
        // children live.
        let mut live = vec![false; n];
        live[nnf.root() as usize] = true;
        for (i, node) in nnf.nodes().iter().enumerate().rev() {
            if !live[i] || folded[i].is_some() {
                continue;
            }
            match node {
                NnfNode::And(cs) => {
                    for &c in cs.iter() {
                        live[c as usize] = true;
                    }
                }
                NnfNode::Or(a, b) => {
                    live[*a as usize] = true;
                    live[*b as usize] = true;
                }
                _ => {}
            }
        }
        // Pass 3 (forward): emit instructions for live nodes in the
        // original topological order, renumbering densely.
        let mut slot_of: Vec<TapeId> = vec![u32::MAX; n];
        let mut ops: Vec<TapeOp> = Vec::new();
        let mut edges: Vec<TapeId> = Vec::new();
        let mut consts: Vec<Complex> = Vec::new();
        let mut lit_slots: Vec<(Lit, TapeId)> = Vec::new();
        let mut weight_slots = 0u32;
        for (i, node) in nnf.nodes().iter().enumerate() {
            if !live[i] {
                continue;
            }
            let slot = ops.len() as TapeId;
            slot_of[i] = slot;
            let op = if let Some(value) = folded[i] {
                let cx = consts.len() as u32;
                consts.push(value);
                TapeOp {
                    kind: TapeOpKind::Const,
                    a: cx,
                    b: 0,
                }
            } else {
                match node {
                    NnfNode::Lit(l) => {
                        lit_slots.push((*l, slot));
                        let wslot = AcWeights::slot_of(*l);
                        weight_slots = weight_slots.max(wslot + 1);
                        TapeOp {
                            kind: TapeOpKind::Lit,
                            a: wslot,
                            b: *l as u32,
                        }
                    }
                    NnfNode::And(cs) if cs.len() == 2 => TapeOp {
                        kind: TapeOpKind::And2,
                        a: slot_of[cs[0] as usize],
                        b: slot_of[cs[1] as usize],
                    },
                    NnfNode::And(cs) => {
                        let start = edges.len() as u32;
                        edges.extend(cs.iter().map(|&c| slot_of[c as usize]));
                        TapeOp {
                            kind: TapeOpKind::And,
                            a: start,
                            b: edges.len() as u32,
                        }
                    }
                    NnfNode::Or(a, b) => TapeOp {
                        kind: TapeOpKind::Or,
                        a: slot_of[*a as usize],
                        b: slot_of[*b as usize],
                    },
                    NnfNode::True | NnfNode::False => unreachable!("constants always fold"),
                }
            };
            ops.push(op);
        }
        lit_slots.sort_unstable_by_key(|&(l, _)| l);
        let (parent_offsets, parents) = build_parent_csr(&ops, &edges);
        Self {
            root: slot_of[nnf.root() as usize],
            max_and_arity: max_and_arity(&ops),
            ops,
            edges,
            consts,
            lit_slots,
            parent_offsets,
            parents,
            weight_slots,
            stamp: NEXT_STAMP.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The instruction stream, children before parents.
    pub fn ops(&self) -> &[TapeOp] {
        &self.ops
    }

    /// Number of instructions (live nodes).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of CSR edges (general-AND child references; binary AND and
    /// OR children live inline in the instruction).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The root instruction slot.
    pub fn root(&self) -> TapeId {
        self.root
    }

    /// The tape slot of a literal leaf, if the literal survives in the
    /// circuit. O(log #lits) over the precomputed slot table.
    #[inline]
    pub fn lit_slot(&self, lit: Lit) -> Option<TapeId> {
        self.lit_slots
            .binary_search_by_key(&lit, |&(l, _)| l)
            .ok()
            .map(|ix| self.lit_slots[ix].1)
    }

    /// The sorted `(literal, slot)` table.
    pub fn lit_slots(&self) -> &[(Lit, TapeId)] {
        &self.lit_slots
    }

    /// The CSR child buffer general-AND instructions index into.
    pub fn edges(&self) -> &[TapeId] {
        &self.edges
    }

    /// The folded constant pool `Const` instructions index into.
    pub fn consts(&self) -> &[Complex] {
        &self.consts
    }

    /// One past the largest weight slot any literal instruction reads: the
    /// minimum number of weight slots (`2 × (num_vars + 1)` for an
    /// [`AcWeights`]) a weight vector must cover for the kernels to accept
    /// it.
    pub fn required_weight_slots(&self) -> u32 {
        self.weight_slots
    }

    /// Largest product-node arity on the tape (`And2` counts as 2; 0 when
    /// there are no product nodes). Derived at lowering and re-derived at
    /// wire decode.
    pub fn max_and_arity(&self) -> u32 {
        self.max_and_arity
    }

    /// Number of tape slots in the ancestor cone of the given literals
    /// (the literal slots themselves included): the work a delta pass pays
    /// when those literals' weights change. Compile-time planning helper —
    /// enumeration orders that flip small-cone variables most often make
    /// evidence sweeps cheap. Allocates; not for hot paths.
    pub fn cone_size(&self, lits: &[Lit]) -> usize {
        let mut seen = vec![false; self.ops.len()];
        let mut stack: Vec<TapeId> = Vec::with_capacity(lits.len());
        for slot in lits.iter().filter_map(|&l| self.lit_slot(l)) {
            // Dedup the seeds: repeated literals must not double-count.
            if !seen[slot as usize] {
                seen[slot as usize] = true;
                stack.push(slot);
            }
        }
        let mut count = 0usize;
        while let Some(s) = stack.pop() {
            count += 1;
            for &p in self.parents_of(s) {
                if !seen[p as usize] {
                    seen[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        count
    }

    /// Exact resident size in bytes: the struct plus every backing buffer.
    /// This is the number the artifact cache accounts under
    /// `ac_size_bytes` (and the natural wire size of the flat format).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.ops.len() * std::mem::size_of::<TapeOp>()
            + self.edges.len() * std::mem::size_of::<TapeId>()
            + self.consts.len() * std::mem::size_of::<Complex>()
            + self.lit_slots.len() * std::mem::size_of::<(Lit, TapeId)>()
            + self.parent_offsets.len() * std::mem::size_of::<u32>()
            + self.parents.len() * std::mem::size_of::<TapeId>()
    }

    /// The parents of a slot (reverse CSR).
    #[inline]
    fn parents_of(&self, slot: TapeId) -> &[TapeId] {
        &self.parents[self.parent_offsets[slot as usize] as usize
            ..self.parent_offsets[slot as usize + 1] as usize]
    }

    /// Panics unless `weights` covers every weight slot the tape reads —
    /// the single bounds check each kernel pass performs up front so its
    /// per-node loop can index weights without rechecking.
    #[inline]
    fn check_weights(&self, num_slots: usize) {
        assert!(
            self.weight_slots as usize <= num_slots,
            "weight vector covers {num_slots} slots but the tape reads {}",
            self.weight_slots
        );
    }

    /// Serializes the tape into its versioned, checksummed wire format —
    /// the on-disk / over-the-wire form of a compiled artifact (spill
    /// files, distributed sweep sharding).
    ///
    /// Layout (little-endian): magic `QKTP`, format version, root /
    /// weight-slot words, four section counts, then the four flat sections
    /// exactly as resident — fixed-width ops (opcode byte + two payload
    /// words), CSR edge buffer, constant pool (IEEE-754 bit patterns, so
    /// round-trips are bit-exact), sorted literal→slot table — and a
    /// trailing FNV-1a checksum over everything before it. The parent CSR
    /// and the process-unique stamp are *not* serialized: both are derived
    /// (and re-derived cheaply) by [`AcTape::from_bytes`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            WIRE_HEADER_BYTES
                + self.ops.len() * 9
                + self.edges.len() * 4
                + self.consts.len() * 16
                + self.lit_slots.len() * 8
                + 8,
        );
        out.extend_from_slice(&WIRE_MAGIC);
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved
        out.extend_from_slice(&self.root.to_le_bytes());
        out.extend_from_slice(&self.weight_slots.to_le_bytes());
        out.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.edges.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.consts.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.lit_slots.len() as u32).to_le_bytes());
        for op in &self.ops {
            out.push(op.kind as u8);
            out.extend_from_slice(&op.a.to_le_bytes());
            out.extend_from_slice(&op.b.to_le_bytes());
        }
        for &e in &self.edges {
            out.extend_from_slice(&e.to_le_bytes());
        }
        for c in &self.consts {
            out.extend_from_slice(&c.re.to_bits().to_le_bytes());
            out.extend_from_slice(&c.im.to_bits().to_le_bytes());
        }
        for &(l, s) in &self.lit_slots {
            out.extend_from_slice(&l.to_le_bytes());
            out.extend_from_slice(&s.to_le_bytes());
        }
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Deserializes a tape from [`AcTape::to_bytes`] output.
    ///
    /// Every kernel invariant the lowering establishes is re-validated
    /// here — children precede parents, edge ranges and constant indices
    /// in bounds, literal slots pointing at matching `Lit` instructions in
    /// strictly increasing literal order — so a decoded tape is as safe to
    /// execute as a freshly lowered one, and a hostile or bit-rotted
    /// payload is rejected with an error rather than trusted. The decoded
    /// tape is bit-for-bit equivalent to the encoded one under every
    /// evaluator kernel; it carries a fresh stamp (evaluator delta caches
    /// never confuse it with the original).
    ///
    /// # Errors
    ///
    /// [`TapeDecodeError`] on wrong magic, unsupported version, truncated
    /// or oversized payload, checksum mismatch, or any structural
    /// violation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TapeDecodeError> {
        if bytes.len() < 4 {
            return Err(TapeDecodeError::Truncated);
        }
        if bytes[..4] != WIRE_MAGIC {
            return Err(TapeDecodeError::BadMagic);
        }
        if bytes.len() < WIRE_HEADER_BYTES + 8 {
            return Err(TapeDecodeError::Truncated);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != WIRE_VERSION {
            return Err(TapeDecodeError::UnsupportedVersion(version));
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        if fnv1a(body) != u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes")) {
            return Err(TapeDecodeError::ChecksumMismatch);
        }
        let mut rd = WireReader {
            buf: body,
            pos: WIRE_MAGIC.len() + 4,
        };
        let root = rd.u32()?;
        let weight_slots = rd.u32()?;
        let n_ops = rd.u32()? as usize;
        let n_edges = rd.u32()? as usize;
        let n_consts = rd.u32()? as usize;
        let n_lits = rd.u32()? as usize;
        let expect = WIRE_HEADER_BYTES as u64
            + n_ops as u64 * 9
            + n_edges as u64 * 4
            + n_consts as u64 * 16
            + n_lits as u64 * 8;
        if (body.len() as u64) < expect {
            return Err(TapeDecodeError::Truncated);
        }
        if body.len() as u64 > expect {
            return Err(TapeDecodeError::Malformed("trailing bytes"));
        }
        if n_ops == 0 {
            return Err(TapeDecodeError::Malformed("empty instruction stream"));
        }
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            let kind = match rd.u8()? {
                0 => TapeOpKind::Const,
                1 => TapeOpKind::Lit,
                2 => TapeOpKind::And2,
                3 => TapeOpKind::And,
                4 => TapeOpKind::Or,
                _ => return Err(TapeDecodeError::Malformed("unknown opcode")),
            };
            let a = rd.u32()?;
            let b = rd.u32()?;
            ops.push(TapeOp { kind, a, b });
        }
        let mut edges = Vec::with_capacity(n_edges);
        for _ in 0..n_edges {
            edges.push(rd.u32()?);
        }
        let mut consts = Vec::with_capacity(n_consts);
        for _ in 0..n_consts {
            let re = f64::from_bits(rd.u64()?);
            let im = f64::from_bits(rd.u64()?);
            consts.push(Complex::new(re, im));
        }
        let mut lit_slots: Vec<(Lit, TapeId)> = Vec::with_capacity(n_lits);
        for _ in 0..n_lits {
            let lit = rd.u32()? as i32;
            let slot = rd.u32()?;
            lit_slots.push((lit, slot));
        }
        // Structural validation: re-establish every lowering invariant the
        // kernels index by without bounds checks they can't afford. The
        // checks are the verifier's tape well-formedness pass
        // (`crate::verify`), shared so decode hardening and static
        // verification cannot drift; decode rejects on the first
        // violation, in the pass's (historical) check order.
        if let Some(v) = crate::verify::structural_violations(
            &ops,
            &edges,
            &consts,
            &lit_slots,
            root,
            weight_slots,
        )
        .into_iter()
        .next()
        {
            return Err(TapeDecodeError::Malformed(v.what));
        }
        let (parent_offsets, parents) = build_parent_csr(&ops, &edges);
        Ok(Self {
            max_and_arity: max_and_arity(&ops),
            ops,
            edges,
            consts,
            lit_slots,
            parent_offsets,
            parents,
            weight_slots,
            stamp: NEXT_STAMP.fetch_add(1, Ordering::Relaxed),
            root,
        })
    }
}

/// The largest product-node arity in an instruction stream (see
/// [`AcTape::max_and_arity`]). Shared by lowering and wire decoding so the
/// derived value can never drift between the two construction paths.
fn max_and_arity(ops: &[TapeOp]) -> u32 {
    ops.iter()
        .map(|op| match op.kind {
            TapeOpKind::And2 => 2,
            TapeOpKind::And => op.b - op.a,
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

/// Wire-format constants: magic, version, and the fixed header size
/// (magic + version + reserved + root + weight_slots + four counts).
const WIRE_MAGIC: [u8; 4] = *b"QKTP";
/// Current [`AcTape`] wire-format version; bumped on any layout change so
/// old readers reject new payloads cleanly (and vice versa).
pub const WIRE_VERSION: u16 = 1;
const WIRE_HEADER_BYTES: usize = 4 + 2 + 2 + 4 + 4 + 4 * 4;

/// FNV-1a over the payload: cheap, dependency-free corruption detection
/// (not cryptographic — the trust boundary is same-operator storage).
/// Shared by every QKC wire format (re-exported as
/// [`wire_checksum`](crate::wire_checksum)) so the trailer algorithm can
/// never diverge between the tape and artifact payloads.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bounds-checked little-endian reads over a wire payload.
struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl WireReader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], TapeDecodeError> {
        let end = self.pos.checked_add(n).ok_or(TapeDecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(TapeDecodeError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, TapeDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, TapeDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, TapeDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

/// Why a wire payload was rejected by [`AcTape::from_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeDecodeError {
    /// The payload does not start with the tape magic.
    BadMagic,
    /// The payload's format version is not one this build reads.
    UnsupportedVersion(u16),
    /// The payload ends before its sections do.
    Truncated,
    /// The trailing checksum does not match the payload.
    ChecksumMismatch,
    /// A section is internally inconsistent (the contained invariant).
    Malformed(&'static str),
}

impl std::fmt::Display for TapeDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TapeDecodeError::BadMagic => write!(f, "not an AcTape payload (bad magic)"),
            TapeDecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported AcTape wire version {v}")
            }
            TapeDecodeError::Truncated => write!(f, "truncated AcTape payload"),
            TapeDecodeError::ChecksumMismatch => write!(f, "AcTape payload checksum mismatch"),
            TapeDecodeError::Malformed(what) => write!(f, "malformed AcTape payload: {what}"),
        }
    }
}

impl std::error::Error for TapeDecodeError {}

/// Builds the reverse CSR (children → parents) that drives the delta
/// kernels' dirty-cone propagation. Shared by lowering and wire decoding —
/// the parent CSR is always derived, never trusted from a payload.
fn build_parent_csr(ops: &[TapeOp], edges: &[TapeId]) -> (Vec<u32>, Vec<TapeId>) {
    let n_ops = ops.len();
    let mut parent_offsets = vec![0u32; n_ops + 1];
    let count_child = |c: TapeId, offsets: &mut Vec<u32>| {
        offsets[c as usize + 1] += 1;
    };
    for op in ops {
        match op.kind {
            TapeOpKind::And2 | TapeOpKind::Or => {
                count_child(op.a, &mut parent_offsets);
                count_child(op.b, &mut parent_offsets);
            }
            TapeOpKind::And => {
                for &c in &edges[op.a as usize..op.b as usize] {
                    count_child(c, &mut parent_offsets);
                }
            }
            _ => {}
        }
    }
    for i in 0..n_ops {
        parent_offsets[i + 1] += parent_offsets[i];
    }
    let mut parents = vec![0 as TapeId; *parent_offsets.last().unwrap() as usize];
    let mut fill = parent_offsets.clone();
    for (i, op) in ops.iter().enumerate() {
        let mut place = |c: TapeId, fill: &mut Vec<u32>| {
            parents[fill[c as usize] as usize] = i as TapeId;
            fill[c as usize] += 1;
        };
        match op.kind {
            TapeOpKind::And2 | TapeOpKind::Or => {
                place(op.a, &mut fill);
                place(op.b, &mut fill);
            }
            TapeOpKind::And => {
                for &c in &edges[op.a as usize..op.b as usize] {
                    place(c, &mut fill);
                }
            }
            _ => {}
        }
    }
    (parent_offsets, parents)
}

/// Literal weights as slot rows of one lane type: the weight input of the
/// generic kernels. An [`AcWeights`] row is one [`Complex`]; an
/// [`AcWeightsBatch`] row is `⌈k/W⌉` [`LaneBlock`]s.
pub(crate) trait LaneWeights<L> {
    /// Complex lanes per row (1 for scalar weights).
    fn lanes(&self) -> usize;
    /// Number of weight slots covered.
    fn num_slots(&self) -> usize;
    /// The row of weight slot `slot`.
    fn row(&self, slot: u32) -> &[L];
}

/// A reusable evaluator over [`AcTape`]s: owns every value/partial/scratch
/// buffer the kernels need, so queries after the first allocation-warming
/// call are zero-alloc. One evaluator serves tapes of any size (buffers
/// grow monotonically); it is cheap to construct and intended to be kept
/// alongside whatever owns the query loop (a bound artifact, a Gibbs
/// chain, a sweep lane).
///
/// Scalar and batched passes run the same kernels, instantiated once per
/// lane type, over separate buffer sets: a batched pass leaves the scalar
/// results (and the scalar delta cache) intact, and vice versa.
#[derive(Debug, Default)]
pub struct TapeEvaluator {
    /// Scalar kernel state (one [`Complex`] per slot row).
    scalar: LaneBufs<Complex>,
    /// Batched kernel state (`⌈k/W⌉` [`LaneBlock`]s per slot row).
    batch: LaneBufs<LaneBlock>,
    /// Unpacked live lanes of the batch root row — the persistent backing
    /// of the `&[Complex]` slices the batch upward passes return.
    root_out: Vec<Complex>,
    /// Per-slot magnitudes for model sampling. Grow-only, fully
    /// overwritten by each magnitude pass.
    mags: Vec<f64>,
    /// Descent stack for model sampling.
    stack: Vec<TapeId>,
}

/// One lane type's kernel state: node-major slot rows of `nb` lane values
/// (`nb = 1` for [`Complex`]) plus the sweep scratch.
#[derive(Debug)]
struct LaneBufs<L> {
    /// Per-slot value rows. Grow-only and never re-zeroed: every pass
    /// overwrites every row it reads.
    values: Vec<L>,
    /// Per-slot partial-derivative rows (each downward sweep clears the
    /// rows it visits, then accumulates into them).
    partials: Vec<L>,
    /// Suffix stash of the downward sweep's general-AND step (one value
    /// per child), sized once per pass from [`AcTape::max_and_arity`].
    stash: Vec<L>,
    /// One-row scratch: the delta pass's candidate row, the contraction
    /// accumulator.
    acc: Vec<L>,
    /// Delta worklist membership flags (persistent; all false between
    /// calls).
    queued: Vec<bool>,
    /// Lane count the `values` rows were filled for.
    value_lanes: usize,
    /// Lane count the `partials` rows were filled for. Tracked apart from
    /// `value_lanes` because a value-only pass leaves earlier partials
    /// intact at their own stride.
    partial_lanes: usize,
    /// What the `values` rows hold (and for which tape) — the validity
    /// gate for the delta kernel.
    mode: ValuesMode,
    stamp: u64,
}

impl<L> Default for LaneBufs<L> {
    fn default() -> Self {
        Self {
            values: Vec::new(),
            partials: Vec::new(),
            stash: Vec::new(),
            acc: Vec::new(),
            queued: Vec::new(),
            value_lanes: 0,
            partial_lanes: 0,
            mode: ValuesMode::Invalid,
            stamp: 0,
        }
    }
}

/// What arithmetic the `values` rows were produced by. The two modes
/// differ in zero-sign bits (the short-circuited AND stops multiplying
/// zeros), so a delta pass may only extend rows of its own mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValuesMode {
    /// No usable rows (fresh evaluator).
    Invalid,
    /// Short-circuited upward values ([`TapeEvaluator::evaluate`]).
    Evaluate,
    /// Full-product upward values (the differential passes).
    DiffUpward,
}

impl ValuesMode {
    fn of(full_products: bool) -> Self {
        if full_products {
            Self::DiffUpward
        } else {
            Self::Evaluate
        }
    }
}

impl TapeEvaluator {
    /// A fresh evaluator with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Upward pass: the circuit's value under `weights`. Bit-for-bit equal
    /// to [`evaluate`](crate::evaluate()) on the source [`Nnf`]. Zero
    /// allocations after the first call at a given size.
    pub fn evaluate(&mut self, tape: &AcTape, weights: &AcWeights) -> Complex {
        self.scalar.upward::<_, false>(tape, weights);
        self.scalar.values[tape.root as usize]
    }

    /// [`evaluate`](TapeEvaluator::evaluate) when only the weights of
    /// `changed_vars` differ from the weights of this evaluator's previous
    /// scalar upward pass on the same tape: recomputes just the dirty cone
    /// above the changed literals (propagation stops where a recomputed
    /// value is bit-identical to the cached one), which is what makes
    /// repeated amplitude queries — wavefunction sweeps, probability
    /// reconstructions, chain moves — cheap on the compiled artifact.
    ///
    /// Falls back to a full pass when the cached buffer is missing, was
    /// produced by a different kernel mode, or belongs to another tape, so
    /// it is always safe to call. Bit-for-bit equal to a full
    /// [`evaluate`](TapeEvaluator::evaluate): every recomputed slot is a
    /// pure function of its children, by induction over the topological
    /// order.
    ///
    /// The caller must list **every** variable whose weights changed since
    /// the previous pass (listing unchanged ones is harmless).
    pub fn evaluate_delta(
        &mut self,
        tape: &AcTape,
        weights: &AcWeights,
        changed_vars: &[u32],
    ) -> Complex {
        self.scalar.delta::<_, false>(tape, weights, changed_vars);
        self.scalar.values[tape.root as usize]
    }

    /// Combined upward + downward pass: returns the root value and leaves
    /// the partial derivative of the root with respect to every slot in
    /// this evaluator, readable through [`TapeEvaluator::wrt_lit`] /
    /// [`TapeEvaluator::wrt_slot`] until the next scalar differential
    /// pass. Bit-for-bit equal to
    /// [`evaluate_with_differentials`](crate::evaluate_with_differentials())
    /// (same full AND products upward, same prefix/suffix sweep and
    /// zero-partial skip downward — including the reference's
    /// multiplications by exact one). Zero allocations after warmup.
    pub fn differentials(&mut self, tape: &AcTape, weights: &AcWeights) -> Complex {
        self.scalar.upward::<_, true>(tape, weights);
        self.scalar.downward(tape, &WholeTape(tape.ops.len()), 1);
        self.scalar.values[tape.root as usize]
    }

    /// [`differentials`](TapeEvaluator::differentials) when only the
    /// weights of `changed_vars` differ from this evaluator's previous
    /// differential pass on the same tape: the upward half updates just
    /// the dirty cone (see
    /// [`evaluate_delta`](TapeEvaluator::evaluate_delta)); the downward
    /// half always runs in full (the root partial flows everywhere).
    /// One Gibbs transition changes one variable's evidence, so the chain
    /// rides this almost every step.
    ///
    /// Falls back to a full pass when the cached buffer is unusable.
    /// Bit-for-bit equal to a full
    /// [`differentials`](TapeEvaluator::differentials) pass.
    pub fn differentials_delta(
        &mut self,
        tape: &AcTape,
        weights: &AcWeights,
        changed_vars: &[u32],
    ) -> Complex {
        self.scalar.delta::<_, true>(tape, weights, changed_vars);
        self.scalar.downward(tape, &WholeTape(tape.ops.len()), 1);
        self.scalar.values[tape.root as usize]
    }

    /// [`differentials`](TapeEvaluator::differentials) with the downward
    /// half restricted to a precomputed ancestor cone: partials at every
    /// cone slot (in particular the cone's seed slots) are bit-for-bit the
    /// full pass's, while the often much larger rest of the tape is never
    /// visited. Slots *outside* the cone keep stale partials — read the
    /// result only through plans whose slots seeded the cone
    /// ([`contract_tangent`](TapeEvaluator::contract_tangent)); the general
    /// [`wrt_lit`](TapeEvaluator::wrt_lit) /
    /// [`take_differentials`](TapeEvaluator::take_differentials) accessors
    /// require a full pass.
    pub fn differentials_cone(
        &mut self,
        tape: &AcTape,
        weights: &AcWeights,
        cone: &DiffCone,
    ) -> Complex {
        self.scalar.upward::<_, true>(tape, weights);
        self.scalar.downward(tape, cone, 1);
        self.scalar.values[tape.root as usize]
    }

    /// [`differentials_delta`](TapeEvaluator::differentials_delta) with the
    /// downward half restricted to `cone` — the analytic-gradient hot loop.
    /// A Gray-adjacent evidence flip pays one dirty-cone upward delta plus
    /// one downward sweep over the tangent literals' ancestors, instead of
    /// two full tape scans. Same partials-validity caveat as
    /// [`differentials_cone`](TapeEvaluator::differentials_cone); same
    /// full-pass fallback as
    /// [`differentials_delta`](TapeEvaluator::differentials_delta).
    pub fn differentials_cone_delta(
        &mut self,
        tape: &AcTape,
        weights: &AcWeights,
        changed_vars: &[u32],
        cone: &DiffCone,
    ) -> Complex {
        self.scalar.delta::<_, true>(tape, weights, changed_vars);
        self.scalar.downward(tape, cone, 1);
        self.scalar.values[tape.root as usize]
    }

    /// `∂f/∂w(lit)` from the most recent scalar
    /// [`differentials`](TapeEvaluator::differentials) pass: the amplitude
    /// of the same query with `lit`'s variable re-assigned to satisfy `lit`
    /// (Darwiche's differential semantics). `None` if the literal does not
    /// appear in the circuit. No per-call allocation — the literal→slot
    /// table was built at lowering time.
    #[inline]
    pub fn wrt_lit(&self, tape: &AcTape, lit: Lit) -> Option<Complex> {
        tape.lit_slot(lit).map(|s| self.scalar.partials[s as usize])
    }

    /// The partial derivative of the root with respect to tape slot `slot`
    /// from the most recent scalar differentials pass.
    #[inline]
    pub fn wrt_slot(&self, slot: TapeId) -> Complex {
        self.scalar.partials[slot as usize]
    }

    /// Snapshot of the most recent scalar differentials pass, owning its
    /// partials, for callers that must outlive the evaluator borrow (the
    /// diagnosis queries). Hot paths use
    /// [`wrt_lit`](TapeEvaluator::wrt_lit) directly instead.
    pub fn take_differentials<'t>(
        &self,
        tape: &'t AcTape,
        value: Complex,
    ) -> TapeDifferentials<'t> {
        TapeDifferentials {
            value,
            partials: self.scalar.partials[..tape.ops.len()].to_vec(),
            tape,
        }
    }

    /// Zero-lane batches run no kernel: they only reset the batch lane
    /// counts. Returns whether `weights` is such a batch.
    fn empty_batch(&mut self, weights: &AcWeightsBatch) -> bool {
        let empty = weights.lanes() == 0;
        if empty {
            self.batch.value_lanes = 0;
            self.batch.partial_lanes = 0;
        }
        empty
    }

    /// Unpacks the live lanes of the batch root row into the persistent
    /// `root_out` buffer and returns it.
    fn unpack_root(&mut self, tape: &AcTape) -> &[Complex] {
        let k = self.batch.value_lanes;
        let root = tape.root as usize * blocks_for(k);
        self.root_out.resize(k, C_ZERO);
        unpack_row(&self.batch.values[root..], &mut self.root_out);
        &self.root_out
    }

    /// Batched upward pass over `k` weight lanes: one tape scan updating
    /// `⌈k/W⌉` lane blocks per slot, each a fixed-width split-plane loop
    /// the compiler vectorizes. Returns the `k` root values; lane `l` is
    /// bit-for-bit the scalar [`evaluate`](TapeEvaluator::evaluate) of
    /// that lane's weights (the same kernel: the per-lane zero
    /// short-circuit is a select, and an AND breaks once every lane is
    /// dead).
    pub fn evaluate_batch(&mut self, tape: &AcTape, weights: &AcWeightsBatch) -> &[Complex] {
        if self.empty_batch(weights) {
            return &[];
        }
        self.batch.upward::<_, false>(tape, weights);
        self.unpack_root(tape)
    }

    /// [`evaluate_batch`](TapeEvaluator::evaluate_batch) when only the
    /// weights of `changed_vars` differ from this evaluator's previous
    /// batched upward pass on the same tape (same lane count): recomputes
    /// just the dirty cone above the changed literals, with **one**
    /// instruction decode per dirty slot updating all `k` lanes — the
    /// delta-aware batch lane kernel. Evidence sweeps whose evidence is
    /// shared across lanes (Gray-ordered basis enumerations over per-lane
    /// parameter bindings — batched wavefunctions, probabilities,
    /// expectations, gradient lanes) ride this: the per-slot decode that
    /// the scalar delta path pays once per lane is paid once per batch.
    ///
    /// Falls back to a full [`evaluate_batch`](TapeEvaluator::evaluate_batch)
    /// when the cached buffer is missing, was produced by another kernel
    /// mode or tape, or has a different lane count, so it is always safe to
    /// call. Lane `l` is bit-for-bit the scalar
    /// [`evaluate`](TapeEvaluator::evaluate) of that lane's weights: every
    /// recomputed slot runs the per-lane arithmetic of the full pass, and
    /// propagation past a slot stops only when **every** lane's bits are
    /// unchanged — a pure function of unchanged children, by induction
    /// over the topological order.
    ///
    /// The caller must list every variable whose weights changed in **any**
    /// lane since the previous pass (listing unchanged ones is harmless).
    pub fn evaluate_batch_delta(
        &mut self,
        tape: &AcTape,
        weights: &AcWeightsBatch,
        changed_vars: &[u32],
    ) -> &[Complex] {
        if self.empty_batch(weights) {
            return &[];
        }
        self.batch.delta::<_, false>(tape, weights, changed_vars);
        self.unpack_root(tape)
    }

    /// Batched upward + downward pass: per-lane root values and partials.
    /// Lane `l` matches the scalar differentials pass bit-for-bit (the
    /// same kernel; a zero-partial lane adds exact zeros, which leave its
    /// accumulators' bits unchanged). Read results through
    /// [`value_lane`](TapeEvaluator::value_lane) /
    /// [`wrt_lit_lane`](TapeEvaluator::wrt_lit_lane).
    pub fn differentials_batch(&mut self, tape: &AcTape, weights: &AcWeightsBatch) {
        if self.empty_batch(weights) {
            return;
        }
        self.batch.upward::<_, true>(tape, weights);
        self.batch
            .downward(tape, &WholeTape(tape.ops.len()), weights.lanes());
    }

    /// Batched [`differentials_cone`](TapeEvaluator::differentials_cone):
    /// lane-blocked full-product upward plus a cone-restricted downward.
    /// Lane `l`'s partials at every cone slot are bit-for-bit the scalar
    /// [`differentials_cone`](TapeEvaluator::differentials_cone)
    /// of that lane's weights (hence bit-for-bit the full scalar
    /// [`differentials`](TapeEvaluator::differentials) there). Read root
    /// values through [`value_lane`](TapeEvaluator::value_lane) and
    /// contractions through
    /// [`contract_tangent_broadcast`](TapeEvaluator::contract_tangent_broadcast);
    /// partials outside the cone are stale.
    ///
    /// This is the analytic-gradient throughput kernel: lanes are
    /// *evidence assignments* (basis states) sharing one parameter
    /// binding, so the per-slot sweep overhead — the reason a scalar
    /// downward pass per basis state cannot beat the delta-batched
    /// parameter-shift path — is paid once per `k` states.
    pub fn differentials_cone_batch(
        &mut self,
        tape: &AcTape,
        weights: &AcWeightsBatch,
        cone: &DiffCone,
    ) {
        if self.empty_batch(weights) {
            return;
        }
        self.batch.upward::<_, true>(tape, weights);
        self.batch.downward(tape, cone, weights.lanes());
    }

    /// [`differentials_cone_batch`](TapeEvaluator::differentials_cone_batch)
    /// when only the weights of `changed_vars` differ (in any lane) from
    /// this evaluator's previous batch differential pass on the same tape:
    /// the upward half updates just the dirty rows. Falls back to the full
    /// pass when the cached buffer is unusable. Bit-for-bit equal, lane by
    /// lane, to the full pass.
    pub fn differentials_cone_batch_delta(
        &mut self,
        tape: &AcTape,
        weights: &AcWeightsBatch,
        changed_vars: &[u32],
        cone: &DiffCone,
    ) {
        if self.empty_batch(weights) {
            return;
        }
        self.batch.delta::<_, true>(tape, weights, changed_vars);
        self.batch.downward(tape, cone, weights.lanes());
    }

    /// The root value of lane `lane` from the most recent batched pass.
    #[inline]
    pub fn value_lane(&self, tape: &AcTape, lane: usize) -> Complex {
        let nb = blocks_for(self.batch.value_lanes);
        self.batch.values[tape.root as usize * nb + lane / LANE_WIDTH].get(lane % LANE_WIDTH)
    }

    /// `∂f/∂w(lit)` in lane `lane` from the most recent
    /// [`differentials_batch`](TapeEvaluator::differentials_batch) pass.
    #[inline]
    pub fn wrt_lit_lane(&self, tape: &AcTape, lit: Lit, lane: usize) -> Option<Complex> {
        let nb = blocks_for(self.batch.partial_lanes);
        tape.lit_slot(lit).map(|s| {
            self.batch.partials[s as usize * nb + lane / LANE_WIDTH].get(lane % LANE_WIDTH)
        })
    }

    /// Gradient contraction over the most recent **scalar** differentials
    /// pass: chain-rules the per-literal partials against one symbol's
    /// precomputed weight tangents,
    /// `∂root/∂θ = Σ_lit ∂root/∂w(lit) · d(w(lit))/dθ`.
    ///
    /// This is the one-pass analytic gradient kernel: ONE upward+downward
    /// [`differentials`](TapeEvaluator::differentials) pass serves every
    /// parameter simultaneously — each symbol costs one call here (a short
    /// dot product over its nonzero tangent literals), not a re-evaluation.
    /// Zero allocations; terms accumulate in the plan's literal order, so
    /// results are deterministic bit-for-bit.
    #[inline]
    pub fn contract_tangent(&self, plan: &TangentPlan) -> Complex {
        let mut acc = [C_ZERO];
        contract(&self.scalar.partials, plan, &mut acc);
        acc[0]
    }

    /// The `k`-lane analogue of
    /// [`contract_tangent`](TapeEvaluator::contract_tangent) over the most
    /// recent [`differentials_batch`](TapeEvaluator::differentials_batch)
    /// pass: writes one contracted value per lane into `out`. Lane `l` is
    /// bit-for-bit the scalar contraction of that lane's tangents (same
    /// nonzero-tangent skip, same literal-order accumulation).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the pass's lane count, or the
    /// plan was built for a different lane count.
    pub fn contract_tangent_lanes(&mut self, plan: &TangentPlanBatch, out: &mut [Complex]) {
        let k = self.batch.partial_lanes;
        assert_eq!(plan.lanes, k, "plan lane count mismatch");
        assert_eq!(out.len(), k, "output lane count mismatch");
        let nb = blocks_for(k);
        let acc = grown(&mut self.batch.acc, nb);
        acc.fill(LaneBlock::ZERO);
        for (e, &slot) in plan.slots.iter().enumerate() {
            let prow = &self.batch.partials[slot as usize * nb..slot as usize * nb + nb];
            let trow = &plan.rows[e * nb..e * nb + nb];
            for ((o, p), t) in acc.iter_mut().zip(prow).zip(trow) {
                // Per-lane zero-tangent select: a lane's add sequence is
                // exactly its scalar plan's (which filters zeros out).
                o.add_mul_where(t, p, t);
            }
        }
        unpack_row(acc, out);
    }

    /// [`contract_tangent`](TapeEvaluator::contract_tangent) against the
    /// most recent **batched** pass, broadcasting one scalar plan across
    /// every lane — the basis-state-lane gradient loop, where lanes differ
    /// in evidence but share the parameter binding (and therefore the
    /// tangents). Lane `l` of `out` is bit-for-bit the scalar contraction
    /// over that lane's partials (the same kernel, same plan-order
    /// accumulation).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the pass's lane count.
    pub fn contract_tangent_broadcast(&mut self, plan: &TangentPlan, out: &mut [Complex]) {
        let k = self.batch.partial_lanes;
        assert_eq!(out.len(), k, "output lane count mismatch");
        let acc = grown(&mut self.batch.acc, blocks_for(k));
        contract(&self.batch.partials, plan, acc);
        unpack_row(acc, out);
    }
    /// Magnitude pass for model sampling: fills the persistent magnitude
    /// buffer with the *absolute* value of every slot under `weights` and
    /// returns the root magnitude. The buffer stays valid (for
    /// [`draw_model`](TapeEvaluator::draw_model)) until the next magnitude
    /// pass — weights that do not change between draws (the Gibbs
    /// zero-density redraw loop) pay this pass once.
    pub fn model_magnitudes(&mut self, tape: &AcTape, weights: &AcWeights) -> f64 {
        tape.check_weights(weights.num_slots());
        let n = tape.ops.len();
        if self.mags.len() < n {
            self.mags.resize(n, 0.0);
        }
        let mags = &mut self.mags[..n];
        for (i, op) in tape.ops.iter().enumerate() {
            mags[i] = match op.kind {
                TapeOpKind::Const => tape.consts[op.a as usize].norm(),
                TapeOpKind::Lit => weights.by_slot(op.a).norm(),
                TapeOpKind::And2 => 1.0 * mags[op.a as usize] * mags[op.b as usize],
                TapeOpKind::And => tape.edges[op.a as usize..op.b as usize]
                    .iter()
                    .map(|&c| mags[c as usize])
                    .product(),
                TapeOpKind::Or => mags[op.a as usize] + mags[op.b as usize],
            };
        }
        mags[tape.root as usize]
    }

    /// Descends from the root, choosing OR branches proportionally to the
    /// magnitudes of the last
    /// [`model_magnitudes`](TapeEvaluator::model_magnitudes) pass, and
    /// appends the literals along the sampled model to `lits` (cleared
    /// first). Visits OR nodes in the same order as the enum-walk
    /// [`sample_model`](crate::sample_model()), so it consumes the
    /// identical RNG stream and yields the identical model.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the magnitude buffer is stale for this tape.
    pub fn draw_model<R: rand::Rng + ?Sized>(
        &mut self,
        tape: &AcTape,
        rng: &mut R,
        lits: &mut Vec<Lit>,
    ) {
        debug_assert!(self.mags.len() >= tape.ops.len(), "stale magnitude buffer");
        lits.clear();
        self.stack.clear();
        self.stack.push(tape.root);
        while let Some(id) = self.stack.pop() {
            let op = tape.ops[id as usize];
            match op.kind {
                TapeOpKind::Lit => lits.push(op.b as i32),
                TapeOpKind::And2 => {
                    self.stack.push(op.a);
                    self.stack.push(op.b);
                }
                TapeOpKind::And => self
                    .stack
                    .extend_from_slice(&tape.edges[op.a as usize..op.b as usize]),
                TapeOpKind::Or => {
                    let (ma, mb) = (self.mags[op.a as usize], self.mags[op.b as usize]);
                    let pick_a = if ma + mb <= 0.0 {
                        rng.gen::<bool>()
                    } else {
                        rng.gen::<f64>() * (ma + mb) < ma
                    };
                    self.stack.push(if pick_a { op.a } else { op.b });
                }
                TapeOpKind::Const => {}
            }
        }
    }

    /// Samples one model of the circuit, with branch choices weighted by
    /// the absolute literal weights — magnitude pass plus descent in one
    /// call, bit-for-bit the enum-walk [`sample_model`](crate::sample_model()).
    /// Returns `None` if no model has nonzero weight magnitude.
    pub fn sample_model<R: rand::Rng + ?Sized>(
        &mut self,
        tape: &AcTape,
        weights: &AcWeights,
        rng: &mut R,
    ) -> Option<Vec<Lit>> {
        if self.model_magnitudes(tape, weights) <= 0.0 {
            return None;
        }
        let mut lits = Vec::new();
        self.draw_model(tape, rng, &mut lits);
        Some(lits)
    }
}

/// The tape kernels, written once over the lane type. Every kernel walks
/// node-major rows of `nb = L::row_len(k)` lane values per slot; the
/// scalar instance has `nb = 1` at compile time.
impl<L: Lane> LaneBufs<L> {
    /// Full upward pass under `weights`, leaving every slot's value row in
    /// `values` and flagging the rows for delta reuse. `FULL` selects full
    /// AND products (the differential passes) over the zero
    /// short-circuit ([`TapeEvaluator::evaluate`]).
    fn upward<W: LaneWeights<L>, const FULL: bool>(&mut self, tape: &AcTape, weights: &W) {
        tape.check_weights(weights.num_slots());
        let k = weights.lanes();
        let nb = L::row_len(k);
        let n = tape.ops.len();
        let values = grown(&mut self.values, n * nb);
        for i in 0..n {
            // Children precede parents, so every child row sits in `head`.
            let (head, tail) = values.split_at_mut(i * nb);
            node_row::<L, W, FULL>(tape, tape.ops[i], weights, head, &mut tail[..nb], nb);
        }
        self.mode = ValuesMode::of(FULL);
        self.stamp = tape.stamp;
        self.value_lanes = k;
    }

    /// [`upward`](LaneBufs::upward) when only the weights of
    /// `changed_vars` differ (in any lane) from the previous upward pass:
    /// recomputes the dirty cone above the changed literals, propagating
    /// only past rows whose bits actually changed in some lane. Falls back
    /// to the full pass when the cached rows were produced by another
    /// mode, tape or lane count.
    ///
    /// The worklist is a flag scan, not a priority queue: dirty flags are
    /// seeded at the changed literals, and one ascending sweep from the
    /// lowest dirty slot processes them — children precede parents, so
    /// every dirty slot sees fully updated children, and a pending counter
    /// stops the sweep as soon as propagation dies out. A clean slot
    /// costs one flag test; a dirty one, one row recompute. Dead remainder
    /// lanes are deterministic functions of the zero-filled weights, so
    /// the whole-row bitwise comparison stays sound for ragged batches.
    fn delta<W: LaneWeights<L>, const FULL: bool>(
        &mut self,
        tape: &AcTape,
        weights: &W,
        changed_vars: &[u32],
    ) {
        let k = weights.lanes();
        if self.mode != ValuesMode::of(FULL) || self.stamp != tape.stamp || self.value_lanes != k {
            return self.upward::<W, FULL>(tape, weights);
        }
        tape.check_weights(weights.num_slots());
        let nb = L::row_len(k);
        let n = tape.ops.len();
        if self.queued.len() < n {
            self.queued.resize(n, false);
        }
        let queued = &mut self.queued;
        let values = &mut self.values;
        let new = grown(&mut self.acc, nb);
        let mut pending = 0usize;
        let mut cursor = n;
        for &v in changed_vars {
            for lit in [v as Lit, -(v as Lit)] {
                if let Some(slot) = tape.lit_slot(lit) {
                    if !queued[slot as usize] {
                        queued[slot as usize] = true;
                        pending += 1;
                        cursor = cursor.min(slot as usize);
                    }
                }
            }
        }
        while pending > 0 {
            if !queued[cursor] {
                cursor += 1;
                continue;
            }
            queued[cursor] = false;
            pending -= 1;
            node_row::<L, W, FULL>(tape, tape.ops[cursor], weights, values, new, nb);
            let old = &mut values[cursor * nb..cursor * nb + nb];
            if new.iter().zip(old.iter()).any(|(x, y)| x.bits_ne(y)) {
                old.copy_from_slice(new);
                for &p in tape.parents_of(cursor as TapeId) {
                    if !queued[p as usize] {
                        queued[p as usize] = true;
                        pending += 1;
                    }
                }
            }
            cursor += 1;
        }
    }

    /// The downward (partial-derivative) sweep over the current
    /// full-product `values` rows, restricted to `region`: the whole tape,
    /// or a [`DiffCone`]. Every parent of a cone slot is itself a cone
    /// slot (the cone is an ancestor closure), so each visited slot
    /// receives exactly the contributions the full sweep gives it — same
    /// descending order, same zero-partial skip, same per-node
    /// multiplication sequence (the reference prefix/suffix recipe,
    /// including its multiplications by exact one) — and its partial is
    /// bit-for-bit the full sweep's.
    ///
    /// A slot whose whole partial row is zero is skipped (the reference's
    /// zero-partial skip). Inside a live row the lane ops run
    /// unconditionally: a zero-partial lane adds an exact-zero product,
    /// which leaves its accumulator's bits unchanged — accumulators start
    /// at +0.0 and IEEE addition never turns them into -0.0 — so each
    /// lane's partials are its scalar ones, and the block ops need no
    /// select.
    fn downward<R: Region>(&mut self, tape: &AcTape, region: &R, k: usize) {
        debug_assert!(region.fits(tape), "cone built for a different tape");
        let nb = L::row_len(k);
        let n = tape.ops.len();
        let values = &self.values[..n * nb];
        let partials = grown(&mut self.partials, n * nb);
        self.partial_lanes = k;
        let slots = region.len();
        region.clear(partials, nb);
        if slots == 0 {
            return;
        }
        let root = tape.root as usize * nb;
        // Masked seed (live lanes one, dead remainder lanes zero): dead
        // partial lanes never turn nonzero, so the all-zero row skips fire
        // as they would for a full block.
        masked_ones(&mut partials[root..root + nb], k);
        let stash = grown(&mut self.stash, tape.max_and_arity as usize);
        for idx in (0..slots).rev() {
            let i = region.slot(idx);
            // The lane-blocked sweep is latency-bound on scattered child
            // rows, so request the rows of a slot a few iterations ahead
            // while this one computes. Pure hint: no effect on results.
            if L::WIDTH > 1 && idx >= PREFETCH_AHEAD {
                prefetch_step(
                    tape,
                    region,
                    region.slot(idx - PREFETCH_AHEAD),
                    values,
                    partials,
                    nb,
                );
            }
            // Contributions land in `head` (children sit below their
            // parent), so the slot's own row cannot change mid-slot.
            let (head, tail) = partials.split_at_mut(i * nb);
            let p = &tail[..nb];
            if p.iter().all(L::all_zero) {
                continue;
            }
            let op = tape.ops[i];
            match op.kind {
                TapeOpKind::And2 => {
                    // The suffix-stash/pq recipe unrolled for two
                    // children: child a sees pq = p and suffix 1·v_b,
                    // child b sees pq = p·v_a and suffix 1.
                    let (a, b) = (op.a as usize * nb, op.b as usize * nb);
                    if region.keeps(op.a) {
                        for bi in 0..nb {
                            head[a + bi].add_mul(&p[bi], &L::one_times(&values[b + bi]));
                        }
                    }
                    if region.keeps(op.b) {
                        for bi in 0..nb {
                            head[b + bi].add_mul(&p[bi].mul(&values[a + bi]), &L::ONE);
                        }
                    }
                }
                TapeOpKind::And => {
                    // Per lane value: stash the suffix Π_{j>c} v_j from the
                    // right; the forward scan then carries pq = p·Π_{j<c}
                    // v_j so each child's contribution pq·suffix[c] costs a
                    // single multiply (exact with zero children — no
                    // divisions). The products run over every child; only
                    // the adds into children outside the region are
                    // skipped — they can never flow back into a region
                    // slot.
                    let cs = &tape.edges[op.a as usize..op.b as usize];
                    for (bi, p) in p.iter().enumerate() {
                        let mut suffix = L::ONE;
                        for (s, &c) in stash.iter_mut().zip(cs).rev() {
                            *s = suffix;
                            suffix.mul_assign(&values[c as usize * nb + bi]);
                        }
                        let mut pq = *p;
                        for (s, &c) in stash.iter().zip(cs) {
                            let cr = c as usize * nb + bi;
                            if region.keeps(c) {
                                head[cr].add_mul(&pq, s);
                            }
                            pq.mul_assign(&values[cr]);
                        }
                    }
                }
                TapeOpKind::Or => {
                    for c in [op.a, op.b] {
                        if region.keeps(c) {
                            let cr = c as usize * nb;
                            for (o, pp) in head[cr..cr + nb].iter_mut().zip(p) {
                                o.add_assign(pp);
                            }
                        }
                    }
                }
                TapeOpKind::Const | TapeOpKind::Lit => {}
            }
        }
    }
}

/// Computes slot row `out` of instruction `op` from the child rows in
/// `values` — the one per-instruction recipe the full and delta upward
/// passes share. `FULL` selects full AND products; otherwise each lane
/// short-circuits at zero (a select) and a general AND stops once every
/// lane is dead, which at width 1 is exactly the reference's branch.
#[inline(always)]
fn node_row<L: Lane, W: LaneWeights<L>, const FULL: bool>(
    tape: &AcTape,
    op: TapeOp,
    weights: &W,
    values: &[L],
    out: &mut [L],
    nb: usize,
) {
    let row = |s: TapeId| &values[s as usize * nb..s as usize * nb + nb];
    let mul = |acc: &mut L, v: &L| {
        if FULL {
            acc.mul_assign(v);
        } else {
            acc.mul_assign_sc(v);
        }
    };
    match op.kind {
        TapeOpKind::Const => out.fill(L::splat(tape.consts[op.a as usize])),
        TapeOpKind::Lit => out.copy_from_slice(weights.row(op.a)),
        TapeOpKind::And2 => {
            // The reference loop unrolled for two children: acc = 1·v₀,
            // then acc·v₁.
            for (o, (x, y)) in out.iter_mut().zip(row(op.a).iter().zip(row(op.b))) {
                let mut acc = L::one_times(x);
                mul(&mut acc, y);
                *o = acc;
            }
        }
        TapeOpKind::And => {
            out.fill(L::ONE);
            for &c in &tape.edges[op.a as usize..op.b as usize] {
                if !FULL && out.iter().all(L::all_zero) {
                    break;
                }
                for (acc, v) in out.iter_mut().zip(row(c)) {
                    mul(acc, v);
                }
            }
        }
        TapeOpKind::Or => {
            for (acc, (x, y)) in out.iter_mut().zip(row(op.a).iter().zip(row(op.b))) {
                acc.add_of(x, y);
            }
        }
    }
}

/// `acc = Σ_plan partials[slot] · t` per lane, in plan order: the one-pass
/// gradient contraction over the partial rows of the last differential
/// pass (`nb = acc.len()`).
#[inline(always)]
fn contract<L: Lane>(partials: &[L], plan: &TangentPlan, acc: &mut [L]) {
    let nb = acc.len();
    acc.fill(L::ZERO);
    for &(slot, t) in &plan.entries {
        let t = L::splat(t);
        let row = &partials[slot as usize * nb..slot as usize * nb + nb];
        for (o, p) in acc.iter_mut().zip(row) {
            o.add_mul(p, &t);
        }
    }
}

/// Grows `buf` to at least `len` values without re-zeroing live ones
/// (callers overwrite what they read) and returns its first `len`.
#[inline]
fn grown<L: Lane>(buf: &mut Vec<L>, len: usize) -> &mut [L] {
    if buf.len() < len {
        buf.resize(len, L::ZERO);
    }
    &mut buf[..len]
}

/// Fills `row` with the masked all-ones row for `k` live lanes: full
/// values all-one, a ragged trailing block one in live lanes and zero in
/// dead remainder lanes.
#[inline]
fn masked_ones<L: Lane>(row: &mut [L], k: usize) {
    row.fill(L::ONE);
    let rem = k % L::WIDTH;
    if rem != 0 {
        let last = row.last_mut().expect("k > 0 implies at least one block");
        for w in rem..L::WIDTH {
            last.set(w, C_ZERO);
        }
    }
}

/// The slots a downward sweep visits, as a compile-time parameter of the
/// one downward kernel: the whole tape, or a [`DiffCone`].
trait Region {
    /// Number of slots visited.
    fn len(&self) -> usize;
    /// The `idx`-th visited slot, ascending in tape order.
    fn slot(&self, idx: usize) -> usize;
    /// Whether contributions into child `slot` are kept.
    fn keeps(&self, slot: TapeId) -> bool;
    /// Whether the region was built for `tape`.
    fn fits(&self, tape: &AcTape) -> bool;
    /// Zeroes the partial rows of the visited slots.
    fn clear<L: Lane>(&self, partials: &mut [L], nb: usize) {
        for idx in 0..self.len() {
            let s = self.slot(idx) * nb;
            partials[s..s + nb].fill(L::ZERO);
        }
    }
}

/// Every slot of a tape with this many instructions. Its membership test
/// is the constant `true`, so the full sweep pays no per-child check.
struct WholeTape(usize);

impl Region for WholeTape {
    #[inline(always)]
    fn len(&self) -> usize {
        self.0
    }

    #[inline(always)]
    fn slot(&self, idx: usize) -> usize {
        idx
    }

    #[inline(always)]
    fn keeps(&self, _slot: TapeId) -> bool {
        true
    }

    fn fits(&self, tape: &AcTape) -> bool {
        self.0 == tape.ops.len()
    }

    fn clear<L: Lane>(&self, partials: &mut [L], _nb: usize) {
        partials.fill(L::ZERO);
    }
}

impl Region for DiffCone {
    #[inline(always)]
    fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline(always)]
    fn slot(&self, idx: usize) -> usize {
        self.slots[idx] as usize
    }

    #[inline(always)]
    fn keeps(&self, slot: TapeId) -> bool {
        self.member[slot as usize]
    }

    fn fits(&self, tape: &AcTape) -> bool {
        self.stamp == tape.stamp
    }
}

/// How many visited slots ahead the lane-blocked downward sweep
/// prefetches.
const PREFETCH_AHEAD: usize = 8;

/// Prefetches the rows the downward sweep's step at slot `f` will touch.
#[inline(always)]
fn prefetch_step<L, R: Region>(
    tape: &AcTape,
    region: &R,
    f: usize,
    values: &[L],
    partials: &[L],
    nb: usize,
) {
    let op = tape.ops[f];
    match op.kind {
        TapeOpKind::And2 | TapeOpKind::Or => {
            prefetch_row(values, op.a as usize * nb);
            prefetch_row(values, op.b as usize * nb);
            prefetch_row(partials, op.a as usize * nb);
            prefetch_row(partials, op.b as usize * nb);
        }
        TapeOpKind::And => {
            for &c in &tape.edges[op.a as usize..op.b as usize] {
                prefetch_row(values, c as usize * nb);
                if region.keeps(c) {
                    prefetch_row(partials, c as usize * nb);
                }
            }
        }
        TapeOpKind::Const | TapeOpKind::Lit => return,
    }
    prefetch_row(partials, f * nb);
}

/// Hints the CPU to start pulling the row starting at `buf[at]`. Touches
/// only the first value (two cache lines of a [`LaneBlock`]); the in-row
/// access pattern is sequential, so the hardware stream prefetcher covers
/// any further blocks. Requesting every line of every row of a wide
/// product node floods the load queue and evicts live data — measurably
/// slower than under-prefetching. No-op off x86_64.
#[inline(always)]
// Audited exception to the workspace `unsafe_code` deny: a pure cache
// hint, no architectural reads or writes.
#[allow(unsafe_code)]
fn prefetch_row<L>(buf: &[L], at: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(first) = buf.get(at) {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let p = (first as *const L).cast::<i8>();
        // SAFETY: prefetch reads nothing architecturally and has no side
        // effects beyond the cache, whatever address it is handed; the
        // second line's address is formed with wrapping arithmetic.
        unsafe {
            _mm_prefetch(p, _MM_HINT_T0);
            if std::mem::size_of::<L>() > 64 {
                _mm_prefetch(p.wrapping_add(64), _MM_HINT_T0);
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (buf, at);
}

/// An owned snapshot of a scalar differentials pass (value + per-slot
/// partials), borrowing only the tape. For callers that hold results across
/// further evaluator use (sensitivity analysis); the Gibbs loop reads the
/// evaluator's buffers directly instead.
#[derive(Debug)]
pub struct TapeDifferentials<'t> {
    value: Complex,
    partials: Vec<Complex>,
    tape: &'t AcTape,
}

impl<'t> TapeDifferentials<'t> {
    /// Value at the root (the amplitude of the current evidence).
    pub fn value(&self) -> Complex {
        self.value
    }

    /// `∂f/∂w(lit)` — see [`TapeEvaluator::wrt_lit`].
    pub fn wrt_lit(&self, lit: Lit) -> Option<Complex> {
        self.tape.lit_slot(lit).map(|s| self.partials[s as usize])
    }

    /// The partial derivative of the root with respect to tape slot `slot`.
    pub fn wrt_slot(&self, slot: TapeId) -> Complex {
        self.partials[slot as usize]
    }
}

/// The ancestor closure of a set of target tape slots: every slot from
/// which some target is reachable, targets included. Partial derivatives
/// flow strictly downward (a slot's partial is fed only by its parents),
/// so a downward sweep restricted to this cone
/// ([`TapeEvaluator::differentials_cone`]) produces partials at the
/// targets bit-for-bit equal to the full sweep's — every parent of a cone
/// member is itself a cone member, so no contribution is lost — while the
/// rest of the tape is never cleared or visited.
///
/// The cone is structural: it depends only on the tape and the targets,
/// not on weights or evidence. Gradient loops build it once per bind
/// (targets = the union of every symbol's nonzero-tangent literal slots)
/// and reuse it for every evidence assignment.
#[derive(Debug, Clone)]
pub struct DiffCone {
    /// Cone member slots, ascending tape order.
    slots: Vec<TapeId>,
    /// Per-slot membership mask (`tape.num_ops()` long).
    member: Vec<bool>,
    /// Identity of the tape the cone was built for.
    stamp: u64,
}

impl DiffCone {
    /// Builds the ancestor closure of `targets` over `tape` in one
    /// ascending sweep: a slot joins the cone when it is a target or any
    /// of its children already has (children precede parents in tape
    /// order). `O(ops + edges)`, once per bind.
    pub fn new(tape: &AcTape, targets: impl IntoIterator<Item = TapeId>) -> Self {
        let n = tape.ops.len();
        let mut member = vec![false; n];
        let mut any = false;
        for t in targets {
            member[t as usize] = true;
            any = true;
        }
        let mut slots = Vec::new();
        if any {
            for (i, op) in tape.ops.iter().enumerate() {
                if !member[i] {
                    let child_hit = match op.kind {
                        TapeOpKind::And2 | TapeOpKind::Or => {
                            member[op.a as usize] || member[op.b as usize]
                        }
                        TapeOpKind::And => tape.edges[op.a as usize..op.b as usize]
                            .iter()
                            .any(|&c| member[c as usize]),
                        _ => false,
                    };
                    if !child_hit {
                        continue;
                    }
                    member[i] = true;
                }
                slots.push(i as TapeId);
            }
            debug_assert!(
                member[tape.root as usize],
                "live tape slots are always root-reachable"
            );
        }
        Self {
            slots,
            member,
            stamp: tape.stamp,
        }
    }

    /// Number of cone slots (the restricted sweep's work per pass).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the target set was empty — every contraction over it is
    /// identically zero and the restricted sweep is a no-op.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// A precomputed gradient-contraction plan for one symbol: the tape slot of
/// every literal whose weight tangent `d(w(lit))/dθ` is nonzero, paired with
/// that tangent. Tangents arrive in the same interleaved [`AcWeights`] slot
/// layout as the weights themselves; the plan resolves literals to tape
/// slots once — through the tape's existing literal→slot table — so each
/// per-assignment [`TapeEvaluator::contract_tangent`] call is a dense dot
/// product with no lookups.
#[derive(Debug, Clone, Default)]
pub struct TangentPlan {
    entries: Vec<(TapeId, Complex)>,
}

impl TangentPlan {
    /// Builds a plan from a tangent vector laid out like [`AcWeights`].
    /// Entries follow the tape's sorted literal order, which fixes the
    /// floating-point accumulation order of every later contraction.
    pub fn new(tape: &AcTape, tangents: &AcWeights) -> Self {
        let entries = tape
            .lit_slots()
            .iter()
            .filter_map(|&(lit, slot)| {
                let t = tangents.get(lit);
                (t != C_ZERO).then_some((slot, t))
            })
            .collect();
        Self { entries }
    }

    /// Number of literals with a nonzero tangent.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The tape slots carrying a nonzero tangent, in plan order — the
    /// seed set for a [`DiffCone`] covering this plan's contraction.
    pub fn slots(&self) -> impl Iterator<Item = TapeId> + '_ {
        self.entries.iter().map(|&(slot, _)| slot)
    }

    /// True when no literal carries this symbol (the contraction is zero).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The `k`-lane analogue of [`TangentPlan`]: keeps every literal whose
/// tangent is nonzero in *any* lane, with the full tangent block row per
/// kept slot (lane-blocked split-plane layout, dead remainder lanes zero).
/// Consumed by [`TapeEvaluator::contract_tangent_lanes`], whose per-lane
/// zero-select restores bit-identity with the scalar plan.
#[derive(Debug, Clone, Default)]
pub struct TangentPlanBatch {
    slots: Vec<TapeId>,
    rows: Vec<LaneBlock>,
    lanes: usize,
}

impl TangentPlanBatch {
    /// Builds a plan from a tangent batch laid out like [`AcWeightsBatch`].
    pub fn new(tape: &AcTape, tangents: &AcWeightsBatch) -> Self {
        let lanes = tangents.lanes();
        let mut slots = Vec::new();
        let mut rows = Vec::new();
        for &(lit, slot) in tape.lit_slots() {
            let row = tangents.row_blocks(lit);
            // Dead remainder lanes are zero in the container, so an
            // any-nonzero block test is exactly an any-live-lane test.
            if row.iter().any(|b| !b.all_zero()) {
                slots.push(slot);
                rows.extend_from_slice(row);
            }
        }
        Self { slots, rows, lanes }
    }

    /// Lane count the plan was built for.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of kept slots (literals nonzero in at least one lane).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// The tape slots carrying a nonzero tangent in some lane, in plan
    /// order — the batch analogue of [`TangentPlan::slots`], consumed by
    /// the verifier's tangent-plan liveness pass.
    pub fn slots(&self) -> impl Iterator<Item = TapeId> + '_ {
        self.slots.iter().copied()
    }

    /// True when no lane carries this symbol.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompileOptions};
    use crate::evaluate::{evaluate, evaluate_with_differentials, sample_model};
    use crate::transform::smooth;
    use crate::NnfBuilder;
    use qkc_cnf::Cnf;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits_eq(a: Complex, b: Complex) -> bool {
        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
    }

    fn test_nnf() -> Nnf {
        // (v1 ∨ v2) ∧ (¬v1 ∨ v3), smoothed over all variables.
        let mut f = Cnf::new(3);
        f.add_clause(vec![1, 2]);
        f.add_clause(vec![-1, 3]);
        let c = compile(&f, &CompileOptions::default());
        let groups: Vec<Vec<i32>> = (1..=3).map(|v| vec![v, -v]).collect();
        smooth(&c.nnf, &groups)
    }

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

    #[test]
    fn lowering_prunes_and_folds() {
        let mut b = NnfBuilder::new();
        let x = b.lit(1);
        let y = b.lit(2);
        let a = b.and([x, y]);
        let nnf = b.extract(a);
        let tape = AcTape::lower(&nnf);
        assert_eq!(tape.num_ops(), 3); // two lits + one binary and
        assert_eq!(tape.num_edges(), 0); // binary ANDs are inline And2 ops
        assert_eq!(tape.ops()[2].kind, TapeOpKind::And2);
        assert!(tape.lit_slot(1).is_some());
        assert!(tape.lit_slot(3).is_none());
        // Wider ANDs use the CSR edge buffer.
        let z = b.lit(3);
        let wide = b.and([x, y, z]);
        let tape = AcTape::lower(&b.extract(wide));
        assert_eq!(tape.num_edges(), 3);
    }

    #[test]
    fn trivial_constant_roots_fold() {
        let b = NnfBuilder::new();
        let nnf_true = b.extract(b.true_id());
        let tape = AcTape::lower(&nnf_true);
        assert_eq!(tape.num_ops(), 1);
        let mut eval = TapeEvaluator::new();
        assert!(bits_eq(tape.consts[0], C_ONE));
        assert!(bits_eq(eval.evaluate(&tape, &AcWeights::uniform(1)), C_ONE));
        let nnf_false = b.extract(b.false_id());
        let tape = AcTape::lower(&nnf_false);
        let mut eval = TapeEvaluator::new();
        assert!(bits_eq(
            eval.evaluate(&tape, &AcWeights::uniform(1)),
            C_ZERO
        ));
    }

    #[test]
    fn evaluate_matches_enum_walk_bit_for_bit() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..25 {
            let w = random_weights(3, &mut rng);
            assert!(bits_eq(eval.evaluate(&tape, &w), evaluate(&nnf, &w)));
        }
    }

    #[test]
    fn evaluate_matches_with_zero_evidence_weights() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let mut w = AcWeights::uniform(3);
        w.set(1, C_ZERO, Complex::real(-1.0));
        w.set(2, C_ZERO, C_ONE);
        assert!(bits_eq(eval.evaluate(&tape, &w), evaluate(&nnf, &w)));
    }

    #[test]
    fn differentials_match_enum_walk_bit_for_bit() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..25 {
            let w = random_weights(3, &mut rng);
            let value = eval.differentials(&tape, &w);
            let reference = evaluate_with_differentials(&nnf, &w);
            assert!(bits_eq(value, reference.value));
            for v in 1..=3i32 {
                for lit in [v, -v] {
                    match (eval.wrt_lit(&tape, lit), reference.wrt_lit(lit)) {
                        (Some(g), Some(want)) => assert!(bits_eq(g, want), "lit {lit}"),
                        (None, None) => {}
                        other => panic!("lit {lit}: presence mismatch {other:?}"),
                    }
                }
            }
            let snapshot = eval.take_differentials(&tape, value);
            assert!(bits_eq(snapshot.value(), reference.value));
            assert_eq!(
                snapshot
                    .wrt_lit(2)
                    .map(|c| (c.re.to_bits(), c.im.to_bits())),
                reference
                    .wrt_lit(2)
                    .map(|c| (c.re.to_bits(), c.im.to_bits()))
            );
        }
    }

    /// A smoothed random circuit over `vars` variables: general ANDs,
    /// binary ANDs and ORs all appear.
    fn random_nnf(vars: usize, seed: u64) -> Nnf {
        let compiled = compile(
            &random_cnf(vars, vars + 3, seed),
            &CompileOptions::default(),
        );
        let groups: Vec<Vec<i32>> = (1..=vars as i32).map(|v| vec![v, -v]).collect();
        smooth(&compiled.nnf, &groups)
    }

    /// Per-lane weights with the degenerate lanes the kernels must keep
    /// exact: lane 1 has every weight zero (a dead lane), lane 2 carries
    /// 0/1 evidence (zero partials and AND short-circuits).
    fn lane_weights(vars: usize, k: usize, rng: &mut StdRng) -> Vec<AcWeights> {
        (0..k)
            .map(|lane| match lane {
                1 => AcWeights::zeros(vars),
                2 => {
                    let mut w = random_weights(vars, rng);
                    for v in (1..=vars as u32).step_by(2) {
                        w.set(v, C_ZERO, C_ONE);
                    }
                    w
                }
                _ => random_weights(vars, rng),
            })
            .collect()
    }

    fn batch_of(lanes: &[AcWeights]) -> AcWeightsBatch {
        let vars = lanes[0].num_vars();
        let mut batch = AcWeightsBatch::uniform(vars, lanes.len());
        for (lane, w) in lanes.iter().enumerate() {
            for v in 1..=vars as u32 {
                batch.set_lane(v, lane, w.get(v as Lit), w.get(-(v as Lit)));
            }
        }
        batch
    }

    fn bits(c: Option<Complex>) -> Option<(u64, u64)> {
        c.map(|c| (c.re.to_bits(), c.im.to_bits()))
    }

    #[test]
    fn batch_kernels_match_scalar_enum_walk_bit_for_bit() {
        // Every batched kernel — upward, delta, full downward, cone
        // downward, broadcast contraction — against the per-lane scalar
        // enum walk, at ragged widths around the block boundary.
        let vars = 6;
        for seed in 0..4u64 {
            let nnf = random_nnf(vars, seed);
            let tape = AcTape::lower(&nnf);
            let mut rng = StdRng::seed_from_u64(29 ^ seed);
            let plan = TangentPlan::new(&tape, &random_tangents(vars, &mut rng));
            let cone = DiffCone::new(&tape, plan.slots());
            let mut eval = TapeEvaluator::new();
            for k in [
                1usize,
                LANE_WIDTH - 1,
                LANE_WIDTH,
                LANE_WIDTH + 1,
                2 * LANE_WIDTH + 3,
            ] {
                let mut lanes = lane_weights(vars, k, &mut rng);
                let batch = batch_of(&lanes);
                let got = eval.evaluate_batch(&tape, &batch).to_vec();
                for (lane, w) in lanes.iter().enumerate() {
                    assert!(bits_eq(got[lane], evaluate(&nnf, w)), "k={k} lane {lane}");
                }
                eval.differentials_batch(&tape, &batch);
                for (lane, w) in lanes.iter().enumerate() {
                    let want = evaluate_with_differentials(&nnf, w);
                    assert!(bits_eq(eval.value_lane(&tape, lane), want.value));
                    for lit in (1..=vars as Lit).flat_map(|v| [v, -v]) {
                        assert_eq!(
                            bits(eval.wrt_lit_lane(&tape, lit, lane)),
                            bits(want.wrt_lit(lit)),
                            "k={k} lane {lane} lit {lit}"
                        );
                    }
                }
                let mut contracted = vec![C_ZERO; k];
                eval.differentials_cone_batch(&tape, &batch, &cone);
                eval.contract_tangent_broadcast(&plan, &mut contracted);
                let mut scalar = TapeEvaluator::new();
                for (lane, w) in lanes.iter().enumerate() {
                    scalar.differentials(&tape, w);
                    assert!(
                        bits_eq(contracted[lane], scalar.contract_tangent(&plan)),
                        "k={k} lane {lane} cone contraction"
                    );
                }
                // One variable changes in the last lane only (the last
                // block for k > W): the delta kernel must propagate on
                // that lane's bits alone and land on the scalar values of
                // the new weights.
                let v = 1 + (k % vars) as u32;
                let mut moved = batch.clone();
                let pos = Complex::new(rng.gen::<f64>() - 0.5, 0.0);
                lanes[k - 1].set(v, pos, C_ZERO);
                moved.set_lane(v, k - 1, pos, C_ZERO);
                eval.evaluate_batch(&tape, &batch);
                let got = eval.evaluate_batch_delta(&tape, &moved, &[v]).to_vec();
                for (lane, w) in lanes.iter().enumerate() {
                    assert!(
                        bits_eq(got[lane], evaluate(&nnf, w)),
                        "k={k} lane {lane} delta"
                    );
                }
            }
        }
    }

    #[test]
    fn interleaved_scalar_and_batch_passes_keep_fresh_bits() {
        // Scalar and batched passes share one evaluator; each result must
        // equal the bits a fresh evaluator produces for the same call.
        let vars = 6;
        let nnf = random_nnf(vars, 7);
        let tape = AcTape::lower(&nnf);
        let mut rng = StdRng::seed_from_u64(71);
        let plan = TangentPlan::new(&tape, &random_tangents(vars, &mut rng));
        let cone = DiffCone::new(&tape, plan.slots());
        let k = LANE_WIDTH + 3;
        let mut w = random_weights(vars, &mut rng);
        let mut batch = batch_of(&lane_weights(vars, k, &mut rng));
        let mut eval = TapeEvaluator::new();
        let mut out = vec![C_ZERO; k];
        let mut fresh_out = vec![C_ZERO; k];
        for step in 0..12u32 {
            let v = 1 + step % vars as u32;
            w.set(v, Complex::new(rng.gen::<f64>(), 0.0), C_ONE);
            batch.set_all(v, C_ONE, Complex::new(0.0, rng.gen::<f64>()));
            let mut fresh = TapeEvaluator::new();
            assert!(bits_eq(
                eval.evaluate_delta(&tape, &w, &[v]),
                fresh.evaluate(&tape, &w)
            ));
            let got = eval.evaluate_batch_delta(&tape, &batch, &[v]).to_vec();
            let want = fresh.evaluate_batch(&tape, &batch).to_vec();
            assert!(
                got.iter().zip(&want).all(|(&g, &w)| bits_eq(g, w)),
                "step {step}"
            );
            assert!(bits_eq(
                eval.differentials_delta(&tape, &w, &[v]),
                fresh.differentials(&tape, &w)
            ));
            for lit in (1..=vars as Lit).flat_map(|v| [v, -v]) {
                assert_eq!(
                    bits(eval.wrt_lit(&tape, lit)),
                    bits(fresh.wrt_lit(&tape, lit))
                );
            }
            eval.differentials_cone_batch_delta(&tape, &batch, &[v], &cone);
            fresh.differentials_cone_batch(&tape, &batch, &cone);
            eval.contract_tangent_broadcast(&plan, &mut out);
            fresh.contract_tangent_broadcast(&plan, &mut fresh_out);
            assert!(out.iter().zip(&fresh_out).all(|(&g, &w)| bits_eq(g, w)));
            // The scalar partials survived the batched passes.
            let mut fresh = TapeEvaluator::new();
            fresh.differentials(&tape, &w);
            assert!(bits_eq(
                eval.contract_tangent(&plan),
                fresh.contract_tangent(&plan)
            ));
            assert!(bits_eq(
                eval.differentials_cone_delta(&tape, &w, &[v], &cone),
                fresh.differentials_cone(&tape, &w, &cone)
            ));
            assert!(bits_eq(
                eval.contract_tangent(&plan),
                fresh.contract_tangent(&plan)
            ));
            eval.differentials_batch(&tape, &batch);
            fresh.differentials_batch(&tape, &batch);
            for lane in 0..k {
                assert!(bits_eq(
                    eval.value_lane(&tape, lane),
                    fresh.value_lane(&tape, lane)
                ));
            }
        }
    }

    #[test]
    fn sample_model_consumes_the_same_rng_stream() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let w = AcWeights::uniform(3);
        for seed in 0..20 {
            let mut rng_enum = StdRng::seed_from_u64(seed);
            let mut rng_tape = StdRng::seed_from_u64(seed);
            let want = sample_model(&nnf, &w, &mut rng_enum);
            let got = eval.sample_model(&tape, &w, &mut rng_tape);
            assert_eq!(got, want, "seed {seed}");
            // Identical downstream state proves identical RNG consumption.
            assert_eq!(rng_enum.gen::<u64>(), rng_tape.gen::<u64>(), "seed {seed}");
        }
    }

    #[test]
    fn cached_magnitudes_redraw_identically() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let w = AcWeights::uniform(3);
        let root_mag = eval.model_magnitudes(&tape, &w);
        assert!(root_mag > 0.0);
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let mut lits = Vec::new();
        for _ in 0..10 {
            eval.draw_model(&tape, &mut rng_a, &mut lits);
            let want = sample_model(&nnf, &w, &mut rng_b).expect("satisfiable");
            assert_eq!(lits, want);
        }
    }

    #[test]
    fn unsat_tape_has_no_model() {
        let mut f = Cnf::new(1);
        f.add_clause(vec![1]);
        f.add_clause(vec![-1]);
        let c = compile(&f, &CompileOptions::default());
        let tape = AcTape::lower(&c.nnf);
        let mut eval = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(eval
            .sample_model(&tape, &AcWeights::uniform(1), &mut rng)
            .is_none());
    }

    #[test]
    fn delta_passes_match_full_recompute_bit_for_bit() {
        // Random sequences of single/multi-variable weight updates: the
        // delta kernels (dirty-cone recompute) must stay bitwise equal to
        // a full pass on a fresh evaluator, in both arithmetic modes.
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut delta_eval = TapeEvaluator::new();
        let mut full_eval = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(41);
        let mut w = random_weights(3, &mut rng);
        assert!(bits_eq(
            delta_eval.evaluate(&tape, &w),
            full_eval.evaluate(&tape, &w)
        ));
        for step in 0..200 {
            // Mutate 1..=3 variables, sometimes to evidence-like 0/1
            // weights so zero short-circuits and zero partials fire.
            let count = 1 + rng.gen_range(0..3usize);
            let mut changed = Vec::new();
            for _ in 0..count {
                let v = 1 + rng.gen_range(0..3) as u32;
                let evidence = rng.gen::<f64>() < 0.4;
                let (pos, neg) = if evidence {
                    if rng.gen::<bool>() {
                        (C_ONE, C_ZERO)
                    } else {
                        (C_ZERO, C_ONE)
                    }
                } else {
                    (
                        Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
                        Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
                    )
                };
                w.set(v, pos, neg);
                changed.push(v);
            }
            if step % 2 == 0 {
                let got = delta_eval.evaluate_delta(&tape, &w, &changed);
                let want = full_eval.evaluate(&tape, &w);
                assert!(bits_eq(got, want), "step {step} (evaluate mode)");
            } else {
                let got = delta_eval.differentials_delta(&tape, &w, &changed);
                let want = full_eval.differentials(&tape, &w);
                assert!(bits_eq(got, want), "step {step} (diff mode)");
                for v in 1..=3i32 {
                    for lit in [v, -v] {
                        assert_eq!(
                            delta_eval
                                .wrt_lit(&tape, lit)
                                .map(|c| (c.re.to_bits(), c.im.to_bits())),
                            full_eval
                                .wrt_lit(&tape, lit)
                                .map(|c| (c.re.to_bits(), c.im.to_bits())),
                            "step {step} lit {lit}"
                        );
                    }
                }
            }
            // Note: alternating modes forces the fallback path too (the
            // mode check rejects the other mode's buffer).
        }
    }

    #[test]
    fn batch_delta_matches_full_batch_and_scalar_bit_for_bit() {
        // Random sequences of shared-evidence and per-lane weight updates:
        // the delta-aware batch kernel must stay bitwise equal to a full
        // batched pass on a fresh evaluator — and, lane by lane, to the
        // scalar evaluator.
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut rng = StdRng::seed_from_u64(59);
        for k in [
            1usize,
            3,
            4,
            LANE_WIDTH - 1,
            LANE_WIDTH + 1,
            16,
            2 * LANE_WIDTH + 3,
        ] {
            let mut delta_eval = TapeEvaluator::new();
            let mut full_eval = TapeEvaluator::new();
            let mut scalar_eval = TapeEvaluator::new();
            let mut batch = AcWeightsBatch::uniform(3, k);
            let mut lanes: Vec<AcWeights> = Vec::with_capacity(k);
            for lane in 0..k {
                let w = random_weights(3, &mut rng);
                for v in 1..=3u32 {
                    batch.set_lane(v, lane, w.get(v as i32), w.get(-(v as i32)));
                }
                lanes.push(w);
            }
            // First call on a fresh evaluator exercises the fallback.
            let first = delta_eval
                .evaluate_batch_delta(&tape, &batch, &[1, 2, 3])
                .to_vec();
            let want = full_eval.evaluate_batch(&tape, &batch).to_vec();
            assert_eq!(first.len(), want.len());
            for (lane, (&g, &w)) in first.iter().zip(&want).enumerate() {
                assert!(bits_eq(g, w), "k={k} warmup lane {lane}");
            }
            for step in 0..120 {
                let v = 1 + rng.gen_range(0..3) as u32;
                if rng.gen::<f64>() < 0.5 {
                    // Shared evidence write (the Gray-sweep case).
                    let (pos, neg) = if rng.gen::<bool>() {
                        (C_ONE, C_ZERO)
                    } else {
                        (C_ZERO, C_ONE)
                    };
                    batch.set_all(v, pos, neg);
                    for w in &mut lanes {
                        w.set(v, pos, neg);
                    }
                } else {
                    // Per-lane parameter write.
                    for (lane, w) in lanes.iter_mut().enumerate() {
                        let pos = Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
                        let neg = Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
                        batch.set_lane(v, lane, pos, neg);
                        w.set(v, pos, neg);
                    }
                }
                let got = delta_eval
                    .evaluate_batch_delta(&tape, &batch, &[v])
                    .to_vec();
                let want = full_eval.evaluate_batch(&tape, &batch).to_vec();
                for (lane, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        bits_eq(g, w),
                        "k={k} step {step} lane {lane} (vs full batch)"
                    );
                    let scalar = scalar_eval.evaluate(&tape, &lanes[lane]);
                    assert!(
                        bits_eq(g, scalar),
                        "k={k} step {step} lane {lane} (vs scalar)"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_delta_falls_back_on_lane_count_change() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let batch4 = AcWeightsBatch::uniform(3, 4);
        eval.evaluate_batch(&tape, &batch4);
        // Different lane count: the cached buffer is strided for k=4, so a
        // k=2 delta must run a full pass instead of reading stale rows.
        let mut rng = StdRng::seed_from_u64(61);
        let mut batch2 = AcWeightsBatch::uniform(3, 2);
        for lane in 0..2 {
            let w = random_weights(3, &mut rng);
            for v in 1..=3u32 {
                batch2.set_lane(v, lane, w.get(v as i32), w.get(-(v as i32)));
            }
        }
        let got = eval.evaluate_batch_delta(&tape, &batch2, &[]).to_vec();
        let want = TapeEvaluator::new().evaluate_batch(&tape, &batch2).to_vec();
        for (lane, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert!(bits_eq(g, w), "lane {lane}");
        }
        // A scalar pass in between leaves the batch rows intact.
        let w = random_weights(3, &mut rng);
        eval.evaluate(&tape, &w);
        let got = eval.evaluate_batch_delta(&tape, &batch2, &[]).to_vec();
        for (lane, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert!(bits_eq(g, w), "post-scalar lane {lane}");
        }
    }

    #[test]
    fn delta_with_no_changes_is_a_no_op() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(43);
        let w = random_weights(3, &mut rng);
        let full = eval.evaluate(&tape, &w);
        assert!(bits_eq(eval.evaluate_delta(&tape, &w, &[]), full));
    }

    #[test]
    fn delta_falls_back_after_batch_pass_invalidates() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(47);
        let mut w = random_weights(3, &mut rng);
        eval.evaluate(&tape, &w);
        // A batch pass in between runs on the batch rows; the scalar delta
        // must still land on the full-pass bits.
        let batch = AcWeightsBatch::uniform(3, 4);
        eval.evaluate_batch(&tape, &batch);
        w.set(1, C_ZERO, C_ONE);
        let got = eval.evaluate_delta(&tape, &w, &[1]);
        assert!(bits_eq(got, evaluate(&nnf, &w)));
    }

    #[test]
    fn delta_falls_back_across_tapes() {
        let nnf = test_nnf();
        let tape_a = AcTape::lower(&nnf);
        let tape_b = AcTape::lower(&nnf); // same content, different stamp
        let mut eval = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(53);
        let w = random_weights(3, &mut rng);
        eval.evaluate(&tape_a, &w);
        let got = eval.evaluate_delta(&tape_b, &w, &[]);
        assert!(bits_eq(got, evaluate(&nnf, &w)));
    }

    #[test]
    fn undersized_weight_vector_is_rejected() {
        let nnf = test_nnf(); // mentions variables up to 3
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eval.evaluate(&tape, &AcWeights::uniform(1))
        }));
        assert!(result.is_err(), "undersized weights must panic, not UB");
    }

    #[test]
    fn size_bytes_is_exact_over_buffers() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let expected = std::mem::size_of::<AcTape>()
            + tape.ops.len() * std::mem::size_of::<TapeOp>()
            + tape.edges.len() * std::mem::size_of::<TapeId>()
            + tape.consts.len() * std::mem::size_of::<Complex>()
            + tape.lit_slots.len() * std::mem::size_of::<(Lit, TapeId)>()
            + tape.parent_offsets.len() * std::mem::size_of::<u32>()
            + tape.parents.len() * std::mem::size_of::<TapeId>();
        assert_eq!(tape.size_bytes(), expected);
        assert!(tape.size_bytes() > 0);
    }

    #[test]
    fn empty_batch_is_empty() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let batch = AcWeightsBatch::uniform(3, 0);
        assert!(eval.evaluate_batch(&tape, &batch).is_empty());
    }

    #[test]
    fn evaluator_buffers_are_reused_across_tapes() {
        // A big tape warms the buffers; a smaller one must still compute
        // correctly over the (larger, stale) storage.
        let big = test_nnf();
        let big_tape = AcTape::lower(&big);
        let mut f = Cnf::new(1);
        f.add_clause(vec![1]);
        let small = compile(&f, &CompileOptions::default());
        let small_tape = AcTape::lower(&small.nnf);
        let mut eval = TapeEvaluator::new();
        let w3 = AcWeights::uniform(3);
        let w1 = AcWeights::uniform(1);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let wr = random_weights(3, &mut rng);
            assert!(bits_eq(eval.evaluate(&big_tape, &wr), evaluate(&big, &wr)));
            assert!(bits_eq(
                eval.evaluate(&small_tape, &w1),
                evaluate(&small.nnf, &w1)
            ));
            let v = eval.differentials(&big_tape, &w3);
            assert!(bits_eq(v, evaluate_with_differentials(&big, &w3).value));
        }
    }

    /// Random CNF for wire-format round-trip coverage (same generator
    /// family as the delta tests: enough clauses for non-trivial sharing).
    fn random_cnf(vars: usize, clauses: usize, seed: u64) -> Cnf {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut f = Cnf::new(vars);
        for _ in 0..clauses {
            let len = rng.gen_range(1..4usize);
            let mut clause = Vec::with_capacity(len);
            for _ in 0..len {
                let v = rng.gen_range(1..vars as i32 + 1);
                clause.push(if rng.gen::<bool>() { v } else { -v });
            }
            f.add_clause(clause);
        }
        f
    }

    #[test]
    fn wire_round_trip_is_bit_identical_under_every_kernel() {
        for seed in 0..20u64 {
            let f = random_cnf(6, 9, seed);
            let compiled = compile(&f, &CompileOptions::default());
            let groups: Vec<Vec<i32>> = (1..=6).map(|v| vec![v, -v]).collect();
            let nnf = smooth(&compiled.nnf, &groups);
            let tape = AcTape::lower(&nnf);
            let bytes = tape.to_bytes();
            let back = AcTape::from_bytes(&bytes).expect("round trip decodes");
            // Identical flat sections → identical byte stream again.
            assert_eq!(back.to_bytes(), bytes, "re-encode differs (seed {seed})");
            assert_ne!(back.stamp, tape.stamp, "decoded tape has its own identity");
            // Every kernel agrees bit-for-bit between original and decoded.
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD5);
            let mut ea = TapeEvaluator::new();
            let mut eb = TapeEvaluator::new();
            for _ in 0..4 {
                let w = random_weights(6, &mut rng);
                assert!(bits_eq(ea.evaluate(&tape, &w), eb.evaluate(&back, &w)));
                assert!(bits_eq(
                    ea.differentials(&tape, &w),
                    eb.differentials(&back, &w)
                ));
                for v in 1..=6i32 {
                    for lit in [v, -v] {
                        assert_eq!(
                            ea.wrt_lit(&tape, lit)
                                .map(|c| (c.re.to_bits(), c.im.to_bits())),
                            eb.wrt_lit(&back, lit)
                                .map(|c| (c.re.to_bits(), c.im.to_bits())),
                        );
                    }
                }
                // Model sampling consumes the identical RNG stream.
                let mut ra = StdRng::seed_from_u64(7 + seed);
                let mut rb = StdRng::seed_from_u64(7 + seed);
                assert_eq!(
                    ea.sample_model(&tape, &w, &mut ra),
                    eb.sample_model(&back, &w, &mut rb)
                );
            }
        }
    }

    #[test]
    fn wire_rejects_corruption_truncation_and_version_skew() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let bytes = tape.to_bytes();

        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            AcTape::from_bytes(&bad).err(),
            Some(TapeDecodeError::BadMagic)
        );

        // Future version.
        let mut bad = bytes.clone();
        bad[4] = 0xFE;
        assert_eq!(
            AcTape::from_bytes(&bad).err(),
            Some(TapeDecodeError::UnsupportedVersion(u16::from_le_bytes([
                0xFE, bad[5]
            ])))
        );

        // Every possible truncation point decodes to an error, never a
        // panic or a silently short tape.
        for len in 0..bytes.len() {
            assert!(
                AcTape::from_bytes(&bytes[..len]).is_err(),
                "truncation at {len} accepted"
            );
        }

        // Trailing garbage is rejected too.
        let mut long = bytes.clone();
        long.extend_from_slice(&[0u8; 3]);
        assert!(AcTape::from_bytes(&long).is_err());

        // Any single-byte flip anywhere in the payload is caught (by the
        // checksum, or — if the flip lands in the checksum itself — by the
        // mismatch against the intact body).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(AcTape::from_bytes(&bad).is_err(), "flip at {i} accepted");
        }
    }

    #[test]
    fn wire_validates_structure_not_just_checksum() {
        // A payload with a valid checksum but broken invariants (child
        // after parent) must be rejected: rebuild a tampered body and
        // re-stamp its checksum.
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut bytes = tape.to_bytes();
        let body_len = bytes.len() - 8;
        // Find an And2/Or op and point its first child at itself: op
        // section starts at the fixed header.
        let ops_start = 4 + 2 + 2 + 4 + 4 + 16;
        let n_ops = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let mut patched = false;
        for i in 0..n_ops {
            let off = ops_start + i * 9;
            if bytes[off] == TapeOpKind::And2 as u8 || bytes[off] == TapeOpKind::Or as u8 {
                bytes[off + 1..off + 5].copy_from_slice(&(i as u32).to_le_bytes());
                patched = true;
                break;
            }
        }
        assert!(patched, "test nnf has an inner node");
        let sum = super::fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            AcTape::from_bytes(&bytes).err(),
            Some(TapeDecodeError::Malformed("child after parent"))
        );
    }

    /// Sparse random tangent vector: most slots zero, a few nonzero.
    fn random_tangents(num_vars: usize, rng: &mut StdRng) -> AcWeights {
        let mut t = AcWeights::zeros(num_vars);
        for v in 1..=num_vars as u32 {
            if rng.gen::<f64>() < 0.6 {
                t.set(
                    v,
                    Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
                    C_ZERO,
                );
            }
        }
        t
    }

    #[test]
    fn contract_tangent_matches_directional_derivative() {
        // ∂root/∂θ contracted from one differentials pass must match the
        // finite difference of `evaluate` along the tangent direction:
        // the AC is multilinear in its weights, so the FD is tight.
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..20 {
            let w = random_weights(3, &mut rng);
            let t = random_tangents(3, &mut rng);
            let plan = TangentPlan::new(&tape, &t);
            eval.differentials(&tape, &w);
            let analytic = eval.contract_tangent(&plan);
            // Manual chain rule straight off the partials buffer.
            let mut manual = C_ZERO;
            for v in 1..=3u32 {
                for lit in [v as Lit, -(v as Lit)] {
                    if let Some(p) = eval.wrt_lit(&tape, lit) {
                        manual += p * t.get(lit);
                    }
                }
            }
            assert!(analytic.approx_eq(manual, 1e-12));
            // Central finite difference along the tangent direction.
            let h = 1e-6;
            let shift = |s: f64| {
                let mut ws = AcWeights::uniform(3);
                for v in 1..=3u32 {
                    ws.set(
                        v,
                        w.get(v as Lit) + t.get(v as Lit).scale(s),
                        w.get(-(v as Lit)) + t.get(-(v as Lit)).scale(s),
                    );
                }
                let mut e = TapeEvaluator::new();
                e.evaluate(&tape, &ws)
            };
            let fd = (shift(h) - shift(-h)).scale(1.0 / (2.0 * h));
            assert!(
                analytic.approx_eq(fd, 1e-7),
                "analytic {analytic:?} vs fd {fd:?}"
            );
        }
    }

    #[test]
    fn contract_tangent_lanes_bit_identical_to_scalar() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut rng = StdRng::seed_from_u64(23);
        for lanes in [4usize, LANE_WIDTH, LANE_WIDTH + 1, 2 * LANE_WIDTH + 3] {
            let mut batch_w = AcWeightsBatch::uniform(3, lanes);
            let mut batch_t = AcWeightsBatch::zeros(3, lanes);
            let mut scalar_w = Vec::new();
            let mut scalar_t = Vec::new();
            for l in 0..lanes {
                let w = random_weights(3, &mut rng);
                let t = random_tangents(3, &mut rng);
                for v in 1..=3u32 {
                    batch_w.set_lane(v, l, w.get(v as Lit), w.get(-(v as Lit)));
                    batch_t.set_lane(v, l, t.get(v as Lit), t.get(-(v as Lit)));
                }
                scalar_w.push(w);
                scalar_t.push(t);
            }
            let plan = TangentPlanBatch::new(&tape, &batch_t);
            let mut eval = TapeEvaluator::new();
            eval.differentials_batch(&tape, &batch_w);
            let mut out = vec![C_ZERO; lanes];
            eval.contract_tangent_lanes(&plan, &mut out);
            for l in 0..lanes {
                let mut se = TapeEvaluator::new();
                se.differentials(&tape, &scalar_w[l]);
                let sp = TangentPlan::new(&tape, &scalar_t[l]);
                assert!(
                    bits_eq(out[l], se.contract_tangent(&sp)),
                    "lane {l} of {lanes} diverges from scalar"
                );
            }
        }
    }

    #[test]
    fn cone_restricted_differentials_are_bit_identical_to_full() {
        // Random CNFs, random weight/tangent draws, single-variable delta
        // steps: the cone-restricted sweeps must contract bit-for-bit like
        // the full sweeps — through both the fresh-evaluator (full upward)
        // path and the delta upward path.
        for seed in 0..10u64 {
            let f = random_cnf(6, 9, seed);
            let compiled = compile(&f, &CompileOptions::default());
            let groups: Vec<Vec<i32>> = (1..=6).map(|v| vec![v, -v]).collect();
            let nnf = smooth(&compiled.nnf, &groups);
            let tape = AcTape::lower(&nnf);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0);
            let t = random_tangents(6, &mut rng);
            let plan = TangentPlan::new(&tape, &t);
            let cone = DiffCone::new(&tape, plan.slots());
            assert!(cone.len() <= tape.num_ops());
            assert_eq!(cone.is_empty(), plan.is_empty());
            let mut full = TapeEvaluator::new();
            let mut coned = TapeEvaluator::new();
            let mut w = random_weights(6, &mut rng);
            let a = full.differentials(&tape, &w);
            let b = coned.differentials_cone(&tape, &w, &cone);
            assert!(bits_eq(a, b), "seed {seed} root (full upward)");
            assert!(
                bits_eq(full.contract_tangent(&plan), coned.contract_tangent(&plan)),
                "seed {seed} contraction (full upward)"
            );
            for step in 0..50 {
                // Evidence-like 0/1 weights fire the zero-partial skips.
                let v = 1 + rng.gen_range(0..6) as u32;
                let (pos, neg) = if rng.gen::<f64>() < 0.5 {
                    if rng.gen::<bool>() {
                        (C_ONE, C_ZERO)
                    } else {
                        (C_ZERO, C_ONE)
                    }
                } else {
                    (
                        Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
                        Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
                    )
                };
                w.set(v, pos, neg);
                let a = full.differentials_delta(&tape, &w, &[v]);
                let b = coned.differentials_cone_delta(&tape, &w, &[v], &cone);
                assert!(bits_eq(a, b), "seed {seed} step {step} root");
                assert!(
                    bits_eq(full.contract_tangent(&plan), coned.contract_tangent(&plan)),
                    "seed {seed} step {step} contraction"
                );
            }
        }
    }

    #[test]
    fn empty_cone_sweeps_nothing_but_keeps_the_root_value() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let cone = DiffCone::new(&tape, std::iter::empty());
        assert!(cone.is_empty());
        let mut rng = StdRng::seed_from_u64(7);
        let w = random_weights(3, &mut rng);
        let mut eval = TapeEvaluator::new();
        let mut reference = TapeEvaluator::new();
        assert!(bits_eq(
            eval.differentials_cone(&tape, &w, &cone),
            reference.differentials(&tape, &w)
        ));
    }

    #[test]
    fn empty_tangent_plan_contracts_to_zero() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let plan = TangentPlan::new(&tape, &AcWeights::zeros(3));
        assert!(plan.is_empty());
        let mut eval = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(3);
        eval.differentials(&tape, &random_weights(3, &mut rng));
        assert!(bits_eq(eval.contract_tangent(&plan), C_ZERO));
    }
}
