//! Knowledge compilation for quantum circuit simulation — stage 3 of the
//! paper's toolchain (Figure 4, §3.2.2–3.3).
//!
//! A CNF encoding of a noisy quantum circuit is compiled once into a
//! deterministic decomposable circuit ([`Nnf`]) by an exhaustive-DPLL
//! compiler with unit propagation, component decomposition, and component
//! caching ([`compile`]); post-processed by internal-state elision
//! ([`project_out`]) and query-variable smoothing ([`smooth`]); and then
//! evaluated repeatedly as an *arithmetic circuit*: upward for amplitudes
//! ([`evaluate`]), upward+downward for all single-flip amplitudes at once
//! ([`evaluate_with_differentials`]), which drives the [`GibbsSampler`].
//!
//! Production queries run on the flat execution form: [`AcTape`] lowers the
//! enum arena once into a topologically-ordered instruction stream with CSR
//! child storage, and [`TapeEvaluator`] runs every kernel (upward, delta,
//! downward, tangent contraction, model sampling) over persistent buffers —
//! zero allocations per query after warmup. Each arithmetic kernel is
//! written once over a [`Lane`](lanes::Lane) type and instantiated for the
//! scalar [`Complex`](qkc_math::Complex) and for `k` weight lanes
//! ([`AcWeightsBatch`]) in lane-blocked split-plane layout ([`lanes`]).
//! Every result is bit-for-bit identical, lane by lane, to the scalar
//! enum walk ([`evaluate`], [`evaluate_with_differentials`],
//! [`sample_model`]), which remains as the one reference implementation:
//! tests and kernel benchmarks run it on the arena, while a compiled
//! simulator keeps only the tape. The [`GibbsSampler`] runs on the tape
//! alone; its unit tests check it against a test-only enum-walk chain.
//!
//! # Examples
//!
//! ```
//! use qkc_cnf::Cnf;
//! use qkc_knowledge::{compile, evaluate, smooth, AcWeights, CompileOptions};
//! use qkc_math::Complex;
//!
//! // WMC of (v1 ∨ v2) with w(+v1) = 0.25, w(+v2) = 0.5:
//! let mut f = Cnf::new(2);
//! f.add_clause(vec![1, 2]);
//! let compiled = compile(&f, &CompileOptions::default());
//! let nnf = smooth(&compiled.nnf, &[vec![1, -1], vec![2, -2]]);
//! let mut w = AcWeights::uniform(2);
//! w.set(1, Complex::real(0.25), Complex::real(1.0));
//! w.set(2, Complex::real(0.5), Complex::real(1.0));
//! // models: (T,T) .125 + (T,F) .25 + (F,T) .5 = 0.875
//! assert!((evaluate(&nnf, &w).re - 0.875).abs() < 1e-12);
//! ```

mod batch;
mod compiler;
mod evaluate;
mod gibbs;
pub mod lanes;
mod nnf;
mod order;
mod tape;
mod transform;
mod verify;

pub use batch::AcWeightsBatch;
pub use compiler::{compile, CompileOptions, CompileStats, Compiled};
pub use evaluate::{evaluate, evaluate_with_differentials, sample_model, AcWeights, Differentials};
pub use gibbs::{GibbsOptions, GibbsSampler, GibbsStats, QueryVar};
pub use lanes::{LaneBlock, LANE_WIDTH};
pub use nnf::{Nnf, NnfBuilder, NnfId, NnfNode};
pub use order::{compute_ranks, compute_ranks_balanced, VarOrder, DEFAULT_SEPARATOR_BALANCE};
pub use tape::{
    fnv1a as wire_checksum, AcTape, DiffCone, TangentPlan, TapeDecodeError, TapeDifferentials,
    TapeEvaluator, TapeId, TapeOp, TapeOpKind, WIRE_VERSION as TAPE_WIRE_VERSION,
};
pub use transform::{project_out, smooth};
pub use verify::{
    verify_tangent_plan, verify_tape, verify_tape_bytes, Finding, Severity, VerifyLevel,
    VerifyPass, VerifyReport,
};
