//! The traced run: the same ops replayed as calls into each layer's
//! public functions, each call wrapped in a span, plus fixed-size probes
//! of the layers an op reaches only inside one engine call (the tape
//! kernels) or not at all on this workload.
//!
//! Spans live in memory (name, start, end, parent, op id) and are written
//! out when the run ends. A span's self time is its duration minus the
//! time its children cover; per op, the self times of every span sum to
//! the op's wall time by construction, and the op span's own self time is
//! the `engine.unattributed_ms` row.

use crate::util::{median, Json, Rng};
use crate::workload::{Kind, Op, Output, Workload, SHOTS};
use qkc::circuit::ParamMap;
use qkc::engine::{Engine, PlanHint, DEFAULT_BATCH};
use qkc::kc::{KcSimulator, PipelineMetrics, ValueState};
use qkc::knowledge::{
    AcWeights, AcWeightsBatch, DiffCone, GibbsOptions, TapeEvaluator, LANE_WIDTH,
};
use qkc::math::C_ONE;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Op id of spans recorded outside any op (probes).
pub const PROBE: u64 = u64::MAX;
/// Op id of the set-up op (first compile plus one op).
pub const SETUP: u64 = u64::MAX - 1;
/// Gibbs settings of the engine's knowledge-compilation backend.
const GIBBS_WARMUP: usize = 800;
pub const GIBBS_THIN: usize = 3;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: PROBE,
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.open(name);
        let out = f(self);
        self.close(idx);
        out
    }

    /// Runs one op inside an `op` span.
    pub fn op<T>(&mut self, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        self.op = id;
        let out = self.span("op", f);
        self.op = PROBE;
        out
    }

    /// A child span of the open span, timed by the program itself.
    fn record(&mut self, name: &'static str, start: f64, secs: f64) {
        self.spans.push(Span {
            name,
            start,
            end: start + secs,
            parent: self.stack.last().copied(),
            op: self.op,
        });
    }

    /// Every span's duration minus the time its children cover (children
    /// never overlap: the replay is sequential).
    pub fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.end - s.start;
            }
        }
        out
    }

    pub fn to_json(&self) -> Json {
        let self_times = self.self_times();
        Json::Arr(
            self.spans
                .iter()
                .zip(&self_times)
                .map(|(s, &own)| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_us", Json::Num(s.start * 1e6)),
                        ("end_us", Json::Num(s.end * 1e6)),
                        ("self_us", Json::Num(own * 1e6)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        (
                            "op",
                            match s.op {
                                PROBE => Json::str("probe"),
                                SETUP => Json::str("setup"),
                                id => Json::Int(id),
                            },
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// What the replay saw besides spans: compiles, lane use, Gibbs chains.
#[derive(Debug, Default)]
pub struct Counters {
    pub compiles: Vec<PipelineMetrics>,
    /// Tape ops of the compiled artifacts.
    pub tape_ops: usize,
    pub points_bound: usize,
    pub live_lanes: usize,
    pub lane_slots: usize,
    pub acceptance: Vec<f64>,
}

/// Resolves `circuit`'s artifact through the engine cache. A miss gets
/// child spans for each compile phase from the artifact's own
/// `PhaseSeconds`, laid end to end from the span's start, plus the
/// compile time no phase accounts for; the miss span's self time is the
/// cache's overhead around the compile.
fn lookup(
    tr: &mut Tracer,
    engine: &Engine,
    w: &Workload,
    c: usize,
    n: &mut Counters,
) -> Arc<KcSimulator> {
    let misses = engine.cache().misses();
    let idx = tr.open("engine.cache.hit");
    let start = tr.spans[idx].start;
    let art = engine
        .cache()
        .get_or_compile(&w.circuits[c], &engine.options().kc_options);
    if engine.cache().misses() > misses {
        tr.spans[idx].name = "engine.cache.miss";
        let m = art.metrics();
        let p = &m.phase_seconds;
        let mut at = start;
        for (name, secs) in [
            ("bayesnet.build", p.bn_build),
            ("cnf.encode", p.cnf_encode),
            ("cnf.simplify", p.simplify),
            ("knowledge.order", p.var_order),
            ("knowledge.compiler.search", p.ddnnf_search),
            ("knowledge.transform", p.postprocess),
            ("knowledge.tape.lower", p.tape_lower),
            ("core.pipeline.unattributed", m.compile_seconds - p.total()),
        ] {
            tr.record(name, at, secs);
            at += secs;
        }
        n.compiles.push(m.clone());
        n.tape_ops += art.tape().num_ops();
    }
    tr.close(idx);
    art
}

/// Replays one op through the layers the engine call runs, in the order
/// it runs them, on one thread. Returns the op's values for comparison
/// with the untraced run (sampling ops draw their own chain, so only
/// their sample mean is returned).
pub fn replay(
    tr: &mut Tracer,
    engine: &Engine,
    w: &Workload,
    op: &Op,
    n: &mut Counters,
) -> Vec<f64> {
    let mut values = Vec::new();
    match op {
        Op::Sweep { points } => {
            let obs = w.observable(0);
            tr.span("engine.planner.plan", |_| {
                engine.plan_with_hint(&w.circuits[0], PlanHint::ParameterSweep)
            });
            let art = lookup(tr, engine, w, 0, n);
            for lane in points.chunks(engine.options().batch) {
                let bound = tr.span("core.bind", |_| art.bind_batch(lane).expect("bound lane"));
                n.points_bound += lane.len();
                n.live_lanes += lane.len();
                n.lane_slots += lane.len().div_ceil(LANE_WIDTH) * LANE_WIDTH;
                values.extend(tr.span("core.query.expectations", |_| bound.expectations(&obs)));
            }
        }
        Op::Gradient { points } => {
            let wrt = w.wrt();
            for c in 0..2 {
                let obs = w.observable(c);
                tr.span("engine.planner.plan", |_| {
                    engine.plan_with_hint(&w.circuits[c], PlanHint::ParameterSweep)
                });
                let art = lookup(tr, engine, w, c, n);
                for p in points {
                    let bound = tr.span("core.bind", |_| {
                        art.bind_with_tangents(p, &wrt).expect("bound point")
                    });
                    n.points_bound += 1;
                    let (value, grad) =
                        tr.span("core.query.gradient", |_| bound.expectation_gradient(&obs));
                    values.push(value);
                    values.extend(grad);
                }
            }
        }
        Op::Sample {
            circuit,
            params,
            seed,
            ..
        } => {
            tr.span("engine.planner.plan", |_| {
                engine.plan(&w.circuits[*circuit])
            });
            let art = lookup(tr, engine, w, *circuit, n);
            let bound = tr.span("core.bind", |_| art.bind(params).expect("bound point"));
            n.points_bound += 1;
            let mut sampler = tr.span("knowledge.gibbs.warmup", |_| {
                bound.sampler(&GibbsOptions {
                    warmup: GIBBS_WARMUP,
                    thin: GIBBS_THIN,
                    seed: *seed,
                    ..Default::default()
                })
            });
            let shots = tr.span("knowledge.gibbs.sample", |_| {
                sampler.sample_outputs(SHOTS, GIBBS_THIN)
            });
            n.acceptance.push(sampler.acceptance_rate());
            values.push(w.mean_cut(*circuit, &shots));
        }
    }
    values
}

/// Bound weights of `art` at `params`, with every query variable's
/// evidence set to value 0 — the state one amplitude query leaves.
fn bound_weights(art: &KcSimulator, params: &ParamMap) -> AcWeights {
    let table = art
        .bayes_net()
        .evaluate_weights(params)
        .expect("bound parameters");
    let mut weights = AcWeights::uniform(art.encoding().cnf.num_vars());
    for (var, node, slot) in art.encoding().vars.params() {
        if !art.fixed_vars().contains_key(&var) {
            weights.set(var, table.value(node, slot), C_ONE);
        }
    }
    for spec in art.query() {
        set_evidence(&mut weights, &spec.values, 0);
    }
    weights
}

fn set_evidence(weights: &mut AcWeights, values: &[ValueState], value: usize) {
    for (v, state) in values.iter().enumerate() {
        if let ValueState::Lit(lit) = state {
            let chosen = if v == value { C_ONE } else { qkc::math::C_ZERO };
            let var = lit.unsigned_abs();
            if *lit > 0 {
                weights.set(var, chosen, weights.get(-(var as i32)));
            } else {
                weights.set(var, weights.get(var as i32), chosen);
            }
        }
    }
}

/// `weights` broadcast to `lanes` lanes.
fn broadcast(weights: &AcWeights, lanes: usize) -> AcWeightsBatch {
    let mut b = AcWeightsBatch::uniform(weights.num_vars(), lanes);
    for v in 1..=weights.num_vars() as u32 {
        b.set_all(v, weights.get(v as i32), weights.get(-(v as i32)));
    }
    b
}

/// Per-pass seconds of `pass`, repeated until `budget` seconds or 200
/// passes, each in its own probe span.
fn probe_passes(tr: &mut Tracer, name: &'static str, budget: f64, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < 200 && (secs.len() < 5 || start.elapsed().as_secs_f64() < budget) {
        let t = Instant::now();
        tr.span(name, |_| pass());
        secs.push(t.elapsed().as_secs_f64());
    }
    median(&secs)
}

/// Kernel probes on `art`'s tape with the weights of `params`: the
/// batched full and delta upward passes at the engine's batch width, the
/// batched cone differentials, and the scalar delta differentials a Gibbs
/// step runs. Returns (name, microseconds) rows.
pub fn kernel_probes(
    tr: &mut Tracer,
    art: &KcSimulator,
    params: &ParamMap,
) -> Vec<(&'static str, f64)> {
    let tape = art.tape();
    let weights = bound_weights(art, params);
    let flip = art
        .query()
        .iter()
        .find_map(|spec| match spec.values.as_slice() {
            [ValueState::Lit(_), ValueState::Lit(l1)] => {
                Some((spec.values.clone(), l1.unsigned_abs()))
            }
            _ => None,
        })
        .expect("a free binary query variable");
    let mut flipped = weights.clone();
    set_evidence(&mut flipped, &flip.0, 1);
    let batch = [
        broadcast(&weights, DEFAULT_BATCH),
        broadcast(&flipped, DEFAULT_BATCH),
    ];
    let param_slots = art
        .encoding()
        .vars
        .params()
        .filter_map(|(var, _, _)| tape.lit_slot(var as i32));
    let cone = DiffCone::new(tape, param_slots);
    let budget = 0.05;
    let mut ev = TapeEvaluator::new();
    let full = probe_passes(tr, "knowledge.tape.batch_full_pass", budget, || {
        std::hint::black_box(ev.evaluate_batch(tape, &batch[0]));
    });
    let mut k = 0;
    ev.evaluate_batch(tape, &batch[0]);
    let delta = probe_passes(tr, "knowledge.tape.batch_delta_pass", budget, || {
        k ^= 1;
        std::hint::black_box(ev.evaluate_batch_delta(tape, &batch[k], &[flip.1]));
    });
    let cone_pass = probe_passes(tr, "knowledge.tape.cone_batch_pass", budget, || {
        ev.differentials_cone_batch(tape, &batch[0], &cone);
    });
    let scalar = [weights, flipped];
    ev.differentials(tape, &scalar[0]);
    let mut k = 0;
    let diff_delta = probe_passes(tr, "knowledge.tape.diff_delta_pass", budget, || {
        k ^= 1;
        std::hint::black_box(ev.differentials_delta(tape, &scalar[k], &[flip.1]));
    });
    vec![
        ("knowledge.tape.batch_full_pass_us", full * 1e6),
        ("knowledge.tape.batch_delta_pass_us", delta * 1e6),
        ("knowledge.tape.cone_batch_pass_us", cone_pass * 1e6),
        ("knowledge.tape.diff_delta_pass_us", diff_delta * 1e6),
    ]
}

/// Bytes one batched upward pass at the engine's batch width moves, from
/// the tape's size and lane layout: the tape read once, plus one lane-block
/// row per op written and one per edge read. Computed, not measured.
pub fn computed_bytes_per_pass(art: &KcSimulator) -> f64 {
    let tape = art.tape();
    let blocks = DEFAULT_BATCH.div_ceil(LANE_WIDTH);
    let block_bytes = std::mem::size_of::<qkc::knowledge::LaneBlock>();
    (tape.size_bytes() + (tape.num_ops() + tape.num_edges()) * blocks * block_bytes) as f64
}

/// A Gibbs chain on `art` at `params` outside any op, as a probe of the
/// sampler on workloads whose ops never sample.
pub fn gibbs_probe(
    tr: &mut Tracer,
    art: &KcSimulator,
    params: &ParamMap,
    seed: u64,
    n: &mut Counters,
) {
    let bound = art.bind(params).expect("bound point");
    let mut sampler = tr.span("knowledge.gibbs.warmup", |_| {
        bound.sampler(&GibbsOptions {
            warmup: GIBBS_WARMUP,
            thin: GIBBS_THIN,
            seed,
            ..Default::default()
        })
    });
    tr.span("knowledge.gibbs.sample", |_| {
        std::hint::black_box(sampler.sample_outputs(SHOTS, GIBBS_THIN));
    });
    n.acceptance.push(sampler.acceptance_rate());
}

/// Aggregates of the spans: total self seconds and count per name, over
/// op spans or probe spans.
#[derive(Debug, Default)]
pub struct Totals {
    pub by_name: BTreeMap<&'static str, (f64, usize)>,
}

impl Totals {
    pub fn of(tr: &Tracer, keep: impl Fn(&Span) -> bool) -> Self {
        let mut t = Self::default();
        for (s, own) in tr.spans.iter().zip(tr.self_times()) {
            if keep(s) {
                let e = t.by_name.entry(s.name).or_default();
                e.0 += own;
                e.1 += 1;
            }
        }
        t
    }

    pub fn secs(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.0)
    }

    pub fn count(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, |e| e.1)
    }

    /// Mean self seconds per span of `name` (NaN when there is none).
    pub fn mean(&self, name: &str) -> f64 {
        self.secs(name) / self.count(name) as f64
    }
}

/// Seeds a probe chain from the workload seed.
pub fn probe_seed(w: &Workload) -> u64 {
    Rng::new(w.seed, 7 << 20).next_u64()
}

/// Bitwise comparison of replayed values with the engine's outputs; a
/// sampling op draws a different chain in the replay, so it is skipped.
pub fn replay_matches(w: &Workload, replayed: &[f64], engine_out: &Output) -> bool {
    w.kind == Kind::NoisySample
        || w.kind == Kind::NoisyCompile
        || replayed
            .iter()
            .map(|v| v.to_bits())
            .eq(engine_out.values.iter().map(|v| v.to_bits()))
}
