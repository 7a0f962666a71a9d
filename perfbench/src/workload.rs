//! The four seeded workloads: their inputs, one op through the public
//! `Engine` facade, and the correctness checks run outside the timed
//! region.

use crate::util::{Digest, Rng};
use qkc::circuit::{Circuit, NoiseChannel, ParamMap};
use qkc::densitymatrix::DensityMatrixSimulator;
use qkc::engine::{BackendKind, Engine, EngineError, EngineOptions, GradientSpec, SweepSpec};
use qkc::statevector::StateVectorSimulator;
use qkc::workloads::{Graph, QaoaMaxCut, VqeIsing};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Shots per sampling op.
pub const SHOTS: usize = 1000;
/// Depolarizing probability after every gate on the noisy workloads.
pub const NOISE: f64 = 0.005;
/// Distinct noisy structures one `noisy_compile` pass compiles. Odd, so
/// the median op of whole passes is one structure's compile; and sized so
/// a pass takes about two thirds of a 20 s run on a 2-core host, so runs
/// end after two passes even when the host's speed drifts by a third —
/// a third pass would move `op_ms_tail` to a higher percentile.
pub const POOL: usize = 13;
/// Parameter points one `noisy_sample` run cycles through.
const SAMPLE_POINTS: usize = 4;
/// Points per `vqe_gradient` op (each on both measurement circuits).
const GRADIENT_POINTS: usize = 8;
/// `qaoa_sweep` point counts come in blocks of this many ops, one per
/// stratum of 1..=64, so every block has the same size mix.
const SWEEP_STRATA: usize = 16;
/// State-vector trajectories behind each noisy reference value.
const TRAJECTORIES: usize = 150;
/// Distance, in cut units, beyond which one op's 1000-shot sample-mean
/// cut counts as a chain that did not mix. The Gibbs chain is strongly
/// autocorrelated: a mixing chain's mean scatters with a standard
/// deviation of 0.2-0.9 cut units on these workloads, but now and then a
/// chain stays in one mode of a multimodal output distribution for all
/// of its shots (e.g. a mean of 0.48 against an exact 4.53 on
/// `noisy_compile`). Such chains are counted and printed, not failed:
/// the estimator is checked across independent chains, for bias.
const UNMIXED_DISTANCE: f64 = 2.5;

/// Seed streams: each input family draws from its own stream, so adding
/// draws to one never shifts another.
mod stream {
    pub const ORDER: u64 = 1 << 20;
    pub const SIZE: u64 = 2 << 20;
    pub const POINT: u64 = 3 << 20;
    pub const WARMUP: u64 = 4 << 20;
    pub const SHOT: u64 = 5 << 20;
    pub const REFERENCE: u64 = 6 << 20;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    QaoaSweep,
    VqeGradient,
    NoisySample,
    NoisyCompile,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::QaoaSweep,
        Kind::VqeGradient,
        Kind::NoisySample,
        Kind::NoisyCompile,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::QaoaSweep => "qaoa_sweep",
            Kind::VqeGradient => "vqe_gradient",
            Kind::NoisySample => "noisy_sample",
            Kind::NoisyCompile => "noisy_compile",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// What one unit of `work_per_s` is.
    pub fn work_unit(self) -> &'static str {
        match self {
            Kind::QaoaSweep => "points",
            Kind::VqeGradient => "gradients",
            Kind::NoisySample => "shots",
            Kind::NoisyCompile => "compiles",
        }
    }
}

/// One op's input.
#[derive(Debug, Clone)]
pub enum Op {
    /// `Engine::sweep` of the exact expected cut over `points`.
    Sweep { points: Vec<ParamMap> },
    /// `Engine::gradient_sweep` over `points`, on the Z-basis circuit with
    /// the ZZ term and on the X-basis circuit with the field term.
    Gradient { points: Vec<ParamMap> },
    /// `Engine::sample` of [`SHOTS`] shots of `circuits[circuit]`.
    Sample {
        circuit: usize,
        /// Which of `noisy_sample`'s parameter points `params` is.
        point: Option<usize>,
        params: ParamMap,
        seed: u64,
    },
}

/// One op's result: the values the checks read, and a digest of every
/// output bit (values and raw samples).
#[derive(Debug, Clone)]
pub struct Output {
    pub values: Vec<f64>,
    pub digest: u64,
    /// The op returned well-formed output: one value per point, or
    /// exactly [`SHOTS`] basis states of the circuit's width.
    pub well_formed: bool,
}

/// The generated inputs of one workload at one seed.
#[derive(Debug)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    /// Circuits ops run on. `noisy_compile`: the [`POOL`] structures, then
    /// the warm-up structure; `vqe_gradient`: the Z- then X-basis circuit.
    pub circuits: Vec<Circuit>,
    /// The Max-Cut instance behind each QAOA circuit (cut observable).
    pub qaoa: Vec<QaoaMaxCut>,
    pub vqe: Option<VqeIsing>,
    /// `noisy_sample`'s parameter points.
    points: Vec<ParamMap>,
}

/// A noisy QAOA p=1 instance: depolarizing noise after every gate.
fn noisy(q: &QaoaMaxCut) -> Circuit {
    q.circuit()
        .with_noise_after_each_gate(&NoiseChannel::depolarizing(NOISE))
}

fn qaoa_point(q: &QaoaMaxCut, rng: &mut Rng) -> ParamMap {
    let gamma = rng.uniform(0.0, std::f64::consts::PI);
    let beta = rng.uniform(0.0, std::f64::consts::FRAC_PI_2);
    q.params(&[gamma], &[beta])
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Self {
        let mut w = Self {
            kind,
            seed,
            circuits: Vec::new(),
            qaoa: Vec::new(),
            vqe: None,
            points: Vec::new(),
        };
        match kind {
            Kind::QaoaSweep => {
                // One fixed graph (graph seed 0): across 12-vertex 3-regular
                // graphs the compiled artifact, and with it the cost of a
                // point, varies more than threefold, which would swamp any
                // change between runs of different workload seeds. The
                // workload seed draws the points and the op sizes.
                let q = QaoaMaxCut::new(Graph::random_regular(12, 3, 0), 1);
                w.circuits.push(q.circuit());
                w.qaoa.push(q);
            }
            Kind::VqeGradient => {
                let v = VqeIsing::new(3, 3, 2);
                w.circuits = vec![v.circuit(), v.circuit_x_basis()];
                w.vqe = Some(v);
            }
            Kind::NoisySample => {
                let q = QaoaMaxCut::new(Graph::cycle(12), 1);
                w.circuits.push(noisy(&q));
                let mut rng = Rng::new(seed, stream::POINT);
                w.points = (0..SAMPLE_POINTS)
                    .map(|_| qaoa_point(&q, &mut rng))
                    .collect();
                w.qaoa.push(q);
            }
            Kind::NoisyCompile => {
                // The first POOL + 1 distinct structures among the 6-vertex
                // 3-regular graphs of graph seeds 0, 1, 2, ...: a fixed set,
                // so every run compiles the same work and the seed orders
                // the stream and draws its parameters and shots. The last
                // one is the warm-up structure, never in the stream.
                let mut seen = std::collections::HashSet::new();
                for graph_seed in 0.. {
                    let q = QaoaMaxCut::new(Graph::random_regular(6, 3, graph_seed), 1);
                    let c = noisy(&q);
                    if seen.insert(c.structural_hash()) {
                        w.circuits.push(c);
                        w.qaoa.push(q);
                        if w.circuits.len() == POOL + 1 {
                            break;
                        }
                    }
                }
            }
        }
        w
    }

    /// Engine options for `threads` workers. The planner sends noisy
    /// circuits of at most 10 qubits to the density matrix, so
    /// `noisy_compile` forces the knowledge-compilation backend.
    pub fn engine_options(&self, threads: usize) -> EngineOptions {
        let options = EngineOptions::default().with_threads(threads);
        match self.kind {
            Kind::NoisyCompile => options.with_backend(BackendKind::KnowledgeCompilation),
            _ => options,
        }
    }

    /// Ops per engine lifetime: `noisy_compile` starts every pass over its
    /// pool on a fresh engine, so every op is a cache miss.
    pub fn pass_len(&self) -> Option<usize> {
        (self.kind == Kind::NoisyCompile).then_some(POOL)
    }

    /// Ops per balanced block of the stream: every block has the same mix
    /// of op sizes, points or structures. Runs end on a block boundary, and
    /// `work_per_s` is the median over blocks.
    pub fn block_len(&self) -> usize {
        match self.kind {
            Kind::QaoaSweep => SWEEP_STRATA,
            Kind::VqeGradient => 1,
            Kind::NoisySample => SAMPLE_POINTS,
            Kind::NoisyCompile => POOL,
        }
    }

    /// The `i`-th op of the stream.
    pub fn op(&self, i: usize) -> Op {
        let seed = self.seed;
        let i64 = i as u64;
        match self.kind {
            Kind::QaoaSweep => {
                let block = (i / SWEEP_STRATA) as u64;
                let strata = Rng::new(seed, stream::ORDER + block).permutation(SWEEP_STRATA);
                let count =
                    4 * strata[i % SWEEP_STRATA] + 1 + Rng::new(seed, stream::SIZE + i64).below(4);
                let mut rng = Rng::new(seed, stream::POINT + i64);
                let q = &self.qaoa[0];
                Op::Sweep {
                    points: (0..count).map(|_| qaoa_point(q, &mut rng)).collect(),
                }
            }
            Kind::VqeGradient => Op::Gradient {
                points: self.vqe_points(&mut Rng::new(seed, stream::POINT + i64)),
            },
            Kind::NoisySample => {
                let block = (i / SAMPLE_POINTS) as u64;
                let order = Rng::new(seed, stream::ORDER + block).permutation(SAMPLE_POINTS);
                let point = order[i % SAMPLE_POINTS];
                Op::Sample {
                    circuit: 0,
                    point: Some(point),
                    params: self.points[point].clone(),
                    seed: Rng::new(seed, stream::SHOT + i64).next_u64(),
                }
            }
            Kind::NoisyCompile => {
                let pass = (i / POOL) as u64;
                let order = Rng::new(seed, stream::ORDER + pass).permutation(POOL);
                let circuit = order[i % POOL];
                Op::Sample {
                    circuit,
                    point: None,
                    params: qaoa_point(
                        &self.qaoa[circuit],
                        &mut Rng::new(seed, stream::POINT + i64),
                    ),
                    seed: Rng::new(seed, stream::SHOT + i64).next_u64(),
                }
            }
        }
    }

    /// The op every set-up ends with: the first compile plus one op.
    pub fn warmup_op(&self) -> Op {
        let mut rng = Rng::new(self.seed, stream::WARMUP);
        match self.kind {
            Kind::QaoaSweep => Op::Sweep {
                points: (0..16)
                    .map(|_| qaoa_point(&self.qaoa[0], &mut rng))
                    .collect(),
            },
            Kind::VqeGradient => Op::Gradient {
                points: self.vqe_points(&mut rng),
            },
            Kind::NoisySample | Kind::NoisyCompile => {
                let circuit = self.circuits.len() - 1;
                Op::Sample {
                    circuit,
                    point: None,
                    params: qaoa_point(&self.qaoa[circuit], &mut rng),
                    seed: rng.next_u64(),
                }
            }
        }
    }

    fn vqe_points(&self, rng: &mut Rng) -> Vec<ParamMap> {
        let v = self.vqe.as_ref().expect("vqe workload");
        (0..GRADIENT_POINTS)
            .map(|_| {
                let values: Vec<f64> = (0..v.num_params())
                    .map(|_| rng.uniform(-std::f64::consts::PI, std::f64::consts::PI))
                    .collect();
                v.params(&values)
            })
            .collect()
    }

    /// Units of completed work in one op.
    pub fn work(&self, op: &Op) -> usize {
        match (self.kind, op) {
            (_, Op::Sweep { points }) => points.len(),
            (_, Op::Gradient { points }) => 2 * points.len(),
            (Kind::NoisyCompile, Op::Sample { .. }) => 1,
            (_, Op::Sample { .. }) => SHOTS,
        }
    }

    /// The symbols gradients are taken with respect to (sorted).
    pub fn wrt(&self) -> Vec<String> {
        self.circuits[0].symbols().into_iter().collect()
    }

    /// The diagonal observable of `circuits[circuit]`.
    pub fn observable(&self, circuit: usize) -> Box<dyn Fn(usize) -> f64 + Sync + '_> {
        match (&self.vqe, circuit) {
            (Some(v), 0) => Box::new(v.zz_observable()),
            (Some(v), _) => Box::new(v.x_observable()),
            (None, c) => Box::new(self.qaoa[c].cut_observable()),
        }
    }

    /// Runs one op through the public engine facade.
    pub fn run(&self, engine: &Engine, op: &Op) -> Result<Output, EngineError> {
        let mut digest = Digest::default();
        let mut values = Vec::new();
        let well_formed = match op {
            Op::Sweep { points } => {
                let obs = self.observable(0);
                for p in engine.sweep(&self.circuits[0], points, &SweepSpec::expectation(&obs))? {
                    values.push(p.expectation.expect("an observable was requested"));
                }
                values.len() == points.len()
            }
            Op::Gradient { points } => {
                let wrt = self.wrt();
                for c in 0..2 {
                    let obs = self.observable(c);
                    let spec = GradientSpec::new(&obs).with_wrt(wrt.iter().cloned());
                    for p in engine.gradient_sweep(&self.circuits[c], points, &spec)? {
                        values.push(p.value);
                        values.extend_from_slice(&p.gradient);
                    }
                }
                values.len() == 2 * points.len() * (1 + wrt.len())
            }
            Op::Sample {
                circuit,
                params,
                seed,
                ..
            } => {
                let shots = engine.sample(&self.circuits[*circuit], params, SHOTS, *seed)?;
                values.push(self.mean_cut(*circuit, &shots));
                for &s in &shots {
                    digest.word(s as u64);
                }
                let states = 1usize << self.circuits[*circuit].num_qubits();
                shots.len() == SHOTS && shots.iter().all(|&s| s < states)
            }
        };
        for &v in &values {
            digest.f64(v);
        }
        Ok(Output {
            values,
            digest: digest.0,
            well_formed,
        })
    }

    pub fn mean_cut(&self, circuit: usize, shots: &[usize]) -> f64 {
        -self.qaoa[circuit].objective_from_samples(shots)
    }
}

/// The verdict of the correctness checks on one run's outputs.
#[derive(Debug, Default)]
pub struct Checked {
    /// Per op: passed every check.
    pub ok: Vec<bool>,
    /// Human-readable findings (one line each).
    pub notes: Vec<String>,
    /// Sampling ops whose chain did not mix (see [`UNMIXED_DISTANCE`]).
    pub unmixed: Vec<String>,
}

impl Checked {
    fn fail(&mut self, op: usize, note: String) {
        if self.ok[op] {
            self.notes.push(note);
        }
        self.ok[op] = false;
    }

    /// Judges independent chains' sample means against `reference`
    /// (standard error `ref_stderr`): their average must lie within
    /// [`mean_tolerance`] — a bias check, failed as a whole. Chains
    /// farther than [`UNMIXED_DISTANCE`] from the reference are listed as
    /// unmixed.
    fn judge_means(
        &mut self,
        samples: &[(usize, f64)],
        reference: f64,
        ref_stderr: f64,
        what: &str,
    ) {
        for &(i, m) in samples {
            if (m - reference).abs() > UNMIXED_DISTANCE {
                self.unmixed
                    .push(format!("op {i}: {what} {m}, reference {reference}"));
            }
        }
        let k = samples.len() as f64;
        let avg = samples.iter().map(|s| s.1).sum::<f64>() / k;
        let var = samples.iter().map(|s| (s.1 - avg).powi(2)).sum::<f64>() / (k - 1.0).max(1.0);
        let tol = mean_tolerance(samples.len(), var.sqrt(), ref_stderr);
        if (avg - reference).abs() > tol {
            self.notes.push(format!(
                "{what}: mean {avg} over {} chains, reference {reference}, tolerance {tol}",
                samples.len()
            ));
            for &(i, _) in samples {
                self.ok[i] = false;
            }
        }
    }
}

/// Exact expectation of a diagonal observable under a pure state-vector
/// run.
fn sv_expectation(circuit: &Circuit, params: &ParamMap, obs: &dyn Fn(usize) -> f64) -> f64 {
    let probs = StateVectorSimulator::new()
        .probabilities(circuit, params)
        .expect("reference state-vector run");
    probs.iter().enumerate().map(|(x, p)| p * obs(x)).sum()
}

impl Workload {
    /// Checks every op's output against an independent backend. `outs[i]`
    /// is `None` for an op that returned an error (already a failure).
    pub fn check(&self, ops: &[Op], outs: &[Option<Output>]) -> Checked {
        let mut ch = Checked {
            ok: outs
                .iter()
                .map(|o| o.as_ref().is_some_and(|o| o.well_formed))
                .collect(),
            ..Default::default()
        };
        for (i, out) in outs.iter().enumerate() {
            if out.as_ref().is_some_and(|o| !o.well_formed) {
                ch.notes.push(format!("op {i}: malformed output"));
            }
        }
        match self.kind {
            Kind::QaoaSweep => self.check_sweep(ops, outs, &mut ch),
            Kind::VqeGradient => self.check_gradient(ops, outs, &mut ch),
            Kind::NoisySample => self.check_noisy_sample(ops, outs, &mut ch),
            Kind::NoisyCompile => self.check_noisy_compile(ops, outs, &mut ch),
        }
        ch
    }

    /// Every point against the state vector, to within 1e-9.
    fn check_sweep(&self, ops: &[Op], outs: &[Option<Output>], ch: &mut Checked) {
        let obs = self.observable(0);
        for (i, (op, out)) in ops.iter().zip(outs).enumerate() {
            let (Op::Sweep { points }, Some(out)) = (op, out) else {
                continue;
            };
            for (j, (p, &kc)) in points.iter().zip(&out.values).enumerate() {
                let sv = sv_expectation(&self.circuits[0], p, &obs);
                if (kc - sv).abs() > 1e-9 {
                    ch.fail(
                        i,
                        format!("op {i} point {j}: engine {kc} vs state vector {sv}"),
                    );
                }
            }
        }
    }

    /// Every value against the state vector (1e-9); the gradient at each
    /// op's first point against central finite differences on the state
    /// vector (1e-6).
    fn check_gradient(&self, ops: &[Op], outs: &[Option<Output>], ch: &mut Checked) {
        const H: f64 = 1e-5;
        let wrt = self.wrt();
        for (i, (op, out)) in ops.iter().zip(outs).enumerate() {
            let (Op::Gradient { points }, Some(out)) = (op, out) else {
                continue;
            };
            let stride = 1 + wrt.len();
            for c in 0..2 {
                let obs = self.observable(c);
                let circuit = &self.circuits[c];
                for (j, p) in points.iter().enumerate() {
                    let row = &out.values[(c * points.len() + j) * stride..][..stride];
                    let sv = sv_expectation(circuit, p, &obs);
                    if (row[0] - sv).abs() > 1e-9 {
                        ch.fail(
                            i,
                            format!(
                                "op {i} circuit {c} point {j}: value {} vs state vector {sv}",
                                row[0]
                            ),
                        );
                    }
                    if j > 0 {
                        continue;
                    }
                    for (s, sym) in wrt.iter().enumerate() {
                        let at = |delta: f64| {
                            let mut q = p.clone();
                            q.bind(sym.clone(), p.get(sym).expect("bound symbol") + delta);
                            sv_expectation(circuit, &q, &obs)
                        };
                        let fd = (at(H) - at(-H)) / (2.0 * H);
                        if (row[1 + s] - fd).abs() > 1e-6 {
                            ch.fail(
                                i,
                                format!(
                                    "op {i} circuit {c} d/d{sym}: {} vs finite difference {fd}",
                                    row[1 + s]
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Reference expected cut of a noisy circuit from state-vector
    /// trajectories: the mean over trajectories of each final state's
    /// exact expected cut, and its standard error.
    fn trajectory_reference(
        &self,
        circuit: usize,
        params: &ParamMap,
        stream_id: u64,
    ) -> (f64, f64) {
        let sim = StateVectorSimulator::new();
        let mut rng =
            StdRng::seed_from_u64(Rng::new(self.seed, stream::REFERENCE + stream_id).next_u64());
        let graph = self.qaoa[circuit].graph();
        let cuts: Vec<f64> = (0..TRAJECTORIES)
            .map(|_| {
                let t = sim
                    .run_trajectory(&self.circuits[circuit], params, &mut rng)
                    .expect("reference trajectory");
                t.state
                    .probabilities()
                    .iter()
                    .enumerate()
                    .map(|(x, p)| p * graph.cut_value(x) as f64)
                    .sum()
            })
            .collect();
        let n = cuts.len() as f64;
        let mean = cuts.iter().sum::<f64>() / n;
        let var = cuts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, (var / n).sqrt())
    }

    /// Sample-mean cuts against state-vector trajectories, per parameter
    /// point (see [`Checked::judge_means`]).
    fn check_noisy_sample(&self, ops: &[Op], outs: &[Option<Output>], ch: &mut Checked) {
        let mut per_point: Vec<Vec<(usize, f64)>> = vec![Vec::new(); SAMPLE_POINTS];
        for (i, (op, out)) in ops.iter().zip(outs).enumerate() {
            if let (
                Op::Sample {
                    point: Some(point), ..
                },
                Some(out),
            ) = (op, out)
            {
                per_point[*point].push((i, out.values[0]));
            }
        }
        for (point, samples) in per_point.iter().enumerate() {
            if samples.is_empty() {
                continue;
            }
            let (reference, stderr) =
                self.trajectory_reference(0, &self.points[point], point as u64);
            ch.judge_means(
                samples,
                reference,
                stderr,
                &format!("sample-mean cut at point {point}"),
            );
        }
    }

    /// `Engine::verify` findings are checked as the run goes (the artifact
    /// lives in that pass's engine); here, each sample-mean cut against
    /// the density matrix's exact expected cut.
    fn check_noisy_compile(&self, ops: &[Op], outs: &[Option<Output>], ch: &mut Checked) {
        let dm = DensityMatrixSimulator::new();
        let mut diffs = Vec::new();
        for (i, (op, out)) in ops.iter().zip(outs).enumerate() {
            let (
                Op::Sample {
                    circuit, params, ..
                },
                Some(out),
            ) = (op, out)
            else {
                continue;
            };
            let probs = dm
                .probabilities(&self.circuits[*circuit], params)
                .expect("reference density-matrix run");
            let exact = self.qaoa[*circuit].exact_expected_cut(&probs);
            diffs.push((i, out.values[0] - exact));
        }
        ch.judge_means(&diffs, 0.0, 0.0, "sample-mean cut minus exact expected cut");
    }
}

impl Workload {
    /// Seconds the reference backends take on the first ops' inputs: the
    /// state vector per point (trajectories on noisy circuits), and the
    /// density matrix per instance where it fits in memory (at most 10
    /// qubits).
    pub fn reference_times(&self, ops: &[Op]) -> (f64, Option<f64>) {
        let time = |f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        };
        match &ops[0] {
            Op::Sweep { points } | Op::Gradient { points } => {
                let obs = self.observable(0);
                let sv = time(&mut || {
                    for p in points {
                        std::hint::black_box(sv_expectation(&self.circuits[0], p, &obs));
                    }
                }) / points.len() as f64;
                let dm = (self.circuits[0].num_qubits() <= 10).then(|| {
                    time(&mut || {
                        std::hint::black_box(
                            DensityMatrixSimulator::new()
                                .probabilities(&self.circuits[0], &points[0])
                                .expect("reference density-matrix run"),
                        );
                    })
                });
                (sv, dm)
            }
            Op::Sample {
                circuit, params, ..
            } => {
                let sv = time(&mut || {
                    std::hint::black_box(self.trajectory_reference(*circuit, params, u64::MAX));
                });
                let dm = (self.circuits[*circuit].num_qubits() <= 10).then(|| {
                    time(&mut || {
                        std::hint::black_box(
                            DensityMatrixSimulator::new()
                                .probabilities(&self.circuits[*circuit], params)
                                .expect("reference density-matrix run"),
                        );
                    })
                });
                (sv, dm)
            }
        }
    }
}

/// Tolerance on the average of `k` independent chains' sample means: six
/// standard errors, from the chains' own scatter `sd` (at least 0.25 cut
/// units, so a handful of agreeing chains cannot shrink it to nothing)
/// plus the reference's own error.
fn mean_tolerance(k: usize, sd: f64, ref_stderr: f64) -> f64 {
    6.0 * (sd.max(0.25).powi(2) / k as f64 + ref_stderr.powi(2)).sqrt()
}
