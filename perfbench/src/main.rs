//! End-to-end and per-layer benchmark of the `qkc` engine.
//!
//! ```text
//! qkc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//! ```
//!
//! Workloads (see `workload.rs`): `qaoa_sweep`, `vqe_gradient`,
//! `noisy_sample`, `noisy_compile`. Each is a closed loop: one client
//! sends its next op through the public `Engine` facade when the previous
//! one returns; the engine runs `nproc` worker threads.
//!
//! `--trace 0` times the ops untraced and prints the end-to-end metrics.
//! `--trace 1` replays a fixed prefix of the same op stream as calls into
//! each layer's public functions (see `trace.rs`) and prints the per-layer
//! metrics. Both check every output outside the timed region and exit
//! non-zero on any failure. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod trace;
mod util;
mod workload;

use crate::trace::{Counters, Totals, Tracer, PROBE, SETUP};
use crate::util::{median, nproc, quantile, tail_percentile, Digest, Json};
use crate::workload::{Kind, Op, Output, Workload, POOL};
use qkc::engine::Engine;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let pos = argv.iter().position(|a| a == flag)?;
        argv.get(pos + 1).cloned()
    };
    let name = get("--workload").ok_or("missing --workload")?;
    let kind = Kind::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let num = |flag: &str, v: Option<String>| -> Result<f64, String> {
        v.ok_or(format!("missing {flag}"))?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = num("--seconds", get("--seconds"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match get("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other:?}: expected 0 or 1")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        trace_file: get("--trace-file"),
    })
}

/// A metric row: name, value, unit.
type Row = (&'static str, f64, &'static str);

/// What a run reports.
#[derive(Debug, Default)]
struct Report {
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
    meta: Vec<(&'static str, Json)>,
    /// Sampling ops whose chain did not mix: reported, not failed.
    unmixed: Vec<String>,
    /// Rows of the final JSON line.
    metrics: Vec<Row>,
    /// Rows printed for reading only (named throughput, rows this
    /// workload alone has).
    extra: Vec<(String, f64, String)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let host = [
        ("workload", Json::str(args.kind.name())),
        ("seed", Json::Int(args.seed)),
        (
            "mode",
            Json::str(if args.trace { "traced" } else { "untraced" }),
        ),
        ("nproc", Json::Int(nproc() as u64)),
        ("threads", Json::Int(nproc() as u64)),
        ("cpu", Json::str(util::cpu_model())),
        (
            "rustc",
            Json::str(std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        ),
        (
            "commit",
            Json::str(std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("client", Json::str("closed loop, 1 client")),
    ];
    let unmixed = [("unmixed_chains", Json::Int(report.unmixed.len() as u64))];
    let meta = Json::obj(
        host.into_iter()
            .chain(report.meta.iter().cloned())
            .chain(unmixed),
    );
    println!("meta {}", meta.render());
    for (name, value, unit) in &report.extra {
        println!("{name} = {value} {unit}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    for note in &report.unmixed {
        println!("UNMIXED {note}");
    }
    for note in &report.notes {
        println!("FAIL {note}");
    }
    let correct = report.failed == 0 && report.attempted > 0;
    let metrics = Json::obj(report.metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }));
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(report.attempted as u64)),
        ("failed", Json::Int(report.failed as u64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Ops whose outputs form the run's digest and are re-run on a
/// one-thread engine to check thread-count determinism.
const DIGEST_OPS: usize = 2;

/// Re-runs the first ops on a one-thread engine: outputs must be
/// bit-identical to the `nproc`-thread run. Returns the digest of those
/// ops' outputs and marks mismatches as failures.
fn determinism(
    w: &Workload,
    ops: &[Op],
    outs: &[Option<Output>],
    ok: &mut [bool],
    notes: &mut Vec<String>,
) -> u64 {
    let engine = Engine::with_options(w.engine_options(1));
    let mut digest = Digest::default();
    for (i, (op, out)) in ops.iter().zip(outs).take(DIGEST_OPS).enumerate() {
        let Some(out) = out else { continue };
        digest.word(out.digest);
        let same = w.run(&engine, op).is_ok_and(|one| one.digest == out.digest);
        if !same {
            ok[i] = false;
            notes.push(format!(
                "op {i}: output differs between 1 and {} threads",
                nproc()
            ));
        }
    }
    digest.0
}

/// After a `noisy_compile` pass, outside the timed region: every op
/// compiled a distinct structure (cache misses equal ops), and the
/// certifying verifier finds no error in any artifact.
fn close_pass(
    w: &Workload,
    engine: &Engine,
    first: usize,
    ops: &[Op],
    ok: &mut [bool],
    notes: &mut Vec<String>,
) {
    let mut hashes: Vec<u64> = ops
        .iter()
        .map(|op| match op {
            Op::Sample { circuit, .. } => w.circuits[*circuit].structural_hash(),
            _ => unreachable!("noisy_compile ops sample"),
        })
        .collect();
    hashes.sort_unstable();
    hashes.dedup();
    let misses = engine.cache().misses() as usize;
    if hashes.len() != ops.len() || misses != ops.len() {
        notes.push(format!(
            "pass at op {first}: {} ops, {} distinct structures, {misses} cache misses",
            ops.len(),
            hashes.len()
        ));
        ok[first..first + ops.len()]
            .iter_mut()
            .for_each(|o| *o = false);
    }
    for (j, op) in ops.iter().enumerate() {
        let Op::Sample {
            circuit, params, ..
        } = op
        else {
            continue;
        };
        let clean = engine
            .verify(&w.circuits[*circuit], params)
            .is_ok_and(|r| r.is_clean());
        if !clean {
            ok[first + j] = false;
            notes.push(format!(
                "op {}: Engine::verify reported an error finding",
                first + j
            ));
        }
    }
}

fn untraced(args: &Args) -> Report {
    let threads = nproc();
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let w = Workload::new(args.kind, args.seed);
        let engine = Engine::with_options(w.engine_options(threads));
        let warm = w.run(&engine, &w.warmup_op());
        setups.push(t.elapsed().as_secs_f64());
        if let Err(e) = warm {
            report.attempted = 1;
            report.failed = 1;
            report.notes.push(format!("set-up op failed: {e}"));
            return report;
        }
        state = Some((w, engine));
    }
    let (w, mut engine) = state.expect("at least one set-up");

    let (mut ops, mut outs, mut lat) = (Vec::new(), Vec::new(), Vec::new());
    let mut pass_ok = Vec::new();
    let mut notes = Vec::new();
    let (mut work, mut measured) = (0usize, 0.0f64);
    let wall = Instant::now();
    let hard_stop = 3.0 * args.seconds + 30.0;
    loop {
        let i = ops.len();
        if let Some(p) = w.pass_len() {
            if i % p == 0 {
                if i > 0 {
                    close_pass(&w, &engine, i - p, &ops[i - p..], &mut pass_ok, &mut notes);
                }
                engine = Engine::with_options(w.engine_options(threads));
            }
        }
        let op = w.op(i);
        let t = Instant::now();
        let r = w.run(&engine, &op);
        let dt = t.elapsed().as_secs_f64();
        measured += dt;
        lat.push(dt);
        pass_ok.push(true);
        match r {
            Ok(out) => {
                work += w.work(&op);
                outs.push(Some(out));
            }
            Err(e) => {
                notes.push(format!("op {i} failed: {e}"));
                outs.push(None);
            }
        }
        ops.push(op);
        let at_boundary = ops.len() % w.block_len() == 0;
        let done = measured >= args.seconds && ops.len() >= DIGEST_OPS && at_boundary;
        if done || wall.elapsed().as_secs_f64() > hard_stop {
            break;
        }
    }
    if let Some(p) = w.pass_len() {
        let first = (ops.len() - 1) / p * p;
        close_pass(&w, &engine, first, &ops[first..], &mut pass_ok, &mut notes);
    }
    drop(engine);
    // Peak memory of the workload itself, before any reference backend runs.
    let rss = util::peak_rss_mib();

    let mut checked = w.check(&ops, &outs);
    for (o, p) in checked.ok.iter_mut().zip(&pass_ok) {
        *o &= *p;
    }
    let digest = determinism(&w, &ops, &outs, &mut checked.ok, &mut notes);
    notes.append(&mut checked.notes);
    report.unmixed = checked.unmixed;

    let n = ops.len();
    let failed = checked.ok.iter().filter(|o| !**o).count();
    let tail = tail_percentile(n);
    // Median over balanced blocks: a burst of host noise moves the blocks
    // it hits, not the median.
    let block_rates: Vec<f64> = ops
        .chunks(w.block_len())
        .zip(lat.chunks(w.block_len()))
        .zip(outs.chunks(w.block_len()))
        .map(|((o, l), r)| {
            let done: usize = o
                .iter()
                .zip(r)
                .filter(|(_, r)| r.is_some())
                .map(|(o, _)| w.work(o))
                .sum();
            done as f64 / l.iter().sum::<f64>()
        })
        .collect();
    let work_per_s = median(&block_rates);
    report.attempted = n;
    report.failed = failed;
    report.notes = notes;
    report.meta = vec![
        ("ops", Json::Int(n as u64)),
        ("work_unit", Json::str(w.kind.work_unit())),
        ("work", Json::Int(work as u64)),
        ("blocks", Json::Int(block_rates.len() as u64)),
        ("measured_s", Json::Num(measured)),
        ("op_ms_tail_percentile", Json::Num(tail)),
        ("failed_op_ratio", Json::Num(failed as f64 / n as f64)),
        ("digest", Json::str(format!("{digest:016x}"))),
        (
            "setup_s_samples",
            Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect()),
        ),
    ];
    report.extra = vec![
        (
            format!("{}_per_s", w.kind.work_unit()),
            work_per_s,
            format!("{}/s", w.kind.work_unit()),
        ),
        (
            "failed_op_ratio".into(),
            failed as f64 / n as f64,
            format!("({failed}/{n})"),
        ),
        (
            "op_ms_tail_percentile".into(),
            tail,
            format!("% over {n} ops"),
        ),
    ];
    report.metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("work_per_s", work_per_s, "1/s"),
        ("op_ms_p50", median(&lat) * 1e3, "ms"),
        ("op_ms_tail", quantile(&lat, tail / 100.0) * 1e3, "ms"),
        ("peak_rss_mib", rss, "MiB"),
    ];
    report
}

/// Ops the traced run replays: one balanced block of the stream (one
/// pass of the pool on `noisy_compile`).
fn traced_ops(kind: Kind) -> usize {
    match kind {
        Kind::QaoaSweep | Kind::NoisySample => 16,
        Kind::VqeGradient => 8,
        Kind::NoisyCompile => POOL,
    }
}

/// Untraced ops on a fresh `threads`-worker engine after one warm-up op:
/// per-op seconds and outputs.
fn timed_pass(w: &Workload, threads: usize, ops: &[Op]) -> (Vec<f64>, Vec<Option<Output>>) {
    let engine = Engine::with_options(w.engine_options(threads));
    let _ = w.run(&engine, &w.warmup_op());
    ops.iter()
        .map(|op| {
            let t = Instant::now();
            let r = w.run(&engine, op).ok();
            (t.elapsed().as_secs_f64(), r)
        })
        .unzip()
}

fn traced(args: &Args) -> Report {
    let w = Workload::new(args.kind, args.seed);
    let ops: Vec<Op> = (0..traced_ops(w.kind)).map(|i| w.op(i)).collect();
    let (lat_n, outs) = timed_pass(&w, nproc(), &ops);
    let (lat_1, outs_1) = timed_pass(&w, 1, &ops);

    // The replay on a fresh engine: the set-up op (first compile), then
    // the same ops, on one thread.
    let mut tr = Tracer::new();
    let mut n = Counters::default();
    let engine = Engine::with_options(w.engine_options(1));
    tr.op(SETUP, |tr| {
        trace::replay(tr, &engine, &w, &w.warmup_op(), &mut n)
    });
    let replayed: Vec<Vec<f64>> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| tr.op(i as u64, |tr| trace::replay(tr, &engine, &w, op, &mut n)))
        .collect();

    // Probes, outside every op, on the first op's artifact and point.
    let (circuit, params) = match &ops[0] {
        Op::Sweep { points } | Op::Gradient { points } => (0, &points[0]),
        Op::Sample {
            circuit, params, ..
        } => (*circuit, params),
    };
    let art = engine
        .cache()
        .get_or_compile(&w.circuits[circuit], &engine.options().kc_options);
    let mut rows: Vec<Row> = trace::kernel_probes(&mut tr, &art, params)
        .into_iter()
        .map(|(name, us)| (name, us, "us"))
        .collect();
    rows.push((
        "knowledge.tape.computed_bytes_per_pass",
        trace::computed_bytes_per_pass(&art),
        "bytes",
    ));
    if matches!(w.kind, Kind::QaoaSweep | Kind::VqeGradient) {
        trace::gibbs_probe(&mut tr, &art, params, trace::probe_seed(&w), &mut n);
    }
    if w.kind == Kind::NoisyCompile {
        // Every op misses; time hits on the now-resident pool.
        for c in 0..POOL {
            tr.span("engine.cache.hit", |_| {
                engine
                    .cache()
                    .get_or_compile(&w.circuits[c], &engine.options().kc_options)
            });
        }
    }
    let resident = engine.cache().resident_bytes();
    drop(art);
    drop(engine);
    let (sv, dm) = w.reference_times(&ops);

    // Checks: the workload's own, 1 vs nproc threads, replay vs engine.
    let mut checked = w.check(&ops, &outs);
    let mut notes = std::mem::take(&mut checked.notes);
    for (i, ((a, b), r)) in outs.iter().zip(&outs_1).zip(&replayed).enumerate() {
        let agree = match (a, b) {
            (Some(a), Some(b)) if a.digest == b.digest => trace::replay_matches(&w, r, b),
            _ => false,
        };
        if !agree {
            checked.ok[i] = false;
            notes.push(format!(
                "op {i}: failed, differs between 1 and {} threads, or the layer replay differs",
                nproc()
            ));
        }
    }
    // Per op, the self times of its spans (the op span's own included)
    // must add up to the op's wall time.
    let self_times = tr.self_times();
    let mut worst = 0.0f64;
    for s in tr.spans.iter().filter(|s| s.name == "op") {
        let sum: f64 = tr
            .spans
            .iter()
            .zip(&self_times)
            .filter(|(t, _)| t.op == s.op)
            .map(|(_, own)| own)
            .sum();
        worst = worst.max((sum - (s.end - s.start)).abs());
    }
    if worst > 1e-9 {
        notes.push(format!(
            "layer self times miss the op wall time by {worst} s"
        ));
        checked.ok.iter_mut().for_each(|o| *o = false);
    }

    let untraced_1: f64 = lat_1.iter().sum();
    let mut extra = Vec::new();
    rows.extend(layer_rows(&tr, &n, resident, &mut extra));
    rows.extend([
        (
            "engine.sweep.parallel_efficiency",
            untraced_1 / (lat_n.iter().sum::<f64>() * nproc() as f64),
            "ratio",
        ),
        (
            "trace.overhead_ratio",
            traced_op_wall(&tr) / untraced_1,
            "ratio",
        ),
        ("ref.statevector_ms_per_point", sv * 1e3, "ms"),
    ]);
    if let Some(dm) = dm {
        extra.push((
            "ref.densitymatrix_ms_per_instance".into(),
            dm * 1e3,
            "ms".into(),
        ));
    }

    if let Some(path) = &args.trace_file {
        let row = |name: &str, value: f64, unit: &str| {
            Json::obj([
                ("name", Json::str(name)),
                ("value", Json::Num(value)),
                ("unit", Json::str(unit)),
            ])
        };
        let doc = Json::obj([
            ("workload", Json::str(w.kind.name())),
            ("seed", Json::Int(w.seed)),
            (
                "rows",
                Json::Arr(
                    rows.iter()
                        .map(|&(name, v, unit)| row(name, v, unit))
                        .chain(extra.iter().map(|(name, v, unit)| row(name, *v, unit)))
                        .collect(),
                ),
            ),
            ("spans", tr.to_json()),
        ]);
        if let Err(e) = std::fs::write(path, doc.render()) {
            notes.push(format!("writing {path}: {e}"));
            checked.ok.iter_mut().for_each(|o| *o = false);
        }
    }
    Report {
        attempted: ops.len(),
        failed: checked.ok.iter().filter(|o| !**o).count(),
        notes,
        unmixed: checked.unmixed,
        meta: vec![
            ("ops", Json::Int(ops.len() as u64)),
            ("compiles_traced", Json::Int(n.compiles.len() as u64)),
            ("spans", Json::Int(tr.spans.len() as u64)),
            ("untraced_nproc_s", Json::Num(lat_n.iter().sum())),
            ("untraced_1_thread_s", Json::Num(untraced_1)),
            ("reconciliation_error_s", Json::Num(worst)),
        ],
        metrics: rows,
        extra,
    }
}

/// Wall time of the replayed ops (the set-up op excluded).
fn traced_op_wall(tr: &Tracer) -> f64 {
    tr.spans
        .iter()
        .filter(|s| s.name == "op" && s.op != SETUP)
        .map(|s| s.end - s.start)
        .sum()
}

/// The per-layer rows read off the spans and the replay's counters.
/// Compile rows are means per compile in the traced run; counts are
/// totals over those compiles and repeat exactly for one seed. Rows only
/// some workloads' ops produce go to `extra`.
fn layer_rows(
    tr: &Tracer,
    n: &Counters,
    resident: usize,
    extra: &mut Vec<(String, f64, String)>,
) -> Vec<Row> {
    let in_ops = Totals::of(tr, |s| s.op != PROBE);
    let probes = Totals::of(tr, |s| s.op == PROBE);
    let replayed = Totals::of(tr, |s| s.op != PROBE && s.op != SETUP);
    let ms = |name: &str| in_ops.mean(name) * 1e3;
    let us = |name: &str| in_ops.mean(name) * 1e6;
    // Hits on `noisy_compile`, whose ops all miss, and the Gibbs chain on
    // the pure workloads, whose ops never sample, come from probes.
    let hit_us = if in_ops.count("engine.cache.hit") > 0 {
        us("engine.cache.hit")
    } else {
        probes.mean("engine.cache.hit") * 1e6
    };
    let gibbs = if in_ops.count("knowledge.gibbs.sample") > 0 {
        &in_ops
    } else {
        &probes
    };
    let total =
        |f: &dyn Fn(&qkc::kc::PipelineMetrics) -> f64| n.compiles.iter().map(f).sum::<f64>();
    let decisions = total(&|m| m.compile_stats.decisions as f64);
    let components = total(&|m| m.compile_stats.components as f64);
    let hits = total(&|m| m.compile_stats.cache_hits as f64);
    let search_s = total(&|m| m.phase_seconds.ddnnf_search);
    let steps =
        (gibbs.count("knowledge.gibbs.sample") * workload::SHOTS * trace::GIBBS_THIN) as f64;
    if in_ops.count("core.query.expectations") > 0 {
        extra.push((
            "core.query.ms_per_batch".into(),
            ms("core.query.expectations"),
            "ms".into(),
        ));
    }
    if in_ops.count("core.query.gradient") > 0 {
        extra.push((
            "core.query.gradient_ms".into(),
            ms("core.query.gradient"),
            "ms".into(),
        ));
    }
    vec![
        ("bayesnet.build_ms", ms("bayesnet.build"), "ms"),
        ("cnf.encode_ms", ms("cnf.encode"), "ms"),
        ("cnf.simplify_ms", ms("cnf.simplify"), "ms"),
        ("knowledge.order_ms", ms("knowledge.order"), "ms"),
        (
            "knowledge.compiler.search_ms",
            ms("knowledge.compiler.search"),
            "ms",
        ),
        ("knowledge.transform_ms", ms("knowledge.transform"), "ms"),
        ("knowledge.tape.lower_ms", ms("knowledge.tape.lower"), "ms"),
        (
            "core.pipeline.unattributed_ms",
            ms("core.pipeline.unattributed"),
            "ms",
        ),
        ("knowledge.compiler.decisions", decisions, "count"),
        ("knowledge.compiler.components", components, "count"),
        (
            "knowledge.compiler.cache_hit_ratio",
            hits / (hits + components),
            "ratio",
        ),
        (
            "knowledge.compiler.us_per_decision",
            search_s / decisions * 1e6,
            "us",
        ),
        ("knowledge.tape.ops", n.tape_ops as f64, "count"),
        (
            "knowledge.tape.bytes",
            total(&|m| m.ac_size_bytes as f64),
            "bytes",
        ),
        ("engine.planner.plan_us", us("engine.planner.plan"), "us"),
        ("engine.cache.hit_us", hit_us, "us"),
        (
            "engine.cache.miss_overhead_ms",
            ms("engine.cache.miss"),
            "ms",
        ),
        ("engine.cache.resident_bytes", resident as f64, "bytes"),
        (
            "core.bind.us_per_point",
            in_ops.secs("core.bind") / n.points_bound as f64 * 1e6,
            "us",
        ),
        (
            "knowledge.gibbs.warmup_ms",
            gibbs.mean("knowledge.gibbs.warmup") * 1e3,
            "ms",
        ),
        (
            "knowledge.gibbs.sample_ms",
            gibbs.mean("knowledge.gibbs.sample") * 1e3,
            "ms",
        ),
        (
            "knowledge.gibbs.steps_per_s",
            steps / gibbs.secs("knowledge.gibbs.sample"),
            "1/s",
        ),
        (
            "knowledge.gibbs.acceptance_ratio",
            n.acceptance.iter().sum::<f64>() / n.acceptance.len() as f64,
            "ratio",
        ),
        (
            "engine.sweep.lane_occupancy",
            if n.lane_slots == 0 {
                0.0
            } else {
                n.live_lanes as f64 / n.lane_slots as f64
            },
            "ratio",
        ),
        ("engine.unattributed_ms", replayed.mean("op") * 1e3, "ms"),
    ]
}
