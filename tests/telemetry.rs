//! Telemetry integration tests: the observability contract end to end.
//!
//! * Enabling telemetry must not change a single output bit — sweeps and
//!   gradients are compared bitwise across thread counts and batch widths
//!   with the flag on and off.
//! * Snapshots must be internally consistent even while many threads
//!   record concurrently: well-formed sorted-unique paths, histogram
//!   counts that equal their bucket sums, and counters that only grow.
//! * `Planner::explain` must agree with `Planner::plan` on every circuit,
//!   because the explanation *is* the planning decision, annotated.
//!
//! The enable flag is process-global, so every test that flips it holds a
//! file-local mutex (and restores the previous state before releasing it).

use qkc::circuit::{Circuit, Param, ParamMap};
use qkc::engine::{
    ArtifactCache, BackendKind, Engine, EngineOptions, KcBackend, PlanHint, Planner, SweepExecutor,
    SweepPoint, SweepSpec,
};
use qkc::telemetry;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes tests that touch the process-global telemetry flag/registry.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Restores the prior enable state when a test body returns or panics.
struct FlagGuard(bool);

impl FlagGuard {
    fn set(on: bool) -> Self {
        Self(telemetry::set_enabled(on))
    }
}

impl Drop for FlagGuard {
    fn drop(&mut self) {
        telemetry::set_enabled(self.0);
    }
}

fn noisy_sweep_circuit() -> Circuit {
    let mut c = Circuit::new(3);
    c.h(0)
        .rx(0, Param::symbol("theta"))
        .depolarize(0, 0.02)
        .cnot(0, 1)
        .rx(1, Param::symbol("theta"))
        .phase_damp(1, 0.1)
        .cnot(1, 2);
    c
}

fn sweep_params(n: usize) -> Vec<ParamMap> {
    (0..n)
        .map(|i| ParamMap::from_pairs([("theta", 0.15 + 0.07 * i as f64)]))
        .collect()
}

fn run_sweep(enabled: bool, threads: usize, batch: usize) -> Vec<SweepPoint> {
    let _flag = FlagGuard::set(enabled);
    let backend = KcBackend::new(Arc::new(ArtifactCache::new()), Default::default());
    let obs = |bits: usize| bits as f64 - 0.5;
    let spec = SweepSpec {
        shots: 64,
        observable: Some(&obs),
        keep_samples: true,
        seed: 41,
    };
    SweepExecutor::new(threads)
        .with_batch(batch)
        .run(&backend, &noisy_sweep_circuit(), &sweep_params(24), &spec)
        .expect("sweep")
}

#[test]
fn enabling_telemetry_never_changes_sweep_results() {
    let _guard = lock();
    let want = run_sweep(false, 1, 1);
    for threads in [1usize, 2, 4] {
        for batch in [1usize, 16] {
            let off = run_sweep(false, threads, batch);
            let on = run_sweep(true, threads, batch);
            assert_eq!(
                off, want,
                "threads={threads} batch={batch}: disabled run diverged"
            );
            assert_eq!(
                on, want,
                "threads={threads} batch={batch}: enabled run diverged"
            );
            // PartialEq on f64 admits 0.0 == -0.0; the contract is bitwise.
            for (a, b) in on.iter().zip(&want) {
                match (a.expectation, b.expectation) {
                    (Some(x), Some(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                    (x, y) => assert_eq!(x, y),
                }
            }
        }
    }
}

#[test]
fn enabling_telemetry_never_changes_gradients() {
    let _guard = lock();
    let mut c = Circuit::new(2);
    c.h(0)
        .zz(0, 1, Param::symbol("g"))
        .rx(0, Param::symbol("b0"))
        .rx(1, Param::symbol("b1"));
    let params = ParamMap::from_pairs([("g", 0.45), ("b0", 0.25), ("b1", 0.31)]);
    let obs = |bits: usize| bits.count_ones() as f64;
    let grad = |enabled: bool, threads: usize| {
        let _flag = FlagGuard::set(enabled);
        let engine = Engine::with_options(
            EngineOptions::default()
                .with_backend(BackendKind::KnowledgeCompilation)
                .with_threads(threads),
        );
        engine.gradient(&c, &params, &obs, None).expect("gradient")
    };
    let want = grad(false, 1);
    for threads in [1usize, 2, 4] {
        let on = grad(true, threads);
        assert_eq!(on.value.to_bits(), want.value.to_bits());
        assert_eq!(on.gradient.len(), want.gradient.len());
        for (a, b) in on.gradient.iter().zip(&want.gradient) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "threads={threads}: gradient diverged under telemetry"
            );
        }
    }
}

#[test]
fn snapshots_stay_consistent_under_concurrent_recording() {
    let _guard = lock();
    let _flag = FlagGuard::set(true);
    telemetry::reset();

    // Four threads, four distinct structures, all through one shared
    // cache: compiles, hits, sweeps, and plans all record concurrently
    // while the main thread snapshots mid-flight.
    let engine = Arc::new(Engine::with_options(
        EngineOptions::default().with_backend(BackendKind::KnowledgeCompilation),
    ));
    let obs = |bits: usize| bits as f64;
    let mut handles = Vec::new();
    for t in 0..4usize {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let mut c = Circuit::new(2);
            c.h(0).rx(0, Param::symbol("theta")).cnot(0, 1);
            for _ in 0..t {
                c.t(1); // distinct structural hash per thread
            }
            for round in 0..3 {
                let params = sweep_params(8);
                let spec = SweepSpec::expectation(&obs).with_seed(round);
                engine.sweep(&c, &params, &spec).expect("sweep");
            }
        }));
    }

    // Counters must be monotone across successive snapshots, including
    // ones taken while the workers are still recording.
    let mut last: Vec<(String, u64)> = Vec::new();
    let mut check = |snap: &telemetry::Snapshot| {
        let now: Vec<(String, u64)> = snap
            .counters
            .iter()
            .map(|c| (c.path.clone(), c.value))
            .collect();
        for (path, value) in &last {
            let current = snap.counter(path).unwrap_or(0);
            assert!(
                current >= *value,
                "{path} went backwards: {value} -> {current}"
            );
        }
        last = now;
    };
    for _ in 0..8 {
        let snap = telemetry::snapshot();
        check(&snap);
        std::thread::yield_now();
    }
    for h in handles {
        h.join().expect("worker");
    }
    let snap = telemetry::snapshot();
    check(&snap);

    // Structural invariants of the final snapshot.
    assert!(snap.counter("cache/miss").unwrap_or(0) >= 4);
    assert!(snap.counter("sweep/points").unwrap_or(0) >= 4 * 3 * 8);
    // Batched binds record their lane occupancy: every sweep point rides
    // a batch lane, so accumulated width covers the points, and the
    // rendered tree carries the occupancy footer derived from it.
    assert!(
        snap.counter("kernel/batch/width").unwrap_or(0) >= snap.counter("sweep/points").unwrap(),
        "batched binds must record kernel/batch/width"
    );
    assert!(
        snap.render_tree().contains("lane occupancy"),
        "occupancy note missing from the snapshot tree"
    );
    for stats in snap.spans.iter().chain(&snap.sizes) {
        assert!(
            telemetry::path_is_well_formed(&stats.path),
            "malformed path {:?}",
            stats.path
        );
        let bucket_total: u64 = stats.buckets.iter().map(|b| b.count).sum();
        assert_eq!(
            stats.count, bucket_total,
            "{}: histogram count must equal its bucket sum",
            stats.path
        );
    }
    for c in &snap.counters {
        assert!(telemetry::path_is_well_formed(&c.path));
    }
    for family in [
        snap.spans.iter().map(|s| &s.path).collect::<Vec<_>>(),
        snap.sizes.iter().map(|s| &s.path).collect::<Vec<_>>(),
        snap.counters.iter().map(|c| &c.path).collect::<Vec<_>>(),
    ] {
        for pair in family.windows(2) {
            assert!(pair[0] < pair[1], "paths must be sorted and unique");
        }
    }
    telemetry::reset();
}

#[test]
fn resilience_counters_and_retry_latency_are_recorded() {
    use qkc::engine::{CacheOptions, EngineError, FaultPlan, QueryBudget};
    use std::time::Duration;

    let _guard = lock();
    let _flag = FlagGuard::set(true);
    telemetry::reset();

    let scratch = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("qkc-telemetry-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    };
    let kc_engine = |options: EngineOptions| {
        Engine::with_options(options.with_backend(BackendKind::KnowledgeCompilation))
    };
    let obs = |bits: usize| bits as f64;
    let circuit = noisy_sweep_circuit();
    let params = sweep_params(6);
    let spec = SweepSpec::expectation(&obs);

    // Transient spill-write failure, an injected first-attempt worker
    // panic, and a per-phase compile delay — all recovered, all counted.
    let retry_dir = scratch("retry");
    kc_engine(
        EngineOptions::default()
            .with_cache(CacheOptions::default().with_spill_dir(&retry_dir))
            .with_fault_plan(
                FaultPlan::seeded(31)
                    .with_spill_write_fail_first(1)
                    .with_panic_at([0])
                    .with_compile_delay_secs(0.0005),
            ),
    )
    .sweep(&circuit, &params, &spec)
    .expect("every injected fault here is recoverable");

    // Permanent spill-write failure: retries exhaust, the cache degrades.
    let degrade_dir = scratch("degrade");
    kc_engine(
        EngineOptions::default()
            .with_cache(CacheOptions::default().with_spill_dir(&degrade_dir))
            .with_fault_plan(FaultPlan::seeded(32).with_spill_write_rate(1.0)),
    )
    .sweep(&circuit, &params, &spec)
    .expect("degradation is a caching mode, not a query failure");

    // A corrupt spill file: quarantined on first touch.
    let quarantine_dir = scratch("quarantine");
    kc_engine(
        EngineOptions::default()
            .with_cache(CacheOptions::default().with_spill_dir(&quarantine_dir)),
    )
    .sweep(&circuit, &params, &spec)
    .expect("clean warm-up run");
    for f in std::fs::read_dir(&quarantine_dir).expect("spill dir") {
        let path = f.expect("entry").path();
        let mut bytes = std::fs::read(&path).expect("spill bytes");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt spill file");
    }
    kc_engine(
        EngineOptions::default()
            .with_cache(CacheOptions::default().with_spill_dir(&quarantine_dir)),
    )
    .sweep(&circuit, &params, &spec)
    .expect("quarantine costs one recompile, not the query");

    // An already-expired deadline: the typed error ticks its counter.
    std::thread::sleep(Duration::from_millis(1));
    let expired = kc_engine(
        EngineOptions::default()
            .with_budget(QueryBudget::unlimited().with_deadline(Duration::ZERO)),
    )
    .sweep(&circuit, &params, &spec);
    assert!(matches!(expired, Err(EngineError::DeadlineExceeded { .. })));

    let snap = telemetry::snapshot();
    for counter in [
        "fault/injected/spill_write",
        "fault/injected/worker_panic",
        "fault/injected/compile_delay",
        "cache/spill/retry",
        "cache/spill/quarantined",
        "sweep/point_retry",
        "budget/deadline_exceeded",
    ] {
        assert!(
            snap.counter(counter).unwrap_or(0) >= 1,
            "{counter} was never ticked"
        );
    }
    assert_eq!(
        snap.counter("cache/spill/degraded"),
        Some(1),
        "degradation latches once, not per retry"
    );
    let retry_latency = snap
        .spans
        .iter()
        .find(|s| s.path == "cache/spill/retry_latency")
        .expect("retried spill I/O records its latency");
    assert!(retry_latency.count >= 1);

    for dir in [retry_dir, degrade_dir, quarantine_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
    telemetry::reset();
}

#[test]
fn planner_explain_agrees_with_plan_on_random_circuits() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    let planner = Planner::new();
    for trial in 0..40 {
        let n = rng.gen_range(2usize..14);
        let gates = rng.gen_range(4usize..40);
        let mut c = Circuit::new(n);
        for _ in 0..gates {
            let q = rng.gen_range(0usize..n);
            match rng.gen_range(0usize..5) {
                0 => {
                    c.h(q);
                }
                1 => {
                    c.t(q);
                }
                2 => {
                    c.rx(q, 0.1 + rng.gen::<f64>());
                }
                3 => {
                    let p = rng.gen_range(0usize..n - 1);
                    c.cnot(p, p + 1);
                }
                _ => {
                    c.depolarize(q, 0.01);
                }
            }
        }
        for hint in [PlanHint::SingleShot, PlanHint::ParameterSweep] {
            let plan = planner.plan(&c, hint);
            let explanation = planner.explain(&c, hint);
            assert_eq!(
                explanation.chosen, plan.backend,
                "trial {trial}: explain chose a different backend than plan"
            );
            assert_eq!(explanation.reason, plan.reason, "trial {trial}");
            assert_eq!(explanation.candidates.len(), 4, "trial {trial}");
            let chosen = explanation
                .candidates
                .iter()
                .find(|cand| cand.backend == explanation.chosen)
                .expect("chosen backend appears among the candidates");
            assert!(
                chosen.feasible,
                "trial {trial}: chose an infeasible backend"
            );
        }
    }
}

#[test]
fn compile_search_counters_equal_compile_stats() {
    use qkc::kc::KcSimulator;

    let _guard = lock();
    let circuit = noisy_sweep_circuit();

    // Disabled: the compile records no search counters.
    {
        let _flag = FlagGuard::set(false);
        telemetry::reset();
        KcSimulator::compile(&circuit, &Default::default());
        let snap = telemetry::snapshot();
        for path in [
            "compile/search/decisions",
            "compile/search/components",
            "compile/search/cache_hits",
        ] {
            // `reset` zeroes a registered counter rather than removing it.
            assert_eq!(
                snap.counter(path).unwrap_or(0),
                0,
                "{path} recorded while disabled"
            );
        }
    }

    // Enabled: two compiles, and the counters sum their search statistics.
    let _flag = FlagGuard::set(true);
    telemetry::reset();
    let mut other = circuit.clone();
    other.cnot(2, 0).depolarize(0, 0.01);
    let sims = [
        KcSimulator::compile(&circuit, &Default::default()),
        KcSimulator::compile(&other, &Default::default()),
    ];
    let snap = telemetry::snapshot();
    let total = |f: fn(&qkc::knowledge::CompileStats) -> u64| -> u64 {
        sims.iter().map(|s| f(&s.metrics().compile_stats)).sum()
    };
    assert!(total(|s| s.decisions) > 0, "the circuits need decisions");
    assert_eq!(
        snap.counter("compile/search/decisions"),
        Some(total(|s| s.decisions))
    );
    assert_eq!(
        snap.counter("compile/search/components"),
        Some(total(|s| s.components))
    );
    assert_eq!(
        snap.counter("compile/search/cache_hits"),
        Some(total(|s| s.cache_hits))
    );
    assert_eq!(snap.counter("compile/runs"), Some(2));

    let report = sims[0].metrics().report();
    let search = report
        .lines()
        .find(|l| l.trim_start().starts_with("search"))
        .expect("report has a search line");
    assert!(search.contains("/s)"), "no decisions/s in {search:?}");
    telemetry::reset();
}

#[test]
fn gibbs_counters_equal_chain_stats() {
    use qkc::engine::Backend;
    use qkc::kc::KcSimulator;
    use qkc::knowledge::GibbsOptions;

    /// The backend's chain seed for a sample call's `seed`: its splitmix
    /// finalizer over `seed` and stream index 1.
    fn chain_seed(seed: u64) -> u64 {
        let mut z = seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    let _guard = lock();
    let _flag = FlagGuard::set(true);
    let circuit = noisy_sweep_circuit();
    let params = ParamMap::from_pairs([("theta", 0.4)]);
    let (warmup, thin, shots, seed) = (60, 2, 150, 7);
    // A zero enumeration budget sends the noisy circuit to the chain.
    let backend = KcBackend::new(Arc::new(ArtifactCache::new()), Default::default())
        .with_max_exact_log2_branches(0.0)
        .with_gibbs(warmup, thin);
    telemetry::reset();
    let outputs = backend.sample(&circuit, &params, shots, seed).unwrap();
    let snap = telemetry::snapshot();

    let sim = KcSimulator::compile(&circuit, &Default::default());
    let bound = sim.bind(&params).unwrap();
    let mut sampler = bound.sampler(&GibbsOptions {
        warmup,
        thin,
        seed: chain_seed(seed),
        ..Default::default()
    });
    assert_eq!(
        sampler.sample_outputs(shots, thin),
        outputs,
        "not the chain"
    );
    let stats = sampler.stats();
    assert_eq!(stats.steps(), (warmup + shots * thin) as u64);
    assert!(stats.mh_proposed > 0, "the chain needs MH proposals");
    assert!(
        stats.full_passes <= 1 + stats.mh_accepted,
        "rejected proposals forced full passes: {stats:?}"
    );
    for (path, want) in [
        ("sample/gibbs/chains", 1),
        ("sample/gibbs/full_passes", stats.full_passes),
        ("sample/gibbs/delta_passes", stats.delta_passes),
        ("sample/gibbs/held_steps", stats.held_steps),
        ("sample/gibbs/coordinate_moves", stats.coordinate_moves),
        ("sample/gibbs/mh_proposed", stats.mh_proposed),
        ("sample/gibbs/mh_accepted", stats.mh_accepted),
    ] {
        assert_eq!(snap.counter(path), Some(want), "{path}");
    }
    telemetry::reset();
}
