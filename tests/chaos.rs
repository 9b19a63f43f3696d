//! Chaos-harness integration tests: bounded soaks through the public
//! [`ChaosConfig`] API, seed-reproducibility of the generated schedules,
//! and the quiet injected-panic path. The heavyweight open-ended soak
//! lives in CI (`blocksync chaos`); these runs are sized to finish in
//! seconds.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use blocksync::core::{
    BlockCtx, ChaosConfig, ExecError, FaultInjector, FaultPlan, FaultProfile, FaultSchedule,
    GridConfig, GridExecutor, ShardKey, SyncMethod,
};

/// A single-shard soak: 4 blocks x 8 threads under `method`.
fn bounded(launches: usize, seed: u64, method: SyncMethod) -> ChaosConfig {
    ChaosConfig {
        launches,
        fault_rate: 0.35,
        seed,
        shards: vec![ShardKey::new(4, 8, method)],
        ..ChaosConfig::default()
    }
}

#[test]
fn bounded_pooled_soak_holds_every_invariant() {
    let report = bounded(48, 0xC0FFEE, SyncMethod::GpuLockFree)
        .run()
        .expect("config is valid");
    assert!(report.passed(), "soak failed:\n{report}");
    assert_eq!(report.launches, 48);
    assert!(
        report.faulty > 0,
        "0.35 rate over 48 launches drew no faults"
    );
    assert!(report.clean > 0, "every launch drew a fault");
}

/// The whole point of logging one u64: the same seed must regenerate the
/// same per-launch fault decisions and the same schedules.
#[test]
fn same_seed_reproduces_the_same_schedules() {
    let profile = FaultProfile::new(5, 8, Duration::from_millis(80));
    for seed in [0u64, 1, 42, u64::MAX] {
        assert_eq!(
            FaultSchedule::random(seed, &profile),
            FaultSchedule::random(seed, &profile),
            "seed {seed} not reproducible"
        );
    }
    // And different seeds should (overwhelmingly) differ somewhere.
    let schedules: Vec<FaultSchedule> = (0..16)
        .map(|s| FaultSchedule::random(s, &profile))
        .collect();
    assert!(
        schedules.windows(2).any(|w| w[0] != w[1]),
        "16 consecutive seeds produced identical schedules"
    );
}

/// Two soaks from the same seed must agree on the aggregate fault/clean
/// split — the run-level reproducibility the CLI promises when it prints
/// `reproduce with --seed`.
#[test]
fn same_seed_reproduces_the_same_soak_split() {
    let cfg = bounded(24, 7, SyncMethod::GpuSimple);
    let a = cfg.run().expect("valid");
    let b = cfg.run().expect("valid");
    assert!(a.passed() && b.passed(), "a:\n{a}\nb:\n{b}");
    assert_eq!(
        (a.faulty, a.benign, a.clean),
        (b.faulty, b.benign, b.clean),
        "same seed diverged"
    );
}

#[test]
fn chaos_rejects_configs_it_cannot_diagnose() {
    for method in [
        SyncMethod::CpuExplicit,
        SyncMethod::NoSync,
        SyncMethod::Auto,
    ] {
        let cfg = bounded(8, 1, method);
        assert!(cfg.validate().is_err(), "{method} should be rejected");
        assert!(cfg.run().is_err(), "{method} should be rejected by run()");
    }
}

/// Injected panics unwind without running the panic hook: nothing is
/// printed and no backtrace is symbolized (even under `RUST_BACKTRACE=1`)
/// before the engine's `catch_unwind`, so a slow hook can never let a
/// peer's timeout win the race to report the fault.
#[test]
fn injected_panics_skip_the_panic_hook() {
    static INJECTED_SEEN: AtomicUsize = AtomicUsize::new(0);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if message.contains("injected fault") {
            INJECTED_SEEN.fetch_add(1, Ordering::SeqCst);
        }
        previous(info);
    }));
    let kernel = FaultInjector::new(
        (4usize, |_: &BlockCtx, _: usize| {}),
        FaultPlan::panic_at(1, 2),
    );
    let err = GridExecutor::new(GridConfig::new(3, 8), SyncMethod::GpuLockFree)
        .run(&kernel)
        .unwrap_err();
    assert_eq!(
        err,
        ExecError::BlockPanicked {
            block: 1,
            round: 2,
            message: "injected fault: block 1 round 2".to_string(),
        }
    );
    assert_eq!(
        INJECTED_SEEN.load(Ordering::SeqCst),
        0,
        "an injected panic ran the panic hook"
    );
}
