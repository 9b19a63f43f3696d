//! Launch-overhead benchmark: **cold vs warm `t_O`** (Eq. 1).
//!
//! The paper's case for persistent kernels is that relaunching a kernel per
//! barrier round pays the launch overhead `t_O` every time; a resident grid
//! pays it once. The pooled runtime ([`blocksync_core::GridRuntime`])
//! extends that argument across *kernels*: the first launch is cold (worker
//! threads spawn), every later launch is a queue handoff. This bin measures
//! both and emits `BENCH_launch.json` baseline records:
//!
//! 1. `model:launch/{cold,warm}` — the fixed GTX 280 calibration's launch
//!    costs (deterministic; guarded by the CI baseline check).
//! 2. `pred:launch/{cold,warm}` — the live host's measured calibration.
//! 3. `host:launch/{cold,warm}` — wall-clock `t_O`: median launch time of
//!    fresh scoped runs (cold) vs relaunches on an already-warm pool
//!    (warm). Noisy; unguarded.
//! 4. `host:launch/sporadic` — median per-launch barrier time (mean block
//!    `sync`) of 20-round launches on a 2-block `gpu-lock-free` pool, each
//!    after a 250 µs idle gap. Every launch finds the workers asleep, so
//!    this row shows whether the pool's wake-up puts the blocks on
//!    separate cores (a few µs) or on one, where every barrier round costs
//!    a context switch (~100 µs). Noisy; unguarded.
//!
//! Flags: `--short` (fewer repetitions, for CI smoke), `--json FILE`
//! (default `BENCH_launch.json`), `--baseline FILE` + `--max-regress-pct P`
//! (fail nonzero on guarded regression).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use blocksync_bench::baseline::{self, BenchRecord};
use blocksync_bench::harness::format_table;
use blocksync_core::{AutoTuner, GridConfig, GridRuntime, LaunchPlan, SyncMethod};
use blocksync_device::CalibrationProfile;
use blocksync_microbench::MeanKernel;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let short = baseline::has_flag(&args, "short");
    let json_path = baseline::flag_value(&args, "json").unwrap_or("BENCH_launch.json".into());
    let mut records = Vec::new();

    // -- Section 1: fixed-calibration launch costs (guarded) --------------
    let blocks = 30;
    let cal = CalibrationProfile::gtx280();
    records.push(BenchRecord::new(
        "model:launch/cold",
        blocks,
        cal.kernel_launch_ns as f64,
    ));
    records.push(BenchRecord::new(
        "model:launch/warm",
        blocks,
        cal.warm_launch_ns as f64,
    ));
    println!(
        "GTX 280 calibration, {blocks} blocks: cold t_O {} ns, warm (pooled) {} ns\n",
        cal.kernel_launch_ns, cal.warm_launch_ns
    );

    // -- Section 2: the live host's calibrated launch costs (unguarded) ---
    let host_blocks = 4;
    let host_cal = AutoTuner::host().calibration().clone();
    records.push(BenchRecord::new(
        "pred:launch/cold",
        host_blocks,
        host_cal.kernel_launch_ns as f64,
    ));
    records.push(BenchRecord::new(
        "pred:launch/warm",
        host_blocks,
        host_cal.warm_launch_ns as f64,
    ));

    // -- Section 3: measured cold vs warm t_O on the host runtime ---------
    let (cold_reps, warm_reps) = if short { (5, 8) } else { (9, 24) };
    let method = SyncMethod::GpuSimple;
    let rounds = 8; // launch-dominated: barely any in-round work
    let tpb = 64;

    // Compile the launch plan once: every cold rep pays thread spawning
    // (the measured `t_O`), not config validation or barrier selection.
    let plan = match LaunchPlan::compile(GridConfig::new(host_blocks, tpb), method) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("error: cannot compile launch plan: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cold_ns = Vec::new();
    for _ in 0..cold_reps {
        let kernel = MeanKernel::for_grid(host_blocks, tpb, rounds);
        match plan.run(&kernel) {
            Ok(stats) => cold_ns.push(stats.launch.as_secs_f64() * 1e9),
            Err(e) => {
                eprintln!("error: cold scoped run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let rt = match GridRuntime::new(GridConfig::new(host_blocks, tpb), method) {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("error: cannot construct pooled runtime: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut warm_ns = Vec::new();
    for i in 0..=warm_reps {
        let kernel = MeanKernel::for_grid(host_blocks, tpb, rounds);
        match rt.run(&kernel) {
            // Launch 0 spawns the workers — that is the pool's cold start,
            // not its steady state, so it warms the pool and is discarded.
            Ok(stats) if i > 0 => warm_ns.push(stats.launch.as_secs_f64() * 1e9),
            Ok(_) => {}
            Err(e) => {
                eprintln!("error: pooled relaunch failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // -- Section 4: sporadic short launches onto a sleeping pool ----------
    let (sporadic_blocks, sporadic_reps) = (2, if short { 200 } else { 1000 });
    let rt = match GridRuntime::new(
        GridConfig::new(sporadic_blocks, tpb),
        SyncMethod::GpuLockFree,
    ) {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("error: cannot construct pooled runtime: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut sporadic_ns = Vec::new();
    for i in 0..=sporadic_reps {
        std::thread::sleep(Duration::from_micros(250));
        let kernel = Arc::new(MeanKernel::for_grid(sporadic_blocks, tpb, 20));
        match rt.submit(kernel).and_then(|h| h.wait()) {
            // Launch 0 is the pool's cold start; discard it as above.
            Ok(stats) if i > 0 => sporadic_ns.push(stats.avg_sync().as_secs_f64() * 1e9),
            Ok(_) => {}
            Err(e) => {
                eprintln!("error: sporadic launch failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let cold = median(&mut cold_ns);
    let warm = median(&mut warm_ns);
    let sporadic = median(&mut sporadic_ns);
    records.push(BenchRecord::new("host:launch/cold", host_blocks, cold));
    records.push(BenchRecord::new("host:launch/warm", host_blocks, warm));
    records.push(BenchRecord::new(
        "host:launch/sporadic",
        sporadic_blocks,
        sporadic,
    ));

    println!(
        "host runtime, {host_blocks} blocks ({} mode), median t_O:\n",
        if short { "short" } else { "full" }
    );
    let rows = vec![
        vec![
            "cold (scoped spawn)".into(),
            format!("{:.0}", host_cal.kernel_launch_ns),
            format!("{cold:.0}"),
        ],
        vec![
            "warm (pooled relaunch)".into(),
            format!("{:.0}", host_cal.warm_launch_ns),
            format!("{warm:.0}"),
        ],
    ];
    println!(
        "{}",
        format_table(&["launch", "calibrated (ns)", "measured (ns)"], &rows)
    );
    if warm > 0.0 {
        println!("cold / warm = {:.1}x", cold / warm);
    }
    println!(
        "sporadic 20-round launches, {sporadic_blocks} blocks gpu-lock-free, 250 us gaps: \
         median sync {:.1} us per launch",
        sporadic / 1e3
    );

    if let Err(e) = std::fs::write(&json_path, baseline::to_json(&records)) {
        eprintln!("error: cannot write {json_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {} records to {json_path}", records.len());

    if let Some(bl) = baseline::flag_value(&args, "baseline") {
        let pct = baseline::flag_value(&args, "max-regress-pct")
            .map(|v| v.parse().expect("--max-regress-pct expects a number"))
            .unwrap_or(25.0);
        if let Err(e) = baseline::guard_against_baseline(&records, &bl, pct) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        v[v.len() / 2]
    }
}
