//! `micro`: the paper's §5.4 mean-of-two-floats kernel, one long launch at
//! a time from the main thread, round-robin over every barrier method.
//!
//! Launches are long (100k rounds for the spin barriers) because short
//! ones are bimodal on a two-core host: whether both workers share a core
//! decides the per-round cost. The CPU-synchronised methods get fewer
//! rounds so every launch lasts tens of milliseconds.

use std::time::{Duration, Instant};

use blocksync_algos::seqgen::SplitMix64;
use blocksync_core::{
    ExecError, GridConfig, GridExecutor, GridRuntime, KernelStats, SyncMethod, TreeLevels,
};
use blocksync_microbench::MeanKernel;

use crate::report::{Metrics, Outcomes};
use crate::stats::{geomean, median, quantile};
use crate::trace::Tracer;
use crate::{abort_run, shuffle, us};

/// The paper's grid for this workload: N = 2 blocks of 64 threads.
const BLOCKS: usize = 2;
const THREADS: usize = 64;

/// Registry mutations per launch each front door makes today.
const POOLED_OPS_PER_LAUNCH: u64 = 6;
const SCOPED_OPS_PER_LAUNCH: u64 = 2;

enum Door {
    /// A warm `GridRuntime`, launched through its borrowed `run` path.
    Pool(GridRuntime),
    /// A `GridExecutor` on its default scoped path.
    Exec(GridExecutor),
}

struct Slot {
    /// Layer name used in metric names.
    layer: &'static str,
    method: SyncMethod,
    rounds: usize,
    door: Door,
    round_ns: Vec<f64>,
    sync_ns: Vec<f64>,
    t_o_us: Vec<f64>,
    /// Observer registry mutations at the start of the measurement, and
    /// launches since; a failed launch makes a different number of them.
    ops0: u64,
    launched: u64,
    exec_failed: bool,
    auto_pick: Option<SyncMethod>,
}

impl Slot {
    fn launch(&self, kernel: &MeanKernel) -> Result<KernelStats, ExecError> {
        match &self.door {
            Door::Pool(rt) => rt.run(kernel),
            Door::Exec(ex) => ex.run(kernel),
        }
    }

    fn ops(&self) -> u64 {
        match &self.door {
            Door::Pool(rt) => rt.observer().ops(),
            Door::Exec(ex) => ex.observer().ops(),
        }
    }
}

/// The five GPU-side methods whose geometric mean is `round_ns`.
const GPU_LAYERS: [&str; 5] = ["simple", "tree", "lockfree", "sense", "dissemination"];

/// Every method `Auto` may pick, in the order `autotune.pick` indexes.
const PICKS: [SyncMethod; 7] = [
    SyncMethod::GpuSimple,
    SyncMethod::GpuTree(TreeLevels::Two),
    SyncMethod::GpuLockFree,
    SyncMethod::SenseReversing,
    SyncMethod::Dissemination,
    SyncMethod::CpuImplicit,
    SyncMethod::CpuExplicit,
];

pub struct Micro {
    slots: Vec<Slot>,
    calibrate: Duration,
    launches: u64,
}

impl Micro {
    /// Spin up one warm pool per pooled method plus the two executors, and
    /// warm every one of them with a short launch.
    /// `calibrate` is how long the process's first `AutoTuner::host()`
    /// call took.
    pub fn setup(calibrate: Duration) -> Micro {
        let cfg = GridConfig::new(BLOCKS, THREADS);
        let pooled = [
            ("simple", SyncMethod::GpuSimple, 100_000),
            ("tree", SyncMethod::GpuTree(TreeLevels::Two), 100_000),
            ("lockfree", SyncMethod::GpuLockFree, 100_000),
            ("sense", SyncMethod::SenseReversing, 100_000),
            ("dissemination", SyncMethod::Dissemination, 100_000),
            ("implicit", SyncMethod::CpuImplicit, 10_000),
        ];
        let mut slots: Vec<Slot> = pooled
            .into_iter()
            .map(|(layer, method, rounds)| {
                let rt = GridRuntime::new(cfg.clone(), method)
                    .unwrap_or_else(|e| abort_run(&format!("{method} pool: {e}")));
                slot(layer, method, rounds, Door::Pool(rt))
            })
            .collect();
        for (layer, method, rounds) in [
            ("explicit", SyncMethod::CpuExplicit, 1_000),
            ("auto", SyncMethod::Auto, 100_000),
        ] {
            let ex = GridExecutor::new(cfg.clone(), method);
            slots.push(slot(layer, method, rounds, Door::Exec(ex)));
        }
        for s in &mut slots {
            let k = MeanKernel::for_grid(BLOCKS, THREADS, (s.rounds / 20).max(10));
            match s.launch(&k) {
                Ok(_) if k.verify() => {}
                Ok(_) => abort_run(&format!("{} warm-up: wrong means", s.method)),
                Err(e) => abort_run(&format!("{} warm-up: {e}", s.method)),
            }
            s.ops0 = s.ops();
        }
        Micro {
            slots,
            calibrate,
            launches: 0,
        }
    }

    /// Launch every method in a seeded order, round after round, until
    /// `until`.
    pub fn run(
        &mut self,
        until: Instant,
        rng: &mut SplitMix64,
        tr: &mut Tracer,
        out: &mut Outcomes,
    ) {
        let mut order: Vec<usize> = (0..self.slots.len()).collect();
        while Instant::now() < until {
            shuffle(&mut order, rng);
            for &i in &order {
                if Instant::now() >= until {
                    break;
                }
                let s = &mut self.slots[i];
                let kernel = MeanKernel::for_grid(BLOCKS, THREADS, s.rounds);
                self.launches += 1;
                let t0 = Instant::now();
                let res = s.launch(&kernel);
                let t1 = Instant::now();
                s.launched += 1;
                let id = self.launches;
                let root = tr.span("micro.run", t0, t1, None, id);
                let stats = match res {
                    Ok(st) => st,
                    Err(e) => {
                        out.fail(format!("exec:{}", e.kind_label()));
                        s.exec_failed = true;
                        continue;
                    }
                };
                if tr.enabled() {
                    tr.launch_children(t0, &stats, root, id);
                }
                let ok = kernel.verify();
                tr.span("micro.verify", t1, Instant::now(), None, id);
                if !ok {
                    out.fail("verify:mean");
                    continue;
                }
                out.ok();
                let rounds = stats.rounds as f64;
                s.round_ns.push(stats.wall.as_nanos() as f64 / rounds);
                s.sync_ns.push(stats.sync_per_round().as_nanos() as f64);
                s.t_o_us.push(us(stats.launch));
                if let Some(a) = &stats.auto {
                    s.auto_pick = Some(a.chosen);
                }
            }
        }
    }

    fn slot(&self, layer: &str) -> &Slot {
        self.slots
            .iter()
            .find(|s| s.layer == layer)
            .expect("every layer has a slot")
    }

    fn median_round(&self, layer: &str) -> f64 {
        median(&self.slot(layer).round_ns)
    }

    pub fn end_to_end(&self, m: &mut Metrics) {
        let gpu: Vec<f64> = GPU_LAYERS.iter().map(|l| self.median_round(l)).collect();
        m.put("round_ns", geomean(&gpu), "ns");
        m.put("implicit_round_ns", self.median_round("implicit"), "ns");
        m.put("explicit_round_ns", self.median_round("explicit"), "ns");
    }

    /// Per-method round cost, the scoped launch overhead, the auto-tuner
    /// and the observer's per-launch cost. Aborts if the observer's count
    /// per launch moved.
    pub fn per_layer(&self, m: &mut Metrics, cold_t_o_us: &mut Vec<f64>) {
        for s in &self.slots {
            m.put(
                format!("{}.round_ns.p50", s.layer),
                median(&s.round_ns),
                "ns",
            );
            m.put(
                format!("{}.round_ns.p90", s.layer),
                quantile(&s.round_ns, 0.9),
                "ns",
            );
            m.put(format!("{}.sync_ns", s.layer), median(&s.sync_ns), "ns");
        }
        m.put(
            "autotune.calibrate_ms",
            self.calibrate.as_secs_f64() * 1e3,
            "ms",
        );
        let auto = self.slot("auto");
        let pick = auto
            .auto_pick
            .and_then(|p| PICKS.iter().position(|&q| q == p));
        if let Some(p) = auto.auto_pick {
            println!("# autotune picked {p}");
        }
        m.put(
            "autotune.pick",
            pick.map_or(f64::NAN, |i| i as f64),
            "index",
        );
        let best = self
            .slots
            .iter()
            .filter(|s| s.layer != "auto")
            .map(|s| median(&s.round_ns))
            .fold(f64::INFINITY, f64::min);
        m.put("autotune.regret", median(&auto.round_ns) / best, "ratio");
        cold_t_o_us.extend(&auto.t_o_us);
        m.put("obs.ops_per_launch", self.ops_per_launch(true), "count");
        m.put(
            "obs.ops_per_launch.scoped",
            self.ops_per_launch(false),
            "count",
        );
    }

    /// Observer mutations per launch over the pooled (or scoped) slots,
    /// checked against today's exact count when no launch failed.
    fn ops_per_launch(&self, pooled: bool) -> f64 {
        let (mut ops, mut launches, mut clean) = (0, 0, true);
        for s in &self.slots {
            if matches!(s.door, Door::Pool(_)) == pooled {
                ops += s.ops() - s.ops0;
                launches += s.launched;
                clean &= !s.exec_failed;
            }
        }
        let want = if pooled {
            POOLED_OPS_PER_LAUNCH
        } else {
            SCOPED_OPS_PER_LAUNCH
        };
        if clean && ops != want * launches {
            abort_run(&format!(
                "observer made {ops} registry updates over {launches} {} launches, expected {want} each",
                if pooled { "pooled" } else { "scoped" }
            ));
        }
        ops as f64 / launches as f64
    }

    pub fn launches(&self) -> u64 {
        self.launches
    }
}

fn slot(layer: &'static str, method: SyncMethod, rounds: usize, door: Door) -> Slot {
    Slot {
        layer,
        method,
        rounds,
        door,
        round_ns: Vec::new(),
        sync_ns: Vec::new(),
        t_o_us: Vec::new(),
        ops0: 0,
        launched: 0,
        exec_failed: false,
        auto_pick: None,
    }
}
