//! The launch engine: the one per-launch pipeline every execution path
//! drives.
//!
//! The paper's argument (Eqs. 1–9) is that a single barrier abstraction
//! serves every synchronization method; the same discipline applies to
//! the *runtime around* the barrier. This module owns the pieces every
//! launch shares, each in exactly one place:
//!
//! * [`LaunchPlan`] — a validated `(GridConfig, SyncMethod)` pair,
//!   compiled once and reusable across launches (the executor compiles
//!   one per run; the pooled runtime and the launch-overhead benchmark
//!   keep one alive and launch through it repeatedly).
//! * [`LaunchSetup`] — the per-launch state a plan stamps out: a **fresh**
//!   barrier (poisoning is permanent, so barriers are never reused across
//!   launches), the trace recorder, and the abort signal.
//! * [`drive_block`] — the one true round loop: run the round under
//!   `catch_unwind`, poison + abort on panic, barrier-wait with bounded
//!   waits, and per-round time/trace accounting.
//!
//! The four historical execution paths are thin strategies over this
//! engine:
//!
//! | strategy | serves | shape |
//! |---|---|---|
//! | [`run_scoped`] | GPU methods, `CpuImplicit`, `NoSync` (scoped) | spawn per launch, `LaunchGate`, [`drive_block`] per block |
//! | pooled workers (`core::runtime`) | same methods, on a [`crate::GridRuntime`] | resident workers (woken one at a time), `LaunchGate`, [`drive_block`] per block |
//! | [`run_relaunch`] | `CpuExplicit` | spawn + join per round (owned: watchdog-join; borrowed: `thread::scope`) |
//! | `Auto` (`GridExecutor::run_auto`) | resolves, then one of the above | plan compiled for the resolved method |
//!
//! `CpuImplicit` needs no strategy of its own anymore: its driver
//! rendezvous is a [`crate::CpuImplicitSync`] barrier, so both the scoped
//! and the pooled strategy run it like any other barrier method.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::barrier::{BarrierControl, BarrierShared, PoisonCause, SyncFault, SyncPolicy};
use crate::error::{ExecError, StuckDiagnostic, StuckPhase};
use crate::executor::{AbortSignal, BlockCtx, GridConfig, RoundKernel};
use crate::fault::{FaultSchedule, WaitFaultInjector};
use crate::method::SyncMethod;
use crate::runtime::PoolLaunchStats;
use crate::stats::{BlockTimes, KernelStats};
use crate::trace::{EventRecorder, TraceEventKind};

/// Best-effort string form of a panic payload.
pub(crate) fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Merge per-block outcomes: all `Ok` yields the times, otherwise the
/// *origin* failure wins — the error reported by the block where the fault
/// actually happened (`BlockPanicked` naming itself, or the timeout whose
/// diagnostic names the reporting block) — falling back to any derived
/// poison error.
pub(crate) fn collect_block_results(
    results: Vec<Result<BlockTimes, ExecError>>,
) -> Result<Vec<BlockTimes>, ExecError> {
    let mut times = Vec::with_capacity(results.len());
    let mut origin: Option<ExecError> = None;
    let mut derived: Option<ExecError> = None;
    for (b, result) in results.into_iter().enumerate() {
        match result {
            Ok(t) => times.push(t),
            Err(e) => {
                times.push(BlockTimes::default());
                let is_origin = match &e {
                    ExecError::BlockPanicked { block, .. } => *block == b,
                    ExecError::BarrierTimeout { diagnostic } => diagnostic.waiting_block == b,
                    _ => true,
                };
                if is_origin {
                    origin.get_or_insert(e);
                } else {
                    derived.get_or_insert(e);
                }
            }
        }
    }
    match origin.or(derived) {
        Some(e) => Err(e),
        None => Ok(times),
    }
}

/// Translate a barrier-level fault into the run-level error, rebuilding a
/// progress snapshot for victims of a peer's timeout.
pub(crate) fn fault_to_error(fault: SyncFault, barrier: &dyn BarrierShared) -> ExecError {
    match fault {
        SyncFault::TimedOut { diagnostic } => ExecError::BarrierTimeout { diagnostic },
        SyncFault::Poisoned {
            block,
            round,
            cause: PoisonCause::Panic,
        } => ExecError::BlockPanicked {
            block,
            round,
            message: "poisoned by peer panic".to_string(),
        },
        SyncFault::Poisoned {
            block,
            round,
            cause: PoisonCause::Timeout,
        } => {
            let (arrivals, departures) = barrier.control().progress();
            ExecError::BarrierTimeout {
                diagnostic: Box::new(StuckDiagnostic {
                    barrier: barrier.name().to_string(),
                    waiting_block: block,
                    round,
                    flag: "poisoned by peer timeout".to_string(),
                    timeout: barrier.control().policy().timeout.unwrap_or_default(),
                    arrivals,
                    departures,
                    recent_events: barrier.control().straggler_trail(block, round as u64),
                    phase: StuckPhase::Barrier,
                }),
            }
        }
    }
}

/// The launch gate every persistent strategy assembles at: each block
/// thread checks in and waits until all peers have. This pins down the
/// "kernel launch" boundary — time before the gate opens is spawn or
/// dispatch overhead (`t_O`), time after is round time — so round-0 sync
/// does not absorb the stagger of late threads.
///
/// The wait is [`BarrierControl::wait_until`]'s discipline on the gate's
/// own control under [`crate::SpinStrategy::Park`]: check-in is
/// `record_arrival(block, 0)`, so the control's arrival table is the
/// assembly-phase progress table and every check-in wakes parked peers. On
/// an oversubscribed host (more blocks than cores) the last peers cannot
/// even be scheduled until earlier arrivals stop burning their timeslices,
/// which parking gives them.
pub(crate) struct LaunchGate {
    n: usize,
    /// Pooled workers that picked the launch up (see [`LaunchGate::enter`]).
    entered: AtomicUsize,
    checked_in: AtomicUsize,
    control: BarrierControl,
    /// Bound on the check-in stage of [`LaunchGate::wait`].
    timeout: Option<Duration>,
}

impl LaunchGate {
    pub(crate) fn new(n: usize, timeout: Option<Duration>) -> Self {
        LaunchGate {
            n,
            entered: AtomicUsize::new(0),
            checked_in: AtomicUsize::new(0),
            control: BarrierControl::new(n, SyncPolicy::default().with_park()),
            timeout,
        }
    }

    /// Note that a pooled worker has picked the launch up off the log; the
    /// check-in deadline only runs once every worker has.
    pub(crate) fn enter(&self) {
        if self.entered.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.control.wake_parked();
        }
    }

    pub(crate) fn check_in(&self, block: usize) {
        self.checked_in.fetch_add(1, Ordering::AcqRel);
        self.control.record_arrival(block, 0);
    }

    /// Wait until every block has checked in or `abort` is raised.
    ///
    /// Two stages. Until every worker has [`entered`](LaunchGate::enter),
    /// the wait has no deadline: a worker still busy on an earlier
    /// pipelined launch is late, not stuck, and abandoning *that* launch
    /// is what frees it. Then check-in is bounded by the gate's timeout.
    /// Returns the first block that never checked in if that bound
    /// expired, `None` once the gate is open (or released by abort, or by
    /// a peer's timeout).
    pub(crate) fn wait(&self, block: usize, abort: &AbortSignal) -> Option<usize> {
        let open = || self.checked_in.load(Ordering::Acquire) >= self.n || abort.is_aborted();
        let flag = || "launch gate".to_string();
        let all_entered = || open() || self.entered.load(Ordering::Acquire) >= self.n;
        self.control
            .wait_within(None, block, 0, "launch-gate", flag, all_entered)
            .ok()?;
        match self
            .control
            .wait_within(self.timeout, block, 0, "launch-gate", flag, open)
        {
            Err(SyncFault::TimedOut { .. }) => self.arrivals().iter().position(|&a| a == 0),
            _ => None,
        }
    }

    /// Check-in table: 1 for blocks that checked in, 0 for the rest.
    pub(crate) fn arrivals(&self) -> Vec<u64> {
        self.control.progress().0
    }
}

/// A borrowed-or-owned kernel argument for the launch engine. Only the
/// relaunch (CPU-explicit) strategy cares: with an owned kernel it may
/// detach (abandon) a non-cooperative straggler thread instead of joining
/// it.
pub(crate) enum KernelArg<'a> {
    /// A kernel the caller merely borrows for the duration of the run.
    Borrowed(&'a dyn RoundKernel),
    /// A co-owned kernel, safe to leave with a detached thread.
    Owned(&'a Arc<dyn RoundKernel + Send + Sync>),
}

impl KernelArg<'_> {
    pub(crate) fn as_dyn(&self) -> &dyn RoundKernel {
        match self {
            KernelArg::Borrowed(k) => *k,
            KernelArg::Owned(k) => &***k,
        }
    }
}

/// A compiled launch pipeline: a validated grid shape plus a resolved,
/// concrete synchronization method.
///
/// Compile once, launch many times — each [`LaunchPlan::run`] stamps out a
/// fresh [`LaunchSetup`] (barrier, recorder, abort), so faults stay
/// per-launch. [`crate::GridExecutor`] compiles a plan per call; the
/// pooled [`crate::GridRuntime`] and the launch-overhead benchmark hold
/// one for their whole lifetime.
#[derive(Debug, Clone)]
pub struct LaunchPlan {
    cfg: GridConfig,
    method: SyncMethod,
}

impl LaunchPlan {
    /// Validate `cfg` for `method` and fix the pipeline.
    ///
    /// # Errors
    /// [`ExecError::Device`] if the grid shape is invalid for the method;
    /// [`ExecError::BarrierUnavailable`] for [`SyncMethod::Auto`], which
    /// is a selection directive, not an executable method — resolve it
    /// (see [`crate::AutoTuner`]) before compiling.
    pub fn compile(cfg: GridConfig, method: SyncMethod) -> Result<LaunchPlan, ExecError> {
        if method == SyncMethod::Auto {
            return Err(ExecError::BarrierUnavailable {
                method: method.to_string(),
            });
        }
        cfg.validate(method)?;
        Ok(LaunchPlan { cfg, method })
    }

    /// The grid configuration this plan was compiled for.
    pub fn config(&self) -> &GridConfig {
        &self.cfg
    }

    /// The concrete method this plan executes.
    pub fn method(&self) -> SyncMethod {
        self.method
    }

    /// Stamp out the per-launch state: a fresh barrier (except for
    /// `CpuExplicit`, whose "barrier" is the host's join, and `NoSync`),
    /// a fresh trace recorder, and an un-raised abort signal.
    ///
    /// # Errors
    /// [`ExecError::BarrierUnavailable`] if the method cannot build a
    /// barrier for this grid.
    pub(crate) fn setup(&self, rounds: usize) -> Result<LaunchSetup, ExecError> {
        let n = self.cfg.n_blocks;
        let barrier = match self.method {
            SyncMethod::CpuExplicit | SyncMethod::NoSync => None,
            m => Some(m.build_barrier_with(n, self.cfg.policy).ok_or_else(|| {
                ExecError::BarrierUnavailable {
                    method: m.to_string(),
                }
            })?),
        };
        let recorder = self
            .cfg
            .trace
            .as_ref()
            .filter(|_| EventRecorder::ENABLED)
            .map(|tc| Arc::new(EventRecorder::new(n, rounds, tc)));
        if let (Some(sh), Some(rec)) = (barrier.as_deref(), recorder.as_ref()) {
            sh.control().attach_recorder(Arc::clone(rec));
        }
        Ok(LaunchSetup {
            method: self.method,
            n,
            threads_per_block: self.cfg.threads_per_block,
            policy: self.cfg.policy,
            rounds,
            barrier,
            abort: AbortSignal::new(),
            recorder,
            faults: None,
        })
    }

    /// Run a borrowed kernel through this plan (scoped strategies).
    ///
    /// # Errors
    /// Same contract as [`crate::GridExecutor::run`].
    pub fn run<K: RoundKernel>(&self, kernel: &K) -> Result<KernelStats, ExecError> {
        self.execute(KernelArg::Borrowed(kernel))
    }

    /// [`LaunchPlan::run`] with an owned kernel, enabling the relaunch
    /// strategy's straggler detachment (see
    /// [`crate::GridExecutor::run_owned`]).
    ///
    /// # Errors
    /// Same contract as [`crate::GridExecutor::run`].
    pub fn run_owned(
        &self,
        kernel: Arc<dyn RoundKernel + Send + Sync>,
    ) -> Result<KernelStats, ExecError> {
        self.execute(KernelArg::Owned(&kernel))
    }

    /// Dispatch one launch to the strategy serving this plan's method.
    pub(crate) fn execute(&self, kernel: KernelArg<'_>) -> Result<KernelStats, ExecError> {
        let k = kernel.as_dyn();
        let mut setup = self.setup(k.rounds())?;
        setup.arm_faults(k);
        k.on_launch(&setup.abort);
        let start = Instant::now();
        let per_block = match self.method {
            SyncMethod::CpuExplicit => run_relaunch(&setup, &kernel),
            _ => run_scoped(&setup, k, start),
        };
        per_block.map(|pb| setup.stats(pb, start.elapsed(), None))
    }
}

/// Per-launch state stamped out by [`LaunchPlan::setup`]: everything the
/// strategies and [`drive_block`] share for exactly one launch.
pub(crate) struct LaunchSetup {
    pub(crate) method: SyncMethod,
    pub(crate) n: usize,
    pub(crate) threads_per_block: usize,
    pub(crate) policy: SyncPolicy,
    pub(crate) rounds: usize,
    /// Fresh per launch: poisoning is permanent, so reuse would leak one
    /// launch's fault into the next.
    pub(crate) barrier: Option<Arc<dyn BarrierShared>>,
    pub(crate) abort: AbortSignal,
    pub(crate) recorder: Option<Arc<EventRecorder>>,
    /// The kernel's [`FaultSchedule`], if it carries one — read by the
    /// pooled runtime to fire assembly-phase faults. Wait-phase faults are
    /// already armed on the barrier by [`LaunchSetup::arm_faults`].
    pub(crate) faults: Option<Arc<FaultSchedule>>,
}

impl LaunchSetup {
    /// Read the kernel's [`RoundKernel::fault_schedule`] once and arm the
    /// injection sites that live outside the round body: wait-phase faults
    /// get a [`WaitFaultInjector`] hook on this launch's fresh barrier;
    /// the schedule itself is kept for the pooled runtime's assembly
    /// phase. No-op (and zero-cost) for kernels without a schedule.
    pub(crate) fn arm_faults(&mut self, kernel: &dyn RoundKernel) {
        let Some(schedule) = kernel.fault_schedule() else {
            return;
        };
        if let Some(sh) = self.barrier.as_ref() {
            WaitFaultInjector::install(&schedule, sh, self.abort.clone(), self.policy);
        }
        self.faults = Some(Arc::new(schedule));
    }

    pub(crate) fn ctx(&self, block_id: usize) -> BlockCtx {
        BlockCtx {
            block_id,
            n_blocks: self.n,
            threads_per_block: self.threads_per_block,
        }
    }

    /// Assemble the uniform [`KernelStats`] every strategy reports:
    /// `launch` is the slowest block's launch share, telemetry comes from
    /// this launch's recorder.
    pub(crate) fn stats(
        &self,
        per_block: Vec<BlockTimes>,
        wall: Duration,
        pool: Option<Box<PoolLaunchStats>>,
    ) -> KernelStats {
        KernelStats {
            method: self.method.to_string(),
            n_blocks: self.n,
            rounds: self.rounds,
            wall,
            launch: per_block.iter().map(|b| b.launch).max().unwrap_or_default(),
            per_block,
            telemetry: self.recorder.as_ref().map(|rec| Box::new(rec.finish())),
            auto: None,
            pool,
        }
    }
}

/// The one true round loop, run once per block per launch by every
/// persistent strategy (scoped threads and pooled workers alike): for each
/// round, execute the kernel body under `catch_unwind` (a panic poisons
/// the barrier via [`BarrierShared::poison`], raises the abort signal, and
/// surfaces as [`ExecError::BlockPanicked`]), then wait on the barrier
/// (bounded by the [`SyncPolicy`]), accumulating compute/sync time and
/// trace events into `t` as it goes. `t.launch` is the caller's to fill —
/// only the strategy knows where its launch boundary is.
pub(crate) fn drive_block(
    setup: &LaunchSetup,
    kernel: &dyn RoundKernel,
    block: usize,
    t: &mut BlockTimes,
) -> Result<(), ExecError> {
    let ctx = setup.ctx(block);
    let mut waiter = setup.barrier.clone().map(|sh| sh.waiter(block));
    for r in 0..setup.rounds {
        let t0 = Instant::now();
        if let Some(rec) = setup.recorder.as_deref() {
            rec.record(block, r, TraceEventKind::RoundStart);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| kernel.round(&ctx, r)));
        if let Err(payload) = outcome {
            if let Some(rec) = setup.recorder.as_deref() {
                rec.record(block, r, TraceEventKind::Abort);
            }
            if let Some(sh) = setup.barrier.as_deref() {
                sh.poison(block, r, PoisonCause::Panic);
            }
            setup.abort.abort();
            return Err(ExecError::BlockPanicked {
                block,
                round: r,
                message: payload_message(&*payload),
            });
        }
        let t1 = Instant::now();
        if let Some(rec) = setup.recorder.as_deref() {
            rec.record(block, r, TraceEventKind::RoundEnd);
        }
        if let Some(w) = waiter.as_mut() {
            if let Err(fault) = w.wait() {
                setup.abort.abort();
                let sh = setup.barrier.as_deref().expect("waiter implies barrier");
                return Err(fault_to_error(fault, sh));
            }
        }
        let t2 = Instant::now();
        t.compute += t1 - t0;
        t.sync += t2 - t1;
        if let Some(rec) = setup.recorder.as_deref() {
            if rec.sampled(r) {
                rec.record_sync(block, (t2 - t1).as_nanos() as u64);
            }
        }
    }
    Ok(())
}

/// Scoped persistent strategy: spawn one thread per block for the whole
/// launch, assemble at a [`LaunchGate`] (pinning `t_O`), then
/// [`drive_block`]. Serves every barrier method — GPU-side, `CpuImplicit`
/// (whose barrier is the driver rendezvous), and `NoSync` (no barrier).
pub(crate) fn run_scoped(
    setup: &LaunchSetup,
    kernel: &dyn RoundKernel,
    run_start: Instant,
) -> Result<Vec<BlockTimes>, ExecError> {
    // Every thread exists by construction, so check-in cannot get stuck:
    // the gate needs no deadline.
    let gate = LaunchGate::new(setup.n, None);
    let results: Vec<Result<BlockTimes, ExecError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..setup.n)
            .map(|b| {
                let gate = &gate;
                s.spawn(move || -> Result<BlockTimes, ExecError> {
                    let mut t = BlockTimes::default();
                    // The launch gate: no block starts round 0 until every
                    // thread exists, so the time to here is the launch's
                    // spawn overhead (t_O), not round-0 sync skew.
                    gate.check_in(b);
                    gate.wait(b, &setup.abort);
                    t.launch = run_start.elapsed();
                    drive_block(setup, kernel, b, &mut t)?;
                    Ok(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine block thread must not panic"))
            .collect()
    });
    collect_block_results(results)
}

/// One block's successful relaunch round: spawn delay, kernel time, and
/// the instant it finished (arrived at the host-side join "barrier").
struct RoundDone {
    spawn_delay: Duration,
    compute: Duration,
    arrived: Instant,
}

/// The state one relaunch round's block threads share with the host.
struct RelaunchRound {
    start: Instant,
    /// Blocks finished this round.
    finished: Mutex<usize>,
    cv: Condvar,
    /// Per-block outcome slots, filled as each block finishes; a detached
    /// straggler's slot stays `None` (only the slot's own thread ever
    /// writes it).
    slots: Vec<Mutex<Option<Result<RoundDone, ExecError>>>>,
}

impl RelaunchRound {
    fn new(n: usize) -> Self {
        RelaunchRound {
            start: Instant::now(),
            finished: Mutex::new(0),
            cv: Condvar::new(),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Block `ctx.block_id`'s thread for round `r`: run the kernel body
    /// under `catch_unwind` and report to the host. Round r's thread is
    /// the block's ring writer this round; the host's join and the next
    /// spawn give the handoff edges.
    fn run_block(
        &self,
        kernel: &dyn RoundKernel,
        ctx: BlockCtx,
        r: usize,
        recorder: Option<&EventRecorder>,
    ) {
        let b = ctx.block_id;
        let t0 = Instant::now();
        if let Some(rec) = recorder {
            rec.record(b, r, TraceEventKind::RoundStart);
        }
        let result = match catch_unwind(AssertUnwindSafe(|| kernel.round(&ctx, r))) {
            Ok(()) => {
                let arrived = Instant::now();
                if let Some(rec) = recorder {
                    rec.record(b, r, TraceEventKind::RoundEnd);
                    rec.record(b, r, TraceEventKind::BarrierArrive);
                }
                Ok(RoundDone {
                    spawn_delay: t0 - self.start,
                    compute: arrived - t0,
                    arrived,
                })
            }
            Err(payload) => {
                if let Some(rec) = recorder {
                    rec.record(b, r, TraceEventKind::Abort);
                }
                Err(ExecError::BlockPanicked {
                    block: b,
                    round: r,
                    message: payload_message(&*payload),
                })
            }
        };
        *self.slots[b].lock() = Some(result);
        *self.finished.lock() += 1;
        self.cv.notify_all();
    }

    /// Wait until every block finished or `deadline` passed; returns
    /// whether every block finished.
    fn wait_all(&self, deadline: Instant) -> bool {
        let n = self.slots.len();
        let mut g = self.finished.lock();
        while *g < n {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let _ = self.cv.wait_for(&mut g, left);
        }
        true
    }

    /// The host-side "cudaThreadSynchronize", bounded by the policy
    /// timeout: on expiry, raise the abort signal so cooperative
    /// stragglers bail out, and return the completion states at the
    /// deadline (a straggler may still finish between deadline and join).
    fn await_deadline(&self, setup: &LaunchSetup) -> Option<Vec<bool>> {
        let timeout = setup.policy.timeout?;
        if self.wait_all(Instant::now() + timeout) {
            return None;
        }
        let snapshot = self.slots.iter().map(|s| s.lock().is_some()).collect();
        setup.abort.abort();
        Some(snapshot)
    }
}

/// Relaunch strategy (CPU explicit synchronization): spawn + join every
/// round. The "barrier" is the host's join, so the policy timeout bounds
/// the host's wait for all blocks to finish each round.
///
/// Time attribution per block per round: spawn delay (thread creation
/// until the kernel starts) goes to `launch`, the kernel body to
/// `compute`, and finish-until-release (everyone joined) to `sync` — so
/// `sync` measures the synchronizing wait itself and does not absorb
/// thread-startup overhead on short runs.
///
/// When the policy deadline expires, the host raises the abort signal and
/// then joins. An owned kernel's round threads are detached
/// `thread::spawn`s: the host *watchdog-joins* them, granting cooperative
/// stragglers a short grace period to observe the signal and exit, then
/// detaching any thread still stuck in non-cooperative kernel code, so
/// the run returns [`ExecError::BarrierTimeout`] within the bound rather
/// than hanging. Detached threads co-own (via `Arc`) everything they can
/// still touch. A borrowed kernel's round threads are scoped
/// (`thread::scope`), so they are always joined before the borrow ends.
pub(crate) fn run_relaunch(
    setup: &LaunchSetup,
    kernel: &KernelArg<'_>,
) -> Result<Vec<BlockTimes>, ExecError> {
    let n = setup.n;
    let recorder = setup.recorder.as_deref();
    let mut times = vec![BlockTimes::default(); n];
    for r in 0..setup.rounds {
        let round = Arc::new(RelaunchRound::new(n));
        let deadline_snapshot = match kernel {
            KernelArg::Owned(k) => {
                let handles: Vec<std::thread::JoinHandle<()>> = (0..n)
                    .map(|b| {
                        let (k, round, ctx) = (Arc::clone(k), Arc::clone(&round), setup.ctx(b));
                        let recorder = setup.recorder.clone();
                        std::thread::spawn(move || {
                            round.run_block(&*k, ctx, r, recorder.as_deref())
                        })
                    })
                    .collect();
                let snapshot = round.await_deadline(setup);
                if snapshot.is_some() {
                    // Watchdog join: a grace period for cooperative
                    // stragglers to observe the abort, then detach
                    // whoever is still stuck in kernel code.
                    let grace = setup
                        .policy
                        .timeout
                        .unwrap_or_default()
                        .clamp(Duration::from_millis(10), Duration::from_secs(1));
                    round.wait_all(Instant::now() + grace);
                }
                for h in handles {
                    // An unfinished thread after the watchdog is detached:
                    // it co-owns (Arc) the kernel, round state and
                    // recorder, and the deadline snapshot reports it.
                    if snapshot.is_none() || h.is_finished() {
                        h.join().expect("engine block thread must not panic");
                    }
                }
                snapshot
            }
            KernelArg::Borrowed(k) => std::thread::scope(|s| {
                for b in 0..n {
                    let (round, ctx) = (&round, setup.ctx(b));
                    s.spawn(move || round.run_block(*k, ctx, r, recorder));
                }
                round.await_deadline(setup)
            }),
        };

        // Every block is released the moment the last join completed.
        let release = Instant::now();
        let mut origin: Option<ExecError> = None;
        let mut released: Vec<(usize, Instant)> = Vec::new();
        for (b, slot) in round.slots.iter().enumerate() {
            match slot.lock().take() {
                Some(Ok(d)) => {
                    times[b].launch += d.spawn_delay;
                    times[b].compute += d.compute;
                    times[b].sync += release.saturating_duration_since(d.arrived);
                    released.push((b, d.arrived));
                }
                Some(Err(e)) => {
                    origin.get_or_insert(e);
                }
                // A detached straggler never filled its slot; the
                // deadline snapshot reports it.
                None => {}
            }
        }
        if let Some(e) = origin {
            return Err(e);
        }
        if let Some(snapshot) = deadline_snapshot {
            // Any block not done at the deadline was the straggler, even
            // if it finished between deadline and join.
            let arrivals: Vec<u64> = snapshot.iter().map(|&d| r as u64 + u64::from(d)).collect();
            let waiting_block = arrivals.iter().position(|&a| a > r as u64).unwrap_or(0);
            let straggler = arrivals
                .iter()
                .position(|&a| a <= r as u64)
                .unwrap_or(waiting_block);
            return Err(ExecError::BarrierTimeout {
                diagnostic: Box::new(StuckDiagnostic {
                    barrier: "cpu-explicit".to_string(),
                    waiting_block,
                    round: r,
                    flag: format!("join of round {r}"),
                    timeout: setup.policy.timeout.unwrap_or_default(),
                    departures: arrivals.iter().map(|a| a.saturating_sub(1)).collect(),
                    arrivals,
                    recent_events: recorder
                        .map(|rec| {
                            rec.tail(straggler, 8)
                                .iter()
                                .map(|e| e.to_string())
                                .collect()
                        })
                        .unwrap_or_default(),
                    phase: StuckPhase::Barrier,
                }),
            });
        }
        // Host-stamped departures: every block leaves the join barrier at
        // `release`, the same instant the sync accounting uses. Round r's
        // thread has joined, so writing its ring here is the sequential
        // half of the single-writer handoff.
        if let Some(rec) = recorder {
            let at = release.saturating_duration_since(rec.epoch());
            for &(b, arrived) in &released {
                rec.record_at(b, r, TraceEventKind::BarrierDepart, at);
                if rec.sampled(r) {
                    rec.record_sync(
                        b,
                        release.saturating_duration_since(arrived).as_nanos() as u64,
                    );
                }
            }
        }
    }
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmem::GlobalBuffer;
    use crate::method::TreeLevels;

    struct Count {
        slots: GlobalBuffer<u64>,
        rounds: usize,
    }

    impl RoundKernel for Count {
        fn rounds(&self) -> usize {
            self.rounds
        }
        fn round(&self, ctx: &BlockCtx, _round: usize) {
            let b = ctx.block_id;
            self.slots.set(b, self.slots.get(b) + 1);
        }
    }

    #[test]
    fn compile_rejects_auto() {
        let err = LaunchPlan::compile(GridConfig::new(4, 8), SyncMethod::Auto).unwrap_err();
        assert!(matches!(err, ExecError::BarrierUnavailable { .. }), "{err}");
    }

    #[test]
    fn compile_validates_the_grid() {
        assert!(LaunchPlan::compile(GridConfig::new(0, 8), SyncMethod::GpuSimple).is_err());
        assert!(LaunchPlan::compile(GridConfig::new(31, 8), SyncMethod::GpuSimple).is_err());
        assert!(LaunchPlan::compile(GridConfig::new(31, 8), SyncMethod::CpuImplicit).is_ok());
    }

    #[test]
    fn one_plan_serves_many_launches() {
        let plan = LaunchPlan::compile(GridConfig::new(4, 8), SyncMethod::GpuLockFree).unwrap();
        assert_eq!(plan.method(), SyncMethod::GpuLockFree);
        assert_eq!(plan.config().n_blocks, 4);
        for _ in 0..3 {
            let k = Count {
                slots: GlobalBuffer::new(4),
                rounds: 10,
            };
            let stats = plan.run(&k).unwrap();
            assert_eq!(stats.rounds, 10);
            assert!(k.slots.to_vec().iter().all(|&v| v == 10));
        }
    }

    #[test]
    fn plan_runs_every_concrete_method() {
        for method in [
            SyncMethod::CpuExplicit,
            SyncMethod::CpuImplicit,
            SyncMethod::GpuSimple,
            SyncMethod::GpuTree(TreeLevels::Two),
            SyncMethod::GpuLockFree,
            SyncMethod::SenseReversing,
            SyncMethod::Dissemination,
            SyncMethod::NoSync,
        ] {
            let plan = LaunchPlan::compile(GridConfig::new(3, 8), method).unwrap();
            let k = Count {
                slots: GlobalBuffer::new(3),
                rounds: 7,
            };
            let stats = plan.run(&k).unwrap();
            assert_eq!(stats.method, method.to_string());
            assert!(k.slots.to_vec().iter().all(|&v| v == 7), "{method}");
        }
    }

    #[test]
    fn parked_gate_waiter_is_released_by_the_late_check_in() {
        // Under Park, a block whose peer checks in 20 ms late spends its
        // spin budget and parks; the late check-in's record_arrival wakes
        // it and opens the gate.
        let gate = LaunchGate::new(2, Some(Duration::from_secs(5)));
        let abort = AbortSignal::new();
        let (parked, checked_in, stuck, released) = std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                gate.check_in(0);
                (gate.wait(0, &abort), Instant::now())
            });
            std::thread::sleep(Duration::from_millis(20));
            let parked = crate::barrier::harness::parked_count(&gate.control);
            let checked_in = Instant::now();
            gate.check_in(1);
            let (stuck, released) = waiter.join().unwrap();
            (parked, checked_in, stuck, released)
        });
        assert_eq!(parked, 1, "the early block never parked");
        assert_eq!(stuck, None, "a complete gate reports no stuck block");
        assert!(
            released >= checked_in,
            "the gate opened before the late peer"
        );
        assert!(released - checked_in < Duration::from_secs(2));
        assert_eq!(gate.arrivals(), vec![1, 1]);
    }

    #[test]
    fn gate_timeout_names_the_first_block_that_never_checked_in() {
        // Every worker entered (so the deadline runs); only block 1
        // checked in.
        let gate = LaunchGate::new(3, Some(Duration::from_millis(20)));
        (0..3).for_each(|_| gate.enter());
        gate.check_in(1);
        assert_eq!(gate.wait(1, &AbortSignal::new()), Some(0));
        assert_eq!(gate.arrivals(), vec![0, 1, 0]);
    }

    #[test]
    fn launch_time_comes_from_the_gate_scoped_and_pooled() {
        use crate::fault::{Fault, FaultInjector, FaultKind, FaultSchedule};
        use crate::runtime::GridRuntime;

        let count = || Count {
            slots: GlobalBuffer::new(3),
            rounds: 5,
        };
        let check = |stats: &KernelStats| {
            assert!(stats.per_block.iter().all(|b| b.launch > Duration::ZERO));
            let slowest = stats.per_block.iter().map(|b| b.launch).max().unwrap();
            assert_eq!(stats.launch, slowest);
            assert!(stats.launch <= stats.wall);
        };
        let cfg = GridConfig::new(3, 8);
        check(
            &LaunchPlan::compile(cfg.clone(), SyncMethod::GpuSimple)
                .unwrap()
                .run(&count())
                .unwrap(),
        );
        // A pooled block that checks in 20 ms late holds every peer at the
        // gate, so every block's launch share absorbs the delay.
        let rt = GridRuntime::new(cfg, SyncMethod::GpuSimple).unwrap();
        let late = FaultSchedule::new(vec![Fault::in_assembly(
            1,
            FaultKind::Delay(Duration::from_millis(20)),
        )]);
        let stats = rt
            .run(&FaultInjector::with_schedule(count(), late))
            .unwrap();
        check(&stats);
        for (b, t) in stats.per_block.iter().enumerate() {
            assert!(
                t.launch >= Duration::from_millis(20),
                "block {b} left the gate before the late peer: {:?}",
                t.launch
            );
        }
    }

    #[test]
    fn owned_plan_run_matches_borrowed() {
        let plan = LaunchPlan::compile(GridConfig::new(2, 8), SyncMethod::CpuExplicit).unwrap();
        let k = Arc::new(Count {
            slots: GlobalBuffer::new(2),
            rounds: 4,
        });
        let stats = plan.run_owned(Arc::clone(&k) as _).unwrap();
        assert_eq!(stats.rounds, 4);
        assert!(k.slots.to_vec().iter().all(|&v| v == 4));
    }
}
