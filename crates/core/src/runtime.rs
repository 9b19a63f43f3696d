//! Persistent grid runtime: pooled per-block workers with pipelined
//! launches.
//!
//! [`crate::GridExecutor::run`] pays the full launch overhead `t_O` of
//! Eq. 1 on every call: `n_blocks` fresh OS threads are spawned, hit the
//! start gate, and are joined again at the end. That is the host analogue
//! of a cold `cudaLaunch` — exactly the cost the paper's persistent-kernel
//! design (Section 4.3) amortizes away. [`GridRuntime`] is the
//! persistent-host counterpart: the per-block workers are spawned **once at
//! construction** and stay resident, and every subsequent launch is a
//! *warm* dispatch through a launch queue, the pipelined-relaunch shape of
//! the paper's CPU implicit sync (Section 4.2) applied to whole kernels
//! instead of rounds. No CPU affinity is set: the OS scheduler places the
//! resident workers, steered only by the wake discipline below.
//!
//! The pool is a *strategy* over the shared launch engine: it compiles one
//! [`LaunchPlan`] at construction, stamps a fresh
//! [`crate::launch::LaunchSetup`] per submission, and each resident worker
//! runs the same [`drive_block`] round loop the scoped executor uses —
//! only thread lifetime (resident vs spawned) and the warm-launch
//! accounting differ.
//!
//! ## Launch log
//!
//! Submissions append to a monotonically numbered launch log; each worker
//! consumes the log in order with a private cursor, so back-to-back
//! [`GridRuntime::submit`] calls pipeline: block `b` can start launch
//! `k+1` the moment it finished its part of launch `k`, without a global
//! drain barrier in between. [`LaunchHandle::wait`] resolves one launch to
//! its [`crate::KernelStats`]. This in-order pipelined consumption is
//! exactly the paper's implicit-sync launch queue, which is why
//! `CpuImplicit` runs pooled natively: its driver rendezvous
//! ([`crate::CpuImplicitSync`]) is just another barrier to the engine.
//!
//! ## Wake discipline
//!
//! The paper's barriers assume every block is resident on its own SM at
//! once. Waking all sleeping workers from the submitting thread breaks
//! that on a small host: the scheduler pulls every wakee onto the waker's
//! CPU, and each barrier round of a short launch becomes a spin burst plus
//! a context switch. So each worker sleeps on its **own** condvar and the
//! pool wakes them as a chain: `enqueue` wakes worker 0 only, and each
//! worker, once it has taken its launch off the log and released the pool
//! lock, wakes its successor. Every wake thus comes from a different,
//! already-running thread, and the scheduler spreads the wakees over idle
//! CPUs. A worker still busy on an earlier launch passes the wake on when
//! it takes the next one (it checks the log before it sleeps), which costs
//! nothing: the launch cannot assemble without it anyway. Worker
//! replacement and shutdown wake every worker. On the completion side, a
//! block's report wakes the waiting host only when it is the last one or
//! a failure (which starts the abandonment clock).
//!
//! ## Fault semantics
//!
//! Barrier poisoning is permanent, so every launch gets a **fresh
//! barrier**; a panicked or timed-out launch therefore cannot contaminate
//! the next one. Workers survive kernel panics (the round body is run
//! under `catch_unwind`, like the scoped executor). A worker that is stuck
//! *inside* non-cooperative kernel code cannot be preempted; for launches
//! submitted by ownership ([`GridRuntime::submit`]), the host abandons the
//! launch after a grace period past the policy timeout, synthesizes a
//! [`crate::StuckDiagnostic`] for the missing block, and **replaces** the
//! stuck worker with a fresh one so the pool stays usable — the stale
//! thread parks itself permanently on the leaked kernel `Arc` and exits if
//! it ever returns. Borrowed launches ([`GridRuntime::run`]) must instead
//! wait for full completion before returning — the kernel is only
//! guaranteed alive for the duration of the call — so they bound barrier
//! waits (via [`crate::SyncPolicy`]) but not kernel code itself, matching
//! the scoped executor's contract.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::barrier::PoisonCause;
use crate::error::{ExecError, StuckDiagnostic, StuckPhase};
use crate::executor::{GridConfig, RoundKernel};
use crate::fault::{hold_straggler, FaultKind, FaultPhase};
use crate::launch::{collect_block_results, drive_block, LaunchGate, LaunchPlan, LaunchSetup};
use crate::method::SyncMethod;
use crate::obs::{LaunchRecord, Observer};
use crate::stats::{BlockTimes, KernelStats};
use crate::trace::TraceEventKind;

/// Pool-side launch accounting attached to [`KernelStats::pool`] for runs
/// executed by a [`GridRuntime`]. The warm `t_O` itself is
/// [`KernelStats::launch`] (dispatch → all workers assembled); this struct
/// carries the queueing context around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolLaunchStats {
    /// Zero-based sequence number of this launch on its pool. Sequence 0
    /// is the cold launch (it overlaps worker spawning).
    pub launch_seq: u64,
    /// Launches still pending ahead of this one at submit time (pipelining
    /// depth).
    pub queue_depth: usize,
    /// Submit → first worker picked the launch up. Nonzero queueing delay
    /// means the pool was still busy with earlier launches.
    pub queued: Duration,
    /// Whether this was the pool's cold (first) launch.
    pub cold: bool,
}

use kernel_ref::KernelRef;

/// The crate's one lifetime erasure, kept because the borrowed
/// [`GridRuntime::run`] hands a `&K` to resident workers (see the
/// `unsafe_code` note in the crate docs).
#[allow(unsafe_code)]
mod kernel_ref {
    use std::sync::Arc;

    use crate::executor::RoundKernel;

    /// Erased kernel reference carried by a launch.
    pub(super) enum KernelRef {
        /// `submit()`: the pool co-owns the kernel, so a stuck worker can
        /// be abandoned safely (it keeps its own `Arc` alive).
        Owned(Arc<dyn RoundKernel + Send + Sync>),
        /// `run()`: a borrowed kernel. Soundness contract: the submitting
        /// call does not return until every block recorded its result, so
        /// the referent outlives every dereference.
        Borrowed(*const (dyn RoundKernel + 'static)),
    }

    // SAFETY: the Borrowed pointer is only dereferenced by pool workers
    // while the borrowing `GridRuntime::run` call is still blocked waiting
    // for all of them (see `KernelRef::Borrowed`); `RoundKernel: Sync`
    // makes the shared access itself sound.
    unsafe impl Send for KernelRef {}
    unsafe impl Sync for KernelRef {}

    impl KernelRef {
        /// # Safety
        /// `kernel` must outlive every [`KernelRef::get`] on the result
        /// (the `run()` completion protocol above).
        pub(super) unsafe fn borrowed(kernel: &dyn RoundKernel) -> Self {
            KernelRef::Borrowed(std::mem::transmute::<
                *const dyn RoundKernel,
                *const (dyn RoundKernel + 'static),
            >(kernel))
        }

        /// # Safety
        /// For `Borrowed`, the caller must guarantee the referent is still
        /// alive (the `run()` completion protocol above).
        pub(super) unsafe fn get(&self) -> &dyn RoundKernel {
            match self {
                KernelRef::Owned(k) => &**k,
                KernelRef::Borrowed(p) => &**p,
            }
        }
    }
}

/// Completion state of one launch.
struct LaunchDone {
    /// Per-block result slots; a slot is written exactly once (worker or
    /// host-side abandonment, whichever comes first).
    results: Vec<Option<Result<BlockTimes, ExecError>>>,
    finished: usize,
    /// When the first failed block reported, starting the abandonment
    /// grace clock.
    first_failure: Option<Instant>,
    abandoned: bool,
}

/// One entry of the launch log: the engine's per-launch state
/// ([`LaunchSetup`]: fresh barrier, recorder, abort) plus the pool's
/// queueing and completion bookkeeping.
struct Launch {
    seq: u64,
    kernel: KernelRef,
    setup: LaunchSetup,
    queue_depth: usize,
    submitted: Instant,
    /// When the first worker picked this launch up (end of queueing).
    activated: Mutex<Option<Instant>>,
    /// Assembly gate marking the warm-launch boundary. Abort releases it,
    /// since a resident peer may never arrive once the launch has failed;
    /// its policy deadline turns a worker stuck *before* the gate into a
    /// [`StuckPhase::Assembly`] failure, with its check-in table as the
    /// diagnostic's progress table.
    gate: LaunchGate,
    done: Mutex<LaunchDone>,
    done_cv: Condvar,
}

impl Launch {
    fn is_abandoned(&self) -> bool {
        self.done.lock().abandoned
    }

    /// Diagnostic for a block stuck waiting at (or never reaching) the
    /// assembly gate, reported in [`StuckPhase::Assembly`] so it cannot
    /// masquerade as a round-0 body fault.
    fn assembly_diagnostic(&self, waiting_block: usize, timeout: Duration) -> Box<StuckDiagnostic> {
        let arrivals = self.gate.arrivals();
        Box::new(StuckDiagnostic {
            barrier: self
                .setup
                .barrier
                .as_deref()
                .map_or("pooled:no-sync".to_string(), |sh| {
                    format!("pooled:{}", sh.name())
                }),
            waiting_block,
            round: 0,
            flag: format!("launch {} assembly gate", self.seq),
            timeout,
            departures: vec![0; self.setup.n],
            arrivals,
            recent_events: Vec::new(),
            phase: StuckPhase::Assembly,
        })
    }

    /// Store `res` for `block` unless the slot was already filled (e.g. by
    /// host-side abandonment racing a late worker), or the launch was
    /// already settled entirely (`wait_launch` takes the results vector
    /// once finished — a replaced worker waking from a stall may report
    /// long after; its report is dropped, never an index panic).
    fn record_result(&self, block: usize, res: Result<BlockTimes, ExecError>) {
        let mut g = self.done.lock();
        match g.results.get(block) {
            None | Some(Some(_)) => return,
            Some(None) => {}
        }
        let failed = res.is_err();
        if failed {
            g.first_failure.get_or_insert_with(Instant::now);
            self.setup.abort.abort();
        }
        g.results[block] = Some(res);
        g.finished += 1;
        // The host only acts on completion or on a failure (which starts
        // the abandonment grace clock), so intermediate reports stay quiet.
        if failed || g.finished == self.setup.n {
            self.done_cv.notify_all();
        }
    }
}

/// Shared pool state.
struct Shared {
    state: Mutex<PoolState>,
    /// One wake condvar per block worker, all paired with `state` (see
    /// the module docs' wake discipline).
    wake: Vec<Condvar>,
    /// Cross-launch observability plane, fed once per completed launch by
    /// the *host* thread resolving it (never by workers — spin loops stay
    /// free of registry traffic).
    obs: Arc<Observer>,
    /// Shard label stamped into every [`LaunchRecord`] this pool emits.
    /// `None` for standalone pools (their gauge samples land under the
    /// registry's `"default"` shard slot); set by [`crate::GridService`]
    /// so per-shard registry families never alias across shards.
    shard_label: Mutex<Option<String>>,
}

struct PoolState {
    /// Launch log: `queue[i]` has sequence `first_seq + i`. Entries are
    /// pruned once every worker's cursor has passed them.
    queue: VecDeque<Arc<Launch>>,
    first_seq: u64,
    next_seq: u64,
    /// Per-block worker generation; bumping it retires the incumbent
    /// worker (it exits at its next dispatch point).
    gens: Vec<u64>,
    /// Per-block launch cursor (next sequence the block's worker will
    /// execute).
    cursors: Vec<u64>,
    shutdown: bool,
}

impl Shared {
    /// Wake every worker (replacement and shutdown). `notify_all` per
    /// condvar, so a retired worker still queued on its slot's condvar
    /// cannot absorb the wake meant for its successor.
    fn wake_all(&self) {
        for cv in &self.wake {
            cv.notify_all();
        }
    }
}

fn spawn_worker(shared: Arc<Shared>, block: usize, gen: u64, cursor: u64) {
    let builder = std::thread::Builder::new().name(format!("blocksync-pool-{block}"));
    builder
        .spawn(move || worker_loop(&shared, block, gen, cursor))
        .expect("spawning a pool worker thread failed");
}

fn worker_loop(shared: &Arc<Shared>, block: usize, gen: u64, mut cursor: u64) {
    loop {
        let launch = {
            let mut st = shared.state.lock();
            loop {
                if st.shutdown || st.gens[block] != gen {
                    return;
                }
                if cursor < st.next_seq {
                    let idx = (cursor - st.first_seq) as usize;
                    break Arc::clone(&st.queue[idx]);
                }
                shared.wake[block].wait(&mut st);
            }
        };
        // Pass the wake on from this (running) thread, outside the lock.
        if let Some(next) = shared.wake.get(block + 1) {
            next.notify_all();
        }
        // A launch the host already gave up on: its results were
        // synthesized, so just step over it.
        if !launch.is_abandoned() {
            run_launch(&launch, block);
        }
        cursor += 1;
        let mut st = shared.state.lock();
        if st.gens[block] != gen {
            return; // replaced while running: the successor owns the cursor
        }
        st.cursors[block] = cursor;
        let min = st.cursors.iter().copied().min().unwrap_or(cursor);
        while st.first_seq < min && !st.queue.is_empty() {
            st.queue.pop_front();
            st.first_seq += 1;
        }
    }
}

/// Execute one launch for `block`: stamp the activation, fire any
/// scheduled assembly-phase fault, assemble at the gate, then hand off to
/// the engine's shared [`drive_block`] round loop — the pooled strategy
/// contributes only the warm-`t_O` accounting and the assembly phase here.
fn run_launch(launch: &Arc<Launch>, block: usize) {
    // SAFETY: Owned refs are kept alive by the Arc in the launch log;
    // Borrowed refs are alive per the `GridRuntime::run` completion
    // protocol (see `KernelRef`).
    #[allow(unsafe_code)]
    let kernel = unsafe { launch.kernel.get() };
    launch.activated.lock().get_or_insert_with(Instant::now);
    launch.gate.enter();
    let setup = &launch.setup;
    // Scheduled assembly-phase fault: misbehave *before* checking in at
    // the gate, so peers observe this block as never-assembled.
    if let Some(f) = setup
        .faults
        .as_deref()
        .and_then(|s| s.fault_at(block, 0, FaultPhase::Assembly))
    {
        match f.kind {
            FaultKind::Panic => {
                // A worker thread must not unwind, so an assembly "panic"
                // is reported directly: poison + abort so peers drain,
                // and the origin error names the assembly site.
                if let Some(sh) = setup.barrier.as_deref() {
                    sh.poison(block, 0, PoisonCause::Panic);
                }
                setup.abort.abort();
                launch.record_result(
                    block,
                    Err(ExecError::BlockPanicked {
                        block,
                        round: 0,
                        message: format!("injected fault: block {block} during pooled assembly"),
                    }),
                );
                return;
            }
            FaultKind::Delay(by) | FaultKind::Stall(by) => std::thread::sleep(by),
            FaultKind::Straggler => {
                // Cooperative: hold off checking in until a peer's gate
                // deadline fails the launch (or the backstop trips), then
                // report this block's own Assembly-phase origin error —
                // never checking in, so peers see it as never-assembled.
                let released = || {
                    setup.abort.is_aborted()
                        || setup
                            .barrier
                            .as_deref()
                            .is_some_and(|sh| sh.control().poisoned().is_some())
                };
                if !hold_straggler(&setup.policy, released) {
                    if let Some(sh) = setup.barrier.as_deref() {
                        sh.poison(block, 0, PoisonCause::Timeout);
                    }
                    setup.abort.abort();
                }
                let timeout = setup.policy.timeout.unwrap_or_default();
                launch.record_result(
                    block,
                    Err(ExecError::BarrierTimeout {
                        diagnostic: launch.assembly_diagnostic(block, timeout),
                    }),
                );
                return;
            }
        }
    }
    launch.gate.check_in(block);
    if let Some(stuck) = launch.gate.wait(block, &setup.abort) {
        // Poison + abort only: this observer (and every peer) falls
        // through to drive_block and fails fast with a derived error,
        // setting `first_failure`; the stuck block's slot stays empty so
        // the handle's abandonment synthesizes the Assembly-phase origin
        // error and replaces its worker — one self-heal path for stuck
        // assembly and stuck rounds alike.
        if let Some(sh) = setup.barrier.as_deref() {
            sh.poison(stuck, 0, PoisonCause::Timeout);
        }
        setup.abort.abort();
    }
    let base = (*launch.activated.lock()).expect("activation is stamped before the gate");
    let mut t = BlockTimes {
        // Warm t_O: dispatch (first pickup) -> this worker assembled.
        launch: Instant::now().saturating_duration_since(base),
        ..BlockTimes::default()
    };
    if let Some(rec) = setup.recorder.as_deref() {
        rec.record(block, 0, TraceEventKind::Launch);
    }
    let res = drive_block(setup, kernel, block, &mut t).map(|()| t);
    launch.record_result(block, res);
}

/// A pending pooled launch; resolves to the launch's [`KernelStats`].
///
/// Handles should be waited in submission order when pipelining — workers
/// consume the launch log in order, so an abandoned early launch is only
/// detected (and its stuck worker replaced) by waiting on *its* handle.
#[must_use = "a LaunchHandle does nothing until waited"]
pub struct LaunchHandle {
    shared: Arc<Shared>,
    launch: Arc<Launch>,
}

impl LaunchHandle {
    /// This launch's pool sequence number.
    pub fn seq(&self) -> u64 {
        self.launch.seq
    }

    /// Whether every block has reported (or the launch was abandoned).
    pub fn is_done(&self) -> bool {
        self.launch.done.lock().finished >= self.launch.setup.n
    }

    /// Block until the launch completes and return its stats.
    ///
    /// With a [`crate::SyncPolicy`] timeout set, a block stuck in
    /// non-cooperative kernel code is given a grace period past the first
    /// observed failure, then abandoned: the wait returns
    /// [`ExecError::BarrierTimeout`] with a synthesized
    /// [`StuckDiagnostic`], and the stuck worker is replaced so the pool
    /// stays usable.
    ///
    /// # Errors
    /// The merged per-block error of the launch, origin first — the same
    /// contract as [`crate::GridExecutor::run`].
    pub fn wait(self) -> Result<KernelStats, ExecError> {
        wait_launch(&self.shared, &self.launch, true)
    }
}

fn wait_launch(
    shared: &Arc<Shared>,
    launch: &Arc<Launch>,
    allow_abandon: bool,
) -> Result<KernelStats, ExecError> {
    let n = launch.setup.n;
    let mut replaced: Vec<usize> = Vec::new();
    let results: Vec<Result<BlockTimes, ExecError>> = {
        let mut g = launch.done.lock();
        let abandon_after = launch.setup.policy.timeout.filter(|_| allow_abandon);
        while g.finished < n {
            match (abandon_after, g.first_failure) {
                // Grace past the first observed failure before the launch
                // is abandoned; the policy can override the default
                // derivation (see `SyncPolicy::abandon_grace`).
                (Some(timeout), Some(first)) => {
                    let deadline = first + launch.setup.policy.effective_abandon_grace();
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        abandon(launch, &mut g, timeout, &mut replaced);
                        break;
                    }
                    let _ = launch.done_cv.wait_for(&mut g, left);
                }
                _ => launch.done_cv.wait(&mut g),
            }
        }
        std::mem::take(&mut g.results)
            .into_iter()
            .map(|r| r.expect("every slot is filled once finished == n"))
            .collect()
    };
    if !replaced.is_empty() {
        replace_workers(shared, &replaced, launch.seq);
    }
    let wall = launch.submitted.elapsed();
    let activated = (*launch.activated.lock()).unwrap_or(launch.submitted);
    let queued = activated.saturating_duration_since(launch.submitted);
    let result = collect_block_results(results).map(|per_block| {
        launch.setup.stats(
            per_block,
            wall,
            Some(Box::new(PoolLaunchStats {
                launch_seq: launch.seq,
                queue_depth: launch.queue_depth,
                queued,
                cold: launch.seq == 0,
            })),
        )
    });
    if shared.obs.is_enabled() {
        let mut rec = match &result {
            Ok(stats) => LaunchRecord::from_stats(stats),
            Err(e) => {
                let mut rec = LaunchRecord::from_error(launch.setup.method.to_string(), e, wall);
                rec.seq = launch.seq;
                rec.pooled = true;
                rec.queue_depth = launch.queue_depth;
                rec.queued = queued;
                rec.cold = launch.seq == 0;
                rec.recent_events = recent_events(launch);
                rec
            }
        };
        rec.replacements = replaced.len();
        rec.shard = shared.shard_label.lock().clone();
        if let Some(f) = launch.setup.faults.as_deref() {
            rec = rec.with_faults(f);
        }
        shared.obs.observe(rec);
    }
    result
}

/// Per-block trailing trace events of a failed launch, for the flight
/// recorder (empty when the trace plane is compiled out or not enabled).
fn recent_events(launch: &Launch) -> Vec<String> {
    let Some(rec) = launch.setup.recorder.as_deref() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for b in 0..launch.setup.n {
        for e in rec.tail(b, 8) {
            out.push(format!("b{b}: {e}"));
        }
    }
    out
}

/// Give up on the blocks that never reported: synthesize their timeout
/// diagnostics, poison the launch so stragglers that eventually wake fail
/// fast, and note them for worker replacement. Poisoning goes through the
/// [`crate::BarrierShared::poison`] hook so barriers whose waiters sleep
/// (the CPU-implicit condvar rendezvous) are woken, not just flagged.
fn abandon(launch: &Launch, g: &mut LaunchDone, timeout: Duration, replaced: &mut Vec<usize>) {
    g.abandoned = true;
    launch.setup.abort.abort();
    let (arrivals, departures) = match launch.setup.barrier.as_deref() {
        Some(sh) => sh.control().progress(),
        None => (vec![0; launch.setup.n], vec![0; launch.setup.n]),
    };
    for (b, checked_in) in launch.gate.arrivals().into_iter().enumerate() {
        if g.results[b].is_some() {
            continue;
        }
        let round = arrivals.get(b).copied().unwrap_or(0) as usize;
        if let Some(sh) = launch.setup.barrier.as_deref() {
            sh.poison(b, round, PoisonCause::Timeout);
        }
        // A worker that never even checked in at the assembly gate was
        // stuck *before* round 0 — report the assembly phase (with the
        // gate's check-in bits as its progress table) so the diagnostic
        // does not masquerade as a round-0 body fault.
        let diagnostic = if checked_in != 0 {
            Box::new(StuckDiagnostic {
                barrier: launch
                    .setup
                    .barrier
                    .as_deref()
                    .map_or("pooled:no-sync".to_string(), |sh| {
                        format!("pooled:{}", sh.name())
                    }),
                waiting_block: b,
                round,
                flag: format!("launch {} abandoned; worker replaced", launch.seq),
                timeout,
                arrivals: arrivals.clone(),
                departures: departures.clone(),
                recent_events: launch
                    .setup
                    .recorder
                    .as_deref()
                    .map(|rec| rec.tail(b, 8).iter().map(|e| e.to_string()).collect())
                    .unwrap_or_default(),
                phase: StuckPhase::Barrier,
            })
        } else {
            let mut d = launch.assembly_diagnostic(b, timeout);
            d.flag = format!(
                "launch {} abandoned in assembly; worker replaced",
                launch.seq
            );
            d
        };
        g.results[b] = Some(Err(ExecError::BarrierTimeout { diagnostic }));
        g.finished += 1;
        replaced.push(b);
    }
}

/// Retire the stuck workers and spawn fresh ones starting after the
/// abandoned launch (its results were already synthesized).
fn replace_workers(shared: &Arc<Shared>, blocks: &[usize], after_seq: u64) {
    let mut st = shared.state.lock();
    if st.shutdown {
        return;
    }
    for &b in blocks {
        st.gens[b] += 1;
        st.cursors[b] = after_seq + 1;
        spawn_worker(Arc::clone(shared), b, st.gens[b], after_seq + 1);
    }
    drop(st);
    shared.wake_all();
}

/// Persistent per-block worker pool with a pipelined launch queue — the
/// host-runtime realization of the paper's "launch the kernel only once"
/// persistence, extended across kernels. See the module docs for the
/// launch-log and fault-recovery design.
pub struct GridRuntime {
    shared: Arc<Shared>,
    plan: LaunchPlan,
}

impl std::fmt::Debug for GridRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridRuntime")
            .field("n_blocks", &self.plan.config().n_blocks)
            .field("method", &self.plan.method())
            .finish()
    }
}

impl GridRuntime {
    /// Whether `method` can run on a persistent pool. Everything can
    /// except `CpuExplicit` — whose whole point is relaunching from the
    /// host every round — and `Auto`, which must resolve to a concrete
    /// method first. `CpuImplicit` pools natively: the launch log's
    /// in-order pipelined consumption *is* implicit sync, with the driver
    /// rendezvous as its barrier.
    pub fn supports(method: SyncMethod) -> bool {
        !matches!(method, SyncMethod::CpuExplicit | SyncMethod::Auto)
    }

    /// Build the pool and spawn one resident worker per block.
    ///
    /// # Errors
    /// [`ExecError::Device`] for an invalid grid shape;
    /// [`ExecError::RuntimeUnsupported`] for `CpuExplicit` or `Auto`.
    pub fn new(cfg: GridConfig, method: SyncMethod) -> Result<GridRuntime, ExecError> {
        Self::new_with_observer(cfg, method, Observer::new())
    }

    /// [`GridRuntime::new`] sharing an existing [`Observer`] — used by
    /// [`crate::GridService`] so every shard lands in one registry, and by
    /// the `obs_overhead` bench to pass a [`Observer::disabled`] control
    /// arm.
    ///
    /// # Errors
    /// See [`GridRuntime::new`].
    pub fn new_with_observer(
        cfg: GridConfig,
        method: SyncMethod,
        obs: Arc<Observer>,
    ) -> Result<GridRuntime, ExecError> {
        if !Self::supports(method) {
            return Err(ExecError::RuntimeUnsupported {
                method: method.to_string(),
            });
        }
        let plan = LaunchPlan::compile(cfg, method)?;
        let n = plan.config().n_blocks;
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                first_seq: 0,
                next_seq: 0,
                gens: vec![0; n],
                cursors: vec![0; n],
                shutdown: false,
            }),
            wake: (0..n).map(|_| Condvar::new()).collect(),
            obs,
            shard_label: Mutex::new(None),
        });
        for b in 0..n {
            spawn_worker(Arc::clone(&shared), b, 0, 0);
        }
        Ok(GridRuntime { shared, plan })
    }

    /// The pool's observability handle: cross-launch metrics registry
    /// plus flight recorder, fed on every launch completion.
    pub fn observer(&self) -> Arc<Observer> {
        Arc::clone(&self.shared.obs)
    }

    /// Label every future [`LaunchRecord`] this pool emits with a shard
    /// name, so a multi-pool [`crate::GridService`] sharing one registry
    /// gets per-shard `queue_depth` gauges and `shard_launches_total`
    /// counters instead of aliased globals.
    pub fn set_shard_label(&self, label: impl Into<String>) {
        *self.shared.shard_label.lock() = Some(label.into());
    }

    /// The shard label stamped into this pool's launch records, if any.
    pub fn shard_label(&self) -> Option<String> {
        self.shared.shard_label.lock().clone()
    }

    /// The pool's grid configuration.
    pub fn config(&self) -> &GridConfig {
        self.plan.config()
    }

    /// The pool's synchronization method.
    pub fn method(&self) -> SyncMethod {
        self.plan.method()
    }

    /// Launches still pending (submitted but not yet completed by every
    /// block). Counted from completion state, not worker cursors — a
    /// worker advances its cursor slightly after the host can observe the
    /// launch's results.
    pub fn queue_depth(&self) -> usize {
        let st = self.shared.state.lock();
        st.queue
            .iter()
            .filter(|l| l.done.lock().finished < l.setup.n)
            .count()
    }

    /// Total launches submitted to this pool.
    pub fn launches(&self) -> u64 {
        self.shared.state.lock().next_seq
    }

    /// Per-block worker generation counters. A block's counter advances
    /// every time its stuck worker is abandoned and replaced, so a soak
    /// harness can assert the pool self-healed (strictly increasing after
    /// every abandoned launch) without reaching into pool internals.
    pub fn generations(&self) -> Vec<u64> {
        self.shared.state.lock().gens.clone()
    }

    /// Append a launch to the log and return its handle. Back-to-back
    /// submissions pipeline; call [`LaunchHandle::wait`] (in order) to
    /// collect each launch's stats.
    ///
    /// # Errors
    /// [`ExecError::BarrierUnavailable`] if the method cannot build a
    /// barrier for this grid.
    pub fn submit<K: RoundKernel + Send + Sync + 'static>(
        &self,
        kernel: Arc<K>,
    ) -> Result<LaunchHandle, ExecError> {
        self.submit_dyn(kernel)
    }

    /// [`GridRuntime::submit`] for an already-erased kernel.
    ///
    /// # Errors
    /// See [`GridRuntime::submit`].
    pub fn submit_dyn(
        &self,
        kernel: Arc<dyn RoundKernel + Send + Sync>,
    ) -> Result<LaunchHandle, ExecError> {
        let setup = self.prepare(&*kernel)?;
        let launch = self.enqueue(KernelRef::Owned(kernel), setup);
        Ok(LaunchHandle {
            shared: Arc::clone(&self.shared),
            launch,
        })
    }

    /// Run a borrowed kernel on the warm pool and block until it
    /// completes — the pooled counterpart of [`crate::GridExecutor::run`].
    ///
    /// Because the kernel is only borrowed, this wait is *not* bounded for
    /// blocks stuck inside non-cooperative kernel code (the pool may not
    /// outlive the borrow); barrier waits are still bounded by the policy
    /// timeout. Use [`GridRuntime::submit`] for the abandon-and-replace
    /// watchdog.
    ///
    /// # Errors
    /// Same contract as [`crate::GridExecutor::run`].
    pub fn run<K: RoundKernel>(&self, kernel: &K) -> Result<KernelStats, ExecError> {
        let setup = self.prepare(kernel)?;
        // SAFETY (lifetime erasure): `wait_launch(.., allow_abandon =
        // false)` below does not return until every worker recorded its
        // result for this launch, after which no worker dereferences the
        // pointer again — so the borrow outlives all uses.
        #[allow(unsafe_code)]
        let kernel = unsafe { KernelRef::borrowed(kernel) };
        let launch = self.enqueue(kernel, setup);
        wait_launch(&self.shared, &launch, false)
    }

    /// Stamp out a launch's setup, arm its faults and hand the kernel its
    /// abort signal — all before any worker can see the launch.
    fn prepare(&self, kernel: &dyn RoundKernel) -> Result<LaunchSetup, ExecError> {
        let mut setup = self.plan.setup(kernel.rounds())?;
        setup.arm_faults(kernel);
        kernel.on_launch(&setup.abort);
        Ok(setup)
    }

    fn enqueue(&self, kernel: KernelRef, setup: LaunchSetup) -> Arc<Launch> {
        let mut st = self.shared.state.lock();
        let min = st.cursors.iter().copied().min().unwrap_or(st.next_seq);
        let launch = Arc::new(Launch {
            seq: st.next_seq,
            kernel,
            queue_depth: (st.next_seq - min) as usize,
            submitted: Instant::now(),
            activated: Mutex::new(None),
            gate: LaunchGate::new(setup.n, setup.policy.timeout),
            done: Mutex::new(LaunchDone {
                results: vec![None; setup.n],
                finished: 0,
                first_failure: None,
                abandoned: false,
            }),
            done_cv: Condvar::new(),
            setup,
        });
        st.queue.push_back(Arc::clone(&launch));
        st.next_seq += 1;
        drop(st);
        // Start the wake chain at its head; the rest of the grid is woken
        // worker by worker (see the module docs).
        self.shared.wake[0].notify_all();
        launch
    }
}

impl Drop for GridRuntime {
    /// Signal shutdown; workers exit at their next dispatch point. Workers
    /// stuck in non-cooperative kernel code are leaked rather than joined
    /// (they hold only `Arc`s, so this is safe) — the same trade the
    /// abandon path makes.
    fn drop(&mut self) {
        self.shared.state.lock().shutdown = true;
        self.shared.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::SyncPolicy;
    use crate::executor::BlockCtx;
    use crate::gmem::GlobalBuffer;
    use crate::trace::{EventRecorder, TraceConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Every block bumps its slot once per round; a correct barrier makes
    /// all slots equal the round count at the end.
    struct CountKernel {
        slots: GlobalBuffer<u64>,
        rounds: usize,
    }

    impl RoundKernel for CountKernel {
        fn rounds(&self) -> usize {
            self.rounds
        }
        fn round(&self, ctx: &BlockCtx, _round: usize) {
            let b = ctx.block_id;
            self.slots.set(b, self.slots.get(b) + 1);
        }
    }

    fn pool(n: usize, method: SyncMethod) -> GridRuntime {
        GridRuntime::new(GridConfig::new(n, 64), method).unwrap()
    }

    #[test]
    fn rejects_cpu_explicit_and_auto_but_pools_cpu_implicit() {
        for m in [SyncMethod::CpuExplicit, SyncMethod::Auto] {
            assert!(!GridRuntime::supports(m));
            let err = GridRuntime::new(GridConfig::new(2, 64), m).unwrap_err();
            assert!(matches!(err, ExecError::RuntimeUnsupported { .. }), "{err}");
        }
        assert!(GridRuntime::supports(SyncMethod::CpuImplicit));
        assert!(GridRuntime::supports(SyncMethod::NoSync));
        assert!(GridRuntime::supports(SyncMethod::GpuLockFree));
    }

    #[test]
    fn borrowed_run_is_correct_and_reusable() {
        let rt = pool(4, SyncMethod::GpuLockFree);
        for _ in 0..3 {
            let kernel = CountKernel {
                slots: GlobalBuffer::new(4),
                rounds: 50,
            };
            let stats = rt.run(&kernel).unwrap();
            assert!(kernel.slots.to_vec().iter().all(|&v| v == 50));
            assert_eq!(stats.n_blocks, 4);
            assert_eq!(stats.rounds, 50);
            assert!(stats.pool.is_some());
        }
        assert_eq!(rt.launches(), 3);
        assert_eq!(rt.queue_depth(), 0);
    }

    #[test]
    fn cpu_implicit_pools_with_pipelined_launches() {
        // Satellite regression: `GridRuntime::submit` of a CpuImplicit
        // kernel must succeed with pipelined launches — the launch log is
        // implicit sync, with the driver rendezvous as its barrier.
        let rt = pool(3, SyncMethod::CpuImplicit);
        let kernels: Vec<Arc<CountKernel>> = (0..4)
            .map(|_| {
                Arc::new(CountKernel {
                    slots: GlobalBuffer::new(3),
                    rounds: 25,
                })
            })
            .collect();
        let handles: Vec<LaunchHandle> = kernels
            .iter()
            .map(|k| rt.submit(Arc::clone(k)).unwrap())
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let stats = h.wait().unwrap();
            assert_eq!(stats.method, "cpu-implicit");
            let p = stats.pool.as_ref().unwrap();
            assert_eq!(p.launch_seq, i as u64);
            assert!(kernels[i].slots.to_vec().iter().all(|&v| v == 25));
        }
        assert_eq!(rt.launches(), 4);
    }

    #[test]
    fn pipelined_submits_all_complete_in_order() {
        let rt = pool(3, SyncMethod::GpuSimple);
        let kernels: Vec<Arc<CountKernel>> = (0..4)
            .map(|_| {
                Arc::new(CountKernel {
                    slots: GlobalBuffer::new(3),
                    rounds: 20,
                })
            })
            .collect();
        let handles: Vec<LaunchHandle> = kernels
            .iter()
            .map(|k| rt.submit(Arc::clone(k)).unwrap())
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.seq(), i as u64);
            let stats = h.wait().unwrap();
            let p = stats.pool.as_ref().unwrap();
            assert_eq!(p.launch_seq, i as u64);
            assert_eq!(p.cold, i == 0);
            assert!(kernels[i].slots.to_vec().iter().all(|&v| v == 20));
        }
    }

    #[test]
    fn panic_poisons_one_launch_but_not_the_pool() {
        let rt = pool(3, SyncMethod::GpuTree(crate::method::TreeLevels::Two));
        let bad: Arc<dyn RoundKernel + Send + Sync> =
            Arc::new((3usize, |ctx: &BlockCtx, r: usize| {
                if ctx.block_id == 1 && r == 1 {
                    panic!("injected");
                }
            }));
        let err = rt.submit_dyn(bad).unwrap().wait().unwrap_err();
        match err {
            ExecError::BlockPanicked { block, round, .. } => {
                assert_eq!((block, round), (1, 1));
            }
            other => panic!("expected BlockPanicked, got {other}"),
        }
        // Fresh barrier per launch: the next submit is unaffected.
        let good = Arc::new(CountKernel {
            slots: GlobalBuffer::new(3),
            rounds: 10,
        });
        rt.submit(Arc::clone(&good)).unwrap().wait().unwrap();
        assert!(good.slots.to_vec().iter().all(|&v| v == 10));
    }

    #[test]
    fn abandoned_launch_replaces_worker_and_pool_survives() {
        let cfg =
            GridConfig::new(3, 64).with_policy(SyncPolicy::with_timeout(Duration::from_millis(50)));
        let rt = GridRuntime::new(cfg, SyncMethod::GpuLockFree).unwrap();
        // Block 1 never returns from round 0 and ignores the abort signal.
        let stuck: Arc<dyn RoundKernel + Send + Sync> =
            Arc::new((2usize, |ctx: &BlockCtx, r: usize| {
                if ctx.block_id == 1 && r == 0 {
                    loop {
                        std::thread::park();
                    }
                }
            }));
        let t0 = Instant::now();
        let err = rt.submit_dyn(stuck).unwrap().wait().unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "abandonment must be bounded, took {:?}",
            t0.elapsed()
        );
        // The origin error is block 0's or 2's real barrier timeout (they
        // gave up waiting for the stuck block 1); the synthesized
        // `pooled:` diagnostic fills block 1's slot.
        match &err {
            ExecError::BarrierTimeout { diagnostic } => {
                assert!(diagnostic.stragglers().contains(&1), "{diagnostic}");
            }
            other => panic!("expected BarrierTimeout, got {other}"),
        }
        // The stuck worker was replaced: the pool still works.
        let good = Arc::new(CountKernel {
            slots: GlobalBuffer::new(3),
            rounds: 10,
        });
        let stats = rt.submit(Arc::clone(&good)).unwrap().wait().unwrap();
        assert!(good.slots.to_vec().iter().all(|&v| v == 10));
        assert_eq!(stats.n_blocks, 3);
    }

    #[test]
    fn telemetry_records_launch_events() {
        let cfg = GridConfig::new(2, 64).with_trace(TraceConfig::default());
        let rt = GridRuntime::new(cfg, SyncMethod::GpuSimple).unwrap();
        let kernel = CountKernel {
            slots: GlobalBuffer::new(2),
            rounds: 5,
        };
        let stats = rt.run(&kernel).unwrap();
        if EventRecorder::ENABLED {
            let t = stats.telemetry.as_ref().expect("telemetry attached");
            assert_eq!(t.count(TraceEventKind::Launch), 2);
            assert_eq!(t.count(TraceEventKind::RoundStart), 10);
            let json = t.chrome_trace("gpu-simple");
            assert!(json.contains("\"name\":\"launch\""), "{json}");
        } else {
            assert!(stats.telemetry.is_none());
        }
    }

    /// Bounded spin-then-sleep until `open` is set, like the runtime's own
    /// waits: these gates are held across assertions, so a bare yield loop
    /// would busy-burn a core.
    fn hold_until(open: &AtomicBool) {
        let mut polls = 0u32;
        while !open.load(Ordering::Acquire) {
            polls = polls.saturating_add(1);
            if polls < 4096 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }

    #[test]
    fn queue_depth_reflects_pipelining() {
        let rt = pool(2, SyncMethod::NoSync);
        let gate = Arc::new(AtomicBool::new(false));
        let release = Arc::clone(&gate);
        let slow: Arc<dyn RoundKernel + Send + Sync> =
            Arc::new((1usize, move |_: &BlockCtx, _: usize| hold_until(&release)));
        let h1 = rt.submit_dyn(slow).unwrap();
        let h2 = rt
            .submit(Arc::new(CountKernel {
                slots: GlobalBuffer::new(2),
                rounds: 1,
            }))
            .unwrap();
        assert!(rt.queue_depth() >= 1);
        gate.store(true, Ordering::Release);
        h1.wait().unwrap();
        let stats = h2.wait().unwrap();
        assert_eq!(stats.pool.as_ref().unwrap().queue_depth, 1);
        assert_eq!(rt.queue_depth(), 0);
    }

    #[test]
    fn pipelined_submits_behind_a_busy_chain_head_complete_in_order() {
        for method in [SyncMethod::NoSync, SyncMethod::GpuLockFree] {
            let rt = pool(3, method);
            let open = Arc::new(AtomicBool::new(false));
            let gate = Arc::clone(&open);
            // Block 0 (the chain head) is held in launch 0 while the rest
            // of the log is submitted behind it.
            let slow: Arc<dyn RoundKernel + Send + Sync> =
                Arc::new((1usize, move |ctx: &BlockCtx, _: usize| {
                    if ctx.block_id == 0 {
                        hold_until(&gate);
                    }
                }));
            let first = rt.submit_dyn(slow).unwrap();
            if method == SyncMethod::NoSync {
                // Its peers finish launch 0 and go back to the log (to
                // sleep), so the next enqueue's wake finds the head busy.
                let t0 = Instant::now();
                while rt.shared.state.lock().cursors[1..] != [1, 1] {
                    assert!(t0.elapsed() < Duration::from_secs(10), "peers stuck");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            let kernels: Vec<Arc<CountKernel>> = (0..4)
                .map(|_| {
                    Arc::new(CountKernel {
                        slots: GlobalBuffer::new(3),
                        rounds: 6,
                    })
                })
                .collect();
            let handles: Vec<LaunchHandle> = kernels
                .iter()
                .map(|k| rt.submit(Arc::clone(k)).unwrap())
                .collect();
            assert!(
                handles.iter().all(|h| !h.is_done()),
                "{method}: a launch completed without block 0"
            );
            open.store(true, Ordering::Release);
            first.wait().unwrap();
            for (i, h) in handles.into_iter().enumerate() {
                let stats = h.wait().unwrap();
                assert_eq!(stats.pool.as_ref().unwrap().launch_seq, i as u64 + 1);
                assert!(
                    kernels[i].slots.to_vec().iter().all(|&v| v == 6),
                    "{method}"
                );
            }
            assert_eq!(rt.queue_depth(), 0);
        }
    }
}
