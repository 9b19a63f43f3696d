//! `service`: short `MeanKernel` launches through `GridService`'s
//! admission plane onto three parked shards, from one generator thread and
//! one collector thread.
//!
//! Two loops, alternating in slices. The open loop offers launches on a
//! fixed schedule, well below capacity, and times each from when it was due, so a stall counts
//! against every launch it delays; it gives the latency percentiles and
//! their split by layer. The closed loop keeps a window of launches in
//! flight (the tenant quota; `submit_within` blocks on it) and gives
//! throughput.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blocksync_algos::seqgen::SplitMix64;
use blocksync_core::{
    GridConfig, GridService, KernelStats, Observer, ServiceConfig, ServiceError, ServiceHandle,
    ShardKey, SyncMethod, SyncPolicy,
};
use blocksync_microbench::MeanKernel;

use crate::report::{Metrics, Outcomes};
use crate::stats::{max, mean, median, quantile, windowed_median};
use crate::trace::Tracer;
use crate::{abort_run, us};

/// Rounds per launch: a couple of microseconds of compute, so admission,
/// queueing and launch overhead are a large share of each launch.
const ROUNDS: usize = 20;
const THREADS: usize = 16;
/// Open-loop offered rate, about a quarter of measured closed-loop
/// capacity, so the open loop measures latency without a backlog. At a
/// twelfth of capacity both cores of a two-vCPU VM sit idle most of the
/// time and every launch pays wake-ups whose cost follows the host's load:
/// the median latency then spread twice as far from run to run.
const OFFERED_LPS: f64 = 3000.0;
/// Closed-loop window: launches in flight per tenant.
const QUOTA: usize = 8;
const DEADLINE: Duration = Duration::from_secs(5);
/// Share of each service slice given to the open loop.
const OPEN_SHARE: f64 = 0.5;
/// The open loop counts as saturated when it completes fewer than this
/// share of the launches it offered per second.
const SATURATED_BELOW: f64 = 0.95;
/// Launches whose spans are recorded: one in this many, open and closed
/// loop, to bound the trace's memory.
const OPEN_SPAN_STRIDE: u64 = 4;
const CLOSED_SPAN_STRIDE: u64 = 16;
/// Open-loop launches per latency window (a sixth of a second at the
/// offered rate); the reported percentiles are medians over windows.
const LATENCY_WINDOW: usize = 500;
/// Registry mutations per service launch: the pooled runtime's six plus
/// the per-shard launch counter.
const OPS_PER_LAUNCH: u64 = 7;

/// The shards: short name for metric names, and key.
fn shards() -> [(&'static str, ShardKey); 3] {
    [
        (
            "lockfree",
            ShardKey::new(2, THREADS, SyncMethod::GpuLockFree),
        ),
        ("simple", ShardKey::new(2, THREADS, SyncMethod::GpuSimple)),
        // More blocks than a two-core host has cores: its waits park.
        (
            "sense",
            ShardKey::new(4, THREADS, SyncMethod::SenseReversing),
        ),
    ]
}

/// What the generator hands the collector for one submission.
struct Pending {
    id: u64,
    shard: usize,
    /// When the launch was due (open loop) or submitted (closed loop).
    due: Instant,
    submit: (Instant, Instant),
    kernel: Arc<MeanKernel>,
    handle: Result<ServiceHandle, ServiceError>,
}

/// One open-loop launch's latency and its split, microseconds. A failed
/// launch has an infinite latency and no split.
#[derive(Default, Clone)]
struct Split {
    latency: f64,
    late: f64,
    admit: f64,
    queued: f64,
    queue_depth: f64,
    t_o: f64,
    sync: f64,
    /// `t_O` + the mean block's compute + sync.
    kernel: f64,
    /// What is left: latency − late − admit − queued − kernel. The
    /// worker-to-collector wake-up, less the overlap of `queued` with the
    /// tail of the admission call.
    handoff: f64,
}

/// A settled submission, as the collector saw it.
struct Done {
    shard: usize,
    /// When the collector saw the launch finish (or the submission fail).
    done: Instant,
    split: Split,
    /// `None` on success, else the failure reason.
    failure: Option<String>,
    /// Whether the submission was admitted, and so reached its shard's
    /// runtime and observer (whether it then succeeded or failed).
    admitted: bool,
}

impl Done {
    fn settle(&self, out: &mut Outcomes) {
        match &self.failure {
            None => out.ok(),
            Some(reason) => out.fail(reason.clone()),
        }
    }
}

fn failure_reason(e: &ServiceError) -> String {
    match e {
        ServiceError::Deadline { .. } => "deadline".to_string(),
        ServiceError::Exec(x) => format!("exec:{}", x.kind_label()),
        other => format!("refused:{}", other.kind_label()),
    }
}

impl Split {
    fn of(due: Instant, (s0, s1): (Instant, Instant), done: Instant, st: &KernelStats) -> Split {
        let pool = st.pool.as_deref().expect("service launches run on a pool");
        let latency = us(done - due);
        let (late, admit, queued) = (us(s0 - due), us(s1 - s0), us(pool.queued));
        let t_o = us(st.launch);
        let kernel = t_o + us(st.avg_compute()) + us(st.avg_sync());
        Split {
            latency,
            late,
            admit,
            queued,
            queue_depth: pool.queue_depth as f64,
            t_o,
            sync: us(st.avg_sync()),
            kernel,
            handoff: latency - late - admit - queued - kernel,
        }
    }
}

/// The collector: wait each submission in order, split its latency, then
/// verify its output outside the timed region. Records spans for every
/// `stride`-th launch.
fn collect(rx: mpsc::Receiver<Pending>, mut tr: Tracer, stride: u64) -> (Vec<Done>, Tracer) {
    let mut out = Vec::new();
    for p in rx {
        let miss = |failure: String, done: Instant, admitted: bool| Done {
            shard: p.shard,
            done,
            split: Split {
                latency: f64::INFINITY,
                ..Split::default()
            },
            failure: Some(failure),
            admitted,
        };
        let handle = match p.handle {
            Ok(h) => h,
            Err(e) => {
                out.push(miss(failure_reason(&e), p.submit.1, false));
                continue;
            }
        };
        let w0 = Instant::now();
        let res = handle.wait();
        let done = Instant::now();
        let st = match res {
            Ok(st) => st,
            Err(e) => {
                out.push(miss(failure_reason(&e), done, true));
                continue;
            }
        };
        let split = Split::of(p.due, p.submit, done, &st);
        let traced = tr.enabled() && p.id % stride == 0;
        if traced {
            let (s0, s1) = p.submit;
            let root = tr.span("service.launch", p.due, done, None, p.id);
            if p.due < s0 {
                tr.span("late", p.due, s0, root, p.id);
            }
            tr.span("submit_within", s0, s1, root, p.id);
            // The launch's own steps tile the rest of its latency. The
            // collector's `wait` call overlaps them (it starts once the
            // collector gets to this launch), so it is a span of its own.
            let laid = tr.launch_children(s1, &st, root, p.id);
            let rest = (done - s1).saturating_sub(laid);
            tr.derived("handoff", s1, laid, rest, root, p.id);
            tr.span("wait", w0, done, None, p.id);
        }
        let ok = p.kernel.verify();
        if traced {
            tr.span("service.verify", done, Instant::now(), None, p.id);
        }
        out.push(Done {
            shard: p.shard,
            done,
            split,
            failure: (!ok).then(|| "verify:mean".to_string()),
            admitted: true,
        });
    }
    (out, tr)
}

/// Sleep until shortly before `due`, then yield until it: plain sleeps
/// overshoot by tens of microseconds, which would read as latency.
fn sleep_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

pub struct Service {
    svc: GridService,
    /// Open-loop launches: shard and latency split.
    open: Vec<(usize, Split)>,
    /// Open-loop generator lateness per submission, microseconds.
    lateness: Vec<f64>,
    /// Launches completed and time taken, summed over the slices of each
    /// loop.
    open_rate: (u64, Duration),
    closed_rate: (u64, Duration),
    /// Draws the shard of every submission.
    rng: SplitMix64,
    ops0: u64,
    rejections0: u64,
    /// Submissions that reached a shard's runtime (and so its observer),
    /// and whether any of them failed there: a failed launch makes a
    /// different number of registry updates.
    observed: u64,
    exec_failed: bool,
    launches: u64,
}

/// Launches per second of a (launches, time) sum.
fn rate((n, t): (u64, Duration)) -> f64 {
    n as f64 / t.as_secs_f64().max(1e-9)
}

fn rejections(obs: &Observer) -> u64 {
    obs.snapshot()
        .labeled
        .get("service_rejections_total")
        .map_or(0, |m| m.values().sum())
}

impl Service {
    /// Start the service and spin up its three shards with a few
    /// launches each; `seed` draws the shard sequence.
    pub fn setup(seed: u64) -> Service {
        let policy = SyncPolicy::with_timeout(DEADLINE).with_park();
        let svc = GridService::new(
            ServiceConfig::default()
                .with_max_shards(3)
                .with_queue_capacity(4 * QUOTA)
                .with_tenant_quota(QUOTA)
                .with_idle_ttl(Duration::from_secs(3600))
                .with_template(GridConfig::new(1, 1).with_policy(policy)),
        );
        for (_, key) in shards() {
            for _ in 0..4 {
                let k = Arc::new(MeanKernel::for_grid(key.blocks, THREADS, ROUNDS));
                let res = svc
                    .submit_within("warmup", key, k.clone(), DEADLINE)
                    .and_then(ServiceHandle::wait);
                match res {
                    Ok(_) if k.verify() => {}
                    Ok(_) => abort_run(&format!("{key} warm-up: wrong means")),
                    Err(e) => abort_run(&format!("{key} warm-up: {e}")),
                }
            }
        }
        let obs = svc.observer();
        Service {
            ops0: obs.ops(),
            rejections0: rejections(&obs),
            svc,
            open: Vec::new(),
            lateness: Vec::new(),
            open_rate: (0, Duration::ZERO),
            closed_rate: (0, Duration::ZERO),
            rng: SplitMix64::new(seed),
            observed: 0,
            exec_failed: false,
            launches: 0,
        }
    }

    /// A slice of closed loop, then a slice of open loop, until `until`.
    /// The closed loop goes first: after the near-idle open loop, a busy
    /// phase on this host runs slower for its first second or so.
    pub fn run(&mut self, until: Instant, tr: &mut Tracer, out: &mut Outcomes) {
        let start = Instant::now();
        let closed_until = start
            + until
                .saturating_duration_since(start)
                .mul_f64(1.0 - OPEN_SHARE);
        self.closed_loop(closed_until, tr, out);
        self.open_loop(until, tr, out);
    }

    /// Drive submissions from this thread while one collector thread
    /// settles them. `due(i)` is when submission `i` is due, or `None` to
    /// submit as soon as `submit_within` admits it; the loop ends at
    /// `until`.
    fn drive(
        &mut self,
        until: Instant,
        due: impl Fn(u64) -> Option<Instant>,
        tr: &mut Tracer,
        stride: u64,
    ) -> Vec<Done> {
        let (svc, rng) = (&self.svc, &mut self.rng);
        let base = self.launches;
        let keys = shards();
        let collector_tr = Tracer::new(tr.epoch(), tr.enabled());
        let (done, lateness, submitted, collector_tr) = std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel::<Pending>();
            let collector = s.spawn(move || collect(rx, collector_tr, stride));
            let mut lateness = Vec::new();
            let mut i = 0u64;
            loop {
                let scheduled = due(i);
                if scheduled.unwrap_or_else(Instant::now) >= until {
                    break;
                }
                let shard = rng.next_below(keys.len() as u64) as usize;
                let key = keys[shard].1;
                let kernel = Arc::new(MeanKernel::for_grid(key.blocks, THREADS, ROUNDS));
                if let Some(t) = scheduled {
                    sleep_until(t);
                }
                let s0 = Instant::now();
                let handle = svc.submit_within("load", key, kernel.clone(), DEADLINE);
                let s1 = Instant::now();
                if let Some(t) = scheduled {
                    lateness.push(us(s0 - t));
                }
                i += 1;
                let p = Pending {
                    id: base + i,
                    shard,
                    due: scheduled.unwrap_or(s0),
                    submit: (s0, s1),
                    kernel,
                    handle,
                };
                tx.send(p).expect("the collector outlives the generator");
            }
            drop(tx);
            let (done, ctr) = collector.join().expect("collector thread must not panic");
            (done, lateness, i, ctr)
        });
        tr.absorb(collector_tr);
        self.launches += submitted;
        self.lateness.extend(lateness);
        self.observed += done.iter().filter(|d| d.admitted).count() as u64;
        self.exec_failed |= done
            .iter()
            .any(|d| d.failure.as_deref().is_some_and(|f| f.starts_with("exec:")));
        done
    }

    fn open_loop(&mut self, until: Instant, tr: &mut Tracer, out: &mut Outcomes) {
        let period = Duration::from_secs_f64(1.0 / OFFERED_LPS);
        let first = Instant::now() + period;
        let due = |i: u64| Some(first + period.mul_f64(i as f64));
        let done = self.drive(until, due, tr, OPEN_SPAN_STRIDE);
        let last = done.iter().map(|d| d.done).max().unwrap_or(first);
        self.open_rate.0 += done.iter().filter(|d| d.failure.is_none()).count() as u64;
        self.open_rate.1 += last.saturating_duration_since(first);
        for d in done {
            d.settle(out);
            self.open.push((d.shard, d.split));
        }
    }

    fn closed_loop(&mut self, until: Instant, tr: &mut Tracer, out: &mut Outcomes) {
        let start = Instant::now();
        let done = self.drive(until, |_| None, tr, CLOSED_SPAN_STRIDE);
        let end = done.iter().map(|d| d.done).max().unwrap_or(start);
        self.closed_rate.0 += done.iter().filter(|d| d.failure.is_none()).count() as u64;
        self.closed_rate.1 += end - start;
        for d in &done {
            d.settle(out);
        }
    }

    /// Whether the open loop fell behind its schedule.
    pub fn saturated(&self) -> bool {
        rate(self.open_rate) < SATURATED_BELOW * OFFERED_LPS
    }

    fn latencies(&self) -> Vec<f64> {
        self.open.iter().map(|(_, s)| s.latency).collect()
    }

    /// Open-loop latency quantile `q`, the median over windows of
    /// [`LATENCY_WINDOW`] launches; none when the open loop saturated, as
    /// its latency then measures the backlog, not the service.
    fn latency(&self, q: f64) -> f64 {
        if self.saturated() {
            return f64::NAN;
        }
        windowed_median(&self.latencies(), LATENCY_WINDOW, |w| quantile(w, q))
    }

    /// Median open-loop latency and closed-loop throughput.
    pub fn end_to_end(&self, m: &mut Metrics) {
        m.put("latency_p50_us", self.latency(0.5), "us");
        m.put("throughput_lps", rate(self.closed_rate), "1/s");
    }

    /// Admission, queueing, warm launch, handoff and barrier split of the
    /// open loop's launches, the generator's honesty figures, and the
    /// observer's structural counts (aborting if they moved).
    pub fn per_layer(&self, m: &mut Metrics) {
        let ok: Vec<&Split> = self
            .open
            .iter()
            .map(|(_, s)| s)
            .filter(|s| s.latency.is_finite())
            .collect();
        let col = |f: fn(&Split) -> f64| ok.iter().map(|s| f(s)).collect::<Vec<f64>>();
        let admit = col(|s| s.admit);
        m.put("service.admit_us.p50", median(&admit), "us");
        m.put("service.admit_us.p99", quantile(&admit, 0.99), "us");
        let obs = self.svc.observer();
        let snap = obs.snapshot();
        let refusals = snap.labeled.get("service_rejections_total");
        for reason in ["quota", "queue-full", "shard-limit"] {
            let n = refusals.and_then(|r| r.get(reason)).copied().unwrap_or(0);
            m.put(format!("service.refusals.{reason}"), n as f64, "count");
        }
        let spun = snap
            .counters
            .get("service_shards_spun_up_total")
            .copied()
            .unwrap_or(0);
        if spun != shards().len() as u64 {
            abort_run(&format!(
                "service spun up {spun} shards, expected {}",
                shards().len()
            ));
        }
        m.put("service.shards_spun_up", spun as f64, "count");

        let queued = col(|s| s.queued);
        m.put("runtime.queued_us.p50", median(&queued), "us");
        m.put("runtime.queued_us.p99", quantile(&queued, 0.99), "us");
        let depth = col(|s| s.queue_depth);
        m.put("runtime.queue_depth.mean", mean(&depth), "count");
        m.put("runtime.queue_depth.max", max(&depth), "count");
        m.put("runtime.warm_t_o_us.p50", median(&col(|s| s.t_o)), "us");
        m.put("runtime.kernel_us.p50", median(&col(|s| s.kernel)), "us");
        let handoff = col(|s| s.handoff);
        m.put("runtime.handoff_us.p50", median(&handoff), "us");
        m.put("runtime.handoff_us.p99", quantile(&handoff, 0.99), "us");
        let avg = |f: fn(&Split) -> f64| mean(&col(f));
        println!(
            "# open-loop latency split, means over {} launches (us): late {:.2} + admit {:.2} + \
             queued {:.2} + kernel {:.2} + handoff {:.2} = latency {:.2}",
            ok.len(),
            avg(|s| s.late),
            avg(|s| s.admit),
            avg(|s| s.queued),
            avg(|s| s.kernel),
            avg(|s| s.handoff),
            avg(|s| s.latency)
        );
        // The tail is per-layer only: a few millisecond-long vCPU stalls
        // move it several-fold from one run to the next.
        m.put("runtime.latency_p90_us", self.latency(0.9), "us");
        m.put(
            "runtime.latency_p99_us",
            quantile(&self.latencies(), 0.99),
            "us",
        );

        for (i, (name, _)) in shards().iter().enumerate() {
            let sync: Vec<f64> = self
                .open
                .iter()
                .filter(|(s, sp)| *s == i && sp.latency.is_finite())
                .map(|(_, sp)| sp.sync)
                .collect();
            m.put(format!("barrier.sync_us.{name}.p50"), median(&sync), "us");
        }

        m.put("loadgen.late_us.p50", median(&self.lateness), "us");
        m.put("loadgen.late_us.max", max(&self.lateness), "us");
        m.put("loadgen.offered_lps", OFFERED_LPS, "1/s");
        m.put("loadgen.achieved_lps", rate(self.open_rate), "1/s");
        m.put(
            "loadgen.saturated",
            f64::from(u8::from(self.saturated())),
            "bool",
        );

        let ops = obs.ops() - self.ops0 - (rejections(&obs) - self.rejections0);
        if !self.exec_failed && ops != OPS_PER_LAUNCH * self.observed {
            abort_run(&format!(
                "service observer made {ops} registry updates over {} launches, expected {OPS_PER_LAUNCH} each",
                self.observed
            ));
        }
        m.put(
            "obs.ops_per_launch.service",
            ops as f64 / self.observed as f64,
            "count",
        );
    }

    pub fn launches(&self) -> u64 {
        self.launches
    }
}
