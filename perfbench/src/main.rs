//! The repository's benchmark: end-to-end and per-layer numbers for the
//! blocksync runtime, through its public front doors (`GridRuntime`,
//! `GridExecutor`, `GridService`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload micro|apps|service --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets up all three phases and measures all of them, so every
//! end-to-end metric is reported on every workload; the workload named on
//! the command line gets most of the measuring time. `--trace 0` prints
//! the end-to-end metrics, `--trace 1` records spans and prints the
//! per-layer metrics. The last line of standard output is the result
//! object. See `perfbench/README.md` for the metric definitions.

mod apps;
mod micro;
mod report;
mod service;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use blocksync_algos::seqgen::SplitMix64;
use blocksync_core::AutoTuner;

use apps::Apps;
use micro::Micro;
use report::{result_line, Metrics, Outcomes};
use service::Service;
use stats::{median, quantile};
use trace::Tracer;

/// Threads that generate load: this one plus the service collector.
const LOADGEN_THREADS: usize = 2;
/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of the measuring time the named workload's phase gets; the other
/// two phases split the rest.
const FOCUS_SHARE: f64 = 0.4;
/// Length of one cycle through the three phases. Host noise comes in
/// bursts of seconds; cycling spreads every phase's samples over the whole
/// run, so a burst spoils a minority of each phase's samples rather than
/// all of one phase's.
const CYCLE: Duration = Duration::from_millis(2500);
/// Where traces and the last untraced result per workload and seed go.
const OUT_DIR: &str = "perfbench/out";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Micro,
    Apps,
    Service,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Micro, Workload::Apps, Workload::Service];

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Micro => "micro",
            Workload::Apps => "apps",
            Workload::Service => "service",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload micro|apps|service --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> &str {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage(&format!("missing {flag}")));
        argv.get(i + 1)
            .map(String::as_str)
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let workload = Workload::parse(get("--workload"))
        .unwrap_or_else(|| usage("--workload must be micro, apps or service"));
    let seed = get("--seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed must be a whole number"));
    let seconds: f64 = get("--seconds")
        .parse()
        .unwrap_or_else(|_| usage("--seconds must be a number"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    let trace = match get("--trace") {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    Args {
        workload,
        seed,
        seconds,
        trace,
    }
}

/// Stop the run without a result: a structural count moved, an output
/// check failed during set-up, or a front door refused a valid request.
pub fn abort_run(msg: &str) -> ! {
    eprintln!("perfbench: aborting: {msg}");
    std::process::exit(1);
}

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Microseconds as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Everything the phases measure on.
struct Fixture {
    micro: Micro,
    apps: Apps,
    service: Service,
}

/// One full set-up: inputs and reference outputs from the seed, every pool
/// and the service spun up and warmed, each warm-up output checked.
fn setup(seed: u64, calibrate: Duration) -> Fixture {
    Fixture {
        apps: Apps::setup(seed),
        micro: Micro::setup(calibrate),
        service: Service::setup(seed ^ 0x5EED),
    }
}

fn main() {
    let process_start = Instant::now();
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} profile={profile}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if LOADGEN_THREADS > nproc {
        abort_run(&format!(
            "{LOADGEN_THREADS} load-generator threads need at least {LOADGEN_THREADS} cores, found {nproc}"
        ));
    }

    // The first set-up runs from process start and pays the process's
    // one-time auto-tuner calibration; the later ones rebuild everything
    // anew, dropping the previous fixture first.
    let t = Instant::now();
    let _tuner = AutoTuner::host();
    let calibrate = t.elapsed();
    let mut setup_s = Vec::new();
    let mut fx = None;
    for i in 0..SETUPS {
        drop(fx.take());
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        fx = Some(setup(args.seed, calibrate));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut fx = fx.expect("at least one set-up");

    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, args.trace);
    let mut out = Outcomes::default();
    let mut rng = SplitMix64::new(args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let share = |w: Workload| {
        if w == args.workload {
            FOCUS_SHARE
        } else {
            (1.0 - FOCUS_SHARE) / 2.0
        }
    };
    let cycles = (budget.as_secs_f64() / CYCLE.as_secs_f64())
        .round()
        .max(1.0);
    let cycle = budget.div_f64(cycles);
    let mut until = epoch;
    for _ in 0..cycles as usize {
        for w in Workload::ALL {
            until += cycle.mul_f64(share(w));
            match w {
                Workload::Micro => fx.micro.run(until, &mut rng, &mut tr, &mut out),
                Workload::Apps => fx.apps.run(until, &mut rng, &mut tr, &mut out),
                Workload::Service => fx.service.run(until, &mut tr, &mut out),
            }
        }
    }
    let measured = epoch.elapsed();

    let mut e2e = Metrics::default();
    fx.micro.end_to_end(&mut e2e);
    fx.apps.end_to_end(&mut e2e);
    fx.service.end_to_end(&mut e2e);
    e2e.put("setup_s", median(&setup_s), "s");

    let mut layers = Metrics::default();
    let mut cold_t_o_us = Vec::new();
    fx.micro.per_layer(&mut layers, &mut cold_t_o_us);
    fx.apps.per_layer(&mut layers, &mut cold_t_o_us);
    fx.service.per_layer(&mut layers);
    layers.put("launch.cold_t_o_us.p50", median(&cold_t_o_us), "us");
    layers.put("launch.cold_t_o_us.p90", quantile(&cold_t_o_us, 0.9), "us");
    for reason in ["refused", "deadline", "exec", "verify"] {
        let n: u64 = out
            .failures
            .iter()
            .filter(|(k, _)| k.split(':').next() == Some(reason))
            .map(|(_, v)| v)
            .sum();
        layers.put(format!("failures.{reason}"), n as f64, "count");
    }

    println!(
        "# measured {:.2} s: micro {} launches, apps {} runs, service {} submissions; \
         attempted {} succeeded {} failed {}",
        measured.as_secs_f64(),
        fx.micro.launches(),
        fx.apps.launches(),
        fx.service.launches(),
        out.attempted,
        out.succeeded,
        out.failed()
    );
    for (reason, n) in &out.failures {
        println!("# failed {reason}: {n}");
    }
    if fx.service.saturated() {
        println!("# service open loop SATURATED: latency percentiles not reported");
    }
    print_metrics("end-to-end", &e2e);
    print_metrics("per-layer", &layers);

    let untraced = untraced_path(args.workload, args.seed);
    if args.trace {
        trace_report(&tr, &args, &e2e, &mut layers, &untraced);
    } else if let Err(e) = save_e2e(&untraced, &e2e) {
        eprintln!("perfbench: could not record the untraced result: {e}");
    }

    let correct = !out.output_mismatch();
    let reported = if args.trace { &layers } else { &e2e };
    println!("{}", result_line(correct, &out, reported));
}

fn print_metrics(title: &str, m: &Metrics) {
    println!("# {title}:");
    for (name, v, unit) in m.iter() {
        println!("#   {name:<34} {v:>14.4} {unit}");
    }
}

fn untraced_path(w: Workload, seed: u64) -> PathBuf {
    Path::new(OUT_DIR).join(format!("untraced-{}-seed{seed}.txt", w.name()))
}

/// Keep this run's end-to-end numbers so a traced run of the same
/// workload and seed can report tracing overhead against them.
fn save_e2e(path: &Path, e2e: &Metrics) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let body: String = e2e.iter().map(|(n, v, _)| format!("{n} {v}\n")).collect();
    std::fs::write(path, body)
}

/// Traced-run extras: the end-to-end numbers as measured with spans on,
/// each layer's self time, the tracing overhead against the last untraced
/// run of the same workload and seed, and the spans written to a file.
fn trace_report(tr: &Tracer, args: &Args, e2e: &Metrics, layers: &mut Metrics, untraced: &Path) {
    for (name, v, unit) in e2e.iter() {
        layers.put(format!("traced.{name}"), v, unit);
    }
    layers.put("trace.spans", tr.len() as f64, "count");
    println!("# span self time (span: count, total ms, self ms):");
    for (name, (n, total, own)) in tr.self_times() {
        println!(
            "#   {name:<28} {n:>8} {:>12.3} {:>12.3}",
            total.as_secs_f64() * 1e3,
            own.as_secs_f64() * 1e3
        );
    }
    match std::fs::read_to_string(untraced) {
        Ok(text) => {
            println!("# tracing overhead (traced - untraced, same workload and seed):");
            for line in text.lines() {
                let mut it = line.split(' ');
                let (Some(name), Some(Ok(base))) = (it.next(), it.next().map(str::parse::<f64>))
                else {
                    continue;
                };
                if let Some(v) = e2e.get(name) {
                    println!(
                        "#   {name:<34} {:>+14.4} ({:+.1}%)",
                        v - base,
                        100.0 * (v - base) / base
                    );
                }
            }
        }
        Err(_) => {
            println!("# tracing overhead: no untraced run of this workload and seed recorded")
        }
    }
    let path = Path::new(OUT_DIR).join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| tr.write_jsonl(&path)) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
}
