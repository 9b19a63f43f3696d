//! `apps`: the paper's three applications (§6) on `gpu-lock-free` with
//! N = 2, each launched through `GridExecutor`'s default scoped path.
//! Compute in `blocksync-algos` dominates; barrier and launch costs are a
//! small share, so a change that speeds barriers up by taking cycles from
//! compute shows here.

use std::time::{Duration, Instant};

use blocksync_algos::bitonic::GridBitonic;
use blocksync_algos::fft::kernel::Direction;
use blocksync_algos::fft::reference::max_error;
use blocksync_algos::fft::{fft_inplace, GridFft};
use blocksync_algos::seqgen::{complex_signal, random_keys, related_dna, SplitMix64};
use blocksync_algos::swat::reference::SwScore;
use blocksync_algos::swat::{smith_waterman, GapPenalties, GridSwat, Scoring};
use blocksync_algos::Complex32;
use blocksync_core::{ExecError, GridConfig, GridExecutor, KernelStats, SyncMethod};

use crate::report::{Metrics, Outcomes};
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::{abort_run, shuffle, us};

const BLOCKS: usize = 2;
const THREADS: usize = 256;
/// FFT points, bitonic keys (both 2^18) and DNA length per sequence.
const LOG_N: u32 = 18;
const DNA_LEN: usize = 2048;
/// Share of DNA bases mutated between the two sequences, so the alignment
/// has long high-scoring regions rather than noise.
const MUTATION: f64 = 0.15;
/// Largest componentwise difference allowed between the grid FFT and the
/// sequential `fft_inplace` (f32, 2^18 points, inputs in [-1, 1)).
const FFT_MAX_ERROR: f32 = 1e-3;

#[derive(Clone, Copy, Debug)]
enum App {
    Fft,
    Swat,
    Bitonic,
}

const APPS: [App; 3] = [App::Fft, App::Swat, App::Bitonic];

impl App {
    fn name(self) -> &'static str {
        match self {
            App::Fft => "fft",
            App::Swat => "swat",
            App::Bitonic => "bitonic",
        }
    }

    /// Barrier rounds the algorithm needs, derived from its definition:
    /// bit reversal plus one round per butterfly stage; one round per
    /// anti-diagonal; one round per step of the sorting network.
    fn expected_rounds(self) -> usize {
        let l = LOG_N as usize;
        match self {
            App::Fft => 1 + l,
            App::Swat => 2 * DNA_LEN - 1,
            App::Bitonic => l * (l + 1) / 2,
        }
    }
}

#[derive(Default)]
struct Samples {
    kernel_ms: Vec<f64>,
    compute_ms: Vec<f64>,
    sync_fraction: Vec<f64>,
}

pub struct Apps {
    exec: GridExecutor,
    signal: Vec<Complex32>,
    fft_ref: Vec<Complex32>,
    dna: (Vec<u8>, Vec<u8>),
    swat_ref: SwScore,
    keys: Vec<u32>,
    sorted: Vec<u32>,
    samples: [Samples; 3],
    fft_error: f32,
    cold_t_o_us: Vec<f64>,
    launches: u64,
}

impl Apps {
    /// Generate the inputs from `seed`, compute every reference output, and
    /// run each application once to check the grid versions agree.
    pub fn setup(seed: u64) -> Apps {
        let n = 1usize << LOG_N;
        let signal = complex_signal(n, seed ^ 0xF00D);
        let mut fft_ref = signal.clone();
        fft_inplace(&mut fft_ref);
        let dna = related_dna(DNA_LEN, MUTATION, seed ^ 0xD7A);
        let swat_ref = smith_waterman(&dna.0, &dna.1, Scoring::dna(), GapPenalties::dna());
        let keys = random_keys(n, seed ^ 0xB170);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let mut apps = Apps {
            exec: GridExecutor::new(GridConfig::new(BLOCKS, THREADS), SyncMethod::GpuLockFree),
            signal,
            fft_ref,
            dna,
            swat_ref,
            keys,
            sorted,
            samples: Default::default(),
            fft_error: 0.0,
            cold_t_o_us: Vec::new(),
            launches: 0,
        };
        for app in APPS {
            match apps.launch(app, &mut Tracer::new(Instant::now(), false), 0) {
                Ok((_, true)) => {}
                Ok((_, false)) => abort_run(&format!("{} warm-up: wrong output", app.name())),
                Err(e) => abort_run(&format!("{} warm-up: {e}", app.name())),
            }
        }
        apps
    }

    /// Build the kernel (untimed), run it (timed, span `apps.run`), then
    /// check its output against the reference (untimed, span
    /// `apps.verify`). Returns the stats and whether the output matched.
    fn launch(
        &mut self,
        app: App,
        tr: &mut Tracer,
        id: u64,
    ) -> Result<(KernelStats, bool), ExecError> {
        let timed = |tr: &mut Tracer, run: &mut dyn FnMut() -> Result<KernelStats, ExecError>| {
            let t0 = Instant::now();
            let res = run();
            let t1 = Instant::now();
            let root = tr.span("apps.run", t0, t1, None, id);
            if let (Ok(st), true) = (&res, tr.enabled()) {
                tr.launch_children(t0, st, root, id);
            }
            (res, t1)
        };
        let exec = &self.exec;
        let (stats, t1, ok) = match app {
            App::Fft => {
                let k = GridFft::new(&self.signal, Direction::Forward);
                let (res, t1) = timed(tr, &mut || exec.run(&k));
                let err = max_error(&k.output(), &self.fft_ref);
                self.fft_error = self.fft_error.max(err);
                (res?, t1, err <= FFT_MAX_ERROR)
            }
            App::Swat => {
                let (a, b) = &self.dna;
                let k = GridSwat::new(a, b, Scoring::dna(), GapPenalties::dna(), BLOCKS);
                let (res, t1) = timed(tr, &mut || exec.run(&k));
                (res?, t1, k.result() == self.swat_ref)
            }
            App::Bitonic => {
                let k = GridBitonic::new(&self.keys);
                let (res, t1) = timed(tr, &mut || exec.run(&k));
                (res?, t1, k.output() == self.sorted)
            }
        };
        tr.span("apps.verify", t1, Instant::now(), None, id);
        if stats.rounds != app.expected_rounds() {
            abort_run(&format!(
                "{} ran {} barrier rounds, its definition needs {}",
                app.name(),
                stats.rounds,
                app.expected_rounds()
            ));
        }
        Ok((stats, ok))
    }

    /// Run the three applications in a seeded order, over and over, until
    /// `until`.
    pub fn run(
        &mut self,
        until: Instant,
        rng: &mut SplitMix64,
        tr: &mut Tracer,
        out: &mut Outcomes,
    ) {
        let mut order: Vec<usize> = (0..APPS.len()).collect();
        while Instant::now() < until {
            shuffle(&mut order, rng);
            for &i in &order {
                if Instant::now() >= until {
                    break;
                }
                let app = APPS[i];
                self.launches += 1;
                match self.launch(app, tr, self.launches) {
                    Ok((st, true)) => {
                        out.ok();
                        let s = &mut self.samples[i];
                        s.kernel_ms.push(ms(st.wall));
                        s.compute_ms.push(ms(st.avg_compute()));
                        s.sync_fraction.push(st.sync_fraction());
                        self.cold_t_o_us.push(us(st.launch));
                    }
                    Ok((_, false)) => out.fail(format!("verify:{}", app.name())),
                    Err(e) => out.fail(format!("exec:{}", e.kind_label())),
                }
            }
        }
    }

    pub fn end_to_end(&self, m: &mut Metrics) {
        let medians: Vec<f64> = self.samples.iter().map(|s| median(&s.kernel_ms)).collect();
        m.put("app_ms", geomean(&medians), "ms");
    }

    pub fn per_layer(&self, m: &mut Metrics, cold_t_o_us: &mut Vec<f64>) {
        for (app, s) in APPS.iter().zip(&self.samples) {
            let n = app.name();
            m.put(format!("{n}.kernel_ms"), median(&s.kernel_ms), "ms");
            m.put(format!("{n}.compute_ms"), median(&s.compute_ms), "ms");
            m.put(
                format!("{n}.sync_fraction"),
                median(&s.sync_fraction),
                "ratio",
            );
            m.put(format!("{n}.rounds"), app.expected_rounds() as f64, "count");
        }
        m.put("fft.max_error", f64::from(self.fft_error), "abs");
        cold_t_o_us.extend(&self.cold_t_o_us);
    }

    pub fn launches(&self) -> u64 {
        self.launches
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
