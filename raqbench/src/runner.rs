//! One measured run of one workload.

use std::time::{Duration, Instant};

use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::workloads::Kind;
use crate::{scratch_dir, OpOutcome, Source, Workload, END_TO_END, PER_LAYER};

/// How long a window lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Run ops until this many seconds of wall time have passed (what the
    /// driver asks for).
    Seconds(f64),
    /// Run exactly this many ops (tests and the determinism check, where
    /// counts must repeat exactly).
    Ops(usize),
}

/// Everything that defines a run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub kind: Kind,
    /// Seed of the data, the op stream and the delta stream.
    pub seed: u64,
    /// Length of the measured window.
    pub budget: Budget,
    /// Run the traced pass (per-layer metrics) instead of the untraced one
    /// (end-to-end metrics).
    pub traced: bool,
    /// Shrunken sizes (`RAQLET_BENCH_QUICK`): every workload sets up and
    /// runs in well under a second. Quick numbers are for smoke tests only.
    pub quick: bool,
}

/// Share of a traced run's budget spent traced. The rest runs untraced
/// afterwards, to have an `ops_per_s` to hold the traced one against. The
/// traced part comes first so that it always covers the same ops of the
/// seeded stream, however many ops the box completes.
const TRACED_SHARE: f64 = 0.7;

/// Traced ops whose counts are kept. A time-boxed window completes another
/// number of ops on every run; counts taken over the first ops of the
/// stream repeat exactly for a seed all the same. Every workload whose
/// counts differ from op to op runs this many ops in well under a second.
const COUNTED_OPS: u64 = 100;

/// `setup_s` is the median of a run's set-ups. A set-up is repeated until
/// the set-ups have taken this many seconds together, at most
/// [`SETUP_REPS`] times: a set-up of 50 ms scatters by a quarter and ten of
/// them do not, one of six seconds (`interactive_mix`, for its graph-engine
/// references) is steady by itself, and 180 driver runs must fit an hour.
const SETUP_REPEAT_S: f64 = 1.0;
const SETUP_REPS: usize = 10;

/// What a run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Ops attempted in the reported window, plus post-run checks.
    pub attempted: usize,
    /// Ops whose digest differed from the reference, plus failed checks.
    pub failed: usize,
    /// `(name, unit, value)` — the end-to-end metrics of an untraced run or
    /// the per-layer metrics of a traced one, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Fold of every op's result digest, in op order.
    pub fingerprint: u64,
    /// `(name, value)` of the per-layer counts that must repeat exactly.
    pub exact: Vec<(&'static str, f64)>,
}

#[derive(Default)]
struct Window {
    ms: Vec<f64>,
    failed: usize,
    fingerprint: u64,
    /// Wall time from the first op's start to the last op's end, seconds.
    /// Drawing ops and checking results are inside it.
    wall_s: f64,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        self.ms.len() as f64 / self.wall_s
    }
}

fn window(budget: Budget, mut op: impl FnMut() -> OpOutcome) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    let more = |done: usize| match budget {
        Budget::Seconds(s) => start.elapsed() < Duration::from_secs_f64(s) || done == 0,
        Budget::Ops(n) => done < n.max(1),
    };
    while more(w.ms.len()) {
        let out = op();
        w.ms.push(out.ms);
        w.failed += usize::from(!out.ok);
        w.fingerprint =
            (w.fingerprint ^ out.digest).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
    }
    w.wall_s = start.elapsed().as_secs_f64();
    w
}

fn scale(budget: Budget, share: f64) -> Budget {
    match budget {
        Budget::Seconds(s) => Budget::Seconds(s * share),
        Budget::Ops(n) => Budget::Ops(((n as f64 * share).round() as usize).max(1)),
    }
}

/// Make `peak_rss_mb` cover the measured window: hand the heap that set-up
/// freed back to the kernel, then restart the kernel's peak-RSS watermark
/// at what is still resident.
///
/// Without this the number is the footprint of computing the reference
/// answers — the graph-engine oracle of `interactive_mix` alone peaks at
/// three times the warm database, and glibc keeps freed pages resident —
/// and a regression in the system under test would hide below it. Set-up's
/// own peak is reported as `setup_peak_rss_mb`. Where either step is
/// unavailable (not glibc, `/proc/self/clear_refs` not writable) the
/// watermark keeps covering the whole process.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only returns free
        // heap pages to the kernel; glibc allows it at any time.
        unsafe { malloc_trim(0) };
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MB: the peak resident set since the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One measured run: set the workload up (several times, for a steady
/// `setup_s`), run the window, check every result, and report.
pub fn run(cfg: RunConfig) -> RunResult {
    let mut t = Tracer::new();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    let again = |setup_s: &[f64]| {
        !cfg.quick && setup_s.len() < SETUP_REPS && setup_s.iter().sum::<f64>() < SETUP_REPEAT_S
    };
    while setup_s.is_empty() || again(&setup_s) {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(cfg.kind.build(cfg.seed, cfg.quick, &mut t));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up ran");
    let setup_peak_rss_mb = peak_rss_mb();
    reset_peak_rss();

    if !cfg.traced {
        let win = window(cfg.budget, || w.op(None));
        let fin = w.finish(&mut t, false);
        let (tail_ms, _) = tail(&win.ms);
        let value = |name: &str| match name {
            "ops_per_s" => win.ops_per_s(),
            "op_p50_ms" => median(&win.ms),
            "op_tail_ms" => tail_ms,
            "peak_rss_mb" => peak_rss_mb(),
            "setup_s" => median(&setup_s),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        };
        return RunResult {
            attempted: win.ms.len() + 1,
            failed: win.failed + fin.failed,
            metrics: END_TO_END.iter().map(|m| (m.name, m.unit, value(m.name))).collect(),
            fingerprint: win.fingerprint,
            exact: Vec::new(),
        };
    }

    t.count_ops(COUNTED_OPS);
    let traced = window(scale(cfg.budget, TRACED_SHARE), || w.op(Some(&mut t)));
    let plain = window(scale(cfg.budget, 1.0 - TRACED_SHARE), || w.op(None));
    let fin = w.finish(&mut t, true);
    drop(w);

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (_, tail_pct) = tail(&traced.ms);
    let derived = |name: &str| match name {
        "trace_overhead_ratio" => ratio(traced.ops_per_s(), plain.ops_per_s()),
        "tail_percentile" => tail_pct,
        "traced_ops" => traced.ms.len() as f64,
        "setup_peak_rss_mb" => setup_peak_rss_mb,
        "transpile_p50_ms" => t.p50_ms("transpile"),
        "core.compile_self_ms" => t.count_p50("core.compile_self_ms"),
        "engine.datalog.parallel_speedup" => {
            ratio(t.p50_ms("engine.datalog.t1"), t.p50_ms("engine.datalog.tN"))
        }
        "engine.ivm.speedup_vs_recompute" => {
            ratio(t.p50_ms("engine.ivm.recompute"), t.p50_ms("engine.ivm.apply_insert"))
        }
        _ => 0.0,
    };
    let value = |m: &crate::Layer| {
        if let Some((_, v)) = fin.layers.iter().find(|(n, _)| *n == m.name) {
            return *v;
        }
        match m.source {
            Source::Span => t.p50_ms(m.name.strip_suffix("_ms").expect("span metrics end in _ms")),
            Source::ExactCount => t.count_p50(m.name),
            Source::Derived => derived(m.name),
        }
    };
    let metrics: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit, value(m))).collect();
    let exact = PER_LAYER
        .iter()
        .zip(&metrics)
        .filter(|(m, _)| m.source == Source::ExactCount)
        .map(|(m, v)| (m.name, v.2))
        .collect();

    let path = scratch_dir().join(format!("trace-{}.jsonl", cfg.kind.name()));
    if let Err(e) = t.write_jsonl(&path) {
        eprintln!("raqbench: could not write {}: {e}", path.display());
    }
    RunResult {
        attempted: plain.ms.len() + traced.ms.len() + 1,
        failed: plain.failed + traced.failed + fin.failed,
        metrics,
        fingerprint: traced.fingerprint ^ plain.fingerprint.rotate_left(32),
        exact,
    }
}
