//! Command line of `raqbench`. See `README.md` beside this crate.

use std::process::{Command, ExitCode};

use raqbench::json::Json;
use raqbench::probe::nproc;
use raqbench::report::{compare, render_compare, result_line, RunSet, Verdict, WorkloadRuns};
use raqbench::runner::{run, Budget, RunConfig, RunResult};
use raqbench::workloads::Kind;
use raqbench::{END_TO_END, PER_LAYER};
use raqlet_bench::quick_mode;

const USAGE: &str = "\
usage:
  raqbench --workload <name> [--seed N] [--seconds S | --ops N] [--trace [0|1]] [--quick]
      one run; the last line of stdout is the result object the driver reads
  raqbench --all [--seed N] [--seconds S] [--runs R] [--out FILE] [--commit C] [--date D]
      every workload: R untraced runs and one traced run, each in its own process
  raqbench --check-determinism [--seed N]
      run every workload twice at quick size; counts and digests must be identical
  raqbench compare <a.json> <b.json>
      hold run-set b against run-set a; exits 1 if any metric is worse, or if
      an exact count differs between run-sets of one seed
  raqbench --describe
      print BENCHMARK.json as the metric tables in the code define it
workloads: interactive_mix closure_analytic points_to table1_graph table1_datalog
  table1_sql ivm_churn reopen";

struct Args {
    workload: Option<String>,
    all: bool,
    check: bool,
    seed: u64,
    seconds: f64,
    ops: Option<usize>,
    traced: bool,
    quick: bool,
    runs: usize,
    out: Option<String>,
    commit: String,
    date: String,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        check: false,
        seed: 42,
        seconds: 10.0,
        ops: None,
        traced: false,
        quick: quick_mode(),
        runs: 5,
        out: None,
        commit: "unknown".into(),
        date: "unknown".into(),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        let number = |s: String| s.parse::<f64>().map_err(|_| format!("`{s}` is not a number"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => a.seed = number(value("a number")?)? as u64,
            "--seconds" => a.seconds = number(value("a number")?)?,
            "--ops" => a.ops = Some(number(value("a number")?)? as usize),
            "--runs" => a.runs = (number(value("a number")?)? as usize).max(1),
            "--out" => a.out = Some(value("a path")?),
            "--commit" => a.commit = value("a commit id")?,
            "--date" => a.date = value("a date")?,
            "--all" => a.all = true,
            "--check-determinism" => a.check = true,
            "--quick" => a.quick = true,
            "--trace" => {
                a.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(a)
}

fn budget(a: &Args) -> Budget {
    a.ops.map_or(Budget::Seconds(a.seconds), Budget::Ops)
}

fn print_metrics(r: &RunResult) {
    for (name, unit, value) in &r.metrics {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
}

fn one(a: &Args, name: &str) -> Result<ExitCode, String> {
    let kind = Kind::from_name(name).ok_or(format!("unknown workload `{name}`"))?;
    let r =
        run(RunConfig { kind, seed: a.seed, budget: budget(a), traced: a.traced, quick: a.quick });
    println!(
        "{name} seed {} ({} pass): {} attempted, {} failed",
        a.seed,
        pass(a.traced),
        r.attempted,
        r.failed
    );
    print_metrics(&r);
    println!("{}", result_line(&r));
    Ok(if r.failed == 0 { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

fn pass(traced: bool) -> &'static str {
    if traced {
        "traced"
    } else {
        "untraced"
    }
}

/// Run one workload in a child process and parse its result line.
fn child(a: &Args, kind: Kind, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name(), "--seed", &a.seed.to_string()]);
    match a.ops {
        Some(n) => cmd.args(["--ops", &n.to_string()]),
        None => cmd.args(["--seconds", &a.seconds.to_string()]),
    };
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("cannot start a {} run: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line).map_err(|e| {
        format!(
            "{} run printed no result ({e}); stderr: {}",
            kind.name(),
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

fn all(a: &Args) -> Result<ExitCode, String> {
    let mut set = RunSet {
        seed: a.seed,
        seconds: a.seconds,
        nproc: nproc(),
        commit: a.commit.clone(),
        date: a.date.clone(),
        workloads: Vec::new(),
    };
    let field = |v: &Json, key: &str| v.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let metric = |v: &Json, name: &str| {
        v.get("metrics").and_then(|m| m.get(name)).map_or(0.0, |m| field(m, "value"))
    };
    for kind in Kind::ALL {
        let mut w = WorkloadRuns { name: kind.name().into(), ..Default::default() };
        w.end_to_end = END_TO_END.iter().map(|m| (m.name.to_string(), Vec::new())).collect();
        for _ in 0..a.runs {
            let v = child(a, kind, false)?;
            w.attempted += field(&v, "attempted") as u64;
            w.failed += field(&v, "failed") as u64;
            for (name, values) in &mut w.end_to_end {
                values.push(metric(&v, name));
            }
        }
        let v = child(a, kind, true)?;
        w.failed += field(&v, "failed") as u64;
        w.per_layer = PER_LAYER.iter().map(|m| (m.name.to_string(), metric(&v, m.name))).collect();

        println!("{} — {}", kind.name(), kind.why());
        println!(
            "  {} attempted, {} failed over {} run(s); medians:",
            w.attempted, w.failed, a.runs
        );
        for (m, (_, values)) in END_TO_END.iter().zip(&w.end_to_end) {
            let spread = raqbench::stats::spread(values);
            println!(
                "  {:<36} {:>16.6} {:<6} (spread {:.4}, bound {:.2})",
                m.name,
                raqbench::stats::median(values),
                m.unit,
                spread,
                m.bound
            );
        }
        for (m, (_, value)) in PER_LAYER.iter().zip(&w.per_layer) {
            println!("  {:<36} {:>16.6} {}", m.name, value, m.unit);
        }
        set.workloads.push(w);
    }
    if let Some(path) = &a.out {
        std::fs::write(path, set.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("run-set written to {path}");
    }
    let failed: u64 = set.workloads.iter().map(|w| w.failed).sum();
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

/// Every generator and workload twice at quick size with a fixed op count:
/// the run fingerprints (a fold of every op's result digest) and every
/// exact count must be identical.
fn check_determinism(a: &Args) -> Result<ExitCode, String> {
    let mut same = true;
    for kind in Kind::ALL {
        for traced in [false, true] {
            let cfg =
                RunConfig { kind, seed: a.seed, budget: Budget::Ops(40), traced, quick: true };
            let (x, y) = (run(cfg), run(cfg));
            let ok =
                x.fingerprint == y.fingerprint && x.exact == y.exact && x.failed + y.failed == 0;
            println!(
                "{:<18} {:<8} fingerprint {:016x} / {:016x}, {} exact counts: {}",
                kind.name(),
                pass(traced),
                x.fingerprint,
                y.fingerprint,
                x.exact.len(),
                if ok { "identical" } else { "DIFFERENT" }
            );
            for ((name, p), (_, q)) in x.exact.iter().zip(&y.exact) {
                if p != q {
                    println!("    {name}: {p} vs {q}");
                }
            }
            same &= ok;
        }
    }
    Ok(if same { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        RunSet::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (sa, sb) = (load(a)?, load(b)?);
    println!("a: {a} (seed {}, commit {}, {}, nproc {})", sa.seed, sa.commit, sa.date, sa.nproc);
    println!("b: {b} (seed {}, commit {}, {}, nproc {})", sb.seed, sb.commit, sb.date, sb.nproc);
    let rows = compare(&sa, &sb);
    print!("{}", render_compare(&rows));
    let mut exact_differ = 0;
    for (wa, wb) in sa.workloads.iter().zip(&sb.workloads) {
        for (m, ((_, va), (_, vb))) in PER_LAYER.iter().zip(wa.per_layer.iter().zip(&wb.per_layer))
        {
            if m.source == raqbench::Source::ExactCount && va != vb {
                println!("exact count differs: {} {} {va} vs {vb}", wa.name, m.name);
                exact_differ += 1;
            }
        }
    }
    // Exact counts are a property of (tree, seed): at equal seeds a
    // difference is a change in the work done, and fails the comparison.
    let same_seed = sa.seed == sb.seed;
    if same_seed {
        println!("{exact_differ} exact count(s) differ");
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows.iter().filter(|r| r.verdict == Verdict::Unresolved).count();
    println!("{} rows: {worse} worse, {unresolved} unresolved", rows.len());
    let pass = worse == 0 && !(same_seed && exact_differ > 0);
    Ok(if pass { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.as_slice() {
        [cmd, a, b] if cmd == "compare" => compare_files(a, b),
        [cmd] if cmd == "--describe" => {
            print!("{}", raqbench::report::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        [] => Err(USAGE.to_string()),
        _ => parse(&argv).and_then(|a| match (&a.workload, a.all, a.check) {
            (Some(name), false, false) => one(&a, name),
            (None, true, false) => all(&a),
            (None, false, true) => check_determinism(&a),
            _ => Err(USAGE.to_string()),
        }),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("raqbench: {message}");
        ExitCode::from(64)
    })
}
