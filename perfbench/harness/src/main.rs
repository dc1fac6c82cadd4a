//! `perfbench`: the repository's benchmark harness.
//!
//! ```text
//! perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--smoke] [--inject-failure]
//! perfbench pin --seeds <a,b,...> [--seconds <s>]   # print lockstep pin lines
//! perfbench rss-selftest                            # per-run peak RSS check
//! perfbench dwrs <args...>                          # the dwrs CLI (daemon child)
//! ```
//!
//! `run` prints a human-readable report and, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; it exits 1 when
//! any correctness check failed. It drives the library only through its
//! public API. Run it from the checkout root: it reads the pinned counts
//! from `perfbench/lockstep-refs.txt` and writes each traced run's spans
//! under `.bench_build/perfbench-traces/`.

mod bench;
mod daemon;
mod engine;
mod probes;
mod stats;
mod sys;
mod trace;
mod workload;

use workload::Outcome;

const USAGE: &str = "usage: perfbench run --workload <name> --seed <n> --seconds <s> \
                     --trace <0|1> [--smoke] [--inject-failure] | \
                     pin --seeds <a,b,..> [--seconds <s>] | rss-selftest | dwrs <args...>";

/// The pinned lockstep counts, relative to the checkout root.
const PINS: &str = "perfbench/lockstep-refs.txt";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("dwrs") => {
            let mut stdout = std::io::stdout().lock();
            dwrs_cli::run(&args[1..], &mut stdout)
        }
        Some("run") => cmd_run(&args[1..]),
        Some("pin") => cmd_pin(&args[1..]),
        Some("rss-selftest") => rss_selftest(),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// `--key value` and bare `--flag` options.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{a}'"))?;
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().cloned(),
                _ => None,
            };
            out.push((key.to_string(), value));
        }
        Ok(Flags(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self
            .get(key)
            .ok_or_else(|| format!("--{key} is required"))?;
        v.parse().map_err(|_| format!("bad --{key} '{v}'"))
    }
}

fn cmd_run(args: &[String]) -> i32 {
    let opts = match parse_run(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let pins = match std::fs::read_to_string(PINS)
        .map_err(|e| format!("cannot read {PINS}: {e}"))
        .and_then(|t| workload::parse_pins(&t))
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let out = bench::run(&opts, &pins);
    for line in &out.lines {
        println!("{line}");
    }
    for f in &out.failures {
        println!("FAILED {f}");
    }
    let correct = out.failed == 0 && out.metrics.values().all(|(v, _)| v.is_finite());
    println!("{}", result_json(&out, correct));
    if correct {
        0
    } else {
        1
    }
}

fn parse_run(args: &[String]) -> Result<bench::Opts, String> {
    let f = Flags::parse(args)?;
    let name = f.get("workload").ok_or("--workload is required")?;
    let spec = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = workload::specs().iter().map(|s| s.name).collect();
        format!("unknown workload '{name}' (known: {})", names.join(", "))
    })?;
    let seconds: f64 = f.num("seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match f.get("trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("bad --trace '{other}' (0 or 1)")),
    };
    let opts = bench::Opts {
        spec,
        seed: f.num("seed")?,
        seconds,
        trace,
        smoke: f.has("smoke"),
        inject_failure: f.has("inject-failure"),
    };
    Ok(opts)
}

/// The result line: metrics in name order, every value with all its
/// digits (`null` when not finite).
fn result_json(out: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// Prints the pin-file lines for every workload: the canonical check, and
/// the full-size reference of each given seed.
fn cmd_pin(args: &[String]) -> i32 {
    let run = || -> Result<(), String> {
        let f = Flags::parse(args)?;
        let seconds: f64 = f.get("seconds").map_or(Ok(10.0), |_| f.num("seconds"))?;
        let seeds: Vec<u64> = f
            .get("seeds")
            .ok_or("--seeds is required")?
            .split(',')
            .map(|s| s.parse().map_err(|_| format!("bad seed '{s}'")))
            .collect::<Result<_, _>>()?;
        println!("# workload seed items lockstep_up lockstep_down");
        for spec in workload::specs() {
            let n = match spec.kind {
                workload::Kind::Daemon => workload::daemon_items(workload::feed_seconds(seconds)),
                _ => spec.n,
            };
            let sizes = std::iter::once((workload::CANON_SEED, workload::CANON_N))
                .chain(seeds.iter().map(|&s| (s, n)));
            for (seed, items) in sizes {
                let rep = dwrs_runtime::run_scenario(&spec.lockstep(items, seed))
                    .map_err(|e| e.to_string())?;
                println!(
                    "{} {seed} {items} {} {}",
                    spec.name, rep.metrics.up_total, rep.metrics.down_total
                );
            }
        }
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// Peak RSS is process-wide and never falls, so each run resets it first.
/// This checks the reset works: a small run after a large one must report
/// a lower peak than the large one did.
fn rss_selftest() -> i32 {
    use dwrs_runtime::{run_scenario, EngineKind, Scenario, Workload};
    let big: Vec<dwrs_core::Item> = (0..4_000_000u64)
        .map(|i| dwrs_core::Item::new(i, 1.0 + (i % 7) as f64))
        .collect();
    let measure = |sc: &Scenario| -> Result<u64, String> {
        sys::reset_peak_rss().map_err(|e| e.to_string())?;
        run_scenario(sc).map_err(|e| e.to_string())?;
        sys::peak_rss_bytes(None).map_err(|e| e.to_string())
    };
    let large = Scenario::new(EngineKind::Threads, 4, 16).with_workload(Workload::items(big));
    let small = Scenario::new(EngineKind::Threads, 4, 16).with_n(10_000);
    let result = measure(&large).and_then(|l| {
        drop(large);
        measure(&small).map(|s| (l, s))
    });
    match result {
        Ok((l, s)) if s < l => {
            println!("rss-selftest ok: large run peak {l} bytes, small run peak {s} bytes");
            0
        }
        Ok((l, s)) => {
            println!("rss-selftest FAILED: small run peak {s} >= large run peak {l}");
            1
        }
        Err(e) => {
            println!("rss-selftest FAILED: {e}");
            1
        }
    }
}
