//! The paper-loop benchmark: compile -> profile -> optimize -> measure,
//! on one named workload per invocation.
//!
//! ```text
//! perfbench --workload <hhvm|clang|interp|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, then one JSON object as
//! the last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced iterations and
//! reports the per-layer metrics, writing the spans under `.bench_run/`.
//! See `perfbench/README.md`.

mod calib;
mod fleet;
mod paper_loop;
mod sinks;
mod trace;
mod workload;

use bolt::emu::artifact::crc32;
use bolt::emu::NullSink;
use bolt::opt::BoltOptions;
use bolt::profile::{LbrSampler, SampleTrigger};
use bolt::sim::{CpuModel, SimConfig};
use bolt_bench::SAMPLE_PERIOD;
use calib::{Clock, Lap};
use paper_loop::{Iteration, Settings, Tally};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use workload::Kind;

/// Library code still reads these; any of them would change what is
/// measured behind the benchmark's back.
const FORBIDDEN_ENV: [&str; 7] = [
    "BOLT_ENGINE",
    "BOLT_THREADS",
    "BOLT_SHARDS",
    "BOLT_MAX_STEPS",
    "BOLT_SEM_VALIDATE",
    "BOLT_UOP_VALIDATE",
    "BOLT_CRASH_AT",
];

/// Set-up runs at least `SETUP_MIN` times, and more (up to `SETUP_MAX`)
/// until `SETUP_BUDGET_S` seconds are spent; `setup_s` is the median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 15;
const SETUP_BUDGET_S: f64 = 3.0;

/// Everything the run writes lives here, relative to the working
/// directory (the root of the checkout).
const RUN_DIR: &str = ".bench_run";

/// Per-layer metrics reported on every workload, zero where the layer
/// is idle. Pass metrics (`passes.<name>_s`, `passes.<name>.changes`)
/// follow the pipeline's own reports.
const LAYER_METRICS: &[&str] = &[
    "compiler.compile_s",
    "compiler.text_bytes",
    "compiler.interp_s",
    "emu.exec_s",
    "emu.insts_base",
    "emu.insts_bolted",
    "emu.ns_per_inst",
    "emu.translations",
    "emu.degraded",
    "sim.charge_s",
    "sim.on_inst_calls",
    "sim.on_block_calls",
    "sim.on_mem_calls",
    "sim.on_branch_calls",
    "sim.cycles_base",
    "sim.cycles_bolted",
    "sim.l1i_misses_base",
    "sim.l1i_misses_bolted",
    "sim.itlb_misses_base",
    "sim.itlb_misses_bolted",
    "sim.branch_mispredicts_base",
    "sim.branch_mispredicts_bolted",
    "profile.sample_s",
    "profile.samples",
    "profile.branch_records",
    "profile.attach_match_ratio",
    "profile.merge_s",
    "opt.discover_s",
    "opt.disasm_s",
    "opt.attach_s",
    "opt.dyno_s",
    "opt.passes_s",
    "opt.rewrite_s",
    "opt.functions",
    "opt.simple_ratio",
    "opt.quarantined",
    "elf.write_s",
    "elf.read_s",
    "elf.bytes",
    "supervise.wall_s",
    "supervise.overhead_s",
    "supervise.spawns",
    "supervise.retries",
    "supervise.quarantined",
    "artifact.bytes",
    "artifact.decode_s",
    "self.bench_s",
    "self.compiler_s",
    "self.run_s",
    "self.opt_s",
    "self.passes_s",
    "self.elf_s",
    "self.supervise_s",
    "self.artifact_s",
    "self.profile_s",
    "trace.loop_s",
    "trace.untraced_loop_s",
    "trace.overhead_s",
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let usage = "usage: perfbench --workload <hhvm|clang|interp|fleet> --seed <n> \
                 --seconds <s> --trace <0|1>";
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut rest = argv.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or(usage)?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| flags.get(name).copied().ok_or(usage.to_string());
    let workload = get("--workload")?;
    let args = Args {
        kind: Kind::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    };
    if flags.len() != 4 {
        return Err(usage.to_string());
    }
    Ok(args)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MIN, f64::max)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_s") {
        "s"
    } else if name.ends_with("ns_per_inst") {
        "ns"
    } else if name.ends_with("bytes") {
        "bytes"
    } else if name.ends_with("ratio") {
        "ratio"
    } else {
        "count"
    }
}

/// Fails unless every iteration computed exactly the same thing, and
/// the same as any earlier run of this executable on this workload and
/// seed.
fn check_determinism(args: &Args, iterations: &[(bool, Iteration)]) -> Result<String, String> {
    let first = &iterations[0].1.digest;
    if let Some((_, odd)) = iterations.iter().find(|(_, it)| &it.digest != first) {
        return Err(format!(
            "deterministic outputs differ between iterations:\n  {first}\n  {}",
            odd.digest
        ));
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let exe_crc = crc32(&std::fs::read(&exe).map_err(|e| e.to_string())?);
    let path = Path::new(RUN_DIR).join("digests").join(format!(
        "{}-{}-{exe_crc:08x}.txt",
        args.kind.name(),
        args.seed
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if &earlier != first => Err(format!(
            "deterministic outputs differ from an earlier run ({}):\n  {earlier}\n  {first}",
            path.display()
        )),
        Ok(_) => Ok(format!("matches {}", path.display())),
        Err(_) => {
            std::fs::create_dir_all(path.parent().expect("digest dir"))
                .and_then(|()| bolt::emu::artifact::write_atomic(&path, first.as_bytes()))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(format!("recorded in {}", path.display()))
        }
    }
}

/// Rounds of side measurements; each layer's figure is the median of
/// its per-round differences, so that a slow moment of the host hits
/// both sides of one difference.
const SIDE_ROUNDS: usize = 3;

/// Side measurements of the traced run, outside the loop: the baseline
/// under no sink, under the CPU model alone and under the sampler alone,
/// and for the fleet, its shards in one process.
fn side_runs(
    setup: &workload::Setup,
    s: &Settings,
    t: &mut Tracer,
    profile_crc: u32,
    tally: &mut Tally,
    layers: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    t.set_iteration(0);
    let elf = bolt::compiler::compile_and_link(&setup.program, &Default::default())
        .map_err(|e| e.to_string())?
        .elf;
    let input = &setup.measure;
    let mut checked = |name: &'static str, t: &mut Tracer, sink: &mut dyn bolt::emu::TraceSink| {
        let (run, secs) = t.timed(name, "run", |_| {
            paper_loop::emulate(&elf, input.config, sink)
        });
        let run = run?;
        tally.op(name, paper_loop::check(run.exit, &run.output, input));
        Ok::<_, String>((run.steps, secs))
    };
    let (mut exec, mut charge, mut sample, mut per_inst) = (vec![], vec![], vec![], vec![]);
    for _ in 0..SIDE_ROUNDS {
        let (steps, null_s) = checked("side.null", t, &mut NullSink)?;
        let (_, cpu_s) = checked("side.cpu_model", t, &mut CpuModel::new(SimConfig::server()))?;
        let mut sampler = LbrSampler::new(SAMPLE_PERIOD, SampleTrigger::Instructions);
        let (_, lbr_s) = checked("side.sampler", t, &mut sampler)?;
        exec.push(null_s);
        per_inst.push(null_s * 1e9 / steps.max(1) as f64);
        charge.push(cpu_s - null_s);
        sample.push(lbr_s - null_s);
    }
    layers.insert("emu.exec_s".into(), median(&exec));
    layers.insert("emu.ns_per_inst".into(), median(&per_inst));
    layers.insert("sim.charge_s".into(), median(&charge));
    layers.insert("profile.sample_s".into(), median(&sample));

    if s.kind == Kind::Fleet {
        let (profile, batch_s) = t.span("side.in_process_batch", "run", |_| {
            fleet::in_process(&elf, setup, s, tally)
        })?;
        if crc32(&profile.to_bytes()) != profile_crc {
            return Err("in-process batch profile differs from the supervised merge".into());
        }
        let wall = median(&t.durations("supervise"));
        layers.insert("supervise.overhead_s".into(), wall - batch_s);
    }
    Ok(())
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    let set: Vec<&str> = FORBIDDEN_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: library code reads it",
            set.join(", ")
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // At most two workers, so that larger machines run the same shape.
    let workers = nproc.min(2);
    let run_dir = PathBuf::from(RUN_DIR);
    let settings = Settings {
        kind: args.kind,
        opts: BoltOptions {
            threads: workers,
            ..BoltOptions::paper_default()
        },
        procs: workers,
        state_dir: run_dir.join(format!("state-{}", std::process::id())),
        exe: std::env::current_exe().map_err(|e| e.to_string())?,
    };

    // Set-up: generate the program and its reference outputs, one lap
    // of the calibrated clock each time.
    let mut clock = Clock::new();
    let mut setups: Vec<Lap> = Vec::new();
    let mut interp_s = Vec::new();
    let mut setup: Option<workload::Setup> = None;
    let setup_started = Instant::now();
    while setups.len() < SETUP_MIN
        || (setups.len() < SETUP_MAX && setup_started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let s = workload::setup(args.kind, args.seed)?;
        setups.push(clock.lap());
        interp_s.push(s.interp_s);
        if let Some(prev) = &setup {
            if (&prev.program, &prev.training, &prev.measure)
                != (&s.program, &s.training, &s.measure)
            {
                return Err("set-up is not deterministic".into());
            }
        }
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");

    // The loop: untraced iterations, alternating with traced ones when
    // tracing, until the time is up.
    let mut tracer = Tracer::new(args.trace);
    let mut untraced = Tracer::new(false);
    let mut tally = Tally::default();
    let mut iterations: Vec<(bool, Iteration)> = Vec::new();
    let started = Instant::now();
    for n in 1u32.. {
        let traced = args.trace && n % 2 == 0;
        let t = if traced { &mut tracer } else { &mut untraced };
        match paper_loop::iterate(&setup, &settings, t, &mut clock, n) {
            Ok(it) => iterations.push((traced, it)),
            Err(e) => {
                tally.op(&format!("iteration {n}"), Err(e));
                break;
            }
        }
        let have_traced = iterations.iter().any(|(t, _)| *t);
        if started.elapsed().as_secs_f64() >= args.seconds && (have_traced || !args.trace) {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&settings.state_dir);
    for (_, it) in &iterations {
        tally.attempted += it.tally.attempted;
        tally.failed += it.tally.failed;
        tally.errors.extend(it.tally.errors.iter().cloned());
    }
    if iterations.is_empty() {
        return Err(format!("no iteration completed: {:?}", tally.errors));
    }
    let digest = check_determinism(&args, &iterations)?;

    let plain: Vec<&Iteration> = iterations
        .iter()
        .filter(|(t, _)| !t)
        .map(|(_, i)| i)
        .collect();
    let traced: Vec<&Iteration> = iterations
        .iter()
        .filter(|(t, _)| *t)
        .map(|(_, i)| i)
        .collect();
    let of =
        |its: &[&Iteration], f: fn(&Iteration) -> f64| its.iter().map(|i| f(i)).collect::<Vec<_>>();
    let first = plain[0];
    let optimize: Vec<Lap> = plain.iter().flat_map(|i| i.optimize.clone()).collect();
    // Each time metric: scaled to the reference host, then as measured.
    let times: [(&str, Vec<f64>, Vec<f64>); 4] = [
        (
            "loop_s",
            of(&plain, |i| i.loop_time.norm_s),
            of(&plain, |i| i.loop_time.host_s),
        ),
        (
            "setup_s",
            setups.iter().map(|l| l.norm_s).collect(),
            setups.iter().map(|l| l.host_s).collect(),
        ),
        (
            "optimize_s",
            optimize.iter().map(|l| l.norm_s).collect(),
            optimize.iter().map(|l| l.host_s).collect(),
        ),
        (
            "sim_mips",
            of(&plain, |i| i.sim_insts as f64 / i.sim.norm_s / 1e6),
            of(&plain, |i| i.sim_insts as f64 / i.sim.host_s / 1e6),
        ),
    ];
    let e2e: Vec<(&str, f64, &str)> = vec![
        ("loop_s", median(&times[0].1), "s"),
        ("setup_s", median(&times[1].1), "s"),
        ("optimize_s", median(&times[2].1), "s"),
        ("sim_mips", median(&times[3].1), "Minst/s"),
        ("speedup_pct", first.speedup_pct, "%"),
        ("hot_text_bytes", first.hot_text_bytes as f64, "bytes"),
        (
            "peak_rss_mb",
            iterations
                .iter()
                .map(|(_, i)| i.worker_rss_mb)
                .fold(peak_rss_mb()?, f64::max),
            "MiB",
        ),
    ];

    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    if args.trace {
        side_runs(
            &setup,
            &settings,
            &mut tracer,
            first.profile_crc,
            &mut tally,
            &mut layers,
        )?;
        let keys: std::collections::BTreeSet<&String> =
            traced.iter().flat_map(|i| i.layers.keys()).collect();
        for key in keys {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|i| i.layers.get(key).copied())
                .collect();
            layers.insert(key.clone(), median(&values));
        }
        for (metric, span) in [
            ("compiler.compile_s", "compile"),
            ("opt.discover_s", "opt.discover"),
            ("opt.disasm_s", "opt.disasm"),
            ("opt.attach_s", "opt.attach"),
            ("opt.dyno_s", "opt.dyno"),
            ("opt.passes_s", "opt.passes"),
            ("opt.rewrite_s", "opt.rewrite"),
            ("elf.write_s", "elf.write"),
            ("elf.read_s", "elf.read"),
            ("profile.merge_s", "profile.merge"),
            ("supervise.wall_s", "supervise"),
            ("artifact.decode_s", "artifact.decode"),
        ] {
            layers.insert(metric.into(), median(&tracer.durations(span)));
        }
        layers.insert("compiler.interp_s".into(), median(&interp_s));
        let demoted = plain.iter().map(|i| i.demoted).max().unwrap_or(0);
        layers.insert("opt.quarantined".into(), demoted as f64);
        for (layer, secs) in tracer.self_times() {
            layers.insert(format!("self.{layer}_s"), median(&secs));
        }
        // Traced iterations take no probes, so both sides are host time.
        let traced_loop = median(&of(&traced, |i| i.loop_time.host_s));
        let untraced_loop = median(&times[0].2);
        layers.insert("trace.loop_s".into(), traced_loop);
        layers.insert("trace.untraced_loop_s".into(), untraced_loop);
        layers.insert("trace.overhead_s".into(), traced_loop - untraced_loop);
        for name in LAYER_METRICS {
            layers.entry(name.to_string()).or_insert(0.0);
        }
        let path =
            run_dir
                .join("trace")
                .join(format!("{}-seed{}.jsonl", args.kind.name(), args.seed));
        tracer
            .write_jsonl(&path, args.kind.name(), args.seed)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {} ({} spans)", path.display(), tracer.spans().len());
    }

    // Report.
    println!(
        "perfbench {} seed={} trace={} nproc={nproc} threads={workers} procs={workers} \
         iterations={} (traced {})",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        iterations.len(),
        traced.len()
    );
    let fail_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    for (name, value, unit) in &e2e {
        print!("  {name:<16} {value:>14.4} {unit}");
        if let Some((_, scaled, host)) = times.iter().find(|(n, _, _)| n == name) {
            print!(
                " (median of {}, max {:.4}; as measured: median {:.4}, max {:.4})",
                scaled.len(),
                max(scaled),
                median(host),
                max(host)
            );
        }
        println!();
    }
    println!(
        "  host speed: reference probe {:.4} s; {} probes: min {:.4} s, median {:.4} s, max {:.4} s",
        calib::REFERENCE_S,
        clock.probes.len(),
        clock.probes.iter().copied().fold(f64::MAX, f64::min),
        median(&clock.probes),
        max(&clock.probes),
    );
    println!(
        "  {:<16} {:>14.4} ratio ({} failed of {} attempted)",
        "fail_rate", fail_rate, tally.failed, tally.attempted
    );
    for e in &tally.errors {
        println!("  failure: {e}");
    }
    println!(
        "  determinism digest {:08x}: {digest}",
        crc32(first.digest.as_bytes())
    );
    if args.trace {
        let opt_sum: f64 = ["discover", "disasm", "attach", "dyno", "passes", "rewrite"]
            .iter()
            .map(|p| layers[&format!("opt.{p}_s")])
            .sum();
        println!(
            "  opt.* phases sum {opt_sum:.4} s vs untraced optimize_s as measured {:.4} s; \
             tracing overhead {:.4} s",
            median(&times[2].2),
            layers["trace.overhead_s"]
        );
        for (name, value) in &layers {
            println!("  {name:<36} {value:>16.6} {}", unit_of(name));
        }
    }

    let metrics: Vec<String> = if args.trace {
        layers
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_of(n)))
            .collect()
    } else {
        e2e.iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(fleet::WORKER_FLAG) {
        if let Err(e) = fleet::worker(&argv[1..]) {
            eprintln!("perfbench worker: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Err(e) = run(&argv) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
