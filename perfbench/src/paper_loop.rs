//! One iteration of the paper's loop: compile the workload, profile the
//! baseline, BOLT it, and measure the result (paper sections 3-6).
//!
//! Every emulated run is checked against the MIR interpreter's outputs
//! from set-up, never against another emulated binary.

use crate::calib::{Clock, Lap};
use crate::fleet;
use crate::sinks::{Counted, SinkCalls};
use crate::trace::Tracer;
use crate::workload::{Input, Kind, Setup, MAX_STEPS};
use bolt::compiler::{compile_and_link, CompileOptions};
use bolt::elf::{read_elf, write_elf, Elf};
use bolt::emu::artifact::crc32;
use bolt::emu::{Engine, Exit, Machine, Tee, TierCounts, TraceSink};
use bolt::opt::{optimize, BoltOptions};
use bolt::passes::{PassManager, PassReport};
use bolt::profile::{AttachStats, LbrSampler, Profile, SampleTrigger};
use bolt::sim::{Counters, CpuModel, SimConfig};
use bolt_bench::SAMPLE_PERIOD;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Explicit settings: nothing here is read from the environment.
pub struct Settings {
    pub kind: Kind,
    pub opts: BoltOptions,
    /// Fleet worker processes running at once.
    pub procs: usize,
    /// Where fleet iterations keep their supervised state.
    pub state_dir: PathBuf,
    /// The executable fleet workers run (this benchmark).
    pub exe: PathBuf,
}

/// Operations attempted and failed. An operation is one emulated run,
/// one BOLT call, or one fleet shard.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn op(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.errors.push(format!("{what}: {e}"));
        }
    }
}

/// The observable result of one emulated run.
pub struct Run {
    pub exit: Exit,
    pub steps: u64,
    pub output: Vec<i64>,
    pub tiers: TierCounts,
}

/// Runs `elf` on `config` under the uop engine.
pub fn emulate<S: TraceSink + ?Sized>(
    elf: &Elf,
    config: Option<i64>,
    sink: &mut S,
) -> Result<Run, String> {
    let mut m = Machine::new();
    m.load_elf(elf);
    if let Some(c) = config {
        let addr = elf
            .symbol("config")
            .ok_or("binary has no `config` symbol")?
            .value;
        m.mem.write_u64(addr, c as u64);
    }
    let r = m
        .run_engine(sink, MAX_STEPS, Engine::Uop)
        .map_err(|e| e.to_string())?;
    Ok(Run {
        exit: r.exit,
        steps: r.steps,
        output: std::mem::take(&mut m.output),
        tiers: m.tier_counts(),
    })
}

/// [`emulate`], counting sink calls into `calls` when `count` is set.
fn emulate_counted<S: TraceSink>(
    elf: &Elf,
    config: Option<i64>,
    sink: &mut S,
    count: bool,
    calls: &mut SinkCalls,
) -> Result<Run, String> {
    if !count {
        return emulate(elf, config, sink);
    }
    let mut counted = Counted::new(sink);
    let run = emulate(elf, config, &mut counted);
    calls.add(counted.calls);
    run
}

/// Checks a run against the interpreter's reference for its input.
pub fn check(exit: Exit, output: &[i64], input: &Input) -> Result<(), String> {
    let want = &input.reference;
    match exit {
        Exit::Exited(code) if code & 0xFF == want.exit => {}
        other => return Err(format!("{other:?}, reference exits {}", want.exit)),
    }
    if output != want.output.as_slice() {
        return Err(format!(
            "output {output:?} differs from reference {:?}",
            want.output
        ));
    }
    Ok(())
}

fn check_run(run: &Run, input: &Input) -> Result<(), String> {
    check(run.exit, &run.output, input)?;
    match run.tiers.degraded() {
        0 => Ok(()),
        n => Err(format!("{n} degraded translations")),
    }
}

/// What the loop needs from one BOLT call.
struct Optimized {
    elf: Elf,
    hot_text: u64,
    reports: Vec<PassReport>,
    attach: AttachStats,
    functions: usize,
    simple: usize,
    /// Functions demoted to layout-only or quarantined.
    demoted: usize,
}

fn optimize_plain(elf: &Elf, profile: &Profile, opts: &BoltOptions) -> Result<Optimized, String> {
    let out = optimize(elf, profile, opts).map_err(|e| e.to_string())?;
    Ok(Optimized {
        hot_text: out.rewrite_stats.hot_text_size,
        reports: out.pipeline.reports,
        attach: out.attach_stats,
        functions: out.ctx.functions.len(),
        simple: out.simple_functions,
        demoted: out.quarantine.quarantined + out.quarantine.layout_only,
        elf: out.elf,
    })
}

/// `bolt_opt::optimize` on a clean input, phase by phase, with a span
/// around each phase. Its output is checked against the untraced
/// call's through the determinism digest. This path has no quarantine
/// ladder: a pass failure fails the iteration, and demotions are
/// counted from the untraced calls.
fn optimize_traced(
    elf: &Elf,
    profile: &Profile,
    opts: &BoltOptions,
    t: &mut Tracer,
) -> Result<Optimized, String> {
    let (mut ctx, raw) = t.span("opt.discover", "opt", |_| bolt::opt::discover(elf));
    let simple = t.span("opt.disasm", "opt", |_| {
        bolt::opt::disassemble_all_with_threads(&mut ctx, &raw, elf, opts.threads)
    });
    let attach = t.span("opt.attach", "opt", |_| {
        bolt::profile::attach_profile_opts(&mut ctx, profile, opts.non_lbr_tuned)
    });
    if opts.dyno_stats {
        t.span("opt.dyno", "opt", |_| {
            bolt::passes::dyno::context_dyno_stats(&ctx)
        });
    }
    let pipeline = t.span("opt.passes", "passes", |_| {
        let mut manager = PassManager::standard(&opts.passes);
        manager.config.threads = opts.threads;
        manager.run(&mut ctx, &opts.passes)
    });
    if !pipeline.failures.is_empty() {
        return Err(format!("pass failures: {:?}", pipeline.failures));
    }
    if opts.dyno_stats {
        t.span("opt.dyno", "opt", |_| {
            bolt::passes::dyno::context_dyno_stats(&ctx)
        });
    }
    let (out, stats) = t
        .span("opt.rewrite", "opt", |_| {
            bolt::opt::rewrite_binary(elf, &ctx, &pipeline.function_order)
        })
        .map_err(|e| e.to_string())?;
    Ok(Optimized {
        elf: out,
        hot_text: stats.hot_text_size,
        reports: pipeline.reports,
        attach,
        functions: ctx.functions.len(),
        simple,
        demoted: 0,
    })
}

/// Metric name of each pass report: the pass name, numbered from the
/// second registration on (`icf`, `icf.2`).
pub fn pass_names(reports: &[PassReport]) -> Vec<String> {
    let mut seen: BTreeMap<&str, u32> = BTreeMap::new();
    reports
        .iter()
        .map(|r| {
            let n = seen.entry(r.name).or_default();
            *n += 1;
            if *n == 1 {
                r.name.to_string()
            } else {
                format!("{}.{n}", r.name)
            }
        })
        .collect()
}

/// Host seconds of `optimize` calls to sample per iteration: a call
/// that takes milliseconds is repeated on the same input until this
/// much is sampled, so that one slow moment of the host does not set
/// the median.
const OPTIMIZE_SAMPLE_S: f64 = 0.25;
const OPTIMIZE_MAX_CALLS: usize = 50;

/// Repeats the iteration's `optimize` call outside `loop_s`, in one lap
/// of `clock` whose speed scales every call; every repeat must write the
/// same bytes.
fn repeat_optimize(
    elf: &Elf,
    profile: &Profile,
    s: &Settings,
    bytes: &[u8],
    clock: &mut Clock,
    it: &mut Iteration,
) -> Result<(), String> {
    let mut calls = Vec::new();
    while calls.iter().sum::<f64>() + it.optimize[0].host_s < OPTIMIZE_SAMPLE_S
        && calls.len() + 1 < OPTIMIZE_MAX_CALLS
    {
        let call = Instant::now();
        let out = optimize_plain(elf, profile, &s.opts)?;
        calls.push(call.elapsed().as_secs_f64());
        if write_elf(&out.elf).map_err(|e| e.to_string())? != bytes {
            return Err("a repeated optimize call wrote different bytes".into());
        }
    }
    let lap = clock.lap();
    it.optimize.extend(calls.into_iter().map(|c| lap.part(c)));
    Ok(())
}

/// The baseline profile and what its runs cost.
pub struct Profiled {
    pub profile: Profile,
    /// Counters of the baseline on the measurement input, when the
    /// profiling run was on that input.
    pub base: Option<Counters>,
    pub insts: u64,
    pub secs: f64,
}

/// Everything one iteration produces.
///
/// Times of an untraced iteration come with their scaled seconds (see
/// [`crate::calib`]); a traced one has host seconds only, and its
/// `norm_s` are 0.
#[derive(Debug, Default)]
pub struct Iteration {
    pub loop_time: Lap,
    /// Each `optimize` call on this iteration's input: the loop's own,
    /// then (untraced only) repeats outside `loop_time`.
    pub optimize: Vec<Lap>,
    /// Functions the untraced `optimize` call demoted or quarantined.
    pub demoted: usize,
    /// Peak resident memory of the fleet's worker processes, in MiB.
    pub worker_rss_mb: f64,
    /// Guest instructions retired under the CPU model, and the time
    /// those runs took.
    pub sim_insts: u64,
    pub sim: Lap,
    pub speedup_pct: f64,
    pub hot_text_bytes: u64,
    pub tally: Tally,
    /// Every deterministic output, rendered; equal across iterations.
    pub digest: String,
    /// CRC-32 of the baseline profile's canonical bytes.
    pub profile_crc: u32,
    /// Per-layer counts and program-reported times (traced only).
    pub layers: BTreeMap<String, f64>,
}

/// Runs one loop iteration, numbered from 1. An untraced iteration
/// laps `clock` between its steps; a traced one takes no probes.
pub fn iterate(
    setup: &Setup,
    s: &Settings,
    t: &mut Tracer,
    clock: &mut Clock,
    iteration: u32,
) -> Result<Iteration, String> {
    t.set_iteration(iteration);
    let mut it = Iteration::default();
    let mut clock = (!t.enabled()).then_some(clock);
    if let Some(c) = clock.as_deref_mut() {
        // Whatever ran since the last lap is not part of the loop.
        c.lap();
    }
    let (r, host_s) = t.timed("iteration", "bench", |t| {
        body(setup, s, t, &mut clock, iteration, &mut it)
    });
    r?;
    if clock.is_none() {
        it.loop_time = Lap {
            host_s,
            norm_s: 0.0,
        };
    }
    Ok(it)
}

/// Ends a lap of the loop and returns it.
fn lap(clock: &mut Option<&mut Clock>, it: &mut Iteration) -> Lap {
    let lap = clock.as_deref_mut().map_or(Lap::default(), Clock::lap);
    it.loop_time += lap;
    lap
}

fn body(
    setup: &Setup,
    s: &Settings,
    t: &mut Tracer,
    clock: &mut Option<&mut Clock>,
    iteration: u32,
    it: &mut Iteration,
) -> Result<(), String> {
    let traced = t.enabled();
    let mut calls = SinkCalls::default();
    let mut tiers = TierCounts::default();
    let mut add_tiers = |c: TierCounts| {
        tiers.full += c.full;
        tiers.decoded += c.decoded;
        tiers.step += c.step;
    };

    // 1. Compile.
    let elf = t
        .span("compile", "compiler", |_| {
            compile_and_link(&setup.program, &CompileOptions::default())
        })
        .map_err(|e| e.to_string())?
        .elf;
    lap(clock, it);

    // 2. Profile the baseline.
    let profiled = if s.kind == Kind::Fleet {
        fleet::profile(&elf, setup, s, t, iteration, it)?
    } else {
        let input = &setup.training[0];
        let mut sampler = LbrSampler::new(SAMPLE_PERIOD, SampleTrigger::Instructions);
        let mut model = CpuModel::new(SimConfig::server());
        let (run, secs) = t.timed("profile", "run", |_| {
            let mut sink = Tee(&mut sampler, &mut model);
            emulate_counted(&elf, input.config, &mut sink, traced, &mut calls)
        });
        let run = run?;
        add_tiers(run.tiers);
        it.tally.op("baseline run", check_run(&run, input));
        let base = model.counters();
        Profiled {
            profile: sampler.profile,
            insts: base.instructions,
            base: Some(base),
            secs,
        }
    };
    let profile_lap = lap(clock, it);
    it.sim_insts += profiled.insts;
    it.sim += profile_lap.part(profiled.secs);

    // 3. BOLT it; the rewritten binary goes through the ELF writer and
    // reader like the output file it is.
    let (out, optimize_s) = t.timed("optimize", "opt", |t| {
        if traced {
            optimize_traced(&elf, &profiled.profile, &s.opts, t)
        } else {
            optimize_plain(&elf, &profiled.profile, &s.opts)
        }
    });
    let out = out?;
    let optimize_lap = lap(clock, it);
    it.optimize.push(optimize_lap.part(optimize_s));
    it.demoted = out.demoted;
    let bytes = t
        .span("elf.write", "elf", |_| write_elf(&out.elf))
        .map_err(|e| e.to_string())?;
    let bolted = t
        .span("elf.read", "elf", |_| read_elf(&bytes))
        .map_err(|e| e.to_string())?;
    lap(clock, it);
    if let Some(c) = clock.as_deref_mut() {
        repeat_optimize(&elf, &profiled.profile, s, &bytes, c, it)?;
    }
    it.tally.op(
        "BOLT",
        match out.demoted {
            0 => Ok(()),
            n => Err(format!("{n} functions demoted or quarantined")),
        },
    );

    // 4. Measure. The fleet measures both binaries on its held-out
    // input; the others reuse the profiling run's baseline counters.
    let input = &setup.measure;
    let mut measure = |t: &mut Tracer, name: &'static str, elf: &Elf| -> Result<Counters, String> {
        let mut model = CpuModel::new(SimConfig::server());
        let (run, secs) = t.timed(name, "run", |_| {
            emulate_counted(elf, input.config, &mut model, traced, &mut calls)
        });
        let measure_lap = lap(clock, it);
        let run = run?;
        add_tiers(run.tiers);
        it.tally.op(name, check_run(&run, input));
        let counters = model.counters();
        it.sim_insts += counters.instructions;
        it.sim += measure_lap.part(secs);
        Ok(counters)
    };
    let base = match profiled.base {
        Some(c) => c,
        None => measure(t, "measure.base", &elf)?,
    };
    let new = measure(t, "measure", &bolted)?;

    it.speedup_pct = base.speedup_over(&new);
    it.hot_text_bytes = out.hot_text;
    let names = pass_names(&out.reports);
    let changes: Vec<(&String, u64)> = names
        .iter()
        .zip(out.reports.iter().map(|r| r.changes))
        .collect();
    it.profile_crc = crc32(&profiled.profile.to_bytes());
    it.digest = format!(
        "speedup_pct={:016x} hot_text_bytes={} base={:?} bolted={:?} translations={:?} \
         passes={:?} profile={:08x} bolted_elf={:08x}",
        it.speedup_pct.to_bits(),
        it.hot_text_bytes,
        base,
        new,
        tiers,
        changes,
        it.profile_crc,
        crc32(&bytes),
    );

    if traced {
        let l = &mut it.layers;
        let text = elf.section(".text").map_or(0, |s| s.data.len());
        l.insert("compiler.text_bytes".into(), text as f64);
        l.insert("emu.insts_base".into(), base.instructions as f64);
        l.insert("emu.insts_bolted".into(), new.instructions as f64);
        l.insert(
            "emu.translations".into(),
            (tiers.full + tiers.degraded()) as f64,
        );
        l.insert("emu.degraded".into(), tiers.degraded() as f64);
        l.insert("sim.on_inst_calls".into(), calls.on_inst as f64);
        l.insert("sim.on_block_calls".into(), calls.on_block as f64);
        l.insert("sim.on_mem_calls".into(), calls.on_mem as f64);
        l.insert("sim.on_branch_calls".into(), calls.on_branch as f64);
        for (suffix, c) in [("base", &base), ("bolted", &new)] {
            l.insert(format!("sim.cycles_{suffix}"), c.cycles);
            l.insert(format!("sim.l1i_misses_{suffix}"), c.l1i_misses as f64);
            l.insert(format!("sim.itlb_misses_{suffix}"), c.itlb_misses as f64);
            l.insert(
                format!("sim.branch_mispredicts_{suffix}"),
                c.branch_mispredicts as f64,
            );
        }
        l.insert(
            "profile.samples".into(),
            profiled.profile.num_samples as f64,
        );
        l.insert(
            "profile.branch_records".into(),
            profiled.profile.branches.len() as f64,
        );
        l.insert("profile.attach_match_ratio".into(), out.attach.accuracy());
        l.insert("opt.functions".into(), out.functions as f64);
        l.insert(
            "opt.simple_ratio".into(),
            out.simple as f64 / out.functions.max(1) as f64,
        );
        for (name, r) in names.iter().zip(&out.reports) {
            l.insert(format!("passes.{name}_s"), r.duration.as_secs_f64());
            l.insert(format!("passes.{name}.changes"), r.changes as f64);
        }
        l.insert("elf.bytes".into(), bytes.len() as f64);
    }
    lap(clock, it);
    Ok(())
}
