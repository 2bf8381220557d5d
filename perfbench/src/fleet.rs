//! The fleet workload's profiling step: 16 seed-partitioned shards, each
//! a supervised worker process that re-reads the baseline ELF and writes
//! a durable shard artifact; the artifacts' profiles are merged in shard
//! order.

use crate::paper_loop::{check, emulate, Iteration, Profiled, Settings, Tally};
use crate::trace::Tracer;
use crate::workload::{Setup, FLEET_SHARDS, MAX_STEPS};
use bolt::elf::{read_elf, write_elf, Elf};
use bolt::emu::supervise::{run_supervised, ShardEventKind, SupervisePlan};
use bolt::emu::{artifact, Engine, Exit, ShardPlan, Tee};
use bolt::profile::{LbrSampler, Profile, ProfileMode, SampleTrigger};
use bolt::shard_artifact::ShardArtifact;
use bolt::sim::{CpuModel, SimConfig};
use bolt_bench::{try_profile_lbr_batch_with, SAMPLE_PERIOD};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// The hidden command-line flag that turns this executable into a
/// fleet worker.
pub const WORKER_FLAG: &str = "--fleet-worker";

/// Profiles the baseline under supervision. Each shard is one operation
/// in the tally: it fails when quarantined or when its outputs differ
/// from the interpreter's.
pub fn profile(
    elf: &Elf,
    setup: &Setup,
    s: &Settings,
    t: &mut Tracer,
    iteration: u32,
    it: &mut Iteration,
) -> Result<Profiled, String> {
    let dir = s.state_dir.join(format!("fleet-{iteration}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let elf_path = dir.join("base.elf");
    t.span("elf.write", "elf", |_| -> Result<(), String> {
        let bytes = write_elf(elf).map_err(|e| e.to_string())?;
        artifact::write_atomic(&elf_path, &bytes).map_err(|e| e.to_string())
    })?;

    let plan = SupervisePlan {
        procs: s.procs,
        deadline: Duration::from_secs(120),
        max_attempts: 2,
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(100),
        ..SupervisePlan::new(FLEET_SHARDS, dir.clone(), format!("fleet {iteration}"))
    };
    let (outcome, wall) = t.timed("supervise", "supervise", |_| {
        run_supervised(&plan, |shard, _attempt, artifact_path| {
            let mut cmd = Command::new(&s.exe);
            cmd.arg(WORKER_FLAG)
                .arg(&elf_path)
                .arg(shard.to_string())
                .arg(config_of(setup, shard).to_string())
                .arg(artifact_path);
            cmd
        })
    });
    let outcome = outcome.map_err(|e| format!("supervisor: {e}"))?;
    let artifact_bytes: u64 = outcome
        .artifacts
        .iter()
        .flatten()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    let decoded: Vec<Option<Result<ShardArtifact, String>>> =
        t.span("artifact.decode", "artifact", |_| {
            outcome
                .artifacts
                .iter()
                .map(|p| {
                    p.as_ref()
                        .map(|p| ShardArtifact::read(p).map_err(|e| e.to_string()))
                })
                .collect()
        });
    // Each worker leaves its peak resident memory next to its artifact.
    it.worker_rss_mb = (0..FLEET_SHARDS)
        .filter_map(|i| std::fs::read_to_string(rss_path(&plan.artifact_path(i))).ok())
        .filter_map(|kb| kb.trim().parse::<f64>().ok())
        .fold(it.worker_rss_mb, |peak, kb| peak.max(kb / 1024.0));
    let _ = std::fs::remove_dir_all(&dir);

    let mut shards = Vec::with_capacity(FLEET_SHARDS);
    for (i, (a, input)) in decoded.into_iter().zip(&setup.training).enumerate() {
        let a = match a {
            None => Err("quarantined by the supervisor".to_string()),
            Some(Err(e)) => Err(e),
            Some(Ok(a)) => check(a.exit, &a.output, input).map(|()| a),
        };
        match a {
            Ok(a) => {
                it.tally.op(&format!("shard {i}"), Ok(()));
                shards.push(a);
            }
            Err(e) => it.tally.op(&format!("shard {i}"), Err(e)),
        }
    }
    let profile = t.span("profile.merge", "profile", |_| {
        let mut merged = Profile::new(ProfileMode::Lbr);
        for a in &shards {
            if let Some(p) = &a.profile {
                merged.merge(p);
            }
        }
        merged
    });
    let insts = shards
        .iter()
        .filter_map(|a| a.counters.as_ref())
        .map(|c| c.instructions)
        .sum();

    if t.enabled() {
        let spawns = outcome
            .report
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    ShardEventKind::Completed
                        | ShardEventKind::Crashed
                        | ShardEventKind::TimedOut
                        | ShardEventKind::BadArtifact
                )
            })
            .count();
        let l = &mut it.layers;
        l.insert("supervise.spawns".into(), spawns as f64);
        l.insert("supervise.retries".into(), outcome.report.retries as f64);
        l.insert(
            "supervise.quarantined".into(),
            outcome.report.quarantined.len() as f64,
        );
        l.insert("artifact.bytes".into(), artifact_bytes as f64);
    }
    Ok(Profiled {
        profile,
        base: None,
        insts,
        secs: wall,
    })
}

fn config_of(setup: &Setup, shard: usize) -> i64 {
    setup.training[shard]
        .config
        .expect("fleet shards set their input size")
}

fn rss_path(artifact: &Path) -> PathBuf {
    artifact.with_extension("rss")
}

/// The same shards in one process on `s.procs` threads, for the
/// supervisor's overhead. Each shard is checked against the
/// interpreter's outputs and counted in `tally`. Returns the merged
/// profile (which must equal the supervised one) and the host seconds
/// taken.
pub fn in_process(
    elf: &Elf,
    setup: &Setup,
    s: &Settings,
    tally: &mut Tally,
) -> Result<(Profile, f64), String> {
    let addr = elf.symbol("config").ok_or("no `config` symbol")?.value;
    let plan = ShardPlan::new(FLEET_SHARDS)
        .with_threads(s.procs)
        .with_max_steps(MAX_STEPS)
        .with_engine(Engine::Uop);
    let started = Instant::now();
    let (profile, batch) =
        try_profile_lbr_batch_with(elf, &SimConfig::server(), &plan, |shard, m| {
            m.mem.write_u64(addr, config_of(setup, shard) as u64)
        })
        .map_err(|e| e.to_string())?;
    let secs = started.elapsed().as_secs_f64();
    for (i, (run, input)) in batch.runs.iter().zip(&setup.training).enumerate() {
        tally.op(
            &format!("in-process shard {i}"),
            check(Exit::Exited(run.exit_code), &run.output, input),
        );
    }
    Ok((profile, secs))
}

/// Worker entry point: `<elf> <shard> <config> <artifact>`. Profiles one
/// shard and writes its artifact atomically, then its peak resident
/// memory in KiB beside it. A run with a degraded translation fails the
/// attempt, so the supervisor retries the shard and then quarantines it.
pub fn worker(args: &[String]) -> Result<(), String> {
    let [elf_path, shard, config, out] = args else {
        return Err(format!("{WORKER_FLAG} <elf> <shard> <config> <artifact>"));
    };
    let shard: u32 = shard.parse().map_err(|e| format!("shard: {e}"))?;
    let config: i64 = config.parse().map_err(|e| format!("config: {e}"))?;
    let bytes = std::fs::read(elf_path).map_err(|e| format!("{elf_path}: {e}"))?;
    let elf = read_elf(&bytes).map_err(|e| e.to_string())?;
    let mut sampler = LbrSampler::new(SAMPLE_PERIOD, SampleTrigger::Instructions);
    let mut model = CpuModel::new(SimConfig::server());
    let run = emulate(&elf, Some(config), &mut Tee(&mut sampler, &mut model))?;
    if run.tiers.degraded() > 0 {
        return Err(format!("{} degraded translations", run.tiers.degraded()));
    }
    let out = Path::new(out);
    ShardArtifact {
        shard,
        exit: run.exit,
        steps: run.steps,
        output: run.output,
        profile: Some(sampler.profile),
        counters: Some(model.counters()),
    }
    .write(out)
    .map_err(|e| format!("{}: {e}", out.display()))?;
    let rss_kb = crate::peak_rss_mb()? * 1024.0;
    std::fs::write(rss_path(out), rss_kb.to_string())
        .map_err(|e| format!("{}: {e}", rss_path(out).display()))
}
