//! The four benchmark workloads: program generation from the seed and
//! the independent reference outputs, both computed in set-up.

use bolt::compiler::{Interp, MirProgram};
use bolt::workloads::{clang_shape, compiler_like, gcc_shape, hhvm, interp, Scale};

/// Seeds `Workload::build` uses; `--seed 0` reproduces them exactly and
/// seed `n` adds `n` to each.
const HHVM_SEED: u64 = 0x44BB;
const INTERP_SEED: u64 = 0x1D15;

/// Step budget for every reference and emulated run.
pub const MAX_STEPS: u64 = 2_000_000_000;

/// Fleet profiling shards; shard `i` runs input size `base + i`.
pub const FLEET_SHARDS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hhvm,
    Clang,
    Interp,
    Fleet,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Hhvm, Kind::Clang, Kind::Interp, Kind::Fleet];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Hhvm => "hhvm",
            Kind::Clang => "clang",
            Kind::Interp => "interp",
            Kind::Fleet => "fleet",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// What a correct run of one input must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Exit status as the process sees it (low 8 bits).
    pub exit: i64,
    pub output: Vec<i64>,
}

/// One emulated input: the value written into the program's `config`
/// word (its input size), if any, and the interpreter's outputs for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    pub config: Option<i64>,
    pub reference: Reference,
}

/// Everything set-up produces.
#[derive(Debug, Clone)]
pub struct Setup {
    pub program: MirProgram,
    /// The inputs the baseline is profiled on, one per shard.
    pub training: Vec<Input>,
    /// The input the baseline and BOLTed binaries are measured on. Only
    /// the fleet holds it out from training.
    pub measure: Input,
    /// Host seconds spent in the MIR interpreter.
    pub interp_s: f64,
}

fn generate(kind: Kind, seed: u64) -> MirProgram {
    let scale = Scale::Bench;
    match kind {
        Kind::Hhvm => hhvm::build(scale, HHVM_SEED.wrapping_add(seed)),
        Kind::Interp => interp::build(scale, INTERP_SEED.wrapping_add(seed)),
        Kind::Clang | Kind::Fleet => {
            let mut shape = if kind == Kind::Clang {
                clang_shape(scale)
            } else {
                gcc_shape(scale)
            };
            shape.seed = shape.seed.wrapping_add(seed);
            compiler_like::build(scale, shape)
        }
    }
}

fn config_global(program: &mut MirProgram) -> &mut Vec<i64> {
    &mut program
        .globals
        .iter_mut()
        .find(|g| g.name == "config")
        .expect("compiler-like workloads keep their input size in `config`")
        .words
}

fn input(program: &MirProgram, config: Option<i64>) -> Result<Input, String> {
    let mut p = program.clone();
    if let Some(c) = config {
        config_global(&mut p)[0] = c;
    }
    let mut it = Interp::new(&p, MAX_STEPS);
    let code = it
        .run(&[])
        .map_err(|e| format!("reference interpreter: {e:?}"))?;
    Ok(Input {
        config,
        reference: Reference {
            exit: code & 0xFF,
            output: it.output,
        },
    })
}

/// Generates the workload and its reference outputs. The fleet's
/// training inputs split the full input size evenly over
/// [`FLEET_SHARDS`]; its held-out input is half again as large as a
/// shard's, a size no shard runs.
pub fn setup(kind: Kind, seed: u64) -> Result<Setup, String> {
    let mut program = generate(kind, seed);
    let started = std::time::Instant::now();
    let (training, measure) = if kind == Kind::Fleet {
        let base = config_global(&mut program)[0] / FLEET_SHARDS as i64;
        let training = (0..FLEET_SHARDS as i64)
            .map(|i| input(&program, Some(base + i)))
            .collect::<Result<Vec<_>, _>>()?;
        (training, input(&program, Some(base * 3 / 2))?)
    } else {
        let main = input(&program, None)?;
        (vec![main.clone()], main)
    };
    Ok(Setup {
        program,
        training,
        measure,
        interp_s: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt::workloads::Workload;

    #[test]
    fn seed_zero_reproduces_workload_build() {
        for (kind, workload) in [
            (Kind::Hhvm, Workload::Hhvm),
            (Kind::Clang, Workload::ClangLike),
            (Kind::Interp, Workload::Interp),
            (Kind::Fleet, Workload::GccLike),
        ] {
            assert!(
                generate(kind, 0) == workload.build(Scale::Bench),
                "{}",
                kind.name()
            );
            assert!(generate(kind, 1) != generate(kind, 0), "{}", kind.name());
        }
    }
}
