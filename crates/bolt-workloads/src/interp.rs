//! The `interp` workload: a dispatch-*dominated* bytecode VM, built to
//! be hostile to block chaining — the class of code the uop execution
//! tier targets.
//!
//! Unlike the `hhvm` workload (whose handlers do real per-opcode work
//! between dispatches), almost every retired instruction here sits on a
//! dispatch path: a jump-table `switch` over a skewed opcode stream
//! (`vm_step`), immediately followed by a function-pointer dispatch to
//! the same handler set (`vm_indirect`). Both sites resolve a *different*
//! target nearly every execution, so the uop engine's two-slot
//! chain links thrash and every transition falls back to the entry-index
//! lookup — while the uop tier still wins on the dispatch blocks
//! themselves (pre-resolved operands, no wide `Inst` match, lazy flags
//! across the dense compare ladders).

use crate::common::{rng, skewed_symbols, Scale};
use bolt_compiler::{
    BinOp, CmpOp, FunctionBuilder, Global, MirProgram, Operand, Rvalue, ShiftKind,
};
use rand::Rng;

/// Builds the workload program.
pub fn build(scale: Scale, seed: u64) -> MirProgram {
    let n_ops = scale.funcs(20, 64);
    let bytecode_len = 1024usize;
    let iterations = scale.iters(20_000, 250_000);
    let mut r = rng(seed);

    let mut p = MirProgram::with_entry("main");
    p.globals.push(Global {
        name: "bytecode".into(),
        words: skewed_symbols(&mut r, bytecode_len, n_ops),
        mutable: false,
    });
    p.globals.push(Global {
        name: "consts".into(),
        words: (0..256).map(|_| r.gen_range(1..1 << 20)).collect(),
        mutable: false,
    });
    p.globals.push(Global {
        name: "stack".into(),
        words: vec![0; 64],
        mutable: true,
    });

    // op_<j>(pc, acc): deliberately tiny handlers — just enough ALU work
    // to observably mix the accumulator — so dispatch, not handler
    // bodies, dominates the retired-instruction mix.
    for j in 0..n_ops {
        let mut f = FunctionBuilder::new(&format!("op_{j}"), 2, "ops.cpp", 1);
        let idx = f.assign(Rvalue::BinOp(
            BinOp::And,
            Operand::Local(0),
            Operand::Const(255),
        ));
        let c = f.assign(Rvalue::LoadGlobal {
            global: "consts".into(),
            index: Operand::Local(idx),
        });
        let x = f.assign(Rvalue::BinOp(
            BinOp::Xor,
            Operand::Local(1),
            Operand::Local(c),
        ));
        let s = f.assign(Rvalue::Shift(
            ShiftKind::Shr,
            Operand::Local(x),
            (j % 13 + 1) as u8,
        ));
        let out = f.assign(Rvalue::BinOp(
            BinOp::Add,
            Operand::Local(x),
            Operand::Local(s),
        ));
        f.ret(Operand::Local(out));
        p.add_function(f.finish());
    }

    // vm_step(pc, acc): jump-table dispatch straight to handler calls —
    // a dense compare/branch ladder whose target changes with every
    // opcode fetched.
    let mut f = FunctionBuilder::new("vm_step", 2, "vm.cpp", 2);
    let pcm = f.assign(Rvalue::BinOp(
        BinOp::And,
        Operand::Local(0),
        Operand::Const(bytecode_len as i64 - 1),
    ));
    let op = f.assign(Rvalue::LoadGlobal {
        global: "bytecode".into(),
        index: Operand::Local(pcm),
    });
    let arms = f.switch(Operand::Local(op), n_ops);
    for (j, arm) in arms.targets.clone().iter().enumerate() {
        f.switch_to(*arm);
        let ret = f.call(
            &format!("op_{j}"),
            vec![Operand::Local(0), Operand::Local(1)],
        );
        f.ret(Operand::Local(ret));
    }
    f.switch_to(arms.default);
    f.ret(Operand::Local(1));
    p.add_function(f.finish());

    // vm_indirect(pc, acc): the same handler set reached through a
    // function pointer — the dispatch site's indirect call retargets on
    // nearly every execution, which is exactly the pattern two-slot
    // chain links cannot hold.
    let mut f = FunctionBuilder::new("vm_indirect", 2, "vm.cpp", 3);
    let bumped = f.assign(Rvalue::BinOp(
        BinOp::Add,
        Operand::Local(0),
        Operand::Const(1),
    ));
    let pcm = f.assign(Rvalue::BinOp(
        BinOp::And,
        Operand::Local(bumped),
        Operand::Const(bytecode_len as i64 - 1),
    ));
    let op = f.assign(Rvalue::LoadGlobal {
        global: "bytecode".into(),
        index: Operand::Local(pcm),
    });
    let ptr = f.new_local();
    let join = f.new_block();
    let arms = f.switch(Operand::Local(op), n_ops);
    for (j, arm) in arms.targets.clone().iter().enumerate() {
        f.switch_to(*arm);
        f.assign_to(ptr, Rvalue::FuncAddr(format!("op_{j}")));
        f.goto(join);
    }
    f.switch_to(arms.default);
    f.assign_to(ptr, Rvalue::FuncAddr("op_0".into()));
    f.goto(join);
    f.switch_to(join);
    let out = f.call_indirect(
        Operand::Local(ptr),
        vec![Operand::Local(0), Operand::Local(1)],
    );
    f.ret(Operand::Local(out));
    p.add_function(f.finish());

    // main: the VM loop — two dispatches per iteration, a stack spill,
    // and a bounded accumulator emitted at the end.
    let mut m = FunctionBuilder::new("main", 3, "main.cpp", 0);
    let acc = m.new_local();
    let i = m.new_local();
    m.assign_to(acc, Rvalue::Use(Operand::Const(1)));
    m.assign_to(i, Rvalue::Use(Operand::Const(0)));
    let head = m.goto_new();
    m.switch_to(head);
    let c = m.assign_cmp(CmpOp::Lt, Operand::Local(i), Operand::Const(iterations));
    let (body, done) = m.branch(Operand::Local(c));
    m.switch_to(body);
    let stepped = m.call("vm_step", vec![Operand::Local(i), Operand::Local(acc)]);
    let routed = m.call(
        "vm_indirect",
        vec![Operand::Local(i), Operand::Local(stepped)],
    );
    m.assign_to(
        acc,
        Rvalue::BinOp(BinOp::Add, Operand::Local(stepped), Operand::Local(routed)),
    );
    m.assign_to(
        acc,
        Rvalue::BinOp(BinOp::And, Operand::Local(acc), Operand::Const(0xFFFF_FFFF)),
    );
    let slot = m.assign(Rvalue::BinOp(
        BinOp::And,
        Operand::Local(i),
        Operand::Const(63),
    ));
    m.push_stmt(bolt_compiler::Stmt::StoreGlobal {
        global: "stack".into(),
        index: Operand::Local(slot),
        value: Operand::Local(acc),
        line: 0,
    });
    m.assign_to(
        i,
        Rvalue::BinOp(BinOp::Add, Operand::Local(i), Operand::Const(1)),
    );
    m.goto(head);
    m.switch_to(done);
    m.emit(Operand::Local(acc));
    let code = m.assign(Rvalue::BinOp(
        BinOp::And,
        Operand::Local(acc),
        Operand::Const(0x3F),
    ));
    m.ret(Operand::Local(code));
    p.add_function(m.finish());

    p.validate().expect("generated program is valid");
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_compiler::Interp;

    #[test]
    fn builds_and_interprets() {
        let p = build(Scale::Test, 7);
        let mut i = Interp::new(&p, 200_000_000);
        let code = i.run(&[]).unwrap();
        assert_eq!(i.output.len(), 1);
        assert_eq!(code, i.output[0] & 0x3F);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(build(Scale::Test, 7), build(Scale::Test, 7));
        assert_ne!(build(Scale::Test, 7), build(Scale::Test, 8));
    }
}
