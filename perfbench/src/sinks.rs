//! A forwarding trace sink that counts the emulator's calls into it.

use bolt::emu::{BlockEvent, BranchEvent, TraceSink};

/// How often the emulator called into the sink, per entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkCalls {
    pub on_inst: u64,
    pub on_block: u64,
    pub on_mem: u64,
    pub on_branch: u64,
}

impl SinkCalls {
    pub fn add(&mut self, other: SinkCalls) {
        self.on_inst += other.on_inst;
        self.on_block += other.on_block;
        self.on_mem += other.on_mem;
        self.on_branch += other.on_branch;
    }
}

/// Forwards every event to `inner`, counting the calls (traced runs
/// only: the counting is not free).
pub struct Counted<'a, S: ?Sized> {
    pub inner: &'a mut S,
    pub calls: SinkCalls,
}

impl<'a, S: ?Sized> Counted<'a, S> {
    pub fn new(inner: &'a mut S) -> Counted<'a, S> {
        Counted {
            inner,
            calls: SinkCalls::default(),
        }
    }
}

impl<S: TraceSink + ?Sized> TraceSink for Counted<'_, S> {
    #[inline]
    fn on_inst(&mut self, addr: u64, len: u8) {
        self.calls.on_inst += 1;
        self.inner.on_inst(addr, len);
    }

    #[inline]
    fn on_block(&mut self, ev: BlockEvent<'_>) {
        self.calls.on_block += 1;
        self.inner.on_block(ev);
    }

    #[inline]
    fn on_branch(&mut self, ev: BranchEvent) {
        self.calls.on_branch += 1;
        self.inner.on_branch(ev);
    }

    #[inline]
    fn on_mem(&mut self, addr: u64, len: u8, write: bool) {
        self.calls.on_mem += 1;
        self.inner.on_mem(addr, len, write);
    }
}
