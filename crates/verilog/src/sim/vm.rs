//! The stack VM executing compiled simulation programs.
//!
//! State is pre-sized at construction (slot values, the flat memory-word
//! arena, the evaluation stack, the non-blocking queue, the fired-block
//! list, and the two settle snapshots); running stimulus vectors allocates
//! nothing in the steady state. The settle/fire scheduling loop is a
//! line-for-line mirror of the reference engine's — only expression
//! evaluation is different, running the pre-compiled op stream instead of
//! walking the AST.

use super::bytecode::{CodeRange, Op, Program};
use super::engine::{SimError, MAX_EDGE_ROUNDS, MAX_SETTLE, STMT_BUDGET};
use super::value::Value;
use super::{resolve_input, resolve_signal, InputSlot, SignalSlot};
use crate::ast::{BinaryOp, Edge, UnaryOp};
use std::fmt;
use std::sync::Arc;

/// A simulator instance over a compiled [`Program`].
///
/// Public surface matches [`super::Simulator`]; the two are pinned
/// bit-identical by differential tests.
pub struct CompiledSimulator {
    prog: Arc<Program>,
    values: Vec<Value>,
    words: Vec<u64>,
    edge_prev: Vec<bool>,
    stack: Vec<Value>,
    nb: Vec<(u32, Value)>,
    /// Edge blocks triggered in the current round (reused across rounds).
    fired: Vec<usize>,
    /// End-of-previous-settle-iteration state; the fixpoint test compares
    /// against it and refreshes it in one fused pass.
    state_prev: Vec<u64>,
    /// Set once any propagation has errored; disables the unchanged-input
    /// fast path so error behaviour can never diverge from the reference.
    poisoned: bool,
}

impl fmt::Debug for CompiledSimulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledSimulator")
            .field("signals", &self.values.len())
            .field("ops", &self.prog.ops.len())
            .finish()
    }
}

impl CompiledSimulator {
    /// Instantiates fresh state for a compiled program and settles it.
    ///
    /// # Errors
    ///
    /// Fails exactly where the reference engine's construction would:
    /// unknown signals in constants, oscillating initial logic.
    pub fn new(prog: Arc<Program>) -> Result<CompiledSimulator, SimError> {
        if let Some(e) = &prog.init_err {
            return Err(e.clone());
        }
        let values = prog.slots.iter().map(|m| Value::zero(m.width)).collect();
        let words = vec![0u64; prog.words_len];
        let edge_prev = vec![false; prog.edge_sigs.len()];
        let state_len = prog.slots.len() + prog.words_len;
        let mut sim = CompiledSimulator {
            values,
            words,
            edge_prev,
            stack: Vec::with_capacity(16),
            nb: Vec::new(),
            fired: Vec::new(),
            state_prev: vec![0u64; state_len],
            poisoned: false,
            prog,
        };
        let prog = Arc::clone(&sim.prog);
        for (i, v) in &prog.init {
            let w = prog.slots[*i as usize].width;
            sim.values[*i as usize] = Value::new(*v, w);
        }
        sim.settle_comb(&prog)?;
        sim.snapshot_edges(&prog);
        Ok(sim)
    }

    /// Names of the top-level inputs.
    pub fn inputs(&self) -> &[String] {
        &self.prog.inputs
    }

    /// Names of the top-level outputs.
    pub fn outputs(&self) -> &[String] {
        &self.prog.outputs
    }

    /// Resolves a top-level input for [`CompiledSimulator::set_slot`].
    ///
    /// # Errors
    ///
    /// The error [`CompiledSimulator::set`] gives for `name`:
    /// `NotAnInput` or `UnknownSignal`.
    pub fn input_slot(&self, name: &str) -> Result<InputSlot, SimError> {
        resolve_input(&self.prog.inputs, &self.prog.names, name)
    }

    /// Resolves a signal for [`CompiledSimulator::get_slot`].
    ///
    /// # Errors
    ///
    /// The error [`CompiledSimulator::get`] gives for `name`:
    /// `UnknownSignal`.
    pub fn signal_slot(&self, name: &str) -> Result<SignalSlot, SimError> {
        resolve_signal(&self.prog.names, name)
    }

    /// Reads a resolved signal's current value.
    pub fn get_slot(&self, slot: SignalSlot) -> Value {
        self.values[slot.0 as usize]
    }

    /// Drives a resolved input and propagates the change.
    ///
    /// # Errors
    ///
    /// Fails on oscillating logic and runaway loops.
    pub fn set_slot(&mut self, slot: InputSlot, value: u64) -> Result<(), SimError> {
        let i = slot.0 as usize;
        let v = Value::new(value, self.prog.slots[i].width);
        // Unchanged input on settled, never-errored state: propagation is
        // a guaranteed no-op (the state is already at fixpoint), so skip
        // it. The reference engine reaches the same state the long way.
        if !self.poisoned && self.values[i] == v {
            return Ok(());
        }
        self.values[i] = v;
        self.propagate()
    }

    /// Reads a signal's current value.
    ///
    /// # Errors
    ///
    /// Fails when `name` is not a signal of the flattened design.
    pub fn get(&self, name: &str) -> Result<Value, SimError> {
        Ok(self.get_slot(self.signal_slot(name)?))
    }

    /// Drives a top-level input and propagates the change.
    ///
    /// # Errors
    ///
    /// Fails on unknown/non-input signals and on oscillating logic.
    pub fn set(&mut self, name: &str, value: u64) -> Result<(), SimError> {
        self.set_slot(self.input_slot(name)?, value)
    }

    /// Applies one full clock cycle (falling then rising edge) to `clk`.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CompiledSimulator::set`].
    pub fn clock(&mut self, clk: &str) -> Result<(), SimError> {
        let clk = self.input_slot(clk)?;
        self.set_slot(clk, 0)?;
        self.set_slot(clk, 1)
    }

    fn propagate(&mut self) -> Result<(), SimError> {
        // One program handle per propagation, lent to every stage.
        let prog = Arc::clone(&self.prog);
        let r = self.propagate_inner(&prog);
        if r.is_err() {
            self.poisoned = true;
        }
        r
    }

    fn propagate_inner(&mut self, prog: &Program) -> Result<(), SimError> {
        for _ in 0..MAX_EDGE_ROUNDS {
            self.settle_comb(prog)?;
            let fired = self.fire_edges(prog)?;
            if !fired {
                return Ok(());
            }
        }
        Err(SimError::Oscillation)
    }

    fn settle_comb(&mut self, prog: &Program) -> Result<(), SimError> {
        // Fixed schedule: the compiler proved one topologically ordered
        // pass reaches the fixpoint, so skip the iterate-and-compare loop
        // (and its full-state captures) entirely.
        if let Some(sched) = &prog.schedule {
            for unit in sched {
                self.stack.clear();
                self.nb.clear();
                let mut budget = STMT_BUDGET;
                self.run_unit(prog, *unit, &mut budget)?;
                if !self.nb.is_empty() {
                    self.commit_nb(prog)?;
                }
            }
            return Ok(());
        }
        capture_state(&self.values, &self.words, &mut self.state_prev);
        for _ in 0..MAX_SETTLE {
            self.stack.clear();
            let mut budget = STMT_BUDGET; // assigns carry no budget ops
            self.run_unit(prog, prog.assigns, &mut budget)?;
            for unit in &prog.comb {
                self.stack.clear();
                self.nb.clear();
                let mut budget = STMT_BUDGET;
                self.run_unit(prog, *unit, &mut budget)?;
                self.commit_nb(prog)?;
            }
            if self.settled_and_refresh() {
                return Ok(());
            }
        }
        Err(SimError::Oscillation)
    }

    /// Fused fixpoint test: compares the current state against the end of
    /// the previous settle iteration (one pass, no second buffer) and
    /// refreshes the snapshot for the next iteration.
    fn settled_and_refresh(&mut self) -> bool {
        let mut same = true;
        let mut k = 0;
        for v in &self.values {
            let cur = v.as_u64();
            if self.state_prev[k] != cur {
                self.state_prev[k] = cur;
                same = false;
            }
            k += 1;
        }
        for &w in &self.words {
            if self.state_prev[k] != w {
                self.state_prev[k] = w;
                same = false;
            }
            k += 1;
        }
        same
    }

    fn snapshot_edges(&mut self, prog: &Program) {
        for (i, slot) in prog.edge_sigs.iter().enumerate() {
            self.edge_prev[i] = slot.map(|s| self.values[s as usize].bit_at(0)).unwrap_or(false);
        }
    }

    fn fire_edges(&mut self, prog: &Program) -> Result<bool, SimError> {
        let mut to_run = std::mem::take(&mut self.fired);
        to_run.clear();
        for (i, blk) in prog.edges.iter().enumerate() {
            let triggered = blk.triggers.iter().any(|(edge, sig)| {
                let prev = self.edge_prev[*sig as usize];
                let cur = prog.edge_sigs[*sig as usize]
                    .map(|s| self.values[s as usize].bit_at(0))
                    .unwrap_or(false);
                match edge {
                    Edge::Pos => !prev && cur,
                    Edge::Neg => prev && !cur,
                }
            });
            if triggered {
                to_run.push(i);
            }
        }
        self.snapshot_edges(prog);
        if to_run.is_empty() {
            self.fired = to_run;
            return Ok(false);
        }
        self.nb.clear();
        let ran = to_run.iter().try_for_each(|&i| {
            self.stack.clear();
            let mut budget = STMT_BUDGET;
            self.run_unit(prog, prog.edges[i].code, &mut budget)
        });
        // Hand the buffer back before any error returns, so the next
        // round reuses it.
        self.fired = to_run;
        ran?;
        self.commit_nb(prog)?;
        Ok(true)
    }

    /// Applies queued non-blocking updates in push order; each writer
    /// fragment re-evaluates its index expressions now, like the engine's
    /// commit-time `write_lvalue`.
    fn commit_nb(&mut self, prog: &Program) -> Result<(), SimError> {
        if self.nb.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut self.nb);
        for (writer, v) in &pending {
            self.stack.clear();
            self.stack.push(*v);
            let mut budget = STMT_BUDGET; // writers carry no budget ops
            self.run_unit(prog, prog.writers[*writer as usize], &mut budget)?;
        }
        // Hand the (now empty) buffer back to avoid reallocating.
        let mut pending = pending;
        pending.clear();
        self.nb = pending;
        Ok(())
    }

    fn pop(&mut self) -> Value {
        self.stack.pop().expect("VM stack underflow (compiler bug)")
    }

    #[allow(clippy::too_many_lines)]
    fn run_unit(
        &mut self,
        prog: &Program,
        range: CodeRange,
        budget: &mut usize,
    ) -> Result<(), SimError> {
        let mut pc = range.start as usize;
        let end = range.end as usize;
        while pc < end {
            let op = &prog.ops[pc];
            pc += 1;
            match op {
                Op::PushLit(v) => self.stack.push(*v),
                Op::LoadSlot(i) => self.stack.push(self.values[*i as usize]),
                Op::Resize(w) => {
                    let v = self.pop();
                    self.stack.push(v.resize(*w));
                }
                Op::Dup => {
                    let v = *self.stack.last().expect("VM stack underflow (compiler bug)");
                    self.stack.push(v);
                }
                Op::Drop => {
                    self.pop();
                }
                Op::Jump(t) => pc = *t as usize,
                Op::JumpIfFalse(t) => {
                    if !self.pop().is_truthy() {
                        pc = *t as usize;
                    }
                }
                Op::JumpIfTrue(t) => {
                    if self.pop().is_truthy() {
                        pc = *t as usize;
                    }
                }
                Op::Unary(op, ctx) => {
                    use UnaryOp::*;
                    let av = self.pop();
                    self.stack.push(match op {
                        Neg => Value::new(av.as_u64().wrapping_neg(), (*ctx).max(av.width())),
                        Plus => av,
                        BitNot => Value::new(!av.as_u64(), av.width()),
                        LogicalNot => Value::bit(!av.is_truthy()),
                        RedAnd => Value::bit(av.as_u64() == Value::mask(av.width())),
                        RedOr => Value::bit(av.is_truthy()),
                        RedXor => Value::bit(av.as_u64().count_ones() % 2 == 1),
                        RedNand => Value::bit(av.as_u64() != Value::mask(av.width())),
                        RedNor => Value::bit(!av.is_truthy()),
                        RedXnor => Value::bit(av.as_u64().count_ones().is_multiple_of(2)),
                    });
                }
                Op::Cmp(op) => {
                    use BinaryOp::*;
                    let bv = self.pop();
                    let av = self.pop();
                    let (x, y) = (av.as_u64(), bv.as_u64());
                    self.stack.push(Value::bit(match op {
                        Eq | CaseEq => x == y,
                        Ne | CaseNe => x != y,
                        Lt => x < y,
                        Le => x <= y,
                        Gt => x > y,
                        Ge => x >= y,
                        _ => unreachable!("non-comparison op in Cmp"),
                    }));
                }
                Op::Arith(op, w) => {
                    use BinaryOp::*;
                    let bv = self.pop();
                    let av = self.pop();
                    let (x, y) = (av.as_u64(), bv.as_u64());
                    let r = match op {
                        Add => x.wrapping_add(y),
                        Sub => x.wrapping_sub(y),
                        Mul => x.wrapping_mul(y),
                        Div => x.checked_div(y).unwrap_or(0),
                        Mod => {
                            if y == 0 {
                                0
                            } else {
                                x % y
                            }
                        }
                        BitAnd => x & y,
                        BitOr => x | y,
                        BitXor => x ^ y,
                        BitXnor => !(x ^ y),
                        _ => unreachable!("non-arithmetic op in Arith"),
                    };
                    self.stack.push(Value::new(r, *w));
                }
                Op::LogicAnd => {
                    let bv = self.pop();
                    let av = self.pop();
                    self.stack.push(Value::bit(av.is_truthy() && bv.is_truthy()));
                }
                Op::LogicOr => {
                    let bv = self.pop();
                    let av = self.pop();
                    self.stack.push(Value::bit(av.is_truthy() || bv.is_truthy()));
                }
                Op::Shl(ctx) => {
                    let sh = self.pop().as_u64();
                    let av = self.pop();
                    let w = av.width().max(*ctx);
                    self.stack.push(if sh >= 64 {
                        Value::zero(w)
                    } else {
                        Value::new(av.as_u64() << sh, w)
                    });
                }
                Op::Shr => {
                    let sh = self.pop().as_u64();
                    let av = self.pop();
                    self.stack.push(if sh >= 64 {
                        Value::zero(av.width())
                    } else {
                        Value::new(av.as_u64() >> sh, av.width())
                    });
                }
                Op::AShr => {
                    let sh = self.pop().as_u64().min(63) as u32;
                    let av = self.pop();
                    self.stack.push(Value::new((av.to_signed() >> sh) as u64, av.width()));
                }
                Op::Pow(ctx) => {
                    let bv = self.pop();
                    let av = self.pop();
                    let r = av.as_u64().checked_pow(bv.as_u64().min(64) as u32).unwrap_or(0);
                    self.stack.push(Value::new(r, (*ctx).max(av.width())));
                }
                Op::ConcatPair => {
                    let b = self.pop();
                    let a = self.pop();
                    if a.width() + b.width() > 64 {
                        return Err(SimError::Unsupported("concatenation wider than 64".into()));
                    }
                    self.stack.push(Value::new(
                        (a.as_u64() << b.width()) | b.as_u64(),
                        a.width() + b.width(),
                    ));
                }
                Op::Repeat(reps) => {
                    let iv = self.pop();
                    let w = iv.width();
                    let total = (*reps as u32).saturating_mul(w);
                    if total > 64 {
                        return Err(SimError::Unsupported("replication wider than 64".into()));
                    }
                    let mut bits = 0u64;
                    for _ in 0..*reps {
                        bits = (bits << w) | iv.as_u64();
                    }
                    self.stack.push(Value::new(bits, total.max(1)));
                }
                Op::BitIndex(i) => {
                    let addr = self.pop().as_u64();
                    let v = self.values[*i as usize];
                    self.stack.push(Value::bit(v.bit_at(addr.min(u64::from(u32::MAX)) as u32)));
                }
                Op::MemRead(i) => {
                    let addr = self.pop().as_u64();
                    let m = &prog.slots[*i as usize];
                    let words =
                        &self.words[m.words_off as usize..(m.words_off + m.words_len) as usize];
                    let word = addr
                        .checked_sub(m.mem_base)
                        .and_then(|off| words.get(off as usize).copied())
                        .unwrap_or(0);
                    self.stack.push(Value::new(word, m.width));
                }
                Op::RangeSel { slot, lo, span } => {
                    let v = self.values[*slot as usize].as_u64();
                    self.stack.push(Value::new(v >> lo, *span));
                }
                Op::IdxSel { slot, width, ascending } => {
                    let b = self.pop().as_u64();
                    let lo = if *ascending {
                        b
                    } else {
                        b.saturating_sub(u64::from(*width).wrapping_sub(1))
                    };
                    let v = self.values[*slot as usize].as_u64();
                    self.stack.push(Value::new(v >> lo.min(63), (*width).clamp(1, 64)));
                }
                Op::Clog2 => {
                    let v = self.pop().as_u64();
                    let r = if v <= 1 { 0 } else { 64 - (v - 1).leading_zeros() };
                    self.stack.push(Value::new(u64::from(r), 32));
                }
                Op::CaseCmp => {
                    let lv = self.pop();
                    let subj = self.pop();
                    let w = subj.width().max(1);
                    let cmp_w = w.max(lv.width());
                    self.stack
                        .push(Value::bit(lv.resize(cmp_w).as_u64() == subj.resize(cmp_w).as_u64()));
                }
                Op::StoreSlot(i) => {
                    let v = self.pop();
                    let w = prog.slots[*i as usize].width;
                    self.values[*i as usize] = v.resize(w);
                }
                Op::StoreBit(i) => {
                    let addr = self.pop().as_u64();
                    let v = self.pop();
                    let w = prog.slots[*i as usize].width;
                    if addr < u64::from(w) {
                        let old = self.values[*i as usize].as_u64();
                        let bit = v.as_u64() & 1;
                        let new = (old & !(1 << addr)) | (bit << addr);
                        self.values[*i as usize] = Value::new(new, w);
                    }
                }
                Op::StoreMem(i) => {
                    let addr = self.pop().as_u64();
                    let v = self.pop();
                    let m = &prog.slots[*i as usize];
                    if addr >= m.mem_base {
                        let off = (addr - m.mem_base) as usize;
                        if off < m.words_len as usize {
                            self.words[m.words_off as usize + off] = v.resize(m.width).as_u64();
                        }
                    }
                }
                Op::StoreRange(i) => {
                    let lsb = self.pop().as_u64() as i64;
                    let msb = self.pop().as_u64() as i64;
                    let v = self.pop();
                    let (hi, lo) = (msb.max(lsb) as u32, msb.min(lsb) as u32);
                    let w = prog.slots[*i as usize].width;
                    if lo < w {
                        let hi = hi.min(w - 1);
                        let span = hi - lo + 1;
                        let mask = Value::mask(span) << lo;
                        let old = self.values[*i as usize].as_u64();
                        let new = (old & !mask) | ((v.as_u64() << lo) & mask);
                        self.values[*i as usize] = Value::new(new, w);
                    }
                }
                Op::Piece { shift, width } => {
                    let v = self.pop();
                    self.stack.push(Value::new(v.as_u64() >> shift, *width));
                }
                Op::NbAssign(writer) => {
                    let v = self.pop();
                    self.nb.push((*writer, v));
                }
                Op::Budget => {
                    if *budget == 0 {
                        return Err(SimError::RunawayLoop);
                    }
                    *budget -= 1;
                }
                Op::BudgetCheck => {
                    if *budget == 0 {
                        return Err(SimError::RunawayLoop);
                    }
                }
                Op::Trap(t) => return Err(prog.traps[*t as usize].clone()),
            }
        }
        Ok(())
    }
}

fn capture_state(values: &[Value], words: &[u64], out: &mut Vec<u64>) {
    out.clear();
    out.extend(values.iter().map(|v| v.as_u64()));
    out.extend_from_slice(words);
}
