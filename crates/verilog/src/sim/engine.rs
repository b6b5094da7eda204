//! The reference simulation engine: signal store plus evaluation loop.
//!
//! This is the event-driven "spec" oracle: it walks the resolved statement
//! tree directly, settling combinational logic to a fixpoint and firing
//! edge-sensitive blocks with non-blocking commit ordering. The compiled
//! bytecode backend ([`super::vm`]) is pinned bit-identical to this engine;
//! differential tests drive both.
//!
//! Signal references were historically looked up through a string-keyed
//! HashMap on every expression evaluation; the engine now runs over the
//! [`ResolvedDesign`] produced by [`super::resolve`], where every name has
//! already been resolved to a dense slot index.

use super::elab::{elaborate, ElabError};
use super::resolve::{RArm, RExpr, RLValue, RStmt, ResolvedDesign, SigRef};
use super::value::Value;
use super::{resolve_input, resolve_signal, InputSlot, SignalSlot};
use crate::ast::{BinaryOp, Edge, SourceFile, UnaryOp};
use crate::parser::{parse, ParseError};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors raised by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Source failed to parse.
    Parse(ParseError),
    /// Design failed to elaborate.
    Elab(ElabError),
    /// Reference to a signal that does not exist in the flat design.
    UnknownSignal(String),
    /// `set` called on a signal that is not a top-level input.
    NotAnInput(String),
    /// Combinational logic failed to settle (ring oscillator / latch loop).
    Oscillation,
    /// A procedural block executed too many statements (runaway loop).
    RunawayLoop,
    /// A construct the two-state subset cannot evaluate.
    Unsupported(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Parse(e) => write!(f, "{e}"),
            SimError::Elab(e) => write!(f, "{e}"),
            SimError::UnknownSignal(n) => write!(f, "unknown signal `{n}`"),
            SimError::NotAnInput(n) => write!(f, "`{n}` is not a top-level input"),
            SimError::Oscillation => f.write_str("combinational logic failed to settle"),
            SimError::RunawayLoop => f.write_str("procedural loop exceeded the statement budget"),
            SimError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
        }
    }
}

impl Error for SimError {}

impl From<ParseError> for SimError {
    fn from(e: ParseError) -> Self {
        SimError::Parse(e)
    }
}

impl From<ElabError> for SimError {
    fn from(e: ElabError) -> Self {
        SimError::Elab(e)
    }
}

/// Per-signal runtime storage.
#[derive(Debug, Clone)]
struct Slot {
    value: Value,
    /// Memory words (empty unless the signal is an unpacked array).
    words: Vec<u64>,
    mem_base: u64,
    width: u32,
}

/// Maximum combinational settle iterations before declaring oscillation.
pub(super) const MAX_SETTLE: usize = 1000;
/// Maximum edge-firing rounds per propagation (derived-clock chains).
pub(super) const MAX_EDGE_ROUNDS: usize = 64;
/// Statement budget per procedural block execution.
pub(super) const STMT_BUDGET: usize = 1 << 20;

/// An interactive simulator over a flattened design.
///
/// See the [module docs](crate::sim) for an end-to-end example.
pub struct Simulator {
    res: Arc<ResolvedDesign>,
    slots: Vec<Slot>,
    /// Previous sampled values of every edge-sensitive signal, indexed like
    /// [`ResolvedDesign::edge_sigs`].
    edge_prev: Vec<bool>,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("signals", &self.slots.len())
            .field("assigns", &self.res.assigns.len())
            .field("always", &(self.res.comb.len() + self.res.edges.len()))
            .finish()
    }
}

impl Simulator {
    /// Parses, elaborates and initialises a simulator for `top`.
    ///
    /// # Errors
    ///
    /// Fails on parse or elaboration errors.
    pub fn from_source(src: &str, top: &str) -> Result<Simulator, SimError> {
        let file = parse(src)?;
        Simulator::new(&file, top)
    }

    /// Builds a simulator from a parsed file.
    ///
    /// # Errors
    ///
    /// Fails when the design cannot be elaborated (missing modules,
    /// non-constant widths, >64-bit vectors).
    pub fn new(file: &SourceFile, top: &str) -> Result<Simulator, SimError> {
        let design = elaborate(file, top)?;
        Simulator::from_resolved(Arc::new(ResolvedDesign::resolve(&design)))
    }

    /// Builds a simulator over an already-resolved design.
    ///
    /// # Errors
    ///
    /// Fails when constant application or the initial combinational settle
    /// fails (unknown signals, oscillating logic).
    pub(super) fn from_resolved(res: Arc<ResolvedDesign>) -> Result<Simulator, SimError> {
        let slots = res
            .signals
            .iter()
            .map(|s| Slot {
                value: Value::zero(s.width),
                words: vec![0; s.depth as usize],
                mem_base: s.mem_base,
                width: s.width,
            })
            .collect();
        let edge_prev = vec![false; res.edge_sigs.len()];
        let mut sim = Simulator { res, slots, edge_prev };
        let constants = sim.res.clone();
        for (sig, v) in &constants.constants {
            let idx = sim.slot(sig)?;
            let w = sim.slots[idx].width;
            sim.slots[idx].value = Value::new(*v, w);
        }
        sim.settle_comb()?;
        // Take the post-settle snapshot so initial values don't count as edges.
        sim.snapshot_edges();
        Ok(sim)
    }

    /// Names of the top-level inputs.
    pub fn inputs(&self) -> &[String] {
        &self.res.inputs
    }

    /// Names of the top-level outputs.
    pub fn outputs(&self) -> &[String] {
        &self.res.outputs
    }

    fn slot(&self, sig: &SigRef) -> Result<usize, SimError> {
        match sig {
            SigRef::Slot(i) => Ok(*i as usize),
            SigRef::Unknown(n) => Err(SimError::UnknownSignal(n.clone())),
        }
    }

    /// Resolves a top-level input for [`Simulator::set_slot`].
    ///
    /// # Errors
    ///
    /// The error [`Simulator::set`] gives for `name`: `NotAnInput` or
    /// `UnknownSignal`.
    pub fn input_slot(&self, name: &str) -> Result<InputSlot, SimError> {
        resolve_input(&self.res.inputs, &self.res.names, name)
    }

    /// Resolves a signal for [`Simulator::get_slot`].
    ///
    /// # Errors
    ///
    /// The error [`Simulator::get`] gives for `name`: `UnknownSignal`.
    pub fn signal_slot(&self, name: &str) -> Result<SignalSlot, SimError> {
        resolve_signal(&self.res.names, name)
    }

    /// Reads a resolved signal's current value.
    pub fn get_slot(&self, slot: SignalSlot) -> Value {
        self.slots[slot.0 as usize].value
    }

    /// Drives a resolved input and propagates the change (combinational
    /// settle plus any edge-sensitive blocks triggered by the transition).
    ///
    /// # Errors
    ///
    /// Fails on oscillating logic and runaway loops.
    pub fn set_slot(&mut self, slot: InputSlot, value: u64) -> Result<(), SimError> {
        let idx = slot.0 as usize;
        let w = self.slots[idx].width;
        self.slots[idx].value = Value::new(value, w);
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
    /// Same failure modes as [`Simulator::set`].
    pub fn clock(&mut self, clk: &str) -> Result<(), SimError> {
        let clk = self.input_slot(clk)?;
        self.set_slot(clk, 0)?;
        self.set_slot(clk, 1)
    }

    /// Settles combinational logic and fires edge blocks until quiescent.
    fn propagate(&mut self) -> Result<(), SimError> {
        for _ in 0..MAX_EDGE_ROUNDS {
            self.settle_comb()?;
            let fired = self.fire_edges()?;
            if !fired {
                return Ok(());
            }
        }
        Err(SimError::Oscillation)
    }

    fn snapshot_edges(&mut self) {
        let res = self.res.clone();
        for (i, (_, slot)) in res.edge_sigs.iter().enumerate() {
            self.edge_prev[i] =
                slot.map(|s| self.slots[s as usize].value.bit_at(0)).unwrap_or(false);
        }
    }

    /// Runs all edge-sensitive blocks whose signals transitioned since the
    /// last snapshot; commits their non-blocking updates together. Returns
    /// whether anything fired.
    fn fire_edges(&mut self) -> Result<bool, SimError> {
        let res = self.res.clone();
        let mut to_run: Vec<usize> = Vec::new();
        for (i, blk) in res.edges.iter().enumerate() {
            let triggered = blk.triggers.iter().any(|(edge, sig)| {
                let prev = self.edge_prev[*sig];
                let cur = res.edge_sigs[*sig]
                    .1
                    .map(|s| self.slots[s as usize].value.bit_at(0))
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
        self.snapshot_edges();
        if to_run.is_empty() {
            return Ok(false);
        }
        let mut nb: Vec<(RLValue, Value)> = Vec::new();
        for i in to_run {
            let mut budget = STMT_BUDGET;
            self.exec_stmt(&res.edges[i].body, &mut nb, &mut budget)?;
        }
        for (lv, v) in nb {
            self.write_lvalue(&lv, v)?;
        }
        Ok(true)
    }

    /// Evaluates continuous assigns and combinational always blocks to a
    /// fixpoint.
    fn settle_comb(&mut self) -> Result<(), SimError> {
        let res = self.res.clone();
        for _ in 0..MAX_SETTLE {
            let before = self.state_vec();
            for (lhs, rhs) in &res.assigns {
                let w = self.lvalue_width(lhs)?;
                let v = self.eval_ctx(rhs, w)?;
                self.write_lvalue(lhs, v)?;
            }
            for body in &res.comb {
                let mut nb = Vec::new();
                let mut budget = STMT_BUDGET;
                self.exec_stmt(body, &mut nb, &mut budget)?;
                for (lv, v) in nb {
                    self.write_lvalue(&lv, v)?;
                }
            }
            if self.state_vec() == before {
                return Ok(());
            }
        }
        Err(SimError::Oscillation)
    }

    fn state_vec(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.slots.len());
        for s in &self.slots {
            out.push(s.value.as_u64());
            out.extend_from_slice(&s.words);
        }
        out
    }

    // ---- statement execution ----

    fn exec_stmt(
        &mut self,
        stmt: &RStmt,
        nb: &mut Vec<(RLValue, Value)>,
        budget: &mut usize,
    ) -> Result<(), SimError> {
        if *budget == 0 {
            return Err(SimError::RunawayLoop);
        }
        *budget -= 1;
        match stmt {
            RStmt::Blocking(lv, e) => {
                let w = self.lvalue_width(lv)?;
                let v = self.eval_ctx(e, w)?;
                self.write_lvalue(lv, v)
            }
            RStmt::NonBlocking(lv, e) => {
                let w = self.lvalue_width(lv)?;
                let v = self.eval_ctx(e, w)?;
                nb.push((lv.clone(), v));
                Ok(())
            }
            RStmt::If { cond, then_branch, else_branch } => {
                if self.eval(cond)?.is_truthy() {
                    self.exec_stmt(then_branch, nb, budget)
                } else if let Some(e) = else_branch {
                    self.exec_stmt(e, nb, budget)
                } else {
                    Ok(())
                }
            }
            RStmt::Case { subject, arms } => {
                let subj = self.eval(subject)?;
                let w = subj.width().max(1);
                for arm in arms {
                    if arm.labels.is_empty() {
                        continue; // default checked last
                    }
                    for l in &arm.labels {
                        let lv = self.eval(l)?;
                        let cmp_w = w.max(lv.width());
                        if lv.resize(cmp_w).as_u64() == subj.resize(cmp_w).as_u64() {
                            return self.exec_stmt(&arm.body, nb, budget);
                        }
                    }
                }
                if let Some(default) = arms.iter().find(|a: &&RArm| a.labels.is_empty()) {
                    return self.exec_stmt(&default.body, nb, budget);
                }
                Ok(())
            }
            RStmt::For { init, cond, step, body } => {
                self.exec_stmt(init, nb, budget)?;
                while self.eval(cond)?.is_truthy() {
                    self.exec_stmt(body, nb, budget)?;
                    self.exec_stmt(step, nb, budget)?;
                    if *budget == 0 {
                        return Err(SimError::RunawayLoop);
                    }
                }
                Ok(())
            }
            RStmt::Block(stmts) => {
                for s in stmts {
                    self.exec_stmt(s, nb, budget)?;
                }
                Ok(())
            }
            RStmt::Nop => Ok(()),
        }
    }

    // ---- lvalues ----

    fn lvalue_width(&self, lv: &RLValue) -> Result<u32, SimError> {
        match lv {
            RLValue::Ident(sig) => {
                let i = self.slot(sig)?;
                Ok(self.slots[i].width)
            }
            RLValue::Index(sig, _) => {
                let i = self.slot(sig)?;
                if self.slots[i].words.is_empty() {
                    Ok(1)
                } else {
                    Ok(self.slots[i].width)
                }
            }
            RLValue::Range(sig, a, b) => {
                let _ = self.slot(sig)?;
                let msb = self.const_like(a)? as i64;
                let lsb = self.const_like(b)? as i64;
                Ok(((msb - lsb).unsigned_abs() + 1).min(64) as u32)
            }
            RLValue::Concat(parts) => {
                let mut w = 0;
                for p in parts {
                    w += self.lvalue_width(p)?;
                }
                Ok(w.min(64))
            }
        }
    }

    fn write_lvalue(&mut self, lv: &RLValue, v: Value) -> Result<(), SimError> {
        match lv {
            RLValue::Ident(sig) => {
                let i = self.slot(sig)?;
                if !self.slots[i].words.is_empty() {
                    let n = &self.res.signals[i].name;
                    return Err(SimError::Unsupported(format!("whole-memory assignment to `{n}`")));
                }
                let w = self.slots[i].width;
                self.slots[i].value = v.resize(w);
                Ok(())
            }
            RLValue::Index(sig, idx_expr) => {
                let addr = self.eval(idx_expr)?.as_u64();
                let i = self.slot(sig)?;
                if self.slots[i].words.is_empty() {
                    // bit select
                    let w = self.slots[i].width;
                    if addr >= u64::from(w) {
                        return Ok(()); // out-of-range write is dropped
                    }
                    let old = self.slots[i].value.as_u64();
                    let bit = v.as_u64() & 1;
                    let new = (old & !(1 << addr)) | (bit << addr);
                    self.slots[i].value = Value::new(new, w);
                } else {
                    let base = self.slots[i].mem_base;
                    let w = self.slots[i].width;
                    if addr < base {
                        return Ok(());
                    }
                    let off = (addr - base) as usize;
                    if off < self.slots[i].words.len() {
                        self.slots[i].words[off] = v.resize(w).as_u64();
                    }
                }
                Ok(())
            }
            RLValue::Range(sig, a, b) => {
                let msb = self.eval(a)?.as_u64() as i64;
                let lsb = self.eval(b)?.as_u64() as i64;
                let (hi, lo) = (msb.max(lsb) as u32, msb.min(lsb) as u32);
                let i = self.slot(sig)?;
                let w = self.slots[i].width;
                if lo >= w {
                    return Ok(());
                }
                let hi = hi.min(w - 1);
                let span = hi - lo + 1;
                let mask = Value::mask(span) << lo;
                let old = self.slots[i].value.as_u64();
                let new = (old & !mask) | ((v.as_u64() << lo) & mask);
                self.slots[i].value = Value::new(new, w);
                Ok(())
            }
            RLValue::Concat(parts) => {
                // MSB-first: the first part takes the high bits.
                let total = self.lvalue_width(lv)?;
                let mut remaining = total;
                let bits = v.resize(total).as_u64();
                for p in parts {
                    let w = self.lvalue_width(p)?;
                    remaining -= w;
                    let piece = (bits >> remaining) & Value::mask(w);
                    self.write_lvalue(p, Value::new(piece, w))?;
                }
                Ok(())
            }
        }
    }

    // ---- expression evaluation ----

    /// Evaluates `e` in an assignment context of width `ctx_width`: operands
    /// of arithmetic are extended to the context width first, matching
    /// Verilog's self-determined/context-determined width rules closely
    /// enough for the synthesizable subset.
    fn eval_ctx(&mut self, e: &RExpr, ctx_width: u32) -> Result<Value, SimError> {
        let v = self.eval_width(e, ctx_width)?;
        Ok(v.resize(ctx_width))
    }

    /// Width of an expression for self-determined contexts.
    fn expr_width(&self, e: &RExpr) -> Result<u32, SimError> {
        Ok(match e {
            RExpr::Sig(sig) => self.slots[self.slot(sig)?].width,
            RExpr::Lit { width, .. } => {
                if *width == 0 {
                    32
                } else {
                    (*width as u32).min(64)
                }
            }
            // A string literal is 8 bits per character (an empty string
            // behaves like "\0": one character).
            RExpr::Str(s) => (8 * s.len().max(1) as u32).min(64),
            RExpr::Unary(op, a) => match op {
                UnaryOp::LogicalNot
                | UnaryOp::RedAnd
                | UnaryOp::RedOr
                | UnaryOp::RedXor
                | UnaryOp::RedNand
                | UnaryOp::RedNor
                | UnaryOp::RedXnor => 1,
                _ => self.expr_width(a)?,
            },
            RExpr::Binary(op, a, b) => {
                use BinaryOp::*;
                match op {
                    LogicalAnd | LogicalOr | Eq | Ne | CaseEq | CaseNe | Lt | Le | Gt | Ge => 1,
                    Shl | Shr | AShl | AShr | Pow => self.expr_width(a)?,
                    _ => self.expr_width(a)?.max(self.expr_width(b)?),
                }
            }
            RExpr::Ternary(_, a, b) => self.expr_width(a)?.max(self.expr_width(b)?),
            RExpr::Concat(parts) => {
                let mut w = 0u32;
                for p in parts {
                    w += self.expr_width(p)?;
                }
                w.min(64)
            }
            RExpr::Repeat(n, inner) => {
                let reps = self.const_like(n)? as u32;
                reps.saturating_mul(self.expr_width(inner)?).min(64)
            }
            RExpr::Index(sig, _) => {
                let i = self.slot(sig)?;
                if self.slots[i].words.is_empty() {
                    1
                } else {
                    self.slots[i].width
                }
            }
            RExpr::RangeSelect(_, a, b) => {
                let msb = self.const_like(a)? as i64;
                let lsb = self.const_like(b)? as i64;
                ((msb - lsb).unsigned_abs() + 1).min(64) as u32
            }
            RExpr::IndexedSelect { width, .. } => (self.const_like(width)? as u32).min(64),
            RExpr::Call(f, args) => match f.as_str() {
                "$signed" | "$unsigned" => {
                    args.first().map(|a| self.expr_width(a)).transpose()?.unwrap_or(1)
                }
                "$clog2" => 32,
                _ => 32,
            },
        })
    }

    /// Const-ish evaluation used for widths of selects (indices may reference
    /// parameters, which live in the store).
    fn const_like(&self, e: &RExpr) -> Result<u64, SimError> {
        match e {
            RExpr::Lit { value, .. } => Ok(*value),
            RExpr::Sig(sig) => Ok(self.slots[self.slot(sig)?].value.as_u64()),
            RExpr::Binary(op, a, b) => {
                let a = self.const_like(a)?;
                let b = self.const_like(b)?;
                Ok(match op {
                    BinaryOp::Add => a.wrapping_add(b),
                    BinaryOp::Sub => a.wrapping_sub(b),
                    BinaryOp::Mul => a.wrapping_mul(b),
                    BinaryOp::Div => a.checked_div(b).unwrap_or(0),
                    _ => {
                        return Err(SimError::Unsupported(
                            "non-arithmetic operator in constant select".into(),
                        ))
                    }
                })
            }
            _ => Err(SimError::Unsupported("non-constant width expression".into())),
        }
    }

    /// Evaluates with self-determined width.
    fn eval(&mut self, e: &RExpr) -> Result<Value, SimError> {
        let w = self.expr_width(e)?;
        self.eval_width(e, w)
    }

    /// Evaluates `e`, extending leaf operands of context-determined
    /// operators to `ctx` bits.
    fn eval_width(&mut self, e: &RExpr, ctx: u32) -> Result<Value, SimError> {
        let ctx = ctx.clamp(1, 64);
        Ok(match e {
            RExpr::Sig(sig) => {
                let i = self.slot(sig)?;
                if !self.slots[i].words.is_empty() {
                    let n = &self.res.signals[i].name;
                    return Err(SimError::Unsupported(format!("whole-memory read of `{n}`")));
                }
                self.slots[i].value
            }
            RExpr::Lit { width, value } => {
                let w = if *width == 0 { ctx.max(32) } else { (*width as u32).min(64) };
                Value::new(*value, w)
            }
            RExpr::Str(s) => {
                let w = 8 * s.len() as u32;
                if w > 64 {
                    return Err(SimError::Unsupported("string literal wider than 64 bits".into()));
                }
                let mut bits = 0u64;
                for byte in s.bytes() {
                    bits = (bits << 8) | u64::from(byte);
                }
                Value::new(bits, w.max(8))
            }
            RExpr::Unary(op, a) => {
                use UnaryOp::*;
                let av = self.eval_width(a, ctx)?;
                match op {
                    Neg => Value::new(av.as_u64().wrapping_neg(), ctx.max(av.width())),
                    Plus => av,
                    BitNot => Value::new(!av.as_u64(), av.width()),
                    LogicalNot => Value::bit(!av.is_truthy()),
                    RedAnd => Value::bit(av.as_u64() == Value::mask(av.width())),
                    RedOr => Value::bit(av.is_truthy()),
                    RedXor => Value::bit(av.as_u64().count_ones() % 2 == 1),
                    RedNand => Value::bit(av.as_u64() != Value::mask(av.width())),
                    RedNor => Value::bit(!av.is_truthy()),
                    RedXnor => Value::bit(av.as_u64().count_ones() % 2 == 0),
                }
            }
            RExpr::Binary(op, a, b) => {
                use BinaryOp::*;
                match op {
                    LogicalAnd => {
                        let av = self.eval(a)?;
                        // Verilog does not short-circuit, but side-effect-free
                        // evaluation makes it equivalent.
                        let bv = self.eval(b)?;
                        Value::bit(av.is_truthy() && bv.is_truthy())
                    }
                    LogicalOr => {
                        let av = self.eval(a)?;
                        let bv = self.eval(b)?;
                        Value::bit(av.is_truthy() || bv.is_truthy())
                    }
                    Eq | CaseEq | Ne | CaseNe | Lt | Le | Gt | Ge => {
                        let w = self.expr_width(a)?.max(self.expr_width(b)?);
                        let av = self.eval_width(a, w)?.resize(w);
                        let bv = self.eval_width(b, w)?.resize(w);
                        let (x, y) = (av.as_u64(), bv.as_u64());
                        Value::bit(match op {
                            Eq | CaseEq => x == y,
                            Ne | CaseNe => x != y,
                            Lt => x < y,
                            Le => x <= y,
                            Gt => x > y,
                            Ge => x >= y,
                            _ => unreachable!(),
                        })
                    }
                    Shl | AShl => {
                        let av = self.eval_width(a, ctx)?;
                        let sh = self.eval(b)?.as_u64();
                        let w = av.width().max(ctx);
                        if sh >= 64 {
                            Value::zero(w)
                        } else {
                            Value::new(av.as_u64() << sh, w)
                        }
                    }
                    Shr => {
                        let av = self.eval_width(a, ctx)?;
                        let sh = self.eval(b)?.as_u64();
                        if sh >= 64 {
                            Value::zero(av.width())
                        } else {
                            Value::new(av.as_u64() >> sh, av.width())
                        }
                    }
                    AShr => {
                        let av = self.eval_width(a, ctx)?;
                        let sh = self.eval(b)?.as_u64().min(63) as u32;
                        let signed = av.to_signed() >> sh;
                        Value::new(signed as u64, av.width())
                    }
                    Pow => {
                        let av = self.eval(a)?;
                        let bv = self.eval(b)?;
                        let r = av.as_u64().checked_pow(bv.as_u64().min(64) as u32).unwrap_or(0);
                        Value::new(r, ctx.max(av.width()))
                    }
                    _ => {
                        let w = ctx.max(self.expr_width(a)?).max(self.expr_width(b)?).min(64);
                        let av = self.eval_width(a, w)?.resize(w);
                        let bv = self.eval_width(b, w)?.resize(w);
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
                            _ => unreachable!("handled above"),
                        };
                        Value::new(r, w)
                    }
                }
            }
            RExpr::Ternary(c, a, b) => {
                let cv = self.eval(c)?;
                if cv.is_truthy() {
                    self.eval_width(a, ctx)?
                } else {
                    self.eval_width(b, ctx)?
                }
            }
            RExpr::Concat(parts) => {
                let mut bits: u64 = 0;
                let mut total: u32 = 0;
                for p in parts {
                    let pv = self.eval(p)?;
                    let w = pv.width();
                    if total + w > 64 {
                        return Err(SimError::Unsupported("concatenation wider than 64".into()));
                    }
                    bits = (bits << w) | pv.as_u64();
                    total += w;
                }
                Value::new(bits, total.max(1))
            }
            RExpr::Repeat(n, inner) => {
                let reps = self.const_like(n)?;
                let iv = self.eval(inner)?;
                let w = iv.width();
                let total = (reps as u32).saturating_mul(w);
                if total > 64 {
                    return Err(SimError::Unsupported("replication wider than 64".into()));
                }
                let mut bits = 0u64;
                for _ in 0..reps {
                    bits = (bits << w) | iv.as_u64();
                }
                Value::new(bits, total.max(1))
            }
            RExpr::Index(sig, idx) => {
                let addr = self.eval(idx)?.as_u64();
                let i = self.slot(sig)?;
                if self.slots[i].words.is_empty() {
                    Value::bit(self.slots[i].value.bit_at(addr.min(u64::from(u32::MAX)) as u32))
                } else {
                    let base = self.slots[i].mem_base;
                    let w = self.slots[i].width;
                    let word = addr
                        .checked_sub(base)
                        .and_then(|off| self.slots[i].words.get(off as usize).copied())
                        .unwrap_or(0);
                    Value::new(word, w)
                }
            }
            RExpr::RangeSelect(sig, a, b) => {
                let msb = self.const_like(a)? as i64;
                let lsb = self.const_like(b)? as i64;
                let (hi, lo) = (msb.max(lsb) as u32, msb.min(lsb) as u32);
                let i = self.slot(sig)?;
                let v = self.slots[i].value.as_u64();
                let span = (hi - lo + 1).min(64);
                Value::new(v >> lo.min(63), span)
            }
            RExpr::IndexedSelect { sig, base, width, ascending } => {
                let b = self.eval(base)?.as_u64();
                let w = self.const_like(width)? as u32;
                let lo =
                    if *ascending { b } else { b.saturating_sub(u64::from(w).wrapping_sub(1)) };
                let i = self.slot(sig)?;
                let v = self.slots[i].value.as_u64();
                Value::new(v >> lo.min(63), w.clamp(1, 64))
            }
            RExpr::Call(f, args) => match f.as_str() {
                "$signed" | "$unsigned" => {
                    let a = args.first().ok_or_else(|| {
                        SimError::Unsupported(format!("{f} requires one argument"))
                    })?;
                    self.eval_width(a, ctx)?
                }
                "$clog2" => {
                    let a = args.first().ok_or_else(|| {
                        SimError::Unsupported("$clog2 requires one argument".into())
                    })?;
                    let v = self.eval(a)?.as_u64();
                    let r = if v <= 1 { 0 } else { 64 - (v - 1).leading_zeros() };
                    Value::new(u64::from(r), 32)
                }
                other => return Err(SimError::Unsupported(format!("system function `{other}`"))),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(src: &str, top: &str) -> Simulator {
        Simulator::from_source(src, top).expect("build simulator")
    }

    #[test]
    fn half_adder_truth_table() {
        let mut s = sim(
            "module ha(input a, input b, output sum, output cout);\n\
             assign sum = a ^ b; assign cout = a & b; endmodule",
            "ha",
        );
        for (a, b, expect_s, expect_c) in [(0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 1)] {
            s.set("a", a).unwrap();
            s.set("b", b).unwrap();
            assert_eq!(s.get("sum").unwrap().as_u64(), expect_s);
            assert_eq!(s.get("cout").unwrap().as_u64(), expect_c);
        }
    }

    #[test]
    fn eight_bit_adder_with_concat() {
        let mut s = sim(
            "module add(input [7:0] a, b, input cin, output [7:0] s, output cout);\n\
             assign {cout, s} = a + b + cin; endmodule",
            "add",
        );
        s.set("a", 200).unwrap();
        s.set("b", 100).unwrap();
        s.set("cin", 1).unwrap();
        assert_eq!(s.get("s").unwrap().as_u64(), (200 + 100 + 1) & 0xFF);
        assert_eq!(s.get("cout").unwrap().as_u64(), 1);
    }

    #[test]
    fn counter_counts_and_resets() {
        let mut s = sim(
            "module counter(input clk, input rst, input en, output reg [3:0] q);\n\
             always @(posedge clk) begin\n\
               if (rst) q <= 4'd0; else if (en) q <= q + 4'd1;\n\
             end endmodule",
            "counter",
        );
        s.set("rst", 1).unwrap();
        s.clock("clk").unwrap();
        assert_eq!(s.get("q").unwrap().as_u64(), 0);
        s.set("rst", 0).unwrap();
        s.set("en", 1).unwrap();
        for i in 1..=20u64 {
            s.clock("clk").unwrap();
            assert_eq!(s.get("q").unwrap().as_u64(), i % 16);
        }
        s.set("en", 0).unwrap();
        s.clock("clk").unwrap();
        assert_eq!(s.get("q").unwrap().as_u64(), 4); // 20 % 16
    }

    #[test]
    fn async_reset_fires_without_clock() {
        let mut s = sim(
            "module dff(input clk, input rst, input d, output reg q);\n\
             always @(posedge clk or posedge rst) begin\n\
               if (rst) q <= 1'b0; else q <= d;\n\
             end endmodule",
            "dff",
        );
        s.set("d", 1).unwrap();
        s.clock("clk").unwrap();
        assert_eq!(s.get("q").unwrap().as_u64(), 1);
        s.set("rst", 1).unwrap(); // async: no clock needed
        assert_eq!(s.get("q").unwrap().as_u64(), 0);
    }

    #[test]
    fn comb_always_with_case() {
        let mut s = sim(
            "module dec(input [1:0] sel, output reg [3:0] y);\n\
             always @* case (sel)\n\
               2'd0: y = 4'b0001; 2'd1: y = 4'b0010;\n\
               2'd2: y = 4'b0100; default: y = 4'b1000; endcase endmodule",
            "dec",
        );
        for (sel, y) in [(0u64, 1u64), (1, 2), (2, 4), (3, 8)] {
            s.set("sel", sel).unwrap();
            assert_eq!(s.get("y").unwrap().as_u64(), y);
        }
    }

    #[test]
    fn nonblocking_swap_is_simultaneous() {
        let mut s = sim(
            "module swap(input clk, input load, input [3:0] ia, ib, output reg [3:0] a, b);\n\
             always @(posedge clk) begin\n\
               if (load) begin a <= ia; b <= ib; end\n\
               else begin a <= b; b <= a; end\n\
             end endmodule",
            "swap",
        );
        s.set("load", 1).unwrap();
        s.set("ia", 3).unwrap();
        s.set("ib", 9).unwrap();
        s.clock("clk").unwrap();
        s.set("load", 0).unwrap();
        s.clock("clk").unwrap();
        assert_eq!(s.get("a").unwrap().as_u64(), 9);
        assert_eq!(s.get("b").unwrap().as_u64(), 3);
    }

    #[test]
    fn hierarchical_ripple_adder() {
        let src = "module fa(input a, input b, input cin, output s, output cout);\n\
                   assign s = a ^ b ^ cin;\n\
                   assign cout = (a & b) | (a & cin) | (b & cin);\nendmodule\n\
                   module rca4(input [3:0] a, b, input cin, output [3:0] s, output cout);\n\
                   wire c0, c1, c2;\n\
                   fa f0(.a(a[0]), .b(b[0]), .cin(cin), .s(s[0]), .cout(c0));\n\
                   fa f1(.a(a[1]), .b(b[1]), .cin(c0), .s(s[1]), .cout(c1));\n\
                   fa f2(.a(a[2]), .b(b[2]), .cin(c1), .s(s[2]), .cout(c2));\n\
                   fa f3(.a(a[3]), .b(b[3]), .cin(c2), .s(s[3]), .cout(cout));\nendmodule";
        let mut s = sim(src, "rca4");
        for a in 0..16u64 {
            for b in 0..16u64 {
                s.set("a", a).unwrap();
                s.set("b", b).unwrap();
                let sum = s.get("s").unwrap().as_u64();
                let cout = s.get("cout").unwrap().as_u64();
                assert_eq!((cout << 4) | sum, a + b, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn memory_write_read() {
        let mut s = sim(
            "module ram(input clk, input we, input [3:0] addr, input [7:0] din, output reg [7:0] dout);\n\
             reg [7:0] mem [0:15];\n\
             always @(posedge clk) begin\n\
               if (we) mem[addr] <= din;\n\
               dout <= mem[addr];\n\
             end endmodule",
            "ram",
        );
        s.set("we", 1).unwrap();
        s.set("addr", 5).unwrap();
        s.set("din", 0xAB).unwrap();
        s.clock("clk").unwrap();
        s.set("we", 0).unwrap();
        s.clock("clk").unwrap();
        assert_eq!(s.get("dout").unwrap().as_u64(), 0xAB);
    }

    #[test]
    fn for_loop_reverser() {
        let mut s = sim(
            "module rev(input [7:0] a, output reg [7:0] y);\n\
             integer i;\n\
             always @* begin\n\
               for (i = 0; i < 8; i = i + 1) y[i] = a[7 - i];\n\
             end endmodule",
            "rev",
        );
        s.set("a", 0b1100_1010).unwrap();
        assert_eq!(s.get("y").unwrap().as_u64(), 0b0101_0011);
    }

    #[test]
    fn fsm_sequence_detector() {
        // Detects the sequence 1,0,1 on x (Moore-style).
        let src = "module det(input clk, input rst, input x, output y);\n\
                   reg [1:0] state, next;\n\
                   localparam S0 = 2'd0, S1 = 2'd1, S2 = 2'd2, S3 = 2'd3;\n\
                   always @(posedge clk) begin\n\
                     if (rst) state <= S0; else state <= next;\n\
                   end\n\
                   always @* begin\n\
                     case (state)\n\
                       S0: next = x ? S1 : S0;\n\
                       S1: next = x ? S1 : S2;\n\
                       S2: next = x ? S3 : S0;\n\
                       S3: next = x ? S1 : S2;\n\
                       default: next = S0;\n\
                     endcase\n\
                   end\n\
                   assign y = state == S3;\nendmodule";
        let mut s = sim(src, "det");
        s.set("rst", 1).unwrap();
        s.clock("clk").unwrap();
        s.set("rst", 0).unwrap();
        let stream = [1u64, 0, 1, 1, 0, 1, 0, 0, 1];
        let expect_y = [0u64, 0, 1, 0, 0, 1, 0, 0, 0];
        for (x, ey) in stream.iter().zip(expect_y.iter()) {
            s.set("x", *x).unwrap();
            s.clock("clk").unwrap();
            assert_eq!(s.get("y").unwrap().as_u64(), *ey, "x={x}");
        }
    }

    #[test]
    fn shift_operations() {
        let mut s = sim(
            "module sh(input [7:0] a, input [2:0] n, output [7:0] l, output [7:0] r, output signed [7:0] ar);\n\
             assign l = a << n; assign r = a >> n; assign ar = $signed(a) >>> n; endmodule",
            "sh",
        );
        s.set("a", 0x90).unwrap();
        s.set("n", 2).unwrap();
        assert_eq!(s.get("l").unwrap().as_u64(), 0x40);
        assert_eq!(s.get("r").unwrap().as_u64(), 0x24);
        assert_eq!(s.get("ar").unwrap().as_u64(), 0xE4);
    }

    #[test]
    fn oscillator_detected() {
        let r = Simulator::from_source(
            "module osc(input a, output y); wire n; assign n = ~n; assign y = n & a; endmodule",
            "osc",
        );
        assert!(matches!(r, Err(SimError::Oscillation)), "{r:?}");
    }

    #[test]
    fn set_non_input_fails() {
        let mut s = sim("module m(input a, output y); assign y = a; endmodule", "m");
        assert!(matches!(s.set("y", 1), Err(SimError::NotAnInput(_))));
        assert!(matches!(s.set("nope", 1), Err(SimError::NotAnInput(_))));
    }

    #[test]
    fn get_unknown_fails() {
        let s = sim("module m(input a, output y); assign y = a; endmodule", "m");
        assert!(matches!(s.get("zz"), Err(SimError::UnknownSignal(_))));
    }

    #[test]
    fn parameterized_width_works() {
        let mut s = sim(
            "module p #(parameter W = 16)(input [W-1:0] a, output [W-1:0] y);\n\
             assign y = a + 1'b1; endmodule",
            "p",
        );
        s.set("a", 0xFFFF).unwrap();
        assert_eq!(s.get("y").unwrap().as_u64(), 0, "wraps at parameterised width");
    }

    #[test]
    fn ternary_mux() {
        let mut s = sim(
            "module mux(input sel, input [3:0] a, b, output [3:0] y);\n\
             assign y = sel ? a : b; endmodule",
            "mux",
        );
        s.set("a", 5).unwrap();
        s.set("b", 10).unwrap();
        s.set("sel", 1).unwrap();
        assert_eq!(s.get("y").unwrap().as_u64(), 5);
        s.set("sel", 0).unwrap();
        assert_eq!(s.get("y").unwrap().as_u64(), 10);
    }

    #[test]
    fn reduction_operators() {
        let mut s = sim(
            "module red(input [3:0] a, output all, output any, output par);\n\
             assign all = &a; assign any = |a; assign par = ^a; endmodule",
            "red",
        );
        s.set("a", 0xF).unwrap();
        assert_eq!(s.get("all").unwrap().as_u64(), 1);
        s.set("a", 0b0110).unwrap();
        assert_eq!(s.get("all").unwrap().as_u64(), 0);
        assert_eq!(s.get("any").unwrap().as_u64(), 1);
        assert_eq!(s.get("par").unwrap().as_u64(), 0);
        s.set("a", 0b0100).unwrap();
        assert_eq!(s.get("par").unwrap().as_u64(), 1);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let mut s = sim(
            "module d(input [7:0] a, b, output [7:0] q, output [7:0] r);\n\
             assign q = a / b; assign r = a % b; endmodule",
            "d",
        );
        s.set("a", 42).unwrap();
        s.set("b", 0).unwrap();
        assert_eq!(s.get("q").unwrap().as_u64(), 0);
        assert_eq!(s.get("r").unwrap().as_u64(), 0);
        s.set("b", 5).unwrap();
        assert_eq!(s.get("q").unwrap().as_u64(), 8);
        assert_eq!(s.get("r").unwrap().as_u64(), 2);
    }

    #[test]
    fn clog2_builtin() {
        let mut s =
            sim("module c(input [7:0] a, output [4:0] y); assign y = $clog2(a); endmodule", "c");
        s.set("a", 1).unwrap();
        assert_eq!(s.get("y").unwrap().as_u64(), 0);
        s.set("a", 2).unwrap();
        assert_eq!(s.get("y").unwrap().as_u64(), 1);
        s.set("a", 9).unwrap();
        assert_eq!(s.get("y").unwrap().as_u64(), 4);
    }

    #[test]
    fn indexed_part_select() {
        let mut s = sim(
            "module ips(input [31:0] a, input [1:0] sel, output [7:0] y);\n\
             assign y = a[sel*8 +: 8]; endmodule",
            "ips",
        );
        s.set("a", 0xDDCCBBAA).unwrap();
        for (sel, byte) in [(0u64, 0xAAu64), (1, 0xBB), (2, 0xCC), (3, 0xDD)] {
            s.set("sel", sel).unwrap();
            assert_eq!(s.get("y").unwrap().as_u64(), byte);
        }
    }

    #[test]
    fn string_literal_width_is_8_per_char() {
        // "AB" is a 16-bit value 0x4142; zero-extended into a 32-bit signal.
        let mut s = sim(
            "module str(input e, output [31:0] y, output [7:0] z);\n\
             assign y = e ? \"AB\" : 32'd0; assign z = \"Z\"; endmodule",
            "str",
        );
        s.set("e", 1).unwrap();
        assert_eq!(s.get("y").unwrap().as_u64(), 0x4142);
        assert_eq!(s.get("z").unwrap().as_u64(), u64::from(b'Z'));
    }
}
