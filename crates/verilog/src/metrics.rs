//! Structural complexity metrics.
//!
//! The paper labels every sample Basic / Intermediate / Advanced / Expert
//! "closely following the methodology presented in the MEV-LLM work"
//! (§III-A.4). MEV-LLM's tiers key off design complexity — size, state,
//! hierarchy, and control structure — which [`StructuralMetrics`] captures
//! and [`ComplexityTier::classify`] maps to the four tiers.

use crate::ast::*;
use serde::{Deserialize, Serialize};

/// Raw structural counts extracted from a module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StructuralMetrics {
    /// Number of ports.
    pub ports: u32,
    /// Total declared bit width across ports (unsized ports count as 1).
    pub port_bits: u32,
    /// Continuous assignments.
    pub assigns: u32,
    /// Combinational always blocks.
    pub comb_blocks: u32,
    /// Edge-sensitive always blocks.
    pub seq_blocks: u32,
    /// Module instantiations.
    pub instances: u32,
    /// `if` statements.
    pub ifs: u32,
    /// `case` statements.
    pub cases: u32,
    /// Total case arms.
    pub case_arms: u32,
    /// `for`/loop statements.
    pub loops: u32,
    /// Expression operator count (unary + binary + ternary).
    pub operators: u32,
    /// Maximum expression depth.
    pub max_expr_depth: u32,
    /// Maximum statement nesting depth.
    pub max_stmt_depth: u32,
    /// Declared internal nets/regs (not ports).
    pub internal_signals: u32,
    /// Parameters.
    pub parameters: u32,
    /// Memories (unpacked arrays).
    pub memories: u32,
}

impl StructuralMetrics {
    /// A single scalar complexity score combining the counts.
    ///
    /// The weights favour stateful and hierarchical structure over sheer
    /// expression volume, matching the intuition that an FSM is more
    /// complex than a wide adder.
    pub fn score(&self) -> f64 {
        f64::from(self.ports) * 0.5
            + f64::from(self.port_bits) * 0.05
            + f64::from(self.assigns) * 1.0
            + f64::from(self.comb_blocks) * 2.0
            + f64::from(self.seq_blocks) * 3.0
            + f64::from(self.instances) * 3.0
            + f64::from(self.ifs) * 1.0
            + f64::from(self.cases) * 2.0
            + f64::from(self.case_arms) * 0.5
            + f64::from(self.loops) * 2.5
            + f64::from(self.operators) * 0.25
            + f64::from(self.max_expr_depth) * 0.5
            + f64::from(self.max_stmt_depth) * 1.0
            + f64::from(self.internal_signals) * 0.75
            + f64::from(self.parameters) * 1.0
            + f64::from(self.memories) * 4.0
    }
}

/// The four MEV-LLM complexity tiers used to organise each PyraNet layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ComplexityTier {
    /// Purely combinational, tiny interface.
    Basic,
    /// Modest combinational/sequential designs.
    Intermediate,
    /// Multi-process or hierarchical designs.
    Advanced,
    /// Large stateful/hierarchical designs (FSMs with memories, …).
    Expert,
}

impl ComplexityTier {
    /// All tiers in curriculum order (the order fine-tuning visits them).
    pub const ALL: [ComplexityTier; 4] = [
        ComplexityTier::Basic,
        ComplexityTier::Intermediate,
        ComplexityTier::Advanced,
        ComplexityTier::Expert,
    ];

    /// Classifies a score produced by [`StructuralMetrics::score`].
    pub fn classify(score: f64) -> ComplexityTier {
        if score < 8.0 {
            ComplexityTier::Basic
        } else if score < 20.0 {
            ComplexityTier::Intermediate
        } else if score < 45.0 {
            ComplexityTier::Advanced
        } else {
            ComplexityTier::Expert
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            ComplexityTier::Basic => "Basic",
            ComplexityTier::Intermediate => "Intermediate",
            ComplexityTier::Advanced => "Advanced",
            ComplexityTier::Expert => "Expert",
        }
    }
}

impl std::fmt::Display for ComplexityTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Computes structural metrics for a module.
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use pyranet_verilog::metrics::{measure, ComplexityTier};
/// let m = pyranet_verilog::parse_module(
///     "module m(input a, input b, output y); assign y = a & b; endmodule")?;
/// let s = measure(&m);
/// assert_eq!(ComplexityTier::classify(s.score()), ComplexityTier::Basic);
/// # Ok(())
/// # }
/// ```
pub fn measure(m: &Module) -> StructuralMetrics {
    let mut s = StructuralMetrics {
        ports: m.ports.len() as u32,
        parameters: m.params.len() as u32,
        ..Default::default()
    };
    for p in &m.ports {
        s.port_bits += p.range.as_ref().map(|r| const_width(r).unwrap_or(8)).unwrap_or(1);
    }
    measure_items(&m.items, &mut s);
    s
}

fn measure_items(items: &[Item], s: &mut StructuralMetrics) {
    for item in items {
        match item {
            Item::Net(d) => {
                s.internal_signals += d.names.len() as u32;
                s.memories += d.names.iter().filter(|n| n.unpacked.is_some()).count() as u32;
            }
            Item::Param(_) => s.parameters += 1,
            Item::Assign(a) => {
                s.assigns += 1;
                measure_expr(&a.rhs, 1, s);
            }
            Item::Always(a) => {
                if matches!(a.sensitivity, Sensitivity::Edges(_)) {
                    s.seq_blocks += 1;
                } else {
                    s.comb_blocks += 1;
                }
                measure_stmt(&a.body, 1, s);
            }
            Item::Initial(b) => measure_stmt(b, 1, s),
            Item::Instance(inst) => {
                s.instances += 1;
                for (_, e) in &inst.ports {
                    if let Some(e) = e {
                        measure_expr(e, 1, s);
                    }
                }
            }
            Item::Generate(inner) => measure_items(inner, s),
        }
    }
}

fn measure_stmt(stmt: &Stmt, depth: u32, s: &mut StructuralMetrics) {
    s.max_stmt_depth = s.max_stmt_depth.max(depth);
    match stmt {
        Stmt::Blocking(_, e) | Stmt::NonBlocking(_, e) => measure_expr(e, 1, s),
        Stmt::If { cond, then_branch, else_branch } => {
            s.ifs += 1;
            measure_expr(cond, 1, s);
            measure_stmt(then_branch, depth + 1, s);
            if let Some(e) = else_branch {
                measure_stmt(e, depth + 1, s);
            }
        }
        Stmt::Case { subject, arms, .. } => {
            s.cases += 1;
            s.case_arms += arms.len() as u32;
            measure_expr(subject, 1, s);
            for arm in arms {
                measure_stmt(&arm.body, depth + 1, s);
            }
        }
        Stmt::For { cond, body, .. } => {
            s.loops += 1;
            measure_expr(cond, 1, s);
            measure_stmt(body, depth + 1, s);
        }
        Stmt::Block(stmts) => {
            for st in stmts {
                measure_stmt(st, depth, s);
            }
        }
        Stmt::SystemCall(_, _) | Stmt::Empty => {}
    }
}

fn measure_expr(e: &Expr, depth: u32, s: &mut StructuralMetrics) {
    s.max_expr_depth = s.max_expr_depth.max(depth);
    match e {
        Expr::Unary(_, a) => {
            s.operators += 1;
            measure_expr(a, depth + 1, s);
        }
        Expr::Binary(_, a, b) => {
            s.operators += 1;
            measure_expr(a, depth + 1, s);
            measure_expr(b, depth + 1, s);
        }
        Expr::Ternary(c, a, b) => {
            s.operators += 1;
            measure_expr(c, depth + 1, s);
            measure_expr(a, depth + 1, s);
            measure_expr(b, depth + 1, s);
        }
        Expr::Concat(es) => {
            for x in es {
                measure_expr(x, depth + 1, s);
            }
        }
        Expr::Repeat(_, x) => measure_expr(x, depth + 1, s),
        Expr::Index(_, i) => measure_expr(i, depth + 1, s),
        Expr::RangeSelect(_, a, b) => {
            measure_expr(a, depth + 1, s);
            measure_expr(b, depth + 1, s);
        }
        Expr::IndexedSelect { base, width, .. } => {
            measure_expr(base, depth + 1, s);
            measure_expr(width, depth + 1, s);
        }
        Expr::Call(_, args) => {
            for a in args {
                measure_expr(a, depth + 1, s);
            }
        }
        Expr::Ident(_) | Expr::Literal { .. } | Expr::StringLit(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_module;

    fn score(src: &str) -> f64 {
        measure(&parse_module(src).unwrap()).score()
    }

    #[test]
    fn half_adder_is_basic() {
        let s = score("module ha(input a, input b, output s, output c); assign s = a ^ b; assign c = a & b; endmodule");
        assert_eq!(ComplexityTier::classify(s), ComplexityTier::Basic);
    }

    #[test]
    fn counter_is_intermediate() {
        let s = score(
            "module counter(input clk, input rst, input en, output reg [7:0] q);\n\
             always @(posedge clk) begin\n\
               if (rst) q <= 8'd0; else if (en) q <= q + 8'd1;\n\
             end endmodule",
        );
        assert_eq!(ComplexityTier::classify(s), ComplexityTier::Intermediate, "score={s}");
    }

    #[test]
    fn fsm_is_advanced_or_expert() {
        let s = score(
            "module fsm(input clk, input rst, input x, output reg y, output reg [1:0] dbg);\n\
             reg [1:0] state, next;\n\
             always @(posedge clk) begin if (rst) state <= 2'd0; else state <= next; end\n\
             always @* begin\n\
               next = state; y = 1'b0; dbg = state;\n\
               case (state)\n\
                 2'd0: if (x) next = 2'd1;\n\
                 2'd1: begin next = 2'd2; y = 1'b1; end\n\
                 2'd2: if (!x) next = 2'd0; else next = 2'd3;\n\
                 default: next = 2'd0;\n\
               endcase\n\
             end endmodule",
        );
        let tier = ComplexityTier::classify(s);
        assert!(tier >= ComplexityTier::Advanced, "score={s}, tier={tier}");
    }

    #[test]
    fn memory_design_is_expert() {
        let s = score(
            "module regfile(input clk, input we, input [4:0] ra, wa, input [31:0] wd, output [31:0] rd);\n\
             reg [31:0] mem [0:31];\n\
             reg [31:0] rbuf;\n\
             always @(posedge clk) begin\n\
               if (we) mem[wa] <= wd;\n\
               rbuf <= mem[ra];\n\
             end\n\
             assign rd = rbuf;\n\
             endmodule",
        );
        assert!(s >= 20.0, "score={s}");
    }

    #[test]
    fn tiers_are_ordered() {
        assert!(ComplexityTier::Basic < ComplexityTier::Intermediate);
        assert!(ComplexityTier::Advanced < ComplexityTier::Expert);
        assert_eq!(ComplexityTier::ALL.len(), 4);
    }

    #[test]
    fn classify_boundaries() {
        assert_eq!(ComplexityTier::classify(0.0), ComplexityTier::Basic);
        assert_eq!(ComplexityTier::classify(8.0), ComplexityTier::Intermediate);
        assert_eq!(ComplexityTier::classify(20.0), ComplexityTier::Advanced);
        assert_eq!(ComplexityTier::classify(45.0), ComplexityTier::Expert);
        assert_eq!(ComplexityTier::classify(1e9), ComplexityTier::Expert);
    }

    #[test]
    fn score_monotone_in_blocks() {
        let simple = score("module m(input a, output y); assign y = a; endmodule");
        let bigger = score(
            "module m(input clk, input a, output reg y, output z);\n\
             wire t; assign t = ~a; assign z = t;\n\
             always @(posedge clk) y <= t; endmodule",
        );
        assert!(bigger > simple);
    }
}
