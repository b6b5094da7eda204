//! Abstract syntax tree for the Verilog-2001 subset.
//!
//! The AST is deliberately close to the concrete syntax: the curation
//! pipeline's lint and metric passes walk it directly, and the
//! pretty-printer ([`crate::pretty`]) can regenerate canonical source from
//! it (a property the test suite checks round-trips through the parser).

use serde::{Deserialize, Serialize};

/// A parsed source file: one or more module declarations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceFile {
    /// Modules in declaration order.
    pub modules: Vec<Module>,
}

impl SourceFile {
    /// Finds a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// Zeroes all source-line annotations, leaving a purely structural AST.
    ///
    /// Useful when comparing two parses of differently-formatted sources
    /// (e.g. pretty-printer round trips, semantic deduplication).
    pub fn strip_lines(&mut self) {
        for m in &mut self.modules {
            m.line = 0;
            strip_items(&mut m.items);
        }
    }
}

fn strip_items(items: &mut [Item]) {
    for item in items {
        match item {
            Item::Assign(a) => a.line = 0,
            Item::Always(a) => a.line = 0,
            Item::Instance(i) => i.line = 0,
            Item::Generate(inner) => strip_items(inner),
            _ => {}
        }
    }
}

/// A `module … endmodule` declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Module {
    /// Module identifier.
    pub name: String,
    /// Parameters declared in the `#(…)` header (or header-less body
    /// `parameter` declarations are folded in here as well).
    pub params: Vec<Param>,
    /// Port list in declaration order.
    pub ports: Vec<Port>,
    /// Body items in declaration order.
    pub items: Vec<Item>,
    /// Source line of the `module` keyword.
    pub line: u32,
}

impl Module {
    /// Returns the port with the given name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Iterates over input ports.
    pub fn inputs(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.dir == PortDir::Input)
    }

    /// Iterates over output ports.
    pub fn outputs(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.dir == PortDir::Output)
    }
}

/// A `parameter`/`localparam` declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Parameter identifier.
    pub name: String,
    /// Default value expression.
    pub value: Expr,
    /// True for `localparam`.
    pub local: bool,
}

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortDir {
    /// `input`
    Input,
    /// `output`
    Output,
    /// `inout`
    Inout,
}

/// A module port.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Port {
    /// Port identifier.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Declared as `reg` (for outputs driven from always blocks).
    pub is_reg: bool,
    /// Optional `[msb:lsb]` range.
    pub range: Option<Range>,
    /// Declared `signed`.
    pub signed: bool,
}

/// A `[msb:lsb]` range. Both bounds are constant expressions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Range {
    /// Most-significant bound.
    pub msb: Expr,
    /// Least-significant bound.
    pub lsb: Expr,
}

/// The width of `[msb:lsb]` when both bounds are integer literals, or sums
/// and differences of them; `None` for any other bound (a parameter, say),
/// where each caller picks its own fallback.
pub fn const_width(r: &Range) -> Option<u32> {
    fn value(e: &Expr) -> Option<i64> {
        match e {
            Expr::Literal { value, .. } => Some(*value as i64),
            Expr::Binary(BinaryOp::Sub, a, b) => Some(value(a)?.wrapping_sub(value(b)?)),
            Expr::Binary(BinaryOp::Add, a, b) => Some(value(a)?.wrapping_add(value(b)?)),
            _ => None,
        }
    }
    Some((value(&r.msb)?.wrapping_sub(value(&r.lsb)?).unsigned_abs() as u32).wrapping_add(1))
}

/// Kind of a net/variable declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetKind {
    /// `wire` (also `tri`, `wand`, `wor` are folded into this for the subset)
    Wire,
    /// `reg`
    Reg,
    /// `integer` (treated as a 32-bit reg)
    Integer,
    /// `genvar`
    Genvar,
}

/// One declared net/variable name, with optional packed range and initial value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetDecl {
    /// Declaration kind.
    pub kind: NetKind,
    /// Shared packed range for all names in this declaration.
    pub range: Option<Range>,
    /// Declared `signed`.
    pub signed: bool,
    /// Declared names with optional unpacked (memory) dimensions and optional
    /// initialiser (`wire x = expr;`).
    pub names: Vec<DeclName>,
}

/// A single name inside a net declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeclName {
    /// Identifier.
    pub name: String,
    /// Optional unpacked dimension (memories): `reg [7:0] mem [0:255];`.
    pub unpacked: Option<Range>,
    /// Optional initialiser expression.
    pub init: Option<Expr>,
}

/// A module body item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Item {
    /// Net or variable declaration.
    Net(NetDecl),
    /// Parameter declared in the body.
    Param(Param),
    /// `assign lhs = rhs;`
    Assign(ContinuousAssign),
    /// `always @(…) stmt`
    Always(AlwaysBlock),
    /// `initial stmt`
    Initial(Stmt),
    /// Module instantiation.
    Instance(Instance),
    /// `generate … endgenerate` region (items kept verbatim; the subset does
    /// not elaborate generate loops, but parses them for metric purposes).
    Generate(Vec<Item>),
}

/// A continuous assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContinuousAssign {
    /// Left-hand side.
    pub lhs: LValue,
    /// Right-hand side.
    pub rhs: Expr,
    /// Source line.
    pub line: u32,
}

/// The sensitivity list of an always block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Sensitivity {
    /// `@*` or `@(*)`
    Star,
    /// `@(a or b or c)` / `@(a, b)` — level-sensitive list.
    Signals(Vec<String>),
    /// `@(posedge clk or negedge rst_n)` — edge-sensitive list.
    Edges(Vec<EdgeSpec>),
}

/// One `posedge sig` / `negedge sig` entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeSpec {
    /// Edge polarity.
    pub edge: Edge,
    /// Signal name.
    pub signal: String,
}

/// Edge polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Edge {
    /// Rising edge.
    Pos,
    /// Falling edge.
    Neg,
}

/// An `always` block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlwaysBlock {
    /// Sensitivity list.
    pub sensitivity: Sensitivity,
    /// Body statement (usually a `begin … end` block).
    pub body: Stmt,
    /// Source line of the `always` keyword.
    pub line: u32,
}

/// A procedural statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// `lhs = rhs;`
    Blocking(LValue, Expr),
    /// `lhs <= rhs;`
    NonBlocking(LValue, Expr),
    /// `if (cond) then_ [else else_]`
    If {
        /// Condition expression.
        cond: Expr,
        /// Then branch.
        then_branch: Box<Stmt>,
        /// Optional else branch.
        else_branch: Option<Box<Stmt>>,
    },
    /// `case (subject) arms endcase` (`casez`/`casex` noted via `kind`).
    Case {
        /// Case flavour.
        kind: CaseKind,
        /// Subject expression.
        subject: Expr,
        /// Arms in source order.
        arms: Vec<CaseArm>,
    },
    /// `for (init; cond; step) body`
    For {
        /// Loop variable initialisation.
        init: Box<Stmt>,
        /// Loop condition.
        cond: Expr,
        /// Per-iteration step statement.
        step: Box<Stmt>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `begin [: label] … end`
    Block(Vec<Stmt>),
    /// A system task call such as `$display(…);` — parsed, ignored in
    /// simulation.
    SystemCall(String, Vec<Expr>),
    /// `;` — empty statement.
    Empty,
}

/// Case statement flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CaseKind {
    /// `case`
    Case,
    /// `casez`
    Casez,
    /// `casex`
    Casex,
}

/// One arm of a case statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseArm {
    /// Match labels; empty means `default`.
    pub labels: Vec<Expr>,
    /// Arm body.
    pub body: Stmt,
}

/// An assignable target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LValue {
    /// Plain identifier.
    Ident(String),
    /// Single bit/element select: `x[i]`.
    Index(String, Expr),
    /// Constant part select: `x[msb:lsb]`.
    Range(String, Expr, Expr),
    /// Concatenation of lvalues: `{c, s}`.
    Concat(Vec<LValue>),
}

impl LValue {
    /// Names of all identifiers written by this lvalue.
    pub fn targets(&self) -> Vec<&str> {
        match self {
            LValue::Ident(n) | LValue::Index(n, _) | LValue::Range(n, _, _) => vec![n],
            LValue::Concat(parts) => parts.iter().flat_map(|p| p.targets()).collect(),
        }
    }
}

/// A module instantiation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Instantiated module name.
    pub module: String,
    /// Instance name.
    pub name: String,
    /// Parameter overrides `#(…)`; named (`Some`) or positional (`None`) keys.
    pub params: Vec<(Option<String>, Expr)>,
    /// Port connections; named or positional like `params`. `None` expression
    /// models an explicitly unconnected port `.p()`.
    pub ports: Vec<(Option<String>, Option<Expr>)>,
    /// Source line.
    pub line: u32,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `!`
    LogicalNot,
    /// `~`
    BitNot,
    /// `&` (reduction)
    RedAnd,
    /// `|` (reduction)
    RedOr,
    /// `^` (reduction)
    RedXor,
    /// `~&` (reduction)
    RedNand,
    /// `~|` (reduction)
    RedNor,
    /// `~^` (reduction)
    RedXnor,
    /// `+` (unary plus, identity)
    Plus,
}

/// Binary operators in precedence-relevant groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `**`
    Pow,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `~^`
    BitXnor,
    /// `&&`
    LogicalAnd,
    /// `||`
    LogicalOr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `===`
    CaseEq,
    /// `!==`
    CaseNe,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<<<`
    AShl,
    /// `>>>`
    AShr,
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Identifier reference.
    Ident(String),
    /// Literal value. `width == 0` means unsized.
    Literal {
        /// Declared width (0 when unsized).
        width: u16,
        /// Value, `x`/`z` digits as zero.
        value: u64,
        /// Base used in the source (2/8/10/16); drives pretty-printing.
        base: u8,
        /// Whether the source literal had `x`/`z` digits.
        has_unknown: bool,
    },
    /// String literal (only valid in system call arguments).
    StringLit(String),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// `cond ? a : b`
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `{a, b, c}`
    Concat(Vec<Expr>),
    /// `{n{expr}}`
    Repeat(Box<Expr>, Box<Expr>),
    /// `x[i]`
    Index(String, Box<Expr>),
    /// `x[msb:lsb]`
    RangeSelect(String, Box<Expr>, Box<Expr>),
    /// `x[base +: width]` / `x[base -: width]`
    IndexedSelect {
        /// Signal name.
        name: String,
        /// Base expression.
        base: Box<Expr>,
        /// Width expression (constant).
        width: Box<Expr>,
        /// True for `+:`, false for `-:`.
        ascending: bool,
    },
    /// Function-style call `f(a, b)` (system functions like `$signed` too).
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Unsized decimal literal helper.
    pub fn number(v: u64) -> Expr {
        Expr::Literal { width: 0, value: v, base: 10, has_unknown: false }
    }

    /// Sized literal helper.
    pub fn sized(width: u16, value: u64, base: u8) -> Expr {
        Expr::Literal { width, value, base, has_unknown: false }
    }

    /// Identifier helper.
    pub fn ident(name: impl Into<String>) -> Expr {
        Expr::Ident(name.into())
    }

    /// Collects the identifiers read by this expression into `out`.
    pub fn collect_idents<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Ident(n) => out.push(n),
            Expr::Literal { .. } | Expr::StringLit(_) => {}
            Expr::Unary(_, e) => e.collect_idents(out),
            Expr::Binary(_, a, b) => {
                a.collect_idents(out);
                b.collect_idents(out);
            }
            Expr::Ternary(c, a, b) => {
                c.collect_idents(out);
                a.collect_idents(out);
                b.collect_idents(out);
            }
            Expr::Concat(es) => {
                for e in es {
                    e.collect_idents(out);
                }
            }
            Expr::Repeat(n, e) => {
                n.collect_idents(out);
                e.collect_idents(out);
            }
            Expr::Index(n, i) => {
                out.push(n);
                i.collect_idents(out);
            }
            Expr::RangeSelect(n, a, b) => {
                out.push(n);
                a.collect_idents(out);
                b.collect_idents(out);
            }
            Expr::IndexedSelect { name, base, width, .. } => {
                out.push(name);
                base.collect_idents(out);
                width.collect_idents(out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_idents(out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_width_evaluation() {
        let src = "module m(input [7:0] a, input [0:3] b, input [2+1:0] c, input [W-1:0] d);";
        let m = crate::parse_module(&format!("{src} endmodule")).unwrap();
        let widths: Vec<_> =
            m.ports.iter().map(|p| p.range.as_ref().and_then(const_width)).collect();
        assert_eq!(widths, [Some(8), Some(4), Some(4), None]);
        assert_eq!(crate::metrics::measure(&m).port_bits, 8 + 4 + 4 + 8);
    }

    #[test]
    fn collect_idents_walks_everything() {
        let e = Expr::Ternary(
            Box::new(Expr::ident("sel")),
            Box::new(Expr::Binary(
                BinaryOp::Add,
                Box::new(Expr::ident("a")),
                Box::new(Expr::number(1)),
            )),
            Box::new(Expr::Concat(vec![
                Expr::ident("b"),
                Expr::Index("mem".into(), Box::new(Expr::ident("i"))),
            ])),
        );
        let mut ids = Vec::new();
        e.collect_idents(&mut ids);
        assert_eq!(ids, vec!["sel", "a", "b", "mem", "i"]);
    }

    #[test]
    fn lvalue_targets() {
        let lv = LValue::Concat(vec![
            LValue::Ident("c".into()),
            LValue::Index("s".into(), Expr::number(0)),
        ]);
        assert_eq!(lv.targets(), vec!["c", "s"]);
    }

    #[test]
    fn module_port_queries() {
        let m = Module {
            name: "m".into(),
            params: vec![],
            ports: vec![
                Port {
                    name: "a".into(),
                    dir: PortDir::Input,
                    is_reg: false,
                    range: None,
                    signed: false,
                },
                Port {
                    name: "y".into(),
                    dir: PortDir::Output,
                    is_reg: true,
                    range: None,
                    signed: false,
                },
            ],
            items: vec![],
            line: 1,
        };
        assert_eq!(m.inputs().count(), 1);
        assert_eq!(m.outputs().count(), 1);
        assert!(m.port("a").is_some());
        assert!(m.port("z").is_none());
    }
}
