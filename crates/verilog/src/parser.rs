//! Recursive-descent parser for the Verilog-2001 subset.
//!
//! Grammar coverage (see crate docs): module headers with ANSI and
//! non-ANSI port styles, parameters, net declarations, continuous assigns,
//! always/initial blocks, if/case/for statements, full expression precedence,
//! concatenation/replication, part selects, and module instantiation.

use crate::ast::*;
use crate::lexer::{LexError, Lexer};
use crate::token::{Keyword as Kw, Token, TokenKind as Tk};
use std::error::Error;
use std::fmt;

/// A parse (or lex) error with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number, 0 when unknown.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

impl ParseError {
    /// Creates a new parse error.
    pub fn new(line: u32, message: impl Into<String>) -> Self {
        ParseError { line, message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { line: e.line, message: e.message }
    }
}

/// Parses a complete source file.
///
/// # Errors
///
/// Returns [`ParseError`] on any lexical or syntactic violation. The error
/// carries the 1-based source line, which the curation pipeline records.
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = pyranet_verilog::parse("module t(input a, output y); assign y = a; endmodule")?;
/// assert_eq!(f.modules[0].ports.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse(src: &str) -> Result<SourceFile, ParseError> {
    let tokens = Lexer::new(src).tokenize()?;
    Parser::new(tokens).source_file()
}

/// The deepest nesting the parser accepts, over parenthesised, unary,
/// binary (each operator of a chain is a level) and ternary expressions,
/// statements and concatenated lvalues together. Every walker of the tree
/// recurses, so deeper input is a [`ParseError`], not a stack overflow
/// that aborts the process; a tree at the budget still builds and
/// simulates on a 2 MiB worker-thread stack.
pub const MAX_NESTING: usize = 256;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting, bounded by [`MAX_NESTING`].
    depth: usize,
}

type PResult<T> = Result<T, ParseError>;

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0, depth: 0 }
    }

    /// Enters one more nesting level, within the budget.
    fn enter(&mut self) -> PResult<()> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Parses one nested production within the nesting budget. A parse
    /// error abandons the whole parse, so only success restores the depth.
    fn nested<T>(&mut self, production: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        self.enter()?;
        let out = production(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn peek(&self) -> &Tk {
        self.tokens.get(self.pos).map(|t| &t.kind).unwrap_or(&Tk::Eof)
    }

    fn line(&self) -> u32 {
        self.tokens.get(self.pos).or_else(|| self.tokens.last()).map(|t| t.line).unwrap_or(0)
    }

    fn bump(&mut self) -> Tk {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone()).unwrap_or(Tk::Eof);
        self.pos += 1;
        t
    }

    fn eat(&mut self, tk: &Tk) -> bool {
        if self.peek() == tk {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        self.eat(&Tk::Keyword(kw))
    }

    fn expect(&mut self, tk: Tk) -> PResult<()> {
        if self.peek() == &tk {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {tk}, found {}", self.peek())))
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> PResult<()> {
        self.expect(Tk::Keyword(kw))
    }

    fn expect_ident(&mut self) -> PResult<String> {
        match self.peek() {
            Tk::Ident(_) => match self.bump() {
                Tk::Ident(s) => Ok(s),
                _ => unreachable!(),
            },
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.line(), message)
    }

    fn source_file(mut self) -> PResult<SourceFile> {
        let mut modules = Vec::new();
        while self.peek() != &Tk::Eof {
            if self.peek() == &Tk::Keyword(Kw::Module) {
                modules.push(self.module()?);
            } else {
                return Err(
                    self.err(format!("expected `module` at top level, found {}", self.peek()))
                );
            }
        }
        Ok(SourceFile { modules })
    }

    fn module(&mut self) -> PResult<Module> {
        let line = self.line();
        self.expect_kw(Kw::Module)?;
        let name = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat(&Tk::Hash) {
            self.expect(Tk::LParen)?;
            loop {
                // `parameter` keyword is optional inside the header list after
                // the first entry.
                self.eat_kw(Kw::Parameter);
                // optional range on parameter, rarely used — skip if present
                if self.peek() == &Tk::LBracket {
                    let _ = self.range()?;
                }
                let pname = self.expect_ident()?;
                self.expect(Tk::Assign)?;
                let value = self.expr()?;
                params.push(Param { name: pname, value, local: false });
                if !self.eat(&Tk::Comma) {
                    break;
                }
            }
            self.expect(Tk::RParen)?;
        }
        let mut ports = Vec::new();
        let mut nonansi_names: Vec<String> = Vec::new();
        if self.eat(&Tk::LParen) {
            if self.peek() != &Tk::RParen {
                // Decide ANSI vs non-ANSI by the first token.
                match self.peek() {
                    Tk::Keyword(Kw::Input) | Tk::Keyword(Kw::Output) | Tk::Keyword(Kw::Inout) => {
                        self.ansi_port_list(&mut ports)?;
                    }
                    _ => loop {
                        nonansi_names.push(self.expect_ident()?);
                        if !self.eat(&Tk::Comma) {
                            break;
                        }
                    },
                }
            }
            self.expect(Tk::RParen)?;
        }
        self.expect(Tk::Semi)?;

        let mut items = Vec::new();
        loop {
            match self.peek() {
                Tk::Keyword(Kw::Endmodule) => {
                    self.bump();
                    break;
                }
                Tk::Eof => return Err(self.err("unexpected end of input inside module body")),
                Tk::Keyword(Kw::Input) | Tk::Keyword(Kw::Output) | Tk::Keyword(Kw::Inout) => {
                    // non-ANSI port direction declaration in the body
                    self.nonansi_port_decl(&mut ports, &nonansi_names)?;
                }
                _ => items.extend(self.item()?),
            }
        }
        // Order non-ANSI ports by the header list, not the body declarations.
        if !nonansi_names.is_empty() {
            let mut ordered = Vec::with_capacity(nonansi_names.len());
            for n in &nonansi_names {
                if let Some(p) = ports.iter().find(|p| &p.name == n) {
                    ordered.push(p.clone());
                }
                // A header name with no body direction declaration is a
                // semantic (check-stage) issue, not a parse error.
            }
            ports = ordered;
        }
        Ok(Module { name, params, ports, items, line })
    }

    fn ansi_port_list(&mut self, ports: &mut Vec<Port>) -> PResult<()> {
        let mut dir = PortDir::Input;
        let mut is_reg = false;
        let mut range: Option<Range> = None;
        let mut signed = false;
        loop {
            let mut explicit = false;
            match self.peek() {
                Tk::Keyword(Kw::Input) => {
                    self.bump();
                    dir = PortDir::Input;
                    explicit = true;
                }
                Tk::Keyword(Kw::Output) => {
                    self.bump();
                    dir = PortDir::Output;
                    explicit = true;
                }
                Tk::Keyword(Kw::Inout) => {
                    self.bump();
                    dir = PortDir::Inout;
                    explicit = true;
                }
                _ => {}
            }
            if explicit {
                is_reg = false;
                range = None;
                signed = false;
                if self.eat_kw(Kw::Reg) {
                    is_reg = true;
                } else {
                    self.eat_kw(Kw::Wire);
                }
                if self.eat_kw(Kw::Signed) {
                    signed = true;
                }
                if self.peek() == &Tk::LBracket {
                    range = Some(self.range()?);
                }
            }
            let name = self.expect_ident()?;
            ports.push(Port { name, dir, is_reg, range: range.clone(), signed });
            if !self.eat(&Tk::Comma) {
                return Ok(());
            }
        }
    }

    fn nonansi_port_decl(&mut self, ports: &mut Vec<Port>, header: &[String]) -> PResult<()> {
        let dir = match self.bump() {
            Tk::Keyword(Kw::Input) => PortDir::Input,
            Tk::Keyword(Kw::Output) => PortDir::Output,
            Tk::Keyword(Kw::Inout) => PortDir::Inout,
            _ => unreachable!("caller checked direction keyword"),
        };
        let is_reg = self.eat_kw(Kw::Reg);
        if !is_reg {
            self.eat_kw(Kw::Wire);
        }
        let signed = self.eat_kw(Kw::Signed);
        let range = if self.peek() == &Tk::LBracket { Some(self.range()?) } else { None };
        loop {
            let name = self.expect_ident()?;
            if !header.is_empty() && !header.contains(&name) {
                return Err(self.err(format!(
                    "port `{name}` declared in body but missing from module header"
                )));
            }
            ports.push(Port { name, dir, is_reg, range: range.clone(), signed });
            if !self.eat(&Tk::Comma) {
                break;
            }
        }
        self.expect(Tk::Semi)?;
        Ok(())
    }

    fn range(&mut self) -> PResult<Range> {
        self.expect(Tk::LBracket)?;
        let msb = self.expr()?;
        self.expect(Tk::Colon)?;
        let lsb = self.expr()?;
        self.expect(Tk::RBracket)?;
        Ok(Range { msb, lsb })
    }

    fn item(&mut self) -> PResult<Vec<Item>> {
        match self.peek().clone() {
            Tk::Keyword(Kw::Wire)
            | Tk::Keyword(Kw::Tri)
            | Tk::Keyword(Kw::Wand)
            | Tk::Keyword(Kw::Wor)
            | Tk::Keyword(Kw::Supply0)
            | Tk::Keyword(Kw::Supply1)
            | Tk::Keyword(Kw::Reg)
            | Tk::Keyword(Kw::Integer)
            | Tk::Keyword(Kw::Genvar) => self.net_decl().map(|d| vec![Item::Net(d)]),
            Tk::Keyword(Kw::Parameter) | Tk::Keyword(Kw::Localparam) => {
                let local = self.peek() == &Tk::Keyword(Kw::Localparam);
                self.bump();
                if self.peek() == &Tk::LBracket {
                    let _ = self.range()?;
                }
                let mut params = Vec::new();
                loop {
                    let name = self.expect_ident()?;
                    self.expect(Tk::Assign)?;
                    let value = self.expr()?;
                    params.push(Param { name, value, local });
                    if !self.eat(&Tk::Comma) {
                        break;
                    }
                }
                self.expect(Tk::Semi)?;
                Ok(params.into_iter().map(Item::Param).collect())
            }
            Tk::Keyword(Kw::Assign) => {
                let line = self.line();
                self.bump();
                // Optional drive strength / delay are not in the subset.
                let lhs = self.lvalue()?;
                self.expect(Tk::Assign)?;
                let rhs = self.expr()?;
                self.expect(Tk::Semi)?;
                Ok(vec![Item::Assign(ContinuousAssign { lhs, rhs, line })])
            }
            Tk::Keyword(Kw::Always) => {
                let line = self.line();
                self.bump();
                self.expect(Tk::At)?;
                let sensitivity = self.sensitivity()?;
                let body = self.stmt()?;
                Ok(vec![Item::Always(AlwaysBlock { sensitivity, body, line })])
            }
            Tk::Keyword(Kw::Initial) => {
                self.bump();
                let body = self.stmt()?;
                Ok(vec![Item::Initial(body)])
            }
            Tk::Keyword(Kw::Generate) => {
                self.bump();
                let mut items = Vec::new();
                while !self.eat_kw(Kw::Endgenerate) {
                    if self.peek() == &Tk::Eof {
                        return Err(self.err("unexpected end of input inside generate region"));
                    }
                    items.extend(self.item()?);
                }
                Ok(vec![Item::Generate(items)])
            }
            Tk::Ident(_) => self.instance().map(|i| vec![Item::Instance(i)]),
            other => Err(self.err(format!("unexpected {other} in module body"))),
        }
    }

    fn net_decl(&mut self) -> PResult<NetDecl> {
        let kind = match self.bump() {
            Tk::Keyword(Kw::Wire)
            | Tk::Keyword(Kw::Tri)
            | Tk::Keyword(Kw::Wand)
            | Tk::Keyword(Kw::Wor)
            | Tk::Keyword(Kw::Supply0)
            | Tk::Keyword(Kw::Supply1) => NetKind::Wire,
            Tk::Keyword(Kw::Reg) => NetKind::Reg,
            Tk::Keyword(Kw::Integer) => NetKind::Integer,
            Tk::Keyword(Kw::Genvar) => NetKind::Genvar,
            other => return Err(self.err(format!("expected net kind, found {other}"))),
        };
        let signed = self.eat_kw(Kw::Signed);
        let range = if self.peek() == &Tk::LBracket { Some(self.range()?) } else { None };
        let mut names = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let unpacked = if self.peek() == &Tk::LBracket { Some(self.range()?) } else { None };
            let init = if self.eat(&Tk::Assign) { Some(self.expr()?) } else { None };
            names.push(DeclName { name, unpacked, init });
            if !self.eat(&Tk::Comma) {
                break;
            }
        }
        self.expect(Tk::Semi)?;
        Ok(NetDecl { kind, range, signed, names })
    }

    fn sensitivity(&mut self) -> PResult<Sensitivity> {
        if self.eat(&Tk::Star) {
            return Ok(Sensitivity::Star);
        }
        self.expect(Tk::LParen)?;
        if self.eat(&Tk::Star) {
            self.expect(Tk::RParen)?;
            return Ok(Sensitivity::Star);
        }
        match self.peek() {
            Tk::Keyword(Kw::Posedge) | Tk::Keyword(Kw::Negedge) => {
                let mut edges = Vec::new();
                loop {
                    let edge = match self.bump() {
                        Tk::Keyword(Kw::Posedge) => Edge::Pos,
                        Tk::Keyword(Kw::Negedge) => Edge::Neg,
                        other => {
                            return Err(self.err(format!("expected edge keyword, found {other}")));
                        }
                    };
                    let signal = self.expect_ident()?;
                    edges.push(EdgeSpec { edge, signal });
                    if !(self.eat_kw(Kw::Or) || self.eat(&Tk::Comma)) {
                        break;
                    }
                }
                self.expect(Tk::RParen)?;
                Ok(Sensitivity::Edges(edges))
            }
            _ => {
                let mut sigs = Vec::new();
                loop {
                    sigs.push(self.expect_ident()?);
                    if !(self.eat_kw(Kw::Or) || self.eat(&Tk::Comma)) {
                        break;
                    }
                }
                self.expect(Tk::RParen)?;
                Ok(Sensitivity::Signals(sigs))
            }
        }
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        self.nested(Self::stmt_body)
    }

    fn stmt_body(&mut self) -> PResult<Stmt> {
        match self.peek().clone() {
            Tk::Keyword(Kw::Begin) => {
                self.bump();
                if self.eat(&Tk::Colon) {
                    let _label = self.expect_ident()?;
                }
                let mut stmts = Vec::new();
                while !self.eat_kw(Kw::End) {
                    if self.peek() == &Tk::Eof {
                        return Err(self.err("unexpected end of input inside begin/end block"));
                    }
                    stmts.push(self.stmt()?);
                }
                Ok(Stmt::Block(stmts))
            }
            Tk::Keyword(Kw::If) => {
                self.bump();
                self.expect(Tk::LParen)?;
                let cond = self.expr()?;
                self.expect(Tk::RParen)?;
                let then_branch = Box::new(self.stmt()?);
                let else_branch =
                    if self.eat_kw(Kw::Else) { Some(Box::new(self.stmt()?)) } else { None };
                Ok(Stmt::If { cond, then_branch, else_branch })
            }
            Tk::Keyword(Kw::Case) | Tk::Keyword(Kw::Casez) | Tk::Keyword(Kw::Casex) => {
                let kind = match self.bump() {
                    Tk::Keyword(Kw::Case) => CaseKind::Case,
                    Tk::Keyword(Kw::Casez) => CaseKind::Casez,
                    _ => CaseKind::Casex,
                };
                self.expect(Tk::LParen)?;
                let subject = self.expr()?;
                self.expect(Tk::RParen)?;
                let mut arms = Vec::new();
                while !self.eat_kw(Kw::Endcase) {
                    if self.peek() == &Tk::Eof {
                        return Err(self.err("unexpected end of input inside case statement"));
                    }
                    let labels = if self.eat_kw(Kw::Default) {
                        self.eat(&Tk::Colon);
                        Vec::new()
                    } else {
                        let mut labels = vec![self.expr()?];
                        while self.eat(&Tk::Comma) {
                            labels.push(self.expr()?);
                        }
                        self.expect(Tk::Colon)?;
                        labels
                    };
                    let body = self.stmt()?;
                    arms.push(CaseArm { labels, body });
                }
                Ok(Stmt::Case { kind, subject, arms })
            }
            Tk::Keyword(Kw::For) => {
                self.bump();
                self.expect(Tk::LParen)?;
                let init = Box::new(self.assign_stmt_no_semi()?);
                self.expect(Tk::Semi)?;
                let cond = self.expr()?;
                self.expect(Tk::Semi)?;
                let step = Box::new(self.assign_stmt_no_semi()?);
                self.expect(Tk::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::For { init, cond, step, body })
            }
            Tk::Semi => {
                self.bump();
                Ok(Stmt::Empty)
            }
            Tk::Ident(name) if name.starts_with('$') => {
                self.bump();
                let mut args = Vec::new();
                if self.eat(&Tk::LParen) {
                    if self.peek() != &Tk::RParen {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tk::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(Tk::RParen)?;
                }
                self.expect(Tk::Semi)?;
                Ok(Stmt::SystemCall(name, args))
            }
            Tk::Hash => {
                // `#10 stmt` delays are parsed and ignored (testbench-ish code
                // shows up in scraped corpora).
                self.bump();
                let _ = self.expr()?;
                self.stmt()
            }
            _ => {
                let s = self.assign_stmt_no_semi()?;
                self.expect(Tk::Semi)?;
                Ok(s)
            }
        }
    }

    /// Parses `lhs = rhs` / `lhs <= rhs` without the trailing semicolon
    /// (shared by statement and for-loop header positions).
    fn assign_stmt_no_semi(&mut self) -> PResult<Stmt> {
        let lhs = self.lvalue()?;
        match self.bump() {
            Tk::Assign => Ok(Stmt::Blocking(lhs, self.expr()?)),
            Tk::LtEq => Ok(Stmt::NonBlocking(lhs, self.expr()?)),
            other => Err(self.err(format!("expected `=` or `<=`, found {other}"))),
        }
    }

    fn lvalue(&mut self) -> PResult<LValue> {
        if self.eat(&Tk::LBrace) {
            let mut parts = Vec::new();
            loop {
                parts.push(self.nested(Self::lvalue)?);
                if !self.eat(&Tk::Comma) {
                    break;
                }
            }
            self.expect(Tk::RBrace)?;
            return Ok(LValue::Concat(parts));
        }
        let name = self.expect_ident()?;
        if self.eat(&Tk::LBracket) {
            let first = self.expr()?;
            if self.eat(&Tk::Colon) {
                let lsb = self.expr()?;
                self.expect(Tk::RBracket)?;
                Ok(LValue::Range(name, first, lsb))
            } else {
                self.expect(Tk::RBracket)?;
                Ok(LValue::Index(name, first))
            }
        } else {
            Ok(LValue::Ident(name))
        }
    }

    fn instance(&mut self) -> PResult<Instance> {
        let line = self.line();
        let module = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat(&Tk::Hash) {
            self.expect(Tk::LParen)?;
            if self.peek() != &Tk::RParen {
                loop {
                    if self.eat(&Tk::Dot) {
                        let pname = self.expect_ident()?;
                        self.expect(Tk::LParen)?;
                        let value = self.expr()?;
                        self.expect(Tk::RParen)?;
                        params.push((Some(pname), value));
                    } else {
                        params.push((None, self.expr()?));
                    }
                    if !self.eat(&Tk::Comma) {
                        break;
                    }
                }
            }
            self.expect(Tk::RParen)?;
        }
        let name = self.expect_ident()?;
        self.expect(Tk::LParen)?;
        let mut ports = Vec::new();
        if self.peek() != &Tk::RParen {
            loop {
                if self.eat(&Tk::Dot) {
                    let pname = self.expect_ident()?;
                    self.expect(Tk::LParen)?;
                    let value = if self.peek() == &Tk::RParen { None } else { Some(self.expr()?) };
                    self.expect(Tk::RParen)?;
                    ports.push((Some(pname), value));
                } else {
                    ports.push((None, Some(self.expr()?)));
                }
                if !self.eat(&Tk::Comma) {
                    break;
                }
            }
        }
        self.expect(Tk::RParen)?;
        self.expect(Tk::Semi)?;
        Ok(Instance { module, name, params, ports, line })
    }

    // ---- expressions with precedence climbing ----

    fn expr(&mut self) -> PResult<Expr> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> PResult<Expr> {
        let cond = self.binary(0)?;
        if self.eat(&Tk::Question) {
            let a = self.expr()?;
            self.expect(Tk::Colon)?;
            let b = self.expr()?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(a), Box::new(b)))
        } else {
            Ok(cond)
        }
    }

    /// Binary-operator precedence (low→high), Verilog-2001 table.
    fn bin_op(&self, min_prec: u8) -> Option<(BinaryOp, u8)> {
        use BinaryOp::*;
        let (op, prec) = match self.peek() {
            Tk::OrOr => (LogicalOr, 1),
            Tk::AndAnd => (LogicalAnd, 2),
            Tk::Pipe => (BitOr, 3),
            Tk::Caret => (BitXor, 4),
            Tk::Xnor => (BitXnor, 4),
            Tk::Amp => (BitAnd, 5),
            Tk::EqEq => (Eq, 6),
            Tk::NotEq => (Ne, 6),
            Tk::CaseEq => (CaseEq, 6),
            Tk::CaseNotEq => (CaseNe, 6),
            Tk::Lt => (Lt, 7),
            Tk::LtEq => (Le, 7),
            Tk::Gt => (Gt, 7),
            Tk::GtEq => (Ge, 7),
            Tk::Shl => (Shl, 8),
            Tk::Shr => (Shr, 8),
            Tk::AShl => (AShl, 8),
            Tk::AShr => (AShr, 8),
            Tk::Plus => (Add, 9),
            Tk::Minus => (Sub, 9),
            Tk::Star => (Mul, 10),
            Tk::Slash => (Div, 10),
            Tk::Percent => (Mod, 10),
            Tk::Power => (Pow, 11),
            _ => return None,
        };
        (prec >= min_prec).then_some((op, prec))
    }

    fn binary(&mut self, min_prec: u8) -> PResult<Expr> {
        let outer = self.depth;
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = self.bin_op(min_prec) {
            self.bump();
            self.enter()?;
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn unary(&mut self) -> PResult<Expr> {
        use UnaryOp::*;
        let op = match self.peek() {
            Tk::Minus => Some(Neg),
            Tk::Plus => Some(Plus),
            Tk::Bang => Some(LogicalNot),
            Tk::Tilde => Some(BitNot),
            Tk::Amp => Some(RedAnd),
            Tk::Pipe => Some(RedOr),
            Tk::Caret => Some(RedXor),
            Tk::Nand => Some(RedNand),
            Tk::Nor => Some(RedNor),
            Tk::Xnor => Some(RedXnor),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.nested(Self::unary)?;
            return Ok(Expr::Unary(op, Box::new(operand)));
        }
        self.primary()
    }

    fn primary(&mut self) -> PResult<Expr> {
        match self.peek().clone() {
            Tk::UnsizedNumber(v) => {
                self.bump();
                Ok(Expr::number(v))
            }
            Tk::SizedNumber { width, base, value, has_unknown } => {
                self.bump();
                Ok(Expr::Literal { width, value, base, has_unknown })
            }
            Tk::StringLit(s) => {
                self.bump();
                Ok(Expr::StringLit(s))
            }
            Tk::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tk::RParen)?;
                Ok(e)
            }
            Tk::LBrace => {
                self.bump();
                let first = self.expr()?;
                // replication {n{expr}}?
                if self.peek() == &Tk::LBrace {
                    self.bump();
                    let inner = self.expr()?;
                    self.expect(Tk::RBrace)?;
                    self.expect(Tk::RBrace)?;
                    return Ok(Expr::Repeat(Box::new(first), Box::new(inner)));
                }
                let mut parts = vec![first];
                while self.eat(&Tk::Comma) {
                    parts.push(self.expr()?);
                }
                self.expect(Tk::RBrace)?;
                Ok(Expr::Concat(parts))
            }
            Tk::Ident(name) => {
                self.bump();
                if self.eat(&Tk::LBracket) {
                    let first = self.expr()?;
                    match self.peek() {
                        Tk::Colon => {
                            self.bump();
                            let lsb = self.expr()?;
                            self.expect(Tk::RBracket)?;
                            Ok(Expr::RangeSelect(name, Box::new(first), Box::new(lsb)))
                        }
                        Tk::PlusColon | Tk::MinusColon => {
                            let ascending = self.bump() == Tk::PlusColon;
                            let width = self.expr()?;
                            self.expect(Tk::RBracket)?;
                            Ok(Expr::IndexedSelect {
                                name,
                                base: Box::new(first),
                                width: Box::new(width),
                                ascending,
                            })
                        }
                        _ => {
                            self.expect(Tk::RBracket)?;
                            Ok(Expr::Index(name, Box::new(first)))
                        }
                    }
                } else if self.peek() == &Tk::LParen && name.starts_with('$') {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != &Tk::RParen {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tk::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(Tk::RParen)?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_half_adder() {
        let src = "module half_adder(input a, input b, output sum, output cout);\n\
                   assign sum = a ^ b;\n  assign cout = a & b;\nendmodule";
        let f = parse(src).unwrap();
        let m = &f.modules[0];
        assert_eq!(m.name, "half_adder");
        assert_eq!(m.ports.len(), 4);
        assert_eq!(m.items.len(), 2);
    }

    #[test]
    fn parses_vector_ports() {
        let src = "module add8(input [7:0] a, b, input cin, output [7:0] s, output cout);\n\
                   assign {cout, s} = a + b + cin;\nendmodule";
        let f = parse(src).unwrap();
        let m = &f.modules[0];
        assert_eq!(m.ports.len(), 5);
        assert_eq!(m.ports[1].name, "b");
        assert!(m.ports[1].range.is_some(), "b inherits the [7:0] range");
        assert!(m.ports[2].range.is_none(), "cin resets the range");
    }

    #[test]
    fn parses_sequential_counter() {
        let src = "module counter #(parameter WIDTH = 8) (\n\
                     input clk, input rst, input en,\n\
                     output reg [WIDTH-1:0] count);\n\
                   always @(posedge clk or posedge rst) begin\n\
                     if (rst) count <= 0;\n\
                     else if (en) count <= count + 1'b1;\n\
                   end\nendmodule";
        let f = parse(src).unwrap();
        let m = &f.modules[0];
        assert_eq!(m.params.len(), 1);
        assert!(m.port("count").unwrap().is_reg);
        match &m.items[0] {
            Item::Always(a) => match &a.sensitivity {
                Sensitivity::Edges(es) => assert_eq!(es.len(), 2),
                other => panic!("expected edges, got {other:?}"),
            },
            other => panic!("expected always, got {other:?}"),
        }
    }

    #[test]
    fn parses_case_fsm() {
        let src = "module fsm(input clk, input rst, input x, output reg y);\n\
                   reg [1:0] state, next;\n\
                   localparam S0 = 2'd0;\n\
                   always @(posedge clk) state <= rst ? S0 : next;\n\
                   always @* begin\n\
                     next = state; y = 1'b0;\n\
                     case (state)\n\
                       S0: if (x) next = 2'd1;\n\
                       2'd1: begin next = 2'd2; y = 1'b1; end\n\
                       default: next = S0;\n\
                     endcase\n\
                   end\nendmodule";
        let f = parse(src).unwrap();
        let m = &f.modules[0];
        assert_eq!(m.items.len(), 4);
    }

    #[test]
    fn parses_instantiation() {
        let src = "module top(input [3:0] a, b, output [3:0] s, output c);\n\
                   wire [2:0] carry;\n\
                   full_adder fa0(.a(a[0]), .b(b[0]), .cin(1'b0), .s(s[0]), .cout(carry[0]));\n\
                   full_adder #(.W(1)) fa1(a[1], b[1], carry[0], s[1], carry[1]);\n\
                   endmodule";
        let f = parse(src).unwrap();
        let m = &f.modules[0];
        let inst_count = m.items.iter().filter(|i| matches!(i, Item::Instance(_))).count();
        assert_eq!(inst_count, 2);
    }

    #[test]
    fn parses_nonansi_ports() {
        let src = "module nona(a, b, y);\n  input a, b;\n  output y;\n\
                   assign y = a | b;\nendmodule";
        let f = parse(src).unwrap();
        let m = &f.modules[0];
        assert_eq!(m.ports.len(), 3);
        assert_eq!(m.ports[0].name, "a");
        assert_eq!(m.ports[2].dir, PortDir::Output);
    }

    #[test]
    fn parses_for_loop() {
        let src = "module rev(input [7:0] a, output reg [7:0] y);\n\
                   integer i;\n\
                   always @* begin\n\
                     for (i = 0; i < 8; i = i + 1) y[i] = a[7 - i];\n\
                   end\nendmodule";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn precedence_mul_over_add() {
        let f =
            parse("module m(input [7:0] a, b, c, output [7:0] y); assign y = a + b * c; endmodule")
                .unwrap();
        match &f.modules[0].items[0] {
            Item::Assign(a) => match &a.rhs {
                Expr::Binary(BinaryOp::Add, _, rhs) => {
                    assert!(matches!(**rhs, Expr::Binary(BinaryOp::Mul, _, _)));
                }
                other => panic!("expected Add at top, got {other:?}"),
            },
            _ => unreachable!(),
        }
    }

    #[test]
    fn missing_semicolon_is_error() {
        let src = "module m(input a, output y); assign y = a endmodule";
        let err = parse(src).unwrap_err();
        assert!(err.line >= 1);
    }

    #[test]
    fn missing_endmodule_is_error() {
        assert!(parse("module m(input a, output y); assign y = a;").is_err());
    }

    #[test]
    fn garbage_is_error() {
        assert!(parse("this is not verilog at all").is_err());
        assert!(parse("module ;").is_err());
    }

    #[test]
    fn parses_concat_repeat() {
        let src = "module m(input [3:0] a, output [15:0] y); assign y = {4{a}}; endmodule";
        let f = parse(src).unwrap();
        match &f.modules[0].items[0] {
            Item::Assign(a) => assert!(matches!(a.rhs, Expr::Repeat(_, _))),
            _ => unreachable!(),
        }
    }

    #[test]
    fn parses_indexed_part_select() {
        let src = "module m(input [31:0] a, input [1:0] sel, output [7:0] y);\n\
                   assign y = a[sel*8 +: 8];\nendmodule";
        let f = parse(src).unwrap();
        match &f.modules[0].items[0] {
            Item::Assign(a) => {
                assert!(matches!(a.rhs, Expr::IndexedSelect { ascending: true, .. }));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn parses_multiple_modules() {
        let src = "module a(input x, output y); assign y = x; endmodule\n\
                   module b(input x, output y); assign y = ~x; endmodule";
        let f = parse(src).unwrap();
        assert_eq!(f.modules.len(), 2);
        assert!(f.module("b").is_some());
    }

    #[test]
    fn parses_ternary_chain() {
        let src = "module m(input [1:0] s, input [3:0] d, output y);\n\
                   assign y = s == 2'd0 ? d[0] : s == 2'd1 ? d[1] : s == 2'd2 ? d[2] : d[3];\n\
                   endmodule";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn parses_signed_decl_and_reduction() {
        let src = "module m(input signed [7:0] a, output p, output z);\n\
                   assign p = ^a;\n  assign z = ~|a;\nendmodule";
        let f = parse(src).unwrap();
        assert!(f.modules[0].ports[0].signed);
    }

    #[test]
    fn parses_memory_decl() {
        let src = "module m(input clk, input [3:0] addr, input [7:0] din, input we, output reg [7:0] dout);\n\
                   reg [7:0] mem [0:15];\n\
                   always @(posedge clk) begin\n\
                     if (we) mem[addr] <= din;\n\
                     dout <= mem[addr];\n\
                   end\nendmodule";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn empty_port_list_ok() {
        assert!(parse("module t(); endmodule").is_ok());
        assert!(parse("module t; endmodule").is_ok());
    }

    #[test]
    fn initial_block_with_system_call() {
        let src = "module t; initial begin $display(\"hi\"); $finish; end endmodule";
        assert!(parse(src).is_ok());
    }
}
