//! Parser for the structural Verilog subset.
//!
//! Four stages, none of which recurses on the input's structure:
//!
//! 1. [`lex`] walks the bytes of the text once. ASCII takes a fast path;
//!    a non-ASCII character is decoded only where it can matter (Unicode
//!    whitespace, escaped identifiers, error messages). Tokens record
//!    their byte offset; line and column (in characters) are recovered
//!    from it only when an error is reported.
//! 2. Every identifier is interned on sight: one hash per occurrence, with
//!    the std default hasher since names come from untrusted clients.
//!    From then on a net is a dense [`Sym`] and every per-net table is a
//!    `Vec`.
//! 3. [`Parser::parse_expr`] builds each right-hand side into one flat
//!    `Expr` arena with an explicit continuation stack, so deep
//!    parentheses, `~` runs or `?:` chains cost heap, not call stack.
//! 4. [`Elab`] creates gates by an explicit-stack depth-first walk with
//!    white/grey/black marks per net, in exactly the post-order of the
//!    recursive elaboration it replaces, so gate ids are unchanged.

use crate::{GateId, GateKind, Network};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error produced when parsing the Verilog subset fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerilogError {
    message: String,
    line: usize,
    column: usize,
}

impl VerilogError {
    fn new(message: impl Into<String>, line: usize, column: usize) -> Self {
        VerilogError {
            message: message.into(),
            line,
            column,
        }
    }

    /// 1-based source line where the error was detected. `0` for errors
    /// without a source location (elaboration-stage errors such as
    /// combinational cycles, which concern a whole net rather than a
    /// token).
    pub fn line(&self) -> usize {
        self.line
    }

    /// 1-based source column (in characters) where the error was
    /// detected; `0` when the error has no source location.
    pub fn column(&self) -> usize {
        self.column
    }
}

impl fmt::Display for VerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "verilog parse error: {}", self.message)
        } else {
            write!(
                f,
                "verilog parse error at line {}, column {}: {}",
                self.line, self.column, self.message
            )
        }
    }
}

impl Error for VerilogError {}

/// An interned identifier: an index into the interner's name list.
type Sym = u32;

/// An index into the expression arena.
type ExprId = u32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok {
    Ident(Sym),
    Const(bool),
    Punct(u8),
    /// `~^` / `^~` XNOR operator.
    Xnor,
    Module,
    Input,
    Output,
    Wire,
    Assign,
    EndModule,
}

/// A token and the byte offset where it starts.
#[derive(Debug, Clone, Copy)]
struct Token {
    tok: Tok,
    at: usize,
}

/// 1-based (line, column) of byte offset `at`, the column counted in
/// characters: the lexer's positions, recomputed for an error report.
fn location(text: &str, at: usize) -> (usize, usize) {
    let before = &text.as_bytes()[..at];
    let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
    let start = before
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |k| k + 1);
    let col = 1 + before[start..]
        .iter()
        .filter(|&&b| !is_continuation(b))
        .count();
    (line, col)
}

/// True for a UTF-8 continuation byte (not the start of a character).
fn is_continuation(b: u8) -> bool {
    b & 0xC0 == 0x80
}

fn error_at(text: &str, at: usize, message: impl Into<String>) -> VerilogError {
    let (line, col) = location(text, at);
    VerilogError::new(message, line, col)
}

/// The character starting at byte `at` (the slow path for non-ASCII).
fn char_at(text: &str, at: usize) -> char {
    text[at..]
        .chars()
        .next()
        .expect("offset is inside the text")
}

/// The interned names and the token stream of a text.
struct Lexed<'a> {
    names: Vec<&'a str>,
    tokens: Vec<Token>,
}

fn lex(text: &str) -> Result<Lexed<'_>, VerilogError> {
    let b = text.as_bytes();
    let mut names: Vec<&str> = Vec::new();
    let mut index: HashMap<&str, Sym> = HashMap::new();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        // The token starting at `i`, if any, and its length in bytes.
        let (tok, len) = match c {
            c if c < 0x80 && (c as char).is_whitespace() => (None, 1),
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let len = b[i..].iter().position(|&x| x == b'\n');
                (None, len.unwrap_or(b.len() - i))
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                match b[i + 2..].windows(2).position(|w| w == b"*/") {
                    Some(k) => (None, k + 4),
                    None => return Err(error_at(text, i, "unterminated block comment")),
                }
            }
            b'~' if b.get(i + 1) == Some(&b'^') => (Some(Tok::Xnor), 2),
            b'^' if b.get(i + 1) == Some(&b'~') => (Some(Tok::Xnor), 2),
            b'(' | b')' | b';' | b',' | b'=' | b'&' | b'|' | b'^' | b'~' | b'?' | b':' => {
                (Some(Tok::Punct(c)), 1)
            }
            // Sized binary constant: exactly `1'b0` or `1'b1`.
            b'1' if b.get(i + 1) == Some(&b'\'') => match (b.get(i + 2), b.get(i + 3)) {
                (Some(&b'b'), Some(&d @ (b'0' | b'1'))) => (Some(Tok::Const(d == b'1')), 4),
                _ => {
                    let message = "malformed sized constant (expected 1'b0 or 1'b1)";
                    return Err(error_at(text, i, message));
                }
            },
            b'0' | b'1' => (Some(Tok::Const(c == b'1')), 1),
            c if c.is_ascii_alphabetic() || c == b'_' || c == b'\\' => {
                let len = if c == b'\\' {
                    // Escaped identifier: up to (Unicode) whitespace.
                    text[i..].find(char::is_whitespace)
                } else {
                    b[i..]
                        .iter()
                        .position(|&x| !(x.is_ascii_alphanumeric() || x == b'_' || x == b'$'))
                };
                let len = len.unwrap_or(b.len() - i);
                let tok = match &text[i..i + len] {
                    "module" => Tok::Module,
                    "input" => Tok::Input,
                    "output" => Tok::Output,
                    "wire" => Tok::Wire,
                    "assign" => Tok::Assign,
                    "endmodule" => Tok::EndModule,
                    word => {
                        let fresh = names.len() as Sym;
                        let sym = *index.entry(word).or_insert(fresh);
                        if sym == fresh {
                            names.push(word);
                        }
                        Tok::Ident(sym)
                    }
                };
                (Some(tok), len)
            }
            _ => {
                let ch = char_at(text, i);
                if !ch.is_whitespace() {
                    return Err(error_at(text, i, format!("unexpected character '{ch}'")));
                }
                (None, ch.len_utf8())
            }
        };
        if let Some(tok) = tok {
            tokens.push(Token { tok, at: i });
        }
        i += len;
    }
    Ok(Lexed { names, tokens })
}

/// Expression arena node; children always precede their parent.
#[derive(Debug, Clone, Copy)]
enum Expr {
    Const(bool),
    Ref(Sym),
    Not(ExprId),
    /// `&`, `|`, `^` or `~^` (And, Or, Xor, Xnor).
    Bin(GateKind, ExprId, ExprId),
    /// `s ? t : e` (Mux) or `maj(a, b, c)` (Maj).
    Tri(GateKind, [ExprId; 3]),
}

/// Binary operators of one expression still waiting for their right
/// operand, one slot per precedence level (`&` binds tighter than
/// `^`/`~^`, which bind tighter than `|`), plus the `~`s in front of the
/// operand being parsed. All levels are left-associative.
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    or: Option<ExprId>,
    xor: Option<(GateKind, ExprId)>,
    and: Option<ExprId>,
    nots: u32,
}

/// What a finished inner expression is for: the explicit stack standing
/// in for the recursive-descent calls.
#[derive(Debug, Clone, Copy)]
enum Cont {
    /// `(` … `)`: becomes an operand of the enclosing expression.
    Paren(Pending),
    /// `maj(`: argument `k` of three, the earlier ones in the array.
    Maj(Pending, [ExprId; 2], usize),
    /// `cond ?` … `:`.
    Then(ExprId),
    /// `cond ? then :` …: the `?:` completes the enclosing expression.
    Else(ExprId, ExprId),
}

struct Parser<'a> {
    text: &'a str,
    names: Vec<&'a str>,
    tokens: Vec<Token>,
    pos: usize,
    exprs: Vec<Expr>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Tok> {
        self.tokens.get(self.pos).map(|t| t.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    /// An error located at the token at the cursor.
    fn error(&self, message: impl Into<String>) -> VerilogError {
        self.error_at_token(self.pos, message)
    }

    /// An error located at token `pos` — or at the last token when `pos`
    /// is past the end of input, so "unexpected end of file" errors point
    /// at the last thing actually seen.
    fn error_at_token(&self, pos: usize, message: impl Into<String>) -> VerilogError {
        match self.tokens.len() {
            0 => VerilogError::new(message, 0, 0),
            n => error_at(self.text, self.tokens[pos.min(n - 1)].at, message),
        }
    }

    /// The token as the parser's messages spell it.
    fn describe(&self, tok: Tok) -> String {
        match tok {
            Tok::Ident(s) => format!("Ident({:?})", self.names[s as usize]),
            Tok::Const(v) => format!("Const({v})"),
            Tok::Punct(c) => format!("Punct({:?})", c as char),
            Tok::Xnor => "Xnor".into(),
            Tok::Module => "Module".into(),
            Tok::Input => "Input".into(),
            Tok::Output => "Output".into(),
            Tok::Wire => "Wire".into(),
            Tok::Assign => "Assign".into(),
            Tok::EndModule => "EndModule".into(),
        }
    }

    fn expect(&mut self, want: Tok) -> Result<(), VerilogError> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => {
                let msg = format!(
                    "expected {}, found {}",
                    self.describe(want),
                    self.describe(t)
                );
                Err(self.error(msg))
            }
            None => Err(self.error("unexpected end of file")),
        }
    }

    fn expect_ident(&mut self) -> Result<Sym, VerilogError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            Some(t) => Err(self.error(format!("expected identifier, found {}", self.describe(t)))),
            None => Err(self.error("unexpected end of file")),
        }
    }

    fn push(&mut self, e: Expr) -> ExprId {
        self.exprs.push(e);
        ExprId::try_from(self.exprs.len() - 1).expect("expression arena limited to 2^32 nodes")
    }

    /// Parses one expression
    /// (`expr := or ['?' expr ':' expr]`, `or := xor {'|' xor}`,
    /// `xor := and {('^' | '~^') and}`, `and := unary {'&' unary}`,
    /// `unary := '~' unary | primary`,
    /// `primary := '(' expr ')' | const | 'maj' '(' expr ',' expr ',' expr ')' | ident`)
    /// into the arena. It consumes the same tokens and reports the same
    /// errors, at the same tokens, as recursive descent over that grammar.
    fn parse_expr(&mut self) -> Result<ExprId, VerilogError> {
        let mut stack: Vec<Cont> = Vec::new();
        let mut p = Pending::default();
        'operand: loop {
            while self.peek() == Some(Tok::Punct(b'~')) {
                self.pos += 1;
                p.nots += 1;
            }
            let at = self.pos;
            let mut value = match self.next() {
                Some(Tok::Punct(b'(')) => {
                    stack.push(Cont::Paren(std::mem::take(&mut p)));
                    continue 'operand;
                }
                Some(Tok::Const(v)) => self.push(Expr::Const(v)),
                Some(Tok::Ident(s))
                    if self.names[s as usize] == "maj" && self.peek() == Some(Tok::Punct(b'(')) =>
                {
                    self.pos += 1;
                    stack.push(Cont::Maj(std::mem::take(&mut p), [0; 2], 0));
                    continue 'operand;
                }
                Some(Tok::Ident(s)) => self.push(Expr::Ref(s)),
                Some(t) => {
                    let message = format!("expected expression, found {}", self.describe(t));
                    return Err(self.error_at_token(at, message));
                }
                None => return Err(self.error_at_token(at, "unexpected end of file")),
            };
            // `value` is a finished primary of the chain `p`: fold it in,
            // level by level, until an operator asks for the next operand.
            loop {
                for _ in 0..std::mem::take(&mut p.nots) {
                    value = self.push(Expr::Not(value));
                }
                if let Some(l) = p.and.take() {
                    value = self.push(Expr::Bin(GateKind::And, l, value));
                }
                if self.peek() == Some(Tok::Punct(b'&')) {
                    self.pos += 1;
                    p.and = Some(value);
                    continue 'operand;
                }
                if let Some((kind, l)) = p.xor.take() {
                    value = self.push(Expr::Bin(kind, l, value));
                }
                let xor = match self.peek() {
                    Some(Tok::Punct(b'^')) => Some(GateKind::Xor),
                    Some(Tok::Xnor) => Some(GateKind::Xnor),
                    _ => None,
                };
                if let Some(kind) = xor {
                    self.pos += 1;
                    p.xor = Some((kind, value));
                    continue 'operand;
                }
                if let Some(l) = p.or.take() {
                    value = self.push(Expr::Bin(GateKind::Or, l, value));
                }
                if self.peek() == Some(Tok::Punct(b'|')) {
                    self.pos += 1;
                    p.or = Some(value);
                    continue 'operand;
                }
                if self.peek() == Some(Tok::Punct(b'?')) {
                    self.pos += 1;
                    stack.push(Cont::Then(value));
                    continue 'operand;
                }
                // A whole expression is done: hand it to its context.
                loop {
                    match stack.pop() {
                        None => return Ok(value),
                        Some(Cont::Paren(outer)) => {
                            self.expect(Tok::Punct(b')'))?;
                            p = outer;
                            break;
                        }
                        Some(Cont::Maj(outer, mut args, k)) => {
                            if k < 2 {
                                self.expect(Tok::Punct(b','))?;
                                args[k] = value;
                                stack.push(Cont::Maj(outer, args, k + 1));
                                continue 'operand;
                            }
                            self.expect(Tok::Punct(b')'))?;
                            value = self.push(Expr::Tri(GateKind::Maj, [args[0], args[1], value]));
                            p = outer;
                            break;
                        }
                        Some(Cont::Then(cond)) => {
                            self.expect(Tok::Punct(b':'))?;
                            stack.push(Cont::Else(cond, value));
                            continue 'operand;
                        }
                        Some(Cont::Else(cond, then)) => {
                            value = self.push(Expr::Tri(GateKind::Mux, [cond, then, value]));
                        }
                    }
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetClass {
    Input,
    Output,
    Wire,
}

/// Sentinel of the per-net driver table: no `assign` drives the net.
const UNDRIVEN: ExprId = ExprId::MAX;

/// Parses a module in the structural Verilog subset into a [`Network`].
///
/// # Errors
///
/// Returns a [`VerilogError`] on lexical or syntax errors, references to
/// undeclared nets, multiply-driven or undriven nets, and combinational
/// cycles.
///
/// # Example
///
/// ```
/// let src = "module t(a, b, y); input a, b; output y; assign y = a & ~b; endmodule";
/// let net = mig_netlist::parse_verilog(src)?;
/// assert_eq!(net.eval(&[true, false]), vec![true]);
/// # Ok::<(), mig_netlist::VerilogError>(())
/// ```
pub fn parse_verilog(text: &str) -> Result<Network, VerilogError> {
    let Lexed { names, tokens } = lex(text)?;
    let mut px = Parser {
        text,
        names,
        tokens,
        pos: 0,
        exprs: Vec::new(),
    };
    px.expect(Tok::Module)?;
    let module_name = px.expect_ident()?;
    px.expect(Tok::Punct(b'('))?;
    let mut classes: Vec<Option<NetClass>> = vec![None; px.names.len()];
    let mut input_order: Vec<Sym> = Vec::new();
    let mut output_order: Vec<Sym> = Vec::new();

    if px.peek() != Some(Tok::Punct(b')')) {
        // ANSI-style `input a, b, output y` declares directions inline; a
        // direction keyword applies to the names that follow it.
        let mut ansi_dir: Option<NetClass> = None;
        loop {
            match px.peek() {
                Some(Tok::Input) => {
                    px.pos += 1;
                    ansi_dir = Some(NetClass::Input);
                }
                Some(Tok::Output) => {
                    px.pos += 1;
                    ansi_dir = Some(NetClass::Output);
                }
                _ => {}
            }
            let name = px.expect_ident()?;
            if let Some(class) = ansi_dir {
                classes[name as usize] = Some(class);
                match class {
                    NetClass::Input => input_order.push(name),
                    NetClass::Output => output_order.push(name),
                    NetClass::Wire => {}
                }
            }
            if px.peek() == Some(Tok::Punct(b',')) {
                px.pos += 1;
            } else {
                break;
            }
        }
    }
    px.expect(Tok::Punct(b')'))?;
    px.expect(Tok::Punct(b';'))?;
    let mut driver: Vec<ExprId> = vec![UNDRIVEN; px.names.len()];
    let mut assign_order: Vec<Sym> = Vec::new();

    loop {
        // Statement errors point at the statement's first token.
        let stmt = px.pos;
        match px.next() {
            Some(decl @ (Tok::Input | Tok::Output | Tok::Wire)) => {
                let class = match decl {
                    Tok::Input => NetClass::Input,
                    Tok::Output => NetClass::Output,
                    _ => NetClass::Wire,
                };
                loop {
                    let name = px.expect_ident()?;
                    if classes[name as usize].replace(class).is_some() {
                        let name = px.names[name as usize];
                        return Err(px.error_at_token(stmt, format!("net '{name}' declared twice")));
                    }
                    match class {
                        NetClass::Input => input_order.push(name),
                        NetClass::Output => output_order.push(name),
                        NetClass::Wire => {}
                    }
                    if px.peek() == Some(Tok::Punct(b',')) {
                        px.pos += 1;
                    } else {
                        break;
                    }
                }
                px.expect(Tok::Punct(b';'))?;
            }
            Some(Tok::Assign) => {
                let target = px.expect_ident()?;
                px.expect(Tok::Punct(b'='))?;
                let expr = px.parse_expr()?;
                px.expect(Tok::Punct(b';'))?;
                let name = px.names[target as usize];
                match classes[target as usize] {
                    None => {
                        return Err(px.error_at_token(
                            stmt,
                            format!("assignment to undeclared net '{name}'"),
                        ))
                    }
                    Some(NetClass::Input) => {
                        return Err(px.error_at_token(stmt, format!("assignment to input '{name}'")))
                    }
                    Some(_) => {}
                }
                if driver[target as usize] != UNDRIVEN {
                    return Err(px.error_at_token(stmt, format!("net '{name}' driven twice")));
                }
                driver[target as usize] = expr;
                assign_order.push(target);
            }
            Some(Tok::EndModule) => break,
            Some(t) => {
                let found = px.describe(t);
                return Err(px.error_at_token(
                    stmt,
                    format!("expected declaration or assign, found {found}"),
                ));
            }
            None => return Err(px.error_at_token(stmt, "missing endmodule")),
        }
    }

    let names = &px.names;
    let mut elab = Elab {
        names,
        exprs: &px.exprs,
        driver: &driver,
        marks: vec![Mark::White; names.len()],
        net: Network::new(names[module_name as usize]),
        tasks: Vec::new(),
        values: Vec::new(),
    };
    for &s in &input_order {
        let id = elab.net.add_input(names[s as usize]);
        elab.marks[s as usize] = Mark::Black(id);
    }
    let mut outputs = Vec::with_capacity(output_order.len());
    for &s in &output_order {
        outputs.push((s, elab.resolve(s)?));
    }
    // Also elaborate wires nobody reads so undriven-wire errors surface even
    // when the wire is dangling.
    for &s in &assign_order {
        elab.resolve(s)?;
    }
    let mut net = elab.net;
    for (s, id) in outputs {
        net.set_output(names[s as usize], id);
    }
    Ok(net)
}

/// Depth-first colour of a net during elaboration.
#[derive(Debug, Clone, Copy)]
enum Mark {
    /// Not reached yet.
    White,
    /// On the current resolution path: reaching it again is a cycle.
    Grey,
    /// Resolved to a gate.
    Black(GateId),
}

/// One step of the explicit-stack elaboration.
#[derive(Debug, Clone, Copy)]
enum Task {
    /// Produce the gate of an expression node.
    Visit(ExprId),
    /// The node's operands are on the value stack: create its gate.
    Build(ExprId),
    /// The net's driver is on top of the value stack: record it.
    Finish(Sym),
}

/// Elaboration of the parsed module into a [`Network`]. It creates the
/// gates in the order of a recursive depth-first walk — outputs first,
/// each net's driver expression in post-order, operands left to right,
/// a net's gates at its first reference — with the recursion replaced by
/// `tasks`, so a chain of a million assigns needs no call stack.
struct Elab<'a> {
    names: &'a [&'a str],
    exprs: &'a [Expr],
    driver: &'a [ExprId],
    marks: Vec<Mark>,
    net: Network,
    tasks: Vec<Task>,
    values: Vec<GateId>,
}

impl Elab<'_> {
    /// The gate driving net `root`, creating its cone as needed.
    fn resolve(&mut self, root: Sym) -> Result<GateId, VerilogError> {
        self.enter(root)?;
        while let Some(task) = self.tasks.pop() {
            match task {
                Task::Visit(e) => match self.exprs[e as usize] {
                    Expr::Const(v) => {
                        let c = self.net.constant(v);
                        self.values.push(c);
                    }
                    Expr::Ref(s) => self.enter(s)?,
                    Expr::Not(a) => self.tasks.extend([Task::Build(e), Task::Visit(a)]),
                    Expr::Bin(_, a, b) => {
                        self.tasks
                            .extend([Task::Build(e), Task::Visit(b), Task::Visit(a)]);
                    }
                    Expr::Tri(_, [a, b, c]) => self.tasks.extend([
                        Task::Build(e),
                        Task::Visit(c),
                        Task::Visit(b),
                        Task::Visit(a),
                    ]),
                },
                Task::Build(e) => {
                    let (kind, arity) = match self.exprs[e as usize] {
                        Expr::Not(_) => (GateKind::Not, 1),
                        Expr::Bin(kind, ..) => (kind, 2),
                        Expr::Tri(kind, _) => (kind, 3),
                        Expr::Const(_) | Expr::Ref(_) => unreachable!("leaves are never built"),
                    };
                    let base = self.values.len() - arity;
                    let id = self.net.add_gate(kind, &self.values[base..]);
                    self.values.truncate(base);
                    self.values.push(id);
                }
                Task::Finish(s) => {
                    let id = *self.values.last().expect("the driver's gate");
                    self.marks[s as usize] = Mark::Black(id);
                }
            }
        }
        Ok(self.values.pop().expect("one gate per resolved net"))
    }

    /// Reaches net `s`: pushes its gate if resolved, else schedules its
    /// driver; a grey net is a cycle, a net without driver an error.
    fn enter(&mut self, s: Sym) -> Result<(), VerilogError> {
        let name = self.names[s as usize];
        match self.marks[s as usize] {
            Mark::Black(id) => self.values.push(id),
            Mark::Grey => {
                return Err(VerilogError::new(
                    format!("combinational cycle through net '{name}'"),
                    0,
                    0,
                ))
            }
            Mark::White => match self.driver[s as usize] {
                UNDRIVEN => {
                    return Err(VerilogError::new(
                        format!("net '{name}' is never driven"),
                        0,
                        0,
                    ))
                }
                e => {
                    self.marks[s as usize] = Mark::Grey;
                    self.tasks.extend([Task::Finish(s), Task::Visit(e)]);
                }
            },
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_module() {
        let src = "module t (a, b, y);\n input a, b;\n output y;\n assign y = a & b;\nendmodule\n";
        let net = parse_verilog(src).expect("parses");
        assert_eq!(net.name(), "t");
        assert_eq!(net.eval(&[true, true]), vec![true]);
        assert_eq!(net.eval(&[true, false]), vec![false]);
    }

    #[test]
    fn operator_precedence() {
        // & binds tighter than ^ binds tighter than |
        let src = "module t(a,b,c,y); input a,b,c; output y; assign y = a | b & c; endmodule";
        let net = parse_verilog(src).expect("parses");
        assert_eq!(net.eval(&[true, false, false]), vec![true]);
        assert_eq!(net.eval(&[false, true, false]), vec![false]);
        let src2 = "module t(a,b,c,y); input a,b,c; output y; assign y = a ^ b & c; endmodule";
        let net2 = parse_verilog(src2).expect("parses");
        assert_eq!(net2.eval(&[true, true, false]), vec![true]); // a ^ (b&c)
    }

    #[test]
    fn out_of_order_assigns() {
        let src = "module t(a,y); input a; output y; wire w;\n\
                   assign y = w | a;\n assign w = ~a;\nendmodule";
        let net = parse_verilog(src).expect("parses");
        assert_eq!(net.eval(&[false]), vec![true]);
        assert_eq!(net.eval(&[true]), vec![true]);
    }

    #[test]
    fn ternary_and_xnor() {
        let src = "module t(s,a,b,y,z); input s,a,b; output y,z;\n\
                   assign y = s ? a : b;\n assign z = a ~^ b;\nendmodule";
        let net = parse_verilog(src).expect("parses");
        assert_eq!(net.eval(&[true, true, false]), vec![true, false]);
        assert_eq!(net.eval(&[false, true, false]), vec![false, false]);
        assert_eq!(net.eval(&[false, true, true]), vec![true, true]);
    }

    #[test]
    fn constants_and_comments() {
        let src = "// top comment\nmodule t(a,y); /* block */ input a; output y;\n\
                   assign y = a & 1'b1 | 1'b0; // trailing\nendmodule";
        let net = parse_verilog(src).expect("parses");
        assert_eq!(net.eval(&[true]), vec![true]);
        assert_eq!(net.eval(&[false]), vec![false]);
    }

    #[test]
    fn error_on_cycle() {
        let src = "module t(a,y); input a; output y; wire w;\n\
                   assign w = y; assign y = w & a; endmodule";
        let err = parse_verilog(src).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn error_on_undriven() {
        let src = "module t(a,y); input a; output y; wire w; assign y = w; endmodule";
        let err = parse_verilog(src).unwrap_err();
        assert!(err.to_string().contains("never driven"), "{err}");
    }

    #[test]
    fn error_on_double_drive() {
        let src = "module t(a,y); input a; output y;\n\
                   assign y = a; assign y = ~a; endmodule";
        let err = parse_verilog(src).unwrap_err();
        assert!(err.to_string().contains("driven twice"), "{err}");
    }

    #[test]
    fn error_on_assign_to_input() {
        let src = "module t(a,y); input a; output y; assign a = y; endmodule";
        assert!(parse_verilog(src).is_err());
    }

    #[test]
    fn error_reports_line() {
        let src = "module t(a,y);\ninput a;\noutput y;\nassign y = a @ a;\nendmodule";
        let err = parse_verilog(src).unwrap_err();
        assert_eq!(err.line(), 4);
        assert_eq!(err.column(), 14, "{err}");
        assert!(err.to_string().contains("line 4, column 14"), "{err}");
    }

    #[test]
    fn error_reports_column_after_multibyte_text() {
        // Columns count characters, not bytes: the two-byte 'é' in the
        // comment before the bad token must advance the column by one
        // (byte-counting would report 24).
        let src = "module t(a,y); input a; output y;\nassign y = a; /* é */ @\nendmodule";
        let err = parse_verilog(src).unwrap_err();
        assert_eq!(err.line(), 2);
        assert_eq!(err.column(), 23, "{err}");
    }

    #[test]
    fn multibyte_comment_does_not_desync_the_lexer() {
        // Regression: the lexer used to index the source *bytes* with a
        // *character* count, so any multi-byte character shifted every
        // later lookahead — `1'b1` after a non-ASCII comment could slice
        // mid-UTF-8-boundary and panic.
        let src = "module t(a,y); /* café ☕ */ input a; output y;\n\
                   assign y = a & 1'b1; // done ✓\nendmodule";
        let net = parse_verilog(src).expect("parses despite multibyte comments");
        assert_eq!(net.eval(&[true]), vec![true]);
        assert_eq!(net.eval(&[false]), vec![false]);
    }

    #[test]
    fn malformed_sized_constant_is_an_error_not_a_panic() {
        for bad in ["1'b", "1'bx", "1'", "1'c1"] {
            let src = format!("module t(a,y); input a; output y; assign y = a & {bad}; endmodule");
            let err = parse_verilog(&src).unwrap_err();
            assert_eq!(err.line(), 1, "{bad}: {err}");
        }
    }

    /// A small but representative module exercising every token kind.
    const CORPUS: &str = "module top(a, b, s, y, z); // ports\n\
                          input a, b, s;\n\
                          output y, z;\n\
                          wire w1, w2; /* internal ± nets */\n\
                          assign w1 = maj(a, b, 1'b0);\n\
                          assign w2 = s ? a : ~b;\n\
                          assign y = w1 ^ w2 | a & 1'b1;\n\
                          assign z = w1 ~^ w2;\n\
                          endmodule\n";

    #[test]
    fn truncated_verilog_never_panics() {
        // Property: every byte-level truncation of a valid module either
        // parses or reports a clean error — the parser must never panic,
        // even when the cut lands inside a multi-byte character (the
        // lossy decode turns it into U+FFFD).
        assert!(parse_verilog(CORPUS).is_ok());
        for cut in 0..CORPUS.len() {
            let text = String::from_utf8_lossy(&CORPUS.as_bytes()[..cut]);
            let _ = parse_verilog(&text);
        }
    }

    #[test]
    fn corrupted_verilog_never_panics() {
        // Property: deterministic single-byte corruptions (overwrites,
        // deletions, insertions, all SplitMix64-seeded) produce Ok or a
        // clean Err, never a panic or a bogus location (line/column must
        // stay within the text).
        let mut rng = crate::SplitMix64::seed_from_u64(0xB0B0_CAFE);
        let bytes = CORPUS.as_bytes();
        for _ in 0..500 {
            let at = (rng.next_u64() as usize) % bytes.len();
            let val = (rng.next_u64() & 0xFF) as u8;
            let mut mutated = bytes.to_vec();
            match rng.next_u64() % 3 {
                0 => mutated[at] = val,
                1 => {
                    mutated.remove(at);
                }
                _ => mutated.insert(at, val),
            }
            let text = String::from_utf8_lossy(&mutated);
            if let Err(e) = parse_verilog(&text) {
                let lines = text.lines().count() + 1;
                assert!(e.line() <= lines, "line {} of {lines}: {e}", e.line());
            }
        }
    }

    /// Runs `f` on a thread with a 256 KiB stack, so a parser that
    /// recursed once per level of input nesting would overflow it.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(f)
            .expect("thread spawns")
            .join()
            .expect("parse returns")
    }

    fn deep(n: usize, open: &str, core: &str, close: &str) -> String {
        format!(
            "module deep(a, b, y); input a, b; output y;\nassign y = {}{core}{};\nendmodule\n",
            open.repeat(n),
            close.repeat(n)
        )
    }

    #[test]
    fn million_assign_chain_parses_on_a_small_stack() {
        use std::fmt::Write as _;
        const N: usize = 1_000_000;
        let net = on_small_stack(|| {
            // Listed output first, so elaboration must walk the chain.
            let mut src = format!("module chain(w0, y); input w0; output y; assign y = w{N};\n");
            for i in (1..=N).rev() {
                let _ = writeln!(src, "wire w{i}; assign w{i} = ~w{};", i - 1);
            }
            src.push_str("endmodule\n");
            parse_verilog(&src).expect("the chain parses")
        });
        assert_eq!(net.num_gates(), N + 1);
        for (id, g) in net.iter().skip(1) {
            assert_eq!(g.kind(), GateKind::Not);
            assert_eq!(g.fanins(), &[GateId::from_index(id.index() - 1)]);
        }
        assert_eq!(net.outputs()[0].1, GateId::from_index(N));
    }

    #[test]
    fn hundred_thousand_nots_parse_to_a_not_chain() {
        const N: usize = 100_000;
        let net = on_small_stack(|| parse_verilog(&deep(N, "~", "a", "")).expect("parses"));
        // Two inputs, then `~a`, `~~a`, … outward.
        assert_eq!(net.num_gates(), N + 2);
        assert_eq!(net.gate(GateId::from_index(2)).fanins(), &[net.inputs()[0]]);
        for (id, g) in net.iter().skip(3) {
            assert_eq!(g.kind(), GateKind::Not);
            assert_eq!(g.fanins(), &[GateId::from_index(id.index() - 1)]);
        }
        assert_eq!(net.eval(&[true, false]), vec![true]);
    }

    #[test]
    fn hundred_thousand_parentheses_parse_iteratively() {
        const N: usize = 100_000;
        let net = on_small_stack(|| parse_verilog(&deep(N, "(", "a ^ b", ")")).expect("parses"));
        assert_eq!(net.num_gates(), 3);
        assert_eq!(net.gate(net.outputs()[0].1).kind(), GateKind::Xor);
        // Unbalanced: the error names the token after the last operand.
        let src = deep(N, "(", "a", "");
        let err = on_small_stack(move || parse_verilog(&src).unwrap_err());
        assert_eq!((err.line(), err.column()), (2, N + 13), "{err}");
        assert!(err
            .to_string()
            .contains("expected Punct(')'), found Punct(';')"));
    }

    #[test]
    fn deep_ternaries_and_majorities_parse_on_a_small_stack() {
        const N: usize = 100_000;
        for (open, core, close, gates) in [
            ("a ? b : ", "a", "", 2 + N),
            ("(a ? ", "b", " : a)", 2 + N),
            ("maj(a, ~b, ", "a", ")", 2 + 2 * N),
        ] {
            let src = deep(N, open, core, close);
            let net = on_small_stack(move || parse_verilog(&src).expect("parses"));
            assert_eq!(net.num_gates(), gates, "{open}");
        }
    }

    #[test]
    fn ansi_style_ports() {
        let src = "module t(input a, input b, output y); assign y = a | b; endmodule";
        let net = parse_verilog(src).expect("parses");
        assert_eq!(net.num_inputs(), 2);
        assert_eq!(net.eval(&[false, true]), vec![true]);
    }
}
