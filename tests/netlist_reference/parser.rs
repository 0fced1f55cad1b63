//! The recursive-descent parser for the structural Verilog subset as it
//! was before the byte lexer and the iterative elaboration: kept verbatim
//! (apart from `add_gate` taking a slice) as the reference the
//! lockstep tests compare the production parser against.

use mig_netlist::{GateId, GateKind, Network};
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

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    Const(bool),
    Punct(char),
    /// `~^` / `^~` XNOR operator.
    Xnor,
    Module,
    Input,
    Output,
    Wire,
    Assign,
    EndModule,
}

struct Lexer {
    tokens: Vec<(Token, usize, usize)>,
    pos: usize,
}

fn lex(text: &str) -> Result<Lexer, VerilogError> {
    let mut tokens = Vec::new();
    // Lexing operates on the decoded character sequence only — never on
    // byte slices of `text` — so multi-byte characters (in comments,
    // escaped identifiers, or corrupted input) can never desynchronize
    // the cursor from a UTF-8 boundary.
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    let mut line = 1;
    // 1-based column of `chars[i]`, counted in characters.
    let mut col = 1;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                col = 1;
                i += 1;
            }
            c if c.is_whitespace() => {
                col += 1;
                i += 1;
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                    col += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let (start_line, start_col) = (line, col);
                i += 2;
                col += 2;
                while i + 1 < chars.len() && !(chars[i] == '*' && chars[i + 1] == '/') {
                    if chars[i] == '\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
                if i + 1 >= chars.len() {
                    return Err(VerilogError::new(
                        "unterminated block comment",
                        start_line,
                        start_col,
                    ));
                }
                i += 2;
                col += 2;
            }
            '~' if chars.get(i + 1) == Some(&'^') => {
                tokens.push((Token::Xnor, line, col));
                i += 2;
                col += 2;
            }
            '^' if chars.get(i + 1) == Some(&'~') => {
                tokens.push((Token::Xnor, line, col));
                i += 2;
                col += 2;
            }
            '(' | ')' | ';' | ',' | '=' | '&' | '|' | '^' | '~' | '?' | ':' => {
                tokens.push((Token::Punct(c), line, col));
                i += 1;
                col += 1;
            }
            '1' if chars.get(i + 1) == Some(&'\'') => {
                // Sized binary constant: exactly `1'b0` or `1'b1`.
                let value = match (chars.get(i + 2), chars.get(i + 3)) {
                    (Some(&'b'), Some(&'0')) => false,
                    (Some(&'b'), Some(&'1')) => true,
                    _ => {
                        return Err(VerilogError::new(
                            "malformed sized constant (expected 1'b0 or 1'b1)",
                            line,
                            col,
                        ));
                    }
                };
                tokens.push((Token::Const(value), line, col));
                i += 4;
                col += 4;
            }
            '0' => {
                tokens.push((Token::Const(false), line, col));
                i += 1;
                col += 1;
            }
            '1' => {
                tokens.push((Token::Const(true), line, col));
                i += 1;
                col += 1;
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '\\' => {
                let start = i;
                let start_col = col;
                if c == '\\' {
                    // Escaped identifier: up to whitespace.
                    i += 1;
                    col += 1;
                    while i < chars.len() && !chars[i].is_whitespace() {
                        i += 1;
                        col += 1;
                    }
                } else {
                    while i < chars.len()
                        && (chars[i].is_ascii_alphanumeric() || chars[i] == '_' || chars[i] == '$')
                    {
                        i += 1;
                        col += 1;
                    }
                }
                let word: String = chars[start..i].iter().collect();
                let tok = match word.as_str() {
                    "module" => Token::Module,
                    "input" => Token::Input,
                    "output" => Token::Output,
                    "wire" => Token::Wire,
                    "assign" => Token::Assign,
                    "endmodule" => Token::EndModule,
                    _ => Token::Ident(word),
                };
                tokens.push((tok, line, start_col));
            }
            other => {
                return Err(VerilogError::new(
                    format!("unexpected character '{other}'"),
                    line,
                    col,
                ));
            }
        }
    }
    Ok(Lexer { tokens, pos: 0 })
}

impl Lexer {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _, _)| t)
    }

    /// (line, column) of the token at the cursor — or of the last token
    /// when the cursor is at end of input, so "unexpected end of file"
    /// errors point at the last thing actually seen.
    fn loc(&self) -> (usize, usize) {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or((0, 0), |&(_, l, c)| (l, c))
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _, _)| t.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: &Token) -> Result<(), VerilogError> {
        let (line, col) = self.loc();
        match self.next() {
            Some(ref t) if t == want => Ok(()),
            Some(t) => Err(VerilogError::new(
                format!("expected {want:?}, found {t:?}"),
                line,
                col,
            )),
            None => Err(VerilogError::new("unexpected end of file", line, col)),
        }
    }

    fn expect_ident(&mut self) -> Result<String, VerilogError> {
        let (line, col) = self.loc();
        match self.next() {
            Some(Token::Ident(name)) => Ok(name),
            Some(t) => Err(VerilogError::new(
                format!("expected identifier, found {t:?}"),
                line,
                col,
            )),
            None => Err(VerilogError::new("unexpected end of file", line, col)),
        }
    }
}

/// Expression AST prior to elaboration.
#[derive(Debug, Clone)]
enum Expr {
    Const(bool),
    Ref(String),
    Not(Box<Expr>),
    Bin(char, Box<Expr>, Box<Expr>),
    Xnor(Box<Expr>, Box<Expr>),
    Mux(Box<Expr>, Box<Expr>, Box<Expr>),
    Maj(Box<Expr>, Box<Expr>, Box<Expr>),
}

fn parse_expr(lx: &mut Lexer) -> Result<Expr, VerilogError> {
    let cond = parse_or(lx)?;
    if lx.peek() == Some(&Token::Punct('?')) {
        lx.next();
        let then = parse_expr(lx)?;
        lx.expect(&Token::Punct(':'))?;
        let els = parse_expr(lx)?;
        Ok(Expr::Mux(Box::new(cond), Box::new(then), Box::new(els)))
    } else {
        Ok(cond)
    }
}

fn parse_or(lx: &mut Lexer) -> Result<Expr, VerilogError> {
    let mut lhs = parse_xor(lx)?;
    while lx.peek() == Some(&Token::Punct('|')) {
        lx.next();
        let rhs = parse_xor(lx)?;
        lhs = Expr::Bin('|', Box::new(lhs), Box::new(rhs));
    }
    Ok(lhs)
}

fn parse_xor(lx: &mut Lexer) -> Result<Expr, VerilogError> {
    let mut lhs = parse_and(lx)?;
    loop {
        match lx.peek() {
            Some(Token::Punct('^')) => {
                lx.next();
                let rhs = parse_and(lx)?;
                lhs = Expr::Bin('^', Box::new(lhs), Box::new(rhs));
            }
            Some(Token::Xnor) => {
                lx.next();
                let rhs = parse_and(lx)?;
                lhs = Expr::Xnor(Box::new(lhs), Box::new(rhs));
            }
            _ => break,
        }
    }
    Ok(lhs)
}

fn parse_and(lx: &mut Lexer) -> Result<Expr, VerilogError> {
    let mut lhs = parse_unary(lx)?;
    while lx.peek() == Some(&Token::Punct('&')) {
        lx.next();
        let rhs = parse_unary(lx)?;
        lhs = Expr::Bin('&', Box::new(lhs), Box::new(rhs));
    }
    Ok(lhs)
}

fn parse_unary(lx: &mut Lexer) -> Result<Expr, VerilogError> {
    match lx.peek() {
        Some(Token::Punct('~')) => {
            lx.next();
            Ok(Expr::Not(Box::new(parse_unary(lx)?)))
        }
        _ => parse_primary(lx),
    }
}

fn parse_primary(lx: &mut Lexer) -> Result<Expr, VerilogError> {
    let (line, col) = lx.loc();
    match lx.next() {
        Some(Token::Punct('(')) => {
            let e = parse_expr(lx)?;
            lx.expect(&Token::Punct(')'))?;
            Ok(e)
        }
        Some(Token::Const(v)) => Ok(Expr::Const(v)),
        Some(Token::Ident(name)) if name == "maj" && lx.peek() == Some(&Token::Punct('(')) => {
            lx.next();
            let a = parse_expr(lx)?;
            lx.expect(&Token::Punct(','))?;
            let b = parse_expr(lx)?;
            lx.expect(&Token::Punct(','))?;
            let c = parse_expr(lx)?;
            lx.expect(&Token::Punct(')'))?;
            Ok(Expr::Maj(Box::new(a), Box::new(b), Box::new(c)))
        }
        Some(Token::Ident(name)) => Ok(Expr::Ref(name)),
        Some(t) => Err(VerilogError::new(
            format!("expected expression, found {t:?}"),
            line,
            col,
        )),
        None => Err(VerilogError::new("unexpected end of file", line, col)),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetClass {
    Input,
    Output,
    Wire,
}

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
    let mut lx = lex(text)?;
    lx.expect(&Token::Module)?;
    let module_name = lx.expect_ident()?;
    lx.expect(&Token::Punct('('))?;
    let mut classes: HashMap<String, NetClass> = HashMap::new();
    let mut input_order: Vec<String> = Vec::new();
    let mut output_order: Vec<String> = Vec::new();

    let mut ports = Vec::new();
    if lx.peek() != Some(&Token::Punct(')')) {
        // ANSI-style `input a, b, output y` declares directions inline; a
        // direction keyword applies to the names that follow it.
        let mut ansi_dir: Option<NetClass> = None;
        loop {
            match lx.peek() {
                Some(Token::Input) => {
                    lx.next();
                    ansi_dir = Some(NetClass::Input);
                }
                Some(Token::Output) => {
                    lx.next();
                    ansi_dir = Some(NetClass::Output);
                }
                _ => {}
            }
            let name = lx.expect_ident()?;
            if let Some(class) = ansi_dir {
                classes.insert(name.clone(), class);
                match class {
                    NetClass::Input => input_order.push(name.clone()),
                    NetClass::Output => output_order.push(name.clone()),
                    NetClass::Wire => {}
                }
            }
            ports.push(name);
            if lx.peek() == Some(&Token::Punct(',')) {
                lx.next();
            } else {
                break;
            }
        }
    }
    lx.expect(&Token::Punct(')'))?;
    lx.expect(&Token::Punct(';'))?;
    let mut assigns: HashMap<String, Expr> = HashMap::new();
    let mut assign_order: Vec<String> = Vec::new();

    loop {
        let (line, col) = lx.loc();
        match lx.next() {
            Some(Token::Input) | Some(Token::Output) | Some(Token::Wire) => {
                let class = match lx.tokens[lx.pos - 1].0 {
                    Token::Input => NetClass::Input,
                    Token::Output => NetClass::Output,
                    _ => NetClass::Wire,
                };
                loop {
                    let name = lx.expect_ident()?;
                    if classes.insert(name.clone(), class).is_some() {
                        return Err(VerilogError::new(
                            format!("net '{name}' declared twice"),
                            line,
                            col,
                        ));
                    }
                    match class {
                        NetClass::Input => input_order.push(name),
                        NetClass::Output => output_order.push(name),
                        NetClass::Wire => {}
                    }
                    if lx.peek() == Some(&Token::Punct(',')) {
                        lx.next();
                    } else {
                        break;
                    }
                }
                lx.expect(&Token::Punct(';'))?;
            }
            Some(Token::Assign) => {
                let target = lx.expect_ident()?;
                lx.expect(&Token::Punct('='))?;
                let expr = parse_expr(&mut lx)?;
                lx.expect(&Token::Punct(';'))?;
                match classes.get(&target) {
                    None => {
                        return Err(VerilogError::new(
                            format!("assignment to undeclared net '{target}'"),
                            line,
                            col,
                        ))
                    }
                    Some(NetClass::Input) => {
                        return Err(VerilogError::new(
                            format!("assignment to input '{target}'"),
                            line,
                            col,
                        ))
                    }
                    Some(_) => {}
                }
                if assigns.insert(target.clone(), expr).is_some() {
                    return Err(VerilogError::new(
                        format!("net '{target}' driven twice"),
                        line,
                        col,
                    ));
                }
                assign_order.push(target);
            }
            Some(Token::EndModule) => break,
            Some(t) => {
                return Err(VerilogError::new(
                    format!("expected declaration or assign, found {t:?}"),
                    line,
                    col,
                ))
            }
            None => return Err(VerilogError::new("missing endmodule", line, col)),
        }
    }

    // Elaborate into a Network; assigns may reference nets defined later,
    // so resolve recursively with cycle detection.
    let mut net = Network::new(module_name);
    let mut resolved: HashMap<String, GateId> = HashMap::new();
    for name in &input_order {
        let id = net.add_input(name.clone());
        resolved.insert(name.clone(), id);
    }

    struct Ctx<'a> {
        net: &'a mut Network,
        assigns: &'a HashMap<String, Expr>,
        resolved: HashMap<String, GateId>,
        in_progress: Vec<String>,
    }

    fn resolve_net(ctx: &mut Ctx<'_>, name: &str) -> Result<GateId, VerilogError> {
        if let Some(&id) = ctx.resolved.get(name) {
            return Ok(id);
        }
        if ctx.in_progress.iter().any(|n| n == name) {
            return Err(VerilogError::new(
                format!("combinational cycle through net '{name}'"),
                0,
                0,
            ));
        }
        let Some(expr) = ctx.assigns.get(name) else {
            return Err(VerilogError::new(
                format!("net '{name}' is never driven"),
                0,
                0,
            ));
        };
        ctx.in_progress.push(name.to_string());
        let expr = expr.clone();
        let id = build_expr(ctx, &expr)?;
        ctx.in_progress.pop();
        ctx.resolved.insert(name.to_string(), id);
        Ok(id)
    }

    fn build_expr(ctx: &mut Ctx<'_>, expr: &Expr) -> Result<GateId, VerilogError> {
        Ok(match expr {
            Expr::Const(v) => ctx.net.constant(*v),
            Expr::Ref(name) => resolve_net(ctx, name)?,
            Expr::Not(a) => {
                let a = build_expr(ctx, a)?;
                ctx.net.not(a)
            }
            Expr::Bin(op, a, b) => {
                let a = build_expr(ctx, a)?;
                let b = build_expr(ctx, b)?;
                let kind = match op {
                    '&' => GateKind::And,
                    '|' => GateKind::Or,
                    '^' => GateKind::Xor,
                    _ => unreachable!("parser only produces & | ^"),
                };
                ctx.net.add_gate(kind, &[a, b])
            }
            Expr::Xnor(a, b) => {
                let a = build_expr(ctx, a)?;
                let b = build_expr(ctx, b)?;
                ctx.net.add_gate(GateKind::Xnor, &[a, b])
            }
            Expr::Mux(s, t, e) => {
                let s = build_expr(ctx, s)?;
                let t = build_expr(ctx, t)?;
                let e = build_expr(ctx, e)?;
                ctx.net.mux(s, t, e)
            }
            Expr::Maj(a, b, c) => {
                let a = build_expr(ctx, a)?;
                let b = build_expr(ctx, b)?;
                let c = build_expr(ctx, c)?;
                ctx.net.maj(a, b, c)
            }
        })
    }

    let mut ctx = Ctx {
        net: &mut net,
        assigns: &assigns,
        resolved,
        in_progress: Vec::new(),
    };
    let mut outputs = Vec::new();
    for name in &output_order {
        let id = resolve_net(&mut ctx, name)?;
        outputs.push((name.clone(), id));
    }
    // Also elaborate wires nobody reads so undriven-wire errors surface even
    // when the wire is dangling.
    for name in &assign_order {
        resolve_net(&mut ctx, name)?;
    }
    for (name, id) in outputs {
        net.set_output(name, id);
    }
    Ok(net)
}
