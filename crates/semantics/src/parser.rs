//! Recursive-descent parser for the supported C subset.
//!
//! The grammar follows C11's expression precedence exactly (§6.5.1–§6.5.17)
//! so that the sequencing structure the evaluator relies on — which
//! operands are siblings of which operators — matches the standard's.
//! Anything outside the subset is a [`ParseError`], never a silent
//! reinterpretation.
//!
//! The parser builds directly into the [`TranslationUnit`]'s arenas:
//! every node push is an append to a flat `Vec`, identifiers are interned
//! [`Symbol`]s, and keyword and punctuator tests are integer compares
//! against the pre-interned [`kw`] symbols and [`Punct`] variants. Binary
//! operators are parsed by precedence climbing: one loop over a
//! per-operator (level, node) table instead of a call per precedence
//! level. [`parse`] finishes by running the [`crate::resolve`] pass, so
//! the unit it returns is always slot-resolved and ready to execute.
//!
//! Every later pass (resolver, analyzer, compiler, both engines) walks
//! the tree recursively, so the parser bounds how deep a unit may nest:
//! [`MAX_EXPR_DEPTH`] expression levels, [`MAX_STMT_DEPTH`] statement
//! levels and [`MAX_POINTER_DEPTH`] pointer declarators. Past a limit the
//! parse fails with a [`ParseError`] naming it, instead of exhausting the
//! stack of whichever pass recurses deepest.

use crate::ast::{
    BinOp, Decl, Expr, ExprId, ExprKind, Function, Param, Quals, SlotId, Stmt, StmtId,
    TranslationUnit, Ty, UnaryOp,
};
use crate::ctype::IntTy;
use crate::intern::{kw, Symbol};
use crate::lexer::{lex, LexError, Punct, Tok, Token};
use cundef_ub::SourceLoc;
use std::fmt;

/// Deepest expression the parser accepts. Each operator application and
/// each pair of parentheses (or unary `+`) around an operand is one
/// level: `x` has depth 0, `(x)`, `-x` and `a + b` depth 1, and a chain
/// `a + b + c` depth 2, because `+` groups left. C11 §5.2.4.1 asks for
/// at least 63 nested parenthesized expressions.
pub const MAX_EXPR_DEPTH: u32 = 256;

/// Deepest statement nesting the parser accepts: a statement inside a
/// function body is at level 1, and every block, selection, iteration
/// or labeled statement around another adds one (so an `else if` chain
/// nests one level per `if`). C11 §5.2.4.1 asks for at least 127 nested
/// blocks.
pub const MAX_STMT_DEPTH: u32 = 256;

/// Most `*` declarators the parser accepts on one type. C11 §5.2.4.1
/// asks for at least 12 declarators modifying one type.
pub const MAX_POINTER_DEPTH: u32 = 64;

/// Why a source file could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Explanation, in terms of the supported subset.
    pub message: String,
    /// Where the parse failed.
    pub loc: SourceLoc,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.loc, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            message: e.message,
            loc: e.loc,
        }
    }
}

/// The message of a nesting-limit [`ParseError`].
fn too_deep(what: &str, limit: u32) -> String {
    format!("{what} nesting exceeds the limit of {limit} levels")
}

/// Parse a whole translation unit (a sequence of function definitions)
/// and resolve every variable reference to a frame slot.
///
/// # Examples
///
/// ```
/// use cundef_semantics::parser::parse;
///
/// let unit = parse("int main(void) { return 0; }").unwrap();
/// assert_eq!(unit.name_of(&unit.functions[0]), "main");
///
/// let err = parse("int main(void) { return 0 }").unwrap_err();
/// assert!(err.message.contains("expected `;`"));
/// ```
pub fn parse(source: &str) -> Result<TranslationUnit, ParseError> {
    parse_timed(source).map(|(unit, _)| unit)
}

/// Wall-clock durations of the three frontend stages, as measured by
/// [`parse_timed`] (and surfaced by `cundef --stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendTiming {
    /// Tokenization ([`crate::lexer`]).
    pub lex: std::time::Duration,
    /// Parsing proper: token stream to AST arenas.
    pub parse: std::time::Duration,
    /// Slot resolution ([`crate::resolve`]).
    pub resolve: std::time::Duration,
}

/// [`parse`], but also reporting how long each frontend stage took.
///
/// # Examples
///
/// ```
/// use cundef_semantics::parser::parse_timed;
///
/// let (unit, timing) = parse_timed("int main(void) { return 0; }").unwrap();
/// assert_eq!(unit.functions.len(), 1);
/// assert!(timing.lex + timing.parse + timing.resolve > std::time::Duration::ZERO);
/// ```
pub fn parse_timed(source: &str) -> Result<(TranslationUnit, FrontendTiming), ParseError> {
    let mut timing = FrontendTiming::default();
    let mut unit = TranslationUnit::default();
    let t0 = std::time::Instant::now();
    let toks = lex(source, &mut unit.interner)?;
    timing.lex = t0.elapsed();
    let mut p = Parser {
        // Units average about one expression node per two tokens.
        heights: Vec::with_capacity(toks.len() / 2),
        toks,
        pos: 0,
        unit,
        switch_depth: 0,
        expr_depth: 0,
        stmt_depth: 0,
    };
    let t1 = std::time::Instant::now();
    while !p.at_end() {
        let f = p.function()?;
        p.unit.functions.push(f);
    }
    timing.parse = t1.elapsed();
    let mut unit = p.unit;
    let t2 = std::time::Instant::now();
    crate::resolve::resolve(&mut unit);
    timing.resolve = t2.elapsed();
    Ok((unit, timing))
}

/// How a binary operator combines its operands.
#[derive(Clone, Copy)]
enum Fold {
    /// An arithmetic, shift, relational, equality or bitwise operator.
    Bin(BinOp),
    /// `&&`.
    And,
    /// `||`.
    Or,
}

/// The precedence level (1 for `||` up to 10 for the multiplicative
/// operators; higher binds tighter, C11 §6.5.5–§6.5.14) and the fold of
/// a binary operator, or `None` for any other punctuator.
fn binary_op(p: Punct) -> Option<(u8, Fold)> {
    use BinOp::*;
    Some(match p {
        Punct::OrOr => (1, Fold::Or),
        Punct::AndAnd => (2, Fold::And),
        Punct::Pipe => (3, Fold::Bin(BitOr)),
        Punct::Caret => (4, Fold::Bin(BitXor)),
        Punct::Amp => (5, Fold::Bin(BitAnd)),
        Punct::EqEq => (6, Fold::Bin(Eq)),
        Punct::Ne => (6, Fold::Bin(Ne)),
        Punct::Le => (7, Fold::Bin(Le)),
        Punct::Ge => (7, Fold::Bin(Ge)),
        Punct::Lt => (7, Fold::Bin(Lt)),
        Punct::Gt => (7, Fold::Bin(Gt)),
        Punct::Shl => (8, Fold::Bin(Shl)),
        Punct::Shr => (8, Fold::Bin(Shr)),
        Punct::Plus => (9, Fold::Bin(Add)),
        Punct::Minus => (9, Fold::Bin(Sub)),
        Punct::Star => (10, Fold::Bin(Mul)),
        Punct::Slash => (10, Fold::Bin(Div)),
        Punct::Percent => (10, Fold::Bin(Rem)),
        _ => return None,
    })
}

/// The operator of an assignment punctuator: `None` for plain `=`, the
/// arithmetic operator for a compound assignment.
fn assign_op(p: Punct) -> Option<Option<BinOp>> {
    use BinOp::*;
    Some(match p {
        Punct::Assign => None,
        Punct::AddAssign => Some(Add),
        Punct::SubAssign => Some(Sub),
        Punct::MulAssign => Some(Mul),
        Punct::DivAssign => Some(Div),
        Punct::RemAssign => Some(Rem),
        Punct::ShlAssign => Some(Shl),
        Punct::ShrAssign => Some(Shr),
        Punct::AndAssign => Some(BitAnd),
        Punct::XorAssign => Some(BitXor),
        Punct::OrAssign => Some(BitOr),
        _ => return None,
    })
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    unit: TranslationUnit,
    /// Nesting depth of `switch` bodies, so `case`/`default` labels
    /// outside any `switch` are parse errors (they could belong to no
    /// statement, §6.8.1:2).
    switch_depth: u32,
    /// Height of every expression node built so far, indexed like
    /// `unit.exprs`, in [`MAX_EXPR_DEPTH`] levels. Left-grouping chains
    /// (`a + b + c`, `a[i][j]`, `a, b, c`) grow in a loop rather than by
    /// recursion, so their depth is only known from the heights.
    heights: Vec<u32>,
    /// Expression levels enclosing the operand being parsed.
    expr_depth: u32,
    /// Statements enclosing the statement being parsed.
    stmt_depth: u32,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<Token> {
        self.toks.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<Token> {
        self.toks.get(self.pos + 1).copied()
    }

    fn peek_punct(&self) -> Option<Punct> {
        match self.toks.get(self.pos) {
            Some(Token {
                tok: Tok::Punct(p), ..
            }) => Some(*p),
            _ => None,
        }
    }

    /// The next token's symbol, if it is an identifier or keyword.
    fn peek_sym(&self) -> Option<Symbol> {
        match self.toks.get(self.pos) {
            Some(Token {
                tok: Tok::Ident(s), ..
            }) => Some(*s),
            _ => None,
        }
    }

    fn loc(&self) -> SourceLoc {
        self.peek()
            .map(|t| t.loc)
            .unwrap_or_else(|| self.toks.last().map(|t| t.loc).unwrap_or_default())
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            loc: self.loc(),
        })
    }

    /// Push an expression node, refusing one that would nest deeper than
    /// [`MAX_EXPR_DEPTH`] counting the levels that enclose it.
    fn mk(&mut self, kind: ExprKind, loc: SourceLoc) -> Result<ExprId, ParseError> {
        use ExprKind as E;
        let h = |e: &ExprId| self.heights[e.0 as usize] + 1;
        let height = match &kind {
            E::IntLit(_) | E::Ident(_) | E::Slot(..) | E::SizeofType(_) => 0,
            E::Unary(_, a)
            | E::PreIncDec(a, _)
            | E::PostIncDec(a, _)
            | E::Deref(a)
            | E::AddrOf(a)
            | E::SizeofExpr(a)
            | E::Cast(_, a) => h(a),
            E::Binary(_, a, b)
            | E::LogicalAnd(a, b)
            | E::LogicalOr(a, b)
            | E::Assign(a, _, b)
            | E::Index(a, b)
            | E::Comma(a, b) => h(a).max(h(b)),
            E::Conditional(a, b, c) => h(a).max(h(b)).max(h(c)),
            E::Call(_, args) => args.iter().map(h).max().unwrap_or(0),
        };
        if self.expr_depth + height > MAX_EXPR_DEPTH {
            return Err(ParseError {
                message: too_deep("expression", MAX_EXPR_DEPTH),
                loc,
            });
        }
        self.heights.push(height);
        Ok(self.unit.push_expr(Expr { kind, loc }))
    }

    /// Parse an operand one expression level below the current one.
    fn nested(
        &mut self,
        operand: impl FnOnce(&mut Self) -> Result<ExprId, ParseError>,
    ) -> Result<ExprId, ParseError> {
        if self.expr_depth >= MAX_EXPR_DEPTH {
            return self.err(too_deep("expression", MAX_EXPR_DEPTH));
        }
        self.expr_depth += 1;
        let e = operand(self);
        self.expr_depth -= 1;
        e
    }

    /// Parse an operand wrapped in a level that builds no node (a pair of
    /// parentheses, unary `+`), counting the level in its height.
    fn wrapped(
        &mut self,
        operand: impl FnOnce(&mut Self) -> Result<ExprId, ParseError>,
    ) -> Result<ExprId, ParseError> {
        let e = self.nested(operand)?;
        self.heights[e.0 as usize] += 1;
        Ok(e)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek_punct() == Some(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{}`", p.as_str()))
        }
    }

    fn eat_keyword(&mut self, kw: Symbol) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn peek_keyword(&self, kw: Symbol) -> bool {
        self.peek_sym() == Some(kw)
    }

    fn ident(&mut self) -> Result<(Symbol, SourceLoc), ParseError> {
        match self.peek() {
            Some(Token {
                tok: Tok::Ident(s),
                loc,
            }) => {
                if s.is_keyword() {
                    return self.err(format!(
                        "unexpected keyword `{}`",
                        self.unit.interner.resolve(s)
                    ));
                }
                self.pos += 1;
                Ok((s, loc))
            }
            _ => self.err("expected identifier"),
        }
    }

    // ----- declarations and functions -----

    /// Consume a (possibly empty) run of type qualifiers.
    fn qual_list(&mut self) -> Quals {
        let mut q = Quals::default();
        loop {
            match self.peek_sym() {
                Some(kw::CONST) => q.is_const = true,
                Some(kw::VOLATILE) => q.is_volatile = true,
                Some(kw::RESTRICT) => q.is_restrict = true,
                _ => return q,
            }
            self.pos += 1;
        }
    }

    /// Consume one `*` of a pointer declarator, if next, counting it
    /// against [`MAX_POINTER_DEPTH`] in `depth`.
    fn eat_star(&mut self, depth: &mut u32) -> Result<bool, ParseError> {
        if !self.eat_punct(Punct::Star) {
            return Ok(false);
        }
        *depth += 1;
        if *depth > MAX_POINTER_DEPTH {
            self.pos -= 1;
            return self.err(too_deep("pointer declarator", MAX_POINTER_DEPTH));
        }
        Ok(true)
    }

    /// `('*' qual*)*` — pointer declarator suffix. Returns the derived
    /// type and the qualifiers of the outermost `*` group (empty when no
    /// pointer declarator was present).
    fn pointer_suffix(&mut self, base: Ty) -> Result<(Ty, Quals), ParseError> {
        let mut ty = base;
        let mut outer = Quals::default();
        let mut depth = 0;
        while self.eat_star(&mut depth)? {
            ty = Ty::Ptr(Box::new(ty));
            outer = self.qual_list();
        }
        Ok((ty, outer))
    }

    /// Whether the next token can begin a declaration.
    fn at_decl_start(&self) -> bool {
        Self::starts_type(self.peek())
    }

    /// Whether `t` is a type-specifier or qualifier keyword, which begins
    /// a declaration or a type-name (for the `sizeof ( type-name )` vs
    /// `sizeof ( expression )` split).
    fn starts_type(t: Option<Token>) -> bool {
        use kw::*;
        matches!(
            t.map(|t| t.tok),
            Some(Tok::Ident(
                INT | VOID
                    | CHAR
                    | SHORT
                    | LONG
                    | SIGNED
                    | UNSIGNED
                    | BOOL
                    | CONST
                    | VOLATILE
                    | RESTRICT
            ))
        )
    }

    /// Parse a run of declaration specifiers (C11 §6.7): type-specifier
    /// keywords and qualifiers in any order, combined into one base type
    /// of the LP64 lattice. Multi-keyword spellings (`unsigned long long
    /// int`, `long unsigned`) are validated the way §6.7.2:2 enumerates
    /// them; contradictions (`signed unsigned`, `short long`, `void
    /// unsigned`) are parse errors, never reinterpreted.
    fn declaration_specifiers(&mut self) -> Result<(Ty, Quals), ParseError> {
        let mut quals = Quals::default();
        let mut saw_void = false;
        let mut saw_char = false;
        let mut saw_int = false;
        let mut saw_bool = false;
        let mut shorts: u8 = 0;
        let mut longs: u8 = 0;
        let mut signed = false;
        let mut unsigned = false;
        loop {
            match self.peek_sym() {
                Some(kw::CONST) => quals.is_const = true,
                Some(kw::VOLATILE) => quals.is_volatile = true,
                Some(kw::RESTRICT) => quals.is_restrict = true,
                Some(kw::VOID) => saw_void = true,
                Some(kw::CHAR) => saw_char = true,
                Some(kw::INT) => saw_int = true,
                Some(kw::BOOL) => saw_bool = true,
                Some(kw::SHORT) => shorts = shorts.saturating_add(1),
                Some(kw::LONG) => longs = longs.saturating_add(1),
                Some(kw::SIGNED) => signed = true,
                Some(kw::UNSIGNED) => unsigned = true,
                _ => break,
            }
            self.pos += 1;
        }
        let any = saw_void
            || saw_char
            || saw_int
            || saw_bool
            || shorts > 0
            || longs > 0
            || signed
            || unsigned;
        if !any {
            return self.err("expected a type specifier");
        }
        if signed && unsigned {
            return self.err("both `signed` and `unsigned` in declaration specifiers");
        }
        if saw_void {
            if saw_char || saw_int || saw_bool || shorts > 0 || longs > 0 || signed || unsigned {
                return self.err("`void` combined with other type specifiers");
            }
            return Ok((Ty::Void, quals));
        }
        if saw_bool {
            if saw_char || saw_int || shorts > 0 || longs > 0 || signed || unsigned {
                return self.err("`_Bool` combined with other type specifiers");
            }
            return Ok((Ty::Int(IntTy::Bool), quals));
        }
        if saw_char {
            if saw_int || shorts > 0 || longs > 0 {
                return self.err("invalid combination of type specifiers with `char`");
            }
            let it = if unsigned { IntTy::UChar } else { IntTy::Char };
            return Ok((Ty::Int(it), quals));
        }
        if shorts > 1 || longs > 2 || (shorts > 0 && longs > 0) {
            return self.err("invalid combination of `short`/`long` specifiers");
        }
        let it = match (shorts, longs, unsigned) {
            (1, _, false) => IntTy::Short,
            (1, _, true) => IntTy::UShort,
            (_, 0, false) => IntTy::Int,
            (_, 0, true) => IntTy::UInt,
            (_, 1, false) => IntTy::Long,
            (_, 1, true) => IntTy::ULong,
            (_, _, false) => IntTy::LongLong,
            (_, _, true) => IntTy::ULongLong,
        };
        Ok((Ty::Int(it), quals))
    }

    fn function(&mut self) -> Result<Function, ParseError> {
        let is_static = self.eat_keyword(kw::STATIC);
        // Qualifiers on the return type are legal and (like the return
        // type's pointer qualifiers) meaningless to the caller (§6.7.6.3);
        // the specifier scan swallows them.
        let (base, _) = self.declaration_specifiers()?;
        let returns_void = base == Ty::Void;
        let ret_scalar = base.base_scalar().unwrap_or(IntTy::Int);
        // Pointer return types are tracked by depth only: runtime values
        // are dynamically typed, but the analyzer's type checker wants
        // the declared shape.
        let mut ret_ptr = 0;
        while self.eat_star(&mut ret_ptr)? {
            self.qual_list();
        }
        let ret_ptr = ret_ptr as u8;
        let (name, loc) = self.ident()?;
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.eat_punct(Punct::RParen) {
            if self.peek_keyword(kw::VOID)
                && matches!(
                    self.peek2(),
                    Some(Token {
                        tok: Tok::Punct(Punct::RParen),
                        ..
                    })
                )
            {
                // The empty `(void)` parameter list (§6.7.6.3:10).
                self.pos += 2;
            } else {
                loop {
                    let (base, _) = self.declaration_specifiers()?;
                    let (ty, _) = self.pointer_suffix(base)?;
                    if ty == Ty::Void {
                        return self.err("parameter declared with incomplete type `void`");
                    }
                    let (pname, _) = self.ident()?;
                    params.push(Param { name: pname, ty });
                    if self.eat_punct(Punct::RParen) {
                        break;
                    }
                    self.expect_punct(Punct::Comma)?;
                }
            }
        }
        // C's grammar has no qualifiers after the parameter list; accept
        // them anyway so the analyzer can report the qualified *function
        // type* (§6.7.3:9) instead of a parse failure.
        let fn_quals = self.qual_list();
        self.expect_punct(Punct::LBrace)?;
        let mut body = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if self.at_end() {
                return self.err("unterminated function body");
            }
            let s = self.block_item()?;
            body.push(s);
        }
        Ok(Function {
            name,
            params,
            returns_void,
            ret_ptr,
            ret_scalar,
            is_static,
            fn_quals,
            body,
            loc,
            n_slots: 0, // filled by the resolver
            labels: Vec::new(),
            gotos: Vec::new(),
        })
    }

    fn decl(&mut self) -> Result<Decl, ParseError> {
        let (base, base_quals) = self.declaration_specifiers()?;
        let (ty, ptr_quals) = self.pointer_suffix(base)?;
        // The declared object's qualifiers are the outermost `*` group's
        // for a pointer declarator, the base specifier's otherwise; a
        // `restrict` stuck on the non-pointer base of a pointer
        // declarator is recorded for the analyzer (§6.7.3:2).
        let (quals, base_restrict) = if ty.ptr_depth() == 0 {
            (base_quals, false)
        } else {
            (ptr_quals, base_quals.is_restrict)
        };
        let (name, loc) = self.ident()?;
        let mut array_size = None;
        if self.eat_punct(Punct::LBracket) {
            if self.peek_punct() == Some(Punct::RBracket) {
                return self.err("array declarations need an explicit size");
            }
            array_size = Some(self.expr()?);
            self.expect_punct(Punct::RBracket)?;
        }
        let mut init = None;
        let mut array_init = None;
        if self.eat_punct(Punct::Assign) {
            if self.eat_punct(Punct::LBrace) {
                let mut items = Vec::new();
                if !self.eat_punct(Punct::RBrace) {
                    loop {
                        items.push(self.assignment()?);
                        if self.eat_punct(Punct::RBrace) {
                            break;
                        }
                        self.expect_punct(Punct::Comma)?;
                    }
                }
                array_init = Some(items);
            } else {
                init = Some(self.assignment()?);
            }
        }
        self.expect_punct(Punct::Semi)?;
        if array_size.is_none() && array_init.is_some() {
            return self.err("brace initializers require an array declarator");
        }
        if array_size.is_some() && init.is_some() {
            // `int a[3] = 5;` violates §6.7.9:11; refuse it rather than
            // silently initializing element 0.
            return self.err("array initializers must be brace-enclosed");
        }
        Ok(Decl {
            name,
            ty,
            array_size,
            init,
            array_init,
            quals,
            base_restrict,
            loc,
            slot: SlotId(u32::MAX),
            const_size: false,
            redeclaration: false,
        })
    }

    // ----- statements -----

    /// An item in block position (C11 §6.8.2): a declaration or a
    /// statement.
    fn block_item(&mut self) -> Result<StmtId, ParseError> {
        if self.at_decl_start() {
            let d = self.decl()?;
            return Ok(self.unit.push_stmt(Stmt::Decl(d)));
        }
        self.stmt()
    }

    /// A statement one level below the current one, refused past
    /// [`MAX_STMT_DEPTH`].
    fn stmt(&mut self) -> Result<StmtId, ParseError> {
        if self.stmt_depth >= MAX_STMT_DEPTH {
            return self.err(too_deep("statement", MAX_STMT_DEPTH));
        }
        self.stmt_depth += 1;
        let s = self.statement();
        self.stmt_depth -= 1;
        s
    }

    /// A statement: a dispatch on its first token, with each compound
    /// form in a function of its own, so that nested statements recurse
    /// through small frames.
    fn statement(&mut self) -> Result<StmtId, ParseError> {
        let loc = self.loc();
        let keyword = match self.peek().map(|t| t.tok) {
            Some(Tok::Punct(Punct::Semi)) => {
                self.pos += 1;
                return Ok(self.unit.push_stmt(Stmt::Empty(loc)));
            }
            Some(Tok::Punct(Punct::LBrace)) => {
                self.pos += 1;
                return self.compound(loc);
            }
            Some(Tok::Ident(s)) if s.is_keyword() => s,
            _ => {
                // An ordinary label: `name: statement` (§6.8.1).
                if let Some(name) = self.label_ahead() {
                    return self.label_stmt(name, loc);
                }
                return self.expr_stmt();
            }
        };
        if self.at_decl_start() {
            // In C11's grammar a declaration is not a statement: it can
            // appear in a block (§6.8.2) or a `for` init clause (§6.8.5),
            // but not as the lone body of `if`/`while`/`for`/`else`, nor
            // directly under a label (labels prefix statements, §6.8.1).
            return self.err("a declaration needs a surrounding block here");
        }
        match keyword {
            kw::IF => self.if_stmt(),
            kw::WHILE => self.while_stmt(),
            kw::FOR => self.for_stmt(),
            kw::RETURN => self.return_stmt(loc),
            kw::BREAK => self.jump_stmt(Stmt::Break(loc)),
            kw::CONTINUE => self.jump_stmt(Stmt::Continue(loc)),
            kw::SWITCH => self.switch_stmt(loc),
            kw::CASE => self.case_stmt(loc),
            kw::DEFAULT => self.default_stmt(loc),
            kw::GOTO => self.goto_stmt(loc),
            // `sizeof` starts an expression; any other keyword is refused
            // there.
            _ => self.expr_stmt(),
        }
    }

    /// `break;` or `continue;`, as `jump`.
    fn jump_stmt(&mut self, jump: Stmt) -> Result<StmtId, ParseError> {
        self.pos += 1;
        self.expect_punct(Punct::Semi)?;
        Ok(self.unit.push_stmt(jump))
    }

    fn goto_stmt(&mut self, loc: SourceLoc) -> Result<StmtId, ParseError> {
        self.pos += 1;
        let (target, _) = self.ident()?;
        self.expect_punct(Punct::Semi)?;
        Ok(self.unit.push_stmt(Stmt::Goto(target, loc)))
    }

    fn expr_stmt(&mut self) -> Result<StmtId, ParseError> {
        let e = self.expr()?;
        self.expect_punct(Punct::Semi)?;
        Ok(self.unit.push_stmt(Stmt::Expr(e)))
    }

    /// The rest of a compound statement whose `{` (at `loc`) is consumed.
    fn compound(&mut self, loc: SourceLoc) -> Result<StmtId, ParseError> {
        let mut body = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if self.at_end() {
                return self.err("unterminated block");
            }
            let s = self.block_item()?;
            body.push(s);
        }
        Ok(self.unit.push_stmt(Stmt::Block(body, loc)))
    }

    fn if_stmt(&mut self) -> Result<StmtId, ParseError> {
        self.pos += 1;
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let then = self.stmt()?;
        let els = if self.eat_keyword(kw::ELSE) {
            Some(self.stmt()?)
        } else {
            None
        };
        Ok(self.unit.push_stmt(Stmt::If(cond, then, els)))
    }

    fn while_stmt(&mut self) -> Result<StmtId, ParseError> {
        self.pos += 1;
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let body = self.stmt()?;
        Ok(self.unit.push_stmt(Stmt::While(cond, body)))
    }

    fn for_stmt(&mut self) -> Result<StmtId, ParseError> {
        self.pos += 1;
        self.expect_punct(Punct::LParen)?;
        let init = if self.eat_punct(Punct::Semi) {
            None
        } else if self.at_decl_start() {
            let d = self.decl()?;
            Some(self.unit.push_stmt(Stmt::Decl(d)))
        } else {
            let e = self.expr()?;
            self.expect_punct(Punct::Semi)?;
            Some(self.unit.push_stmt(Stmt::Expr(e)))
        };
        let cond = if self.eat_punct(Punct::Semi) {
            None
        } else {
            let e = self.expr()?;
            self.expect_punct(Punct::Semi)?;
            Some(e)
        };
        let step = if self.eat_punct(Punct::RParen) {
            None
        } else {
            let e = self.expr()?;
            self.expect_punct(Punct::RParen)?;
            Some(e)
        };
        let body = self.stmt()?;
        Ok(self.unit.push_stmt(Stmt::For(init, cond, step, body)))
    }

    fn return_stmt(&mut self, loc: SourceLoc) -> Result<StmtId, ParseError> {
        self.pos += 1;
        if self.eat_punct(Punct::Semi) {
            return Ok(self.unit.push_stmt(Stmt::Return(None, loc)));
        }
        let e = self.expr()?;
        self.expect_punct(Punct::Semi)?;
        Ok(self.unit.push_stmt(Stmt::Return(Some(e), loc)))
    }

    fn switch_stmt(&mut self, loc: SourceLoc) -> Result<StmtId, ParseError> {
        self.pos += 1;
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        self.switch_depth += 1;
        let body = self.stmt();
        self.switch_depth -= 1;
        Ok(self.unit.push_stmt(Stmt::Switch(cond, body?, loc)))
    }

    fn case_stmt(&mut self, loc: SourceLoc) -> Result<StmtId, ParseError> {
        if self.switch_depth == 0 {
            return self.err("`case` label outside of a switch statement");
        }
        self.pos += 1;
        // A case expression is a constant expression, i.e. a
        // conditional expression in the grammar (§6.6:1) — its `:`
        // belongs to `?:`, the label's own `:` follows it.
        let e = self.conditional()?;
        self.expect_punct(Punct::Colon)?;
        let inner = self.stmt()?;
        Ok(self.unit.push_stmt(Stmt::Case(e, inner, loc)))
    }

    fn default_stmt(&mut self, loc: SourceLoc) -> Result<StmtId, ParseError> {
        if self.switch_depth == 0 {
            return self.err("`default` label outside of a switch statement");
        }
        self.pos += 1;
        self.expect_punct(Punct::Colon)?;
        let inner = self.stmt()?;
        Ok(self.unit.push_stmt(Stmt::Default(inner, loc)))
    }

    /// The name of an ordinary label (`name:`, §6.8.1) starting at the
    /// next token, if one does.
    fn label_ahead(&self) -> Option<Symbol> {
        match (self.peek(), self.peek2()) {
            (
                Some(Token {
                    tok: Tok::Ident(s), ..
                }),
                Some(Token {
                    tok: Tok::Punct(Punct::Colon),
                    ..
                }),
            ) if !s.is_keyword() => Some(s),
            _ => None,
        }
    }

    fn label_stmt(&mut self, name: Symbol, loc: SourceLoc) -> Result<StmtId, ParseError> {
        self.pos += 2;
        let inner = self.stmt()?;
        Ok(self.unit.push_stmt(Stmt::Label(name, inner, loc)))
    }

    // ----- expressions, by C11 precedence -----

    fn expr(&mut self) -> Result<ExprId, ParseError> {
        let mut e = self.assignment()?;
        while self.peek_punct() == Some(Punct::Comma) {
            let loc = self.loc();
            self.pos += 1;
            let rhs = self.nested(Self::assignment)?;
            e = self.mk(ExprKind::Comma(e, rhs), loc)?;
        }
        Ok(e)
    }

    fn assignment(&mut self) -> Result<ExprId, ParseError> {
        let lhs = self.conditional()?;
        if let Some(op) = self.peek_punct().and_then(assign_op) {
            let loc = self.loc();
            self.pos += 1;
            let rhs = self.nested(Self::assignment)?;
            return self.mk(ExprKind::Assign(lhs, op, rhs), loc);
        }
        Ok(lhs)
    }

    fn conditional(&mut self) -> Result<ExprId, ParseError> {
        let cond = self.binary(1)?;
        if self.peek_punct() == Some(Punct::Question) {
            let loc = self.loc();
            self.pos += 1;
            let then = self.nested(Self::expr)?;
            self.expect_punct(Punct::Colon)?;
            let els = self.nested(Self::conditional)?;
            return self.mk(ExprKind::Conditional(cond, then, els), loc);
        }
        Ok(cond)
    }

    /// The binary operators binding at `min_level` or tighter, by
    /// precedence climbing: every operator groups left, so each one
    /// found at an allowed level folds the expression so far with a
    /// right operand of strictly tighter operators.
    fn binary(&mut self, min_level: u8) -> Result<ExprId, ParseError> {
        let mut lhs = self.cast()?;
        while let Some((level, fold)) = self.peek_punct().and_then(binary_op) {
            if level < min_level {
                break;
            }
            let loc = self.loc();
            self.pos += 1;
            let rhs = self.nested(|p| p.binary(level + 1))?;
            let kind = match fold {
                Fold::Bin(op) => ExprKind::Binary(op, lhs, rhs),
                Fold::And => ExprKind::LogicalAnd(lhs, rhs),
                Fold::Or => ExprKind::LogicalOr(lhs, rhs),
            };
            lhs = self.mk(kind, loc)?;
        }
        Ok(lhs)
    }

    /// A cast-expression (§6.5.4): `( type-name ) cast-expression` or a
    /// unary-expression. The parenthesis is a cast exactly when a
    /// type-specifier keyword follows it — the same disambiguation
    /// `sizeof ( … )` uses.
    fn cast(&mut self) -> Result<ExprId, ParseError> {
        if self.at_type_name() {
            return self.cast_to_type();
        }
        self.unary()
    }

    /// Whether a parenthesized type-name starts at the next token.
    fn at_type_name(&self) -> bool {
        self.peek_punct() == Some(Punct::LParen) && Self::starts_type(self.peek2())
    }

    /// `( type-name )`, when [`Parser::at_type_name`].
    fn type_name(&mut self) -> Result<Ty, ParseError> {
        self.pos += 1;
        let (base, _) = self.declaration_specifiers()?;
        let (ty, _) = self.pointer_suffix(base)?;
        self.expect_punct(Punct::RParen)?;
        Ok(ty)
    }

    fn cast_to_type(&mut self) -> Result<ExprId, ParseError> {
        let loc = self.loc();
        let ty = self.type_name()?;
        let e = self.nested(Self::cast)?;
        self.mk(ExprKind::Cast(ty, e), loc)
    }

    fn unary(&mut self) -> Result<ExprId, ParseError> {
        let loc = self.loc();
        if self.eat_keyword(kw::SIZEOF) {
            return self.sizeof(loc);
        }
        let Some(p) = self.peek_punct() else {
            return self.postfix();
        };
        match p {
            Punct::Inc | Punct::Dec => {
                self.pos += 1;
                let e = self.nested(Self::unary)?;
                let delta = if p == Punct::Inc { 1 } else { -1 };
                self.mk(ExprKind::PreIncDec(e, delta), loc)
            }
            // The operand of `-`/`!`/`~`/`+`/`*`/`&` is a cast-expression
            // (§6.5.3:1), so `*(int *)p` and `-(long)x` parse as written.
            // Unary plus only performs promotion: it builds no node.
            Punct::Plus => {
                self.pos += 1;
                self.wrapped(Self::cast)
            }
            Punct::Minus | Punct::Not | Punct::Tilde | Punct::Star | Punct::Amp => {
                self.pos += 1;
                let e = self.nested(Self::cast)?;
                let kind = match p {
                    Punct::Minus => ExprKind::Unary(UnaryOp::Neg, e),
                    Punct::Not => ExprKind::Unary(UnaryOp::Not, e),
                    Punct::Tilde => ExprKind::Unary(UnaryOp::BitNot, e),
                    Punct::Star => ExprKind::Deref(e),
                    _ => ExprKind::AddrOf(e),
                };
                self.mk(kind, loc)
            }
            _ => self.postfix(),
        }
    }

    /// The operand of a `sizeof` at `loc`: `( type-name )` when a type
    /// keyword follows the parenthesis, otherwise a unary-expression
    /// (which may itself be parenthesized).
    fn sizeof(&mut self, loc: SourceLoc) -> Result<ExprId, ParseError> {
        if self.at_type_name() {
            let ty = self.type_name()?;
            return self.mk(ExprKind::SizeofType(ty), loc);
        }
        let e = self.nested(Self::unary)?;
        self.mk(ExprKind::SizeofExpr(e), loc)
    }

    fn postfix(&mut self) -> Result<ExprId, ParseError> {
        let mut e = self.primary()?;
        loop {
            let loc = self.loc();
            match self.peek_punct() {
                Some(Punct::LBracket) => {
                    self.pos += 1;
                    let idx = self.nested(Self::expr)?;
                    self.expect_punct(Punct::RBracket)?;
                    e = self.mk(ExprKind::Index(e, idx), loc)?;
                }
                Some(p @ (Punct::Inc | Punct::Dec)) => {
                    self.pos += 1;
                    let delta = if p == Punct::Inc { 1 } else { -1 };
                    e = self.mk(ExprKind::PostIncDec(e, delta), loc)?;
                }
                Some(Punct::LParen) => e = self.call(e)?,
                _ => return Ok(e),
            }
        }
    }

    /// A call of the function named by `callee`, whose `(` is next.
    fn call(&mut self, callee: ExprId) -> Result<ExprId, ParseError> {
        let (name, name_loc) = match self.unit.expr(callee) {
            Expr {
                kind: ExprKind::Ident(name),
                loc,
            } => (*name, *loc),
            _ => return self.err("only direct calls of named functions are supported"),
        };
        // The Call node carries the symbol itself; reclaim the callee's
        // Ident node (it is the most recent push — no postfix operator
        // intervened, or it wouldn't be an Ident) instead of leaking a
        // dead arena slot per call.
        if callee.0 as usize == self.unit.exprs.len() - 1 {
            self.unit.exprs.pop();
            self.heights.pop();
        }
        self.pos += 1;
        let mut args = Vec::new();
        if !self.eat_punct(Punct::RParen) {
            loop {
                args.push(self.nested(Self::assignment)?);
                if self.eat_punct(Punct::RParen) {
                    break;
                }
                self.expect_punct(Punct::Comma)?;
            }
        }
        self.mk(ExprKind::Call(name, args), name_loc)
    }

    fn primary(&mut self) -> Result<ExprId, ParseError> {
        let loc = self.loc();
        match self.peek() {
            Some(Token {
                tok: Tok::Int(v), ..
            }) => {
                self.pos += 1;
                self.mk(ExprKind::IntLit(v), loc)
            }
            Some(Token {
                tok: Tok::Ident(s), ..
            }) if !s.is_keyword() => {
                self.pos += 1;
                self.mk(ExprKind::Ident(s), loc)
            }
            Some(Token {
                tok: Tok::Punct(Punct::LParen),
                ..
            }) => {
                self.pos += 1;
                let e = self.wrapped(Self::expr)?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            _ => self.err("expected expression"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ExprKind as E;

    /// The top-level expression of `int main(void) {{ {src}; }}`.
    fn unit_and_expr(src: &str) -> (TranslationUnit, ExprId) {
        let unit = parse(&format!("int main(void) {{ {src}; }}")).unwrap();
        let main = unit.function_named("main").unwrap();
        match unit.stmt(main.body[0]) {
            Stmt::Expr(e) => {
                let e = *e;
                (unit, e)
            }
            s => panic!("expected expr stmt, got {s:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let (unit, e) = unit_and_expr("1 + 2 * 3");
        match unit.expr(e).kind {
            E::Binary(BinOp::Add, _, rhs) => {
                assert!(matches!(unit.expr(rhs).kind, E::Binary(BinOp::Mul, _, _)));
            }
            ref k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn assignment_is_right_associative() {
        let (unit, e) = unit_and_expr("a = b = 1");
        match unit.expr(e).kind {
            E::Assign(_, None, rhs) => {
                assert!(matches!(unit.expr(rhs).kind, E::Assign(_, None, _)));
            }
            ref k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn postfix_binds_tighter_than_prefix() {
        let (unit, e) = unit_and_expr("*p++");
        match unit.expr(e).kind {
            E::Deref(inner) => {
                assert!(matches!(unit.expr(inner).kind, E::PostIncDec(_, 1)));
            }
            ref k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn array_and_pointer_declarations() {
        let unit = parse("int main(void) { int a[3]; int *p; int **q; }").unwrap();
        assert_eq!(unit.functions[0].body.len(), 3);
    }

    #[test]
    fn functions_with_parameters() {
        let unit =
            parse("int add(int a, int b) { return a + b; } int main(void) { return add(1, 2); }")
                .unwrap();
        assert_eq!(unit.functions.len(), 2);
        assert_eq!(unit.functions[0].params.len(), 2);
        assert_eq!(unit.name_of(&unit.functions[0]), "add");
    }

    #[test]
    fn goto_and_labels_parse() {
        let unit = parse("int main(void) { goto out; out: return 0; }").unwrap();
        let main = unit.function_named("main").unwrap();
        assert!(matches!(unit.stmt(main.body[0]), Stmt::Goto(_, _)));
        match unit.stmt(main.body[1]) {
            Stmt::Label(sym, _, _) => assert_eq!(unit.interner.resolve(*sym), "out"),
            s => panic!("expected label, got {s:?}"),
        }
    }

    #[test]
    fn switch_with_case_and_default_parses() {
        let unit = parse(
            "int main(void) { int x = 1; switch (x) { case 1: x = 2; break; default: x = 3; } return x; }",
        )
        .unwrap();
        let main = unit.function_named("main").unwrap();
        let Stmt::Switch(_, body, _) = unit.stmt(main.body[1]) else {
            panic!("expected switch");
        };
        let Stmt::Block(items, _) = unit.stmt(*body) else {
            panic!("expected block body");
        };
        assert!(matches!(unit.stmt(items[0]), Stmt::Case(_, _, _)));
        assert!(matches!(unit.stmt(items[2]), Stmt::Default(_, _)));
    }

    #[test]
    fn case_labels_outside_a_switch_are_rejected() {
        for src in [
            "int main(void) { case 1: return 0; }",
            "int main(void) { default: return 0; }",
        ] {
            let err = parse(src).unwrap_err();
            assert!(err.message.contains("switch"), "{src}: {}", err.message);
        }
    }

    #[test]
    fn qualifiers_and_void_objects_parse() {
        let unit = parse(
            "int main(void) { const int x = 1; int * restrict p; restrict int q; void v; void *w; return x; }",
        )
        .unwrap();
        let decls: Vec<&Decl> = unit
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Decl(d) => Some(d),
                _ => None,
            })
            .collect();
        assert!(decls[0].quals.is_const && decls[0].ty == Ty::INT);
        assert!(decls[1].quals.is_restrict && decls[1].ty.ptr_depth() == 1);
        assert!(decls[2].quals.is_restrict && decls[2].ty.ptr_depth() == 0);
        assert_eq!(decls[3].ty, Ty::Void);
        assert_eq!(decls[4].ty, Ty::Ptr(Box::new(Ty::Void)));
    }

    #[test]
    fn multi_keyword_specifiers_combine() {
        let unit = parse(
            "int main(void) { unsigned long long x = 1; long unsigned y = 2; \
             short int s = 3; unsigned char c = 4; _Bool b = 1; signed q = -1; \
             long int l = 5; return 0; }",
        )
        .unwrap();
        let tys: Vec<&Ty> = unit
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Decl(d) => Some(&d.ty),
                _ => None,
            })
            .collect();
        assert_eq!(*tys[0], Ty::Int(IntTy::ULongLong));
        assert_eq!(*tys[1], Ty::Int(IntTy::ULong));
        assert_eq!(*tys[2], Ty::Int(IntTy::Short));
        assert_eq!(*tys[3], Ty::Int(IntTy::UChar));
        assert_eq!(*tys[4], Ty::Int(IntTy::Bool));
        assert_eq!(*tys[5], Ty::Int(IntTy::Int));
        assert_eq!(*tys[6], Ty::Int(IntTy::Long));
    }

    #[test]
    fn contradictory_specifiers_are_rejected() {
        for src in [
            "int main(void) { signed unsigned x; return 0; }",
            "int main(void) { short long x; return 0; }",
            "int main(void) { long long long x; return 0; }",
            "int main(void) { _Bool int x; return 0; }",
            "int main(void) { void unsigned x; return 0; }",
            "int main(void) { char short x; return 0; }",
        ] {
            assert!(parse(src).is_err(), "{src} should not parse");
        }
    }

    #[test]
    fn sizeof_forms_parse() {
        // Type form.
        let (unit, e) = unit_and_expr("sizeof(unsigned long)");
        assert_eq!(unit.expr(e).kind, E::SizeofType(Ty::Int(IntTy::ULong)));
        let (unit, e) = unit_and_expr("sizeof(int *)");
        assert!(matches!(unit.expr(e).kind, E::SizeofType(Ty::Ptr(_))));
        // Expression forms: parenthesized and bare, binding tighter than
        // binary operators.
        let unit = parse(
            "int main(void) { int x = 1; int y = sizeof x + 1; int z = sizeof(x); return 0; }",
        )
        .unwrap();
        let sizeofs = unit
            .exprs
            .iter()
            .filter(|ex| matches!(ex.kind, E::SizeofExpr(_)))
            .count();
        assert_eq!(sizeofs, 2);
        let adds = unit
            .exprs
            .iter()
            .find(|ex| matches!(ex.kind, E::Binary(BinOp::Add, _, _)))
            .expect("sizeof x + 1 parses as (sizeof x) + 1");
        let E::Binary(_, lhs, _) = adds.kind else {
            unreachable!()
        };
        assert!(matches!(unit.expr(lhs).kind, E::SizeofExpr(_)));
    }

    #[test]
    fn casts_parse_at_cast_precedence() {
        // (long)1 + 2 is ((long)1) + 2 — the cast binds tighter than
        // binary operators.
        let (unit, e) = unit_and_expr("(long)1 + 2");
        match unit.expr(e).kind {
            E::Binary(BinOp::Add, lhs, _) => {
                assert!(matches!(
                    unit.expr(lhs).kind,
                    E::Cast(Ty::Int(IntTy::Long), _)
                ));
            }
            ref k => panic!("unexpected {k:?}"),
        }
        // The operand of `*` is a cast-expression: *(int *)p.
        let (unit, e) = unit_and_expr("*(int *)p");
        match unit.expr(e).kind {
            E::Deref(inner) => {
                assert!(matches!(unit.expr(inner).kind, E::Cast(Ty::Ptr(_), _)))
            }
            ref k => panic!("unexpected {k:?}"),
        }
        // Casts nest rightward: (char)(int)x.
        let (unit, e) = unit_and_expr("(char)(int)x");
        match &unit.expr(e).kind {
            E::Cast(Ty::Int(IntTy::Char), inner) => {
                assert!(matches!(
                    unit.expr(*inner).kind,
                    E::Cast(Ty::Int(IntTy::Int), _)
                ))
            }
            k => panic!("unexpected {k:?}"),
        }
        // A parenthesized expression is not a cast.
        let (unit, e) = unit_and_expr("(x) + 1");
        assert!(matches!(unit.expr(e).kind, E::Binary(BinOp::Add, _, _)));
    }

    #[test]
    fn typed_parameters_and_returns() {
        let unit = parse(
            "long widen(unsigned int u, char c) { return u + c; } \
             int main(void) { return 0; }",
        )
        .unwrap();
        let f = &unit.functions[0];
        assert_eq!(f.ret_scalar, IntTy::Long);
        assert_eq!(f.params[0].ty, Ty::Int(IntTy::UInt));
        assert_eq!(f.params[1].ty, Ty::Int(IntTy::Char));
        // A bare `void` parameter among others is rejected.
        assert!(parse("int f(void v) { return 0; } int main(void) { return 0; }").is_err());
    }

    #[test]
    fn static_functions_and_return_pointer_depth() {
        let unit = parse(
            "static int helper(void) { return 1; } int **deep(void) { return 0; } \
             int main(void) { return helper(); }",
        )
        .unwrap();
        assert!(unit.functions[0].is_static);
        assert_eq!(unit.functions[0].ret_ptr, 0);
        assert_eq!(unit.functions[1].ret_ptr, 2);
        assert!(!unit.functions[2].is_static);
    }

    #[test]
    fn trailing_function_qualifiers_parse_for_the_analyzer() {
        let unit = parse("int f(void) const { return 1; } int main(void) { return f(); }").unwrap();
        assert!(unit.functions[0].fn_quals.is_const);
        assert!(!unit.functions[1].fn_quals.any());
    }

    #[test]
    fn scalar_initializer_on_array_declarator_is_rejected() {
        let err = parse("int main(void) { int a[3] = 5; return 0; }").unwrap_err();
        assert!(err.message.contains("brace"), "{}", err.message);
    }

    #[test]
    fn goto_cannot_be_used_as_an_identifier() {
        assert!(parse("int main(void) { int goto = 1; return 0; }").is_err());
    }

    #[test]
    fn comma_operator_parses_at_expression_level() {
        let (unit, e) = unit_and_expr("(a = 1, a + 1)");
        assert!(matches!(unit.expr(e).kind, E::Comma(_, _)));
    }

    #[test]
    fn declarations_are_block_items_not_statements() {
        // C11 §6.8.2/§6.8.5: a declaration may appear in a block or a
        // `for` init clause, but not as the lone body of a control
        // statement.
        assert!(parse("int main(void) { for (int i = 0; i < 1; i++) { } return 0; }").is_ok());
        for src in [
            "int main(void) { if (1) int x = 1; return 0; }",
            "int main(void) { while (0) int x = 1; return 0; }",
            "int main(void) { for (;;) int x = 1; return 0; }",
        ] {
            let err = parse(src).unwrap_err();
            assert!(
                err.message.contains("declaration"),
                "{src}: {}",
                err.message
            );
        }
    }

    #[test]
    fn call_nodes_intern_the_callee_name() {
        let (unit, e) = unit_and_expr("f(1, 2)");
        match &unit.expr(e).kind {
            E::Call(name, args) => {
                assert_eq!(unit.interner.resolve(*name), "f");
                assert_eq!(args.len(), 2);
            }
            k => panic!("unexpected {k:?}"),
        }
    }

    /// Expressions of exactly `n` levels, one per way of nesting.
    fn exprs_of_depth(n: usize) -> Vec<String> {
        vec![
            format!("{}0{}", "(".repeat(n), ")".repeat(n)),
            format!("{}0", "- ".repeat(n)),
            format!("{}0", "+ ".repeat(n)),
            format!("{}0", "(int)".repeat(n)),
            vec!["0"; n + 1].join("+"),
            vec!["0"; n + 1].join("||"),
            format!("({})", vec!["0"; n].join(",")),
            format!("a{}", "[0]".repeat(n)),
            format!("{}0", "a=".repeat(n)),
            format!("{}0", "0 ? 0 : ".repeat(n)),
            format!("{}0{}", "f(".repeat(n), ")".repeat(n)),
            format!(
                "{}{}0{}",
                "0+(".repeat(n / 2),
                "-".repeat(n % 2),
                ")".repeat(n / 2)
            ),
        ]
    }

    /// Bodies whose innermost statement nests exactly `n` levels deep.
    fn bodies_of_depth(n: usize) -> Vec<String> {
        vec![
            format!("{}{}", "{".repeat(n), "}".repeat(n)),
            format!("{};", "if (1) ".repeat(n - 1)),
            format!("{};", "if (0) ; else ".repeat(n - 1)),
            format!("{};", "while (0) ".repeat(n - 1)),
            format!("{};", "l: ".repeat(n - 1)),
        ]
    }

    fn in_main(body: &str) -> String {
        format!("int main(void) {{ {body} }}")
    }

    #[test]
    fn expressions_nest_up_to_the_limit_and_no_further() {
        let n = MAX_EXPR_DEPTH as usize;
        for e in exprs_of_depth(n) {
            let src = in_main(&format!("return {e};"));
            assert!(parse(&src).is_ok(), "{e:.60}…: {:?}", parse(&src).err());
        }
        for e in exprs_of_depth(n + 1) {
            let Err(err) = parse(&in_main(&format!("return {e};"))) else {
                panic!("{e:.60}… parses past the limit");
            };
            assert_eq!(
                err.message, "expression nesting exceeds the limit of 256 levels",
                "{e:.60}…"
            );
        }
    }

    #[test]
    fn nesting_errors_point_at_the_level_past_the_limit() {
        let n = MAX_EXPR_DEPTH as usize;
        // `return ` ends at column 24; the chain's (n+1)-th `+` folds
        // the level too many.
        let chain = in_main(&format!("return {};", vec!["0"; n + 2].join("+")));
        let err = parse(&chain).unwrap_err();
        assert_eq!(err.loc, SourceLoc::new(1, 24 + 2 * (n as u32 + 1)));
        // Descending into the (n+1)-th parenthesis is refused at the
        // operand inside it.
        let parens = in_main(&format!(
            "return {}0{};",
            "(".repeat(n + 1),
            ")".repeat(n + 1)
        ));
        let err = parse(&parens).unwrap_err();
        assert_eq!(err.loc, SourceLoc::new(1, 25 + n as u32 + 1));
        assert_eq!(
            err.to_string(),
            format!(
                "parse error at 1:{}: expression nesting exceeds the limit of 256 levels",
                26 + n
            )
        );
    }

    #[test]
    fn statements_nest_up_to_the_limit_and_no_further() {
        let n = MAX_STMT_DEPTH as usize;
        for body in bodies_of_depth(n) {
            assert!(parse(&in_main(&body)).is_ok(), "{body:.60}…");
        }
        for body in bodies_of_depth(n + 1) {
            let Err(err) = parse(&in_main(&body)) else {
                panic!("{body:.60}… parses past the limit");
            };
            assert_eq!(
                err.message, "statement nesting exceeds the limit of 256 levels",
                "{body:.60}…"
            );
        }
    }

    #[test]
    fn pointer_declarators_stop_at_the_limit() {
        let n = MAX_POINTER_DEPTH as usize;
        for k in [n, n + 1] {
            let stars = "*".repeat(k);
            for src in [
                in_main(&format!("int {stars}p; return 0;")),
                in_main(&format!("return sizeof(int {stars});")),
                format!("int {stars}f(void) {{ return 0; }}"),
                format!("int f(int {stars}p) {{ return 0; }}"),
            ] {
                match parse(&src) {
                    Ok(_) => assert_eq!(k, n, "{src:.60}…"),
                    Err(err) => {
                        assert_eq!(k, n + 1, "{src:.60}…: {err}");
                        assert_eq!(
                            err.message,
                            "pointer declarator nesting exceeds the limit of 64 levels"
                        );
                    }
                }
            }
        }
    }

    /// Both limits at once still parse on a worker-sized stack, in any
    /// build.
    #[test]
    fn the_deepest_accepted_unit_parses_on_a_two_mib_stack() {
        let n = MAX_STMT_DEPTH as usize - 1;
        let e = format!(
            "{}0{}",
            "(".repeat(MAX_EXPR_DEPTH as usize),
            ")".repeat(MAX_EXPR_DEPTH as usize)
        );
        let src = in_main(&format!("{}return {e};{}", "{".repeat(n), "}".repeat(n)));
        let worker = std::thread::Builder::new().stack_size(2 << 20);
        let parsed = worker.spawn(move || parse(&src).is_ok()).unwrap().join();
        assert!(matches!(parsed, Ok(true)));
    }

    #[test]
    fn c11_translation_limit_minimums_are_admitted() {
        // §5.2.4.1: 63 nested parenthesized expressions, 127 nested
        // blocks (the function body among them).
        let e = format!("{}0{}", "(".repeat(63), ")".repeat(63));
        let body = format!("{}return {e};{}", "{".repeat(126), "}".repeat(126));
        assert!(parse(&in_main(&body)).is_ok());
        assert!(parse(&in_main(&format!("int {}p; return 0;", "*".repeat(12)))).is_ok());
    }
}
