//! Recursive-descent parser for the MySQL subset.
//!
//! Mirrors the PTI daemon's query parsing (§IV-C): the same parse result
//! feeds critical-token analysis, the structure cache, and the in-memory
//! database engine. Comments are skipped during parsing (they are still
//! tokens for the taint analyses, but do not affect execution).

use crate::ast::*;
use crate::lexer::lex;
use crate::token::{Token, TokenKind};
use crate::value::Value;
use std::fmt;

/// An error produced while parsing a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the source where the error occurred.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The deepest a statement's expressions may nest: parenthesised and
/// function-argument nesting, `NOT`/unary-minus runs, subqueries, and the
/// height of left-deep operator chains (`a OR b OR …`). Past it, [`parse`]
/// fails with a [`ParseError`] instead of recursing until the stack
/// overflows, so the executor, which recurses along the same tree, only
/// ever sees bounded statements. MySQL likewise rejects over-deep
/// statements with an error rather than crashing; no statement the
/// testbed issues comes near this depth.
pub const MAX_NESTING_DEPTH: usize = 64;

/// Parses one SQL statement (a trailing semicolon is permitted).
///
/// # Errors
///
/// Returns [`ParseError`] when the statement is not valid in the supported
/// subset — including, importantly, most *broken* injection attempts, which
/// real MySQL would also reject.
///
/// # Examples
///
/// ```
/// use joza_sqlparse::parser::parse;
/// use joza_sqlparse::ast::Statement;
///
/// let stmt = parse("SELECT id, name FROM users WHERE id = 7 LIMIT 1")?;
/// assert!(matches!(stmt, Statement::Select(_)));
/// assert!(parse("SELECT * FROM t WHERE x = 'unterminated").is_err());
/// # Ok::<(), joza_sqlparse::ParseError>(())
/// ```
pub fn parse(source: &str) -> Result<Statement, ParseError> {
    let tokens: Vec<Token> =
        lex(source).into_iter().filter(|t| t.kind != TokenKind::Comment).collect();
    // Reject unterminated string literals: the lexer is total, but real
    // MySQL errors out, and execution must not accept them.
    for t in &tokens {
        if t.kind == TokenKind::StringLit && !is_terminated(t.text(source)) {
            return Err(ParseError {
                offset: t.start,
                message: "unterminated string literal".into(),
            });
        }
        if t.kind == TokenKind::Unknown {
            return Err(ParseError {
                offset: t.start,
                message: format!("unexpected byte {:?}", t.text(source)),
            });
        }
    }
    let mut p = Parser { src: source, tokens, pos: 0, depth: 0 };
    let stmt = p.statement()?;
    p.eat_kind(TokenKind::Semicolon);
    if let Some(t) = p.peek() {
        return Err(p.err_at(t, "trailing input after statement"));
    }
    Ok(stmt)
}

struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    pos: usize,
    /// Recursive-descent nesting of the expression being parsed.
    depth: usize,
}

type PResult<T> = Result<T, ParseError>;

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Token> {
        self.tokens.get(self.pos).copied()
    }

    fn peek_text(&self) -> Option<&'a str> {
        self.peek().map(|t| t.text(self.src))
    }

    fn err_here(&self, message: impl Into<String>) -> ParseError {
        let offset = self.peek().map_or(self.src.len(), |t| t.start);
        ParseError { offset, message: message.into() }
    }

    fn err_at(&self, t: Token, message: impl Into<String>) -> ParseError {
        ParseError { offset: t.start, message: message.into() }
    }

    /// Consumes the next token if it is the given keyword (case-insensitive).
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| {
            t.kind == TokenKind::Keyword && t.text(self.src).eq_ignore_ascii_case(kw)
        })
    }

    fn expect_kw(&mut self, kw: &str) -> PResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected {kw}")))
        }
    }

    fn eat_kind(&mut self, kind: TokenKind) -> bool {
        if self.peek().is_some_and(|t| t.kind == kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kind(&mut self, kind: TokenKind) -> PResult<Token> {
        match self.peek() {
            Some(t) if t.kind == kind => {
                self.pos += 1;
                Ok(t)
            }
            _ => Err(self.err_here(format!("expected {kind}"))),
        }
    }

    /// Consumes the next token if it is the given operator text.
    fn eat_op(&mut self, op: &str) -> bool {
        if self.peek().is_some_and(|t| t.kind == TokenKind::Operator && t.text(self.src) == op) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> PResult<String> {
        match self.peek() {
            Some(t) if t.kind == TokenKind::Identifier => {
                self.pos += 1;
                Ok(t.text(self.src).to_string())
            }
            Some(t) if t.kind == TokenKind::QuotedIdentifier => {
                self.pos += 1;
                let text = t.text(self.src);
                Ok(text.trim_matches('`').to_string())
            }
            _ => Err(self.err_here("expected identifier")),
        }
    }

    fn statement(&mut self) -> PResult<Statement> {
        if self.at_kw("SELECT") {
            Ok(Statement::Select(self.select()?))
        } else if self.eat_kw("INSERT") {
            self.insert().map(Statement::Insert)
        } else if self.eat_kw("UPDATE") {
            self.update().map(Statement::Update)
        } else if self.eat_kw("DELETE") {
            self.delete().map(Statement::Delete)
        } else if self.eat_kw("REPLACE") {
            // REPLACE INTO behaves as INSERT for our engine.
            self.insert().map(Statement::Insert)
        } else {
            Err(self.err_here("expected SELECT, INSERT, UPDATE, DELETE or REPLACE"))
        }
    }

    fn select(&mut self) -> PResult<SelectStatement> {
        // A subquery costs a level of its own on top of its expressions':
        // a SELECT's parse keeps the largest frames on the stack.
        self.descend()?;
        let mut stmt = self.select_body()?;
        while self.eat_kw("UNION") {
            let op = if self.eat_kw("ALL") { SetOp::UnionAll } else { SetOp::Union };
            let rhs = self.select_body()?;
            stmt.set_ops.push((op, rhs));
        }
        self.depth -= 1;
        Ok(stmt)
    }

    fn select_body(&mut self) -> PResult<SelectStatement> {
        self.expect_kw("SELECT")?;
        let mut stmt = SelectStatement { distinct: self.eat_kw("DISTINCT"), ..Default::default() };
        if self.eat_kw("ALL") {
            // SELECT ALL is the default; nothing to record.
        }
        loop {
            stmt.projections.push(self.projection()?);
            if !self.eat_kind(TokenKind::Comma) {
                break;
            }
        }
        if self.eat_kw("FROM") {
            stmt.from = Some(self.table_ref()?);
            loop {
                let kind = if self.eat_kw("CROSS") {
                    self.expect_kw("JOIN")?;
                    JoinKind::Cross
                } else if self.eat_kw("INNER") {
                    self.expect_kw("JOIN")?;
                    JoinKind::Inner
                } else if self.eat_kw("LEFT") {
                    self.eat_kw("OUTER");
                    self.expect_kw("JOIN")?;
                    JoinKind::Left
                } else if self.eat_kw("JOIN") {
                    JoinKind::Inner
                } else {
                    break;
                };
                let table = self.table_ref()?;
                let on = if self.eat_kw("ON") { Some(self.expr()?) } else { None };
                stmt.joins.push(Join { kind, table, on });
            }
        }
        if self.eat_kw("WHERE") {
            stmt.where_clause = Some(self.expr()?);
        }
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                stmt.group_by.push(self.expr()?);
                if !self.eat_kind(TokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("HAVING") {
            stmt.having = Some(self.expr()?);
        }
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                stmt.order_by.push(OrderItem { expr, desc });
                if !self.eat_kind(TokenKind::Comma) {
                    break;
                }
            }
        }
        stmt.limit = self.limit_clause()?;
        // FOR UPDATE / LOCK IN SHARE MODE: accept and ignore.
        if self.eat_kw("FOR") {
            self.expect_kw("UPDATE")?;
        }
        Ok(stmt)
    }

    fn limit_clause(&mut self) -> PResult<Option<Limit>> {
        if !self.eat_kw("LIMIT") {
            return Ok(None);
        }
        let first = self.expr()?;
        if self.eat_kind(TokenKind::Comma) {
            let count = self.expr()?;
            Ok(Some(Limit { offset: Some(first), count }))
        } else if self.eat_kw("OFFSET") {
            let offset = self.expr()?;
            Ok(Some(Limit { offset: Some(offset), count: first }))
        } else {
            Ok(Some(Limit { offset: None, count: first }))
        }
    }

    fn projection(&mut self) -> PResult<Projection> {
        if self.eat_op("*") {
            return Ok(Projection::Wildcard);
        }
        // t.* qualified wildcard
        if let Some(t) = self.peek() {
            if matches!(t.kind, TokenKind::Identifier | TokenKind::QuotedIdentifier)
                && self.tokens.get(self.pos + 1).is_some_and(|d| d.kind == TokenKind::Dot)
                && self
                    .tokens
                    .get(self.pos + 2)
                    .is_some_and(|s| s.kind == TokenKind::Operator && s.text(self.src) == "*")
            {
                let name = self.ident()?;
                self.pos += 2; // consume `.` and `*`
                return Ok(Projection::QualifiedWildcard(name));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if self
            .peek()
            .is_some_and(|t| matches!(t.kind, TokenKind::Identifier | TokenKind::QuotedIdentifier))
        {
            // Implicit alias: `SELECT a b FROM …`
            Some(self.ident()?)
        } else {
            None
        };
        Ok(Projection::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> PResult<TableRef> {
        let name = self.ident()?;
        let alias = if self.eat_kw("AS")
            || self.peek().is_some_and(|t| {
                matches!(t.kind, TokenKind::Identifier | TokenKind::QuotedIdentifier)
            }) {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    fn insert(&mut self) -> PResult<InsertStatement> {
        self.eat_kw("INTO");
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat_kind(TokenKind::LParen) {
            loop {
                columns.push(self.ident()?);
                if !self.eat_kind(TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(TokenKind::RParen)?;
        }
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_kind(TokenKind::LParen)?;
            let mut row = Vec::new();
            if !self.eat_kind(TokenKind::RParen) {
                loop {
                    row.push(self.expr()?);
                    if !self.eat_kind(TokenKind::Comma) {
                        break;
                    }
                }
                self.expect_kind(TokenKind::RParen)?;
            }
            rows.push(row);
            if !self.eat_kind(TokenKind::Comma) {
                break;
            }
        }
        Ok(InsertStatement { table, columns, rows })
    }

    fn update(&mut self) -> PResult<UpdateStatement> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            if !self.eat_op("=") {
                return Err(self.err_here("expected = in assignment"));
            }
            assignments.push((col, self.expr()?));
            if !self.eat_kind(TokenKind::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        let limit = self.limit_clause()?;
        Ok(UpdateStatement { table, assignments, where_clause, limit })
    }

    fn delete(&mut self) -> PResult<DeleteStatement> {
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        let limit = self.limit_clause()?;
        Ok(DeleteStatement { table, where_clause, limit })
    }

    // ----- expressions, precedence climbing -----

    /// Enters one level of recursive descent, failing past
    /// [`MAX_NESTING_DEPTH`]; the caller steps back out with `depth -= 1`.
    fn descend(&mut self) -> PResult<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(self.too_deep());
        }
        Ok(())
    }

    fn too_deep(&self) -> ParseError {
        self.err_here(format!("statement nested deeper than {MAX_NESTING_DEPTH} levels"))
    }

    /// Links `left op right` into a left-deep chain. Chains grow in a
    /// loop rather than by recursion, so each link measures the tree it
    /// builds; `height` carries the chain's height between links.
    fn link(
        &self,
        left: Expr,
        op: BinaryOp,
        right: Expr,
        height: &mut Option<usize>,
    ) -> PResult<Expr> {
        let h = 1 + height.unwrap_or_else(|| expr_depth(&left)).max(expr_depth(&right));
        if h > MAX_NESTING_DEPTH {
            return Err(self.too_deep());
        }
        *height = Some(h);
        Ok(Expr::Binary { left: Box::new(left), op, right: Box::new(right) })
    }

    fn expr(&mut self) -> PResult<Expr> {
        self.descend()?;
        let e = self.or_expr()?;
        self.depth -= 1;
        Ok(e)
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        let mut left = self.and_expr()?;
        let mut height = None;
        loop {
            let op = if self.eat_kw("OR") || self.eat_op("||") {
                BinaryOp::Or
            } else if self.eat_kw("XOR") {
                BinaryOp::Xor
            } else {
                break;
            };
            let right = self.and_expr()?;
            left = self.link(left, op, right, &mut height)?;
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        let mut left = self.not_expr()?;
        let mut height = None;
        while self.eat_kw("AND") || self.eat_op("&&") {
            let right = self.not_expr()?;
            left = self.link(left, BinaryOp::And, right, &mut height)?;
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> PResult<Expr> {
        if self.eat_kw("NOT") {
            self.descend()?;
            let inner = self.not_expr()?;
            self.depth -= 1;
            Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) })
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> PResult<Expr> {
        let left = self.additive()?;
        self.comparison_rest(left)
    }

    /// The operator after a comparison's left operand, if any. Kept out of
    /// [`Parser::comparison`] so that the frame every nesting level keeps on
    /// the stack stays small.
    fn comparison_rest(&mut self, left: Expr) -> PResult<Expr> {
        // IS [NOT] NULL / TRUE / FALSE
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            if self.eat_kw("NULL") {
                return Ok(Expr::IsNull { expr: Box::new(left), negated });
            }
            if self.eat_kw("TRUE") || self.eat_kw("FALSE") {
                // Desugar to = 1 / = 0 with optional negation.
                let truth = matches!(
                    self.tokens[self.pos - 1].text(self.src).to_ascii_uppercase().as_str(),
                    "TRUE"
                );
                let want = truth != negated;
                return Ok(Expr::Binary {
                    left: Box::new(left),
                    op: BinaryOp::Eq,
                    right: Box::new(Expr::lit(i64::from(want))),
                });
            }
            return Err(self.err_here("expected NULL, TRUE or FALSE after IS"));
        }
        let negated = self.eat_kw("NOT");
        if self.eat_kw("IN") {
            self.expect_kind(TokenKind::LParen)?;
            if self.at_kw("SELECT") {
                let subquery = self.subquery()?;
                return Ok(Expr::InSubquery { expr: Box::new(left), subquery, negated });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_kind(TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(TokenKind::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = self.additive()?;
            return Ok(Expr::Like { expr: Box::new(left), pattern: Box::new(pattern), negated });
        }
        if self.eat_kw("REGEXP") || self.eat_kw("RLIKE") {
            let pattern = self.additive()?;
            let e = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::Regexp,
                right: Box::new(pattern),
            };
            return Ok(if negated {
                Expr::Unary { op: UnaryOp::Not, expr: Box::new(e) }
            } else {
                e
            });
        }
        if negated {
            return Err(self.err_here("expected IN, BETWEEN, LIKE or REGEXP after NOT"));
        }
        let op = if self.eat_op("=") {
            Some(BinaryOp::Eq)
        } else if self.eat_op("<>") || self.eat_op("!=") {
            Some(BinaryOp::NotEq)
        } else if self.eat_op("<=") {
            Some(BinaryOp::LtEq)
        } else if self.eat_op(">=") {
            Some(BinaryOp::GtEq)
        } else if self.eat_op("<") {
            Some(BinaryOp::Lt)
        } else if self.eat_op(">") {
            Some(BinaryOp::Gt)
        } else {
            None
        };
        match op {
            Some(op) => {
                let right = self.additive()?;
                Ok(Expr::Binary { left: Box::new(left), op, right: Box::new(right) })
            }
            None => Ok(left),
        }
    }

    fn additive(&mut self) -> PResult<Expr> {
        let mut left = self.multiplicative()?;
        let mut height = None;
        loop {
            let op = if self.eat_op("+") {
                BinaryOp::Add
            } else if self.eat_op("-") {
                BinaryOp::Sub
            } else {
                break;
            };
            let right = self.multiplicative()?;
            left = self.link(left, op, right, &mut height)?;
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> PResult<Expr> {
        let mut left = self.unary()?;
        let mut height = None;
        loop {
            let op = if self.eat_op("*") {
                BinaryOp::Mul
            } else if self.eat_op("/") || self.eat_kw("DIV") {
                BinaryOp::Div
            } else if self.eat_op("%") || self.eat_kw("MOD") {
                BinaryOp::Mod
            } else {
                break;
            };
            let right = self.unary()?;
            left = self.link(left, op, right, &mut height)?;
        }
        Ok(left)
    }

    fn unary(&mut self) -> PResult<Expr> {
        let op = if self.eat_op("-") {
            UnaryOp::Neg
        } else if self.eat_op("+") {
            UnaryOp::Plus
        } else if self.eat_op("!") {
            UnaryOp::Not
        } else {
            return self.primary();
        };
        self.descend()?;
        let inner = self.unary()?;
        self.depth -= 1;
        Ok(Expr::Unary { op, expr: Box::new(inner) })
    }

    /// An operand. Only the parenthesised form recurses from this frame;
    /// the other forms live in their own functions so that the frame every
    /// nesting level keeps on the stack stays small.
    fn primary(&mut self) -> PResult<Expr> {
        let t = self.peek().ok_or_else(|| self.err_here("unexpected end of input"))?;
        match t.kind {
            TokenKind::LParen => {
                self.pos += 1;
                if self.at_kw("SELECT") {
                    return self.subquery().map(Expr::Subquery);
                }
                let inner = self.expr()?;
                self.expect_kind(TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Keyword => self.keyword_primary(t),
            TokenKind::Identifier | TokenKind::QuotedIdentifier => self.ident_primary(),
            _ => self.literal(t),
        }
    }

    /// `SELECT …)` after an opening parenthesis.
    fn subquery(&mut self) -> PResult<Box<SelectStatement>> {
        let sub = self.select()?;
        self.expect_kind(TokenKind::RParen)?;
        Ok(Box::new(sub))
    }

    fn literal(&mut self, t: Token) -> PResult<Expr> {
        let text = t.text(self.src);
        let e = match t.kind {
            TokenKind::Placeholder => Expr::Placeholder(text.to_string()),
            TokenKind::Variable => Expr::Variable(text.to_string()),
            _ => match literal_value(t, self.src) {
                Some(v) => Expr::Literal(v),
                None => return Err(self.err_at(t, format!("unexpected token {}", t.kind))),
            },
        };
        self.pos += 1;
        Ok(e)
    }

    fn keyword_primary(&mut self, t: Token) -> PResult<Expr> {
        let kw = t.text(self.src).to_ascii_uppercase();
        match kw.as_str() {
            "NULL" => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Null))
            }
            "TRUE" => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(1)))
            }
            "FALSE" => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(0)))
            }
            "EXISTS" => {
                self.pos += 1;
                self.expect_kind(TokenKind::LParen)?;
                self.subquery().map(Expr::Exists)
            }
            "CASE" => {
                self.pos += 1;
                self.case_expr()
            }
            // Keywords that double as function names (e.g.
            // DATABASE(), REPLACE(x,y,z), BENCHMARK(...)).
            "DATABASE" | "REPLACE" | "BENCHMARK" | "DEFAULT" | "KEY"
                if self.tokens.get(self.pos + 1).is_some_and(|n| n.kind == TokenKind::LParen) =>
            {
                self.pos += 1;
                self.function_call(kw)
            }
            _ => Err(self.err_at(t, format!("unexpected keyword {kw}"))),
        }
    }

    fn ident_primary(&mut self) -> PResult<Expr> {
        let name = self.ident()?;
        // Function call?
        if self.peek().is_some_and(|n| n.kind == TokenKind::LParen) {
            return self.function_call(name.to_ascii_uppercase());
        }
        // Qualified column t.col
        if self.eat_kind(TokenKind::Dot) {
            let col = self.ident()?;
            return Ok(Expr::Column(ColumnRef { table: Some(name), name: col }));
        }
        Ok(Expr::Column(ColumnRef { table: None, name }))
    }

    fn function_call(&mut self, name: String) -> PResult<Expr> {
        self.expect_kind(TokenKind::LParen)?;
        let distinct = self.eat_kw("DISTINCT");
        let mut args = Vec::new();
        if !self.eat_kind(TokenKind::RParen) {
            loop {
                if self.peek().is_some_and(|t| t.kind == TokenKind::Operator)
                    && self.peek_text() == Some("*")
                {
                    self.pos += 1;
                    args.push(Expr::Wildcard);
                } else {
                    args.push(self.expr()?);
                }
                if !self.eat_kind(TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(TokenKind::RParen)?;
        }
        Ok(Expr::Function { name, args, distinct })
    }

    fn case_expr(&mut self) -> PResult<Expr> {
        let operand = if self.at_kw("WHEN") { None } else { Some(Box::new(self.expr()?)) };
        let mut branches = Vec::new();
        while self.eat_kw("WHEN") {
            let cond = self.expr()?;
            self.expect_kw("THEN")?;
            let then = self.expr()?;
            branches.push((cond, then));
        }
        if branches.is_empty() {
            return Err(self.err_here("CASE requires at least one WHEN"));
        }
        let else_arm = if self.eat_kw("ELSE") { Some(Box::new(self.expr()?)) } else { None };
        self.expect_kw("END")?;
        Ok(Expr::Case { operand, branches, else_arm })
    }
}

/// Height of an expression tree, subqueries included.
fn expr_depth(e: &Expr) -> usize {
    1 + match e {
        Expr::Literal(_)
        | Expr::Column(_)
        | Expr::Wildcard
        | Expr::Placeholder(_)
        | Expr::Variable(_) => 0,
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr_depth(expr),
        Expr::Binary { left, right, .. } => expr_depth(left).max(expr_depth(right)),
        Expr::Like { expr, pattern, .. } => expr_depth(expr).max(expr_depth(pattern)),
        Expr::Between { expr, low, high, .. } => {
            expr_depth(expr).max(expr_depth(low)).max(expr_depth(high))
        }
        Expr::Function { args, .. } => deepest(args),
        Expr::InList { expr, list, .. } => expr_depth(expr).max(deepest(list)),
        Expr::InSubquery { expr, subquery, .. } => expr_depth(expr).max(select_depth(subquery)),
        Expr::Subquery(sub) | Expr::Exists(sub) => select_depth(sub),
        Expr::Case { operand, branches, else_arm } => deepest(
            operand
                .as_deref()
                .into_iter()
                .chain(branches.iter().flat_map(|(w, t)| [w, t]))
                .chain(else_arm.as_deref()),
        ),
    }
}

fn deepest<'e>(es: impl IntoIterator<Item = &'e Expr>) -> usize {
    es.into_iter().map(expr_depth).max().unwrap_or(0)
}

/// Height of the deepest expression in a `SELECT` (and its UNION arms).
fn select_depth(s: &SelectStatement) -> usize {
    let exprs = s
        .projections
        .iter()
        .filter_map(|p| match p {
            Projection::Expr { expr, .. } => Some(expr),
            _ => None,
        })
        .chain(s.joins.iter().filter_map(|j| j.on.as_ref()))
        .chain(&s.where_clause)
        .chain(&s.group_by)
        .chain(&s.having)
        .chain(s.order_by.iter().map(|o| &o.expr))
        .chain(s.limit.iter().flat_map(|l| l.offset.iter().chain([&l.count])));
    let own = deepest(exprs);
    s.set_ops.iter().map(|(_, arm)| select_depth(arm)).fold(own, usize::max)
}

/// The value [`parse`] puts in the tree for a literal token: a `Number`
/// or a terminated `StringLit`. `None` for any other token, an
/// unterminated string included. Callers that bind a statement's
/// literals without re-parsing it (the database's plan cache) convert
/// through this, so bound and parsed values cannot differ.
pub fn literal_value(token: Token, source: &str) -> Option<Value> {
    let text = token.text(source);
    match token.kind {
        TokenKind::Number => Some(parse_number(text)),
        TokenKind::StringLit if is_terminated(text) => Some(Value::Str(unescape_string(text))),
        _ => None,
    }
}

/// Whether a string-literal lexeme ends with its opening quote.
fn is_terminated(quoted: &str) -> bool {
    let b = quoted.as_bytes();
    b.len() >= 2 && b[b.len() - 1] == b[0]
}

fn parse_number(text: &str) -> Value {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        // MySQL hex literals are strings in most contexts; decode to text
        // when the bytes are printable (this is how CHAR-less payloads
        // smuggle strings), otherwise keep the integer value.
        if hex.len() % 2 == 0 {
            let bytes: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap_or(0))
                .collect();
            if !bytes.is_empty() && bytes.iter().all(|b| b.is_ascii_graphic() || *b == b' ') {
                if let Ok(s) = String::from_utf8(bytes) {
                    return Value::Str(s);
                }
            }
        }
        return Value::Int(i64::from_str_radix(hex, 16).unwrap_or(0));
    }
    if let Ok(i) = text.parse::<i64>() {
        Value::Int(i)
    } else {
        Value::Float(text.parse::<f64>().unwrap_or(0.0))
    }
}

fn unescape_string(quoted: &str) -> String {
    let bytes = quoted.as_bytes();
    let quote = bytes[0];
    let inner = &quoted[1..quoted.len() - 1];
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('0') => out.push('\0'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else if c as u32 == quote as u32 && chars.peek().copied() == Some(c) {
            chars.next();
            out.push(c);
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(q: &str) -> SelectStatement {
        match parse(q).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT id, name FROM users");
        assert_eq!(s.projections.len(), 2);
        assert_eq!(s.from.as_ref().unwrap().name, "users");
    }

    #[test]
    fn select_without_from() {
        let s = sel("SELECT 1");
        assert!(s.from.is_none());
        assert_eq!(s.projections.len(), 1);
    }

    #[test]
    fn wildcard_and_qualified_wildcard() {
        let s = sel("SELECT *, t.* FROM t");
        assert_eq!(s.projections[0], Projection::Wildcard);
        assert_eq!(s.projections[1], Projection::QualifiedWildcard("t".into()));
    }

    #[test]
    fn where_precedence() {
        let s = sel("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        // OR at the top, AND nested on the right.
        match s.where_clause.unwrap() {
            Expr::Binary { op: BinaryOp::Or, right, .. } => {
                assert!(matches!(*right, Expr::Binary { op: BinaryOp::And, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn union_chain() {
        let s = sel("SELECT a FROM t UNION SELECT b FROM u UNION ALL SELECT c FROM v");
        assert_eq!(s.set_ops.len(), 2);
        assert_eq!(s.set_ops[0].0, SetOp::Union);
        assert_eq!(s.set_ops[1].0, SetOp::UnionAll);
    }

    #[test]
    fn classic_union_injection_parses() {
        let q = "SELECT * FROM wp_posts WHERE ID=-1 UNION SELECT user_login, user_pass FROM wp_users-- -";
        let s = sel(q);
        assert_eq!(s.set_ops.len(), 1);
    }

    #[test]
    fn tautology_parses() {
        let s = sel("SELECT * FROM t WHERE id=1 OR 1=1");
        assert!(matches!(s.where_clause.unwrap(), Expr::Binary { op: BinaryOp::Or, .. }));
    }

    #[test]
    fn limit_variants() {
        assert!(sel("SELECT * FROM t LIMIT 5").limit.is_some());
        let l = sel("SELECT * FROM t LIMIT 10, 5").limit.unwrap();
        assert!(l.offset.is_some());
        let l = sel("SELECT * FROM t LIMIT 5 OFFSET 10").limit.unwrap();
        assert!(l.offset.is_some());
    }

    #[test]
    fn joins() {
        let s = sel(
            "SELECT p.ID FROM wp_posts p LEFT JOIN wp_postmeta m ON p.ID = m.post_id WHERE m.k = 'x'",
        );
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].kind, JoinKind::Left);
    }

    #[test]
    fn group_by_having_order_by() {
        let s = sel(
            "SELECT author, COUNT(*) FROM posts GROUP BY author HAVING COUNT(*) > 3 ORDER BY author DESC",
        );
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert!(s.order_by[0].desc);
    }

    #[test]
    fn insert_forms() {
        let i = match parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap() {
            Statement::Insert(i) => i,
            other => panic!("{other:?}"),
        };
        assert_eq!(i.columns, ["a", "b"]);
        assert_eq!(i.rows.len(), 2);
    }

    #[test]
    fn update_and_delete() {
        assert!(matches!(
            parse("UPDATE t SET a = 1, b = 'x' WHERE id = 3").unwrap(),
            Statement::Update(_)
        ));
        assert!(matches!(
            parse("DELETE FROM t WHERE id = 3 LIMIT 1").unwrap(),
            Statement::Delete(_)
        ));
    }

    #[test]
    fn functions_and_aggregates() {
        let s = sel("SELECT COUNT(DISTINCT user_id), CONCAT(a, 'x'), SLEEP(5) FROM t");
        match &s.projections[0] {
            Projection::Expr { expr: Expr::Function { name, distinct, .. }, .. } => {
                assert_eq!(name, "COUNT");
                assert!(*distinct);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn count_star() {
        let s = sel("SELECT COUNT(*) FROM t");
        match &s.projections[0] {
            Projection::Expr { expr: Expr::Function { args, .. }, .. } => {
                assert_eq!(args, &[Expr::Wildcard]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn in_between_like_is() {
        sel("SELECT * FROM t WHERE a IN (1, 2, 3)");
        sel("SELECT * FROM t WHERE a NOT IN ('x')");
        sel("SELECT * FROM t WHERE a BETWEEN 1 AND 5");
        sel("SELECT * FROM t WHERE a LIKE '%foo%'");
        sel("SELECT * FROM t WHERE a IS NOT NULL");
        sel("SELECT * FROM t WHERE a IN (SELECT id FROM u)");
    }

    #[test]
    fn case_expression() {
        sel("SELECT CASE WHEN a = 1 THEN 'one' ELSE 'many' END FROM t");
        sel("SELECT CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM t");
    }

    #[test]
    fn subqueries() {
        sel("SELECT (SELECT MAX(id) FROM u) FROM t");
        sel("SELECT * FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.t = t.id)");
    }

    #[test]
    fn string_escapes() {
        let s = sel(r#"SELECT 'it\'s', 'a''b', "dq""#);
        let lits: Vec<Value> = s
            .projections
            .iter()
            .map(|p| match p {
                Projection::Expr { expr: Expr::Literal(v), .. } => v.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(lits[0], Value::Str("it's".into()));
        assert_eq!(lits[1], Value::Str("a'b".into()));
        assert_eq!(lits[2], Value::Str("dq".into()));
    }

    #[test]
    fn hex_literal_decodes_to_string() {
        let s = sel("SELECT 0x61646D696E");
        match &s.projections[0] {
            Projection::Expr { expr: Expr::Literal(Value::Str(s)), .. } => assert_eq!(s, "admin"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comments_skipped() {
        sel("SELECT /* inline */ * FROM t -- trailing");
        sel("SELECT * FROM t # hash comment");
    }

    #[test]
    fn negative_numbers() {
        let s = sel("SELECT * FROM t WHERE id = -1");
        match s.where_clause.unwrap() {
            Expr::Binary { right, .. } => {
                assert!(matches!(*right, Expr::Unary { op: UnaryOp::Neg, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("SELEC * FROM t").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT 'unterminated").is_err());
        assert!(parse("SELECT * FROM t extra garbage ( (").is_err());
        assert!(parse("DROP TABLE users").is_err());
    }

    #[test]
    fn nesting_past_the_limit_is_a_parse_error() {
        let n = 100_000;
        let too_deep = [
            format!("SELECT * FROM t WHERE {}1{}", "(".repeat(n), ")".repeat(n)),
            format!("SELECT * FROM t WHERE {}1", "1 OR ".repeat(n)),
            format!("SELECT {}1", "1 + ".repeat(n)),
            format!("SELECT * FROM t WHERE {}1", "NOT ".repeat(n)),
            format!("SELECT {}1", "- ".repeat(n)),
            format!("SELECT {}1{}", "ABS(".repeat(n), ")".repeat(n)),
            format!("SELECT {}1{}", "(SELECT ".repeat(n), ")".repeat(n)),
        ];
        for sql in &too_deep {
            let err = parse(sql).unwrap_err();
            assert!(err.message.contains("nested deeper than"), "{err}");
        }
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        // The statement's own SELECT takes one level.
        let n = MAX_NESTING_DEPTH - 2;
        sel(&format!("SELECT * FROM t WHERE {}1{}", "(".repeat(n), ")".repeat(n)));
        sel(&format!("SELECT {}1", "NOT ".repeat(n)));
        // A chain of k links is k + 1 nodes high.
        sel(&format!("SELECT {}1", "1 + ".repeat(MAX_NESTING_DEPTH - 1)));
        assert!(parse(&format!("SELECT {}1", "1 + ".repeat(MAX_NESTING_DEPTH))).is_err());
        // A subquery takes two levels: its SELECT and its expression.
        let k = (MAX_NESTING_DEPTH - 1) / 2;
        sel(&format!("SELECT {}1{}", "(SELECT ".repeat(k), ")".repeat(k)));
        assert!(
            parse(&format!("SELECT {}1{}", "(SELECT ".repeat(k + 1), ")".repeat(k + 1))).is_err()
        );
    }

    #[test]
    fn trailing_semicolon_ok() {
        sel("SELECT 1;");
    }

    #[test]
    fn sleep_benchmark_double_blind_payloads() {
        sel("SELECT * FROM t WHERE id=1 AND SLEEP(5)");
        sel("SELECT * FROM t WHERE id=1 AND BENCHMARK(1000000, MD5('x'))");
        sel("SELECT IF(SUBSTRING(user_pass,1,1)='a', SLEEP(2), 0) FROM wp_users");
    }

    #[test]
    fn error_offsets_point_into_source() {
        let q = "SELECT * FROM t WHERE ???bogus";
        let err = parse(q).unwrap_err();
        assert!(err.offset <= q.len());
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn replace_into_as_insert() {
        assert!(matches!(parse("REPLACE INTO t (a) VALUES (1)").unwrap(), Statement::Insert(_)));
    }

    #[test]
    fn quoted_identifiers_stripped() {
        let s = sel("SELECT `ID` FROM `wp_posts`");
        assert_eq!(s.from.as_ref().unwrap().name, "wp_posts");
    }
}
