//! Recursive-descent parser for the SQL fragment of §5.2.
//!
//! The parser is deliberately forgiving about everything that does not
//! influence the query's hypergraph structure: `SELECT`-list expressions,
//! `GROUP BY`/`ORDER BY`/`HAVING`/`LIMIT` clauses and exotic predicates are
//! skimmed over (with balanced parentheses) and recorded as opaque.

use crate::ast::*;
use crate::error::SqlError;
use crate::token::{tokenize, Keyword, Token};

/// Deepest nesting of subqueries, parentheses and `NOT`s a statement
/// may have: the parser (and every pass over its tree) recurses as deep
/// as the statement, which is its author's to choose.
pub const MAX_DEPTH: usize = 128;

/// Parses a SQL statement (one query, optional leading `WITH`).
pub fn parse(sql: &str) -> Result<Statement, SqlError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let views = if p.eat_keyword(Keyword::With) {
        p.parse_views()?
    } else {
        Vec::new()
    };
    let query = p.parse_query_expr()?;
    p.eat(&Token::Semicolon);
    if !p.at_end() {
        return Err(SqlError::Parse(format!(
            "trailing tokens starting at {:?}",
            p.peek()
        )));
    }
    Ok(Statement { views, query })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// `parse_query_expr` and `parse_not` calls on the stack: every
    /// recursion of the grammar passes through one of the two.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        self.eat(&Token::Keyword(k))
    }

    fn expect(&mut self, t: &Token) -> Result<(), SqlError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    /// Goes one level deeper; the caller comes back up with
    /// `self.depth -= 1` once its sub-tree is parsed.
    fn descend(&mut self) -> Result<(), SqlError> {
        if self.depth == MAX_DEPTH {
            return Err(SqlError::Parse(format!(
                "statement nests deeper than {MAX_DEPTH} levels"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    fn expect_ident(&mut self) -> Result<String, SqlError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(SqlError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn parse_views(&mut self) -> Result<Vec<View>, SqlError> {
        let mut views = Vec::new();
        loop {
            let name = self.expect_ident()?;
            if !self.eat_keyword(Keyword::As) {
                return Err(SqlError::Parse("expected AS in WITH clause".into()));
            }
            self.expect(&Token::LParen)?;
            let query = self.parse_query_expr()?;
            self.expect(&Token::RParen)?;
            views.push(View { name, query });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(views)
    }

    /// `select_block ((UNION|INTERSECT|EXCEPT) [ALL|DISTINCT] select_block)*`
    fn parse_query_expr(&mut self) -> Result<QueryExpr, SqlError> {
        self.descend()?;
        let mut left = self.parse_query_primary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Keyword(Keyword::Union)) => SetOp::Union,
                Some(Token::Keyword(Keyword::Intersect)) => SetOp::Intersect,
                Some(Token::Keyword(Keyword::Except)) => SetOp::Except,
                _ => break,
            };
            self.pos += 1;
            self.eat_keyword(Keyword::All);
            self.eat_keyword(Keyword::Distinct);
            let right = self.parse_query_primary()?;
            left = QueryExpr::SetOp {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        self.depth -= 1;
        Ok(left)
    }

    fn parse_query_primary(&mut self) -> Result<QueryExpr, SqlError> {
        if self.eat(&Token::LParen) {
            let q = self.parse_query_expr()?;
            self.expect(&Token::RParen)?;
            return Ok(q);
        }
        self.parse_select()
    }

    fn parse_select(&mut self) -> Result<QueryExpr, SqlError> {
        if !self.eat_keyword(Keyword::Select) {
            return Err(SqlError::Parse(format!(
                "expected SELECT, found {:?}",
                self.peek()
            )));
        }
        self.eat_keyword(Keyword::Distinct);
        self.eat_keyword(Keyword::All);
        let select = self.parse_select_list()?;
        let mut from = Vec::new();
        // ON-conditions of explicit JOINs are folded into the WHERE clause:
        // only the conjunctive core matters for the hypergraph (§5.2).
        let mut join_conditions: Vec<Expr> = Vec::new();
        if self.eat_keyword(Keyword::From) {
            loop {
                from.push(self.parse_table_ref()?);
                // Explicit join chain: [INNER|LEFT|RIGHT|FULL|CROSS]
                // [OUTER] JOIN <table> [ON <expr>].
                loop {
                    let save = self.pos;
                    let has_qualifier = self.eat_keyword(Keyword::Inner)
                        || self.eat_keyword(Keyword::Left)
                        || self.eat_keyword(Keyword::Right)
                        || self.eat_keyword(Keyword::Full)
                        || self.eat_keyword(Keyword::Cross);
                    self.eat_keyword(Keyword::Outer);
                    if !self.eat_keyword(Keyword::Join) {
                        if has_qualifier {
                            return Err(SqlError::Parse(
                                "expected JOIN after join qualifier".into(),
                            ));
                        }
                        self.pos = save;
                        break;
                    }
                    from.push(self.parse_table_ref()?);
                    if self.eat_keyword(Keyword::On) {
                        join_conditions.push(self.parse_expr()?);
                    }
                }
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let mut where_clause = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        for cond in join_conditions {
            where_clause = Some(match where_clause {
                Some(w) => Expr::And(Box::new(w), Box::new(cond)),
                None => cond,
            });
        }
        // Skim trailing clauses we do not model.
        #[allow(clippy::while_let_loop)] // multi-pattern match, not a single binding
        loop {
            match self.peek() {
                Some(Token::Keyword(Keyword::Group))
                | Some(Token::Keyword(Keyword::Order))
                | Some(Token::Keyword(Keyword::Having))
                | Some(Token::Keyword(Keyword::Limit)) => {
                    self.pos += 1;
                    self.skim_until_clause_end();
                }
                _ => break,
            }
        }
        Ok(QueryExpr::Select(Box::new(SelectStmt {
            select,
            from,
            where_clause,
        })))
    }

    fn parse_select_list(&mut self) -> Result<Vec<SelectItem>, SqlError> {
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, SqlError> {
        if self.eat(&Token::Star) {
            return Ok(SelectItem::Star);
        }
        // Try `ident[.ident] [[AS] ident]` followed by `,` or FROM.
        let save = self.pos;
        if let Some(Token::Ident(first)) = self.peek().cloned() {
            self.pos += 1;
            let column = if self.eat(&Token::Dot) {
                if self.eat(&Token::Star) {
                    // t.* — treat as star.
                    return Ok(SelectItem::Star);
                }
                let col = match self.next() {
                    Some(Token::Ident(c)) => c,
                    _ => {
                        self.pos = save;
                        self.skim_select_item();
                        return Ok(SelectItem::Opaque);
                    }
                };
                ColumnRef {
                    table: Some(first),
                    column: col,
                }
            } else {
                ColumnRef {
                    table: None,
                    column: first,
                }
            };
            // Optional alias.
            let output = if self.eat_keyword(Keyword::As) {
                Some(self.expect_ident()?)
            } else if let Some(Token::Ident(alias)) = self.peek().cloned() {
                self.pos += 1;
                Some(alias)
            } else {
                None
            };
            // The item must end here; otherwise it is an expression.
            match self.peek() {
                Some(Token::Comma) | Some(Token::Keyword(Keyword::From)) | None => {
                    return Ok(SelectItem::Column { column, output });
                }
                _ => {
                    self.pos = save;
                    self.skim_select_item();
                    return Ok(SelectItem::Opaque);
                }
            }
        }
        self.skim_select_item();
        Ok(SelectItem::Opaque)
    }

    /// Skims one select-list expression (balanced parens) up to a `,` or
    /// `FROM` at depth 0.
    #[allow(clippy::while_let_loop)] // peek-then-advance reads better here
    fn skim_select_item(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            match t {
                Token::LParen => depth += 1,
                Token::RParen => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                }
                Token::Comma if depth == 0 => return,
                Token::Keyword(Keyword::From) if depth == 0 => return,
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Skims a GROUP BY / ORDER BY / HAVING / LIMIT clause body.
    fn skim_until_clause_end(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            match t {
                Token::LParen => depth += 1,
                Token::RParen => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                }
                Token::Semicolon if depth == 0 => return,
                Token::Keyword(Keyword::Union)
                | Token::Keyword(Keyword::Intersect)
                | Token::Keyword(Keyword::Except)
                | Token::Keyword(Keyword::Group)
                | Token::Keyword(Keyword::Order)
                | Token::Keyword(Keyword::Having)
                | Token::Keyword(Keyword::Limit)
                    if depth == 0 =>
                {
                    return;
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, SqlError> {
        if self.eat(&Token::LParen) {
            let query = self.parse_query_expr()?;
            self.expect(&Token::RParen)?;
            self.eat_keyword(Keyword::As);
            let alias = self.expect_ident()?;
            return Ok(TableRef::Subquery { query, alias });
        }
        let name = self.expect_ident()?;
        let alias = if self.eat_keyword(Keyword::As) {
            Some(self.expect_ident()?)
        } else if let Some(Token::Ident(a)) = self.peek().cloned() {
            self.pos += 1;
            Some(a)
        } else {
            None
        };
        Ok(TableRef::Table { name, alias })
    }

    // ---- WHERE expressions -------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, SqlError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_and()?;
        while self.eat_keyword(Keyword::Or) {
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_not()?;
        while self.eat_keyword(Keyword::And) {
            let right = self.parse_not()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, SqlError> {
        self.descend()?;
        let expr = if self.eat_keyword(Keyword::Not) {
            Expr::Not(Box::new(self.parse_not()?))
        } else {
            self.parse_predicate()?
        };
        self.depth -= 1;
        Ok(expr)
    }

    fn parse_predicate(&mut self) -> Result<Expr, SqlError> {
        // EXISTS (query)
        if self.eat_keyword(Keyword::Exists) {
            self.expect(&Token::LParen)?;
            let query = self.parse_query_expr()?;
            self.expect(&Token::RParen)?;
            return Ok(Expr::Exists {
                query,
                negated: false,
            });
        }
        // Parenthesized boolean expression (not a subquery).
        if self.peek() == Some(&Token::LParen)
            && !matches!(
                self.peek2(),
                Some(Token::Keyword(Keyword::Select)) | Some(Token::Keyword(Keyword::With))
            )
        {
            self.pos += 1;
            let e = self.parse_expr()?;
            self.expect(&Token::RParen)?;
            return Ok(e);
        }

        let left = self.parse_scalar()?;
        // Optional NOT before IN/BETWEEN/LIKE.
        let negated = self.eat_keyword(Keyword::Not);

        match self.peek() {
            Some(Token::Op(op)) if !negated => {
                let op = *op;
                self.pos += 1;
                // Right side may itself be a scalar or a scalar subquery.
                if self.peek() == Some(&Token::LParen)
                    && matches!(self.peek2(), Some(Token::Keyword(Keyword::Select)))
                {
                    self.pos += 1;
                    let query = self.parse_query_expr()?;
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::InQuery {
                        scalar: left,
                        query,
                        negated: false,
                    });
                }
                let right = self.parse_scalar()?;
                Ok(Expr::Cmp { op, left, right })
            }
            Some(Token::Keyword(Keyword::In)) => {
                self.pos += 1;
                self.expect(&Token::LParen)?;
                if matches!(
                    self.peek(),
                    Some(Token::Keyword(Keyword::Select)) | Some(Token::Keyword(Keyword::With))
                ) {
                    let query = self.parse_query_expr()?;
                    self.expect(&Token::RParen)?;
                    Ok(Expr::InQuery {
                        scalar: left,
                        query,
                        negated,
                    })
                } else {
                    self.skim_balanced_until_rparen()?;
                    Ok(Expr::InList {
                        scalar: left,
                        negated,
                    })
                }
            }
            Some(Token::Keyword(Keyword::Between)) => {
                self.pos += 1;
                let _lo = self.parse_scalar()?;
                if !self.eat_keyword(Keyword::And) {
                    return Err(SqlError::Parse("expected AND in BETWEEN".into()));
                }
                let _hi = self.parse_scalar()?;
                Ok(Expr::Opaque)
            }
            Some(Token::Keyword(Keyword::Like)) => {
                self.pos += 1;
                let _pattern = self.parse_scalar()?;
                Ok(Expr::Opaque)
            }
            Some(Token::Keyword(Keyword::Is)) => {
                self.pos += 1;
                self.eat_keyword(Keyword::Not);
                if !self.eat_keyword(Keyword::Null) {
                    return Err(SqlError::Parse("expected NULL after IS".into()));
                }
                Ok(Expr::Opaque)
            }
            _ => Err(SqlError::Parse(format!(
                "expected predicate operator, found {:?}",
                self.peek()
            ))),
        }
    }

    fn parse_scalar(&mut self) -> Result<Scalar, SqlError> {
        match self.peek().cloned() {
            Some(Token::Number(n)) => {
                self.pos += 1;
                Ok(Scalar::Const(n))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Scalar::Const(s))
            }
            Some(Token::Ident(first)) => {
                self.pos += 1;
                // Function call → opaque (skim args).
                if self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    self.skim_balanced_until_rparen()?;
                    return Ok(Scalar::Opaque);
                }
                if self.eat(&Token::Dot) {
                    let col = self.expect_ident()?;
                    Ok(Scalar::Column(ColumnRef {
                        table: Some(first),
                        column: col,
                    }))
                } else {
                    Ok(Scalar::Column(ColumnRef {
                        table: None,
                        column: first,
                    }))
                }
            }
            Some(Token::Keyword(Keyword::Null)) => {
                self.pos += 1;
                Ok(Scalar::Opaque)
            }
            other => Err(SqlError::Parse(format!("expected scalar, found {other:?}"))),
        }
    }

    /// Skims tokens with balanced parens until (and including) the matching
    /// `)` of an already-consumed `(`.
    fn skim_balanced_until_rparen(&mut self) -> Result<(), SqlError> {
        let mut depth = 1usize;
        while let Some(t) = self.next() {
            match t {
                Token::LParen => depth += 1,
                Token::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                _ => {}
            }
        }
        Err(SqlError::Parse("unbalanced parentheses".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::CmpOp;

    fn select_of(stmt: &Statement) -> &SelectStmt {
        match &stmt.query {
            QueryExpr::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn paper_query_1() {
        // Listing 1 of the paper.
        let stmt = parse(
            "SELECT * FROM tab t1, tab t2 \
             WHERE t1.a = t2.a AND t1.b > 5 AND t1.c <> t2.c;",
        )
        .unwrap();
        let s = select_of(&stmt);
        assert_eq!(s.from.len(), 2);
        let conj = s.where_clause.as_ref().unwrap().conjuncts().len();
        assert_eq!(conj, 3);
    }

    #[test]
    fn paper_query_2_subqueries() {
        // Listing 2 of the paper: IN-subquery and correlated EXISTS.
        let stmt = parse(
            "SELECT * FROM tab t1, tab t2 WHERE t1.a = t2.a \
             AND t1.b IN (SELECT tab.b FROM tab WHERE tab.c == 'ok') \
             AND EXISTS (SELECT * FROM differentTable dt WHERE dt.a = t1.a);",
        )
        .unwrap();
        let s = select_of(&stmt);
        let conjuncts = s.where_clause.as_ref().unwrap().conjuncts();
        assert_eq!(conjuncts.len(), 3);
        assert!(matches!(conjuncts[1], Expr::InQuery { .. }));
        assert!(matches!(conjuncts[2], Expr::Exists { .. }));
    }

    #[test]
    fn paper_query_3_with_view() {
        let stmt = parse(
            "WITH crossView AS ( \
               SELECT t1.a a1, t1.c c1, t2.a a2, t2.c c2 \
               FROM tab t1, tab t2 WHERE t1.b = t2.b ) \
             SELECT * FROM tab t1, tab t2, crossView cr \
             WHERE t1.a = cr.a1 AND t1.c = cr.a2 AND t2.a = cr.c1 AND t2.c = cr.c2;",
        )
        .unwrap();
        assert_eq!(stmt.views.len(), 1);
        assert_eq!(stmt.views[0].name, "crossView");
        let s = select_of(&stmt);
        assert_eq!(s.from.len(), 3);
    }

    #[test]
    fn set_operations() {
        let stmt = parse("SELECT * FROM a UNION SELECT * FROM b EXCEPT SELECT * FROM c").unwrap();
        match &stmt.query {
            QueryExpr::SetOp { op, .. } => assert_eq!(*op, SetOp::Except),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn derived_table() {
        let stmt =
            parse("SELECT * FROM (SELECT * FROM t WHERE t.x = 1) d, u WHERE d.a = u.a").unwrap();
        let s = select_of(&stmt);
        assert!(matches!(&s.from[0], TableRef::Subquery { alias, .. } if alias == "d"));
    }

    #[test]
    fn group_order_limit_skimmed() {
        let stmt = parse(
            "SELECT t.a, count(t.b) FROM t WHERE t.a = t.b \
             GROUP BY t.a HAVING count(t.b) > 3 ORDER BY t.a LIMIT 10",
        )
        .unwrap();
        let s = select_of(&stmt);
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn select_list_aliases() {
        let stmt = parse("SELECT t.a AS x, t.b y, * FROM t").unwrap();
        let s = select_of(&stmt);
        assert_eq!(s.select.len(), 3);
        assert!(matches!(
            &s.select[0],
            SelectItem::Column { output: Some(o), .. } if o == "x"
        ));
        assert!(matches!(
            &s.select[1],
            SelectItem::Column { output: Some(o), .. } if o == "y"
        ));
        assert!(matches!(&s.select[2], SelectItem::Star));
    }

    #[test]
    fn between_and_like_are_opaque() {
        let stmt = parse(
            "SELECT * FROM t WHERE t.a BETWEEN 1 AND 5 AND t.b LIKE 'x%' AND t.c IS NOT NULL",
        )
        .unwrap();
        let s = select_of(&stmt);
        let conj = s.where_clause.as_ref().unwrap().conjuncts();
        assert_eq!(conj.len(), 3);
        assert!(conj.iter().all(|e| matches!(e, Expr::Opaque)));
    }

    #[test]
    fn in_list_is_constant_restriction() {
        let stmt = parse("SELECT * FROM t WHERE t.a IN (1, 2, 3)").unwrap();
        let s = select_of(&stmt);
        assert!(matches!(
            s.where_clause.as_ref().unwrap(),
            Expr::InList { negated: false, .. }
        ));
    }

    #[test]
    fn not_in_subquery() {
        let stmt = parse("SELECT * FROM t WHERE t.a NOT IN (SELECT u.a FROM u)").unwrap();
        let s = select_of(&stmt);
        assert!(matches!(
            s.where_clause.as_ref().unwrap(),
            Expr::InQuery { negated: true, .. }
        ));
    }

    #[test]
    fn comparisons_all_ops() {
        let stmt =
            parse("SELECT * FROM t WHERE t.a = 1 AND t.b <> 2 AND t.c <= 3 OR t.d > 4").unwrap();
        let s = select_of(&stmt);
        match s.where_clause.as_ref().unwrap() {
            Expr::Or(l, _) => {
                let conj = l.conjuncts();
                assert_eq!(conj.len(), 3);
                assert!(matches!(conj[0], Expr::Cmp { op: CmpOp::Eq, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nesting_is_capped_with_a_parse_error() {
        let parens = |n: usize| {
            format!(
                "SELECT a FROM t WHERE {}a = 1{}",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        let nots = |n: usize| format!("SELECT a FROM t WHERE {}a = 1", "NOT ".repeat(n));
        let derived = |n: usize| {
            format!(
                "{}SELECT a FROM t{}",
                "SELECT a FROM (".repeat(n),
                ") x".repeat(n)
            )
        };
        for statement in [parens(100), nots(100), derived(100)] {
            assert!(parse(&statement).is_ok(), "{statement}");
        }
        // 10⁴ of any of these overflowed a 2 MiB stack before the cap.
        for statement in [parens(10_000), nots(10_000), derived(10_000)] {
            match parse(&statement) {
                Err(SqlError::Parse(why)) => {
                    assert!(why.contains("nests deeper than 128 levels"), "{why}")
                }
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("SELECT * FROM t; extra").is_err());
    }

    #[test]
    fn explicit_joins_fold_into_where() {
        let stmt = parse(
            "SELECT * FROM a JOIN b ON a.x = b.x \
             INNER JOIN c ON b.y = c.y LEFT OUTER JOIN d ON c.z = d.z",
        )
        .unwrap();
        let s = select_of(&stmt);
        assert_eq!(s.from.len(), 4);
        let conj = s.where_clause.as_ref().unwrap().conjuncts().len();
        assert_eq!(conj, 3);
    }

    #[test]
    fn mixed_comma_and_join() {
        let stmt = parse("SELECT * FROM a, b JOIN c ON b.x = c.x WHERE a.y = b.y").unwrap();
        let s = select_of(&stmt);
        assert_eq!(s.from.len(), 3);
        // WHERE condition plus the ON condition.
        assert_eq!(s.where_clause.as_ref().unwrap().conjuncts().len(), 2);
    }

    #[test]
    fn cross_join_without_on() {
        let stmt = parse("SELECT * FROM a CROSS JOIN b").unwrap();
        let s = select_of(&stmt);
        assert_eq!(s.from.len(), 2);
        assert!(s.where_clause.is_none());
    }

    #[test]
    fn join_with_derived_table() {
        let stmt = parse("SELECT * FROM a JOIN (SELECT t.x FROM t) d ON a.x = d.x").unwrap();
        let s = select_of(&stmt);
        assert_eq!(s.from.len(), 2);
        assert!(matches!(&s.from[1], TableRef::Subquery { .. }));
    }

    #[test]
    fn scalar_subquery_comparison() {
        let stmt = parse("SELECT * FROM t WHERE t.a = (SELECT max(u.a) FROM u)").unwrap();
        let s = select_of(&stmt);
        assert!(matches!(
            s.where_clause.as_ref().unwrap(),
            Expr::InQuery { .. }
        ));
    }
}
