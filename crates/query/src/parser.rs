//! The HBQL recursive-descent parser with Pratt-style precedence
//! climbing for `WHERE` expressions.
//!
//! Grammar (EBNF, keywords case-insensitive):
//!
//! ```text
//! query      = "SELECT" select-list [ where ] [ group ] [ order ] [ limit ] ;
//! select-list= "*" | item { "," item } ;
//! item       = field
//!            | "COUNT" "(" "*" ")"
//!            | ( "MIN" | "MAX" | "AVG" ) "(" field ")" ;
//! where      = "WHERE" expr ;
//! expr       = and-expr { "OR" and-expr } ;
//! and-expr   = not-expr { "AND" not-expr } ;
//! not-expr   = "NOT" not-expr | primary ;
//! primary    = "(" expr ")" | field op literal ;
//! op         = "=" | "!=" | "<>" | "<" | "<=" | ">" | ">=" ;
//! literal    = integer | string | "TRUE" | "FALSE" ;
//! group      = "GROUP" "BY" field ;
//! order      = "ORDER" "BY" key { "," key } ;
//! key        = field [ "ASC" | "DESC" ] ;
//! limit      = "LIMIT" integer ;
//! field      = identifier ;
//! ```

use crate::ast::{
    CmpOp, Expr, FieldRef, Literal, OrderKey, Query, Select, SelectItem, SelectItemKind,
};
use crate::error::QueryError;
use crate::token::{lex, Token, TokenKind};

/// Deepest nesting of `NOT`s and parentheses a `WHERE` expression may
/// have. The parser, the resolver, the executor and the tree's `Drop`
/// all recurse as deep as the expression, which is the client's to
/// choose; past this a query is refused like any other bad query.
pub const MAX_DEPTH: usize = 128;

/// Parses one HBQL query.
pub fn parse(text: &str) -> Result<Query, QueryError> {
    let tokens = lex(text)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let query = p.query()?;
    let t = p.peek();
    if t.kind != TokenKind::Eof {
        return Err(QueryError::new(
            format!("expected end of query, found {}", t.kind.describe()),
            t.span,
        ));
    }
    Ok(query)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// `not_expr` calls on the stack: every `NOT` and every parenthesis
    /// nests one.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn next(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// Consumes the next token if it matches `kind`.
    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, QueryError> {
        let t = self.peek().clone();
        if t.kind == kind {
            Ok(self.next())
        } else {
            Err(QueryError::new(
                format!("expected {}, found {}", kind.describe(), t.kind.describe()),
                t.span,
            ))
        }
    }

    fn field(&mut self) -> Result<FieldRef, QueryError> {
        let t = self.peek().clone();
        match t.kind {
            TokenKind::Ident(name) => {
                self.next();
                Ok(FieldRef { name, span: t.span })
            }
            other => Err(QueryError::new(
                format!("expected a field name, found {}", other.describe()),
                t.span,
            )),
        }
    }

    fn query(&mut self) -> Result<Query, QueryError> {
        self.expect(TokenKind::Select)?;
        let select = self.select_list()?;
        let filter = if self.eat(&TokenKind::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        let group_by = if self.eat(&TokenKind::Group) {
            self.expect(TokenKind::By)?;
            Some(self.field()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat(&TokenKind::Order) {
            self.expect(TokenKind::By)?;
            loop {
                let field = self.field()?;
                let desc = if self.eat(&TokenKind::Desc) {
                    true
                } else {
                    self.eat(&TokenKind::Asc);
                    false
                };
                order_by.push(OrderKey { field, desc });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat(&TokenKind::Limit) {
            let t = self.peek().clone();
            match t.kind {
                TokenKind::Int(n) => {
                    self.next();
                    Some(n as u64)
                }
                other => {
                    return Err(QueryError::new(
                        format!(
                            "expected an integer after LIMIT, found {}",
                            other.describe()
                        ),
                        t.span,
                    ))
                }
            }
        } else {
            None
        };
        Ok(Query {
            select,
            filter,
            group_by,
            order_by,
            limit,
        })
    }

    fn select_list(&mut self) -> Result<Select, QueryError> {
        if self.eat(&TokenKind::Star) {
            return Ok(Select::Rows);
        }
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Select::Items(items))
    }

    fn select_item(&mut self) -> Result<SelectItem, QueryError> {
        let t = self.peek().clone();
        let start = t.span;
        let kind = match t.kind {
            TokenKind::Count => {
                self.next();
                self.expect(TokenKind::LParen)?;
                self.expect(TokenKind::Star)?;
                let close = self.expect(TokenKind::RParen)?;
                return Ok(SelectItem {
                    kind: SelectItemKind::Count,
                    span: start.to(close.span),
                });
            }
            TokenKind::Min | TokenKind::Max | TokenKind::Avg => {
                let agg = self.next().kind;
                self.expect(TokenKind::LParen)?;
                let field = self.field()?;
                let close = self.expect(TokenKind::RParen)?;
                let kind = match agg {
                    TokenKind::Min => SelectItemKind::Min(field.name),
                    TokenKind::Max => SelectItemKind::Max(field.name),
                    _ => SelectItemKind::Avg(field.name),
                };
                return Ok(SelectItem {
                    kind,
                    span: start.to(close.span),
                });
            }
            TokenKind::Ident(name) => {
                self.next();
                SelectItemKind::Column(name)
            }
            other => {
                return Err(QueryError::new(
                    format!(
                        "expected `*`, a field name, or an aggregate, found {}",
                        other.describe()
                    ),
                    t.span,
                ))
            }
        };
        Ok(SelectItem { kind, span: start })
    }

    fn expr(&mut self) -> Result<Expr, QueryError> {
        let mut left = self.and_expr()?;
        while self.eat(&TokenKind::Or) {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, QueryError> {
        let mut left = self.not_expr()?;
        while self.eat(&TokenKind::And) {
            let right = self.not_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, QueryError> {
        if self.depth == MAX_DEPTH {
            return Err(QueryError::new(
                format!("expression nests deeper than {MAX_DEPTH} levels"),
                self.peek().span,
            ));
        }
        self.depth += 1;
        let expr = if self.eat(&TokenKind::Not) {
            Expr::Not(Box::new(self.not_expr()?))
        } else {
            self.primary()?
        };
        self.depth -= 1;
        Ok(expr)
    }

    fn primary(&mut self) -> Result<Expr, QueryError> {
        if self.eat(&TokenKind::LParen) {
            let inner = self.expr()?;
            self.expect(TokenKind::RParen)?;
            return Ok(inner);
        }
        let field = self.field()?;
        let t = self.next();
        let op = match t.kind {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            other => {
                return Err(QueryError::new(
                    format!("expected a comparison operator, found {}", other.describe()),
                    t.span,
                ))
            }
        };
        let t = self.next();
        let value = match t.kind {
            TokenKind::Int(n) => Literal::Int(n),
            TokenKind::Str(s) => Literal::Str(s),
            TokenKind::True => Literal::Bool(true),
            TokenKind::False => Literal::Bool(false),
            other => {
                return Err(QueryError::new(
                    format!(
                        "expected an integer, string, TRUE, or FALSE, found {}",
                        other.describe()
                    ),
                    t.span,
                ))
            }
        };
        Ok(Expr::Cmp {
            field,
            op,
            value,
            value_span: t.span,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> String {
        parse(text).unwrap().to_string()
    }

    #[test]
    fn parses_rows_query_with_all_clauses() {
        let q = parse(
            "select * where (class = 'CSP' or class = 'SPARQL') and hw_upper <= 5 \
             order by edges desc, id limit 20",
        )
        .unwrap();
        assert_eq!(q.select, Select::Rows);
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].desc);
        assert!(!q.order_by[1].desc);
        assert_eq!(q.limit, Some(20));
        assert_eq!(
            q.to_string(),
            "SELECT * WHERE (class = \"CSP\" OR class = \"SPARQL\") AND hw_upper <= 5 \
             ORDER BY edges DESC, id LIMIT 20"
        );
    }

    #[test]
    fn parses_aggregates_with_group_by() {
        let q = parse("SELECT collection, COUNT(*), AVG(arity) GROUP BY collection").unwrap();
        match &q.select {
            Select::Items(items) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[0].kind, SelectItemKind::Column("collection".into()));
                assert_eq!(items[1].kind, SelectItemKind::Count);
                assert_eq!(items[2].kind, SelectItemKind::Avg("arity".into()));
            }
            other => panic!("unexpected select: {other:?}"),
        }
        assert_eq!(q.group_by.as_ref().unwrap().name, "collection");
    }

    #[test]
    fn printing_is_canonical_and_stable() {
        assert_eq!(
            roundtrip("select * where not cyclic = true"),
            "SELECT * WHERE NOT cyclic = TRUE"
        );
        // `<>` canonicalizes to `!=`, ASC is implied.
        assert_eq!(
            roundtrip("SELECT * WHERE class <> 'x' ORDER BY id ASC"),
            "SELECT * WHERE class != \"x\" ORDER BY id"
        );
        // Right-nested AND keeps its parentheses; left-nested drops them.
        let canonical = "SELECT * WHERE edges > 1 AND (edges > 2 AND edges > 3)";
        assert_eq!(roundtrip(canonical), canonical);
        assert_eq!(
            roundtrip("SELECT * WHERE (edges > 1 AND edges > 2) AND edges > 3"),
            "SELECT * WHERE edges > 1 AND edges > 2 AND edges > 3"
        );
    }

    #[test]
    fn precedence_binds_and_tighter_than_or() {
        let q = parse("SELECT * WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        match q.filter.unwrap() {
            Expr::Or(l, r) => {
                assert!(matches!(*l, Expr::Cmp { .. }));
                assert!(matches!(*r, Expr::And(..)));
            }
            other => panic!("unexpected tree: {other:?}"),
        }
    }

    #[test]
    fn errors_carry_spans_pointing_at_the_offender() {
        let text = "SELECT * WHERE edges <= AND";
        let e = parse(text).unwrap_err();
        assert_eq!(&text[e.span.start..e.span.end], "AND");
        assert!(parse("SELECT").is_err());
        assert!(parse("SELECT * WHERE").is_err());
        assert!(parse("SELECT * LIMIT x").is_err());
        assert!(parse("SELECT * garbage").is_err());
        assert!(parse("SELECT COUNT(edges)").is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_spanned_error() {
        let parens =
            |n: usize| format!("SELECT * WHERE {}edges = 1{}", "(".repeat(n), ")".repeat(n));
        let nots = |n: usize| format!("SELECT * WHERE {}edges = 1", "NOT ".repeat(n));
        // The comparison itself sits one level below its wrappers.
        assert!(parse(&parens(MAX_DEPTH - 1)).is_ok());
        assert!(parse(&nots(MAX_DEPTH - 1)).is_ok());
        // 10⁴ of either overflowed a 2 MiB stack before the cap.
        for text in [
            parens(MAX_DEPTH),
            nots(MAX_DEPTH),
            parens(10_000),
            nots(10_000),
        ] {
            let e = parse(&text).unwrap_err();
            assert!(e.message.contains("nests deeper than 128 levels"), "{e:?}");
            // The span is the token that would have nested too deep.
            let offender = &text[e.span.start..e.span.end];
            assert!(matches!(offender, "edges" | "(" | "NOT"), "{offender}");
        }
    }
}
