//! The HBQL resolver: names and types checked against the
//! [`crate::catalog`], producing an executable [`Plan`].

use crate::ast::{CmpOp, Expr, FieldRef, Literal, Query, Select, SelectItemKind};
use crate::catalog::{self, Field, FieldType};
use crate::error::QueryError;
use crate::token::Span;

/// A type-checked, name-resolved query, ready to execute.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) filter: Option<Pred>,
    pub(crate) shape: Shape,
    pub(crate) limit: Option<u64>,
}

/// A resolved predicate: each comparison compiled for its field's type
/// (only integers order; strings and booleans test for equality).
#[derive(Debug, Clone)]
pub(crate) enum Pred {
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
    /// `field op value` on an integer field.
    Int {
        field: Field,
        op: CmpOp,
        value: i64,
    },
    /// `field = value` (`eq`) or `field != value` on a string field.
    Str {
        field: Field,
        eq: bool,
        value: String,
    },
    /// `field = value` (`eq`) or `field != value` on a boolean field.
    Bool {
        field: Field,
        eq: bool,
        value: bool,
    },
}

/// What the plan produces.
#[derive(Debug, Clone)]
pub(crate) enum Shape {
    /// Entry-summary rows, optionally sorted by `(field, desc)` keys.
    Rows { order: Vec<(Field, bool)> },
    /// Aggregate groups.
    Groups {
        /// The grouping field, or `None` for one global group.
        key: Option<Field>,
        /// The select list, in order.
        items: Vec<AggItem>,
    },
}

/// One resolved aggregate-select entry.
#[derive(Debug, Clone)]
pub(crate) enum AggItem {
    /// The group key column.
    Key,
    /// `COUNT(*)`.
    Count,
    /// `MIN(field)`.
    Min(Field),
    /// `MAX(field)`.
    Max(Field),
    /// `AVG(field)`.
    Avg(Field),
}

impl Plan {
    /// Whether this plan aggregates (vs. returning rows).
    pub fn is_aggregate(&self) -> bool {
        matches!(self.shape, Shape::Groups { .. })
    }

    /// Whether a rows plan carries an `ORDER BY` (which disables keyset
    /// cursors — the sort order is no longer the id order cursors walk).
    pub fn has_order(&self) -> bool {
        matches!(&self.shape, Shape::Rows { order } if !order.is_empty())
    }

    /// The query's `LIMIT`, when present.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }
}

fn unknown_field(f: &FieldRef) -> QueryError {
    QueryError::new(
        format!(
            "unknown field {:?}; valid fields are: {}",
            f.name,
            catalog::field_names()
        ),
        f.span,
    )
}

fn resolve_field(f: &FieldRef) -> Result<Field, QueryError> {
    catalog::lookup(&f.name).ok_or_else(|| unknown_field(f))
}

fn resolve_expr(e: &Expr) -> Result<Pred, QueryError> {
    match e {
        Expr::And(l, r) => Ok(Pred::And(
            Box::new(resolve_expr(l)?),
            Box::new(resolve_expr(r)?),
        )),
        Expr::Or(l, r) => Ok(Pred::Or(
            Box::new(resolve_expr(l)?),
            Box::new(resolve_expr(r)?),
        )),
        Expr::Not(inner) => Ok(Pred::Not(Box::new(resolve_expr(inner)?))),
        Expr::Cmp {
            field,
            op,
            value,
            value_span,
        } => {
            let resolved = resolve_field(field)?;
            let ty = resolved.ty();
            let value_ty = match value {
                Literal::Int(_) => FieldType::Int,
                Literal::Str(_) => FieldType::Str,
                Literal::Bool(_) => FieldType::Bool,
            };
            if ty != value_ty {
                return Err(QueryError::new(
                    format!(
                        "field {:?} is {}, but the literal is {}",
                        field.name,
                        ty.as_str(),
                        value_ty.as_str()
                    ),
                    *value_span,
                ));
            }
            if op.is_ordering() && ty != FieldType::Int {
                return Err(QueryError::new(
                    format!(
                        "ordering comparison {:?} requires an integer field, but {:?} is {}",
                        op.as_str(),
                        field.name,
                        ty.as_str()
                    ),
                    field.span,
                ));
            }
            let eq = *op == CmpOp::Eq;
            Ok(match value {
                Literal::Int(value) => Pred::Int {
                    field: resolved,
                    op: *op,
                    value: *value,
                },
                Literal::Str(value) => Pred::Str {
                    field: resolved,
                    eq,
                    value: value.clone(),
                },
                Literal::Bool(value) => Pred::Bool {
                    field: resolved,
                    eq,
                    value: *value,
                },
            })
        }
    }
}

/// Resolves a parsed query against the catalog.
pub fn resolve(query: &Query) -> Result<Plan, QueryError> {
    let filter = query.filter.as_ref().map(resolve_expr).transpose()?;

    let group_key = match &query.group_by {
        None => None,
        Some(f) => {
            let key = resolve_field(f)?;
            if key.ty() != FieldType::Str {
                return Err(QueryError::new(
                    format!(
                        "GROUP BY {:?} is not supported; group by \"collection\" or \"class\"",
                        f.name
                    ),
                    f.span,
                ));
            }
            Some(key)
        }
    };

    let shape = match &query.select {
        Select::Rows => {
            if let Some(f) = &query.group_by {
                return Err(QueryError::new(
                    "SELECT * cannot be combined with GROUP BY; select the group key and aggregates instead",
                    f.span,
                ));
            }
            let mut order = Vec::new();
            for key in &query.order_by {
                order.push((resolve_field(&key.field)?, key.desc));
            }
            Shape::Rows { order }
        }
        Select::Items(items) => {
            if let Some(key) = query.order_by.first() {
                return Err(QueryError::new(
                    "ORDER BY is not supported in aggregate queries; groups are returned in ascending key order",
                    key.field.span,
                ));
            }
            let mut resolved = Vec::new();
            for item in items {
                let agg_field = |name: &str| -> Result<Field, QueryError> {
                    let field = catalog::lookup(name).ok_or_else(|| {
                        unknown_field(&FieldRef {
                            name: name.to_string(),
                            span: item.span,
                        })
                    })?;
                    if field.ty() != FieldType::Int {
                        return Err(QueryError::new(
                            format!(
                                "aggregates require an integer field, but {:?} is {}",
                                name,
                                field.ty().as_str()
                            ),
                            item.span,
                        ));
                    }
                    Ok(field)
                };
                resolved.push(match &item.kind {
                    SelectItemKind::Count => AggItem::Count,
                    SelectItemKind::Min(f) => AggItem::Min(agg_field(f)?),
                    SelectItemKind::Max(f) => AggItem::Max(agg_field(f)?),
                    SelectItemKind::Avg(f) => AggItem::Avg(agg_field(f)?),
                    SelectItemKind::Column(name) => {
                        let field = catalog::lookup(name).ok_or_else(|| {
                            unknown_field(&FieldRef {
                                name: name.clone(),
                                span: item.span,
                            })
                        })?;
                        match group_key {
                            Some(key) if key == field => AggItem::Key,
                            Some(_) => {
                                return Err(QueryError::new(
                                    format!(
                                        "bare field {name:?} in the select list must be the GROUP BY key"
                                    ),
                                    item.span,
                                ))
                            }
                            None => {
                                return Err(QueryError::new(
                                    format!(
                                        "bare field {name:?} requires GROUP BY {name}; \
                                         use SELECT * for rows"
                                    ),
                                    item.span,
                                ))
                            }
                        }
                    }
                });
            }
            Shape::Groups {
                key: group_key,
                items: resolved,
            }
        }
    };

    if let Some(0) = query.limit {
        return Err(QueryError::new("LIMIT must be at least 1", Span::default()));
    }

    Ok(Plan {
        filter,
        shape,
        limit: query.limit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn plan(text: &str) -> Result<Plan, QueryError> {
        resolve(&parse(text)?)
    }

    #[test]
    fn accepts_well_typed_queries() {
        assert!(!plan("SELECT * WHERE hw_upper <= 5").unwrap().is_aggregate());
        assert!(plan("SELECT COUNT(*)").unwrap().is_aggregate());
        assert!(
            plan("SELECT collection, COUNT(*), AVG(arity) GROUP BY collection")
                .unwrap()
                .is_aggregate()
        );
        assert!(plan("SELECT * ORDER BY edges DESC").unwrap().has_order());
        assert!(!plan("SELECT * ORDER BY edges DESC").unwrap().is_aggregate());
    }

    #[test]
    fn rejects_unknown_fields_with_the_catalog_listing() {
        let text = "SELECT * WHERE hw <= 5";
        let e = plan(text).unwrap_err();
        assert_eq!(&text[e.span.start..e.span.end], "hw");
        assert!(
            e.message.contains("hw_upper"),
            "lists fields: {}",
            e.message
        );
    }

    #[test]
    fn rejects_type_mismatches_with_value_spans() {
        let text = "SELECT * WHERE edges = \"many\"";
        let e = plan(text).unwrap_err();
        assert_eq!(&text[e.span.start..e.span.end], "\"many\"");
        assert!(plan("SELECT * WHERE class < \"x\"").is_err());
        assert!(plan("SELECT * WHERE analyzed = 1").is_err());
        assert!(plan("SELECT * WHERE cyclic > TRUE").is_err());
    }

    #[test]
    fn rejects_bad_aggregate_shapes() {
        assert!(plan("SELECT * GROUP BY collection").is_err());
        assert!(plan("SELECT COUNT(*) GROUP BY edges").is_err());
        assert!(plan("SELECT class, COUNT(*) GROUP BY collection").is_err());
        assert!(plan("SELECT edges").is_err());
        assert!(plan("SELECT MIN(class)").is_err());
        assert!(plan("SELECT COUNT(*) ORDER BY edges").is_err());
        assert!(plan("SELECT * LIMIT 0").is_err());
    }
}
