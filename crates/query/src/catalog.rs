//! The field catalog: the one table tying HBQL names to wire schema
//! constants and to the `EntryMeta` index.
//!
//! Every queryable field is a [`hyperbench_api::schema`] constant, so
//! the wire DTOs, the store columns, and the query language share one
//! vocabulary — renaming a field is a compile-error sweep, not a silent
//! drift. Every field here is resolvable from [`EntryMeta`] alone,
//! which is what lets the executor run without hydrating pack pages.

use hyperbench_api::schema;
use hyperbench_repo::EntryMeta;

/// The type of a queryable field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// Non-negative integer (counts, bounds, sizes).
    Int,
    /// String (collection / class labels).
    Str,
    /// Boolean flag.
    Bool,
}

impl FieldType {
    /// Human-readable name for error messages.
    pub fn as_str(&self) -> &'static str {
        match self {
            FieldType::Int => "integer",
            FieldType::Str => "string",
            FieldType::Bool => "boolean",
        }
    }
}

/// A queryable field. The declaration order is the catalog's
/// documentation order, and a field's discriminant is its row in
/// [`FIELDS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    Id,
    Collection,
    Class,
    Vertices,
    Edges,
    Arity,
    Degree,
    Bip,
    Bmip3,
    Bmip4,
    VcDim,
    HwUpper,
    HwLower,
    Analyzed,
    Cyclic,
    HwTimedOut,
}

impl Field {
    /// The field's catalog row.
    pub fn def(self) -> &'static FieldDef {
        &FIELDS[self as usize]
    }

    /// The field name (a `schema` constant).
    pub fn name(self) -> &'static str {
        self.def().name
    }

    /// The field's type.
    pub fn ty(self) -> FieldType {
        self.def().ty
    }
}

/// One catalog row.
#[derive(Debug, Clone, Copy)]
pub struct FieldDef {
    /// The field this row describes.
    pub field: Field,
    /// The field name (a `schema` constant).
    pub name: &'static str,
    /// The field's type.
    pub ty: FieldType,
}

const fn def(field: Field, name: &'static str, ty: FieldType) -> FieldDef {
    FieldDef { field, name, ty }
}

/// Every queryable field, in documentation order: row `i` describes
/// the [`Field`] whose discriminant is `i`.
pub const FIELDS: [FieldDef; 16] = [
    def(Field::Id, schema::ID, FieldType::Int),
    def(Field::Collection, schema::COLLECTION, FieldType::Str),
    def(Field::Class, schema::CLASS, FieldType::Str),
    def(Field::Vertices, schema::VERTICES, FieldType::Int),
    def(Field::Edges, schema::EDGES, FieldType::Int),
    def(Field::Arity, schema::ARITY, FieldType::Int),
    def(Field::Degree, schema::DEGREE, FieldType::Int),
    def(Field::Bip, schema::BIP, FieldType::Int),
    def(Field::Bmip3, schema::BMIP3, FieldType::Int),
    def(Field::Bmip4, schema::BMIP4, FieldType::Int),
    def(Field::VcDim, schema::VC_DIM, FieldType::Int),
    def(Field::HwUpper, schema::HW_UPPER, FieldType::Int),
    def(Field::HwLower, schema::HW_LOWER, FieldType::Int),
    def(Field::Analyzed, schema::ANALYZED, FieldType::Bool),
    def(Field::Cyclic, schema::CYCLIC, FieldType::Bool),
    def(Field::HwTimedOut, schema::HW_TIMED_OUT, FieldType::Bool),
];

/// Looks a field up by name.
pub fn lookup(name: &str) -> Option<Field> {
    FIELDS.iter().find(|f| f.name == name).map(|f| f.field)
}

/// The comma-joined field names, for "valid fields are …" error
/// messages.
pub fn field_names() -> String {
    FIELDS.iter().map(|f| f.name).collect::<Vec<_>>().join(", ")
}

/// A field's value on one entry. `None` means the value is absent —
/// analysis-dependent fields on unanalyzed entries, or bounds the
/// analyzer could not certify (`vc_dim` / `hw_upper` timeouts). Every
/// comparison against an absent value is false, mirroring
/// `Filter::matches_meta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue<'a> {
    /// An integer value.
    Int(i64),
    /// A string value.
    Str(&'a str),
    /// A boolean value.
    Bool(bool),
}

/// Evaluates `field` on `meta`, without hydrating the entry.
#[inline]
pub fn value_of<'a>(meta: &EntryMeta<'a>, field: Field) -> Option<FieldValue<'a>> {
    let int = |v: usize| Some(FieldValue::Int(v as i64));
    let rec = meta.analysis;
    match field {
        Field::Id => int(meta.id),
        Field::Collection => Some(FieldValue::Str(meta.collection)),
        Field::Class => Some(FieldValue::Str(meta.class)),
        Field::Vertices => int(meta.vertices),
        Field::Edges => int(meta.edges),
        Field::Arity => int(meta.arity),
        Field::Analyzed => Some(FieldValue::Bool(rec.is_some())),
        Field::Degree => rec.and_then(|r| int(r.properties.degree)),
        Field::Bip => rec.and_then(|r| int(r.properties.bip)),
        Field::Bmip3 => rec.and_then(|r| int(r.properties.bmip3)),
        Field::Bmip4 => rec.and_then(|r| int(r.properties.bmip4)),
        Field::VcDim => rec.and_then(|r| r.properties.vc_dim).and_then(int),
        Field::HwUpper => rec.and_then(|r| r.hw_upper).and_then(int),
        Field::HwLower => rec.and_then(|r| int(r.hw_lower)),
        Field::Cyclic => rec.map(|r| FieldValue::Bool(r.is_cyclic())),
        Field::HwTimedOut => rec.map(|r| FieldValue::Bool(r.hw_timed_out)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_lookup_agrees() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, f) in FIELDS.iter().enumerate() {
            assert!(seen.insert(f.name), "duplicate field {:?}", f.name);
            assert_eq!(f.field as usize, i, "row {i} describes {:?}", f.field);
            assert_eq!(lookup(f.name), Some(f.field));
            assert_eq!(f.field.name(), f.name);
        }
        assert_eq!(lookup("nope"), None);
        assert!(field_names().contains("hw_upper"));
    }
}
