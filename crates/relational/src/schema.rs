//! Relation schemas and the catalog.
//!
//! "Data is described using the relational data model … different schemas can
//! co-exist but schema mappings are not supported" (Section 3.2).

use std::fmt;
use std::sync::Arc;

use crate::error::{RelationalError, Result};
use crate::value::DataType;

/// One attribute of a relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name, unique within its relation.
    pub name: String,
    /// Attribute type.
    pub ty: DataType,
}

/// The schema of a relation `R(A_1, ..., A_h)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationSchema {
    name: String,
    attributes: Vec<Attribute>,
    /// Each attribute's name once more, shareable: a query takes its join
    /// attributes' names from here instead of allocating its own copies.
    shared_names: Vec<Arc<str>>,
}

impl RelationSchema {
    /// Builds a schema; attribute names must be distinct.
    pub fn new(name: impl Into<String>, attributes: Vec<Attribute>) -> Result<Self> {
        let name = name.into();
        for (i, a) in attributes.iter().enumerate() {
            if attributes[..i].iter().any(|b| b.name == a.name) {
                return Err(RelationalError::DuplicateAttribute {
                    relation: name,
                    attribute: a.name.clone(),
                });
            }
        }
        let shared_names = attributes.iter().map(|a| Arc::from(&*a.name)).collect();
        Ok(RelationSchema {
            name,
            attributes,
            shared_names,
        })
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn of(name: impl Into<String>, attrs: &[(&str, DataType)]) -> Result<Self> {
        RelationSchema::new(
            name,
            attrs
                .iter()
                .map(|(n, t)| Attribute {
                    name: (*n).to_string(),
                    ty: *t,
                })
                .collect(),
        )
    }

    /// The relation name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All attributes in declaration order.
    #[inline]
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// The name of the attribute at position `i`, shareable without a copy.
    #[inline]
    pub fn shared_name(&self, i: usize) -> &Arc<str> {
        &self.shared_names[i]
    }

    /// Number of attributes (`h` in Section 4.2).
    #[inline]
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Index of an attribute by name.
    ///
    /// Relation schemas have single-digit arity, so a linear scan over the
    /// short attribute names beats hashing the lookup key on every tuple
    /// touch.
    pub fn index_of(&self, attr: &str) -> Result<usize> {
        self.attributes
            .iter()
            .position(|a| a.name == attr)
            .ok_or_else(|| RelationalError::UnknownAttribute {
                relation: self.name.clone(),
                attribute: attr.to_string(),
            })
    }

    /// Whether the relation has an attribute with this name.
    pub fn has_attribute(&self, attr: &str) -> bool {
        self.attributes.iter().any(|a| a.name == attr)
    }

    /// The attribute's declared type.
    pub fn type_of(&self, attr: &str) -> Result<DataType> {
        Ok(self.attributes[self.index_of(attr)?].ty)
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", a.name, a.ty)?;
        }
        write!(f, ")")
    }
}

/// A set of co-existing relation schemas known to every node.
///
/// A catalog holds a handful of relations and is read on every pose and
/// every insert, so it keeps them in registration order and finds one by
/// comparing names: a few short comparisons cost less than hashing the
/// name.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    relations: Vec<Arc<RelationSchema>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a schema; relation names must be unique.
    pub fn register(&mut self, schema: RelationSchema) -> Result<Arc<RelationSchema>> {
        if self.relations.iter().any(|s| s.name() == schema.name()) {
            return Err(RelationalError::DuplicateRelation {
                relation: schema.name().to_string(),
            });
        }
        let arc = Arc::new(schema);
        self.relations.push(Arc::clone(&arc));
        Ok(arc)
    }

    /// Looks up a relation schema by name.
    pub fn get(&self, relation: &str) -> Result<&Arc<RelationSchema>> {
        self.relations
            .iter()
            .find(|s| s.name() == relation)
            .ok_or_else(|| RelationalError::UnknownRelation {
                relation: relation.to_string(),
            })
    }

    /// Iterates over all registered schemas, in registration order.
    pub fn relations(&self) -> impl Iterator<Item = &Arc<RelationSchema>> {
        self.relations.iter()
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_schema() -> RelationSchema {
        // The paper's e-learning example schema.
        RelationSchema::of(
            "Document",
            &[
                ("Id", DataType::Int),
                ("Title", DataType::Str),
                ("Conference", DataType::Str),
                ("AuthorId", DataType::Int),
            ],
        )
        .unwrap()
    }

    #[test]
    fn schema_lookup() {
        let s = doc_schema();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.index_of("AuthorId").unwrap(), 3);
        assert_eq!(s.type_of("Title").unwrap(), DataType::Str);
        assert!(s.has_attribute("Id"));
        assert!(!s.has_attribute("Nope"));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err =
            RelationSchema::of("R", &[("A", DataType::Int), ("A", DataType::Str)]).unwrap_err();
        assert!(matches!(err, RelationalError::DuplicateAttribute { .. }));
    }

    #[test]
    fn unknown_attribute_reported() {
        let s = doc_schema();
        assert!(matches!(
            s.index_of("Missing"),
            Err(RelationalError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn catalog_register_and_get() {
        let mut c = Catalog::new();
        c.register(doc_schema()).unwrap();
        assert_eq!(c.get("Document").unwrap().name(), "Document");
        assert!(c.get("Authors").is_err());
        assert!(matches!(
            c.register(doc_schema()),
            Err(RelationalError::DuplicateRelation { .. })
        ));
        // Relations list in registration order, and each is found by its
        // whole name, not a prefix.
        for name in ["Authors", "Doc", "A"] {
            c.register(RelationSchema::of(name, &[("Id", DataType::Int)]).unwrap())
                .unwrap();
        }
        let names: Vec<&str> = c.relations().map(|s| s.name()).collect();
        assert_eq!(names, ["Document", "Authors", "Doc", "A"]);
        for name in names {
            assert_eq!(c.get(name).unwrap().name(), name);
        }
        assert_eq!(c.len(), 4);
        assert!(c.get("Docs").is_err() && c.get("").is_err());
    }

    #[test]
    fn display_formats() {
        let s = RelationSchema::of("R", &[("A", DataType::Int)]).unwrap();
        assert_eq!(s.to_string(), "R(A INT)");
    }
}
