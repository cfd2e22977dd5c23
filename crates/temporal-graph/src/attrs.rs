//! Attribute schema: static and time-varying node attributes.
//!
//! Definition 2.1 associates every node `u` at every time `t ∈ τu(u)` with a
//! k-dimensional attribute tuple. An attribute is *static* when its value
//! never changes (`gender`), and *time-varying* otherwise (`#publications`,
//! the monthly `rating`). The schema declares names and temporality; values
//! themselves are [`Value`]s, with categorical labels interned per attribute.

use crate::error::GraphError;
use tempo_columnar::{Interner, Value};

/// Identifier of an attribute within a schema (index into declaration order).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AttrId(pub u32);

impl AttrId {
    /// The attribute's position in the schema.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Whether an attribute's value may change over time.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Temporality {
    /// Value fixed for the lifetime of the node.
    Static,
    /// Value may change at every time point.
    TimeVarying,
}

/// Declaration of one attribute.
#[derive(Clone, Debug)]
pub struct AttrDef {
    name: String,
    temporality: Temporality,
    /// Interner for categorical labels of this attribute; numeric attributes
    /// simply never intern anything.
    categories: Interner<String>,
}

impl AttrDef {
    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Static or time-varying.
    pub fn temporality(&self) -> Temporality {
        self.temporality
    }

    /// Number of categorical labels interned so far.
    pub fn category_count(&self) -> usize {
        self.categories.len()
    }

    /// Resolves a categorical code to its label.
    pub fn category_label(&self, code: u32) -> Option<&String> {
        self.categories.resolve(code)
    }

    /// Renders a value of this attribute for humans (resolving `Cat` codes).
    pub fn render(&self, v: &Value) -> String {
        match v {
            Value::Cat(c) => self
                .categories
                .resolve(*c)
                .cloned()
                .unwrap_or_else(|| format!("#{c}")),
            other => other.to_string(),
        }
    }
}

/// The ordered attribute declarations of a temporal graph.
#[derive(Clone, Debug, Default)]
pub struct AttributeSchema {
    attrs: Vec<AttrDef>,
}

impl AttributeSchema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        AttributeSchema { attrs: Vec::new() }
    }

    /// Declares an attribute, returning its id.
    ///
    /// # Errors
    /// Returns an error if the name is already declared.
    pub fn declare(&mut self, name: &str, temporality: Temporality) -> Result<AttrId, GraphError> {
        if self.attrs.iter().any(|a| a.name == name) {
            return Err(GraphError::DuplicateAttribute(name.to_owned()));
        }
        self.attrs.push(AttrDef {
            name: name.to_owned(),
            temporality,
            categories: Interner::new(),
        });
        Ok(AttrId((self.attrs.len() - 1) as u32))
    }

    /// Number of declared attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True if no attributes are declared.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Looks up an attribute id by name.
    ///
    /// # Errors
    /// Returns an error if the attribute is unknown.
    pub fn id(&self, name: &str) -> Result<AttrId, GraphError> {
        self.attrs
            .iter()
            .position(|a| a.name == name)
            .map(|i| AttrId(i as u32))
            .ok_or_else(|| GraphError::UnknownAttribute(name.to_owned()))
    }

    /// Borrows an attribute definition.
    ///
    /// # Panics
    /// Panics if the id is out of range (ids are only minted by `declare`).
    pub fn def(&self, id: AttrId) -> &AttrDef {
        &self.attrs[id.index()]
    }

    /// Interns a categorical label for the given attribute, returning its
    /// value.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn intern_category(&mut self, id: AttrId, label: &str) -> Value {
        Value::Cat(self.attrs[id.index()].categories.intern(label.to_owned()))
    }

    /// Looks up an existing categorical value without interning.
    pub fn category(&self, id: AttrId, label: &str) -> Option<Value> {
        self.attrs[id.index()]
            .categories
            .code(&label.to_owned())
            .map(Value::Cat)
    }

    /// Iterates `(id, def)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &AttrDef)> {
        self.attrs
            .iter()
            .enumerate()
            .map(|(i, d)| (AttrId(i as u32), d))
    }

    /// Ids of all static attributes, in declaration order.
    pub fn static_ids(&self) -> Vec<AttrId> {
        self.iter()
            .filter(|(_, d)| d.temporality() == Temporality::Static)
            .map(|(id, _)| id)
            .collect()
    }

    /// Ids of all time-varying attributes, in declaration order.
    pub fn time_varying_ids(&self) -> Vec<AttrId> {
        self.iter()
            .filter(|(_, d)| d.temporality() == Temporality::TimeVarying)
            .map(|(id, _)| id)
            .collect()
    }

    /// Position of a time-varying attribute among the time-varying ones
    /// (used to index per-attribute value matrices).
    pub fn time_varying_slot(&self, id: AttrId) -> Option<usize> {
        self.slot(id, Temporality::TimeVarying)
    }

    /// Position of a static attribute among the static ones (used to index
    /// the static table's columns).
    pub fn static_slot(&self, id: AttrId) -> Option<usize> {
        self.slot(id, Temporality::Static)
    }

    /// How many attributes of `kind` are declared before `id`, when `id` is
    /// itself of that kind. Allocation-free: `attr_value` resolves a slot
    /// per call.
    fn slot(&self, id: AttrId, kind: Temporality) -> Option<usize> {
        let at = id.0 as usize;
        (self.attrs.get(at)?.temporality() == kind).then(|| {
            self.attrs[..at]
                .iter()
                .filter(|d| d.temporality() == kind)
                .count()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut s = AttributeSchema::new();
        let g = s.declare("gender", Temporality::Static).unwrap();
        let p = s.declare("publications", Temporality::TimeVarying).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.id("gender").unwrap(), g);
        assert_eq!(s.id("publications").unwrap(), p);
        assert!(s.id("nope").is_err());
        assert!(matches!(
            s.declare("gender", Temporality::Static),
            Err(GraphError::DuplicateAttribute(_))
        ));
    }

    #[test]
    fn slots_partition_by_temporality() {
        let mut s = AttributeSchema::new();
        let g = s.declare("gender", Temporality::Static).unwrap();
        let r = s.declare("rating", Temporality::TimeVarying).unwrap();
        let a = s.declare("age", Temporality::Static).unwrap();
        assert_eq!(s.static_ids(), vec![g, a]);
        assert_eq!(s.time_varying_ids(), vec![r]);
        assert_eq!(s.static_slot(a), Some(1));
        assert_eq!(s.static_slot(r), None);
        assert_eq!(s.time_varying_slot(r), Some(0));
        assert_eq!(s.time_varying_slot(g), None);
    }

    #[test]
    fn categorical_interning_is_per_attribute() {
        let mut s = AttributeSchema::new();
        let g = s.declare("gender", Temporality::Static).unwrap();
        let o = s.declare("occupation", Temporality::Static).unwrap();
        let m = s.intern_category(g, "m");
        let f = s.intern_category(g, "f");
        let lawyer = s.intern_category(o, "lawyer");
        assert_eq!(m, Value::Cat(0));
        assert_eq!(f, Value::Cat(1));
        // codes restart per attribute
        assert_eq!(lawyer, Value::Cat(0));
        assert_eq!(s.intern_category(g, "m"), m);
        assert_eq!(s.category(g, "f"), Some(f.clone()));
        assert_eq!(s.category(g, "x"), None);
        assert_eq!(s.def(g).render(&f), "f");
        assert_eq!(s.def(g).category_count(), 2);
    }

    #[test]
    fn render_falls_back_for_unknown_code() {
        let mut s = AttributeSchema::new();
        let g = s.declare("gender", Temporality::Static).unwrap();
        assert_eq!(s.def(g).render(&Value::Cat(9)), "#9");
        assert_eq!(s.def(g).render(&Value::Int(4)), "4");
    }
}
