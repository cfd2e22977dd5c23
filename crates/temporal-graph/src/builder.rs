//! Validated construction of temporal attributed graphs.

use crate::attrs::{AttrId, AttributeSchema};
use crate::error::GraphError;
use crate::graph::{NodeId, TemporalGraph};
use crate::time::{TimeDomain, TimePoint};
use std::collections::HashMap;
use tempo_columnar::{
    BitVec, Interner, PresenceColumn, PresenceColumns, SparseMode, Value, ValueMatrix,
};

/// Incrementally builds a [`TemporalGraph`].
///
/// Convenience setters keep the model invariants as you go (adding an edge
/// at `t` marks both endpoints present at `t`; setting a time-varying value
/// marks the node present); the `_unchecked` variants skip that so tests and
/// loaders can surface validation errors from [`GraphBuilder::build`].
///
/// Presence is kept as one growable bitmap per time point and side, widened
/// on demand as entities arrive; [`build`](GraphBuilder::build) turns each
/// into the graph's [`PresenceColumn`] for that point.
#[derive(Debug)]
pub struct GraphBuilder {
    domain: TimeDomain,
    schema: AttributeSchema,
    node_names: Interner<String>,
    node_presence: Vec<BitVec>,
    static_table: ValueMatrix,
    tv_tables: Vec<ValueMatrix>,
    edges: Vec<(NodeId, NodeId)>,
    edge_index: HashMap<(u32, u32), u32>,
    edge_presence: Vec<BitVec>,
    edge_values: ValueMatrix,
    edge_values_used: bool,
}

impl GraphBuilder {
    /// Creates a builder over a time domain and attribute schema.
    pub fn new(domain: TimeDomain, schema: AttributeSchema) -> Self {
        let nt = domain.len();
        let n_tv = schema.time_varying_ids().len();
        let n_static = schema.static_ids().len();
        GraphBuilder {
            domain,
            schema,
            node_names: Interner::new(),
            node_presence: vec![BitVec::zeros(0); nt],
            static_table: ValueMatrix::new(n_static),
            tv_tables: (0..n_tv).map(|_| ValueMatrix::new(nt)).collect(),
            edges: Vec::new(),
            edge_index: HashMap::new(),
            edge_presence: vec![BitVec::zeros(0); nt],
            edge_values: ValueMatrix::new(nt),
            edge_values_used: false,
        }
    }

    /// The time domain being built against.
    pub fn domain(&self) -> &TimeDomain {
        &self.domain
    }

    /// The attribute schema (immutable view).
    pub fn schema(&self) -> &AttributeSchema {
        &self.schema
    }

    /// Interns a categorical label for an attribute, returning its value.
    pub fn intern_category(&mut self, attr: AttrId, label: &str) -> Value {
        self.schema.intern_category(attr, label)
    }

    /// Number of nodes registered so far.
    pub fn n_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of edges registered so far.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Registers a new node.
    ///
    /// # Errors
    /// Returns an error if the name is already registered.
    pub fn add_node(&mut self, name: &str) -> Result<NodeId, GraphError> {
        if self.node_names.code(&name.to_owned()).is_some() {
            return Err(GraphError::DuplicateNode(name.to_owned()));
        }
        Ok(self.register_node(name))
    }

    /// Returns the node id for an already-registered `name`, if any.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.node_names.code(&name.to_owned()).map(NodeId)
    }

    /// Returns the node id for `name`, registering it if needed.
    pub fn get_or_add_node(&mut self, name: &str) -> NodeId {
        match self.node_names.code(&name.to_owned()) {
            Some(c) => NodeId(c),
            None => self.register_node(name),
        }
    }

    fn register_node(&mut self, name: &str) -> NodeId {
        let code = self.node_names.intern(name.to_owned());
        self.static_table
            .push_row(vec![Value::Null; self.static_table.ncols()]);
        for tbl in &mut self.tv_tables {
            tbl.push_null_row();
        }
        NodeId(code)
    }

    fn check_time(&self, t: TimePoint) -> Result<(), GraphError> {
        if t.index() >= self.domain.len() {
            return Err(GraphError::UnknownTimePoint(format!("{t:?}")));
        }
        Ok(())
    }

    fn check_node(&self, n: NodeId) -> Result<(), GraphError> {
        if n.index() >= self.node_names.len() {
            return Err(GraphError::UnknownNode(format!("{n:?}")));
        }
        Ok(())
    }

    /// Sets node `n`'s bit in the column of `t` (both already checked).
    fn mark_node(&mut self, n: NodeId, t: TimePoint) {
        mark(
            &mut self.node_presence[t.index()],
            n.index(),
            self.node_names.len(),
        );
    }

    /// Marks node `n` present at time `t`.
    ///
    /// # Errors
    /// Returns an error for an unknown node or time point.
    pub fn set_presence(&mut self, n: NodeId, t: TimePoint) -> Result<(), GraphError> {
        self.check_node(n)?;
        self.check_time(t)?;
        self.mark_node(n, t);
        Ok(())
    }

    /// Sets the value of a static attribute for a node.
    ///
    /// # Errors
    /// Returns an error for an unknown node or a non-static attribute.
    pub fn set_static(&mut self, n: NodeId, attr: AttrId, value: Value) -> Result<(), GraphError> {
        self.check_node(n)?;
        let slot =
            self.schema
                .static_slot(attr)
                .ok_or_else(|| GraphError::AttributeKindMismatch {
                    name: self.schema.def(attr).name().to_owned(),
                    expected: "static",
                })?;
        self.static_table.set(n.index(), slot, value);
        Ok(())
    }

    /// Sets a time-varying attribute value and marks the node present at `t`
    /// (a value implies existence per Definition 2.1).
    ///
    /// # Errors
    /// Returns an error for an unknown node/time or non-time-varying attribute.
    pub fn set_time_varying(
        &mut self,
        n: NodeId,
        attr: AttrId,
        t: TimePoint,
        value: Value,
    ) -> Result<(), GraphError> {
        self.set_time_varying_unchecked(n, attr, t, value)?;
        self.mark_node(n, t);
        Ok(())
    }

    /// Sets a time-varying attribute value without touching presence.
    ///
    /// # Errors
    /// Returns an error for an unknown node/time or non-time-varying attribute.
    pub fn set_time_varying_unchecked(
        &mut self,
        n: NodeId,
        attr: AttrId,
        t: TimePoint,
        value: Value,
    ) -> Result<(), GraphError> {
        self.check_node(n)?;
        self.check_time(t)?;
        let slot = self.schema.time_varying_slot(attr).ok_or_else(|| {
            GraphError::AttributeKindMismatch {
                name: self.schema.def(attr).name().to_owned(),
                expected: "time-varying",
            }
        })?;
        self.tv_tables[slot].set(n.index(), t.index(), value);
        Ok(())
    }

    fn edge_row(&mut self, u: NodeId, v: NodeId) -> u32 {
        match self.edge_index.get(&(u.0, v.0)) {
            Some(&i) => i,
            None => {
                let i = self.edges.len() as u32;
                self.edges.push((u, v));
                self.edge_values.push_null_row();
                self.edge_index.insert((u.0, v.0), i);
                i
            }
        }
    }

    /// Records that edge `(u, v)` exists at time `t`, marking both
    /// endpoints present at `t` as well.
    ///
    /// # Errors
    /// Returns an error for unknown nodes or time points.
    pub fn add_edge_at(&mut self, u: NodeId, v: NodeId, t: TimePoint) -> Result<(), GraphError> {
        self.add_edge_at_unchecked(u, v, t)?;
        self.mark_node(u, t);
        self.mark_node(v, t);
        Ok(())
    }

    /// Records edge existence without fixing endpoint presence (violations
    /// surface in [`GraphBuilder::build`]).
    ///
    /// # Errors
    /// Returns an error for unknown nodes or time points.
    pub fn add_edge_at_unchecked(
        &mut self,
        u: NodeId,
        v: NodeId,
        t: TimePoint,
    ) -> Result<(), GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        self.check_time(t)?;
        let row = self.edge_row(u, v);
        mark(
            &mut self.edge_presence[t.index()],
            row as usize,
            self.edges.len(),
        );
        Ok(())
    }

    /// Records a numeric value for edge `(u, v)` at time `t` (e.g. papers
    /// co-authored that year), marking the edge — and both endpoints —
    /// present at `t`.
    ///
    /// # Errors
    /// Returns an error for unknown nodes or time points.
    pub fn set_edge_value(
        &mut self,
        u: NodeId,
        v: NodeId,
        t: TimePoint,
        value: Value,
    ) -> Result<(), GraphError> {
        self.add_edge_at(u, v, t)?;
        let row = self.edge_index[&(u.0, v.0)] as usize;
        self.edge_values.set(row, t.index(), value);
        self.edge_values_used = true;
        Ok(())
    }

    /// Finishes construction, validating all model invariants.
    ///
    /// # Errors
    /// Returns the first violated invariant (see
    /// [`TemporalGraph::validate`]).
    pub fn build(mut self) -> Result<TemporalGraph, GraphError> {
        // cell-by-cell writes leave the code columns with spare capacity
        self.static_table.shrink_to_fit();
        self.edge_values.shrink_to_fit();
        self.tv_tables
            .iter_mut()
            .for_each(ValueMatrix::shrink_to_fit);
        let node_presence = columns(self.node_presence, self.node_names.len());
        let edge_presence = columns(self.edge_presence, self.edges.len());
        TemporalGraph::assemble(
            self.domain,
            self.schema,
            self.node_names,
            node_presence,
            self.edges,
            Some(self.edge_index),
            edge_presence,
            self.static_table,
            self.tv_tables,
            self.edge_values_used.then_some(self.edge_values),
        )
    }
}

/// Sets bit `r` of a builder column, first widening it to all `rows`
/// entities registered so far when it is too short.
fn mark(col: &mut BitVec, r: usize, rows: usize) {
    if r >= col.len() {
        col.grow(rows);
    }
    col.set(r, true);
}

/// The graph's columns from the builder's bitmaps, each widened to `rows`
/// and laid out dense or sparse by its own density.
fn columns(bitmaps: Vec<BitVec>, rows: usize) -> PresenceColumns {
    let mut cols = PresenceColumns::new(rows);
    for mut bv in bitmaps {
        bv.grow(rows);
        cols.push_col(PresenceColumn::from_bitvec(bv, SparseMode::Auto));
    }
    cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Temporality;

    fn schema() -> AttributeSchema {
        let mut s = AttributeSchema::new();
        s.declare("gender", Temporality::Static).unwrap();
        s.declare("pubs", Temporality::TimeVarying).unwrap();
        s
    }

    #[test]
    fn duplicate_node_rejected() {
        let mut b = GraphBuilder::new(TimeDomain::indexed(2), schema());
        b.add_node("u").unwrap();
        assert!(matches!(b.add_node("u"), Err(GraphError::DuplicateNode(_))));
        assert_eq!(b.get_or_add_node("u"), NodeId(0));
        assert_eq!(b.get_or_add_node("v"), NodeId(1));
        assert_eq!(b.n_nodes(), 2);
    }

    #[test]
    fn edge_implies_presence() {
        let mut b = GraphBuilder::new(TimeDomain::indexed(2), schema());
        let u = b.add_node("u").unwrap();
        let v = b.add_node("v").unwrap();
        b.add_edge_at(u, v, TimePoint(1)).unwrap();
        let g = b.build().unwrap();
        assert!(g.node_alive_at(u, TimePoint(1)));
        assert!(g.node_alive_at(v, TimePoint(1)));
        assert!(!g.node_alive_at(u, TimePoint(0)));
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    fn repeated_edge_merges_into_one_row() {
        let mut b = GraphBuilder::new(TimeDomain::indexed(3), schema());
        let u = b.add_node("u").unwrap();
        let v = b.add_node("v").unwrap();
        b.add_edge_at(u, v, TimePoint(0)).unwrap();
        b.add_edge_at(u, v, TimePoint(2)).unwrap();
        // reverse direction is a distinct edge
        b.add_edge_at(v, u, TimePoint(2)).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.n_edges(), 2);
        let e = g.edge_between(u, v).unwrap();
        assert_eq!(
            g.edge_timestamp(e).iter().map(|t| t.0).collect::<Vec<_>>(),
            vec![0, 2]
        );
    }

    #[test]
    fn tv_value_sets_presence() {
        let mut b = GraphBuilder::new(TimeDomain::indexed(2), schema());
        let u = b.add_node("u").unwrap();
        let pubs = b.schema().id("pubs").unwrap();
        b.set_time_varying(u, pubs, TimePoint(0), Value::Int(5))
            .unwrap();
        let g = b.build().unwrap();
        assert!(g.node_alive_at(u, TimePoint(0)));
        assert_eq!(g.attr_value(u, pubs, TimePoint(0)), Value::Int(5));
    }

    #[test]
    fn kind_mismatch_errors() {
        let mut b = GraphBuilder::new(TimeDomain::indexed(2), schema());
        let u = b.add_node("u").unwrap();
        let gender = b.schema().id("gender").unwrap();
        let pubs = b.schema().id("pubs").unwrap();
        assert!(matches!(
            b.set_static(u, pubs, Value::Int(1)),
            Err(GraphError::AttributeKindMismatch { .. })
        ));
        assert!(matches!(
            b.set_time_varying(u, gender, TimePoint(0), Value::Int(1)),
            Err(GraphError::AttributeKindMismatch { .. })
        ));
    }

    #[test]
    fn out_of_range_time_and_node() {
        let mut b = GraphBuilder::new(TimeDomain::indexed(2), schema());
        let u = b.add_node("u").unwrap();
        assert!(b.set_presence(u, TimePoint(9)).is_err());
        assert!(b.set_presence(NodeId(7), TimePoint(0)).is_err());
    }

    #[test]
    fn edge_values_roundtrip_through_builder() {
        let mut b = GraphBuilder::new(TimeDomain::indexed(2), schema());
        let u = b.add_node("u").unwrap();
        let v = b.add_node("v").unwrap();
        b.set_edge_value(u, v, TimePoint(0), Value::Int(3)).unwrap();
        b.add_edge_at(u, v, TimePoint(1)).unwrap(); // present, no value
        let g = b.build().unwrap();
        assert!(g.has_edge_values());
        let e = g.edge_between(u, v).unwrap();
        assert_eq!(g.edge_value(e, TimePoint(0)), Value::Int(3));
        assert_eq!(g.edge_value(e, TimePoint(1)), Value::Null);
    }

    #[test]
    fn graphs_without_edge_values_report_none() {
        let mut b = GraphBuilder::new(TimeDomain::indexed(2), schema());
        let u = b.add_node("u").unwrap();
        let v = b.add_node("v").unwrap();
        b.add_edge_at(u, v, TimePoint(0)).unwrap();
        let g = b.build().unwrap();
        assert!(!g.has_edge_values());
        let e = g.edge_between(u, v).unwrap();
        assert_eq!(g.edge_value(e, TimePoint(0)), Value::Null);
    }
}
