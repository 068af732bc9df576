//! In-memory property-graph engine: the stand-in for Neo4j in the paper's
//! evaluation.
//!
//! Two pieces live here:
//!
//! * [`PropertyGraph`] — an adjacency-list property-graph store (labelled
//!   nodes and edges, each with a property map);
//! * [`GraphEngine`] — a clause-by-clause PGIR interpreter. It evaluates each
//!   `MATCH` construct by expanding pattern elements over the adjacency
//!   lists, applies `WHERE` filters *after* the expansion, and projects
//!   `WITH`/`RETURN` items (with aggregation) at the end. This late-filtering,
//!   per-clause pipeline mirrors how an un-tuned graph engine executes the
//!   original Cypher query, which is exactly the role Neo4j plays in the
//!   paper's Table 1.

use std::collections::{HashMap, VecDeque};

use raqlet_common::cell::{Cell, ValueDict};
use raqlet_common::guard::{CheckPoint, QueryGuard};
use raqlet_common::hash::{FxHashMap, FxHashSet};
use raqlet_common::schema::normalize_label;
use raqlet_common::{RaqletError, Relation, Result, Value};
use raqlet_dlir::ArithOp as DlArithOp;
use raqlet_pgir::{
    AggFunc, ArithOp, ChainPat, CmpOp, MatchConstruct, OutputItem, PathPat, PatternElem,
    PgirClause, PgirExpr, PgirQuery,
};

/// A node in the property graph.
#[derive(Debug, Clone)]
pub struct GraphNode {
    /// Node label (e.g. `Person`).
    pub label: String,
    /// Property map.
    pub properties: HashMap<String, Value>,
}

/// An edge in the property graph.
#[derive(Debug, Clone)]
pub struct GraphEdge {
    /// Edge label in Cypher spelling (e.g. `KNOWS`, `IS_LOCATED_IN`).
    pub label: String,
    /// Source node index.
    pub src: usize,
    /// Target node index.
    pub dst: usize,
    /// Property map.
    pub properties: HashMap<String, Value>,
}

/// An in-memory property graph with adjacency indexes.
///
/// Labels are normalized at **insert** time (underscores removed,
/// lowercased — see [`normalize_label`]), so `nodes_with_label` and the
/// per-node adjacency lookups are O(1) hash probes keyed by normal form
/// instead of scans that re-normalize every stored entry per hop. The raw
/// spelling is kept on each [`GraphNode`]/[`GraphEdge`]. Because
/// normalization is lossy, inserting a label whose spelling differs from an
/// earlier one with the same normal form (`HasTag` after `HAS_TAG`) is an
/// error: the two would silently merge in every lookup.
#[derive(Debug, Clone, Default)]
pub struct PropertyGraph {
    nodes: Vec<GraphNode>,
    edges: Vec<GraphEdge>,
    /// normalized node label -> node indexes.
    by_label: HashMap<String, Vec<usize>>,
    /// src node -> normalized edge label -> edge indexes.
    outgoing: HashMap<usize, HashMap<String, Vec<usize>>>,
    /// dst node -> normalized edge label -> edge indexes.
    incoming: HashMap<usize, HashMap<String, Vec<usize>>>,
    /// normalized node label -> first raw spelling seen.
    node_label_spellings: HashMap<String, String>,
    /// normalized edge label -> first raw spelling seen.
    edge_label_spellings: HashMap<String, String>,
}

/// Record `label` in the spelling registry under its normal form, rejecting
/// a spelling that differs from the one already registered for that form.
fn register_spelling(
    spellings: &mut HashMap<String, String>,
    kind: &str,
    label: &str,
) -> Result<String> {
    let norm = normalize_label(label);
    match spellings.get(&norm) {
        Some(first) if first != label => Err(RaqletError::schema(format!(
            "{kind} label `{label}` collides with `{first}` under label normalization \
             (underscores and case are ignored); rename one of them"
        ))),
        Some(_) => Ok(norm),
        None => {
            spellings.insert(norm.clone(), label.to_string());
            Ok(norm)
        }
    }
}

impl PropertyGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node, returning its index. Errors if the label collides with a
    /// differently spelled label already in the graph (same normal form).
    pub fn add_node(&mut self, label: &str, properties: Vec<(&str, Value)>) -> Result<usize> {
        let norm = register_spelling(&mut self.node_label_spellings, "node", label)?;
        let idx = self.nodes.len();
        self.nodes.push(GraphNode {
            label: label.to_string(),
            properties: properties.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        });
        self.by_label.entry(norm).or_default().push(idx);
        Ok(idx)
    }

    /// Add an edge, returning its index. Errors if the label collides with a
    /// differently spelled label already in the graph (same normal form).
    pub fn add_edge(
        &mut self,
        label: &str,
        src: usize,
        dst: usize,
        properties: Vec<(&str, Value)>,
    ) -> Result<usize> {
        let norm = register_spelling(&mut self.edge_label_spellings, "edge", label)?;
        let idx = self.edges.len();
        self.edges.push(GraphEdge {
            label: label.to_string(),
            src,
            dst,
            properties: properties.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        });
        self.outgoing.entry(src).or_default().entry(norm.clone()).or_default().push(idx);
        self.incoming.entry(dst).or_default().entry(norm).or_default().push(idx);
        Ok(idx)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Node data by index.
    pub fn node(&self, idx: usize) -> &GraphNode {
        &self.nodes[idx]
    }

    /// Edge data by index.
    pub fn edge(&self, idx: usize) -> &GraphEdge {
        &self.edges[idx]
    }

    /// All node indexes with the given label (matched case-tolerantly): one
    /// hash probe on the label's normal form.
    pub fn nodes_with_label(&self, label: &str) -> Vec<usize> {
        self.by_label.get(&normalize_label(label)).cloned().unwrap_or_default()
    }

    /// All node indexes.
    pub fn all_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len()).collect()
    }

    /// Outgoing edges of `node` with a label matching `label` (or all labels
    /// when `None`).
    pub fn outgoing_edges(&self, node: usize, label: Option<&str>) -> Vec<usize> {
        self.edges_from_index(&self.outgoing, node, label)
    }

    /// Incoming edges of `node` with a label matching `label`.
    pub fn incoming_edges(&self, node: usize, label: Option<&str>) -> Vec<usize> {
        self.edges_from_index(&self.incoming, node, label)
    }

    /// Outgoing edges of `node` whose label matches any of `labels` (all
    /// labels when the slice is empty — `[:A|B]` alternatives).
    pub fn outgoing_edges_any(&self, node: usize, labels: &[String]) -> Vec<usize> {
        self.edges_from_index_any(&self.outgoing, node, labels)
    }

    /// Incoming edges of `node` whose label matches any of `labels`.
    pub fn incoming_edges_any(&self, node: usize, labels: &[String]) -> Vec<usize> {
        self.edges_from_index_any(&self.incoming, node, labels)
    }

    fn edges_from_index(
        &self,
        index: &HashMap<usize, HashMap<String, Vec<usize>>>,
        node: usize,
        label: Option<&str>,
    ) -> Vec<usize> {
        let Some(per_label) = index.get(&node) else { return Vec::new() };
        match label {
            Some(want) => per_label.get(&normalize_label(want)).cloned().unwrap_or_default(),
            None => per_label.values().flatten().copied().collect(),
        }
    }

    fn edges_from_index_any(
        &self,
        index: &HashMap<usize, HashMap<String, Vec<usize>>>,
        node: usize,
        labels: &[String],
    ) -> Vec<usize> {
        let Some(per_label) = index.get(&node) else { return Vec::new() };
        if labels.is_empty() {
            return per_label.values().flatten().copied().collect();
        }
        let mut wanted: Vec<String> = labels.iter().map(|l| normalize_label(l)).collect();
        wanted.sort();
        wanted.dedup();
        wanted.iter().filter_map(|w| per_label.get(w)).flatten().copied().collect()
    }

    /// Neighbours reachable by one hop over `label` edges, respecting
    /// direction when `directed` is true.
    pub fn neighbours(&self, node: usize, label: Option<&str>, directed: bool) -> Vec<usize> {
        let mut out: Vec<usize> =
            self.outgoing_edges(node, label).iter().map(|&e| self.edges[e].dst).collect();
        if !directed {
            out.extend(self.incoming_edges(node, label).iter().map(|&e| self.edges[e].src));
        }
        out
    }

    /// Neighbours reachable by one hop over edges matching any of `labels`.
    /// `directed` restricts hops to a stored direction; `forward` picks which
    /// one (reading order vs. `<-[...]-`).
    pub fn step_neighbours(
        &self,
        node: usize,
        labels: &[String],
        directed: bool,
        forward: bool,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        if !directed || forward {
            out.extend(self.outgoing_edges_any(node, labels).iter().map(|&e| self.edges[e].dst));
        }
        if !directed || !forward {
            out.extend(self.incoming_edges_any(node, labels).iter().map(|&e| self.edges[e].src));
        }
        out
    }
}

/// True when an edge's stored label matches any of the requested label
/// alternatives (an empty request matches everything).
fn edge_label_matches_any(label: &str, wanted: &[String]) -> bool {
    wanted.is_empty() || wanted.iter().any(|w| raqlet_common::schema::labels_match(label, w))
}

/// A value bound to a PGIR variable during graph execution.
#[derive(Debug, Clone, PartialEq)]
enum Binding {
    Node(usize),
    Edge(usize),
    Scalar(Value),
}

type Row = HashMap<String, Binding>;

/// Statistics from a graph-engine run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Total pattern-element expansions performed.
    pub expansions: usize,
    /// Rows alive after each clause, summed (a proxy for intermediate result
    /// size).
    pub intermediate_rows: usize,
}

/// Result of executing a PGIR query on the graph engine.
#[derive(Debug, Clone)]
pub struct GraphResult {
    /// Output rows.
    pub rows: Relation,
    /// Output column names.
    pub columns: Vec<String>,
    /// Execution statistics.
    pub stats: GraphStats,
}

/// The property-graph execution engine.
#[derive(Debug, Clone, Default)]
pub struct GraphEngine;

impl GraphEngine {
    /// Create a new engine.
    pub fn new() -> Self {
        GraphEngine
    }

    /// Execute a PGIR query against a property graph.
    pub fn execute(&self, query: &PgirQuery, graph: &PropertyGraph) -> Result<GraphResult> {
        self.execute_guarded(query, graph, &QueryGuard::new())
    }

    /// [`GraphEngine::execute`] under an execution [`QueryGuard`]: the guard
    /// is checked before every clause and once per binding row during pattern
    /// expansion, so deadlines, budgets and cancellation interrupt a
    /// combinatorial MATCH between row expansions. Intermediate binding rows
    /// count against the guard's tuple budget.
    pub fn execute_guarded(
        &self,
        query: &PgirQuery,
        graph: &PropertyGraph,
        guard: &QueryGuard,
    ) -> Result<GraphResult> {
        let mut rows: Vec<Row> = vec![HashMap::new()];
        let mut stats = GraphStats::default();
        let mut output: Option<(Relation, Vec<String>)> = None;

        for clause in &query.clauses {
            guard.checkpoint(CheckPoint::GraphStep)?;
            match clause {
                PgirClause::Match(m) => {
                    rows = self.eval_match(m, graph, rows, &mut stats, guard)?;
                }
                PgirClause::Where(w) => {
                    let mut kept = Vec::with_capacity(rows.len());
                    for row in rows {
                        if eval_predicate(&w.predicate, &row, graph)?.is_truthy() {
                            kept.push(row);
                        }
                    }
                    rows = kept;
                }
                PgirClause::With(w) => {
                    rows = self.eval_projection(&w.items, &rows, graph, w.distinct)?;
                    if let Some(having) = &w.having {
                        let mut kept = Vec::with_capacity(rows.len());
                        for row in rows {
                            if eval_predicate(having, &row, graph)?.is_truthy() {
                                kept.push(row);
                            }
                        }
                        rows = kept;
                    }
                }
                PgirClause::Return(r) => {
                    let projected = self.eval_projection(&r.items, &rows, graph, true)?;
                    let columns: Vec<String> = r.items.iter().map(|i| i.alias.clone()).collect();
                    let mut rel = Relation::new(columns.len());
                    for row in &projected {
                        let tuple: Vec<Value> =
                            columns.iter().map(|c| binding_to_value(row.get(c), graph)).collect();
                        rel.insert_unchecked(tuple);
                    }
                    output = Some((rel, columns));
                }
                PgirClause::Unwind(u) => {
                    // Native UNWIND: each row fans out into one row per list
                    // element, with the element bound to the alias.
                    let mut fanned = Vec::with_capacity(rows.len() * u.values.len());
                    for row in rows {
                        for value in &u.values {
                            let mut r = row.clone();
                            r.insert(u.alias.clone(), Binding::Scalar(value.clone()));
                            fanned.push(r);
                        }
                    }
                    rows = fanned;
                }
            }
            stats.intermediate_rows += rows.len();
            guard.add_tuples(rows.len());
        }

        let (rows, columns) =
            output.ok_or_else(|| RaqletError::semantic("PGIR query has no RETURN construct"))?;
        Ok(GraphResult { rows, columns, stats })
    }

    fn eval_match(
        &self,
        m: &MatchConstruct,
        graph: &PropertyGraph,
        rows: Vec<Row>,
        stats: &mut GraphStats,
        guard: &QueryGuard,
    ) -> Result<Vec<Row>> {
        if m.optional {
            return Err(RaqletError::unsupported("OPTIONAL MATCH on the graph engine"));
        }
        let mut rows = rows;
        for pattern in &m.patterns {
            rows = self.expand_pattern(pattern, graph, rows, stats, guard)?;
        }
        Ok(rows)
    }

    fn expand_pattern(
        &self,
        pattern: &PatternElem,
        graph: &PropertyGraph,
        rows: Vec<Row>,
        stats: &mut GraphStats,
        guard: &QueryGuard,
    ) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        match pattern {
            PatternElem::Node(n) => {
                for row in rows {
                    guard.checkpoint(CheckPoint::GraphStep)?;
                    stats.expansions += 1;
                    match row.get(&n.var) {
                        Some(Binding::Node(idx)) => {
                            if node_label_matches(graph, *idx, n.label.as_deref()) {
                                out.push(row);
                            }
                        }
                        Some(_) => {
                            return Err(RaqletError::semantic(format!(
                                "variable `{}` is not a node",
                                n.var
                            )))
                        }
                        None => {
                            let candidates = match &n.label {
                                Some(l) => graph.nodes_with_label(l),
                                None => graph.all_nodes(),
                            };
                            for idx in candidates {
                                let mut r = row.clone();
                                r.insert(n.var.clone(), Binding::Node(idx));
                                out.push(r);
                            }
                        }
                    }
                }
            }
            PatternElem::Edge(e) => {
                for row in rows {
                    guard.checkpoint(CheckPoint::GraphStep)?;
                    stats.expansions += 1;
                    let src_bound = match row.get(&e.src.var) {
                        Some(Binding::Node(i)) => Some(*i),
                        _ => None,
                    };
                    let dst_bound = match row.get(&e.dst.var) {
                        Some(Binding::Node(i)) => Some(*i),
                        _ => None,
                    };
                    // Candidate edges (any label alternative matches).
                    let candidates: Vec<usize> = if let Some(s) = src_bound {
                        let mut c = graph.outgoing_edges_any(s, &e.labels);
                        if !e.directed {
                            c.extend(graph.incoming_edges_any(s, &e.labels));
                        }
                        c
                    } else if let Some(d) = dst_bound {
                        let mut c = graph.incoming_edges_any(d, &e.labels);
                        if !e.directed {
                            c.extend(graph.outgoing_edges_any(d, &e.labels));
                        }
                        c
                    } else {
                        (0..graph.edge_count())
                            .filter(|&i| edge_label_matches_any(&graph.edge(i).label, &e.labels))
                            .collect()
                    };
                    for edge_idx in candidates {
                        let edge = graph.edge(edge_idx);
                        // Try both orientations for undirected patterns.
                        let orientations: Vec<(usize, usize)> = if e.directed {
                            vec![(edge.src, edge.dst)]
                        } else {
                            vec![(edge.src, edge.dst), (edge.dst, edge.src)]
                        };
                        for (s, d) in orientations {
                            if let Some(b) = src_bound {
                                if b != s {
                                    continue;
                                }
                            }
                            if let Some(b) = dst_bound {
                                if b != d {
                                    continue;
                                }
                            }
                            if !node_label_matches(graph, s, e.src.label.as_deref())
                                || !node_label_matches(graph, d, e.dst.label.as_deref())
                            {
                                continue;
                            }
                            let mut r = row.clone();
                            r.insert(e.src.var.clone(), Binding::Node(s));
                            r.insert(e.dst.var.clone(), Binding::Node(d));
                            r.insert(e.var.clone(), Binding::Edge(edge_idx));
                            out.push(r);
                        }
                    }
                }
            }
            PatternElem::Path(p) => {
                for row in rows {
                    guard.checkpoint(CheckPoint::GraphStep)?;
                    stats.expansions += 1;
                    let sources: Vec<usize> = match row.get(&p.src.var) {
                        Some(Binding::Node(i)) => vec![*i],
                        _ => match &p.src.label {
                            Some(l) => graph.nodes_with_label(l),
                            None => graph.all_nodes(),
                        },
                    };
                    let target_filter: Option<usize> = match row.get(&p.dst.var) {
                        Some(Binding::Node(i)) => Some(*i),
                        _ => None,
                    };
                    for source in sources {
                        let reached = self.traverse(graph, source, p);
                        for (node, dist) in reached {
                            if let Some(t) = target_filter {
                                if t != node {
                                    continue;
                                }
                            }
                            if !node_label_matches(graph, node, p.dst.label.as_deref()) {
                                continue;
                            }
                            let mut r = row.clone();
                            r.insert(p.src.var.clone(), Binding::Node(source));
                            r.insert(p.dst.var.clone(), Binding::Node(node));
                            r.insert(p.var.clone(), Binding::Scalar(Value::Int(dist as i64)));
                            out.push(r);
                        }
                    }
                }
            }
            PatternElem::Chain(c) => {
                let dst = c.dst().clone();
                for row in rows {
                    guard.checkpoint(CheckPoint::GraphStep)?;
                    stats.expansions += 1;
                    let sources: Vec<usize> = match row.get(&c.src.var) {
                        Some(Binding::Node(i)) => vec![*i],
                        _ => match &c.src.label {
                            Some(l) => graph.nodes_with_label(l),
                            None => graph.all_nodes(),
                        },
                    };
                    let target_filter: Option<usize> = match row.get(&dst.var) {
                        Some(Binding::Node(i)) => Some(*i),
                        _ => None,
                    };
                    for source in sources {
                        let reached = self.traverse_chain(graph, source, c, &row);
                        for (node, dist) in reached {
                            if let Some(t) = target_filter {
                                if t != node {
                                    continue;
                                }
                            }
                            if !node_label_matches(graph, node, dst.label.as_deref()) {
                                continue;
                            }
                            let mut r = row.clone();
                            r.insert(c.src.var.clone(), Binding::Node(source));
                            r.insert(dst.var.clone(), Binding::Node(node));
                            r.insert(c.var.clone(), Binding::Scalar(Value::Int(dist as i64)));
                            out.push(r);
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// BFS traversal implementing variable-length and shortest-path
    /// semantics. Returns reached nodes with their hop distance (for
    /// reachability the minimal distance at which the node was first seen).
    fn traverse(&self, graph: &PropertyGraph, source: usize, p: &PathPat) -> Vec<(usize, u32)> {
        // Incoming single-segment paths are normalised to forward direction
        // by the PGIR lowering (endpoints swapped), so hops always read
        // forward here. BFS already yields minimal distances, so for
        // shortest-path semantics every surviving (node, d) pair is a
        // shortest path; for plain reachability the distance is
        // informational only.
        bfs_segment(graph, source, &p.labels, p.directed, true, p.min_hops, p.max_hops)
    }

    /// Evaluate a multi-hop shortestPath chain from one source: compose the
    /// per-step BFS minima left to right, keeping the minimal total distance
    /// per reached node — the same per-step-minimum composition the DLIR
    /// lowering performs (lengths are additive, so per-step minima compose).
    fn traverse_chain(
        &self,
        graph: &PropertyGraph,
        source: usize,
        c: &ChainPat,
        row: &Row,
    ) -> Vec<(usize, u32)> {
        let last = c.steps.len() - 1;
        let mut frontier: HashMap<usize, u32> = HashMap::from([(source, 0)]);
        for (i, step) in c.steps.iter().enumerate() {
            let mut next: HashMap<usize, u32> = HashMap::new();
            for (&node, &total) in &frontier {
                for (reached, d) in bfs_segment(
                    graph,
                    node,
                    &step.labels,
                    step.directed,
                    step.forward,
                    step.min_hops,
                    step.max_hops,
                ) {
                    if i < last {
                        // Intermediate nodes are existential: enforce their
                        // label (and a pre-bound variable, if any) here; the
                        // final node is checked by the caller.
                        if !node_label_matches(graph, reached, step.node.label.as_deref()) {
                            continue;
                        }
                        if let Some(Binding::Node(b)) = row.get(&step.node.var) {
                            if *b != reached {
                                continue;
                            }
                        }
                    }
                    let candidate = total + d;
                    next.entry(reached)
                        .and_modify(|t| *t = (*t).min(candidate))
                        .or_insert(candidate);
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        frontier.into_iter().collect()
    }

    fn eval_projection(
        &self,
        items: &[OutputItem],
        rows: &[Row],
        graph: &PropertyGraph,
        distinct: bool,
    ) -> Result<Vec<Row>> {
        // Dedup and group-by keys are packed cells: projected values are
        // encoded through a projection-local dictionary, so repeated string
        // keys hash and compare as `u64` words instead of re-walking the
        // string per row.
        let dict = ValueDict::new();
        let has_aggregate = items.iter().any(|i| i.expr.contains_aggregate());
        if !has_aggregate {
            let mut out = Vec::with_capacity(rows.len());
            let mut seen: FxHashSet<Vec<Cell>> = FxHashSet::default();
            for row in rows {
                let mut new_row: Row = HashMap::new();
                let mut key: Vec<Cell> = Vec::with_capacity(items.len());
                for item in items {
                    let binding = eval_item(&item.expr, row, graph)?;
                    if distinct {
                        key.push(dict.encode_value(&binding_to_value(Some(&binding), graph)));
                    }
                    new_row.insert(item.alias.clone(), binding);
                }
                if distinct && !seen.insert(key) {
                    continue;
                }
                out.push(new_row);
            }
            return Ok(out);
        }

        // Group by the non-aggregate items.
        let group_items: Vec<&OutputItem> =
            items.iter().filter(|i| !i.expr.contains_aggregate()).collect();
        let mut groups: FxHashMap<Vec<Cell>, (Row, Vec<&Row>)> = FxHashMap::default();
        for row in rows {
            let mut key: Vec<Cell> = Vec::with_capacity(group_items.len());
            let mut group_row: Row = HashMap::new();
            for item in &group_items {
                let binding = eval_item(&item.expr, row, graph)?;
                key.push(dict.encode_value(&binding_to_value(Some(&binding), graph)));
                group_row.insert(item.alias.clone(), binding);
            }
            groups.entry(key).or_insert_with(|| (group_row, Vec::new())).1.push(row);
        }
        let mut out = Vec::new();
        for (_, (mut group_row, members)) in groups {
            for item in items {
                if let PgirExpr::Aggregate { func, distinct: agg_distinct, arg } = &item.expr {
                    let mut values = Vec::new();
                    for member in &members {
                        let v = match arg {
                            Some(a) => binding_to_value(Some(&eval_item(a, member, graph)?), graph),
                            None => Value::Int(1),
                        };
                        values.push(v);
                    }
                    // Set semantics: Raqlet aggregates over distinct values,
                    // matching the Datalog and SQL backends.
                    if *agg_distinct || arg.is_some() {
                        values.sort();
                        values.dedup();
                    }
                    let result = match func {
                        AggFunc::Count => Value::Int(values.len() as i64),
                        AggFunc::Sum => {
                            Value::Int(values.iter().filter_map(|v| v.as_int()).sum::<i64>())
                        }
                        AggFunc::Min => values.iter().min().cloned().unwrap_or(Value::Null),
                        AggFunc::Max => values.iter().max().cloned().unwrap_or(Value::Null),
                        AggFunc::Avg => {
                            let ints: Vec<i64> = values.iter().filter_map(|v| v.as_int()).collect();
                            if ints.is_empty() {
                                Value::Null
                            } else {
                                Value::Int(ints.iter().sum::<i64>() / ints.len() as i64)
                            }
                        }
                        AggFunc::Collect => {
                            return Err(RaqletError::unsupported("collect() on the graph engine"))
                        }
                    };
                    group_row.insert(item.alias.clone(), Binding::Scalar(result));
                }
            }
            out.push(group_row);
        }
        Ok(out)
    }
}

/// BFS over one path segment from `source`: nodes reachable within
/// `[min_hops, max_hops]` hops over edges matching `labels`, with the minimal
/// hop distance each was first seen at. The source itself is only reached
/// again through a cycle (distance ≥ 1) unless `min_hops == 0`, matching
/// Cypher's semantics for `*1..` patterns on cyclic graphs.
fn bfs_segment(
    graph: &PropertyGraph,
    source: usize,
    labels: &[String],
    directed: bool,
    forward: bool,
    min_hops: u32,
    max_hops: Option<u32>,
) -> Vec<(usize, u32)> {
    if min_hops >= 2 {
        // A plain BFS only knows each node's *minimal* distance, but a node
        // whose minimal distance is below `min_hops` may still be reached by
        // a longer walk inside the requested range (e.g. bouncing over an
        // undirected edge) — the Datalog lowering enumerates those walks, so
        // the graph engine must too.
        return walk_segment(graph, source, labels, directed, forward, min_hops, max_hops);
    }
    let max = max_hops.unwrap_or(u32::MAX);
    let mut dist: HashMap<usize, u32> = HashMap::new();
    let mut queue = VecDeque::new();
    if max >= 1 {
        for next in graph.step_neighbours(source, labels, directed, forward) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(next) {
                e.insert(1);
                queue.push_back(next);
            }
        }
    }
    while let Some(n) = queue.pop_front() {
        let d = dist[&n];
        if d >= max {
            continue;
        }
        for next in graph.step_neighbours(n, labels, directed, forward) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(next) {
                e.insert(d + 1);
                queue.push_back(next);
            }
        }
    }
    // A zero-hop match (src = dst with no traversal) is only allowed when the
    // segment's minimum is 0, and it dominates any cyclic path back.
    if min_hops == 0 {
        dist.insert(source, 0);
    }
    dist.into_iter().filter(|(_, d)| *d >= min_hops && *d <= max).collect()
}

/// Walk-semantics traversal for `min_hops >= 2`: iterate exact-length
/// frontier sets up to `max_hops` (or `min_hops` when unbounded), recording
/// each node at the first qualifying walk length; for unbounded patterns the
/// exactly-`min_hops` set is then extended by an ordinary BFS — mirroring the
/// two-phase DLIR lowering.
fn walk_segment(
    graph: &PropertyGraph,
    source: usize,
    labels: &[String],
    directed: bool,
    forward: bool,
    min_hops: u32,
    max_hops: Option<u32>,
) -> Vec<(usize, u32)> {
    let cap = max_hops.unwrap_or(min_hops);
    let mut result: HashMap<usize, u32> = HashMap::new();
    let mut frontier: Vec<usize> = vec![source];
    for l in 1..=cap {
        let mut next: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for &n in &frontier {
            next.extend(graph.step_neighbours(n, labels, directed, forward));
        }
        frontier = next.into_iter().collect();
        if frontier.is_empty() {
            break;
        }
        if l >= min_hops {
            for &n in &frontier {
                result.entry(n).or_insert(l);
            }
        }
    }
    if max_hops.is_none() {
        // `*min..`: everything reachable from a walk of length exactly
        // `min_hops` also qualifies, at that walk's length plus the
        // extension.
        let mut queue: VecDeque<usize> = frontier.into_iter().collect();
        while let Some(n) = queue.pop_front() {
            let d = result[&n];
            for next in graph.step_neighbours(n, labels, directed, forward) {
                if let std::collections::hash_map::Entry::Vacant(e) = result.entry(next) {
                    e.insert(d + 1);
                    queue.push_back(next);
                }
            }
        }
    }
    result.into_iter().collect()
}

fn node_label_matches(graph: &PropertyGraph, node: usize, label: Option<&str>) -> bool {
    match label {
        None => true,
        Some(l) => raqlet_common::schema::labels_match(&graph.node(node).label, l),
    }
}

fn eval_item(expr: &PgirExpr, row: &Row, graph: &PropertyGraph) -> Result<Binding> {
    match expr {
        PgirExpr::Var(v) => row
            .get(v)
            .cloned()
            .ok_or_else(|| RaqletError::semantic(format!("unknown variable `{v}`"))),
        other => Ok(Binding::Scalar(eval_predicate(other, row, graph)?)),
    }
}

/// Evaluate a scalar/boolean PGIR expression over a row.
fn eval_predicate(expr: &PgirExpr, row: &Row, graph: &PropertyGraph) -> Result<Value> {
    match expr {
        PgirExpr::Const(v) => Ok(v.clone()),
        PgirExpr::Var(v) => match row.get(v) {
            Some(b) => Ok(binding_to_value(Some(b), graph)),
            None => Err(RaqletError::semantic(format!("unknown variable `{v}`"))),
        },
        PgirExpr::Property { var, prop } => {
            let binding = row
                .get(var)
                .ok_or_else(|| RaqletError::semantic(format!("unknown variable `{var}`")))?;
            match binding {
                Binding::Node(idx) => {
                    Ok(graph.node(*idx).properties.get(prop).cloned().unwrap_or(Value::Null))
                }
                Binding::Edge(idx) => {
                    Ok(graph.edge(*idx).properties.get(prop).cloned().unwrap_or(Value::Null))
                }
                Binding::Scalar(_) => Err(RaqletError::semantic(format!(
                    "cannot access property `{prop}` of scalar `{var}`"
                ))),
            }
        }
        PgirExpr::Cmp { op, lhs, rhs } => {
            let l = eval_predicate(lhs, row, graph)?;
            let r = eval_predicate(rhs, row, graph)?;
            let result = match op {
                CmpOp::Eq => l == r,
                CmpOp::Neq => l != r,
                CmpOp::Lt => l < r,
                CmpOp::Le => l <= r,
                CmpOp::Gt => l > r,
                CmpOp::Ge => l >= r,
            };
            Ok(Value::Bool(result))
        }
        PgirExpr::And(a, b) => Ok(Value::Bool(
            eval_predicate(a, row, graph)?.is_truthy()
                && eval_predicate(b, row, graph)?.is_truthy(),
        )),
        PgirExpr::Or(a, b) => Ok(Value::Bool(
            eval_predicate(a, row, graph)?.is_truthy()
                || eval_predicate(b, row, graph)?.is_truthy(),
        )),
        PgirExpr::Not(e) => Ok(Value::Bool(!eval_predicate(e, row, graph)?.is_truthy())),
        PgirExpr::InList { expr, list } => {
            let v = eval_predicate(expr, row, graph)?;
            Ok(Value::Bool(list.contains(&v)))
        }
        PgirExpr::Arith { op, lhs, rhs } => {
            let l = eval_predicate(lhs, row, graph)?;
            let r = eval_predicate(rhs, row, graph)?;
            let op = match op {
                ArithOp::Add => DlArithOp::Add,
                ArithOp::Sub => DlArithOp::Sub,
                ArithOp::Mul => DlArithOp::Mul,
                ArithOp::Div => DlArithOp::Div,
                ArithOp::Mod => DlArithOp::Mod,
            };
            Ok(op.eval(&l, &r).unwrap_or(Value::Null))
        }
        PgirExpr::Aggregate { .. } => {
            Err(RaqletError::semantic("aggregate outside of WITH/RETURN projection"))
        }
    }
}

/// Convert a binding to the scalar value placed in an output tuple: nodes
/// and edges are represented by their `id` property (falling back to their
/// internal index).
fn binding_to_value(binding: Option<&Binding>, graph: &PropertyGraph) -> Value {
    match binding {
        None => Value::Null,
        Some(Binding::Scalar(v)) => v.clone(),
        Some(Binding::Node(idx)) => {
            graph.node(*idx).properties.get("id").cloned().unwrap_or(Value::Int(*idx as i64))
        }
        Some(Binding::Edge(idx)) => {
            graph.edge(*idx).properties.get("id").cloned().unwrap_or(Value::Int(*idx as i64))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_pgir::{cypher_to_pgir, LowerOptions};

    /// Small social graph: Alice -KNOWS-> Bob -KNOWS-> Carol; Alice located
    /// in Edinburgh, Bob and Carol in Glasgow.
    fn sample_graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let alice = g
            .add_node("Person", vec![("id", Value::Int(1)), ("firstName", Value::str("Alice"))])
            .unwrap();
        let bob = g
            .add_node("Person", vec![("id", Value::Int(2)), ("firstName", Value::str("Bob"))])
            .unwrap();
        let carol = g
            .add_node("Person", vec![("id", Value::Int(3)), ("firstName", Value::str("Carol"))])
            .unwrap();
        let edinburgh = g
            .add_node("City", vec![("id", Value::Int(100)), ("name", Value::str("Edinburgh"))])
            .unwrap();
        let glasgow = g
            .add_node("City", vec![("id", Value::Int(200)), ("name", Value::str("Glasgow"))])
            .unwrap();
        g.add_edge("KNOWS", alice, bob, vec![("id", Value::Int(10))]).unwrap();
        g.add_edge("KNOWS", bob, carol, vec![("id", Value::Int(11))]).unwrap();
        g.add_edge("IS_LOCATED_IN", alice, edinburgh, vec![("id", Value::Int(20))]).unwrap();
        g.add_edge("IS_LOCATED_IN", bob, glasgow, vec![("id", Value::Int(21))]).unwrap();
        g.add_edge("IS_LOCATED_IN", carol, glasgow, vec![("id", Value::Int(22))]).unwrap();
        g
    }

    fn run(src: &str, graph: &PropertyGraph) -> GraphResult {
        let pgir = cypher_to_pgir(src, &LowerOptions::new()).unwrap();
        GraphEngine::new().execute(&pgir, graph).unwrap()
    }

    #[test]
    fn overflowing_arithmetic_yields_null() {
        let mut g = PropertyGraph::new();
        for v in [i64::MAX, i64::MIN] {
            g.add_node("Num", vec![("v", Value::Int(v)), ("d", Value::Int(-1))]).unwrap();
        }
        let result = run("MATCH (n:Num) RETURN DISTINCT n.v + 1 AS up, n.v / n.d AS q", &g);
        let mut expected = vec![
            vec![Value::Null, Value::Int(-i64::MAX)],
            vec![Value::Int(i64::MIN + 1), Value::Null],
        ];
        expected.sort();
        assert_eq!(result.rows.sorted(), expected);
    }

    #[test]
    fn single_hop_pattern_with_filter() {
        let g = sample_graph();
        let result = run(
            "MATCH (n:Person {id: 1})-[:IS_LOCATED_IN]->(c:City) \
             RETURN DISTINCT n.firstName AS firstName, c.name AS city",
            &g,
        );
        assert_eq!(result.columns, vec!["firstName", "city"]);
        assert_eq!(result.rows.sorted(), vec![vec![Value::str("Alice"), Value::str("Edinburgh")]]);
    }

    #[test]
    fn incoming_and_undirected_patterns() {
        let g = sample_graph();
        let incoming = run(
            "MATCH (c:City)<-[:IS_LOCATED_IN]-(p:Person) WHERE c.name = 'Glasgow' \
             RETURN p.firstName AS name",
            &g,
        );
        assert_eq!(incoming.rows.len(), 2);
        let undirected = run("MATCH (a:Person {id: 2})-[:KNOWS]-(b:Person) RETURN b.id AS id", &g);
        // Bob knows Carol and is known by Alice.
        assert_eq!(undirected.rows.len(), 2);
    }

    #[test]
    fn variable_length_reachability() {
        let g = sample_graph();
        let result =
            run("MATCH (a:Person {id: 1})-[:KNOWS*1..2]->(b:Person) RETURN b.id AS id", &g);
        assert_eq!(result.rows.sorted(), vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
    }

    #[test]
    fn unbounded_reachability_handles_cycles() {
        let mut g = sample_graph();
        // close the cycle: Carol knows Alice.
        g.add_edge("KNOWS", 2, 0, vec![("id", Value::Int(12))]).unwrap();
        let result = run("MATCH (a:Person {id: 1})-[:KNOWS*]->(b:Person) RETURN b.id AS id", &g);
        // Alice reaches Bob, Carol and (around the cycle) herself.
        assert_eq!(result.rows.len(), 3);
    }

    #[test]
    fn shortest_path_query() {
        let g = sample_graph();
        let result = run(
            "MATCH p = shortestPath((a:Person {id: 1})-[:KNOWS*]-(b:Person {id: 3})) \
             RETURN b.id AS id",
            &g,
        );
        assert_eq!(result.rows.sorted(), vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn aggregation_in_with() {
        let g = sample_graph();
        let result = run(
            "MATCH (c:City)<-[:IS_LOCATED_IN]-(p:Person) \
             WITH c, count(p) AS inhabitants \
             RETURN c.name AS name, inhabitants AS inhabitants",
            &g,
        );
        let rows = result.rows.sorted();
        assert!(rows.contains(&vec![Value::str("Edinburgh"), Value::Int(1)]));
        assert!(rows.contains(&vec![Value::str("Glasgow"), Value::Int(2)]));
    }

    #[test]
    fn distinct_return_deduplicates() {
        let g = sample_graph();
        // Two persons live in Glasgow -> one distinct city name.
        let result = run(
            "MATCH (p:Person)-[:IS_LOCATED_IN]->(c:City {name: 'Glasgow'}) \
             RETURN DISTINCT c.name AS name",
            &g,
        );
        assert_eq!(result.rows.len(), 1);
    }

    #[test]
    fn missing_properties_are_null_not_errors() {
        let g = sample_graph();
        let result = run("MATCH (p:Person {id: 1}) RETURN p.nickname AS nick", &g);
        assert_eq!(result.rows.sorted(), vec![vec![Value::Null]]);
    }

    #[test]
    fn stats_track_expansion_work() {
        let g = sample_graph();
        let result = run("MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN q.id AS id", &g);
        assert!(result.stats.expansions > 0);
        assert!(result.stats.intermediate_rows > 0);
    }

    #[test]
    fn unwind_fans_each_row_out_per_list_element() {
        let g = sample_graph();
        let result = run(
            "UNWIND [1, 3] AS pid MATCH (n:Person {id: pid}) \
             RETURN n.firstName AS name",
            &g,
        );
        assert_eq!(
            result.rows.sorted(),
            vec![vec![Value::str("Alice")], vec![Value::str("Carol")]]
        );
    }

    #[test]
    fn alternative_relationship_types_match_either_label() {
        let g = sample_graph();
        // Alice -KNOWS-> Bob and Alice -IS_LOCATED_IN-> Edinburgh.
        let result =
            run("MATCH (a:Person {id: 1})-[:KNOWS|IS_LOCATED_IN]->(x) RETURN x.id AS id", &g);
        assert_eq!(result.rows.sorted(), vec![vec![Value::Int(2)], vec![Value::Int(100)]]);
    }

    #[test]
    fn zero_hop_variable_length_includes_the_source() {
        let g = sample_graph();
        let result =
            run("MATCH (a:Person {id: 1})-[:KNOWS*0..1]->(b:Person) RETURN b.id AS id", &g);
        // Zero hops reaches Alice herself; one hop reaches Bob.
        assert_eq!(result.rows.sorted(), vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    #[test]
    fn multi_hop_shortest_path_composes_per_step_minima() {
        let g = sample_graph();
        // Shortest KNOWS-path to any person, then their city: via Bob/Carol
        // the chain reaches Glasgow; under walk semantics the undirected
        // Alice–Bob edge also leads back to Alice (2 hops), then Edinburgh.
        let result = run(
            "MATCH p = shortestPath((a:Person {id: 1})-[:KNOWS*]-(b:Person)-[:IS_LOCATED_IN]->(c:City)) \
             RETURN c.name AS name",
            &g,
        );
        assert_eq!(
            result.rows.sorted(),
            vec![vec![Value::str("Edinburgh")], vec![Value::str("Glasgow")]]
        );
    }

    #[test]
    fn multi_hop_shortest_path_binds_the_minimal_total_length() {
        let g = sample_graph();
        // Glasgow is reachable via Bob (1 KNOWS hop + 1 location hop) and
        // via Carol (2 + 1); Edinburgh via the walk back to Alice (2 + 1).
        // The path variable carries the minimal total per city.
        let result = run(
            "MATCH p = shortestPath((a:Person {id: 1})-[:KNOWS*]-(b:Person)-[:IS_LOCATED_IN]->(c:City)) \
             RETURN c.name AS name, p AS totalHops",
            &g,
        );
        assert_eq!(
            result.rows.sorted(),
            vec![
                vec![Value::str("Edinburgh"), Value::Int(3)],
                vec![Value::str("Glasgow"), Value::Int(2)]
            ]
        );
    }

    #[test]
    fn graph_store_basic_accessors() {
        let g = sample_graph();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.nodes_with_label("Person").len(), 3);
        assert_eq!(g.nodes_with_label("City").len(), 2);
        assert_eq!(g.outgoing_edges(0, Some("KNOWS")).len(), 1);
        assert_eq!(g.incoming_edges(1, Some("KNOWS")).len(), 1);
        assert_eq!(g.neighbours(1, Some("KNOWS"), false).len(), 2);
        assert_eq!(g.neighbours(1, Some("KNOWS"), true).len(), 1);
    }

    #[test]
    fn label_lookups_stay_case_tolerant_after_normalization() {
        // The schema spelling (`isLocatedIn`) and the Cypher spelling
        // (`IS_LOCATED_IN`) must keep resolving to the same stored edges
        // now that lookups are keyed by normal form.
        let g = sample_graph();
        assert_eq!(g.nodes_with_label("person").len(), 3);
        assert_eq!(g.nodes_with_label("PERSON").len(), 3);
        assert_eq!(g.outgoing_edges(0, Some("isLocatedIn")).len(), 1);
        assert_eq!(g.outgoing_edges(0, Some("IS_LOCATED_IN")).len(), 1);
        assert_eq!(g.incoming_edges(4, Some("islocatedin")).len(), 2);
        assert_eq!(g.outgoing_edges_any(0, &["knows".into(), "isLocatedIn".into()]).len(), 2);
        // Duplicate alternatives must not double-count the same edges.
        assert_eq!(g.outgoing_edges_any(0, &["KNOWS".into(), "knows".into()]).len(), 1);
        assert!(g.nodes_with_label("NoSuchLabel").is_empty());
        assert!(g.outgoing_edges(0, Some("NoSuchLabel")).is_empty());
    }

    #[test]
    fn colliding_label_spellings_are_rejected_at_insert() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("Person", vec![]).unwrap();
        // Same spelling again: fine.
        let b = g.add_node("Person", vec![]).unwrap();
        // A different spelling with the same normal form would silently
        // merge with `Person` in every lookup — reject it loudly.
        let err = g.add_node("PER_SON", vec![]).unwrap_err();
        assert!(err.to_string().contains("collides"), "{err}");
        g.add_edge("HasTag", a, b, vec![]).unwrap();
        g.add_edge("HasTag", b, a, vec![]).unwrap();
        let err = g.add_edge("HAS_TAG", a, b, vec![]).unwrap_err();
        assert!(err.to_string().contains("collides"), "{err}");
        // The failed inserts left the graph unchanged.
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 2);
    }
}
