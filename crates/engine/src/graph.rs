//! In-memory property-graph engine: the stand-in for Neo4j in the paper's
//! evaluation.
//!
//! Two pieces live here:
//!
//! * [`PropertyGraph`] — a compact property-graph store. Node labels, edge
//!   labels and property keys become small integers at insert; every node
//!   and edge keeps its properties as a short run of (key id, value) pairs,
//!   and every node keeps one (edge label id, edge) adjacency list per
//!   direction.
//! * [`GraphEngine`] — a clause-by-clause PGIR interpreter. It evaluates
//!   each `MATCH` construct by expanding pattern elements over the adjacency
//!   lists and projects `WITH`/`RETURN` items (with aggregation) at the end.
//!   A `WHERE` right after a `MATCH` is planned the way Neo4j plans it, as
//!   a label scan plus filters: a pattern's unbound endpoint is seeded from
//!   its label's nodes, filtered by the conjuncts that read only that node
//!   (so `WHERE p.id = $personId` starts one traversal, not one per person),
//!   and every other conjunct runs as soon as the pattern elements that bind
//!   its variables are expanded. The whole `WHERE` still runs after the
//!   `MATCH`, and a `WHERE` that could raise an error (an aggregate, or a
//!   variable that is not a node or edge of that `MATCH`, such as a path
//!   length or a `WITH` scalar) is not pushed at all, so filtering early
//!   changes no row and no error.

use std::collections::HashMap;

use raqlet_common::cell::{Cell, ValueDict};
use raqlet_common::guard::{CheckPoint, QueryGuard};
use raqlet_common::hash::{FxHashMap, FxHashSet};
use raqlet_common::schema::normalize_label;
use raqlet_common::{RaqletError, Relation, Result, Value};
use raqlet_pgir::{
    CmpOp, EdgePat, MatchConstruct, NodePat, OutputItem, PatternElem, PgirClause, PgirExpr,
    PgirQuery,
};

/// A stored node: its label id and where its properties start in the node
/// property arena (they run up to the next node's start).
#[derive(Debug, Clone, Copy)]
struct NodeRecord {
    label: u32,
    props: u32,
}

/// A stored edge: label id, endpoints, and where its properties start in the
/// edge property arena.
#[derive(Debug, Clone, Copy)]
struct EdgeRecord {
    label: u32,
    src: u32,
    dst: u32,
    props: u32,
}

/// Interned labels of one kind (node or edge): one id per normal form (see
/// [`normalize_label`]), and the first raw spelling seen for it.
#[derive(Debug, Clone, Default)]
struct Labels {
    ids: HashMap<String, u32>,
    /// id -> first raw spelling.
    spellings: Vec<String>,
}

impl Labels {
    /// The id of `label`, interned on first sight. Normalization is lossy,
    /// so a spelling that differs from the one already registered for the
    /// same normal form (`HasTag` after `HAS_TAG`) is an error: the two would
    /// silently merge in every lookup.
    fn intern(&mut self, kind: &str, label: &str) -> Result<u32> {
        if let Some(id) = self.spellings.iter().position(|s| s == label) {
            return small_id(id);
        }
        let norm = normalize_label(label);
        if let Some(&id) = self.ids.get(&norm) {
            let first = &self.spellings[id as usize];
            return Err(RaqletError::schema(format!(
                "{kind} label `{label}` collides with `{first}` under label normalization \
                 (underscores and case are ignored); rename one of them"
            )));
        }
        let id = small_id(self.spellings.len())?;
        self.ids.insert(norm, id);
        self.spellings.push(label.to_string());
        Ok(id)
    }

    /// The id of `label`'s normal form, if any stored label has it.
    fn get(&self, label: &str) -> Option<u32> {
        self.ids.get(&normalize_label(label)).copied()
    }
}

fn small_id(n: usize) -> Result<u32> {
    u32::try_from(n).map_err(|_| RaqletError::execution("property graph exceeds u32::MAX entries"))
}

/// Which stored direction of a node's adjacency to read.
#[derive(Debug, Clone, Copy)]
enum Dir {
    Out,
    In,
}

/// An in-memory property graph over interned ids.
///
/// Node labels, edge labels and property keys are interned at **insert**:
/// labels by their normal form (underscores removed, lowercased — see
/// [`normalize_label`]), so a pattern resolves its labels once and every
/// later comparison is an integer compare. Because normalization is lossy,
/// inserting a label whose spelling differs from an earlier one with the
/// same normal form (`HasTag` after `HAS_TAG`) is an error. Properties live
/// in two flat arenas of (key id, value) pairs, and each node has one
/// (edge label id, edge) adjacency list per direction.
#[derive(Debug, Clone, Default)]
pub struct PropertyGraph {
    nodes: Vec<NodeRecord>,
    node_props: Vec<(u32, Value)>,
    edges: Vec<EdgeRecord>,
    edge_props: Vec<(u32, Value)>,
    /// node label id -> node indexes, in insert order.
    by_label: Vec<Vec<u32>>,
    /// node -> (edge label id, edge) of its outgoing edges.
    outgoing: Vec<Vec<(u32, u32)>>,
    /// node -> (edge label id, edge) of its incoming edges.
    incoming: Vec<Vec<(u32, u32)>>,
    node_labels: Labels,
    edge_labels: Labels,
    /// key id -> property key.
    keys: Vec<String>,
}

impl PropertyGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node, returning its index. Errors if the label collides with a
    /// differently spelled label already in the graph (same normal form).
    pub fn add_node(&mut self, label: &str, properties: Vec<(&str, Value)>) -> Result<usize> {
        let label = self.node_labels.intern("node", label)?;
        let idx = self.nodes.len();
        let node = small_id(idx)?;
        let props = push_props(&mut self.keys, &mut self.node_props, properties)?;
        self.nodes.push(NodeRecord { label, props });
        if self.by_label.len() <= label as usize {
            self.by_label.resize_with(label as usize + 1, Vec::new);
        }
        self.by_label[label as usize].push(node);
        self.outgoing.push(Vec::new());
        self.incoming.push(Vec::new());
        Ok(idx)
    }

    /// Add an edge, returning its index. Errors if an endpoint is not a
    /// node of the graph, or if the label collides with a differently
    /// spelled label already in the graph (same normal form).
    pub fn add_edge(
        &mut self,
        label: &str,
        src: usize,
        dst: usize,
        properties: Vec<(&str, Value)>,
    ) -> Result<usize> {
        for end in [src, dst] {
            if end >= self.nodes.len() {
                return Err(RaqletError::schema(format!(
                    "edge `{label}` ends at node {end}, but the graph has {} nodes",
                    self.nodes.len()
                )));
            }
        }
        let label = self.edge_labels.intern("edge", label)?;
        let idx = self.edges.len();
        let edge = small_id(idx)?;
        let props = push_props(&mut self.keys, &mut self.edge_props, properties)?;
        self.edges.push(EdgeRecord { label, src: small_id(src)?, dst: small_id(dst)?, props });
        self.outgoing[src].push((label, edge));
        self.incoming[dst].push((label, edge));
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

    /// All node indexes with the given label (matched case-tolerantly): one
    /// lookup of the label's normal form.
    pub fn nodes_with_label(&self, label: &str) -> Vec<usize> {
        self.label_scan(self.node_label(Some(label)))
    }

    /// A pattern's node label resolved against the stored labels.
    fn node_label(&self, label: Option<&str>) -> NodeLabel {
        match label {
            None => NodeLabel::Any,
            Some(l) => self.node_labels.get(l).map_or(NodeLabel::Absent, NodeLabel::Only),
        }
    }

    /// A hop's `[:A|B]` alternatives resolved against the stored labels
    /// (every label when the list is empty).
    fn edge_label_set(&self, labels: &[String]) -> EdgeLabels {
        if labels.is_empty() {
            return EdgeLabels(None);
        }
        EdgeLabels(Some(labels.iter().filter_map(|l| self.edge_labels.get(l)).collect()))
    }

    /// The nodes a label admits, in insert order.
    fn label_scan(&self, label: NodeLabel) -> Vec<usize> {
        match label {
            NodeLabel::Any => (0..self.nodes.len()).collect(),
            NodeLabel::Only(id) => self
                .by_label
                .get(id as usize)
                .map_or_else(Vec::new, |nodes| nodes.iter().map(|&n| n as usize).collect()),
            NodeLabel::Absent => Vec::new(),
        }
    }

    fn has_label(&self, node: usize, label: NodeLabel) -> bool {
        match label {
            NodeLabel::Any => true,
            NodeLabel::Only(id) => self.nodes[node].label == id,
            NodeLabel::Absent => false,
        }
    }

    /// The edges of `node` in one stored direction whose label `labels`
    /// admits.
    fn edges_of<'a>(
        &'a self,
        node: usize,
        dir: Dir,
        labels: &'a EdgeLabels,
    ) -> impl Iterator<Item = usize> + 'a {
        let adjacency = match dir {
            Dir::Out => &self.outgoing[node],
            Dir::In => &self.incoming[node],
        };
        adjacency.iter().filter(|&&(l, _)| labels.admits(l)).map(|&(_, e)| e as usize)
    }

    /// The edges whose label `labels` admits, in insert order.
    fn edges_labelled<'a>(&'a self, labels: &'a EdgeLabels) -> impl Iterator<Item = usize> + 'a {
        self.edges.iter().enumerate().filter(|(_, e)| labels.admits(e.label)).map(|(i, _)| i)
    }

    fn endpoints(&self, edge: usize) -> (usize, usize) {
        let e = &self.edges[edge];
        (e.src as usize, e.dst as usize)
    }

    fn node_prop(&self, node: usize, key: &str) -> Option<&Value> {
        let start = self.nodes[node].props as usize;
        let end = self.nodes.get(node + 1).map_or(self.node_props.len(), |n| n.props as usize);
        self.find_prop(&self.node_props[start..end], key)
    }

    fn edge_prop(&self, edge: usize, key: &str) -> Option<&Value> {
        let start = self.edges[edge].props as usize;
        let end = self.edges.get(edge + 1).map_or(self.edge_props.len(), |e| e.props as usize);
        self.find_prop(&self.edge_props[start..end], key)
    }

    fn find_prop<'a>(&self, props: &'a [(u32, Value)], key: &str) -> Option<&'a Value> {
        let id = self.keys.iter().position(|k| k == key)? as u32;
        props.iter().find(|(k, _)| *k == id).map(|(_, v)| v)
    }
}

/// Append `properties` to an arena, interning their keys, and return where
/// they start. A key given twice keeps its last value.
fn push_props(
    keys: &mut Vec<String>,
    arena: &mut Vec<(u32, Value)>,
    properties: Vec<(&str, Value)>,
) -> Result<u32> {
    let start = arena.len();
    for (key, value) in properties {
        let key = match keys.iter().position(|k| k == key) {
            Some(id) => small_id(id)?,
            None => {
                keys.push(key.to_string());
                small_id(keys.len() - 1)?
            }
        };
        match arena[start..].iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => arena.push((key, value)),
        }
    }
    small_id(start)
}

/// A pattern's node label, resolved once per pattern.
#[derive(Debug, Clone, Copy)]
enum NodeLabel {
    /// No label: every node.
    Any,
    Only(u32),
    /// A label no stored node has: no node.
    Absent,
}

/// A hop's edge label alternatives, resolved once per pattern: `None`
/// admits every label, `Some` the listed ids (none, if no stored edge has
/// any of the requested labels).
#[derive(Debug, Clone)]
struct EdgeLabels(Option<Vec<u32>>);

impl EdgeLabels {
    fn admits(&self, label: u32) -> bool {
        self.0.as_ref().is_none_or(|ids| ids.contains(&label))
    }
}

/// One step of a traversal: its labels resolved once, and the stored
/// directions it follows.
struct Hop {
    labels: EdgeLabels,
    out: bool,
    inc: bool,
}

impl Hop {
    /// `directed` restricts hops to one stored direction; `forward` picks
    /// which one (reading order vs. `<-[...]-`).
    fn new(graph: &PropertyGraph, labels: &[String], directed: bool, forward: bool) -> Hop {
        Hop {
            labels: graph.edge_label_set(labels),
            out: !directed || forward,
            inc: !directed || !forward,
        }
    }

    fn for_each_neighbour(&self, graph: &PropertyGraph, node: usize, mut f: impl FnMut(usize)) {
        if self.out {
            graph.edges_of(node, Dir::Out, &self.labels).for_each(|e| f(graph.endpoints(e).1));
        }
        if self.inc {
            graph.edges_of(node, Dir::In, &self.labels).for_each(|e| f(graph.endpoints(e).0));
        }
    }
}

/// Breadth-first search state, reused across the sources of one pattern:
/// hop distances in a dense vector (`u32::MAX` = not reached) and the
/// reached nodes in visit order, which is also the queue.
struct Bfs {
    dist: Vec<u32>,
    order: Vec<u32>,
}

impl Bfs {
    fn new(nodes: usize) -> Bfs {
        Bfs { dist: vec![u32::MAX; nodes], order: Vec::new() }
    }

    /// Forget the previous search (touching only the nodes it reached).
    fn reset(&mut self) {
        for &n in &self.order {
            self.dist[n as usize] = u32::MAX;
        }
        self.order.clear();
    }

    /// Reach `node` at distance `d` unless it was reached before.
    fn visit(&mut self, node: usize, d: u32) {
        if self.dist[node] == u32::MAX {
            self.dist[node] = d;
            self.order.push(node as u32);
        }
    }

    /// Run the queue from `head` on: every unreached neighbour of a node at
    /// distance `d < max` is reached at `d + 1`.
    fn run(&mut self, graph: &PropertyGraph, hop: &Hop, mut head: usize, max: u32) {
        while let Some(&n) = self.order.get(head) {
            head += 1;
            let d = self.dist[n as usize];
            if d < max {
                hop.for_each_neighbour(graph, n as usize, |m| self.visit(m, d + 1));
            }
        }
    }

    /// The reached nodes whose distance lies in `[min, max]`.
    fn reached(&self, min: u32, max: u32) -> Vec<(usize, u32)> {
        self.order
            .iter()
            .map(|&n| (n as usize, self.dist[n as usize]))
            .filter(|&(_, d)| d >= min && d <= max)
            .collect()
    }
}

/// A value bound to a PGIR variable during graph execution.
#[derive(Debug, Clone, PartialEq)]
enum Binding {
    Node(usize),
    Edge(usize),
    Scalar(Value),
}

type Row = HashMap<String, Binding>;

/// What a `MATCH` binds a variable as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Node,
    Edge,
    /// A path length.
    Scalar,
}

impl Kind {
    fn of(binding: &Binding) -> Kind {
        match binding {
            Binding::Node(_) => Kind::Node,
            Binding::Edge(_) => Kind::Edge,
            Binding::Scalar(_) => Kind::Scalar,
        }
    }
}

/// The part of a `WHERE` that runs inside the `MATCH` before it.
struct Pushdown<'q> {
    /// Per pattern element: the conjuncts whose variables all hold their
    /// final binding once that element is expanded.
    after: Vec<Vec<&'q PgirExpr>>,
    /// Conjuncts that read one node variable and nothing else, by variable:
    /// the filters of that node's label scan.
    node_only: Vec<(&'q str, Vec<&'q PgirExpr>)>,
}

impl<'q> Pushdown<'q> {
    /// Split `predicate` over the pattern elements of `m`, or `None` when
    /// filtering early could change an error: the predicate has an
    /// aggregate, reads a variable that is not a node or edge of this
    /// `MATCH`, or the `MATCH` or its input rows bind one variable as two
    /// kinds (or a pattern's two ends as one variable).
    fn plan(m: &'q MatchConstruct, predicate: &'q PgirExpr, rows: &[Row]) -> Option<Self> {
        if predicate.contains_aggregate() {
            return None;
        }
        // (variable, kind, the element after which its binding is final):
        // a node's first binding is final, an edge's last one is.
        let mut vars: Vec<(&str, Kind, usize)> = Vec::new();
        for (i, pattern) in m.patterns.iter().enumerate() {
            let (ends, other): ((&NodePat, &NodePat), Option<(&str, Kind)>) = match pattern {
                PatternElem::Node(n) => ((n, n), None),
                PatternElem::Edge(e) => ((&e.src, &e.dst), Some((&e.var, Kind::Edge))),
                PatternElem::Path(p) => ((&p.src, &p.dst), Some((&p.var, Kind::Scalar))),
                PatternElem::Chain(c) => ((&c.src, c.dst()), Some((&c.var, Kind::Scalar))),
            };
            if other.is_some() && ends.0.var == ends.1.var {
                return None;
            }
            let bound = [(ends.0.var.as_str(), Kind::Node), (ends.1.var.as_str(), Kind::Node)];
            for (var, kind) in bound.into_iter().chain(other) {
                match vars.iter_mut().find(|(v, _, _)| *v == var) {
                    Some((_, k, _)) if *k != kind => return None,
                    Some((_, Kind::Node, _)) => {}
                    Some((_, _, at)) => *at = i,
                    None => vars.push((var, kind, i)),
                }
            }
        }
        let mismatched = |row: &Row| {
            vars.iter().any(|(v, kind, _)| row.get(*v).is_some_and(|b| Kind::of(b) != *kind))
        };
        if rows.iter().any(mismatched) {
            return None;
        }

        let mut after = vec![Vec::new(); m.patterns.len()];
        let mut node_only: Vec<(&str, Vec<&PgirExpr>)> = Vec::new();
        for conjunct in predicate.conjuncts() {
            let mut read = Vec::new();
            conjunct.referenced_vars(&mut read);
            let mut at = 0;
            for var in &read {
                match vars.iter().find(|(v, _, _)| v == var) {
                    Some(&(_, Kind::Node | Kind::Edge, i)) => at = at.max(i),
                    _ => return None,
                }
            }
            after[at].push(conjunct);
            if let [var] = read.as_slice() {
                if let Some(&(v, Kind::Node, _)) = vars.iter().find(|(v, _, _)| v == var) {
                    match node_only.iter_mut().find(|(n, _)| *n == v) {
                        Some((_, filters)) => filters.push(conjunct),
                        None => node_only.push((v, vec![conjunct])),
                    }
                }
            }
        }
        Some(Pushdown { after, node_only })
    }
}

/// The filters one pattern element applies while it expands, from the
/// [`Pushdown`] of its `MATCH` (none without one).
struct Filters<'a> {
    plan: Option<&'a Pushdown<'a>>,
    /// The conjuncts whose variables this element completes.
    keep: &'a [&'a PgirExpr],
    /// A one-binding row to evaluate node-only conjuncts on.
    probe: Row,
}

impl<'a> Filters<'a> {
    fn new(plan: Option<&'a Pushdown<'a>>, element: usize) -> Self {
        let keep = plan.and_then(|p| p.after.get(element)).map_or(&[][..], |c| c.as_slice());
        Filters { plan, keep, probe: Row::default() }
    }

    /// True when `row` passes every conjunct this element completes.
    fn keeps(&self, row: &Row, graph: &PropertyGraph) -> Result<bool> {
        for conjunct in self.keep {
            if !eval_predicate(conjunct, row, graph)?.is_truthy() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn node_only(&self, var: &str) -> &'a [&'a PgirExpr] {
        let plan = self.plan.map_or(&[][..], |p| p.node_only.as_slice());
        plan.iter().find(|(v, _)| *v == var).map_or(&[][..], |(_, c)| c.as_slice())
    }

    /// True when `node`, bound to `var`, passes the conjuncts that read
    /// only `var`.
    fn admits(&mut self, var: &str, node: usize, graph: &PropertyGraph) -> Result<bool> {
        let conjuncts = self.node_only(var);
        if conjuncts.is_empty() {
            return Ok(true);
        }
        match self.probe.get_mut(var) {
            Some(slot) => *slot = Binding::Node(node),
            None => {
                self.probe.clear();
                self.probe.insert(var.to_string(), Binding::Node(node));
            }
        }
        for conjunct in conjuncts {
            if !eval_predicate(conjunct, &self.probe, graph)?.is_truthy() {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// The seeds of an unbound pattern end: its label scan, filtered by the
/// conjuncts that read only it. Computed on first use, since they do not
/// depend on the row.
fn seeds_of<'s>(
    seeds: &'s mut Option<Vec<usize>>,
    end: &NodePat,
    f: &mut Filters<'_>,
    graph: &PropertyGraph,
) -> Result<&'s [usize]> {
    if seeds.is_none() {
        let mut kept = Vec::new();
        for node in graph.label_scan(graph.node_label(end.label.as_deref())) {
            if f.admits(&end.var, node, graph)? {
                kept.push(node);
            }
        }
        *seeds = Some(kept);
    }
    Ok(seeds.as_deref().unwrap_or_default())
}

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
        let mut rows: Vec<Row> = vec![Row::default()];
        let mut stats = GraphStats::default();
        let mut output: Option<(Relation, Vec<String>)> = None;

        for (i, clause) in query.clauses.iter().enumerate() {
            guard.checkpoint(CheckPoint::GraphStep)?;
            match clause {
                PgirClause::Match(m) => {
                    let pushdown = match query.clauses.get(i + 1) {
                        Some(PgirClause::Where(w)) => Pushdown::plan(m, &w.predicate, &rows),
                        _ => None,
                    };
                    rows = self.eval_match(m, graph, rows, pushdown.as_ref(), &mut stats, guard)?;
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
        pushdown: Option<&Pushdown<'_>>,
        stats: &mut GraphStats,
        guard: &QueryGuard,
    ) -> Result<Vec<Row>> {
        if m.optional {
            return Err(RaqletError::unsupported("OPTIONAL MATCH on the graph engine"));
        }
        let mut rows = rows;
        for (i, pattern) in m.patterns.iter().enumerate() {
            let mut filters = Filters::new(pushdown, i);
            rows = self.expand_pattern(pattern, graph, rows, &mut filters, stats, guard)?;
        }
        Ok(rows)
    }

    fn expand_pattern(
        &self,
        pattern: &PatternElem,
        graph: &PropertyGraph,
        rows: Vec<Row>,
        f: &mut Filters<'_>,
        stats: &mut GraphStats,
        guard: &QueryGuard,
    ) -> Result<Vec<Row>> {
        // A path pattern is one traversal segment; a multi-hop
        // shortestPath chain is one per step.
        let (src, dst, var, segments) = match pattern {
            PatternElem::Node(n) => return self.expand_node(n, graph, rows, f, stats, guard),
            PatternElem::Edge(e) => return self.expand_edge(e, graph, rows, f, stats, guard),
            PatternElem::Path(p) => {
                let segment = Segment {
                    // Incoming single-segment paths are normalised to forward
                    // direction by the PGIR lowering (endpoints swapped), so
                    // hops always read forward here.
                    hop: Hop::new(graph, &p.labels, p.directed, true),
                    min_hops: p.min_hops,
                    max_hops: p.max_hops,
                    end: &p.dst,
                    end_label: NodeLabel::Any,
                };
                (&p.src, &p.dst, &p.var, vec![segment])
            }
            PatternElem::Chain(c) => {
                let segments = c
                    .steps
                    .iter()
                    .map(|s| Segment {
                        hop: Hop::new(graph, &s.labels, s.directed, s.forward),
                        min_hops: s.min_hops,
                        max_hops: s.max_hops,
                        end: &s.node,
                        end_label: graph.node_label(s.node.label.as_deref()),
                    })
                    .collect();
                (&c.src, c.dst(), &c.var, segments)
            }
        };
        let dst_label = graph.node_label(dst.label.as_deref());
        let mut bfs = Bfs::new(graph.node_count());
        let mut seeds: Option<Vec<usize>> = None;
        let mut out = Vec::new();
        for row in rows {
            guard.checkpoint(CheckPoint::GraphStep)?;
            stats.expansions += 1;
            let single;
            let sources: &[usize] = match bound_node(&row, &src.var) {
                Some(i) => {
                    single = [i];
                    &single
                }
                None => seeds_of(&mut seeds, src, f, graph)?,
            };
            let target = bound_node(&row, &dst.var);
            for &source in sources {
                for (node, dist) in traverse(graph, source, &segments, &row, &mut bfs) {
                    if target.is_some_and(|t| t != node) || !graph.has_label(node, dst_label) {
                        continue;
                    }
                    if target.is_none() && !f.admits(&dst.var, node, graph)? {
                        continue;
                    }
                    let mut r = row.clone();
                    r.insert(src.var.clone(), Binding::Node(source));
                    r.insert(dst.var.clone(), Binding::Node(node));
                    r.insert(var.clone(), Binding::Scalar(Value::Int(dist as i64)));
                    if f.keeps(&r, graph)? {
                        out.push(r);
                    }
                }
            }
        }
        Ok(out)
    }

    fn expand_node(
        &self,
        n: &NodePat,
        graph: &PropertyGraph,
        rows: Vec<Row>,
        f: &mut Filters<'_>,
        stats: &mut GraphStats,
        guard: &QueryGuard,
    ) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        let label = graph.node_label(n.label.as_deref());
        let mut seeds: Option<Vec<usize>> = None;
        for row in rows {
            guard.checkpoint(CheckPoint::GraphStep)?;
            stats.expansions += 1;
            match row.get(&n.var) {
                Some(Binding::Node(idx)) => {
                    if graph.has_label(*idx, label) && f.keeps(&row, graph)? {
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
                    for &idx in seeds_of(&mut seeds, n, f, graph)? {
                        let mut r = row.clone();
                        r.insert(n.var.clone(), Binding::Node(idx));
                        if f.keeps(&r, graph)? {
                            out.push(r);
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    fn expand_edge(
        &self,
        e: &EdgePat,
        graph: &PropertyGraph,
        rows: Vec<Row>,
        f: &mut Filters<'_>,
        stats: &mut GraphStats,
        guard: &QueryGuard,
    ) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        let labels = graph.edge_label_set(&e.labels);
        let src_label = graph.node_label(e.src.label.as_deref());
        let dst_label = graph.node_label(e.dst.label.as_deref());
        // With both ends unbound, a filtered end is seeded from its
        // label scan; otherwise every edge is a candidate.
        let seed_src = !f.node_only(&e.src.var).is_empty();
        let seed_dst = !seed_src && !f.node_only(&e.dst.var).is_empty();
        let mut seeds: Option<Vec<usize>> = None;
        for row in rows {
            guard.checkpoint(CheckPoint::GraphStep)?;
            stats.expansions += 1;
            let src_bound = bound_node(&row, &e.src.var);
            let dst_bound = bound_node(&row, &e.dst.var);
            // (edge, orientation) candidates: a bound end reads its
            // adjacency in both orientations and keeps those that
            // put it in place; a seeded end reads only the
            // orientation that puts it in place, as a scan of every
            // edge would.
            let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
            let mut both_ways = |edge: usize| {
                let (a, b) = graph.endpoints(edge);
                candidates.push((edge, a, b));
                if !e.directed {
                    candidates.push((edge, b, a));
                }
            };
            if let Some(s) = src_bound {
                graph.edges_of(s, Dir::Out, &labels).for_each(&mut both_ways);
                if !e.directed {
                    graph.edges_of(s, Dir::In, &labels).for_each(&mut both_ways);
                }
            } else if let Some(d) = dst_bound {
                graph.edges_of(d, Dir::In, &labels).for_each(&mut both_ways);
                if !e.directed {
                    graph.edges_of(d, Dir::Out, &labels).for_each(&mut both_ways);
                }
            } else if seed_src || seed_dst {
                let end = if seed_src { &e.src } else { &e.dst };
                let (first, second) =
                    if seed_src { (Dir::Out, Dir::In) } else { (Dir::In, Dir::Out) };
                for &node in seeds_of(&mut seeds, end, f, graph)? {
                    for edge in graph.edges_of(node, first, &labels) {
                        let (a, b) = graph.endpoints(edge);
                        candidates.push((edge, a, b));
                    }
                    if !e.directed {
                        for edge in graph.edges_of(node, second, &labels) {
                            let (a, b) = graph.endpoints(edge);
                            candidates.push((edge, b, a));
                        }
                    }
                }
            } else {
                graph.edges_labelled(&labels).for_each(&mut both_ways);
            }
            for (edge, s, d) in candidates {
                if src_bound.is_some_and(|b| b != s) || dst_bound.is_some_and(|b| b != d) {
                    continue;
                }
                if !graph.has_label(s, src_label) || !graph.has_label(d, dst_label) {
                    continue;
                }
                if src_bound.is_none() && !f.admits(&e.src.var, s, graph)? {
                    continue;
                }
                if dst_bound.is_none() && !f.admits(&e.dst.var, d, graph)? {
                    continue;
                }
                let mut r = row.clone();
                r.insert(e.src.var.clone(), Binding::Node(s));
                r.insert(e.dst.var.clone(), Binding::Node(d));
                r.insert(e.var.clone(), Binding::Edge(edge));
                if f.keeps(&r, graph)? {
                    out.push(r);
                }
            }
        }
        Ok(out)
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
                let mut new_row = Row::default();
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
            let mut group_row = Row::default();
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
                    let mut values = Vec::with_capacity(members.len());
                    for member in &members {
                        let v = match arg {
                            Some(a) => binding_to_value(Some(&eval_item(a, member, graph)?), graph),
                            None => Value::Int(1),
                        };
                        values.push(v);
                    }
                    // Set semantics: Raqlet aggregates over distinct values,
                    // matching the Datalog and SQL backends.
                    let result = func.fold(values, *agg_distinct || arg.is_some());
                    group_row.insert(item.alias.clone(), Binding::Scalar(result));
                }
            }
            out.push(group_row);
        }
        Ok(out)
    }
}

/// One segment of a traversal, resolved once per pattern.
struct Segment<'p> {
    hop: Hop,
    min_hops: u32,
    max_hops: Option<u32>,
    /// The node the segment ends at: existential, except after the last
    /// segment, whose end the caller binds.
    end: &'p NodePat,
    end_label: NodeLabel,
}

/// The nodes `segments` reach from `source`, each with its minimal total
/// hop count. BFS yields minimal distances, so under shortest-path
/// semantics every (node, d) pair is a shortest path; for plain
/// reachability the distance is informational only. A multi-hop chain
/// composes the per-segment minima left to right — the composition the DLIR
/// lowering performs (lengths are additive, so per-step minima compose).
fn traverse(
    graph: &PropertyGraph,
    source: usize,
    segments: &[Segment<'_>],
    row: &Row,
    bfs: &mut Bfs,
) -> Vec<(usize, u32)> {
    if let [only] = segments {
        return segment(graph, source, &only.hop, only.min_hops, only.max_hops, bfs);
    }
    let last = segments.len() - 1;
    let mut frontier: FxHashMap<usize, u32> = FxHashMap::default();
    frontier.insert(source, 0);
    for (i, seg) in segments.iter().enumerate() {
        let mut next: FxHashMap<usize, u32> = FxHashMap::default();
        for (&node, &total) in &frontier {
            for (reached, d) in segment(graph, node, &seg.hop, seg.min_hops, seg.max_hops, bfs) {
                // Intermediate nodes are existential: enforce their label
                // (and a pre-bound variable, if any) here.
                if i < last
                    && (!graph.has_label(reached, seg.end_label)
                        || bound_node(row, &seg.end.var).is_some_and(|b| b != reached))
                {
                    continue;
                }
                let candidate = total + d;
                next.entry(reached).and_modify(|t| *t = (*t).min(candidate)).or_insert(candidate);
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    frontier.into_iter().collect()
}

fn bound_node(row: &Row, var: &str) -> Option<usize> {
    match row.get(var) {
        Some(Binding::Node(i)) => Some(*i),
        _ => None,
    }
}

/// The nodes reachable from `source` within `[min_hops, max_hops]` hops
/// over one path segment, each with the minimal hop distance it was first
/// seen at. The source itself is only reached again through a cycle
/// (distance ≥ 1) unless `min_hops == 0`, matching Cypher's semantics for
/// `*1..` patterns on cyclic graphs.
fn segment(
    graph: &PropertyGraph,
    source: usize,
    hop: &Hop,
    min_hops: u32,
    max_hops: Option<u32>,
    bfs: &mut Bfs,
) -> Vec<(usize, u32)> {
    bfs.reset();
    if min_hops >= 2 {
        // A plain BFS only knows each node's *minimal* distance, but a node
        // whose minimal distance is below `min_hops` may still be reached by
        // a longer walk inside the requested range (e.g. bouncing over an
        // undirected edge) — the Datalog lowering enumerates those walks, so
        // the graph engine must too.
        walk(graph, source, hop, min_hops, max_hops, bfs);
        return bfs.reached(0, u32::MAX);
    }
    let max = max_hops.unwrap_or(u32::MAX);
    if max >= 1 {
        hop.for_each_neighbour(graph, source, |m| bfs.visit(m, 1));
    }
    bfs.run(graph, hop, 0, max);
    // A zero-hop match (src = dst with no traversal) is only allowed when the
    // segment's minimum is 0, and it dominates any cyclic path back.
    if min_hops == 0 {
        bfs.visit(source, 0);
        bfs.dist[source] = 0;
    }
    bfs.reached(min_hops, max)
}

/// Walk semantics for `min_hops >= 2`: iterate exact-length frontier sets up
/// to `max_hops` (or `min_hops` when unbounded), reaching each node at the
/// first qualifying walk length; for unbounded patterns the exactly
/// `min_hops` set is then extended by an ordinary BFS — mirroring the
/// two-phase DLIR lowering.
fn walk(
    graph: &PropertyGraph,
    source: usize,
    hop: &Hop,
    min_hops: u32,
    max_hops: Option<u32>,
    bfs: &mut Bfs,
) {
    let cap = max_hops.unwrap_or(min_hops);
    // level[n] = the last walk length whose frontier holds n.
    let mut level = vec![0u32; graph.node_count()];
    let mut frontier: Vec<usize> = vec![source];
    let mut next: Vec<usize> = Vec::new();
    for l in 1..=cap {
        next.clear();
        for &n in &frontier {
            hop.for_each_neighbour(graph, n, |m| {
                if level[m] != l {
                    level[m] = l;
                    next.push(m);
                }
            });
        }
        std::mem::swap(&mut frontier, &mut next);
        if frontier.is_empty() {
            return;
        }
        if l >= min_hops {
            for &n in &frontier {
                bfs.visit(n, l);
            }
        }
    }
    if max_hops.is_none() {
        // `*min..`: everything reachable from a walk of length exactly
        // `min_hops` also qualifies, at that walk's length plus the
        // extension; the reached nodes so far are exactly that frontier.
        bfs.run(graph, hop, 0, u32::MAX);
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
                    Ok(graph.node_prop(*idx, prop).cloned().unwrap_or(Value::Null))
                }
                Binding::Edge(idx) => {
                    Ok(graph.edge_prop(*idx, prop).cloned().unwrap_or(Value::Null))
                }
                Binding::Scalar(_) => Err(RaqletError::semantic(format!(
                    "cannot access property `{prop}` of scalar `{var}`"
                ))),
            }
        }
        PgirExpr::Cmp { op, lhs, rhs } => {
            let l = eval_predicate(lhs, row, graph)?;
            let r = eval_predicate(rhs, row, graph)?;
            Ok(kleene(op.eval(&l, &r)))
        }
        // Kleene AND and OR, short-circuiting on false and on true.
        PgirExpr::And(a, b) => {
            let l = truth(&eval_predicate(a, row, graph)?);
            if l == Some(false) {
                return Ok(Value::Bool(false));
            }
            Ok(kleene(and(l, truth(&eval_predicate(b, row, graph)?))))
        }
        PgirExpr::Or(a, b) => {
            let l = truth(&eval_predicate(a, row, graph)?);
            if l == Some(true) {
                return Ok(Value::Bool(true));
            }
            Ok(kleene(or(l, truth(&eval_predicate(b, row, graph)?))))
        }
        PgirExpr::Not(e) => Ok(kleene(truth(&eval_predicate(e, row, graph)?).map(|t| !t))),
        // `x IN [a, b]` is `x = a OR x = b`.
        PgirExpr::InList { expr, list } => {
            let v = eval_predicate(expr, row, graph)?;
            let equal = list.iter().map(|item| CmpOp::Eq.eval(&v, item));
            Ok(kleene(equal.reduce(or).unwrap_or(Some(false))))
        }
        PgirExpr::Arith { op, lhs, rhs } => {
            let l = eval_predicate(lhs, row, graph)?;
            let r = eval_predicate(rhs, row, graph)?;
            Ok(op.eval(&l, &r).unwrap_or(Value::Null))
        }
        PgirExpr::Aggregate { .. } => {
            Err(RaqletError::semantic("aggregate outside of WITH/RETURN projection"))
        }
    }
}

/// A predicate value's Kleene truth: `None` for NULL. A value that is
/// neither a boolean nor NULL is false.
fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        Value::Null => None,
        _ => Some(false),
    }
}

/// A Kleene truth as a predicate value: NULL for `None`.
fn kleene(t: Option<bool>) -> Value {
    t.map_or(Value::Null, Value::Bool)
}

/// Kleene AND: false wins over NULL.
fn and(l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match (l, r) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// Kleene OR: true wins over NULL.
fn or(l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match (l, r) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
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
            graph.node_prop(*idx, "id").cloned().unwrap_or(Value::Int(*idx as i64))
        }
        Some(Binding::Edge(idx)) => {
            graph.edge_prop(*idx, "id").cloned().unwrap_or(Value::Int(*idx as i64))
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

    /// Edges of `node` in one direction whose label is one of `labels`.
    fn edge_count(g: &PropertyGraph, node: usize, dir: Dir, labels: &[&str]) -> usize {
        let labels: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
        g.edges_of(node, dir, &g.edge_label_set(&labels)).count()
    }

    /// Neighbours one `label` hop away, following stored direction when
    /// `directed`.
    fn neighbour_count(g: &PropertyGraph, node: usize, label: &str, directed: bool) -> usize {
        let mut n = 0;
        Hop::new(g, &[label.to_string()], directed, true).for_each_neighbour(g, node, |_| n += 1);
        n
    }

    fn try_run(src: &str, graph: &PropertyGraph) -> Result<GraphResult> {
        let pgir = cypher_to_pgir(src, &LowerOptions::new())?;
        GraphEngine::new().execute(&pgir, graph)
    }

    fn ints(rows: &[i64]) -> Vec<Vec<Value>> {
        rows.iter().map(|&v| vec![Value::Int(v)]).collect()
    }

    fn int_pairs(rows: &[(i64, i64)]) -> Vec<Vec<Value>> {
        rows.iter().map(|&(a, b)| vec![Value::Int(a), Value::Int(b)]).collect()
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
        assert_eq!(edge_count(&g, 0, Dir::Out, &["KNOWS"]), 1);
        assert_eq!(edge_count(&g, 1, Dir::In, &["KNOWS"]), 1);
        assert_eq!(neighbour_count(&g, 1, "KNOWS", false), 2);
        assert_eq!(neighbour_count(&g, 1, "KNOWS", true), 1);
    }

    #[test]
    fn label_lookups_stay_case_tolerant_after_normalization() {
        // The schema spelling (`isLocatedIn`) and the Cypher spelling
        // (`IS_LOCATED_IN`) must keep resolving to the same stored edges
        // now that lookups are keyed by normal form.
        let g = sample_graph();
        assert_eq!(g.nodes_with_label("person").len(), 3);
        assert_eq!(g.nodes_with_label("PERSON").len(), 3);
        assert_eq!(edge_count(&g, 0, Dir::Out, &["isLocatedIn"]), 1);
        assert_eq!(edge_count(&g, 0, Dir::Out, &["IS_LOCATED_IN"]), 1);
        assert_eq!(edge_count(&g, 4, Dir::In, &["islocatedin"]), 2);
        assert_eq!(edge_count(&g, 0, Dir::Out, &["knows", "isLocatedIn"]), 2);
        // Duplicate alternatives must not double-count the same edges.
        assert_eq!(edge_count(&g, 0, Dir::Out, &["KNOWS", "knows"]), 1);
        assert!(g.nodes_with_label("NoSuchLabel").is_empty());
        assert_eq!(edge_count(&g, 0, Dir::Out, &["NoSuchLabel"]), 0);
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

    #[test]
    fn edges_must_end_at_nodes() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("Person", vec![]).unwrap();
        let err = g.add_edge("KNOWS", a, a + 1, vec![]).unwrap_err();
        assert!(err.to_string().contains("ends at node 1"), "{err}");
        assert_eq!(g.edge_count(), 0);
    }

    // Filtering while matching must not change a row or an error. Every
    // test below states what a MATCH followed by a WHERE returns; the
    // answers are those of filtering after the whole MATCH.

    #[test]
    fn where_with_an_unbound_variable_errors_or_short_circuits_as_written() {
        let g = sample_graph();
        // `zz` is bound by nothing: the first conjunct errors on every row.
        for src in [
            "MATCH (n:Person) WHERE zz.id = 1 AND n.id = 1 RETURN n.id AS id",
            // Even when the other conjunct would remove every row first.
            "MATCH (n:Person) WHERE zz.id = 1 AND n.id = 99 RETURN n.id AS id",
        ] {
            let err = try_run(src, &g).unwrap_err();
            assert!(err.to_string().contains("unknown variable `zz`"), "{src}: {err}");
        }
        // A false first conjunct short-circuits: no row, and no error.
        let result =
            try_run("MATCH (n:Person) WHERE n.id = -1 AND zz.id = 1 RETURN n.id AS id", &g)
                .unwrap();
        assert!(result.rows.is_empty());
    }

    #[test]
    fn where_disjunction_across_two_pattern_variables() {
        let g = sample_graph();
        let result = run(
            "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.id = 1 OR b.id = 3 \
             RETURN a.id AS a, b.id AS b",
            &g,
        );
        assert_eq!(result.rows.sorted(), int_pairs(&[(1, 2), (2, 3)]));
    }

    #[test]
    fn where_on_a_missing_property_matches_nothing() {
        let g = sample_graph();
        for src in [
            "MATCH (p:Person) WHERE p.nickname = 'Alice' RETURN p.id AS id",
            "MATCH (p:Person)-[:KNOWS]->(q:Person) WHERE q.nickname = 2 RETURN p.id AS id",
            "MATCH (p:Person)-[:KNOWS*]->(q:Person) WHERE p.nickname = 1 RETURN q.id AS id",
        ] {
            assert!(run(src, &g).rows.is_empty(), "{src}");
        }
    }

    #[test]
    fn where_on_an_edge_property() {
        let g = sample_graph();
        let result = run(
            "MATCH (a:Person)-[k:KNOWS]->(b:Person) WHERE k.id = 11 RETURN a.id AS a, b.id AS b",
            &g,
        );
        assert_eq!(result.rows.sorted(), int_pairs(&[(2, 3)]));
    }

    #[test]
    fn where_binding_only_the_target_of_a_pattern() {
        let g = sample_graph();
        let hop = run("MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE b.id = 3 RETURN a.id AS id", &g);
        assert_eq!(hop.rows.sorted(), ints(&[2]));
        let star =
            run("MATCH (a:Person)-[:KNOWS*]->(b:Person) WHERE b.id = 3 RETURN a.id AS id", &g);
        assert_eq!(star.rows.sorted(), ints(&[1, 2]));
    }

    #[test]
    fn where_on_the_far_node_of_a_second_pattern() {
        // The CQ2 shape: the second pattern shares `f` with the first, and
        // the conjunct reads only the second pattern's other node.
        let g = sample_graph();
        let result = run(
            "MATCH (p:Person)-[:KNOWS]-(f:Person), (f)-[:IS_LOCATED_IN]->(c:City) \
             WHERE c.name = 'Glasgow' RETURN p.id AS p, f.id AS f",
            &g,
        );
        assert_eq!(result.rows.sorted(), int_pairs(&[(1, 2), (2, 3), (3, 2)]));
    }

    #[test]
    fn where_on_a_with_scalar_or_a_path_length() {
        let g = sample_graph();
        let scalar = run(
            "MATCH (a:Person) WITH a, a.id AS k \
             MATCH (a)-[:KNOWS]->(b:Person) WHERE k = 1 RETURN b.id AS id",
            &g,
        );
        assert_eq!(scalar.rows.sorted(), ints(&[2]));
        let length = run(
            "MATCH p = shortestPath((a:Person)-[:KNOWS*]->(b:Person)) \
             WHERE a.id = 1 AND p >= 2 RETURN b.id AS id",
            &g,
        );
        assert_eq!(length.rows.sorted(), ints(&[3]));
    }

    #[test]
    fn where_pins_both_ends_of_a_shortest_path() {
        let g = sample_graph();
        let result = run(
            "MATCH p = shortestPath((a:Person)-[:KNOWS*]-(b:Person)) \
             WHERE a.id = 1 AND b.id = 3 RETURN b.id AS id, p AS len",
            &g,
        );
        assert_eq!(result.rows.sorted(), int_pairs(&[(3, 2)]));
    }

    #[test]
    fn where_pinned_zero_hop_source_is_reached() {
        let g = sample_graph();
        let result =
            run("MATCH (a:Person)-[:KNOWS*0..]->(b:Person) WHERE a.id = 2 RETURN b.id AS id", &g);
        assert_eq!(result.rows.sorted(), ints(&[2, 3]));
    }

    #[test]
    fn tuple_budget_still_trips_on_an_unfiltered_match() {
        let g = sample_graph();
        let pgir = cypher_to_pgir(
            "MATCH (a:Person)-[:KNOWS*0..]-(b:Person) RETURN a.id AS a, b.id AS b",
            &LowerOptions::new(),
        )
        .unwrap();
        let err = GraphEngine::new()
            .execute_guarded(&pgir, &g, &QueryGuard::new().with_tuple_budget(5))
            .unwrap_err();
        assert!(matches!(err, RaqletError::BudgetExceeded { resource: "tuples", .. }), "{err}");
        let plain = GraphEngine::new().execute(&pgir, &g).unwrap();
        assert_eq!(plain.rows.len(), 9);
    }
}
