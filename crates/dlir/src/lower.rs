//! PGIR → DLIR lowering (the "PGIR to DLIR Translation" stage, Section 3).
//!
//! Each PGIR clause construct is translated into one (or, for disjunctions
//! and undirected edges, several) DLIR rule(s):
//!
//! * `MATCH`  → `Match<k>` rules joining the EDBs of the matched node and
//!   edge types, with variable-length / shortest-path patterns expanded into
//!   auxiliary recursive IDBs;
//! * `WHERE`  → `Where<k>` rules that re-join the EDBs needed for property
//!   access and add comparison constraints;
//! * `WITH`   → `With<k>` rules (plus `Having<k>` when a post-aggregation
//!   filter is present);
//! * `RETURN` → the final `Return` rule, which is marked `.output`.
//!
//! The lowering uses the DL-Schema produced by
//! [`crate::schema_gen::generate_dl_schema`] to place identifier variables at
//! the right positions inside atoms and to infer the types of IDB columns.

use std::collections::HashMap;

use raqlet_common::ids::IdGen;
use raqlet_common::schema::{Column, DlSchema, PgSchema, RelationDecl, RelationKind};
use raqlet_common::{RaqletError, Result, Value, ValueType};
use raqlet_pgir as pgir;
use raqlet_pgir::{PatternElem, PgirClause, PgirExpr, PgirQuery};

use crate::ir::*;
use crate::schema_gen::{generate_dl_schema, resolve_edge_edb};

/// How a PGIR variable is grounded in DLIR.
#[derive(Debug, Clone)]
enum Binding {
    /// A node variable: the DLIR variable holds the node key; `label` names
    /// the node EDB used for property access.
    Node { label: String },
    /// An edge variable: properties are accessed by re-joining the edge EDB
    /// on the source/target variables.
    Edge { edb: String, reversed: bool, src_var: String, dst_var: String },
    /// A plain value produced by a projection (`WITH x.a AS v`): property
    /// access on it is not possible.
    Scalar { ty: ValueType },
}

/// The result of lowering: the DLIR program plus the name of its output
/// relation and that relation's column names (in order).
#[derive(Debug, Clone)]
pub struct LoweredQuery {
    /// The DLIR program (rules + schema + outputs).
    pub program: DlirProgram,
    /// Name of the output relation (`Return`).
    pub output: String,
    /// Output column names in order.
    pub output_columns: Vec<String>,
}

/// Lower a PGIR query against a PG-Schema into DLIR.
pub fn lower_pgir(pg_schema: &PgSchema, query: &PgirQuery) -> Result<LoweredQuery> {
    let dl_schema = generate_dl_schema(pg_schema)?;
    lower_pgir_with_schema(pg_schema, dl_schema, query)
}

/// Lower a PGIR query when the DL-Schema has already been generated.
pub fn lower_pgir_with_schema(
    pg_schema: &PgSchema,
    dl_schema: DlSchema,
    query: &PgirQuery,
) -> Result<LoweredQuery> {
    Lowerer::new(pg_schema, dl_schema).run(query)
}

struct Lowerer<'a> {
    pg: &'a PgSchema,
    program: DlirProgram,
    bindings: HashMap<String, Binding>,
    /// Variable types inferred so far (used to declare IDB columns).
    var_types: HashMap<String, ValueType>,
    /// Current frontier: (relation name, head variables) of the last rule.
    frontier: Option<(String, Vec<String>)>,
    ids: IdGen,
    match_count: usize,
    where_count: usize,
    with_count: usize,
    path_count: usize,
    unwind_count: usize,
}

/// The edge EDBs one path segment may traverse: one `(declaration,
/// reversed)` pair per resolvable label alternative, plus whether hops are
/// restricted to the stored direction.
struct PathEdbs {
    decls: Vec<(RelationDecl, bool)>,
    directed: bool,
    /// The endpoint node labels (in stored orientation) the segment was
    /// resolved against — used to enumerate the zero-hop base.
    src_label: Option<String>,
    dst_label: Option<String>,
}

impl PathEdbs {
    /// All atoms representing one hop from role `from` to role `to`: one per
    /// EDB for directed segments, two (both orientations) when undirected.
    fn hop_atoms(&self, from: &str, to: &str) -> Vec<Atom> {
        let edge_atom = |decl: &RelationDecl, first: &str, second: &str| {
            let mut terms = vec![Term::Wildcard; decl.arity()];
            terms[0] = Term::var(first);
            terms[1] = Term::var(second);
            Atom::new(decl.name.clone(), terms)
        };
        let mut out = Vec::new();
        for (decl, reversed) in &self.decls {
            let stored =
                if *reversed { edge_atom(decl, to, from) } else { edge_atom(decl, from, to) };
            out.push(stored);
            if !self.directed {
                let flipped =
                    if *reversed { edge_atom(decl, from, to) } else { edge_atom(decl, to, from) };
                out.push(flipped);
            }
        }
        out
    }
}

impl<'a> Lowerer<'a> {
    fn new(pg: &'a PgSchema, dl_schema: DlSchema) -> Self {
        Lowerer {
            pg,
            program: DlirProgram::new(dl_schema),
            bindings: HashMap::new(),
            var_types: HashMap::new(),
            frontier: None,
            ids: IdGen::new(),
            match_count: 0,
            where_count: 0,
            with_count: 0,
            path_count: 0,
            unwind_count: 0,
        }
    }

    fn run(mut self, query: &PgirQuery) -> Result<LoweredQuery> {
        let mut output_columns = Vec::new();
        let mut saw_return = false;
        let mut clause_counts: HashMap<&'static str, usize> = HashMap::new();
        for clause in &query.clauses {
            // Stamp every rule a clause produces with the surface construct
            // it came from, so diagnostics can name the user's clause.
            let rules_before = self.program.rules.len();
            let kind = match clause {
                PgirClause::Match(m) => {
                    self.lower_match(m)?;
                    "MATCH"
                }
                PgirClause::Unwind(u) => {
                    self.lower_unwind(u)?;
                    "UNWIND"
                }
                PgirClause::Where(w) => {
                    self.lower_where(&w.predicate)?;
                    "WHERE"
                }
                PgirClause::With(w) => {
                    let cols = self.lower_projection(&w.items, false)?;
                    if let Some(having) = &w.having {
                        self.lower_where(having)?;
                    }
                    let _ = cols;
                    "WITH"
                }
                PgirClause::Return(r) => {
                    output_columns = self.lower_projection(&r.items, true)?;
                    saw_return = true;
                    "RETURN"
                }
            };
            let n = clause_counts.entry(kind).or_insert(0);
            *n += 1;
            let label = format!("{kind} #{n}");
            for rule in &mut self.program.rules[rules_before..] {
                if rule.provenance.is_none() {
                    rule.provenance = Some(label.clone());
                }
            }
        }
        if !saw_return {
            return Err(RaqletError::semantic("PGIR query has no RETURN construct"));
        }
        self.program.add_output("Return");
        Ok(LoweredQuery { program: self.program, output: "Return".to_string(), output_columns })
    }

    // ----- helpers ----------------------------------------------------------

    fn fresh_var(&mut self, prefix: &str) -> String {
        loop {
            let v = self.ids.fresh(prefix);
            if !self.bindings.contains_key(&v) && !self.var_types.contains_key(&v) {
                return v;
            }
        }
    }

    /// Declare an IDB relation for a rule head given its variable list.
    fn declare_idb(&mut self, name: &str, vars: &[String]) {
        let columns: Vec<Column> = vars
            .iter()
            .map(|v| {
                let ty = self.var_types.get(v).copied().unwrap_or(ValueType::Int);
                Column::new(v.clone(), ty)
            })
            .collect();
        let decl = RelationDecl::new(name, columns, RelationKind::Idb);
        self.program.schema.upsert(decl);
    }

    /// The frontier atom (`Match1(n, x1, p)`) to start the next rule's body.
    fn frontier_atom(&self) -> Option<Atom> {
        self.frontier.as_ref().map(|(name, vars)| {
            Atom::new(name.clone(), vars.iter().map(|v| Term::var(v)).collect())
        })
    }

    fn frontier_vars(&self) -> Vec<String> {
        self.frontier.as_ref().map(|(_, v)| v.clone()).unwrap_or_default()
    }

    /// The node EDB declaration for a label.
    fn node_decl(&self, label: &str) -> Result<&RelationDecl> {
        let node = self.pg.node_by_label(label).ok_or_else(|| RaqletError::UnknownName {
            kind: "node label",
            name: label.to_string(),
        })?;
        self.program.schema.require(&node.label)
    }

    /// Build an atom `Label(v, _, _, ...)` binding only the key column.
    fn node_atom(&self, label: &str, var: &str) -> Result<Atom> {
        let decl = self.node_decl(label)?;
        let mut terms = vec![Term::Wildcard; decl.arity()];
        terms[0] = Term::var(var);
        Ok(Atom::new(decl.name.clone(), terms))
    }

    /// Register a node binding and its type.
    fn bind_node(&mut self, var: &str, label: &str) {
        self.bindings.insert(var.to_string(), Binding::Node { label: label.to_string() });
        self.var_types.insert(var.to_string(), ValueType::Int);
    }

    /// The label previously bound to a node variable, if any.
    fn node_label_of(&self, var: &str) -> Option<String> {
        match self.bindings.get(var) {
            Some(Binding::Node { label }) => Some(label.clone()),
            _ => None,
        }
    }

    // ----- MATCH ------------------------------------------------------------

    fn lower_match(&mut self, m: &pgir::MatchConstruct) -> Result<()> {
        if m.optional {
            return Err(RaqletError::unsupported(
                "OPTIONAL MATCH requires outer joins, which DLIR does not model yet",
            ));
        }
        self.match_count += 1;
        let rule_name = format!("Match{}", self.match_count);

        let mut head_vars = self.frontier_vars();
        // Alternative bodies arising from undirected single-hop edges and
        // alternative relationship types: each multiplies the number of
        // generated rule bodies.
        let mut bodies: Vec<Vec<BodyElem>> = vec![Vec::new()];
        if let Some(atom) = self.frontier_atom() {
            for b in &mut bodies {
                b.push(BodyElem::Atom(atom.clone()));
            }
        }

        for pattern in &m.patterns {
            match pattern {
                PatternElem::Node(n) => {
                    let label = match (&n.label, self.node_label_of(&n.var)) {
                        (Some(l), _) => l.clone(),
                        (None, Some(l)) => l,
                        (None, None) => {
                            return Err(RaqletError::semantic(format!(
                                "node variable `{}` has no label and no prior binding",
                                n.var
                            )))
                        }
                    };
                    let atom = self.node_atom(&label, &n.var)?;
                    for b in &mut bodies {
                        b.push(BodyElem::Atom(atom.clone()));
                    }
                    self.bind_node(&n.var, &label);
                    push_unique(&mut head_vars, &n.var);
                }
                PatternElem::Edge(e) => {
                    let variants = self.edge_atoms(e)?;
                    // Node-type atoms for both endpoints when labelled.
                    let mut endpoint_atoms = Vec::new();
                    for node in [&e.src, &e.dst] {
                        let label = node.label.clone().or_else(|| self.node_label_of(&node.var));
                        if let Some(label) = label {
                            endpoint_atoms.push(self.node_atom(&label, &node.var)?);
                            self.bind_node(&node.var, &label);
                        } else {
                            // Untyped endpoint: still a node key (number).
                            self.var_types.insert(node.var.clone(), ValueType::Int);
                        }
                    }
                    // Alternative labels multiply the generated rule bodies
                    // (one body per resolvable EDB — their union); undirected
                    // patterns double each again for the backward orientation.
                    let mut multiplied = Vec::with_capacity(
                        bodies.len() * variants.len() * if e.directed { 1 } else { 2 },
                    );
                    for b in &bodies {
                        for (forward, backward) in &variants {
                            let mut fwd = b.clone();
                            fwd.push(BodyElem::Atom(forward.0.clone()));
                            for a in &endpoint_atoms {
                                fwd.push(BodyElem::Atom(a.clone()));
                            }
                            multiplied.push(fwd);
                            if !e.directed {
                                let mut bwd = b.clone();
                                bwd.push(BodyElem::Atom(backward.clone()));
                                for a in &endpoint_atoms {
                                    bwd.push(BodyElem::Atom(a.clone()));
                                }
                                multiplied.push(bwd);
                            }
                        }
                    }
                    bodies = multiplied;
                    push_unique(&mut head_vars, &e.src.var);
                    if variants.iter().all(|(forward, _)| forward.1) {
                        // The edge variable is bound to the edge's own id
                        // column, as in the paper's `x1`. With alternative
                        // labels it is only exported when *every* EDB binds
                        // it, so each union body stays range-restricted.
                        push_unique(&mut head_vars, &e.var);
                    }
                    push_unique(&mut head_vars, &e.dst.var);
                }
                PatternElem::Chain(c) => {
                    let elems = self.lower_chain(c)?;
                    let (src, dst) = (c.src.clone(), c.dst().clone());
                    self.attach_path_reference(&src, &dst, elems, &mut bodies, &mut head_vars)?;
                }
                PatternElem::Path(p) => {
                    let elems = self.lower_path(p)?;
                    let (src, dst) = (p.src.clone(), p.dst.clone());
                    self.attach_path_reference(&src, &dst, elems, &mut bodies, &mut head_vars)?;
                }
            }
        }

        let head = Atom::new(rule_name.clone(), head_vars.iter().map(|v| Term::var(v)).collect());
        self.declare_idb(&rule_name, &head_vars);
        for body in bodies {
            self.program.add_rule(Rule::new(head.clone(), body));
        }
        self.frontier = Some((rule_name, head_vars));
        Ok(())
    }

    /// Build the edge EDB atoms for a single-hop pattern, one variant per
    /// resolvable label alternative: the forward orientation (src→dst as
    /// written in PGIR) and, for undirected patterns, the backward
    /// orientation. Returns `((forward_atom, edge_var_bound), backward_atom)`
    /// per variant.
    #[allow(clippy::type_complexity)]
    fn edge_atoms(&mut self, e: &pgir::EdgePat) -> Result<Vec<((Atom, bool), Atom)>> {
        if e.labels.is_empty() {
            return Err(RaqletError::unsupported(
                "relationship patterns without a type are not supported",
            ));
        }
        let src_label = e.src.label.clone().or_else(|| self.node_label_of(&e.src.var));
        let dst_label = e.dst.label.clone().or_else(|| self.node_label_of(&e.dst.var));

        let mut variants = Vec::new();
        let mut seen: Vec<(String, bool)> = Vec::new();
        for label in &e.labels {
            let (edb, reversed) =
                resolve_edge_edb(self.pg, label, src_label.as_deref(), dst_label.as_deref())?;
            if seen.contains(&(edb.clone(), reversed)) {
                // Two spellings of the same type (`:knows|KNOWS`) resolve to
                // one EDB; keep a single variant.
                continue;
            }
            seen.push((edb.clone(), reversed));
            let decl = self.program.schema.require(&edb)?.clone();

            let make = |first: &str, second: &str| {
                let mut terms = vec![Term::Wildcard; decl.arity()];
                terms[0] = Term::var(first);
                terms[1] = Term::var(second);
                let mut edge_bound = false;
                if decl.arity() > 2 {
                    terms[2] = Term::var(&e.var);
                    edge_bound = true;
                }
                (Atom::new(decl.name.clone(), terms), edge_bound)
            };

            // `reversed` means the schema stores the edge dst→src relative to
            // the pattern's reading order.
            let (fwd_first, fwd_second) = if reversed {
                (e.dst.var.clone(), e.src.var.clone())
            } else {
                (e.src.var.clone(), e.dst.var.clone())
            };
            let forward = make(&fwd_first, &fwd_second);
            // The backward orientation (used by undirected patterns) binds
            // the edge variable too, so rules mentioning it stay
            // range-restricted.
            let backward = make(&fwd_second, &fwd_first).0;

            if forward.1 {
                let edge_id_ty = decl.columns[2].ty;
                self.var_types.entry(e.var.clone()).or_insert(edge_id_ty);
            }
            variants.push((forward, backward));
        }
        // Property access on the edge variable re-joins one specific EDB,
        // which is only well-defined when the alternatives collapse to a
        // single EDB.
        if let ([(edb, reversed)], [(forward, _)]) = (seen.as_slice(), variants.as_slice()) {
            if forward.1 {
                self.bindings.insert(
                    e.var.clone(),
                    Binding::Edge {
                        edb: edb.clone(),
                        reversed: *reversed,
                        src_var: e.src.var.clone(),
                        dst_var: e.dst.var.clone(),
                    },
                );
            }
        }
        Ok(variants)
    }

    /// Shared tail for `Path` / `Chain` pattern elements: add endpoint
    /// node-type atoms (when labelled) and the referencing body elements to
    /// every rule body, and export the two endpoint variables. Chain
    /// intermediates never reach here — they are enforced inside the chain
    /// rules.
    fn attach_path_reference(
        &mut self,
        src: &pgir::NodePat,
        dst: &pgir::NodePat,
        elems: Vec<BodyElem>,
        bodies: &mut [Vec<BodyElem>],
        head_vars: &mut Vec<String>,
    ) -> Result<()> {
        for node in [src, dst] {
            let label = node.label.clone().or_else(|| self.node_label_of(&node.var));
            if let Some(label) = label {
                let atom = self.node_atom(&label, &node.var)?;
                for b in bodies.iter_mut() {
                    b.push(BodyElem::Atom(atom.clone()));
                }
                self.bind_node(&node.var, &label);
            } else {
                self.var_types.insert(node.var.clone(), ValueType::Int);
            }
        }
        for b in bodies.iter_mut() {
            b.extend(elems.iter().cloned());
        }
        push_unique(head_vars, &src.var);
        push_unique(head_vars, &dst.var);
        Ok(())
    }

    /// Resolve the edge EDBs a path segment may traverse: one per label
    /// alternative, deduplicated when several spellings name the same EDB.
    fn resolve_path_edbs(
        &self,
        labels: &[String],
        src_label: Option<&str>,
        dst_label: Option<&str>,
        directed: bool,
    ) -> Result<PathEdbs> {
        if labels.is_empty() {
            return Err(RaqletError::unsupported(
                "variable-length patterns without a relationship type are not supported",
            ));
        }
        let mut decls: Vec<(RelationDecl, bool)> = Vec::new();
        for label in labels {
            let (edb, reversed) = resolve_edge_edb(self.pg, label, src_label, dst_label)?;
            if decls.iter().any(|(d, r)| d.name == edb && *r == reversed) {
                continue;
            }
            let decl = self.program.schema.require(&edb)?.clone();
            decls.push((decl, reversed));
        }
        Ok(PathEdbs {
            decls,
            directed,
            src_label: src_label.map(str::to_string),
            dst_label: dst_label.map(str::to_string),
        })
    }

    /// Emit the base / recursive (and, for `min_hops == 0`, zero-hop) rules
    /// of a path-segment IDB named `name` over the given hop EDBs. With
    /// `with_length` the IDB is `(src, dst, len)`, otherwise `(src, dst)`.
    fn emit_path_rules(
        &mut self,
        name: &str,
        edbs: &PathEdbs,
        min_hops: u32,
        max_hops: Option<u32>,
        with_length: bool,
    ) -> Result<()> {
        // Declare the auxiliary IDB.
        let mut columns =
            vec![Column::new("src", ValueType::Int), Column::new("dst", ValueType::Int)];
        if with_length {
            columns.push(Column::new("len", ValueType::Int));
        }
        self.program.schema.upsert(RelationDecl::new(name.to_string(), columns, RelationKind::Idb));

        let head = |src: &str, dst: &str, len: Option<Term>| {
            let mut terms = vec![Term::var(src), Term::var(dst)];
            if let Some(l) = len {
                terms.push(l);
            }
            Atom::new(name.to_string(), terms)
        };

        // `*0..0` matches the zero-hop rows only: no hop rules at all —
        // emitting the length-1 base would leak one-hop rows into consumers
        // that (like chain steps) do not re-filter on the length column.
        if max_hops != Some(0) {
            // Base rules: one hop (length 1).
            for atom in edbs.hop_atoms("s", "d") {
                let len = with_length.then(|| Term::int(1));
                self.program.add_rule(Rule::new(head("s", "d", len), vec![BodyElem::Atom(atom)]));
            }
            // Recursive rules: extend by one hop (length + 1, bounded by
            // max_hops when given, which also guarantees termination under
            // plain set semantics). With `max_hops == 1` the extension can
            // never fire (the `l0 < 1` guard excludes every base row, and a
            // zero-hop row only extends to rows the base already produces),
            // so skip it rather than emit a dead rule.
            for atom in if max_hops == Some(1) { vec![] } else { edbs.hop_atoms("m", "d") } {
                let rec_terms = if with_length {
                    vec![Term::var("s"), Term::var("m"), Term::var("l0")]
                } else {
                    vec![Term::var("s"), Term::var("m")]
                };
                let mut body = vec![
                    BodyElem::Atom(Atom::new(name.to_string(), rec_terms)),
                    BodyElem::Atom(atom),
                ];
                if with_length {
                    body.push(BodyElem::eq(
                        DlExpr::var("l"),
                        DlExpr::Arith {
                            op: ArithOp::Add,
                            lhs: Box::new(DlExpr::var("l0")),
                            rhs: Box::new(DlExpr::int(1)),
                        },
                    ));
                    if let Some(max) = max_hops {
                        body.push(BodyElem::Constraint {
                            op: CmpOp::Lt,
                            lhs: DlExpr::var("l0"),
                            rhs: DlExpr::int(max as i64),
                        });
                    }
                }
                let len = with_length.then(|| Term::var("l"));
                self.program.add_rule(Rule::new(head("s", "d", len), body));
            }
        }
        // Zero-hop base when min_hops == 0: every candidate node reaches
        // itself in zero hops. Enumerating the candidates needs a node EDB,
        // so at least one endpoint must carry a resolvable label — silently
        // skipping the rule here would return wrong (zero-hop-less) results.
        if min_hops == 0 {
            let mut zero_atoms = Vec::new();
            for label in [edbs.src_label.clone(), edbs.dst_label.clone()].into_iter().flatten() {
                let atom = self.node_atom(&label, "s")?;
                if !zero_atoms.contains(&atom) {
                    zero_atoms.push(atom);
                }
            }
            if zero_atoms.is_empty() {
                return Err(RaqletError::unsupported(
                    "zero-hop variable-length pattern (`*0..`) requires a node label on at \
                     least one endpoint to enumerate the matching nodes",
                ));
            }
            let len = with_length.then(|| Term::int(0));
            self.program.add_rule(Rule::new(
                head("s", "s", len),
                zero_atoms.into_iter().map(BodyElem::Atom).collect(),
            ));
        }
        Ok(())
    }

    /// Expand a variable-length / shortest-path pattern into an auxiliary
    /// recursive IDB and return the body elements that reference it.
    fn lower_path(&mut self, p: &pgir::PathPat) -> Result<Vec<BodyElem>> {
        let src_label = p.src.label.clone().or_else(|| self.node_label_of(&p.src.var));
        let dst_label = p.dst.label.clone().or_else(|| self.node_label_of(&p.dst.var));
        let edbs = self.resolve_path_edbs(
            &p.labels,
            src_label.as_deref(),
            dst_label.as_deref(),
            p.directed,
        )?;

        let shortest = !matches!(p.semantics, pgir::PathSemantics::Reachability);
        if shortest && p.min_hops > 1 {
            // The min lattice keeps the *globally* minimal length per pair;
            // combining it with a `len >= min` filter would drop every pair
            // whose true shortest path is below the minimum instead of
            // returning its shortest path of length >= min.
            return Err(RaqletError::semantic(
                "shortestPath with a minimum hop count above 1 is not supported: the \
                 shortest path per endpoint pair may be shorter than the requested minimum",
            ));
        }

        self.path_count += 1;
        let needs_length = p.max_hops.is_some() || shortest;
        let name = if shortest {
            format!("ShortestPath{}", self.path_count)
        } else {
            format!("Path{}", self.path_count)
        };

        if !needs_length && p.min_hops > 1 {
            // `*min..` with an unbounded maximum: tracking every walk length
            // would never terminate on cyclic data, and capping the length
            // column at `min` would lose pairs only reachable by longer
            // walks. Two phases instead: a bounded helper materialises walks
            // of length exactly `min` (its recursion is capped at `min`
            // hops), and an ordinary closure extends them hop by hop.
            let seed = format!("{name}Seed");
            self.emit_path_rules(&seed, &edbs, 1, Some(p.min_hops), true)?;
            self.program.schema.upsert(RelationDecl::new(
                name.clone(),
                vec![Column::new("src", ValueType::Int), Column::new("dst", ValueType::Int)],
                RelationKind::Idb,
            ));
            self.program.add_rule(Rule::new(
                Atom::new(name.clone(), vec![Term::var("s"), Term::var("d")]),
                vec![
                    BodyElem::Atom(Atom::new(
                        seed,
                        vec![Term::var("s"), Term::var("d"), Term::var("l")],
                    )),
                    BodyElem::Constraint {
                        op: CmpOp::Eq,
                        lhs: DlExpr::var("l"),
                        rhs: DlExpr::int(p.min_hops as i64),
                    },
                ],
            ));
            for atom in edbs.hop_atoms("m", "d") {
                self.program.add_rule(Rule::new(
                    Atom::new(name.clone(), vec![Term::var("s"), Term::var("d")]),
                    vec![
                        BodyElem::Atom(Atom::new(
                            name.clone(),
                            vec![Term::var("s"), Term::var("m")],
                        )),
                        BodyElem::Atom(atom),
                    ],
                ));
            }
            return Ok(vec![BodyElem::Atom(Atom::new(
                name,
                vec![Term::var(&p.src.var), Term::var(&p.dst.var)],
            ))]);
        }

        self.emit_path_rules(&name, &edbs, p.min_hops, p.max_hops, needs_length)?;

        if needs_length {
            if shortest {
                // Shortest-path semantics: keep only the minimal length per
                // (src, dst) pair during fixpoint evaluation so the program
                // terminates even without an upper bound.
                self.program.set_lattice(name.clone(), LatticeMerge::MinOnColumn(2));
            }

            // Reference from the match rule.
            let len_var = self.fresh_var("len");
            self.var_types.insert(len_var.clone(), ValueType::Int);
            let mut elems = vec![BodyElem::Atom(Atom::new(
                name.clone(),
                vec![Term::var(&p.src.var), Term::var(&p.dst.var), Term::var(&len_var)],
            ))];
            if p.min_hops > 1 {
                elems.push(BodyElem::Constraint {
                    op: CmpOp::Ge,
                    lhs: DlExpr::var(&len_var),
                    rhs: DlExpr::int(p.min_hops as i64),
                });
            }
            if let Some(max) = p.max_hops {
                elems.push(BodyElem::Constraint {
                    op: CmpOp::Le,
                    lhs: DlExpr::var(&len_var),
                    rhs: DlExpr::int(max as i64),
                });
            }
            Ok(elems)
        } else {
            // Plain transitive closure (unbounded reachability, min 0/1 hop
            // — the zero-hop base rule is emitted by `emit_path_rules`).
            Ok(vec![BodyElem::Atom(Atom::new(
                name,
                vec![Term::var(&p.src.var), Term::var(&p.dst.var)],
            ))])
        }
    }

    /// Expand a multi-hop `shortestPath` chain: one lattice-annotated path
    /// IDB per step (each keeping the minimal hop count per endpoint pair),
    /// joined through the existential intermediate nodes by a final IDB that
    /// sums the per-step lengths and keeps the minimal total per (source,
    /// target) pair. Per-step minima compose: lengths are additive, so the
    /// minimal total via any intermediate is the sum of the per-step minima.
    fn lower_chain(&mut self, c: &pgir::ChainPat) -> Result<Vec<BodyElem>> {
        self.path_count += 1;
        let sp_name = format!("ShortestPath{}", self.path_count);
        let last = c.steps.len() - 1;

        let mut body: Vec<BodyElem> = Vec::new();
        let mut len_vars: Vec<String> = Vec::new();
        let mut prev_label = c.src.label.clone().or_else(|| self.node_label_of(&c.src.var));
        for (i, step) in c.steps.iter().enumerate() {
            if step.min_hops > 1 {
                return Err(RaqletError::semantic(
                    "shortestPath with a minimum hop count above 1 is not supported: the \
                     shortest path per endpoint pair may be shorter than the requested minimum",
                ));
            }
            let is_last = i == last;
            if !is_last && self.bindings.contains_key(&step.node.var) {
                return Err(RaqletError::unsupported(format!(
                    "intermediate node `{}` of a multi-hop shortestPath is already bound; \
                     intermediate nodes are existential",
                    step.node.var
                )));
            }
            let node_label = step.node.label.clone().or_else(|| {
                if is_last {
                    self.node_label_of(&step.node.var)
                } else {
                    None
                }
            });

            // Stored-orientation endpoints: `<-[...]-` steps run node→prev.
            let inverted = step.directed && !step.forward;
            let (res_src, res_dst) = if inverted {
                (node_label.as_deref(), prev_label.as_deref())
            } else {
                (prev_label.as_deref(), node_label.as_deref())
            };
            let edbs = self.resolve_path_edbs(&step.labels, res_src, res_dst, step.directed)?;
            let step_name = format!("{sp_name}Step{}", i + 1);
            self.emit_path_rules(&step_name, &edbs, step.min_hops, step.max_hops, true)?;
            self.program.set_lattice(step_name.clone(), LatticeMerge::MinOnColumn(2));

            // Reference the step from the summing rule, chaining role
            // variables s, m1, ..., d left to right.
            let from_role = if i == 0 { "s".to_string() } else { format!("m{i}") };
            let to_role = if is_last { "d".to_string() } else { format!("m{}", i + 1) };
            let (first, second) =
                if inverted { (to_role.clone(), from_role) } else { (from_role, to_role.clone()) };
            let len_var = format!("l{}", i + 1);
            body.push(BodyElem::Atom(Atom::new(
                step_name,
                vec![Term::var(&first), Term::var(&second), Term::var(&len_var)],
            )));
            // Enforce intermediate node labels inside the summing rule (the
            // intermediates never reach the match rule).
            if !is_last {
                if let Some(l) = &node_label {
                    body.push(BodyElem::Atom(self.node_atom(l, &to_role)?));
                }
            }
            len_vars.push(len_var);
            prev_label = node_label;
        }

        // l = l1 + l2 + ... summed left to right. Invariant: the chain has at
        // least one step, so the reduce cannot be empty.
        #[allow(clippy::expect_used)]
        let total = len_vars
            .iter()
            .map(|v| DlExpr::var(v))
            .reduce(|acc, v| DlExpr::Arith {
                op: ArithOp::Add,
                lhs: Box::new(acc),
                rhs: Box::new(v),
            })
            .expect("chains have at least one step");
        body.push(BodyElem::eq(DlExpr::var("l"), total));

        self.program.schema.upsert(RelationDecl::new(
            sp_name.clone(),
            vec![
                Column::new("src", ValueType::Int),
                Column::new("dst", ValueType::Int),
                Column::new("len", ValueType::Int),
            ],
            RelationKind::Idb,
        ));
        self.program.add_rule(Rule::new(
            Atom::new(sp_name.clone(), vec![Term::var("s"), Term::var("d"), Term::var("l")]),
            body,
        ));
        // Keep only the minimal *total* length per (source, target) pair —
        // the same lattice the single-segment shortest path uses.
        self.program.set_lattice(sp_name.clone(), LatticeMerge::MinOnColumn(2));

        let len_var = self.fresh_var("len");
        self.var_types.insert(len_var.clone(), ValueType::Int);
        Ok(vec![BodyElem::Atom(Atom::new(
            sp_name,
            vec![Term::var(&c.src.var), Term::var(&c.dst().var), Term::var(&len_var)],
        ))])
    }

    // ----- UNWIND -----------------------------------------------------------

    /// Lower `UNWIND [v1, ...] AS x`: the list becomes an inline-constant EDB
    /// (facts from literals, written as `UnwindList<k>(x) :- x = v.` rules so
    /// the optimizer can propagate the constants), which is cross-joined into
    /// the frontier exactly like a MATCH.
    fn lower_unwind(&mut self, u: &pgir::UnwindConstruct) -> Result<()> {
        if self.bindings.contains_key(&u.alias) {
            return Err(RaqletError::semantic(format!(
                "UNWIND alias `{}` is already bound",
                u.alias
            )));
        }
        if u.values.is_empty() {
            return Err(RaqletError::semantic(
                "UNWIND over an empty list produces no rows; Raqlet rejects it like IN []",
            ));
        }
        self.unwind_count += 1;
        let list_name = format!("UnwindList{}", self.unwind_count);
        let rule_name = format!("Unwind{}", self.unwind_count);

        let ty = u.values.iter().find_map(|v| v.value_type()).unwrap_or(ValueType::Int);
        self.var_types.insert(u.alias.clone(), ty);
        self.declare_idb(&list_name, std::slice::from_ref(&u.alias));
        for v in &u.values {
            self.program.add_rule(Rule::new(
                Atom::new(list_name.clone(), vec![Term::var(&u.alias)]),
                vec![BodyElem::eq(DlExpr::var(&u.alias), DlExpr::Const(v.clone()))],
            ));
        }

        // Chain into the frontier: every current row is extended with one
        // binding of the alias per list element.
        let mut head_vars = self.frontier_vars();
        let mut body = Vec::new();
        if let Some(atom) = self.frontier_atom() {
            body.push(BodyElem::Atom(atom));
        }
        body.push(BodyElem::Atom(Atom::new(list_name, vec![Term::var(&u.alias)])));
        push_unique(&mut head_vars, &u.alias);
        let head = Atom::new(rule_name.clone(), head_vars.iter().map(|v| Term::var(v)).collect());
        self.declare_idb(&rule_name, &head_vars);
        self.program.add_rule(Rule::new(head, body));

        self.bindings.insert(u.alias.clone(), Binding::Scalar { ty });
        self.frontier = Some((rule_name, head_vars));
        Ok(())
    }

    // ----- WHERE ------------------------------------------------------------

    fn lower_where(&mut self, predicate: &PgirExpr) -> Result<()> {
        let Some((_, frontier_vars)) = self.frontier.clone() else {
            return Err(RaqletError::semantic("WHERE before any MATCH"));
        };
        self.where_count += 1;
        let rule_name = format!("Where{}", self.where_count);

        // Normalise the predicate into disjunctive normal form; each disjunct
        // becomes one rule with the same head (their union).
        let dnf = to_dnf(predicate)?;
        let head =
            Atom::new(rule_name.clone(), frontier_vars.iter().map(|v| Term::var(v)).collect());
        self.declare_idb(&rule_name, &frontier_vars);

        for conjuncts in dnf {
            let mut ctx = RuleBodyCtx::new(self);
            if let Some(atom) = ctx.lowerer.frontier_atom() {
                ctx.body.push(BodyElem::Atom(atom));
            }
            for c in conjuncts {
                ctx.add_predicate(&c)?;
            }
            let body = ctx.finish();
            self.program.add_rule(Rule::new(head.clone(), body));
        }
        self.frontier = Some((rule_name, frontier_vars));
        Ok(())
    }

    // ----- WITH / RETURN ----------------------------------------------------

    fn lower_projection(
        &mut self,
        items: &[pgir::OutputItem],
        is_return: bool,
    ) -> Result<Vec<String>> {
        if self.frontier.is_none() {
            return Err(RaqletError::semantic("projection before any MATCH"));
        }
        let rule_name = if is_return {
            "Return".to_string()
        } else {
            self.with_count += 1;
            format!("With{}", self.with_count)
        };

        let mut ctx = RuleBodyCtx::new(self);
        if let Some(atom) = ctx.lowerer.frontier_atom() {
            ctx.body.push(BodyElem::Atom(atom));
        }

        let mut head_vars: Vec<String> = Vec::new();
        let mut aggregation: Option<Aggregation> = None;
        let mut new_bindings: Vec<(String, Binding)> = Vec::new();

        for item in items {
            let alias = item.alias.clone();
            match &item.expr {
                PgirExpr::Aggregate { func, distinct, arg } => {
                    if aggregation.is_some() {
                        return Err(RaqletError::unsupported(
                            "more than one aggregate in a single projection",
                        ));
                    }
                    let input_var = match arg {
                        Some(a) => Some(ctx.expr_to_var(a)?),
                        None => None,
                    };
                    aggregation = Some(Aggregation {
                        func: *func,
                        input_var,
                        output_var: alias.clone(),
                        group_by: Vec::new(), // filled in after the loop
                        distinct: *distinct,
                    });
                    new_bindings.push((alias.clone(), Binding::Scalar { ty: ValueType::Int }));
                    head_vars.push(alias);
                }
                other => {
                    let (var, ty, binding) = ctx.project_item(other, &alias)?;
                    new_bindings.push((alias.clone(), binding));
                    ctx.lowerer.var_types.insert(var.clone(), ty);
                    head_vars.push(var);
                }
            }
        }

        if let Some(agg) = &mut aggregation {
            agg.group_by = head_vars.iter().filter(|v| **v != agg.output_var).cloned().collect();
        }

        let body = ctx.finish();
        let head = Atom::new(rule_name.clone(), head_vars.iter().map(|v| Term::var(v)).collect());
        // Types for the head columns of this rule.
        for (alias, binding) in &new_bindings {
            let ty = match binding {
                Binding::Scalar { ty } => *ty,
                _ => ValueType::Int,
            };
            self.var_types.entry(alias.clone()).or_insert(ty);
        }
        self.declare_idb(&rule_name, &head_vars);
        let mut rule = Rule::new(head, body);
        rule.aggregation = aggregation;
        self.program.add_rule(rule);

        // After a projection, only the projected names remain visible.
        let mut kept = HashMap::new();
        for (alias, binding) in new_bindings {
            kept.insert(alias, binding);
        }
        self.bindings = kept;
        self.frontier = Some((rule_name, head_vars.clone()));
        Ok(head_vars)
    }
}

/// Per-rule context used while translating predicates and projections: it
/// accumulates body elements and reuses one property-access atom per
/// (variable, relation) pair within the rule.
struct RuleBodyCtx<'l, 'a> {
    lowerer: &'l mut Lowerer<'a>,
    body: Vec<BodyElem>,
    /// Property-access atoms keyed by the PGIR variable; values are indexes
    /// into an internal list so the same atom can be refined with more bound
    /// columns as more properties of the variable are accessed.
    access_atoms: HashMap<String, usize>,
    atoms: Vec<Atom>,
}

impl<'l, 'a> RuleBodyCtx<'l, 'a> {
    fn new(lowerer: &'l mut Lowerer<'a>) -> Self {
        RuleBodyCtx { lowerer, body: Vec::new(), access_atoms: HashMap::new(), atoms: Vec::new() }
    }

    fn finish(self) -> Vec<BodyElem> {
        let mut body = self.body;
        body.extend(self.atoms.into_iter().map(BodyElem::Atom));
        body
    }

    /// Resolve `var.prop` to a DLIR variable, adding the property-access atom
    /// if needed. Returns the variable name and the property type.
    fn resolve_property(
        &mut self,
        var: &str,
        prop: &str,
        preferred_name: Option<&str>,
    ) -> Result<(String, ValueType)> {
        let binding = self
            .lowerer
            .bindings
            .get(var)
            .cloned()
            .ok_or_else(|| RaqletError::semantic(format!("unknown variable `{var}`")))?;
        match binding {
            Binding::Node { label } => {
                let decl = self.lowerer.node_decl(&label)?.clone();
                let idx = decl.column_index(prop).ok_or_else(|| RaqletError::UnknownName {
                    kind: "property",
                    name: format!("{label}.{prop}"),
                })?;
                let ty = decl.columns[idx].ty;
                if idx == 0 {
                    // The key property *is* the node variable.
                    return Ok((var.to_string(), ty));
                }
                let atom_idx = self.access_atom_for(var, &decl.name, decl.arity(), 0, var);
                let atom = &mut self.atoms[atom_idx];
                if let Term::Var(existing) = &atom.terms[idx] {
                    return Ok((existing.clone(), ty));
                }
                let name = self.pick_var_name(preferred_name, prop);
                self.atoms[atom_idx].terms[idx] = Term::var(&name);
                self.lowerer.var_types.insert(name.clone(), ty);
                Ok((name, ty))
            }
            Binding::Edge { edb, reversed, src_var, dst_var } => {
                let decl = self.lowerer.program.schema.require(&edb)?.clone();
                let idx = decl.column_index(prop).ok_or_else(|| RaqletError::UnknownName {
                    kind: "property",
                    name: format!("{edb}.{prop}"),
                })?;
                let ty = decl.columns[idx].ty;
                let (first, second) =
                    if reversed { (dst_var, src_var) } else { (src_var, dst_var) };
                let atom_idx =
                    self.edge_access_atom(var, &decl.name, decl.arity(), &first, &second);
                if let Term::Var(existing) = &self.atoms[atom_idx].terms[idx] {
                    return Ok((existing.clone(), ty));
                }
                let name = self.pick_var_name(preferred_name, prop);
                self.atoms[atom_idx].terms[idx] = Term::var(&name);
                self.lowerer.var_types.insert(name.clone(), ty);
                Ok((name, ty))
            }
            Binding::Scalar { .. } => Err(RaqletError::semantic(format!(
                "cannot access property `{prop}` of scalar value `{var}`"
            ))),
        }
    }

    fn pick_var_name(&mut self, preferred: Option<&str>, prop: &str) -> String {
        if let Some(p) = preferred {
            if !self.lowerer.var_types.contains_key(p) && !self.lowerer.bindings.contains_key(p) {
                return p.to_string();
            }
        }
        if !self.lowerer.var_types.contains_key(prop) && !self.lowerer.bindings.contains_key(prop) {
            return prop.to_string();
        }
        self.lowerer.fresh_var("v")
    }

    fn access_atom_for(
        &mut self,
        var: &str,
        relation: &str,
        arity: usize,
        key_idx: usize,
        key_var: &str,
    ) -> usize {
        if let Some(&idx) = self.access_atoms.get(var) {
            return idx;
        }
        let mut terms = vec![Term::Wildcard; arity];
        terms[key_idx] = Term::var(key_var);
        self.atoms.push(Atom::new(relation, terms));
        let idx = self.atoms.len() - 1;
        self.access_atoms.insert(var.to_string(), idx);
        idx
    }

    fn edge_access_atom(
        &mut self,
        var: &str,
        relation: &str,
        arity: usize,
        first: &str,
        second: &str,
    ) -> usize {
        if let Some(&idx) = self.access_atoms.get(var) {
            return idx;
        }
        let mut terms = vec![Term::Wildcard; arity];
        terms[0] = Term::var(first);
        terms[1] = Term::var(second);
        self.atoms.push(Atom::new(relation, terms));
        let idx = self.atoms.len() - 1;
        self.access_atoms.insert(var.to_string(), idx);
        idx
    }

    /// Lower a PGIR scalar expression to a DLIR expression.
    fn lower_scalar(&mut self, expr: &PgirExpr) -> Result<DlExpr> {
        match expr {
            PgirExpr::Var(v) => Ok(DlExpr::var(v)),
            PgirExpr::Const(c) => Ok(DlExpr::Const(c.clone())),
            PgirExpr::Property { var, prop } => {
                let (v, _) = self.resolve_property(var, prop, None)?;
                Ok(DlExpr::var(&v))
            }
            PgirExpr::Arith { op, lhs, rhs } => Ok(DlExpr::Arith {
                op: *op,
                lhs: Box::new(self.lower_scalar(lhs)?),
                rhs: Box::new(self.lower_scalar(rhs)?),
            }),
            other => Err(RaqletError::unsupported(format!(
                "expression `{other}` cannot be used as a scalar here"
            ))),
        }
    }

    /// Resolve an expression to a single body variable (used for aggregate
    /// inputs): plain variables and property accesses are supported.
    fn expr_to_var(&mut self, expr: &PgirExpr) -> Result<String> {
        match expr {
            PgirExpr::Var(v) => Ok(v.clone()),
            PgirExpr::Property { var, prop } => {
                let (v, _) = self.resolve_property(var, prop, None)?;
                Ok(v)
            }
            other => Err(RaqletError::unsupported(format!(
                "aggregate argument `{other}` must be a variable or property access"
            ))),
        }
    }

    /// Lower one atomic predicate (a conjunct of a DNF disjunct).
    fn add_predicate(&mut self, pred: &PgirExpr) -> Result<()> {
        match pred {
            PgirExpr::Cmp { op, lhs, rhs } => {
                let lhs = self.lower_scalar(lhs)?;
                let rhs = self.lower_scalar(rhs)?;
                self.body.push(BodyElem::Constraint { op: *op, lhs, rhs });
                Ok(())
            }
            PgirExpr::InList { expr, list } => {
                // Only reached for single-element lists (larger IN lists are
                // split into a disjunction by `to_dnf`).
                let lhs = self.lower_scalar(expr)?;
                match list.as_slice() {
                    [v] => {
                        self.body.push(BodyElem::Constraint {
                            op: CmpOp::Eq,
                            lhs,
                            rhs: DlExpr::Const(v.clone()),
                        });
                        Ok(())
                    }
                    _ => Err(RaqletError::internal("IN list should have been expanded to DNF")),
                }
            }
            PgirExpr::Const(Value::Bool(true)) => Ok(()),
            other => Err(RaqletError::unsupported(format!(
                "predicate `{other}` is not supported in WHERE"
            ))),
        }
    }

    /// Lower one projection item (non-aggregate), returning the head variable
    /// name, its type, and the binding recorded for the alias.
    fn project_item(
        &mut self,
        expr: &PgirExpr,
        alias: &str,
    ) -> Result<(String, ValueType, Binding)> {
        match expr {
            PgirExpr::Var(v) => {
                let binding = self
                    .lowerer
                    .bindings
                    .get(v)
                    .cloned()
                    .ok_or_else(|| RaqletError::semantic(format!("unknown variable `{v}`")))?;
                let ty = self.lowerer.var_types.get(v).copied().unwrap_or(ValueType::Int);
                if v == alias {
                    Ok((v.clone(), ty, binding))
                } else {
                    // `WITH p AS person`: introduce the alias via equality.
                    self.body.push(BodyElem::eq(DlExpr::var(v), DlExpr::var(alias)));
                    Ok((alias.to_string(), ty, binding))
                }
            }
            PgirExpr::Property { var, prop } => {
                let (bound, ty) = self.resolve_property(var, prop, Some(alias))?;
                if bound == alias {
                    Ok((alias.to_string(), ty, Binding::Scalar { ty }))
                } else {
                    // Bound under a different name (e.g. the key column):
                    // introduce the alias with an equality, mirroring the
                    // paper's `p = cityId`.
                    self.body.push(BodyElem::eq(DlExpr::var(&bound), DlExpr::var(alias)));
                    Ok((alias.to_string(), ty, Binding::Scalar { ty }))
                }
            }
            PgirExpr::Const(c) => {
                let ty = c.value_type().unwrap_or(ValueType::Int);
                self.body.push(BodyElem::eq(DlExpr::var(alias), DlExpr::Const(c.clone())));
                Ok((alias.to_string(), ty, Binding::Scalar { ty }))
            }
            PgirExpr::Arith { .. } => {
                let scalar = self.lower_scalar(expr)?;
                self.body.push(BodyElem::eq(DlExpr::var(alias), scalar));
                Ok((alias.to_string(), ValueType::Int, Binding::Scalar { ty: ValueType::Int }))
            }
            other => {
                Err(RaqletError::unsupported(format!("projection item `{other}` is not supported")))
            }
        }
    }
}

fn push_unique(vars: &mut Vec<String>, var: &str) {
    if !vars.iter().any(|v| v == var) {
        vars.push(var.to_string());
    }
}

/// Convert a PGIR predicate to disjunctive normal form, where each inner
/// vector is a conjunction of atomic predicates (comparisons / single-value
/// IN). `NOT` is pushed down onto comparisons.
fn to_dnf(expr: &PgirExpr) -> Result<Vec<Vec<PgirExpr>>> {
    match expr {
        PgirExpr::And(a, b) => {
            let left = to_dnf(a)?;
            let right = to_dnf(b)?;
            let mut out = Vec::new();
            for l in &left {
                for r in &right {
                    let mut c = l.clone();
                    c.extend(r.clone());
                    out.push(c);
                }
            }
            Ok(out)
        }
        PgirExpr::Or(a, b) => {
            let mut out = to_dnf(a)?;
            out.extend(to_dnf(b)?);
            Ok(out)
        }
        PgirExpr::Not(inner) => to_dnf(&negate(inner)?),
        PgirExpr::InList { expr, list } => {
            if list.is_empty() {
                return Err(RaqletError::semantic("IN over an empty list is always false"));
            }
            Ok(list
                .iter()
                .map(|v| {
                    vec![PgirExpr::Cmp {
                        op: CmpOp::Eq,
                        lhs: expr.clone(),
                        rhs: Box::new(PgirExpr::Const(v.clone())),
                    }]
                })
                .collect())
        }
        other => Ok(vec![vec![other.clone()]]),
    }
}

/// Push a negation one level down.
fn negate(expr: &PgirExpr) -> Result<PgirExpr> {
    Ok(match expr {
        PgirExpr::Cmp { op, lhs, rhs } => {
            PgirExpr::Cmp { op: op.negated(), lhs: lhs.clone(), rhs: rhs.clone() }
        }
        PgirExpr::And(a, b) => PgirExpr::Or(Box::new(negate(a)?), Box::new(negate(b)?)),
        PgirExpr::Or(a, b) => PgirExpr::And(Box::new(negate(a)?), Box::new(negate(b)?)),
        PgirExpr::Not(inner) => (**inner).clone(),
        other => {
            return Err(RaqletError::unsupported(format!("cannot negate predicate `{other}`")))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_cypher::parse_pg_schema;
    use raqlet_pgir::{cypher_to_pgir, LowerOptions};

    const FIGURE2A: &str = "CREATE GRAPH {\n\
        (personType : Person { id INT, firstName STRING, locationIP STRING }),\n\
        (cityType : City { id INT, name STRING }),\n\
        (:personType)-[locationType: isLocatedIn { id INT }]->(:cityType),\n\
        (:personType)-[knowsType: knows { id INT }]->(:personType)\n\
    }";

    const FIGURE3A: &str = "MATCH (n:Person {id:42})-[:IS_LOCATED_IN]->(p:City)\n\
                            RETURN DISTINCT n.firstName AS firstName, p.id AS cityId";

    fn lower(src: &str) -> LoweredQuery {
        let pg = parse_pg_schema(FIGURE2A).unwrap();
        let pgir = cypher_to_pgir(src, &LowerOptions::new()).unwrap();
        lower_pgir(&pg, &pgir).unwrap()
    }

    #[test]
    fn running_example_produces_match_where_return_rules() {
        let lowered = lower(FIGURE3A);
        let p = &lowered.program;
        let names: Vec<_> = p.rules.iter().map(|r| r.head.relation.clone()).collect();
        assert_eq!(names, vec!["Match1", "Where1", "Return"]);
        assert_eq!(lowered.output, "Return");
        assert_eq!(lowered.output_columns, vec!["firstName", "cityId"]);
        assert_eq!(p.outputs, vec!["Return"]);

        // Match1(n, x1, p) :- Person_IS_LOCATED_IN_City(n, p, x1), Person(n, _, _), City(p, _).
        let match1 = &p.rules[0];
        assert_eq!(match1.head.to_string(), "Match1(n, x1, p)");
        let body = match1.body.iter().map(|b| b.to_string()).collect::<Vec<_>>();
        assert!(body.contains(&"Person_IS_LOCATED_IN_City(n, p, x1)".to_string()), "{body:?}");
        assert!(body.contains(&"Person(n, _, _)".to_string()), "{body:?}");
        assert!(body.contains(&"City(p, _)".to_string()), "{body:?}");

        // Where1 keeps the same head variables and filters n = 42.
        let where1 = &p.rules[1];
        assert_eq!(where1.head.to_string(), "Where1(n, x1, p)");
        assert!(where1.body.iter().any(|b| b.to_string() == "n = 42"), "{}", where1);
        assert!(where1.body.iter().any(|b| b.to_string() == "Match1(n, x1, p)"));

        // Return(firstName, cityId) binds firstName from Person and cityId = p.
        let ret = &p.rules[2];
        assert_eq!(ret.head.to_string(), "Return(firstName, cityId)");
        let rbody = ret.body.iter().map(|b| b.to_string()).collect::<Vec<_>>();
        assert!(rbody.contains(&"Where1(n, x1, p)".to_string()), "{rbody:?}");
        assert!(rbody.contains(&"p = cityId".to_string()), "{rbody:?}");
        assert!(rbody.contains(&"Person(n, firstName, _)".to_string()), "{rbody:?}");
    }

    #[test]
    fn idb_declarations_are_added_with_inferred_types() {
        let lowered = lower(FIGURE3A);
        let schema = &lowered.program.schema;
        let ret = schema.get("Return").unwrap();
        assert_eq!(ret.columns[0].name, "firstName");
        assert_eq!(ret.columns[0].ty, ValueType::Text);
        assert_eq!(ret.columns[1].name, "cityId");
        assert_eq!(ret.columns[1].ty, ValueType::Int);
        let m = schema.get("Match1").unwrap();
        assert_eq!(m.arity(), 3);
    }

    #[test]
    fn variable_length_pattern_generates_recursive_rules() {
        let lowered =
            lower("MATCH (a:Person {id: 1})-[:KNOWS*]->(b:Person) RETURN b.id AS friendId");
        let p = &lowered.program;
        // There is a Path IDB with a base and a recursive rule.
        let path_rules = p.rules_for("Path1");
        assert_eq!(path_rules.len(), 2);
        assert!(path_rules[1].positive_dependencies().contains(&"Path1"));
        // The match rule references Path1.
        let match_rule = p.rules_for("Match1")[0];
        assert!(match_rule.positive_dependencies().contains(&"Path1"));
    }

    #[test]
    fn bounded_variable_length_adds_length_column_and_bounds() {
        let lowered =
            lower("MATCH (a:Person {id: 1})-[:KNOWS*1..2]->(b:Person) RETURN b.id AS friendId");
        let p = &lowered.program;
        let path_rules = p.rules_for("Path1");
        assert!(path_rules.iter().all(|r| r.head.arity() == 3));
        // Recursive rule carries the l0 < 2 bound.
        assert!(p
            .rules_for("Path1")
            .iter()
            .any(|r| r.body.iter().any(|b| b.to_string() == "l0 < 2")));
        // The match rule constrains the length variable.
        let match_rule = p.rules_for("Match1")[0];
        let body: Vec<String> = match_rule.body.iter().map(|b| b.to_string()).collect();
        assert!(body.iter().any(|b| b.contains("<= 2")), "{body:?}");
    }

    #[test]
    fn zero_hop_unbounded_pattern_emits_the_zero_hop_base() {
        // Regression: `*0..` used to lower to plain min-1-hop transitive
        // closure because `needs_length` ignored `min_hops == 0`, silently
        // losing the zero-hop rows.
        let lowered = lower("MATCH (a:Person {id: 1})-[:KNOWS*0..]->(b:Person) RETURN b.id AS id");
        let rules = lowered.program.rules_for("Path1");
        // base + recursive + zero-hop; unbounded reachability stays
        // length-free (a length column would not terminate on cycles).
        assert_eq!(rules.len(), 3);
        assert!(rules.iter().all(|r| r.head.arity() == 2));
        let zero = rules
            .iter()
            .find(|r| r.head.terms[0] == r.head.terms[1])
            .unwrap_or_else(|| panic!("no zero-hop rule in {rules:?}"));
        assert!(zero.positive_dependencies().contains(&"Person"), "{zero}");
    }

    #[test]
    fn zero_hop_bounded_pattern_emits_the_zero_hop_base_with_length() {
        let lowered = lower("MATCH (a:Person {id: 1})-[:KNOWS*0..2]->(b:Person) RETURN b.id AS id");
        let rules = lowered.program.rules_for("Path1");
        assert!(rules.iter().all(|r| r.head.arity() == 3));
        assert!(
            rules
                .iter()
                .any(|r| r.head.terms[0] == r.head.terms[1] && r.head.terms[2] == Term::int(0)),
            "missing zero-hop base: {rules:?}"
        );
    }

    #[test]
    fn zero_only_bounds_emit_no_hop_rules() {
        // `*0..0` matches only the zero-hop rows; the length-1 base rule
        // would leak one-hop rows into consumers that do not re-filter on
        // the length column (chain steps).
        let lowered = lower("MATCH (a:Person {id: 1})-[:KNOWS*0..0]->(b:Person) RETURN b.id AS id");
        let rules = lowered.program.rules_for("Path1");
        assert_eq!(rules.len(), 1, "{rules:?}");
        assert_eq!(rules[0].head.terms[0], rules[0].head.terms[1]);
    }

    #[test]
    fn zero_hop_without_a_resolvable_label_is_an_error_not_a_silent_skip() {
        let pg = parse_pg_schema(FIGURE2A).unwrap();
        let pgir =
            cypher_to_pgir("MATCH (a)-[:KNOWS*0..]->(b) RETURN 1 AS one", &LowerOptions::new())
                .unwrap();
        let err = lower_pgir(&pg, &pgir).unwrap_err();
        assert!(matches!(err, RaqletError::Unsupported(_)), "{err}");
        assert!(err.to_string().contains("zero-hop"), "{err}");
    }

    #[test]
    fn shortest_path_with_min_hops_above_one_is_rejected_in_dlir_too() {
        // The PGIR surface also rejects this; the DLIR check covers
        // hand-built PGIR.
        let pg = parse_pg_schema(FIGURE2A).unwrap();
        let pgir = raqlet_pgir::PgirQuery {
            clauses: vec![
                raqlet_pgir::PgirClause::Match(raqlet_pgir::MatchConstruct {
                    optional: false,
                    patterns: vec![raqlet_pgir::PatternElem::Path(raqlet_pgir::PathPat {
                        var: "p".into(),
                        labels: vec!["KNOWS".into()],
                        directed: false,
                        src: raqlet_pgir::NodePat::new("a", Some("Person")),
                        dst: raqlet_pgir::NodePat::new("b", Some("Person")),
                        min_hops: 2,
                        max_hops: None,
                        semantics: raqlet_pgir::PathSemantics::Shortest,
                    })],
                }),
                raqlet_pgir::PgirClause::Return(raqlet_pgir::ReturnConstruct {
                    distinct: true,
                    items: vec![raqlet_pgir::OutputItem::new(
                        raqlet_pgir::PgirExpr::Var("b".into()),
                        "b",
                    )],
                }),
            ],
        };
        let err = lower_pgir(&pg, &pgir).unwrap_err();
        assert!(matches!(err, RaqletError::Semantic(_)), "{err}");
    }

    #[test]
    fn unwind_lowers_to_inline_constant_rules_joined_into_the_frontier() {
        let lowered =
            lower("UNWIND [1, 2, 3] AS pid MATCH (n:Person {id: pid}) RETURN n.firstName AS name");
        let p = &lowered.program;
        // One rule per list element, each binding the alias by equality.
        let list_rules = p.rules_for("UnwindList1");
        assert_eq!(list_rules.len(), 3);
        assert!(list_rules[0].body.iter().any(|b| b.to_string() == "pid = 1"), "{list_rules:?}");
        // The frontier rule joins the list (no prior frontier here).
        let unwind = p.rules_for("Unwind1")[0];
        assert!(unwind.positive_dependencies().contains(&"UnwindList1"));
        // The downstream match rule chains through the unwind frontier.
        let match1 = p.rules_for("Match1")[0];
        assert!(match1.positive_dependencies().contains(&"Unwind1"));
        // And the inline property constraint compares against the alias.
        let names: Vec<_> = p.rules.iter().map(|r| r.head.relation.clone()).collect();
        assert!(names.contains(&"Where1".to_string()), "{names:?}");
    }

    #[test]
    fn empty_unwind_lists_are_rejected() {
        let pg = parse_pg_schema(FIGURE2A).unwrap();
        let pgir = cypher_to_pgir("UNWIND [] AS x RETURN x AS x", &LowerOptions::new()).unwrap();
        assert!(matches!(lower_pgir(&pg, &pgir), Err(RaqletError::Semantic(_))));
    }

    #[test]
    fn alternative_relationship_types_union_one_body_per_edb() {
        // KNOWS resolves Person→Person, IS_LOCATED_IN resolves Person→City:
        // the directed single-hop union produces one Match body per EDB.
        let lowered = lower("MATCH (a:Person)-[:KNOWS|IS_LOCATED_IN]->(x) RETURN a.id AS id");
        let rules = lowered.program.rules_for("Match1");
        assert_eq!(rules.len(), 2);
        let deps: Vec<_> = rules.iter().flat_map(|r| r.positive_dependencies()).collect();
        assert!(deps.contains(&"Person_KNOWS_Person"), "{deps:?}");
        assert!(deps.contains(&"Person_IS_LOCATED_IN_City"), "{deps:?}");
    }

    #[test]
    fn undirected_alternative_types_double_each_union_body() {
        let lowered = lower("MATCH (a:Person)-[:KNOWS|IS_LOCATED_IN]-(x) RETURN a.id AS id");
        assert_eq!(lowered.program.rules_for("Match1").len(), 4);
    }

    #[test]
    fn variable_length_alternative_types_produce_per_edb_hop_rules() {
        let lowered =
            lower("MATCH (a:Person {id:1})-[:KNOWS|IS_LOCATED_IN*]->(x) RETURN a.id AS id");
        let rules = lowered.program.rules_for("Path1");
        // Two base + two recursive rules (one per EDB each).
        assert_eq!(rules.len(), 4);
    }

    #[test]
    fn multi_hop_shortest_path_chains_per_step_lattice_idbs() {
        let lowered = lower(
            "MATCH p = shortestPath((a:Person {id:1})-[:KNOWS*]-(b:Person)-[:IS_LOCATED_IN]->(c:City)) \
             RETURN c.id AS cityId",
        );
        let p = &lowered.program;
        // Each step IDB and the summing IDB carry the min lattice on len.
        for name in ["ShortestPath1Step1", "ShortestPath1Step2", "ShortestPath1"] {
            assert_eq!(p.lattice_for(name), LatticeMerge::MinOnColumn(2), "{name}");
        }
        // The summing rule joins both steps and adds the lengths.
        let sp = p.rules_for("ShortestPath1")[0];
        assert!(sp.positive_dependencies().contains(&"ShortestPath1Step1"), "{sp}");
        assert!(sp.positive_dependencies().contains(&"ShortestPath1Step2"), "{sp}");
        assert!(sp.body.iter().any(|b| b.to_string().contains("l1 + l2")), "{sp}");
        // The match rule references only the summing IDB.
        let match1 = p.rules_for("Match1")[0];
        assert!(match1.positive_dependencies().contains(&"ShortestPath1"));
        assert!(!match1.positive_dependencies().contains(&"ShortestPath1Step1"));
        // The intermediate `b` is existential: it never reaches the match head.
        assert!(!match1.head.variables().contains(&"b".to_string()), "{match1}");
    }

    #[test]
    fn chain_with_bound_intermediate_is_rejected() {
        let lowered = {
            let pg = parse_pg_schema(FIGURE2A).unwrap();
            let pgir = cypher_to_pgir(
                "MATCH (b:Person {id: 2}) \
                 MATCH p = shortestPath((a:Person {id:1})-[:KNOWS*]-(b)-[:IS_LOCATED_IN]->(c:City)) \
                 RETURN c.id AS cityId",
                &LowerOptions::new(),
            )
            .unwrap();
            lower_pgir(&pg, &pgir)
        };
        assert!(matches!(lowered, Err(RaqletError::Unsupported(_))), "{lowered:?}");
    }

    #[test]
    fn shortest_path_uses_min_lattice() {
        let lowered = lower(
            "MATCH p = shortestPath((a:Person {id:1})-[:KNOWS*]-(b:Person {id:2})) \
             RETURN b.id AS id",
        );
        let p = &lowered.program;
        let sp = p.idb_names().into_iter().find(|n| n.starts_with("ShortestPath")).unwrap();
        assert_eq!(p.lattice_for(&sp), LatticeMerge::MinOnColumn(2));
        // Undirected: base rules in both directions (2 base + 2 recursive).
        assert_eq!(p.rules_for(&sp).len(), 4);
    }

    #[test]
    fn undirected_single_hop_produces_two_match_rules() {
        let lowered = lower("MATCH (a:Person {id:1})-[:KNOWS]-(b:Person) RETURN b.id AS id");
        let p = &lowered.program;
        assert_eq!(p.rules_for("Match1").len(), 2);
    }

    #[test]
    fn aggregation_in_with_is_lowered_to_rule_aggregation() {
        let lowered = lower(
            "MATCH (p:Person)-[:KNOWS]->(f:Person) WITH f, count(p) AS cnt \
             RETURN f.id AS id, cnt AS cnt",
        );
        let program = &lowered.program;
        let with_rule = program.rules_for("With1")[0];
        let agg = with_rule.aggregation.as_ref().unwrap();
        assert_eq!(agg.func, AggFunc::Count);
        assert_eq!(agg.output_var, "cnt");
        assert_eq!(agg.group_by, vec!["f"]);
        // Return keeps both columns.
        assert_eq!(lowered.output_columns, vec!["id", "cnt"]);
    }

    #[test]
    fn or_predicates_become_multiple_where_rules() {
        let lowered =
            lower("MATCH (n:Person) WHERE n.id = 1 OR n.id = 2 RETURN n.firstName AS name");
        assert_eq!(lowered.program.rules_for("Where1").len(), 2);
    }

    #[test]
    fn in_list_expands_to_union_of_rules() {
        let lowered = lower("MATCH (n:Person) WHERE n.id IN [1, 2, 3] RETURN n.firstName AS name");
        assert_eq!(lowered.program.rules_for("Where1").len(), 3);
    }

    #[test]
    fn negated_comparison_is_flipped() {
        let lowered = lower("MATCH (n:Person) WHERE NOT n.id = 1 RETURN n.firstName AS name");
        let where_rule = lowered.program.rules_for("Where1")[0];
        assert!(where_rule.body.iter().any(|b| b.to_string() == "n != 1"));
    }

    #[test]
    fn incoming_edge_uses_schema_direction() {
        let lowered = lower("MATCH (c:City)<-[:IS_LOCATED_IN]-(n:Person) RETURN c.name AS name");
        let match_rule = lowered.program.rules_for("Match1")[0];
        let body: Vec<String> = match_rule.body.iter().map(|b| b.to_string()).collect();
        // Stored direction is Person -> City regardless of reading order.
        assert!(body.iter().any(|b| b.starts_with("Person_IS_LOCATED_IN_City(n, c")), "{body:?}");
    }

    #[test]
    fn key_property_projection_uses_equality_not_join() {
        let lowered = lower(FIGURE3A);
        let ret = &lowered.program.rules_for("Return")[0];
        // p.id is the key of City, so no extra City atom is required beyond
        // the one from property access of firstName; cityId comes from `p = cityId`.
        assert!(ret.body.iter().any(|b| b.to_string() == "p = cityId"));
    }

    #[test]
    fn unknown_property_is_reported() {
        let pg = parse_pg_schema(FIGURE2A).unwrap();
        let pgir =
            cypher_to_pgir("MATCH (n:Person) RETURN n.nickname AS nick", &LowerOptions::new())
                .unwrap();
        let err = lower_pgir(&pg, &pgir).unwrap_err();
        assert!(err.to_string().contains("nickname"));
    }

    #[test]
    fn unknown_edge_type_is_reported() {
        let pg = parse_pg_schema(FIGURE2A).unwrap();
        let pgir = cypher_to_pgir(
            "MATCH (a:Person)-[:LIKES]->(b:Person) RETURN b.id AS id",
            &LowerOptions::new(),
        )
        .unwrap();
        assert!(lower_pgir(&pg, &pgir).is_err());
    }

    #[test]
    fn optional_match_is_rejected_with_clear_error() {
        let pg = parse_pg_schema(FIGURE2A).unwrap();
        let pgir = cypher_to_pgir(
            "MATCH (p:Person) OPTIONAL MATCH (p)-[:KNOWS]->(f:Person) RETURN p.id AS id",
            &LowerOptions::new(),
        )
        .unwrap();
        let err = lower_pgir(&pg, &pgir).unwrap_err();
        assert!(matches!(err, RaqletError::Unsupported(_)));
    }

    #[test]
    fn multi_match_chains_rules_through_frontier() {
        let lowered = lower(
            "MATCH (n:Person {id: 5})-[:KNOWS]->(f:Person) \
             MATCH (f)-[:IS_LOCATED_IN]->(c:City) \
             RETURN c.name AS name",
        );
        let p = &lowered.program;
        let names: Vec<_> = p.rules.iter().map(|r| r.head.relation.clone()).collect();
        assert_eq!(names, vec!["Match1", "Where1", "Match2", "Return"]);
        // Match2's body references Where1 (the frontier after the first
        // match's implicit WHERE from the inline property).
        let match2 = p.rules_for("Match2")[0];
        assert!(match2.positive_dependencies().contains(&"Where1"));
    }

    #[test]
    fn second_hop_reuses_prior_binding_for_unlabeled_variable() {
        // `f` is only labelled in the first MATCH; the second MATCH uses it
        // bare and must resolve the edge via the remembered label.
        let lowered = lower(
            "MATCH (n:Person {id: 5})-[:KNOWS]->(f:Person) \
             MATCH (f)-[:KNOWS]->(g:Person) \
             RETURN g.id AS id",
        );
        let match2 = lowered.program.rules_for("Match2")[0].clone();
        let body: Vec<String> = match2.body.iter().map(|b| b.to_string()).collect();
        assert!(body.iter().any(|b| b.starts_with("Person_KNOWS_Person(f, g")), "{body:?}");
    }

    #[test]
    fn dnf_distributes_and_over_or() {
        let a = PgirExpr::eq(PgirExpr::prop("n", "a"), PgirExpr::int(1));
        let b = PgirExpr::eq(PgirExpr::prop("n", "b"), PgirExpr::int(2));
        let c = PgirExpr::eq(PgirExpr::prop("n", "c"), PgirExpr::int(3));
        // a AND (b OR c) -> [a, b], [a, c]
        let expr = PgirExpr::And(Box::new(a), Box::new(PgirExpr::Or(Box::new(b), Box::new(c))));
        let dnf = to_dnf(&expr).unwrap();
        assert_eq!(dnf.len(), 2);
        assert_eq!(dnf[0].len(), 2);
        assert_eq!(dnf[1].len(), 2);
    }

    #[test]
    fn double_negation_is_eliminated() {
        let inner = PgirExpr::eq(PgirExpr::prop("n", "a"), PgirExpr::int(1));
        let expr = PgirExpr::Not(Box::new(PgirExpr::Not(Box::new(inner.clone()))));
        let dnf = to_dnf(&expr).unwrap();
        assert_eq!(dnf, vec![vec![inner]]);
    }
}
