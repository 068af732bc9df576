//! Predicate dependency graph and strongly connected components.
//!
//! The dependency graph has one vertex per relation; there is an edge
//! `p → q` when some rule with head `p` mentions `q` in its body. Edges are
//! tagged with the polarity (positive / negated) and with whether the rule
//! also aggregates. The SCCs of this graph drive recursion detection,
//! stratification and the evaluation order used by the Datalog engine.
//!
//! The components are computed once, when the graph is built; every SCC
//! question ([`DepGraph::sccs`], [`DepGraph::scc_of`],
//! [`DepGraph::is_recursive`], [`DepGraph::condense`]) reads them.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::ir::DlirProgram;

/// Polarity / kind of a dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Head depends on a positive body atom.
    Positive,
    /// Head depends on a negated body atom.
    Negative,
    /// Head depends on a body atom through an aggregation.
    Aggregated,
}

/// The predicate dependency graph of a DLIR program.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    /// Adjacency: for each head relation, the relations it depends on.
    edges: BTreeMap<String, Vec<(String, DepKind)>>,
    /// All relation names appearing anywhere (heads and bodies).
    nodes: BTreeSet<String>,
    /// The strongly connected components in reverse topological order.
    components: Vec<Vec<String>>,
    /// Index into `components` of every node.
    component_of: HashMap<String, usize>,
}

impl DepGraph {
    /// Build the dependency graph of a program and its strongly connected
    /// components.
    pub fn build(program: &DlirProgram) -> Self {
        let mut graph = DepGraph::default();
        for rule in &program.rules {
            let head = rule.head.relation.clone();
            graph.nodes.insert(head.clone());
            let entry = graph.edges.entry(head).or_default();
            let aggregated = rule.aggregation.is_some();
            for dep in rule.positive_dependencies() {
                graph.nodes.insert(dep.to_string());
                let kind = if aggregated { DepKind::Aggregated } else { DepKind::Positive };
                entry.push((dep.to_string(), kind));
            }
            for dep in rule.negative_dependencies() {
                graph.nodes.insert(dep.to_string());
                entry.push((dep.to_string(), DepKind::Negative));
            }
        }
        graph.components = graph.tarjan();
        graph.component_of = graph
            .components
            .iter()
            .enumerate()
            .flat_map(|(i, scc)| scc.iter().map(move |n| (n.clone(), i)))
            .collect();
        graph
    }

    /// All relation names (sorted).
    pub fn nodes(&self) -> impl Iterator<Item = &String> {
        self.nodes.iter()
    }

    /// Dependencies of a relation (empty for EDBs).
    pub fn dependencies_of(&self, name: &str) -> &[(String, DepKind)] {
        self.edges.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// True if `from` depends (directly) on `to`.
    pub fn depends_on(&self, from: &str, to: &str) -> bool {
        self.dependencies_of(from).iter().any(|(d, _)| d == to)
    }

    /// Strongly connected components in reverse topological order
    /// (dependencies come before dependents).
    pub fn sccs(&self) -> &[Vec<String>] {
        &self.components
    }

    /// Tarjan's algorithm over dense node indices: nodes are visited in
    /// sorted order and each node's dependencies in rule order, so the
    /// component order is deterministic.
    fn tarjan(&self) -> Vec<Vec<String>> {
        struct Tarjan<'g> {
            names: Vec<&'g String>,
            adjacency: Vec<Vec<usize>>,
            next_index: usize,
            index: Vec<Option<usize>>,
            lowlink: Vec<usize>,
            on_stack: Vec<bool>,
            stack: Vec<usize>,
            sccs: Vec<Vec<String>>,
        }

        impl Tarjan<'_> {
            fn strongconnect(&mut self, v: usize) {
                self.index[v] = Some(self.next_index);
                self.lowlink[v] = self.next_index;
                self.next_index += 1;
                self.stack.push(v);
                self.on_stack[v] = true;

                for i in 0..self.adjacency[v].len() {
                    let w = self.adjacency[v][i];
                    match self.index[w] {
                        None => {
                            self.strongconnect(w);
                            self.lowlink[v] = self.lowlink[v].min(self.lowlink[w]);
                        }
                        Some(w_index) if self.on_stack[w] => {
                            self.lowlink[v] = self.lowlink[v].min(w_index);
                        }
                        Some(_) => {}
                    }
                }

                if Some(self.lowlink[v]) == self.index[v] {
                    let mut component = Vec::new();
                    while let Some(w) = self.stack.pop() {
                        self.on_stack[w] = false;
                        component.push(self.names[w].clone());
                        if w == v {
                            break;
                        }
                    }
                    component.reverse();
                    self.sccs.push(component);
                }
            }
        }

        let names: Vec<&String> = self.nodes.iter().collect();
        let position: HashMap<&str, usize> =
            names.iter().enumerate().map(|(i, n)| (n.as_str(), i)).collect();
        // Every dependency is a node: `build` inserts both ends of each edge.
        let adjacency = names
            .iter()
            .map(|n| {
                self.dependencies_of(n)
                    .iter()
                    .filter_map(|(d, _)| position.get(d.as_str()).copied())
                    .collect()
            })
            .collect();
        let n = names.len();
        let mut t = Tarjan {
            names,
            adjacency,
            next_index: 0,
            index: vec![None; n],
            lowlink: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            sccs: Vec::new(),
        };
        for v in 0..n {
            if t.index[v].is_none() {
                t.strongconnect(v);
            }
        }
        t.sccs
    }

    /// The SCC containing `name` (singleton for non-recursive relations and
    /// for names the graph has never seen).
    pub fn scc_of(&self, name: &str) -> Vec<String> {
        match self.component_of.get(name) {
            Some(&i) => self.components[i].clone(),
            None => vec![name.to_string()],
        }
    }

    /// True if the relation is recursive: it is in a multi-element SCC, or it
    /// depends directly on itself.
    pub fn is_recursive(&self, name: &str) -> bool {
        self.depends_on(name, name)
            || self.component_of.get(name).is_some_and(|&i| self.components[i].len() > 1)
    }

    /// All recursive relations.
    pub fn recursive_relations(&self) -> Vec<String> {
        self.nodes.iter().filter(|n| self.is_recursive(n)).cloned().collect()
    }

    /// Condense the subgraph induced by `members` into its strongly
    /// connected components, in dependency order (a component's
    /// dependencies among `members` always precede it). Each group is
    /// marked `looping` when a fixpoint is required: either the component
    /// has more than one relation (mutual recursion) or its single relation
    /// depends directly on itself. Members unknown to the graph (heads of
    /// fact rules never referenced elsewhere, for example) come back as
    /// non-looping singletons.
    pub fn condense(&self, members: &[String]) -> Vec<SccGroup> {
        let wanted: BTreeSet<&String> = members.iter().collect();
        let mut groups = Vec::new();
        let mut placed: BTreeSet<String> = BTreeSet::new();
        for scc in self.sccs() {
            let relations: Vec<String> =
                scc.iter().filter(|n| wanted.contains(n)).cloned().collect();
            if relations.is_empty() {
                continue;
            }
            placed.extend(relations.iter().cloned());
            let looping = relations.len() > 1 || relations.iter().any(|r| self.depends_on(r, r));
            groups.push(SccGroup { relations, looping });
        }
        for member in members {
            if !placed.contains(member) {
                groups.push(SccGroup { relations: vec![member.clone()], looping: false });
            }
        }
        groups
    }
}

/// One strongly connected component of the dependency graph, restricted to a
/// caller-chosen set of relations (see [`DepGraph::condense`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccGroup {
    /// The relations in the component.
    pub relations: Vec<String>,
    /// Whether evaluating the component requires iterating to fixpoint
    /// (self- or mutual recursion). Non-looping components are fully
    /// derivable in a single rule application round.
    pub looping: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Atom, BodyElem, Rule};

    fn program_tc() -> DlirProgram {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["x", "y"]))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![
                BodyElem::Atom(Atom::with_vars("tc", &["x", "z"])),
                BodyElem::Atom(Atom::with_vars("edge", &["z", "y"])),
            ],
        ));
        p
    }

    fn program_mutual() -> DlirProgram {
        // even(x) :- zero(x).
        // even(x) :- odd(y), succ(y, x).
        // odd(x)  :- even(y), succ(y, x).
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("even", &["x"]),
            vec![BodyElem::Atom(Atom::with_vars("zero", &["x"]))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("even", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("odd", &["y"])),
                BodyElem::Atom(Atom::with_vars("succ", &["y", "x"])),
            ],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("odd", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("even", &["y"])),
                BodyElem::Atom(Atom::with_vars("succ", &["y", "x"])),
            ],
        ));
        p
    }

    #[test]
    fn builds_edges_with_polarity() {
        let mut p = program_tc();
        p.add_rule(Rule::new(
            Atom::with_vars("unreachable", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("node", &["x"])),
                BodyElem::Negated(Atom::with_vars("tc", &["s", "x"])),
            ],
        ));
        let g = DepGraph::build(&p);
        assert!(g.depends_on("tc", "edge"));
        assert!(g.depends_on("tc", "tc"));
        assert!(g.depends_on("unreachable", "tc"));
        let kinds: Vec<DepKind> =
            g.dependencies_of("unreachable").iter().map(|(_, k)| *k).collect();
        assert!(kinds.contains(&DepKind::Negative));
    }

    #[test]
    fn detects_self_recursion() {
        let g = DepGraph::build(&program_tc());
        assert!(g.is_recursive("tc"));
        assert!(!g.is_recursive("edge"));
        assert_eq!(g.recursive_relations(), vec!["tc"]);
    }

    #[test]
    fn detects_mutual_recursion_as_one_scc() {
        let g = DepGraph::build(&program_mutual());
        let scc = g.scc_of("even");
        assert_eq!(scc.len(), 2);
        assert!(scc.contains(&"odd".to_string()));
        assert!(g.is_recursive("even"));
        assert!(g.is_recursive("odd"));
    }

    #[test]
    fn sccs_are_in_dependency_order() {
        let g = DepGraph::build(&program_tc());
        let sccs = g.sccs();
        let pos_edge = sccs.iter().position(|s| s.contains(&"edge".to_string())).unwrap();
        let pos_tc = sccs.iter().position(|s| s.contains(&"tc".to_string())).unwrap();
        assert!(pos_edge < pos_tc, "dependencies must come before dependents: {sccs:?}");
    }

    #[test]
    fn condensation_orders_components_and_marks_looping() {
        // B :- A. (two single-relation components in one stratum, no loop)
        let mut p = program_tc();
        p.add_rule(Rule::new(
            Atom::with_vars("twice", &["x", "y"]),
            vec![BodyElem::Atom(Atom::with_vars("tc", &["x", "y"]))],
        ));
        let g = DepGraph::build(&p);
        let groups = g.condense(&["twice".to_string(), "tc".to_string(), "ghost".to_string()]);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], SccGroup { relations: vec!["tc".into()], looping: true });
        assert_eq!(groups[1], SccGroup { relations: vec!["twice".into()], looping: false });
        // Members the graph has never seen become trailing non-looping
        // singletons.
        assert_eq!(groups[2], SccGroup { relations: vec!["ghost".into()], looping: false });
    }

    #[test]
    fn condensation_keeps_mutual_recursion_together() {
        let g = DepGraph::build(&program_mutual());
        let groups = g.condense(&["even".to_string(), "odd".to_string()]);
        assert_eq!(groups.len(), 1);
        assert!(groups[0].looping);
        assert_eq!(groups[0].relations.len(), 2);
        assert!(groups[0].relations.contains(&"even".to_string()));
        assert!(groups[0].relations.contains(&"odd".to_string()));
    }

    /// Seeded random graphs — self-loops, mutual cycles, negated edges,
    /// relations no rule mentions — checked against a brute-force
    /// reachability closure.
    #[test]
    fn scc_queries_match_brute_force_reachability() {
        use raqlet_common::SplitMix64;

        const POOL: usize = 10;
        let name = |i: usize| format!("r{i}");
        for seed in 0..200 {
            let mut rng = SplitMix64::seed_from_u64(seed);
            // Only the first `used` names ever appear in a rule; the rest
            // (and `ghost`) are unknown to the graph.
            let used = rng.gen_index(1..POOL);
            let mut p = DlirProgram::default();
            let mut edge = [[false; POOL]; POOL];
            let mut known = [false; POOL];
            let mut add = |p: &mut DlirProgram, head: usize, body: &[(usize, bool)]| {
                known[head] = true;
                let elems = body
                    .iter()
                    .map(|&(b, negated)| {
                        edge[head][b] = true;
                        known[b] = true;
                        let atom = Atom::with_vars(name(b), &["x"]);
                        if negated {
                            BodyElem::Negated(atom)
                        } else {
                            BodyElem::Atom(atom)
                        }
                    })
                    .collect();
                p.add_rule(Rule::new(Atom::with_vars(name(head), &["x"]), elems));
            };
            for _ in 0..rng.gen_index(1..2 * used + 2) {
                let head = rng.gen_index(0..used);
                let body: Vec<(usize, bool)> = (0..rng.gen_index(0..4))
                    .map(|_| (rng.gen_index(0..used), rng.gen_bool(0.2)))
                    .collect();
                add(&mut p, head, &body);
            }
            if rng.gen_bool(0.5) {
                let r = rng.gen_index(0..used);
                add(&mut p, r, &[(r, false)]);
            }
            if used > 1 && rng.gen_bool(0.5) {
                let (a, b) = (rng.gen_index(0..used), rng.gen_index(0..used));
                add(&mut p, a, &[(b, false)]);
                add(&mut p, b, &[(a, false)]);
            }

            // reach[a][b]: a path of one or more edges leads from a to b.
            let mut reach = edge;
            for k in 0..POOL {
                for a in 0..POOL {
                    for b in 0..POOL {
                        reach[a][b] |= reach[a][k] && reach[k][b];
                    }
                }
            }
            let g = DepGraph::build(&p);
            let mut expected_recursive = Vec::new();
            for a in 0..POOL {
                assert_eq!(g.is_recursive(&name(a)), reach[a][a], "seed {seed}: r{a}");
                if reach[a][a] {
                    expected_recursive.push(name(a));
                }
                let mut expected: Vec<String> = if known[a] {
                    (0..POOL).filter(|&b| a == b || reach[a][b] && reach[b][a]).map(name).collect()
                } else {
                    vec![name(a)]
                };
                let mut scc = g.scc_of(&name(a));
                scc.sort();
                expected.sort();
                assert_eq!(scc, expected, "seed {seed}: scc_of(r{a})");
            }
            assert_eq!(g.recursive_relations(), expected_recursive, "seed {seed}");
            assert!(!g.is_recursive("ghost") && g.scc_of("ghost") == vec!["ghost".to_string()]);

            // `sccs` partitions exactly the known relations into the
            // components above, dependencies first.
            let index = |n: &String| n[1..].parse::<usize>().unwrap();
            let sccs = g.sccs();
            let mut members: Vec<usize> = sccs.iter().flatten().map(index).collect();
            members.sort();
            assert_eq!(members, (0..POOL).filter(|&a| known[a]).collect::<Vec<_>>(), "seed {seed}");
            for (i, scc) in sccs.iter().enumerate() {
                let mut expected = g.scc_of(&scc[0]);
                expected.sort();
                let mut sorted = scc.clone();
                sorted.sort();
                assert_eq!(sorted, expected, "seed {seed}: component {i}");
                for later in &sccs[i + 1..] {
                    for (a, b) in scc.iter().flat_map(|a| later.iter().map(move |b| (a, b))) {
                        assert!(
                            !reach[index(a)][index(b)],
                            "seed {seed}: {a} depends on {b}, which comes later in {sccs:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn edbs_have_no_dependencies() {
        let g = DepGraph::build(&program_tc());
        assert!(g.dependencies_of("edge").is_empty());
    }

    #[test]
    fn aggregated_dependencies_are_tagged() {
        use crate::ir::{AggFunc, Aggregation};
        let mut p = DlirProgram::default();
        let mut rule = Rule::new(
            Atom::with_vars("degree", &["x", "d"]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["x", "y"]))],
        );
        rule.aggregation = Some(Aggregation {
            func: AggFunc::Count,
            input_var: Some("y".into()),
            output_var: "d".into(),
            group_by: vec!["x".into()],
            distinct: false,
        });
        p.add_rule(rule);
        let g = DepGraph::build(&p);
        assert_eq!(g.dependencies_of("degree")[0].1, DepKind::Aggregated);
    }
}
