//! Schema models.
//!
//! Two schema worlds exist in Raqlet, mirroring Figure 2 of the paper:
//!
//! * [`PgSchema`] — a property-graph schema in the spirit of PG-Schema:
//!   node types and edge types, each carrying typed properties.
//! * [`DlSchema`] — a Datalog schema: a set of extensional relations (EDBs)
//!   with typed, named columns.
//!
//! The PG-Schema → DL-Schema *data model transformation* itself lives in
//! `raqlet-dlir::schema_gen`; this module only defines the two models plus
//! the bookkeeping both sides need (property lookup, column positions, keys).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{RaqletError, Result};
use crate::types::ValueType;

/// A typed property of a node or edge type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Property {
    /// Property name as written in the schema (e.g. `firstName`).
    pub name: String,
    /// Property type.
    pub ty: ValueType,
}

impl Property {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        Property { name: name.into(), ty }
    }
}

/// A node type in a property-graph schema, e.g.
/// `(personType: Person { id INT, firstName STRING })`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeType {
    /// The schema-internal type name (`personType`).
    pub type_name: String,
    /// The label used in queries (`Person`).
    pub label: String,
    /// Ordered list of properties. By convention the first property is the
    /// node key (`id`), matching the paper's "node id is at the first
    /// position of the EDB" rule.
    pub properties: Vec<Property>,
}

impl NodeType {
    /// Position of a property within the node's property list.
    pub fn property_index(&self, name: &str) -> Option<usize> {
        self.properties.iter().position(|p| p.name == name)
    }

    /// Name of the key property (the first property), if any.
    pub fn key_property(&self) -> Option<&Property> {
        self.properties.first()
    }
}

/// An edge type in a property-graph schema, e.g.
/// `(:personType)-[locationType: isLocatedIn { id INT }]->(:cityType)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeType {
    /// The schema-internal type name (`locationType`).
    pub type_name: String,
    /// The label used in queries, normalised to the query-facing spelling
    /// (`isLocatedIn` in the schema is matched case-insensitively against
    /// `IS_LOCATED_IN` in Cypher; see [`labels_match`]).
    pub label: String,
    /// Type name of the source node type.
    pub src: String,
    /// Type name of the target node type.
    pub dst: String,
    /// Edge properties (may be empty).
    pub properties: Vec<Property>,
}

impl EdgeType {
    /// Position of a property within the edge's property list.
    pub fn property_index(&self, name: &str) -> Option<usize> {
        self.properties.iter().position(|p| p.name == name)
    }
}

/// Canonical form of a node/edge label: underscores removed, lowercased.
///
/// Cypher queries conventionally write edge labels in `SCREAMING_SNAKE_CASE`
/// (`IS_LOCATED_IN`) while PG-Schema examples use `camelCase`
/// (`isLocatedIn`); both normalize to `islocatedin`, which is the key every
/// label-driven lookup uses. Because normalization is lossy (`HasTag` and
/// `HAS_TAG` collide), loaders must reject *distinct* label spellings that
/// share a normal form at insert time — matching two spellings at lookup
/// time is the feature, silently merging two different labels is not.
pub fn normalize_label(label: &str) -> String {
    label.chars().filter(|c| *c != '_').collect::<String>().to_ascii_lowercase()
}

/// Compare a schema edge/node label with a query label by normal form (see
/// [`normalize_label`]) — exactly the correspondence used in the paper's
/// running example.
pub fn labels_match(schema_label: &str, query_label: &str) -> bool {
    normalize_label(schema_label) == normalize_label(query_label)
}

/// A property-graph schema: the input to Raqlet's data-model transformation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PgSchema {
    /// Node types in declaration order.
    pub nodes: Vec<NodeType>,
    /// Edge types in declaration order.
    pub edges: Vec<EdgeType>,
}

impl PgSchema {
    /// Create an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node type. Errors if a node type with the same label exists —
    /// including a *differently spelled* label that normalizes to the same
    /// form (label lookups are keyed by normal form, so `HasTag` and
    /// `HAS_TAG` would silently merge; see [`normalize_label`]).
    pub fn add_node(&mut self, node: NodeType) -> Result<()> {
        if let Some(existing) = self.nodes.iter().find(|n| labels_match(&n.label, &node.label)) {
            if existing.label == node.label {
                return Err(RaqletError::schema(format!("duplicate node label `{}`", node.label)));
            }
            return Err(RaqletError::schema(format!(
                "node label `{}` collides with `{}` under label normalization \
                 (underscores and case are ignored); rename one of them",
                node.label, existing.label
            )));
        }
        self.nodes.push(node);
        Ok(())
    }

    /// Add an edge type. Errors if source or target node types are missing,
    /// or if a *differently spelled* edge label normalizes to the same form
    /// as an existing one (an identical spelling between other endpoint
    /// pairs stays legal — several edge types may share one label).
    pub fn add_edge(&mut self, edge: EdgeType) -> Result<()> {
        for endpoint in [&edge.src, &edge.dst] {
            if !self.nodes.iter().any(|n| n.type_name == *endpoint) {
                return Err(RaqletError::schema(format!(
                    "edge `{}` references unknown node type `{}`",
                    edge.label, endpoint
                )));
            }
        }
        if let Some(existing) =
            self.edges.iter().find(|e| e.label != edge.label && labels_match(&e.label, &edge.label))
        {
            return Err(RaqletError::schema(format!(
                "edge label `{}` collides with `{}` under label normalization \
                 (underscores and case are ignored); rename one of them",
                edge.label, existing.label
            )));
        }
        self.edges.push(edge);
        Ok(())
    }

    /// Look up a node type by query label (`Person`).
    pub fn node_by_label(&self, label: &str) -> Option<&NodeType> {
        self.nodes.iter().find(|n| labels_match(&n.label, label))
    }

    /// Look up a node type by its internal type name (`personType`).
    pub fn node_by_type_name(&self, type_name: &str) -> Option<&NodeType> {
        self.nodes.iter().find(|n| n.type_name == type_name)
    }

    /// Look up the unique edge type with the given label and endpoints.
    pub fn edge_between(&self, label: &str, src_label: &str, dst_label: &str) -> Option<&EdgeType> {
        self.edges.iter().find(|e| {
            labels_match(&e.label, label)
                && self
                    .node_by_type_name(&e.src)
                    .map(|n| labels_match(&n.label, src_label))
                    .unwrap_or(false)
                && self
                    .node_by_type_name(&e.dst)
                    .map(|n| labels_match(&n.label, dst_label))
                    .unwrap_or(false)
        })
    }
}

/// A named, typed column of an EDB/IDB relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (e.g. `id`, `firstName`, `id1`).
    pub name: String,
    /// Column type.
    pub ty: ValueType,
}

impl Column {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        Column { name: name.into(), ty }
    }
}

/// What a relation in the Datalog schema describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelationKind {
    /// Extensional relation holding the facts for a node type.
    NodeEdb,
    /// Extensional relation holding the facts for an edge type.
    EdgeEdb,
    /// Intensional relation (derived view / rule head).
    Idb,
    /// A relation loaded directly (not derived from a PG type), e.g. a plain
    /// relational table in a transitive-closure example.
    BaseTable,
}

/// Declaration of one relation in the Datalog schema, corresponding to a
/// `.decl` line in Figure 2b.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationDecl {
    /// Relation name (e.g. `Person`, `Person_IS_LOCATED_IN_City`).
    pub name: String,
    /// Ordered columns.
    pub columns: Vec<Column>,
    /// Role of the relation.
    pub kind: RelationKind,
    /// Indices of key columns (for node EDBs: `[0]`; for edge EDBs the pair
    /// `[0, 1]`). Used by the semantic join optimizations.
    pub key: Vec<usize>,
    /// For EDBs generated from a PG type: the originating label.
    pub source_label: Option<String>,
}

impl RelationDecl {
    /// Construct a relation declaration with no key information.
    pub fn new(name: impl Into<String>, columns: Vec<Column>, kind: RelationKind) -> Self {
        RelationDecl { name: name.into(), columns, kind, key: Vec::new(), source_label: None }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Column types in order.
    pub fn column_types(&self) -> Vec<ValueType> {
        self.columns.iter().map(|c| c.ty).collect()
    }
}

/// A Datalog schema: the output of the data-model transformation and the
/// catalog against which DLIR programs are typed and executed.
///
/// Every program derived from one schema shares its catalog: a clone costs
/// one reference-count increment, and [`DlSchema::add`] /
/// [`DlSchema::upsert`] copy the catalog only when it is shared.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct DlSchema {
    catalog: Arc<Catalog>,
}

#[derive(Clone, Default, PartialEq, Eq)]
struct Catalog {
    relations: BTreeMap<String, RelationDecl>,
    /// Declaration order, preserved for deterministic unparsing.
    order: Vec<String>,
}

impl DlSchema {
    /// Create an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a relation declaration. Errors on duplicate names.
    pub fn add(&mut self, decl: RelationDecl) -> Result<()> {
        if self.contains(&decl.name) {
            return Err(RaqletError::schema(format!("duplicate relation `{}`", decl.name)));
        }
        let catalog = Arc::make_mut(&mut self.catalog);
        catalog.order.push(decl.name.clone());
        catalog.relations.insert(decl.name.clone(), decl);
        Ok(())
    }

    /// Add or replace a relation declaration (used when the compiler refines
    /// inferred IDB types).
    pub fn upsert(&mut self, decl: RelationDecl) {
        let catalog = Arc::make_mut(&mut self.catalog);
        if !catalog.relations.contains_key(&decl.name) {
            catalog.order.push(decl.name.clone());
        }
        catalog.relations.insert(decl.name.clone(), decl);
    }

    /// Look up a relation by name.
    pub fn get(&self, name: &str) -> Option<&RelationDecl> {
        self.catalog.relations.get(name)
    }

    /// Look up a relation by name, returning an error if missing.
    pub fn require(&self, name: &str) -> Result<&RelationDecl> {
        self.get(name)
            .ok_or_else(|| RaqletError::UnknownName { kind: "relation", name: name.to_string() })
    }

    /// True if the schema declares `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.catalog.relations.contains_key(name)
    }

    /// Relations in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &RelationDecl> {
        self.catalog.order.iter().filter_map(|n| self.catalog.relations.get(n))
    }

    /// Names of all extensional relations (node/edge EDBs and base tables).
    pub fn edb_names(&self) -> Vec<String> {
        self.iter().filter(|r| r.kind != RelationKind::Idb).map(|r| r.name.clone()).collect()
    }

    /// Number of declared relations.
    pub fn len(&self) -> usize {
        self.catalog.order.len()
    }

    /// True if no relations are declared.
    pub fn is_empty(&self) -> bool {
        self.catalog.order.is_empty()
    }
}

/// Prints the catalog's fields as if they were the schema's own, so the
/// sharing does not show.
impl fmt::Debug for DlSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DlSchema")
            .field("relations", &self.catalog.relations)
            .field("order", &self.catalog.order)
            .finish()
    }
}

impl fmt::Display for DlSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rel in self.iter() {
            let cols = rel
                .columns
                .iter()
                .map(|c| format!("{}: {}", c.name, c.ty.souffle_name()))
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(f, ".decl {}({})", rel.name, cols)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person() -> NodeType {
        NodeType {
            type_name: "personType".into(),
            label: "Person".into(),
            properties: vec![
                Property::new("id", ValueType::Int),
                Property::new("firstName", ValueType::Text),
                Property::new("locationIP", ValueType::Text),
            ],
        }
    }

    fn city() -> NodeType {
        NodeType {
            type_name: "cityType".into(),
            label: "City".into(),
            properties: vec![
                Property::new("id", ValueType::Int),
                Property::new("name", ValueType::Text),
            ],
        }
    }

    #[test]
    fn node_lookup_by_label_is_case_tolerant() {
        let mut s = PgSchema::new();
        s.add_node(person()).unwrap();
        assert!(s.node_by_label("Person").is_some());
        assert!(s.node_by_label("person").is_some());
        assert!(s.node_by_label("Persn").is_none());
    }

    #[test]
    fn duplicate_node_labels_are_rejected() {
        let mut s = PgSchema::new();
        s.add_node(person()).unwrap();
        assert!(s.add_node(person()).is_err());
    }

    #[test]
    fn edges_require_known_endpoints() {
        let mut s = PgSchema::new();
        s.add_node(person()).unwrap();
        let e = EdgeType {
            type_name: "locationType".into(),
            label: "isLocatedIn".into(),
            src: "personType".into(),
            dst: "cityType".into(),
            properties: vec![Property::new("id", ValueType::Int)],
        };
        // cityType missing -> error
        assert!(s.add_edge(e.clone()).is_err());
        s.add_node(city()).unwrap();
        assert!(s.add_edge(e).is_ok());
    }

    #[test]
    fn colliding_node_label_spellings_are_rejected() {
        let mut s = PgSchema::new();
        s.add_node(person()).unwrap();
        // `PER_SON` is a distinct spelling but normalizes to `person`:
        // lookups could not tell the two apart, so loading must fail loudly.
        let mut clash = person();
        clash.type_name = "perSonType".into();
        clash.label = "PER_SON".into();
        let err = s.add_node(clash).unwrap_err();
        assert!(err.to_string().contains("collides"), "{err}");
        assert!(err.to_string().contains("Person"), "{err}");
    }

    #[test]
    fn colliding_edge_label_spellings_are_rejected() {
        let mut s = PgSchema::new();
        s.add_node(person()).unwrap();
        s.add_node(city()).unwrap();
        let edge = |label: &str| EdgeType {
            type_name: format!("{label}Type"),
            label: label.into(),
            src: "personType".into(),
            dst: "cityType".into(),
            properties: vec![],
        };
        s.add_edge(edge("HasTag")).unwrap();
        let err = s.add_edge(edge("HAS_TAG")).unwrap_err();
        assert!(err.to_string().contains("collides"), "{err}");
        // The *same* spelling between (possibly different) endpoints stays
        // legal: several edge types may share one label.
        assert!(s.add_edge(edge("HasTag")).is_ok());
    }

    #[test]
    fn schema_label_matches_cypher_spelling() {
        // isLocatedIn (schema) vs IS_LOCATED_IN (query) — paper's running example.
        assert!(labels_match("isLocatedIn", "IS_LOCATED_IN"));
        assert!(labels_match("KNOWS", "knows"));
        assert!(!labels_match("isLocatedIn", "HAS_CREATOR"));
    }

    #[test]
    fn edge_between_resolves_by_endpoints() {
        let mut s = PgSchema::new();
        s.add_node(person()).unwrap();
        s.add_node(city()).unwrap();
        s.add_edge(EdgeType {
            type_name: "locationType".into(),
            label: "isLocatedIn".into(),
            src: "personType".into(),
            dst: "cityType".into(),
            properties: vec![],
        })
        .unwrap();
        assert!(s.edge_between("IS_LOCATED_IN", "Person", "City").is_some());
        assert!(s.edge_between("IS_LOCATED_IN", "City", "Person").is_none());
    }

    #[test]
    fn node_key_is_first_property() {
        let p = person();
        assert_eq!(p.key_property().unwrap().name, "id");
        assert_eq!(p.property_index("firstName"), Some(1));
        assert_eq!(p.property_index("missing"), None);
    }

    #[test]
    fn dl_schema_preserves_declaration_order() {
        let mut s = DlSchema::new();
        s.add(RelationDecl::new(
            "Person",
            vec![Column::new("id", ValueType::Int)],
            RelationKind::NodeEdb,
        ))
        .unwrap();
        s.add(RelationDecl::new(
            "City",
            vec![Column::new("id", ValueType::Int)],
            RelationKind::NodeEdb,
        ))
        .unwrap();
        let names: Vec<_> = s.iter().map(|r| r.name.clone()).collect();
        assert_eq!(names, vec!["Person", "City"]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn dl_schema_rejects_duplicates_but_upsert_replaces() {
        let mut s = DlSchema::new();
        let d = RelationDecl::new("R", vec![Column::new("x", ValueType::Int)], RelationKind::Idb);
        s.add(d.clone()).unwrap();
        assert!(s.add(d.clone()).is_err());
        let mut d2 = d.clone();
        d2.columns.push(Column::new("y", ValueType::Text));
        s.upsert(d2);
        assert_eq!(s.get("R").unwrap().arity(), 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn dl_schema_clones_share_until_written() {
        let mut s = DlSchema::new();
        s.add(RelationDecl::new("E", vec![], RelationKind::BaseTable)).unwrap();
        let mut copy = s.clone();
        assert!(Arc::ptr_eq(&s.catalog, &copy.catalog));
        copy.upsert(RelationDecl::new("TC", vec![], RelationKind::Idb));
        assert!(!Arc::ptr_eq(&s.catalog, &copy.catalog));
        assert_eq!(s.len(), 1);
        assert_eq!(copy.len(), 2);
        assert_ne!(s, copy);
        assert_eq!(
            format!("{s:?}"),
            "DlSchema { relations: {\"E\": RelationDecl { name: \"E\", columns: [], \
             kind: BaseTable, key: [], source_label: None }}, order: [\"E\"] }"
        );
    }

    #[test]
    fn dl_schema_display_matches_souffle_decl_syntax() {
        let mut s = DlSchema::new();
        s.add(RelationDecl::new(
            "City",
            vec![Column::new("id", ValueType::Int), Column::new("name", ValueType::Text)],
            RelationKind::NodeEdb,
        ))
        .unwrap();
        assert_eq!(s.to_string(), ".decl City(id: number, name: symbol)\n");
    }

    #[test]
    fn require_reports_unknown_relations() {
        let s = DlSchema::new();
        let err = s.require("Nope").unwrap_err();
        assert!(matches!(err, RaqletError::UnknownName { .. }));
    }

    #[test]
    fn edb_names_exclude_idbs() {
        let mut s = DlSchema::new();
        s.add(RelationDecl::new("E", vec![], RelationKind::BaseTable)).unwrap();
        s.add(RelationDecl::new("TC", vec![], RelationKind::Idb)).unwrap();
        assert_eq!(s.edb_names(), vec!["E".to_string()]);
    }
}
