//! The import graph: extraction, diagnostics, and a topological order.
//!
//! Imports are read from each module's parsed `import m;` declarations (the
//! real parser, not a text scan, so comments and strings cannot confuse the
//! graph). The graph rejects missing imports and import cycles, and orders
//! the modules imports before importers.

use crate::project::Project;
use sfcc_frontend::Diagnostics;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// A structural problem with a project's import graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A module imports a module that is not part of the project.
    MissingImport {
        /// The importing module.
        module: String,
        /// The name it imports.
        import: String,
    },
    /// The import relation contains a cycle; the path repeats its first
    /// element at the end (e.g. `a -> b -> a`).
    Cycle(Vec<String>),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::MissingImport { module, import } => {
                write!(
                    f,
                    "module `{module}` imports `{import}`, which is not in the project"
                )
            }
            GraphError::Cycle(path) => write!(f, "import cycle: {}", path.join(" -> ")),
        }
    }
}

impl std::error::Error for GraphError {}

/// The import graph of a [`Project`], with a precomputed topological order.
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// module → its imports, sorted, deduplicated.
    imports: BTreeMap<String, Vec<String>>,
    /// Imports before importers ([`topo_order`]).
    topo: Vec<String>,
}

impl DepGraph {
    /// Extracts the import graph and computes its topological order.
    ///
    /// Sources that fail to parse contribute whatever imports the
    /// error-recovering parser still saw; the compile step reports their
    /// diagnostics properly later.
    ///
    /// # Errors
    ///
    /// [`GraphError::MissingImport`] when a module imports something the
    /// project does not contain, [`GraphError::Cycle`] when the import
    /// relation is cyclic (a self-import is a cycle of length one).
    pub fn build(project: &Project) -> Result<DepGraph, GraphError> {
        let imports = project
            .iter()
            .map(|(name, source)| (name.to_string(), parse_imports(name, source)))
            .collect();
        DepGraph::from_imports(imports)
    }

    /// Builds the graph from an already-extracted import relation (module →
    /// sorted, deduplicated imports). The key set defines the project: an
    /// import outside it is a [`GraphError::MissingImport`]. This is the
    /// entry point for incremental drivers that memoize per-module import
    /// lists separately from the graph.
    ///
    /// # Errors
    ///
    /// Same as [`DepGraph::build`].
    pub fn from_imports(imports: BTreeMap<String, Vec<String>>) -> Result<DepGraph, GraphError> {
        for (name, deps) in &imports {
            for dep in deps {
                if !imports.contains_key(dep) {
                    return Err(GraphError::MissingImport {
                        module: name.clone(),
                        import: dep.clone(),
                    });
                }
            }
        }
        let topo = topo_order(&imports)?;
        Ok(DepGraph { imports, topo })
    }

    /// The modules a module imports (sorted, deduplicated). Empty for
    /// unknown modules.
    pub fn imports_of(&self, name: &str) -> &[String] {
        self.imports.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All modules in a topological order (imports before importers);
    /// deterministic for a given project: Kahn layers, each sorted by name.
    pub fn topo_order(&self) -> &[String] {
        &self.topo
    }

    /// Number of modules in the graph.
    pub fn len(&self) -> usize {
        self.topo.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.topo.is_empty()
    }
}

/// The canonical text of an import graph: `m=a,b;` per module, in
/// topological order. Its hash is the `graph` task's fingerprint, and it is
/// the value the persisted query graph carries for that task.
pub(crate) fn graph_repr(graph: &DepGraph) -> String {
    let mut repr = String::new();
    for m in graph.topo_order() {
        repr.push_str(m);
        repr.push('=');
        repr.push_str(&graph.imports_of(m).join(","));
        repr.push(';');
    }
    repr
}

/// The import graph a [`graph_repr`] text describes. `None` for a text
/// that is not one, or whose relation [`DepGraph::from_imports`] rejects.
pub(crate) fn parse_graph_repr(text: &str) -> Option<DepGraph> {
    let imports = text
        .split_terminator(';')
        .map(|entry| {
            let (module, deps) = entry.split_once('=')?;
            let deps = deps.split(',').filter(|d| !d.is_empty());
            Some((module.to_string(), deps.map(str::to_string).collect()))
        })
        .collect::<Option<BTreeMap<String, Vec<String>>>>()?;
    let graph = DepGraph::from_imports(imports).ok()?;
    // A name with a separator in it, or a module listed twice, reads back
    // as another relation: only the text the graph prints back is its own.
    (graph_repr(&graph) == text).then_some(graph)
}

/// Extracts one module's import list from its source: parsed `import m;`
/// declarations (the real parser, so comments and strings cannot confuse
/// it), sorted and deduplicated. Sources that fail to parse contribute
/// whatever imports the error-recovering parser still saw.
pub fn parse_imports(name: &str, source: &str) -> Vec<String> {
    let mut diags = Diagnostics::new();
    let ast = sfcc_frontend::parser::parse(name, source, &mut diags);
    let mut deps: Vec<String> = ast.imports.iter().map(|imp| imp.module.clone()).collect();
    deps.sort();
    deps.dedup();
    deps
}

/// Kahn's algorithm, taking whole in-degree-zero layers at a time and
/// concatenating them; within a layer, modules keep the sorted order of the
/// `BTreeMap`. Every image is linked in this order.
fn topo_order(imports: &BTreeMap<String, Vec<String>>) -> Result<Vec<String>, GraphError> {
    let mut remaining: HashMap<&str, usize> = imports
        .iter()
        .map(|(name, deps)| (name.as_str(), deps.len()))
        .collect();
    let mut done: HashSet<&str> = HashSet::new();
    let mut order: Vec<String> = Vec::new();

    while done.len() < imports.len() {
        let layer: Vec<String> = imports
            .iter()
            .filter(|(name, _)| !done.contains(name.as_str()) && remaining[name.as_str()] == 0)
            .map(|(name, _)| name.clone())
            .collect();
        if layer.is_empty() {
            return Err(GraphError::Cycle(find_cycle(imports, &done)));
        }
        for name in &layer {
            done.insert(
                imports
                    .get_key_value(name.as_str())
                    .expect("known module")
                    .0
                    .as_str(),
            );
        }
        for (name, deps) in imports {
            if done.contains(name.as_str()) {
                continue;
            }
            let satisfied = deps.iter().filter(|d| done.contains(d.as_str())).count();
            *remaining.get_mut(name.as_str()).expect("known module") = deps.len() - satisfied;
        }
        order.extend(layer);
    }
    Ok(order)
}

/// Walks import edges among the unscheduled modules until a node repeats,
/// yielding a concrete cycle path for the error message.
fn find_cycle(imports: &BTreeMap<String, Vec<String>>, done: &HashSet<&str>) -> Vec<String> {
    let start = imports
        .keys()
        .find(|name| !done.contains(name.as_str()))
        .expect("a cycle implies unscheduled modules");
    let mut path: Vec<String> = vec![start.clone()];
    let mut seen: HashSet<String> = HashSet::from([start.clone()]);
    loop {
        let current = path.last().expect("non-empty path");
        let next = imports[current]
            .iter()
            .find(|dep| !done.contains(dep.as_str()))
            .expect("an unscheduled module keeps an unscheduled import");
        if seen.contains(next) {
            // Trim the tail leading into the loop, then close it.
            let entry = path.iter().position(|n| n == next).expect("seen on path");
            path.drain(..entry);
            path.push(next.clone());
            return path;
        }
        seen.insert(next.clone());
        path.push(next.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn project(files: &[(&str, &str)]) -> Project {
        let mut p = Project::new();
        for (name, src) in files {
            p.set_file(name.to_string(), src.to_string());
        }
        p
    }

    #[test]
    fn linear_chain_waves() {
        let p = project(&[
            (
                "main",
                "import lib;\nfn main(n: int) -> int { return lib::f(n); }",
            ),
            (
                "lib",
                "import base;\nfn f(x: int) -> int { return base::g(x); }",
            ),
            ("base", "fn g(x: int) -> int { return x; }"),
        ]);
        let g = DepGraph::build(&p).unwrap();
        assert_eq!(
            g.topo_order(),
            &["base".to_string(), "lib".into(), "main".into()]
        );
        assert_eq!(g.imports_of("lib"), &["base".to_string()]);
        assert!(g.imports_of("unknown").is_empty());
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn independent_modules_share_a_wave() {
        let p = project(&[
            ("z", "fn f() -> int { return 1; }"),
            ("a", "fn g() -> int { return 2; }"),
            (
                "main",
                "import a;\nimport z;\nfn main(n: int) -> int { return a::g() + z::f(); }",
            ),
        ]);
        let g = DepGraph::build(&p).unwrap();
        // One Kahn layer is sorted by name → deterministic.
        assert_eq!(
            g.topo_order(),
            &["a".to_string(), "z".into(), "main".into()]
        );
    }

    #[test]
    fn missing_import_is_diagnosed() {
        let p = project(&[(
            "main",
            "import ghost;\nfn main(n: int) -> int { return n; }",
        )]);
        let err = DepGraph::build(&p).unwrap_err();
        assert_eq!(
            err,
            GraphError::MissingImport {
                module: "main".into(),
                import: "ghost".into()
            }
        );
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn cycles_are_rejected_with_a_path() {
        let p = project(&[
            ("a", "import b;\nfn f() -> int { return 1; }"),
            ("b", "import a;\nfn g() -> int { return 2; }"),
        ]);
        let err = DepGraph::build(&p).unwrap_err();
        match err {
            GraphError::Cycle(path) => {
                assert!(path.len() >= 3, "{path:?}");
                assert_eq!(path.first(), path.last());
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn self_import_is_a_cycle() {
        let p = project(&[("a", "import a;\nfn f() -> int { return 1; }")]);
        assert!(matches!(
            DepGraph::build(&p).unwrap_err(),
            GraphError::Cycle(_)
        ));
    }

    #[test]
    fn duplicate_imports_collapse() {
        let p = project(&[
            ("lib", "fn f() -> int { return 1; }"),
            (
                "main",
                "import lib;\nimport lib;\nfn main(n: int) -> int { return lib::f(); }",
            ),
        ]);
        let g = DepGraph::build(&p).unwrap();
        assert_eq!(g.imports_of("main"), &["lib".to_string()]);
    }

    #[test]
    fn comments_do_not_create_imports() {
        let p = project(&[("a", "// import ghost;\nfn f() -> int { return 1; }")]);
        let g = DepGraph::build(&p).unwrap();
        assert!(g.imports_of("a").is_empty());
    }

    #[test]
    fn demo_project_loads_from_disk_with_expected_waves() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../demo");
        let p = Project::from_dir(dir).expect("demo/ should load");
        let g = DepGraph::build(&p).unwrap();
        assert_eq!(
            g.topo_order(),
            &["mathx".to_string(), "stats".into(), "main".into()]
        );
        assert_eq!(g.imports_of("main"), &["mathx".to_string(), "stats".into()]);
    }
}
