//! NoC-partition-mode module selection (paper §III-B, Fig. 4).
//!
//! NoC router boundaries are credit-based (latency-insensitive) and free
//! of input→output combinational coupling, which makes them ideal cut
//! points. Instead of listing every module, the user names router-node
//! indices; FireRipper grows the selection by absorbing modules that are
//! connected to the selected set but to no *foreign* router — exactly the
//! paper's recursive wrapper construction (protocol converters, CDCs, and
//! the tiles hanging off the selected routers all get pulled in), then
//! collapses the result to maximal subtree roots for extraction.

use crate::error::{Result, RipperError};
use fireaxe_ir::{Circuit, Expr, Module, Ref, Stmt};
use std::collections::{BTreeSet, HashMap};

/// Union-find over net endpoints.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// One node of the elaborated instance tree; node 0 is the top.
struct Instance<'c> {
    parent: usize,
    name: &'c str,
    /// A leaf instance: extern, or a module without children.
    leaf: bool,
}

/// Flattened connectivity of a design: leaf instances and per-module
/// logic, joined through nets (chains of pure-reference connects). Built
/// once per circuit; every NoC-mode group of a spec selects from the same
/// graph.
///
/// Graph node `2 * i` is instance `i` as a leaf, `2 * i + 1` the local
/// logic of instance `i`'s module. Adjacency stays bipartite — node →
/// nets, net → nodes — so a wide net costs its fan-out, not its square.
pub struct ConnGraph<'c> {
    modules: HashMap<&'c str, &'c Module>,
    top: &'c str,
    instances: Vec<Instance<'c>>,
    children: HashMap<(usize, &'c str), usize>,
    node_nets: Vec<Vec<usize>>,
    net_nodes: Vec<Vec<usize>>,
}

/// State of one graph construction.
struct Builder<'c> {
    graph: ConnGraph<'c>,
    /// `(instance, signal)` → endpoint id.
    endpoints: HashMap<(usize, &'c str), usize>,
    /// Endpoint id → owning instance.
    endpoint_owner: Vec<usize>,
    alias_edges: Vec<(usize, usize)>,
    /// `(instance whose logic it is, endpoint)`.
    logic_edges: Vec<(usize, usize)>,
}

impl<'c> Builder<'c> {
    fn child(&mut self, parent: usize, name: &'c str) -> usize {
        let instances = &mut self.graph.instances;
        *self
            .graph
            .children
            .entry((parent, name))
            .or_insert_with(|| {
                instances.push(Instance {
                    parent,
                    name,
                    leaf: false,
                });
                instances.len() - 1
            })
    }

    fn endpoint(&mut self, at: usize, r: &'c Ref) -> usize {
        let owner = match &r.instance {
            Some(i) => self.child(at, i),
            None => at,
        };
        self.local_endpoint(owner, &r.name)
    }

    fn local_endpoint(&mut self, owner: usize, signal: &'c str) -> usize {
        let owners = &mut self.endpoint_owner;
        *self.endpoints.entry((owner, signal)).or_insert_with(|| {
            owners.push(owner);
            owners.len() - 1
        })
    }

    fn logic(&mut self, at: usize, driven: usize, expr: &'c Expr) {
        self.logic_edges.push((at, driven));
        let mut refs = Vec::new();
        expr.collect_refs(&mut refs);
        for r in refs {
            let e = self.endpoint(at, r);
            self.logic_edges.push((at, e));
        }
    }

    fn walk(&mut self, at: usize, module_name: &str) {
        let Some(&module) = self.graph.modules.get(module_name) else {
            return;
        };
        let is_leaf = module.is_extern() || module.instances().next().is_none();
        if is_leaf && at != 0 {
            self.graph.instances[at].leaf = true;
            return;
        }
        for stmt in &module.body {
            match stmt {
                Stmt::Inst { name, module: m } => {
                    let child = self.child(at, name);
                    self.walk(child, m);
                }
                Stmt::Connect { lhs, rhs } => {
                    let l = self.endpoint(at, lhs);
                    match rhs {
                        Expr::Ref(r) => {
                            let rr = self.endpoint(at, r);
                            self.alias_edges.push((l, rr));
                        }
                        other => self.logic(at, l, other),
                    }
                }
                Stmt::Node { name, expr } => {
                    let l = self.local_endpoint(at, name);
                    self.logic(at, l, expr);
                }
                _ => {}
            }
        }
    }
}

impl<'c> ConnGraph<'c> {
    /// Elaborates `circuit` into its connectivity graph.
    pub fn build(circuit: &'c Circuit) -> Self {
        let mut modules = HashMap::with_capacity(circuit.modules.len());
        for m in &circuit.modules {
            modules.entry(m.name.as_str()).or_insert(m);
        }
        let mut b = Builder {
            graph: ConnGraph {
                modules,
                top: &circuit.top,
                instances: vec![Instance {
                    parent: 0,
                    name: "",
                    leaf: false,
                }],
                children: HashMap::new(),
                node_nets: Vec::new(),
                net_nodes: Vec::new(),
            },
            endpoints: HashMap::new(),
            endpoint_owner: Vec::new(),
            alias_edges: Vec::new(),
            logic_edges: Vec::new(),
        };
        b.walk(0, &circuit.top);

        let mut uf = UnionFind {
            parent: (0..b.endpoint_owner.len()).collect(),
        };
        for &(x, y) in &b.alias_edges {
            uf.union(x, y);
        }

        // Attach graph nodes to nets: a leaf instance to the net of each
        // of its ports, a module's logic to every net it drives or reads.
        let mut graph = b.graph;
        let mut net_of_root: HashMap<usize, usize> = HashMap::new();
        let mut attach = |graph: &mut ConnGraph<'c>, endpoint: usize, node: usize| {
            let net = *net_of_root.entry(uf.find(endpoint)).or_insert_with(|| {
                graph.net_nodes.push(Vec::new());
                graph.net_nodes.len() - 1
            });
            graph.net_nodes[net].push(node);
        };
        for (endpoint, &owner) in b.endpoint_owner.iter().enumerate() {
            if graph.instances[owner].leaf {
                attach(&mut graph, endpoint, 2 * owner);
            }
        }
        for &(at, endpoint) in &b.logic_edges {
            attach(&mut graph, endpoint, 2 * at + 1);
        }
        graph.node_nets = vec![Vec::new(); 2 * graph.instances.len()];
        for (net, nodes) in graph.net_nodes.iter_mut().enumerate() {
            nodes.sort_unstable();
            nodes.dedup();
            for &n in nodes.iter() {
                graph.node_nets[n].push(net);
            }
        }
        graph
    }

    /// The instance at `path`, if the elaboration reached it.
    fn resolve(&self, path: &str) -> Option<usize> {
        path.split('.')
            .try_fold(0, |at, seg| self.children.get(&(at, seg)).copied())
    }

    fn path_of(&self, mut at: usize) -> String {
        let mut segs = Vec::new();
        while at != 0 {
            segs.push(self.instances[at].name);
            at = self.instances[at].parent;
        }
        segs.reverse();
        segs.join(".")
    }

    /// Grows a NoC-router selection into the full set of instance paths
    /// to extract (paper Fig. 4 steps 1–4); see [`noc_select`].
    ///
    /// # Errors
    ///
    /// Returns [`RipperError::NoSuchInstance`] for out-of-range indices or
    /// router paths that do not resolve to leaf instances.
    pub fn select(&self, routers: &[String], indices: &[usize]) -> Result<Vec<String>> {
        for &i in indices {
            if i >= routers.len() {
                return Err(RipperError::NoSuchInstance {
                    path: format!("router index {i} (only {} routers)", routers.len()),
                });
            }
        }
        let n = self.instances.len();
        let mut selected = vec![false; 2 * n];
        let mut worklist = Vec::new();
        let mut own_router = vec![false; n];
        let picked: BTreeSet<&String> = indices.iter().map(|&i| &routers[i]).collect();
        for r in picked {
            match self.resolve(r).filter(|&i| self.instances[i].leaf) {
                Some(i) => {
                    own_router[i] = true;
                    selected[2 * i] = true;
                    worklist.push(2 * i);
                }
                None => return Err(RipperError::NoSuchInstance { path: r.clone() }),
            }
        }
        let mut router = vec![false; n];
        for i in routers.iter().filter_map(|r| self.resolve(r)) {
            router[i] = true;
        }

        // Absorption: a node adjacent to the selection but to no foreign
        // router gets pulled in. Eligibility only ever grows with the
        // selection, so visiting each newly selected node's neighbours
        // once reaches the same fixpoint as rescanning every node per
        // round.
        let foreign_on = |net: usize| {
            self.net_nodes[net]
                .iter()
                .any(|&x| x % 2 == 0 && router[x / 2] && !own_router[x / 2])
        };
        while let Some(node) = worklist.pop() {
            for &net in &self.node_nets[node] {
                for &m in &self.net_nodes[net] {
                    if selected[m] || router[m / 2] {
                        continue;
                    }
                    if self.node_nets[m].iter().any(|&net| foreign_on(net)) {
                        continue;
                    }
                    selected[m] = true;
                    worklist.push(m);
                }
            }
        }

        // Collapse to maximal subtree roots: per instance, the leaves
        // below it and how many of them are selected (children are
        // numbered after their parents).
        let mut leaves = vec![0usize; n];
        let mut chosen = vec![0usize; n];
        for i in (0..n).rev() {
            if self.instances[i].leaf {
                leaves[i] += 1;
                chosen[i] += usize::from(selected[2 * i]);
            }
            if i != 0 {
                let p = self.instances[i].parent;
                leaves[p] += leaves[i];
                chosen[p] += chosen[i];
            }
        }
        let mut out = Vec::new();
        let mut descend = vec![(0usize, self.top)];
        while let Some((at, module)) = descend.pop() {
            let Some(m) = self.modules.get(module) else {
                continue;
            };
            for (inst, child_module) in m.instances() {
                let Some(&child) = self.children.get(&(at, inst)) else {
                    continue;
                };
                if leaves[child] == 0 || chosen[child] == 0 {
                    continue;
                }
                if chosen[child] == leaves[child] {
                    out.push(self.path_of(child));
                } else {
                    descend.push((child, child_module));
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

/// Grows a NoC-router selection into the full set of instance paths to
/// extract (paper Fig. 4 steps 1–4).
///
/// `routers` lists the instance paths of every router node in index
/// order; `indices` picks the routers to extract. The returned paths are
/// maximal subtree roots suitable for [`crate::hier::reparent_all`].
///
/// # Errors
///
/// Returns [`RipperError::NoSuchInstance`] for out-of-range indices or
/// router paths that do not resolve to leaf instances.
pub fn noc_select(circuit: &Circuit, routers: &[String], indices: &[usize]) -> Result<Vec<String>> {
    ConnGraph::build(circuit).select(routers, indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireaxe_ir::build::ModuleBuilder;
    use fireaxe_ir::Circuit;

    /// A toy 4-router ring: router_i <-> pc_i <-> tile_i, routers chained.
    /// Mirrors the Fig. 4 structure at a single hierarchy level plus tile
    /// subtrees.
    fn ring_soc() -> Circuit {
        let mut router = ModuleBuilder::new("Router");
        for p in ["left_in", "right_in", "local_in"] {
            router.input(p, 8);
        }
        let lo = router.output("left_out", 8);
        let ro = router.output("right_out", 8);
        let loc = router.output("local_out", 8);
        let r = router.reg("buf", 8, 0);
        router.connect_sig(&lo, &r);
        router.connect_sig(&ro, &r);
        router.connect_sig(&loc, &r);
        let li = fireaxe_ir::build::Sig::from_expr(fireaxe_ir::Expr::reference("left_in"));
        router.connect_sig(&r, &li);
        let router = router.finish();

        let mut pc = ModuleBuilder::new("ProtoConv");
        let a = pc.input("from_router", 8);
        let b = pc.input("from_tile", 8);
        let x = pc.output("to_router", 8);
        let y = pc.output("to_tile", 8);
        let r1 = pc.reg("r1", 8, 0);
        let r2 = pc.reg("r2", 8, 0);
        pc.connect_sig(&r1, &a);
        pc.connect_sig(&r2, &b);
        pc.connect_sig(&y, &r1);
        pc.connect_sig(&x, &r2);
        let pc = pc.finish();

        let mut core = ModuleBuilder::new("Core");
        let ci = core.input("bus_in", 8);
        let co = core.output("bus_out", 8);
        let cr = core.reg("state", 8, 0);
        core.connect_sig(&cr, &ci);
        core.connect_sig(&co, &cr);
        let core = core.finish();

        let mut tile = ModuleBuilder::new("Tile");
        let ti = tile.input("in", 8);
        let to = tile.output("out", 8);
        tile.inst("core", "Core");
        tile.connect_inst("core", "bus_in", &ti);
        let c_out = tile.inst_port("core", "bus_out");
        tile.connect_sig(&to, &c_out);
        let tile = tile.finish();

        let mut top = ModuleBuilder::new("Soc");
        let n = 4usize;
        for i in 0..n {
            top.inst(format!("router{i}"), "Router");
            top.inst(format!("pc{i}"), "ProtoConv");
            top.inst(format!("tile{i}"), "Tile");
        }
        for i in 0..n {
            let next = (i + 1) % n;
            let prev = (i + n - 1) % n;
            let r_right = top.inst_port(&format!("router{i}"), "right_out");
            top.connect_inst(&format!("router{next}"), "left_in", &r_right);
            let r_left = top.inst_port(&format!("router{i}"), "left_out");
            top.connect_inst(&format!("router{prev}"), "right_in", &r_left);
            // router <-> pc
            let pc_to_r = top.inst_port(&format!("pc{i}"), "to_router");
            top.connect_inst(&format!("router{i}"), "local_in", &pc_to_r);
            let r_local = top.inst_port(&format!("router{i}"), "local_out");
            top.connect_inst(&format!("pc{i}"), "from_router", &r_local);
            // pc <-> tile
            let t_out = top.inst_port(&format!("tile{i}"), "out");
            top.connect_inst(&format!("pc{i}"), "from_tile", &t_out);
            let pc_to_t = top.inst_port(&format!("pc{i}"), "to_tile");
            top.connect_inst(&format!("tile{i}"), "in", &pc_to_t);
        }
        // An SoC-level observer tied to router0's tile (stays behind).
        let obs = top.output("obs", 8);
        let t0 = top.inst_port("pc0", "to_tile");
        top.connect_sig(&obs, &t0);
        Circuit::from_modules("Soc", vec![top.finish(), router, pc, tile, core], "Soc")
    }

    fn routers() -> Vec<String> {
        (0..4).map(|i| format!("router{i}")).collect()
    }

    #[test]
    fn grows_selection_through_pc_and_tile() {
        let c = ring_soc();
        let sel = noc_select(&c, &routers(), &[1, 2]).unwrap();
        // Routers 1,2 plus their protocol converters and whole tiles.
        assert!(sel.contains(&"router1".to_string()));
        assert!(sel.contains(&"router2".to_string()));
        assert!(sel.contains(&"pc1".to_string()));
        assert!(sel.contains(&"pc2".to_string()));
        // Tiles collapse to subtree roots, not their inner cores.
        assert!(sel.contains(&"tile1".to_string()));
        assert!(sel.contains(&"tile2".to_string()));
        assert!(!sel.iter().any(|p| p.contains("core")));
        // Nothing from foreign routers' neighborhoods.
        assert!(!sel.contains(&"pc0".to_string()));
        assert!(!sel.contains(&"tile3".to_string()));
        assert_eq!(sel.len(), 6);
    }

    #[test]
    fn observer_blocks_absorption() {
        // pc0 feeds the top-level observer logic; selecting router 0 pulls
        // in pc0/tile0 but the observer connection is to a top port, which
        // does not block absorption (it is not a foreign router).
        let c = ring_soc();
        let sel = noc_select(&c, &routers(), &[0]).unwrap();
        assert!(sel.contains(&"router0".to_string()));
        assert!(sel.contains(&"pc0".to_string()));
        assert!(sel.contains(&"tile0".to_string()));
    }

    #[test]
    fn bad_index_rejected() {
        let c = ring_soc();
        assert!(matches!(
            noc_select(&c, &routers(), &[9]),
            Err(RipperError::NoSuchInstance { .. })
        ));
    }

    #[test]
    fn empty_selection_yields_routers_only() {
        let c = ring_soc();
        let sel = noc_select(&c, &routers(), &[]).unwrap();
        assert!(sel.is_empty());
    }
}
