//! Graphviz export for debugging and documentation.

use std::fmt::Write as _;

use crate::graph::{Dag, NodeKind};

impl Dag {
    /// Renders the DAG in Graphviz `dot` syntax.
    ///
    /// Node shapes encode kinds: inputs are houses, mixes are boxes,
    /// separations are trapezia, outputs are double circles, excess
    /// nodes are grey diamonds. Edges are labeled with their fractions.
    ///
    /// # Examples
    ///
    /// ```
    /// use aqua_dag::Dag;
    ///
    /// let mut d = Dag::new();
    /// let a = d.add_input("A");
    /// d.add_output("out", a);
    /// let dot = d.to_dot("tiny");
    /// assert!(dot.starts_with("digraph tiny {"));
    /// assert!(dot.contains("\"A\""));
    /// ```
    pub fn to_dot(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph {title} {{");
        let _ = writeln!(out, "  rankdir=TB;");
        for id in self.node_ids() {
            let node = self.node(id);
            let shape = match node.kind {
                NodeKind::Input => "house",
                NodeKind::ConstrainedInput => "invhouse",
                NodeKind::Mix { .. } => "box",
                NodeKind::Process { .. } => "ellipse",
                NodeKind::Separate { .. } => "trapezium",
                NodeKind::Output => "doublecircle",
                NodeKind::Excess => "diamond",
            };
            let style = if node.kind == NodeKind::Excess {
                ", style=filled, fillcolor=gray80"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {} [label=\"{}\", shape={shape}{style}];",
                id.index(),
                node.name
            );
        }
        for eid in self.edge_ids() {
            let e = self.edge(eid);
            let _ = writeln!(
                out,
                "  {} -> {} [label=\"{}\"];",
                e.src.index(),
                e.dst.index(),
                e.fraction
            );
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::graph::Dag;

    #[test]
    fn dot_includes_every_edge() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let k = d.add_mix("K", &[(a, 1), (b, 4)], 0).unwrap();
        d.add_output("o", k);
        let dot = d.to_dot("g");
        assert!(dot.contains("label=\"1/5\""));
        assert!(dot.contains("label=\"4/5\""));
        assert!(dot.contains("doublecircle"));
    }
}
