//! Helpers shared by the root integration tests.

use aqua_dag::NodeKind;

/// Renders a synthetic layered DAG back into assay source: its inputs
/// and mixes as fluids, and each mix followed by a sense step. A mix's
/// ratio clause is written only when its in-edge fractions share one
/// denominator (their numerators are then integer parts); otherwise the
/// mix is 1:1, so the source need not reproduce the DAG exactly.
pub fn render(dag: &aqua_dag::Dag) -> String {
    let mut src = String::from("ASSAY fuzz START\n");
    let inputs: Vec<_> = dag
        .node_ids()
        .filter(|&n| dag.node(n).kind == NodeKind::Input)
        .collect();
    src.push_str("fluid ");
    src.push_str(
        &inputs
            .iter()
            .map(|&n| dag.node(n).name.clone())
            .collect::<Vec<_>>()
            .join(", "),
    );
    src.push_str(";\nfluid ");
    let mixes: Vec<_> = dag
        .node_ids()
        .filter(|&n| matches!(dag.node(n).kind, NodeKind::Mix { .. }))
        .collect();
    src.push_str(
        &mixes
            .iter()
            .map(|&n| dag.node(n).name.clone())
            .collect::<Vec<_>>()
            .join(", "),
    );
    src.push_str(";\n");
    for (i, &m) in mixes.iter().enumerate() {
        let parts: Vec<String> = dag
            .in_edges(m)
            .iter()
            .map(|&e| dag.node(dag.edge(e).src).name.clone())
            .collect();
        let fracs: Vec<String> = dag
            .in_edges(m)
            .iter()
            .map(|&e| dag.edge(e).fraction.numer().to_string())
            .collect();
        let denoms: std::collections::HashSet<i128> = dag
            .in_edges(m)
            .iter()
            .map(|&e| dag.edge(e).fraction.denom())
            .collect();
        let ratio_clause = if denoms.len() == 1 {
            format!(" IN RATIOS {}", fracs.join(" : "))
        } else {
            String::new()
        };
        src.push_str(&format!(
            "{} = MIX {}{} FOR 5;\nSENSE OPTICAL {} INTO R{i};\n",
            dag.node(m).name,
            parts.join(" AND "),
            ratio_clause,
            dag.node(m).name,
        ));
    }
    src.push_str("END\n");
    src
}
