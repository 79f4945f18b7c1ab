//! Lowering the flat assay to the assay DAG.
//!
//! Conventions chosen to match the paper's DAG accounting (Figure 3 /
//! Table 2):
//!
//! * each `MIX` is a mix node with exact in-edge fractions;
//! * `INCUBATE`/`CONCENTRATE` are pass-through process nodes;
//! * `SENSE` is a *leaf* process node (the sensed aliquot is consumed);
//! * `SEPARATE` is a separation node — with a known fraction when the
//!   assay gives a `YIELD` hint, otherwise statically unknown (§3.5);
//!   matrix and pusher loads are not part of the volume DAG (they are
//!   `move`d wholesale at codegen, with no relative-volume semantics);
//! * any produced fluid never consumed becomes an output leaf as-is
//!   (leaf nodes are the normalization anchors of DAGSolve).

use std::collections::HashMap;

use aqua_dag::{Dag, NodeId};
use aqua_lang::{FlatAssay, FlatOp, FluidId, SenseMode, SepKind};

use crate::error::CompileError;

/// Side tables codegen reads beside the DAG. The per-node tables are
/// vectors indexed by node id and cover the lowered DAG's nodes, so
/// nodes a later rewrite adds read as `None` through `get`.
#[derive(Debug, Clone, Default)]
pub struct DagMap {
    /// For separation nodes, by node index: (matrix fluid name, pusher
    /// fluid name, separation kind, duration seconds) needed at codegen.
    pub separate_details: Vec<Option<(String, String, SepKind, u64)>>,
    /// For sense leaves, by node index: (modality, result-slot label).
    pub sense_details: Vec<Option<(SenseMode, String)>>,
    /// For incubate/concentrate process nodes, by node index:
    /// (temperature C, seconds).
    pub process_details: Vec<Option<(i64, u64)>>,
    /// Relative production weights of explicit `OUTPUT` nodes (the
    /// paper's `Va:Vb:Vc` output proportions).
    pub output_weights: HashMap<NodeId, u64>,
}

/// Lowers a flat assay to its DAG.
///
/// # Errors
///
/// Returns [`CompileError::WasteUsed`] if the assay consumes a waste
/// stream, or [`CompileError::Dag`]-level issues for degenerate mixes.
pub fn lower_to_dag(flat: &FlatAssay) -> Result<(Dag, DagMap), CompileError> {
    let inputs = flat.inputs();
    // Every op lowers to exactly one node, after the inputs, and one
    // in-edge per consumed fluid.
    let nodes = inputs.len() + flat.ops.len();
    let edges = flat
        .ops
        .iter()
        .map(|op| match op {
            FlatOp::Mix { parts, .. } => parts.len(),
            _ => 1,
        })
        .sum();
    let mut dag = Dag::with_capacity(nodes, edges);
    // The node producing each fluid instance, by fluid index (inputs map
    // to their input node); waste streams stay `None`.
    let mut fluid_node: Vec<Option<NodeId>> = vec![None; flat.fluids.len()];
    let mut map = DagMap {
        separate_details: vec![None; nodes],
        sense_details: vec![None; nodes],
        process_details: vec![None; nodes],
        output_weights: HashMap::new(),
    };
    let mut waste_fluids: Vec<FluidId> = Vec::new();

    // Inputs first (so input node ids are dense and stable).
    for id in inputs {
        let n = dag.add_input(flat.fluid(id).name.clone());
        fluid_node[id.index()] = Some(n);
    }

    let node_of = |fluid_node: &[Option<NodeId>], fluid: FluidId| -> Result<NodeId, CompileError> {
        fluid_node[fluid.index()].ok_or_else(|| CompileError::WasteUsed {
            fluid: flat.fluid(fluid).name.clone(),
        })
    };

    for op in &flat.ops {
        match op {
            FlatOp::Mix {
                out,
                parts,
                seconds,
            } => {
                let mut srcs = Vec::with_capacity(parts.len());
                for (f, r) in parts {
                    srcs.push((node_of(&fluid_node, *f)?, *r));
                }
                let n = dag
                    .add_mix_exact(flat.fluid(*out).name.clone(), &srcs, *seconds)
                    .map_err(|_| {
                        CompileError::Codegen(format!(
                            "mix `{}` has degenerate ratios",
                            flat.fluid(*out).name
                        ))
                    })?;
                fluid_node[out.index()] = Some(n);
            }
            FlatOp::Incubate {
                out,
                input,
                temp_c,
                seconds,
            } => {
                let src = node_of(&fluid_node, *input)?;
                let n = dag.add_process(flat.fluid(*out).name.clone(), "incubate", src);
                map.process_details[n.index()] = Some((*temp_c, *seconds));
                fluid_node[out.index()] = Some(n);
            }
            FlatOp::Concentrate {
                out,
                input,
                temp_c,
                seconds,
            } => {
                let src = node_of(&fluid_node, *input)?;
                let n = dag.add_process(flat.fluid(*out).name.clone(), "concentrate", src);
                map.process_details[n.index()] = Some((*temp_c, *seconds));
                fluid_node[out.index()] = Some(n);
            }
            FlatOp::Separate {
                out,
                waste,
                input,
                kind,
                matrix,
                using,
                seconds,
                yield_hint,
            } => {
                let src = node_of(&fluid_node, *input)?;
                let n = dag.add_separate(flat.fluid(*out).name.clone(), src, *yield_hint);
                map.separate_details[n.index()] =
                    Some((matrix.clone(), using.clone(), *kind, *seconds));
                fluid_node[out.index()] = Some(n);
                waste_fluids.push(*waste);
            }
            FlatOp::Output { input, weight } => {
                let src = node_of(&fluid_node, *input)?;
                let n = dag.add_output(format!("out_{}", flat.fluid(*input).name), src);
                map.output_weights.insert(n, *weight);
            }
            FlatOp::Sense {
                input,
                mode,
                target,
            } => {
                let src = node_of(&fluid_node, *input)?;
                let opname = match mode {
                    SenseMode::Optical => "sense.OD",
                    SenseMode::Fluorescence => "sense.FL",
                };
                let n = dag.add_process(target.clone(), opname, src);
                map.sense_details[n.index()] = Some((*mode, target.clone()));
            }
        }
    }

    // Waste streams must stay dead ends.
    if !waste_fluids.is_empty() {
        let counts = flat.use_counts();
        for w in waste_fluids {
            if counts[w.index()] > 0 {
                return Err(CompileError::WasteUsed {
                    fluid: flat.fluid(w).name.clone(),
                });
            }
        }
    }

    Ok((dag, map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_dag::NodeKind;
    use aqua_lang::compile_to_flat;
    use aqua_rational::Ratio;

    fn lower(src: &str) -> (Dag, DagMap) {
        lower_to_dag(&compile_to_flat(src).unwrap()).unwrap()
    }

    #[test]
    fn glucose_dag_matches_paper_accounting() {
        // 3 inputs + 5 mixes + 5 sense leaves = 13 nodes; 15 edges.
        let (d, _) = lower(
            "ASSAY glucose START
             fluid Glucose, Reagent, Sample;
             fluid a, b, c, d, e;
             VAR Result[5];
             a = MIX Glucose AND Reagent IN RATIOS 1 : 1 FOR 10;
             SENSE OPTICAL it INTO Result[1];
             b = MIX Glucose AND Reagent IN RATIOS 1 : 2 FOR 10;
             SENSE OPTICAL it INTO Result[2];
             c = MIX Glucose AND Reagent IN RATIOS 1 : 4 FOR 10;
             SENSE OPTICAL it INTO Result[3];
             d = MIX Glucose AND Reagent IN RATIOS 1 : 8 FOR 10;
             SENSE OPTICAL it INTO Result[4];
             e = MIX Sample AND Reagent IN RATIOS 1 : 1 FOR 10;
             SENSE OPTICAL it INTO Result[5];
             END",
        );
        assert_eq!(d.num_nodes(), 13);
        assert_eq!(d.num_edges(), 15);
        assert!(d.validate().is_ok());
        // The 1:8 mix has fractions 1/9 and 8/9.
        let mix_d = d.find_node("d").unwrap();
        let fr: Vec<Ratio> = d
            .in_edges(mix_d)
            .iter()
            .map(|&e| d.edge(e).fraction)
            .collect();
        assert_eq!(
            fr,
            vec![Ratio::new(1, 9).unwrap(), Ratio::new(8, 9).unwrap()]
        );
    }

    #[test]
    fn separate_without_yield_is_unknown() {
        let (d, m) = lower(
            "ASSAY g START
             fluid A, B, s, lectin, buf, eff, waste;
             s = MIX A AND B FOR 30;
             SEPARATE s MATRIX lectin USING buf FOR 30 INTO eff AND waste;
             MIX eff AND A FOR 30;
             END",
        );
        let sep = d.find_node("eff").unwrap();
        assert_eq!(d.node(sep).kind, NodeKind::Separate { fraction: None });
        assert_eq!(
            m.separate_details[sep.index()],
            Some((
                "lectin".to_string(),
                "buf".to_string(),
                SepKind::Affinity,
                30
            ))
        );
        // The matrix fluid is not a DAG node.
        assert!(d.find_node("lectin").is_none());
    }

    #[test]
    fn yield_hint_becomes_known_fraction() {
        let (d, _) = lower(
            "ASSAY g START
             fluid A, B, s, m, buf, eff, waste;
             s = MIX A AND B FOR 30;
             LCSEPARATE s MATRIX m USING buf FOR 30 INTO eff AND waste YIELD 1/2;
             SENSE OPTICAL eff INTO R;
             END",
        );
        let sep = d.find_node("eff").unwrap();
        assert_eq!(
            d.node(sep).kind,
            NodeKind::Separate {
                fraction: Some(Ratio::new(1, 2).unwrap())
            }
        );
    }

    #[test]
    fn waste_use_is_rejected() {
        let flat = compile_to_flat(
            "ASSAY g START
             fluid A, B, s, m, buf, eff, waste;
             s = MIX A AND B FOR 30;
             SEPARATE s MATRIX m USING buf FOR 30 INTO eff AND waste;
             MIX waste AND A FOR 30;
             END",
        )
        .unwrap();
        assert!(matches!(
            lower_to_dag(&flat),
            Err(CompileError::WasteUsed { .. })
        ));
    }

    #[test]
    fn unconsumed_products_are_leaves() {
        let (d, _) = lower(
            "ASSAY g START
             fluid A, B, x;
             x = MIX A AND B FOR 5;
             END",
        );
        let x = d.find_node("x").unwrap();
        assert!(d.out_edges(x).is_empty());
    }

    #[test]
    fn incubate_chain_is_pass_through() {
        let (d, m) = lower(
            "ASSAY g START
             fluid A, B;
             MIX A AND B FOR 5;
             INCUBATE it AT 37 FOR 300;
             SENSE OPTICAL it INTO R;
             END",
        );
        assert_eq!(d.num_nodes(), 5);
        let inc = d
            .node_ids()
            .find(|&n| matches!(&d.node(n).kind, NodeKind::Process { op } if op == "incubate"))
            .unwrap();
        assert_eq!(m.process_details[inc.index()], Some((37, 300)));
    }
}
