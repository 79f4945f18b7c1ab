//! The evaluator's diagnostics and accepted edge programs, pinned.
//!
//! Every rejected source pins the exact message, byte span and line of
//! the first error `compile_to_flat` reports, one source per kind of
//! error the unroller raises. Every accepted source pins the whole
//! `FlatAssay` it unrolls to: the fluid table (names, inputs marked
//! `*`) and the op list.

use std::fmt::Write as _;

use aqua_lang::{compile_to_flat, compile_to_flat_ast, parse, FlatAssay, LangError, Stmt};

/// `(case, source, message, start, end, line)`.
const REJECTED: &[(&str, &str, &str, usize, usize, usize)] = &[
    ("undeclared_var", "ASSAY t START\nfluid A, B;\nx = 1;\nMIX A AND B FOR 5;\nEND", "undeclared VAR `x`", 26, 27, 3),
    ("undeclared_fluid_use", "ASSAY t START\nfluid A;\nMIX A AND Q FOR 5;\nEND", "undeclared fluid `Q`", 33, 34, 3),
    ("undeclared_fluid_product", "ASSAY t START\nfluid A, B;\nd = MIX A AND B FOR 5;\nEND", "undeclared fluid `d`", 30, 33, 3),
    ("undeclared_fluid_index_evaluated_first", "ASSAY t START\nfluid A;\nMIX A AND Q[1 / 0] FOR 5;\nEND", "division by zero", 35, 40, 3),
    ("read_before_assignment", "ASSAY t START\nfluid A, B;\nVAR t;\nMIX A AND B IN RATIOS 1:t FOR 5;\nEND", "variable `t` read before assignment", 57, 58, 4),
    ("indexed_read_before_assignment", "ASSAY t START\nfluid A, B;\nVAR r[3];\nr[1] = 2;\nMIX A AND B IN RATIOS r[1]:r[2] FOR 5;\nEND", "variable `r` read before assignment", 73, 74, 5),
    ("it_before_any_product", "ASSAY t START\nfluid A;\nSENSE OPTICAL it INTO R;\nEND", "`it` used before any product exists", 37, 39, 3),
    ("index_out_of_range", "ASSAY t START\nfluid D[2], A, B;\nD[3] = MIX A AND B FOR 5;\nEND", "index 3 out of range for `D[2]`", 32, 33, 3),
    ("index_zero_on_use", "ASSAY t START\nfluid D[2], A;\nMIX D[0] AND A FOR 5;\nEND", "index 0 out of range for `D[2]`", 33, 34, 3),
    ("second_index_out_of_range", "ASSAY t START\nfluid D[2], A, B;\nD[1][3] = MIX A AND B FOR 5;\nEND", "index 3 out of range for `D[2]`", 32, 33, 3),
    ("negative_ratio_part", "ASSAY t START\nfluid A, B;\nMIX A AND B IN RATIOS 1:0 - 1 FOR 5;\nEND", "negative ratio part -1", 50, 55, 3),
    ("all_zero_mix", "ASSAY t START\nfluid A, B;\nMIX A AND B IN RATIOS 0:0 FOR 5;\nEND", "mix ratios are all zero", 26, 29, 3),
    ("negative_duration", "ASSAY t START\nfluid A, B;\nMIX A AND B FOR 0 - 5;\nEND", "negative duration -5", 42, 47, 3),
    ("negative_incubate_duration", "ASSAY t START\nfluid A;\nINCUBATE A AT 37 FOR 2 - 3;\nEND", "negative duration -1", 44, 49, 3),
    ("zero_output_weight", "ASSAY t START\nfluid A;\nOUTPUT A WEIGHT 0;\nEND", "OUTPUT weight must be positive, got 0", 23, 29, 3),
    ("negative_output_weight", "ASSAY t START\nfluid A;\nOUTPUT A WEIGHT 0 - 2;\nEND", "OUTPUT weight must be positive, got -2", 23, 29, 3),
    ("sense_target_not_a_variable", "ASSAY t START\nfluid A;\nSENSE OPTICAL A INTO 5;\nEND", "SENSE target must be a variable", 44, 45, 3),
    ("division_by_zero", "ASSAY t START\nfluid A, B;\nVAR x;\nx = 1 / 0;\nEND", "division by zero", 37, 42, 4),
    ("scalar_overflow", "ASSAY t START\nfluid A, B;\nVAR x;\nx = 9223372036854775807 + 1;\nEND", "scalar arithmetic overflowed", 37, 60, 4),
    ("literal_overflow", "ASSAY t START\nfluid A, B;\nVAR x;\nx = 9223372036854775808;\nEND", "integer literal overflows i64", 37, 56, 4),
    ("absurd_for_trip_count", "ASSAY t START\nfluid A, B;\nVAR x;\nFOR i FROM 1 TO 1000002 START\nx = i;\nENDFOR\nEND", "loop trip count is absurd", 33, 36, 4),
    ("absurd_while_bound", "ASSAY t START\nfluid A, B;\nVAR n;\nn = 0;\nWHILE n < 1 BOUND 1000001 START\nn = n + 1;\nENDWHILE\nEND", "absurd WHILE bound 1000001", 40, 45, 5),
    ("while_bound_violation", "ASSAY t START\nfluid A, B;\nVAR n;\nn = 0;\nWHILE n < 100 BOUND 3 START\nMIX A AND B FOR 5;\nn = n + 1;\nENDWHILE\nEND", "WHILE condition still holds after the declared bound of 3 iterations — the §3.5 hint is wrong", 40, 45, 5),
    ("iteration_budget", "ASSAY t START\nfluid A, B;\nVAR x;\nFOR i FROM 1 TO 1000000 START\nFOR j FROM 0 TO 1000000 START\nx = j;\nENDFOR\nENDFOR\nEND", "assay runs more than 2000000 loop iterations", 63, 66, 5),
    ("first_error_wins", "ASSAY t START\nfluid D[2], B;\nD[5] = MIX Q AND B FOR 0 - 1;\nEND", "undeclared fluid `Q`", 40, 41, 3),
    ("assignment_indices_before_value", "ASSAY t START\nVAR x[2];\nx[1 / 0] = 9223372036854775807 + 1;\nEND", "division by zero", 26, 31, 3),
    ("error_inside_a_later_iteration", "ASSAY t START\nfluid D[3], A, B;\nFOR i FROM 1 TO 5 START\nD[i] = MIX A AND B FOR 5;\nENDFOR\nEND", "index 4 out of range for `D[3]`", 56, 57, 4),
];

/// `(case, source, rendered FlatAssay)`.
const ACCEPTED: &[(&str, &str, &str)] = &[
    ("undeclared_loop_variable", "ASSAY t START\nfluid A, B;\nFOR i FROM 1 TO 2 START\nMIX A AND B IN RATIOS 1:i FOR 5;\nSENSE OPTICAL it INTO R[i];\nENDFOR\nEND", "0:A* 1:B* 2:mix@0 3:mix@2 | Mix { out: FluidId(2), parts: [(FluidId(0), Ratio(1)), (FluidId(1), Ratio(1))], seconds: 5 }; Sense { input: FluidId(2), mode: Optical, target: \"R[1]\" }; Mix { out: FluidId(3), parts: [(FluidId(0), Ratio(1)), (FluidId(1), Ratio(2))], seconds: 5 }; Sense { input: FluidId(3), mode: Optical, target: \"R[2]\" };"),
    ("var_array_written_outside_its_dims", "ASSAY t START\nfluid A, B;\nVAR R[2];\nR[5] = 3;\nR[1][7] = 4;\nR[0 - 1] = 1;\nMIX A AND B IN RATIOS R[5]:R[1][7] FOR R[0 - 1];\nEND", "0:A* 1:B* 2:mix@0 | Mix { out: FluidId(2), parts: [(FluidId(0), Ratio(3)), (FluidId(1), Ratio(4))], seconds: 1 };"),
    ("two_index_fluid_reference", "ASSAY t START\nfluid X[3], A, B;\nX[1][2] = MIX A AND B FOR 5;\nMIX X[1][2] AND X[2][1] FOR 5;\nSENSE OPTICAL X[1][2] INTO R[1][2];\nEND", "0:A* 1:B* 2:X[1][2] 3:X[2][1]* 4:mix@1 | Mix { out: FluidId(2), parts: [(FluidId(0), Ratio(1)), (FluidId(1), Ratio(1))], seconds: 5 }; Mix { out: FluidId(4), parts: [(FluidId(2), Ratio(1)), (FluidId(3), Ratio(1))], seconds: 5 }; Sense { input: FluidId(2), mode: Optical, target: \"R[1][2]\" };"),
    ("bad_references_in_untaken_branches", "ASSAY t START\nfluid A, B;\nVAR x;\nIF 1 > 2 START\nMIX Q AND Z FOR 0 - 5;\nx = 1 / 0;\nELSE\nMIX A AND B FOR 5;\nENDIF\nFOR i FROM 2 TO 1 START\nMIX Q AND y FOR 5;\nENDFOR\nWHILE 1 < 0 BOUND 3 START\nx = q;\nENDWHILE\nEND", "0:A* 1:B* 2:mix@0 | Mix { out: FluidId(2), parts: [(FluidId(0), Ratio(1)), (FluidId(1), Ratio(1))], seconds: 5 };"),
    ("incubate_rebind", "ASSAY t START\nfluid A, B, x;\nx = MIX A AND B FOR 5;\nINCUBATE x AT 37 FOR 60;\nCONCENTRATE x AT 90 FOR 30;\nSENSE OPTICAL x INTO R;\nINCUBATE it AT 4 FOR 1;\nEND", "0:A* 1:B* 2:x 3:x 4:x 5:incubate@4 | Mix { out: FluidId(2), parts: [(FluidId(0), Ratio(1)), (FluidId(1), Ratio(1))], seconds: 5 }; Incubate { out: FluidId(3), input: FluidId(2), temp_c: 37, seconds: 60 }; Concentrate { out: FluidId(4), input: FluidId(3), temp_c: 90, seconds: 30 }; Sense { input: FluidId(4), mode: Optical, target: \"R\" }; Incubate { out: FluidId(5), input: FluidId(4), temp_c: 4, seconds: 1 };"),
    ("separation_waste", "ASSAY t START\nfluid A, B, s, m, b, e, w[2];\ns = MIX A AND B FOR 5;\nSEPARATE s MATRIX m USING b FOR 30 INTO e AND w[2];\nLCSEPARATE e MATRIX m USING b FOR 10 INTO e AND w[1] YIELD 1/3;\nSENSE FLUORESCENCE e INTO R;\nOUTPUT it;\nEND", "0:A* 1:B* 2:s 3:e 4:w[2] 5:e 6:w[1] | Mix { out: FluidId(2), parts: [(FluidId(0), Ratio(1)), (FluidId(1), Ratio(1))], seconds: 5 }; Separate { out: FluidId(3), waste: FluidId(4), input: FluidId(2), kind: Affinity, matrix: \"m\", using: \"b\", seconds: 30, yield_hint: None }; Separate { out: FluidId(5), waste: FluidId(6), input: FluidId(3), kind: LiquidChromatography, matrix: \"m\", using: \"b\", seconds: 10, yield_hint: Some(Ratio(1/3)) }; Sense { input: FluidId(5), mode: Fluorescence, target: \"R\" }; Output { input: FluidId(5), weight: 1 };"),
    ("huge_declared_length", "ASSAY t START\nfluid X[1000000000000], A, B;\nX[999999999999] = MIX A AND B FOR 5;\nSENSE OPTICAL X[999999999999] INTO R[999999999999];\nEND", "0:A* 1:B* 2:X[999999999999] | Mix { out: FluidId(2), parts: [(FluidId(0), Ratio(1)), (FluidId(1), Ratio(1))], seconds: 5 }; Sense { input: FluidId(2), mode: Optical, target: \"R[999999999999]\" };"),
    ("inputs_named_by_index", "ASSAY t START\nfluid D[3], A;\nMIX D[2] AND A AND D[2] IN RATIOS 1:2:0 FOR 5;\nD[2] = MIX D[3] AND A FOR 5;\nMIX D[2] AND A FOR 5;\nOUTPUT it WEIGHT 3;\nEND", "0:D[2]* 1:A* 2:mix@0 3:D[3]* 4:D[2] 5:mix@2 | Mix { out: FluidId(2), parts: [(FluidId(0), Ratio(1)), (FluidId(1), Ratio(2))], seconds: 5 }; Mix { out: FluidId(4), parts: [(FluidId(3), Ratio(1)), (FluidId(1), Ratio(1))], seconds: 5 }; Mix { out: FluidId(5), parts: [(FluidId(4), Ratio(1)), (FluidId(1), Ratio(1))], seconds: 5 }; Output { input: FluidId(5), weight: 3 };"),
    ("loop_counters_and_scalars", "ASSAY t START\nfluid A, B, T[4];\nVAR n, k[2];\nn = 0;\nWHILE n < 3 BOUND 3 START\nk[n] = n * 2;\nn = n + 1;\nENDWHILE\nFOR i FROM 1 TO 3 START\nT[i] = MIX A AND B IN RATIOS 1:k[i - 1] + 1 FOR i * 10;\nENDFOR\nSENSE OPTICAL T[2] INTO S[k[1]];\nEND", "0:A* 1:B* 2:T[1] 3:T[2] 4:T[3] | Mix { out: FluidId(2), parts: [(FluidId(0), Ratio(1)), (FluidId(1), Ratio(1))], seconds: 10 }; Mix { out: FluidId(3), parts: [(FluidId(0), Ratio(1)), (FluidId(1), Ratio(3))], seconds: 20 }; Mix { out: FluidId(4), parts: [(FluidId(0), Ratio(1)), (FluidId(1), Ratio(5))], seconds: 30 }; Sense { input: FluidId(3), mode: Optical, target: \"S[2]\" };"),
];

fn render(flat: &FlatAssay) -> String {
    let mut out = String::new();
    for (i, f) in flat.fluids.iter().enumerate() {
        let input = if f.is_input { "*" } else { "" };
        let _ = write!(out, "{i}:{}{input} ", f.name);
    }
    out.push('|');
    for op in &flat.ops {
        let _ = write!(out, " {op:?};");
    }
    out
}

fn error_row(case: &str, src: &str, e: &LangError) -> String {
    format!(
        "({case:?}, {src:?}, {:?}, {}, {}, {}),",
        e.message, e.span.start, e.span.end, e.span.line
    )
}

#[test]
fn every_unroll_error_is_pinned() {
    let mut wrong = Vec::new();
    for &(case, src, message, start, end, line) in REJECTED {
        match compile_to_flat(src) {
            Ok(flat) => wrong.push(format!("{case}: accepted as {}", render(&flat))),
            Err(e) => {
                if (e.message.as_str(), e.span.start, e.span.end, e.span.line)
                    != (message, start, end, line)
                {
                    wrong.push(error_row(case, src, &e));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "diagnostics moved:\n{}", wrong.join("\n"));
}

/// The parser only accepts `YIELD p/q` with `0 < q` and `p <= q`, so the
/// unroller's own check is reached through a hand-built AST.
#[test]
fn an_invalid_yield_fraction_is_rejected_at_its_statement() {
    let src = "ASSAY t START\nfluid A, B, s, m, b, e, w;\ns = MIX A AND B FOR 5;\n\
               SEPARATE s MATRIX m USING b FOR 30 INTO e AND w YIELD 1/2;\nEND";
    let mut assay = parse(src).unwrap();
    match &mut assay.body[1] {
        Stmt::Separate { yield_hint, .. } => *yield_hint = Some((1, 0)),
        other => panic!("{other:?}"),
    }
    let e = compile_to_flat_ast(&assay).unwrap_err();
    assert_eq!(
        (e.message.as_str(), e.span.start, e.span.end, e.span.line),
        ("invalid YIELD fraction", 64, 72, 4),
        "{}",
        error_row("invalid_yield", src, &e)
    );
}

#[test]
fn accepted_edge_programs_unroll_as_pinned() {
    let mut wrong = Vec::new();
    for &(case, src, want) in ACCEPTED {
        match compile_to_flat(src) {
            Ok(flat) => {
                let got = render(&flat);
                if got != want {
                    wrong.push(format!("({case:?}, {src:?}, {got:?}),"));
                }
            }
            Err(e) => wrong.push(format!("{case}: rejected: {e}")),
        }
    }
    assert!(wrong.is_empty(), "unrolls moved:\n{}", wrong.join("\n"));
}

/// More than 2,000,000 ops inside the 2,000,000-iteration budget: the
/// statement that finds the op list past the cap is the one reported.
#[test]
fn the_op_budget_error_is_pinned() {
    let src = "ASSAY t START\nfluid A;\nFOR i FROM 1 TO 1000001 START\nOUTPUT A;\nOUTPUT A;\n\
               ENDFOR\nEND";
    let e = compile_to_flat(src).unwrap_err();
    assert_eq!(
        (e.message.as_str(), e.span.start, e.span.end, e.span.line),
        ("assay unrolls to more than 2000000 operations", 63, 69, 5),
        "{}",
        error_row("op_budget", src, &e)
    );
}
