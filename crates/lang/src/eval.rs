//! Constant evaluation and loop unrolling: AST -> [`FlatAssay`].

use std::collections::HashMap;

use aqua_rational::Ratio;

use crate::ast::*;
use crate::diag::{LangError, Span};
use crate::flat::{FlatAssay, FlatFluid, FlatOp, FluidId};

/// Safety valve against accidental unroll explosions: the cap on the
/// fluid ops an assay emits, and on the loop iterations one evaluation
/// runs (an op-free loop nest emits nothing but can still run for days).
const MAX_OPS: usize = 2_000_000;

/// Unrolls and constant-folds a parsed assay.
///
/// # Errors
///
/// Returns [`LangError`] for undeclared fluids/vars, non-constant loop
/// bounds, zero-total mix ratios, out-of-range array indices, or unroll
/// explosions (more than `MAX_OPS` ops or loop iterations).
pub fn compile_to_flat_ast(assay: &Assay) -> Result<FlatAssay, LangError> {
    let mut cx = Cx {
        flat: FlatAssay {
            name: assay.name.clone(),
            fluids: Vec::new(),
            ops: Vec::new(),
        },
        scalars: HashMap::new(),
        fluid_decls: HashMap::new(),
        var_decls: HashMap::new(),
        bindings: HashMap::new(),
        it: None,
        iterations: 0,
    };
    for (name, len) in &assay.fluids {
        cx.fluid_decls.insert(name.clone(), *len);
    }
    for (name, dims) in &assay.vars {
        cx.var_decls.insert(name.clone(), dims.clone());
    }
    cx.run_block(&assay.body)?;
    Ok(cx.flat)
}

struct Cx {
    flat: FlatAssay,
    /// Scalar environment: name + indices -> value.
    scalars: HashMap<(String, Vec<i64>), i64>,
    fluid_decls: HashMap<String, Option<u64>>,
    var_decls: HashMap<String, Vec<u64>>,
    /// Current binding of each concrete fluid name to its instance.
    bindings: HashMap<String, FluidId>,
    /// The previous statement's product.
    it: Option<FluidId>,
    /// Loop iterations charged so far: each `FOR`'s trip count when it
    /// starts, each `WHILE` iteration as it runs.
    iterations: usize,
}

impl Cx {
    fn run_block(&mut self, body: &[Stmt]) -> Result<(), LangError> {
        for stmt in body {
            self.run_stmt(stmt)?;
        }
        Ok(())
    }

    /// Charges `n` loop iterations to the evaluation-wide budget.
    fn charge(&mut self, n: usize, span: Span) -> Result<(), LangError> {
        self.iterations = self.iterations.saturating_add(n);
        if self.iterations > MAX_OPS {
            return Err(LangError::new(
                span,
                format!("assay runs more than {MAX_OPS} loop iterations"),
            ));
        }
        Ok(())
    }

    fn run_stmt(&mut self, stmt: &Stmt) -> Result<(), LangError> {
        if self.flat.ops.len() > MAX_OPS {
            return Err(LangError::new(
                stmt.span(),
                format!("assay unrolls to more than {MAX_OPS} operations"),
            ));
        }
        match stmt {
            Stmt::Assign {
                var,
                indices,
                value,
                span,
            } => {
                if !self.var_decls.contains_key(var) {
                    return Err(LangError::new(*span, format!("undeclared VAR `{var}`")));
                }
                let idx = self.eval_indices(indices)?;
                let v = self.eval(value)?;
                self.scalars.insert((var.clone(), idx), v);
                Ok(())
            }
            Stmt::Mix {
                dst,
                fluids,
                ratios,
                seconds,
                span,
            } => {
                let mut parts = Vec::with_capacity(fluids.len());
                for (i, f) in fluids.iter().enumerate() {
                    let id = self.use_fluid(f)?;
                    let part = if ratios.is_empty() {
                        Ratio::ONE
                    } else {
                        let v = self.eval(&ratios[i])?;
                        if v < 0 {
                            return Err(LangError::new(
                                ratios[i].span(),
                                format!("negative ratio part {v}"),
                            ));
                        }
                        Ratio::from_int(v as i128)
                    };
                    parts.push((id, part));
                }
                if parts.iter().all(|(_, r)| r.is_zero()) {
                    return Err(LangError::new(*span, "mix ratios are all zero"));
                }
                // Drop zero-ratio components entirely (mixing none of a
                // fluid is not a use).
                parts.retain(|(_, r)| r.is_positive());
                let seconds = self.eval_seconds(seconds)?;
                let out = self.produce(dst.as_ref(), "mix", *span)?;
                self.flat.ops.push(FlatOp::Mix {
                    out,
                    parts,
                    seconds,
                });
                Ok(())
            }
            Stmt::Incubate {
                fluid,
                temp,
                seconds,
                span,
            }
            | Stmt::Concentrate {
                fluid,
                temp,
                seconds,
                span,
            } => {
                let input = self.use_fluid(fluid)?;
                let temp_c = self.eval(temp)?;
                let seconds = self.eval_seconds(seconds)?;
                // The product rebinds the source name (incubating `x`
                // yields the new `x`) and becomes `it`.
                let rebind = if fluid.name == "it" {
                    None
                } else {
                    Some(fluid.clone())
                };
                let out = self.produce(rebind.as_ref(), "incubate", *span)?;
                let op = if matches!(stmt, Stmt::Incubate { .. }) {
                    FlatOp::Incubate {
                        out,
                        input,
                        temp_c,
                        seconds,
                    }
                } else {
                    FlatOp::Concentrate {
                        out,
                        input,
                        temp_c,
                        seconds,
                    }
                };
                self.flat.ops.push(op);
                Ok(())
            }
            Stmt::Separate {
                kind,
                src,
                matrix,
                using,
                seconds,
                effluent,
                waste,
                yield_hint,
                span,
            } => {
                let input = self.use_fluid(src)?;
                let seconds = self.eval_seconds(seconds)?;
                let out = self.produce(Some(effluent), "separate", *span)?;
                let waste_id = self.fresh_fluid(&self.resolve_name(waste)?, false);
                self.bindings.insert(self.resolve_name(waste)?, waste_id);
                let yield_hint = match yield_hint {
                    Some((p, q)) => Some(
                        Ratio::new(*p as i128, *q as i128)
                            .map_err(|_| LangError::new(*span, "invalid YIELD fraction"))?,
                    ),
                    None => None,
                };
                self.flat.ops.push(FlatOp::Separate {
                    out,
                    waste: waste_id,
                    input,
                    kind: *kind,
                    matrix: matrix.clone(),
                    using: using.clone(),
                    seconds,
                    yield_hint,
                });
                Ok(())
            }
            Stmt::Sense {
                mode,
                fluid,
                target,
                span: _,
            } => {
                let input = self.use_fluid(fluid)?;
                let target = self.render_target(target)?;
                self.flat.ops.push(FlatOp::Sense {
                    input,
                    mode: *mode,
                    target,
                });
                Ok(())
            }
            Stmt::Output {
                fluid,
                weight,
                span,
            } => {
                let input = self.use_fluid(fluid)?;
                let weight = match weight {
                    Some(w) => {
                        let v = self.eval(w)?;
                        u64::try_from(v).ok().filter(|&v| v > 0).ok_or_else(|| {
                            LangError::new(
                                *span,
                                format!("OUTPUT weight must be positive, got {v}"),
                            )
                        })?
                    }
                    None => 1,
                };
                self.flat.ops.push(FlatOp::Output { input, weight });
                Ok(())
            }
            Stmt::For {
                var,
                from,
                to,
                body,
                span,
            } => {
                let lo = self.eval(from)?;
                let hi = self.eval(to)?;
                // `checked_sub`: bounds near `i64::MIN`/`MAX` would
                // otherwise wrap negative, pass the cap, and start a
                // loop of ~2^63 iterations.
                let trips = match hi.checked_sub(lo) {
                    Some(d) if d <= 1_000_000 => usize::try_from(d + 1).unwrap_or(0),
                    _ => return Err(LangError::new(*span, "loop trip count is absurd")),
                };
                self.charge(trips, *span)?;
                for i in lo..=hi {
                    self.scalars.insert((var.clone(), Vec::new()), i);
                    self.run_block(body)?;
                }
                Ok(())
            }
            Stmt::While {
                lhs,
                op,
                rhs,
                bound,
                body,
                span,
            } => {
                let bound = self.eval(bound)?;
                if !(0..=1_000_000).contains(&bound) {
                    return Err(LangError::new(*span, format!("absurd WHILE bound {bound}")));
                }
                let mut iterations = 0;
                while self.eval_cond(lhs, *op, rhs)? {
                    if iterations >= bound {
                        return Err(LangError::new(
                            *span,
                            format!(
                                "WHILE condition still holds after the declared bound of \
                                 {bound} iterations — the §3.5 hint is wrong"
                            ),
                        ));
                    }
                    self.charge(1, *span)?;
                    self.run_block(body)?;
                    iterations += 1;
                }
                Ok(())
            }
            Stmt::If {
                lhs,
                op,
                rhs,
                then_body,
                else_body,
                span: _,
            } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                if self.eval_cond2(l, *op, r) {
                    self.run_block(then_body)
                } else {
                    self.run_block(else_body)
                }
            }
        }
    }

    fn eval_cond(&self, lhs: &Expr, op: CmpOp, rhs: &Expr) -> Result<bool, LangError> {
        let l = self.eval(lhs)?;
        let r = self.eval(rhs)?;
        Ok(self.eval_cond2(l, op, r))
    }

    fn eval_cond2(&self, l: i64, op: CmpOp, r: i64) -> bool {
        match op {
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
        }
    }

    /// Resolves a fluid expression to the concrete instance consumed.
    fn use_fluid(&mut self, f: &FluidExpr) -> Result<FluidId, LangError> {
        if f.name == "it" {
            return self
                .it
                .ok_or_else(|| LangError::new(f.span, "`it` used before any product exists"));
        }
        let key = self.resolve_name(f)?;
        if let Some(&id) = self.bindings.get(&key) {
            return Ok(id);
        }
        // First use of a declared, never-produced fluid: an external
        // input.
        let base_declared = self.fluid_decls.contains_key(&f.name);
        if !base_declared {
            return Err(LangError::new(
                f.span,
                format!("undeclared fluid `{}`", f.name),
            ));
        }
        let id = self.fresh_fluid(&key, true);
        self.bindings.insert(key, id);
        Ok(id)
    }

    /// Creates the product instance of an operation and updates `it` /
    /// the destination binding.
    fn produce(
        &mut self,
        dst: Option<&FluidExpr>,
        what: &str,
        span: Span,
    ) -> Result<FluidId, LangError> {
        let id = match dst {
            Some(d) => {
                let key = self.resolve_name(d)?;
                if !self.fluid_decls.contains_key(&d.name) {
                    return Err(LangError::new(
                        span,
                        format!("undeclared fluid `{}`", d.name),
                    ));
                }
                let id = self.fresh_fluid(&key, false);
                self.bindings.insert(key, id);
                id
            }
            None => self.fresh_fluid(&format!("{}@{}", what, self.flat.ops.len()), false),
        };
        self.it = Some(id);
        Ok(id)
    }

    fn fresh_fluid(&mut self, name: &str, is_input: bool) -> FluidId {
        self.flat.fluids.push(FlatFluid {
            name: name.to_owned(),
            is_input,
        });
        FluidId(self.flat.fluids.len() - 1)
    }

    /// Renders `name[indices]` with indices evaluated.
    fn resolve_name(&self, f: &FluidExpr) -> Result<String, LangError> {
        if f.indices.is_empty() {
            return Ok(f.name.clone());
        }
        let mut out = f.name.clone();
        for idx in &f.indices {
            let v = self.eval(idx)?;
            if let Some(Some(len)) = self.fluid_decls.get(&f.name) {
                if v < 1 || v as u64 > *len {
                    return Err(LangError::new(
                        f.span,
                        format!("index {v} out of range for `{}[{len}]`", f.name),
                    ));
                }
            }
            out.push_str(&format!("[{v}]"));
        }
        Ok(out)
    }

    fn render_target(&self, e: &Expr) -> Result<String, LangError> {
        match e {
            Expr::Var(name, indices, _) => {
                let mut out = name.clone();
                for idx in indices {
                    out.push_str(&format!("[{}]", self.eval(idx)?));
                }
                Ok(out)
            }
            other => Err(LangError::new(
                other.span(),
                "SENSE target must be a variable",
            )),
        }
    }

    fn eval_indices(&self, indices: &[Expr]) -> Result<Vec<i64>, LangError> {
        indices.iter().map(|e| self.eval(e)).collect()
    }

    fn eval_seconds(&self, e: &Expr) -> Result<u64, LangError> {
        let v = self.eval(e)?;
        u64::try_from(v).map_err(|_| LangError::new(e.span(), format!("negative duration {v}")))
    }

    fn eval(&self, e: &Expr) -> Result<i64, LangError> {
        match e {
            Expr::Int(v, span) => i64::try_from(*v)
                .map_err(|_| LangError::new(*span, "integer literal overflows i64")),
            Expr::Var(name, indices, span) => {
                let idx = self.eval_indices(indices)?;
                self.scalars
                    .get(&(name.clone(), idx))
                    .copied()
                    .ok_or_else(|| {
                        LangError::new(*span, format!("variable `{name}` read before assignment"))
                    })
            }
            Expr::Binary { op, lhs, rhs, span } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                let out = match op {
                    BinOp::Add => l.checked_add(r),
                    BinOp::Sub => l.checked_sub(r),
                    BinOp::Mul => l.checked_mul(r),
                    BinOp::Div => {
                        if r == 0 {
                            return Err(LangError::new(*span, "division by zero"));
                        }
                        l.checked_div(r)
                    }
                };
                out.ok_or_else(|| LangError::new(*span, "scalar arithmetic overflowed"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn flat(src: &str) -> FlatAssay {
        compile_to_flat_ast(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn glucose_flattens_to_ten_ops() {
        let f = flat(
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
        assert_eq!(f.ops.len(), 10);
        // Inputs: Glucose, Reagent, Sample.
        assert_eq!(f.inputs().len(), 3);
        // Reagent is used 5 times, Glucose 4, Sample 1.
        let reagent = f
            .inputs()
            .into_iter()
            .find(|&i| f.fluid(i).name == "Reagent")
            .unwrap();
        assert_eq!(f.use_counts()[reagent.index()], 5);
    }

    #[test]
    fn for_loop_unrolls_with_arithmetic() {
        let f = flat(
            "ASSAY e START
             fluid inhibitor, diluent, Diluted_Inhibitor[4];
             VAR i, temp, dil;
             dil = 1;
             temp = 1;
             FOR i FROM 1 TO 4 START
               Diluted_Inhibitor[i] = MIX inhibitor AND diluent IN RATIOS 1:dil FOR 30;
               temp = temp * 10;
               dil = temp - 1;
             ENDFOR
             END",
        );
        assert_eq!(f.ops.len(), 4);
        // Dilution ratios: 1:1, 1:9, 1:99, 1:999.
        let expected = [1i128, 9, 99, 999];
        for (op, want) in f.ops.iter().zip(expected) {
            match op {
                FlatOp::Mix { parts, .. } => {
                    assert_eq!(parts[1].1, Ratio::from_int(want));
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn it_threads_through_statements() {
        let f = flat(
            "ASSAY g START
             fluid A, B;
             MIX A AND B FOR 30;
             INCUBATE it AT 37 FOR 30;
             SENSE OPTICAL it INTO R;
             END",
        );
        match (&f.ops[0], &f.ops[1], &f.ops[2]) {
            (
                FlatOp::Mix { out: mix_out, .. },
                FlatOp::Incubate {
                    out: inc_out,
                    input: inc_in,
                    ..
                },
                FlatOp::Sense {
                    input: sense_in, ..
                },
            ) => {
                assert_eq!(mix_out, inc_in);
                assert_eq!(inc_out, sense_in);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn incubate_rebinds_named_fluid() {
        let f = flat(
            "ASSAY g START
             fluid A, B, x;
             x = MIX A AND B FOR 5;
             INCUBATE x AT 37 FOR 60;
             SENSE OPTICAL x INTO R;
             END",
        );
        // The sense consumes the *incubated* x, not the raw mix.
        match (&f.ops[1], &f.ops[2]) {
            (FlatOp::Incubate { out, .. }, FlatOp::Sense { input, .. }) => {
                assert_eq!(out, input)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn separate_without_hint_is_unknown_volume() {
        let f = flat(
            "ASSAY g START
             fluid s, m, b, e, w, out;
             fluid A, B;
             s = MIX A AND B FOR 5;
             SEPARATE s MATRIX m USING b FOR 30 INTO e AND w;
             MIX e AND A FOR 5;
             END",
        );
        match &f.ops[1] {
            FlatOp::Separate {
                yield_hint: None,
                matrix,
                ..
            } => assert_eq!(matrix, "m"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn yield_hint_becomes_fraction() {
        let f = flat(
            "ASSAY g START
             fluid s, m, b, e, w;
             fluid A, B;
             s = MIX A AND B FOR 5;
             LCSEPARATE s MATRIX m USING b FOR 30 INTO e AND w YIELD 1/2;
             SENSE OPTICAL e INTO R;
             END",
        );
        match &f.ops[1] {
            FlatOp::Separate { yield_hint, .. } => {
                assert_eq!(*yield_hint, Some(Ratio::new(1, 2).unwrap()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_folds_at_compile_time() {
        let f = flat(
            "ASSAY g START
             fluid A, B;
             VAR x;
             x = 5;
             IF x > 3 START
               MIX A AND B IN RATIOS 2:1 FOR 5;
             ELSE
               MIX A AND B IN RATIOS 1:2 FOR 5;
             ENDIF
             END",
        );
        assert_eq!(f.ops.len(), 1);
        match &f.ops[0] {
            FlatOp::Mix { parts, .. } => assert_eq!(parts[0].1, Ratio::from_int(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_for_undeclared_and_uninitialized() {
        let parse_flat = |src: &str| compile_to_flat_ast(&parse(src).unwrap());
        assert!(parse_flat(
            "ASSAY g START
             MIX A AND B FOR 5;
             END"
        )
        .is_err());
        assert!(parse_flat(
            "ASSAY g START
             fluid A, B;
             VAR t;
             MIX A AND B IN RATIOS 1:t FOR 5;
             END"
        )
        .is_err());
        assert!(parse_flat(
            "ASSAY g START
             fluid A;
             SENSE OPTICAL it INTO R;
             END"
        )
        .is_err());
    }

    #[test]
    fn zero_ratio_component_is_dropped() {
        let f = flat(
            "ASSAY g START
             fluid A, B, C;
             MIX A AND B AND C IN RATIOS 1:0:1 FOR 5;
             SENSE OPTICAL it INTO R;
             END",
        );
        match &f.ops[0] {
            FlatOp::Mix { parts, .. } => assert_eq!(parts.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn array_index_out_of_range_is_rejected() {
        let r = compile_to_flat_ast(
            &parse(
                "ASSAY g START
                 fluid D[2];
                 fluid A, B;
                 D[3] = MIX A AND B FOR 5;
                 END",
            )
            .unwrap(),
        );
        assert!(r.is_err());
    }
}

#[cfg(test)]
mod while_tests {
    use super::*;
    use crate::parse;

    #[test]
    fn while_unrolls_until_condition_fails() {
        let f = compile_to_flat_ast(
            &parse(
                "ASSAY w START
                 fluid A, B;
                 VAR n;
                 n = 0;
                 WHILE n < 3 BOUND 10 START
                   MIX A AND B FOR 5;
                   SENSE OPTICAL it INTO R[n];
                   n = n + 1;
                 ENDWHILE
                 END",
            )
            .unwrap(),
        )
        .unwrap();
        // 3 iterations x 2 fluid ops.
        assert_eq!(f.ops.len(), 6);
    }

    #[test]
    fn while_bound_violation_is_a_compile_error() {
        let err = compile_to_flat_ast(
            &parse(
                "ASSAY w START
                 fluid A, B;
                 VAR n;
                 n = 0;
                 WHILE n < 100 BOUND 3 START
                   MIX A AND B FOR 5;
                   n = n + 1;
                 ENDWHILE
                 END",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert_eq!(
            err.message,
            "WHILE condition still holds after the declared bound of 3 iterations \
             — the §3.5 hint is wrong"
        );
    }

    #[test]
    fn while_with_false_condition_runs_zero_times() {
        let f = compile_to_flat_ast(
            &parse(
                "ASSAY w START
                 fluid A, B;
                 VAR n;
                 n = 5;
                 WHILE n < 3 BOUND 10 START
                   MIX A AND B FOR 5;
                 ENDWHILE
                 MIX A AND B FOR 1;
                 END",
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(f.ops.len(), 1);
    }

    /// `hi - lo` overflows `i64` here; the loop must be rejected at
    /// once, not wrap around into ~2^63 iterations (or panic in debug).
    #[test]
    fn overflowing_for_trip_count_is_rejected() {
        for (from, to) in [
            ("0 - 9223372036854775807 - 1", "1"),
            ("9223372036854775807", "0 - 2"),
            ("0 - 9223372036854775807", "9223372036854775807"),
        ] {
            let src = format!(
                "ASSAY f START
                 fluid A, B;
                 VAR temp;
                 FOR i FROM {from} TO {to} START
                   temp = 1;
                 ENDFOR
                 MIX A AND B FOR 5;
                 END"
            );
            let started = std::time::Instant::now();
            let err = compile_to_flat_ast(&parse(&src).unwrap()).unwrap_err();
            assert!(err.message.contains("absurd"), "{from}..{to}: {err}");
            assert!(started.elapsed() < std::time::Duration::from_secs(5));
        }
    }

    /// One evaluation runs at most `MAX_OPS` loop iterations, whether
    /// or not they emit ops: the inner loop's first start takes the
    /// nest past the budget, so it is rejected before that loop runs.
    #[test]
    fn a_nest_over_the_iteration_budget_is_rejected_at_once() {
        let src = "ASSAY nest START
                   fluid A, B;
                   VAR x;
                   FOR i FROM 1 TO 1000000 START
                     FOR j FROM 0 TO 1000000 START
                       x = j;
                     ENDFOR
                   ENDFOR
                   MIX A AND B FOR 5;
                   END";
        let started = std::time::Instant::now();
        let err = compile_to_flat_ast(&parse(src).unwrap()).unwrap_err();
        assert_eq!(err.message, "assay runs more than 2000000 loop iterations");
        assert_eq!(err.span.line, 5, "charged where the inner loop starts");
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn a_nest_under_the_iteration_budget_still_evaluates() {
        let src = "ASSAY nest START
             fluid A, B;
             VAR n;
             n = 0;
             FOR i FROM 1 TO 100 START
               FOR j FROM 1 TO 100 START
                 MIX A AND B FOR 5;
               ENDFOR
             ENDFOR
             WHILE n < 1000 BOUND 1000 START
               n = n + 1;
             ENDWHILE
             END";
        let f = compile_to_flat_ast(&parse(src).unwrap()).unwrap();
        assert_eq!(f.ops.len(), 100 * 100);
    }

    /// The two `FOR` starts charge exactly the budget; the first
    /// `WHILE` iteration, charged as it runs, goes past it.
    #[test]
    fn while_iterations_are_charged_as_they_run() {
        let err = compile_to_flat_ast(
            &parse(
                "ASSAY w START
                 fluid A, B;
                 VAR n;
                 FOR i FROM 1 TO 1000000 START
                   FOR j FROM 1 TO 1000000 START
                     n = 0;
                     WHILE n < 1 BOUND 5 START
                       n = n + 1;
                     ENDWHILE
                   ENDFOR
                 ENDFOR
                 MIX A AND B FOR 5;
                 END",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert_eq!(err.message, "assay runs more than 2000000 loop iterations");
        assert_eq!(err.span.line, 7);
    }

    #[test]
    fn absurd_while_bound_is_rejected() {
        let err = compile_to_flat_ast(
            &parse(
                "ASSAY w START
                 fluid A, B;
                 VAR n;
                 n = 0;
                 WHILE n < 1 BOUND 99999999 START
                   MIX A AND B FOR 5;
                 ENDWHILE
                 END",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.message.contains("absurd"), "{err}");
    }
}
