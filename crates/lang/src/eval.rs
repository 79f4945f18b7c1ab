//! Constant evaluation and loop unrolling: AST -> [`FlatAssay`].
//!
//! Evaluation runs in two passes. [`Resolver`] walks the AST once and
//! gives every name a dense slot: one per scalar name (`VAR`s, loop
//! variables, any other name an expression reads or assigns) and one
//! per fluid name, declared or not. The unroller then runs the resolved
//! program: a loop iteration reads and writes scalars by slot and finds
//! fluid instances in per-slot tables keyed by the evaluated indices, so
//! it clones and hashes no name. An instance's name is rendered once,
//! when the instance is created.
//!
//! Resolving never fails: a name that is an error to use (an undeclared
//! fluid, an unassigned variable) gets a slot like any other, and the
//! error is raised only if evaluation reaches it. So a bad reference in
//! an untaken branch or a zero-trip loop still compiles, and every
//! error keeps its message, span and order.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::ops::Deref;

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
    let mut names = Resolver::default();
    for (name, len) in &assay.fluids {
        // A later declaration of the same name wins.
        let slot = names.fluid(name);
        names.fluids[slot].decl = Some(*len);
    }
    for (name, _) in &assay.vars {
        let slot = names.scalar(name);
        names.var_declared[slot] = true;
    }
    let body = names.block(&assay.body);
    let mut cx = Cx {
        fluids: &names.fluids,
        flat: FlatAssay {
            name: assay.name.clone(),
            fluids: Vec::new(),
            ops: Vec::new(),
        },
        scalars: vec![None; names.var_declared.len()],
        indexed_scalars: vec![BTreeMap::new(); names.var_declared.len()],
        bound: vec![None; names.fluids.len()],
        indexed_bound: vec![BTreeMap::new(); names.fluids.len()],
        it: None,
        iterations: 0,
    };
    cx.run_block(&body)?;
    Ok(cx.flat)
}

/// One fluid name of the assay.
struct FluidName<'a> {
    name: &'a str,
    /// The name's `fluid` declaration: `Some(len)` with its array length
    /// if any, `None` for a name no declaration mentions.
    decl: Option<Option<u64>>,
}

/// A scalar expression with its names resolved to slots.
enum RExpr<'a> {
    Int(u64, Span),
    Var {
        slot: usize,
        name: &'a str,
        indices: Vec<RExpr<'a>>,
        span: Span,
    },
    Binary {
        op: BinOp,
        lhs: Box<RExpr<'a>>,
        rhs: Box<RExpr<'a>>,
        span: Span,
    },
}

impl RExpr<'_> {
    fn span(&self) -> Span {
        match self {
            RExpr::Int(_, span) | RExpr::Var { span, .. } | RExpr::Binary { span, .. } => *span,
        }
    }
}

/// A reference to a named fluid (`name[i]...`).
struct RFluid<'a> {
    slot: usize,
    indices: Vec<RExpr<'a>>,
    span: Span,
}

/// A fluid a statement consumes: the previous product (`it`, whose
/// indices, if any, are never evaluated) or a named fluid.
enum Use<'a> {
    It(Span),
    Named(RFluid<'a>),
}

/// A `SENSE` target: rendered as text, never read.
enum Target<'a> {
    Var {
        name: &'a str,
        indices: Vec<RExpr<'a>>,
    },
    NotAVar(Span),
}

/// A statement with its names resolved; mirrors [`Stmt`].
enum RStmt<'a> {
    Assign {
        slot: usize,
        name: &'a str,
        declared: bool,
        indices: Vec<RExpr<'a>>,
        value: RExpr<'a>,
        span: Span,
    },
    Mix {
        dst: Option<RFluid<'a>>,
        fluids: Vec<Use<'a>>,
        ratios: Vec<RExpr<'a>>,
        seconds: RExpr<'a>,
        span: Span,
    },
    /// `INCUBATE` or `CONCENTRATE`.
    Heat {
        concentrate: bool,
        fluid: Use<'a>,
        temp: RExpr<'a>,
        seconds: RExpr<'a>,
        span: Span,
    },
    Separate {
        kind: SepKind,
        src: Use<'a>,
        matrix: &'a str,
        using: &'a str,
        seconds: RExpr<'a>,
        effluent: RFluid<'a>,
        waste: RFluid<'a>,
        yield_hint: Option<(u64, u64)>,
        span: Span,
    },
    Sense {
        mode: SenseMode,
        fluid: Use<'a>,
        target: Target<'a>,
        span: Span,
    },
    Output {
        fluid: Use<'a>,
        weight: Option<RExpr<'a>>,
        span: Span,
    },
    For {
        slot: usize,
        from: RExpr<'a>,
        to: RExpr<'a>,
        body: Vec<RStmt<'a>>,
        span: Span,
    },
    While {
        lhs: RExpr<'a>,
        op: CmpOp,
        rhs: RExpr<'a>,
        bound: RExpr<'a>,
        body: Vec<RStmt<'a>>,
        span: Span,
    },
    If {
        lhs: RExpr<'a>,
        op: CmpOp,
        rhs: RExpr<'a>,
        then_body: Vec<RStmt<'a>>,
        else_body: Vec<RStmt<'a>>,
        span: Span,
    },
}

impl RStmt<'_> {
    fn span(&self) -> Span {
        match self {
            RStmt::Assign { span, .. }
            | RStmt::Mix { span, .. }
            | RStmt::Heat { span, .. }
            | RStmt::Separate { span, .. }
            | RStmt::Sense { span, .. }
            | RStmt::Output { span, .. }
            | RStmt::For { span, .. }
            | RStmt::While { span, .. }
            | RStmt::If { span, .. } => *span,
        }
    }
}

/// The once-per-evaluation pass that maps names to slots.
#[derive(Default)]
struct Resolver<'a> {
    scalar_slots: HashMap<&'a str, usize>,
    /// Per scalar slot: whether a `VAR` declaration names it.
    var_declared: Vec<bool>,
    fluid_slots: HashMap<&'a str, usize>,
    fluids: Vec<FluidName<'a>>,
}

impl<'a> Resolver<'a> {
    fn scalar(&mut self, name: &'a str) -> usize {
        let next = self.var_declared.len();
        let slot = *self.scalar_slots.entry(name).or_insert(next);
        if slot == next {
            self.var_declared.push(false);
        }
        slot
    }

    fn fluid(&mut self, name: &'a str) -> usize {
        let next = self.fluids.len();
        let slot = *self.fluid_slots.entry(name).or_insert(next);
        if slot == next {
            self.fluids.push(FluidName { name, decl: None });
        }
        slot
    }

    fn exprs(&mut self, es: &'a [Expr]) -> Vec<RExpr<'a>> {
        es.iter().map(|e| self.expr(e)).collect()
    }

    fn expr(&mut self, e: &'a Expr) -> RExpr<'a> {
        match e {
            Expr::Int(v, span) => RExpr::Int(*v, *span),
            Expr::Var(name, indices, span) => RExpr::Var {
                slot: self.scalar(name),
                name,
                indices: self.exprs(indices),
                span: *span,
            },
            Expr::Binary { op, lhs, rhs, span } => RExpr::Binary {
                op: *op,
                lhs: Box::new(self.expr(lhs)),
                rhs: Box::new(self.expr(rhs)),
                span: *span,
            },
        }
    }

    fn named(&mut self, f: &'a FluidExpr) -> RFluid<'a> {
        RFluid {
            slot: self.fluid(&f.name),
            indices: self.exprs(&f.indices),
            span: f.span,
        }
    }

    fn fluid_use(&mut self, f: &'a FluidExpr) -> Use<'a> {
        if f.name == "it" {
            Use::It(f.span)
        } else {
            Use::Named(self.named(f))
        }
    }

    fn block(&mut self, body: &'a [Stmt]) -> Vec<RStmt<'a>> {
        body.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, stmt: &'a Stmt) -> RStmt<'a> {
        match stmt {
            Stmt::Assign {
                var,
                indices,
                value,
                span,
            } => {
                let slot = self.scalar(var);
                RStmt::Assign {
                    slot,
                    name: var,
                    declared: self.var_declared[slot],
                    indices: self.exprs(indices),
                    value: self.expr(value),
                    span: *span,
                }
            }
            Stmt::Mix {
                dst,
                fluids,
                ratios,
                seconds,
                span,
            } => RStmt::Mix {
                dst: dst.as_ref().map(|d| self.named(d)),
                fluids: fluids.iter().map(|f| self.fluid_use(f)).collect(),
                ratios: self.exprs(ratios),
                seconds: self.expr(seconds),
                span: *span,
            },
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
            } => RStmt::Heat {
                concentrate: matches!(stmt, Stmt::Concentrate { .. }),
                fluid: self.fluid_use(fluid),
                temp: self.expr(temp),
                seconds: self.expr(seconds),
                span: *span,
            },
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
            } => RStmt::Separate {
                kind: *kind,
                src: self.fluid_use(src),
                matrix,
                using,
                seconds: self.expr(seconds),
                effluent: self.named(effluent),
                waste: self.named(waste),
                yield_hint: *yield_hint,
                span: *span,
            },
            Stmt::Sense {
                mode,
                fluid,
                target,
                span,
            } => RStmt::Sense {
                mode: *mode,
                fluid: self.fluid_use(fluid),
                target: match target {
                    Expr::Var(name, indices, _) => Target::Var {
                        name,
                        indices: self.exprs(indices),
                    },
                    other => Target::NotAVar(other.span()),
                },
                span: *span,
            },
            Stmt::Output {
                fluid,
                weight,
                span,
            } => RStmt::Output {
                fluid: self.fluid_use(fluid),
                weight: weight.as_ref().map(|w| self.expr(w)),
                span: *span,
            },
            Stmt::For {
                var,
                from,
                to,
                body,
                span,
            } => RStmt::For {
                slot: self.scalar(var),
                from: self.expr(from),
                to: self.expr(to),
                body: self.block(body),
                span: *span,
            },
            Stmt::While {
                lhs,
                op,
                rhs,
                bound,
                body,
                span,
            } => RStmt::While {
                lhs: self.expr(lhs),
                op: *op,
                rhs: self.expr(rhs),
                bound: self.expr(bound),
                body: self.block(body),
                span: *span,
            },
            Stmt::If {
                lhs,
                op,
                rhs,
                then_body,
                else_body,
                span,
            } => RStmt::If {
                lhs: self.expr(lhs),
                op: *op,
                rhs: self.expr(rhs),
                then_body: self.block(then_body),
                else_body: self.block(else_body),
                span: *span,
            },
        }
    }
}

/// Evaluated array indices: up to four inline, more on the heap.
enum Indices {
    Inline([i64; 4], usize),
    Heap(Vec<i64>),
}

impl Deref for Indices {
    type Target = [i64];

    fn deref(&self) -> &[i64] {
        match self {
            Indices::Inline(values, len) => &values[..*len],
            Indices::Heap(values) => values,
        }
    }
}

/// Renders `name[i][j]...`, the name of one array element.
fn element_name(name: &str, idx: &[i64]) -> String {
    let mut out = String::with_capacity(name.len() + 6 * idx.len());
    out.push_str(name);
    for &v in idx {
        let _ = write!(out, "[{v}]");
    }
    out
}

/// Sets `map[idx] = value`, allocating a key only for a new entry.
fn set_indexed<V>(map: &mut BTreeMap<Box<[i64]>, V>, idx: &[i64], value: V) {
    match map.get_mut(idx) {
        Some(slot) => *slot = value,
        None => {
            map.insert(idx.into(), value);
        }
    }
}

struct Cx<'p, 'a> {
    fluids: &'p [FluidName<'a>],
    flat: FlatAssay,
    /// Each scalar slot's unindexed value.
    scalars: Vec<Option<i64>>,
    /// Each scalar slot's indexed values, by evaluated indices.
    indexed_scalars: Vec<BTreeMap<Box<[i64]>, i64>>,
    /// The instance each fluid slot's unindexed name is bound to.
    bound: Vec<Option<FluidId>>,
    /// The instances each fluid slot's indexed names are bound to.
    indexed_bound: Vec<BTreeMap<Box<[i64]>, FluidId>>,
    /// The previous statement's product.
    it: Option<FluidId>,
    /// Loop iterations charged so far: each `FOR`'s trip count when it
    /// starts, each `WHILE` iteration as it runs.
    iterations: usize,
}

impl Cx<'_, '_> {
    fn run_block(&mut self, body: &[RStmt]) -> Result<(), LangError> {
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

    fn run_stmt(&mut self, stmt: &RStmt) -> Result<(), LangError> {
        if self.flat.ops.len() > MAX_OPS {
            return Err(LangError::new(
                stmt.span(),
                format!("assay unrolls to more than {MAX_OPS} operations"),
            ));
        }
        match stmt {
            RStmt::Assign {
                slot,
                name,
                declared,
                indices,
                value,
                span,
            } => {
                if !declared {
                    return Err(LangError::new(*span, format!("undeclared VAR `{name}`")));
                }
                let idx = self.eval_indices(indices, |_| Ok(()))?;
                let v = self.eval(value)?;
                if idx.is_empty() {
                    self.scalars[*slot] = Some(v);
                } else {
                    set_indexed(&mut self.indexed_scalars[*slot], &idx, v);
                }
                Ok(())
            }
            RStmt::Mix {
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
                let out = self.produce(dst.as_ref(), "mix@", *span)?;
                self.flat.ops.push(FlatOp::Mix {
                    out,
                    parts,
                    seconds,
                });
                Ok(())
            }
            RStmt::Heat {
                concentrate,
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
                let rebind = match fluid {
                    Use::It(_) => None,
                    Use::Named(f) => Some(f),
                };
                let out = self.produce(rebind, "incubate@", *span)?;
                self.flat.ops.push(if *concentrate {
                    FlatOp::Concentrate {
                        out,
                        input,
                        temp_c,
                        seconds,
                    }
                } else {
                    FlatOp::Incubate {
                        out,
                        input,
                        temp_c,
                        seconds,
                    }
                });
                Ok(())
            }
            RStmt::Separate {
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
                let out = self.produce(Some(effluent), "separate@", *span)?;
                let idx = self.fluid_indices(waste)?;
                let name = element_name(self.fluids[waste.slot].name, &idx);
                let waste_id = self.fresh_fluid(name, false);
                self.bind(waste.slot, &idx, waste_id);
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
                    matrix: (*matrix).to_owned(),
                    using: (*using).to_owned(),
                    seconds,
                    yield_hint,
                });
                Ok(())
            }
            RStmt::Sense {
                mode,
                fluid,
                target,
                span: _,
            } => {
                let input = self.use_fluid(fluid)?;
                let target = match target {
                    Target::Var { name, indices } => {
                        element_name(name, &self.eval_indices(indices, |_| Ok(()))?)
                    }
                    Target::NotAVar(span) => {
                        return Err(LangError::new(*span, "SENSE target must be a variable"))
                    }
                };
                self.flat.ops.push(FlatOp::Sense {
                    input,
                    mode: *mode,
                    target,
                });
                Ok(())
            }
            RStmt::Output {
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
            RStmt::For {
                slot,
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
                    self.scalars[*slot] = Some(i);
                    self.run_block(body)?;
                }
                Ok(())
            }
            RStmt::While {
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
            RStmt::If {
                lhs,
                op,
                rhs,
                then_body,
                else_body,
                span: _,
            } => {
                if self.eval_cond(lhs, *op, rhs)? {
                    self.run_block(then_body)
                } else {
                    self.run_block(else_body)
                }
            }
        }
    }

    fn eval_cond(&self, lhs: &RExpr, op: CmpOp, rhs: &RExpr) -> Result<bool, LangError> {
        let l = self.eval(lhs)?;
        let r = self.eval(rhs)?;
        Ok(match op {
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
        })
    }

    /// Resolves a fluid use to the concrete instance consumed.
    fn use_fluid(&mut self, f: &Use) -> Result<FluidId, LangError> {
        let f = match f {
            Use::It(span) => {
                return self
                    .it
                    .ok_or_else(|| LangError::new(*span, "`it` used before any product exists"))
            }
            Use::Named(f) => f,
        };
        let idx = self.fluid_indices(f)?;
        let bound = if idx.is_empty() {
            self.bound[f.slot]
        } else {
            self.indexed_bound[f.slot].get(&*idx).copied()
        };
        if let Some(id) = bound {
            return Ok(id);
        }
        // First use of a declared, never-produced fluid: an external
        // input.
        let fluids = self.fluids;
        let decl = &fluids[f.slot];
        if decl.decl.is_none() {
            return Err(LangError::new(
                f.span,
                format!("undeclared fluid `{}`", decl.name),
            ));
        }
        let id = self.fresh_fluid(element_name(decl.name, &idx), true);
        self.bind(f.slot, &idx, id);
        Ok(id)
    }

    /// Creates the product instance of an operation and updates `it` /
    /// the destination binding. An unnamed product is called
    /// `{label}{op index}`, e.g. `mix@14`.
    fn produce(
        &mut self,
        dst: Option<&RFluid>,
        label: &str,
        span: Span,
    ) -> Result<FluidId, LangError> {
        let id = match dst {
            Some(d) => {
                let idx = self.fluid_indices(d)?;
                let fluids = self.fluids;
                let decl = &fluids[d.slot];
                if decl.decl.is_none() {
                    return Err(LangError::new(
                        span,
                        format!("undeclared fluid `{}`", decl.name),
                    ));
                }
                let id = self.fresh_fluid(element_name(decl.name, &idx), false);
                self.bind(d.slot, &idx, id);
                id
            }
            None => {
                let mut name = String::with_capacity(label.len() + 7);
                let _ = write!(name, "{label}{}", self.flat.ops.len());
                self.fresh_fluid(name, false)
            }
        };
        self.it = Some(id);
        Ok(id)
    }

    fn fresh_fluid(&mut self, name: String, is_input: bool) -> FluidId {
        self.flat.fluids.push(FlatFluid { name, is_input });
        FluidId(self.flat.fluids.len() - 1)
    }

    fn bind(&mut self, slot: usize, idx: &[i64], id: FluidId) {
        if idx.is_empty() {
            self.bound[slot] = Some(id);
        } else {
            set_indexed(&mut self.indexed_bound[slot], idx, id);
        }
    }

    /// Evaluates a fluid reference's indices, each checked against the
    /// declared array length when there is one.
    fn fluid_indices(&self, f: &RFluid) -> Result<Indices, LangError> {
        let decl = &self.fluids[f.slot];
        self.eval_indices(&f.indices, |v| match decl.decl {
            Some(Some(len)) if v < 1 || v as u64 > len => Err(LangError::new(
                f.span,
                format!("index {v} out of range for `{}[{len}]`", decl.name),
            )),
            _ => Ok(()),
        })
    }

    /// Evaluates `exprs` in order, passing each value to `check` as it
    /// is computed.
    fn eval_indices(
        &self,
        exprs: &[RExpr],
        check: impl Fn(i64) -> Result<(), LangError>,
    ) -> Result<Indices, LangError> {
        if exprs.len() <= 4 {
            let mut values = [0; 4];
            for (slot, e) in values.iter_mut().zip(exprs) {
                *slot = self.eval(e)?;
                check(*slot)?;
            }
            Ok(Indices::Inline(values, exprs.len()))
        } else {
            let mut values = Vec::with_capacity(exprs.len());
            for e in exprs {
                let v = self.eval(e)?;
                check(v)?;
                values.push(v);
            }
            Ok(Indices::Heap(values))
        }
    }

    fn eval_seconds(&self, e: &RExpr) -> Result<u64, LangError> {
        let v = self.eval(e)?;
        u64::try_from(v).map_err(|_| LangError::new(e.span(), format!("negative duration {v}")))
    }

    fn eval(&self, e: &RExpr) -> Result<i64, LangError> {
        match e {
            RExpr::Int(v, span) => i64::try_from(*v)
                .map_err(|_| LangError::new(*span, "integer literal overflows i64")),
            RExpr::Var {
                slot,
                name,
                indices,
                span,
            } => {
                let idx = self.eval_indices(indices, |_| Ok(()))?;
                let value = if idx.is_empty() {
                    self.scalars[*slot]
                } else {
                    self.indexed_scalars[*slot].get(&*idx).copied()
                };
                value.ok_or_else(|| {
                    LangError::new(*span, format!("variable `{name}` read before assignment"))
                })
            }
            RExpr::Binary { op, lhs, rhs, span } => {
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
