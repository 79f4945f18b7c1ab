//! The high-level assay language of §4.1.
//!
//! Assays are written in a small imperative language whose statements
//! mirror conventional wet-lab protocol notation (Figures 9–11 of the
//! paper):
//!
//! ```text
//! ASSAY glucose START
//! fluid Glucose, Reagent, Sample;
//! fluid a, b, c, d, e;
//! VAR Result[5];
//! a = MIX Glucose AND Reagent IN RATIOS 1 : 1 FOR 10;
//! SENSE OPTICAL it INTO Result[1];
//! END
//! ```
//!
//! Supported constructs: `fluid` / `VAR` declarations (with arrays),
//! `MIX ... AND ... [IN RATIOS ...] FOR t`, `INCUBATE ... AT temp FOR
//! t`, `[LC]SEPARATE x MATRIX m USING b FOR t INTO eff AND waste
//! [YIELD r]`, `SENSE OPTICAL|FLUORESCENCE x INTO slot`,
//! `CONCENTRATE ... AT temp FOR t`, scalar arithmetic over `VAR`s,
//! `FOR i FROM a TO b START ... ENDFOR` (fully unrolled at compile
//! time), `WHILE cond BOUND n START ... ENDWHILE` (unknown-iteration
//! loops with the §3.5 programmer hint of an upper bound — a wrong
//! hint is a compile error), `IF`/`ELSE` over compile-time conditions,
//! and the `it` pseudo-fluid naming the previous statement's product.
//!
//! The crate lowers source text to a [`FlatAssay`] — a fully unrolled,
//! constant-folded sequence of fluid operations with exact rational
//! ratios — which `aqua-compiler` turns into an assay DAG and AIS code.
//!
//! # Examples
//!
//! ```
//! use aqua_lang::compile_to_flat;
//!
//! let src = "
//! ASSAY demo START
//! fluid A, B;
//! MIX A AND B IN RATIOS 1 : 4 FOR 10;
//! SENSE OPTICAL it INTO R;
//! END";
//! let flat = compile_to_flat(src)?;
//! assert_eq!(flat.name, "demo");
//! assert_eq!(flat.ops.len(), 2);
//! # Ok::<(), aqua_lang::LangError>(())
//! ```

#![warn(missing_docs)]

mod ast;
mod diag;
mod eval;
mod flat;
mod lexer;
mod parser;

pub use ast::{Assay, Expr, SenseMode, SepKind, Stmt};
pub use diag::{LangError, Span};
pub use eval::compile_to_flat_ast;
pub use flat::{FlatAssay, FlatOp, FluidId};

/// Parses and unrolls an assay source into a [`FlatAssay`].
///
/// # Errors
///
/// Returns [`LangError`] with a source span for lexical, syntactic, or
/// semantic problems (undeclared fluids, non-constant loop bounds, ...).
pub fn compile_to_flat(src: &str) -> Result<FlatAssay, LangError> {
    let assay = parse(src)?;
    compile_to_flat_ast(&assay)
}

/// Parses an assay source into its AST.
///
/// # Errors
///
/// Returns [`LangError`] on lexical or syntax errors.
pub fn parse(src: &str) -> Result<Assay, LangError> {
    let tokens = lexer::lex(src)?;
    parser::parse_tokens(&tokens)
}
