//! Recursive-descent parser for the assay language.

use crate::ast::*;
use crate::diag::{LangError, Span};
use crate::lexer::{Token, TokenKind};

/// Deepest nesting of parentheses, index brackets and `FOR`, `WHILE`
/// and `IF` blocks, counted together, that the parser accepts. The
/// repository's assays nest 3 blocks; the parser recurses once per
/// level, and 30,000 nested parentheses used to overflow its stack.
/// Operators nest too: whatever walks an expression tree (the unroller,
/// drop) recurses once per level of it, and a chain
/// `1+1+…+1` is one level per term without any parenthesis (50,000
/// terms used to overflow those walkers). So a tree's height counts
/// toward the cap on top of the levels around it.
pub(crate) const MAX_NESTING: usize = 64;

pub(crate) fn parse_tokens(tokens: &[Token<'_>]) -> Result<Assay, LangError> {
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    p.parse_assay()
}

struct Parser<'a> {
    tokens: &'a [Token<'a>],
    pos: usize,
    /// Levels of nesting around the current token.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn span_here(&self) -> Span {
        self.peek()
            .map(|t| t.span)
            .or_else(|| self.tokens.last().map(|t| t.span))
            .unwrap_or_default()
    }

    fn bump(&mut self) -> Option<&Token<'a>> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: impl Into<String>) -> LangError {
        LangError::new(self.span_here(), msg)
    }

    fn expect_kind(&mut self, kind: &TokenKind<'_>, what: &str) -> Result<Span, LangError> {
        match self.peek() {
            Some(t) if &t.kind == kind => {
                let s = t.span;
                self.pos += 1;
                Ok(s)
            }
            Some(t) => Err(LangError::new(
                t.span,
                format!("expected {what}, found {:?}", t.kind),
            )),
            None => Err(self.error(format!("expected {what}, found end of input"))),
        }
    }

    /// Runs `parse` one nesting level deeper, at the token that opens
    /// the level, or refuses past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, LangError>,
    ) -> Result<T, LangError> {
        if self.depth == MAX_NESTING {
            return Err(too_deep(self.span_here()));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    /// The `[ expr ]` indices after a name, and the height they give its
    /// expression node (0 without any).
    fn parse_indices(&mut self) -> Result<(Vec<Expr>, usize), LangError> {
        let mut indices = Vec::new();
        let mut height = 0;
        while matches!(self.peek().map(|t| &t.kind), Some(TokenKind::LBracket)) {
            let (index, h) = self.nested(|p| {
                p.pos += 1;
                let index = p.parse_sum()?;
                p.expect_kind(&TokenKind::RBracket, "`]`")?;
                Ok(index)
            })?;
            indices.push(index);
            height = height.max(h + 1);
        }
        Ok((indices, height))
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<Span, LangError> {
        match self.peek() {
            Some(t) => {
                if let TokenKind::Ident(name) = t.kind {
                    if name == kw {
                        let s = t.span;
                        self.pos += 1;
                        return Ok(s);
                    }
                }
                Err(LangError::new(
                    t.span,
                    format!("expected `{kw}`, found {:?}", t.kind),
                ))
            }
            None => Err(self.error(format!("expected `{kw}`, found end of input"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token { kind: TokenKind::Ident(n), .. }) if *n == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(String, Span), LangError> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Ident(name),
                span,
            }) => {
                let out = ((*name).to_owned(), *span);
                self.pos += 1;
                Ok(out)
            }
            Some(t) => Err(LangError::new(
                t.span,
                format!("expected {what}, found {:?}", t.kind),
            )),
            None => Err(self.error(format!("expected {what}, found end of input"))),
        }
    }

    fn expect_int(&mut self, what: &str) -> Result<(u64, Span), LangError> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Int(v),
                span,
            }) => {
                let out = (*v, *span);
                self.pos += 1;
                Ok(out)
            }
            Some(t) => Err(LangError::new(
                t.span,
                format!("expected {what}, found {:?}", t.kind),
            )),
            None => Err(self.error(format!("expected {what}, found end of input"))),
        }
    }

    fn parse_assay(&mut self) -> Result<Assay, LangError> {
        self.expect_keyword("ASSAY")?;
        let (name, _) = self.expect_ident("assay name")?;
        self.expect_keyword("START")?;
        let mut fluids = Vec::new();
        let mut vars = Vec::new();
        // Declarations may be interleaved with the body in the paper's
        // listings, but always precede first use; we accept them anywhere
        // at the top level before statements for simplicity, plus
        // interleaved.
        let mut body = Vec::new();
        loop {
            if self.eat_keyword("END") {
                break;
            }
            if self.at_keyword("fluid") {
                self.pos += 1;
                self.parse_decl_list(&mut fluids)?;
            } else if self.at_keyword("VAR") {
                self.pos += 1;
                self.parse_var_list(&mut vars)?;
            } else if self.peek().is_none() {
                return Err(self.error("missing `END`"));
            } else {
                body.push(self.parse_stmt()?);
            }
        }
        Ok(Assay {
            name,
            fluids,
            vars,
            body,
        })
    }

    fn parse_decl_list(&mut self, out: &mut Vec<(String, Option<u64>)>) -> Result<(), LangError> {
        loop {
            let (name, _) = self.expect_ident("fluid name")?;
            let mut len = None;
            if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::LBracket)) {
                self.pos += 1;
                let (n, _) = self.expect_int("array length")?;
                self.expect_kind(&TokenKind::RBracket, "`]`")?;
                len = Some(n);
            }
            out.push((name, len));
            match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Comma) => {
                    self.pos += 1;
                }
                Some(TokenKind::Semicolon) => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `;` in fluid declaration")),
            }
        }
    }

    fn parse_var_list(&mut self, out: &mut Vec<(String, Vec<u64>)>) -> Result<(), LangError> {
        loop {
            let (name, _) = self.expect_ident("variable name")?;
            let mut dims = Vec::new();
            while matches!(self.peek().map(|t| &t.kind), Some(TokenKind::LBracket)) {
                self.pos += 1;
                let (n, _) = self.expect_int("array dimension")?;
                self.expect_kind(&TokenKind::RBracket, "`]`")?;
                dims.push(n);
            }
            out.push((name, dims));
            match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Comma) => {
                    self.pos += 1;
                }
                Some(TokenKind::Semicolon) => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `;` in VAR declaration")),
            }
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt, LangError> {
        if self.at_keyword("FOR") {
            return self.nested(Self::parse_for);
        }
        if self.at_keyword("WHILE") {
            return self.nested(Self::parse_while);
        }
        if self.at_keyword("IF") {
            return self.nested(Self::parse_if);
        }
        for (kw, kind) in [
            ("SEPARATE", SepKind::Affinity),
            ("LCSEPARATE", SepKind::LiquidChromatography),
            ("CESEPARATE", SepKind::Electrophoresis),
            ("SIZESEPARATE", SepKind::Size),
        ] {
            if self.at_keyword(kw) {
                return self.parse_separate(kind);
            }
        }
        if self.at_keyword("MIX") {
            return self.parse_mix(None);
        }
        if self.at_keyword("INCUBATE") {
            return self.parse_incubate(false);
        }
        if self.at_keyword("CONCENTRATE") {
            return self.parse_incubate(true);
        }
        if self.at_keyword("SENSE") {
            return self.parse_sense();
        }
        if self.at_keyword("OUTPUT") {
            return self.parse_output();
        }
        // `name[...] = MIX ...` or scalar assignment.
        let (name, span) = self.expect_ident("statement")?;
        let (indices, _) = self.parse_indices()?;
        self.expect_kind(&TokenKind::Equals, "`=`")?;
        if self.at_keyword("MIX") {
            let dst = FluidExpr {
                name,
                indices,
                span,
            };
            return self.parse_mix(Some(dst));
        }
        let value = self.parse_expr()?;
        self.expect_kind(&TokenKind::Semicolon, "`;`")?;
        Ok(Stmt::Assign {
            var: name,
            indices,
            value,
            span,
        })
    }

    fn parse_fluid_expr(&mut self) -> Result<FluidExpr, LangError> {
        let (name, span) = self.expect_ident("fluid name")?;
        let (indices, _) = self.parse_indices()?;
        Ok(FluidExpr {
            name,
            indices,
            span,
        })
    }

    fn parse_mix(&mut self, dst: Option<FluidExpr>) -> Result<Stmt, LangError> {
        let span = self.expect_keyword("MIX")?;
        let mut fluids = vec![self.parse_fluid_expr()?];
        while self.eat_keyword("AND") {
            fluids.push(self.parse_fluid_expr()?);
        }
        let mut ratios = Vec::new();
        if self.eat_keyword("IN") {
            self.expect_keyword("RATIOS")?;
            ratios.push(self.parse_expr()?);
            while matches!(self.peek().map(|t| &t.kind), Some(TokenKind::Colon)) {
                self.pos += 1;
                ratios.push(self.parse_expr()?);
            }
            if ratios.len() != fluids.len() {
                return Err(LangError::new(
                    span,
                    format!(
                        "MIX of {} fluids has {} ratio parts",
                        fluids.len(),
                        ratios.len()
                    ),
                ));
            }
        }
        self.expect_keyword("FOR")?;
        let seconds = self.parse_expr()?;
        self.expect_kind(&TokenKind::Semicolon, "`;`")?;
        Ok(Stmt::Mix {
            dst,
            fluids,
            ratios,
            seconds,
            span,
        })
    }

    fn parse_separate(&mut self, kind: SepKind) -> Result<Stmt, LangError> {
        let span = self.bump().expect("checked keyword").span;
        let src = self.parse_fluid_expr()?;
        self.expect_keyword("MATRIX")?;
        let (matrix, _) = self.expect_ident("matrix fluid")?;
        self.expect_keyword("USING")?;
        let (using, _) = self.expect_ident("carrier fluid")?;
        self.expect_keyword("FOR")?;
        let seconds = self.parse_expr()?;
        self.expect_keyword("INTO")?;
        let effluent = self.parse_fluid_expr()?;
        self.expect_keyword("AND")?;
        let waste = self.parse_fluid_expr()?;
        let mut yield_hint = None;
        if self.eat_keyword("YIELD") {
            let (p, _) = self.expect_int("yield numerator")?;
            self.expect_kind(&TokenKind::Slash, "`/`")?;
            let (q, qspan) = self.expect_int("yield denominator")?;
            if q == 0 || p > q {
                return Err(LangError::new(qspan, "YIELD must be a fraction in (0, 1]"));
            }
            yield_hint = Some((p, q));
        }
        self.expect_kind(&TokenKind::Semicolon, "`;`")?;
        Ok(Stmt::Separate {
            kind,
            src,
            matrix,
            using,
            seconds,
            effluent,
            waste,
            yield_hint,
            span,
        })
    }

    fn parse_incubate(&mut self, concentrate: bool) -> Result<Stmt, LangError> {
        let span = self.bump().expect("checked keyword").span;
        let fluid = self.parse_fluid_expr()?;
        self.expect_keyword("AT")?;
        let temp = self.parse_expr()?;
        self.expect_keyword("FOR")?;
        let seconds = self.parse_expr()?;
        self.expect_kind(&TokenKind::Semicolon, "`;`")?;
        Ok(if concentrate {
            Stmt::Concentrate {
                fluid,
                temp,
                seconds,
                span,
            }
        } else {
            Stmt::Incubate {
                fluid,
                temp,
                seconds,
                span,
            }
        })
    }

    fn parse_sense(&mut self) -> Result<Stmt, LangError> {
        let span = self.expect_keyword("SENSE")?;
        let mode = if self.eat_keyword("OPTICAL") {
            SenseMode::Optical
        } else if self.eat_keyword("FLUORESCENCE") {
            SenseMode::Fluorescence
        } else {
            return Err(self.error("expected `OPTICAL` or `FLUORESCENCE` after SENSE"));
        };
        let fluid = self.parse_fluid_expr()?;
        self.expect_keyword("INTO")?;
        let target = self.parse_expr()?;
        self.expect_kind(&TokenKind::Semicolon, "`;`")?;
        Ok(Stmt::Sense {
            mode,
            fluid,
            target,
            span,
        })
    }

    fn parse_output(&mut self) -> Result<Stmt, LangError> {
        let span = self.expect_keyword("OUTPUT")?;
        let fluid = self.parse_fluid_expr()?;
        let weight = if self.eat_keyword("WEIGHT") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.expect_kind(&TokenKind::Semicolon, "`;`")?;
        Ok(Stmt::Output {
            fluid,
            weight,
            span,
        })
    }

    fn parse_for(&mut self) -> Result<Stmt, LangError> {
        let span = self.expect_keyword("FOR")?;
        let (var, _) = self.expect_ident("loop variable")?;
        self.expect_keyword("FROM")?;
        let from = self.parse_expr()?;
        self.expect_keyword("TO")?;
        let to = self.parse_expr()?;
        self.expect_keyword("START")?;
        let mut body = Vec::new();
        while !self.at_keyword("ENDFOR") {
            if self.peek().is_none() {
                return Err(self.error("missing `ENDFOR`"));
            }
            body.push(self.parse_stmt()?);
        }
        self.expect_keyword("ENDFOR")?;
        Ok(Stmt::For {
            var,
            from,
            to,
            body,
            span,
        })
    }

    fn parse_cmp_op(&mut self) -> Result<CmpOp, LangError> {
        let op = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Lt) => CmpOp::Lt,
            Some(TokenKind::Le) => CmpOp::Le,
            Some(TokenKind::Gt) => CmpOp::Gt,
            Some(TokenKind::Ge) => CmpOp::Ge,
            Some(TokenKind::EqEq) => CmpOp::Eq,
            Some(TokenKind::NotEq) => CmpOp::Ne,
            _ => return Err(self.error("expected comparison operator")),
        };
        self.pos += 1;
        Ok(op)
    }

    fn parse_while(&mut self) -> Result<Stmt, LangError> {
        let span = self.expect_keyword("WHILE")?;
        let lhs = self.parse_expr()?;
        let op = self.parse_cmp_op()?;
        let rhs = self.parse_expr()?;
        self.expect_keyword("BOUND")?;
        let bound = self.parse_expr()?;
        self.expect_keyword("START")?;
        let mut body = Vec::new();
        while !self.at_keyword("ENDWHILE") {
            if self.peek().is_none() {
                return Err(self.error("missing `ENDWHILE`"));
            }
            body.push(self.parse_stmt()?);
        }
        self.expect_keyword("ENDWHILE")?;
        Ok(Stmt::While {
            lhs,
            op,
            rhs,
            bound,
            body,
            span,
        })
    }

    fn parse_if(&mut self) -> Result<Stmt, LangError> {
        let span = self.expect_keyword("IF")?;
        let lhs = self.parse_expr()?;
        let op = self.parse_cmp_op()?;
        let rhs = self.parse_expr()?;
        self.expect_keyword("START")?;
        let mut then_body = Vec::new();
        let mut else_body = Vec::new();
        loop {
            if self.at_keyword("ENDIF") {
                break;
            }
            if self.at_keyword("ELSE") {
                self.pos += 1;
                while !self.at_keyword("ENDIF") {
                    if self.peek().is_none() {
                        return Err(self.error("missing `ENDIF`"));
                    }
                    else_body.push(self.parse_stmt()?);
                }
                break;
            }
            if self.peek().is_none() {
                return Err(self.error("missing `ENDIF`"));
            }
            then_body.push(self.parse_stmt()?);
        }
        self.expect_keyword("ENDIF")?;
        Ok(Stmt::If {
            lhs,
            op,
            rhs,
            then_body,
            else_body,
            span,
        })
    }

    /// expr := term (("+"|"-") term)*
    fn parse_expr(&mut self) -> Result<Expr, LangError> {
        Ok(self.parse_sum()?.0)
    }

    /// An expression and the height of its tree.
    fn parse_sum(&mut self) -> Result<(Expr, usize), LangError> {
        self.parse_chain(Self::parse_term, |kind| match kind {
            TokenKind::Plus => Some(BinOp::Add),
            TokenKind::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    /// term := atom (("*"|"/") atom)*
    fn parse_term(&mut self) -> Result<(Expr, usize), LangError> {
        self.parse_chain(Self::parse_atom, |kind| match kind {
            TokenKind::Star => Some(BinOp::Mul),
            TokenKind::Slash => Some(BinOp::Div),
            _ => None,
        })
    }

    /// A left-associative chain of `operand`s joined by the operators
    /// `op` reads, and its height: each operator is one level over the
    /// taller of its operands, refused past [`MAX_NESTING`] at its token.
    fn parse_chain(
        &mut self,
        operand: fn(&mut Self) -> Result<(Expr, usize), LangError>,
        op: fn(&TokenKind<'_>) -> Option<BinOp>,
    ) -> Result<(Expr, usize), LangError> {
        let (mut lhs, mut height) = operand(self)?;
        while let Some(token) = self.peek() {
            let Some(op) = op(&token.kind) else {
                break;
            };
            let at = token.span;
            self.pos += 1;
            let (rhs, rhs_height) = operand(self)?;
            height = 1 + height.max(rhs_height);
            if self.depth + height > MAX_NESTING {
                return Err(too_deep(at));
            }
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok((lhs, height))
    }

    fn parse_atom(&mut self) -> Result<(Expr, usize), LangError> {
        match self.peek().cloned() {
            Some(Token {
                kind: TokenKind::Int(v),
                span,
            }) => {
                self.pos += 1;
                Ok((Expr::Int(v, span), 0))
            }
            Some(Token {
                kind: TokenKind::LParen,
                ..
            }) => self.nested(|p| {
                p.pos += 1;
                let e = p.parse_sum()?;
                p.expect_kind(&TokenKind::RParen, "`)`")?;
                Ok(e)
            }),
            Some(Token {
                kind: TokenKind::Ident(name),
                span,
            }) => {
                self.pos += 1;
                let (indices, height) = self.parse_indices()?;
                Ok((Expr::Var(name.to_owned(), indices, span), height))
            }
            Some(t) => Err(LangError::new(
                t.span,
                format!("expected expression, found {:?}", t.kind),
            )),
            None => Err(self.error("expected expression, found end of input")),
        }
    }
}

/// The error for nesting past [`MAX_NESTING`], at the token `at` that
/// would open one level more.
fn too_deep(at: Span) -> LangError {
    LangError::new(at, format!("nesting deeper than {MAX_NESTING} levels"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Assay {
        parse_tokens(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_glucose_shape() {
        let a = parse(
            "ASSAY glucose START
             fluid Glucose, Reagent, Sample;
             fluid a, b;
             VAR Result[5];
             a = MIX Glucose AND Reagent IN RATIOS 1 : 1 FOR 10;
             SENSE OPTICAL it INTO Result[1];
             END",
        );
        assert_eq!(a.name, "glucose");
        assert_eq!(a.fluids.len(), 5);
        assert_eq!(a.vars, vec![("Result".to_string(), vec![5])]);
        assert_eq!(a.body.len(), 2);
        assert!(matches!(&a.body[0], Stmt::Mix { dst: Some(d), fluids, .. }
            if d.name == "a" && fluids.len() == 2));
    }

    #[test]
    fn parses_separate_with_into() {
        let a = parse(
            "ASSAY g START
             fluid s, lectin, buffer1b, effluent, waste;
             SEPARATE s MATRIX lectin USING buffer1b FOR 30 INTO effluent AND waste;
             END",
        );
        assert!(matches!(
            &a.body[0],
            Stmt::Separate {
                kind: SepKind::Affinity,
                yield_hint: None,
                ..
            }
        ));
    }

    #[test]
    fn parses_yield_hint() {
        let a = parse(
            "ASSAY g START
             fluid s, m, b, e, w;
             LCSEPARATE s MATRIX m USING b FOR 2400 INTO e AND w YIELD 1/2;
             END",
        );
        assert!(matches!(
            &a.body[0],
            Stmt::Separate {
                kind: SepKind::LiquidChromatography,
                yield_hint: Some((1, 2)),
                ..
            }
        ));
    }

    #[test]
    fn parses_for_loop_with_arithmetic() {
        let a = parse(
            "ASSAY e START
             fluid inhibitor, diluent, Diluted_Inhibitor[4];
             VAR i, temp, inhibitor_diluent;
             temp = 1;
             FOR i FROM 1 TO 4 START
               Diluted_Inhibitor[i] = MIX inhibitor AND diluent IN RATIOS 1:inhibitor_diluent FOR 30;
               temp = temp * 10;
               inhibitor_diluent = temp - 1;
             ENDFOR
             END",
        );
        assert_eq!(a.body.len(), 2);
        match &a.body[1] {
            Stmt::For { var, body, .. } => {
                assert_eq!(var, "i");
                assert_eq!(body.len(), 3);
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_else() {
        let a = parse(
            "ASSAY c START
             fluid A, B;
             VAR x;
             x = 3;
             IF x <= 3 START
               MIX A AND B FOR 5;
             ELSE
               MIX A AND B IN RATIOS 2:1 FOR 5;
             ENDIF
             END",
        );
        assert!(matches!(&a.body[1], Stmt::If { then_body, else_body, .. }
            if then_body.len() == 1 && else_body.len() == 1));
    }

    #[test]
    fn operator_precedence() {
        let a = parse(
            "ASSAY p START
             VAR x;
             x = 1 + 2 * 3;
             END",
        );
        match &a.body[0] {
            Stmt::Assign { value, .. } => match value {
                Expr::Binary {
                    op: BinOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("expected add at top, got {other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    /// Parentheses, index brackets, blocks and chained operators share
    /// one nesting cap: a program at the cap parses, and one level more
    /// is refused at the token that opens it.
    #[test]
    fn nesting_is_capped() {
        let parses = |depth: usize, body: &dyn Fn(usize) -> String| {
            let src = format!("ASSAY n START\nVAR x, R[1];\n{}\nEND", body(depth));
            parse_tokens(&lex(&src).unwrap())
        };
        let parens = |d: usize| format!("x = {}1{};", "(".repeat(d), ")".repeat(d));
        let blocks = |d: usize| {
            format!(
                "{}x = 1;\n{}",
                "FOR i FROM 1 TO 2 START\n".repeat(d),
                "ENDFOR\n".repeat(d)
            )
        };
        // Blocks around an index bracket around parentheses.
        let mixed = |d: usize| {
            format!(
                "{}R[{}1{}] = 1;\n{}",
                "IF 1 < 2 START\n".repeat(d / 2),
                "(".repeat(d - d / 2 - 1),
                ")".repeat(d - d / 2 - 1),
                "ENDIF\n".repeat(d / 2)
            )
        };
        // A left-deep chain of operators inside a block.
        let chain = |d: usize| format!("IF 1 < 2 START\nx = 1{};\nENDIF\n", " - 1".repeat(d - 1));
        for body in [&parens as &dyn Fn(usize) -> String, &blocks, &mixed, &chain] {
            assert!(parses(MAX_NESTING, body).is_ok(), "{}", body(MAX_NESTING));
            let err = parses(MAX_NESTING + 1, body).unwrap_err();
            assert_eq!(err.message, "nesting deeper than 64 levels");
        }
        let err = parses(MAX_NESTING + 1, &blocks).unwrap_err();
        assert_eq!(err.span.line, 3 + MAX_NESTING);
    }

    #[test]
    fn error_mentions_line() {
        let err = parse_tokens(&lex("ASSAY x START\nBOGUS y;\nEND").unwrap()).unwrap_err();
        assert_eq!(err.span.line, 2);
    }

    #[test]
    fn mismatched_ratio_arity_is_rejected() {
        let toks = lex("ASSAY m START
             fluid A, B, C;
             MIX A AND B AND C IN RATIOS 1:2 FOR 5;
             END")
        .unwrap();
        assert!(parse_tokens(&toks).is_err());
    }

    #[test]
    fn parses_output_with_weight() {
        let a = parse(
            "ASSAY g START
             fluid A, B, x;
             x = MIX A AND B FOR 5;
             OUTPUT x WEIGHT 3;
             END",
        );
        assert!(matches!(
            &a.body[1],
            Stmt::Output {
                weight: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn parses_output_without_weight() {
        let a = parse(
            "ASSAY g START
             fluid A, B, x;
             x = MIX A AND B FOR 5;
             OUTPUT x;
             END",
        );
        assert!(matches!(&a.body[1], Stmt::Output { weight: None, .. }));
    }

    #[test]
    fn missing_end_is_rejected() {
        let toks = lex("ASSAY m START\nVAR x;").unwrap();
        assert!(parse_tokens(&toks).is_err());
    }
}
