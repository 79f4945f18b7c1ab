//! Tokenizer for the assay language.

use crate::diag::{LangError, Span};

/// A lexical token; identifiers borrow their text from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind<'a> {
    /// Keyword or identifier (keywords are case-sensitive uppercase, as
    /// in the paper's listings; `fluid` is lowercase).
    Ident(&'a str),
    /// Unsigned integer literal.
    Int(u64),
    /// `=`
    Equals,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `:`
    Colon,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
}

/// A token with its source span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// What kind of token.
    pub kind: TokenKind<'a>,
    /// Where it came from.
    pub span: Span,
}

/// Tokenizes assay source. `--` starts a comment to end of line.
///
/// # Errors
///
/// Returns [`LangError`] on stray characters or oversized integers.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LangError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(&src[start..i]),
                    span: Span::new(start, i, line),
                });
            }
            c if c.is_ascii_digit() => {
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let value: u64 = text.parse().map_err(|_| {
                    LangError::new(
                        Span::new(start, i, line),
                        format!("integer literal `{text}` is too large"),
                    )
                })?;
                tokens.push(Token {
                    kind: TokenKind::Int(value),
                    span: Span::new(start, i, line),
                });
            }
            _ => {
                let two = |k: TokenKind<'static>, i: &mut usize| {
                    *i += 2;
                    k
                };
                let one = |k: TokenKind<'static>, i: &mut usize| {
                    *i += 1;
                    k
                };
                let next = if i + 1 < bytes.len() {
                    bytes[i + 1] as char
                } else {
                    '\0'
                };
                let kind = match (c, next) {
                    ('<', '=') => two(TokenKind::Le, &mut i),
                    ('>', '=') => two(TokenKind::Ge, &mut i),
                    ('=', '=') => two(TokenKind::EqEq, &mut i),
                    ('!', '=') => two(TokenKind::NotEq, &mut i),
                    ('=', _) => one(TokenKind::Equals, &mut i),
                    (',', _) => one(TokenKind::Comma, &mut i),
                    (';', _) => one(TokenKind::Semicolon, &mut i),
                    (':', _) => one(TokenKind::Colon, &mut i),
                    ('[', _) => one(TokenKind::LBracket, &mut i),
                    (']', _) => one(TokenKind::RBracket, &mut i),
                    ('(', _) => one(TokenKind::LParen, &mut i),
                    (')', _) => one(TokenKind::RParen, &mut i),
                    ('+', _) => one(TokenKind::Plus, &mut i),
                    ('-', _) => one(TokenKind::Minus, &mut i),
                    ('*', _) => one(TokenKind::Star, &mut i),
                    ('/', _) => one(TokenKind::Slash, &mut i),
                    ('<', _) => one(TokenKind::Lt, &mut i),
                    ('>', _) => one(TokenKind::Gt, &mut i),
                    _ => {
                        return Err(LangError::new(
                            Span::new(start, start + 1, line),
                            format!("unexpected character `{c}`"),
                        ))
                    }
                };
                tokens.push(Token {
                    kind,
                    span: Span::new(start, i, line),
                });
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_mix_statement() {
        let k = kinds("a = MIX Glucose AND Reagent IN RATIOS 1 : 1 FOR 10;");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("a"),
                TokenKind::Equals,
                TokenKind::Ident("MIX"),
                TokenKind::Ident("Glucose"),
                TokenKind::Ident("AND"),
                TokenKind::Ident("Reagent"),
                TokenKind::Ident("IN"),
                TokenKind::Ident("RATIOS"),
                TokenKind::Int(1),
                TokenKind::Colon,
                TokenKind::Int(1),
                TokenKind::Ident("FOR"),
                TokenKind::Int(10),
                TokenKind::Semicolon,
            ]
        );
    }

    #[test]
    fn comments_run_to_end_of_line() {
        let k = kinds("VAR x; --buffer2 has PNGanF\nVAR y;");
        assert_eq!(k.len(), 6);
    }

    #[test]
    fn tracks_line_numbers() {
        let toks = lex("a\nb\nc").unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[2].span.line, 3);
    }

    #[test]
    fn arithmetic_and_comparison_operators() {
        let k = kinds("temp = temp * 10 - 1; x <= 3");
        assert!(k.contains(&TokenKind::Star));
        assert!(k.contains(&TokenKind::Minus));
        assert!(k.contains(&TokenKind::Le));
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("a = @").is_err());
        assert!(lex("99999999999999999999999999").is_err());
    }

    #[test]
    fn minus_vs_comment_disambiguation() {
        // A single minus is arithmetic; double minus is a comment.
        let k = kinds("a - b");
        assert_eq!(k.len(), 3);
        let k = kinds("a -- b");
        assert_eq!(k.len(), 1);
    }
}
