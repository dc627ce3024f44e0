//! The MiniC lexer.

use crate::CompileError;

/// A lexical token with its source line (for diagnostics).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// The token proper.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
}

/// The kinds of MiniC tokens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident(String),
    /// An integer literal (decimal, hex `0x…`, or character `'c'`).
    Int(i64),
    /// A string literal (escapes already resolved).
    Str(String),
    /// Any punctuation / operator, e.g. `"+"`, `"<<"`, `"=="`, `"{"`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

/// Multi-character operators, longest first so maximal munch works.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=", "++", "--", "->", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">",
    "=", "(", ")", "{", "}", "[", "]", ";", ",", "?", ":",
];

fn err(line: u32, message: impl Into<String>) -> CompileError {
    CompileError::new("lex", format!("line {line}: {}", message.into()))
}

fn unescape(c: char, line: u32) -> Result<u8, CompileError> {
    Ok(match c {
        'n' => b'\n',
        't' => b'\t',
        'r' => b'\r',
        '0' => 0,
        '\\' => b'\\',
        '\'' => b'\'',
        '"' => b'"',
        other => return Err(err(line, format!("unknown escape `\\{other}`"))),
    })
}

/// Tokenizes MiniC source.
///
/// # Errors
///
/// Returns a lex-stage [`CompileError`] on unterminated literals, unknown
/// escapes or stray characters.
///
/// # Examples
///
/// ```
/// use gpa_minicc::lexer::{lex, TokenKind};
///
/// let tokens = lex("int x = 0x10; // comment")?;
/// assert_eq!(tokens[0].kind, TokenKind::Ident("int".into()));
/// assert_eq!(tokens[3].kind, TokenKind::Int(16));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn lex(source: &str) -> Result<Vec<Token>, CompileError> {
    let mut tokens = Vec::new();
    let bytes = source.as_bytes();
    let mut pos = 0usize;
    let mut line = 1u32;
    while pos < bytes.len() {
        let c = bytes[pos] as char;
        if c == '\n' {
            line += 1;
            pos += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            pos += 1;
            continue;
        }
        // Comments.
        if source[pos..].starts_with("//") {
            while pos < bytes.len() && bytes[pos] != b'\n' {
                pos += 1;
            }
            continue;
        }
        if source[pos..].starts_with("/*") {
            let start_line = line;
            pos += 2;
            loop {
                if pos + 1 >= bytes.len() {
                    return Err(err(start_line, "unterminated block comment"));
                }
                if bytes[pos] == b'\n' {
                    line += 1;
                }
                if &source[pos..pos + 2] == "*/" {
                    pos += 2;
                    break;
                }
                pos += 1;
            }
            continue;
        }
        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == '_' {
            let start = pos;
            while pos < bytes.len()
                && ((bytes[pos] as char).is_ascii_alphanumeric() || bytes[pos] == b'_')
            {
                pos += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Ident(source[start..pos].to_owned()),
                line,
            });
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let start = pos;
            let value = if source[pos..].starts_with("0x") || source[pos..].starts_with("0X") {
                pos += 2;
                let hex_start = pos;
                while pos < bytes.len() && (bytes[pos] as char).is_ascii_hexdigit() {
                    pos += 1;
                }
                i64::from_str_radix(&source[hex_start..pos], 16)
                    .map_err(|_| err(line, "bad hex literal"))?
            } else {
                while pos < bytes.len() && (bytes[pos] as char).is_ascii_digit() {
                    pos += 1;
                }
                source[start..pos]
                    .parse::<i64>()
                    .map_err(|_| err(line, "bad integer literal"))?
            };
            tokens.push(Token {
                kind: TokenKind::Int(value),
                line,
            });
            continue;
        }
        // Character literals.
        if c == '\'' {
            pos += 1;
            let ch = *bytes
                .get(pos)
                .ok_or_else(|| err(line, "unterminated char"))? as char;
            let value = if ch == '\\' {
                pos += 1;
                let e = *bytes
                    .get(pos)
                    .ok_or_else(|| err(line, "unterminated char"))? as char;
                unescape(e, line)?
            } else {
                ch as u8
            };
            pos += 1;
            if bytes.get(pos) != Some(&b'\'') {
                return Err(err(line, "unterminated char literal"));
            }
            pos += 1;
            tokens.push(Token {
                kind: TokenKind::Int(value as i64),
                line,
            });
            continue;
        }
        // String literals.
        if c == '"' {
            pos += 1;
            let mut text = String::new();
            loop {
                let ch = *bytes
                    .get(pos)
                    .ok_or_else(|| err(line, "unterminated string"))?
                    as char;
                pos += 1;
                match ch {
                    '"' => break,
                    '\\' => {
                        let e = *bytes
                            .get(pos)
                            .ok_or_else(|| err(line, "unterminated string"))?
                            as char;
                        pos += 1;
                        text.push(unescape(e, line)? as char);
                    }
                    '\n' => return Err(err(line, "newline in string literal")),
                    other => text.push(other),
                }
            }
            tokens.push(Token {
                kind: TokenKind::Str(text),
                line,
            });
            continue;
        }
        // Punctuation.
        if let Some(p) = PUNCTS.iter().find(|p| source[pos..].starts_with(**p)) {
            pos += p.len();
            tokens.push(Token {
                kind: TokenKind::Punct(p),
                line,
            });
            continue;
        }
        return Err(err(line, format!("unexpected character `{c}`")));
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("int x = 42;"),
            vec![
                TokenKind::Ident("int".into()),
                TokenKind::Ident("x".into()),
                TokenKind::Punct("="),
                TokenKind::Int(42),
                TokenKind::Punct(";"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn maximal_munch() {
        assert_eq!(
            kinds("a<<=b<<c<=d"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Punct("<<="),
                TokenKind::Ident("b".into()),
                TokenKind::Punct("<<"),
                TokenKind::Ident("c".into()),
                TokenKind::Punct("<="),
                TokenKind::Ident("d".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn literals() {
        assert_eq!(kinds("0x1F")[0], TokenKind::Int(31));
        assert_eq!(kinds("'A'")[0], TokenKind::Int(65));
        assert_eq!(kinds("'\\n'")[0], TokenKind::Int(10));
        assert_eq!(kinds("\"a\\tb\"")[0], TokenKind::Str("a\tb".into()));
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // line\n /* block\n comment */ b"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn line_numbers() {
        let tokens = lex("a\nb\n\nc").unwrap();
        assert_eq!(tokens[0].line, 1);
        assert_eq!(tokens[1].line, 2);
        assert_eq!(tokens[2].line, 4);
    }

    #[test]
    fn errors() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("'ab'").is_err());
        assert!(lex("`").is_err());
        assert!(lex("/* never closed").is_err());
        assert!(lex("\"bad \\q escape\"").is_err());
    }
}
