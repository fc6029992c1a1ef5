//! Tokenizer for the supported C subset.
//!
//! Produces a flat token stream with source positions; comments (both
//! styles) and whitespace are skipped. Unknown characters are reported as
//! [`LexError`]s with their position rather than being silently dropped —
//! a file outside the subset must fail loudly, never be half-analyzed.
//!
//! The scanner branches once on each token's first byte and then reads
//! at most two more bytes to finish a punctuator, so maximal munch (C11
//! §6.4:4) is decided without trying candidate spellings. Positions are
//! derived from the byte offset of the current line's start: a column is
//! the 1-based byte offset within its line.

use crate::ctype::{CInt, IntTy};
use crate::intern::{Interner, Symbol};
use cundef_ub::SourceLoc;
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword, interned (keywords are pre-interned at
    /// fixed [`crate::intern::kw`] indices, so the parser distinguishes
    /// them with integer compares).
    Ident(Symbol),
    /// Integer constant (decimal, octal, or hexadecimal, with optional
    /// `u`/`l`/`ll` suffixes) or character constant, already *typed* per
    /// C11 §6.4.4.1/§6.4.4.4 against the LP64 target.
    Int(CInt),
    /// Punctuator, e.g. `+=`, `(`, `<<`.
    Punct(Punct),
}

/// A punctuator of the subset (C11 §6.4.6), compared as an integer; its
/// spelling is [`Punct::as_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Punct {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `?`
    Question,
    /// `:`
    Colon,
    /// `~`
    Tilde,
    /// `!`
    Not,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `=`
    Assign,
    /// `&`
    Amp,
    /// `^`
    Caret,
    /// `|`
    Pipe,
    /// `++`
    Inc,
    /// `--`
    Dec,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `->`
    Arrow,
    /// `+=`
    AddAssign,
    /// `-=`
    SubAssign,
    /// `*=`
    MulAssign,
    /// `/=`
    DivAssign,
    /// `%=`
    RemAssign,
    /// `&=`
    AndAssign,
    /// `^=`
    XorAssign,
    /// `|=`
    OrAssign,
    /// `<<=`
    ShlAssign,
    /// `>>=`
    ShrAssign,
}

impl Punct {
    /// The punctuator's spelling, for messages.
    pub fn as_str(self) -> &'static str {
        use Punct::*;
        match self {
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Question => "?",
            Colon => ":",
            Tilde => "~",
            Not => "!",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            Lt => "<",
            Gt => ">",
            Assign => "=",
            Amp => "&",
            Caret => "^",
            Pipe => "|",
            Inc => "++",
            Dec => "--",
            Shl => "<<",
            Shr => ">>",
            Le => "<=",
            Ge => ">=",
            EqEq => "==",
            Ne => "!=",
            AndAnd => "&&",
            OrOr => "||",
            Arrow => "->",
            AddAssign => "+=",
            SubAssign => "-=",
            MulAssign => "*=",
            DivAssign => "/=",
            RemAssign => "%=",
            AndAssign => "&=",
            XorAssign => "^=",
            OrAssign => "|=",
            ShlAssign => "<<=",
            ShrAssign => ">>=",
        }
    }
}

/// A token plus its source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// Position of the token's first character.
    pub loc: SourceLoc,
}

/// A character or constant the lexer cannot handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Explanation of what went wrong.
    pub message: String,
    /// Where it went wrong.
    pub loc: SourceLoc,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.loc, self.message)
    }
}

impl std::error::Error for LexError {}

/// Bytes that may continue an identifier (`[A-Za-z0-9_]`).
const IDENT_CONTINUE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric() || c == b'_';
        b += 1;
    }
    table
};

/// The character starting at byte `i` of `source`, for messages.
fn char_at(source: &str, i: usize) -> char {
    source[i..].chars().next().expect("in bounds")
}

/// Tokenize `source` into a vector of positioned tokens, interning every
/// identifier into `interner`.
///
/// # Examples
///
/// ```
/// use cundef_semantics::intern::Interner;
/// use cundef_semantics::lexer::{lex, Punct, Tok};
///
/// let mut interner = Interner::new();
/// let toks = lex("x <<= 2;", &mut interner).unwrap();
/// assert_eq!(toks[1].tok, Tok::Punct(Punct::ShlAssign));
/// assert_eq!(toks[0].loc.line, 1);
/// assert!(matches!(toks[0].tok, Tok::Ident(sym) if interner.resolve(sym) == "x"));
/// ```
pub fn lex(source: &str, interner: &mut Interner) -> Result<Vec<Token>, LexError> {
    use Punct::*;
    let bytes = source.as_bytes();
    // Realistic sources average under three bytes per token, so this
    // rarely regrows.
    let mut toks = Vec::with_capacity(bytes.len() / 2 + 1);
    let mut i = 0;
    let mut line: u32 = 1;
    // Byte offset at which the current line starts.
    let mut line_start = 0;

    while i < bytes.len() {
        let loc = SourceLoc::new(line, (i - line_start) as u32 + 1);
        // The byte after the first, or 0 (which continues no punctuator).
        let next = bytes.get(i + 1).copied().unwrap_or(0);
        let punct = match bytes[i] {
            b'\n' => {
                i += 1;
                line += 1;
                line_start = i;
                continue;
            }
            // `u8::is_ascii_whitespace` minus the newline: `\v` is not
            // whitespace here.
            b' ' | b'\t' | b'\r' | b'\x0c' => {
                i += 1;
                while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\r' | b'\x0c') {
                    i += 1;
                }
                continue;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                i += 1;
                while i < bytes.len() && IDENT_CONTINUE[bytes[i] as usize] {
                    i += 1;
                }
                toks.push(Token {
                    tok: Tok::Ident(interner.intern(&source[start..i])),
                    loc,
                });
                continue;
            }
            b'0'..=b'9' => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
                    i += 1;
                }
                let text = &source[start..i];
                let value = parse_int_constant(text).ok_or_else(|| LexError {
                    message: format!("unsupported or out-of-range integer constant `{text}`"),
                    loc,
                })?;
                toks.push(Token {
                    tok: Tok::Int(value),
                    loc,
                });
                continue;
            }
            b'\'' => {
                // Character constant (§6.4.4.4); its type is `int`.
                let (value, end) =
                    char_constant(source, i + 1).map_err(|message| LexError { message, loc })?;
                i = end;
                toks.push(Token {
                    tok: Tok::Int(CInt::int(value)),
                    loc,
                });
                continue;
            }
            b'/' => match next {
                b'/' => {
                    i += bytes[i..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .unwrap_or(bytes.len() - i);
                    continue;
                }
                b'*' => {
                    let mut j = i + 2;
                    loop {
                        if j + 1 >= bytes.len() {
                            return Err(LexError {
                                message: "unterminated comment".into(),
                                loc,
                            });
                        }
                        match bytes[j] {
                            b'*' if bytes[j + 1] == b'/' => break,
                            b'\n' => {
                                line += 1;
                                line_start = j + 1;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    i = j + 2;
                    continue;
                }
                b'=' => DivAssign,
                _ => Slash,
            },
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'?' => Question,
            b':' => Colon,
            b'~' => Tilde,
            b'+' => match next {
                b'+' => Inc,
                b'=' => AddAssign,
                _ => Plus,
            },
            b'-' => match next {
                b'-' => Dec,
                b'=' => SubAssign,
                b'>' => Arrow,
                _ => Minus,
            },
            b'*' => match next {
                b'=' => MulAssign,
                _ => Star,
            },
            b'%' => match next {
                b'=' => RemAssign,
                _ => Percent,
            },
            b'<' => match next {
                b'<' if bytes.get(i + 2) == Some(&b'=') => ShlAssign,
                b'<' => Shl,
                b'=' => Le,
                _ => Lt,
            },
            b'>' => match next {
                b'>' if bytes.get(i + 2) == Some(&b'=') => ShrAssign,
                b'>' => Shr,
                b'=' => Ge,
                _ => Gt,
            },
            b'=' => match next {
                b'=' => EqEq,
                _ => Assign,
            },
            b'!' => match next {
                b'=' => Ne,
                _ => Not,
            },
            b'&' => match next {
                b'&' => AndAnd,
                b'=' => AndAssign,
                _ => Amp,
            },
            b'|' => match next {
                b'|' => OrOr,
                b'=' => OrAssign,
                _ => Pipe,
            },
            b'^' => match next {
                b'=' => XorAssign,
                _ => Caret,
            },
            _ => {
                return Err(LexError {
                    message: format!("unexpected character `{}`", char_at(source, i)),
                    loc,
                })
            }
        };
        toks.push(Token {
            tok: Tok::Punct(punct),
            loc,
        });
        i += punct.as_str().len();
    }
    Ok(toks)
}

/// Read the rest of a character constant whose opening quote precedes
/// byte `i`: its value and the offset just past the closing quote, or
/// the error message.
fn char_constant(source: &str, mut i: usize) -> Result<(i64, usize), String> {
    let bytes = source.as_bytes();
    let value = match bytes.get(i) {
        None | Some(b'\n') => return Err("unterminated character constant".into()),
        Some(b'\'') => return Err("empty character constant".into()),
        Some(b'\\') => {
            let Some(&esc) = bytes.get(i + 1) else {
                return Err("unterminated character constant".into());
            };
            let value = match esc {
                b'n' => b'\n' as i64,
                b't' => b'\t' as i64,
                b'r' => b'\r' as i64,
                b'0' => 0,
                b'\\' => b'\\' as i64,
                b'\'' => b'\'' as i64,
                b'"' => b'"' as i64,
                b'a' => 0x07,
                b'b' => 0x08,
                b'f' => 0x0c,
                b'v' => 0x0b,
                _ => {
                    return Err(format!(
                        "unsupported escape sequence `\\{}`",
                        char_at(source, i + 1)
                    ))
                }
            };
            i += 2;
            value
        }
        Some(&plain) => {
            i += 1;
            plain as i64
        }
    };
    if bytes.get(i) != Some(&b'\'') {
        return Err(
            "character constant is unterminated or has more than one character \
                    (multi-character constants have implementation-defined values and \
                    are outside the subset)"
                .into(),
        );
    }
    Ok((value, i + 1))
}

/// Parse and *type* an integer constant (C11 §6.4.4.1): split off the
/// `u`/`l`/`ll` suffix, read the digits in the right base, then take the
/// first type in the standard's candidate list that can represent the
/// value. Decimal constants without a `u` suffix never become unsigned;
/// octal and hexadecimal ones may. A constant no candidate can represent
/// has no type and is refused.
fn parse_int_constant(text: &str) -> Option<CInt> {
    let suffix_len = text
        .bytes()
        .rev()
        .take_while(|b| matches!(b, b'u' | b'U' | b'l' | b'L'))
        .count();
    let (body, suffix) = text.split_at(text.len() - suffix_len);
    // `lL`/`Ll` is not a valid long-long suffix (§6.4.4.1:1), and no
    // valid suffix is longer than three letters.
    if suffix.contains("lL") || suffix.contains("Ll") || suffix_len > 3 {
        return None;
    }
    let mut lower = [0u8; 3];
    for (l, b) in lower.iter_mut().zip(suffix.bytes()) {
        *l = b.to_ascii_lowercase();
    }
    let (has_u, longs) = match &lower[..suffix_len] {
        b"" => (false, 0),
        b"u" => (true, 0),
        b"l" => (false, 1),
        b"ll" => (false, 2),
        b"ul" | b"lu" => (true, 1),
        b"ull" | b"llu" => (true, 2),
        _ => return None,
    };
    let (value, decimal) =
        if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
            (u128::from_str_radix(hex, 16).ok()?, false)
        } else if body.len() > 1 && body.starts_with('0') {
            // A leading zero makes the constant octal (C11 §6.4.4.1); this
            // also rejects `8`/`9` digits rather than reinterpreting them.
            (u128::from_str_radix(&body[1..], 8).ok()?, false)
        } else if !body.is_empty() && body.bytes().all(|b| b.is_ascii_digit()) {
            (body.parse::<u128>().ok()?, true)
        } else {
            return None;
        };
    use IntTy::*;
    let candidates: &[IntTy] = match (has_u, longs, decimal) {
        (false, 0, true) => &[Int, Long, LongLong],
        (false, 0, false) => &[Int, UInt, Long, ULong, LongLong, ULongLong],
        (true, 0, _) => &[UInt, ULong, ULongLong],
        (false, 1, true) => &[Long, LongLong],
        (false, 1, false) => &[Long, ULong, LongLong, ULongLong],
        (true, 1, _) => &[ULong, ULongLong],
        (false, 2, true) => &[LongLong],
        (false, 2, false) => &[LongLong, ULongLong],
        (true, 2, _) => &[ULongLong],
        _ => unreachable!("longs is 0..=2"),
    };
    if value > u64::MAX as u128 {
        return None;
    }
    let v = value as i128;
    candidates
        .iter()
        .find(|ty| ty.contains(v))
        .map(|&ty| CInt::new(v, ty))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cundef_ub::SourceLoc;

    fn lex1(source: &str) -> Result<Vec<Token>, LexError> {
        lex(source, &mut Interner::new())
    }

    /// The punctuators of `source`, spelled back; identifiers as `id`.
    fn spell(source: &str) -> Vec<&'static str> {
        lex1(source)
            .unwrap()
            .iter()
            .map(|t| match t.tok {
                Tok::Punct(p) => p.as_str(),
                Tok::Ident(_) => "id",
                Tok::Int(_) => "int",
            })
            .collect()
    }

    #[test]
    fn maximal_munch_prefers_longest_punct() {
        let toks = lex1("a<<=b").unwrap();
        assert_eq!(toks[1].tok, Tok::Punct(Punct::ShlAssign));
    }

    #[test]
    fn every_punctuator_lexes_to_its_spelling() {
        const ALL: [&str; 44] = [
            "<<=", ">>=", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=",
            "*=", "/=", "%=", "&=", "^=", "|=", "->", "+", "-", "*", "/", "%", "<", ">", "=", "!",
            "~", "&", "^", "|", "?", ":", ";", ",", "(", ")", "{", "}", "[", "]",
        ];
        let mut seen = Vec::new();
        for text in ALL {
            let toks = lex1(text).unwrap();
            assert_eq!(toks.len(), 1, "{text}");
            let Tok::Punct(p) = toks[0].tok else {
                panic!("{text} is not a punctuator");
            };
            assert_eq!(p.as_str(), text);
            assert!(!seen.contains(&p), "{text} shares a variant");
            seen.push(p);
        }
    }

    #[test]
    fn maximal_munch_splits_runs_of_operators() {
        assert_eq!(spell("a+++b"), ["id", "++", "+", "id"]);
        assert_eq!(spell("x-->y"), ["id", "--", ">", "id"]);
        assert_eq!(spell("a<<=b"), ["id", "<<=", "id"]);
        assert_eq!(spell("a>>=b"), ["id", ">>=", "id"]);
        assert_eq!(spell("p->x"), ["id", "->", "id"]);
        assert_eq!(spell("a&&=b"), ["id", "&&", "=", "id"]);
        assert_eq!(spell("a<<<b"), ["id", "<<", "<", "id"]);
        assert_eq!(spell("a/ =b"), ["id", "/", "=", "id"]);
    }

    #[test]
    fn whitespace_is_exactly_ascii_whitespace() {
        let toks = lex1("a \t\n\x0c\r b").unwrap();
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1].loc, SourceLoc::new(2, 4));
        let err = lex1("a\x0bb").unwrap_err();
        assert_eq!(err.message, "unexpected character `\u{b}`");
        assert_eq!(err.loc, SourceLoc::new(1, 2));
    }

    #[test]
    fn comments_and_positions() {
        let toks = lex1("// c\n/* block\n*/ x").unwrap();
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].loc, SourceLoc::new(3, 4));
    }

    #[test]
    fn columns_count_bytes_after_a_multiline_comment_with_utf8() {
        // `é` is two bytes and `→` three; columns stay byte offsets.
        let toks = lex1("int /* é\n → ok */ x; y\n  z").unwrap();
        let locs: Vec<SourceLoc> = toks.iter().map(|t| t.loc).collect();
        assert_eq!(
            locs,
            [
                SourceLoc::new(1, 1),
                SourceLoc::new(2, 12),
                SourceLoc::new(2, 13),
                SourceLoc::new(2, 15),
                SourceLoc::new(3, 3),
            ]
        );
    }

    #[test]
    fn identifiers_intern_to_the_same_symbol() {
        let mut interner = Interner::new();
        let toks = lex("abc xyz abc", &mut interner).unwrap();
        assert_eq!(toks[0].tok, toks[2].tok);
        assert_ne!(toks[0].tok, toks[1].tok);
        let Tok::Ident(sym) = toks[0].tok else {
            panic!("expected identifier");
        };
        assert_eq!(interner.resolve(sym), "abc");
    }

    #[test]
    fn keywords_intern_to_their_fixed_symbols() {
        let toks = lex1("while free").unwrap();
        assert_eq!(toks[0].tok, Tok::Ident(crate::intern::kw::WHILE));
        assert_eq!(toks[1].tok, Tok::Ident(crate::intern::kw::FREE));
    }

    #[test]
    fn identifiers_that_start_with_a_keyword_are_new_identifiers() {
        let mut interner = Interner::new();
        let toks = lex("integer _Bool1 mainly int", &mut interner).unwrap();
        for (t, text) in toks.iter().zip(["integer", "_Bool1", "mainly"]) {
            let Tok::Ident(sym) = t.tok else {
                panic!("expected identifier");
            };
            assert!(!sym.is_keyword(), "{text}");
            assert_ne!(sym, crate::intern::kw::MAIN);
            assert_eq!(interner.resolve(sym), text);
        }
        assert_eq!(toks[3].tok, Tok::Ident(crate::intern::kw::INT));
    }

    /// The first token of `source`, which must be an integer constant.
    fn int1(source: &str) -> CInt {
        match lex1(source).unwrap()[0].tok {
            Tok::Int(c) => c,
            other => panic!("expected constant, got {other:?}"),
        }
    }

    #[test]
    fn hex_constants() {
        assert_eq!(int1("0x10").math(), 16);
        assert_eq!(int1("0x1F").ty, IntTy::Int);
        // A hex constant too big for int may become unsigned int
        // (§6.4.4.1's list differs from the decimal one).
        assert_eq!(int1("0xFFFFFFFF").ty, IntTy::UInt);
        assert_eq!(int1("0xFFFFFFFF").math(), 4294967295);
        // `unsigned long` precedes `unsigned long long` in the hex
        // candidate list and already fits 64 bits on LP64.
        assert_eq!(int1("0xFFFFFFFFFFFFFFFF").ty, IntTy::ULong);
    }

    #[test]
    fn octal_constants() {
        assert_eq!(int1("010").math(), 8);
        assert_eq!(int1("0").math(), 0);
        // `09` is not a valid octal constant (§6.4.4.1) and must fail
        // loudly instead of being reinterpreted as decimal.
        assert!(lex1("09").is_err());
    }

    #[test]
    fn constants_take_the_first_fitting_type() {
        assert_eq!(int1("2147483647").ty, IntTy::Int);
        // A decimal constant one past INT_MAX is a (signed) long on
        // LP64 — never unsigned without a `u` suffix.
        assert_eq!(int1("2147483648").ty, IntTy::Long);
        assert_eq!(int1("9223372036854775807").ty, IntTy::Long);
        // …and past LLONG_MAX a decimal constant has no type at all.
        assert!(lex1("9223372036854775808").is_err());
        assert!(lex1("18446744073709551615u").is_ok());
    }

    #[test]
    fn suffixes_select_types() {
        assert_eq!(int1("1u").ty, IntTy::UInt);
        assert_eq!(int1("1U").ty, IntTy::UInt);
        assert_eq!(int1("1l").ty, IntTy::Long);
        assert_eq!(int1("1L").ty, IntTy::Long);
        assert_eq!(int1("1ll").ty, IntTy::LongLong);
        assert_eq!(int1("1ul").ty, IntTy::ULong);
        assert_eq!(int1("1lu").ty, IntTy::ULong);
        assert_eq!(int1("1ull").ty, IntTy::ULongLong);
        assert_eq!(int1("4294967295u").ty, IntTy::UInt);
        assert_eq!(int1("4294967296u").ty, IntTy::ULong);
        assert_eq!(int1("0x10uL").ty, IntTy::ULong);
        // Invalid suffixes are refused, including the mixed-case ll.
        assert!(lex1("1uu").is_err());
        assert!(lex1("1lL").is_err());
        assert!(lex1("1lll").is_err());
        assert!(lex1("1ulul").is_err());
        assert!(lex1("1x").is_err());
    }

    #[test]
    fn character_constants_are_int_typed() {
        assert_eq!(int1("'a'").math(), 97);
        assert_eq!(int1("'a'").ty, IntTy::Int);
        assert_eq!(int1("'\\n'").math(), 10);
        assert_eq!(int1("'\\0'").math(), 0);
        assert_eq!(int1("'\\''").math(), 39);
        assert_eq!(int1("'\\\\'").math(), 92);
        // Empty, multi-character, unterminated, and unknown escapes all
        // fail loudly.
        assert!(lex1("''").is_err());
        assert!(lex1("'ab'").is_err());
        assert!(lex1("'a").is_err());
        assert!(lex1("'\\q'").is_err());
    }

    #[test]
    fn unterminated_comment_is_reported_at_its_start() {
        let err = lex1("int x;\n/* never closed").unwrap_err();
        assert!(err.message.contains("unterminated comment"), "{err}");
        assert_eq!(err.loc, SourceLoc::new(2, 1));
    }

    #[test]
    fn unknown_character_is_reported_with_position() {
        let err = lex1("x @").unwrap_err();
        assert_eq!(err.loc, SourceLoc::new(1, 3));
    }

    #[test]
    fn non_ascii_characters_are_named_whole() {
        let err = lex1("int é = 1;").unwrap_err();
        assert_eq!(err.message, "unexpected character `é`");
        assert_eq!(err.loc, SourceLoc::new(1, 5));
        let err = lex1("int x;\n  /* ü */ €").unwrap_err();
        assert_eq!(err.message, "unexpected character `€`");
        assert_eq!(err.loc, SourceLoc::new(2, 12));
        let err = lex1("'\\é'").unwrap_err();
        assert_eq!(err.message, "unsupported escape sequence `\\é`");
        assert_eq!(err.loc, SourceLoc::new(1, 1));
    }
}
