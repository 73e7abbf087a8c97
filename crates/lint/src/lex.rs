//! A dependency-free, lossless Rust lexer.
//!
//! Every byte of the input lands in exactly one token, so concatenating
//! `token.text(source)` over the token stream reproduces the source
//! byte-for-byte (the round-trip property `tests/roundtrip.rs` proves
//! over every `.rs` file in the workspace). Rules therefore never
//! confuse code with the inside of a string, comment, or raw string —
//! the false-positive classes of the old line scanner.
//!
//! The lexer is deliberately forgiving: an unterminated literal or a
//! byte it does not understand becomes a one-character [`TokenKind::Punct`]
//! token rather than an error, because a linter must keep walking a file
//! that `rustc` would reject.

use std::fmt;

/// Lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TokenKind {
    /// Horizontal/vertical whitespace run (including newlines).
    Whitespace,
    /// `// ...` through the end of the line (newline not included).
    LineComment,
    /// `/* ... */`, nesting-aware; unterminated comments run to EOF.
    BlockComment,
    /// Identifier or keyword, including raw identifiers (`r#match`).
    Ident,
    /// Lifetime (`'a`, `'static`) — not a char literal.
    Lifetime,
    /// Integer literal, suffix included (`42`, `0xFF_u64`).
    Int,
    /// Float literal (`1.5`, `2e10`, `1.0f64`).
    Float,
    /// String literal of any flavor: `"..."`, `r"..."`, `r#"..."#`,
    /// `b"..."`, `br#"..."#`, `c"..."`.
    Str,
    /// Char or byte literal (`'x'`, `'\n'`, `b'x'`).
    Char,
    /// Any other single character (`{`, `:`, `+`, …). Multi-character
    /// operators are consecutive `Punct` tokens; spans make adjacency
    /// checks exact.
    Punct,
}

/// One token: a classified byte range of the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line number of the first byte.
    pub line: usize,
}

impl Token {
    /// The token's source text.
    pub fn text<'a>(&self, source: &'a str) -> &'a str {
        &source[self.start..self.end]
    }

    /// Whether the token carries code the rules should look at
    /// (everything except whitespace and comments).
    pub fn is_significant(&self) -> bool {
        !matches!(
            self.kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        )
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TokenKind::Whitespace => "whitespace",
            TokenKind::LineComment => "line comment",
            TokenKind::BlockComment => "block comment",
            TokenKind::Ident => "identifier",
            TokenKind::Lifetime => "lifetime",
            TokenKind::Int => "integer",
            TokenKind::Float => "float",
            TokenKind::Str => "string",
            TokenKind::Char => "char",
            TokenKind::Punct => "punct",
        };
        f.write_str(name)
    }
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump_line_counter(&mut self, from: usize) {
        for &b in &self.src[from..self.pos] {
            if b == b'\n' {
                self.line += 1;
            }
        }
    }

    fn is_ident_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
    }

    fn is_ident_continue(b: u8) -> bool {
        b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
    }

    /// Consumes `"..."` from the opening quote; handles escapes.
    fn eat_quoted(&mut self) {
        self.pos += 1; // opening quote
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => self.pos += 2.min(self.src.len() - self.pos),
                b'"' => {
                    self.pos += 1;
                    return;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Consumes `r"..."` / `r#"..."#` starting at the `r` (or after a
    /// `b`/`c` prefix the caller already accounted for). Returns false
    /// if this is not actually a raw string (e.g. `r#match`).
    fn try_eat_raw_string(&mut self) -> bool {
        let start = self.pos;
        self.pos += 1; // 'r'
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        if self.peek(0) != Some(b'"') {
            self.pos = start;
            return false;
        }
        self.pos += 1; // opening quote
        while let Some(b) = self.peek(0) {
            if b == b'"' {
                let mut h = 0;
                while h < hashes && self.peek(1 + h) == Some(b'#') {
                    h += 1;
                }
                if h == hashes {
                    self.pos += 1 + hashes;
                    return true;
                }
            }
            self.pos += 1;
        }
        true // unterminated: runs to EOF
    }

    /// Consumes a numeric literal starting at a digit.
    fn eat_number(&mut self) -> TokenKind {
        let mut kind = TokenKind::Int;
        if self.peek(0) == Some(b'0')
            && matches!(self.peek(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'))
        {
            self.pos += 2;
            while self
                .peek(0)
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
            {
                self.pos += 1;
            }
            return TokenKind::Int;
        }
        while self
            .peek(0)
            .is_some_and(|b| b.is_ascii_digit() || b == b'_')
        {
            self.pos += 1;
        }
        // Fractional part: only when followed by a digit (`1.5`), so
        // `1..2` and `x.0.iter()` keep their dots as punctuation.
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|b| b.is_ascii_digit()) {
            kind = TokenKind::Float;
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|b| b.is_ascii_digit() || b == b'_')
            {
                self.pos += 1;
            }
        }
        // Exponent.
        if matches!(self.peek(0), Some(b'e' | b'E'))
            && (self.peek(1).is_some_and(|b| b.is_ascii_digit())
                || (matches!(self.peek(1), Some(b'+' | b'-'))
                    && self.peek(2).is_some_and(|b| b.is_ascii_digit())))
        {
            kind = TokenKind::Float;
            self.pos += 1;
            if matches!(self.peek(0), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self
                .peek(0)
                .is_some_and(|b| b.is_ascii_digit() || b == b'_')
            {
                self.pos += 1;
            }
        }
        // Suffix (`u64`, `f32`, `usize`); `1.0f64` is a float either way.
        if kind == TokenKind::Int
            && matches!(self.peek(0), Some(b'f'))
            && (self.peek(1) == Some(b'3') || self.peek(1) == Some(b'6'))
        {
            kind = TokenKind::Float;
        }
        while self.peek(0).is_some_and(Self::is_ident_continue) {
            self.pos += 1;
        }
        kind
    }

    fn next_token(&mut self) -> Option<Token> {
        let start = self.pos;
        let line = self.line;
        let b = self.peek(0)?;
        let kind = match b {
            _ if b.is_ascii_whitespace() => {
                while self.peek(0).is_some_and(|b| b.is_ascii_whitespace()) {
                    self.pos += 1;
                }
                TokenKind::Whitespace
            }
            b'/' if self.peek(1) == Some(b'/') => {
                while self.peek(0).is_some_and(|b| b != b'\n') {
                    self.pos += 1;
                }
                TokenKind::LineComment
            }
            b'/' if self.peek(1) == Some(b'*') => {
                self.pos += 2;
                let mut depth = 1usize;
                while depth > 0 {
                    match (self.peek(0), self.peek(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            self.pos += 2;
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            self.pos += 2;
                        }
                        (Some(_), _) => self.pos += 1,
                        (None, _) => break,
                    }
                }
                TokenKind::BlockComment
            }
            b'"' => {
                self.eat_quoted();
                TokenKind::Str
            }
            b'r' if matches!(self.peek(1), Some(b'"' | b'#')) => {
                if self.try_eat_raw_string() {
                    TokenKind::Str
                } else {
                    // `r#match`: raw identifier.
                    self.pos += 2;
                    while self.peek(0).is_some_and(Self::is_ident_continue) {
                        self.pos += 1;
                    }
                    TokenKind::Ident
                }
            }
            b'b' | b'c' if self.peek(1) == Some(b'"') => {
                self.pos += 1;
                self.eat_quoted();
                TokenKind::Str
            }
            b'b' if self.peek(1) == Some(b'r') && matches!(self.peek(2), Some(b'"' | b'#')) => {
                self.pos += 1;
                if self.try_eat_raw_string() {
                    TokenKind::Str
                } else {
                    self.pos -= 1;
                    while self.peek(0).is_some_and(Self::is_ident_continue) {
                        self.pos += 1;
                    }
                    TokenKind::Ident
                }
            }
            b'b' if self.peek(1) == Some(b'\'') => {
                self.pos += 1;
                self.eat_char_literal();
                TokenKind::Char
            }
            b'\'' => {
                // Char literal vs lifetime. `'\..'` and `'x'` are chars;
                // `'ident` with no closing quote is a lifetime.
                if self.peek(1) == Some(b'\\') {
                    self.eat_char_literal();
                    TokenKind::Char
                } else if self.peek(1).is_some_and(Self::is_ident_start) {
                    // Look ahead past the identifier for a closing quote.
                    let mut j = 2;
                    while self.peek(j).is_some_and(Self::is_ident_continue) {
                        j += 1;
                    }
                    if self.peek(j) == Some(b'\'') {
                        self.pos += j + 1;
                        TokenKind::Char
                    } else {
                        self.pos += 1;
                        while self.peek(0).is_some_and(Self::is_ident_continue) {
                            self.pos += 1;
                        }
                        TokenKind::Lifetime
                    }
                } else if self.peek(2) == Some(b'\'') && self.peek(1).is_some() {
                    self.pos += 3;
                    TokenKind::Char
                } else {
                    self.pos += 1;
                    TokenKind::Punct
                }
            }
            _ if b.is_ascii_digit() => self.eat_number(),
            _ if Self::is_ident_start(b) => {
                while self.peek(0).is_some_and(Self::is_ident_continue) {
                    self.pos += 1;
                }
                TokenKind::Ident
            }
            _ => {
                self.pos += 1;
                TokenKind::Punct
            }
        };
        self.bump_line_counter(start);
        Some(Token {
            kind,
            start,
            end: self.pos,
            line,
        })
    }

    /// Consumes `'...'` from the opening quote, escapes included.
    fn eat_char_literal(&mut self) {
        self.pos += 1; // opening quote
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => self.pos += 2.min(self.src.len() - self.pos),
                b'\'' => {
                    self.pos += 1;
                    return;
                }
                b'\n' => return, // unterminated on this line: stop
                _ => self.pos += 1,
            }
        }
    }
}

/// Lexes `source` into a lossless token stream. Never fails; see the
/// module docs for the round-trip guarantee.
pub fn lex(source: &str) -> Vec<Token> {
    let mut lexer = Lexer {
        src: source.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut tokens = Vec::new();
    while let Some(tok) = lexer.next_token() {
        tokens.push(tok);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> String {
        lex(src).iter().map(|t| t.text(src)).collect()
    }

    #[test]
    fn roundtrips_basic_source() {
        let src = "fn main() {\n    let x = 1.5; // done\n}\n";
        assert_eq!(roundtrip(src), src);
    }

    #[test]
    fn roundtrips_strings_and_raw_strings() {
        let src = r####"let a = "hi \" there"; let b = r#"raw " inside"#; let c = b"bytes";"####;
        assert_eq!(roundtrip(src), src);
        let kinds: Vec<TokenKind> = lex(src)
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.kind)
            .collect();
        assert_eq!(kinds.len(), 3);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let toks = lex(src);
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        let chars: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(chars, vec!["'x'"]);
        assert_eq!(roundtrip(src), src);
    }

    #[test]
    fn static_lifetime_and_escaped_char() {
        let src = "let s: &'static str = \"\"; let c = '\\n'; let b = b'\\0';";
        assert_eq!(roundtrip(src), src);
        assert!(lex(src)
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text(src) == "'static"));
    }

    #[test]
    fn comments_do_not_swallow_code() {
        let src = "let a = 1; /* nested /* deep */ still */ let b = 2; // tail";
        assert_eq!(roundtrip(src), src);
        let idents: Vec<&str> = lex(src)
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(idents, vec!["let", "a", "let", "b"]);
    }

    #[test]
    fn numbers_floats_and_ranges() {
        let src = "let a = 0xFF_u64; let b = 1.5e3; let c = 1..2; let d = x.0;";
        assert_eq!(roundtrip(src), src);
        let toks = lex(src);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Int && t.text(src) == "0xFF_u64"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Float && t.text(src) == "1.5e3"));
        // `1..2` lexes as Int Punct Punct Int.
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Int && t.text(src) == "1"));
    }

    #[test]
    fn raw_identifiers() {
        let src = "let r#match = 1; let s = r#\"raw\"#;";
        assert_eq!(roundtrip(src), src);
        assert!(lex(src)
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text(src) == "r#match"));
    }

    #[test]
    fn line_numbers_are_exact() {
        let src = "a\nb\n  c /* x\ny */ d\ne";
        let toks = lex(src);
        let find = |name: &str| {
            toks.iter()
                .find(|t| t.kind == TokenKind::Ident && t.text(src) == name)
                .map(|t| t.line)
        };
        assert_eq!(find("a").unwrap(), 1);
        assert_eq!(find("b").unwrap(), 2);
        assert_eq!(find("c").unwrap(), 3);
        assert_eq!(find("d").unwrap(), 4);
        assert_eq!(find("e").unwrap(), 5);
    }
}
