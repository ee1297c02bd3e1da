//! A hand-rolled, dependency-free Rust lexer — just enough fidelity for
//! the lint rules: it must never mistake the *contents* of a string,
//! comment or doc example for code, and it must keep exact line/column
//! positions so diagnostics are clickable.
//!
//! Handled precisely:
//!
//! * raw strings `r"…"`, `r#"…"#` (any number of hashes), byte and raw
//!   byte strings, and raw identifiers `r#match`;
//! * nested block comments `/* /* … */ */` and line comments (doc
//!   comments are comments — code inside them is doctest text, not
//!   library code);
//! * lifetimes (`'a`, `'static`) vs. char literals (`'a'`, `'\''`);
//! * numeric literals including suffixes (`1u64`), hex/octal/binary, and
//!   the `0..10` range ambiguity (`..` is never swallowed into a float);
//! * multi-char punctuation the rules care about (`::`, `=>`, `..`,
//!   `->`); everything else is emitted one char at a time.
//!
//! The lexer is total: any byte sequence produces a token stream, never a
//! panic — unterminated literals simply extend to end of file.

/// What a token is; the rule engine mostly switches on this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (keywords are not distinguished — rules
    /// match on the text where it matters).
    Ident,
    /// A lifetime such as `'a` (without the quote in `text`? no — `text`
    /// keeps the leading quote, e.g. `'a`).
    Lifetime,
    /// Integer literal, suffix included (`42`, `0xFF`, `1_000u64`).
    Int,
    /// Float literal (`1.0`, `2e-3`).
    Float,
    /// String, byte-string, or C-string literal (escaped form).
    Str,
    /// Raw (byte) string literal, any hash depth.
    RawStr,
    /// Char or byte literal (`'a'`, `b'\n'`).
    Char,
    /// Punctuation; `text` is the operator (`::`, `=>`, `..`, `->`, or a
    /// single character).
    Punct,
}

/// One lexed token with its exact source position (1-based line/col).
#[derive(Clone, Debug)]
pub struct Token {
    /// The token class.
    pub kind: TokenKind,
    /// The source text of the token.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

impl Token {
    /// True iff the token is punctuation with exactly this text.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }

    /// True iff the token is an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }
}

/// A comment (line or block) with its position — kept out of the code
/// token stream but scanned for `lint:allow` escape hatches.
#[derive(Clone, Debug)]
pub struct Comment {
    /// The comment text including its delimiters.
    pub text: String,
    /// 1-based line where the comment starts.
    pub line: u32,
    /// 1-based line where the comment ends (same as `line` for line
    /// comments).
    pub end_line: u32,
    /// True iff code precedes the comment on its starting line (a
    /// trailing comment annotates its own line, a standalone one the
    /// next).
    pub trailing: bool,
}

/// The output of [`lex`]: code tokens and comments, separately.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, n: usize) -> Option<u8> {
        self.src.get(self.pos + n).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xC0 != 0x80 {
            // count characters, not continuation bytes
            self.col += 1;
        }
        Some(b)
    }

    fn eat_while(&mut self, f: impl Fn(u8) -> bool) {
        while let Some(b) = self.peek() {
            if f(b) {
                self.bump();
            } else {
                break;
            }
        }
    }

    fn slice(&self, from: usize) -> String {
        String::from_utf8_lossy(&self.src[from..self.pos]).into_owned()
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes a complete source file. Total: never fails, never panics.
pub fn lex(src: &str) -> Lexed {
    let mut c = Cursor::new(src);
    let mut out = Lexed::default();
    let mut line_has_code = false;
    let mut last_line = 1u32;
    while let Some(b) = c.peek() {
        if c.line != last_line {
            line_has_code = false;
            last_line = c.line;
        }
        let (line, col, start) = (c.line, c.col, c.pos);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
            }
            b'/' if c.peek_at(1) == Some(b'/') => {
                c.eat_while(|b| b != b'\n');
                out.comments.push(Comment {
                    text: c.slice(start),
                    line,
                    end_line: line,
                    trailing: line_has_code,
                });
            }
            b'/' if c.peek_at(1) == Some(b'*') => {
                c.bump();
                c.bump();
                let mut depth = 1u32;
                while depth > 0 {
                    match (c.peek(), c.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            c.bump();
                            c.bump();
                            depth += 1;
                        }
                        (Some(b'*'), Some(b'/')) => {
                            c.bump();
                            c.bump();
                            depth -= 1;
                        }
                        (Some(_), _) => {
                            c.bump();
                        }
                        (None, _) => break, // unterminated: runs to EOF
                    }
                }
                out.comments.push(Comment {
                    text: c.slice(start),
                    line,
                    end_line: c.line,
                    trailing: line_has_code,
                });
            }
            b'r' | b'b' | b'c' if starts_raw_or_byte(&c) => {
                let kind = lex_prefixed_literal(&mut c);
                out.tokens.push(Token {
                    kind,
                    text: c.slice(start),
                    line,
                    col,
                });
                line_has_code = true;
            }
            b'r' if c.peek_at(1) == Some(b'#') && c.peek_at(2).is_some_and(is_ident_start) => {
                // raw identifier `r#match`: one Ident token, `#` included
                c.bump();
                c.bump();
                c.eat_while(is_ident_continue);
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: c.slice(start),
                    line,
                    col,
                });
                line_has_code = true;
            }
            _ if is_ident_start(b) => {
                c.eat_while(is_ident_continue);
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: c.slice(start),
                    line,
                    col,
                });
                line_has_code = true;
            }
            b'0'..=b'9' => {
                let kind = lex_number(&mut c);
                out.tokens.push(Token {
                    kind,
                    text: c.slice(start),
                    line,
                    col,
                });
                line_has_code = true;
            }
            b'"' => {
                lex_string(&mut c);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text: c.slice(start),
                    line,
                    col,
                });
                line_has_code = true;
            }
            b'\'' => {
                let kind = lex_quote(&mut c);
                out.tokens.push(Token {
                    kind,
                    text: c.slice(start),
                    line,
                    col,
                });
                line_has_code = true;
            }
            _ => {
                let text = lex_punct(&mut c);
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text,
                    line,
                    col,
                });
                line_has_code = true;
            }
        }
    }
    out
}

/// Does the cursor sit on a prefixed literal (`r"`, `r#"`, `b"`, `b'`,
/// `br"`, `br#"`, `c"`, …) rather than a plain identifier starting with
/// `r`/`b`/`c`? Raw identifiers (`r#match`) are *not* literals.
fn starts_raw_or_byte(c: &Cursor<'_>) -> bool {
    let b0 = c.peek();
    let b1 = c.peek_at(1);
    match (b0, b1) {
        (Some(b'r'), Some(b'"')) => true,
        (Some(b'r'), Some(b'#')) => {
            // r#"…"# is a raw string; r#ident is a raw identifier
            let mut n = 2;
            while c.peek_at(n) == Some(b'#') {
                n += 1;
            }
            c.peek_at(n) == Some(b'"')
        }
        (Some(b'b'), Some(b'"')) | (Some(b'b'), Some(b'\'')) | (Some(b'c'), Some(b'"')) => true,
        (Some(b'b'), Some(b'r')) => match c.peek_at(2) {
            Some(b'"') => true,
            Some(b'#') => {
                let mut n = 3;
                while c.peek_at(n) == Some(b'#') {
                    n += 1;
                }
                c.peek_at(n) == Some(b'"')
            }
            _ => false,
        },
        _ => false,
    }
}

/// Lexes a literal with an `r`/`b`/`br`/`c` prefix (the cursor sits on
/// the prefix and `starts_raw_or_byte` returned true).
fn lex_prefixed_literal(c: &mut Cursor<'_>) -> TokenKind {
    let mut raw = false;
    // consume the prefix letters
    while matches!(c.peek(), Some(b'r' | b'b' | b'c')) {
        if c.peek() == Some(b'r') {
            raw = true;
        }
        c.bump();
        if matches!(c.peek(), Some(b'"' | b'#' | b'\'')) {
            break;
        }
    }
    if raw {
        let mut hashes = 0usize;
        while c.peek() == Some(b'#') {
            hashes += 1;
            c.bump();
        }
        c.bump(); // opening quote
                  // scan to `"` followed by `hashes` hashes
        loop {
            match c.peek() {
                None => break,
                Some(b'"') => {
                    c.bump();
                    let mut seen = 0usize;
                    while seen < hashes && c.peek() == Some(b'#') {
                        c.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        break;
                    }
                }
                Some(_) => {
                    c.bump();
                }
            }
        }
        TokenKind::RawStr
    } else if c.peek() == Some(b'\'') {
        lex_quote(c)
    } else {
        lex_string(c);
        TokenKind::Str
    }
}

/// Lexes a `"…"` string with escapes; the cursor sits on the opening
/// quote.
fn lex_string(c: &mut Cursor<'_>) {
    c.bump(); // opening quote
    loop {
        match c.peek() {
            None => break, // unterminated: runs to EOF
            Some(b'\\') => {
                c.bump();
                c.bump(); // the escaped char (fine for \", \\, \n, …)
            }
            Some(b'"') => {
                c.bump();
                break;
            }
            Some(_) => {
                c.bump();
            }
        }
    }
}

/// Disambiguates `'a` (lifetime) from `'a'` / `'\n'` (char literal); the
/// cursor sits on the quote.
fn lex_quote(c: &mut Cursor<'_>) -> TokenKind {
    c.bump(); // the quote
    match c.peek() {
        Some(b'\\') => {
            // escape: definitely a char literal
            c.bump();
            c.bump();
            c.eat_while(|b| b != b'\'');
            c.bump();
            TokenKind::Char
        }
        Some(b) if is_ident_start(b) => {
            // could be 'a' (char) or 'a / 'static (lifetime): scan the
            // identifier run and look for a closing quote
            c.eat_while(is_ident_continue);
            if c.peek() == Some(b'\'') {
                c.bump();
                TokenKind::Char
            } else {
                TokenKind::Lifetime
            }
        }
        Some(_) => {
            // e.g. '(' — a plain char literal
            c.bump();
            if c.peek() == Some(b'\'') {
                c.bump();
            }
            TokenKind::Char
        }
        None => TokenKind::Lifetime,
    }
}

/// Lexes a numeric literal; the cursor sits on its first digit. Careful
/// with `0..10` (range, not float) and `1.max(2)` (method call on an
/// integer).
fn lex_number(c: &mut Cursor<'_>) -> TokenKind {
    let mut float = false;
    if c.peek() == Some(b'0') && matches!(c.peek_at(1), Some(b'x' | b'o' | b'b')) {
        c.bump();
        c.bump();
        c.eat_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        return TokenKind::Int;
    }
    c.eat_while(|b| b.is_ascii_digit() || b == b'_');
    if c.peek() == Some(b'.') {
        match c.peek_at(1) {
            // `0..10`: the dot belongs to the range operator
            Some(b'.') => {}
            // `1.max(2)`: the dot is a method call
            Some(b) if is_ident_start(b) => {}
            _ => {
                float = true;
                c.bump();
                c.eat_while(|b| b.is_ascii_digit() || b == b'_');
            }
        }
    }
    if matches!(c.peek(), Some(b'e' | b'E'))
        && (matches!(c.peek_at(1), Some(b'+' | b'-'))
            || c.peek_at(1).is_some_and(|b| b.is_ascii_digit()))
    {
        float = true;
        c.bump();
        if matches!(c.peek(), Some(b'+' | b'-')) {
            c.bump();
        }
        c.eat_while(|b| b.is_ascii_digit() || b == b'_');
    }
    // type suffix (u64, f32, …)
    let suffix_start = c.pos;
    c.eat_while(is_ident_continue);
    let had_float_suffix = {
        let s = &c.src[suffix_start..c.pos];
        s.starts_with(b"f32") || s.starts_with(b"f64")
    };
    if float || had_float_suffix {
        TokenKind::Float
    } else {
        TokenKind::Int
    }
}

/// Lexes punctuation, combining only the multi-char operators the rules
/// look at (`::`, `=>`, `..`, `->`).
fn lex_punct(c: &mut Cursor<'_>) -> String {
    let two = match (c.peek(), c.peek_at(1)) {
        (Some(b':'), Some(b':')) => Some("::"),
        (Some(b'='), Some(b'>')) => Some("=>"),
        (Some(b'.'), Some(b'.')) => Some(".."),
        (Some(b'-'), Some(b'>')) => Some("->"),
        _ => None,
    };
    if let Some(op) = two {
        c.bump();
        c.bump();
        op.to_string()
    } else {
        let b = c.bump().unwrap_or(b' ');
        (b as char).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn raw_string_contents_are_not_code() {
        let toks = kinds(r####"let s = r#"x.unwrap() /* not code */"#;"####);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::RawStr && t.contains("unwrap")));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
    }

    #[test]
    fn raw_identifier_is_an_identifier_not_a_string() {
        let toks = kinds("let r#match = 1;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "r#match"));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let lexed = lex("a /* outer /* inner.unwrap() */ still comment */ b");
        let idents: Vec<_> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(idents, ["a", "b"]);
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("inner"));
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn ranges_are_not_floats() {
        let toks = kinds("for i in 0..10 { x[i]; } let f = 1.5; let m = 2.max(3);");
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Int && t == "0"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Punct && t == ".."));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Float && t == "1.5"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Int && t == "2"));
    }

    #[test]
    fn positions_are_one_based_lines_and_cols() {
        let lexed = lex("ab\n  cd");
        assert_eq!((lexed.tokens[0].line, lexed.tokens[0].col), (1, 1));
        assert_eq!((lexed.tokens[1].line, lexed.tokens[1].col), (2, 3));
    }

    #[test]
    fn trailing_and_standalone_comments_are_distinguished() {
        let lexed = lex("let x = 1; // trailing\n// standalone\nlet y = 2;");
        assert!(lexed.comments[0].trailing);
        assert!(!lexed.comments[1].trailing);
    }

    #[test]
    fn byte_and_c_strings_lex_as_strings() {
        let toks = kinds(r##"let a = b"bytes"; let b = b'x'; let c = br#"raw.unwrap()"#;"##);
        assert!(toks.iter().any(|(k, _)| *k == TokenKind::Str));
        assert!(toks.iter().any(|(k, _)| *k == TokenKind::Char));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        let _ = lex("let s = \"unterminated");
        let _ = lex("let s = r#\"unterminated");
        let _ = lex("/* unterminated");
        let _ = lex("'");
    }

    #[test]
    fn doc_comments_are_comments() {
        let lexed = lex("/// example: `x.unwrap()`\nfn f() {}");
        assert!(!lexed.tokens.iter().any(|t| t.text == "unwrap"));
        assert!(lexed.comments[0].text.contains("unwrap"));
    }
}
