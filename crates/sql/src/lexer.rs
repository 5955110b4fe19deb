//! The lexer: turns SQL text into a token stream.
//!
//! Supports `--` line comments and `/* ... */` block comments, single
//! quoted strings with `''` escapes, double-quoted identifiers, and the
//! usual numeric literal forms.

use crate::error::{SqlError, SqlResult};
use crate::token::{Keyword, Span, Token, TokenKind};

/// Lexes `input` to a vector of tokens ending in [`TokenKind::Eof`].
pub fn lex(input: &str) -> SqlResult<Vec<Token>> {
    Lexer::new(input).run()
}

/// The *template key* of `sql` and its string literals, in one byte
/// pass: the key is `sql` with the contents of every `'…'` literal cut
/// out (the quotes stay), and the values are those literals as [`lex`]
/// reads them (`''` unescaped), in order. Two texts with equal keys lex
/// to the same tokens apart from their [`TokenKind::Str`] payloads.
///
/// The pass follows the lexer's rules for what is not a literal:
/// `"…"` identifiers and `--` / `/* */` comments are copied as they
/// stand, so a `'` inside them opens nothing. `None` where a literal,
/// a quoted identifier or a block comment is unterminated (the lexer
/// rejects those texts).
pub fn template_key(sql: &str) -> Option<(String, Vec<String>)> {
    let bytes = sql.as_bytes();
    let find = |from: usize, byte: u8| {
        bytes[from..]
            .iter()
            .position(|&b| b == byte)
            .map(|at| from + at)
    };
    let mut key = String::with_capacity(sql.len());
    let mut values = Vec::new();
    // `sql[copied..i]` is text outside literals not yet in `key`
    let (mut copied, mut i) = (0, 0);
    while i < bytes.len() {
        i = match (bytes[i], bytes.get(i + 1)) {
            (b'\'', _) => {
                key.push_str(&sql[copied..=i]);
                let mut value = String::new();
                let mut from = i + 1;
                let close = loop {
                    let quote = find(from, b'\'')?;
                    value.push_str(&sql[from..quote]);
                    if bytes.get(quote + 1) != Some(&b'\'') {
                        break quote;
                    }
                    value.push('\'');
                    from = quote + 2;
                };
                values.push(value);
                copied = close;
                close + 1
            }
            (b'"', _) => find(i + 1, b'"')? + 1,
            (b'-', Some(b'-')) => find(i, b'\n').unwrap_or(bytes.len()),
            (b'/', Some(b'*')) => {
                let mut star = find(i + 2, b'*')?;
                while bytes.get(star + 1) != Some(&b'/') {
                    star = find(star + 1, b'*')?;
                }
                star + 2
            }
            _ => i + 1,
        };
    }
    key.push_str(&sql[copied..]);
    Some((key, values))
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    input: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Lexer<'a> {
        Lexer {
            chars: input.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            input,
        }
    }

    fn span(&self) -> Span {
        Span::new(self.line, self.col)
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn run(mut self) -> SqlResult<Vec<Token>> {
        let mut tokens = Vec::new();
        loop {
            self.skip_trivia()?;
            let span = self.span();
            let Some(c) = self.peek() else {
                tokens.push(Token::new(TokenKind::Eof, span));
                return Ok(tokens);
            };
            let kind = match c {
                '(' => {
                    self.bump();
                    TokenKind::LParen
                }
                ')' => {
                    self.bump();
                    TokenKind::RParen
                }
                ',' => {
                    self.bump();
                    TokenKind::Comma
                }
                ';' => {
                    self.bump();
                    TokenKind::Semicolon
                }
                '.' => {
                    self.bump();
                    TokenKind::Dot
                }
                '*' => {
                    self.bump();
                    TokenKind::Star
                }
                '+' => {
                    self.bump();
                    TokenKind::Plus
                }
                '-' => {
                    self.bump();
                    TokenKind::Minus
                }
                '/' => {
                    self.bump();
                    TokenKind::Slash
                }
                '%' => {
                    self.bump();
                    TokenKind::Percent
                }
                '=' => {
                    self.bump();
                    TokenKind::Eq
                }
                '!' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        TokenKind::NotEq
                    } else {
                        return Err(SqlError::new("expected '=' after '!'", span));
                    }
                }
                '<' => {
                    self.bump();
                    match self.peek() {
                        Some('=') => {
                            self.bump();
                            TokenKind::LtEq
                        }
                        Some('>') => {
                            self.bump();
                            TokenKind::NotEq
                        }
                        _ => TokenKind::Lt,
                    }
                }
                '>' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        TokenKind::GtEq
                    } else {
                        TokenKind::Gt
                    }
                }
                '\'' => self.lex_string(span)?,
                '"' => self.lex_quoted_ident(span)?,
                c if c.is_ascii_digit() => self.lex_number(span)?,
                c if c.is_alphabetic() || c == '_' => self.lex_word(),
                other => {
                    return Err(SqlError::new(
                        format!("unexpected character '{other}'"),
                        span,
                    ));
                }
            };
            tokens.push(Token::new(kind, span));
        }
    }

    fn skip_trivia(&mut self) -> SqlResult<()> {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('-') if self.peek2() == Some('-') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some('/') if self.peek2() == Some('*') => {
                    let start = self.span();
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some('*'), Some('/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => {
                                return Err(SqlError::new("unterminated block comment", start));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_string(&mut self, span: Span) -> SqlResult<TokenKind> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('\'') => {
                    if self.peek() == Some('\'') {
                        self.bump();
                        s.push('\'');
                    } else {
                        return Ok(TokenKind::Str(s));
                    }
                }
                Some(c) => s.push(c),
                None => return Err(SqlError::new("unterminated string literal", span)),
            }
        }
    }

    fn lex_quoted_ident(&mut self, span: Span) -> SqlResult<TokenKind> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(TokenKind::Ident(s)),
                Some(c) => s.push(c),
                None => return Err(SqlError::new("unterminated quoted identifier", span)),
            }
        }
    }

    fn lex_number(&mut self, span: Span) -> SqlResult<TokenKind> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == Some('.') && matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            let mut look = self.pos + 1;
            if matches!(self.chars.get(look), Some('+' | '-')) {
                look += 1;
            }
            if matches!(self.chars.get(look), Some(c) if c.is_ascii_digit()) {
                is_float = true;
                self.bump(); // e
                if matches!(self.peek(), Some('+' | '-')) {
                    self.bump();
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.bump();
                }
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        if is_float {
            text.parse::<f64>()
                .map(TokenKind::Float)
                .map_err(|e| SqlError::new(format!("bad float literal '{text}': {e}"), span))
        } else {
            text.parse::<i64>()
                .map(TokenKind::Int)
                .map_err(|e| SqlError::new(format!("bad integer literal '{text}': {e}"), span))
        }
    }

    fn lex_word(&mut self) -> TokenKind {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_') {
            self.bump();
        }
        let word: String = self.chars[start..self.pos].iter().collect();
        match Keyword::parse(&word) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(word),
        }
    }
}

// Silence an unused-field warning: `input` is retained for future
// snippet-quoting in error messages.
impl std::fmt::Debug for Lexer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lexer")
            .field("pos", &self.pos)
            .field("input_len", &self.input.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        lex(input).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_the_papers_kramer_query() {
        let sql = "SELECT 'Kramer', fno INTO ANSWER Reservation \
                   WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
                   AND ('Jerry', fno) IN ANSWER Reservation \
                   CHOOSE 1";
        let toks = kinds(sql);
        assert_eq!(toks[0], TokenKind::Keyword(Keyword::Select));
        assert_eq!(toks[1], TokenKind::Str("Kramer".into()));
        assert_eq!(toks[2], TokenKind::Comma);
        assert_eq!(toks[3], TokenKind::Ident("fno".into()));
        assert_eq!(toks[4], TokenKind::Keyword(Keyword::Into));
        assert_eq!(toks[5], TokenKind::Keyword(Keyword::Answer));
        assert!(toks.contains(&TokenKind::Keyword(Keyword::Choose)));
        assert_eq!(toks.last(), Some(&TokenKind::Eof));
    }

    #[test]
    fn operators_and_punctuation() {
        assert_eq!(
            kinds("= != <> < <= > >= + - * / % ( ) , ; ."),
            vec![
                TokenKind::Eq,
                TokenKind::NotEq,
                TokenKind::NotEq,
                TokenKind::Lt,
                TokenKind::LtEq,
                TokenKind::Gt,
                TokenKind::GtEq,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Star,
                TokenKind::Slash,
                TokenKind::Percent,
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::Comma,
                TokenKind::Semicolon,
                TokenKind::Dot,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42")[0], TokenKind::Int(42));
        assert_eq!(kinds("4.25")[0], TokenKind::Float(4.25));
        assert_eq!(kinds("1e3")[0], TokenKind::Float(1000.0));
        assert_eq!(kinds("2.5E-1")[0], TokenKind::Float(0.25));
        // dot not followed by digit is a separate token (qualified name)
        assert_eq!(
            kinds("t.1")[..2],
            [TokenKind::Ident("t".into()), TokenKind::Dot]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(kinds("'O''Hare'")[0], TokenKind::Str("O'Hare".into()));
        assert_eq!(kinds("''")[0], TokenKind::Str(String::new()));
    }

    #[test]
    fn unterminated_string_is_error() {
        let err = lex("'oops").unwrap_err();
        assert!(err.message.contains("unterminated string"));
        assert_eq!(err.span, Span::new(1, 1));
    }

    #[test]
    fn quoted_identifiers() {
        assert_eq!(kinds("\"Select\"")[0], TokenKind::Ident("Select".into()));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = kinds("SELECT -- the head\n 1 /* inline\nblock */ , 2");
        assert_eq!(
            toks,
            vec![
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Int(1),
                TokenKind::Comma,
                TokenKind::Int(2),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn unterminated_block_comment_is_error() {
        assert!(lex("/* nope").is_err());
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let toks = lex("SELECT\n  fno").unwrap();
        assert_eq!(toks[0].span, Span::new(1, 1));
        assert_eq!(toks[1].span, Span::new(2, 3));
    }

    #[test]
    fn keywords_are_case_insensitive_identifiers_preserved() {
        let toks = kinds("select Fno FROM Flights");
        assert_eq!(toks[0], TokenKind::Keyword(Keyword::Select));
        assert_eq!(toks[1], TokenKind::Ident("Fno".into()));
        assert_eq!(toks[3], TokenKind::Ident("Flights".into()));
    }

    #[test]
    fn bang_without_eq_is_error() {
        assert!(lex("!x").is_err());
    }

    #[test]
    fn unexpected_character_is_error() {
        let err = lex("SELECT @").unwrap_err();
        assert!(err.message.contains('@'));
        assert_eq!(err.span, Span::new(1, 8));
    }

    #[test]
    fn template_key_cuts_literal_contents_only() {
        let key = |sql: &str| template_key(sql).map(|(k, v)| (k, v.join("|")));
        let kramer = "SELECT 'Kramer', fno WHERE ('O''Hare', fno) IN ANSWER R -- it's\n";
        assert_eq!(
            key(kramer),
            Some((
                "SELECT '', fno WHERE ('', fno) IN ANSWER R -- it's\n".into(),
                "Kramer|O'Hare".into()
            ))
        );
        // a quote inside a quoted identifier or a comment opens nothing
        assert_eq!(
            key("\"it's\" /* 'x' */ ''"),
            Some(("\"it's\" /* 'x' */ ''".into(), String::new()))
        );
        // numbers, keywords and identifiers stay in the key
        assert_ne!(key("SELECT -1, 'a'"), key("SELECT -2, 'a'"));
        for unterminated in ["'oops", "'it''s", "\"x", "/* x", "/*/"] {
            assert_eq!(key(unterminated), None, "{unterminated}");
            assert!(lex(unterminated).is_err(), "{unterminated}");
        }
    }

    #[test]
    fn underscore_identifiers() {
        assert_eq!(kinds("_tmp_1")[0], TokenKind::Ident("_tmp_1".into()));
    }
}
