//! Property tests of `template_key` against the lexer: two texts with
//! equal keys lex to the same tokens apart from their string payloads,
//! and the values the key pass returns are exactly those payloads.
//! Recovery relies on this to rewrite one compiled query per template
//! instead of compiling every text.

use proptest::prelude::*;

use youtopia_sql::{lex, template_key, SqlResult, TokenKind};

/// Text outside string literals, including the forms whose `'` opens
/// nothing: `"…"` identifiers and both comment forms.
const WELL_FORMED: &[&str] = &[
    "SELECT ",
    "fno",
    ", ",
    " INTO ANSWER R ",
    "WHERE ",
    "(",
    ")",
    " = ",
    " - ",
    "42",
    "2.5e-1",
    " AND ",
    " IN ",
    "\n",
    " * ",
    " / ",
    "TRUE",
    "NULL",
    "Zoë",
    "\"it's\"",
    "\"a''b\"",
    "\"--\"",
    "-- it's a comment\n",
    "/* it's '' \"x\" -- */",
    "/**/",
];

/// Pieces that leave a quote or a comment open, or close one that is
/// not open.
const BROKEN: &[&str] = &["'", "\"", "/*", "*/", "--", "''", "'''", "-", "/", "*"];

/// String contents, as the lexer reads them (before `''` escaping).
const CONTENTS: &[&str] = &[
    "",
    "Paris",
    "O'Hare",
    "''",
    "Zoë 東京 🛫",
    "--",
    "/* x */",
    "\"",
    "fno",
    "Reservation",
    "a\nb",
];

/// One piece of a skeleton: text as it stands, or a string literal
/// slot.
#[derive(Debug, Clone)]
enum Piece {
    Text(&'static str),
    Slot,
}

fn piece(broken: bool) -> impl Strategy<Value = Piece> {
    let texts = if broken {
        [WELL_FORMED, BROKEN].concat()
    } else {
        WELL_FORMED.to_vec()
    };
    prop_oneof![
        (0..texts.len()).prop_map(move |i| Piece::Text(texts[i])),
        Just(Piece::Slot),
    ]
}

/// A skeleton and two fillings of its slots.
fn skeleton(broken: bool) -> impl Strategy<Value = (Vec<Piece>, Vec<usize>, Vec<usize>)> {
    let pieces = proptest::collection::vec(piece(broken), 0..14);
    let fill = || proptest::collection::vec(0..CONTENTS.len(), 14);
    (pieces, fill(), fill())
}

fn render(pieces: &[Piece], fill: &[usize]) -> String {
    let mut slots = fill.iter();
    pieces
        .iter()
        .map(|p| match p {
            Piece::Text(t) => t.to_string(),
            Piece::Slot => {
                let content = CONTENTS[*slots.next().unwrap()];
                format!("'{}'", content.replace('\'', "''"))
            }
        })
        .collect()
}

/// The token kinds with every string payload emptied, and the payloads
/// in order.
fn split(tokens: SqlResult<Vec<youtopia_sql::Token>>) -> SqlResult<(Vec<TokenKind>, Vec<String>)> {
    let mut payloads = Vec::new();
    let kinds = tokens?
        .into_iter()
        .map(|t| match t.kind {
            TokenKind::Str(s) => {
                payloads.push(s);
                TokenKind::Str(String::new())
            }
            other => other,
        })
        .collect();
    Ok((kinds, payloads))
}

/// The checks every text passes on its own: the key pass gives up only
/// where the lexer fails too, and wherever the text lexes its values
/// are the string payloads.
fn check_one(sql: &str) -> Result<(), TestCaseError> {
    if let Ok((_, payloads)) = split(lex(sql)) {
        let (_, values) =
            template_key(sql).ok_or_else(|| TestCaseError::fail(format!("no key: {sql:?}")))?;
        prop_assert_eq!(values, payloads, "{:?}", sql);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Texts with equal keys lex alike, whatever quotes or comments
    /// their pieces leave open.
    #[test]
    fn equal_keys_lex_alike((pieces, a, b) in skeleton(true)) {
        let (sql_a, sql_b) = (render(&pieces, &a), render(&pieces, &b));
        check_one(&sql_a)?;
        check_one(&sql_b)?;
        let (key_a, key_b) = (template_key(&sql_a), template_key(&sql_b));
        if let (Some((key_a, _)), Some((key_b, _))) = (&key_a, &key_b) {
            if key_a == key_b {
                let (lex_a, lex_b) = (split(lex(&sql_a)), split(lex(&sql_b)));
                prop_assert_eq!(lex_a.is_ok(), lex_b.is_ok(), "{:?} / {:?}", sql_a, sql_b);
                if let (Ok((kinds_a, _)), Ok((kinds_b, _))) = (lex_a, lex_b) {
                    prop_assert_eq!(kinds_a, kinds_b, "{:?} / {:?}", sql_a, sql_b);
                }
            }
        }
    }

    /// Where every quote and comment closes, the two fillings of one
    /// skeleton share a key and differ only in their string payloads.
    #[test]
    fn fillings_of_one_skeleton_share_a_key((pieces, a, b) in skeleton(false)) {
        let (sql_a, sql_b) = (render(&pieces, &a), render(&pieces, &b));
        check_one(&sql_a)?;
        check_one(&sql_b)?;
        let (key_a, _) = template_key(&sql_a).unwrap();
        let (key_b, _) = template_key(&sql_b).unwrap();
        prop_assert_eq!(&key_a, &key_b);
        let (kinds_a, _) = split(lex(&sql_a)).unwrap();
        let (kinds_b, _) = split(lex(&sql_b)).unwrap();
        prop_assert_eq!(kinds_a, kinds_b);
    }
}
