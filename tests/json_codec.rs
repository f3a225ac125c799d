//! The one JSON codec (`rtds::trace::json`, re-exported as
//! `rtds::sim::json`): render → parse → render is a byte fixpoint on random
//! trees in both renderings, number tags survive, parsing is linear in the
//! input and bounded in depth.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use rtds::sim::json::{Json, MAX_DEPTH};

/// Characters that stress the escaper: quotes, backslashes, every control
/// character class, multi-byte and astral-plane code points.
const CHARS: [char; 16] = [
    'a',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'é',
    'π',
    '\u{1D11E}',
];

/// Floats whose spelling is easy to get wrong.
const FLOATS: [f64; 12] = [
    0.0,
    -0.0,
    1.0,
    1e-7,
    5e-324,
    -5e-324,
    0.30000000000000004,
    1e21,
    1.7976931348623157e308,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

fn string(rng: &mut StdRng) -> String {
    (0..rng.random_range(0..6usize))
        .map(|_| CHARS[rng.random_range(0..CHARS.len())])
        .collect()
}

/// A random tree nesting exactly `depth` containers below this value on its
/// first branch (so `depth == MAX_DEPTH - 1` reaches the parser's limit).
fn tree(rng: &mut StdRng, depth: usize) -> Json {
    let scalar = |rng: &mut StdRng| match rng.random_range(0..8u32) {
        0 => Json::Null,
        1 => Json::Bool(rng.random_bool(0.5)),
        2 => Json::Int(-(rng.random_range(1..=i64::MAX as u64) as i64)),
        3 => Json::Int(i64::MIN),
        4 => Json::UInt(rng.next_u64() >> rng.random_range(0..64u32)),
        5 => Json::UInt(u64::MAX),
        6 => Json::Num(FLOATS[rng.random_range(0..FLOATS.len())]),
        _ => Json::Str(string(rng)),
    };
    if depth == 0 {
        return match rng.random_range(0..10u32) {
            0 => Json::Array(Vec::new()),
            1 => Json::Object(Vec::new()),
            _ => scalar(rng),
        };
    }
    let width = rng.random_range(1..4usize);
    let child = |rng: &mut StdRng, i: usize| {
        let below = if i == 0 {
            depth - 1
        } else {
            rng.random_range(0..depth.min(3))
        };
        tree(rng, below)
    };
    if rng.random_bool(0.5) {
        Json::Array((0..width).map(|i| child(rng, i)).collect())
    } else {
        Json::Object((0..width).map(|i| (string(rng), child(rng, i))).collect())
    }
}

/// What a render → parse cycle is allowed to change: a non-finite float is
/// written as `null`, and a non-negative `Int` reads back as `UInt`.
fn as_written(value: &Json) -> Json {
    match value {
        Json::Num(x) if !x.is_finite() => Json::Null,
        Json::Int(i) if *i >= 0 => Json::UInt(*i as u64),
        Json::Array(items) => Json::Array(items.iter().map(as_written).collect()),
        Json::Object(fields) => Json::Object(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), as_written(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Structural equality with floats compared by bit pattern (`-0.0 ≠ 0.0`),
/// i.e. variant tags and exact values.
fn same_tags(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Array(x), Json::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same_tags(a, b))
        }
        (Json::Object(x), Json::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, a), (kb, b))| ka == kb && same_tags(a, b))
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn render_parse_render_is_a_byte_fixpoint(seed in 0u64..u64::MAX, depth in 0usize..MAX_DEPTH) {
        let doc = tree(&mut StdRng::seed_from_u64(seed), depth);
        let pretty = doc.render();
        let compact = doc.render_compact();
        let from_pretty = Json::parse(&pretty).expect("pretty rendering parses");
        let from_compact = Json::parse(&compact).expect("compact rendering parses");
        prop_assert_eq!(from_pretty.render(), pretty);
        prop_assert_eq!(from_compact.render_compact(), compact.clone());
        // Both forms read back as the same tree, with Int/UInt/Num intact.
        let written = as_written(&doc);
        prop_assert!(same_tags(&from_pretty, &written), "{from_pretty:?} vs {written:?}");
        prop_assert!(same_tags(&from_compact, &written));
        // Escaped spellings of the same characters (`\/`, `\b`, `\f`,
        // `\uXXXX`, surrogate pairs) parse to the same tree.
        let escaped: String = compact
            .chars()
            .map(|c| match c {
                '/' => "\\/".to_string(),
                '\u{7f}' | 'é' | 'π' => format!("\\u{:04X}", c as u32),
                '\u{1D11E}' => "\\uD834\\uDD1E".to_string(),
                c => c.to_string(),
            })
            .collect::<String>()
            .replace("\\u0008", "\\b")
            .replace("\\u000c", "\\f");
        let from_escaped = Json::parse(&escaped).expect("escaped spelling parses");
        prop_assert!(same_tags(&from_escaped, &written));
    }
}

#[test]
fn nesting_is_accepted_up_to_the_limit_and_refused_beyond() {
    for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
        let nested = |depth: usize| format!("{}1{}", open.repeat(depth), close.repeat(depth));
        let at_limit = Json::parse(&nested(MAX_DEPTH)).expect("the limit itself parses");
        assert_eq!(at_limit.render_compact(), nested(MAX_DEPTH));
        let e = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.message.contains("MAX_DEPTH"), "{e}");
        // The hostile cases: unbounded recursion would overflow the stack
        // long before reaching the end of these.
        assert!(Json::parse(&open.repeat(1_000_000)).is_err());
        assert!(Json::parse(&nested(100_000)).is_err());
    }
}

/// The parser used to re-validate the rest of the input for every string
/// character; 8 MB of strings took minutes. Linear, it takes milliseconds —
/// the generous bound only has to separate the two.
#[test]
fn an_eight_megabyte_string_heavy_document_parses() {
    let row = Json::Array(vec![
        Json::str("routing_update \"quoted\" \\ π \u{1D11E} tab\there"),
        Json::str("x".repeat(200)),
        Json::UInt(u64::MAX),
    ]);
    let row_len = row.render_compact().len() + 1;
    let doc = Json::Array(vec![row; (8 << 20) / row_len + 1]);
    let text = doc.render_compact();
    assert!(text.len() >= 8 << 20);
    let started = std::time::Instant::now();
    let parsed = Json::parse(&text).expect("the document parses");
    let elapsed = started.elapsed();
    assert_eq!(parsed, doc);
    assert!(
        elapsed.as_secs() < 20,
        "parsing 8 MB took {elapsed:?}: no longer linear?"
    );
}
