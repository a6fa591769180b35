//! `Value`'s `Display` writes compact JSON straight from the tree; it must
//! be byte for byte what `to_string` gives through the serde data model.

use proptest::prelude::*;
use serde_json::{json, Map, Number, Value};

/// Characters that exercise every escape branch beside plain text:
/// quotes, backslashes, the named escapes, other control characters
/// (0x00, 0x0b, 0x1f), DEL (not escaped) and multi-byte characters.
const CHARS: &[char] = &[
    'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{b}', '\u{1f}', '\u{7f}',
    '\u{85}', '\u{a0}', 'é', '\u{2003}', '\u{3000}', '😀',
];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..CHARS.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
}

/// Floats whose text shape matters: non-finite (written as `null`), signed
/// zero, extremes, subnormals, and arbitrary bit patterns.
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(0.0),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        Just(5e-324),
        -1e6f64..1e6,
        any::<u64>().prop_map(f64::from_bits),
    ]
}

fn leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::from),
        // Half of all u64 lie above i64::MAX and keep the unsigned shape.
        any::<u64>().prop_map(Value::from),
        float().prop_map(Value::from),
        text().prop_map(Value::String),
    ]
}

fn value() -> impl Strategy<Value = Value> {
    leaf().prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
            prop::collection::vec((text(), inner), 0..5).prop_map(|fields| {
                let mut map = Map::new();
                for (k, v) in fields {
                    map.insert(k, v);
                }
                Value::Object(map)
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn display_equals_to_string(v in value()) {
        prop_assert_eq!(v.to_string(), serde_json::to_string(&v).unwrap());
    }
}

#[test]
fn display_edge_cases_are_exact() {
    let v = json!({
        "esc\"aped": "q\"b\\n\nr\rt\tc\u{1}\u{1f}",
        "nan": (f64::NAN),
        "inf": (f64::NEG_INFINITY),
        "negzero": (-0.0f64),
        "big": (u64::MAX),
        "min": (i64::MIN),
        "nested": [[], {}, [null, true, 1.0]]
    });
    let expected = concat!(
        r#"{"esc\"aped":"q\"b\\n\nr\rt\tc\u0001\u001f","nan":null,"inf":null,"#,
        r#""negzero":-0.0,"big":18446744073709551615,"min":-9223372036854775808,"#,
        r#""nested":[[],{},[null,true,1.0]]}"#,
    );
    assert_eq!(v.to_string(), expected);
    assert_eq!(serde_json::to_string(&v).unwrap(), expected);
    assert!(matches!(v["big"], Value::Number(Number::U(u64::MAX))));
}
