//! Property tests for the JSON codec: strings drawn from the whole Unicode
//! range, with quotes, backslashes and control characters mixed in, survive
//! a render/parse round trip both as values and as object keys, and a
//! string value of several megabytes parses in linear time.

use proptest::prelude::*;
use socfmea_obs::json::{self, Value};
use std::time::{Duration, Instant};

/// One character: any Unicode scalar value (surrogates folded onto the
/// replacement character), or one of the characters the encoder escapes.
fn character() -> impl Strategy<Value = char> {
    prop_oneof![
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
        (0u32..0x20).prop_map(|c| char::from_u32(c).expect("a control character")),
        (0u32..0x80).prop_map(|c| char::from_u32(c).expect("an ASCII character")),
        Just('"'),
        Just('\\'),
        Just('/'),
    ]
}

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(character(), 0..48).prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_string_round_trips_as_a_value_and_as_a_key(s in text(), t in text()) {
        let value = Value::Str(s.clone());
        let rendered = value.to_string();
        prop_assert_eq!(json::parse(&rendered).expect("a rendered string parses"), value);
        prop_assert_eq!(json::quote(&s), rendered);

        let object = Value::Obj(vec![
            (s.clone(), Value::Str(t.clone())),
            (t, Value::Arr(vec![Value::Str(s)])),
        ]);
        let rendered = object.to_string();
        prop_assert_eq!(json::parse(&rendered).expect("a rendered object parses"), object);
    }
}

#[test]
fn a_four_mebibyte_string_value_parses_in_linear_time() {
    // mostly plain characters with a multi-byte one and an escape every
    // so often, as an inline Verilog netlist looks once JSON-encoded
    let line = "  and g_17 (n_42, a[3], b[3]); // größer\\n";
    let body: String = line.repeat((4 << 20) / line.len() + 1);
    let doc = format!(r#"{{"verilog":"{body}","cycles":16}}"#);
    let t0 = Instant::now();
    let parsed = json::parse(&doc).expect("the document parses");
    let elapsed = t0.elapsed();
    let verilog = parsed
        .get("verilog")
        .and_then(Value::as_str)
        .expect("a string");
    assert_eq!(verilog.len(), body.len() - body.matches("\\n").count());
    assert!(verilog.ends_with("größer\n"));
    assert!(
        elapsed < Duration::from_secs(2),
        "a {} byte string took {elapsed:?}",
        doc.len()
    );
}
