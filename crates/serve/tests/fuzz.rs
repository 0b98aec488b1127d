//! Seeded mutation fuzzing of the three parsers that read outside
//! input (DESIGN.md §14): the HTTP request reader, the JSON parser and
//! the sweep-request decoder. Each target starts from a small corpus
//! of valid inputs, applies random byte edits and dictionary-token
//! insertions (`XorShift64::mutate`), and must answer every case with
//! `Ok` or `Err` — never a panic. Accepted JSON must also survive a
//! round trip. The seeds are fixed, so a failure reproduces exactly and
//! is reported with the input that caused it.

use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tdc_serve::{parse_sweep, sweep_request};
use tdc_util::http::read_request;
use tdc_util::testkit::XorShift64;
use tdc_util::Json;

/// Mutated cases per target.
const CASES: usize = 70_000;

/// Runs `check` on every corpus entry, then on `CASES` mutants of
/// randomly chosen entries. A panic is re-raised naming the case and
/// showing the input.
fn fuzz(name: &str, seed: u64, corpus: &[Vec<u8>], dict: &[&[u8]], check: impl Fn(&[u8])) {
    let mut rng = XorShift64::new(seed);
    for case in 0..corpus.len() + CASES {
        let input = match corpus.get(case) {
            Some(entry) => entry.clone(),
            None => {
                let mut bytes = corpus[rng.below(corpus.len() as u64) as usize].clone();
                rng.mutate(&mut bytes, dict);
                bytes
            }
        };
        if catch_unwind(AssertUnwindSafe(|| check(&input))).is_err() {
            panic!(
                "{name}: case {case} (seed {seed}) panicked on input {:?}",
                String::from_utf8_lossy(&input)
            );
        }
    }
}

fn sweep_bodies() -> Vec<String> {
    vec![
        sweep_request(&["spec:mcf|cTLB|2015".into()], &[]).to_compact(),
        sweep_request(&[], &["fig07".into(), "fig09".into()]).pretty(),
        r#"{"format_version":1,"keys":[],"figures":["fig13"]}"#.into(),
        r#"{"format_version":1,"keys":null,"figures":[1,"x"]}"#.into(),
    ]
}

const JSON_DICT: [&[u8]; 22] = [
    b"{",
    b"}",
    b"[",
    b"]",
    b",",
    b":",
    b"\"",
    b"\\",
    b"\\u",
    b"\\ud83d",
    b"null",
    b"true",
    b"-",
    b"0",
    b"-0",
    b"1e400",
    b"1e15",
    b"0.5",
    b"18446744073709551616",
    b"\"format_version\":1",
    b"\"keys\":[]",
    b"\"figures\":[\"\"]",
];

#[test]
fn read_request_never_panics() {
    let mut corpus: Vec<Vec<u8>> = vec![
        b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
        b"GET /figure/fig07 HTTP/1.0\n\n".to_vec(),
        b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n".to_vec(),
    ];
    for body in sweep_bodies() {
        let head = format!(
            "POST /sweep HTTP/1.1\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        corpus.push([head.into_bytes(), body.into_bytes()].concat());
    }
    let dict: [&[u8]; 12] = [
        b"\r\n",
        b"\n",
        b":",
        b" ",
        b"HTTP/1.1",
        b"Content-Length: ",
        b"content-length:99",
        b"-1",
        b"99999999999999999999",
        b"\xff",
        b"\xc3",
        b"\r\n\r\n",
    ];
    fuzz("read_request", 1, &corpus, &dict, |bytes| {
        if let Ok(req) = read_request(&mut Cursor::new(bytes)) {
            assert!(req.body.len() <= bytes.len(), "body longer than the input");
        }
    });
}

#[test]
fn json_parse_never_panics_and_round_trips() {
    let mut corpus: Vec<Vec<u8>> = sweep_bodies().into_iter().map(String::into_bytes).collect();
    corpus.extend(
        [
            r#"[0, -7, 1.25e-9, 3.0, 18446744073709551615, -9223372036854775808]"#,
            r#"{"s": "quote \" slash \\ tab \t uni é pair 🦀", "e": {}, "a": []}"#,
            r#"[[[[{"deep": [true, false, null]}]]]]"#,
        ]
        .map(|s| s.as_bytes().to_vec()),
    );
    fuzz("Json::parse", 2, &corpus, &JSON_DICT, |bytes| {
        let text = String::from_utf8_lossy(bytes);
        if let Ok(doc) = Json::parse(&text) {
            let compact = doc.to_compact();
            assert_eq!(
                Json::parse(&compact).as_ref(),
                Ok(&doc),
                "accepted document does not survive to_compact(): {compact}"
            );
        }
    });
}

#[test]
fn parse_sweep_never_panics_on_accepted_documents() {
    let corpus: Vec<Vec<u8>> = sweep_bodies().into_iter().map(String::into_bytes).collect();
    let accepted = std::cell::Cell::new(0usize);
    fuzz("parse_sweep", 3, &corpus, &JSON_DICT, |bytes| {
        let Ok(doc) = Json::parse(&String::from_utf8_lossy(bytes)) else {
            return;
        };
        accepted.set(accepted.get() + 1);
        if let Ok(req) = parse_sweep(&doc) {
            assert!(!(req.keys.is_empty() && req.figures.is_empty()));
        }
    });
    // The decoder only sees what the JSON parser accepts; make sure the
    // mutants still reach it in bulk.
    assert!(
        accepted.get() > CASES / 10,
        "only {} documents parsed",
        accepted.get()
    );
}
