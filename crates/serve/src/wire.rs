//! The serve wire format: the versioned JSON envelope every endpoint
//! speaks, and the sweep-request document.
//!
//! Everything on the wire is hand-rolled [`tdc_util::json`] — no serde,
//! same as the `results/` artifacts — and the envelope shape is pinned
//! two ways: the constants below (DESIGN.md §12 points at them) and the
//! golden request/response files under `tests/golden/`.

use tdc_util::Json;

/// Version stamp carried by every envelope and required on every
/// request document; bump on any incompatible wire change.
pub const WIRE_VERSION: u64 = 1;

/// Top-level fields of the serve-envelope response object, in wire
/// order.
pub const WIRE_FIELDS: [&str; 5] = ["format_version", "endpoint", "status", "data", "error"];

/// Builds the response envelope: `data` for 2xx payloads, `error` as a
/// human-readable reason otherwise (the unused side is `null`).
pub fn envelope(endpoint: &str, status: u16, data: Json, error: Option<&str>) -> Json {
    Json::obj([
        ("format_version", Json::from(WIRE_VERSION)),
        ("endpoint", Json::from(endpoint)),
        ("status", Json::from(u64::from(status))),
        ("data", data),
        (
            "error",
            match error {
                Some(msg) => Json::from(msg),
                None => Json::Null,
            },
        ),
    ])
}

/// A parsed `POST /sweep` request: the cells to materialize, as
/// explicit cache keys and/or whole figure ids.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SweepRequest {
    /// Explicit job cache keys (the same strings `tdc all --shard` hashes).
    pub keys: Vec<String>,
    /// Figure ids to expand into their full cell sets.
    pub figures: Vec<String>,
}

/// Parses and validates a sweep-request document. Rejects a missing or
/// mismatched `format_version`, mistyped fields, and requests naming
/// nothing to do.
pub fn parse_sweep(doc: &Json) -> Result<SweepRequest, String> {
    let version = doc
        .get("format_version")
        .and_then(Json::as_u64)
        .ok_or("request is missing integer 'format_version'")?;
    if version != WIRE_VERSION {
        return Err(format!(
            "unsupported format_version {version} (this server speaks {WIRE_VERSION})"
        ));
    }
    let strings = |name: &str| -> Result<Vec<String>, String> {
        match doc.get(name) {
            None | Some(Json::Null) => Ok(Vec::new()),
            Some(Json::Arr(items)) => items
                .iter()
                .map(|j| {
                    j.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("'{name}' must contain only strings"))
                })
                .collect(),
            Some(_) => Err(format!("'{name}' must be an array of strings")),
        }
    };
    let req = SweepRequest {
        keys: strings("keys")?,
        figures: strings("figures")?,
    };
    if req.keys.is_empty() && req.figures.is_empty() {
        return Err("request names no 'keys' and no 'figures'".to_string());
    }
    Ok(req)
}

/// Builds a sweep-request document (the client side of
/// [`parse_sweep`]).
pub fn sweep_request(keys: &[String], figures: &[String]) -> Json {
    Json::obj([
        ("format_version", Json::from(WIRE_VERSION)),
        (
            "keys",
            Json::Arr(keys.iter().map(|k| Json::from(k.as_str())).collect()),
        ),
        (
            "figures",
            Json::Arr(figures.iter().map(|f| Json::from(f.as_str())).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_shape_matches_wire_fields() {
        let env = envelope("/status", 200, Json::obj([("ok", Json::from(true))]), None);
        match &env {
            Json::Obj(pairs) => {
                let names: Vec<&str> = pairs.iter().map(|(n, _)| n.as_str()).collect();
                assert_eq!(names, WIRE_FIELDS);
            }
            other => panic!("envelope must be an object, got {other:?}"),
        }
        assert_eq!(env.get("status").and_then(Json::as_u64), Some(200));
        assert_eq!(env.get("error"), Some(&Json::Null));
    }

    #[test]
    fn sweep_request_round_trips() {
        let doc = sweep_request(&["k1".into(), "k2".into()], &["fig07".into()]);
        let parsed = parse_sweep(&doc).expect("round-trips");
        assert_eq!(parsed.keys, vec!["k1", "k2"]);
        assert_eq!(parsed.figures, vec!["fig07"]);
    }

    #[test]
    fn version_mismatch_and_empty_requests_are_rejected() {
        let mut doc = sweep_request(&["k".into()], &[]);
        doc.push("ignored", Json::Null);
        assert!(parse_sweep(&doc).is_ok());

        let bad = Json::obj([("format_version", Json::from(9u64))]);
        let err = parse_sweep(&bad).unwrap_err();
        assert!(err.contains("format_version 9"), "{err}");

        let empty = Json::obj([("format_version", Json::from(WIRE_VERSION))]);
        assert!(parse_sweep(&empty).unwrap_err().contains("names no"));

        let mistyped = Json::obj([
            ("format_version", Json::from(WIRE_VERSION)),
            ("keys", Json::from("not-an-array")),
        ]);
        assert!(parse_sweep(&mistyped).is_err());
    }
}
