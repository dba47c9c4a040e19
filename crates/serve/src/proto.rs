//! The newline-delimited JSON request/response protocol.
//!
//! One request per line, one response per line. Every request is an
//! object with an `"endpoint"` string, an optional client-chosen
//! `"id"` (echoed back, default 0), and endpoint-specific parameters:
//!
//! ```text
//! {"id":1,"endpoint":"typicality","term":"country","direction":"instances","k":5}
//! {"id":1,"ok":true,"version":0,"data":{"items":[["USA",0.33],...]}}
//! {"id":2,"endpoint":"nope"}
//! {"id":2,"ok":false,"error":"bad-request","detail":"unknown endpoint \"nope\""}
//! ```
//!
//! Responses carry the store version the answer was computed against, so
//! clients can observe write visibility; error responses carry a stable
//! machine-readable `error` code plus a human `detail`.

use crate::json::Json;

/// Separator bytes for canonical cache keys (cannot appear in JSON
/// strings' meaning — they are plain unit/record separators, chosen so a
/// user-supplied term containing `|` cannot collide another key).
const KEY_SEP: char = '\u{1f}';
const ITEM_SEP: char = '\u{1e}';

/// Which way a typicality query runs (paper §4.2: `T(i|x)` vs `T(x|i)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Typical instances of a concept, ranked by `T(i|x)`.
    Instances,
    /// Typical concepts of a term, ranked by `T(x|i)`.
    Concepts,
}

/// Which node class a `labels` query lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelKind {
    /// Non-leaf nodes.
    Concepts,
    /// Leaf nodes.
    Instances,
}

/// A parsed, validated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; returns the current store version.
    Ping,
    /// Is `child` isA `parent` (directly or transitively)?
    Isa {
        /// The hypernym label.
        parent: String,
        /// The hyponym label.
        child: String,
    },
    /// Top-`k` typicality ranking for `term`.
    Typicality {
        /// Query label.
        term: String,
        /// `T(i|x)` (instances) or `T(x|i)` (concepts).
        direction: Direction,
        /// Maximum results.
        k: usize,
    },
    /// Plausibility of the direct edge `parent → child`.
    Plausibility {
        /// Edge source label.
        parent: String,
        /// Edge target label.
        child: String,
    },
    /// Conceptualize a term set (paper §5.3.2).
    Conceptualize {
        /// The input instance terms.
        terms: Vec<String>,
        /// Maximum concepts returned.
        k: usize,
    },
    /// Rewrite a concept-bearing query into instance keyword queries
    /// (paper §5.3.1).
    SearchRewrite {
        /// The free-text query.
        query: String,
        /// Maximum rewrites returned.
        k: usize,
    },
    /// Table 4 graph statistics plus the serving metrics dump.
    Stats,
    /// Level summary, or per-sense levels of one label.
    Levels {
        /// Optional label to look up.
        term: Option<String>,
    },
    /// Sample node labels (a load generator builds its key set from
    /// them).
    Labels {
        /// Concepts or instances.
        kind: LabelKind,
        /// Maximum labels returned.
        k: usize,
    },
    /// Write: add isA evidence, creating nodes as needed.
    AddEvidence {
        /// Hypernym label.
        parent: String,
        /// Hyponym label.
        child: String,
        /// Evidence count to add.
        count: u32,
    },
    /// Write: hot-swap the whole graph from a snapshot file on the
    /// server's filesystem.
    SnapshotLoad {
        /// Path to a packed snapshot file (written by `probase_store::pack`),
        /// relative to the server's snapshot directory.
        path: String,
    },
    /// Migration: read (and optionally drain) the whole label component
    /// containing `label`. The response carries the component's labels
    /// and, unless `labels_only`, a base64 packed-snapshot payload.
    /// With `drain: true` the shard journals a drop, removes the
    /// component, and tombstones its labels as moved to `target`.
    ExportComponent {
        /// Any label inside the component.
        label: String,
        /// When true, remove the component after exporting (the second,
        /// destructive half of a migration). False = idempotent peek.
        drain: bool,
        /// Shard index that owns the component after a drain (recorded
        /// in tombstones and the drop journal). Required when draining.
        target: Option<u32>,
        /// When true, skip encoding the payload (cheap sizing peek).
        labels_only: bool,
    },
    /// Migration: graft an exported component onto this shard. The
    /// payload is journaled in the WAL before the graft is applied.
    ImportComponent {
        /// Shard index the component is moving from.
        source: u32,
        /// Base64 packed-snapshot bytes from an `export-component`.
        payload: String,
    },
}

/// Largest accepted `k` (bounds response size).
pub const MAX_K: usize = 1000;

/// All endpoint names, in metric-index order. Keep in sync with
/// [`Request::endpoint_index`].
pub const ENDPOINTS: [&str; 13] = [
    "ping",
    "isa",
    "typicality",
    "plausibility",
    "conceptualize",
    "search-rewrite",
    "stats",
    "levels",
    "labels",
    "add-evidence",
    "snapshot-load",
    "export-component",
    "import-component",
];

impl Request {
    /// The endpoint name on the wire.
    pub fn endpoint(&self) -> &'static str {
        ENDPOINTS[self.endpoint_index()]
    }

    /// Whether retrying this request cannot change server state: true
    /// for every read, false for the writes (`add-evidence` would
    /// double-count evidence, `snapshot-load` would double-swap, a
    /// draining `export-component` would remove twice, and
    /// `import-component` would double-merge). The client's retry
    /// machinery refuses to retry non-idempotent requests.
    pub fn is_idempotent(&self) -> bool {
        match self {
            Request::AddEvidence { .. }
            | Request::SnapshotLoad { .. }
            | Request::ImportComponent { .. } => false,
            Request::ExportComponent { drain, .. } => !drain,
            _ => true,
        }
    }

    /// Index into [`ENDPOINTS`] (and the per-endpoint metrics table).
    pub fn endpoint_index(&self) -> usize {
        match self {
            Request::Ping => 0,
            Request::Isa { .. } => 1,
            Request::Typicality { .. } => 2,
            Request::Plausibility { .. } => 3,
            Request::Conceptualize { .. } => 4,
            Request::SearchRewrite { .. } => 5,
            Request::Stats => 6,
            Request::Levels { .. } => 7,
            Request::Labels { .. } => 8,
            Request::AddEvidence { .. } => 9,
            Request::SnapshotLoad { .. } => 10,
            Request::ExportComponent { .. } => 11,
            Request::ImportComponent { .. } => 12,
        }
    }

    /// Canonical cache key (without the version suffix), or `None` if the
    /// endpoint must not be cached. Writes are never cached; `stats` is
    /// uncached because it embeds live serving metrics; `ping` is cheaper
    /// than a cache probe.
    pub fn cache_key(&self) -> Option<String> {
        let mut key = String::with_capacity(48);
        key.push_str(self.endpoint());
        key.push(KEY_SEP);
        match self {
            Request::Ping
            | Request::Stats
            | Request::AddEvidence { .. }
            | Request::SnapshotLoad { .. }
            | Request::ExportComponent { .. }
            | Request::ImportComponent { .. } => return None,
            Request::Isa { parent, child } | Request::Plausibility { parent, child } => {
                key.push_str(parent);
                key.push(KEY_SEP);
                key.push_str(child);
            }
            Request::Typicality { term, direction, k } => {
                key.push(match direction {
                    Direction::Instances => 'i',
                    Direction::Concepts => 'c',
                });
                key.push(KEY_SEP);
                key.push_str(term);
                key.push(KEY_SEP);
                key.push_str(&k.to_string());
            }
            Request::Conceptualize { terms, k } => {
                for t in terms {
                    key.push_str(t);
                    key.push(ITEM_SEP);
                }
                key.push(KEY_SEP);
                key.push_str(&k.to_string());
            }
            Request::SearchRewrite { query, k } => {
                key.push_str(query);
                key.push(KEY_SEP);
                key.push_str(&k.to_string());
            }
            Request::Levels { term } => {
                if let Some(t) = term {
                    key.push_str(t);
                }
            }
            Request::Labels { kind, k } => {
                key.push(match kind {
                    LabelKind::Concepts => 'c',
                    LabelKind::Instances => 'i',
                });
                key.push(KEY_SEP);
                key.push_str(&k.to_string());
            }
        }
        Some(key)
    }

    /// Parse a request line's JSON into `(id, Request)`.
    pub fn from_json(v: &Json) -> Result<(u64, Request), String> {
        let id = v.get("id").and_then(Json::as_u64).unwrap_or(0);
        let endpoint = v
            .get("endpoint")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing \"endpoint\"".to_string())?;
        let req = match endpoint {
            "ping" => Request::Ping,
            "isa" => Request::Isa {
                parent: req_str(v, "parent")?,
                child: req_str(v, "child")?,
            },
            "typicality" => Request::Typicality {
                term: req_str(v, "term")?,
                direction: match v
                    .get("direction")
                    .and_then(Json::as_str)
                    .unwrap_or("instances")
                {
                    "instances" => Direction::Instances,
                    "concepts" => Direction::Concepts,
                    other => return Err(format!("bad direction {other:?}")),
                },
                k: opt_k(v)?,
            },
            "plausibility" => Request::Plausibility {
                parent: req_str(v, "parent")?,
                child: req_str(v, "child")?,
            },
            "conceptualize" => {
                let arr = v
                    .get("terms")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| "missing \"terms\" array".to_string())?;
                let terms = arr
                    .iter()
                    .map(|t| t.as_str().map(str::to_string))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| "\"terms\" must be strings".to_string())?;
                if terms.is_empty() {
                    return Err("\"terms\" must be non-empty".to_string());
                }
                Request::Conceptualize {
                    terms,
                    k: opt_k(v)?,
                }
            }
            "search-rewrite" => Request::SearchRewrite {
                query: req_str(v, "query")?,
                k: opt_k(v)?,
            },
            "stats" => Request::Stats,
            "levels" => Request::Levels {
                term: v.get("term").and_then(Json::as_str).map(str::to_string),
            },
            "labels" => Request::Labels {
                kind: match v.get("kind").and_then(Json::as_str).unwrap_or("instances") {
                    "concepts" => LabelKind::Concepts,
                    "instances" => LabelKind::Instances,
                    other => return Err(format!("bad kind {other:?}")),
                },
                k: opt_k(v)?,
            },
            "add-evidence" => Request::AddEvidence {
                parent: req_str(v, "parent")?,
                child: req_str(v, "child")?,
                count: v
                    .get("count")
                    .and_then(Json::as_u64)
                    .filter(|&c| c >= 1 && c <= u32::MAX as u64)
                    .ok_or_else(|| "\"count\" must be an integer ≥ 1".to_string())?
                    as u32,
            },
            "snapshot-load" => Request::SnapshotLoad {
                path: req_str(v, "path")?,
            },
            "export-component" => {
                let drain = v.get("drain").and_then(Json::as_bool).unwrap_or(false);
                let target = match v.get("target") {
                    None => None,
                    Some(j) => Some(
                        j.as_u64()
                            .filter(|&t| t <= u32::MAX as u64)
                            .ok_or_else(|| "\"target\" must be a shard index".to_string())?
                            as u32,
                    ),
                };
                if drain && target.is_none() {
                    return Err("draining export requires \"target\"".to_string());
                }
                Request::ExportComponent {
                    label: req_str(v, "label")?,
                    drain,
                    target,
                    labels_only: v
                        .get("labels_only")
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                }
            }
            "import-component" => Request::ImportComponent {
                source: v
                    .get("source")
                    .and_then(Json::as_u64)
                    .filter(|&s| s <= u32::MAX as u64)
                    .ok_or_else(|| "\"source\" must be a shard index".to_string())?
                    as u32,
                payload: req_str(v, "payload")?,
            },
            other => return Err(format!("unknown endpoint {other:?}")),
        };
        Ok((id, req))
    }

    /// Serialize this request (client side).
    pub fn to_json(&self, id: u64) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![
            ("id", Json::num(id as f64)),
            ("endpoint", Json::str(self.endpoint())),
        ];
        match self {
            Request::Ping | Request::Stats => {}
            Request::Isa { parent, child } | Request::Plausibility { parent, child } => {
                pairs.push(("parent", Json::str(parent.clone())));
                pairs.push(("child", Json::str(child.clone())));
            }
            Request::Typicality { term, direction, k } => {
                pairs.push(("term", Json::str(term.clone())));
                pairs.push((
                    "direction",
                    Json::str(match direction {
                        Direction::Instances => "instances",
                        Direction::Concepts => "concepts",
                    }),
                ));
                pairs.push(("k", Json::num(*k as f64)));
            }
            Request::Conceptualize { terms, k } => {
                pairs.push((
                    "terms",
                    Json::Arr(terms.iter().map(|t| Json::str(t.clone())).collect()),
                ));
                pairs.push(("k", Json::num(*k as f64)));
            }
            Request::SearchRewrite { query, k } => {
                pairs.push(("query", Json::str(query.clone())));
                pairs.push(("k", Json::num(*k as f64)));
            }
            Request::Levels { term } => {
                if let Some(t) = term {
                    pairs.push(("term", Json::str(t.clone())));
                }
            }
            Request::Labels { kind, k } => {
                pairs.push((
                    "kind",
                    Json::str(match kind {
                        LabelKind::Concepts => "concepts",
                        LabelKind::Instances => "instances",
                    }),
                ));
                pairs.push(("k", Json::num(*k as f64)));
            }
            Request::AddEvidence {
                parent,
                child,
                count,
            } => {
                pairs.push(("parent", Json::str(parent.clone())));
                pairs.push(("child", Json::str(child.clone())));
                pairs.push(("count", Json::num(*count as f64)));
            }
            Request::SnapshotLoad { path } => {
                pairs.push(("path", Json::str(path.clone())));
            }
            Request::ExportComponent {
                label,
                drain,
                target,
                labels_only,
            } => {
                pairs.push(("label", Json::str(label.clone())));
                if *drain {
                    pairs.push(("drain", Json::Bool(true)));
                }
                if let Some(t) = target {
                    pairs.push(("target", Json::num(*t as f64)));
                }
                if *labels_only {
                    pairs.push(("labels_only", Json::Bool(true)));
                }
            }
            Request::ImportComponent { source, payload } => {
                pairs.push(("source", Json::num(*source as f64)));
                pairs.push(("payload", Json::str(payload.clone())));
            }
        }
        Json::obj(pairs)
    }
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .ok_or_else(|| format!("missing or empty \"{key}\""))
}

fn opt_k(v: &Json) -> Result<usize, String> {
    match v.get("k") {
        None => Ok(10),
        Some(j) => {
            let k = j
                .as_u64()
                .ok_or_else(|| "\"k\" must be a non-negative integer".to_string())?;
            if k as usize > MAX_K {
                return Err(format!("\"k\" exceeds max {MAX_K}"));
            }
            Ok(k as usize)
        }
    }
}

/// Stable machine-readable error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Malformed JSON or invalid parameters.
    BadRequest,
    /// The bounded request queue was full.
    Overloaded,
    /// The request waited in the queue past its deadline.
    DeadlineExceeded,
    /// The server is at its connection limit; the connection was shed.
    TooManyConnections,
    /// A request line exceeded the per-line byte limit and was dropped.
    LineTooLarge,
    /// The handler itself failed (e.g. unreadable snapshot file).
    Internal,
    /// The label's component migrated to another shard; the detail says
    /// which (`moved to shard N`). Routers learn the new owner and
    /// re-route; direct clients should re-resolve.
    Moved,
}

impl ErrorCode {
    /// Every code, in wire order. The chaos suite round-trips this list
    /// to guard the error-envelope contract.
    pub const ALL: [ErrorCode; 7] = [
        ErrorCode::BadRequest,
        ErrorCode::Overloaded,
        ErrorCode::DeadlineExceeded,
        ErrorCode::TooManyConnections,
        ErrorCode::LineTooLarge,
        ErrorCode::Internal,
        ErrorCode::Moved,
    ];

    /// The wire string for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::TooManyConnections => "too-many-connections",
            ErrorCode::LineTooLarge => "line-too-large",
            ErrorCode::Internal => "internal",
            ErrorCode::Moved => "moved",
        }
    }

    /// Parse a wire string back into its code (the inverse of
    /// [`ErrorCode::as_str`]).
    pub fn parse(s: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.as_str() == s)
    }

    /// Whether a client may safely retry an idempotent request that
    /// failed with this code: transient load-shedding outcomes are
    /// retryable, caller bugs and handler failures are not.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Overloaded | ErrorCode::DeadlineExceeded | ErrorCode::TooManyConnections
        )
    }
}

// Base64 (RFC 4648, standard alphabet, padded) for carrying packed
// snapshot bytes inside JSON string fields. Hand-rolled so the serve
// crate stays dependency-free, like the store's CRC-32.
const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encode bytes as standard padded base64.
pub fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let n = (b[0] as u32) << 16 | (b[1] as u32) << 8 | b[2] as u32;
        out.push(B64[(n >> 18) as usize & 63] as char);
        out.push(B64[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            B64[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Decode standard padded base64; `None` on any malformed input.
pub fn b64_decode(s: &str) -> Option<Vec<u8>> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    let val = |c: u8| -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some((c - b'A') as u32),
            b'a'..=b'z' => Some((c - b'a' + 26) as u32),
            b'0'..=b'9' => Some((c - b'0' + 52) as u32),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    };
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (i, chunk) in bytes.chunks(4).enumerate() {
        let last = (i + 1) * 4 == bytes.len();
        let pad = if last {
            chunk.iter().rev().take_while(|&&c| c == b'=').count()
        } else {
            0
        };
        if pad > 2 {
            return None;
        }
        let mut n = 0u32;
        for &c in &chunk[..4 - pad] {
            n = n << 6 | val(c)?;
        }
        n <<= 6 * pad as u32;
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Some(out)
}

/// Build a success envelope: `{"id":..,"ok":true,"version":..,"data":..}`.
pub fn ok_envelope(id: u64, version: u64, data: Json) -> Json {
    Json::obj(vec![
        ("id", Json::num(id as f64)),
        ("ok", Json::Bool(true)),
        ("version", Json::num(version as f64)),
        ("data", data),
    ])
}

/// Build a success envelope carrying the partial-result marker a
/// sharded deployment sets when some shards were unreachable:
/// `{"id":..,"ok":true,"version":..,"degraded":true,"data":..}`.
/// Clients that predate sharding ignore the extra key.
pub fn degraded_envelope(id: u64, version: u64, data: Json) -> Json {
    Json::obj(vec![
        ("id", Json::num(id as f64)),
        ("ok", Json::Bool(true)),
        ("version", Json::num(version as f64)),
        ("degraded", Json::Bool(true)),
        ("data", data),
    ])
}

/// Build a success envelope with explicit partial-result markers:
/// `degraded` (some shards unreachable) and `truncated` (a cross-shard
/// recombination hit the `MAX_K` slice cap, so the tail may be
/// incomplete). Either flag is omitted when false, so the output
/// matches [`ok_envelope`] / [`degraded_envelope`] byte-for-byte in
/// the unflagged cases.
pub fn annotated_envelope(
    id: u64,
    version: u64,
    degraded: bool,
    truncated: bool,
    data: Json,
) -> Json {
    let mut pairs = vec![
        ("id", Json::num(id as f64)),
        ("ok", Json::Bool(true)),
        ("version", Json::num(version as f64)),
    ];
    if degraded {
        pairs.push(("degraded", Json::Bool(true)));
    }
    if truncated {
        pairs.push(("truncated", Json::Bool(true)));
    }
    pairs.push(("data", data));
    Json::obj(pairs)
}

/// Build an error envelope: `{"id":..,"ok":false,"error":..,"detail":..}`.
pub fn err_envelope(id: u64, code: ErrorCode, detail: &str) -> Json {
    Json::obj(vec![
        ("id", Json::num(id as f64)),
        ("ok", Json::Bool(false)),
        ("error", Json::str(code.as_str())),
        ("detail", Json::str(detail)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn roundtrip(req: Request) {
        let wire = req.to_json(7).to_string();
        let (id, back) = Request::from_json(&json::parse(&wire).unwrap()).unwrap();
        assert_eq!(id, 7);
        assert_eq!(back, req, "roundtrip failed for {wire}");
    }

    #[test]
    fn all_requests_roundtrip() {
        roundtrip(Request::Ping);
        roundtrip(Request::Isa {
            parent: "animal".into(),
            child: "cat".into(),
        });
        roundtrip(Request::Typicality {
            term: "country".into(),
            direction: Direction::Instances,
            k: 5,
        });
        roundtrip(Request::Typicality {
            term: "China".into(),
            direction: Direction::Concepts,
            k: 3,
        });
        roundtrip(Request::Plausibility {
            parent: "animal".into(),
            child: "cat".into(),
        });
        roundtrip(Request::Conceptualize {
            terms: vec!["China".into(), "India".into()],
            k: 8,
        });
        roundtrip(Request::SearchRewrite {
            query: "database conferences".into(),
            k: 4,
        });
        roundtrip(Request::Stats);
        roundtrip(Request::Levels { term: None });
        roundtrip(Request::Levels {
            term: Some("animal".into()),
        });
        roundtrip(Request::Labels {
            kind: LabelKind::Concepts,
            k: 20,
        });
        roundtrip(Request::AddEvidence {
            parent: "country".into(),
            child: "Chile".into(),
            count: 2,
        });
        roundtrip(Request::SnapshotLoad {
            path: "/tmp/x.pb".into(),
        });
        roundtrip(Request::ExportComponent {
            label: "apple".into(),
            drain: false,
            target: None,
            labels_only: true,
        });
        roundtrip(Request::ExportComponent {
            label: "apple".into(),
            drain: true,
            target: Some(2),
            labels_only: false,
        });
        roundtrip(Request::ImportComponent {
            source: 3,
            payload: "UEJTUA==".into(),
        });
    }

    #[test]
    fn defaults_applied() {
        let v = json::parse(r#"{"endpoint":"typicality","term":"x"}"#).unwrap();
        let (id, req) = Request::from_json(&v).unwrap();
        assert_eq!(id, 0);
        assert_eq!(
            req,
            Request::Typicality {
                term: "x".into(),
                direction: Direction::Instances,
                k: 10
            }
        );
    }

    #[test]
    fn rejects_bad_requests() {
        for bad in [
            r#"{"id":1}"#,
            r#"{"endpoint":"nope"}"#,
            r#"{"endpoint":"isa","parent":"a"}"#,
            r#"{"endpoint":"isa","parent":"","child":"b"}"#,
            r#"{"endpoint":"typicality","term":"x","k":5000}"#,
            r#"{"endpoint":"typicality","term":"x","direction":"sideways"}"#,
            r#"{"endpoint":"conceptualize","terms":[]}"#,
            r#"{"endpoint":"conceptualize","terms":[1]}"#,
            r#"{"endpoint":"add-evidence","parent":"a","child":"b","count":0}"#,
            r#"{"endpoint":"add-evidence","parent":"a","child":"b"}"#,
            r#"{"endpoint":"export-component","label":"a","drain":true}"#,
            r#"{"endpoint":"export-component","label":"","drain":false}"#,
            r#"{"endpoint":"import-component","payload":"AA=="}"#,
            r#"{"endpoint":"import-component","source":1,"payload":""}"#,
        ] {
            let v = json::parse(bad).unwrap();
            assert!(Request::from_json(&v).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn cache_keys_distinguish_requests() {
        let keys: Vec<Option<String>> = vec![
            Request::Isa {
                parent: "a".into(),
                child: "b".into(),
            }
            .cache_key(),
            Request::Isa {
                parent: "b".into(),
                child: "a".into(),
            }
            .cache_key(),
            Request::Plausibility {
                parent: "a".into(),
                child: "b".into(),
            }
            .cache_key(),
            Request::Typicality {
                term: "a".into(),
                direction: Direction::Instances,
                k: 5,
            }
            .cache_key(),
            Request::Typicality {
                term: "a".into(),
                direction: Direction::Concepts,
                k: 5,
            }
            .cache_key(),
            Request::Typicality {
                term: "a".into(),
                direction: Direction::Concepts,
                k: 6,
            }
            .cache_key(),
            Request::Conceptualize {
                terms: vec!["a".into(), "b".into()],
                k: 5,
            }
            .cache_key(),
            Request::Conceptualize {
                terms: vec!["ab".into()],
                k: 5,
            }
            .cache_key(),
            Request::Levels { term: None }.cache_key(),
            Request::Levels {
                term: Some("a".into()),
            }
            .cache_key(),
            Request::Labels {
                kind: LabelKind::Concepts,
                k: 5,
            }
            .cache_key(),
            Request::Labels {
                kind: LabelKind::Instances,
                k: 5,
            }
            .cache_key(),
            Request::SearchRewrite {
                query: "a".into(),
                k: 5,
            }
            .cache_key(),
        ];
        let mut seen = std::collections::HashSet::new();
        for k in keys {
            let k = k.expect("read endpoints are cacheable");
            assert!(seen.insert(k.clone()), "duplicate cache key {k:?}");
        }
    }

    #[test]
    fn writes_and_stats_not_cacheable() {
        assert_eq!(Request::Ping.cache_key(), None);
        assert_eq!(Request::Stats.cache_key(), None);
        assert_eq!(
            Request::AddEvidence {
                parent: "a".into(),
                child: "b".into(),
                count: 1
            }
            .cache_key(),
            None
        );
        assert_eq!(Request::SnapshotLoad { path: "p".into() }.cache_key(), None);
        assert_eq!(
            Request::ExportComponent {
                label: "a".into(),
                drain: false,
                target: None,
                labels_only: false
            }
            .cache_key(),
            None
        );
        assert_eq!(
            Request::ImportComponent {
                source: 0,
                payload: "AA==".into()
            }
            .cache_key(),
            None
        );
    }

    #[test]
    fn envelopes() {
        let ok = ok_envelope(3, 9, Json::obj(vec![("x", Json::num(1))]));
        assert_eq!(
            ok.to_string(),
            r#"{"id":3,"ok":true,"version":9,"data":{"x":1}}"#
        );
        let err = err_envelope(4, ErrorCode::Overloaded, "queue full");
        assert_eq!(
            err.to_string(),
            r#"{"id":4,"ok":false,"error":"overloaded","detail":"queue full"}"#
        );
    }

    #[test]
    fn error_codes_roundtrip_and_are_unique() {
        // The error envelope contract the chaos suite (and every
        // retrying client) relies on: each code has a distinct wire
        // string that parses back to exactly that code.
        let mut seen = std::collections::HashSet::new();
        for code in ErrorCode::ALL {
            let wire = code.as_str();
            assert!(seen.insert(wire), "duplicate wire string {wire:?}");
            assert_eq!(ErrorCode::parse(wire), Some(code), "{wire:?} round-trips");
        }
        assert_eq!(seen.len(), ErrorCode::ALL.len());
        assert_eq!(ErrorCode::parse("nope"), None);
        assert_eq!(ErrorCode::parse(""), None);
        assert_eq!(ErrorCode::parse("Bad-Request"), None, "codes are exact");
    }

    #[test]
    fn retryable_codes_are_the_shedding_ones() {
        for code in ErrorCode::ALL {
            let expect = matches!(
                code,
                ErrorCode::Overloaded | ErrorCode::DeadlineExceeded | ErrorCode::TooManyConnections
            );
            assert_eq!(code.retryable(), expect, "{:?}", code);
        }
    }

    #[test]
    fn idempotence_matches_write_surface() {
        assert!(Request::Ping.is_idempotent());
        assert!(Request::Stats.is_idempotent());
        assert!(Request::Isa {
            parent: "a".into(),
            child: "b".into()
        }
        .is_idempotent());
        assert!(!Request::AddEvidence {
            parent: "a".into(),
            child: "b".into(),
            count: 1
        }
        .is_idempotent());
        assert!(!Request::SnapshotLoad { path: "p".into() }.is_idempotent());
        assert!(Request::ExportComponent {
            label: "a".into(),
            drain: false,
            target: None,
            labels_only: false
        }
        .is_idempotent());
        assert!(!Request::ExportComponent {
            label: "a".into(),
            drain: true,
            target: Some(1),
            labels_only: false
        }
        .is_idempotent());
        assert!(!Request::ImportComponent {
            source: 0,
            payload: "AA==".into()
        }
        .is_idempotent());
    }

    #[test]
    fn endpoint_indexes_consistent() {
        let reqs = [
            Request::Ping,
            Request::Isa {
                parent: "a".into(),
                child: "b".into(),
            },
            Request::Typicality {
                term: "a".into(),
                direction: Direction::Instances,
                k: 1,
            },
            Request::Plausibility {
                parent: "a".into(),
                child: "b".into(),
            },
            Request::Conceptualize {
                terms: vec!["a".into()],
                k: 1,
            },
            Request::SearchRewrite {
                query: "a".into(),
                k: 1,
            },
            Request::Stats,
            Request::Levels { term: None },
            Request::Labels {
                kind: LabelKind::Instances,
                k: 1,
            },
            Request::AddEvidence {
                parent: "a".into(),
                child: "b".into(),
                count: 1,
            },
            Request::SnapshotLoad { path: "p".into() },
            Request::ExportComponent {
                label: "a".into(),
                drain: false,
                target: None,
                labels_only: false,
            },
            Request::ImportComponent {
                source: 0,
                payload: "AA==".into(),
            },
        ];
        assert_eq!(reqs.len(), ENDPOINTS.len());
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.endpoint_index(), i);
            assert_eq!(r.endpoint(), ENDPOINTS[i]);
        }
    }

    #[test]
    fn annotated_envelope_flags() {
        let plain = annotated_envelope(1, 2, false, false, Json::num(0));
        assert_eq!(
            plain.to_string(),
            ok_envelope(1, 2, Json::num(0)).to_string()
        );
        let deg = annotated_envelope(1, 2, true, false, Json::num(0));
        assert_eq!(
            deg.to_string(),
            degraded_envelope(1, 2, Json::num(0)).to_string()
        );
        let trunc = annotated_envelope(1, 2, false, true, Json::num(0));
        assert_eq!(
            trunc.to_string(),
            r#"{"id":1,"ok":true,"version":2,"truncated":true,"data":0}"#
        );
        let both = annotated_envelope(1, 2, true, true, Json::num(0));
        assert!(both
            .to_string()
            .contains(r#""degraded":true,"truncated":true"#));
    }

    #[test]
    fn base64_roundtrips_and_rejects_garbage() {
        // RFC 4648 §10 test vectors.
        for (raw, enc) in [
            (&b""[..], ""),
            (&b"f"[..], "Zg=="),
            (&b"fo"[..], "Zm8="),
            (&b"foo"[..], "Zm9v"),
            (&b"foob"[..], "Zm9vYg=="),
            (&b"fooba"[..], "Zm9vYmE="),
            (&b"foobar"[..], "Zm9vYmFy"),
        ] {
            assert_eq!(b64_encode(raw), enc);
            assert_eq!(b64_decode(enc).as_deref(), Some(raw));
        }
        // Every binary byte value survives a roundtrip.
        let all: Vec<u8> = (0u8..=255).collect();
        assert_eq!(b64_decode(&b64_encode(&all)).as_deref(), Some(&all[..]));
        for bad in ["Zg=", "Zg=a", "Z===", "Zm9v!a==", "=Zg=", "ab"] {
            assert!(b64_decode(bad).is_none(), "{bad:?} should be rejected");
        }
    }
}
