//! What a correct answer looks like: its status, its endpoint's fields, and
//! the body digest compared across runs.

use credence_index::{search_top_k_exhaustive, Bm25Params, InvertedIndex};
use credence_json::{parse, Value};

use crate::workload::{Family, Op, K};

/// FNV-1a over `bytes`.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One digest over per-request body hashes, in stream order.
pub fn digest(hashes: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(hashes.len() * 8);
    for h in hashes {
        bytes.extend_from_slice(&h.to_le_bytes());
    }
    fnv(&bytes)
}

/// What a checked answer carried.
#[derive(Debug, Clone, Copy, Default)]
pub struct Answer {
    pub generation: u64,
    /// Explanations returned (families that take `n`) or rows (`/rank`).
    pub found: Option<usize>,
}

/// Check that `status` is 2xx and `body` carries the fields of `op`'s
/// endpoint.
pub fn check(op: &Op, status: u16, body: &[u8]) -> Result<Answer, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if !(200..300).contains(&status) {
        return Err(format!(
            "{} {} answered {status}: {text}",
            op.method(),
            op.path()
        ));
    }
    let v = parse(text).map_err(|e| format!("{}: invalid JSON: {e}", op.path()))?;
    let fields: &[&str] = match op {
        Op::Rank { .. } => &["ranking"],
        Op::Explain { family, .. } => match family {
            Family::SentenceRemoval
            | Family::QueryAugmentation
            | Family::QueryReduction
            | Family::TermRemoval => {
                &["status", "old_rank", "candidates_evaluated", "explanations"]
            }
            Family::FeatureAttribution => &["status", "old_rank", "attributions", "fidelity"],
            Family::Doc2VecNearest | Family::CosineSampled => &["explanations"],
            Family::Rerank => &["valid", "old_rank", "new_rank", "rows"],
        },
        Op::Register { .. } => &["num_docs", "replaced"],
        Op::Write { .. } => &["status", "name"],
    };
    for f in ["corpus", "generation"].iter().chain(fields) {
        if v.get(f).is_none() {
            return Err(format!("{}: answer lacks field {f:?}: {text}", op.path()));
        }
    }
    if let Some(status) = v.get("status").and_then(Value::as_str) {
        let allowed: &[&str] = match op {
            Op::Write { .. } => &["applied"],
            _ => &["complete", "exhausted"],
        };
        if !allowed.contains(&status) {
            return Err(format!("{}: status {status:?}", op.path()));
        }
    }
    if let Op::Rank { .. } = op {
        let rows = v.get("ranking").and_then(Value::as_array).unwrap_or(&[]);
        if rows.is_empty() || rows.len() > K {
            return Err(format!("/rank returned {} rows", rows.len()));
        }
    }
    let found = match op {
        Op::Rank { .. } => v
            .get("ranking")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Op::Explain { family, .. } if family.takes_n() => Some(
            v.get("explanations")
                .and_then(Value::as_array)
                .map_or(0, <[Value]>::len),
        ),
        _ => None,
    };
    Ok(Answer {
        generation: v.get("generation").and_then(Value::as_u64).unwrap_or(0),
        found,
    })
}

/// Compare a `/rank` answer with `search_top_k_exhaustive` over `index`,
/// in document ids and score bits.
pub fn matches_exhaustive(index: &InvertedIndex, query: &str, body: &[u8]) -> Result<(), String> {
    let v = parse(std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?)
        .map_err(|e| format!("invalid JSON: {e}"))?;
    let got: Vec<(u32, u64)> = v
        .get("ranking")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|row| {
            let doc = row.get("doc").and_then(Value::as_u64).unwrap_or(u64::MAX) as u32;
            let score = row.get("score").and_then(Value::as_f64).unwrap_or(f64::NAN);
            (doc, score.to_bits())
        })
        .collect();
    let terms = index.analyze_query(query);
    let want: Vec<(u32, u64)> = search_top_k_exhaustive(index, Bm25Params::default(), &terms, K)
        .0
        .iter()
        .map(|h| (h.doc.0, h.score.to_bits()))
        .collect();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "/rank {query:?}: served {got:?}, exhaustive {want:?}"
        ))
    }
}
