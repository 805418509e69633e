//! R8 `config-compat`: every field later added to a serde struct
//! reachable from `PlatformConfig` must deserialize when absent —
//! `#[serde(default)]` on the field (or the container), or an `Option`
//! type. The sections added after the first release (`query`,
//! `replication`) each needed this fix by hand; the rule keeps on-disk
//! configs from older deployments parsing without anyone having to
//! remember.
//!
//! Mechanics: parse every `#[derive(.. Deserialize ..)]` struct in the
//! workspace (name, container/field attributes, field types), build the
//! type-reference graph from field type identifiers, and walk it from
//! `PlatformConfig`. For each reachable struct the *founding* fields —
//! the ones present when the struct first shipped — are recorded in
//! `BASELINE`; any other non-defaulted, non-`Option` field is a
//! finding. A reachable struct absent from `BASELINE` is treated as
//! founding-complete: its fields all arrived together behind a
//! `#[serde(default)]` parent field, which is what guards old configs.
//! When introducing a new config struct, add its fields to `BASELINE` so
//! later additions are caught. Enums are out of scope (serde enums fail
//! closed on unknown variants; adding one never breaks an old file).

use std::collections::{BTreeMap, BTreeSet};

use crate::rules::{Rule, Violation, Workspace};
use crate::tokenizer::{Token, TokenKind};

/// Founding fields per struct: present since the struct first shipped,
/// so absent-field compatibility was never promised for them.
const BASELINE: &[(&str, &[&str])] = &[
    (
        "PlatformConfig",
        &[
            "fleet",
            "storage_nodes",
            "tsd_count",
            "batch_size",
            "training_window",
            "eval_window",
            "alpha",
            "procedure",
            "workers",
        ],
    ),
    (
        "FleetConfig",
        &[
            "units",
            "sensors_per_unit",
            "seed",
            "sample_period_secs",
            "noise_std",
            "baseline_mean",
            "degradation_fraction",
            "shift_fraction",
            "degradation_slope_per_100",
            "shift_magnitude",
            "group_correlation",
        ],
    ),
    (
        "QueryConfig",
        &[
            "tiers",
            "shard_deadline_ms",
            "tail_buckets",
            "cache_ttl_ms",
            "cache_shards",
            "cache_capacity_per_shard",
        ],
    ),
    (
        "ReplicationConfig",
        &["factor", "write_quorum", "hedge_delay_ms"],
    ),
];

/// One parsed field of a serde struct.
struct Field {
    name: String,
    line: u32,
    /// `#[serde(default)]` / `#[serde(default = "..")]` present?
    defaulted: bool,
    /// Identifiers appearing in the type (for the reference graph).
    type_idents: Vec<String>,
}

/// One `#[derive(Deserialize)]` struct definition.
struct SerdeStruct {
    name: String,
    file: String,
    container_default: bool,
    fields: Vec<Field>,
}

/// Find the matching close delimiter for `open`, forward.
fn matching(tokens: &[Token], open: usize, oc: char, cc: char) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(oc) {
            depth += 1;
        } else if t.is_punct(cc) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Attribute token slices (`derive ( .. )`, `serde ( default )`)
/// preceding token `i`, walking back over `pub`/`pub(crate)`.
fn attrs_before(tokens: &[Token], i: usize) -> Vec<&[Token]> {
    let mut attrs = Vec::new();
    let mut k = i as i64 - 1;
    // Visibility: `pub` possibly followed (in source order) by `(..)`.
    if k >= 0 && tokens[k as usize].is_punct(')') {
        let mut depth = 0i32;
        while k >= 0 {
            let t = &tokens[k as usize];
            if t.is_punct(')') {
                depth += 1;
            } else if t.is_punct('(') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k -= 1;
        }
        k -= 1;
    }
    if k >= 0 && tokens[k as usize].is_ident("pub") {
        k -= 1;
    }
    // Attribute groups: `# [ .. ]` repeated.
    while k >= 1 && tokens[k as usize].is_punct(']') {
        let close = k as usize;
        let mut depth = 0i32;
        let mut open = close;
        loop {
            let t = &tokens[open];
            if t.is_punct(']') {
                depth += 1;
            } else if t.is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if open == 0 {
                return attrs;
            }
            open -= 1;
        }
        if open == 0 || !tokens[open - 1].is_punct('#') {
            break;
        }
        attrs.push(&tokens[open + 1..close]);
        k = open as i64 - 2;
    }
    attrs
}

/// Does any attribute contain both marker identifiers?
fn attr_has(attrs: &[&[Token]], a: &str, b: &str) -> bool {
    attrs
        .iter()
        .any(|toks| toks.iter().any(|t| t.is_ident(a)) && toks.iter().any(|t| t.is_ident(b)))
}

/// Parse every `#[derive(.. Deserialize ..)]` braced struct in the file.
fn parse_structs(path: &str, tokens: &[Token]) -> Vec<SerdeStruct> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("struct") {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            i += 1;
            continue;
        };
        let attrs = attrs_before(tokens, i);
        if !attr_has(&attrs, "derive", "Deserialize") {
            i += 1;
            continue;
        }
        let container_default = attr_has(&attrs, "serde", "default");
        // Skip generics on the struct name, then require a braced body
        // (tuple/unit structs have positional/no fields — out of scope).
        let mut j = i + 2;
        if tokens.get(j).map(|t| t.is_punct('<')).unwrap_or(false) {
            let mut depth = 0i32;
            while j < tokens.len() {
                if tokens[j].is_punct('<') {
                    depth += 1;
                } else if tokens[j].is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            j += 1;
        }
        if !tokens.get(j).map(|t| t.is_punct('{')).unwrap_or(false) {
            i += 1;
            continue;
        }
        let Some(close) = matching(tokens, j, '{', '}') else {
            i += 1;
            continue;
        };
        out.push(SerdeStruct {
            name: name_tok.text.clone(),
            file: path.to_string(),
            container_default,
            fields: parse_fields(&tokens[j + 1..close]),
        });
        i = close + 1;
    }
    out
}

/// Parse the fields inside a struct body token slice.
fn parse_fields(body: &[Token]) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < body.len() {
        // Field attributes.
        let mut defaulted = false;
        while body.get(i).map(|t| t.is_punct('#')).unwrap_or(false)
            && body.get(i + 1).map(|t| t.is_punct('[')).unwrap_or(false)
        {
            let Some(close) = matching(body, i + 1, '[', ']') else {
                return fields;
            };
            let attr = &body[i + 2..close];
            if attr.iter().any(|t| t.is_ident("serde"))
                && attr.iter().any(|t| t.is_ident("default"))
            {
                defaulted = true;
            }
            i = close + 1;
        }
        // Visibility.
        if body.get(i).map(|t| t.is_ident("pub")).unwrap_or(false) {
            i += 1;
            if body.get(i).map(|t| t.is_punct('(')).unwrap_or(false) {
                let Some(close) = matching(body, i, '(', ')') else {
                    return fields;
                };
                i = close + 1;
            }
        }
        let Some(name_tok) = body.get(i).filter(|t| t.kind == TokenKind::Ident) else {
            break;
        };
        if !body.get(i + 1).map(|t| t.is_punct(':')).unwrap_or(false) {
            break;
        }
        // Type runs to the next top-level comma (or end of body).
        let mut j = i + 2;
        let (mut paren, mut square, mut angle) = (0i32, 0i32, 0i32);
        let mut type_idents = Vec::new();
        while j < body.len() {
            let t = &body[j];
            if t.is_punct(',') && paren == 0 && square == 0 && angle == 0 {
                break;
            }
            match () {
                _ if t.is_punct('(') => paren += 1,
                _ if t.is_punct(')') => paren -= 1,
                _ if t.is_punct('[') => square += 1,
                _ if t.is_punct(']') => square -= 1,
                _ if t.is_punct('<') => angle += 1,
                _ if t.is_punct('>') && !(j >= 1 && body[j - 1].is_punct('-')) => angle -= 1,
                _ => {
                    if t.kind == TokenKind::Ident {
                        type_idents.push(t.text.clone());
                    }
                }
            }
            j += 1;
        }
        fields.push(Field {
            name: name_tok.text.clone(),
            line: name_tok.line,
            defaulted,
            type_idents,
        });
        i = j + 1;
    }
    fields
}

pub struct ConfigCompat;

impl Rule for ConfigCompat {
    fn id(&self) -> &'static str {
        "config-compat"
    }

    fn describe(&self) -> &'static str {
        "fields added to PlatformConfig-reachable serde structs must be #[serde(default)] (or Option) so old on-disk configs keep parsing"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Violation>) {
        let mut structs: Vec<SerdeStruct> = Vec::new();
        for f in &ws.files {
            structs.extend(parse_structs(&f.path, &f.lexed.tokens));
        }
        let by_name: BTreeMap<&str, usize> = structs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.as_str(), i))
            .collect();

        // Reachability from PlatformConfig over field-type references.
        let mut reachable: BTreeSet<usize> = BTreeSet::new();
        let mut frontier: Vec<usize> = by_name
            .get("PlatformConfig")
            .map(|&i| vec![i])
            .unwrap_or_default();
        while let Some(i) = frontier.pop() {
            if !reachable.insert(i) {
                continue;
            }
            for field in &structs[i].fields {
                for ident in &field.type_idents {
                    if let Some(&j) = by_name.get(ident.as_str()) {
                        frontier.push(j);
                    }
                }
            }
        }

        let baseline: BTreeMap<&str, &[&str]> = BASELINE.iter().copied().collect();
        for &i in &reachable {
            let s = &structs[i];
            if s.container_default {
                continue;
            }
            // Not in the baseline table: founding-complete (the parent
            // field's #[serde(default)] shields old configs from the
            // whole section). New config structs get a BASELINE entry
            // when they are introduced.
            let Some(founding) = baseline.get(s.name.as_str()) else {
                continue;
            };
            for field in &s.fields {
                if field.defaulted
                    || founding.contains(&field.name.as_str())
                    || field.type_idents.first().map(String::as_str) == Some("Option")
                {
                    continue;
                }
                out.push(Violation {
                    rule: self.id(),
                    file: s.file.clone(),
                    line: field.line,
                    message: format!(
                        "field `{}` added to `{}` (reachable from PlatformConfig) without #[serde(default)]; existing on-disk configs will fail to parse — add a default (or make it Option)",
                        field.name, s.name,
                    ),
                });
            }
        }
    }
}
