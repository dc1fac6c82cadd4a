//! L005 — wire-protocol tag constants and trace-event codes must be
//! unique and documented.
//!
//! `lint.toml` declares tag *namespaces* (`[[tags.namespace]]`): the files
//! whose `TAG_*` constants form one tag space. Within a namespace every
//! tag byte must be unique — the wire format dispatches on it. Across
//! namespaces, values may legitimately collide (the protocols are layered:
//! a swor-wire byte never appears where a data-plane frame tag is expected) but
//! *names* must stay globally unique so a grep for `TAG_X` is unambiguous.
//! Every tag must also appear, name and byte, in the namespace's declared
//! document.
//!
//! `[tags.trace]` declares the trace-event enum (`TraceKind`): its `u8`
//! codes must be unique, every variant needs both a code and a wire name,
//! and the declared document must carry a `| code | `name` |` catalog row
//! per variant.

use std::collections::BTreeMap;

use crate::config::Config;
use crate::diag::Finding;
use crate::lexer::{lex, TokKind};

pub const CODE: &str = "L005";

/// One `const TAG_X: u8 = 0xNN;` item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireTag {
    pub name: String,
    pub value: u8,
    /// The literal token text (`0x40`), for doc matching.
    pub text: String,
    pub line: u32,
}

/// Extracts `TAG_*` byte constants from Rust source. Public so the repo's
/// documentation tests can assert against the same parse the lint uses.
pub fn wire_tags_in(source: &str) -> Vec<WireTag> {
    let src = lex(source);
    let toks = &src.toks;
    let mut out = Vec::new();
    let mut i = 0;
    while i + 5 < toks.len() {
        // `const TAG_X : u8 = <num> ;` (visibility tokens precede `const`
        // and are simply not matched here).
        let ok = toks[i].is_ident("const")
            && toks[i + 1].kind == TokKind::Ident
            && toks[i + 1].text.starts_with("TAG_")
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("u8")
            && toks[i + 4].is_punct('=')
            && toks[i + 5].kind == TokKind::Num;
        if ok {
            if let Some(value) = parse_u8(&toks[i + 5].text) {
                out.push(WireTag {
                    name: toks[i + 1].text.clone(),
                    value,
                    text: toks[i + 5].text.clone(),
                    line: toks[i + 1].line,
                });
            }
            i += 6;
        } else {
            i += 1;
        }
    }
    out
}

fn parse_u8(text: &str) -> Option<u8> {
    let t = text.replace('_', "");
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u8::from_str_radix(hex, 16).ok()
    } else {
        t.parse().ok()
    }
}

/// One `TraceKind` variant with its wire code and/or name, as recovered
/// from the `as_u8` / `name` match arms.
#[derive(Debug, Default)]
struct TraceVariant {
    code: Option<(u8, u32)>,
    name: Option<(String, u32)>,
}

/// Extracts variant → (code, name) from the enum's match arms:
/// `TraceKind::X => 7` and `TraceKind::X => "sync"`.
fn trace_variants(source: &str, enum_name: &str) -> BTreeMap<String, TraceVariant> {
    let src = lex(source);
    let toks = &src.toks;
    let mut out: BTreeMap<String, TraceVariant> = BTreeMap::new();
    let mut i = 0;
    while i + 5 < toks.len() {
        let ok = toks[i].is_ident(enum_name)
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].kind == TokKind::Ident
            && toks[i + 4].is_punct('=')
            && toks[i + 5].is_punct('>');
        if ok {
            let variant = toks[i + 3].text.clone();
            let line = toks[i + 3].line;
            let entry = out.entry(variant).or_default();
            match toks.get(i + 6) {
                Some(t) if t.kind == TokKind::Num => {
                    if let Some(v) = parse_u8(&t.text) {
                        entry.code.get_or_insert((v, line));
                    }
                }
                Some(t) if t.kind == TokKind::Str => {
                    let name = t.text.trim_matches('"').to_string();
                    entry.name.get_or_insert((name, line));
                }
                _ => {}
            }
            i += 6;
        } else {
            i += 1;
        }
    }
    out
}

/// `files` holds every scanned file as `(workspace-relative path, source)`.
/// `read_doc` resolves a doc path declared in the config to its text.
pub fn check_workspace(
    cfg: &Config,
    files: &[(String, String)],
    read_doc: &dyn Fn(&str) -> Option<String>,
    out: &mut Vec<Finding>,
) {
    // Global name registry: TAG names must be unique across namespaces.
    let mut names_seen: BTreeMap<String, (String, u32)> = BTreeMap::new();

    for ns in &cfg.tag_namespaces {
        let doc = read_doc(&ns.doc);
        if doc.is_none() {
            out.push(Finding::new(
                CODE,
                &ns.doc,
                0,
                format!(
                    "namespace `{}` declares doc `{}` but it is unreadable",
                    ns.name, ns.doc
                ),
            ));
        }
        let mut values_seen: BTreeMap<u8, (String, String, u32)> = BTreeMap::new();
        for decl in &ns.files {
            let Some((path, source)) = files.iter().find(|(p, _)| p.ends_with(decl.as_str()))
            else {
                out.push(Finding::new(
                    CODE,
                    decl,
                    0,
                    format!(
                        "namespace `{}` lists file `{decl}` but it was not scanned",
                        ns.name
                    ),
                ));
                continue;
            };
            for tag in wire_tags_in(source) {
                if let Some((other, opath, oline)) = values_seen.get(&tag.value) {
                    out.push(Finding::new(
                        CODE,
                        path,
                        tag.line,
                        format!(
                            "tag byte 0x{:02x} of `{}` collides with `{other}` \
                             ({opath}:{oline}) in namespace `{}`",
                            tag.value, tag.name, ns.name
                        ),
                    ));
                } else {
                    values_seen.insert(tag.value, (tag.name.clone(), path.clone(), tag.line));
                }
                if let Some((opath, oline)) = names_seen.get(&tag.name) {
                    out.push(Finding::new(
                        CODE,
                        path,
                        tag.line,
                        format!(
                            "tag name `{}` already defined at {opath}:{oline} — wire-tag \
                             names must be globally unique",
                            tag.name
                        ),
                    ));
                } else {
                    names_seen.insert(tag.name.clone(), (path.clone(), tag.line));
                }
                if let Some(doc) = &doc {
                    let documented = doc.contains(&tag.name) && doc.contains(&tag.text);
                    if !documented {
                        out.push(Finding::new(
                            CODE,
                            path,
                            tag.line,
                            format!(
                                "tag `{}` = `{}` is not documented in {} (both the name \
                                 and the byte must appear)",
                                tag.name, tag.text, ns.doc
                            ),
                        ));
                    }
                }
            }
        }
    }

    // Trace-event catalog.
    if let Some(trace) = &cfg.trace {
        let Some((path, source)) = files.iter().find(|(p, _)| p.ends_with(trace.file.as_str()))
        else {
            out.push(Finding::new(
                CODE,
                &trace.file,
                0,
                format!("[tags.trace] file `{}` was not scanned", trace.file),
            ));
            return;
        };
        let doc = read_doc(&trace.doc);
        if doc.is_none() {
            out.push(Finding::new(
                CODE,
                &trace.doc,
                0,
                format!("[tags.trace] doc `{}` is unreadable", trace.doc),
            ));
        }
        let variants = trace_variants(source, &trace.enum_name);
        if variants.is_empty() {
            out.push(Finding::new(
                CODE,
                path,
                0,
                format!("no `{}::Variant => ...` arms found", trace.enum_name),
            ));
        }
        let mut codes_seen: BTreeMap<u8, (String, u32)> = BTreeMap::new();
        for (variant, info) in &variants {
            let Some((code, cline)) = info.code else {
                out.push(Finding::new(
                    CODE,
                    path,
                    info.name.as_ref().map_or(0, |(_, l)| *l),
                    format!(
                        "{}::{variant} has a wire name but no u8 code arm",
                        trace.enum_name
                    ),
                ));
                continue;
            };
            if let Some((other, oline)) = codes_seen.get(&code) {
                out.push(Finding::new(
                    CODE,
                    path,
                    cline,
                    format!(
                        "trace code {code} of {}::{variant} collides with ::{other} \
                         (line {oline})",
                        trace.enum_name
                    ),
                ));
            } else {
                codes_seen.insert(code, (variant.clone(), cline));
            }
            let Some((name, _)) = &info.name else {
                out.push(Finding::new(
                    CODE,
                    path,
                    cline,
                    format!(
                        "{}::{variant} has a code but no wire-name arm",
                        trace.enum_name
                    ),
                ));
                continue;
            };
            if let Some(doc) = &doc {
                let row = format!("| {code} | `{name}` |");
                if !doc.contains(&row) {
                    out.push(Finding::new(
                        CODE,
                        path,
                        cline,
                        format!(
                            "trace event {code} `{name}` has no catalog row \
                             `{row}` in {}",
                            trace.doc
                        ),
                    ));
                }
            }
        }
    }
}
