//! Offline stand-in for `serde_derive`.
//!
//! This workspace builds without network access to crates.io, so the real
//! serde cannot be fetched; the `compat/serde` shim defines value-tree
//! `Serialize`/`Deserialize` traits and this proc-macro derives them. It
//! supports exactly the type shapes the workspace uses:
//!
//! * structs with named fields,
//! * enums with unit variants (optionally with explicit discriminants),
//! * enums with struct or tuple variants (externally tagged, like serde).
//!
//! A derived `Deserialize` rejects a map key the struct or struct variant
//! does not declare, naming it (like serde's `deny_unknown_fields`), after
//! every declared field has been read, so a missing field is reported first.
//!
//! Generics, tuple structs and `#[serde(...)]` attributes are rejected with
//! a compile error rather than silently mis-encoded.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    Struct(Vec<String>),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Struct(Vec<String>),
    Tuple(usize),
}

fn compile_error(msg: &str) -> TokenStream {
    format!("::core::compile_error!({msg:?});").parse().unwrap()
}

/// Skip `#[...]` attribute groups starting at `i`; returns the new index.
fn skip_attrs(toks: &[TokenTree], mut i: usize) -> usize {
    while i + 1 < toks.len() {
        match (&toks[i], &toks[i + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                i += 2;
            }
            _ => break,
        }
    }
    i
}

/// Skip a visibility qualifier (`pub`, `pub(crate)`, ...) at `i`.
fn skip_vis(toks: &[TokenTree], mut i: usize) -> usize {
    if let Some(TokenTree::Ident(id)) = toks.get(i) {
        if id.to_string() == "pub" {
            i += 1;
            if let Some(TokenTree::Group(g)) = toks.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
    }
    i
}

/// Parse the field names of a `{ name: Type, ... }` body.
fn parse_named_fields(body: &proc_macro::Group) -> Result<Vec<String>, String> {
    let toks: Vec<TokenTree> = body.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_vis(&toks, skip_attrs(&toks, i));
        let name = match toks.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(t) => return Err(format!("expected field name, found `{t}`")),
            None => break,
        };
        i += 1;
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => return Err(format!("expected `:` after field `{name}`")),
        }
        // Skip the type: everything up to the next comma outside angle
        // brackets (commas inside parens/brackets are separate groups).
        let mut angle = 0i32;
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(name);
    }
    Ok(fields)
}

/// Count the fields of a tuple-variant `( Type, ... )` body.
fn count_tuple_fields(body: &proc_macro::Group) -> usize {
    let mut n = 0usize;
    let mut angle = 0i32;
    let mut any = false;
    for t in body.stream() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => n += 1,
            _ => any = true,
        }
    }
    if any {
        n + 1
    } else {
        0
    }
}

fn parse_variants(body: &proc_macro::Group) -> Result<Vec<Variant>, String> {
    let toks: Vec<TokenTree> = body.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_attrs(&toks, i);
        let name = match toks.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(t) => return Err(format!("expected variant name, found `{t}`")),
            None => break,
        };
        i += 1;
        let kind = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g)?;
                i += 1;
                VariantKind::Struct(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g);
                i += 1;
                VariantKind::Tuple(n)
            }
            _ => VariantKind::Unit,
        };
        // Skip an explicit discriminant (`= expr`) and the trailing comma.
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == ',' => {
                    i += 1;
                    break;
                }
                _ => i += 1,
            }
        }
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

fn parse_input(input: TokenStream) -> Result<(String, Shape), String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_vis(&toks, skip_attrs(&toks, 0));
    let kw = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    i += 1;
    let name = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() == '<' {
            return Err(format!("cannot derive for generic type `{name}`"));
        }
    }
    match kw.as_str() {
        "struct" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Ok((name, Shape::Struct(parse_named_fields(g)?)))
            }
            _ => Err(format!("`{name}`: only structs with named fields are supported")),
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Ok((name, Shape::Enum(parse_variants(g)?)))
            }
            _ => Err(format!("`{name}`: malformed enum body")),
        },
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, shape) = match parse_input(input) {
        Ok(p) => p,
        Err(e) => return compile_error(&e),
    };
    let body = match shape {
        Shape::Struct(fields) => {
            let mut entries = String::new();
            for f in &fields {
                entries.push_str(&format!(
                    "(::std::string::String::from(\"{f}\"), \
                     ::serde::Serialize::to_value(&self.{f})),"
                ));
            }
            format!("::serde::Value::Map(vec![{entries}])")
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in &variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vn} => \
                         ::serde::Value::Str(::std::string::String::from(\"{vn}\")),"
                    )),
                    VariantKind::Struct(fields) => {
                        let bindings = fields.join(", ");
                        let mut entries = String::new();
                        for f in fields {
                            entries.push_str(&format!(
                                "(::std::string::String::from(\"{f}\"), \
                                 ::serde::Serialize::to_value({f})),"
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {bindings} }} => ::serde::Value::Map(vec![(\
                             ::std::string::String::from(\"{vn}\"), \
                             ::serde::Value::Map(vec![{entries}]))]),"
                        ));
                    }
                    VariantKind::Tuple(n) => {
                        let bindings: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        let mut items = String::new();
                        for b in &bindings {
                            items.push_str(&format!("::serde::Serialize::to_value({b}),"));
                        }
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => ::serde::Value::Map(vec![(\
                             ::std::string::String::from(\"{vn}\"), \
                             ::serde::Value::Seq(vec![{items}]))]),",
                            bindings.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
    .parse()
    .unwrap()
}

/// `"a", "b", ...`: field names as string literals for a generated slice.
fn quoted(fields: &[String]) -> String {
    fields.iter().map(|f| format!("\"{f}\"")).collect::<Vec<_>>().join(", ")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, shape) = match parse_input(input) {
        Ok(p) => p,
        Err(e) => return compile_error(&e),
    };
    let body = match shape {
        Shape::Struct(fields) => {
            let mut inits = String::new();
            for f in &fields {
                inits.push_str(&format!(
                    "{f}: ::serde::Deserialize::from_value(__v.field(\"{f}\")?)?,"
                ));
            }
            format!(
                "let __out = {name} {{ {inits} }};\n\
                 __v.deny_unknown_fields(&[{}])?;\n\
                 ::core::result::Result::Ok(__out)",
                quoted(&fields)
            )
        }
        Shape::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in &variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => unit_arms.push_str(&format!(
                        "\"{vn}\" => ::core::result::Result::Ok({name}::{vn}),"
                    )),
                    VariantKind::Struct(fields) => {
                        let mut inits = String::new();
                        for f in fields {
                            inits.push_str(&format!(
                                "{f}: ::serde::Deserialize::from_value(__inner.field(\"{f}\")?)?,"
                            ));
                        }
                        tagged_arms.push_str(&format!(
                            "\"{vn}\" => {{ let __out = {name}::{vn} {{ {inits} }}; \
                             __inner.deny_unknown_fields(&[{}])?; \
                             ::core::result::Result::Ok(__out) }},",
                            quoted(fields)
                        ));
                    }
                    VariantKind::Tuple(n) => {
                        let mut inits = String::new();
                        for k in 0..*n {
                            inits.push_str(&format!(
                                "::serde::Deserialize::from_value(__seq.get({k}).ok_or_else(\
                                 || ::serde::Error::custom(\"{name}::{vn}: missing field {k}\"))?)?,"
                            ));
                        }
                        tagged_arms.push_str(&format!(
                            "\"{vn}\" => {{ let __seq = __inner.seq()?; \
                             ::core::result::Result::Ok({name}::{vn}({inits})) }},"
                        ));
                    }
                }
            }
            format!(
                "match __v {{\n\
                 ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                 {unit_arms}\n\
                 __other => ::core::result::Result::Err(::serde::Error::custom(\
                 format!(\"unknown {name} variant {{__other:?}}\"))),\n\
                 }},\n\
                 ::serde::Value::Map(__entries) if __entries.len() == 1 => {{\n\
                 let (__tag, __inner) = &__entries[0];\n\
                 let _ = __inner;\n\
                 match __tag.as_str() {{\n\
                 {tagged_arms}\n\
                 __other => ::core::result::Result::Err(::serde::Error::custom(\
                 format!(\"unknown {name} variant {{__other:?}}\"))),\n\
                 }}\n\
                 }},\n\
                 _ => ::core::result::Result::Err(::serde::Error::custom(\
                 \"expected a {name} variant (string or single-entry map)\")),\n\
                 }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(__v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{\n\
         {body}\n\
         }}\n\
         }}"
    )
    .parse()
    .unwrap()
}
