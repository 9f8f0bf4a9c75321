//! Derive macros for the vendored `serde` subset.
//!
//! The build environment has no registry access, so `syn`/`quote` are not
//! available; the input item is parsed by hand from the raw
//! [`TokenStream`]. Supported shapes — the ones the Armus sources use —
//! are non-generic structs with named fields, newtype structs, and enums
//! whose variants are units or newtypes. Any other item produces a
//! `compile_error!` naming the limitation rather than silently wrong code.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` by converting the item into a `serde::Value`
/// tree (structs → maps, newtypes → transparent, unit variants → strings).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

/// Derives `serde::Deserialize`, the inverse of the `Serialize` encoding.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

// --- item model ------------------------------------------------------------

enum Shape {
    NamedStruct(Vec<String>),
    Newtype,
    Enum(Vec<(String, VariantShape)>),
}

enum VariantShape {
    Unit,
    Newtype,
}

fn expand(input: TokenStream, gen: fn(&str, &Shape) -> String) -> TokenStream {
    match parse_item(input) {
        Ok((name, shape)) => {
            gen(&name, &shape).parse().expect("serde_derive generated invalid Rust")
        }
        Err(msg) => {
            format!("compile_error!({msg:?});").parse().expect("compile_error is valid Rust")
        }
    }
}

// --- parsing ---------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<(String, Shape), String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i);

    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("serde_derive: expected struct/enum, got {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("serde_derive: expected item name, got {other:?}")),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde_derive: generic item `{name}` is not supported by the vendored subset"
        ));
    }

    match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Ok((name, Shape::NamedStruct(parse_named_fields(g.stream())?)))
            }
            Some(TokenTree::Group(g))
                if g.delimiter() == Delimiter::Parenthesis
                    && count_tuple_fields(g.stream()) == 1 =>
            {
                Ok((name, Shape::Newtype))
            }
            other => Err(format!("serde_derive: unsupported struct body {other:?}")),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Ok((name, Shape::Enum(parse_variants(g.stream())?)))
            }
            other => Err(format!("serde_derive: expected enum body, got {other:?}")),
        },
        other => Err(format!("serde_derive: cannot derive for `{other}` items")),
    }
}

/// Advances `i` past leading `#[...]` attributes and a `pub`/`pub(...)`
/// visibility prefix.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // '#' + bracket group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return,
        }
    }
}

/// Field names of a named-field body, in declaration order.
fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("serde_derive: expected field name, got {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("serde_derive: expected `:`, got {other:?}")),
        }
        skip_type(&tokens, &mut i);
        fields.push(name);
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
    Ok(fields)
}

/// Advances `i` past one type, i.e. until a `,` at angle-bracket depth 0.
/// Delimited groups are single tokens, so only `<`/`>` need counting;
/// `->` cannot appear at depth 0 inside a field type's token soup without
/// being preceded by `-`, which never pairs with `>` here.
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut depth = 0i32;
    while let Some(tok) = tokens.get(*i) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => return,
                _ => {}
            }
        }
        *i += 1;
    }
}

/// Number of fields in a tuple body (top-level comma count).
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut count = 0;
    let mut i = 0;
    while i < tokens.len() {
        skip_type(&tokens, &mut i);
        count += 1;
        i += 1; // the comma
    }
    count
}

fn parse_variants(stream: TokenStream) -> Result<Vec<(String, VariantShape)>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("serde_derive: expected variant, got {other:?}")),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g))
                if g.delimiter() == Delimiter::Parenthesis
                    && count_tuple_fields(g.stream()) == 1 =>
            {
                i += 1;
                VariantShape::Newtype
            }
            Some(TokenTree::Group(g)) => {
                return Err(format!("serde_derive: variant `{name}` has an unsupported body {g}"));
            }
            _ => VariantShape::Unit,
        };
        // Skip an explicit discriminant (`= expr`) up to the next comma.
        while i < tokens.len() && !matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == ',') {
            i += 1;
        }
        i += 1; // the comma
        variants.push((name, shape));
    }
    Ok(variants)
}

// --- code generation -------------------------------------------------------

fn gen_serialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::NamedStruct(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from({f:?}), \
                         ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!("::serde::Value::Map(::std::vec![{}])", entries.join(", "))
        }
        Shape::Newtype => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, vs)| match vs {
                    VariantShape::Unit => format!(
                        "{name}::{v} => \
                         ::serde::Value::Str(::std::string::String::from({v:?}))"
                    ),
                    VariantShape::Newtype => format!(
                        "{name}::{v}(__f0) => ::serde::Value::Map(::std::vec![\
                         (::std::string::String::from({v:?}), \
                          ::serde::Serialize::to_value(__f0))])"
                    ),
                })
                .collect();
            format!("match self {{ {} }}", arms.join(", "))
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
         fn to_value(&self) -> ::serde::Value {{ {body} }} }}"
    )
}

fn gen_deserialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::NamedStruct(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::from_value(__value.get({f:?})\
                         .ok_or_else(|| ::serde::DeError::new(\
                         concat!(\"missing field `\", {f:?}, \"` in {name}\")))?)?"
                    )
                })
                .collect();
            format!(
                "match __value {{ ::serde::Value::Map(_) => \
                 ::std::result::Result::Ok({name} {{ {} }}), \
                 __other => ::std::result::Result::Err(\
                 ::serde::DeError::mismatch(\"map for {name}\", __other)) }}",
                inits.join(", ")
            )
        }
        Shape::Newtype => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__value)?))")
        }
        Shape::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|(_, vs)| matches!(vs, VariantShape::Unit))
                .map(|(v, _)| format!("{v:?} => ::std::result::Result::Ok({name}::{v}),"))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|(v, vs)| match vs {
                    VariantShape::Unit => None,
                    VariantShape::Newtype => Some(format!(
                        "{v:?} => ::std::result::Result::Ok(\
                         {name}::{v}(::serde::Deserialize::from_value(__inner)?)),"
                    )),
                })
                .collect();
            format!(
                "match __value {{ \
                 ::serde::Value::Str(__s) => match __s.as_str() {{ \
                   {} \
                   __other => ::std::result::Result::Err(::serde::DeError::new(\
                   ::std::format!(\"unknown {name} variant `{{__other}}`\"))) }}, \
                 ::serde::Value::Map(__entries) if __entries.len() == 1 => {{ \
                   let (__tag, __inner) = &__entries[0]; \
                   match __tag.as_str() {{ \
                     {} \
                     __other => ::std::result::Result::Err(::serde::DeError::new(\
                     ::std::format!(\"unknown {name} variant `{{__other}}`\"))) }} }}, \
                 __other => ::std::result::Result::Err(\
                 ::serde::DeError::mismatch(\"{name} variant\", __other)) }}",
                unit_arms.join(" "),
                data_arms.join(" ")
            )
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Deserialize for {name} {{ \
         fn from_value(__value: &::serde::Value) \
         -> ::std::result::Result<Self, ::serde::DeError> {{ {body} }} }}"
    )
}
