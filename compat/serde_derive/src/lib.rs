//! Offline stand-in for `serde_derive`.
//!
//! A hand-written implementation of `#[derive(Serialize)]` that parses the item declaration
//! directly from the raw [`TokenStream`] — no `syn`, no `quote` (crates.io is unreachable in
//! this build environment). There is no derive for reading: nothing in the workspace reads
//! a typed value back. It supports exactly the shapes this workspace uses:
//!
//! * structs with named fields,
//! * tuple structs (any arity, fields may be private — derives expand in-crate),
//! * enums with unit and named-field variants,
//! * no generic parameters (none of the workspace's serialized types are generic).
//!
//! Any other shape (a unit struct, a tuple variant) is refused at expansion.
//!
//! The generated code targets the value-model trait in the stand-in `serde` crate
//! (`Serialize::to_value`).

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive generated invalid Serialize impl")
}

enum Shape {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    /// Each variant's name and, for a named-field variant, its fields.
    Enum(Vec<(String, Option<Vec<String>>)>),
}

struct Item {
    name: String,
    shape: Shape,
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i);
    let keyword = expect_ident(&tokens, &mut i);
    let name = expect_ident(&tokens, &mut i);
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive stand-in does not support generic types (deriving on `{name}`)");
    }
    let shape = match keyword.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(count_tuple_fields(g.stream()))
            }
            _ => panic!("serde_derive stand-in does not support unit structs (deriving on `{name}`)"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            _ => panic!("malformed enum `{name}`"),
        },
        other => panic!("serde derives only apply to structs and enums, found `{other}`"),
    };
    Item { name, shape }
}

/// Advances past any `#[...]` attributes and a `pub` / `pub(...)` visibility prefix.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // '#' and the bracketed group
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

fn expect_ident(tokens: &[TokenTree], i: &mut usize) -> String {
    match tokens.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("expected identifier, found {other:?}"),
    }
}

/// Parses `name: Type, ...` field lists, returning the field names. Commas inside angle
/// brackets (`BTreeMap<K, V>`) are not separators; angle depth is tracked across the flat
/// punct stream (`<` / `>` are individual puncts even in `>>`).
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        fields.push(expect_ident(&tokens, &mut i));
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("expected `:` after field name, found {other:?}"),
        }
        skip_type(&tokens, &mut i);
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
    fields
}

/// Skips one type, stopping at a top-level `,` (or end of stream).
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0usize;
    while let Some(tok) = tokens.get(*i) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                ',' if angle_depth == 0 => return,
                _ => {}
            }
        }
        *i += 1;
    }
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut count = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        skip_type(&tokens, &mut i);
        count += 1;
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<(String, Option<Vec<String>>)> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut i);
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Some(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                panic!("serde_derive stand-in does not support tuple variants (variant `{name}`)")
            }
            _ => None,
        };
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push((name, fields));
    }
    variants
}

// --- code generation -------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::NamedStruct(fields) => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!("(::std::string::String::from(\"{f}\"), ::serde::Serialize::to_value(&self.{f}))")
                })
                .collect();
            format!("::serde::Value::Object(::std::vec![{}])", pairs.join(", "))
        }
        Shape::TupleStruct(arity) => {
            let items: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
        }
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, fields)| match fields {
                    None => format!(
                        "{name}::{v} => ::serde::Value::Str(::std::string::String::from(\"{v}\")),"
                    ),
                    Some(fields) => {
                        let bind = fields.join(", ");
                        let pairs: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from(\"{f}\"), ::serde::Serialize::to_value({f}))"
                                )
                            })
                            .collect();
                        format!(
                            "{name}::{v} {{ {bind} }} => ::serde::Value::Object(::std::vec![(::std::string::String::from(\"{v}\"), ::serde::Value::Object(::std::vec![{}]))]),",
                            pairs.join(", ")
                        )
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n    fn to_value(&self) -> ::serde::Value {{ {body} }}\n}}"
    )
}
