//! Derive macros for the offline `serde` shim.
//!
//! Parses the derive input with nothing but `proc_macro` (no `syn`/`quote`
//! — unreachable in this environment) and emits impls against the shim's
//! `Content` data model. Supports exactly the shapes this workspace
//! derives: non-generic and simply-generic structs (named, tuple, unit) and
//! enums whose variants are unit, tuple, or struct-like.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Shape {
    /// Named-field struct: field names in declaration order.
    StructNamed(Vec<String>),
    /// Tuple struct with arity.
    StructTuple(usize),
    /// Unit struct.
    StructUnit,
    /// Enum: (variant name, variant shape).
    Enum(Vec<(String, VariantShape)>),
}

#[derive(Debug)]
enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

struct Input {
    name: String,
    generics: Vec<String>,
    shape: Shape,
}

/// Skips one `#[...]` attribute if the cursor is on `#`.
fn skip_attrs(tokens: &[TokenTree], mut i: usize) -> usize {
    while i + 1 < tokens.len() {
        match (&tokens[i], &tokens[i + 1]) {
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

/// Skips `pub` / `pub(...)` visibility.
fn skip_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    if let Some(TokenTree::Ident(id)) = tokens.get(i) {
        if id.to_string() == "pub" {
            i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
    }
    i
}

/// Counts depth-0 comma-separated items in a type list (tracks `<`/`>`).
fn count_type_list(tokens: &[TokenTree]) -> usize {
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut items = 1usize;
    let mut saw_any = false;
    for t in tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    items += 1;
                    continue;
                }
                _ => {}
            }
        }
        saw_any = true;
    }
    if !saw_any {
        0
    } else {
        items
    }
}

/// Parses named fields out of a brace group's tokens.
fn parse_named_fields(tokens: &[TokenTree]) -> Vec<String> {
    let mut fields = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        i = skip_attrs(tokens, i);
        i = skip_vis(tokens, i);
        let Some(TokenTree::Ident(name)) = tokens.get(i) else { break };
        fields.push(name.to_string());
        i += 1;
        // Expect ':', then skip the type until a depth-0 comma.
        let mut depth = 0i32;
        while i < tokens.len() {
            if let TokenTree::Punct(p) = &tokens[i] {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
    }
    fields
}

/// Parses enum variants out of a brace group's tokens.
fn parse_variants(tokens: &[TokenTree]) -> Vec<(String, VariantShape)> {
    let mut variants = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        i = skip_attrs(tokens, i);
        let Some(TokenTree::Ident(name)) = tokens.get(i) else { break };
        let name = name.to_string();
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                VariantShape::Tuple(count_type_list(&inner))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                VariantShape::Named(parse_named_fields(&inner))
            }
            _ => VariantShape::Unit,
        };
        variants.push((name, shape));
        // Skip to the next depth-0 comma (covers `= discr` too).
        let mut depth = 0i32;
        while i < tokens.len() {
            if let TokenTree::Punct(p) = &tokens[i] {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
    }
    variants
}

fn parse_input(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0usize;
    i = skip_attrs(&tokens, i);
    i = skip_vis(&tokens, i);
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim derive: expected struct/enum, got {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other}"),
    };
    i += 1;
    // Optional simple generics `<A, B>` (plain type params only).
    let mut generics = Vec::new();
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            i += 1;
            let mut depth = 1i32;
            while i < tokens.len() && depth > 0 {
                match &tokens[i] {
                    TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                    TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                    TokenTree::Ident(id) if depth == 1 => generics.push(id.to_string()),
                    _ => {}
                }
                i += 1;
            }
        }
    }
    let shape = if kind == "enum" {
        let Some(TokenTree::Group(g)) = tokens.get(i) else {
            panic!("serde shim derive: enum body not found")
        };
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        Shape::Enum(parse_variants(&inner))
    } else {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                Shape::StructNamed(parse_named_fields(&inner))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                Shape::StructTuple(count_type_list(&inner))
            }
            _ => Shape::StructUnit,
        }
    };
    Input { name, generics, shape }
}

/// `impl<V: ::serde::Serialize> ::serde::Serialize for Name<V>` header parts.
fn impl_header(input: &Input, trait_name: &str) -> (String, String) {
    if input.generics.is_empty() {
        (String::new(), input.name.clone())
    } else {
        let bounded: Vec<String> = input
            .generics
            .iter()
            .map(|g| format!("{g}: ::serde::{trait_name}"))
            .collect();
        (
            format!("<{}>", bounded.join(", ")),
            format!("{}<{}>", input.name, input.generics.join(", ")),
        )
    }
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let (params, ty) = impl_header(&input, "Serialize");
    let body = match &input.shape {
        Shape::StructNamed(fields) => {
            let mut pushes = String::new();
            for f in fields {
                pushes.push_str(&format!(
                    "m.push((String::from(\"{f}\"), ::serde::Serialize::serialize(&self.{f})));\n"
                ));
            }
            format!("let mut m = Vec::new();\n{pushes}::serde::Content::Map(m)")
        }
        Shape::StructTuple(arity) => {
            let items: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Serialize::serialize(&self.{i})"))
                .collect();
            format!("::serde::Content::Seq(vec![{}])", items.join(", "))
        }
        Shape::StructUnit => "::serde::Content::Null".to_string(),
        Shape::Enum(variants) => {
            let name = &input.name;
            let mut arms = String::new();
            for (v, shape) in variants {
                match shape {
                    VariantShape::Unit => arms.push_str(&format!(
                        "{name}::{v} => ::serde::Content::Str(String::from(\"{v}\")),\n"
                    )),
                    VariantShape::Tuple(arity) => {
                        let binders: Vec<String> = (0..*arity).map(|i| format!("f{i}")).collect();
                        let payload = if *arity == 1 {
                            "::serde::Serialize::serialize(f0)".to_string()
                        } else {
                            let items: Vec<String> = binders
                                .iter()
                                .map(|b| format!("::serde::Serialize::serialize({b})"))
                                .collect();
                            format!("::serde::Content::Seq(vec![{}])", items.join(", "))
                        };
                        arms.push_str(&format!(
                            "{name}::{v}({}) => ::serde::Content::Map(vec![(String::from(\"{v}\"), {payload})]),\n",
                            binders.join(", ")
                        ));
                    }
                    VariantShape::Named(fields) => {
                        let binders = fields.join(", ");
                        let mut pushes = String::new();
                        for f in fields {
                            pushes.push_str(&format!(
                                "fm.push((String::from(\"{f}\"), ::serde::Serialize::serialize({f})));\n"
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{v} {{ {binders} }} => {{ let mut fm = Vec::new();\n{pushes}::serde::Content::Map(vec![(String::from(\"{v}\"), ::serde::Content::Map(fm))]) }},\n"
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl{params} ::serde::Serialize for {ty} {{\n\
         fn serialize(&self) -> ::serde::Content {{\n{body}\n}}\n}}"
    )
    .parse()
    .expect("serde shim derive: generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let (params, ty) = impl_header(&input, "Deserialize");
    let name = &input.name;
    let body = match &input.shape {
        Shape::StructNamed(fields) => {
            let mut inits = String::new();
            for f in fields {
                inits.push_str(&format!(
                    "{f}: ::serde::Deserialize::deserialize(::serde::map_get(m, \"{f}\")?)?,\n"
                ));
            }
            format!(
                "let m = c.as_map().ok_or_else(|| ::serde::DeError::expected(\"struct map\", c))?;\n\
                 Ok({name} {{\n{inits}}})"
            )
        }
        Shape::StructTuple(arity) => {
            let gets: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Deserialize::deserialize(&s[{i}])?"))
                .collect();
            format!(
                "let s = c.as_seq().ok_or_else(|| ::serde::DeError::expected(\"tuple seq\", c))?;\n\
                 if s.len() != {arity} {{ return Err(::serde::DeError::expected(\"tuple of {arity}\", c)); }}\n\
                 Ok({name}({}))",
                gets.join(", ")
            )
        }
        Shape::StructUnit => format!("let _ = c; Ok({name})"),
        Shape::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for (v, shape) in variants {
                match shape {
                    VariantShape::Unit => {
                        unit_arms.push_str(&format!("\"{v}\" => Ok({name}::{v}),\n"));
                    }
                    VariantShape::Tuple(arity) if *arity == 1 => {
                        data_arms.push_str(&format!(
                            "\"{v}\" => Ok({name}::{v}(::serde::Deserialize::deserialize(payload)?)),\n"
                        ));
                    }
                    VariantShape::Tuple(arity) => {
                        let gets: Vec<String> = (0..*arity)
                            .map(|i| format!("::serde::Deserialize::deserialize(&s[{i}])?"))
                            .collect();
                        data_arms.push_str(&format!(
                            "\"{v}\" => {{\n\
                             let s = payload.as_seq().ok_or_else(|| ::serde::DeError::expected(\"variant seq\", payload))?;\n\
                             if s.len() != {arity} {{ return Err(::serde::DeError::expected(\"variant tuple of {arity}\", payload)); }}\n\
                             Ok({name}::{v}({}))\n}},\n",
                            gets.join(", ")
                        ));
                    }
                    VariantShape::Named(fields) => {
                        let mut inits = String::new();
                        for f in fields {
                            inits.push_str(&format!(
                                "{f}: ::serde::Deserialize::deserialize(::serde::map_get(fm, \"{f}\")?)?,\n"
                            ));
                        }
                        data_arms.push_str(&format!(
                            "\"{v}\" => {{\n\
                             let fm = payload.as_map().ok_or_else(|| ::serde::DeError::expected(\"variant map\", payload))?;\n\
                             Ok({name}::{v} {{\n{inits}}})\n}},\n"
                        ));
                    }
                }
            }
            format!(
                "match c {{\n\
                 ::serde::Content::Str(s) => match s.as_str() {{\n{unit_arms}\
                 other => Err(::serde::DeError(format!(\"unknown variant `{{other}}` of {name}\"))),\n}},\n\
                 ::serde::Content::Map(m) if m.len() == 1 => {{\n\
                 let (tag, payload) = &m[0];\n\
                 match tag.as_str() {{\n{data_arms}\
                 other => Err(::serde::DeError(format!(\"unknown variant `{{other}}` of {name}\"))),\n}}\n}},\n\
                 other => Err(::serde::DeError::expected(\"enum\", other)),\n}}"
            )
        }
    };
    format!(
        "impl{params} ::serde::Deserialize for {ty} {{\n\
         fn deserialize(c: &::serde::Content) -> Result<Self, ::serde::DeError> {{\n{body}\n}}\n}}"
    )
    .parse()
    .expect("serde shim derive: generated Deserialize impl parses")
}
