//! Item-level parser over the [`crate::lex`] token stream.
//!
//! Recovers just enough structure for the structural rules: `fn`
//! signatures (name, generics, parameters, return type) with their
//! bodies as token ranges, `impl`/`mod` nesting, and whether an item
//! is `#[cfg(test)]`. Everything else (`struct`, `use`, `const`, …) is
//! recognized, attributed, and skipped. The parser is recovery-first:
//! a construct it does not understand is consumed token-by-token, never
//! an error, because the linter must keep walking any file.

use crate::lex::{lex, Token, TokenKind};

/// One function parameter. Receiver params (`&mut self`) carry the
/// whole rendered receiver in `name` and an empty `ty`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Binding pattern text (`frame`, `_plan`, `(a, b)`), rendered.
    pub name: String,
    /// Type text, rendered; empty for receivers.
    pub ty: String,
}

/// Parsed `fn` signature plus the body's token range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSig {
    /// Generic parameter list text (without the angle brackets), or "".
    pub generics: String,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Return type text (without the `->`), or "".
    pub ret: String,
    /// Byte span from the `fn` keyword through the end of the
    /// signature (return type / where clause), before the body or `;`.
    pub sig_span: (usize, usize),
    /// Significant-token index range of the body, braces excluded.
    pub body: Option<(usize, usize)>,
}

/// What kind of item this is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemKind {
    /// A function or method.
    Fn(FnSig),
    /// A module; `inline` is false for `mod name;` declarations.
    Mod {
        /// Whether the module body is in this file (`mod m { … }`).
        inline: bool,
    },
    /// An `impl` block (the item name is the rendered self type).
    Impl,
    /// Anything else (struct, enum, use, const, …).
    Other,
}

/// One parsed item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Kind plus kind-specific payload.
    pub kind: ItemKind,
    /// Item name (fn/mod/struct name; rendered self type for impls).
    pub name: String,
    /// Whether the item has any `pub` visibility.
    pub is_pub: bool,
    /// Whether this item's attributes include `#[cfg(test)]`.
    pub cfg_test: bool,
    /// 1-based line of the defining keyword.
    pub line: usize,
    /// 1-based line where the item starts (first attribute if any).
    pub start_line: usize,
    /// Byte offset where the item starts (first attribute or modifier).
    pub start: usize,
    /// Child items (mod and impl blocks).
    pub children: Vec<Item>,
}

impl Item {
    /// Depth-first walk over this item and its children.
    pub fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a Item)) {
        visit(self);
        for child in &self.children {
            child.walk(visit);
        }
    }
}

/// A lexed and item-parsed source file.
#[derive(Debug)]
pub struct ParsedFile {
    /// The source text the spans index into.
    pub source: String,
    /// The full token stream (lossless).
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the significant (non-trivia) tokens.
    pub sig: Vec<usize>,
    /// For each significant index holding an open bracket, the
    /// significant index of its matching close (or `sig.len()`).
    pub closes: Vec<usize>,
    /// Top-level items.
    pub items: Vec<Item>,
}

impl ParsedFile {
    /// Lexes and parses `source`.
    pub fn parse(source: &str) -> ParsedFile {
        let tokens = lex(source);
        let sig: Vec<usize> = (0..tokens.len())
            .filter(|&i| tokens[i].is_significant())
            .collect();
        let mut closes = vec![sig.len(); sig.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..sig.len() {
            match tokens[sig[i]].text(source) {
                "(" | "[" | "{" => stack.push(i),
                ")" | "]" | "}" => {
                    if let Some(open) = stack.pop() {
                        closes[open] = i;
                    }
                }
                _ => {}
            }
        }
        let mut file = ParsedFile {
            source: source.to_owned(),
            tokens,
            sig,
            closes,
            items: Vec::new(),
        };
        let mut parser = Parser {
            file: &file,
            pos: 0,
        };
        let items = parser.parse_items(file.sig.len());
        file.items = items;
        file
    }

    /// Number of significant tokens.
    pub fn len(&self) -> usize {
        self.sig.len()
    }

    /// Whether the file has no significant tokens.
    pub fn is_empty(&self) -> bool {
        self.sig.is_empty()
    }

    /// The significant token at significant index `i`.
    pub fn tok(&self, i: usize) -> &Token {
        &self.tokens[self.sig[i]]
    }

    /// Source text of the significant token at significant index `i`.
    pub fn text(&self, i: usize) -> &str {
        self.tok(i).text(&self.source)
    }

    /// Whether significant tokens `i` and `i+1` are byte-adjacent and
    /// together spell `pair` (`::`, `->`, `=>`, `..`).
    pub fn adjacent_pair(&self, i: usize, pair: &str) -> bool {
        i + 1 < self.len()
            && self.tok(i).end == self.tok(i + 1).start
            && pair.len() == 2
            && self.text(i) == &pair[..1]
            && self.text(i + 1) == &pair[1..]
    }

    /// Renders significant tokens `[lo, hi)` with canonical spacing.
    /// Byte-adjacent `::` / `->` / `=>` / `..` pairs are merged first
    /// so they space as single operators.
    pub fn render_range(&self, lo: usize, hi: usize) -> String {
        let hi = hi.min(self.len());
        let mut parts: Vec<String> = Vec::new();
        let mut i = lo;
        while i < hi {
            let merged = ["::", "->", "=>", ".."]
                .iter()
                .find(|p| i + 1 < hi && self.adjacent_pair(i, p));
            match merged {
                Some(p) => {
                    parts.push((*p).to_owned());
                    i += 2;
                }
                None => {
                    parts.push(self.text(i).to_owned());
                    i += 1;
                }
            }
        }
        let refs: Vec<&str> = parts.iter().map(|s| s.as_str()).collect();
        render(&refs)
    }
}

struct Parser<'a> {
    file: &'a ParsedFile,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.file.len()
    }

    fn text(&self, i: usize) -> &'a str {
        self.file.tokens[self.file.sig[i]].text(&self.file.source)
    }

    fn tok(&self, i: usize) -> &Token {
        self.file.tok(i)
    }

    /// Index just past the close bracket matching the opener at `open`.
    fn past_group(&self, open: usize) -> usize {
        (self.file.closes[open] + 1).min(self.file.len())
    }

    /// Consumes a generic parameter list starting at `<`; returns the
    /// index just past the matching `>`. `->` arrows inside (Fn-trait
    /// sugar) do not close angles.
    fn past_angles(&self, open: usize) -> usize {
        let mut depth = 0i64;
        let mut i = open;
        while i < self.file.len() {
            match self.text(i) {
                "<" => depth += 1,
                ">" if i > 0 && self.file.adjacent_pair(i - 1, "->") => {}
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                "(" | "[" => {
                    i = self.past_group(i);
                    continue;
                }
                ";" | "{" => return i, // confused: bail before the body
                _ => {}
            }
            i += 1;
        }
        self.file.len()
    }

    /// Parses items until significant index `stop` (exclusive) or a
    /// closing `}` at the current nesting level.
    fn parse_items(&mut self, stop: usize) -> Vec<Item> {
        let mut items = Vec::new();
        while !self.at_end() && self.pos < stop {
            if self.text(self.pos) == "}" {
                self.pos += 1;
                continue;
            }
            if let Some(item) = self.parse_item() {
                items.push(item);
            }
        }
        items
    }

    /// Collects `#[...]`/`#![...]` attributes at the cursor.
    fn parse_attrs(&mut self) -> (bool, Option<(usize, usize)>) {
        let mut cfg_test = false;
        let mut start = None;
        while !self.at_end() && self.text(self.pos) == "#" {
            let hash = self.pos;
            let mut open = self.pos + 1;
            if open < self.file.len() && self.text(open) == "!" {
                open += 1;
            }
            if open >= self.file.len() || self.text(open) != "[" {
                break;
            }
            start.get_or_insert((self.tok(hash).start, self.tok(hash).line));
            let close = self.file.closes[open];
            let mut j = open + 1;
            while j < close {
                let t = self.text(j);
                if (t == "cfg" || t == "cfg_attr") && j + 1 < close && self.text(j + 1) == "(" {
                    let inner_close = self.file.closes[j + 1];
                    if t == "cfg" {
                        for k in j + 2..inner_close.min(close) {
                            if self.text(k) == "test" {
                                cfg_test = true;
                            }
                        }
                    }
                    j = inner_close;
                }
                j += 1;
            }
            self.pos = (close + 1).min(self.file.len());
        }
        (cfg_test, start)
    }

    fn parse_item(&mut self) -> Option<Item> {
        let (cfg_test, attr_start) = self.parse_attrs();
        if self.at_end() || self.text(self.pos) == "}" {
            return None;
        }
        let (item_start, start_line) =
            attr_start.unwrap_or((self.tok(self.pos).start, self.tok(self.pos).line));
        let mut is_pub = false;
        loop {
            if self.at_end() {
                return None;
            }
            match self.text(self.pos) {
                "pub" => {
                    is_pub = true;
                    self.pos += 1;
                    if !self.at_end() && self.text(self.pos) == "(" {
                        self.pos = self.past_group(self.pos);
                    }
                }
                "unsafe" | "async" | "default" => self.pos += 1,
                "const" if self.peek_is(1, "fn") => self.pos += 1,
                "extern"
                    if self.pos + 1 < self.file.len()
                        && self.tok(self.pos + 1).kind == TokenKind::Str =>
                {
                    self.pos += 2;
                }
                _ => break,
            }
        }
        let kw_index = self.pos;
        let line = self.tok(kw_index).line;
        let make = |kind: ItemKind, name: String, children: Vec<Item>| Item {
            kind,
            name,
            is_pub,
            cfg_test,
            line,
            start_line,
            start: item_start,
            children,
        };
        match self.text(kw_index) {
            "fn" => {
                self.pos += 1;
                let (name, sig) = self.parse_fn_sig(kw_index);
                Some(make(ItemKind::Fn(sig), name, Vec::new()))
            }
            "mod" => {
                self.pos += 1;
                let name = self.take_ident();
                let mut children = Vec::new();
                let mut inline = false;
                if !self.at_end() {
                    if self.text(self.pos) == "{" {
                        inline = true;
                        let close = self.file.closes[self.pos];
                        self.pos += 1;
                        children = self.parse_items(close);
                        self.pos = (close + 1).min(self.file.len());
                    } else if self.text(self.pos) == ";" {
                        self.pos += 1;
                    }
                }
                Some(make(ItemKind::Mod { inline }, name, children))
            }
            "impl" | "trait" => {
                let is_impl = self.text(kw_index) == "impl";
                self.pos += 1;
                if !self.at_end() && self.text(self.pos) == "<" {
                    self.pos = self.past_angles(self.pos);
                }
                let name_lo = self.pos;
                let mut name_hi = self.pos;
                while !self.at_end() && !matches!(self.text(self.pos), "{" | ";") {
                    if self.text(self.pos) == "where" {
                        while !self.at_end() && !matches!(self.text(self.pos), "{" | ";") {
                            self.pos += 1;
                        }
                        break;
                    }
                    self.pos += 1;
                    name_hi = self.pos;
                }
                let name = self.file.render_range(name_lo, name_hi);
                let mut children = Vec::new();
                if !self.at_end() && self.text(self.pos) == "{" {
                    let close = self.file.closes[self.pos];
                    self.pos += 1;
                    children = self.parse_items(close);
                    self.pos = (close + 1).min(self.file.len());
                } else if !self.at_end() {
                    self.pos += 1; // `;`
                }
                Some(make(
                    if is_impl {
                        ItemKind::Impl
                    } else {
                        ItemKind::Other
                    },
                    name,
                    children,
                ))
            }
            "struct" | "enum" | "union" | "use" | "const" | "static" | "type" => {
                self.pos += 1;
                let name = if !self.at_end() && self.tok(self.pos).kind == TokenKind::Ident {
                    self.text(self.pos).to_owned()
                } else {
                    String::new()
                };
                while !self.at_end() {
                    match self.text(self.pos) {
                        ";" => {
                            self.pos += 1;
                            break;
                        }
                        "{" => {
                            self.pos = self.past_group(self.pos);
                            if !self.at_end() && self.text(self.pos) == ";" {
                                self.pos += 1;
                            }
                            break;
                        }
                        "(" | "[" => self.pos = self.past_group(self.pos),
                        _ => self.pos += 1,
                    }
                }
                Some(make(ItemKind::Other, name, Vec::new()))
            }
            "macro_rules" => {
                self.pos += 1;
                while !self.at_end() && !matches!(self.text(self.pos), "{" | "(" | "[") {
                    self.pos += 1;
                }
                if !self.at_end() {
                    self.pos = self.past_group(self.pos);
                }
                if !self.at_end() && self.text(self.pos) == ";" {
                    self.pos += 1;
                }
                None
            }
            _ => {
                self.pos += 1;
                None
            }
        }
    }

    fn peek_is(&self, ahead: usize, what: &str) -> bool {
        self.pos + ahead < self.file.len() && self.text(self.pos + ahead) == what
    }

    fn take_ident(&mut self) -> String {
        if !self.at_end() && self.tok(self.pos).kind == TokenKind::Ident {
            let n = self.text(self.pos).to_owned();
            self.pos += 1;
            n
        } else {
            String::new()
        }
    }

    /// Parses a fn signature with the cursor just past `fn`.
    fn parse_fn_sig(&mut self, fn_kw: usize) -> (String, FnSig) {
        let name = self.take_ident();
        let mut generics = String::new();
        if !self.at_end() && self.text(self.pos) == "<" {
            let from = self.pos;
            self.pos = self.past_angles(self.pos);
            let hi = self.pos.saturating_sub(1).max(from + 1);
            generics = self.file.render_range(from + 1, hi);
        }
        let mut params = Vec::new();
        if !self.at_end() && self.text(self.pos) == "(" {
            let close = self.file.closes[self.pos];
            params = self.parse_params(self.pos + 1, close);
            self.pos = (close + 1).min(self.file.len());
        }
        let mut ret_range = None;
        if !self.at_end() && self.text(self.pos) == "-" && self.file.adjacent_pair(self.pos, "->") {
            self.pos += 2;
            let ret_lo = self.pos;
            let mut depth = 0i64;
            while !self.at_end() {
                let t = self.text(self.pos);
                match t {
                    "{" | ";" if depth == 0 => break,
                    "where" if depth == 0 => break,
                    "<" => depth += 1,
                    ">" if self.pos > 0 && self.file.adjacent_pair(self.pos - 1, "->") => {}
                    ">" => depth -= 1,
                    "(" | "[" => {
                        self.pos = self.past_group(self.pos);
                        continue;
                    }
                    _ => {}
                }
                self.pos += 1;
            }
            ret_range = Some((ret_lo, self.pos));
        }
        if !self.at_end() && self.text(self.pos) == "where" {
            while !self.at_end() && !matches!(self.text(self.pos), "{" | ";") {
                if matches!(self.text(self.pos), "(" | "[") {
                    self.pos = self.past_group(self.pos);
                } else {
                    self.pos += 1;
                }
            }
        }
        let sig_end = if self.pos > 0 {
            self.tok(self.pos - 1).end
        } else {
            self.tok(fn_kw).end
        };
        let mut body = None;
        if !self.at_end() {
            if self.text(self.pos) == "{" {
                let close = self.file.closes[self.pos];
                body = Some((self.pos + 1, close));
                self.pos = (close + 1).min(self.file.len());
            } else if self.text(self.pos) == ";" {
                self.pos += 1;
            }
        }
        (
            name,
            FnSig {
                generics,
                params,
                ret: ret_range
                    .map(|(lo, hi)| self.file.render_range(lo, hi))
                    .unwrap_or_default(),
                sig_span: (self.tok(fn_kw).start, sig_end),
                body,
            },
        )
    }

    /// Splits the parameter list between significant indices
    /// `[lo, close)` on top-level commas.
    fn parse_params(&self, lo: usize, close: usize) -> Vec<Param> {
        let mut params = Vec::new();
        let close = close.min(self.file.len());
        let mut flush = |from: usize, to: usize| {
            if from >= to {
                return;
            }
            // Top-level single `:` splits pattern from type.
            let mut colon = None;
            let mut d = 0i64;
            for k in from..to {
                match self.text(k) {
                    "<" | "(" | "[" => d += 1,
                    ">" | ")" | "]" => d -= 1,
                    ":" if d == 0 => {
                        let double = self.file.adjacent_pair(k, "::")
                            || (k > from && self.file.adjacent_pair(k - 1, "::"));
                        if !double {
                            colon = Some(k);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            match colon {
                Some(c) => params.push(Param {
                    name: self.file.render_range(from, c),
                    ty: self.file.render_range(c + 1, to),
                }),
                None => params.push(Param {
                    name: self.file.render_range(from, to),
                    ty: String::new(),
                }),
            }
        };
        let mut depth = 0i64;
        let mut start = lo;
        for i in lo..close {
            match self.text(i) {
                "<" | "(" | "[" => depth += 1,
                ">" | ")" | "]" => depth -= 1,
                "," if depth == 0 => {
                    flush(start, i);
                    start = i + 1;
                }
                _ => {}
            }
        }
        flush(start, close);
        params
    }
}

/// Renders a token text sequence with canonical spacing, so two
/// signatures that differ only in whitespace or line breaks compare
/// equal and diagnostics print readable types. Multi-character
/// operators must already be merged (see [`ParsedFile::render_range`]).
pub fn render(parts: &[&str]) -> String {
    let mut out = String::new();
    for (i, p) in parts.iter().enumerate() {
        if i > 0 && needs_space(parts[i - 1], p) {
            out.push(' ');
        }
        out.push_str(p);
    }
    out
}

fn needs_space(prev: &str, next: &str) -> bool {
    // `:` is tight before (`x:`) but spaced after (`x: T`); the merged
    // `::` is tight on both sides (`a::b`).
    let tight_after = matches!(
        prev,
        "(" | "[" | "<" | "." | "&" | "#" | "!" | "'" | "::" | ".."
    );
    let tight_before = matches!(
        next,
        ")" | "]" | ">" | "," | ";" | ":" | "::" | "." | ".." | "?" | "(" | "[" | "<"
    );
    !(tight_after || tight_before)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        ParsedFile::parse(src)
    }

    fn find_fn<'a>(items: &'a [Item], name: &str) -> Option<&'a Item> {
        for item in items {
            if item.name == name && matches!(item.kind, ItemKind::Fn(_)) {
                return Some(item);
            }
            if let Some(found) = find_fn(&item.children, name) {
                return Some(found);
            }
        }
        None
    }

    fn sig(item: &Item) -> &FnSig {
        match &item.kind {
            ItemKind::Fn(s) => s,
            _ => panic!("not a fn"),
        }
    }

    #[test]
    fn parses_fn_signature() {
        let f = parse("pub fn read(&mut self, frame: FrameId, bytes: u64) -> Nanos { x }");
        let item = find_fn(&f.items, "read").expect("fn parsed");
        assert!(item.is_pub);
        let s = sig(item);
        assert_eq!(s.params.len(), 3);
        assert_eq!(s.params[0].name, "&mut self");
        assert_eq!(s.params[1].ty, "FrameId");
        assert_eq!(s.params[2].ty, "u64");
        assert_eq!(s.ret, "Nanos");
        assert!(s.body.is_some());
    }

    #[test]
    fn parses_generic_fn_with_fn_trait_bound() {
        let f = parse("pub fn emit<F: FnOnce() -> Event>(f: F) {}");
        let s = sig(find_fn(&f.items, "emit").expect("fn"));
        assert_eq!(s.generics, "F: FnOnce() -> Event");
        assert_eq!(s.params.len(), 1);
        assert_eq!(s.params[0].ty, "F");
        assert_eq!(s.ret, "");
    }

    #[test]
    fn nested_mod_and_impl_children() {
        let src = r#"
#[cfg(not(feature = "trace"))]
mod noop {
    pub struct Scope { _private: () }
    impl Scope { pub fn close(self) {} }
    pub fn scope(_name: &'static str) -> Scope { Scope { _private: () } }
}
"#;
        let f = parse(src);
        assert_eq!(f.items.len(), 1);
        let m = &f.items[0];
        assert_eq!(m.name, "noop");
        assert!(matches!(m.kind, ItemKind::Mod { inline: true }));
        let scope_fn = find_fn(&m.children, "scope").expect("fn in mod");
        assert_eq!(sig(scope_fn).ret, "Scope");
        let close_fn = find_fn(&m.children, "close").expect("fn in impl");
        assert_eq!(sig(close_fn).params[0].name, "self");
    }

    #[test]
    fn out_of_line_mod_declaration() {
        let f = parse("#[cfg(feature = \"trace\")]\nmod recorder;\n");
        assert_eq!(f.items.len(), 1);
        assert!(matches!(f.items[0].kind, ItemKind::Mod { inline: false }));
        assert_eq!(f.items[0].name, "recorder");
    }

    /// The undeclared-feature check that read `cfg` atoms through this
    /// parser is rustc's `unexpected_cfgs` now, and it sees the same
    /// forms: a feature inside `cfg_attr`, and one nested in `all(..)`
    /// under `not(..)`.
    #[test]
    fn cfg_feature_refs_sees_cfg_attr_and_all() {
        const FILE: &str = "src/undeclared_feature.rs";
        let found = crate::toolchain::fixture_findings_in(FILE);
        for needle in [
            "#[cfg_attr(feature = \"ksna\"",
            "#[cfg(all(feature = \"ksan\", not(feature = \"tracee\")))]",
        ] {
            let line = crate::toolchain::fixture_line(FILE, needle);
            assert!(
                found.contains(&(line, "unexpected_cfgs")),
                "{needle}: {found:?}"
            );
        }
    }

    #[test]
    fn cfg_test_flag() {
        let f = parse("#[cfg(test)]\nmod tests { fn t() {} }");
        assert!(f.items[0].cfg_test);
    }

    #[test]
    fn where_clause_ends_signature() {
        let f = parse("fn f<T>(x: T) -> u64 where T: Clone { 1 }");
        let s = sig(find_fn(&f.items, "f").expect("fn"));
        assert_eq!(s.ret, "u64");
        assert!(s.body.is_some());
    }

    #[test]
    fn render_spacing() {
        assert_eq!(render(&["&", "mut", "self"]), "&mut self");
        assert_eq!(
            render(&["Option", "<", "FaultPlan", ">"]),
            "Option<FaultPlan>"
        );
        assert_eq!(render(&["x", ":", "u64"]), "x: u64");
        let f = parse("a::b -> Vec<(u64, u64)>");
        assert_eq!(f.render_range(0, f.len()), "a::b -> Vec<(u64, u64)>");
    }
}
