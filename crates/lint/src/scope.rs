//! Scope analysis over the token stream: brace depth, enclosing named
//! function, and — crucially — *brace-accurate* `#[cfg(test)]` regions.
//!
//! The old line-grep lint disarmed itself at the first `#[cfg(test)]`
//! line and stayed disarmed for the rest of the file, so any code after
//! a test module's closing brace escaped scanning. Here a `#[cfg(test)]`
//! attribute marks exactly the brace-delimited item that follows it
//! (module, function, impl), and scanning resumes the moment that item's
//! closing brace pops.

use crate::lexer::{Kind, Token};

/// A named function and the token range of its body (indices of the
/// opening and closing brace tokens, inclusive).
#[derive(Debug, Clone)]
pub struct FnInfo {
    pub name: String,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    pub body_start: usize,
    pub body_end: usize,
}

/// Per-token context computed in one pass.
#[derive(Debug, Default)]
pub struct Scopes {
    /// Token is inside (or in the signature of) a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// Innermost enclosing named `fn`, as an index into `fns`.
    pub fn_of: Vec<Option<usize>>,
    /// Brace depth at the token.
    pub depth: Vec<u32>,
    pub fns: Vec<FnInfo>,
}

struct ScopeEntry {
    is_test: bool,
    fn_idx: Option<usize>,
}

/// True when the attribute token sequence `cfg(...)` gates on `test`
/// positively (`cfg(test)`, `cfg(all(test, ...))` — but not
/// `cfg(not(test))`, whose body is live in normal builds).
fn attr_is_cfg_test(idents: &[&str]) -> bool {
    idents.first() == Some(&"cfg")
        && idents.contains(&"test")
        && !idents.contains(&"not")
}

/// Analyze `tokens`, producing parallel context arrays.
pub fn analyze(tokens: &[Token]) -> Scopes {
    let n = tokens.len();
    let mut sc = Scopes {
        in_test: vec![false; n],
        fn_of: vec![None; n],
        depth: vec![0; n],
        fns: Vec::new(),
    };
    let mut stack: Vec<ScopeEntry> = Vec::new();
    let mut paren: i32 = 0;
    let mut bracket: i32 = 0;
    let mut pending_test = false;
    let mut pending_fn: Option<(String, usize)> = None;
    // Item after the attr is brace-free-or-`use`-like; cancel at `;`.
    let mut pending_semi_item = false;

    let mut i = 0usize;
    while i < n {
        // Record context BEFORE processing the token so a closing brace
        // still belongs to the scope it closes.
        let in_test_now = pending_test || stack.iter().any(|s| s.is_test);
        let fn_now = stack.iter().rev().find_map(|s| s.fn_idx);
        sc.in_test[i] = in_test_now;
        sc.fn_of[i] = fn_now;
        sc.depth[i] = stack.len() as u32;

        let t = &tokens[i];
        match (t.kind, t.text.as_str()) {
            // Attribute: `#[...]` or `#![...]`. Consume it wholesale so
            // its internal brackets/parens don't disturb the counters.
            (Kind::Punct, "#") => {
                let mut j = i + 1;
                if matches!(tokens.get(j), Some(t) if t.kind == Kind::Punct && t.text == "!") {
                    j += 1;
                }
                if matches!(tokens.get(j), Some(t) if t.kind == Kind::Punct && t.text == "[") {
                    let mut depth = 0i32;
                    let mut idents: Vec<&str> = Vec::new();
                    while j < n {
                        let u = &tokens[j];
                        match (u.kind, u.text.as_str()) {
                            (Kind::Punct, "[") => depth += 1,
                            (Kind::Punct, "]") => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            (Kind::Ident, s) => idents.push(s),
                            _ => {}
                        }
                        j += 1;
                    }
                    if attr_is_cfg_test(&idents) {
                        pending_test = true;
                        pending_semi_item = false;
                    }
                    for k in i..=j.min(n - 1) {
                        sc.in_test[k] = in_test_now;
                        sc.fn_of[k] = fn_now;
                        sc.depth[k] = stack.len() as u32;
                    }
                    i = j + 1;
                    continue;
                }
            }
            (Kind::Ident, "fn") => {
                if let Some(next) = tokens.get(i + 1) {
                    if next.kind == Kind::Ident {
                        pending_fn = Some((next.text.clone(), i));
                    }
                }
            }
            // `#[cfg(test)] use ...;` and friends: the gated item has no
            // body brace of its own; any `{...}` before the `;` (a use
            // list) must not swallow the pending-test marker.
            (Kind::Ident, "use" | "extern" | "static" | "type") if pending_test => {
                pending_semi_item = true;
            }
            (Kind::Punct, "(") => paren += 1,
            (Kind::Punct, ")") => paren -= 1,
            (Kind::Punct, "[") => bracket += 1,
            (Kind::Punct, "]") => bracket -= 1,
            (Kind::Punct, ";") if paren == 0 && bracket == 0 => {
                // Item without a body (trait method decl, use, static).
                if stack.last().is_none_or(|s| s.fn_idx.is_none() || pending_semi_item) {
                    pending_fn = None;
                }
                pending_test = false;
                pending_semi_item = false;
            }
            (Kind::Punct, "{") => {
                let fn_idx = if paren == 0 && !pending_semi_item {
                    pending_fn.take().map(|(name, fn_tok)| {
                        sc.fns.push(FnInfo {
                            name,
                            fn_tok,
                            body_start: i,
                            body_end: usize::MAX,
                        });
                        sc.fns.len() - 1
                    })
                } else {
                    None
                };
                let is_test = pending_test && paren == 0 && !pending_semi_item;
                if is_test {
                    pending_test = false;
                }
                stack.push(ScopeEntry { is_test, fn_idx });
                // The opening brace itself belongs to the new scope.
                sc.in_test[i] = in_test_now || is_test;
                if let Some(fi) = fn_idx {
                    sc.fn_of[i] = Some(fi);
                }
            }
            (Kind::Punct, "}") => {
                if let Some(e) = stack.pop() {
                    if let Some(fi) = e.fn_idx {
                        sc.fns[fi].body_end = i;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Unterminated bodies (shouldn't happen on rustc-valid input).
    for f in &mut sc.fns {
        if f.body_end == usize::MAX {
            f.body_end = n.saturating_sub(1);
        }
    }
    sc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx(src: &str) -> (Vec<Token>, Scopes) {
        let lx = lex(src);
        let sc = analyze(&lx.tokens);
        (lx.tokens, sc)
    }

    fn test_flag_at(src: &str, ident: &str) -> bool {
        let (toks, sc) = ctx(src);
        let i = toks
            .iter()
            .position(|t| t.text == ident)
            .unwrap_or_else(|| panic!("{ident} not found"));
        sc.in_test[i]
    }

    #[test]
    fn cfg_test_region_ends_at_closing_brace() {
        let src = "
            fn live_before() { a(); }
            #[cfg(test)]
            mod tests {
                fn t() { inside(); }
            }
            fn live_after() { after(); }
        ";
        assert!(!test_flag_at(src, "a"));
        assert!(test_flag_at(src, "inside"));
        // The regression the old first-`#[cfg(test)]`-line heuristic had:
        // code after the test module must be scanned again.
        assert!(!test_flag_at(src, "after"));
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let src = "#[cfg(not(test))] fn f() { body(); }";
        assert!(!test_flag_at(src, "body"));
    }

    #[test]
    fn cfg_test_use_does_not_disarm_rest_of_file() {
        let src = "
            #[cfg(test)]
            use helpers::{a, b};
            fn live() { after_use(); }
        ";
        assert!(!test_flag_at(src, "after_use"));
    }

    #[test]
    fn cfg_test_single_fn_scopes_only_that_fn() {
        let src = "
            #[cfg(test)]
            fn helper() { inside(); }
            fn live() { outside(); }
        ";
        assert!(test_flag_at(src, "inside"));
        assert!(!test_flag_at(src, "outside"));
    }

    #[test]
    fn enclosing_fn_covers_nested_closures() {
        let src = "
            fn outer() {
                let f = |x: u32| { deep_call(); };
                f(1);
            }
        ";
        let (toks, sc) = ctx(src);
        let i = toks.iter().position(|t| t.text == "deep_call").unwrap();
        let fi = sc.fn_of[i].expect("inside a fn");
        assert_eq!(sc.fns[fi].name, "outer");
    }

    #[test]
    fn fn_body_ranges_are_tight() {
        let src = "fn a() { one(); } fn b() { two(); }";
        let (toks, sc) = ctx(src);
        assert_eq!(sc.fns.len(), 2);
        let names: Vec<_> = sc.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        let a = &sc.fns[0];
        let body: Vec<_> = toks[a.body_start..=a.body_end]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert!(body.contains(&"one") && !body.contains(&"two"));
    }

    #[test]
    fn trait_method_decl_without_body_does_not_leak() {
        let src = "trait T { fn decl(x: [u8; 4]); } fn real() { body(); }";
        let (toks, sc) = ctx(src);
        let i = toks.iter().position(|t| t.text == "body").unwrap();
        assert_eq!(sc.fns[sc.fn_of[i].unwrap()].name, "real");
    }
}
