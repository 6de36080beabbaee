//! Source contract: the determinism and invariant rules that rustc and
//! clippy cannot express (docs/LINTS.md).
//!
//! * **D5** (literal leg): no float literal in simulation-crate library
//!   code outside an item or statement that carries a D5 waiver. Clippy
//!   sees float *types*; a literal whose type comes from context
//!   (`x > 0.5`, `cpu_ghz: 4.0`) triggers no lint.
//! * **D6** (doc leg): every `SimEvent` variant has a row in the
//!   `docs/ARCHITECTURE.md` event table. The collector leg is the
//!   exhaustive `match` in `telemetry/src/collector.rs`.
//! * **D7**: no `<clock> += <integer literal>` in simulation-crate
//!   library code outside the time engine (`core/src/time.rs`); clocks
//!   leap to next-event bounds instead of ticking.
//! * **D9** (form): every `fn merge(&mut self, other: &T)` destructures
//!   `other` exhaustively, so the compiler rejects a forgotten field.
//! * **D10**: the per-lint, per-file count of `expect`/`allow` waiver
//!   attributes equals the committed `lint_waivers.json`. New waivers
//!   and stale entries both fail; the failure prints the JSON to commit.
//! * **W1** (allow leg): every waiver is an `expect`, which fails once it
//!   suppresses nothing. `clippy::allow_attributes` rejects an outer
//!   `#[allow]` only; this also catches `#![allow]` and `cfg_attr` forms.
//!
//! The scanners read rustfmt layout, which CI enforces.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use gsdram::core::json::Json;

/// Crates whose library code feeds figure output (the scope of D5's
/// literal leg and D7).
const SIM_CRATES: &[&str] = &[
    "core",
    "dram",
    "cache",
    "system",
    "workloads",
    "patterns",
    "telemetry",
];

/// Identifiers D7 treats as clocks.
const CLOCKS: &[&str] = &["now", "time", "clock", "cycle", "cycles"];

/// The lints whose waiver admits floats (rule D5).
const D5_LINTS: &[&str] = &[
    "clippy::disallowed_types",
    "clippy::float_arithmetic",
    "clippy::default_numeric_fallback",
];

const WAIVERS: &str = "lint_waivers.json";
const WAIVER_SCHEMA: &str = "gsdram-waivers/2";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// Every `.rs` file under `dir` (root-relative), sorted.
fn rust_files(dir: &str) -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut paths = Vec::new();
    walk(&root().join(dir), &mut paths);
    let mut rels: Vec<String> = paths
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(root()).expect("under the root");
            rel.components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    rels.sort();
    rels
}

/// Library source files of the workspace: `src/` of every crate and of
/// the facade.
fn lib_files() -> Vec<String> {
    let mut files: Vec<String> = rust_files("crates")
        .into_iter()
        .filter(|f| f.split('/').nth(2) == Some("src") && !f.contains("/src/bin/"))
        .collect();
    files.extend(rust_files("src"));
    files
}

/// Library files of the simulation crates.
fn sim_files() -> Vec<String> {
    lib_files()
        .into_iter()
        .filter(|f| {
            SIM_CRATES
                .iter()
                .any(|c| f.starts_with(&format!("crates/{c}/src/")))
        })
        .collect()
}

/// `line` with its `//` comment cut.
fn strip_comment(line: &str) -> &str {
    line.find("//").map_or(line, |at| &line[..at])
}

/// The lines of `src` outside top-level `#[cfg(test)]` modules, with
/// `//` comments cut, paired with their 1-based line numbers. rustfmt
/// closes a top-level module with a lone `}` line.
fn code_lines(src: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut in_test = false;
    let mut lines = src.lines().enumerate().peekable();
    while let Some((i, line)) = lines.next() {
        if in_test {
            in_test = line != "}";
            continue;
        }
        if line == "#[cfg(test)]"
            && lines
                .peek()
                .is_some_and(|(_, next)| next.starts_with("mod "))
        {
            in_test = true;
            continue;
        }
        out.push((i + 1, strip_comment(line)));
    }
    out
}

/// `text` with the contents of string and char literals removed, so
/// that digits, brackets and keywords inside them are not read as code.
fn blank_literals(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                out.push_str("\"\"");
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => {
                            chars.next();
                        }
                        '"' => break,
                        _ => {}
                    }
                }
            }
            // A char literal (`'x'`, `'\n'`); a lifetime has no closing quote.
            '\'' => {
                let rest: Vec<char> = chars.clone().take(12).collect();
                let len = match rest.first() {
                    Some('\\') => rest.iter().skip(2).position(|c| *c == '\'').map(|i| i + 3),
                    Some(_) if rest.get(1) == Some(&'\'') => Some(2),
                    _ => None,
                };
                out.push('\'');
                for _ in 0..len.unwrap_or(0) {
                    chars.next();
                }
            }
            _ => out.push(c),
        }
    }
    out
}

// ------------------------------------------------------------ waivers

/// One lint-level attribute that suppresses lints: `#[expect(..)]`,
/// `#![allow(..)]`, `#[cfg_attr(cond, expect(..))]`, …
struct Waiver {
    /// 0-based line of the attribute's `#`.
    first: usize,
    /// 0-based line of its closing `]`.
    last: usize,
    /// `#![..]`: covers the enclosing module rather than the next item.
    inner: bool,
    /// An `allow`, which — unlike an `expect` — never reports going stale.
    allow: bool,
    lints: Vec<String>,
}

/// Every waiver attribute in `src`. rustfmt starts every attribute on
/// its own line.
fn waivers(src: &str) -> Vec<Waiver> {
    let mut found = Vec::new();
    let mut offset = 0;
    for (first, line) in src.split_inclusive('\n').enumerate() {
        let start = offset + (line.len() - line.trim_start().len());
        offset += line.len();
        let text = line.trim_start();
        let inner = text.starts_with("#![");
        if !inner && !text.starts_with("#[") {
            continue;
        }
        let full = attribute_text(&src[start..]);
        let attr = blank_literals(full);
        let mut lints = Vec::new();
        let mut allow = false;
        for kind in ["expect(", "allow("] {
            for (at, _) in attr.match_indices(kind) {
                let boundary = attr[..at]
                    .chars()
                    .next_back()
                    .is_none_or(|c| !(c == '_' || c.is_alphanumeric()));
                if !boundary {
                    continue;
                }
                allow |= kind == "allow(";
                let args = &attr[at + kind.len()..];
                let args = &args[..args.find(')').unwrap_or(args.len())];
                lints.extend(
                    args.split(',')
                        .map(str::trim)
                        .filter(|l| !l.is_empty() && !l.starts_with("reason"))
                        .map(str::to_string),
                );
            }
        }
        if lints.is_empty() {
            continue;
        }
        for lint in &lints {
            assert!(
                lint.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_:".contains(c)),
                "unreadable lint name `{lint}` in a waiver attribute"
            );
        }
        found.push(Waiver {
            first,
            last: first + full.matches('\n').count(),
            inner,
            allow,
            lints,
        });
    }
    found
}

/// The attribute opening `text`, through its matching `]`.
fn attribute_text(text: &str) -> &str {
    let mut depth = 0;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in text.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return &text[..=i];
                }
            }
            _ => {}
        }
    }
    text
}

/// Indentation of a non-blank line.
fn indent(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// The 0-based lines covered by `w`: an inner attribute covers the rest
/// of its module; an outer one covers the item or statement it precedes,
/// which ends at the first line at the attribute's indent that ends with
/// `;`, `,` or `}`, or where the indent drops below it.
fn covered_lines(lines: &[&str], w: &Waiver) -> std::ops::Range<usize> {
    let base = indent(lines[w.first]);
    let body = w.last + 1;
    for (k, line) in lines.iter().enumerate().skip(body) {
        let code = strip_comment(line).trim_end();
        if code.trim().is_empty() {
            continue;
        }
        let at = indent(code);
        if at < base {
            return w.first..k;
        }
        let closes = at == base
            && !w.inner
            && !code.trim_start().starts_with("#[")
            && code.ends_with([';', ',', '}']);
        if closes {
            return w.first..k + 1;
        }
    }
    w.first..lines.len()
}

// ------------------------------------------------------------------ D5

/// Whether a float literal (`0.5`, `1.`, `1e9`, `2f64`, `3_f32`) starts
/// at byte `at` of `code`, which begins a digit run.
fn float_literal_at(code: &str, at: usize) -> bool {
    let rest = &code[at..];
    if rest.starts_with("0x") || rest.starts_with("0o") || rest.starts_with("0b") {
        return false;
    }
    let digits = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '_'))
        .unwrap_or(rest.len());
    let tail = &rest[digits..];
    let suffixed = |t: &str| t.starts_with("f32") || t.starts_with("f64");
    if suffixed(tail.trim_start_matches('_')) {
        return true;
    }
    let mut after = tail.chars();
    match after.next() {
        Some('.') => after
            .next()
            .is_none_or(|c| c.is_ascii_digit() || !(c == '.' || c == '_' || c.is_alphabetic())),
        Some('e' | 'E') => after
            .find(|c| *c != '+' && *c != '-')
            .is_some_and(|c| c.is_ascii_digit()),
        _ => false,
    }
}

/// `(line, code)` for every line of `src` outside test modules that
/// holds a float literal not covered by a D5 waiver.
fn unwaived_float_literals(src: &str) -> Vec<(usize, String)> {
    let lines: Vec<&str> = src.lines().collect();
    let mut waived = BTreeSet::new();
    for w in waivers(src) {
        if w.lints.iter().any(|l| D5_LINTS.contains(&l.as_str())) {
            waived.extend(covered_lines(&lines, &w));
        }
    }
    let mut hits = Vec::new();
    for (n, line) in code_lines(src) {
        if waived.contains(&(n - 1)) {
            continue;
        }
        let code = blank_literals(line);
        let float = code.char_indices().any(|(at, c)| {
            let starts_token = code[..at]
                .chars()
                .next_back()
                .is_none_or(|p| !(p == '_' || p == '.' || p.is_alphanumeric()));
            c.is_ascii_digit() && starts_token && float_literal_at(&code, at)
        });
        if float {
            hits.push((n, line.trim().to_string()));
        }
    }
    hits
}

#[test]
fn d5_no_unwaived_float_literals_in_simulation_code() {
    let mut hits = Vec::new();
    for f in sim_files() {
        for (line, code) in unwaived_float_literals(&read(&f)) {
            hits.push(format!("{f}:{line}: {code}"));
        }
    }
    assert!(
        hits.is_empty(),
        "float literals in simulation code; keep state integral, or waive the item with an \
         `expect` of clippy::disallowed_types or clippy::float_arithmetic:\n{}",
        hits.join("\n")
    );
}

/// Line numbers `unwaived_float_literals` flags in `src`.
fn float_lines(src: &str) -> Vec<usize> {
    unwaived_float_literals(src)
        .into_iter()
        .map(|(n, _)| n)
        .collect()
}

#[test]
fn d5_literal_scanner_sees_context_typed_floats() {
    let src = "fn f(s: &S) -> bool {\n    s.rate() > 0.5\n}\n\
               fn g() -> C {\n    C { ghz: 4., n: 1e9 as u64, m: 2_f64, t: t.0.1 }\n}\n\
               fn h() -> u64 {\n    0x1e5 + (1..2).len() + 3.max(4) + \"1.5\".len()\n}\n";
    assert_eq!(float_lines(src), vec![2, 5]);
}

#[test]
fn d5_literal_scanner_honours_waived_items_and_modules() {
    let waived_fn = "#[expect(\n    clippy::float_arithmetic,\n    reason = \"r\"\n)]\n\
                     fn f(a: u64) -> f64 {\n    if a == 0 {\n        0.0\n    } else {\n        a as f64 / 2.0\n    }\n}\n\
                     fn g() -> f64 {\n    1.5\n}\n";
    assert_eq!(
        float_lines(waived_fn),
        vec![13],
        "only the unwaived fn is flagged"
    );

    let waived_stmt = "fn f() {\n    #[expect(clippy::disallowed_types, reason = \"r\")]\n    \
                       let a: f64 = 0.5;\n    let b = 0.25;\n}\n";
    assert_eq!(
        float_lines(waived_stmt),
        vec![4],
        "a statement waiver covers that statement only"
    );

    let leaf = "//! Report leaf.\n#![expect(clippy::disallowed_types, reason = \"r\")]\n\
                fn f() -> f64 {\n    0.5\n}\n";
    assert!(float_lines(leaf).is_empty());

    let other_lint = "#[expect(clippy::unwrap_used, reason = \"r\")]\nconst X: f64 = 0.5;\n";
    assert_eq!(float_lines(other_lint), vec![2]);
}

// ------------------------------------------------------------------ D6

/// Variant names of `pub enum SimEvent` (rustfmt layout: variants sit
/// at four-space indent).
fn sim_event_variants(port: &str) -> Vec<String> {
    let body = port
        .split_once("pub enum SimEvent {\n")
        .expect("`pub enum SimEvent` in core/src/port.rs")
        .1;
    body.lines()
        .take_while(|l| *l != "}")
        .filter_map(|l| l.strip_prefix("    "))
        .filter(|l| l.starts_with(|c: char| c.is_ascii_uppercase()))
        .map(|l| {
            l.split(|c: char| !c.is_alphanumeric() && c != '_')
                .next()
                .unwrap_or_default()
                .to_string()
        })
        .collect()
}

/// Whether some table row of `doc` names `variant` in code font, bare
/// (`` `CacheFill` ``) or with fields (`` `CacheFill { .. }` ``).
fn has_table_row(doc: &str, variant: &str) -> bool {
    let needle = format!("`{variant}");
    doc.lines()
        .filter(|l| l.trim_start().starts_with('|'))
        .any(|l| {
            l.match_indices(&needle).any(|(at, _)| {
                l[at + needle.len()..]
                    .chars()
                    .next()
                    .is_none_or(|c| !(c == '_' || c.is_alphanumeric()))
            })
        })
}

#[test]
fn d6_every_sim_event_has_an_architecture_row() {
    let variants = sim_event_variants(&read("crates/core/src/port.rs"));
    assert!(variants.len() >= 9, "parsed too few variants: {variants:?}");
    let doc = read("docs/ARCHITECTURE.md");
    let missing: Vec<&String> = variants
        .iter()
        .filter(|v| !has_table_row(&doc, v))
        .collect();
    assert!(
        missing.is_empty(),
        "SimEvent variants with no row in the docs/ARCHITECTURE.md event table: {missing:?}"
    );
}

// ------------------------------------------------------------------ D7

/// `(line, clock)` for every `<clock> += <integer literal>` in `src`.
fn clock_ticks(src: &str) -> Vec<(usize, String)> {
    let mut hits = Vec::new();
    for (n, line) in code_lines(src) {
        for (at, _) in line.match_indices("+=") {
            let lhs = line[..at].trim_end();
            let name_start = lhs
                .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
                .map_or(0, |i| i + 1);
            let name = &lhs[name_start..];
            let rhs = line[at + 2..].trim_start();
            if CLOCKS.contains(&name) && rhs.starts_with(|c: char| c.is_ascii_digit()) {
                hits.push((n, name.to_string()));
            }
        }
    }
    hits
}

#[test]
fn d7_no_unit_clock_ticks_in_simulation_code() {
    let mut hits = Vec::new();
    for f in sim_files() {
        if f == "crates/core/src/time.rs" {
            continue;
        }
        for (line, name) in clock_ticks(&read(&f)) {
            hits.push(format!("{f}:{line}: `{name} += <literal>`"));
        }
    }
    assert!(
        hits.is_empty(),
        "clocks tick by a constant; leap to the next-event bound (gsdram_core::time) instead:\n{}",
        hits.join("\n")
    );
}

#[test]
fn d7_scanner_sees_ticks_and_skips_test_modules() {
    let src = "fn f(s: &mut S) {\n    s.now += 1;\n    s.time += cost;\n    s.cycles+=2; // x\n}\n\
               #[cfg(test)]\nmod tests {\n    fn g() { now += 1; }\n}\n";
    assert_eq!(
        clock_ticks(src),
        vec![(2, "now".to_string()), (4, "cycles".to_string())]
    );
}

// ------------------------------------------------------------------ D9

/// `(param, type)` of a one-line `fn merge(&mut self, param: &Type)`
/// signature; `None` for any other spelling.
fn merge_signature(after_name: &str) -> Option<(&str, &str)> {
    let ident = |s: &str| !s.is_empty() && s.chars().all(|c| c == '_' || c.is_alphanumeric());
    let (param, rest) = after_name.strip_prefix("(&mut self, ")?.split_once(": &")?;
    let (ty, _) = rest.split_once(')')?;
    (ident(param) && ident(ty)).then_some((param, ty))
}

/// Line numbers of `merge` fns in `src` that do not open with an
/// exhaustive `let Self { .. } = *other;` (or `let Type { .. }`)
/// destructuring, or whose signature is not the one-line
/// `fn merge(&mut self, other: &Type)` the check can read.
fn non_exhaustive_merges(src: &str) -> Vec<usize> {
    let lines = code_lines(src);
    let mut bad = Vec::new();
    for (k, (n, line)) in lines.iter().enumerate() {
        let Some(after_name) = line
            .match_indices("fn merge")
            .map(|(at, m)| &line[at + m.len()..])
            .find(|rest| rest.starts_with(['(', '<']))
        else {
            continue;
        };
        let Some((param, ty)) = merge_signature(after_name) else {
            bad.push(*n);
            continue;
        };
        let body: String = lines[k + 1..]
            .iter()
            .map(|(_, l)| l.trim())
            .take_while(|l| *l != "}")
            .collect::<Vec<_>>()
            .join(" ");
        let close = format!("}} = *{param};");
        let exhaustive = ["let Self {".to_string(), format!("let {ty} {{")]
            .iter()
            .filter_map(|open| body.split_once(open.as_str()))
            .filter_map(|(_, p)| p.split_once(close.as_str()))
            .any(|(fields, _)| !fields.contains(".."));
        if !exhaustive {
            bad.push(*n);
        }
    }
    bad
}

#[test]
fn d9_every_merge_destructures_exhaustively() {
    let mut bad = Vec::new();
    let mut merges = 0;
    for f in lib_files() {
        let src = read(&f);
        merges += code_lines(&src)
            .iter()
            .filter(|(_, l)| l.contains("fn merge("))
            .count();
        for line in non_exhaustive_merges(&src) {
            bad.push(format!("{f}:{line}"));
        }
    }
    assert!(merges >= 4, "found only {merges} merge fns");
    assert!(
        bad.is_empty(),
        "merge fns must have the one-line signature `fn merge(&mut self, other: &Self)` and \
         open with `let Self {{ field, .. }} = *other;` listing every field (no `..`), so a \
         new field cannot be silently dropped:\n{}",
        bad.join("\n")
    );
}

#[test]
fn d9_form_check_rejects_field_reads_and_rest_patterns() {
    let merge = |sig: &str, body: &str| format!("    {sig} {{\n        {body}\n    }}\n");
    let good = [
        merge(
            "pub fn merge(&mut self, other: &Self)",
            "let Self { a, b } = *other;",
        ),
        merge(
            "pub(crate) fn merge(&mut self, o: &FooStats)",
            "let FooStats { a, ref v } = *o;",
        ),
        merge(
            "fn merge(&mut self, other: &Self)",
            "let Self { a } = *other;",
        ),
    ];
    for src in &good {
        assert!(non_exhaustive_merges(src).is_empty(), "{src}");
    }
    let bad = [
        merge("pub fn merge(&mut self, other: &Self)", "self.a += other.a;"),
        merge(
            "pub fn merge(&mut self, o: &Self)",
            "let Self { a, .. } = *o;",
        ),
        merge(
            "pub(crate) fn merge(&mut self, other: &FooStats)",
            "self.a += other.a;",
        ),
        merge("fn merge(&mut self, other: &Self)", "self.a += other.a;"),
        merge(
            "fn merge<T>(&mut self, other: &T)",
            "let Self { a } = *other;",
        ),
        "    pub fn merge(\n        &mut self,\n        other: &Self,\n    ) {\n        let Self { a } = *other;\n    }\n"
            .to_string(),
    ];
    for src in &bad {
        assert_eq!(non_exhaustive_merges(src), vec![1], "{src}");
    }
}

// ------------------------------------------------------------------ D10

/// Waiver inventory: `(lint, file)` → number of waiver attributes
/// naming that lint in that file.
type Inventory = BTreeMap<(String, String), u64>;

/// `(file, waiver)` for every waiver attribute in the workspace.
fn workspace_waivers() -> Vec<(String, Waiver)> {
    let mut all = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        for f in rust_files(dir) {
            all.extend(waivers(&read(&f)).into_iter().map(|w| (f.clone(), w)));
        }
    }
    all
}

fn live_inventory() -> Inventory {
    let mut inv = Inventory::new();
    for (f, w) in workspace_waivers() {
        for lint in w.lints {
            *inv.entry((lint, f.clone())).or_insert(0) += 1;
        }
    }
    inv
}

fn render_inventory(inv: &Inventory) -> String {
    let mut lints: Vec<(String, Json)> = Vec::new();
    for ((lint, file), &n) in inv {
        if lints.last().is_none_or(|(l, _)| l != lint) {
            lints.push((lint.clone(), Json::Obj(Vec::new())));
        }
        if let Some((_, Json::Obj(files))) = lints.last_mut() {
            files.push((file.clone(), Json::Num(n as f64)));
        }
    }
    let doc = Json::Obj(vec![
        ("schema".to_string(), Json::Str(WAIVER_SCHEMA.to_string())),
        ("lints".to_string(), Json::Obj(lints)),
    ]);
    doc.to_json_pretty() + "\n"
}

#[test]
fn d10_waiver_inventory_matches_the_committed_baseline() {
    let live = render_inventory(&live_inventory());
    assert!(
        read(WAIVERS) == live,
        "waiver inventory drifted from {WAIVERS}. If the change is deliberate, commit this \
         as {WAIVERS}:\n{live}"
    );
}

#[test]
fn d10_new_and_stale_debt_both_change_the_inventory() {
    let entry = |lint: &str, n: u64| ((lint.to_string(), "crates/core/src/a.rs".to_string()), n);
    let committed: Inventory = [entry("clippy::unwrap_used", 1)].into_iter().collect();
    let mut extra = committed.clone();
    extra.extend([entry("clippy::expect_used", 1)]);
    let stale = Inventory::new();
    let baseline = render_inventory(&committed);
    assert_ne!(render_inventory(&extra), baseline, "new debt must fail");
    assert_ne!(render_inventory(&stale), baseline, "stale entry must fail");
}

#[test]
fn d10_attribute_scanner_reads_every_waiver_form() {
    let src = [
        "#![expect(clippy::a, reason = \"x\")]",
        "#![cfg_attr(not(test), deny(clippy::no))]",
        "fn f() {",
        "    #[expect(",
        "        clippy::b,",
        "        clippy::c,",
        "        reason = \"y (z) allow(q) ]\"",
        "    )]",
        "    let v = o.expect(\"not an attribute\");",
        "    // a `#[expect(..)]` in a comment",
        "    #[allow(dead_code, reason = \"d\")]",
        "    let w = 1;",
        "}",
        "#[cfg_attr(test, allow(clippy::e))]",
        "fn g() {}",
    ]
    .join("\n");
    let found = waivers(&src);
    let found: Vec<(usize, usize, bool, bool, Vec<&str>)> = found
        .iter()
        .map(|w| {
            let lints = w.lints.iter().map(String::as_str).collect();
            (w.first, w.last, w.inner, w.allow, lints)
        })
        .collect();
    assert_eq!(
        found,
        vec![
            (0, 0, true, false, vec!["clippy::a"]),
            (3, 7, false, false, vec!["clippy::b", "clippy::c"]),
            (10, 10, false, true, vec!["dead_code"]),
            (13, 13, false, true, vec!["clippy::e"]),
        ]
    );
}

// ------------------------------------------------------------------ W1

#[test]
fn w1_every_waiver_is_an_expect() {
    let found: Vec<String> = workspace_waivers()
        .into_iter()
        .filter(|(_, w)| w.allow)
        .map(|(f, w)| format!("{f}:{}", w.first + 1))
        .collect();
    assert!(
        found.is_empty(),
        "waive with #[expect(<lint>, reason = ..)], which fails once it suppresses nothing; \
         clippy::allow_attributes rejects an outer allow but not an inner or cfg_attr one:\n{}",
        found.join("\n")
    );
}
