//! The pattern-spec format: a small JSON schema describing an index
//! stream over a word array, parsed with the workspace's dep-free
//! parser ([`gsdram_core::json`]).
//!
//! A spec is pure data — `{"name", "elements", "seed", "op",
//! "pattern"}` — and everything downstream (the materialized index
//! stream, the compiled op stream, the expected checksum) is a
//! deterministic function of it. Numbers are read through
//! [`Json::as_u64`] so this crate stays float-free under lint rule D5.
//!
//! Parsing is strict: unknown keys, non-integer numbers, and
//! out-of-range sizes are errors, not warnings — the fuzz tests in
//! this module feed the parser hostile inputs and expect an `Err`,
//! never a panic.

use gsdram_core::json::Json;

/// Direction of the access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOp {
    /// Loads: read the addressed words (checksum-verified).
    Gather,
    /// Stores: write the addressed words (final values verified,
    /// including last-writer-wins under duplicate addresses).
    Scatter,
}

impl AccessOp {
    /// Display label (also the accepted JSON value).
    pub fn label(&self) -> &'static str {
        match self {
            AccessOp::Gather => "gather",
            AccessOp::Scatter => "scatter",
        }
    }
}

/// An index-stream generator: how word indices in `[0, elements)` are
/// produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Generator {
    /// Uniform stride: access `start + t·stride` for `t = 0..count`.
    Stride {
        /// Distance between consecutive accesses, in words.
        stride: u64,
        /// Number of accesses.
        count: u64,
        /// First word index.
        start: u64,
    },
    /// Uniform stride with per-access deviation: with probability
    /// `deviate_pct`% the access goes to a seeded-random word instead
    /// of the nominal strided one (and compiles to a plain load).
    MostlyStride {
        /// Nominal stride, in words.
        stride: u64,
        /// Number of accesses.
        count: u64,
        /// Percent of accesses that deviate (0..=100).
        deviate_pct: u64,
    },
    /// Blocks of `block` consecutive words separated by `gap` skipped
    /// words (Spatter's stride-with-gap shape).
    StrideGap {
        /// Words per contiguous block.
        block: u64,
        /// Words skipped between blocks.
        gap: u64,
        /// Number of accesses.
        count: u64,
    },
    /// Seeded-random accesses uniform over the first `window` words —
    /// locality is controlled by the window size alone.
    WindowRandom {
        /// Window size, in words.
        window: u64,
        /// Number of accesses.
        count: u64,
    },
    /// A fully indirect stream: an index array is materialized in
    /// simulated memory and every access first loads `idx[t]`, then
    /// accesses `data[idx[t]]` — the data-dependent form GS-DRAM
    /// cannot accelerate.
    Indirect {
        /// Number of accesses (ignored when `indices` is explicit).
        count: u64,
        /// Generated indices are uniform in `[0, range)`.
        range: u64,
        /// Percent of accesses that duplicate an earlier index
        /// (0..=100) — the hostile scatter case.
        dup_pct: u64,
        /// Explicit index array (overrides seeded generation).
        indices: Option<Vec<u64>>,
    },
}

impl Generator {
    /// One-line description for reports, e.g. `stride=8` or
    /// `indirect range=65536 dup=50%`.
    pub fn label(&self) -> String {
        match self {
            Generator::Stride { stride, start, .. } => {
                if *start == 0 {
                    format!("stride={stride}")
                } else {
                    format!("stride={stride} start={start}")
                }
            }
            Generator::MostlyStride {
                stride,
                deviate_pct,
                ..
            } => format!("mostly-stride={stride} dev={deviate_pct}%"),
            Generator::StrideGap { block, gap, .. } => format!("gap block={block} gap={gap}"),
            Generator::WindowRandom { window, .. } => format!("window={window}"),
            Generator::Indirect {
                range,
                dup_pct,
                indices,
                ..
            } => {
                if indices.is_some() {
                    "indirect explicit".to_string()
                } else {
                    format!("indirect range={range} dup={dup_pct}%")
                }
            }
        }
    }

    /// Number of accesses the generator produces.
    pub fn count(&self) -> u64 {
        match self {
            Generator::Stride { count, .. }
            | Generator::MostlyStride { count, .. }
            | Generator::StrideGap { count, .. }
            | Generator::WindowRandom { count, .. } => *count,
            Generator::Indirect { count, indices, .. } => match indices {
                Some(v) => v.len() as u64,
                None => *count,
            },
        }
    }
}

/// A parsed, validated pattern spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternSpec {
    /// Display name (used in run ids).
    pub name: String,
    /// Size of the data array, in 8-byte words. Must be a positive
    /// multiple of 64 so every gathered line stays in bounds.
    pub elements: u64,
    /// RNG seed for the seeded generators.
    pub seed: u64,
    /// Gather (loads) or scatter (stores).
    pub op: AccessOp,
    /// The index-stream generator.
    pub pattern: Generator,
}

/// A spec rejection: message only (specs are small, so no spans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What was wrong with the spec.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pattern spec error: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(message: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError {
        message: message.into(),
    })
}

/// Hard caps keeping hostile specs simulable: at most 2^22 words
/// (32 MiB) of data and 2^22 accesses.
pub const MAX_ELEMENTS: u64 = 1 << 22;
/// See [`MAX_ELEMENTS`].
pub const MAX_COUNT: u64 = 1 << 22;

/// Reads a present-and-integer `key`, or `default` when absent.
fn opt_u64(obj: &Json, key: &str, default: u64) -> Result<u64, SpecError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => match v.as_u64() {
            Some(n) => Ok(n),
            None => err(format!("\"{key}\" must be a non-negative integer")),
        },
    }
}

fn check_keys(obj: &Json, ctx: &str, allowed: &[&str]) -> Result<(), SpecError> {
    let members = match obj.as_object() {
        Some(m) => m,
        None => return err(format!("{ctx} must be an object")),
    };
    for (k, _) in members {
        if !allowed.contains(&k.as_str()) {
            return err(format!(
                "unknown {ctx} key \"{k}\" (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

impl PatternSpec {
    /// Parses and validates a spec from JSON text.
    pub fn parse(text: &str) -> Result<PatternSpec, SpecError> {
        let doc = match Json::parse(text) {
            Ok(d) => d,
            Err(e) => return err(format!("invalid JSON: {e}")),
        };
        Self::from_json(&doc)
    }

    /// Parses and validates a spec from a parsed JSON value.
    pub fn from_json(doc: &Json) -> Result<PatternSpec, SpecError> {
        check_keys(doc, "spec", &["name", "elements", "seed", "op", "pattern"])?;
        let name = match doc.get("name") {
            None => "pattern".to_string(),
            Some(Json::Str(s)) => s.clone(),
            Some(_) => return err("\"name\" must be a string"),
        };
        let elements = match doc.get("elements").map(Json::as_u64) {
            Some(Some(n)) => n,
            Some(None) => return err("\"elements\" must be a non-negative integer"),
            None => return err("missing required key \"elements\""),
        };
        let seed = opt_u64(doc, "seed", 42)?;
        let op = match doc.get("op") {
            None => AccessOp::Gather,
            Some(Json::Str(s)) if s == "gather" => AccessOp::Gather,
            Some(Json::Str(s)) if s == "scatter" => AccessOp::Scatter,
            Some(_) => return err("\"op\" must be \"gather\" or \"scatter\""),
        };
        let pat = match doc.get("pattern") {
            Some(p) => p,
            None => return err("missing required key \"pattern\""),
        };
        let pattern = Self::pattern_from_json(pat, elements)?;
        let spec = PatternSpec {
            name,
            elements,
            seed,
            op,
            pattern,
        };
        spec.validate()?;
        Ok(spec)
    }

    fn pattern_from_json(pat: &Json, elements: u64) -> Result<Generator, SpecError> {
        let ty = match pat.get("type").map(Json::as_str) {
            Some(Some(t)) => t,
            _ => return err("pattern must have a string \"type\""),
        };
        match ty {
            "stride" => {
                check_keys(pat, "pattern", &["type", "stride", "count", "start"])?;
                let stride = opt_u64(pat, "stride", 1)?;
                let start = opt_u64(pat, "start", 0)?;
                let default = default_stride_count(elements, start, stride);
                Ok(Generator::Stride {
                    stride,
                    count: opt_u64(pat, "count", default)?,
                    start,
                })
            }
            "mostly-stride" => {
                check_keys(pat, "pattern", &["type", "stride", "count", "deviate_pct"])?;
                let stride = opt_u64(pat, "stride", 1)?;
                let default = default_stride_count(elements, 0, stride);
                Ok(Generator::MostlyStride {
                    stride,
                    count: opt_u64(pat, "count", default)?,
                    deviate_pct: opt_u64(pat, "deviate_pct", 10)?,
                })
            }
            "stride-gap" => {
                check_keys(pat, "pattern", &["type", "block", "gap", "count"])?;
                let block = opt_u64(pat, "block", 8)?;
                let gap = opt_u64(pat, "gap", 8)?;
                let period = block.saturating_add(gap);
                let default = elements
                    .checked_div(period)
                    .unwrap_or(0)
                    .saturating_mul(block);
                Ok(Generator::StrideGap {
                    block,
                    gap,
                    count: opt_u64(pat, "count", default)?,
                })
            }
            "window-random" => {
                check_keys(pat, "pattern", &["type", "window", "count"])?;
                let window = opt_u64(pat, "window", elements)?;
                Ok(Generator::WindowRandom {
                    window,
                    count: opt_u64(pat, "count", window)?,
                })
            }
            "indirect" => {
                check_keys(
                    pat,
                    "pattern",
                    &["type", "count", "range", "dup_pct", "indices"],
                )?;
                let range = opt_u64(pat, "range", elements)?;
                let indices = match pat.get("indices") {
                    None => None,
                    Some(Json::Arr(items)) => {
                        let mut v = Vec::with_capacity(items.len());
                        for item in items {
                            match item.as_u64() {
                                Some(n) => v.push(n),
                                None => {
                                    return err("\"indices\" entries must be non-negative integers")
                                }
                            }
                        }
                        Some(v)
                    }
                    Some(_) => return err("\"indices\" must be an array"),
                };
                Ok(Generator::Indirect {
                    count: opt_u64(pat, "count", range)?,
                    range,
                    dup_pct: opt_u64(pat, "dup_pct", 0)?,
                    indices,
                })
            }
            other => err(format!(
                "unknown pattern type \"{other}\" (try stride, mostly-stride, stride-gap, \
                 window-random, indirect)"
            )),
        }
    }

    /// Checks every size/range invariant the compiler relies on.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.elements == 0 || !self.elements.is_multiple_of(64) {
            return err(format!(
                "\"elements\" must be a positive multiple of 64 (got {})",
                self.elements
            ));
        }
        if self.elements > MAX_ELEMENTS {
            return err(format!(
                "\"elements\" {} exceeds the cap of {MAX_ELEMENTS}",
                self.elements
            ));
        }
        let count = self.pattern.count();
        if count == 0 {
            return err("the pattern produces zero accesses");
        }
        if count > MAX_COUNT {
            return err(format!("count {count} exceeds the cap of {MAX_COUNT}"));
        }
        let in_bounds = |w: Option<u64>, what: &str| match w {
            Some(w) if w < self.elements => Ok(()),
            Some(w) => err(format!(
                "{what} reaches word {w}, past \"elements\" {}",
                self.elements
            )),
            None => err(format!("{what} overflows")),
        };
        match &self.pattern {
            Generator::Stride {
                stride,
                count,
                start,
            } => {
                if *stride == 0 {
                    return err("\"stride\" must be >= 1");
                }
                let last = count
                    .checked_sub(1)
                    .and_then(|c| c.checked_mul(*stride))
                    .and_then(|w| w.checked_add(*start));
                in_bounds(last, "the last strided access")
            }
            Generator::MostlyStride {
                stride,
                count,
                deviate_pct,
            } => {
                if *stride == 0 {
                    return err("\"stride\" must be >= 1");
                }
                if *deviate_pct > 100 {
                    return err("\"deviate_pct\" must be <= 100");
                }
                let last = count.checked_sub(1).and_then(|c| c.checked_mul(*stride));
                in_bounds(last, "the last strided access")
            }
            Generator::StrideGap { block, gap, count } => {
                if *block == 0 {
                    return err("\"block\" must be >= 1");
                }
                let t = count - 1;
                let last = (t / block)
                    .checked_mul(block.saturating_add(*gap))
                    .and_then(|w| w.checked_add(t % block));
                in_bounds(last, "the last block access")
            }
            Generator::WindowRandom { window, .. } => {
                if *window == 0 || *window > self.elements {
                    return err(format!("\"window\" must be in 1..=elements (got {window})"));
                }
                Ok(())
            }
            Generator::Indirect {
                range,
                dup_pct,
                indices,
                ..
            } => {
                if *dup_pct > 100 {
                    return err("\"dup_pct\" must be <= 100");
                }
                if *range == 0 || *range > self.elements {
                    return err(format!("\"range\" must be in 1..=elements (got {range})"));
                }
                if let Some(v) = indices {
                    for (t, w) in v.iter().enumerate() {
                        if *w >= self.elements {
                            return err(format!(
                                "indices[{t}] = {w} is past \"elements\" {}",
                                self.elements
                            ));
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Renders the spec back to JSON text. `parse` of the result
    /// reproduces the spec exactly (round-trip, pinned by tests).
    pub fn to_json_string(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"name\": \"{}\",\n", escape(&self.name)));
        s.push_str(&format!("  \"elements\": {},\n", self.elements));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"op\": \"{}\",\n", self.op.label()));
        s.push_str("  \"pattern\": {");
        match &self.pattern {
            Generator::Stride {
                stride,
                count,
                start,
            } => s.push_str(&format!(
                "\"type\": \"stride\", \"stride\": {stride}, \"count\": {count}, \
                 \"start\": {start}"
            )),
            Generator::MostlyStride {
                stride,
                count,
                deviate_pct,
            } => s.push_str(&format!(
                "\"type\": \"mostly-stride\", \"stride\": {stride}, \"count\": {count}, \
                 \"deviate_pct\": {deviate_pct}"
            )),
            Generator::StrideGap { block, gap, count } => s.push_str(&format!(
                "\"type\": \"stride-gap\", \"block\": {block}, \"gap\": {gap}, \
                 \"count\": {count}"
            )),
            Generator::WindowRandom { window, count } => s.push_str(&format!(
                "\"type\": \"window-random\", \"window\": {window}, \"count\": {count}"
            )),
            Generator::Indirect {
                count,
                range,
                dup_pct,
                indices,
            } => {
                s.push_str(&format!(
                    "\"type\": \"indirect\", \"count\": {count}, \"range\": {range}, \
                     \"dup_pct\": {dup_pct}"
                ));
                if let Some(v) = indices {
                    let list: Vec<String> = v.iter().map(|w| w.to_string()).collect();
                    s.push_str(&format!(", \"indices\": [{}]", list.join(", ")));
                }
            }
        }
        s.push_str("}\n}\n");
        s
    }

    /// A machine memory size comfortably holding the dataset: twice
    /// the data + index footprint plus slack, at least 8 MiB, power
    /// of two.
    pub fn mem_bytes_hint(&self) -> usize {
        let bytes = (self.elements + self.pattern.count() + (1 << 17_u32)) * 8 * 2;
        (bytes as usize).next_power_of_two().max(8 << 20)
    }

    /// One-line description for reports.
    pub fn describe(&self) -> String {
        format!(
            "{} {} {} elements={} count={} seed={}",
            self.name,
            self.op.label(),
            self.pattern.label(),
            self.elements,
            self.pattern.count(),
            self.seed
        )
    }
}

/// Default access count for a strided generator: every strided slot
/// that fits in `[start, elements)`.
fn default_stride_count(elements: u64, start: u64, stride: u64) -> u64 {
    if stride == 0 || start >= elements {
        return 0;
    }
    (elements - start).div_ceil(stride)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_stride_spec() {
        let s =
            PatternSpec::parse(r#"{"elements": 4096, "pattern": {"type": "stride", "stride": 8}}"#)
                .unwrap();
        assert_eq!(s.name, "pattern");
        assert_eq!(s.seed, 42);
        assert_eq!(s.op, AccessOp::Gather);
        assert_eq!(
            s.pattern,
            Generator::Stride {
                stride: 8,
                count: 512,
                start: 0
            }
        );
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        let bad = [
            r#"{"elements": 4096}"#,
            r#"{"elements": 4096, "pattern": {"type": "stride"}, "bogus": 1}"#,
            r#"{"elements": 4096, "pattern": {"type": "wat"}}"#,
            r#"{"elements": 4096, "pattern": {"type": "stride", "stride": 1.5}}"#,
            r#"{"elements": 100, "pattern": {"type": "stride"}}"#,
            r#"{"elements": 4096, "pattern": {"type": "stride", "stride": 0}}"#,
            r#"{"elements": 4096, "pattern": {"type": "stride", "count": 4097}}"#,
            r#"{"elements": 4096, "op": "mangle", "pattern": {"type": "stride"}}"#,
            r#"{"elements": 4096, "pattern": {"type": "indirect", "indices": [4096]}}"#,
            r#"{"elements": 4096, "pattern": {"type": "window-random", "window": 8192}}"#,
            r#"{"elements": 4096, "pattern": {"type": "mostly-stride", "deviate_pct": 101}}"#,
        ];
        for text in bad {
            assert!(PatternSpec::parse(text).is_err(), "accepted: {text}");
        }
    }

    #[test]
    fn round_trips_every_generator() {
        let specs = [
            r#"{"name": "s", "elements": 4096, "seed": 7, "op": "scatter",
                "pattern": {"type": "stride", "stride": 6, "count": 100, "start": 2}}"#,
            r#"{"elements": 4096, "pattern": {"type": "mostly-stride", "stride": 8,
                "deviate_pct": 25}}"#,
            r#"{"elements": 4096, "pattern": {"type": "stride-gap", "block": 16, "gap": 48}}"#,
            r#"{"elements": 4096, "pattern": {"type": "window-random", "window": 256}}"#,
            r#"{"elements": 4096, "op": "scatter",
                "pattern": {"type": "indirect", "count": 64, "dup_pct": 50}}"#,
            r#"{"elements": 4096, "pattern": {"type": "indirect", "indices": [0, 5, 5, 9]}}"#,
        ];
        for text in specs {
            let a = PatternSpec::parse(text).unwrap();
            let b = PatternSpec::parse(&a.to_json_string()).unwrap();
            assert_eq!(a, b, "round-trip changed {text}");
        }
    }
}
