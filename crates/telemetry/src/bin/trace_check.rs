//! `gsdram-trace-check` — validates a Chrome trace-event JSON file
//! produced by `gsdram-sim trace` (or any `chrome_trace` export).
//!
//! Checks, exiting non-zero on the first failure:
//!
//! * the file parses as JSON and has a non-empty `traceEvents` array;
//! * every event is an object with `ph`, `pid`, `tid` and a numeric
//!   `ts`;
//! * timestamps are monotone non-decreasing in array order;
//! * `dur` (when present) is non-negative and only on `"X"` slices;
//! * at least one `"X"` slice exists (a trace with no DRAM service at
//!   all is almost certainly a wiring bug).
//!
//! ```text
//! gsdram-trace-check trace.json
//! ```

// D2 (docs/LINTS.md): no wall-clock reads or threads from the
// clippy.toml method list in binaries either.
#![deny(clippy::disallowed_methods)]
#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "binary target: printing the verdict is the job"
)]

use std::process::ExitCode;

use gsdram_core::json::Json;

fn check(text: &str) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing 'traceEvents' member")?
        .as_array()
        .ok_or("'traceEvents' is not an array")?;
    if events.is_empty() {
        return Err("'traceEvents' is empty".into());
    }
    let mut last_ts = f64::NEG_INFINITY;
    let mut slices = 0u64;
    let mut counters = 0u64;
    let mut instants = 0u64;
    for (i, e) in events.iter().enumerate() {
        let fail = |msg: &str| Err(format!("event {i}: {msg}"));
        if e.as_object().is_none() {
            return fail("not an object");
        }
        let Some(ph) = e.get("ph").and_then(Json::as_str) else {
            return fail("missing string 'ph'");
        };
        if e.get("pid").and_then(Json::as_f64).is_none() {
            return fail("missing numeric 'pid'");
        }
        if e.get("tid").and_then(Json::as_f64).is_none() {
            return fail("missing numeric 'tid'");
        }
        let Some(ts) = e.get("ts").and_then(Json::as_f64) else {
            return fail("missing numeric 'ts'");
        };
        if ts < last_ts {
            return fail(&format!("ts {ts} goes backwards (previous {last_ts})"));
        }
        last_ts = ts;
        match e.get("dur").map(|d| d.as_f64()) {
            None => {}
            Some(Some(d)) if d >= 0.0 && ph == "X" => {}
            Some(Some(_)) if ph != "X" => return fail("'dur' on a non-X event"),
            _ => return fail("bad 'dur'"),
        }
        match ph {
            "X" => slices += 1,
            "C" => counters += 1,
            "i" => instants += 1,
            _ => {}
        }
    }
    if slices == 0 {
        return Err("no complete ('X') slices — no DRAM request was traced".into());
    }
    Ok(format!(
        "ok: {} events ({slices} slices, {counters} counter samples, {instants} instants), ts 0..{last_ts}",
        events.len()
    ))
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: gsdram-trace-check <trace.json>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&text) {
        Ok(summary) => {
            println!("{path}: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: INVALID: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_minimal_valid_trace() {
        let text = r#"{"traceEvents":[
            {"name":"read","ph":"X","pid":0,"tid":0,"ts":5,"dur":30},
            {"name":"q","ph":"C","pid":0,"tid":0,"ts":6,"args":{"depth":1}}
        ]}"#;
        assert!(check(text).is_ok());
    }

    #[test]
    fn rejects_backwards_timestamps_and_missing_fields() {
        let backwards = r#"{"traceEvents":[
            {"ph":"X","pid":0,"tid":0,"ts":10,"dur":1},
            {"ph":"X","pid":0,"tid":0,"ts":9,"dur":1}
        ]}"#;
        assert!(check(backwards).unwrap_err().contains("backwards"));
        assert!(check("{}").is_err());
        assert!(check(r#"{"traceEvents":[]}"#).is_err());
        assert!(check(r#"{"traceEvents":[{"pid":0,"tid":0,"ts":1}]}"#).is_err());
    }
}
