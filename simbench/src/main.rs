//! `simbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload for the given time and prints, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end set untraced, the per-layer set with
//! `--trace 1`). The line before it is the run stamp. A traced run also
//! writes its spans as a Chrome trace beside the executable.

use std::process::ExitCode;

use gsdram_core::json::Json;
use simbench::{assess, metrics, Sizes, Workload};

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: simbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}\n{}", usage()))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
    };
    let name = get("--workload")?;
    let workload =
        Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`\n{}", usage()))?;
    let number = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} wants a whole number, got `{v}`"))
    };
    let seed = number("--seed", get("--seed")?)?;
    let seconds = number("--seconds", get("--seconds")?)? as f64;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace wants 0 or 1, got `{v}`")),
    };
    Ok(Cli {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Writes the traced run's spans next to the executable, which lives in
/// the build directory of the checkout being measured.
fn write_spans(run: &simbench::Run) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("simbench-spans");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.json", run.workload.name(), run.seed));
    std::fs::write(&path, run.spans.to_chrome_json()).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main(args: &[String]) -> Result<(), String> {
    let cli = parse(args)?;
    let declared = metrics::declared(metrics::SPEC, cli.trace)?;
    let run = simbench::run(
        cli.workload,
        cli.seed,
        cli.seconds,
        cli.trace,
        &Sizes::full(),
    );
    let (failed, failures) = assess(&run.reps);
    for f in &failures {
        eprintln!("simbench: failed {f}");
    }
    let ms = run.metrics(cli.trace);
    metrics::validate(&ms, &declared, !cli.trace)?;
    let mut stamp = run.stamp();
    if cli.trace {
        let path = write_spans(&run).map_err(|e| format!("writing spans: {e}"))?;
        if let Json::Obj(m) = &mut stamp {
            m.push(("spans".into(), Json::Str(path)));
        }
    }
    println!(
        "{}",
        Json::Obj(vec![("stamp".into(), stamp)]).to_json_string()
    );
    println!(
        "{}",
        metrics::result_line(run.reps.len() as u64, failed, &ms)
    );
    Ok(())
}
