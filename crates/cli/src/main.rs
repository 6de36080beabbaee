//! `gsdram-sim` — command-line driver for the GS-DRAM system simulator.
//!
//! ```text
//! gsdram-sim <workload> [options]
//! gsdram-sim sweep <experiment> [--serial] [--threads N] [--json PATH]
//!                  [--trace-out PATH] [--hist] [--trace-cap N]
//! gsdram-sim sweep --list
//! gsdram-sim trace <experiment> [--run SUBSTR | --all] [--out PATH]
//!                  [--hist] [--trace-cap N]
//! gsdram-sim pattern <file.json|builtin> [--layout row|gs-dram]
//! gsdram-sim pattern --list
//! gsdram-sim perf [--quick] [--out PATH]
//! gsdram-sim perf check <path>
//!
//! Workloads:
//!   transactions   DB transactions (--layout, --txns, --mix r-w-rw)
//!   analytics      DB column sums (--layout, --columns k)
//!   htap           analytics + endless transactions on two cores
//!   gemm           matrix multiply (--variant, --n, --tile)
//!   kvstore        key-value lookups/inserts (--layout plain|gs)
//!   graph          node scans/updates (--layout plain|gs)
//!   replay         replay a trace (--file T [--alloc BYTES --pattern P])
//!   pattern        compile and run a gsdram-patterns spec — a JSON
//!                  file (see examples/patterns/), a builtin name, or
//!                  --pattern NAME / --pattern-file PATH; runs both
//!                  layouts unless --layout row|gs-dram selects one;
//!                  --list shows builtins + example files
//!   sweep          run a registered experiment (fig9, fig13, ...) in
//!                  parallel; --serial / --threads N control execution,
//!                  --json PATH writes the full stats tree,
//!                  --trace-out PATH a Chrome trace of every run,
//!                  --hist per-run read-latency histograms
//!   trace          run an experiment's specs with telemetry attached
//!                  and write a Chrome trace-event JSON (Perfetto /
//!                  chrome://tracing). Traces the first spec unless
//!                  --run SUBSTR selects by id or --all takes them all;
//!                  --out PATH (default trace.json), --trace-cap N
//!                  bounds the event ring, --hist prints histograms
//!   perf           time every registered experiment serially and
//!                  write the throughput report (--out PATH, default
//!                  BENCH_gsdram.json; --quick at CI-smoke scale);
//!                  `perf check <path>` validates a report's schema
//!
//! Common options:
//!   --tuples N     table/node/pair count        (default 65536)
//!   --prefetch     enable the stride prefetcher
//!   --impulse      Impulse-style gather baseline
//!   --fcfs         FCFS scheduling instead of FR-FCFS
//!   --sched P      scheduling engine: fr-fcfs (default), fcfs,
//!                  fr-fcfs-cap[:N] (starvation cap), bank-rr[:N]
//!   --mapping M    XOR-stage preset: direct (default), xor-bank,
//!                  xor-rank, xor-channel, xor-all
//!   --timing T     timing pack: ddr3-1600 (default) or ddr4-2400
//!   --closed-row   closed-row buffer management
//!   --ranks N      DRAM ranks                   (default 1; 1,2,4,8,16)
//!   --channels N   DRAM channels                (default 1; 1,2,4,8,16)
//!   --seed N       workload RNG seed            (default 42)
//!   --json PATH    write the run's stats tree as JSON
//!
//! Any other `--flag` is an error, with a "did you mean" suggestion.
//! ```

// D2 (docs/LINTS.md): no wall-clock reads or threads from the
// clippy.toml method list in binaries either.
#![deny(clippy::disallowed_methods)]

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use gsdram_bench::args::Args;
use gsdram_bench::experiments;
use gsdram_bench::listing;
use gsdram_bench::perf;
use gsdram_bench::spec::{MachineSpec, RunSpec, WorkloadSpec};
use gsdram_core::stats::ReportStats;
use gsdram_patterns::{builtin, PatternLayout, PatternSpec, BUILTIN_NAMES};
use gsdram_system::config::SystemConfig;
use gsdram_system::machine::{Machine, RunReport, StopWhen};
use gsdram_system::ops::Program;
use gsdram_system::trace::{TraceRecorder, TraceReplayer};
use gsdram_telemetry::{chrome_trace, Telemetry, DEFAULT_CAPACITY};
use gsdram_workloads::gemm::{program as gemm_program, Gemm, GemmVariant};
use gsdram_workloads::graph::{scan as graph_scan, updates as graph_updates, Graph, GraphLayout};
use gsdram_workloads::imdb::{analytics, transactions, Layout, Table, TxnSpec};
use gsdram_workloads::kvstore::{inserts, lookups, KvLayout, KvStore};

fn db_layout(args: &Args) -> Layout {
    match args.value("--layout").as_deref() {
        Some("row") => Layout::RowStore,
        Some("column") => Layout::ColumnStore,
        _ => Layout::GsDram,
    }
}

fn print_report(name: &str, r: &RunReport, cfg: &SystemConfig) {
    println!("== {name} ==");
    println!(
        "cycles            {:>14}  ({:.3} ms at {} GHz)",
        r.cpu_cycles,
        r.seconds(cfg) * 1e3,
        cfg.cpu_ghz
    );
    println!("operations        {:>14}  (memory: {})", r.ops, r.mem_ops);
    for (i, l1) in r.l1.iter().enumerate() {
        println!(
            "L1[{i}]             hits {:>10}  misses {:>9}  miss rate {:>6.2}%",
            l1.hits,
            l1.misses,
            l1.miss_rate() * 100.0
        );
    }
    println!(
        "L2                hits {:>10}  misses {:>9}  miss rate {:>6.2}%",
        r.l2.hits,
        r.l2.misses,
        r.l2.miss_rate() * 100.0
    );
    println!(
        "DRAM              reads {:>9}  writes {:>9}  row hit {:>7.2}%",
        r.dram.reads,
        r.dram.writes,
        r.dram.row_hit_rate() * 100.0
    );
    println!(
        "energy (mJ)       cpu {:>11.3}  dram {:>11.3}  total {:>8.3}",
        r.energy.cpu_static_mj + r.energy.cpu_dynamic_mj + r.energy.cache_mj,
        r.energy.dram_mj,
        r.energy.total_mj()
    );
    println!("progress          {:?}", r.progress);
    println!("results           {:?}", r.results);
}

/// Writes the report's stats tree to `--json <path>` when requested.
fn maybe_write_json(args: &Args, name: &str, r: &RunReport) -> Result<(), String> {
    let Some(path) = args.value("--json") else {
        return Ok(());
    };
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
    }
    let node = r.stats_node(name);
    std::fs::write(&path, node.to_json_pretty()).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Runs a single program, optionally teeing its op stream into the
/// file given by `--record`.
fn run_single(args: &Args, m: &mut Machine, p: &mut dyn Program) -> RunReport {
    if let Some(path) = args.value("--record") {
        let out = BufWriter::new(File::create(&path).expect("create trace file"));
        let mut rec = TraceRecorder::new(Forward(p), out);
        let r = {
            let mut programs: Vec<&mut dyn Program> = vec![&mut rec];
            m.run(&mut programs, StopWhen::AllDone)
        };
        eprintln!("recorded {} ops to {path}", rec.ops_written());
        return r;
    }
    let mut programs: Vec<&mut dyn Program> = vec![p];
    m.run(&mut programs, StopWhen::AllDone)
}

/// Adapter: a `&mut dyn Program` as an owned `Program`.
struct Forward<'a>(&'a mut dyn Program);

impl Program for Forward<'_> {
    fn next_op(&mut self) -> Option<gsdram_system::Op> {
        self.0.next_op()
    }
    fn on_load_value(&mut self, v: u64) {
        self.0.on_load_value(v);
    }
    fn progress(&self) -> u64 {
        self.0.progress()
    }
    fn result(&self) -> u64 {
        self.0.result()
    }
}

fn sweep(args: &Args) -> ExitCode {
    if args.flag("--list") {
        println!("registered experiments:");
        for def in experiments::REGISTRY {
            println!("  {:<22} {}", def.name, def.title);
        }
        return ExitCode::SUCCESS;
    }
    // `sweep` is the first positional; the experiment name is the next.
    let Some(name) = args.positional_at(1).map(str::to_owned) else {
        eprintln!("usage: gsdram-sim sweep <experiment> [--serial] [--threads N] [--json PATH]");
        eprintln!("       gsdram-sim sweep [--trace-out PATH] [--hist] ...");
        eprintln!("       gsdram-sim sweep --list");
        return ExitCode::FAILURE;
    };
    match experiments::run_named(&name, args) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `gsdram-sim trace <experiment>`: execute an experiment's specs with
/// a telemetry collector attached and export a Chrome trace-event
/// JSON. Runs serially — traces are about *where* time goes inside one
/// run, not sweep throughput.
fn trace(args: &Args) -> ExitCode {
    let usage = || {
        eprintln!(
            "usage: gsdram-sim trace <experiment> [--run SUBSTR | --all] \
             [--out PATH] [--hist] [--trace-cap N]"
        );
        ExitCode::FAILURE
    };
    let Some(name) = args.positional_at(1).map(str::to_owned) else {
        return usage();
    };
    let def = match experiments::resolve(&name) {
        Ok(def) => def,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let specs = (def.specs)(args);
    if specs.is_empty() {
        eprintln!("error: experiment '{name}' is purely analytic — no runs to trace");
        return ExitCode::FAILURE;
    }
    let selected: Vec<&RunSpec> = if args.flag("--all") {
        specs.iter().collect()
    } else if let Some(f) = args.value("--run") {
        specs.iter().filter(|s| s.id.contains(&f)).collect()
    } else {
        vec![&specs[0]]
    };
    if selected.is_empty() {
        eprintln!("error: --run matched none of:");
        for s in &specs {
            eprintln!("  {}", s.id);
        }
        return ExitCode::FAILURE;
    }
    let capacity = args.usize("--trace-cap", DEFAULT_CAPACITY);
    let mut traces: Vec<(String, Telemetry)> = Vec::new();
    for spec in selected {
        let (outcome, telemetry) = spec.execute_traced(capacity);
        println!(
            "{}: {} cycles, {} events ({} retained, {} dropped)",
            spec.id,
            outcome.report.cpu_cycles,
            telemetry.total_events(),
            telemetry.events().count(),
            telemetry.dropped(),
        );
        traces.push((spec.id.clone(), telemetry));
    }
    if args.flag("--hist") {
        print!("{}", experiments::hist_summary(&traces));
    }
    let out = args.value("--out").unwrap_or_else(|| "trace.json".into());
    let named: Vec<(String, &Telemetry)> = traces.iter().map(|(id, t)| (id.clone(), t)).collect();
    let json = chrome_trace(&named);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: mkdir {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out} ({} bytes)", json.len());
    ExitCode::SUCCESS
}

/// Every way to name a pattern spec, for `--list` and the not-found
/// error: the builtins plus any `examples/patterns/*.json` next to the
/// invocation directory — rendered by the same [`listing`] module as
/// `experiments::resolve`.
fn pattern_entries() -> Vec<listing::Entry> {
    let mut entries: Vec<listing::Entry> = BUILTIN_NAMES
        .iter()
        .map(|name| listing::Entry::new(*name, "builtin"))
        .collect();
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir("examples/patterns")
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    entries.extend(
        files
            .iter()
            .map(|f| listing::Entry::new(f.display().to_string(), "")),
    );
    entries
}

fn pattern_listing() -> String {
    listing::render("available pattern specs", &pattern_entries())
}

/// Resolves a pattern-spec argument: builtin names first, then a JSON
/// file path. Misses get the "did you mean" treatment against
/// everything listable; parse failures list everything available.
fn load_pattern_spec(arg: &str) -> Result<PatternSpec, String> {
    if let Some(spec) = builtin(arg) {
        return Ok(spec);
    }
    if !std::path::Path::new(arg).exists() {
        return Err(listing::unknown(
            "pattern spec",
            arg,
            "available pattern specs",
            &pattern_entries(),
        ));
    }
    let text = std::fs::read_to_string(arg)
        .map_err(|e| format!("cannot read pattern spec '{arg}': {e}"))?;
    PatternSpec::parse(&text).map_err(|e| format!("{arg}: {e}\n{}", pattern_listing()))
}

/// `gsdram-sim pattern <file|name>`: compile a spec and run it end to
/// end — both layouts by default, so the row-vs-GS-DRAM comparison is
/// one command.
fn pattern_cmd(args: &Args) -> ExitCode {
    if args.flag("--list") {
        println!("{}", pattern_listing());
        return ExitCode::SUCCESS;
    }
    let arg = args
        .value("--pattern-file")
        .or_else(|| args.value("--pattern"))
        .or_else(|| args.positional_at(1).map(str::to_owned));
    let Some(arg) = arg else {
        eprintln!("usage: gsdram-sim pattern <file.json|builtin> [--layout row|gs-dram]");
        eprintln!("       gsdram-sim pattern --list");
        eprintln!("{}", pattern_listing());
        return ExitCode::FAILURE;
    };
    let spec = match load_pattern_spec(&arg) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let layouts: Vec<PatternLayout> = match args.value("--layout") {
        Some(s) => match PatternLayout::parse(&s) {
            Some(l) => vec![l],
            None => {
                eprintln!("error: unknown --layout '{s}' (try row, gs-dram)");
                return ExitCode::FAILURE;
            }
        },
        None => vec![PatternLayout::Row, PatternLayout::GsDram],
    };
    let machine = match MachineSpec::table1(1, spec.mem_bytes_hint()).with_args(args) {
        Ok(ms) => ms,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cycles: Vec<(PatternLayout, u64)> = Vec::new();
    for layout in layouts {
        let rs = RunSpec {
            id: format!("pattern/{}/{}", spec.name, layout.label()),
            machine: machine.clone(),
            workload: WorkloadSpec::Pattern {
                spec: spec.clone(),
                layout,
            },
        };
        let cfg = rs.machine.config();
        let o = rs.execute();
        print_report(
            &format!("pattern {} layout={}", spec.describe(), layout.label()),
            &o.report,
            &cfg,
        );
        if let Err(e) = maybe_write_json(args, "pattern", &o.report) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        cycles.push((layout, o.report.cpu_cycles));
    }
    if let [(_, row), (_, gs)] = cycles.as_slice() {
        println!(
            "speedup           {:>14.3}  (row {} / gs-dram {} cycles)",
            *row as f64 / *gs as f64,
            row,
            gs
        );
    }
    ExitCode::SUCCESS
}

/// `gsdram-sim perf`: measure the registry's simulator throughput
/// and write the report, or `perf check <path>`: validate one.
fn perf_cmd(args: &Args) -> ExitCode {
    if args.positional_at(1) == Some("check") {
        let Some(path) = args.positional_at(2) else {
            eprintln!("usage: gsdram-sim perf check <path>");
            return ExitCode::FAILURE;
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match perf::check(&text) {
            Ok(()) => {
                println!("{path}: ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(other) = args.positional_at(1) {
        eprintln!("error: unknown perf subcommand '{other}'");
        eprintln!("usage: gsdram-sim perf [--quick] [--out PATH] | perf check <path>");
        return ExitCode::FAILURE;
    }
    let text = perf::run(args);
    let path = args
        .value("--out")
        .unwrap_or_else(|| perf::DEFAULT_OUT.to_string());
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("error: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = Args::from_env();
    if let Err(e) = args.check_known() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let Some(workload) = args.positional().map(str::to_owned) else {
        eprintln!(
            "usage: gsdram-sim <transactions|analytics|htap|gemm|kvstore|graph|replay|pattern|sweep|trace|perf> [options]"
        );
        eprintln!("run with a workload name; see crate docs for options");
        return ExitCode::FAILURE;
    };
    if workload == "sweep" {
        return sweep(&args);
    }
    if workload == "trace" {
        return trace(&args);
    }
    if workload == "pattern" {
        return pattern_cmd(&args);
    }
    if workload == "perf" {
        return perf_cmd(&args);
    }
    let tuples = args.u64("--tuples", 65_536);
    let seed = args.u64("--seed", 42);
    let mem = (tuples as usize * 64 * 2).max(16 << 20);
    // The one machine-flag parser shared with the experiment engine
    // (--prefetch, --impulse, --fcfs, --sched, --mapping, --timing,
    // --closed-row, --ranks, --channels). Parsed once up
    // front so a bad flag fails before any workload builds memory;
    // each workload then patches in its core count and memory size.
    let parsed = match MachineSpec::table1(1, mem).with_args(&args) {
        Ok(ms) => ms,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let machine = |cores: usize, mem: usize| {
        let mut ms = parsed.clone();
        ms.cores = cores;
        ms.mem_bytes = mem;
        ms
    };

    match workload.as_str() {
        "transactions" => {
            let mix = args.value("--mix").unwrap_or_else(|| "1-0-1".into());
            let parts: Vec<usize> = mix.split('-').filter_map(|x| x.parse().ok()).collect();
            if parts.len() != 3 || parts.iter().sum::<usize>() > 8 {
                eprintln!("--mix must be r-w-rw with at most 8 total fields");
                return ExitCode::FAILURE;
            }
            let spec = TxnSpec {
                read_only: parts[0],
                write_only: parts[1],
                read_write: parts[2],
            };
            let mut m = machine(1, mem).build();
            let table = Table::create(&mut m, db_layout(&args), tuples);
            let mut p = transactions(table, spec, args.u64("--txns", 10_000), seed);
            let r = run_single(&args, &mut m, &mut p);
            let name = format!("transactions {} {}", db_layout(&args).label(), spec.label());
            print_report(&name, &r, m.config());
            if let Err(e) = maybe_write_json(&args, "transactions", &r) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        "analytics" => {
            let k = args.u64("--columns", 1) as usize;
            let columns: Vec<usize> = (0..k.min(8)).collect();
            let mut m = machine(1, mem).build();
            let table = Table::create(&mut m, db_layout(&args), tuples);
            let mut p = analytics(table, &columns);
            let r = run_single(&args, &mut m, &mut p);
            let want: u64 = columns
                .iter()
                .fold(0u64, |a, &f| a.wrapping_add(table.expected_column_sum(f)));
            assert_eq!(r.results[0], want, "column sum mismatch — simulator bug");
            print_report(
                &format!("analytics {} k={k}", db_layout(&args).label()),
                &r,
                m.config(),
            );
            if let Err(e) = maybe_write_json(&args, "analytics", &r) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        "htap" => {
            let mut m = machine(2, mem).build();
            let table = Table::create(&mut m, db_layout(&args), tuples);
            let mut anal = analytics(table, &[0]);
            let spec = TxnSpec {
                read_only: 1,
                write_only: 1,
                read_write: 0,
            };
            let mut txn = transactions(table, spec, u64::MAX, seed);
            let r = {
                let mut programs: Vec<&mut dyn Program> = vec![&mut anal, &mut txn];
                m.run(&mut programs, StopWhen::CoreDone(0))
            };
            let thr = r.progress[1] as f64 / r.seconds(m.config()) / 1e6;
            print_report(
                &format!("htap {}", db_layout(&args).label()),
                &r,
                m.config(),
            );
            println!("txn throughput    {thr:>14.2} M/s");
            if let Err(e) = maybe_write_json(&args, "htap", &r) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        "gemm" => {
            let n = args.u64("--n", 128) as usize;
            let tile = args.u64("--tile", 32) as usize;
            let variant = match args.value("--variant").as_deref() {
                Some("naive") => GemmVariant::Naive,
                Some("tiled") => GemmVariant::Tiled { tile },
                Some("simd") => GemmVariant::TiledSimd { tile },
                _ => GemmVariant::GsDram { tile },
            };
            let mem = (3 * n * n * 8 * 2).max(16 << 20);
            let mut m = machine(1, mem).build();
            let g = Gemm::create(&mut m, n, variant);
            g.init(&mut m);
            let (mut p, (full, simulated)) = gemm_program(g, None);
            let r = run_single(&args, &mut m, &mut p);
            print_report(&format!("gemm {} n={n}", variant.label()), &r, m.config());
            if full != simulated {
                println!("(sampled; scale {})", full as f64 / simulated as f64);
            }
            if let Err(e) = maybe_write_json(&args, "gemm", &r) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        "kvstore" => {
            let layout = match args.value("--layout").as_deref() {
                Some("plain") => KvLayout::Interleaved,
                _ => KvLayout::GsDram,
            };
            let mut m = machine(1, mem).build();
            let kv = KvStore::create(&mut m, layout, tuples);
            let mut p = lookups(kv, tuples / 2, args.u64("--lookups", 64), seed);
            let r = run_single(&args, &mut m, &mut p);
            print_report(
                &format!("kvstore lookups {}", layout.label()),
                &r,
                m.config(),
            );
            let mut p = inserts(kv, args.u64("--inserts", 2000), seed);
            let r = run_single(&args, &mut m, &mut p);
            print_report(
                &format!("kvstore inserts {}", layout.label()),
                &r,
                m.config(),
            );
            if let Err(e) = maybe_write_json(&args, "kvstore", &r) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        "replay" => {
            // Replay a trace recorded with --record. The machine must be
            // given the same allocation the recording run had:
            // --alloc BYTES [--pattern P] recreates one pattmalloc
            // region at the deterministic base address.
            let Some(path) = args.value("--file") else {
                eprintln!("replay needs --file <trace>");
                return ExitCode::FAILURE;
            };
            let mut m = machine(1, mem).build();
            let alloc = args.u64("--alloc", tuples * 64);
            let pattern = gsdram_core::PatternId(args.u64("--pattern", 7) as u8);
            m.pattmalloc(alloc, true, pattern);
            let file = BufReader::new(match File::open(&path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot open {path}: {e}");
                    return ExitCode::FAILURE;
                }
            });
            let mut p = TraceReplayer::new(file);
            let r = {
                let mut programs: Vec<&mut dyn Program> = vec![&mut p];
                m.run(&mut programs, StopWhen::AllDone)
            };
            print_report(
                &format!("replay {path} ({} ops)", p.ops_replayed()),
                &r,
                m.config(),
            );
            if let Err(e) = maybe_write_json(&args, "replay", &r) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        "graph" => {
            let layout = match args.value("--layout").as_deref() {
                Some("plain") => GraphLayout::NodeMajor,
                _ => GraphLayout::GsDram,
            };
            let mut m = machine(1, mem).build();
            let g = Graph::create(&mut m, layout, tuples);
            let mut p = graph_scan(g, 0);
            let r = run_single(&args, &mut m, &mut p);
            print_report(&format!("graph scan {}", layout.label()), &r, m.config());
            let mut p = graph_updates(g, args.u64("--updates", 2000), seed);
            let r = run_single(&args, &mut m, &mut p);
            print_report(&format!("graph updates {}", layout.label()), &r, m.config());
            if let Err(e) = maybe_write_json(&args, "graph", &r) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        other => {
            eprintln!("unknown workload '{other}'");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
