//! Regenerates every table and figure of the paper as text output, plus the
//! interface-inference pipeline of `timepiece-infer`.
//!
//! ```text
//! repro fig1      [--max-k N] [--timeout-secs S] [--threads T]
//! repro fig3
//! repro fig13
//! repro fig14     [--bench NAME|all] [--scenario-file PATH]
//!                 [--max-k N | --ks 4,6,8] [--timeout-secs S]
//!                 [--no-ms] [--json PATH] [--trace PATH]
//! repro table1
//! repro table2
//! repro table3
//! repro wan       [--peers N] [--timeout-secs S]
//! repro keyideas
//! repro infer     [--bench reach|len|all] [--max-k N] [--no-roles] [--trace PATH]
//! repro profile   [--bench NAME|all] [--max-k N | --ks 4,6,8] [--timeout-secs S]
//! repro serve     [--bench NAME | --scenario-file PATH] [--k K]
//!                 [--port P | --listen HOST:PORT] [--timeout-secs S]
//!                 [--threads T]
//! repro ask       [--port P] [--request JSON]
//! repro fuzz      [--cases N] [--seed S] [--out DIR] [--steps N]
//! repro check     --scenario-file PATH [--steps N] [--timeout-secs S]
//! repro export    --bench NAME [--k K] [--out PATH]
//! repro all
//! ```
//!
//! Benchmarks come from the scenario registry (`timepiece-bench::\
//! ScenarioSpec`): the paper's eight Fig. 14 sweeps plus the post-paper MED,
//! IGP/EGP and link-failure scenarios — all present in `fig14` and `--json`
//! dumps alike. `--scenario-file PATH` compiles a declarative TOML scenario
//! (see `examples/scenarios/`) into the same registry, so file scenarios
//! flow through sweeps, the daemon and `repro check` unchanged; `repro
//! export` prints any registry scenario in that format. Defaults keep the
//! sweeps laptop-sized (k ≤ 12, 60 s budget); raise
//! `--max-k`/`--timeout-secs` to push toward the paper's k = 40 / 2 h runs.
//! The rows of a sweep — `fig1`'s as well as `fig14`'s, so both Tp columns
//! are measured alike — are checked in this process and share one
//! persistent checker pool whose solver sessions carry over from the
//! smaller `k`.
//!
//! `--trace PATH` (fig14, infer) collects spans from every layer —
//! per-node checks, per-VC encode/solve, scheduler claim/steal, CEGIS
//! rounds — and writes a Chrome trace-event JSON loadable in Perfetto or
//! `chrome://tracing`, one track per worker thread. The registry's metrics
//! snapshot rides along under `otherData`. `repro profile` runs sweep rows
//! with tracing on and prints the phase breakdown directly:
//! encode/solve/steal-idle/other shares per row, per-node-class attribution,
//! and the slowest nodes.
//!
//! `repro serve` starts `timepieced` — the verification daemon of
//! `timepiece-daemon`, and the one server there is — warm on one instance
//! (`--bench`/`--scenario-file`) or with nothing loaded, until a client's
//! `load` request installs the instance to check. `repro ask` sends it a
//! single request. Load on the daemon is tpbench's job (`bash
//! benchmark/run.sh --workload serve-edits`).
//!
//! A mistyped command line prints the usage and exits 2; a run that was
//! started and failed prints its one `error:` line and exits 1. A reader
//! that closes stdout early (`repro fig13 | head -1`) ends the run quietly
//! with exit 0.

use std::time::Duration;

use timepiece_bench::{
    fattree_instance, load_instance, loc, run_row, BenchKind, Row, SweepOptions,
};
use timepiece_core::check::{CheckOptions, ModularChecker};
use timepiece_core::monolithic::check_monolithic;
use timepiece_core::strawperson::check_strawperson;
use timepiece_core::sweep::CheckerPool;
use timepiece_daemon::{serve, spawn_sigterm_watcher, Client, DaemonState, Request};
use timepiece_expr::Env;
use timepiece_nets::example::{RunningExample, EXTERNAL_ROUTE_VAR};
use timepiece_nets::ghost;
use timepiece_nets::wan::WanBench;
use timepiece_topology::FatTree;

/// Writes one piece of the report to stdout. Rust ignores SIGPIPE, so a
/// reader that has gone away (`repro fig13 | head -1`) shows up here as a
/// `BrokenPipe` error, on which the standard `println!` panics: the output
/// is no longer wanted, so the run ends quietly with exit 0. Any other
/// write failure is the run's one `error:` line and exit 1.
fn emit(text: std::fmt::Arguments) {
    use std::io::Write as _;
    match std::io::stdout().lock().write_fmt(text) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: writing to stdout: {e}");
            std::process::exit(1);
        }
    }
}

// This binary's `print!` and `println!` shadow the standard ones: the same
// formatting, written through [`emit`].
macro_rules! print {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// What a subcommand runs. `Err` is the failure of a run that was started
/// (exit 1); a command line the subcommand cannot accept goes to
/// [`usage_error`] before anything starts.
type Command = fn(&Args) -> Result<(), String>;

/// The subcommand table: name, help text, and what runs. Like [`FLAGS`],
/// the table *is* the dispatcher and the usage text — adding a subcommand
/// is adding one entry.
static COMMANDS: &[(&str, &str, Command)] = &[
    ("fig1", "modular vs monolithic sweep on SpHijack", fig1),
    ("fig3", "running example simulation table", fig3),
    ("fig13", "example 4-fattree with Vf down-edge tagging", fig13),
    ("fig14", "the eight fattree benchmark sweeps (or a --scenario-file)", fig14),
    ("table1", "ghost-state property encodings", table1),
    ("table2", "lines of code per benchmark definition", table2),
    ("table3", "eBGP route fields modelled in SMT", table3),
    ("wan", "BlockToExternal on the synthetic Internet2", wan),
    ("keyideas", "the Figs. 4-10 demonstrations", keyideas),
    ("infer", "infer interfaces from simulation, verify, compare to hand-written", infer),
    ("profile", "phase-attributed breakdown per sweep row (encode/solve/steal-idle)", profile_cmd),
    ("serve", "start timepieced: warm on one instance, or empty until a load", serve_cmd),
    ("ask", "send one NDJSON request to a running timepieced and print the reply", ask_cmd),
    ("fuzz", "differential-fuzz the three policy evaluators, shrink failures", fuzz_cmd),
    ("check", "replay one --scenario-file through every evaluator and the checker", check_cmd),
    ("export", "print a registry scenario as a scenario file (edit and recompile)", export_cmd),
    ("all", "fig3 fig13 keyideas table1 table2 table3 fig1 fig14 wan, in that order", all),
];

struct Args {
    max_k: Option<usize>,
    ks: Option<Vec<usize>>,
    timeout: Duration,
    threads: Option<usize>,
    bench: String,
    run_ms: bool,
    use_roles: bool,
    peers: usize,
    listen: Option<String>,
    json: Option<String>,
    trace: Option<String>,
    k: Option<usize>,
    port: Option<u16>,
    request: Option<String>,
    scenario_file: Option<String>,
    cases: u32,
    seed: u64,
    out: Option<String>,
    steps: usize,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            max_k: None,
            ks: None,
            timeout: Duration::from_secs(60),
            threads: None,
            bench: "all".to_owned(),
            run_ms: true,
            use_roles: true,
            peers: 253,
            listen: None,
            json: None,
            trace: None,
            k: None,
            port: None,
            request: None,
            scenario_file: None,
            cases: 100,
            seed: 0,
            out: None,
            steps: 32,
        }
    }
}

/// Parses `raw` as `T`, naming the flag and expected shape on failure.
fn typed<T: std::str::FromStr>(flag: &str, raw: &str, what: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("{flag}: cannot parse {raw:?} as {what}"))
}

/// One entry of the declarative flag table: name, metavar (empty for bare
/// switches), help text, and a typed setter. The table *is* the parser and
/// the usage text — adding a flag is adding one entry.
struct FlagSpec {
    name: &'static str,
    metavar: &'static str,
    help: &'static str,
    set: fn(&mut Args, &str, &str) -> Result<(), String>,
}

static FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--max-k",
        metavar: "N",
        help: "largest fattree parameter to sweep, >= 4 (default 12; infer: 8)",
        set: |a, f, v| {
            let k: usize = typed(f, v, "integer k")?;
            if k < 4 {
                return Err(format!("{f}: the sweep grid starts at k = 4, got {k}"));
            }
            a.max_k = Some(k);
            Ok(())
        },
    },
    FlagSpec {
        name: "--ks",
        metavar: "A,B,C",
        help: "sweep exactly these fattree parameters (overrides --max-k)",
        set: |a, f, v| {
            let ks = v
                .split(',')
                .map(|part| typed::<usize>(f, part.trim(), "an integer k"))
                .collect::<Result<Vec<_>, _>>()?;
            if ks.is_empty() {
                return Err(format!("{f} requires at least one k"));
            }
            if let Some(bad) = ks.iter().find(|&&k| k < 2 || k % 2 != 0) {
                return Err(format!("{f}: fattree parameter k must be even and >= 2, got {bad}"));
            }
            a.ks = Some(ks);
            Ok(())
        },
    },
    FlagSpec {
        name: "--timeout-secs",
        metavar: "S",
        help: "per-engine solver budget in seconds (default 60)",
        set: |a, f, v| typed(f, v, "seconds").map(|s| a.timeout = Duration::from_secs(s)),
    },
    FlagSpec {
        name: "--threads",
        metavar: "T",
        help: "worker threads for the modular checker (default: all cores)",
        set: |a, f, v| typed(f, v, "thread count").map(|t| a.threads = Some(t)),
    },
    FlagSpec {
        name: "--bench",
        metavar: "NAME",
        help: "restrict fig14 to matching benchmarks / infer to reach|len\n(export: which scenario to print)",
        set: |a, _, v| {
            a.bench = v.to_owned();
            Ok(())
        },
    },
    FlagSpec {
        name: "--scenario-file",
        metavar: "PATH",
        help: "compile PATH and register it as a scenario (fig14, serve,\ncheck); fig14 then sweeps it unless --bench widens",
        set: |a, _, v| {
            a.scenario_file = Some(v.to_owned());
            Ok(())
        },
    },
    FlagSpec {
        name: "--no-ms",
        metavar: "",
        help: "skip the monolithic baseline in sweeps",
        set: |a, _, _| {
            a.run_ms = false;
            Ok(())
        },
    },
    FlagSpec {
        name: "--no-roles",
        metavar: "",
        help: "infer without fattree role generalization",
        set: |a, _, _| {
            a.use_roles = false;
            Ok(())
        },
    },
    FlagSpec {
        name: "--peers",
        metavar: "N",
        help: "external peer count for the wan subcommand (default 253)",
        set: |a, f, v| typed(f, v, "peer count").map(|n| a.peers = n),
    },
    FlagSpec {
        name: "--listen",
        metavar: "ADDR",
        help: "(serve) TCP address to bind, any interface and port 0\nincluded, instead of 127.0.0.1 --port",
        set: |a, _, v| {
            a.listen = Some(v.to_owned());
            Ok(())
        },
    },
    FlagSpec {
        name: "--json",
        metavar: "PATH",
        help: "also write fig14 rows as machine-readable JSON to PATH",
        set: |a, _, v| {
            a.json = Some(v.to_owned());
            Ok(())
        },
    },
    FlagSpec {
        name: "--trace",
        metavar: "PATH",
        help: "write a Chrome trace-event JSON of the run (fig14, infer)",
        set: |a, _, v| {
            a.trace = Some(v.to_owned());
            Ok(())
        },
    },
    FlagSpec {
        name: "--k",
        metavar: "K",
        help: "(serve, export) fattree parameter of the instance",
        set: |a, f, v| typed(f, v, "integer k").map(|k| a.k = Some(k)),
    },
    FlagSpec {
        name: "--port",
        metavar: "P",
        help: "(serve, ask) daemon TCP port on 127.0.0.1 (default 7171)",
        set: |a, f, v| typed(f, v, "TCP port").map(|p| a.port = Some(p)),
    },
    FlagSpec {
        name: "--request",
        metavar: "JSON",
        help: "(ask) raw request frame to send (default: status)",
        set: |a, _, v| {
            a.request = Some(v.to_owned());
            Ok(())
        },
    },
    FlagSpec {
        name: "--cases",
        metavar: "N",
        help: "(fuzz) random cases to run (default 100)",
        set: |a, f, v| typed(f, v, "case count").map(|c| a.cases = c),
    },
    FlagSpec {
        name: "--seed",
        metavar: "S",
        help: "(fuzz) RNG seed; the same seed replays the same cases",
        set: |a, f, v| typed(f, v, "integer seed").map(|s| a.seed = s),
    },
    FlagSpec {
        name: "--out",
        metavar: "PATH",
        help: "(fuzz) directory for minimal failing scenarios (default .)\n(export) file to write instead of stdout",
        set: |a, _, v| {
            a.out = Some(v.to_owned());
            Ok(())
        },
    },
    FlagSpec {
        name: "--steps",
        metavar: "N",
        help: "(check, fuzz) simulation step bound (default 32)",
        set: |a, f, v| typed(f, v, "step count").map(|s| a.steps = s),
    },
];

/// The usage text, generated from [`COMMANDS`] and [`FLAGS`] so that it
/// cannot drift from what is dispatched and parsed.
fn usage() -> String {
    let mut out = String::from("usage: repro <subcommand> [flags]\n\nsubcommands:\n");
    for (name, help, _) in COMMANDS {
        out.push_str(&format!("  {name:<12} {help}\n"));
    }
    out.push_str("\nflags:\n");
    for flag in FLAGS {
        let lhs = if flag.metavar.is_empty() {
            flag.name.to_owned()
        } else {
            format!("{} {}", flag.name, flag.metavar)
        };
        for (i, line) in flag.help.lines().enumerate() {
            if i == 0 {
                out.push_str(&format!("  {lhs:<18} {line}\n"));
            } else {
                out.push_str(&format!("  {:<18} {line}\n", ""));
            }
        }
    }
    out.pop();
    out
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let spec = FLAGS
            .iter()
            .find(|s| s.name == flag.as_str())
            .ok_or_else(|| format!("unknown flag {flag:?}"))?;
        if spec.metavar.is_empty() {
            (spec.set)(&mut args, spec.name, "")?;
        } else {
            let value = it
                .next()
                .ok_or_else(|| format!("{} requires a value ({})", spec.name, spec.metavar))?;
            (spec.set)(&mut args, spec.name, value)?;
        }
    }
    Ok(args)
}

impl Args {
    fn max_k(&self) -> usize {
        self.max_k.unwrap_or(12)
    }
}

fn ks(args: &Args) -> Vec<usize> {
    match &args.ks {
        Some(ks) => ks.clone(),
        None => (4..=args.max_k()).step_by(4).collect(),
    }
}

/// The sweep options the flags ask for, with the baseline on or off.
fn sweep_options(args: &Args, run_monolithic: bool) -> SweepOptions {
    SweepOptions { timeout: args.timeout, run_monolithic, threads: args.threads }
}

/// One persistent checker pool for a whole sweep: rows of every size reuse
/// its solver sessions.
fn sweep_pool(args: &Args) -> CheckerPool {
    CheckerPool::with_default_parallelism(sweep_options(args, false).check_options())
}

fn sweep(kind: BenchKind, args: &Args) -> Vec<Row> {
    println!("\n=== Fig. {} — {} (Tp vs Ms) ===", kind.figure(), kind.name());
    println!(
        "{:>4} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "k", "nodes", "Tp total", "Tp median", "Tp p99", "Ms"
    );
    let options = sweep_options(args, args.run_ms);
    // the persistent pool carries solver sessions across rows
    let mut pool = sweep_pool(args);
    // compiled (file) scenarios have one fixed topology: one row at their
    // native size, whatever the requested grid
    let row_ks = match kind.native_k() {
        Some(native) => vec![native],
        None => ks(args),
    };
    let mut rows = Vec::new();
    for k in row_ks {
        let row = run_row(kind, k, &options, &mut pool);
        println!(
            "{:>4} {:>6} {:>12} {:>12} {:>12} {:>12}",
            row.k,
            row.nodes,
            row.tp.display(),
            format!("{:.3}s", row.tp_median.as_secs_f64()),
            format!("{:.3}s", row.tp_p99.as_secs_f64()),
            row.ms.as_ref().map_or("-".to_owned(), |m| m.display()),
        );
        rows.push(row);
    }
    rows
}

/// One fig14 row in its machine-readable form.
fn row_json(kind: BenchKind, row: &Row) -> timepiece_sched::Json {
    use timepiece_sched::Json;
    let engine = |result: &timepiece_bench::EngineResult| {
        Json::obj([
            ("outcome", Json::str(result.outcome())),
            ("wall_secs", Json::Num(result.wall().as_secs_f64())),
        ])
    };
    let mut tp = engine(&row.tp);
    if let Json::Obj(pairs) = &mut tp {
        pairs.push(("median_secs".to_owned(), Json::Num(row.tp_median.as_secs_f64())));
        pairs.push(("p99_secs".to_owned(), Json::Num(row.tp_p99.as_secs_f64())));
    }
    // the term-arena delta for this row: dedup_ratio is constructions per
    // distinct *new* term, hit_rate the share served by existing nodes
    let arena = Json::obj([
        ("new_terms", Json::from(row.arena.terms as usize)),
        ("hits", Json::from(row.arena.hits as usize)),
        ("misses", Json::from(row.arena.misses as usize)),
        ("bytes", Json::from(row.arena.bytes as usize)),
        ("hit_rate", Json::Num(row.arena.hit_rate())),
        ("dedup_ratio", Json::Num(row.arena.dedup_ratio())),
    ]);
    // the modular engine's compiled-term cache (summed over the pool's
    // workers); a pool that already checked a structurally identical row
    // carries its hits over
    let terms = Json::obj([
        ("hits", Json::from(row.terms.hits as usize)),
        ("misses", Json::from(row.terms.misses as usize)),
        ("hit_rate", Json::Num(row.terms.hit_rate())),
    ]);
    // how the row's nodes got their verdicts: one proof per distinct key,
    // every other node a memo hit
    let memo =
        Json::obj([("proofs", Json::from(row.memo.proofs)), ("hits", Json::from(row.memo.hits))]);
    Json::obj([
        ("bench", Json::str(kind.name())),
        ("figure", Json::str(kind.figure())),
        ("k", Json::from(row.k)),
        ("nodes", Json::from(row.nodes)),
        ("tp", tp),
        ("ms", row.ms.as_ref().map_or(Json::Null, engine)),
        ("arena", arena),
        ("term_cache", terms),
        ("memo", memo),
    ])
}

fn fig1(args: &Args) -> Result<(), String> {
    // Fig. 1: connectivity with external route announcements — the Hijack
    // policy is the evaluation's benchmark with exactly that shape.
    println!("=== Fig. 1 — modular vs monolithic verification time ===");
    println!("(SpHijack: fattree connectivity with symbolic external announcements)");
    sweep(BenchKind::parse("SpHijack").expect("registered"), args);
    Ok(())
}

fn fig3(_: &Args) -> Result<(), String> {
    println!("=== Fig. 3 — running example simulation ===");
    let ex = RunningExample::new();
    let mut env = Env::new();
    env.bind(EXTERNAL_ROUTE_VAR, ex.no_route());
    let trace = timepiece_sim::simulate(&ex.network, &env, 16).expect("simulates");
    print!("{:>4}", "time");
    for v in ex.network.topology().nodes() {
        print!(" {:>28}", ex.network.topology().name(v));
    }
    println!();
    for t in 0..=4 {
        print!("{t:>4}");
        for v in ex.network.topology().nodes() {
            print!(" {:>28}", trace.state(v, t).to_string());
        }
        println!();
    }
    println!("paper: stabilizes at time 3; measured: converged at t = {:?}", trace.converged_at());
    Ok(())
}

fn fig13(_: &Args) -> Result<(), String> {
    println!("=== Fig. 13 — example 4-fattree with Vf down-edge tagging ===");
    let ft = FatTree::new(4);
    for v in ft.topology().nodes() {
        let succs: Vec<String> = ft
            .topology()
            .succs(v)
            .iter()
            .map(|&u| {
                let marker = if ft.is_down_edge(v, u) { "↓" } else { "↑" };
                format!("{}{marker}", ft.topology().name(u))
            })
            .collect();
        println!("  {:>9} -> {}", ft.topology().name(v), succs.join(", "));
    }
    println!(
        "(nodes: {} = 1.25k², directed edges: {} = k³; ↓ edges add the `down` community)",
        ft.topology().node_count(),
        ft.topology().edge_count()
    );
    Ok(())
}

fn table1(_: &Args) -> Result<(), String> {
    println!("=== Table 1 — ghost-state property encodings ===");
    let check = |inst: &timepiece_nets::BenchInstance| {
        ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &inst.interface, &inst.property)
            .expect("encodes")
            .is_verified()
    };
    let rows: [(&str, &str, bool, bool); 4] = [
        (
            "isolation",
            "1 bit per isolation domain",
            check(&ghost::isolation(true)),
            !check(&ghost::isolation(false)),
        ),
        (
            "unordered waypoint",
            "k bits for k waypoints",
            check(&ghost::unordered_waypoints(false)),
            !check(&ghost::unordered_waypoints(true)),
        ),
        (
            "no-transit",
            "mark with {peer, prov, cust}",
            check(&ghost::no_transit(false)),
            !check(&ghost::no_transit(true)),
        ),
        (
            "fault tolerance",
            "1 symbolic bit per tracked edge",
            check(&ghost::fault_tolerance(false)),
            !check(&ghost::fault_tolerance(true)),
        ),
    ];
    println!("{:<20} {:<34} {:>9} {:>12}", "property", "ghost state", "verified", "bug caught");
    for (name, state, ok, caught) in rows {
        println!("{name:<20} {state:<34} {ok:>9} {caught:>12}");
    }
    println!("(reachability-origin bit: see `repro keyideas` Fig. 10; bounded length: Fig. 14b)");
    Ok(())
}

fn table2(_: &Args) -> Result<(), String> {
    println!("=== Table 2 — lines of code per benchmark definition ===");
    println!(
        "{:<18} {:>12} {:>14} {:>13}   (paper C# values in parentheses)",
        "benchmark", "network LoC", "interface LoC", "property LoC"
    );
    for (row, (pname, pn, pi, pp)) in loc::table2().iter().zip(loc::PAPER_TABLE2) {
        assert_eq!(row.benchmark, pname);
        println!(
            "{:<18} {:>8} ({pn:>3}) {:>9} ({pi:>3}) {:>8} ({pp:>3})",
            row.benchmark, row.network, row.interface, row.property
        );
    }
    Ok(())
}

fn table3(_: &Args) -> Result<(), String> {
    println!("=== Table 3 — eBGP route fields modelled in SMT ===");
    let schema = timepiece_nets::bgp::BgpSchema::new(["down"], ["tag"]);
    println!("{:<28} {:<24}", "route field", "modelled type in SMT");
    for (name, ty) in schema.record_def().fields() {
        let smt_ty = match ty {
            timepiece_expr::Type::BitVec(w) => format!("bitvector({w})"),
            timepiece_expr::Type::Int => "integer".to_owned(),
            timepiece_expr::Type::Enum(d) => format!("enum {{{}}}", d.variants().join(", ")),
            timepiece_expr::Type::Set(d) => {
                format!("set over {} tags (bitvector)", d.universe().len())
            }
            timepiece_expr::Type::Bool => "boolean (ghost)".to_owned(),
            other => other.to_string(),
        };
        println!("{name:<28} {smt_ty:<24}");
    }
    Ok(())
}

fn wan(args: &Args) -> Result<(), String> {
    println!("=== §6 WAN — BlockToExternal on synthetic Internet2 ===");
    let bench = WanBench::with_peers(7, args.peers);
    let inst = bench.build();
    println!(
        "{} internal + {} peers, ~{} policy terms",
        bench.wan().internal_nodes().count(),
        bench.wan().external_nodes().count(),
        bench.policy_term_count()
    );
    let checker = ModularChecker::new(CheckOptions {
        timeout: Some(args.timeout),
        threads: args.threads,
        ..CheckOptions::default()
    });
    let report = checker.check(&inst.network, &inst.interface, &inst.property).expect("encodes");
    let stats = report.stats();
    println!(
        "modular:    verified = {} wall = {:.2}s median = {:.3}s p99 = {:.3}s",
        report.is_verified(),
        report.wall().as_secs_f64(),
        stats.median.as_secs_f64(),
        stats.p99.as_secs_f64(),
    );
    println!("            (paper: 38.3 s total, 0.6 s median, 4.2 s p99 on a 6-core laptop)");
    let mono =
        check_monolithic(&inst.network, &inst.property, Some(args.timeout)).expect("encodes");
    println!(
        "monolithic: outcome = {} wall = {:.2}s   (paper: no result within 2 h)",
        if mono.outcome.is_verified() { "verified" } else { "timeout/failed" },
        mono.wall.as_secs_f64(),
    );
    Ok(())
}

fn keyideas(_: &Args) -> Result<(), String> {
    println!("=== §2 key ideas — Figs. 4–10 on the running example ===");
    let ex = RunningExample::new();
    let checker = ModularChecker::new(CheckOptions::default());
    let verify = |a: &timepiece_core::NodeAnnotations, p: &timepiece_core::NodeAnnotations| {
        checker.check(&ex.network, a, p).expect("encodes").is_verified()
    };
    println!(
        "Fig. 7  tagging interfaces verify 'e's routes are tagged':        {}",
        verify(&ex.tagging_interfaces(), &ex.tagging_property())
    );
    println!(
        "Fig. 8  timed interfaces verify 'e eventually reaches w':        {}",
        verify(&ex.reachability_interfaces(), &ex.reachability_property())
    );
    let bad = ex.bad_interfaces(false);
    println!(
        "Fig. 4/9 bad interfaces accepted by unsound strawperson (SV):     {}",
        check_strawperson(&ex.network, &bad).expect("encodes").is_empty()
    );
    println!(
        "Fig. 9  bad interfaces rejected by Timepiece (initial cond.):     {}",
        !verify(&bad, &ex.tagging_property())
    );
    println!(
        "Fig. 9  patched (∨ s=∞) still rejected (inductive cond.):        {}",
        !verify(&ex.bad_interfaces(true), &ex.tagging_property())
    );
    println!(
        "Fig. 10 ghost interfaces verify 'e's route originated at w':      {}",
        verify(&ex.ghost_interfaces(), &ex.ghost_property())
    );
    Ok(())
}

/// The scenarios a `--bench` spec selects (all of them for `all`); a spec
/// that selects none is a usage error.
fn select_kinds(bench: &str) -> Vec<BenchKind> {
    if bench.eq_ignore_ascii_case("all") {
        return BenchKind::all().collect();
    }
    let spec = bench.to_lowercase();
    let kinds: Vec<BenchKind> =
        BenchKind::all().filter(|k| k.name().to_lowercase().contains(&spec)).collect();
    if kinds.is_empty() {
        usage_error(&unknown_bench(bench));
    }
    kinds
}

/// Drains the collected spans and writes them as a Chrome trace-event JSON
/// (one track per worker thread), with the metrics
/// registry's snapshot attached under `otherData`.
fn write_trace(path: &str) -> Result<(), String> {
    use timepiece_sched::Json;
    let trace = timepiece_trace::take();
    let spans = trace.spans.len();
    let mut doc = timepiece_trace::chrome_trace(&trace);
    if let Json::Obj(pairs) = &mut doc {
        pairs.push(("otherData".to_owned(), timepiece_trace::metrics_json()));
    }
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote {path} ({spans} spans)");
    Ok(())
}

fn fig14(args: &Args) -> Result<(), String> {
    let file_kind = load_scenario_file(args)?;
    let kinds = match file_kind {
        // a file scenario with an unrestricted --bench means "sweep the
        // file"; an explicit --bench can still widen or re-select
        Some(kind) if args.bench == "all" => vec![kind],
        _ => select_kinds(&args.bench),
    };
    if args.trace.is_some() {
        timepiece_trace::enable();
    }
    let mut rows = Vec::new();
    for kind in kinds {
        rows.extend(sweep(kind, args).iter().map(|row| row_json(kind, row)));
    }
    if let Some(path) = &args.json {
        use timepiece_sched::Json;
        let doc = Json::obj([
            ("timeout_secs", Json::Num(args.timeout.as_secs_f64())),
            ("rows", Json::Arr(rows)),
        ]);
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = &args.trace {
        write_trace(path)?;
    }
    Ok(())
}

/// The `repro profile` subcommand: run sweep rows with tracing on and print
/// the phase-attributed breakdown — self-time shares per phase, per-class
/// rollups, and slowest-node attribution — instead of writing a trace file.
fn profile_cmd(args: &Args) -> Result<(), String> {
    use timepiece_trace::{Phase, Profile};
    let kinds = select_kinds(&args.bench);
    timepiece_trace::enable();
    println!("=== repro profile — phase-attributed breakdown per sweep row ===");
    println!("(phase columns are self-time shares of the traced work; `intern` is the");
    println!(" arena counter — it overlaps encode, so it reports beside the shares, not");
    println!(" inside them; `other` folds node bookkeeping, rounds and simulation)");
    let options = sweep_options(args, false);
    let mut pool = sweep_pool(args);
    for kind in kinds {
        println!("\n--- {} ---", kind.name());
        println!(
            "{:>4} {:>6} {:>9} {:>8} {:>8} {:>11} {:>8} {:>9}",
            "k", "nodes", "wall", "encode", "solve", "steal-idle", "other", "intern"
        );
        for k in ks(args) {
            let intern_before = timepiece_trace::metrics::counter_value("expr.arena.intern_ns");
            // drop spans left over from the previous row so each profile
            // covers exactly one row's work
            let _ = timepiece_trace::take();
            let row = run_row(kind, k, &options, &mut pool);
            let trace = timepiece_trace::take();
            let intern_ns = timepiece_trace::metrics::counter_value("expr.arena.intern_ns")
                .saturating_sub(intern_before);
            let profile = Profile::from_trace(&trace, intern_ns);
            let accounted = profile.accounted_ns().max(1);
            let pct = |ns: u64| format!("{:.1}%", 100.0 * ns as f64 / accounted as f64);
            let other = profile.phase_ns(Phase::Other)
                + profile.phase_ns(Phase::Round)
                + profile.phase_ns(Phase::Sim);
            println!(
                "{:>4} {:>6} {:>9} {:>8} {:>8} {:>11} {:>8} {:>9}",
                row.k,
                row.nodes,
                format!("{:.2}s", row.tp.wall().as_secs_f64()),
                pct(profile.phase_ns(Phase::Encode)),
                pct(profile.phase_ns(Phase::Solve)),
                pct(profile.phase_ns(Phase::Idle)),
                pct(other),
                format!("{:.0}ms", intern_ns as f64 / 1e6),
            );
            for class in &profile.classes {
                println!(
                    "       {:<14} {:>4} nodes   total {:>8}   encode {:>8}   solve {:>8}",
                    if class.class.is_empty() { "(unclassed)" } else { class.class.as_str() },
                    class.nodes,
                    format!("{:.3}s", class.total_ns as f64 / 1e9),
                    format!("{:.3}s", class.encode_ns as f64 / 1e9),
                    format!("{:.3}s", class.solve_ns as f64 / 1e9),
                );
            }
            for node in profile.nodes.iter().take(3) {
                println!(
                    "       slowest: {:<12} class {:<12} total {:>8}  solve {:>8}  {}",
                    node.name,
                    if node.class.is_empty() { "-" } else { node.class.as_str() },
                    format!("{:.3}s", node.total_ns as f64 / 1e9),
                    format!("{:.3}s", node.solve_ns as f64 / 1e9),
                    node.verdict,
                );
            }
        }
    }
    timepiece_trace::disable();
    Ok(())
}

/// An unknown-benchmark error that names what *is* registered — and how to
/// bring a new scenario into the registry.
fn unknown_bench(given: &str) -> String {
    format!(
        "unknown benchmark {given:?}; registered benchmarks: {} \
         (or load a file scenario with --scenario-file PATH)",
        BenchKind::names().join(", ")
    )
}

/// Compiles and registers `--scenario-file` (when given), returning its
/// registry handle. Every subcommand that takes the flag funnels through
/// here, so diagnostics render identically everywhere.
fn load_scenario_file(args: &Args) -> Result<Option<BenchKind>, String> {
    match &args.scenario_file {
        None => Ok(None),
        Some(path) => timepiece_bench::register_scenario_file(path)
            .map(Some)
            .map_err(|e| format!("--scenario-file {path}: {e}")),
    }
}

/// The one benchmark `--bench` names; an unregistered name is a usage
/// error.
fn one_bench(name: &str) -> BenchKind {
    BenchKind::parse(name)
        .unwrap_or_else(|| usage_error(&format!("--bench: {}", unknown_bench(name))))
}

/// The instance `serve` starts warm on: the `--scenario-file` when one is
/// loaded, else the `--bench` that was named — and none at all when neither
/// was.
fn daemon_bench(args: &Args) -> Result<Option<BenchKind>, String> {
    match (load_scenario_file(args)?, args.bench.as_str()) {
        (file, "all") => Ok(file),
        (_, name) => Ok(Some(one_bench(name))),
    }
}

/// The options of a daemon's own checker pool.
fn daemon_options(args: &Args) -> CheckOptions {
    CheckOptions { timeout: Some(args.timeout), threads: args.threads, ..CheckOptions::default() }
}

/// The `repro serve` subcommand: start `timepieced` — warm on one instance,
/// or empty — and serve until `shutdown` or SIGTERM drains it.
fn serve_cmd(args: &Args) -> Result<(), String> {
    let listen = match (&args.listen, args.port) {
        (Some(_), Some(_)) => usage_error("--listen and --port both name the address: give one"),
        (Some(listen), None) => listen.clone(),
        (None, port) => format!("127.0.0.1:{}", port.unwrap_or(7171)),
    };
    let state = match daemon_bench(args)? {
        Some(kind) => {
            let k = kind.native_k().or(args.k).unwrap_or(4);
            eprintln!("compiling {} and running the warm-up check...", kind.label(k));
            DaemonState::new(kind.label(k), fattree_instance(kind, k), daemon_options(args))
                .map_err(|e| format!("warm-up check failed: {e}"))?
        }
        None => DaemonState::empty(daemon_options(args)),
    }
    .with_loader(load_instance);
    let listener =
        std::net::TcpListener::bind(&listen).map_err(|e| format!("binding {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("local address: {e}"))?;
    spawn_sigterm_watcher(state.drain());
    // scripts wait for this line and read the address off its end before
    // connecting
    println!("timepieced listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    serve(listener, state).map_err(|e| format!("serve: {e}"))
}

/// The `repro ask` subcommand: one request to a running daemon, reply on
/// stdout. Without `--request` it sends `status`.
fn ask_cmd(args: &Args) -> Result<(), String> {
    let frame = args.request.as_deref().map(|raw| {
        timepiece_sched::Json::parse(raw)
            .unwrap_or_else(|e| usage_error(&format!("--request: {e}")))
    });
    let port = args.port.unwrap_or(7171);
    let mut client = Client::connect(("127.0.0.1", port))
        .map_err(|e| format!("connecting to 127.0.0.1:{port}: {e}"))?;
    let reply = match &frame {
        Some(frame) => client.request(frame),
        None => client.send(&Request::Status),
    }
    .map_err(|e| format!("request failed: {e}"))?;
    println!("{reply}");
    Ok(())
}

/// One inference run: infer from the instance's network and property, verify, and
/// compare against the hand-written interface of the same benchmark.
fn infer_row(kind: BenchKind, k: usize, args: &Args) {
    use timepiece_infer::{InferOptions, InferenceEngine, RoleMap};

    let name = kind.name();
    let setup = kind.infer_setup(k).expect("caller filtered for inference support");
    let (instance, fattree, dest) = (setup.instance, setup.fattree, setup.dest);
    let roles = if args.use_roles {
        RoleMap::fattree(&fattree, dest)
    } else {
        RoleMap::singleton(fattree.topology())
    };
    // templates are indexed by role; keep the node → role mapping for the
    // quality comparison below
    let node_role = roles.clone();
    let engine = InferenceEngine::new(InferOptions {
        check: CheckOptions {
            timeout: Some(args.timeout),
            threads: args.threads,
            ..CheckOptions::default()
        },
        ..InferOptions::default()
    });
    let result = engine
        .infer(&instance.network, &instance.property, roles, &[Env::new()])
        .expect("benchmark specs simulate and encode");
    let report = &result.report;

    // hand-written comparison: same property, same checker options
    let checker = ModularChecker::new(CheckOptions {
        timeout: Some(args.timeout),
        threads: args.threads,
        ..CheckOptions::default()
    });
    let hand_start = std::time::Instant::now();
    let hand = checker
        .check(&instance.network, &instance.interface, &instance.property)
        .expect("hand-written interfaces encode");
    let hand_wall = hand_start.elapsed();

    // annotation quality: how many nodes got exactly the paper's witness time
    let tau_matches = fattree
        .topology()
        .nodes()
        .filter(|&v| report.role_templates[node_role.role_of(v)].tau == fattree.dist(v, dest))
        .count();
    println!(
        "{:>8} {:>3} {:>6} {:>9} {:>7} {:>8} {:>10} {:>10} {:>10} {:>10}",
        name,
        k,
        fattree.topology().node_count(),
        if report.verified { "yes" } else { "NO" },
        report.rounds,
        report.total_repairs(),
        format!("{:.2}s", report.wall.as_secs_f64()),
        format!("{:.2}s", hand_wall.as_secs_f64()),
        format!("{tau_matches}/{}", fattree.topology().node_count()),
        if hand.is_verified() { "yes" } else { "NO" },
    );
}

fn infer(args: &Args) -> Result<(), String> {
    let spec = args.bench.to_lowercase();
    let benches: Vec<BenchKind> = BenchKind::all()
        .filter(BenchKind::supports_inference)
        .filter(|b| spec == "all" || b.name().to_lowercase().contains(&spec))
        .collect();
    if benches.is_empty() {
        let supported: Vec<&str> =
            BenchKind::all().filter(BenchKind::supports_inference).map(|k| k.name()).collect();
        usage_error(&format!(
            "no inference benchmark matches {spec:?}; scenarios with inference support: {}",
            supported.join(", ")
        ));
    }
    if args.trace.is_some() {
        timepiece_trace::enable();
    }
    println!("=== timepiece-infer — interfaces from simulation, repaired by CEGIS ===");
    println!(
        "(property-only specs; role generalization {}; {} templates per instance)",
        if args.use_roles { "on" } else { "off" },
        if args.use_roles { "6" } else { "1.25k²" },
    );
    println!(
        "{:>8} {:>3} {:>6} {:>9} {:>7} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "bench",
        "k",
        "nodes",
        "verified",
        "rounds",
        "repairs",
        "infer+chk",
        "hand chk",
        "τ match",
        "hand ok"
    );
    // `--ks` overrides the default grid here exactly as it does in sweeps
    // (inference defaults to steps of 2 where fig14 uses 4)
    let ks = args.ks.clone().unwrap_or_else(|| (4..=args.max_k.unwrap_or(8)).step_by(2).collect());
    for kind in benches {
        for &k in &ks {
            infer_row(kind, k, args);
        }
    }
    if let Some(path) = &args.trace {
        write_trace(path)?;
    }
    Ok(())
}

/// The `repro fuzz` subcommand: random scenarios through the three policy
/// evaluators, failures shrunk and written to disk as replayable scenario
/// files. Exits nonzero on any disagreement.
fn fuzz_cmd(args: &Args) -> Result<(), String> {
    let options = timepiece_scenario::FuzzOptions {
        cases: args.cases,
        seed: args.seed,
        sabotage: None,
        out_dir: Some(args.out.clone().unwrap_or_else(|| ".".to_owned())),
        max_steps: args.steps,
        z3_checks: 2,
    };
    println!("=== repro fuzz — differential fuzzing of the policy evaluators ===");
    println!(
        "({} cases, seed {}; fast-path vs interpreted full traces, plus Z3 spot checks",
        options.cases, options.seed
    );
    println!(" equating compiled policy/merge terms with direct execution)");
    let report = timepiece_scenario::run_fuzz(&options);
    if report.clean() {
        println!("all {} cases agree across the three evaluators", report.cases);
        return Ok(());
    }
    for failure in &report.failures {
        println!("case {}: {}", failure.case_index, failure.description);
        if let Some(path) = &failure.path {
            println!("  minimal scenario: {path} (replay: repro check --scenario-file {path})");
        }
    }
    Err(format!(
        "{} of {} cases found evaluator disagreements",
        report.failures.len(),
        report.cases
    ))
}

/// The `repro check` subcommand: compile one scenario file, run the
/// differential evaluator check on its network, then the modular checker on
/// its property. The replay path for `repro fuzz` failures.
fn check_cmd(args: &Args) -> Result<(), String> {
    let path = args
        .scenario_file
        .as_deref()
        .unwrap_or_else(|| usage_error("check requires --scenario-file PATH"));
    let compiled = timepiece_scenario::compile_file(path).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "=== repro check — {} ({} nodes, figure {}) ===",
        compiled.name,
        compiled.network.topology().node_count(),
        compiled.figure
    );
    let env = compiled.closing_env();
    let problems =
        timepiece_scenario::fuzz::diff_network(&compiled.network, &env, args.steps, None, 2);
    for p in &problems {
        println!("discrepancy: {p}");
    }
    if problems.is_empty() {
        println!("evaluators agree on the {}-step trace", args.steps);
    }
    let inst = compiled.instance();
    let checker = ModularChecker::new(CheckOptions {
        timeout: Some(args.timeout),
        threads: args.threads,
        ..CheckOptions::default()
    });
    let report = checker
        .check(&inst.network, &inst.interface, &inst.property)
        .map_err(|e| format!("encoding failed: {e}"))?;
    if report.is_verified() {
        println!("modular verification: verified ({:.2}s)", report.wall().as_secs_f64());
    } else {
        println!("modular verification: FAILED at:");
        for f in report.failures() {
            println!("  {} ({:?})", f.node_name, f.vc);
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!("{} evaluator discrepancies on {path}", problems.len()))
    }
}

/// The `repro export` subcommand: print a registry scenario as a scenario
/// file — the starting point for customizing a benchmark without writing
/// Rust.
fn export_cmd(args: &Args) -> Result<(), String> {
    if args.bench == "all" {
        usage_error(&format!(
            "export needs one --bench NAME; registered benchmarks: {}",
            BenchKind::names().join(", ")
        ));
    }
    let kind = one_bench(&args.bench);
    let k = kind.native_k().or(args.k).unwrap_or(4);
    let inst = fattree_instance(kind, k);
    let text = timepiece_scenario::export_instance(kind.name(), kind.figure(), &inst, k)?;
    match &args.out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// The paper's figures and tables, one after the other.
fn all(args: &Args) -> Result<(), String> {
    let parts: [Command; 9] = [fig3, fig13, keyideas, table1, table2, table3, fig1, fig14, wan];
    parts.iter().try_for_each(|part| part(args))
}

/// A command line that cannot be run: the message, the usage, exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage());
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = argv.split_first().map(|(c, r)| (c.as_str(), r)).unwrap_or(("all", &[]));
    let Some((_, _, run)) = COMMANDS.iter().find(|(name, ..)| *name == cmd) else {
        usage_error(&format!("unknown subcommand {cmd:?}"))
    };
    let args = parse_args(rest).unwrap_or_else(|msg| usage_error(&msg));
    // the command line was good and the run started: its failure is the
    // one line worth reading, not a usage problem
    if let Err(msg) = run(&args) {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}
