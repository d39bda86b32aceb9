//! Regenerates every table and figure of the paper as text output, plus the
//! interface-inference pipeline of `timepiece-infer`.
//!
//! ```text
//! repro fig1      [--max-k N] [--timeout-secs S] [--threads T]
//! repro fig3
//! repro fig13
//! repro fig14     [--bench NAME|all] [--scenario-file PATH]
//!                 [--max-k N | --ks 4,6,8] [--timeout-secs S]
//!                 [--no-ms] [--shards N] [--json PATH] [--trace PATH]
//!                 [--workers HOST:PORT,...] [--plan striped|adaptive]
//!                 [--history DUMP.json,...] [--halt-workers]
//! repro table1
//! repro table2
//! repro table3
//! repro wan       [--peers N] [--timeout-secs S]
//! repro keyideas
//! repro infer     [--bench reach|len|all] [--max-k N] [--no-roles] [--trace PATH]
//! repro arena     [--bench NAME|all] [--max-k N | --ks 4,6,8] [--timeout-secs S]
//! repro profile   [--bench NAME|all] [--max-k N | --ks 4,6,8] [--timeout-secs S]
//! repro trend     DUMP.json [DUMP.json ...]   (oldest first)
//! repro serve     [--bench NAME | --scenario-file PATH] [--k K] [--port P]
//!                 [--timeout-secs S] [--threads T]
//! repro ask       [--port P] [--request JSON]
//! repro soak      [--bench NAME] [--ks 4,6,8] [--clients N] [--deltas M] [--json PATH]
//! repro plan      [--bench NAME] [--k K] [--shards N] [--history DUMP.json,...]
//! repro worker    [--listen HOST:PORT] [--die-after N]
//! repro shard-worker --bench NAME --k K --shard I --shards N
//!                 --nodes a,b,... [--plan-spec JSON]  (replay one shard)
//! repro fuzz      [--cases N] [--seed S] [--out DIR] [--steps N]
//! repro check     --scenario-file PATH [--steps N] [--timeout-secs S]
//! repro export    --bench NAME [--k K] [--out PATH]
//! repro all
//! ```
//!
//! Benchmarks come from the scenario registry (`timepiece-bench::\
//! ScenarioSpec`): the paper's eight Fig. 14 sweeps plus the post-paper MED,
//! IGP/EGP and link-failure scenarios — all present in `fig14`, `--json`
//! dumps and sharding alike. `--scenario-file PATH` compiles a declarative
//! TOML scenario (see `examples/scenarios/`) into the same registry, so file
//! scenarios flow through sweeps, the worker fleet, the daemon and
//! `repro check` unchanged; `repro export` prints any registry scenario in
//! that format. Defaults keep the sweeps laptop-sized (k ≤ 12, 60 s
//! budget); raise `--max-k`/`--timeout-secs` to push toward the paper's
//! k = 40 / 2 h runs. Without sharding, the rows of a sweep — `fig1`'s as
//! well as `fig14`'s, so both Tp columns are measured alike — share one
//! persistent checker pool whose solver sessions carry over from the
//! smaller `k`.
//!
//! With `--shards N` or `--workers host:port,...` the sweep runs on a
//! *fleet*: each row's shards are dispatched over TCP to `repro worker`
//! processes, with heartbeat liveness, dead-worker reassignment and batched
//! cross-worker stealing, and the merged reports must cover every node.
//! `--shards N` alone starts `N` workers on loopback ports for the length
//! of the sweep; `--workers` names workers anywhere, and `--shards` then
//! defaults to 4x the worker count so the steal scheduler has batches to
//! move. Workers keep their solver sessions from row to row. `--plan adaptive`
//! replaces class-striped shard plans with cost-model LPT packing, fit from
//! the accumulated `--json` dumps named by `--history` (uniform costs when
//! no history exists); `repro plan` prints the resulting plan without
//! running anything.
//!
//! `--trace PATH` (fig14, infer) collects spans from every layer —
//! per-node checks, per-VC encode/solve, scheduler claim/steal, CEGIS
//! rounds — and writes a Chrome trace-event JSON loadable in Perfetto or
//! `chrome://tracing`, one track per worker thread (and one `shardI@worker`
//! process per shard when the sweep ran on a fleet). The registry's metrics
//! snapshot rides along under `otherData`. `repro profile` runs sweep rows
//! with tracing on and prints the phase breakdown directly:
//! encode/solve/steal-idle/other shares per row, per-node-class attribution,
//! and the slowest nodes.
//!
//! `repro serve` starts `timepieced` — the verification daemon of
//! `timepiece-daemon` — on one warm instance; `repro ask` sends it a single
//! request; `repro soak` measures it under concurrent delta streams (cold
//! full-check baseline, single-edge probe, then N clients × M randomized
//! deltas) and dumps soak rows that `repro trend` can ingest alongside
//! fig14 dumps.

use std::time::Duration;

use timepiece_bench::{
    fattree_instance, halt_workers, loc, plan_row, run_row, run_row_distributed, run_soak,
    run_worker, trend, BenchKind, DistOptions, LocalFleet, PlanChoice, PlanSpec, Row, ShardRow,
    SoakOptions, SweepOptions, WorkerExit, WorkerOptions,
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

const USAGE_HEAD: &str = "usage: repro <subcommand> [flags]

subcommands:
  fig1       modular vs monolithic sweep on SpHijack
  fig3       running example simulation table
  fig13      example 4-fattree with Vf down-edge tagging
  fig14      the eight fattree benchmark sweeps (or a --scenario-file)
  table1     ghost-state property encodings
  table2     lines of code per benchmark definition
  table3     eBGP route fields modelled in SMT
  wan        BlockToExternal on the synthetic Internet2
  keyideas   the Figs. 4-10 demonstrations
  infer      infer interfaces from simulation, verify, compare to hand-written
  arena      per-row term-arena interning traffic and dedup ratios
  profile    phase-attributed breakdown per sweep row (encode/solve/steal-idle)
  trend      per-benchmark wall-time trajectories over --json dumps
  serve      start timepieced: the verification daemon, warm on one instance
  ask        send one NDJSON request to a running timepieced and print the reply
  soak       concurrent delta streams against one warm daemon (p50/p95, cones)
  plan       print the striped and adaptive shard plans without running anything
  worker     serve shard checks over TCP until a coordinator sends halt
  shard-worker  replay one recorded shard (--nodes), print its JSON report
  fuzz       differential-fuzz the three policy evaluators, shrink failures
  check      replay one --scenario-file through every evaluator and the checker
  export     print a registry scenario as a scenario file (edit and recompile)
  all        everything above (except infer, arena, trend and the daemon)

flags:";

struct Args {
    max_k: Option<usize>,
    ks: Option<Vec<usize>>,
    timeout: Duration,
    threads: Option<usize>,
    bench: String,
    run_ms: bool,
    use_roles: bool,
    peers: usize,
    shards: usize,
    workers: Vec<String>,
    plan: String,
    history: Vec<String>,
    halt_workers: bool,
    listen: Option<String>,
    die_after: Option<usize>,
    nodes: Option<String>,
    plan_spec: Option<String>,
    json: Option<String>,
    trace: Option<String>,
    k: Option<usize>,
    shard: Option<usize>,
    port: u16,
    request: Option<String>,
    clients: usize,
    deltas: usize,
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
            shards: 1,
            workers: Vec::new(),
            plan: "striped".to_owned(),
            history: Vec::new(),
            halt_workers: false,
            listen: None,
            die_after: None,
            nodes: None,
            plan_spec: None,
            json: None,
            trace: None,
            k: None,
            shard: None,
            port: 7171,
            request: None,
            clients: 4,
            deltas: 8,
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
        help: "largest fattree parameter to sweep (default 12; infer: 8)",
        set: |a, f, v| typed(f, v, "integer k").map(|k| a.max_k = Some(k)),
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
        help: "compile PATH and register it as a scenario (fig14, serve,\ncheck, shard-worker); fig14 then sweeps it unless --bench widens",
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
        name: "--shards",
        metavar: "N",
        help: "(fig1, fig14) check every row in N shards on a fleet of N\nloopback `repro worker`s started for the sweep\n(with --workers: shards per row, default 4x worker count;\n plan: shards to plan, default 4)",
        set: |a, f, v| {
            a.shards = typed(f, v, "shard count")?;
            if a.shards == 0 {
                return Err(format!("{f} requires at least one shard"));
            }
            Ok(())
        },
    },
    FlagSpec {
        name: "--workers",
        metavar: "LIST",
        help: "(fig14) dispatch shards over TCP to these comma-separated\n`repro worker` host:port addresses instead of a loopback fleet",
        set: |a, f, v| {
            a.workers =
                v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect();
            if a.workers.is_empty() {
                return Err(format!("{f} requires at least one worker address"));
            }
            Ok(())
        },
    },
    FlagSpec {
        name: "--plan",
        metavar: "P",
        help: "(fig14, plan) shard plan: striped (default) or adaptive",
        set: |a, f, v| {
            if v != "striped" && v != "adaptive" {
                return Err(format!("{f}: expected striped or adaptive, got {v:?}"));
            }
            a.plan = v.to_owned();
            Ok(())
        },
    },
    FlagSpec {
        name: "--history",
        metavar: "LIST",
        help: "(fig14, plan) comma-separated fig14 --json dumps the\nadaptive cost model is fit from (none: uniform costs)",
        set: |a, _, v| {
            a.history =
                v.split(',').map(str::trim).filter(|p| !p.is_empty()).map(String::from).collect();
            Ok(())
        },
    },
    FlagSpec {
        name: "--halt-workers",
        metavar: "",
        help: "(fig14) send halt to every --workers address afterwards",
        set: |a, _, _| {
            a.halt_workers = true;
            Ok(())
        },
    },
    FlagSpec {
        name: "--listen",
        metavar: "ADDR",
        help: "(worker) TCP address to bind (default 127.0.0.1:7272)",
        set: |a, _, v| {
            a.listen = Some(v.to_owned());
            Ok(())
        },
    },
    FlagSpec {
        name: "--die-after",
        metavar: "N",
        help: "(worker) fault injection: silently drop the connection\nafter N check frames and exit nonzero\n(fig14 --shards: arm it in the first loopback worker)",
        set: |a, f, v| typed(f, v, "check count").map(|n| a.die_after = Some(n)),
    },
    FlagSpec {
        name: "--nodes",
        metavar: "LIST",
        help: "(shard-worker) comma-separated node names to check: the\n`assigned` list of the shard report being replayed",
        set: |a, _, v| {
            a.nodes = Some(v.to_owned());
            Ok(())
        },
    },
    FlagSpec {
        name: "--plan-spec",
        metavar: "JSON",
        help: "(shard-worker) plan spec to record in the shard report",
        set: |a, _, v| {
            a.plan_spec = Some(v.to_owned());
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
        help: "(serve, export, shard-worker) fattree parameter of the instance",
        set: |a, f, v| typed(f, v, "integer k").map(|k| a.k = Some(k)),
    },
    FlagSpec {
        name: "--shard",
        metavar: "I",
        help: "(shard-worker) which shard of the plan to check",
        set: |a, f, v| typed(f, v, "shard index").map(|s| a.shard = Some(s)),
    },
    FlagSpec {
        name: "--port",
        metavar: "P",
        help: "(serve, ask) daemon TCP port on 127.0.0.1 (default 7171)",
        set: |a, f, v| typed(f, v, "TCP port").map(|p| a.port = p),
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
        name: "--clients",
        metavar: "N",
        help: "(soak) concurrent client threads (default 4)",
        set: |a, f, v| {
            a.clients = typed(f, v, "client count")?;
            if a.clients == 0 {
                return Err(format!("{f} requires at least one client"));
            }
            Ok(())
        },
    },
    FlagSpec {
        name: "--deltas",
        metavar: "M",
        help: "(soak) deltas each client streams (default 8)",
        set: |a, f, v| typed(f, v, "deltas per client").map(|d| a.deltas = d),
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

/// The usage text: the subcommand table plus a flags section generated from
/// [`FLAGS`], so the two can never drift apart.
fn usage() -> String {
    let mut out = String::from(USAGE_HEAD);
    out.push('\n');
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

/// Reads and parses the `--history` dumps the adaptive cost model fits from,
/// labelled by file stem (matching `repro trend` column headers).
fn load_history(paths: &[String]) -> Result<Vec<(String, Vec<trend::TrendPoint>)>, String> {
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let points = trend::parse_dump(&text).map_err(|e| format!("{path}: {e}"))?;
            let label = std::path::Path::new(path)
                .file_stem()
                .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
            Ok((label, points))
        })
        .collect()
}

/// The shard plan a sweep row uses: striped, or LPT packing over a cost
/// model fit from the `--history` dumps for this benchmark.
fn plan_choice(
    kind: BenchKind,
    args: &Args,
    history: &[(String, Vec<trend::TrendPoint>)],
) -> PlanChoice {
    if args.plan == "adaptive" {
        PlanChoice::Adaptive(trend::fit_cost_model(history, kind.name()))
    } else {
        PlanChoice::Striped
    }
}

/// The per-row shard count: `--shards` when given, else four shards per
/// worker in distributed mode so the steal scheduler has batches to move.
fn effective_shards(args: &Args) -> usize {
    if args.shards <= 1 && !args.workers.is_empty() {
        4 * args.workers.len()
    } else {
        args.shards
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

/// `--shards N` without `--workers`: the sweep's own fleet of `N` loopback
/// workers, started once and serving every row. `None` for an in-process
/// sweep and for one whose `--workers` are already running elsewhere.
fn local_fleet(args: &Args) -> Result<Option<LocalFleet>, String> {
    if args.shards <= 1 || !args.workers.is_empty() {
        return Ok(None);
    }
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    LocalFleet::spawn(&exe, args.shards, args.die_after).map(Some).map_err(|e| e.to_string())
}

fn sweep(
    kind: BenchKind,
    args: &Args,
    history: &[(String, Vec<trend::TrendPoint>)],
    fleet: Option<&LocalFleet>,
) -> Result<Vec<Row>, String> {
    println!("\n=== Fig. {} — {} (Tp vs Ms) ===", kind.figure(), kind.name());
    println!(
        "{:>4} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "k", "nodes", "Tp total", "Tp median", "Tp p99", "Ms"
    );
    let mut options = sweep_options(args, args.run_ms);
    let workers: &[String] = match fleet {
        Some(fleet) => {
            // an explicit --threads means threads per worker; otherwise the
            // machine's parallelism is divided across the fleet — N workers
            // each defaulting to all cores would oversubscribe the CPU N-fold
            // and measure contention instead of sharding
            options.threads.get_or_insert_with(|| {
                let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
                (cores / fleet.addrs().len()).max(1)
            });
            fleet.addrs()
        }
        None => &args.workers,
    };
    // fleet rows are checked elsewhere: they start no pool
    let mut pool = None;
    let mut rows = Vec::new();
    // compiled (file) scenarios have one fixed topology: one row at their
    // native size, whatever the requested grid
    let row_ks = match kind.native_k() {
        Some(native) => vec![native],
        None => ks(args),
    };
    for k in row_ks {
        let row = if workers.is_empty() {
            // the persistent pool carries solver sessions across rows
            run_row(kind, k, &options, pool.get_or_insert_with(|| sweep_pool(args)))
        } else {
            run_row_distributed(
                kind,
                k,
                &options,
                effective_shards(args),
                workers,
                &plan_choice(kind, args, history),
                &DistOptions::default(),
            )
            .map_err(|e| format!("{} k={k}: {e}", kind.name()))?
        };
        println!(
            "{:>4} {:>6} {:>12} {:>12} {:>12} {:>12}",
            row.k,
            row.nodes,
            row.tp.display(),
            format!("{:.3}s", row.tp_median.as_secs_f64()),
            format!("{:.3}s", row.tp_p99.as_secs_f64()),
            row.ms.as_ref().map_or("-".to_owned(), |m| m.display()),
        );
        if let Some(balance) = &row.balance {
            println!(
                "     [{} plan] shard imbalance {:.2} (max/mean wall), steal batches {}, \
                 stolen shards {}, reassigned {}",
                balance.plan,
                balance.imbalance(),
                balance.steal_batches,
                balance.stolen_shards,
                balance.reassigned,
            );
        }
        rows.push(row);
    }
    Ok(rows)
}

/// One fig14 row in its machine-readable form.
fn row_json(kind: BenchKind, row: &Row, shards: usize) -> timepiece_sched::Json {
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
        pairs.push(("shards".to_owned(), Json::from(shards)));
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
    // the modular engine's compiled-term cache; pooled sweeps carry hits
    // over from structurally identical earlier rows
    let terms = row.terms.map_or(Json::Null, |t| {
        Json::obj([
            ("hits", Json::from(t.hits as usize)),
            ("misses", Json::from(t.misses as usize)),
            ("hit_rate", Json::Num(t.hit_rate())),
        ])
    });
    // per-class wall-time rollups: the samples `repro trend` fits adaptive
    // cost models from
    let classes = Json::Arr(
        row.classes
            .iter()
            .map(|c| {
                Json::obj([
                    ("class", Json::str(c.class.as_str())),
                    ("nodes", Json::from(c.nodes)),
                    ("total_secs", Json::Num(c.total_secs)),
                ])
            })
            .collect(),
    );
    // shard balance for sharded/distributed rows: per-shard wall times, the
    // max/mean ratio, and the steal/reassignment counters
    let balance = row.balance.as_ref().map_or(Json::Null, |b| {
        Json::obj([
            ("plan", Json::str(b.plan.as_str())),
            ("shard_secs", Json::Arr(b.shard_secs.iter().map(|&s| Json::Num(s)).collect())),
            ("imbalance", Json::Num(b.imbalance())),
            ("steal_batches", Json::from(b.steal_batches)),
            ("stolen_shards", Json::from(b.stolen_shards)),
            ("reassigned", Json::from(b.reassigned)),
        ])
    });
    Json::obj([
        ("bench", Json::str(kind.name())),
        ("figure", Json::str(kind.figure())),
        ("k", Json::from(row.k)),
        ("nodes", Json::from(row.nodes)),
        ("tp", tp),
        ("ms", row.ms.as_ref().map_or(Json::Null, engine)),
        ("arena", arena),
        ("term_cache", terms),
        ("classes", classes),
        ("balance", balance),
    ])
}

fn fig1(args: &Args) -> Result<(), String> {
    // Fig. 1: connectivity with external route announcements — the Hijack
    // policy is the evaluation's benchmark with exactly that shape.
    println!("=== Fig. 1 — modular vs monolithic verification time ===");
    println!("(SpHijack: fattree connectivity with symbolic external announcements)");
    let history = load_history(&args.history)?;
    let fleet = local_fleet(args)?;
    sweep(BenchKind::parse("SpHijack").expect("registered"), args, &history, fleet.as_ref())?;
    if let Some(fleet) = fleet {
        fleet.halt();
    }
    Ok(())
}

fn fig3() {
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
}

fn fig13() {
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
}

fn table1() {
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
}

fn table2() {
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
}

fn table3() {
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
}

fn wan(args: &Args) {
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
}

fn keyideas() {
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
}

/// The scenarios a `--bench` spec selects (all of them for `all`).
fn select_kinds(bench: &str) -> Result<Vec<BenchKind>, String> {
    if bench.eq_ignore_ascii_case("all") {
        return Ok(BenchKind::all().collect());
    }
    let spec = bench.to_lowercase();
    let kinds: Vec<BenchKind> =
        BenchKind::all().filter(|k| k.name().to_lowercase().contains(&spec)).collect();
    if kinds.is_empty() {
        return Err(unknown_bench(bench));
    }
    Ok(kinds)
}

/// Drains the collected spans and writes them as a Chrome trace-event JSON
/// (one track per worker thread / shard process), with the metrics
/// registry's snapshot attached under `otherData`.
fn write_trace(path: &str) {
    use timepiece_sched::Json;
    let trace = timepiece_trace::take();
    let spans = trace.spans.len();
    let mut doc = timepiece_trace::chrome_trace(&trace);
    if let Json::Obj(pairs) = &mut doc {
        pairs.push(("otherData".to_owned(), timepiece_trace::metrics_json()));
    }
    std::fs::write(path, format!("{doc}\n")).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {path} ({spans} spans)");
}

fn fig14(args: &Args) -> Result<(), String> {
    let file_kind = load_scenario_file(args)?;
    let kinds = match file_kind {
        // a file scenario with an unrestricted --bench means "sweep the
        // file"; an explicit --bench can still widen or re-select
        Some(kind) if args.bench == "all" => vec![kind],
        _ => select_kinds(&args.bench)?,
    };
    let history = load_history(&args.history)?;
    if args.trace.is_some() {
        timepiece_trace::enable();
    }
    let shards = effective_shards(args);
    let fleet = local_fleet(args)?;
    let mut rows = Vec::new();
    for kind in kinds {
        for row in sweep(kind, args, &history, fleet.as_ref())? {
            rows.push(row_json(kind, &row, shards));
        }
    }
    if let Some(fleet) = fleet {
        fleet.halt();
    }
    if let Some(path) = &args.json {
        use timepiece_sched::Json;
        let doc = Json::obj([
            ("timeout_secs", Json::Num(args.timeout.as_secs_f64())),
            ("shards", Json::from(shards)),
            ("rows", Json::Arr(rows)),
        ]);
        std::fs::write(path, format!("{doc}\n")).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if let Some(path) = &args.trace {
        write_trace(path);
    }
    if args.halt_workers && !args.workers.is_empty() {
        for warning in halt_workers(&args.workers) {
            eprintln!("halt: {warning}");
        }
    }
    Ok(())
}

/// The `repro arena` subcommand: per-row interning traffic, then the
/// process-wide arena summary. Rows run through one persistent checker
/// pool, so the compiled-term column shows cross-row reuse directly.
fn arena_cmd(args: &Args) -> Result<(), String> {
    use timepiece_expr::arena;
    let kinds = select_kinds(&args.bench)?;
    println!("=== term arena — interning and compiled-term traffic per row ===");
    println!("(arena columns are per-row deltas; `dedup` is constructions per new term;");
    println!(" `tc hit%` is the persistent pool's compiled-term cache, warm across rows)");
    println!(
        "{:>9} {:>3} {:>6} {:>10} {:>12} {:>10} {:>8} {:>8} {:>8}",
        "bench", "k", "nodes", "new terms", "constructed", "arena hit%", "dedup", "kB", "tc hit%"
    );
    let options = sweep_options(args, false);
    let mut pool = sweep_pool(args);
    for kind in kinds {
        for k in ks(args) {
            let row = run_row(kind, k, &options, &mut pool);
            println!(
                "{:>9} {:>3} {:>6} {:>10} {:>12} {:>10} {:>8} {:>8} {:>8}",
                kind.name(),
                row.k,
                row.nodes,
                row.arena.terms,
                row.arena.constructed(),
                format!("{:.1}", 100.0 * row.arena.hit_rate()),
                format!("{:.1}x", row.arena.dedup_ratio()),
                row.arena.bytes / 1024,
                row.terms.map_or("-".to_owned(), |t| format!("{:.1}", 100.0 * t.hit_rate())),
            );
        }
    }
    let total = arena::stats();
    println!(
        "\narena lifetime: {} distinct terms (~{} kB retained), {} constructions, \
         hit rate {:.1}%, dedup {:.1}x",
        total.terms,
        total.bytes / 1024,
        total.constructed(),
        100.0 * total.hit_rate(),
        total.dedup_ratio(),
    );
    Ok(())
}

/// The `repro profile` subcommand: run sweep rows with tracing on and print
/// the phase-attributed breakdown — self-time shares per phase, per-class
/// rollups, and slowest-node attribution — instead of writing a trace file.
fn profile_cmd(args: &Args) -> Result<(), String> {
    use timepiece_trace::{Phase, Profile};
    let kinds = select_kinds(&args.bench)?;
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

/// Prints per-benchmark wall-time trajectories over accumulated `--json`
/// dumps (oldest first).
fn trend_cmd(paths: &[String]) -> Result<(), String> {
    if paths.is_empty() {
        return Err("trend requires at least one --json dump path".to_owned());
    }
    let mut dumps = Vec::new();
    let mut labels = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        dumps.push(trend::parse_dump(&text).map_err(|e| format!("{path}: {e}"))?);
        // column headers are the file stems, so long paths don't skew the table
        labels.push(
            std::path::Path::new(path)
                .file_stem()
                .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned()),
        );
    }
    println!("=== bench trajectories over {} dump(s) ===", dumps.len());
    print!("{}", trend::render(&labels, &dumps));
    // only sharded/distributed history carries per-shard wall times
    if let Some(table) = trend::render_balance(&labels, &dumps) {
        println!();
        print!("{table}");
    }
    Ok(())
}

/// The benchmark `serve`/`soak` run when `--bench` is unrestricted: soaking
/// all thirteen scenarios is a sweep, not a service, so the daemon commands
/// default to the canonical reachability one — or to the `--scenario-file`
/// when one is loaded.
fn daemon_bench(args: &Args) -> Result<BenchKind, String> {
    if let Some(kind) = load_scenario_file(args)? {
        if args.bench == "all" {
            return Ok(kind);
        }
    }
    let name = if args.bench == "all" { "SpReach" } else { args.bench.as_str() };
    BenchKind::parse(name).ok_or_else(|| format!("--bench: {}", unknown_bench(name)))
}

/// The `repro serve` subcommand: start `timepieced` warm on one fattree
/// instance and serve until `shutdown` or SIGTERM drains it.
fn serve_cmd(args: &Args) -> Result<(), String> {
    let kind = daemon_bench(args)?;
    let k = kind.native_k().or(args.k).unwrap_or(4);
    let label = format!("{} k={k}", kind.name());
    eprintln!("compiling {label} and running the warm-up check...");
    let options = CheckOptions {
        timeout: Some(args.timeout),
        threads: args.threads,
        session_cap: Some(64),
        ..CheckOptions::default()
    };
    let state = DaemonState::new(label, fattree_instance(kind, k), options)
        .map_err(|e| format!("warm-up check failed: {e}"))?;
    let listener = std::net::TcpListener::bind(("127.0.0.1", args.port))
        .map_err(|e| format!("binding 127.0.0.1:{}: {e}", args.port))?;
    let addr = listener.local_addr().map_err(|e| format!("local address: {e}"))?;
    spawn_sigterm_watcher(state.drain());
    // the smoke test and scripts wait for this line before connecting
    println!("timepieced listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    serve(listener, state).map_err(|e| format!("serve: {e}"))
}

/// The `repro ask` subcommand: one request to a running daemon, reply on
/// stdout. Without `--request` it sends `status`.
fn ask_cmd(args: &Args) -> Result<(), String> {
    let mut client = Client::connect(("127.0.0.1", args.port))
        .map_err(|e| format!("connecting to 127.0.0.1:{}: {e}", args.port))?;
    let reply = match &args.request {
        Some(raw) => {
            let frame = timepiece_sched::Json::parse(raw).map_err(|e| format!("--request: {e}"))?;
            client.request(&frame)
        }
        None => client.send(&Request::Status),
    }
    .map_err(|e| format!("request failed: {e}"))?;
    println!("{reply}");
    Ok(())
}

/// The `repro soak` subcommand: measure a warm daemon under concurrent
/// delta streams, one row per fattree size.
fn soak_cmd(args: &Args) -> Result<(), String> {
    let kind = daemon_bench(args)?;
    let options = SoakOptions {
        clients: args.clients,
        deltas_per_client: args.deltas,
        timeout: args.timeout,
        threads: args.threads,
        ..SoakOptions::default()
    };
    println!("=== repro soak — {} under concurrent delta streams ===", kind.name());
    println!(
        "({} clients x {} deltas each; cold full-check baseline and single-edge \
         link-down probe per row)",
        args.clients, args.deltas
    );
    println!(
        "{:>4} {:>6} {:>10} {:>6} {:>6} {:>10} {:>9} {:>9} {:>9} {:>8} {:>5} {:>5} {:>8} {:>7} {:>8}",
        "k",
        "nodes",
        "cold",
        "cone",
        "cone%",
        "probe",
        "speedup",
        "p50",
        "p95",
        "avgcone",
        "err",
        "sess",
        "terms",
        "retired",
        "arena"
    );
    let mut rows = Vec::new();
    // the soak grid defaults to the recorded EXPERIMENTS.md sizes
    let ks = args.ks.clone().unwrap_or_else(|| vec![4, 6, 8]);
    for k in ks {
        let r = run_soak(kind, k, &options);
        println!(
            "{:>4} {:>6} {:>10} {:>6} {:>6} {:>10} {:>9} {:>9} {:>9} {:>8} {:>5} {:>5} {:>8} {:>7} {:>8}",
            r.k,
            r.nodes,
            format!("{:.0}ms", r.baseline_full_ms),
            r.probe_cone,
            format!("{:.0}%", 100.0 * r.probe_cone_frac()),
            format!("{:.0}ms", r.probe_ms),
            format!("{:.1}x", r.probe_speedup()),
            format!("{:.0}ms", r.p50_ms),
            format!("{:.0}ms", r.p95_ms),
            format!("{:.1}", r.mean_cone),
            r.storm_errors,
            r.sessions,
            r.compiled_terms,
            r.session_retirements,
            r.arena_terms,
        );
        rows.push(r.to_json());
    }
    if let Some(path) = &args.json {
        use timepiece_sched::Json;
        let doc = Json::obj([
            ("soak", Json::Bool(true)),
            ("clients", Json::from(args.clients)),
            ("deltas_per_client", Json::from(args.deltas)),
            ("timeout_secs", Json::Num(args.timeout.as_secs_f64())),
            ("rows", Json::Arr(rows)),
        ]);
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// The `repro shard-worker` subcommand: the deterministic replay of one
/// recorded shard. Checks exactly the `--nodes` of a shard report's
/// `assigned` list, the way the fleet worker that produced the report did,
/// and prints the new report on stdout.
fn shard_worker(args: &Args) -> Result<(), String> {
    // a file scenario is not in the seed registry: compile it before
    // resolving --bench
    load_scenario_file(args)?;
    let bench = BenchKind::parse(&args.bench)
        .ok_or_else(|| format!("--bench: {}", unknown_bench(&args.bench)))?;
    let k = args.k.ok_or("shard-worker requires --k")?;
    let shard = args.shard.ok_or("shard-worker requires --shard")?;
    if args.shards <= shard {
        return Err(format!("--shard {shard} out of range for --shards {}", args.shards));
    }
    let nodes = args
        .nodes
        .as_deref()
        .ok_or("shard-worker requires --nodes (the `assigned` list of the report to replay)")?;
    let nodes: Vec<&str> = nodes.split(',').map(str::trim).filter(|n| !n.is_empty()).collect();
    let spec = match &args.plan_spec {
        Some(raw) => {
            let value =
                timepiece_sched::Json::parse(raw).map_err(|e| format!("--plan-spec: {e}"))?;
            PlanSpec::from_json(&value).map_err(|e| format!("--plan-spec: {e}"))?
        }
        None => PlanSpec::striped(),
    };
    let report = ShardRow::new(bench.name(), k, args.shards, spec, fattree_instance(bench, k))
        .check(&mut sweep_pool(args), shard, &nodes)
        .map_err(|e| format!("--nodes: {e}"))?;
    println!("{}", report.to_json());
    Ok(())
}

/// The `repro worker` subcommand: serve shard checks over TCP until a
/// coordinator sends `halt`. `--die-after N` arms the documented dead-worker
/// fault: the process drops the connection after N checks and exits nonzero,
/// so the reassignment drill in CI looks like a crashed host.
fn worker_cmd(args: &Args) -> Result<(), String> {
    let listen = args.listen.clone().unwrap_or_else(|| "127.0.0.1:7272".to_owned());
    let listener =
        std::net::TcpListener::bind(&listen).map_err(|e| format!("binding {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("local address: {e}"))?;
    // scripts wait for this line before pointing a coordinator here
    println!("repro worker listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let options = WorkerOptions { max_sessions: None, die_after: args.die_after };
    match run_worker(listener, &options).map_err(|e| format!("worker: {e}"))? {
        WorkerExit::Died => {
            eprintln!("worker: --die-after fault fired, exiting uncleanly");
            std::process::exit(17);
        }
        WorkerExit::Halted | WorkerExit::SessionLimit => Ok(()),
    }
}

/// The `repro plan` subcommand: print the striped and adaptive shard plans
/// for one instance — per-shard node lists, predicted per-shard seconds and
/// the predicted max/mean imbalance — without checking anything.
fn plan_cmd(args: &Args) -> Result<(), String> {
    let kind = daemon_bench(args)?;
    let k = args.k.unwrap_or(4);
    let shards = if args.shards > 1 { args.shards } else { 4 };
    let history = load_history(&args.history)?;
    let model = trend::fit_cost_model(&history, kind.name());
    let inst = fattree_instance(kind, k);
    let topology = inst.network.topology();
    println!(
        "=== shard plans — {} k={k}: {} nodes over {shards} shards ===",
        kind.name(),
        topology.node_count()
    );
    if model.is_uniform() {
        println!("cost model: uniform (no class samples in --history; LPT balances sizes)");
    } else {
        let costs: Vec<String> =
            model.classes().map(|(class, secs)| format!("{class}={secs:.3}s/node")).collect();
        println!("cost model: {} (fit from: {})", costs.join(", "), model.sources().join(", "));
    }
    for (label, choice) in
        [("striped", PlanChoice::Striped), ("adaptive", PlanChoice::Adaptive(model.clone()))]
    {
        let (plan, _spec, predicted) = plan_row(topology, shards, &choice);
        println!(
            "\n--- {label} plan (predicted imbalance {:.2}) ---",
            timepiece_sched::cost::imbalance(&predicted)
        );
        for (shard, secs) in predicted.iter().enumerate() {
            let names: Vec<&str> = plan.nodes_of(shard).iter().map(|&v| topology.name(v)).collect();
            println!(
                "  shard {shard}: {} nodes, predicted {secs:.3}s: {}",
                names.len(),
                names.join(", ")
            );
        }
    }
    Ok(())
}

/// One inference run: build the property-only spec, infer, verify, and
/// compare against the hand-written interface of the same benchmark.
fn infer_row(kind: BenchKind, k: usize, args: &Args) {
    use timepiece_infer::{InferOptions, InferenceEngine, RoleMap};

    let name = kind.name();
    let setup = kind.infer_setup(k).expect("caller filtered for inference support");
    let (spec, instance, fattree, dest) = (setup.spec, setup.instance, setup.fattree, setup.dest);
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
        .infer(&spec.network, &spec.property, roles, &[Env::new()])
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
    let spec = args.bench.to_lowercase();
    let benches: Vec<BenchKind> = BenchKind::all()
        .filter(BenchKind::supports_inference)
        .filter(|b| spec == "all" || b.name().to_lowercase().contains(&spec))
        .collect();
    if benches.is_empty() {
        let supported: Vec<&str> =
            BenchKind::all().filter(BenchKind::supports_inference).map(|k| k.name()).collect();
        return Err(format!(
            "no inference benchmark matches {spec:?}; scenarios with inference support: {}",
            supported.join(", ")
        ));
    }
    // `--ks` overrides the default grid here exactly as it does in sweeps
    // (inference defaults to steps of 2 where fig14 uses 4)
    let ks = args.ks.clone().unwrap_or_else(|| (4..=args.max_k.unwrap_or(8)).step_by(2).collect());
    for kind in benches {
        for &k in &ks {
            infer_row(kind, k, args);
        }
    }
    if let Some(path) = &args.trace {
        write_trace(path);
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
    let path = args.scenario_file.as_deref().ok_or("check requires --scenario-file PATH")?;
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
        return Err(format!(
            "export needs one --bench NAME; registered benchmarks: {}",
            BenchKind::names().join(", ")
        ));
    }
    let kind = BenchKind::parse(&args.bench)
        .ok_or_else(|| format!("--bench: {}", unknown_bench(&args.bench)))?;
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

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage());
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = argv.split_first().map(|(c, r)| (c.as_str(), r)).unwrap_or(("all", &[]));
    // trend takes positional dump paths, not flags
    if cmd == "trend" {
        if let Err(msg) = trend_cmd(rest) {
            usage_error(&msg);
        }
        return;
    }
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(msg) => usage_error(&msg),
    };
    let result = match cmd {
        "fig1" => fig1(&args),
        "fig3" => {
            fig3();
            Ok(())
        }
        "fig13" => {
            fig13();
            Ok(())
        }
        "fig14" => fig14(&args),
        "table1" => {
            table1();
            Ok(())
        }
        "table2" => {
            table2();
            Ok(())
        }
        "table3" => {
            table3();
            Ok(())
        }
        "wan" => {
            wan(&args);
            Ok(())
        }
        "keyideas" => {
            keyideas();
            Ok(())
        }
        "infer" => infer(&args),
        "arena" => arena_cmd(&args),
        "profile" => profile_cmd(&args),
        "serve" => serve_cmd(&args),
        "ask" => ask_cmd(&args),
        "soak" => soak_cmd(&args),
        "plan" => plan_cmd(&args),
        "worker" => worker_cmd(&args),
        "shard-worker" => shard_worker(&args),
        "fuzz" => fuzz_cmd(&args),
        "check" => check_cmd(&args),
        "export" => export_cmd(&args),
        "all" => {
            fig3();
            fig13();
            keyideas();
            table1();
            table2();
            table3();
            fig1(&args).and_then(|()| fig14(&args)).map(|()| wan(&args))
        }
        other => usage_error(&format!("unknown subcommand {other:?}")),
    };
    if let Err(msg) = result {
        usage_error(&msg);
    }
}
