//! `vpm` — unified command-line entry point for the reproduction.
//!
//! ```text
//! vpm matrix [--filter k=v] [--json] [--jobs N]   run the scenario matrix
//! vpm fleet [--paths N] [--jobs J] [--liars K] [--shards S] [--json]
//!           [--transport tcp:ADDR]
//!                                    run the many-path fleet and verify every
//!                                    path in parallel (exit 1 on any false
//!                                    accusation or missed liar), over the
//!                                    in-process bus or a `vpm serve` endpoint
//! vpm serve [--listen ADDR] [--shards S]
//!                                    serve a sharded receipt bus over TCP
//!                                    (the out-of-process dissemination plane)
//! vpm audit [--paths N] [--intervals N] [--shards S] [--gc-every N]
//!           [--checkpoint-every N] [--restart-at K] [--seed S]
//!           [--assert-flat] [--json]
//!                                    run the long-horizon streaming audit
//!                                    under churn with epoch GC and
//!                                    checkpointable verification; --json
//!                                    prints the restart-invariant verdict
//! vpm bench-audit [--paths N] [--intervals N] [--shards S] [--gc-every N]
//!                 [--checkpoint-paths P] [--repeats R] [--json]
//!                                    measure audit throughput, GC reclaim
//!                                    rate, and checkpoint codec cost
//! vpm bench-collector [--packets N] [--paths P] [--batch B] [--repeats R] [--json]
//!                                    measure the collector hot path
//! vpm bench-wire [--receipts N] [--records N] [--aggs N] [--window W]
//!                [--repeats R] [--json]
//!                                    measure the wire codec vs the JSON path,
//!                                    plus HMAC-signed frame encode/verify
//!                                    against the unsigned baseline
//! vpm bench-verifier [--paths N] [--jobs J] [--shards S] [--frames F]
//!                    [--subs K] [--repeats R] [--json]
//!                                    measure parallel verification and
//!                                    cursor-poll throughput
//! vpm lint [--json] [--rule ID] [--root PATH] [--audit]
//!                                    run the in-tree invariant analyzer
//!                                    (R1 panic-freedom, R2 determinism,
//!                                    R3 lock discipline, R4 wire-constant
//!                                    drift, R5 error-variant reachability,
//!                                    R6 shim-surface drift);
//!                                    exit 1 on any violation
//! vpm fig2 [secs] [seed] [n_seeds]   regenerate Figure 2
//! vpm fig3 [secs] [seed]             regenerate Figure 3
//! vpm verifiability [secs] [seed]    regenerate the §7.2 sweep
//! vpm overhead                       regenerate the §7.1 numbers
//! vpm baselines [seed]               run the §3 comparison
//! vpm pcap <out.pcap> [ms] [seed]    export a synthetic trace as pcap
//! ```

use std::process::ExitCode;
use vpm::packet::SimDuration;
use vpm::sim::scenario_matrix::{
    evaluate_grid, full_grid, parse_filter, render_matrix_table, MatrixFilter, CANONICAL_BASE_SEED,
};
use vpm::sim::{baselines, experiments};
use vpm::trace::{TraceConfig, TraceGenerator};

fn print_usage() {
    eprintln!(
        "usage: vpm <command> [args]\n\
         commands:\n\
           matrix [--filter axis=value] [--json] [--jobs N]\n\
                                                evaluate the scenario matrix and print\n\
                                                the verdict table (exit 1 on failing\n\
                                                cells); axes: delay, loss, reorder,\n\
                                                rate, clock, deploy, adversary\n\
           fleet [--paths N] [--jobs J] [--liars K] [--shards S] [--json]\n\
                 [--transport tcp:ADDR]\n\
                                                run N independent paths through one\n\
                                                sharded bus (concurrent publishers)\n\
                                                and verify each path from its frames,\n\
                                                J paths at a time; exit 1 on any\n\
                                                false accusation or missed liar;\n\
                                                --transport tcp:HOST:PORT publishes\n\
                                                and verifies through a `vpm serve`\n\
                                                endpoint instead of in-process\n\
           serve [--listen ADDR] [--shards S]   serve a sharded receipt bus over\n\
                                                length-prefixed TCP (default\n\
                                                127.0.0.1:0 picks a free port,\n\
                                                printed on startup); MAC/key-epoch\n\
                                                checks run server-side\n\
           audit [--paths N] [--intervals N] [--shards S] [--gc-every N]\n\
                 [--checkpoint-every N] [--restart-at K] [--seed S]\n\
                 [--assert-flat] [--json]\n\
                                                follow a churning fleet for N reporting\n\
                                                intervals with a streaming verifier:\n\
                                                epoch GC below the audit cursor,\n\
                                                periodic checkpoints, optional\n\
                                                stop/restore at interval K; --json\n\
                                                prints the restart-invariant verdict,\n\
                                                --assert-flat fails (exit 1) if bus\n\
                                                entries or RSS grow\n\
           bench-audit [--paths N] [--intervals N] [--shards S]\n\
                       [--gc-every N] [--checkpoint-paths P]\n\
                       [--repeats R] [--json]\n\
                                                measure streaming-audit intervals/s,\n\
                                                GC reclaim rate, and checkpoint\n\
                                                encode/restore cost; write\n\
                                                BENCH_audit.json\n\
           bench-collector [--packets N] [--paths P] [--batch B]\n\
                           [--repeats R] [--json]\n\
                                                measure collector hot-path ns/packet and\n\
                                                Mpps (batch ingest, SIMD digest, 100k-path\n\
                                                classify; min over R timed repeats) and\n\
                                                write BENCH_collector.json\n\
           bench-wire [--receipts N] [--records N] [--aggs N]\n\
                      [--window W] [--repeats R] [--json]\n\
                                                measure wire-codec encode/decode MB/s\n\
                                                and bytes-per-sample (compact vs precise\n\
                                                vs JSON shim), plus HMAC-SHA-256 signed\n\
                                                frame encode/verify vs the unsigned\n\
                                                baseline, and write BENCH_wire.json\n\
           bench-verifier [--paths N] [--jobs J] [--shards S]\n\
                          [--frames F] [--subs K] [--repeats R] [--json]\n\
                                                measure sequential vs parallel fleet\n\
                                                verification and full-rescan vs\n\
                                                per-shard-cursor polling; write\n\
                                                BENCH_verifier.json\n\
           lint [--json] [--rule ID] [--root PATH] [--audit]\n\
                                                run the workspace invariant analyzer\n\
                                                (R1 panic-freedom, R2 determinism, R3\n\
                                                lock discipline, R4 wire-constant\n\
                                                drift, R5 error-variant reachability,\n\
                                                R6 shim-surface drift); exit 1 on\n\
                                                violations, 2 on bad usage\n\
           fig2 [secs=2] [seed=1] [n_seeds=3]   Figure 2 (delay accuracy)\n\
           fig3 [secs=20] [seed=1]              Figure 3 (loss granularity)\n\
           verifiability [secs=2] [seed=1]      §7.2 verification sweep\n\
           overhead                             §7.1 memory/bandwidth model\n\
           baselines [seed=1]                   §3 strawman comparison\n\
           pcap <out.pcap> [ms=100] [seed=1]    export a synthetic trace"
    );
}

fn usage() -> ExitCode {
    print_usage();
    ExitCode::from(2)
}

/// Positional argument at `i`, or `default` when absent. An argument
/// that is *present but unparsable* is an error: print usage, exit 2 —
/// never run an experiment with silently substituted parameters.
fn arg<T: std::str::FromStr>(args: &[String], i: usize, default: T) -> T {
    match args.get(i) {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("vpm: unparsable argument '{s}'");
            print_usage();
            std::process::exit(2);
        }),
    }
}

/// Parse and run `vpm matrix [--filter axis=value]... [--json]
/// [--jobs N]`.
fn matrix(args: &[String]) -> ExitCode {
    let mut filters: Vec<MatrixFilter> = Vec::new();
    let mut json = false;
    let mut jobs = 1usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--filter" => {
                let Some(spec) = args.get(i + 1) else {
                    eprintln!("vpm: --filter needs an axis=value argument");
                    return usage();
                };
                match parse_filter(spec) {
                    Ok(f) => filters.push(f),
                    Err(e) => {
                        eprintln!("vpm: {e}");
                        return usage();
                    }
                }
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--jobs" => {
                let Some(n) = args.get(i + 1) else {
                    eprintln!("vpm: --jobs needs a number");
                    return usage();
                };
                match n.parse::<usize>() {
                    Ok(n) if n >= 1 => jobs = n,
                    _ => {
                        eprintln!("vpm: --jobs value '{n}' is not a positive integer");
                        return usage();
                    }
                }
                i += 2;
            }
            other => {
                eprintln!("vpm: unknown matrix option '{other}'");
                return usage();
            }
        }
    }

    let cells: Vec<_> = full_grid(CANONICAL_BASE_SEED)
        .into_iter()
        .filter(|c| filters.iter().all(|f| f.matches(c)))
        .collect();
    // An empty selection must not pass as a green gate: a filter set
    // that matches nothing (over-constrained, or stale after a grid
    // change) would otherwise "verify" zero cells and exit 0.
    if cells.is_empty() {
        eprintln!("vpm: no cells match the given filters");
        return ExitCode::from(2);
    }
    let verdicts = evaluate_grid(&cells, jobs);
    if json {
        match serde_json::to_string(&verdicts) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("vpm: cannot serialize verdicts: {e:?}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        print!("{}", render_matrix_table(&cells, &verdicts));
    }
    if verdicts.iter().all(|v| v.passed()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parse and run `vpm fleet [--paths N] [--jobs J] [--liars K]
/// [--shards S] [--json] [--transport tcp:ADDR]`.
fn fleet(args: &[String]) -> ExitCode {
    let mut paths = 64usize;
    let mut jobs = 4usize;
    let mut liars: Option<usize> = None;
    let mut shards = 32usize;
    let mut json = false;
    let mut tcp_addr: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--json" => {
                json = true;
                i += 1;
            }
            "--transport" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("vpm: --transport needs tcp:HOST:PORT");
                    return usage();
                };
                match v.strip_prefix("tcp:") {
                    Some(addr) if !addr.is_empty() => tcp_addr = Some(addr.to_string()),
                    _ => {
                        eprintln!("vpm: --transport value '{v}' is not tcp:HOST:PORT");
                        return usage();
                    }
                }
                i += 2;
            }
            "--paths" | "--jobs" | "--liars" | "--shards" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("vpm: {flag} needs a number");
                    return usage();
                };
                // `--liars 0` is a legitimate all-honest fleet; the
                // other counts must stay positive.
                let min = usize::from(flag != "--liars");
                let parsed = match v.parse::<usize>() {
                    Ok(n) if n >= min => n,
                    _ => {
                        eprintln!("vpm: {flag} value '{v}' is not a valid count");
                        return usage();
                    }
                };
                match flag {
                    "--paths" => paths = parsed,
                    "--jobs" => jobs = parsed,
                    "--liars" => liars = Some(parsed),
                    _ => shards = parsed,
                }
                i += 2;
            }
            other => {
                eprintln!("vpm: unknown fleet option '{other}'");
                return usage();
            }
        }
    }
    let liars = liars.unwrap_or(paths / 8);
    if liars > paths {
        eprintln!("vpm: --liars {liars} exceeds --paths {paths}");
        return usage();
    }
    if paths * vpm::sim::topology::FIGURE1_HOPS as usize > u16::MAX as usize {
        eprintln!("vpm: --paths {paths} overflows the 16-bit HOP id space");
        return usage();
    }

    let cfg = vpm::sim::FleetConfig {
        paths,
        liars,
        publishers: jobs,
        ..vpm::sim::FleetConfig::default()
    };
    let fleet = vpm::sim::build_fleet(&cfg);
    // Same fleet, two dissemination planes: the in-process sharded bus
    // (default) or a `vpm serve` endpoint over TCP. The verdicts are
    // byte-identical either way (test-pinned).
    let transport: Box<dyn vpm::wire::ReceiptTransport> = match &tcp_addr {
        None => Box::new(vpm::wire::ShardedBus::new(shards)),
        Some(addr) => match vpm::wire::TcpTransport::connect(addr.clone()) {
            Ok(t) => Box::new(t),
            Err(e) => {
                eprintln!("vpm: cannot reach receipt server at {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    vpm::sim::run_fleet(&fleet, transport.as_ref());
    let verdicts = vpm::sim::analyze_fleet_from_transport(&fleet, transport.as_ref(), jobs);
    if json {
        match serde_json::to_string(&verdicts) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("vpm: cannot serialize fleet verdicts: {e:?}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        print!("{}", vpm::sim::render_fleet_table(&fleet, &verdicts));
    }
    if verdicts.iter().all(|v| v.passed()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parse and run `vpm serve [--listen ADDR] [--shards S]`: bind a
/// [`vpm::wire::TcpServer`] over a fresh sharded bus and serve until
/// killed.
fn serve(args: &[String]) -> ExitCode {
    let mut listen = String::from("127.0.0.1:0");
    let mut shards = 32usize;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--listen" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("vpm: --listen needs HOST:PORT");
                    return usage();
                };
                listen = v.clone();
                i += 2;
            }
            "--shards" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("vpm: --shards needs a number");
                    return usage();
                };
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => shards = n,
                    _ => {
                        eprintln!("vpm: --shards value '{v}' is not a positive integer");
                        return usage();
                    }
                }
                i += 2;
            }
            other => {
                eprintln!("vpm: unknown serve option '{other}'");
                return usage();
            }
        }
    }

    let bus = std::sync::Arc::new(vpm::wire::ShardedBus::new(shards));
    let server = match vpm::wire::TcpServer::bind(listen.as_str(), bus) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vpm: cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The exact line harnesses scrape for the resolved ephemeral port.
    println!("vpm serve: listening on {}", server.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    // Serve until the process is killed; connections are handled on
    // the server's own threads.
    loop {
        std::thread::park();
    }
}

/// Parse and run `vpm bench-verifier [--paths N] [--jobs J]
/// [--shards S] [--frames F] [--subs K] [--repeats R] [--json]`.
fn bench_verifier(args: &[String]) -> ExitCode {
    let mut cfg = vpm::bench::verifier_bench::VerifierBenchConfig::default();
    let mut json = false;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--json" => {
                json = true;
                i += 1;
            }
            "--paths" | "--jobs" | "--shards" | "--frames" | "--subs" | "--repeats" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("vpm: {flag} needs a number");
                    return usage();
                };
                let parsed = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("vpm: {flag} value '{v}' is not a positive integer");
                        return usage();
                    }
                };
                match flag {
                    "--paths" => cfg.paths = parsed,
                    "--jobs" => cfg.jobs = parsed,
                    "--shards" => cfg.shards = parsed,
                    "--frames" => cfg.frames = parsed,
                    "--subs" => cfg.subs = parsed,
                    _ => cfg.repeats = parsed,
                }
                i += 2;
            }
            other => {
                eprintln!("vpm: unknown bench-verifier option '{other}'");
                return usage();
            }
        }
    }

    let report = vpm::bench::verifier_bench::run(&cfg);
    let serialized = match serde_json::to_string(&report) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vpm: cannot serialize bench report: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write("BENCH_verifier.json", &serialized) {
        eprintln!("vpm: cannot write BENCH_verifier.json: {e}");
        return ExitCode::FAILURE;
    }
    if json {
        println!("{serialized}");
    } else {
        print!("{}", vpm::bench::verifier_bench::render_table(&report));
        println!("wrote BENCH_verifier.json");
    }
    ExitCode::SUCCESS
}

/// Parse and run `vpm audit [--paths N] [--intervals N] [--shards S]
/// [--gc-every N] [--checkpoint-every N] [--restart-at K] [--seed S]
/// [--assert-flat] [--json]`.
fn audit(args: &[String]) -> ExitCode {
    let mut cfg = vpm::sim::audit::AuditConfig::default();
    let mut json = false;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--json" => {
                json = true;
                i += 1;
            }
            "--assert-flat" => {
                cfg.assert_flat = true;
                i += 1;
            }
            "--paths" | "--intervals" | "--shards" | "--gc-every" | "--checkpoint-every"
            | "--restart-at" | "--seed" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("vpm: {flag} needs a number");
                    return usage();
                };
                let Ok(parsed) = v.parse::<u64>() else {
                    eprintln!("vpm: {flag} value '{v}' is not a non-negative integer");
                    return usage();
                };
                match flag {
                    "--paths" => {
                        if parsed == 0 || parsed > vpm::sim::audit::workload::MAX_AUDIT_PATHS as u64
                        {
                            eprintln!(
                                "vpm: --paths must be 1..={}",
                                vpm::sim::audit::workload::MAX_AUDIT_PATHS
                            );
                            return usage();
                        }
                        cfg.paths = parsed as usize;
                    }
                    "--intervals" => cfg.intervals = parsed,
                    "--shards" => {
                        if parsed == 0 {
                            eprintln!("vpm: --shards must be positive");
                            return usage();
                        }
                        cfg.shards = parsed as usize;
                    }
                    "--gc-every" => cfg.gc_every = parsed,
                    "--checkpoint-every" => cfg.checkpoint_every = parsed,
                    "--restart-at" => cfg.restart_at = Some(parsed),
                    _ => cfg.seed = parsed,
                }
                i += 2;
            }
            other => {
                eprintln!("vpm: unknown audit option '{other}'");
                return usage();
            }
        }
    }

    let outcome = match vpm::sim::audit::run_audit(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vpm: audit failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        // The verdict alone: deterministic in the seed and invariant
        // under checkpoint/restart, so the CI byte-identity gate can
        // `cmp` two runs directly. Stats (timings, RSS) stay out.
        match serde_json::to_string(&outcome.verdict) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("vpm: cannot serialize audit verdict: {e:?}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let v = &outcome.verdict;
        let s = &outcome.stats;
        println!(
            "audit: {} intervals over {} paths ({} shards), seed {:#x}",
            v.intervals, cfg.paths, cfg.shards, cfg.seed
        );
        println!(
            "  verdicts: {} path-intervals audited, {} flagged, {} paths seen",
            v.audited_intervals,
            v.flagged_intervals,
            v.paths.len()
        );
        println!(
            "  bus: {} publishes, {} reclaimed over {} GC passes, peak {} retained, {} at end",
            s.publishes, s.reclaimed, s.gc_passes, s.max_entries, s.final_entries
        );
        println!(
            "  checkpoints: {} taken ({} bytes last), {} restarts, {} summary records",
            s.checkpoints, s.checkpoint_bytes, s.restarts, s.summary_records
        );
        if let (Some(base), Some(end)) = (s.rss_baseline_kb, s.rss_end_kb) {
            println!("  rss: {base} KiB after warmup, {end} KiB at end");
        }
    }
    ExitCode::SUCCESS
}

/// Parse and run `vpm bench-audit [--paths N] [--intervals N]
/// [--shards S] [--gc-every N] [--checkpoint-paths P] [--repeats R]
/// [--json]`.
fn bench_audit(args: &[String]) -> ExitCode {
    let mut cfg = vpm::bench::audit_bench::AuditBenchConfig::default();
    let mut json = false;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--json" => {
                json = true;
                i += 1;
            }
            "--paths" | "--intervals" | "--shards" | "--gc-every" | "--checkpoint-paths"
            | "--repeats" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("vpm: {flag} needs a number");
                    return usage();
                };
                let parsed = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("vpm: {flag} value '{v}' is not a positive integer");
                        return usage();
                    }
                };
                match flag {
                    "--paths" => cfg.paths = parsed,
                    "--intervals" => cfg.intervals = parsed as u64,
                    "--shards" => cfg.shards = parsed,
                    "--gc-every" => cfg.gc_every = parsed as u64,
                    "--checkpoint-paths" => cfg.checkpoint_paths = parsed,
                    _ => cfg.repeats = parsed,
                }
                i += 2;
            }
            other => {
                eprintln!("vpm: unknown bench-audit option '{other}'");
                return usage();
            }
        }
    }

    let report = vpm::bench::audit_bench::run(&cfg);
    let serialized = match serde_json::to_string(&report) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vpm: cannot serialize bench report: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write("BENCH_audit.json", &serialized) {
        eprintln!("vpm: cannot write BENCH_audit.json: {e}");
        return ExitCode::FAILURE;
    }
    if json {
        println!("{serialized}");
    } else {
        print!("{}", vpm::bench::audit_bench::render_table(&report));
        println!("wrote BENCH_audit.json");
    }
    ExitCode::SUCCESS
}

/// Parse and run `vpm bench-collector [--packets N] [--paths P]
/// [--batch B] [--repeats R] [--json]`.
fn bench_collector(args: &[String]) -> ExitCode {
    let mut cfg = vpm::bench::collector_bench::CollectorBenchConfig::default();
    let mut json = false;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--json" => {
                json = true;
                i += 1;
            }
            "--packets" | "--paths" | "--batch" | "--repeats" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("vpm: {flag} needs a number");
                    return usage();
                };
                let parsed = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("vpm: {flag} value '{v}' is not a positive integer");
                        return usage();
                    }
                };
                match flag {
                    "--packets" => cfg.packets = parsed,
                    "--paths" => cfg.paths = parsed,
                    "--batch" => cfg.batch = parsed,
                    _ => cfg.repeats = parsed,
                }
                i += 2;
            }
            other => {
                eprintln!("vpm: unknown bench-collector option '{other}'");
                return usage();
            }
        }
    }
    if cfg.paths > 1 << 24 {
        eprintln!("vpm: --paths is limited to {} /32 pairs", 1usize << 24);
        return usage();
    }

    let report = vpm::bench::collector_bench::run(&cfg);
    let serialized = match serde_json::to_string(&report) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vpm: cannot serialize bench report: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    // The JSON artifact seeds the repo's perf trajectory either way;
    // --json additionally prints it instead of the table.
    if let Err(e) = std::fs::write("BENCH_collector.json", &serialized) {
        eprintln!("vpm: cannot write BENCH_collector.json: {e}");
        return ExitCode::FAILURE;
    }
    if json {
        println!("{serialized}");
    } else {
        print!("{}", vpm::bench::collector_bench::render_table(&report));
        println!("wrote BENCH_collector.json");
    }
    ExitCode::SUCCESS
}

/// Parse and run `vpm bench-wire [--receipts N] [--records N]
/// [--aggs N] [--window W] [--repeats R] [--json]`.
fn bench_wire(args: &[String]) -> ExitCode {
    let mut cfg = vpm::bench::wire_bench::WireBenchConfig::default();
    let mut json = false;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--json" => {
                json = true;
                i += 1;
            }
            "--receipts" | "--records" | "--aggs" | "--window" | "--repeats" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("vpm: {flag} needs a number");
                    return usage();
                };
                // `--window 0` is a legitimate workload (empty AggTrans
                // windows); the item counts must stay positive.
                let min = usize::from(flag != "--window");
                let parsed = match v.parse::<usize>() {
                    Ok(n) if n >= min => n,
                    _ => {
                        eprintln!("vpm: {flag} value '{v}' is not a valid count");
                        return usage();
                    }
                };
                match flag {
                    "--receipts" => cfg.receipts = parsed,
                    "--records" => cfg.records = parsed,
                    "--aggs" => cfg.aggs = parsed,
                    "--window" => cfg.window = parsed,
                    _ => cfg.repeats = parsed,
                }
                i += 2;
            }
            other => {
                eprintln!("vpm: unknown bench-wire option '{other}'");
                return usage();
            }
        }
    }

    let report = vpm::bench::wire_bench::run(&cfg);
    let serialized = match serde_json::to_string(&report) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vpm: cannot serialize bench report: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write("BENCH_wire.json", &serialized) {
        eprintln!("vpm: cannot write BENCH_wire.json: {e}");
        return ExitCode::FAILURE;
    }
    if json {
        println!("{serialized}");
    } else {
        print!("{}", vpm::bench::wire_bench::render_table(&report));
        println!("wrote BENCH_wire.json");
    }
    ExitCode::SUCCESS
}

/// Parse and run `vpm lint [--json] [--rule ID] [--root PATH]
/// [--audit]`: the in-tree invariant analyzer (see `vpm-lint`).
fn lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut audit = false;
    let mut rule: Option<String> = None;
    let mut root: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--json" => {
                json = true;
                i += 1;
            }
            "--audit" => {
                audit = true;
                i += 1;
            }
            "--rule" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("vpm: --rule needs a rule ID (R1..R6)");
                    return usage();
                };
                if !vpm::lint::RULE_IDS.contains(&v.as_str()) {
                    eprintln!(
                        "vpm: unknown rule '{v}' (known: {})",
                        vpm::lint::RULE_IDS.join(", ")
                    );
                    return usage();
                }
                rule = Some(v.clone());
                i += 2;
            }
            "--root" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("vpm: --root needs a directory");
                    return usage();
                };
                root = Some(v.clone());
                i += 2;
            }
            other => {
                eprintln!("vpm: unknown lint option '{other}'");
                return usage();
            }
        }
    }
    // Default to the working directory when it is a workspace root
    // (the CI invocation), falling back to the source tree this binary
    // was built from (`cargo run -- lint` from anywhere).
    let root = root.unwrap_or_else(|| {
        if std::path::Path::new("Cargo.toml").is_file() {
            ".".to_string()
        } else {
            env!("CARGO_MANIFEST_DIR").to_string()
        }
    });
    let report = match vpm::lint::run(std::path::Path::new(&root), rule.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vpm: lint cannot analyze {root}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human(audit));
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_overhead_rows(rows: &[(String, f64, f64)]) {
    for (label, paper, ours) in rows {
        let p = if paper.is_nan() {
            "—".to_string()
        } else {
            format!("{paper:.3}")
        };
        println!("{label:<48} {p:>10} {ours:>10.3}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "matrix" => return matrix(&args),
        "fleet" => return fleet(&args),
        "serve" => return serve(&args),
        "audit" => return audit(&args),
        "bench-audit" => return bench_audit(&args),
        "bench-collector" => return bench_collector(&args),
        "bench-wire" => return bench_wire(&args),
        "bench-verifier" => return bench_verifier(&args),
        "lint" => return lint(&args),
        "fig2" => {
            let cfg = experiments::fig2::Fig2Config::paper(
                SimDuration::from_secs(arg(&args, 1, 2u64)),
                arg(&args, 2, 1u64),
            );
            let points = experiments::fig2::run_averaged(&cfg, arg(&args, 3, 3u64));
            println!("{}", experiments::fig2::render_table(&points));
        }
        "fig3" => {
            let cfg = experiments::fig3::Fig3Config::paper(
                SimDuration::from_secs(arg(&args, 1, 20u64)),
                arg(&args, 2, 1u64),
            );
            println!(
                "{}",
                experiments::fig3::render_table(&experiments::fig3::run(&cfg))
            );
        }
        "verifiability" => {
            let cfg = experiments::verifiability::VerifiabilityConfig::paper(
                SimDuration::from_secs(arg(&args, 1, 2u64)),
                arg(&args, 2, 1u64),
            );
            println!(
                "{}",
                experiments::verifiability::render_table(&experiments::verifiability::run(&cfg))
            );
        }
        "overhead" => {
            let report = vpm::core::overhead::section_7_1_report();
            println!("{:<48} {:>10} {:>10}", "quantity", "paper", "ours");
            print_overhead_rows(&report.rows);
            // The same §7.1 numbers, recomputed from actual encoded v1
            // frame lengths instead of the model constants.
            let measured = vpm::wire::measured_overhead_report();
            println!();
            println!(
                "{:<48} {:>10} {:>10}",
                "measured from wire frames", "paper", "ours"
            );
            print_overhead_rows(&measured.rows);
        }
        "baselines" => {
            let reports = baselines::compare(arg(&args, 1, 1u64));
            println!("{}", baselines::render_table(&reports));
        }
        "pcap" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let trace = TraceGenerator::new(TraceConfig {
                duration: SimDuration::from_millis(arg(&args, 2, 100u64)),
                ..TraceConfig::paper_default(1, arg(&args, 3, 1u64))
            })
            .generate();
            let file = match std::fs::File::create(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot create {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = vpm::trace::pcap::write_pcap(std::io::BufWriter::new(file), &trace) {
                eprintln!("pcap write failed: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {} packets to {path}", trace.len());
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
