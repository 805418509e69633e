//! `pga` — command-line front end for the platform.
//!
//! ```text
//! pga gen       --units 4 --sensors 16 --ticks 10 --seed 7      # JSONL samples to stdout
//! pga demo      --units 8 --sensors 64 --ticks 700 --seed 42    # full monitoring loop
//! pga dashboard --port 8087 --secs 30                           # serve dashboard + API
//! pga queries   --smoke                                         # one experiment (E19)
//! ```
//!
//! Argument parsing is dependency-free and strict: each command names the
//! `--key value` options and bare `--switch` flags it takes, and anything
//! else (an unknown flag, a missing or unparsable value) prints usage and
//! exits 2. Every command but `gen`, `demo`, `dashboard`, `import` and
//! `analyze` is a row of the experiment table, `pga_bench::registry`.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::str::FromStr;
use std::sync::Arc;

use parking_lot::Mutex;

use pga_bench::registry::{self, Experiment, Size, EXPERIMENTS};
use pga_platform::{dashboard_routes, Monitor, PlatformConfig};
use pga_sensorgen::{Fleet, FleetConfig};
use pga_viz::server::{DashboardServer, HttpRequest, HttpResponse, RequestHandler};

const USAGE: &str = "\
usage: pga <command> [options]

commands:
  gen        print synthetic sensor samples as JSON lines
             (--units N --sensors N --ticks N --seed N)
  demo       run the full monitoring loop and print flagged anomalies
             (--units N --sensors N --ticks N --seed N)
  dashboard  serve the dashboard and the OpenTSDB-style API
             (--units N --sensors N --port P --secs S --seed N)
  import     load OpenTSDB-style JSONL datapoints into a fresh
             store and serve the query API over them
             (--file path --nodes 1..255 --port P --secs S)
  analyze    run the workspace lint engine (see ANALYSIS.md)
             ([--deny-all] [--root path] [--rule id] [--list])
  crashtest --seed N [--schedule 12:crash:1,30:tear:0,...]
             replay one fault-injection seed and print its trace

experiments: pga <name> [--smoke | --full]
  Without a size flag an experiment runs at report_all --quick size;
  --smoke is the CI size. Exits 1 when the verdict fails. The JSON
  artifact lands in target/experiments/; report_all runs every row.
";

/// `USAGE` followed by one line per experiment.
fn usage_text() -> String {
    let mut text = USAGE.to_string();
    for e in EXPERIMENTS {
        let _ = writeln!(text, "  {:<14}{:<8}{}", e.name, e.id, e.help);
    }
    text
}

fn usage() -> ! {
    eprint!("{}", usage_text());
    std::process::exit(2);
}

/// A command's options, parsed against the keys and switches it takes.
#[derive(Debug, Default)]
struct Args {
    values: HashMap<String, String>,
    switches: HashSet<String>,
}

impl Args {
    /// Every token must be a `--key` in `keys` followed by its value, or a
    /// `--switch` in `switches`, which takes none.
    fn parse(args: &[String], keys: &[&str], switches: &[&str]) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut tokens = args.iter();
        while let Some(arg) = tokens.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            if switches.contains(&name) {
                parsed.switches.insert(name.to_string());
            } else if keys.contains(&name) {
                let value = tokens
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                parsed.values.insert(name.to_string(), value.clone());
            } else {
                return Err(format!("unknown flag `{arg}`"));
            }
        }
        Ok(parsed)
    }

    fn require<T: FromStr>(&self, key: &str) -> Result<T, String> {
        let value = self
            .values
            .get(key)
            .ok_or_else(|| format!("--{key} is required"))?;
        value
            .parse()
            .map_err(|_| format!("--{key}: cannot parse `{value}`"))
    }

    fn get<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        if self.values.contains_key(key) {
            self.require(key)
        } else {
            Ok(default)
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(switch)
    }
}

/// The experiment size the `--smoke` / `--full` switches select.
fn size(args: &Args) -> Result<Size, String> {
    match (args.has("smoke"), args.has("full")) {
        (true, true) => Err("--smoke and --full exclude each other".into()),
        (true, false) => Ok(Size::Smoke),
        (false, true) => Ok(Size::Full),
        (false, false) => Ok(Size::Quick),
    }
}

const SIZE_SWITCHES: [&str; 2] = ["smoke", "full"];
const FLEET_KEYS: [&str; 4] = ["units", "sensors", "ticks", "seed"];

fn fleet_config(args: &Args) -> Result<FleetConfig, String> {
    Ok(FleetConfig {
        units: args.get("units", 8u32)?,
        sensors_per_unit: args.get("sensors", 64u32)?,
        ..FleetConfig::paper_scale(args.get("seed", 42u64)?)
    })
}

fn cmd_gen(rest: &[String]) -> Result<(), String> {
    use std::io::Write;
    let args = Args::parse(rest, &FLEET_KEYS, &[])?;
    let fleet = Fleet::new(fleet_config(&args)?);
    let ticks = args.get("ticks", 10u64)?;
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for t in 0..ticks {
        for s in fleet.tick(t) {
            writeln!(
                out,
                "{{\"metric\":\"energy\",\"timestamp\":{},\"value\":{},\"tags\":{{\"unit\":\"{}\",\"sensor\":\"{}\"}}}}",
                s.timestamp, s.value, s.unit, s.sensor
            )
            .expect("write sample");
        }
    }
    Ok(())
}

fn cmd_demo(rest: &[String]) -> Result<(), String> {
    let args = Args::parse(rest, &FLEET_KEYS, &[])?;
    let ticks = args.get("ticks", 700u64)?.max(300);
    let mut config = PlatformConfig::demo(args.get("seed", 42u64)?);
    config.fleet = fleet_config(&args)?;
    let mut monitor = Monitor::new(config).expect("valid config");
    let report = monitor.ingest_range(0, ticks);
    eprintln!(
        "ingested {} samples at {:.0} samples/sec",
        report.samples, report.throughput
    );
    monitor.train(149).expect("train");
    let outcomes = monitor.evaluate_at(ticks - 1).expect("evaluate");
    for out in &outcomes {
        if out.flags.is_empty() {
            continue;
        }
        let class = monitor.fleet().fault(out.unit).class.name();
        println!(
            "unit {:>3} [{}]: flagged {:?}",
            out.unit,
            class,
            out.flags.iter().map(|f| f.sensor).collect::<Vec<_>>()
        );
    }
    eprintln!("{} anomaly records total", monitor.anomalies().len());
    monitor.shutdown();
    Ok(())
}

fn cmd_dashboard(rest: &[String]) -> Result<(), String> {
    let args = Args::parse(rest, &["units", "sensors", "port", "secs", "seed"], &[])?;
    let ticks = 700u64;
    let mut config = PlatformConfig::demo(args.get("seed", 7u64)?);
    config.fleet = fleet_config(&args)?;
    let port = args.get("port", 8087u16)?;
    let secs = args.get("secs", 300u64)?;
    let mut monitor = Monitor::new(config).expect("valid config");
    monitor.ingest_range(0, ticks);
    monitor.train(149).expect("train");
    for k in [400u64, 500, 600, ticks - 1] {
        monitor.evaluate_at(k).expect("evaluate");
    }
    let monitor = Arc::new(Mutex::new(monitor));
    let routes = dashboard_routes(monitor.clone(), ticks - 1, 300, 24, 0.0);
    let server = DashboardServer::start_with(port, routes.clone())
        .or_else(|_| DashboardServer::start_with(0, routes))
        .expect("bind");
    println!("dashboard at http://{}/", server.addr());
    println!("serving for {secs} seconds (ctrl-c to stop sooner)…");
    std::thread::sleep(std::time::Duration::from_secs(secs));
    server.stop();
    monitor.lock().shutdown();
    Ok(())
}

/// `pga import --nodes`: one region server and one salt bucket per node,
/// so 1..=255 — a salt is one byte, and a table needs a live server.
fn import_nodes(args: &Args) -> Result<u8, String> {
    args.get("nodes", 4u8)
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| "--nodes takes 1..=255".to_string())
}

/// Import external data (the paper's §VI plan of evaluating on industry
/// datasets): read OpenTSDB-style JSONL datapoints from a file, ingest
/// them into a fresh storage cluster, print a summary, and serve the
/// query API over the imported data.
fn cmd_import(rest: &[String]) -> Result<(), String> {
    use pga_cluster::coordinator::Coordinator;
    use pga_minibase::{Client, Master, RegionConfig, ServerConfig, TableDescriptor};
    use pga_tsdb::{KeyCodec, KeyCodecConfig, Tsd, TsdConfig, UidTable};
    use std::io::BufRead;

    let args = Args::parse(rest, &["file", "nodes", "port", "secs"], &[])?;
    let file: String = args.require("file")?;
    let nodes = import_nodes(&args)?;
    let port = args.get("port", 8087u16)?;
    let secs = args.get("secs", 0u64)?;
    let codec = KeyCodec::new(
        KeyCodecConfig {
            salt_buckets: nodes,
            row_span_secs: 3600,
        },
        UidTable::new(),
    );
    let coord = Coordinator::new(60_000);
    let mut master = Master::bootstrap(usize::from(nodes), ServerConfig::default(), coord, 0);
    master.create_table(&TableDescriptor {
        name: "tsdb".into(),
        split_points: codec.split_points(),
        region_config: RegionConfig::default(),
    });
    let tsd = Arc::new(Tsd::new(
        codec,
        Client::connect(&master),
        TsdConfig::default(),
    ));

    let reader = std::io::BufReader::new(std::fs::File::open(&file).unwrap_or_else(|e| {
        eprintln!("cannot open {file}: {e}");
        std::process::exit(1);
    }));
    let start = std::time::Instant::now();
    let mut imported = 0u64;
    let mut failed = 0u64;
    for line in reader.lines() {
        let line = line.expect("read line");
        if line.trim().is_empty() {
            continue;
        }
        match pga_tsdb::handle_put(&tsd, &line) {
            Ok(n) => imported += n as u64,
            Err(e) => {
                failed += 1;
                if failed <= 3 {
                    eprintln!("skipping bad line: {e}");
                }
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "imported {imported} points ({failed} bad lines) in {elapsed:.2}s — {:.0} points/sec",
        imported as f64 / elapsed
    );

    if secs > 0 {
        let routes: RequestHandler = {
            let tsd = tsd.clone();
            Arc::new(
                move |req: &HttpRequest| match (req.method.as_str(), req.path.as_str()) {
                    ("POST", "/api/put") => Some(match pga_tsdb::handle_put(&tsd, &req.body) {
                        Ok(n) => HttpResponse::json(format!("{{\"success\":{n}}}")),
                        Err(e) => HttpResponse::json_status(e.status(), e.to_json()),
                    }),
                    ("POST", "/api/query") => Some(match pga_tsdb::handle_query(&tsd, &req.body) {
                        Ok(json) => HttpResponse::json(json),
                        Err(e) => HttpResponse::json_status(e.status(), e.to_json()),
                    }),
                    ("GET", p) if p.starts_with("/api/suggest") => {
                        let qs = p.split_once('?').map_or("", |x| x.1);
                        Some(match pga_tsdb::handle_suggest(&tsd, qs) {
                            Ok(json) => HttpResponse::json(json),
                            Err(e) => HttpResponse::json_status(e.status(), e.to_json()),
                        })
                    }
                    _ => None,
                },
            )
        };
        let server = DashboardServer::start_with(port, routes.clone())
            .or_else(|_| DashboardServer::start_with(0, routes))
            .expect("bind");
        println!(
            "query API at http://{}/api/query for {secs}s",
            server.addr()
        );
        std::thread::sleep(std::time::Duration::from_secs(secs));
        server.stop();
    }
    master.shutdown();
    Ok(())
}

/// Run one row of the experiment table, exiting 1 when its verdict
/// fails. `crashtest --seed N` instead replays one seed.
fn cmd_experiment(experiment: &Experiment, rest: &[String]) -> Result<(), String> {
    let keys: &[&str] = if experiment.name == "crashtest" {
        &["seed", "schedule"]
    } else {
        &[]
    };
    let args = Args::parse(rest, keys, &SIZE_SWITCHES)?;
    if !args.values.is_empty() {
        if !args.switches.is_empty() {
            return Err("a --seed replay takes no size flag".into());
        }
        return cmd_replay(&args);
    }
    if experiment.execute(size(&args)?) == Some(false) {
        std::process::exit(1);
    }
    Ok(())
}

/// Replay one fault-injection seed — with its generated schedule, or an
/// explicit `--schedule` from a failing campaign's report — printing the
/// full trace. Exits 1 on any oracle violation.
fn cmd_replay(args: &Args) -> Result<(), String> {
    use pga_faultsim::{
        format_schedule, generate, parse_schedule, run_with_baseline, GeneratorConfig, SimConfig,
    };

    let sim = SimConfig::default();
    let seed: u64 = args.require("seed")?;
    let schedule = match args.values.get("schedule") {
        Some(text) => parse_schedule(text).map_err(|e| format!("bad --schedule: {e}"))?,
        None => generate(
            seed,
            &GeneratorConfig {
                nodes: sim.nodes as u32,
                steps: sim.steps,
                max_ops: 6,
                lease_ms: sim.lease_ms,
            },
        ),
    };
    let outcome = run_with_baseline(seed, &schedule, &sim);
    println!(
        "seed {seed}  schedule {}",
        if outcome.schedule.is_empty() {
            "(baseline)"
        } else {
            &outcome.schedule
        }
    );
    for event in &outcome.events {
        println!("  {event}");
    }
    println!(
        "acked {} batches / {} samples, {} retries, {} faults injected",
        outcome.stats.batches_acked,
        outcome.stats.samples_acked,
        outcome.stats.retries,
        outcome.stats.faults_injected()
    );
    if outcome.violations.is_empty() {
        println!("all invariants held");
        return Ok(());
    }
    for v in &outcome.violations {
        println!("VIOLATION: {v}");
    }
    println!(
        "replay: pga crashtest --seed {seed} --schedule {}",
        format_schedule(&schedule)
    );
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let rest = &args[1..];
    let result = match command.as_str() {
        // `analyze` keeps its own argument grammar.
        "analyze" => std::process::exit(pga_analyze::cli::run(rest)),
        "gen" => cmd_gen(rest),
        "demo" => cmd_demo(rest),
        "dashboard" => cmd_dashboard(rest),
        "import" => cmd_import(rest),
        name => match registry::find(name) {
            Some(experiment) => cmd_experiment(experiment, rest),
            None => Err(format!("unknown command `{name}`")),
        },
    };
    if let Err(e) = result {
        eprintln!("pga {command}: {e}\n");
        usage();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The commands implemented here; every other command is an experiment.
    const COMMANDS: [&str; 5] = ["gen", "demo", "dashboard", "import", "analyze"];

    fn parse(line: &str, keys: &[&str], switches: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&argv, keys, switches)
    }

    fn experiment_size(line: &str) -> Result<Size, String> {
        size(&parse(line, &[], &SIZE_SWITCHES)?)
    }

    #[test]
    fn a_switch_takes_no_value() {
        // `--mode` is not a flag any more, and `--smoke` cannot swallow it.
        assert!(parse("--smoke --mode full", &[], &SIZE_SWITCHES).is_err());
        assert_eq!(experiment_size("--smoke"), Ok(Size::Smoke));
        assert_eq!(experiment_size("--full"), Ok(Size::Full));
        assert_eq!(experiment_size(""), Ok(Size::Quick));
    }

    #[test]
    fn smoke_and_full_exclude_each_other_in_either_order() {
        assert!(experiment_size("--smoke --full").is_err());
        assert!(experiment_size("--full --smoke").is_err());
    }

    #[test]
    fn an_unparsable_value_is_an_error() {
        let args = parse("--seed 3x", &["seed", "schedule"], &SIZE_SWITCHES).unwrap();
        assert!(args.get("seed", 0u64).is_err());
        assert!(args.require::<u64>("seed").is_err());
        let args = parse("--units 4", &FLEET_KEYS, &[]).unwrap();
        assert_eq!(args.get("units", 8u32), Ok(4));
        assert_eq!(args.get("ticks", 10u64), Ok(10));
    }

    #[test]
    fn an_unknown_flag_is_an_error() {
        // Misspelt (`--sensor`) or retired (`--seeds`, `--storm-seeds`).
        assert!(parse("--sensor 6", &FLEET_KEYS, &[]).is_err());
        assert!(parse("--seeds 3x", &["seed", "schedule"], &SIZE_SWITCHES).is_err());
        assert!(parse("--storm-seeds 16", &[], &SIZE_SWITCHES).is_err());
        assert!(parse("units 4", &FLEET_KEYS, &[]).is_err());
    }

    #[test]
    fn a_missing_value_is_an_error() {
        assert!(parse("--units", &FLEET_KEYS, &[]).is_err());
        assert!(parse("--units --seed 3", &FLEET_KEYS, &[]).is_err());
        let args = parse("--nodes 2", &["file", "nodes"], &[]).unwrap();
        assert!(args.require::<String>("file").is_err());
    }

    #[test]
    fn import_nodes_outside_one_byte_of_salt_are_refused() {
        let nodes = |line: &str| import_nodes(&parse(line, &["file", "nodes"], &[]).unwrap());
        // 0 has no server to host the table; 256 and 300 would wrap the
        // one-byte salt to 0 and 44 buckets.
        for bad in ["--nodes 0", "--nodes 256", "--nodes 300", "--nodes -1"] {
            assert!(nodes(bad).is_err(), "{bad}");
        }
        assert_eq!(nodes("--nodes 1"), Ok(1));
        assert_eq!(nodes("--nodes 255"), Ok(255));
        assert_eq!(nodes(""), Ok(4));
    }

    #[test]
    fn usage_lists_every_experiment_and_commands_are_not_experiments() {
        let text = usage_text();
        let generated = &text[USAGE.len()..];
        for e in EXPERIMENTS {
            assert!(
                generated
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(e.name)),
                "{} missing from usage",
                e.name
            );
        }
        for command in COMMANDS {
            assert!(registry::find(command).is_none(), "{command}");
            assert!(text.contains(&format!("  {command} ")), "{command}");
        }
    }
}
