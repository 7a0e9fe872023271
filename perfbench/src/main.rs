//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --gbc PATH --work DIR --workload NAME --seed N --seconds S --trace 0|1
//!           [--size full|tiny] [--inject wrong-reference|unknown-session]
//! ```
//!
//! Workloads: `cli-prim` (`gbc run` as a child process, closed loop),
//! `serve-run` and `serve-mixed` (a `gbc serve` child driven over TCP,
//! open loop then closed loop). `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs the workload again with spans around every
//! layer call and prints the per-layer metrics. See `README.md`.

mod check;
mod cli_prim;
mod client;
mod config;
mod inputs;
mod loadgen;
mod out;
mod proc;
mod replay;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use gbc_telemetry::Json;

use config::Sizes;
use out::Out;

/// A deliberate fault, for the benchmark's self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    None,
    WrongReference,
    UnknownSession,
}

/// Settings of one run.
pub struct Ctx {
    pub gbc: PathBuf,
    pub work: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    pub inject: Inject,
    pub nproc: usize,
    /// Load-generator connections: [`config::CONNECTIONS`] capped at
    /// `nproc`.
    pub conns: usize,
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let get = |flag: &str| -> Option<String> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
    };
    let need = |v: Option<String>, flag: &str| v.ok_or(format!("missing {flag}"));
    let gbc = PathBuf::from(need(get("--gbc"), "--gbc")?);
    let work = PathBuf::from(need(get("--work"), "--work")?);
    let workload = need(get("--workload"), "--workload")?;
    let seed = need(get("--seed"), "--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = need(get("--seconds"), "--seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("bad --trace `{t}`")),
    };
    let sizes = match get("--size").as_deref() {
        None | Some("full") => Sizes::full(),
        Some("tiny") => Sizes::tiny(),
        Some(s) => return Err(format!("bad --size `{s}`")),
    };
    let inject = match get("--inject").as_deref() {
        None => Inject::None,
        Some("wrong-reference") => Inject::WrongReference,
        Some("unknown-session") => Inject::UnknownSession,
        Some(s) => return Err(format!("bad --inject `{s}`")),
    };
    if !["cli-prim", "serve-run", "serve-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (cli-prim, serve-run, serve-mixed)"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    // Children run in the work directory: make both paths absolute.
    let gbc = gbc.canonicalize().map_err(|e| format!("gbc binary {}: {e}", gbc.display()))?;
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let work = work.canonicalize().map_err(|e| e.to_string())?;
    let nproc = proc::nproc();
    Ok(Ctx {
        gbc,
        work,
        workload,
        seed,
        seconds,
        trace,
        sizes,
        inject,
        nproc,
        conns: config::CONNECTIONS.min(nproc).max(1),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("replay-cli") {
        return match replay::child_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("replay-cli: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let ctx = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Out::default();
    out.info("workload", Json::Str(ctx.workload.clone()));
    out.info("mode", Json::Str(if ctx.trace { "traced" } else { "untraced" }.into()));
    out.info("seed", Json::UInt(ctx.seed));
    out.info("seconds", out::num(ctx.seconds));
    out.info("nproc", Json::UInt(ctx.nproc as u64));
    out.info("connections", Json::UInt(ctx.conns as u64));
    out.info("commit", Json::Str(proc::commit()));
    let result = match ctx.workload.as_str() {
        "cli-prim" => cli_prim::run(&ctx, &mut out),
        _ => serve::run(&ctx, &mut out),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {} failed: {e}", ctx.workload);
        return ExitCode::FAILURE;
    }
    out.set("fail_frac", out.fail_frac(), "ratio");
    println!("{}", out.report_line());
    let names: Vec<(String, &'static str)> = if ctx.trace {
        out::per_layer_names()
    } else {
        out::END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    println!("{}", out.result_line(&names));
    ExitCode::SUCCESS
}
