//! The traced replay of `gbc run`, and the per-run layer readings shared
//! with the serve workloads' in-process timing.
//!
//! Each replay runs in a fresh child process (`perfbench replay-cli`),
//! so it starts with an empty value dictionary exactly as `gbc run`
//! does. The child makes the CLI's calls in the CLI's order — read,
//! `parse_program`, `diagnostics`, `compile`, `run_greedy_telemetry` at
//! the default thread count, `canonical_form`, write — with a span
//! around each, and prints the spans and readings on stdout.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use gbc_ast::diag::error_count;
use gbc_ast::SourceMap;
use gbc_core::{compile, GreedyConfig, GreedyRun};
use gbc_storage::{dict_stats, Database, DictStats};
use gbc_telemetry::Telemetry;

use crate::spans::Spans;

/// Layer readings of one operation, keyed by metric name.
pub type Vals = BTreeMap<String, f64>;

/// Span names a replay records, in call order: `gbc run`'s own work,
/// then what `--stats-json` would add.
pub const REPLAY_SPANS: [&str; 8] = [
    "cli.read",
    "parser.parse",
    "ast.validate",
    "core.compile",
    "exec.run",
    "storage.render",
    "cli.write",
    "telemetry.stats",
];

/// The spans that make up `gbc run`'s own work.
pub fn cli_spans() -> &'static [&'static str] {
    &REPLAY_SPANS[..7]
}

/// Readings of one executor run: phase timers, counters, pool report.
/// `run_ms` is the wall time of the `run_greedy_telemetry` call.
pub fn run_vals(vals: &mut Vals, tel: &Telemetry, run: &GreedyRun, run_ms: f64) {
    let phases = tel.phases.entries();
    let phase = |name: &str| {
        phases.iter().find(|(n, _, _)| n == name).map_or(0.0, |(_, secs, _)| secs * 1e3)
    };
    let s = &run.snapshot;
    let mut set = |k: &str, v: f64| {
        vals.insert(k.to_owned(), v);
    };
    set("exec.run_ms", run_ms);
    set("exec.setup_ms", run_ms - phase("run"));
    set("exec.feed_ms", phase("run/gamma/feed"));
    set("exec.choose_ms", phase("run/gamma/choose"));
    set("exec.commit_ms", phase("run/gamma/commit"));
    set("exec.exit_ms", phase("run/exit"));
    set("exec.gamma_steps", s.gamma_steps as f64);
    set("engine.flat_ms", phase("run/flat"));
    set("engine.flat_rounds", s.flat_rounds as f64);
    set(
        "engine.flat_rounds_per_step",
        if s.gamma_steps > 0 { s.flat_rounds as f64 / s.gamma_steps as f64 } else { 0.0 },
    );
    set("engine.tuples_derived", s.tuples_derived as f64);
    set("engine.index_probes", s.index_probes as f64);
    let (util, merge_ms, tasks) = match &run.pool {
        Some(p) => (
            p.utilization(),
            p.merge_nanos as f64 / 1e6,
            p.workers.iter().map(|w| w.tasks).sum::<u64>() as f64,
        ),
        None => (0.0, 0.0, 0.0),
    };
    set("engine.pool_utilization", util);
    set("engine.pool_merge_ms", merge_ms);
    set("engine.pool_tasks", tasks);
    set("storage.heap_ops", s.heap_ops() as f64);
    set("storage.heap_batch_pushes", s.heap_batch_pushes as f64);
    set("storage.rql_dominated", s.rql_dominated as f64);
    set("storage.queue_peak", s.queue_peak as f64);
}

pub fn dict_vals(vals: &mut Vals, d: &DictStats) {
    vals.insert("storage.dict_entries".into(), d.dict_entries as f64);
    vals.insert("storage.dict_encode_hits".into(), d.encode_hits as f64);
    vals.insert("storage.dict_decode_calls".into(), d.decode_calls as f64);
}

/// Medians over operations of every reading.
pub fn medians(reps: &[Vals]) -> Vals {
    let mut all: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in reps {
        for (k, v) in r {
            all.entry(k).or_default().push(*v);
        }
    }
    all.into_iter().map(|(k, v)| (k.to_owned(), crate::stats::median(&v))).collect()
}

/// `perfbench replay-cli [--plain] --out PATH --threads N FILE...`: one
/// replay. Prints `span NAME START_NS END_NS` and `val NAME VALUE`
/// lines. `--plain` runs as `gbc run` does by default — counters only,
/// no spans — and reports only the total.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let mut plain = false;
    let mut out_path = None;
    let mut threads = gbc_engine::default_threads();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--plain" => plain = true,
            "--out" => out_path = it.next().cloned(),
            "--threads" => {
                threads = it.next().and_then(|t| t.parse().ok()).ok_or("bad --threads")?;
            }
            f => files.push(f.to_owned()),
        }
    }
    let out_path = out_path.ok_or("missing --out")?;
    let spans = Spans::new();
    let t0 = Instant::now();
    let span = |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| {
        if plain {
            f()
        } else {
            spans.time_ms(name, "", 0, f).0
        }
    };
    let dict_base = dict_stats();
    let mut sm = SourceMap::new();
    span("cli.read", &mut || {
        for f in &files {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
            sm.add_file(f, &text);
        }
        Ok(())
    })?;
    let input_bytes = if plain { 0 } else { sm.source().len() };
    let mut program = None;
    span("parser.parse", &mut || {
        program = Some(gbc_parser::parse_program(&sm.source()).map_err(|e| e.to_string())?);
        Ok(())
    })?;
    let program = program.expect("parsed");
    span("ast.validate", &mut || {
        let diags = program.diagnostics();
        if error_count(&diags) > 0 {
            return Err("validation errors".into());
        }
        Ok(())
    })?;
    // `gbc run` compiles a clone and keeps the program for its reports.
    let mut clone = Some(program.clone());
    let mut compiled = None;
    span("core.compile", &mut || {
        compiled = Some(compile(clone.take().expect("once")).map_err(|e| e.to_string())?);
        Ok(())
    })?;
    let compiled = compiled.expect("compiled");
    let edb = Database::new();
    let tel = if plain { Telemetry::counters_only() } else { Telemetry::enabled() };
    let mut run = None;
    let t_run = Instant::now();
    span("exec.run", &mut || {
        run = Some(
            compiled
                .run_greedy_telemetry(&edb, GreedyConfig::with_threads(threads), &tel)
                .map_err(|e| e.to_string())?,
        );
        Ok(())
    })?;
    let run_ms = t_run.elapsed().as_secs_f64() * 1e3;
    let run = run.expect("ran");
    let mut text = String::new();
    span("storage.render", &mut || {
        text = run.db.canonical_form();
        Ok(())
    })?;
    span("cli.write", &mut || {
        let mut f = std::fs::File::create(&out_path).map_err(|e| e.to_string())?;
        f.write_all(text.as_bytes()).and_then(|()| f.write_all(b"\n")).map_err(|e| e.to_string())
    })?;
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    let dict = dict_stats().since(&dict_base);

    let mut vals = Vals::new();
    vals.insert("total_ms".into(), total_ms);
    if !plain {
        // Beyond `gbc run`'s default work: what `--stats-json` would add.
        let mut stats_len = 0;
        span("telemetry.stats", &mut || {
            stats_len = tel.to_json().to_string().len();
            Ok(())
        })?;
        run_vals(&mut vals, &tel, &run, run_ms);
        dict_vals(&mut vals, &dict);
        vals.insert("parser.input_kb".into(), input_bytes as f64 / 1024.0);
        vals.insert("storage.render_kb".into(), text.len() as f64 / 1024.0);
        vals.insert(
            "telemetry.counters_kb".into(),
            tel.snapshot().to_json().to_string().len() as f64 / 1024.0,
        );
        vals.insert("telemetry.stats_kb".into(), stats_len as f64 / 1024.0);
    }
    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    for s in spans.all() {
        let _ = writeln!(w, "span {} {} {}", s.name, s.start_ns, s.end_ns);
    }
    for (k, v) in &vals {
        let _ = writeln!(w, "val {k} {v}");
    }
    Ok(())
}

/// One replay's output, as read back by the parent.
pub struct Replay {
    pub spans: Vec<(String, u64, u64)>,
    pub vals: Vals,
}

/// Run one replay child and read its spans and readings.
pub fn run_child(
    files: &[&Path],
    out: &Path,
    threads: usize,
    plain: bool,
) -> Result<Replay, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("replay-cli");
    if plain {
        cmd.arg("--plain");
    }
    cmd.arg("--out").arg(out).args(["--threads", &threads.to_string()]).args(files);
    let o = cmd.stdin(Stdio::null()).stderr(Stdio::piped()).output().map_err(|e| e.to_string())?;
    if !o.status.success() {
        return Err(format!("replay failed: {}", String::from_utf8_lossy(&o.stderr)));
    }
    let mut r = Replay { spans: Vec::new(), vals: Vals::new() };
    for line in String::from_utf8_lossy(&o.stdout).lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["span", name, s, e] => r.spans.push((
                (*name).to_owned(),
                s.parse().map_err(|_| "bad span")?,
                e.parse().map_err(|_| "bad span")?,
            )),
            ["val", name, v] => {
                r.vals.insert((*name).to_owned(), v.parse().map_err(|_| "bad val")?);
            }
            _ => return Err(format!("unexpected replay line `{line}`")),
        }
    }
    Ok(r)
}
