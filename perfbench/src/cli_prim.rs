//! `cli-prim`: a closed loop, one process at a time, of
//! `gbc run prim.dl graph.dl` with no flags, as a user would type it.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use gbc_telemetry::Json;

use crate::check::Reference;
use crate::config::{CLI_SETUP_REPS, TIMEOUT_MS, WINDOWS};
use crate::out::{Out, PER_LAYER, PER_SESSION};
use crate::replay::{self, Vals, REPLAY_SPANS};
use crate::spans::Spans;
use crate::stats::{beyond, median, percentile, window_pct, windowed};
use crate::{inputs, proc, Ctx, Inject};

/// One `gbc run`: wall time from spawn to exit with stdout drained, and
/// the stdout bytes (or why the run failed).
fn gbc_run(gbc: &Path, dir: &Path) -> (f64, Result<Vec<u8>, String>) {
    let t0 = Instant::now();
    let child = Command::new(gbc)
        .args(["run", "prim.dl", "graph.dl"])
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn();
    let mut child = match child {
        Ok(c) => c,
        Err(e) => return (t0.elapsed().as_secs_f64() * 1e3, Err(format!("spawn: {e}"))),
    };
    let mut stdout = Vec::new();
    let read = child.stdout.take().expect("piped stdout").read_to_end(&mut stdout);
    let status = child.wait();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let result = match (read, status) {
        (Ok(_), Ok(s)) if s.success() => Ok(stdout),
        (_, Ok(s)) => Err(format!("gbc run exited with {s}")),
        (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
    };
    (ms, result)
}

/// Accept `stdout` if it equals the verified output, or, before one is
/// verified, if it passes the reference check in full.
fn verify(
    stdout: &[u8],
    reference: &Reference,
    verified: &mut Option<Vec<u8>>,
) -> Result<(), String> {
    if let Some(v) = verified {
        return if v.as_slice() == stdout { Ok(()) } else { Err("output differs".into()) };
    }
    let text = std::str::from_utf8(stdout).map_err(|_| "stdout is not UTF-8".to_owned())?;
    reference.check(text)?;
    *verified = Some(stdout.to_vec());
    Ok(())
}

pub fn run(ctx: &Ctx, out: &mut Out) -> Result<(), String> {
    let dir = ctx.work.join("cli-prim");
    let cpu0 = proc::self_cpu_secs();
    let t_start = Instant::now();
    // Set-up, repeated before and after the measured loop so that its
    // median spans the run rather than one moment of the machine's
    // drifting speed.
    let before = CLI_SETUP_REPS.div_ceil(2);
    let mut setups = Vec::new();
    let (mut reference, mut verified) = (None, None);
    for i in 0..before {
        let (secs, r, v) = set_up(ctx, &dir, out, i == 0)?;
        setups.push(secs);
        (reference, verified) = (Some(r), v);
    }
    let reference = reference.expect("at least one set-up");

    let loop_secs = if ctx.trace { 0.4 * ctx.seconds } else { ctx.seconds };
    let runs = closed_loop(ctx, &dir, &reference, &mut verified, out, loop_secs);
    // A failed run counts as at least the timeout, so it misses every
    // latency limit.
    let latency = |&(_, ms, ok): &(f64, f64, bool)| if ok { ms } else { ms.max(TIMEOUT_MS) };
    let walls: Vec<f64> = runs.iter().map(latency).collect();
    let p50 = percentile(&walls, 50.0);
    let p90 = percentile(&walls, 90.0);
    out.pct("wall_ms_p50", p50, "ms");
    out.pct("wall_ms_p90", p90, "ms");
    // The gated figures: medians over time windows of the loop.
    let at: Vec<(f64, f64)> = runs.iter().map(|r| (r.0, latency(r))).collect();
    let n = walls.len();
    out.set_n("op_ms_p50", window_pct(&at, loop_secs, WINDOWS, 50.0), "ms", n);
    // Runs follow each other back to back, so a window's rate is its
    // verified runs over the time all its runs took, failed ones too.
    let by_start: Vec<(f64, (f64, bool))> = runs.iter().map(|&(t, ms, ok)| (t, (ms, ok))).collect();
    let rate = |w: &[(f64, bool)], _| {
        1e3 * w.iter().filter(|r| r.1).count() as f64 / w.iter().map(|r| r.0).sum::<f64>()
    };
    let verified_runs = runs.iter().filter(|r| r.2).count();
    let capacity = windowed(&by_start, loop_secs, WINDOWS, rate);
    out.set_n("capacity_rps", capacity, "1/s", verified_runs);
    out.info("p90_supported", Json::Bool(beyond(p90.samples, 90.0) >= 10));
    for _ in before..CLI_SETUP_REPS {
        setups.push(set_up(ctx, &dir, out, false)?.0);
    }
    out.set_n("setup_s", median(&setups), "s", setups.len());

    if ctx.trace {
        traced(ctx, out, &dir, verified.as_deref(), p50.value)?;
    }
    let cpu = proc::self_cpu_secs() - cpu0;
    out.set("bench.cpu_frac", cpu / t_start.elapsed().as_secs_f64(), "ratio");
    Ok(())
}

/// One set-up: write the inputs and make the first (cold) run, checked
/// in full. Returns its seconds, the reference and the verified output.
fn set_up(
    ctx: &Ctx,
    dir: &Path,
    out: &mut Out,
    first: bool,
) -> Result<(f64, Reference, Option<Vec<u8>>), String> {
    let inp = inputs::cli_prim(dir, &ctx.sizes, ctx.seed).map_err(|e| e.to_string())?;
    let mut r = inp.graph.reference.clone();
    if ctx.inject == Inject::WrongReference {
        r.corrupt();
    }
    if first {
        let (n, facts, bytes) = (ctx.sizes.cli_prim_n, inp.graph.facts, inp.graph.bytes);
        let program_bytes = std::fs::metadata(&inp.program).map_or(0, |m| m.len());
        let inputs = Json::obj(vec![
            ("graph_nodes", Json::UInt(n as u64)),
            ("graph_facts", Json::UInt(facts as u64)),
            ("graph_bytes", Json::UInt(bytes as u64)),
            ("program_bytes", Json::UInt(program_bytes)),
        ]);
        out.info("inputs", inputs);
    }
    let (ms, res) = gbc_run(&ctx.gbc, dir);
    let mut verified = None;
    let ok = res.and_then(|o| verify(&o, &r, &mut verified));
    if let Err(e) = &ok {
        eprintln!("cli-prim: set-up run failed: {e}");
    }
    out.op(ok.is_ok());
    Ok((ms / 1e3, r, verified))
}

/// Run `gbc run` back to back for `secs`; returns per run its start
/// (seconds into the loop), its wall time in ms and whether it was
/// verified.
fn closed_loop(
    ctx: &Ctx,
    dir: &Path,
    reference: &Reference,
    verified: &mut Option<Vec<u8>>,
    out: &mut Out,
    secs: f64,
) -> Vec<(f64, f64, bool)> {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let mut runs = Vec::new();
    while Instant::now() < deadline || runs.is_empty() {
        let at = t0.elapsed().as_secs_f64();
        let (ms, res) = gbc_run(&ctx.gbc, dir);
        let ok = res.and_then(|o| verify(&o, reference, verified));
        if let Err(e) = &ok {
            eprintln!("cli-prim: run failed: {e}");
        }
        out.op(ok.is_ok());
        runs.push((at, ms, ok.is_ok()));
    }
    runs
}

/// The traced run: replays of the CLI's call sequence in child
/// processes, plain (counters only, no spans) and traced.
fn traced(
    ctx: &Ctx,
    out: &mut Out,
    dir: &Path,
    verified: Option<&[u8]>,
    wall_p50: f64,
) -> Result<(), String> {
    let files = [dir.join("prim.dl"), dir.join("graph.dl")];
    let files: Vec<&Path> = files.iter().map(|p| p.as_path()).collect();
    let replay_out = dir.join("replay.out");
    let threads = gbc_engine::default_threads();
    let mut replays = |plain: bool, secs: f64| -> Result<Vec<replay::Replay>, String> {
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let mut reps = Vec::new();
        while reps.len() < 3 || Instant::now() < deadline {
            let r = replay::run_child(&files, &replay_out, threads, plain)?;
            let written = std::fs::read(&replay_out).map_err(|e| e.to_string())?;
            let ok = verified == Some(written.as_slice());
            out.op(ok);
            if !ok {
                eprintln!("cli-prim: replay output differs from `gbc run`");
            }
            reps.push(r);
        }
        Ok(reps)
    };
    let plain = replays(true, 0.2 * ctx.seconds)?;
    let traced = replays(false, 0.4 * ctx.seconds)?;

    let spans = Spans::new();
    for (op, r) in traced.iter().enumerate() {
        for (name, s, e) in &r.spans {
            let name = REPLAY_SPANS.iter().find(|n| *n == name);
            if let Some(name) = name {
                spans.push(name, "prim", op as u64, None, *s, *e);
            }
        }
    }
    let vals: Vec<Vals> = traced.iter().map(|r| r.vals.clone()).collect();
    let mut m = replay::medians(&vals);
    for name in REPLAY_SPANS {
        if name != "exec.run" {
            m.insert(format!("{name}_ms"), median(&spans.durations(name)));
        }
    }
    let attributed: f64 = replay::cli_spans().iter().map(|n| median(&spans.durations(n))).sum();
    m.insert("cli.attributed_frac".into(), attributed / wall_p50);
    m.insert("cli.unattributed_ms".into(), wall_p50 - attributed);
    let total = |reps: &[replay::Replay]| {
        median(&reps.iter().filter_map(|r| r.vals.get("total_ms").copied()).collect::<Vec<_>>())
    };
    m.insert("trace.overhead_frac".into(), total(&traced) / total(&plain) - 1.0);
    for (name, unit) in PER_LAYER {
        if let Some(v) = m.get(name) {
            out.set_n(name, *v, unit, traced.len());
        }
    }
    for (name, unit) in PER_SESSION {
        if let Some(v) = m.get(name) {
            out.set_n(&format!("{name}.prim"), *v, unit, traced.len());
        }
    }
    out.set("trace.spans", spans.len() as f64, "count");
    let replays = vec![
        ("plain", Json::UInt(plain.len() as u64)),
        ("traced", Json::UInt(traced.len() as u64)),
    ];
    out.info("replays", Json::obj(replays));
    spans.write_jsonl(&ctx.work.join("spans-cli-prim.jsonl")).map_err(|e| e.to_string())
}
