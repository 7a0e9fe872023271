//! `serve-run` and `serve-mixed`: a `gbc serve` child with three
//! preloaded one-file sessions, driven over TCP from this process.
//!
//! * `serve-run`: `POST /run` in a seeded 4 prim : 5 sort : 1 matching
//!   mix, as an open loop of Poisson arrivals, alternating with a closed
//!   loop on every connection to measure capacity and a sequential loop
//!   on one connection to measure latency without queueing.
//! * `serve-mixed`: the same server, with `POST /load` of a fresh
//!   inline prim program (each followed by a `POST /run` on it) beside
//!   `/run` traffic and a `/metrics` + `/stats` scrape about once a
//!   second; open loop, alternating with the same mix as a closed loop.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gbc_ast::diag::error_count;
use gbc_ast::SourceMap;
use gbc_core::{compile, GreedyConfig};
use gbc_serve::http::Request;
use gbc_serve::{router, ServerState, Session};
use gbc_storage::{dict_stats, Database};
use gbc_telemetry::{Json, Telemetry};

use crate::check::{result_field, Reference};
use crate::client::{self, Reply};
use crate::config::*;
use crate::inputs::{self, LoadBody};
use crate::loadgen::{self, Kind, Rec, Sched};
use crate::out::{self, Out, PER_LAYER, PER_SESSION};
use crate::proc::{self, Server};
use crate::replay::{self, Vals};
use crate::spans::Spans;
use crate::stats::{beyond, median, percentile, window_pct, window_rate, Rng};
use crate::{Ctx, Inject};

#[derive(Clone, Copy, Debug)]
enum Op {
    /// `POST /run` on preloaded session `Tenant::ALL[i]`.
    Run(usize),
    /// `POST /run` on a session that does not exist (self-test only).
    Unknown,
    /// The `k`-th `POST /load`, then a `POST /run` on it.
    Load(u64),
    /// `GET /metrics`, then `GET /stats`.
    Scrape,
}

/// Everything the generator threads share.
struct Fleet<'a> {
    ctx: &'a Ctx,
    addr: SocketAddr,
    refs: Vec<Reference>,
    /// The first verified `result` per session; later replies must
    /// equal it byte for byte.
    verified: Vec<Mutex<Option<String>>>,
    run_bodies: Vec<String>,
    /// Pre-generated `/load` bodies, by `k`.
    loads: HashMap<u64, LoadBody>,
    /// One lock per rotating load name, held from a `/load` until the
    /// `/run` on it answers, so two loads of one name never interleave.
    slots: Vec<Mutex<()>>,
    spans: Option<&'a Spans>,
    next_op: AtomicU64,
}

impl Fleet<'_> {
    fn load_body(&self, k: u64) -> LoadBody {
        let mut b = inputs::load_body(&self.ctx.sizes, self.ctx.seed, k, LOAD_NAMES);
        if self.ctx.inject == Inject::WrongReference {
            b.reference.corrupt();
        }
        b
    }

    /// One request, timed from `due`, recorded (and traced when spans
    /// are on).
    fn request(
        &self,
        kind: Kind,
        tag: &'static str,
        target: &str,
        body: Option<&str>,
        due: Instant,
        recs: &mut Vec<Rec>,
    ) -> Option<Reply> {
        let send_ns = self.spans.map(|s| s.now_ns());
        let reply = match body {
            Some(b) => client::post(self.addr, target, b),
            None => client::get(self.addr, target),
        };
        let mut rec = Rec::new(kind, tag);
        rec.latency_ms = due.elapsed().as_secs_f64() * 1e3;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{target} ({tag}): {e}");
                rec.latency_ms = rec.latency_ms.max(TIMEOUT_MS);
                recs.push(rec);
                return None;
            }
        };
        let ms = |ns: u64| ns as f64 / 1e6;
        rec.reply_bytes = reply.body.len();
        rec.steps = Some([
            ms(reply.connected_ns),
            ms(reply.written_ns),
            ms(reply.first_byte_ns),
            ms(reply.done_ns),
        ]);
        if let (Some(sp), Some(t0)) = (self.spans, send_ns) {
            let op = self.next_op.fetch_add(1, Ordering::SeqCst);
            let parent = Some(sp.push("client.request", tag, op, None, t0, t0 + reply.done_ns));
            let bounds =
                [0, reply.connected_ns, reply.written_ns, reply.first_byte_ns, reply.done_ns];
            let names = ["client.connect", "client.write", "client.wait", "client.read"];
            for (i, name) in names.into_iter().enumerate() {
                sp.push(name, tag, op, parent, t0 + bounds[i], t0 + bounds[i + 1]);
            }
        }
        recs.push(rec);
        Some(reply)
    }

    /// Mark the last record ok or failed; a failure misses every
    /// latency limit.
    fn settle(recs: &mut [Rec], ok: Result<(), String>) {
        let rec = recs.last_mut().expect("a request was recorded");
        match ok {
            Ok(()) => rec.ok = true,
            Err(e) => {
                eprintln!("{:?} ({}): {e}", rec.kind, rec.tag);
                rec.latency_ms = rec.latency_ms.max(TIMEOUT_MS);
            }
        }
    }

    fn check_run(&self, reply: Option<&Reply>, t: usize) -> Result<(), String> {
        let text = run_result(reply)?;
        let mut verified = self.verified[t].lock().expect("verified cell");
        match &*verified {
            Some(v) if *v == text => Ok(()),
            Some(_) => Err("result differs from the verified reply".into()),
            None => {
                self.refs[t].check(&text)?;
                *verified = Some(text);
                Ok(())
            }
        }
    }

    fn exec(&self, op: &Op, due: Instant, recs: &mut Vec<Rec>) {
        match *op {
            Op::Run(t) => {
                let tag = Tenant::ALL[t].name();
                let reply =
                    self.request(Kind::Run, tag, "/run", Some(&self.run_bodies[t]), due, recs);
                Self::settle(recs, self.check_run(reply.as_ref(), t));
            }
            Op::Unknown => {
                let body = inputs::run_body("nosuch");
                let reply = self.request(Kind::Run, "nosuch", "/run", Some(&body), due, recs);
                Self::settle(recs, run_result(reply.as_ref()).map(drop));
            }
            Op::Load(k) => {
                let owned;
                let load = match self.loads.get(&k) {
                    Some(l) => l,
                    None => {
                        owned = self.load_body(k);
                        &owned
                    }
                };
                let _slot = self.slots[(k % LOAD_NAMES) as usize].lock().expect("load slot");
                let reply = self.request(Kind::Load, "load", "/load", Some(&load.body), due, recs);
                let loaded = status_ok(reply.as_ref());
                Self::settle(recs, loaded.clone());
                if loaded.is_ok() {
                    let body = inputs::run_body(&load.name);
                    let reply = self.request(
                        Kind::RunAfterLoad,
                        "load",
                        "/run",
                        Some(&body),
                        Instant::now(),
                        recs,
                    );
                    let ok =
                        run_result(reply.as_ref()).and_then(|text| load.reference.check(&text));
                    Self::settle(recs, ok);
                }
            }
            Op::Scrape => {
                for (target, tag) in [("/metrics", "metrics"), ("/stats", "stats")] {
                    let due = if tag == "metrics" { due } else { Instant::now() };
                    let reply = self.request(Kind::Scrape, tag, target, None, due, recs);
                    let ok = status_ok(reply.as_ref()).and_then(|()| {
                        if reply.as_ref().is_some_and(|r| !r.body.is_empty()) {
                            Ok(())
                        } else {
                            Err("empty scrape".into())
                        }
                    });
                    Self::settle(recs, ok);
                }
            }
        }
    }
}

fn status_ok(reply: Option<&Reply>) -> Result<(), String> {
    match reply {
        Some(r) if r.status == 200 => Ok(()),
        Some(r) => Err(format!("status {}", r.status)),
        None => Err("no reply".into()),
    }
}

fn run_result(reply: Option<&Reply>) -> Result<String, String> {
    status_ok(reply)?;
    result_field(&reply.expect("status checked").body).ok_or_else(|| "reply has no `result`".into())
}

fn mix_weights() -> Vec<u32> {
    RUN_MIX.iter().map(|&(_, w)| w).collect()
}

/// Poisson arrivals of one stream over `secs`.
fn stream(
    rng: &mut Rng,
    rate: f64,
    secs: f64,
    mut op: impl FnMut(&mut Rng) -> Op,
) -> Vec<Sched<Op>> {
    let mut out = Vec::new();
    let mut t = rng.exp_gap(rate);
    while t < secs {
        out.push(Sched { due: t, op: op(rng) });
        t += rng.exp_gap(rate);
    }
    out
}

/// The open-loop schedule of a workload. Load numbers start at
/// `first_load`.
fn schedule(ctx: &Ctx, mixed: bool, secs: f64, tag: u64, first_load: u64) -> Vec<Sched<Op>> {
    let mut rng = Rng::new(inputs::sub_seed(ctx.seed, tag));
    let w = mix_weights();
    let mut sched = if mixed {
        let mut k = first_load;
        let mut all = stream(&mut rng, MIXED_RUN_RATE, secs, |r| Op::Run(r.weighted(&w)));
        all.extend(stream(&mut rng, MIXED_LOAD_RATE, secs, |_| {
            k += 1;
            Op::Load(k - 1)
        }));
        all.extend(stream(&mut rng, MIXED_SCRAPE_RATE, secs, |_| Op::Scrape));
        all.sort_by(|a, b| a.due.total_cmp(&b.due));
        all
    } else {
        stream(&mut rng, SERVE_RUN_RATE, secs, |r| Op::Run(r.weighted(&w)))
    };
    if ctx.inject == Inject::UnknownSession {
        for s in sched.iter_mut().skip(9).step_by(10) {
            s.op = Op::Unknown;
        }
    }
    sched
}

/// The `k`-th operation of closed-loop thread `w`; `loop_id` tells the
/// capacity loop (0) from the sequential loop (1).
fn closed_op(ctx: &Ctx, mixed: bool, loads: &AtomicU64, loop_id: u64, w: usize, k: u64) -> Op {
    if ctx.inject == Inject::UnknownSession && k % 10 == 9 {
        return Op::Unknown;
    }
    let key = 0x1000_0000 + (loop_id << 56) + ((w as u64) << 48) + k;
    let mut rng = Rng::new(inputs::sub_seed(ctx.seed, key));
    let run = Op::Run(rng.weighted(&mix_weights()));
    if !mixed {
        return run;
    }
    let rates = [MIXED_RUN_RATE, MIXED_LOAD_RATE, MIXED_SCRAPE_RATE].map(|r| (r * 10.0) as u32);
    match rng.weighted(&rates) {
        0 => run,
        1 => Op::Load(loads.fetch_add(1, Ordering::SeqCst)),
        _ => Op::Scrape,
    }
}

/// The sequential loop's `k`-th operation: a `/run` drawn from the mix
/// on serve-run, a `/load` (then a `/run` on it) on serve-mixed.
fn seq_op(ctx: &Ctx, mixed: bool, loads: &AtomicU64, k: u64) -> Op {
    match closed_op(ctx, false, loads, 1, 0, k) {
        Op::Run(_) if mixed => Op::Load(loads.fetch_add(1, Ordering::SeqCst)),
        op => op,
    }
}

/// Median latency of the headline operation: `/load` on serve-mixed;
/// on serve-run `/run` per session, weighted by the mix.
fn headline_p50(recs: &[Rec], mixed: bool) -> f64 {
    if mixed {
        return percentile(&lat(recs, &[Kind::Load]), 50.0).value;
    }
    let total_w: f64 = RUN_MIX.iter().map(|&(_, w)| f64::from(w)).sum();
    RUN_MIX
        .iter()
        .map(|&(t, w)| {
            let session: Vec<f64> = recs
                .iter()
                .filter(|r| r.kind == Kind::Run && r.tag == t.name())
                .map(|r| r.latency_ms)
                .collect();
            percentile(&session, 50.0).value * f64::from(w) / total_w
        })
        .sum()
}

fn lat(recs: &[Rec], kinds: &[Kind]) -> Vec<f64> {
    recs.iter().filter(|r| kinds.contains(&r.kind)).map(|r| r.latency_ms).collect()
}

pub fn run(ctx: &Ctx, out: &mut Out) -> Result<(), String> {
    let mixed = ctx.workload == "serve-mixed";
    let shares = if mixed { MIXED_SHARES } else { RUN_SHARES };
    let dir = ctx.work.join(&ctx.workload);
    let cpu0 = proc::self_cpu_secs();
    let t_start = Instant::now();
    let sessions = inputs::sessions(&dir, &ctx.sizes, ctx.seed).map_err(|e| e.to_string())?;
    let files: Vec<String> = Tenant::ALL.iter().map(|t| format!("{}.dl", t.name())).collect();
    let size = |facts: usize, bytes: usize| {
        Json::obj(vec![("facts", Json::UInt(facts as u64)), ("bytes", Json::UInt(bytes as u64))])
    };
    let mut info: Vec<(&str, Json)> = Tenant::ALL
        .iter()
        .zip(&sessions)
        .map(|(t, s)| (t.name(), size(s.facts, s.bytes)))
        .collect();
    if mixed {
        let b = inputs::load_body(&ctx.sizes, ctx.seed, 0, LOAD_NAMES);
        info.push(("load_body", Json::obj(vec![("bytes", Json::UInt(b.body.len() as u64))])));
    }
    out.info("inputs", Json::obj(info));
    let mix: Vec<String> = RUN_MIX.iter().map(|(t, w)| format!("{w} {}", t.name())).collect();
    let settings = vec![
        ("server_threads", Json::UInt(SERVER_THREADS as u64)),
        ("run_mix", Json::Str(mix.join(" : "))),
        ("run_rate", out::num(if mixed { MIXED_RUN_RATE } else { SERVE_RUN_RATE })),
        ("load_rate", out::num(if mixed { MIXED_LOAD_RATE } else { 0.0 })),
        ("scrape_rate", out::num(if mixed { MIXED_SCRAPE_RATE } else { 0.0 })),
        ("phase_shares", Json::Arr(shares.iter().map(|&x| out::num(x)).collect())),
    ];
    out.info("settings", Json::obj(settings));

    // Set-up: spawn the server with its preloaded sessions until
    // `/healthz` answers. It is repeated before and after the measured
    // phases so that its median spans the run rather than one moment of
    // the machine's drifting speed; the last spawn before serves the run.
    let before = SERVE_SETUP_REPS.div_ceil(2);
    let mut setups = Vec::new();
    let mut spawn = || -> Result<Server, String> {
        let (s, secs) = Server::start(&ctx.gbc, &dir, &files, SERVER_THREADS)?;
        setups.push(secs);
        Ok(s)
    };
    let mut server = None;
    for _ in 0..before {
        drop(server.take());
        server = Some(spawn()?);
    }
    let server = server.expect("at least one set-up");

    let spans = Spans::new();
    let mut refs: Vec<Reference> = sessions.iter().map(|s| s.reference.clone()).collect();
    if ctx.inject == Inject::WrongReference {
        refs.iter_mut().for_each(Reference::corrupt);
    }
    let mut fleet = Fleet {
        ctx,
        addr: server.addr,
        refs,
        verified: Tenant::ALL.iter().map(|_| Mutex::new(None)).collect(),
        run_bodies: Tenant::ALL.iter().map(|t| inputs::run_body(t.name())).collect(),
        loads: HashMap::new(),
        slots: (0..LOAD_NAMES).map(|_| Mutex::new(())).collect(),
        spans: None,
        next_op: AtomicU64::new(0),
    };
    // Warm-up: the first reply of every session, checked in full.
    let mut warm = Vec::new();
    for t in 0..Tenant::ALL.len() {
        fleet.exec(&Op::Run(t), Instant::now(), &mut warm);
    }
    warm.iter().for_each(|r| out.op(r.ok));
    let rss0 = proc::status_kb(server.pid(), "VmRSS");

    // The measured phases: the open loop, then (untraced) the closed
    // loop and the sequential loop, alternated ROUNDS times. Each
    // phase's time axis runs on across its rounds, and each round's
    // slice of a phase is one of its windows.
    let open_secs = if ctx.trace { 0.35 * ctx.seconds } else { shares[0] * ctx.seconds };
    let closed_secs = shares[1] * ctx.seconds;
    let seq_secs = shares[2] * ctx.seconds;
    let rounds = if ctx.trace { 1 } else { ROUNDS };
    let headline = if mixed { vec![Kind::Load] } else { vec![Kind::Run] };
    let sched = schedule(ctx, mixed, open_secs, 10, 0);
    let first = 1 << 40;
    let closed_loads = AtomicU64::new(first);
    let ready = if mixed && !ctx.trace {
        (LOADS_PER_SEC * (closed_secs + seq_secs)).ceil() as u64
    } else {
        0
    };
    let mut loads = loads_of(&fleet, &sched);
    loads.extend((first..first + ready).map(|k| (k, fleet.load_body(k))));
    fleet.loads = loads;
    let (mut open, mut closed, mut seq, mut elapsed) = (Vec::new(), Vec::new(), Vec::new(), 0.0);
    for round in 0..rounds {
        let share = |secs: f64, r: usize| secs * r as f64 / rounds as f64;
        let (lo, hi) = (share(open_secs, round), share(open_secs, round + 1));
        let part: Vec<Sched<Op>> = sched
            .iter()
            .filter(|s| s.due >= lo && s.due < hi)
            .map(|s| Sched { due: s.due - lo, op: s.op })
            .collect();
        let mut recs =
            loadgen::open_loop(&part, ctx.conns, &|op, due, recs| fleet.exec(op, due, recs));
        recs.iter_mut().for_each(|r| r.at_s += lo);
        open.extend(recs);
        if !ctx.trace {
            let (mut recs, secs) = loadgen::closed_loop(
                ctx.conns,
                closed_secs / rounds as f64,
                &|w, k| closed_op(ctx, mixed, &closed_loads, 0, w, ((round as u64) << 32) + k),
                &|op, due, recs| fleet.exec(op, due, recs),
            );
            recs.iter_mut().for_each(|r| r.at_s += share(closed_secs, round));
            closed.extend(recs);
            elapsed += secs;
        }
        if !ctx.trace {
            let (mut recs, _) = loadgen::closed_loop(
                1,
                seq_secs / rounds as f64,
                &|_, k| seq_op(ctx, mixed, &closed_loads, ((round as u64) << 32) + k),
                &|op, due, recs| fleet.exec(op, due, recs),
            );
            recs.iter_mut().for_each(|r| r.at_s += share(seq_secs, round));
            seq.extend(recs);
        }
    }
    open.iter().for_each(|r| out.op(r.ok));
    let mut all_loads = open.iter().filter(|r| r.kind == Kind::Load).count();

    let runs = lat(&open, &[Kind::Run, Kind::RunAfterLoad]);
    let (p50, p99) = (percentile(&runs, 50.0), percentile(&runs, 99.0));
    out.pct("run_ms_p50", p50, "ms");
    out.pct("run_ms_p99", p99, "ms");
    out.info("run_p99_supported", Json::Bool(beyond(p99.samples, 99.0) >= 10));
    let head = lat(&open, &headline);
    let (h50, h90) = (percentile(&head, 50.0), percentile(&head, 90.0));
    if mixed {
        out.pct("load_ms_p50", h50, "ms");
        out.pct("load_ms_p90", h90, "ms");
        out.info("load_p90_supported", Json::Bool(beyond(h90.samples, 90.0) >= 10));
    }
    // The gated figure: a median latency per time window, and the
    // median of those over the windows, taken in the sequential loop:
    // open-loop latency adds queueing, which multiplies any slowdown of
    // a shared machine. On serve-run it is taken per session and
    // weighted by the mix: the median of the whole mix sits on the tail
    // of the fast sessions' latencies and jumps with the share of slow
    // requests a window happens to draw.
    let window_p50 = |recs: &[Rec], secs: f64, keep: &dyn Fn(&Rec) -> bool| {
        let at: Vec<(f64, f64)> =
            recs.iter().filter(|r| keep(r)).map(|r| (r.at_s, r.latency_ms)).collect();
        (window_pct(&at, secs, rounds, 50.0), at.len())
    };
    let total_w: f64 = RUN_MIX.iter().map(|&(_, w)| f64::from(w)).sum();
    let mut seq_p50 = (0.0, 0);
    for (t, w) in RUN_MIX {
        let session = |r: &Rec| r.kind == Kind::Run && r.tag == t.name();
        let (p, n) = window_p50(&open, open_secs, &session);
        out.set_n(&format!("run_ms_p50.{}", t.name()), p, "ms", n);
        if !mixed && !seq.is_empty() {
            let (p, n) = window_p50(&seq, seq_secs, &session);
            out.set_n(&format!("seq_ms_p50.{}", t.name()), p, "ms", n);
            seq_p50 = (seq_p50.0 + p * f64::from(w) / total_w, seq_p50.1 + n);
        }
    }
    if mixed && !seq.is_empty() {
        let (p, n) = window_p50(&seq, seq_secs, &|r| r.kind == Kind::Load);
        out.set_n("seq_load_ms_p50", p, "ms", n);
        out.set_n("op_ms_p50", p, "ms", n);
    } else if !seq.is_empty() {
        out.set_n("seq_ms_p50", seq_p50.0, "ms", seq_p50.1);
        out.set_n("op_ms_p50", seq_p50.0, "ms", seq_p50.1);
    }
    let late: Vec<f64> = open.iter().filter_map(|r| r.late_ms).collect();
    let late_p99 = percentile(&late, 99.0);
    out.pct("bench.late_ms_p99", late_p99, "ms");
    out.info("generator_valid", Json::Bool(late_p99.value < 5.0));
    let waits: Vec<f64> = open.iter().map(|r| r.queue_wait_ms).collect();
    out.pct("serve.queue_wait_ms_p99", percentile(&waits, 99.0), "ms");

    if ctx.trace {
        all_loads += traced(ctx, out, &mut fleet, &spans, mixed, headline_p50(&open, mixed))?;
    } else {
        closed.iter().chain(&seq).for_each(|r| out.op(r.ok));
        all_loads += closed.iter().chain(&seq).filter(|r| r.kind == Kind::Load).count();
        if mixed {
            let inline = (closed_loads.load(Ordering::SeqCst) - first).saturating_sub(ready);
            out.info("loads_inline", Json::UInt(inline));
        }
        let counted: Vec<&Rec> =
            closed.iter().filter(|r| r.ok && (mixed || r.kind == Kind::Run)).collect();
        if !mixed {
            let rps = counted.len() as f64 / elapsed;
            out.set_n("run_capacity_rps", rps, "1/s", counted.len());
        }
        let at: Vec<(f64, f64)> = counted.iter().map(|r| (r.at_s, 1.0)).collect();
        out.set_n("capacity_rps", window_rate(&at, closed_secs, rounds), "1/s", counted.len());
    }

    let pid = server.pid();
    out.set("peak_rss_mb", proc::status_kb(pid, "VmHWM") / 1024.0, "MB");
    if mixed && all_loads > 0 {
        let grown = proc::status_kb(pid, "VmRSS") - rss0;
        out.set("serve.rss_kb_per_load", grown / all_loads as f64, "KB");
    }
    drop(server);
    for _ in before..SERVE_SETUP_REPS {
        spawn()?;
    }
    out.set_n("setup_s", median(&setups), "s", setups.len());
    let cpu = proc::self_cpu_secs() - cpu0;
    out.set("bench.cpu_frac", cpu / t_start.elapsed().as_secs_f64(), "ratio");
    Ok(())
}

fn loads_of(fleet: &Fleet<'_>, sched: &[Sched<Op>]) -> HashMap<u64, LoadBody> {
    sched
        .iter()
        .filter_map(|s| match s.op {
            Op::Load(k) => Some((k, fleet.load_body(k))),
            _ => None,
        })
        .collect()
}

/// The traced run: the same open loop again with client spans, then the
/// server's calls timed in-process on a `ServerState` holding identical
/// sessions. Returns the loads it made over TCP.
fn traced<'a>(
    ctx: &Ctx,
    out: &mut Out,
    fleet: &mut Fleet<'a>,
    spans: &'a Spans,
    mixed: bool,
    untraced_p50: f64,
) -> Result<usize, String> {
    let secs = 0.35 * ctx.seconds;
    let sched = schedule(ctx, mixed, secs, 11, 1 << 20);
    fleet.loads = loads_of(fleet, &sched);
    fleet.spans = Some(spans);
    let mut recs =
        loadgen::open_loop(&sched, ctx.conns, &|op, due, recs| fleet.exec(op, due, recs));
    if !mixed {
        // serve-run's traffic has no scrapes; take a few now.
        for _ in 0..5 {
            fleet.exec(&Op::Scrape, Instant::now(), &mut recs);
        }
    }
    fleet.spans = None;
    recs.iter().for_each(|r| out.op(r.ok));
    let loads = recs.iter().filter(|r| r.kind == Kind::Load).count();
    let traced_p50 = headline_p50(&recs, mixed);
    out.set("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0, "ratio");

    // Client-side readings: time from send to the last reply byte, and
    // reply size, per session (and for loads and scrapes).
    let client = |tag: &str, kind: Kind| -> (f64, f64, usize) {
        let rs: Vec<&Rec> =
            recs.iter().filter(|r| r.ok && r.tag == tag && r.kind == kind).collect();
        let ms: Vec<f64> = rs.iter().filter_map(|r| r.steps.map(|s| s[3])).collect();
        let kb: Vec<f64> = rs.iter().map(|r| r.reply_bytes as f64 / 1024.0).collect();
        (median(&ms), median(&kb), rs.len())
    };
    let scrape_tags = ["metrics", "stats"];
    let scrape_ms: Vec<f64> = scrape_tags.iter().map(|t| client(t, Kind::Scrape).0).collect();
    let scrape_kb: Vec<f64> = scrape_tags.iter().map(|t| client(t, Kind::Scrape).1).collect();
    out.set("serve.scrape_ms", scrape_ms.iter().sum(), "ms");
    out.set("serve.scrape_kb", scrape_kb.iter().sum(), "KB");

    let inproc = in_process(ctx, fleet, mixed, spans, 0.3 * ctx.seconds)?;
    inproc.ops.iter().for_each(|ok| out.op(*ok));

    // Per session, then the traffic mix's weighted mean without suffix.
    let mut weighted = Vals::new();
    let total_w: f64 = RUN_MIX.iter().map(|&(_, w)| f64::from(w)).sum();
    for (i, &(t, w)) in RUN_MIX.iter().enumerate() {
        let mut v = inproc.runs[i].clone();
        let (ms, kb, n) = client(t.name(), Kind::Run);
        v.insert(
            "serve.transport_ms".into(),
            ms - v.get("serve.dispatch_ms").copied().unwrap_or(0.0),
        );
        v.insert("serve.reply_kb".into(), kb);
        for (name, unit) in PER_SESSION {
            if let Some(x) = v.get(name) {
                out.set_n(&format!("{name}.{}", t.name()), *x, unit, n);
            }
        }
        for (k, x) in v {
            *weighted.entry(k).or_insert(0.0) += x * f64::from(w) / total_w;
        }
    }
    if mixed {
        // The headline operation is `/load`: its own dispatch, client
        // time, reply and parsing replace the `/run` figures.
        let (ms, kb, _) = client("load", Kind::Load);
        let l = &inproc.load;
        weighted.insert(
            "serve.transport_ms".into(),
            ms - l.get("serve.dispatch_ms").copied().unwrap_or(0.0),
        );
        weighted.insert("serve.reply_kb".into(), kb);
        weighted.extend(l.iter().map(|(k, v)| (k.clone(), *v)));
    } else {
        weighted.extend(inproc.boot.iter().map(|(k, v)| (k.clone(), *v)));
    }
    out.set("trace.spans", spans.len() as f64, "count");
    for (name, unit) in PER_LAYER {
        if let Some(v) = weighted.get(name) {
            out.set(name, *v, unit);
        }
    }
    let name = format!("spans-{}.jsonl", ctx.workload);
    spans.write_jsonl(&ctx.work.join(name)).map_err(|e| e.to_string())?;
    Ok(loads)
}

/// Medians of the in-process readings.
struct InProcess {
    /// Per preloaded session, in [`RUN_MIX`] order.
    runs: Vec<Vals>,
    /// Booting the sessions: parse, validate, compile and install,
    /// summed over the three files.
    boot: Vals,
    /// One `/load` (serve-mixed only).
    load: Vals,
    /// Outcome of every checked in-process operation.
    ops: Vec<bool>,
}

fn post(path: &str, body: &str) -> Request {
    Request { method: "POST".into(), path: path.into(), query: Vec::new(), body: body.into() }
}

/// Parse, validate, compile and install `text` as session `name` into
/// `state`, the way `gbc serve` preloads a file and `POST /load`
/// installs a body, with a span around each call.
fn install(
    state: &ServerState,
    spans: &Spans,
    op: u64,
    tag: &'static str,
    name: &str,
    text: &str,
) -> Result<Vals, String> {
    let mut v = Vals::new();
    let mut sm = SourceMap::new();
    sm.add_file(name, text);
    let (program, ms) =
        spans.time_ms("parser.parse", tag, op, || gbc_parser::parse_program(&sm.source()));
    v.insert("parser.parse_ms".into(), ms);
    let program = program.map_err(|e| e.to_string())?;
    let (diags, ms) = spans.time_ms("ast.validate", tag, op, || program.diagnostics());
    v.insert("ast.validate_ms".into(), ms);
    if error_count(&diags) > 0 {
        return Err(format!("{name}: validation errors"));
    }
    let (compiled, ms) = spans.time_ms("core.compile", tag, op, || compile(program));
    v.insert("core.compile_ms".into(), ms);
    let compiled = compiled.map_err(|e| e.to_string())?;
    let ((), ms) = spans.time_ms("serve.install", tag, op, || {
        state.install(Session::new(name, "<inline>", compiled, Database::new()))
    });
    v.insert("serve.install_ms".into(), ms);
    v.insert("parser.input_kb".into(), text.len() as f64 / 1024.0);
    Ok(v)
}

/// One `/run` through the whole handler, then the handler's parts one
/// by one: body parsing, the executor, rendering, stats assembly.
fn run_parts(
    state: &ServerState,
    spans: &Spans,
    op: u64,
    tag: &'static str,
    body: &str,
    verified: &Mutex<Option<String>>,
) -> Result<(Vals, bool), String> {
    let mut v = Vals::new();
    let (resp, ms) =
        spans.time_ms("serve.dispatch", tag, op, || router::dispatch(state, &post("/run", body)));
    v.insert("serve.dispatch_ms".into(), ms);
    let same = {
        let verified = verified.lock().expect("verified cell");
        resp.status == 200 && verified.is_some() && result_field(&resp.body) == *verified
    };
    let (json, ms) = spans.time_ms("telemetry.json_parse", tag, op, || Json::parse(body));
    v.insert("telemetry.json_parse_ms".into(), ms);
    json.map_err(|e| e.to_string())?;
    let session = state.session(tag).ok_or("session vanished")?;
    let dict_base = dict_stats();
    let tel = Telemetry::enabled().with_round_latency();
    let (run, run_ms) = spans.time_ms("exec.run", tag, op, || {
        session.compiled.run_greedy_telemetry(&session.edb, GreedyConfig::with_threads(1), &tel)
    });
    let run = run.map_err(|e| e.to_string())?;
    replay::run_vals(&mut v, &tel, &run, run_ms);
    let (text, ms) = spans.time_ms("storage.render", tag, op, || run.db.canonical_form());
    v.insert("storage.render_ms".into(), ms);
    v.insert("storage.render_kb".into(), text.len() as f64 / 1024.0);
    // What the handler assembles besides the result: the stats report
    // pinned to the session and the reply's counters.
    let ((stats_len, counters_len), ms) = spans.time_ms("telemetry.stats", tag, op, || {
        let mut stats = tel.to_json();
        if let (Some(h), Json::Obj(f)) = (tel.round_latency(), &mut stats) {
            let latency = vec![("threads", Json::UInt(1)), ("rounds", h.to_json())];
            f.push(("latency".into(), Json::obj(latency)));
        }
        (stats.to_string().len(), tel.snapshot().to_json().to_string().len())
    });
    v.insert("telemetry.stats_ms".into(), ms);
    v.insert("telemetry.stats_kb".into(), stats_len as f64 / 1024.0);
    v.insert("telemetry.counters_kb".into(), counters_len as f64 / 1024.0);
    replay::dict_vals(&mut v, &dict_stats().since(&dict_base));
    Ok((v, same))
}

/// One `/load` through the handler and the first `/run` on the session
/// it installed (the run interns the program's fresh constants, so the
/// dictionary figures cover both), then the load's parts on a second
/// fresh body: JSON parsing, then parse, validate, compile and install.
fn load_parts(
    state: &ServerState,
    spans: &Spans,
    op: u64,
    fleet: &Fleet<'_>,
    k: u64,
) -> Result<(Vals, bool), String> {
    let l = fleet.load_body(k);
    let base = dict_stats();
    let (resp, dispatch_ms) = spans
        .time_ms("serve.dispatch", "load", op, || router::dispatch(state, &post("/load", &l.body)));
    let run = router::dispatch(state, &post("/run", &inputs::run_body(&l.name)));
    let d = dict_stats().since(&base);
    let ran = result_field(&run.body).is_some_and(|text| l.reference.check(&text).is_ok());
    let l2 = fleet.load_body(k + 1);
    let (json, parse_ms) =
        spans.time_ms("telemetry.json_parse", "load", op, || Json::parse(&l2.body));
    let json = json.map_err(|e| e.to_string())?;
    let text = json.get("program").and_then(Json::as_str).ok_or("load body has no program")?;
    let mut v = install(state, spans, op, "load", "inproc-load", text)?;
    v.insert("serve.dispatch_ms".into(), dispatch_ms);
    v.insert("telemetry.json_parse_ms".into(), parse_ms);
    replay::dict_vals(&mut v, &d);
    Ok((v, resp.status == 200 && run.status == 200 && ran))
}

fn in_process(
    ctx: &Ctx,
    fleet: &Fleet<'_>,
    mixed: bool,
    spans: &Spans,
    secs: f64,
) -> Result<InProcess, String> {
    let state = ServerState::new();
    let dir = ctx.work.join(&ctx.workload);
    let mut ops = Vec::new();
    let mut op = 1u64 << 40;
    let mut boot = Vals::new();
    for t in Tenant::ALL {
        let path = dir.join(format!("{}.dl", t.name()));
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        for (k, v) in install(&state, spans, op, "boot", t.name(), &text)? {
            *boot.entry(k).or_insert(0.0) += v;
        }
        op += 1;
    }
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(secs);
    let mut runs: Vec<Vec<Vals>> = vec![Vec::new(); RUN_MIX.len()];
    let mut loads: Vec<Vals> = Vec::new();
    let mut k = 1u64 << 30;
    let mut rep = 0;
    while rep < 5 || Instant::now() < deadline {
        rep += 1;
        for (i, &(t, _)) in RUN_MIX.iter().enumerate() {
            let ti = Tenant::ALL.iter().position(|x| *x == t).expect("tenant");
            let (v, same) =
                run_parts(&state, spans, op, t.name(), &fleet.run_bodies[ti], &fleet.verified[ti])?;
            ops.push(same);
            runs[i].push(v);
            op += 1;
        }
        if mixed {
            let (v, ok) = load_parts(&state, spans, op, fleet, k)?;
            ops.push(ok);
            loads.push(v);
            k += 2;
            op += 1;
        }
    }
    Ok(InProcess {
        runs: runs.iter().map(|r| replay::medians(r)).collect(),
        boot,
        load: replay::medians(&loads),
        ops,
    })
}
