//! The load generator: an open loop over a seeded arrival schedule and
//! a closed loop, each on at most `conns` threads with one connection
//! at a time apiece. Open-loop latency is timed from each operation's
//! due time, so a stall is charged to every request it delays.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What an operation was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `POST /run` on a preloaded session.
    Run,
    /// `POST /run` on the session a `/load` just installed.
    RunAfterLoad,
    /// `POST /load`.
    Load,
    /// `GET /metrics` or `GET /stats`.
    Scrape,
}

/// One measured request.
#[derive(Clone, Debug)]
pub struct Rec {
    pub kind: Kind,
    /// Session (or scrape target) name.
    pub tag: &'static str,
    pub ok: bool,
    /// Open loop: from the due time to the reply read. Closed loop:
    /// from the send. Failed requests count as at least the timeout.
    pub latency_ms: f64,
    /// From the due time until a connection picked the request up.
    pub queue_wait_ms: f64,
    /// How late the generator sent a request it was free to send on
    /// time.
    pub late_ms: Option<f64>,
    pub reply_bytes: usize,
    /// Seconds from the loop's start to the operation's due time (open
    /// loop) or send (closed loop).
    pub at_s: f64,
    /// Client step times of the exchange, ms from its start: connected,
    /// written, first byte, done.
    pub steps: Option<[f64; 4]>,
}

impl Rec {
    pub fn new(kind: Kind, tag: &'static str) -> Rec {
        Rec {
            kind,
            tag,
            ok: false,
            latency_ms: 0.0,
            queue_wait_ms: 0.0,
            late_ms: None,
            reply_bytes: 0,
            at_s: 0.0,
            steps: None,
        }
    }
}

/// An operation due `due` seconds after the loop starts.
pub struct Sched<T> {
    pub due: f64,
    pub op: T,
}

/// Runs one operation: given its due instant, appends one record per
/// request it made.
pub type Exec<'a, T> = &'a (dyn Fn(&T, Instant, &mut Vec<Rec>) + Sync);

/// Run `sched` in order on `conns` threads; returns the records.
pub fn open_loop<T: Sync>(sched: &[Sched<T>], conns: usize, exec: Exec<'_, T>) -> Vec<Rec> {
    let next = AtomicUsize::new(0);
    let all = Mutex::new(Vec::new());
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut recs = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(s) = sched.get(i) else { break };
                    let due = start + Duration::from_secs_f64(s.due);
                    let picked = Instant::now();
                    let (queue_wait, late) = if picked < due {
                        std::thread::sleep(due - picked);
                        (0.0, Some(Instant::now().duration_since(due).as_secs_f64() * 1e3))
                    } else {
                        ((picked - due).as_secs_f64() * 1e3, None)
                    };
                    let first = recs.len();
                    exec(&s.op, due, &mut recs);
                    for r in &mut recs[first..] {
                        r.at_s = s.due;
                    }
                    if let Some(r) = recs.get_mut(first) {
                        r.queue_wait_ms = queue_wait;
                        r.late_ms = late;
                    }
                }
                all.lock().expect("record sink").extend(recs);
            });
        }
    });
    all.into_inner().expect("record sink")
}

/// Run back to back on `conns` threads for `secs`; thread `w` runs
/// `next_op(w, k)` as its `k`-th operation. Returns the records and the
/// elapsed seconds.
pub fn closed_loop<T>(
    conns: usize,
    secs: f64,
    next_op: &(dyn Fn(usize, u64) -> T + Sync),
    exec: Exec<'_, T>,
) -> (Vec<Rec>, f64) {
    let all = Mutex::new(Vec::new());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    std::thread::scope(|scope| {
        for w in 0..conns {
            let all = &all;
            scope.spawn(move || {
                let mut recs = Vec::new();
                let mut k = 0;
                loop {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let first = recs.len();
                    exec(&next_op(w, k), now, &mut recs);
                    for r in &mut recs[first..] {
                        r.at_s = (now - start).as_secs_f64();
                    }
                    k += 1;
                }
                all.lock().expect("record sink").extend(recs);
            });
        }
    });
    (all.into_inner().expect("record sink"), start.elapsed().as_secs_f64())
}
