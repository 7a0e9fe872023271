//! Fixed benchmark settings. Input sizes, offered rates, the traffic
//! mix and the server's worker count live here and nowhere else; none
//! of them is derived at run time.

/// `gbc serve --threads`: HTTP worker threads of the server under test.
pub const SERVER_THREADS: usize = 2;

/// Connections (and load-generator threads) the client uses, capped at
/// the number of cores the machine reports.
pub const CONNECTIONS: usize = 2;

/// Largest edge cost drawn by the graph generators.
pub const MAX_COST: i64 = 1_000_000;

/// `POST /run` traffic mix over the preloaded sessions, as weights:
/// about 4 prim : 5 sort : 1 matching.
pub const RUN_MIX: [(Tenant, u32); 3] =
    [(Tenant::Prim, 4), (Tenant::Sort, 5), (Tenant::Matching, 1)];

/// `serve-run`: Poisson arrival rate of the open-loop phase, in
/// requests per second: about a third of the mix's closed-loop capacity
/// (about 215–260 req/s on a 2-core x86-64 VM).
pub const SERVE_RUN_RATE: f64 = 80.0;

/// `serve-mixed`: arrival rate of `POST /load` (each followed by a
/// `POST /run` on the session just loaded), per second.
pub const MIXED_LOAD_RATE: f64 = 7.0;
/// `serve-mixed`: arrival rate of `POST /run` on the preloaded sessions.
pub const MIXED_RUN_RATE: f64 = 60.0;
/// `serve-mixed`: arrival rate of one `GET /metrics` + `GET /stats`
/// scrape.
pub const MIXED_SCRAPE_RATE: f64 = 1.0;
/// `serve-mixed`: session names the loads rotate over, so sessions are
/// replaced rather than piling up.
pub const LOAD_NAMES: u64 = 4;

/// Shares of `--seconds` a serve workload spends in its measured
/// phases: the open loop, the closed loop on every connection
/// (capacity), and the sequential loop (a closed loop on one
/// connection, so each request runs alone and its latency is service
/// time without queueing). On `serve-mixed` the sequential loop sends
/// only `/load`s, each followed by its `/run`.
pub const RUN_SHARES: [f64; 3] = [0.5, 0.25, 0.25];
pub const MIXED_SHARES: [f64; 3] = [0.55, 0.2, 0.25];

/// Times the serve workloads alternate their phases. Each round's
/// slice of a phase is one time window of it, and a gated figure is the
/// median of its per-window values, so the windows spread over the whole
/// run and a slow spell of a shared machine moves a minority of them.
pub const ROUNDS: usize = 10;

/// Time windows `cli-prim`'s measured loop is cut into; a gated figure
/// is the median of its per-window values.
pub const WINDOWS: usize = 6;

/// `cli-prim` set-ups per run (each about 250 ms); `setup_s` is their
/// median.
pub const CLI_SETUP_REPS: usize = 7;
/// `serve-*` set-ups per run. A server spawn takes a few ms, so many
/// are needed for a steady median.
pub const SERVE_SETUP_REPS: usize = 31;

/// `serve-mixed`: `/load` bodies generated before the closed and
/// sequential loops, per second of them. The closed loop reaches about
/// 16 loads/s and the sequential one, which sends nothing else, about
/// 25; a load beyond the pre-generated ones builds its body on the timed
/// path and is counted in the report as `loads_inline`.
pub const LOADS_PER_SEC: f64 = 40.0;

/// Client-side I/O timeout. A failed operation counts as taking at
/// least this long, so it misses every latency limit.
pub const TIMEOUT_MS: f64 = 30_000.0;

/// The preloaded `gbc serve` sessions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tenant {
    Prim,
    Sort,
    Matching,
}

impl Tenant {
    pub const ALL: [Tenant; 3] = [Tenant::Prim, Tenant::Sort, Tenant::Matching];

    /// Session name, which is also the stem of its preloaded file.
    pub fn name(self) -> &'static str {
        match self {
            Tenant::Prim => "prim",
            Tenant::Sort => "sort",
            Tenant::Matching => "matching",
        }
    }
}

/// Input sizes. `full` is what the benchmark measures; `tiny` exists
/// for the benchmark's own self-test.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `cli-prim` graph nodes (chords are three times this).
    pub cli_prim_n: usize,
    /// Preloaded prim session nodes, and nodes of each `/load` graph.
    pub session_prim_n: usize,
    /// Preloaded sort session items.
    pub session_sort_n: usize,
    /// Preloaded matching session arcs, over `session_matching_nodes`.
    pub session_matching_arcs: usize,
    pub session_matching_nodes: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            cli_prim_n: 4096,
            session_prim_n: 256,
            session_sort_n: 1024,
            session_matching_arcs: 256,
            session_matching_nodes: 64,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            cli_prim_n: 64,
            session_prim_n: 16,
            session_sort_n: 32,
            session_matching_arcs: 24,
            session_matching_nodes: 12,
        }
    }
}
