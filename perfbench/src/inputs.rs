//! Seeded inputs: graphs and items from the `gbc_greedy::workload`
//! generators, programs from the `gbc_greedy` program texts, written as
//! `.dl` files or `/load` bodies. The program under test sees only
//! these files and bodies.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use gbc_greedy::{matching, prim, sorting, workload};
use gbc_telemetry::Json;

use crate::check::Reference;
use crate::config::{Sizes, Tenant, MAX_COST};

/// A sub-seed for input `tag`, so inputs drawn from one `--seed` are
/// independent of each other.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    crate::stats::Rng::new(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// One generated `.dl` input and what its result must satisfy.
pub struct Input {
    pub facts: usize,
    pub bytes: usize,
    pub reference: Reference,
}

fn edge_facts(edges: &[gbc_baselines::Edge]) -> String {
    let mut out = String::with_capacity(edges.len() * 24);
    for e in edges {
        let _ = writeln!(out, "g({},{},{}).", e.from, e.to, e.cost);
    }
    out
}

fn write(path: &Path, text: &str) -> std::io::Result<()> {
    std::fs::write(path, text)
}

/// The `cli-prim` inputs: `prim.dl` (the program alone) and `graph.dl`
/// (`g/3` facts of `connected_graph(n, 3n, MAX_COST, seed)`).
pub struct CliInputs {
    pub program: PathBuf,
    pub graph: Input,
}

pub fn cli_prim(dir: &Path, sizes: &Sizes, seed: u64) -> std::io::Result<CliInputs> {
    std::fs::create_dir_all(dir)?;
    let n = sizes.cli_prim_n;
    let g = workload::connected_graph(n, 3 * n, MAX_COST, sub_seed(seed, 1));
    let program = dir.join("prim.dl");
    write(&program, &format!("{}\n", prim::program_text(0)))?;
    let facts = edge_facts(&g.edges);
    write(&dir.join("graph.dl"), &facts)?;
    Ok(CliInputs {
        program,
        graph: Input {
            facts: g.edges.len(),
            bytes: facts.len(),
            reference: Reference::prim(n, &g.edges),
        },
    })
}

/// A one-file prim program (rules plus `g/3` facts) over
/// `connected_graph(n, 3n, MAX_COST, seed)`, and its reference.
pub fn prim_program(n: usize, seed: u64) -> (String, usize, Reference) {
    let g = workload::connected_graph(n, 3 * n, MAX_COST, seed);
    let text = format!("{}\n{}", prim::program_text(0), edge_facts(&g.edges));
    (text, g.edges.len(), Reference::prim(n, &g.edges))
}

/// The three preloaded `gbc serve` sessions, one file each, named after
/// the session: `prim.dl`, `sort.dl`, `matching.dl`, in
/// [`Tenant::ALL`] order.
pub fn sessions(dir: &Path, sizes: &Sizes, seed: u64) -> std::io::Result<Vec<Input>> {
    std::fs::create_dir_all(dir)?;
    let mut out = Vec::new();
    for t in Tenant::ALL {
        let (text, facts, reference) = match t {
            Tenant::Prim => prim_program(sizes.session_prim_n, sub_seed(seed, 2)),
            Tenant::Sort => {
                let items = workload::random_items(sizes.session_sort_n, sub_seed(seed, 3));
                let mut text = format!("{}\n", sorting::PROGRAM);
                for (x, c) in &items {
                    let _ = writeln!(text, "p({x},{c}).");
                }
                (text, items.len(), Reference::sort(&items))
            }
            Tenant::Matching => {
                let g = workload::random_arcs(
                    sizes.session_matching_nodes,
                    sizes.session_matching_arcs,
                    sub_seed(seed, 4),
                );
                let text = format!("{}\n{}", matching::PROGRAM, edge_facts(&g.edges));
                (text, g.edges.len(), Reference::matching(g.n, &g.edges))
            }
        };
        write(&dir.join(format!("{}.dl", t.name())), &text)?;
        out.push(Input { facts, bytes: text.len(), reference });
    }
    Ok(out)
}

/// A `POST /load` body: the `k`-th generated prim program of this seed,
/// inline, under one of `names` rotating session names. Every load has
/// fresh cost constants.
pub struct LoadBody {
    pub name: String,
    pub body: String,
    pub reference: Reference,
}

pub fn load_body(sizes: &Sizes, seed: u64, k: u64, names: u64) -> LoadBody {
    let (text, _, reference) = prim_program(sizes.session_prim_n, sub_seed(seed, 1000 + k));
    let name = format!("load{}", k % names);
    let body = Json::obj(vec![("name", Json::Str(name.clone())), ("program", Json::Str(text))])
        .to_string();
    LoadBody { name, body, reference }
}

/// A `POST /run` body for session `name`.
pub fn run_body(name: &str) -> String {
    Json::obj(vec![("session", Json::Str(name.into()))]).to_string()
}
