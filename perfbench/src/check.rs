//! Output checks against references computed independently of the code
//! under test: Prim's MST cost from `gbc_baselines::prim`, sort order
//! from `slice::sort`, and greedy matching from
//! `gbc_baselines::matching`.
//!
//! Replies are never run through `Json::parse`: only the HTTP status
//! and the `result` string are read, with the scanner below.

use std::collections::{HashMap, HashSet};

use gbc_baselines::{matching::greedy_matching, prim::prim_mst, total_cost, Edge};

/// What a correct result must satisfy.
#[derive(Clone, Debug)]
pub enum Reference {
    /// A spanning tree rooted at node 0 of minimum total `cost`.
    Prim { n: usize, edges: HashSet<(i64, i64, i64)>, cost: i64 },
    /// `(id, cost)` items, ranked by ascending cost.
    Sort { items: Vec<(i64, i64)> },
    /// The greedy matching, sorted.
    Matching { expected: Vec<(i64, i64, i64)> },
}

impl Reference {
    pub fn prim(n: usize, edges: &[Edge]) -> Reference {
        Reference::Prim {
            n,
            edges: edges.iter().map(|e| (i64::from(e.from), i64::from(e.to), e.cost)).collect(),
            cost: total_cost(&prim_mst(n, edges, 0)),
        }
    }

    pub fn sort(items: &[(i64, i64)]) -> Reference {
        Reference::Sort { items: items.to_vec() }
    }

    pub fn matching(n: usize, edges: &[Edge]) -> Reference {
        let mut expected: Vec<(i64, i64, i64)> = greedy_matching(n, edges)
            .iter()
            .map(|e| (i64::from(e.from), i64::from(e.to), e.cost))
            .collect();
        expected.sort_unstable();
        Reference::Matching { expected }
    }

    /// Make the reference deliberately wrong (self-test only).
    pub fn corrupt(&mut self) {
        match self {
            Reference::Prim { cost, .. } => *cost += 1,
            Reference::Sort { items } => {
                if let Some(first) = items.first_mut() {
                    first.1 = i64::MIN;
                }
            }
            Reference::Matching { expected } => {
                expected.pop();
            }
        }
    }

    /// Check a canonical result text (`gbc run` stdout or the `result`
    /// field of a `/run` reply).
    pub fn check(&self, result: &str) -> Result<(), String> {
        match self {
            Reference::Prim { n, edges, cost } => check_prim(result, *n, edges, *cost),
            Reference::Sort { items } => check_sort(result, items),
            Reference::Matching { expected } => check_matching(result, expected),
        }
    }
}

/// Integer rows of `pred` in a canonical result; `nil` rows are skipped.
fn int_rows(text: &str, pred: &str) -> Result<Vec<Vec<i64>>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(args) = line.strip_prefix(pred).and_then(|r| r.strip_prefix('(')) else {
            continue;
        };
        let Some(args) = args.strip_suffix(").") else {
            return Err(format!("malformed fact `{line}`"));
        };
        if args.split(',').any(|a| a == "nil") {
            continue;
        }
        let row: Result<Vec<i64>, _> = args.split(',').map(str::parse).collect();
        out.push(row.map_err(|_| format!("non-integer fact `{line}`"))?);
    }
    Ok(out)
}

fn check_prim(
    text: &str,
    n: usize,
    edges: &HashSet<(i64, i64, i64)>,
    cost: i64,
) -> Result<(), String> {
    let rows = int_rows(text, "prm")?;
    if rows.len() + 1 != n {
        return Err(format!("prim: {} tree edges for {n} nodes", rows.len()));
    }
    // Stage of each node: the source is stage 0; every other node must
    // be entered once, from a node entered at an earlier stage.
    let mut stage: HashMap<i64, i64> = HashMap::from([(0, 0)]);
    for r in &rows {
        if r.len() != 4 || stage.insert(r[1], r[3]).is_some() {
            return Err(format!("prim: node {} entered twice or bad row {r:?}", r[1]));
        }
    }
    let mut total = 0;
    for r in &rows {
        let (x, y, c, i) = (r[0], r[1], r[2], r[3]);
        if !edges.contains(&(x, y, c)) {
            return Err(format!("prim: ({x},{y},{c}) is not a graph edge"));
        }
        if stage.get(&x).is_none_or(|&sx| sx >= i) {
            return Err(format!("prim: node {y} entered from {x} before {x} was"));
        }
        total += c;
    }
    if total != cost {
        return Err(format!("prim: tree cost {total}, reference MST cost {cost}"));
    }
    Ok(())
}

fn check_sort(text: &str, items: &[(i64, i64)]) -> Result<(), String> {
    let mut rows = int_rows(text, "sp")?;
    if rows.len() != items.len() || rows.iter().any(|r| r.len() != 3) {
        return Err(format!("sort: {} ranked items for {}", rows.len(), items.len()));
    }
    rows.sort_by_key(|r| r[2]);
    let mut by_cost: Vec<(i64, i64)> = items.to_vec();
    by_cost.sort_by_key(|&(x, c)| (c, x));
    for (k, (r, &(_, c))) in rows.iter().zip(&by_cost).enumerate() {
        if r[2] != k as i64 + 1 || r[1] != c {
            return Err(format!(
                "sort: rank {} holds cost {}, expected rank {} cost {c}",
                r[2],
                r[1],
                k + 1
            ));
        }
    }
    let mut got: Vec<(i64, i64)> = rows.iter().map(|r| (r[0], r[1])).collect();
    got.sort_unstable();
    let mut want = items.to_vec();
    want.sort_unstable();
    if got != want {
        return Err("sort: ranked items differ from the input items".into());
    }
    Ok(())
}

fn check_matching(text: &str, expected: &[(i64, i64, i64)]) -> Result<(), String> {
    let rows = int_rows(text, "matching")?;
    let mut got: Vec<(i64, i64, i64)> = Vec::with_capacity(rows.len());
    for r in rows {
        if r.len() != 4 {
            return Err(format!("matching: bad row {r:?}"));
        }
        got.push((r[0], r[1], r[2]));
    }
    got.sort_unstable();
    if got != expected {
        return Err(format!(
            "matching: {} arcs differ from the {} of the reference greedy matching",
            got.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// The string value of top-level-looking key `"result"` in a reply
/// body, unescaped. A linear scan: the reply is never parsed whole.
pub fn result_field(body: &str) -> Option<String> {
    let at = body.find("\"result\"")? + "\"result\"".len();
    let rest = body[at..].trim_start().strip_prefix(':')?.trim_start().strip_prefix('"')?;
    let mut out = String::with_capacity(rest.len());
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_field_unescapes() {
        let body = "{\"session\":\"s\",\"result\":\"a(1).\\nb(\\\"x\\\").\\u0001\",\"n\":1}\n";
        assert_eq!(result_field(body).unwrap(), "a(1).\nb(\"x\").\u{1}");
        assert!(result_field("{\"error\":\"no\"}").is_none());
    }

    #[test]
    fn prim_check_accepts_the_mst_and_rejects_a_wrong_cost() {
        let edges = vec![
            Edge::new(0, 1, 1),
            Edge::new(1, 0, 1),
            Edge::new(1, 2, 2),
            Edge::new(2, 1, 2),
            Edge::new(0, 2, 5),
            Edge::new(2, 0, 5),
        ];
        let text = "prm(nil,0,0,0).\nprm(0,1,1,1).\nprm(1,2,2,2).\n";
        let mut r = Reference::prim(3, &edges);
        assert_eq!(r.check(text), Ok(()));
        r.corrupt();
        assert!(r.check(text).is_err());
    }

    #[test]
    fn sort_check_follows_costs() {
        let r = Reference::sort(&[(10, 30), (11, 10), (12, 20)]);
        assert_eq!(r.check("sp(nil,0,0).\nsp(10,30,3).\nsp(11,10,1).\nsp(12,20,2).\n"), Ok(()));
        assert!(r.check("sp(10,30,1).\nsp(11,10,2).\nsp(12,20,3).\n").is_err());
    }
}
