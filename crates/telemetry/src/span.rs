//! Phase timers with a hierarchical report.
//!
//! A [`Phases`] accumulates wall-clock time per named phase. Names use
//! `/` as a hierarchy separator (`run/flat`, `run/gamma`, …) and the
//! report renders children indented under their parents with
//! percentages of the run total. When disabled (the default), timing
//! closures run untouched — no `Instant::now` calls at all — which is
//! what keeps the instrumentation safe to leave in hot loops.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::Json;

#[derive(Debug, Clone)]
struct Acc {
    name: String,
    total: Duration,
    count: u64,
}

/// A named-phase stopwatch. Shared via `Arc`; all methods take `&self`.
#[derive(Debug, Default)]
pub struct Phases {
    enabled: bool,
    /// Accumulators in first-use order (stable report layout).
    accs: Mutex<Vec<Acc>>,
}

impl Phases {
    /// A disabled stopwatch: `time` runs closures without timing.
    pub fn disabled() -> Phases {
        Phases::default()
    }

    /// An enabled stopwatch.
    pub fn enabled() -> Phases {
        Phases { enabled: true, accs: Mutex::new(Vec::new()) }
    }

    /// Is timing on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f`, charging its wall-clock time to `name` when enabled.
    #[inline]
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed());
        out
    }

    /// Charge `dur` to `name` directly.
    pub fn add(&self, name: &str, dur: Duration) {
        self.add_many(name, dur, 1);
    }

    /// Charge `total` to `name` as `count` intervals at once — the
    /// flush of a caller that accumulated them locally. `count == 0`
    /// records nothing (the name stays unused).
    pub fn add_many(&self, name: &str, total: Duration, count: u64) {
        if !self.enabled || count == 0 {
            return;
        }
        let mut accs = self.accs.lock().expect("phase lock");
        match accs.iter_mut().find(|a| a.name == name) {
            Some(a) => {
                a.total += total;
                a.count += count;
            }
            None => accs.push(Acc { name: name.to_owned(), total, count }),
        }
    }

    /// `(name, seconds, count)` triples in first-use order.
    pub fn entries(&self) -> Vec<(String, f64, u64)> {
        self.accs
            .lock()
            .expect("phase lock")
            .iter()
            .map(|a| (a.name.clone(), a.total.as_secs_f64(), a.count))
            .collect()
    }

    /// Hierarchical plain-text report. Top-level phases are listed with
    /// their share of the top-level total; children (`parent/child`)
    /// indent beneath their parent.
    pub fn render(&self) -> String {
        let entries = self.entries();
        if entries.is_empty() {
            return String::new();
        }
        let top_total: f64 =
            entries.iter().filter(|(n, _, _)| !n.contains('/')).map(|(_, s, _)| s).sum();
        let mut out = String::new();
        let name_w = entries.iter().map(|(n, _, _)| n.len() + 2).max().unwrap_or(0);
        for (name, secs, count) in &entries {
            let depth = name.matches('/').count();
            let leaf = name.rsplit('/').next().unwrap_or(name);
            let label = format!("{}{leaf}", "  ".repeat(depth));
            let pct = if top_total > 0.0 && depth == 0 {
                format!("{:5.1}%", 100.0 * secs / top_total)
            } else {
                "      ".to_owned()
            };
            out.push_str(&format!("{label:<name_w$}  {secs:>10.6}s  {pct}  ×{count}\n"));
        }
        out
    }

    /// JSON array of `{name, secs, count}` objects.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.entries()
                .into_iter()
                .map(|(name, secs, count)| {
                    Json::obj(vec![
                        ("name", Json::Str(name)),
                        ("secs", Json::Float(secs)),
                        ("count", Json::UInt(count)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_phases_record_nothing() {
        let p = Phases::disabled();
        assert_eq!(p.time("x", || 7), 7);
        p.add("y", Duration::from_secs(1));
        assert!(p.entries().is_empty());
    }

    #[test]
    fn enabled_phases_accumulate_and_count() {
        let p = Phases::enabled();
        p.add("run", Duration::from_millis(10));
        p.add("run", Duration::from_millis(5));
        p.add("run/flat", Duration::from_millis(3));
        let e = p.entries();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].0, "run");
        assert_eq!(e[0].2, 2);
        assert!((e[0].1 - 0.015).abs() < 1e-9);
    }

    #[test]
    fn add_many_matches_repeated_adds() {
        let one = Phases::enabled();
        let many = Phases::enabled();
        for ms in [3, 4] {
            one.add("run/flat", Duration::from_millis(ms));
        }
        one.add("run/exit", Duration::from_millis(1));
        many.add_many("run/flat", Duration::from_millis(7), 2);
        many.add_many("run/gamma", Duration::from_millis(9), 0);
        many.add_many("run/exit", Duration::from_millis(1), 1);
        assert_eq!(one.entries(), many.entries());
    }

    #[test]
    fn report_indents_children() {
        let p = Phases::enabled();
        p.add("run", Duration::from_millis(10));
        p.add("run/gamma", Duration::from_millis(4));
        let r = p.render();
        let lines: Vec<&str> = r.lines().collect();
        assert!(lines[0].starts_with("run "));
        assert!(lines[1].starts_with("  gamma"), "{r}");
        assert!(lines[0].contains("100.0%"));
    }

    #[test]
    fn report_indents_by_nesting_depth() {
        let p = Phases::enabled();
        p.add("run", Duration::from_millis(8));
        p.add("run/flat", Duration::from_millis(5));
        p.add("run/flat/delta", Duration::from_millis(2));
        let r = p.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("run "), "{r}");
        assert!(lines[1].starts_with("  flat"), "{r}");
        assert!(lines[2].starts_with("    delta"), "{r}");
        // Leaf labels drop the parent path prefix.
        assert!(!lines[2].contains("run/flat/delta"), "{r}");
    }

    #[test]
    fn percentages_split_across_top_level_phases_only() {
        let p = Phases::enabled();
        p.add("load", Duration::from_millis(25));
        p.add("run", Duration::from_millis(75));
        p.add("run/gamma", Duration::from_millis(75));
        let r = p.render();
        let lines: Vec<&str> = r.lines().collect();
        // Top-level shares are taken against the top-level sum (100 ms).
        assert!(lines[0].contains(" 25.0%"), "{r}");
        assert!(lines[1].contains(" 75.0%"), "{r}");
        // Children never get a percentage column, even at 100% of their
        // parent.
        assert!(!lines[2].contains('%'), "{r}");
    }

    #[test]
    fn disabled_phases_render_empty_and_skip_the_clock() {
        let p = Phases::disabled();
        assert!(!p.is_enabled());
        // The closure still runs (and its value is returned)...
        let mut ran = false;
        p.time("x", || ran = true);
        assert!(ran);
        // ...but nothing is recorded, so the report and JSON are empty.
        assert_eq!(p.render(), "");
        assert_eq!(p.to_json().to_string(), "[]");
    }

    #[test]
    fn time_measures_something() {
        let p = Phases::enabled();
        p.time("spin", || std::hint::black_box((0..1000).sum::<u64>()));
        let e = p.entries();
        assert_eq!(e[0].2, 1);
        assert!(e[0].1 >= 0.0);
    }

    #[test]
    fn json_has_name_secs_count() {
        let p = Phases::enabled();
        p.add("a", Duration::from_millis(1));
        let s = p.to_json().to_string();
        assert!(s.contains("\"name\":\"a\""));
        assert!(s.contains("\"count\":1"));
    }
}
