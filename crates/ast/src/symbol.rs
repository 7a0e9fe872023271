//! Interned symbols.
//!
//! Predicate names, constants like `a` or `engl`, and function symbols
//! (the Huffman tree constructor `t`) are interned once per process and
//! compared as `u32`s thereafter. Interned strings are leaked — the
//! interner lives for the lifetime of the process, which is the usual
//! trade-off for compiler-style workloads.
//!
//! [`Symbol::intern`] takes the interner's lock; [`Symbol::as_str`]
//! does not. The id → string side is a [`Slots`] array written once
//! per new symbol, so reads — and with them every [`Symbol`] ordering
//! comparison, which resolves both strings — never contend with each
//! other or with a concurrent intern.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

use crate::slots::Slots;

/// An interned string. Cheap to copy, hash and compare.
///
/// Equality is by interner id; [`Ord`] is by the *resolved string* so
/// that orderings are independent of interning order (important for
/// deterministic tie-breaking in the greedy executor).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

/// string → id; the lock serialises id assignment.
fn interner() -> &'static Mutex<HashMap<&'static str, u32>> {
    static INTERNER: OnceLock<Mutex<HashMap<&'static str, u32>>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(HashMap::new()))
}

/// id → string, read without the lock.
static STRINGS: Slots<&'static str> = Slots::new();

impl Symbol {
    /// Intern `s`, returning its symbol. Idempotent.
    pub fn intern(s: &str) -> Symbol {
        let mut map = interner().lock().expect("symbol interner poisoned");
        if let Some(&id) = map.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(map.len()).expect("interner overflow");
        // Publish the string before the id escapes the lock.
        STRINGS.set(id, leaked);
        map.insert(leaked, id);
        Symbol(id)
    }

    /// The interned string. Lock-free.
    pub fn as_str(self) -> &'static str {
        STRINGS.get(self.0).expect("symbol ids come only from `intern`")
    }

    /// The raw interner id. Exposed for dense-map keying in the engine.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("prm");
        let b = Symbol::intern("prm");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "prm");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        assert_ne!(Symbol::intern("least"), Symbol::intern("most"));
    }

    #[test]
    fn ordering_is_lexicographic_not_by_id() {
        // Intern in reverse lexicographic order; Ord must still be by string.
        let z = Symbol::intern("zzz_order_probe");
        let a = Symbol::intern("aaa_order_probe");
        assert!(a < z);
    }

    #[test]
    fn reads_proceed_while_another_thread_interns() {
        let known = Symbol::intern("lock_free_read_probe");
        // Hold the interner lock, as a thread in the middle of `intern`
        // does; a reader must still resolve existing symbols.
        let interning = interner().lock().expect("symbol interner poisoned");
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || tx.send(known.as_str()).expect("receiver alive"));
        let read = rx.recv_timeout(std::time::Duration::from_secs(30));
        drop(interning);
        reader.join().expect("reader thread");
        assert_eq!(read.expect("as_str waited for the interner lock"), "lock_free_read_probe");
    }

    #[test]
    fn display_shows_the_string() {
        assert_eq!(Symbol::intern("takes").to_string(), "takes");
    }
}
