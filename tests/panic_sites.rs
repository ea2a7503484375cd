//! Per-crate counts of the places non-test code can panic.
//!
//! Counting rule: in every `crates/<crate>/src/**/*.rs`, up to the file's
//! first `#[cfg(test)]`, count each occurrence of `.unwrap()`, `.expect(`,
//! `panic!(`, `unreachable!(`, `todo!(` and `unimplemented!(`. Comments and
//! string literals are not special-cased.
//!
//! The counts must equal the pins. A change that adds a site raises its
//! crate's pin on purpose; a change that removes one lowers the pin in the
//! same commit, so the table only ever records the current state.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

const PATTERNS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

const PINNED: [(&str, usize); 7] = [
    ("baseline", 3),
    ("bench", 25),
    ("core", 21),
    ("log", 3),
    ("quorum", 2),
    ("sim", 15),
    ("storage", 1),
];

/// Panic sites in one source file, up to its first `#[cfg(test)]`.
fn count_file(text: &str) -> usize {
    let code = text.split("#[cfg(test)]").next().unwrap_or_default();
    PATTERNS.iter().map(|p| code.matches(p).count()).sum()
}

fn count_dir(dir: &Path) -> usize {
    let mut n = 0;
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            n += count_dir(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            n += count_file(&fs::read_to_string(&path).expect("readable source file"));
        }
    }
    n
}

#[test]
fn panic_sites_per_crate_are_pinned() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut counts = BTreeMap::new();
    for entry in fs::read_dir(&crates).expect("crates/ exists") {
        let dir = entry.expect("readable dir entry").path();
        let name = dir
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        counts.insert(name, count_dir(&dir.join("src")));
    }
    let pinned: BTreeMap<String, usize> = PINNED.iter().map(|(c, n)| (c.to_string(), *n)).collect();
    assert_eq!(
        counts, pinned,
        "panic-site counts moved; update PINNED to the new counts"
    );
}

#[test]
fn the_count_stops_at_the_test_module() {
    let text = "fn a() { x.unwrap(); y.expect(\"z\"); }\n#[cfg(test)]\nmod t { panic!(); }";
    assert_eq!(count_file(text), 2);
    assert_eq!(count_file("let v = x.unwrap_or(1).unwrap_or_default();"), 0);
}
