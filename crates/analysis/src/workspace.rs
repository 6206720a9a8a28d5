//! Workspace discovery and file classification for the lint pass.
//!
//! Rules apply differently by context: `L4` only bites in library
//! crates, `L2` is relaxed in test code, the clock abstraction itself is
//! exempt from `L1`. This module walks the repository and attaches a
//! [`FileClass`] to every Rust source file so the rules can decide.

use std::path::{Path, PathBuf};

/// The library crates whose public behavior must never panic: `L4`
/// (unwrap/expect/panic) is enforced here. Binary crates (`cli`,
/// `experiments`, `xtask`) report errors to a terminal and may
/// exit; math/simulation crates assert mathematical contracts; the
/// model checker in `analysis` is panic-driven by design (assertions
/// *are* its failure channel, as in loom).
pub const LIB_CRATES: &[&str] = &[
    "core",
    "distrib",
    "estimate",
    "mesh",
    "runtime",
    "server",
    "telemetry",
    "wire",
];

/// Crates whose code runs under (or next to) the async engine and must
/// read time only through the clock abstraction: `L1` scope.
pub const CLOCKED_CRATES: &[&str] = &[
    "core",
    "distrib",
    "estimate",
    "mathx",
    "mesh",
    "sim",
    "workloads",
    "runtime",
    "server",
    "telemetry",
    "wire",
];

/// Files that *are* the clock abstraction: the one sanctioned home for
/// raw wall-clock reads. Matched on the file name within clocked crates.
pub const CLOCK_MODULES: &[&str] = &["clock.rs", "scale.rs"];

/// How a source file participates in the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/<lib>/src/**` of a library crate.
    LibrarySrc,
    /// `src/**` of a binary crate or the facade crate.
    BinarySrc,
    /// `tests/**`, `benches/**`, `examples/**` anywhere.
    TestOrBench,
}

/// A classified source file.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Path relative to the workspace root.
    pub path: PathBuf,
    pub kind: FileKind,
    /// Crate name (`core`, `runtime`, ...; `"cedar"` for the facade).
    pub krate: String,
    /// True when the file is a designated clock module (L1-exempt).
    pub clock_module: bool,
}

impl FileClass {
    /// Classifies a workspace-relative path. Returns `None` for files
    /// the lint never looks at (vendored code, fixtures, build output).
    pub fn classify(rel: &Path) -> Option<FileClass> {
        if rel.extension().is_none_or(|e| e != "rs") {
            return None;
        }
        let s = rel.to_string_lossy().replace('\\', "/");
        if s.starts_with("vendor/") || s.starts_with("target/") || s.contains("/fixtures/") {
            return None;
        }
        let (krate, within) = if let Some(rest) = s.strip_prefix("crates/") {
            let (name, tail) = rest.split_once('/')?;
            (name.to_owned(), tail.to_owned())
        } else {
            // The facade crate at the workspace root.
            ("cedar".to_owned(), s.clone())
        };
        let kind = if within.starts_with("tests/")
            || within.starts_with("benches/")
            || within.starts_with("examples/")
        {
            FileKind::TestOrBench
        } else if within.starts_with("src/") {
            if within.starts_with("src/bin/") {
                FileKind::BinarySrc
            } else if LIB_CRATES.contains(&krate.as_str())
                || CLOCKED_CRATES.contains(&krate.as_str())
            {
                FileKind::LibrarySrc
            } else {
                FileKind::BinarySrc
            }
        } else {
            return None;
        };
        let clock_module = CLOCK_MODULES
            .iter()
            .any(|m| within.ends_with(m) && within.starts_with("src/"));
        Some(FileClass {
            path: rel.to_owned(),
            kind,
            krate,
            clock_module,
        })
    }

    /// True when L4 (no unwrap/expect/panic) applies to this file.
    pub fn panic_free_required(&self) -> bool {
        self.kind == FileKind::LibrarySrc && LIB_CRATES.contains(&self.krate.as_str())
    }

    /// True when L1 (clock abstraction) applies to this file.
    pub fn clocked(&self) -> bool {
        self.kind == FileKind::LibrarySrc
            && CLOCKED_CRATES.contains(&self.krate.as_str())
            && !self.clock_module
    }

    /// True when the file is test/bench/example code.
    pub fn is_test_code(&self) -> bool {
        self.kind == FileKind::TestOrBench
    }
}

/// Recursively collects every classifiable `.rs` file under `root`,
/// sorted for deterministic diagnostics.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<FileClass>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_owned()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "vendor" || name == ".git" || name == "fixtures" {
                    continue;
                }
                stack.push(path);
            } else if let Ok(rel) = path.strip_prefix(root) {
                if let Some(class) = FileClass::classify(rel) {
                    out.push(class);
                }
            }
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(p: &str) -> Option<FileClass> {
        FileClass::classify(Path::new(p))
    }

    #[test]
    fn classification() {
        let c = class("crates/runtime/src/engine.rs").unwrap();
        assert_eq!(c.kind, FileKind::LibrarySrc);
        assert!(c.panic_free_required());
        assert!(c.clocked());

        let c = class("crates/runtime/src/scale.rs").unwrap();
        assert!(c.clock_module);
        assert!(!c.clocked());

        let c = class("crates/cli/src/main.rs").unwrap();
        assert_eq!(c.kind, FileKind::BinarySrc);
        assert!(!c.panic_free_required());

        let c = class("crates/mathx/src/special.rs").unwrap();
        assert!(!c.panic_free_required(), "mathx asserts math contracts");
        assert!(c.clocked());

        let c = class("crates/telemetry/src/metrics.rs").unwrap();
        assert!(c.panic_free_required());
        assert!(c.clocked(), "telemetry must use caller-supplied time");

        let c = class("crates/runtime/tests/chaos.rs").unwrap();
        assert_eq!(c.kind, FileKind::TestOrBench);

        assert!(class("vendor/tokio/src/runtime.rs").is_none());
        assert!(class("crates/analysis/tests/fixtures/bad_l1.rs").is_none());
        assert!(class("README.md").is_none());

        let c = class("src/lib.rs").unwrap();
        assert_eq!(c.krate, "cedar");
    }
}
