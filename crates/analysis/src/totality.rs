//! The decoder-totality checker: proves, by bounded-exhaustive
//! enumeration, that a binary decode surface cannot panic, cannot
//! allocate past its declared cap, and re-encodes every accepted input
//! to a stable canonical form (`decode ∘ encode = id`).
//!
//! The engine is generic and dependency-free; `cargo xtask totality`
//! registers the concrete surfaces (`cedar-server::wire2`,
//! `cedar-mesh::wire`, `cedar-runtime::checkpoint`,
//! `cedar-server::spill`, and the frame reader's version check) and
//! supplies the counting allocator. For each surface the checker runs
//! four probe families:
//!
//! 1. **full-alphabet exhaustion** — every byte string up to
//!    [`Config::full_depth`] bytes (all 256 values per position);
//! 2. **seeded boundary exhaustion** — for every seed prefix (kind
//!    bytes, version bytes, kind+flags pairs) every suffix over the
//!    boundary alphabet until the total input length reaches
//!    [`Config::seeded_depth`] — this is what pushes the guarantee to
//!    depth ≥ 6 without paying 256^6;
//! 3. **golden mutation sweeps** — every single-byte mutation,
//!    truncation and one-byte extension of each known-good encoding,
//!    which exercises the deep interior of the grammar that short
//!    strings cannot reach;
//! 4. **long-string probes** — declared-huge varint lengths, varint
//!    overflows, and multi-KiB filler payloads after each seed.
//!
//! Every probe runs under `catch_unwind` with the panic hook silenced
//! and (when the host registers one) a thread-local allocation counter.
//! A violation is minimized by greedy byte removal and byte lowering
//! before being rendered rustc-style, so the failing input that reaches
//! a human is the shortest one the checker can find.

use std::panic::{self, AssertUnwindSafe};

/// What one decode attempt did, as reported by the surface adapter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The decoder returned a typed error. Always fine.
    Reject,
    /// The decoder accepted the input. `roundtrip_ok` is the adapter's
    /// verdict on `decode ∘ encode = id`: re-encoding the decoded value
    /// must reproduce the canonical bytes, and re-decoding those bytes
    /// must yield the same value (byte-exact for canonical inputs,
    /// fixpoint for surfaces with embedded JSON capsules).
    Accept {
        /// Whether the round-trip law held for this input.
        roundtrip_ok: bool,
    },
}

/// One registered decode surface.
pub struct Surface<'a> {
    /// Display name, e.g. `cedar-server::wire2::Request`.
    pub name: &'a str,
    /// Seed prefixes the grammar dispatches on (kind bytes, version
    /// bytes, kind+flags pairs). The empty prefix is probed implicitly.
    pub seeds: Vec<Vec<u8>>,
    /// Known-good encodings for the mutation sweep.
    pub goldens: Vec<Vec<u8>>,
    /// Most bytes one decode may allocate (cumulative, as measured by
    /// the host's counter).
    pub alloc_cap: u64,
    /// Runs the decoder (and the adapter's round-trip check) on one
    /// input.
    pub decode: DecodeFn<'a>,
}

/// Adapter closure turning raw bytes into a probe [`Outcome`].
pub type DecodeFn<'a> = Box<dyn Fn(&[u8]) -> Outcome + 'a>;

/// Enumeration bounds and the host's allocation counter.
pub struct Config {
    /// Exhaustive full-alphabet depth (256^d inputs; keep small).
    pub full_depth: usize,
    /// Target total input length for seeded boundary enumeration.
    pub seeded_depth: usize,
    /// The reduced alphabet used for seeded enumeration.
    pub boundary_alphabet: Vec<u8>,
    /// Cumulative bytes-allocated counter for the current thread, if
    /// the host binary installed a counting allocator.
    pub alloc_counter: Option<fn() -> u64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            full_depth: 2,
            seeded_depth: 6,
            // Varint boundaries, bool bytes, the dist tags that recurse
            // (8, 9) and count (10), flag-bit patterns, and the
            // extremes. Surfaces reach their own kind bytes via seeds.
            boundary_alphabet: vec![
                0x00, 0x01, 0x02, 0x08, 0x09, 0x0a, 0x1f, 0x20, 0x7f, 0x80, 0x81, 0xff,
            ],
            alloc_counter: None,
        }
    }
}

/// Why a probe failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The decoder panicked; the payload is the panic message.
    Panic(String),
    /// The decode allocated more than the surface's cap.
    AllocOverCap {
        /// Bytes the decode allocated.
        allocated: u64,
        /// The surface's declared cap.
        cap: u64,
    },
    /// An accepted input failed the round-trip law.
    RoundTrip,
}

/// A minimized counterexample for one surface.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The surface that failed.
    pub surface: String,
    /// What went wrong.
    pub kind: FailureKind,
    /// The minimized failing input.
    pub input: Vec<u8>,
    /// Length of the input that first exposed the failure.
    pub original_len: usize,
    /// Probes executed before the failure.
    pub tested: u64,
}

impl Violation {
    /// Renders the violation rustc-style, hex-dumping the minimized
    /// input so it can be pasted straight into a regression test.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let headline = match &self.kind {
            FailureKind::Panic(msg) => format!("decoder panicked: {msg}"),
            FailureKind::AllocOverCap { allocated, cap } => {
                format!("decode allocated {allocated} bytes (cap {cap})")
            }
            FailureKind::RoundTrip => "accepted input breaks decode∘encode = id".to_owned(),
        };
        let mut out = format!(
            "error[totality]: {headline}\n  --> surface {} ({} probes in)\n",
            self.surface, self.tested
        );
        let hex = self
            .input
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(out, "   = input ({} bytes): [{hex}]", self.input.len());
        if self.original_len != self.input.len() {
            let _ = writeln!(out, "   = minimized from {} bytes", self.original_len);
        }
        let _ = writeln!(
            out,
            "   = law: decoding must never panic, must allocate within the \
             declared cap, and must re-encode accepted inputs canonically"
        );
        out
    }
}

/// Summary of a clean run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Probes executed.
    pub probes: u64,
    /// Inputs the decoder accepted.
    pub accepted: u64,
    /// Inputs rejected with a typed error.
    pub rejected: u64,
}

/// Checks one surface under `cfg`. Returns the run report, or the
/// first (minimized) violation.
pub fn check(surface: &Surface<'_>, cfg: &Config) -> Result<Report, Violation> {
    let mut report = Report::default();
    // Silence the default panic hook while probing: an expected panic
    // printing a backtrace per probe would drown the real output.
    let saved = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let result = check_inner(surface, cfg, &mut report);
    panic::set_hook(saved);
    match result {
        None => Ok(report),
        Some((input, kind)) => {
            let original_len = input.len();
            let input = minimize(surface, cfg, input);
            Err(Violation {
                surface: surface.name.to_owned(),
                kind,
                input,
                original_len,
                tested: report.probes,
            })
        }
    }
}

fn check_inner(
    surface: &Surface<'_>,
    cfg: &Config,
    report: &mut Report,
) -> Option<(Vec<u8>, FailureKind)> {
    // 1. Goldens decode cleanly and round-trip...
    for g in &surface.goldens {
        if let Some(kind) = probe(surface, cfg, g, report) {
            return Some((g.clone(), kind));
        }
        // ...and every mutation / truncation / extension of them stays
        // total (the deep-grammar sweep).
        let mut cand = g.clone();
        for i in 0..g.len() {
            let orig = cand[i];
            for m in [
                0x00,
                0x01,
                0x7f,
                0x80,
                0xff,
                orig.wrapping_add(1),
                orig.wrapping_sub(1),
            ] {
                cand[i] = m;
                if let Some(kind) = probe(surface, cfg, &cand, report) {
                    return Some((cand.clone(), kind));
                }
            }
            cand[i] = orig;
        }
        for cut in 0..g.len() {
            if let Some(kind) = probe(surface, cfg, &g[..cut], report) {
                return Some((g[..cut].to_vec(), kind));
            }
        }
        for ext in [0x00u8, 0xff] {
            let mut long = g.clone();
            long.push(ext);
            if let Some(kind) = probe(surface, cfg, &long, report) {
                return Some((long, kind));
            }
        }
    }
    // 2. Full-alphabet exhaustion of short strings.
    let full: Vec<u8> = (0..=255).collect();
    if let Some(hit) = enumerate(surface, cfg, report, &[], &full, cfg.full_depth) {
        return Some(hit);
    }
    // 3. Seeded boundary exhaustion to the target depth.
    for seed in &surface.seeds {
        let suffix = cfg.seeded_depth.saturating_sub(seed.len());
        if let Some(hit) = enumerate(surface, cfg, report, seed, &cfg.boundary_alphabet, suffix) {
            return Some(hit);
        }
    }
    // 4. Long-string probes after every seed (and bare).
    let mut prefixes: Vec<&[u8]> = vec![&[]];
    prefixes.extend(surface.seeds.iter().map(Vec::as_slice));
    for prefix in prefixes {
        for input in long_probes(prefix) {
            if let Some(kind) = probe(surface, cfg, &input, report) {
                return Some((input, kind));
            }
        }
    }
    None
}

/// Enumerates `prefix ++ suffix` for every suffix over `alphabet` with
/// length 0..=`max_suffix`, probing each.
fn enumerate(
    surface: &Surface<'_>,
    cfg: &Config,
    report: &mut Report,
    prefix: &[u8],
    alphabet: &[u8],
    max_suffix: usize,
) -> Option<(Vec<u8>, FailureKind)> {
    if alphabet.is_empty() {
        return None;
    }
    let mut input = prefix.to_vec();
    for len in 0..=max_suffix {
        // Odometer over `alphabet^len`.
        let mut digits = vec![0usize; len];
        input.truncate(prefix.len());
        input.extend(std::iter::repeat_n(alphabet[0], len));
        loop {
            if let Some(kind) = probe(surface, cfg, &input, report) {
                return Some((input, kind));
            }
            // Advance the rightmost digit, carrying left; a carry past
            // the leftmost digit means this length is exhausted.
            let mut pos = len;
            let mut wrapped = true;
            while pos > 0 {
                pos -= 1;
                digits[pos] += 1;
                if digits[pos] < alphabet.len() {
                    input[prefix.len() + pos] = alphabet[digits[pos]];
                    wrapped = false;
                    break;
                }
                digits[pos] = 0;
                input[prefix.len() + pos] = alphabet[0];
            }
            if wrapped {
                break;
            }
        }
    }
    None
}

/// Declared-huge lengths, varint overflows, and real multi-KiB
/// payloads, appended to `prefix`.
fn long_probes(prefix: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    // Varint encodings of 2^k: lengths the body cannot back.
    for k in [7u32, 14, 21, 31, 47, 63] {
        let mut v = 1u64 << k;
        let mut p = prefix.to_vec();
        while v >= 0x80 {
            p.push((v as u8) | 0x80);
            v >>= 7;
        }
        p.push(v as u8);
        out.push(p.clone());
        // The same declared length with a little real payload behind it.
        p.extend(std::iter::repeat_n(0xaa, 16));
        out.push(p);
    }
    // An over-long varint (11 continuation bytes).
    let mut p = prefix.to_vec();
    p.extend([0xffu8; 11]);
    out.push(p);
    // Big filler payloads.
    for fill in [0x00u8, 0xff] {
        let mut p = prefix.to_vec();
        p.extend(std::iter::repeat_n(fill, 4096));
        out.push(p);
    }
    out
}

/// Runs one probe; `None` means the surface behaved.
fn probe(
    surface: &Surface<'_>,
    cfg: &Config,
    input: &[u8],
    report: &mut Report,
) -> Option<FailureKind> {
    report.probes += 1;
    let before = cfg.alloc_counter.map(|f| f());
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| (surface.decode)(input)));
    let allocated = cfg
        .alloc_counter
        .map(|f| f().saturating_sub(before.unwrap_or(0)));
    match outcome {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            Some(FailureKind::Panic(msg))
        }
        Ok(Outcome::Accept {
            roundtrip_ok: false,
        }) => Some(FailureKind::RoundTrip),
        Ok(_) => match allocated {
            Some(allocated) if allocated > surface.alloc_cap => Some(FailureKind::AllocOverCap {
                allocated,
                cap: surface.alloc_cap,
            }),
            _ => {
                if matches!(outcome, Ok(Outcome::Accept { .. })) {
                    report.accepted += 1;
                } else {
                    report.rejected += 1;
                }
                None
            }
        },
    }
}

/// Greedy minimization: repeatedly try removing each byte, then
/// lowering each byte toward zero, keeping any candidate that still
/// fails (for any reason — a shorter input exposing a different facet
/// of the same bug is still the better regression seed).
fn minimize(surface: &Surface<'_>, cfg: &Config, mut input: Vec<u8>) -> Vec<u8> {
    let saved = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut scratch = Report::default();
    let still_fails =
        |cand: &[u8], scratch: &mut Report| probe(surface, cfg, cand, scratch).is_some();
    loop {
        let mut changed = false;
        let mut i = 0;
        while i < input.len() {
            let mut cand = input.clone();
            cand.remove(i);
            if still_fails(&cand, &mut scratch) {
                input = cand;
                changed = true;
            } else {
                i += 1;
            }
        }
        for i in 0..input.len() {
            for v in [0x00u8, 0x01] {
                if input[i] <= v {
                    continue;
                }
                let mut cand = input.clone();
                cand[i] = v;
                if still_fails(&cand, &mut scratch) {
                    input = cand;
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
    panic::set_hook(saved);
    input
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately broken decoder: panics whenever the input
    /// contains the byte 0x42 after at least two other bytes.
    fn planted_panic(input: &[u8]) -> Outcome {
        assert!(
            !(input.len() >= 3 && input[2..].contains(&0x42)),
            "planted: slice index out of range"
        );
        if input.first() == Some(&0x01) {
            Outcome::Accept { roundtrip_ok: true }
        } else {
            Outcome::Reject
        }
    }

    #[test]
    fn self_test_finds_and_minimizes_the_planted_panic() {
        let surface = Surface {
            name: "self-test::planted",
            seeds: vec![vec![0x01]],
            goldens: vec![vec![0x01, 0x00, 0x00, 0x42]],
            alloc_cap: 1 << 20,
            decode: Box::new(planted_panic),
        };
        let cfg = Config {
            full_depth: 2,
            seeded_depth: 4,
            ..Config::default()
        };
        let violation = check(&surface, &cfg).expect_err("the planted panic must be found");
        assert!(matches!(violation.kind, FailureKind::Panic(ref m) if m.contains("planted")));
        // Greedy minimization must shrink to the smallest shape that
        // still panics: three bytes, the last being 0x42.
        assert_eq!(violation.input.len(), 3, "{violation:?}");
        assert_eq!(*violation.input.last().unwrap(), 0x42);
        let rendered = violation.render();
        assert!(rendered.contains("error[totality]"), "{rendered}");
        assert!(rendered.contains("42]"), "{rendered}");
    }

    #[test]
    fn self_test_flags_round_trip_breakage() {
        // Accepts 0x07-prefixed inputs but claims the round-trip law
        // fails for any longer-than-1 accepted input.
        let surface = Surface {
            name: "self-test::non-canonical",
            seeds: vec![vec![0x07]],
            goldens: vec![],
            alloc_cap: 1 << 20,
            decode: Box::new(|input: &[u8]| {
                if input.first() == Some(&0x07) {
                    Outcome::Accept {
                        roundtrip_ok: input.len() <= 1,
                    }
                } else {
                    Outcome::Reject
                }
            }),
        };
        let violation = check(&surface, &Config::default()).expect_err("must fail");
        assert_eq!(violation.kind, FailureKind::RoundTrip);
        assert_eq!(violation.input, vec![0x07, 0x00]);
    }

    #[test]
    fn clean_surface_reports_counts() {
        let surface = Surface {
            name: "self-test::total",
            seeds: vec![vec![0x01]],
            goldens: vec![vec![0x01]],
            alloc_cap: 1 << 20,
            decode: Box::new(|input: &[u8]| {
                if input == [0x01] {
                    Outcome::Accept { roundtrip_ok: true }
                } else {
                    Outcome::Reject
                }
            }),
        };
        let report = check(&surface, &Config::default()).expect("clean");
        assert!(report.probes > 70_000, "full depth 2 >= 256^2: {report:?}");
        assert!(report.accepted >= 1);
        assert!(report.rejected > 0);
    }
}
