//! Token/line-level static-analysis passes enforcing workspace
//! invariants that rustc and clippy cannot see (dependency-free — no
//! syn, no regex; the build is offline).
//!
//! The passes work on two *views* of each source file, produced by a
//! small lexer that understands line/block (nested) comments, string and
//! raw-string literals, char literals and lifetime ticks:
//!
//! * the **code view** (comments and string *contents* blanked, line
//!   structure preserved) — token searches run here so prose about
//!   `unsafe` or `thread::spawn` never trips a pass;
//! * the **raw lines** — `// SAFETY:` comment detection reads these.
//!
//! `crates/shims/` is excluded from every invariant pass: the vendored
//! rand stand-ins mirror an external API and are not governed by this
//! workspace's conventions (asserted by a unit test below).

use std::fmt;
use std::path::Path;

/// One invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which pass fired.
    pub pass: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.pass, self.message
        )
    }
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Find `tok` in `line` at word boundaries (identifier characters on
/// either side disqualify a match, so `unsafe_code` never matches
/// `unsafe`).
fn find_token(line: &str, tok: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(p) = line[start..].find(tok) {
        let p = start + p;
        let before_ok = p == 0 || !is_word(bytes[p - 1]);
        let after = p + tok.len();
        let after_ok = after >= bytes.len() || !is_word(bytes[after]);
        if before_ok && after_ok {
            return Some(p);
        }
        start = p + 1;
    }
    None
}

/// Blank comments and string/char contents while preserving the exact
/// line structure, so line numbers in the result match the input.
fn code_view(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    let push_masked = |out: &mut String, c: char| out.push(if c == '\n' { '\n' } else { ' ' });
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == '/' && b.get(i + 1) == Some(&'/') {
            while i < b.len() && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment — Rust block comments nest.
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let mut depth = 1;
            out.push_str("  ");
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    push_masked(&mut out, b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and raw byte) string: r"…", r#"…"#, br#"…"#.
        if (c == 'r' || c == 'b') && (i == 0 || (!b[i - 1].is_alphanumeric() && b[i - 1] != '_')) {
            let mut j = i;
            if b[j] == 'b' && b.get(j + 1) == Some(&'r') {
                j += 1;
            }
            if b[j] == 'r' {
                let mut k = j + 1;
                let mut hashes = 0;
                while b.get(k) == Some(&'#') {
                    hashes += 1;
                    k += 1;
                }
                if b.get(k) == Some(&'"') {
                    for &p in &b[i..=k] {
                        out.push(p);
                    }
                    i = k + 1;
                    // Scan for `"` followed by `hashes` hashes.
                    loop {
                        if i >= b.len() {
                            break;
                        }
                        if b[i] == '"'
                            && b[i + 1..]
                                .iter()
                                .take(hashes)
                                .filter(|&&h| h == '#')
                                .count()
                                == hashes
                        {
                            out.push('"');
                            for _ in 0..hashes {
                                out.push('#');
                            }
                            i += 1 + hashes;
                            break;
                        }
                        push_masked(&mut out, b[i]);
                        i += 1;
                    }
                    continue;
                }
            }
        }
        // Ordinary string (a leading `b` falls through as a plain char).
        if c == '"' {
            out.push('"');
            i += 1;
            while i < b.len() {
                if b[i] == '\\' && i + 1 < b.len() {
                    push_masked(&mut out, b[i]);
                    push_masked(&mut out, b[i + 1]);
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    out.push('"');
                    i += 1;
                    break;
                }
                push_masked(&mut out, b[i]);
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime tick.
        if c == '\'' {
            if b.get(i + 1) == Some(&'\\') {
                // Escaped char literal: consume through the closing quote.
                out.push('\'');
                i += 2;
                out.push(' ');
                out.push(' ');
                while i < b.len() && b[i] != '\'' {
                    push_masked(&mut out, b[i]);
                    i += 1;
                }
                if i < b.len() {
                    out.push('\'');
                    i += 1;
                }
                continue;
            }
            if b.get(i + 2) == Some(&'\'') && b.get(i + 1) != Some(&'\'') {
                // Plain char literal 'x'.
                out.push('\'');
                out.push(' ');
                out.push('\'');
                i += 3;
                continue;
            }
            // Lifetime or loop label: keep the tick, continue normally.
            out.push('\'');
            i += 1;
            continue;
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Per-line mask: true where the line sits inside a `#[cfg(test)]` (or
/// `#[cfg(all(test, …))]`) module. Token searches skip masked lines for
/// passes whose invariants govern production code only.
fn test_mod_mask(code: &str) -> Vec<bool> {
    let lines: Vec<&str> = code.lines().collect();
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let is_test_cfg = lines[i].contains("#[cfg")
            && find_token(lines[i], "test").is_some()
            && !lines[i].contains("not(test");
        if is_test_cfg {
            // Skip further attributes/blank lines to the introduced item.
            let mut j = i + 1;
            while j < lines.len() {
                let t = lines[j].trim();
                if t.is_empty() || t.starts_with("#[") {
                    j += 1;
                } else {
                    break;
                }
            }
            if j < lines.len() && find_token(lines[j], "mod").is_some() {
                let mut depth = 0i64;
                let mut started = false;
                let mut k = j;
                while k < lines.len() {
                    mask[k] = true;
                    for ch in lines[k].chars() {
                        match ch {
                            '{' => {
                                depth += 1;
                                started = true;
                            }
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    if started && depth <= 0 {
                        break;
                    }
                    k += 1;
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Environment-reading tokens that must stay behind the single door.
const ENV_TOKENS: &[&str] = &[
    "env::var",
    "env::var_os",
    "env::vars",
    "env::vars_os",
    "env::set_var",
    "env::remove_var",
];

/// Thread-creation tokens that must stay inside `crates/exec`.
const THREAD_TOKENS: &[&str] = &["thread::spawn", "thread::scope", "thread::Builder"];

/// Source trees on the implicit scale path, where `Cached::new` may appear
/// only in test code.
const SCALE_PATH: &[&str] = &[
    "crates/core/src/",
    "crates/baselines/src/",
    "crates/syndrome/src/",
    "crates/distsim/src/",
];

/// Library source trees whose non-test code may not read the parsed
/// knobs: no environment variable changes what a diagnosis, a batch
/// fan-out decision or a session's instrumentation does. The executor's
/// `config.rs` (the door itself) and `lib.rs` (`default_threads`, the
/// pool width) are exempt.
const KNOB_FREE: &[&str] = &[
    "crates/core/src/",
    "crates/syndrome/src/",
    "crates/topology/src/",
    "crates/baselines/src/",
    "crates/distsim/src/",
    "crates/trace/src/",
    "crates/exec/src/",
    "src/",
];

/// Tokens that read the parsed knobs (`mmdiag_exec::knobs()`, or a
/// `Knobs` parsed in place).
const KNOB_TOKENS: &[&str] = &["knobs", "Knobs"];

/// Run every pass over one file. `rel` is the workspace-relative path
/// with forward slashes; `src` its full text.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    // The vendored shims mirror external crates and are exempt from
    // workspace invariants (their own tests live in-tree and pass the
    // normal build).
    if rel.starts_with("crates/shims/") {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let code = code_view(src);
    let code_lines: Vec<&str> = code.lines().collect();
    let raw_lines: Vec<&str> = src.lines().collect();
    let mask = test_mod_mask(&code);
    let at = |line_idx: usize, pass: &'static str, message: String| Finding {
        file: rel.to_string(),
        line: line_idx + 1,
        pass,
        message,
    };

    // Pass: every `unsafe` carries a `// SAFETY:` comment (same line or
    // the contiguous comment block directly above).
    for (idx, line) in code_lines.iter().enumerate() {
        if find_token(line, "unsafe").is_none() {
            continue;
        }
        let mut documented = raw_lines[idx].contains("SAFETY:");
        let mut up = idx;
        while !documented && up > 0 {
            up -= 1;
            let t = raw_lines[up].trim_start();
            if t.starts_with("//") {
                documented = t.contains("SAFETY:");
                if documented {
                    break;
                }
            } else {
                break;
            }
        }
        if !documented {
            findings.push(at(
                idx,
                "unsafe-safety-comment",
                "`unsafe` without a `// SAFETY:` comment on or directly above it".into(),
            ));
        }
    }

    // Pass: process-environment reads stay behind `mmdiag_exec::config`.
    if rel != "crates/exec/src/config.rs" {
        for (idx, line) in code_lines.iter().enumerate() {
            for tok in ENV_TOKENS {
                if find_token(line, tok).is_some() {
                    findings.push(at(
                        idx,
                        "env-single-door",
                        format!(
                            "`{tok}` outside `crates/exec/src/config.rs` — route the knob \
                             through `mmdiag_exec::config::knobs()`"
                        ),
                    ));
                }
            }
        }
    }

    // Pass: library code reads no knob. The two live knobs size the global
    // pool and shrink the harnesses; a library that branched on one would
    // make a run depend on the environment.
    let knob_door = rel == "crates/exec/src/config.rs" || rel == "crates/exec/src/lib.rs";
    if !knob_door && KNOB_FREE.iter().any(|dir| rel.starts_with(dir)) {
        for (idx, line) in code_lines.iter().enumerate() {
            if mask[idx] {
                continue;
            }
            for tok in KNOB_TOKENS {
                if find_token(line, tok).is_some() {
                    findings.push(at(
                        idx,
                        "knob-free-library",
                        format!(
                            "`{tok}` in library code — no environment variable may change a \
                             run; take the setting as an argument or a session option"
                        ),
                    ));
                }
            }
        }
    }

    // Pass: thread creation stays inside the executor crate.
    if !rel.starts_with("crates/exec/") {
        for (idx, line) in code_lines.iter().enumerate() {
            for tok in THREAD_TOKENS {
                if find_token(line, tok).is_some() {
                    findings.push(at(
                        idx,
                        "thread-containment",
                        format!(
                            "`{tok}` outside `crates/exec` — use the shared `mmdiag_exec::Pool`"
                        ),
                    ));
                }
            }
        }
    }

    // Pass: wall-clock reads stay behind the `mmdiag_trace::clock` door.
    // Only the trace crate may call `Instant::now` — everything else times
    // through `now_ns()` / `Stopwatch`, so the span exactness contract
    // (the trace *is* the telemetry) has a single clock to be exact
    // against. `#[cfg(test)]` modules and integration-test files are
    // test code, not production timing, and may time freely.
    let is_test_file = rel.starts_with("tests/") || rel.contains("/tests/");
    if !rel.starts_with("crates/trace/") && !is_test_file {
        for (idx, line) in code_lines.iter().enumerate() {
            if !mask[idx] && find_token(line, "Instant::now").is_some() {
                findings.push(at(
                    idx,
                    "instant-single-door",
                    "`Instant::now` outside `crates/trace` — read time through \
                     `mmdiag_trace::clock` (`now_ns()` / `Stopwatch::start()`)"
                        .into(),
                ));
            }
        }
    }

    // Pass: blocking synchronisation primitives stay behind the
    // `mmdiag_exec::sync` facade — the single door that gives the
    // `model` feature its interleaving shims and the contention profiler
    // its lock-wait/park histograms (a facade primitive built from a
    // pool's cells records into that pool's report). A `std::sync::Mutex`
    // constructed anywhere else is invisible to both. Exempt: the facade itself and
    // the model shims it fronts; `crates/trace` (below the executor in
    // the dependency graph — routing through the facade would be a
    // cycle); test files and `#[cfg(test)]` modules (test-local
    // serialisation locks are not protocol state). `MutexGuard` &c. do
    // not match: the token search is word-bounded.
    const SYNC_TOKENS: &[&str] = &["Mutex", "Condvar", "RwLock"];
    let sync_exempt = rel == "crates/exec/src/sync.rs"
        || rel.starts_with("crates/exec/src/model")
        || rel.starts_with("crates/trace/")
        || is_test_file;
    if !sync_exempt {
        for (idx, line) in code_lines.iter().enumerate() {
            if mask[idx] || find_token(line, "std::sync").is_none() {
                continue;
            }
            for tok in SYNC_TOKENS {
                if find_token(line, tok).is_some() {
                    findings.push(at(
                        idx,
                        "sync-single-door",
                        format!(
                            "`std::sync::{tok}` outside `crates/exec/src/sync.rs` — construct \
                             it through the `mmdiag_exec::sync` facade so the model scheduler \
                             sees it and the contention profiler can"
                        ),
                    ));
                }
            }
        }
    }

    // Pass: the implicit scale path never materialises a CSR. A family
    // served from its generator math reaches the driver, the verifier, the
    // monitor, the syndrome sources and the simulator at `--xxlarge`
    // (Q_27, 10⁸-node) scale, where a single `Cached::new` would densify
    // ~3.6 GB of adjacency; only callers above them choose a CSR.
    if SCALE_PATH.iter().any(|dir| rel.starts_with(dir)) {
        for (idx, line) in code_lines.iter().enumerate() {
            if !mask[idx] && find_token(line, "Cached::new").is_some() {
                findings.push(at(
                    idx,
                    "implicit-no-materialisation",
                    "`Cached::new` on the implicit scale path — it must stay CSR-free \
                     (tests under `#[cfg(test)]` are exempt)"
                        .into(),
                ));
            }
        }
    }

    // Pass: public error enums stay `#[non_exhaustive]`.
    for (idx, line) in code_lines.iter().enumerate() {
        if mask[idx] {
            continue;
        }
        let Some(pos) = line.find("pub enum ") else {
            continue;
        };
        let ident: String = line[pos + "pub enum ".len()..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !ident.ends_with("Error") {
            continue;
        }
        let mut annotated = false;
        let mut up = idx;
        while up > 0 {
            up -= 1;
            let t = raw_lines[up].trim_start();
            if t.starts_with('#') || t.starts_with("//") || t.starts_with(")]") {
                if t.contains("non_exhaustive") {
                    annotated = true;
                    break;
                }
            } else {
                break;
            }
        }
        if !annotated {
            findings.push(at(
                idx,
                "non-exhaustive-errors",
                format!("public error enum `{ident}` is missing `#[non_exhaustive]`"),
            ));
        }
    }

    // Pass: crate-root hardening — `#![forbid(unsafe_code)]` everywhere,
    // except the executor, which is the audited unsafe island and must
    // instead deny `unsafe_op_in_unsafe_fn`.
    let is_crate_root = rel == "src/lib.rs"
        || rel == "src/main.rs"
        || (rel.starts_with("crates/")
            && (rel.ends_with("/src/lib.rs") || rel.ends_with("/src/main.rs")));
    if is_crate_root {
        // Search the comment-stripped view: prose *about* these
        // attributes (the executor's docs discuss the policy) must not
        // count as carrying them.
        if rel == "crates/exec/src/lib.rs" {
            if !code.contains("#![deny(unsafe_op_in_unsafe_fn)]") {
                findings.push(at(
                    0,
                    "crate-root-hardening",
                    "the executor crate root must carry `#![deny(unsafe_op_in_unsafe_fn)]`".into(),
                ));
            }
            if code.contains("#![forbid(unsafe_code)]") {
                findings.push(at(
                    0,
                    "crate-root-hardening",
                    "the executor cannot forbid unsafe (`Pool::map`'s lifetime erasure needs it) — \
                     this attribute would not compile"
                        .into(),
                ));
            }
        } else if !code.contains("#![forbid(unsafe_code)]") {
            findings.push(at(
                0,
                "crate-root-hardening",
                "crate root is missing `#![forbid(unsafe_code)]`".into(),
            ));
        }
    }

    findings
}

/// Recursively lint every `.rs` file under `root` (skipping `target/` and
/// VCS internals). Returns `(files examined, findings)`.
pub fn lint_workspace(root: &Path) -> (usize, Vec<Finding>) {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files);
    files.sort();
    let mut findings = Vec::new();
    let mut examined = 0;
    for rel in files {
        let Ok(src) = std::fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        examined += 1;
        findings.extend(lint_source(&rel.replace('\\', "/"), &src));
    }
    (examined, findings)
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().into_owned());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passes(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.pass).collect()
    }

    #[test]
    fn undocumented_unsafe_is_flagged_and_documented_unsafe_is_not() {
        let bad = "fn f() {\n    let x = unsafe { erase(y) };\n}\n";
        let found = lint_source("crates/exec/src/pool.rs", bad);
        assert_eq!(passes(&found), vec!["unsafe-safety-comment"]);
        assert_eq!(found[0].line, 2);

        let good = "fn f() {\n    // SAFETY: lifetime erasure only; the map joins first.\n    let x = unsafe { erase(y) };\n}\n";
        assert!(lint_source("crates/exec/src/pool.rs", good).is_empty());

        let same_line = "fn f() {\n    let x = unsafe { erase(y) }; // SAFETY: joined below\n}\n";
        assert!(lint_source("crates/exec/src/pool.rs", same_line).is_empty());
    }

    #[test]
    fn prose_and_strings_mentioning_unsafe_do_not_trip_the_pass() {
        let src = "//! Talks about unsafe code at length.\n\
                   fn f() -> &'static str {\n    \"unsafe as a string\"\n}\n\
                   /* block comment: unsafe unsafe */\n";
        assert!(lint_source("crates/core/src/driver.rs", src).is_empty());
        // Attribute tokens like `unsafe_code` are not the `unsafe` token.
        let attrs = "#![forbid(unsafe_code)]\n#![deny(unsafe_op_in_unsafe_fn)]\n";
        assert!(lint_source("crates/core/src/driver.rs", attrs).is_empty());
    }

    #[test]
    fn env_reads_outside_the_config_door_are_flagged() {
        let src = "fn f() -> Option<String> {\n    std::env::var(\"MMDIAG_QUICK\").ok()\n}\n";
        let found = lint_source("crates/bench/src/quick.rs", src);
        assert_eq!(passes(&found), vec!["env-single-door"]);
        assert_eq!(found[0].line, 2);
        // The one sanctioned door.
        assert!(lint_source("crates/exec/src/config.rs", src).is_empty());
        // Mentions in docs don't count.
        let doc = "//! Reads env::var exactly once.\nfn g() {}\n";
        assert!(lint_source("crates/bench/src/quick.rs", doc).is_empty());
    }

    #[test]
    fn thread_spawning_outside_exec_is_flagged() {
        let src = "fn f() {\n    std::thread::spawn(|| {});\n    std::thread::scope(|s| {});\n}\n";
        let found = lint_source("crates/syndrome/src/oracle.rs", src);
        assert_eq!(
            passes(&found),
            vec!["thread-containment", "thread-containment"]
        );
        // Inside the executor it is the whole point.
        assert!(lint_source("crates/exec/src/pool.rs", src).is_empty());
    }

    #[test]
    fn instant_now_outside_the_trace_clock_is_flagged() {
        let src = "fn f() {\n    let t0 = std::time::Instant::now();\n}\n";
        let found = lint_source("crates/bench/src/quick.rs", src);
        assert_eq!(passes(&found), vec!["instant-single-door"]);
        assert_eq!(found[0].line, 2);
        // The one sanctioned door.
        assert!(lint_source("crates/trace/src/clock.rs", src).is_empty());
        // `#[cfg(test)]` modules may time freely.
        let test_only = "#[cfg(test)]\nmod tests {\n    fn t() {\n        \
                         let t0 = std::time::Instant::now();\n    }\n}\n";
        assert!(lint_source("crates/core/src/session.rs", test_only).is_empty());
        // Integration-test files are test code too.
        assert!(lint_source("crates/exec/tests/model.rs", src).is_empty());
        // Prose about the token does not count.
        let doc = "//! Wraps Instant::now behind one door.\nfn g() {}\n";
        assert!(lint_source("crates/core/src/session.rs", doc).is_empty());
    }

    #[test]
    fn std_sync_primitives_outside_the_facade_are_flagged() {
        let src = "use std::sync::Mutex;\n\
                   fn f() {\n    let m = std::sync::Mutex::new(0);\n    \
                   let c: std::sync::Condvar = Default::default();\n    \
                   let r = std::sync::RwLock::new(1);\n}\n";
        let found = lint_source("crates/core/src/backend.rs", src);
        assert_eq!(
            passes(&found),
            vec![
                "sync-single-door",
                "sync-single-door",
                "sync-single-door",
                "sync-single-door"
            ]
        );
        assert_eq!(found[0].line, 1);
        // The facade itself, the shims it fronts, and the trace crate
        // (below the executor in the dependency graph) are the doors.
        assert!(lint_source("crates/exec/src/sync.rs", src).is_empty());
        assert!(lint_source("crates/exec/src/model/shim.rs", src).is_empty());
        assert!(lint_source("crates/trace/src/metrics.rs", src).is_empty());
        // Test files and `#[cfg(test)]` modules may serialise freely.
        assert!(lint_source("crates/exec/tests/model.rs", src).is_empty());
        let test_only = "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    \
                         static L: Mutex<()> = Mutex::new(());\n}\n";
        assert!(lint_source("crates/core/src/backend.rs", test_only).is_empty());
    }

    #[test]
    fn facade_guards_and_other_std_sync_items_do_not_trip_the_sync_pass() {
        // `MutexGuard` is not `Mutex` (word boundaries), `OnceLock`/`Arc`
        // imports are sanctioned, and prose about the token is ignored.
        let src = "//! Discusses std::sync::Mutex at length.\n\
                   use std::sync::OnceLock;\n\
                   use std::sync::Arc;\n\
                   use std::sync::atomic::AtomicBool;\n\
                   fn f(g: &mmdiag_exec::sync::MutexGuard<'_, u32>) {}\n\
                   fn g() { let s = \"std::sync::Mutex\"; }\n";
        assert!(lint_source("crates/core/src/backend.rs", src).is_empty());
        // A facade `Mutex` on a line that also mentions `std::sync` for
        // an unrelated item is the one shape the AND-rule tolerates only
        // when split across lines — keep them apart.
        let combined = "fn f() { let l: std::sync::OnceLock<Mutex<()>> = todo!(); }\n";
        assert_eq!(
            passes(&lint_source("crates/core/src/backend.rs", combined)),
            vec!["sync-single-door"],
            "std::sync and a primitive token on one line is flagged even if the \
             primitive is the facade's — split the import"
        );
    }

    #[test]
    fn materialisation_in_implicit_src_is_flagged_outside_tests() {
        let src = "fn f(g: &G) {\n    let c = Cached::new(g);\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t(g: &G) {\n        let c = Cached::new(g);\n    }\n}\n";
        let found = lint_source("crates/baselines/src/sampled.rs", src);
        assert_eq!(passes(&found), vec!["implicit-no-materialisation"]);
        assert_eq!(found[0].line, 2, "the test-mod call is exempt");
        // The same call under `#[cfg(test)]` alone passes.
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t(g: &G) {\n        let c = Cached::new(g);\n    }\n}\n";
        assert!(lint_source("crates/baselines/src/sampled.rs", in_test).is_empty());
        // Every scale-path crate is covered, the growth loop included.
        for dir in SCALE_PATH {
            let found = lint_source(&format!("{dir}grow.rs"), src);
            assert_eq!(passes(&found), vec!["implicit-no-materialisation"], "{dir}");
        }
        // Other crates may materialise freely.
        assert!(lint_source(
            "crates/bench/src/sweep.rs",
            "fn f(g: &G) { let c = Cached::new(g); }\n"
        )
        .iter()
        .all(|f| f.pass != "implicit-no-materialisation"));
    }

    #[test]
    fn knob_reads_in_library_src_are_flagged_outside_tests() {
        let src = "fn f() -> bool {\n    mmdiag_exec::knobs().quick\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() -> bool {\n        mmdiag_exec::knobs().quick\n    }\n}\n";
        let found = lint_source("crates/core/src/backend.rs", src);
        assert_eq!(passes(&found), vec!["knob-free-library"]);
        assert_eq!(found[0].line, 2, "the test-mod read is exempt");
        // The same read under `#[cfg(test)]` alone passes.
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() -> bool {\n        \
                       mmdiag_exec::knobs().quick\n    }\n}\n";
        assert!(lint_source("crates/core/src/backend.rs", in_test).is_empty());
        // Every listed tree trips, the facade and the executor included,
        // and so does a `Knobs` parsed in place.
        for dir in KNOB_FREE {
            let found = lint_source(&format!("{dir}pool.rs"), src);
            assert_eq!(passes(&found), vec!["knob-free-library"], "{dir}");
        }
        let parsed = "fn f() -> bool {\n    Knobs::from_env().quick\n}\n";
        assert_eq!(
            passes(&lint_source("src/session.rs", parsed)),
            vec!["knob-free-library"]
        );
        // The door, the pool width, the harnesses and the benchmark may
        // read them; so may integration tests and prose.
        for rel in [
            "crates/exec/src/config.rs",
            "crates/exec/src/lib.rs",
            "crates/bench/src/main.rs",
            "crates/bench/src/online.rs",
            "mmbench/src/main.rs",
            "crates/distsim/tests/sim_vs_model.rs",
        ] {
            assert!(
                lint_source(rel, src)
                    .iter()
                    .all(|f| f.pass != "knob-free-library"),
                "{rel}"
            );
        }
        let prose = "//! Reads no knobs.\nfn f() -> &'static str {\n    \"knobs\"\n}\n";
        assert!(lint_source("crates/trace/src/hub.rs", prose).is_empty());
    }

    #[test]
    fn public_error_enums_must_be_non_exhaustive() {
        let bad = "pub enum ProbeError {\n    Timeout,\n}\n";
        let found = lint_source("crates/core/src/probe.rs", bad);
        assert_eq!(passes(&found), vec!["non-exhaustive-errors"]);

        let good = "/// Docs.\n#[derive(Debug)]\n#[non_exhaustive]\npub enum ProbeError {\n    Timeout,\n}\n";
        assert!(lint_source("crates/core/src/probe.rs", good).is_empty());
        // Non-error enums and private enums are out of scope.
        assert!(lint_source(
            "crates/core/src/probe.rs",
            "pub enum Shape { A }\nenum InnerError { B }\n"
        )
        .is_empty());
    }

    #[test]
    fn crate_roots_must_be_hardened() {
        let naked = "//! A crate.\npub fn f() {}\n";
        let found = lint_source("crates/core/src/lib.rs", naked);
        assert_eq!(passes(&found), vec!["crate-root-hardening"]);
        let hard = "//! A crate.\n#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(lint_source("crates/core/src/lib.rs", hard).is_empty());
        // The executor is the audited island: deny-in-unsafe-fn instead.
        let exec = "//! Exec.\n#![deny(unsafe_op_in_unsafe_fn)]\npub fn f() {}\n";
        assert!(lint_source("crates/exec/src/lib.rs", exec).is_empty());
        let exec_naked = "//! Exec.\npub fn f() {}\n";
        assert_eq!(
            passes(&lint_source("crates/exec/src/lib.rs", exec_naked)),
            vec!["crate-root-hardening"]
        );
        // Non-root files carry no root obligations.
        assert!(lint_source("crates/core/src/driver.rs", naked).is_empty());
    }

    #[test]
    fn vendored_shims_are_excluded_from_every_pass() {
        // A file that would otherwise trip four passes at once.
        let src = "pub enum ShimError { A }\n\
                   fn f() {\n\
                       std::thread::spawn(|| {});\n\
                       let _ = std::env::var(\"X\");\n\
                       unsafe { core::hint::unreachable_unchecked() }\n\
                   }\n";
        assert_eq!(lint_source("crates/shims/rand/src/lib.rs", src), Vec::new());
        // The same content outside the shims is a pile of findings.
        assert!(lint_source("crates/syndrome/src/oracle.rs", src).len() >= 4);
    }

    #[test]
    fn the_workspace_itself_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("xtask lives at <root>/crates/xtask")
            .to_path_buf();
        let (examined, findings) = lint_workspace(&root);
        assert!(examined > 40, "walked only {examined} files");
        assert!(
            findings.is_empty(),
            "workspace invariant violations:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
