//! # tkcm-lint
//!
//! Workspace invariant linter: the standing policies of ROADMAP.md,
//! mechanized as a dependency-free static-analysis pass that gates CI.
//!
//! Five rule families (see [`rules`]):
//!
//! 1. **`snapshot-fingerprint`** — every `impl Snapshot for T` in the
//!    persistence file set is fingerprinted (type layout + encode/decode
//!    bodies, whitespace/comment/local-rename-insensitive) and compared
//!    against the checked-in `SNAPSHOT_FINGERPRINTS.toml`; layout drift
//!    without a format-version bump fails.  `--bless` re-records after a
//!    deliberate bump.
//! 2. **`cadence`** — `now`-minus-age-style timestamp arithmetic is flagged
//!    except on lines under an inline allow marker (the PR-3 unit-cadence
//!    bug, made unrepeatable).
//! 3. **`decode-hygiene`** — decode paths of the persistence files must use
//!    checked conversions and error returns: no `unwrap`/`expect`, no
//!    `panic!`-family macros, no indexing, no bare `as` numeric casts.
//! 4. **`single-definition`** — the on-disk magic literals and the
//!    format-version constants are each defined exactly once.
//! 5. **`obs-read-only`** — shipping code in the imputation core may
//!    record into the tkcm-obs layer but never read values back from it
//!    (`.value()`, `.quantile()`, snapshots, exports): outcomes must not
//!    depend on observability state.
//!
//! The crate is a library (so the fixture tests can drive synthetic
//! workspaces) plus the `tkcm-lint` binary CI runs.  It has **zero
//! dependencies**, vendored or otherwise: a hand-rolled lexer
//! ([`lexer`]), balanced-delimiter scanning ([`scan`]), an FNV-1a
//! fingerprint ([`fingerprint`]) and a tiny TOML subset ([`manifest`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod scan;

use std::path::{Path, PathBuf};

use manifest::Manifest;
use scan::scan_workspace;

/// What the linter checks and where.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Workspace root (the directory holding `crates/` and `src/`).
    pub root: PathBuf,
    /// Path of the fingerprint manifest.
    pub manifest_path: PathBuf,
    /// Files whose `Snapshot` impls are fingerprinted and whose decode
    /// paths are held to the hygiene rule (root-relative, `/` separators).
    pub persistence_files: Vec<String>,
    /// On-disk magic byte strings that must be defined exactly once.
    pub magic_literals: Vec<String>,
    /// Format-version constant names that must be defined exactly once.
    pub version_consts: Vec<String>,
    /// Root-relative path prefixes whose shipping code must treat the
    /// tkcm-obs layer as write-only (the `obs-read-only` rule).
    pub obs_read_only_paths: Vec<String>,
}

impl LintConfig {
    /// The real repository's configuration, rooted at `root`.
    pub fn for_repo(root: &Path) -> LintConfig {
        LintConfig {
            root: root.to_path_buf(),
            manifest_path: root.join("SNAPSHOT_FINGERPRINTS.toml"),
            persistence_files: [
                "crates/store/src/codec.rs",
                "crates/store/src/snapshot_file.rs",
                "crates/store/src/wal.rs",
                "crates/timeseries/src/persist.rs",
                "crates/core/src/persist.rs",
                "crates/runtime/src/durability.rs",
            ]
            .map(String::from)
            .to_vec(),
            magic_literals: ["TKCMSNAP", "TKCMWAL0"].map(String::from).to_vec(),
            version_consts: [
                "SNAPSHOT_FORMAT_VERSION",
                "WAL_FORMAT_VERSION",
                // On-disk geometry of the candidate-pruning signature index:
                // the persisted per-block summaries are only comparable under
                // one block length, so a second definition (or a silent edit)
                // is a format break like any other.
                "SIGNATURE_BLOCK_LEN",
                // Layout tag of the persisted FleetPartition (versioned
                // component assignment + migration log); recovery dispatches
                // on it, so exactly one definition may exist.
                "PARTITION_FORMAT_VERSION",
            ]
            .map(String::from)
            .to_vec(),
            obs_read_only_paths: ["crates/core/src/"].map(String::from).to_vec(),
        }
    }
}

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule family name.
    pub rule: &'static str,
    /// Root-relative file path (empty for workspace-level findings).
    pub file: String,
    /// 1-based line (0 for workspace-level findings).
    pub line: u32,
    /// Human-readable description with the suggested fix.
    pub message: String,
}

/// Result of a lint run.
#[derive(Clone, Debug)]
pub struct Report {
    /// All findings, in rule order then file/line order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of `Snapshot` impls fingerprinted.
    pub impls_fingerprinted: usize,
}

impl Report {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Runs all five rules and returns the report.
pub fn run(cfg: &LintConfig) -> Result<Report, String> {
    let files = scan_workspace(&cfg.root)?;
    let manifest = Manifest::load(&cfg.manifest_path)?;
    let mut findings = Vec::new();
    findings.extend(rules::check_fingerprints(&files, cfg, manifest.as_ref()));
    findings.extend(rules::check_cadence(&files));
    findings.extend(rules::check_decode_hygiene(&files, cfg));
    findings.extend(rules::check_single_definition(&files, cfg));
    findings.extend(rules::check_obs_read_only(&files, cfg));
    findings.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.message).cmp(&(b.rule, &b.file, b.line, &b.message))
    });
    let impls_fingerprinted =
        fingerprint::compute_fingerprints(&files, &cfg.persistence_files).len();
    Ok(Report {
        findings,
        files_scanned: files.len(),
        impls_fingerprinted,
    })
}

/// Re-records the fingerprint manifest (`--bless`).
///
/// Refuses when fingerprints drifted but neither format-version constant
/// moved — blessing that state would launder a silent format break through
/// the manifest.  `force` overrides for reviewed no-layout-change refactors
/// (e.g. an error-message rewrite inside a decode body).
pub fn bless(cfg: &LintConfig, force: bool) -> Result<Manifest, String> {
    let files = scan_workspace(&cfg.root)?;
    let (snap_ver, _) = rules::const_value(&files, "SNAPSHOT_FORMAT_VERSION");
    let (wal_ver, _) = rules::const_value(&files, "WAL_FORMAT_VERSION");
    let (Some(snap_ver), Some(wal_ver)) = (snap_ver, wal_ver) else {
        return Err(
            "cannot resolve SNAPSHOT_FORMAT_VERSION / WAL_FORMAT_VERSION from the sources"
                .to_string(),
        );
    };
    let current = fingerprint::compute_fingerprints(&files, &cfg.persistence_files);
    if let Some(old) = Manifest::load(&cfg.manifest_path)? {
        let versions_unchanged =
            old.snapshot_format_version == snap_ver && old.wal_format_version == wal_ver;
        let drifted: Vec<&str> = current
            .iter()
            .filter(|fp| {
                old.fingerprints
                    .get(&fp.key)
                    .is_some_and(|rec| *rec != fp.digest)
            })
            .map(|fp| fp.key.as_str())
            .collect();
        if versions_unchanged && !drifted.is_empty() && !force {
            return Err(format!(
                "refusing to bless: {} fingerprint(s) changed ({}) but neither \
                 SNAPSHOT_FORMAT_VERSION nor WAL_FORMAT_VERSION was bumped; bump the \
                 constant first (snapshot-format-compatibility policy), or pass --force \
                 if this is a reviewed refactor that provably keeps the byte layout",
                drifted.len(),
                drifted.join(", ")
            ));
        }
    }
    let manifest = Manifest {
        snapshot_format_version: snap_ver,
        wal_format_version: wal_ver,
        fingerprints: current.into_iter().map(|fp| (fp.key, fp.digest)).collect(),
    };
    manifest.store(&cfg.manifest_path)?;
    Ok(manifest)
}

/// Renders a report as JSON (hand-rolled; stable field order).
pub fn render_json(report: &Report) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let findings: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                esc(f.rule),
                esc(&f.file),
                f.line,
                esc(&f.message)
            )
        })
        .collect();
    format!(
        "{{\n  \"files_scanned\": {},\n  \"impls_fingerprinted\": {},\n  \"findings\": [\n{}\n  ],\n  \"clean\": {}\n}}\n",
        report.files_scanned,
        report.impls_fingerprinted,
        findings.join(",\n"),
        report.is_clean()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_reports_clean() {
        let report = Report {
            findings: vec![Finding {
                rule: "cadence",
                file: "a/b.rs".to_string(),
                line: 3,
                message: "a \"quoted\"\nmessage".to_string(),
            }],
            files_scanned: 2,
            impls_fingerprinted: 1,
        };
        let json = render_json(&report);
        assert!(json.contains("\\\"quoted\\\"\\nmessage"));
        assert!(json.contains("\"clean\": false"));
        assert!(!report.is_clean());
    }
}
