//! The five rule families.
//!
//! Every rule works on the lexed token streams from [`crate::scan`], skips
//! `#[cfg(test)]` regions (policies govern shipping code; tests may
//! legitimately unwrap, index and fabricate timestamps) and honours inline
//! `// tkcm-lint: allow(<rule>)` suppressions.

use std::collections::BTreeMap;

use crate::fingerprint::{compute_fingerprints, Fingerprint};
use crate::lexer::TokKind;
use crate::manifest::Manifest;
use crate::scan::{find_fns, match_delim, SourceFile};
use crate::{Finding, LintConfig};

/// Rule name: snapshot-layout fingerprinting.
pub const RULE_FINGERPRINT: &str = "snapshot-fingerprint";
/// Rule name: timestamp-cadence arithmetic.
pub const RULE_CADENCE: &str = "cadence";
/// Rule name: decode-path hygiene.
pub const RULE_DECODE: &str = "decode-hygiene";
/// Rule name: single-definition constants.
pub const RULE_SINGLE_DEF: &str = "single-definition";
/// Rule name: observability is record-only inside the imputation core.
pub const RULE_OBS_READ_ONLY: &str = "obs-read-only";

fn finding(rule: &'static str, file: &str, line: u32, message: String) -> Finding {
    Finding {
        rule,
        file: file.to_string(),
        line,
        message,
    }
}

/// Extracts the value of `const <name>: u32 = <N>;` from the workspace.
/// Returns `(value, occurrences)`; `occurrences` counts non-test definitions
/// so the single-definition rule can report duplicates.
pub fn const_value(files: &[SourceFile], name: &str) -> (Option<u32>, usize) {
    let mut value = None;
    let mut count = 0usize;
    for file in files {
        let tokens = file.tokens();
        for i in 0..tokens.len() {
            if !tokens[i].is_ident("const") || !tokens.get(i + 1).is_some_and(|t| t.is_ident(name))
            {
                continue;
            }
            if file.test_mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            count += 1;
            // const NAME : TYPE = NUM ;
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct("=") && !tokens[j].is_punct(";") {
                j += 1;
            }
            if let Some(num) = tokens.get(j + 1) {
                if num.kind == TokKind::Num {
                    let digits: String = num
                        .text
                        .chars()
                        .take_while(|c| c.is_ascii_digit())
                        .collect();
                    if value.is_none() {
                        value = digits.parse().ok();
                    }
                }
            }
        }
    }
    (value, count)
}

/// Rule 2 — cadence: flags `now`-minus and minus-`age` arithmetic.
///
/// Deriving a timestamp as "now minus an age" silently assumes unit tick
/// cadence (the PR-3 bug); all reported times must be read from the window's
/// timestamp ring.  Ring-*index* arithmetic is the legitimate exception and
/// lives under an inline `tkcm-lint: allow(cadence)` marker.
pub fn check_cadence(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        let tokens = file.tokens();
        for i in 0..tokens.len() {
            if file.test_mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            let t = &tokens[i];
            let hit = if t.kind == TokKind::Ident
                && (t.text == "now" || t.text.ends_with("_now"))
                && tokens.get(i + 1).is_some_and(|n| n.is_punct("-"))
            {
                Some(format!(
                    "`{} - ...`: deriving a timestamp from \"now\" assumes unit tick cadence; \
                     read times from the window's timestamp ring instead",
                    t.text
                ))
            } else if t.is_punct("-")
                && tokens.get(i + 1).is_some_and(|n| {
                    n.kind == TokKind::Ident && (n.text == "age" || n.text.ends_with("_age"))
                })
            {
                Some(format!(
                    "`... - {}`: subtracting an age derives a time/position by cadence \
                     assumption; use the timestamp ring (or mark ring-index internals allowed)",
                    tokens[i + 1].text
                ))
            } else {
                None
            };
            if let Some(message) = hit {
                if !file.lexed.is_allowed(RULE_CADENCE, t.line) {
                    out.push(finding(RULE_CADENCE, &file.rel_path, t.line, message));
                }
            }
        }
    }
    out
}

/// Method names that read a value *back out* of the tkcm-obs metrics
/// registry or flight recorder.  The obs API deliberately gives its read
/// methods distinctive names (`observed_count`, not `count`) so this token
/// list stays collision-free against ordinary core code.
const OBS_READ_METHODS: &[&str] = &[
    "value",
    "quantile",
    "snapshot",
    "render_prometheus",
    "render_json",
    "events",
];

/// Rule 5 — obs-read-only: inside the configured core paths, shipping code
/// may *record* observability values but never read them back.
///
/// The workspace's bit-identity equivalence properties (threaded vs
/// sequential, before vs after recovery, pruned vs exhaustive) hold only
/// because imputation and maintenance decisions never depend on metrics,
/// spans or recorder state.  A single `.value()` read in a pruning
/// heuristic would make outcomes a function of what else the process
/// observed — unreproducible by construction.  Reads belong in export /
/// report layers (the runtime's `observability_report`, the eval harness);
/// reviewed exceptions use `tkcm-lint: allow(obs-read-only)`.
pub fn check_obs_read_only(files: &[SourceFile], cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        if !cfg
            .obs_read_only_paths
            .iter()
            .any(|prefix| file.rel_path.starts_with(prefix.as_str()))
        {
            continue;
        }
        let tokens = file.tokens();
        for i in 0..tokens.len() {
            if file.test_mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            if !tokens[i].is_punct(".") {
                continue;
            }
            let Some(name) = tokens.get(i + 1) else {
                continue;
            };
            if name.kind != TokKind::Ident || !OBS_READ_METHODS.iter().any(|m| name.text == *m) {
                continue;
            }
            if !tokens.get(i + 2).is_some_and(|p| p.is_punct("(")) {
                continue;
            }
            if file.lexed.is_allowed(RULE_OBS_READ_ONLY, name.line) {
                continue;
            }
            out.push(finding(
                RULE_OBS_READ_ONLY,
                &file.rel_path,
                name.line,
                format!(
                    "`.{}(...)` reads an observability value inside the imputation core; the \
                     obs-read-only policy says this code may record metrics but never read \
                     them back (outcomes would silently depend on observability state) — \
                     move the read to an export/report layer, or mark a reviewed exception \
                     with `tkcm-lint: allow(obs-read-only)`",
                    name.text
                ),
            ));
        }
    }
    out
}

/// Numeric primitive types for the bare-`as`-cast check.
const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Rule 3 — decode hygiene: inside decode paths of the persistence files,
/// forbid `.unwrap()`/`.expect()`, `panic!`-family macros, indexing and bare
/// `as` numeric casts.  Decode paths handle untrusted bytes; the corruption
/// policy is strict refusal via errors, never a panic or a silent wrap.
///
/// "Decode path" is mechanical: a fn named `read_from`, or whose name starts
/// with `read_`/`decode_`, or any fn inside an inherent `impl` block of a
/// type whose name contains `Decoder`.
pub fn check_decode_hygiene(files: &[SourceFile], cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        if !cfg.persistence_files.contains(&file.rel_path) {
            continue;
        }
        let tokens = file.tokens();
        let mut decode_ranges: Vec<(usize, usize)> = Vec::new();
        for f in find_fns(tokens, 0, tokens.len()) {
            if file.test_mask.get(f.start).copied().unwrap_or(false) {
                continue;
            }
            if f.name == "read_from" || f.name.starts_with("read_") || f.name.starts_with("decode_")
            {
                decode_ranges.push(f.body);
            }
        }
        decode_ranges.extend(decoder_impl_fn_bodies(file));
        decode_ranges.sort();
        decode_ranges.dedup();

        for (from, to) in decode_ranges {
            for i in from..to.min(tokens.len()) {
                let t = &tokens[i];
                let prev = i.checked_sub(1).map(|p| &tokens[p]);
                let next = tokens.get(i + 1);
                let hit = if t.kind == TokKind::Ident
                    && (t.text == "unwrap" || t.text == "expect")
                    && prev.is_some_and(|p| p.is_punct("."))
                    && next.is_some_and(|n| n.is_punct("("))
                {
                    Some(format!(
                        "`.{}()` in a decode path: corrupted input must surface as an error, \
                         not a panic (use `?` with a StoreError)",
                        t.text
                    ))
                } else if t.kind == TokKind::Ident
                    && matches!(
                        t.text.as_str(),
                        "panic" | "unreachable" | "todo" | "unimplemented"
                    )
                    && next.is_some_and(|n| n.is_punct("!"))
                {
                    Some(format!(
                        "`{}!` in a decode path: strict-refusal corruption handling returns \
                         errors, it never panics",
                        t.text
                    ))
                } else if t.is_punct("[")
                    && prev.is_some_and(|p| {
                        p.kind == TokKind::Ident && !NON_INDEX_KEYWORDS.contains(&p.text.as_str())
                            || p.is_punct(")")
                            || p.is_punct("]")
                    })
                {
                    Some(
                        "indexing in a decode path can panic on untrusted offsets; use \
                         `.get(..)` and return a corruption error"
                            .to_string(),
                    )
                } else if t.is_ident("as")
                    && next.is_some_and(|n| {
                        n.kind == TokKind::Ident && NUMERIC_TYPES.contains(&n.text.as_str())
                    })
                {
                    Some(format!(
                        "bare `as {}` cast in a decode path silently truncates/wraps untrusted \
                         values; use `try_from` with a corruption error",
                        next.map_or(String::new(), |n| n.text.clone())
                    ))
                } else {
                    None
                };
                if let Some(message) = hit {
                    if !file.lexed.is_allowed(RULE_DECODE, t.line) {
                        out.push(finding(RULE_DECODE, &file.rel_path, t.line, message));
                    }
                }
            }
        }
    }
    out
}

/// Keywords after which a `[` opens an array/slice expression or type, not
/// an index into the preceding value.  (`vec![` is already excluded by the
/// `!` token in between.)
const NON_INDEX_KEYWORDS: &[&str] = &[
    "return", "break", "else", "in", "let", "mut", "ref", "move", "as",
];

/// Bodies of fns inside inherent `impl` blocks of `*Decoder*` types.
fn decoder_impl_fn_bodies(file: &SourceFile) -> Vec<(usize, usize)> {
    let tokens = file.tokens();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("impl") {
            i += 1;
            continue;
        }
        // Header: tokens up to the opening brace; an inherent Decoder impl
        // has no `for` and mentions a `*Decoder*` identifier.
        let mut j = i + 1;
        let mut has_for = false;
        let mut has_decoder = false;
        while j < tokens.len() && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
            if tokens[j].is_ident("for") {
                has_for = true;
            }
            if tokens[j].kind == TokKind::Ident && tokens[j].text.contains("Decoder") {
                has_decoder = true;
            }
            j += 1;
        }
        if j < tokens.len() && tokens[j].is_punct("{") {
            if let Some(close) = match_delim(tokens, j, "{", "}") {
                if !has_for && has_decoder && !file.test_mask.get(i).copied().unwrap_or(false) {
                    for f in find_fns(tokens, j + 1, close) {
                        out.push(f.body);
                    }
                }
                i = close + 1;
                continue;
            }
        }
        i = j + 1;
    }
    out
}

/// Rule 4 — single definition: each magic literal and format-version
/// constant is defined exactly once in non-test code.  A second definition
/// is how silently diverging formats are born.
pub fn check_single_definition(files: &[SourceFile], cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for magic in &cfg.magic_literals {
        let mut sites: Vec<(String, u32)> = Vec::new();
        for file in files {
            for (i, t) in file.tokens().iter().enumerate() {
                if t.kind == TokKind::Str
                    && t.text.contains(magic.as_str())
                    && !file.test_mask.get(i).copied().unwrap_or(false)
                    && !file.lexed.is_allowed(RULE_SINGLE_DEF, t.line)
                {
                    sites.push((file.rel_path.clone(), t.line));
                }
            }
        }
        match sites.len() {
            1 => {}
            0 => out.push(finding(
                RULE_SINGLE_DEF,
                "",
                0,
                format!("magic literal \"{magic}\" is defined nowhere (expected exactly once)"),
            )),
            n => {
                for (file, line) in sites {
                    out.push(finding(
                        RULE_SINGLE_DEF,
                        &file,
                        line,
                        format!(
                            "magic literal \"{magic}\" appears {n} times (expected exactly once); \
                             reference the single constant instead"
                        ),
                    ));
                }
            }
        }
    }
    for name in &cfg.version_consts {
        let (_, count) = const_value(files, name);
        if count != 1 {
            out.push(finding(
                RULE_SINGLE_DEF,
                "",
                0,
                format!("`const {name}` is defined {count} times (expected exactly once)"),
            ));
        }
    }
    out
}

/// Rule 1 — fingerprint comparison against the manifest.
pub fn check_fingerprints(
    files: &[SourceFile],
    cfg: &LintConfig,
    manifest: Option<&Manifest>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let current = compute_fingerprints(files, &cfg.persistence_files);
    let (snap_ver, _) = const_value(files, "SNAPSHOT_FORMAT_VERSION");
    let (wal_ver, _) = const_value(files, "WAL_FORMAT_VERSION");
    let (Some(snap_ver), Some(wal_ver)) = (snap_ver, wal_ver) else {
        out.push(finding(
            RULE_FINGERPRINT,
            "",
            0,
            "cannot resolve SNAPSHOT_FORMAT_VERSION / WAL_FORMAT_VERSION from the sources"
                .to_string(),
        ));
        return out;
    };
    let Some(manifest) = manifest else {
        out.push(finding(
            RULE_FINGERPRINT,
            "",
            0,
            "SNAPSHOT_FINGERPRINTS.toml is missing; run `cargo run -p tkcm-lint -- --bless` \
             to record the current layouts"
                .to_string(),
        ));
        return out;
    };
    let versions_bumped =
        manifest.snapshot_format_version != snap_ver || manifest.wal_format_version != wal_ver;
    let current_map: BTreeMap<&str, &Fingerprint> =
        current.iter().map(|f| (f.key.as_str(), f)).collect();

    for fp in &current {
        let (file, _) = fp.key.split_once("::").unwrap_or((fp.key.as_str(), ""));
        match manifest.fingerprints.get(&fp.key) {
            None => out.push(finding(
                RULE_FINGERPRINT,
                file,
                fp.line,
                format!(
                    "new `impl Snapshot` ({}) is not recorded in SNAPSHOT_FINGERPRINTS.toml; \
                     run `cargo run -p tkcm-lint -- --bless`",
                    fp.key
                ),
            )),
            Some(recorded) if *recorded != fp.digest => {
                let message = if versions_bumped {
                    format!(
                        "snapshot layout of {} changed alongside a format-version bump \
                         (manifest: snapshot v{} / wal v{}, tree: v{snap_ver}/v{wal_ver}); \
                         run `cargo run -p tkcm-lint -- --bless` to re-record",
                        fp.key, manifest.snapshot_format_version, manifest.wal_format_version
                    )
                } else {
                    format!(
                        "snapshot layout of {} changed but neither SNAPSHOT_FORMAT_VERSION \
                         (still {snap_ver}) nor WAL_FORMAT_VERSION (still {wal_ver}) was \
                         bumped; readers accept exactly their own version, so this ships a \
                         silently incompatible format — bump the constant, then run \
                         `cargo run -p tkcm-lint -- --bless`",
                        fp.key
                    )
                };
                out.push(finding(RULE_FINGERPRINT, file, fp.line, message));
            }
            Some(_) => {}
        }
    }
    for key in manifest.fingerprints.keys() {
        if !current_map.contains_key(key.as_str()) {
            out.push(finding(
                RULE_FINGERPRINT,
                "",
                0,
                format!(
                    "SNAPSHOT_FINGERPRINTS.toml records {key} but no such `impl Snapshot` \
                     exists; run `cargo run -p tkcm-lint -- --bless`"
                ),
            ));
        }
    }
    if out.is_empty() && versions_bumped {
        out.push(finding(
            RULE_FINGERPRINT,
            "",
            0,
            format!(
                "format-version constants changed (manifest: snapshot v{}/wal v{}, tree: \
                 v{snap_ver}/v{wal_ver}) without any layout change; run \
                 `cargo run -p tkcm-lint -- --bless` to re-key the manifest",
                manifest.snapshot_format_version, manifest.wal_format_version
            ),
        ));
    }
    out
}
