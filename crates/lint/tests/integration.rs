//! End-to-end tests of the linter against synthetic workspaces (and the
//! real one).
//!
//! The synthetic workspaces mirror the real persistence-file layout
//! (`crates/store/src/codec.rs`, `crates/timeseries/src/persist.rs`) so
//! `LintConfig::for_repo` — the exact config the CI binary uses — applies
//! unchanged.  The headline test drives the *binary* through the full
//! layout-drift lifecycle and asserts on exit codes, which is what CI
//! gates on.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use tkcm_lint::{run, LintConfig};

/// `codec.rs` stand-in: the Snapshot trait plus the magic / format-version
/// constants, each defined exactly once as the single-definition rule
/// demands.
const CODEC: &str = r#"
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"TKCMSNAP";
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;
pub const WAL_MAGIC: [u8; 8] = *b"TKCMWAL0";
pub const WAL_FORMAT_VERSION: u32 = 1;
pub const SIGNATURE_BLOCK_LEN: u32 = 16;
pub const PARTITION_FORMAT_VERSION: u32 = 2;
pub trait Snapshot: Sized {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), Error>;
    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, Error>;
}
"#;

/// `persist.rs` stand-in with the struct fields / encode order injectable.
fn persist(fields: &str, encode: &str, decode: &str) -> String {
    format!(
        "pub struct Point {{ {fields} }}\n\
         impl Snapshot for Point {{\n\
             fn write_into(&self, enc: &mut Encoder) -> Result<(), Error> {{\n\
                 {encode}\n                 Ok(())\n             }}\n\
             fn read_from(dec: &mut Decoder<'_>) -> Result<Self, Error> {{\n\
                 {decode}\n             }}\n\
         }}\n"
    )
}

const FIELDS_AB: &str = "pub a: u32, pub b: u64";
const ENCODE_AB: &str = "enc.u32(self.a);\n                 enc.u64(self.b);";
const DECODE_AB: &str =
    "let a = dec.u32()?;\n                 let b = dec.u64()?;\n                 Ok(Point { a: a, b: b })";

/// Creates a fresh synthetic workspace under the temp dir.
fn workspace(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tkcm-lint-it-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    for sub in ["crates/store/src", "crates/timeseries/src"] {
        fs::create_dir_all(dir.join(sub)).unwrap();
    }
    fs::write(dir.join("crates/store/src/codec.rs"), CODEC).unwrap();
    fs::write(
        dir.join("crates/timeseries/src/persist.rs"),
        persist(FIELDS_AB, ENCODE_AB, DECODE_AB),
    )
    .unwrap();
    dir
}

/// Runs the real `tkcm-lint` binary; returns (exit code, stderr+stdout).
fn lint_bin(root: &Path, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tkcm-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawning tkcm-lint");
    let mut text = String::from_utf8_lossy(&out.stderr).into_owned();
    text.push_str(&String::from_utf8_lossy(&out.stdout));
    (out.status.code().unwrap_or(-1), text)
}

fn findings_for<'a>(report: &'a tkcm_lint::Report, rule: &str) -> Vec<&'a tkcm_lint::Finding> {
    report.findings.iter().filter(|f| f.rule == rule).collect()
}

// ---------------------------------------------------------------------------
// Rule 1 — snapshot fingerprints, full lifecycle through the binary.
// ---------------------------------------------------------------------------

#[test]
fn layout_drift_lifecycle_is_gated_by_exit_codes() {
    let root = workspace("lifecycle");
    let persist_path = root.join("crates/timeseries/src/persist.rs");
    let codec_path = root.join("crates/store/src/codec.rs");

    // No manifest yet: the lint fails and points at --bless.
    let (code, text) = lint_bin(&root, &[]);
    assert_eq!(code, 1, "missing manifest must fail: {text}");
    assert!(text.contains("--bless"), "{text}");

    // Bless, then the tree is clean.
    let (code, text) = lint_bin(&root, &["--bless"]);
    assert_eq!(code, 0, "bless must succeed: {text}");
    let (code, _) = lint_bin(&root, &[]);
    assert_eq!(code, 0, "freshly blessed tree must be clean");

    // Comment / whitespace / local-rename churn does NOT fire.
    fs::write(
        &persist_path,
        format!(
            "// cosmetic refactor\n{}",
            persist(
                FIELDS_AB,
                ENCODE_AB,
                &DECODE_AB
                    .replace("let a", "let first")
                    .replace("a: a", "a: first")
            )
        ),
    )
    .unwrap();
    let (code, text) = lint_bin(&root, &[]);
    assert_eq!(code, 0, "cosmetic churn must not fire: {text}");

    // Reordering the struct fields (and the encode/decode order with them)
    // without a version bump is the silent format break the rule exists for.
    fs::write(
        &persist_path,
        persist(
            "pub b: u64, pub a: u32",
            "enc.u64(self.b);\n                 enc.u32(self.a);",
            "let b = dec.u64()?;\n                 let a = dec.u32()?;\n                 Ok(Point { a, b })",
        ),
    )
    .unwrap();
    let (code, text) = lint_bin(&root, &[]);
    assert_eq!(code, 1, "field reorder without bump must fail");
    assert!(
        text.contains("neither SNAPSHOT_FORMAT_VERSION"),
        "must explain the missing bump: {text}"
    );

    // Blessing that state is refused — it would launder the break.
    let (code, text) = lint_bin(&root, &["--bless"]);
    assert_ne!(code, 0, "bless without a bump must refuse");
    assert!(text.contains("refusing to bless"), "{text}");

    // Bump the version constant; the drift is now deliberate.
    fs::write(
        &codec_path,
        CODEC.replace(
            "SNAPSHOT_FORMAT_VERSION: u32 = 1",
            "SNAPSHOT_FORMAT_VERSION: u32 = 2",
        ),
    )
    .unwrap();
    let (code, text) = lint_bin(&root, &[]);
    assert_eq!(code, 1, "still fails until re-blessed: {text}");
    assert!(text.contains("--bless"), "{text}");
    let (code, text) = lint_bin(&root, &["--bless"]);
    assert_eq!(code, 0, "bless after a bump must succeed: {text}");
    let (code, _) = lint_bin(&root, &[]);
    assert_eq!(code, 0, "re-blessed tree must be clean");

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn force_bless_overrides_the_refusal() {
    let root = workspace("force");
    let (code, _) = lint_bin(&root, &["--bless"]);
    assert_eq!(code, 0);
    // Drift without a bump...
    fs::write(
        root.join("crates/timeseries/src/persist.rs"),
        persist("pub b: u64, pub a: u32", ENCODE_AB, DECODE_AB),
    )
    .unwrap();
    let (code, _) = lint_bin(&root, &["--bless"]);
    assert_ne!(code, 0);
    // ...is blessable only with --force (reviewed no-layout-change refactor).
    let (code, text) = lint_bin(&root, &["--bless", "--force"]);
    assert_eq!(code, 0, "{text}");
    let (code, _) = lint_bin(&root, &[]);
    assert_eq!(code, 0);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn new_and_removed_impls_require_a_re_bless() {
    let root = workspace("impls");
    let (code, _) = lint_bin(&root, &["--bless"]);
    assert_eq!(code, 0);
    // A brand-new impl is flagged as unrecorded.
    let persist_path = root.join("crates/timeseries/src/persist.rs");
    let mut source = persist(FIELDS_AB, ENCODE_AB, DECODE_AB);
    source.push_str(
        "pub struct Extra { pub x: u64 }\n\
         impl Snapshot for Extra {\n\
             fn write_into(&self, enc: &mut Encoder) -> Result<(), Error> { Ok(()) }\n\
             fn read_from(dec: &mut Decoder<'_>) -> Result<Self, Error> { Ok(Extra { x: 0 }) }\n\
         }\n",
    );
    fs::write(&persist_path, &source).unwrap();
    let (code, text) = lint_bin(&root, &[]);
    assert_eq!(code, 1);
    assert!(text.contains("not recorded"), "{text}");
    // Adding an impl is not layout drift; blessing it needs no version bump.
    let (code, _) = lint_bin(&root, &["--bless"]);
    assert_eq!(code, 0);
    // Removing it again leaves a stale manifest entry behind.
    fs::write(&persist_path, persist(FIELDS_AB, ENCODE_AB, DECODE_AB)).unwrap();
    let (code, text) = lint_bin(&root, &[]);
    assert_eq!(code, 1);
    assert!(text.contains("no such `impl Snapshot`"), "{text}");
    let _ = fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// Rule 2 — cadence: firing and all three suppression paths.
// ---------------------------------------------------------------------------

#[test]
fn cadence_rule_fires_and_respects_suppressions() {
    let root = workspace("cadence");
    let cfg = LintConfig::for_repo(&root);
    let clock = root.join("crates/timeseries/src/clock.rs");

    // Firing: now-minus-age arithmetic in shipping code.
    fs::write(
        &clock,
        "pub fn t(now: u64, age: u64) -> u64 { now - age }\n",
    )
    .unwrap();
    let report = run(&cfg).unwrap();
    assert!(
        !findings_for(&report, "cadence").is_empty(),
        "now - age must fire"
    );

    // Non-firing: an inline allow marker on the offending line.
    fs::write(
        &clock,
        "pub fn t(now: u64, age: u64) -> u64 {\n    // tkcm-lint: allow(cadence)\n    now - age\n}\n",
    )
    .unwrap();
    let report = run(&cfg).unwrap();
    assert!(findings_for(&report, "cadence").is_empty(), "inline allow");

    // Non-firing: the same code inside a #[cfg(test)] module.
    fs::write(
        &clock,
        "#[cfg(test)]\nmod tests {\n    fn t(now: u64, age: u64) -> u64 { now - age }\n}\n",
    )
    .unwrap();
    let report = run(&cfg).unwrap();
    assert!(findings_for(&report, "cadence").is_empty(), "test region");
    let _ = fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// Rule 3 — decode hygiene: one firing fixture per pattern, plus scoping.
// ---------------------------------------------------------------------------

#[test]
fn decode_hygiene_flags_each_banned_pattern() {
    let root = workspace("decode-fire");
    let cfg = LintConfig::for_repo(&root);
    let decode = "let x = dec.u32().unwrap();\n\
                  let y = dec.bytes()[0];\n\
                  let z = y as u32;\n\
                  if x == 0 { panic!(\"bad\"); }\n\
                  Ok(Point { a: z, b: 0 })";
    fs::write(
        root.join("crates/timeseries/src/persist.rs"),
        persist(FIELDS_AB, ENCODE_AB, decode),
    )
    .unwrap();
    let report = run(&cfg).unwrap();
    let messages: Vec<&str> = findings_for(&report, "decode-hygiene")
        .iter()
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        messages.iter().any(|m| m.contains("`.unwrap()`")),
        "{messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("indexing")),
        "{messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("bare `as u32`")),
        "{messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("`panic!`")),
        "{messages:?}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn decode_hygiene_is_scoped_to_decode_paths_of_persistence_files() {
    let root = workspace("decode-scope");
    let cfg = LintConfig::for_repo(&root);

    // Encode paths of persistence files may unwrap (infallible by design).
    fs::write(
        root.join("crates/timeseries/src/persist.rs"),
        persist(
            FIELDS_AB,
            "enc.u32(u32::try_from(self.a).unwrap());",
            DECODE_AB,
        ),
    )
    .unwrap();
    // Non-persistence files may do anything.
    fs::write(
        root.join("crates/timeseries/src/hot.rs"),
        "pub fn read_fast(data: &[u8]) -> u8 { data[0] }\n",
    )
    .unwrap();
    let report = run(&cfg).unwrap();
    assert!(
        findings_for(&report, "decode-hygiene").is_empty(),
        "{:?}",
        report.findings
    );
    let _ = fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// Rule 4 — single definition: firing and non-firing.
// ---------------------------------------------------------------------------

#[test]
fn duplicated_magic_and_version_constants_fire() {
    let root = workspace("single-def");
    let cfg = LintConfig::for_repo(&root);

    // The base workspace defines everything exactly once: non-firing.
    let report = run(&cfg).unwrap();
    assert!(
        findings_for(&report, "single-definition").is_empty(),
        "{:?}",
        report.findings
    );

    // A second "TKCMSNAP" literal and a second version constant both fire.
    fs::write(
        root.join("crates/timeseries/src/rogue.rs"),
        "pub const MY_MAGIC: [u8; 8] = *b\"TKCMSNAP\";\npub const WAL_FORMAT_VERSION: u32 = 9;\n",
    )
    .unwrap();
    let report = run(&cfg).unwrap();
    let messages: Vec<&str> = findings_for(&report, "single-definition")
        .iter()
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        messages.iter().any(|m| m.contains("TKCMSNAP")),
        "{messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("WAL_FORMAT_VERSION") && m.contains("2 times")),
        "{messages:?}"
    );
    let _ = fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// Rule 5 — obs-read-only: firing, suppressions, and path scoping.
// ---------------------------------------------------------------------------

#[test]
fn obs_read_only_fires_in_core_and_respects_suppressions() {
    let root = workspace("obs-read");
    let cfg = LintConfig::for_repo(&root);
    fs::create_dir_all(root.join("crates/core/src")).unwrap();
    let engine = root.join("crates/core/src/engine.rs");

    // Firing: shipping core code reading metric values back.
    fs::write(
        &engine,
        "pub fn tune(h: &tkcm_obs::Histogram, c: &tkcm_obs::Counter) -> f64 {\n\
         \x20   let _ = c.value();\n\
         \x20   h.quantile(0.99)\n\
         }\n",
    )
    .unwrap();
    let report = run(&cfg).unwrap();
    let findings = findings_for(&report, "obs-read-only");
    assert_eq!(findings.len(), 2, "{:?}", report.findings);
    assert!(
        findings.iter().any(|f| f.message.contains("`.value(...)`")),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`.quantile(...)`")),
        "{findings:?}"
    );

    // Non-firing: record-side calls are exactly what core code should do.
    fs::write(
        &engine,
        "pub fn work(h: &tkcm_obs::Histogram, c: &tkcm_obs::Counter, g: &tkcm_obs::Gauge) {\n\
         \x20   c.inc();\n\
         \x20   g.set(3);\n\
         \x20   h.record(17);\n\
         }\n",
    )
    .unwrap();
    let report = run(&cfg).unwrap();
    assert!(
        findings_for(&report, "obs-read-only").is_empty(),
        "record-side calls must not fire: {:?}",
        report.findings
    );

    // Non-firing: reads inside a #[cfg(test)] module (assertions on metrics).
    fs::write(
        &engine,
        "#[cfg(test)]\nmod tests {\n    fn check(c: &tkcm_obs::Counter) { assert_eq!(c.value(), 1); }\n}\n",
    )
    .unwrap();
    let report = run(&cfg).unwrap();
    assert!(
        findings_for(&report, "obs-read-only").is_empty(),
        "test region: {:?}",
        report.findings
    );

    // Non-firing: an inline allow marker for a reviewed exception.
    fs::write(
        &engine,
        "pub fn reviewed(c: &tkcm_obs::Counter) -> u64 {\n\
         \x20   // tkcm-lint: allow(obs-read-only)\n\
         \x20   c.value()\n\
         }\n",
    )
    .unwrap();
    let report = run(&cfg).unwrap();
    assert!(
        findings_for(&report, "obs-read-only").is_empty(),
        "inline allow: {:?}",
        report.findings
    );

    // Non-firing: the same read outside the configured path prefixes
    // (export/report layers are where reads belong).
    fs::remove_file(&engine).unwrap();
    fs::write(
        root.join("crates/timeseries/src/report.rs"),
        "pub fn p99(h: &tkcm_obs::Histogram) -> f64 { h.quantile(0.99) }\n",
    )
    .unwrap();
    let report = run(&cfg).unwrap();
    assert!(
        findings_for(&report, "obs-read-only").is_empty(),
        "out-of-scope path: {:?}",
        report.findings
    );
    let _ = fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// The real repository is clean (the same invocation CI gates on).
// ---------------------------------------------------------------------------

#[test]
fn the_real_repository_passes_its_own_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg = LintConfig::for_repo(&root);
    let report = run(&cfg).unwrap();
    assert!(
        report.is_clean(),
        "the tree must lint clean (re-run `cargo run -p tkcm-lint` for details): {:#?}",
        report.findings
    );
    // One per `impl Snapshot` in the persistence file set: 21 at snapshot
    // v9.
    assert!(
        report.impls_fingerprinted >= 21,
        "the persistence file set should keep its Snapshot impls covered, found {}",
        report.impls_fingerprinted
    );
}
