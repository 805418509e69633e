//! Rule registry. Each rule sees the whole workspace at once — R3 needs a
//! cross-file call-graph pass, so per-file granularity would be too narrow.

pub mod config_compat;
pub mod deadline_propagation;
pub mod determinism;
pub mod epoch_fencing;
pub mod lock_discipline;
pub mod panic_path;
pub mod relaxed_atomics;
pub mod retry_discipline;

use crate::source::SourceFile;

/// A lexed workspace (or fixture set) handed to every rule.
pub struct Workspace {
    /// All files in deterministic (path-sorted) order.
    pub files: Vec<SourceFile>,
}

/// One finding, pre-suppression.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule id (`panic-path`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// A static-analysis rule.
pub trait Rule {
    /// Stable id used in output and `pga-allow` annotations.
    fn id(&self) -> &'static str;
    /// One-line description for `--list`.
    fn describe(&self) -> &'static str;
    /// Append findings for the whole workspace.
    fn check(&self, ws: &Workspace, out: &mut Vec<Violation>);
}

/// All shipped rules, in documentation order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(determinism::Determinism),
        Box::new(panic_path::PanicPath),
        Box::new(lock_discipline::LockDiscipline),
        Box::new(relaxed_atomics::RelaxedAtomics),
        Box::new(retry_discipline::RetryDiscipline),
        Box::new(deadline_propagation::DeadlinePropagation),
        Box::new(epoch_fencing::EpochFencing),
        Box::new(config_compat::ConfigCompat),
    ]
}

/// Panic unless every `(crate, modules)` entry of a rule's scope table
/// names a live workspace crate and, for each module, a `src/<m>.rs` or
/// `src/<m>/` in it — so renaming a module without its scope entry
/// fails a test instead of silently dropping the module from the rule.
#[cfg(test)]
pub(crate) fn assert_scope_exists(scope: &[(&str, &[&str])]) {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    for (krate, modules) in scope {
        let src = crates.join(krate).join("src");
        assert!(src.is_dir(), "scope names a missing crate `{krate}`");
        for m in *modules {
            assert!(
                src.join(format!("{m}.rs")).is_file() || src.join(m).is_dir(),
                "scope names a missing module `{krate}::{m}`"
            );
        }
    }
}
