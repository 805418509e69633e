//! Records the compiler version in the binary, so every result can say
//! which rustc produced the code it timed.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=PGA_PERF_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
