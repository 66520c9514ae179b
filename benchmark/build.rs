//! Records the compiler version the benchmark (and the program under
//! test) was built with, for the provenance block of every result file.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok());
    println!(
        "cargo:rustc-env=PFBENCH_RUSTC_VERSION={}",
        version.as_deref().map_or("unknown", str::trim)
    );
    println!("cargo:rerun-if-changed=build.rs");
}
