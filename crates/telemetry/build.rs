//! Stamps build provenance into the crate environment so reports and the
//! cluster handshake can record exactly what produced them. Everything here
//! degrades to a fixed placeholder when the information is unavailable
//! (no `.git` directory, no `git` binary), keeping offline builds green.

use std::path::Path;
use std::process::Command;

fn git_hash() -> String {
    let out = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

fn main() {
    // Re-stamp when the checked-out commit moves. Only existing paths are
    // watched: cargo treats a missing rerun path as changed and would rerun
    // this script (and rebuild every dependent crate) on every build of a
    // checkout without `.git`, such as a source tarball.
    for path in ["../../.git/HEAD", "../../.git/refs"] {
        if Path::new(path).exists() {
            println!("cargo:rerun-if-changed={path}");
        }
    }
    println!("cargo:rustc-env=QISMET_GIT_HASH={}", git_hash());
    // The enabled target features for this compilation (e.g. from
    // `-C target-cpu=native`), recorded so archived benchmark artifacts say
    // which ISA extensions the kernels were compiled against.
    let features = std::env::var("CARGO_CFG_TARGET_FEATURE").unwrap_or_default();
    println!("cargo:rustc-env=QISMET_TARGET_FEATURES={features}");
}
