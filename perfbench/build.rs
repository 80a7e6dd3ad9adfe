//! Records the rustflags the benchmark was built with (the
//! repository's `.cargo/config.toml` sets `target-cpu`), so every
//! result names the code generation it measured.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTFLAGS={}",
        flags.replace('\u{1f}', " ")
    );
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
