//! Runs every experiment binary in sequence, mirroring the paper's §6.
//!
//! ```text
//! cargo run --release -p fastppv-bench --bin run_all [-- --scale F --queries N]
//! ```
//!
//! Flags after `--` are forwarded to every experiment. Output goes to
//! stdout as GitHub-flavored markdown tables.

use std::process::Command;

/// The exhibit binaries, in the order of the table in `fastppv_bench`'s
/// module docs.
const EXPERIMENTS: &[&str] = &[
    "exp_toy",
    "exp_datasets",
    "exp_baselines",
    "exp_hub_policy",
    "exp_num_hubs",
    "exp_iterations",
    "exp_scalability",
    "exp_disk",
    "exp_ablation",
    "exp_dynamic",
];

fn main() {
    let forwarded: Vec<String> = std::env::args().skip(1).collect();
    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin dir");
    let mut failures = Vec::new();
    for exp in EXPERIMENTS {
        println!("\n{:=<78}", "");
        println!("== {exp}");
        println!("{:=<78}", "");
        let status = Command::new(bin_dir.join(exp))
            .args(&forwarded)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {exp}: {e}"));
        if !status.success() {
            eprintln!("!! {exp} exited with {status}");
            failures.push(*exp);
        }
    }
    println!("\n{:=<78}", "");
    if failures.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
    } else {
        println!("FAILED: {failures:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    /// The list is the contents of `src/bin/`, this file aside, and the
    /// crate docs' table has a row for each, in the same order.
    #[test]
    fn experiments_are_the_exhibit_binaries() {
        let bin_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
        let mut on_disk: Vec<String> = std::fs::read_dir(bin_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter_map(|f| f.strip_suffix(".rs").map(str::to_owned))
            .filter(|name| name != "run_all")
            .collect();
        on_disk.sort();
        let mut listed: Vec<&str> = EXPERIMENTS.to_vec();
        listed.sort_unstable();
        assert_eq!(listed, on_disk);
        let docs = include_str!("../lib.rs");
        let mut at = 0;
        for exp in EXPERIMENTS {
            at += docs[at..]
                .find(&format!("| `{exp}` |"))
                .unwrap_or_else(|| panic!("{exp}: missing from the docs table, or out of order"));
        }
    }
}
