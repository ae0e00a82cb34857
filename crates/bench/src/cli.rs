//! Minimal shared argument parsing for the experiment binaries.
//!
//! All binaries accept:
//!
//! * `--scale F` — dataset scale factor (1.0 default; 30 ≈ paper size);
//! * `--queries N` — number of test queries (default varies per binary);
//! * `--seed S` — RNG seed (default 42);
//! * `--threads T` — offline build threads (default: all cores).

/// Parsed common options.
#[derive(Clone, Copy, Debug)]
pub struct CommonArgs {
    /// Dataset scale factor.
    pub scale: f64,
    /// Number of test queries.
    pub queries: usize,
    /// RNG seed.
    pub seed: u64,
    /// Offline build threads.
    pub threads: usize,
}

impl CommonArgs {
    /// Parses `std::env::args`, with a per-binary default query count.
    pub fn parse(default_queries: usize) -> Self {
        Self::parse_from(std::env::args().skip(1), default_queries)
    }

    /// Like [`CommonArgs::parse`] with a per-binary default scale (used by
    /// binaries whose baselines are expensive at full scale).
    pub fn parse_with_scale(default_queries: usize, default_scale: f64) -> Self {
        let mut out = Self::parse(default_queries);
        if !std::env::args().any(|a| a == "--scale") {
            out.scale = default_scale;
        }
        out
    }

    /// Parses from an explicit iterator (testable).
    fn parse_from(args: impl IntoIterator<Item = String>, default_queries: usize) -> Self {
        let mut out = CommonArgs {
            scale: 1.0,
            queries: default_queries,
            seed: 42,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut take = |name: &str| -> String {
                it.next().unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--scale" => out.scale = take("--scale").parse().unwrap(),
                "--queries" => out.queries = take("--queries").parse().unwrap(),
                "--seed" => out.seed = take("--seed").parse().unwrap(),
                "--threads" => out.threads = take("--threads").parse().unwrap(),
                "--help" | "-h" => {
                    eprintln!("options: --scale F  --queries N  --seed S  --threads T");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}");
                    std::process::exit(2);
                }
            }
        }
        assert!(out.scale > 0.0, "--scale must be positive");
        assert!(out.queries > 0, "--queries must be positive");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let a = CommonArgs::parse_from(strs(&[]), 40);
        assert_eq!(a.scale, 1.0);
        assert_eq!(a.queries, 40);
        assert_eq!(a.seed, 42);
        assert!(a.threads >= 1);
    }

    #[test]
    fn overrides() {
        let a = CommonArgs::parse_from(
            strs(&[
                "--scale",
                "2.5",
                "--queries",
                "7",
                "--seed",
                "9",
                "--threads",
                "3",
            ]),
            40,
        );
        assert_eq!(a.scale, 2.5);
        assert_eq!(a.queries, 7);
        assert_eq!(a.seed, 9);
        assert_eq!(a.threads, 3);
    }
}
