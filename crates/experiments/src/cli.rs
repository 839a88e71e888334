//! Minimal command-line option parsing shared by the `fig4` and
//! `inspect_case` binaries.

use std::fmt;

/// Options accepted by both binaries (`fig4` parses its own `--panel`
/// first and hands the rest over).
///
/// ```
/// use msmr_experiments::cli::RunOptions;
///
/// let opts = RunOptions::parse_from(["--cases", "10", "--jobs", "40"].iter().map(|s| s.to_string())).unwrap();
/// assert_eq!(opts.cases, 10);
/// assert_eq!(opts.jobs, 40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Number of generated test cases per data point (paper: 100).
    pub cases: usize,
    /// Base seed for the deterministic workload generator.
    pub seed: u64,
    /// Number of jobs per test case (paper: 100).
    pub jobs: usize,
    /// Number of access points (paper: 25).
    pub access_points: usize,
    /// Number of servers (paper: 20).
    pub servers: usize,
    /// Node budget of the exact pairwise search per test case.
    pub opt_node_limit: u64,
    /// Worker threads for batch evaluation (0 = all available cores).
    pub threads: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            cases: 100,
            seed: 2024,
            jobs: 100,
            access_points: 25,
            servers: 20,
            opt_node_limit: 200_000,
            threads: 0,
        }
    }
}

/// Error produced while parsing command-line options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOptionsError(String);

impl fmt::Display for ParseOptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseOptionsError {}

impl RunOptions {
    /// Parses options from the process arguments (skipping the program
    /// name).
    ///
    /// # Errors
    ///
    /// Returns an error describing the offending flag or value.
    pub fn parse() -> Result<Self, ParseOptionsError> {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses options from an explicit argument iterator.
    ///
    /// # Errors
    ///
    /// Returns an error describing the offending flag or value.
    pub fn parse_from<I>(args: I) -> Result<Self, ParseOptionsError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut options = RunOptions::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let mut value_for = |name: &str| -> Result<String, ParseOptionsError> {
                iter.next()
                    .ok_or_else(|| ParseOptionsError(format!("missing value for {name}")))
            };
            match flag.as_str() {
                "--cases" => options.cases = parse_number(&value_for("--cases")?)?,
                "--seed" => options.seed = parse_number(&value_for("--seed")?)?,
                "--jobs" => options.jobs = parse_number(&value_for("--jobs")?)?,
                "--access-points" => {
                    options.access_points = parse_number(&value_for("--access-points")?)?;
                }
                "--servers" => options.servers = parse_number(&value_for("--servers")?)?,
                "--opt-nodes" => {
                    options.opt_node_limit = parse_number(&value_for("--opt-nodes")?)?;
                }
                "--threads" => options.threads = parse_number(&value_for("--threads")?)?,
                "--help" | "-h" => {
                    println!("{}", Self::usage());
                    std::process::exit(0);
                }
                other => {
                    return Err(ParseOptionsError(format!("unknown option `{other}`")));
                }
            }
        }
        Ok(options)
    }

    /// Usage text printed for `--help`.
    #[must_use]
    pub fn usage() -> String {
        "options:\n  \
         --cases <n>          test cases per data point (default 100)\n  \
         --seed <n>           base seed (default 2024)\n  \
         --jobs <n>           jobs per test case (default 100)\n  \
         --access-points <n>  access points (default 25)\n  \
         --servers <n>        servers (default 20)\n  \
         --opt-nodes <n>      node budget of the exact OPT search (default 200000)\n  \
         --threads <n>        worker threads for batch evaluation (default 0 = all cores)"
            .to_string()
    }

    /// The edge workload configuration implied by these options (figure
    /// parameters such as β are applied on top by each
    /// [`Panel`](crate::Panel)'s points).
    #[must_use]
    pub fn base_config(&self) -> msmr_workload::EdgeWorkloadConfig {
        msmr_workload::EdgeWorkloadConfig::default()
            .with_jobs(self.jobs)
            .with_infrastructure(self.access_points, self.servers)
    }
}

fn parse_number<T: std::str::FromStr>(text: &str) -> Result<T, ParseOptionsError> {
    text.parse()
        .map_err(|_| ParseOptionsError(format!("invalid numeric value `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn defaults_match_the_paper_scale() {
        let opts = RunOptions::default();
        assert_eq!(opts.cases, 100);
        assert_eq!(opts.jobs, 100);
        assert_eq!(opts.access_points, 25);
        assert_eq!(opts.servers, 20);
        let config = opts.base_config();
        assert_eq!(config.jobs, 100);
        assert_eq!(config.access_points, 25);
    }

    #[test]
    fn parsing_overrides_values() {
        let opts = RunOptions::parse_from(args(&[
            "--cases",
            "5",
            "--seed",
            "9",
            "--jobs",
            "30",
            "--servers",
            "6",
            "--access-points",
            "8",
            "--opt-nodes",
            "1000",
            "--threads",
            "3",
        ]))
        .unwrap();
        assert_eq!(opts.cases, 5);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.jobs, 30);
        assert_eq!(opts.servers, 6);
        assert_eq!(opts.access_points, 8);
        assert_eq!(opts.opt_node_limit, 1000);
        assert_eq!(opts.threads, 3);
        assert_eq!(RunOptions::default().threads, 0);
    }

    #[test]
    fn errors_are_descriptive() {
        let err = RunOptions::parse_from(args(&["--bogus"])).unwrap_err();
        assert!(err.to_string().contains("--bogus"));
        let err = RunOptions::parse_from(args(&["--cases"])).unwrap_err();
        assert!(err.to_string().contains("missing value"));
        let err = RunOptions::parse_from(args(&["--cases", "abc"])).unwrap_err();
        assert!(err.to_string().contains("invalid numeric"));
        assert!(RunOptions::usage().contains("--cases"));
    }
}
