//! Shared command-line parsing for the experiment binaries and
//! `gsdram-sim`. One [`Args`] value wraps an argv slice, so the same
//! lookups work on `std::env::args()` and on synthetic argument lists
//! in tests — and the flag grammar (`--name value`, `--flag`,
//! `--list a,b,c`) is defined in exactly one place, together with the
//! table of every flag any command reads ([`Args::check_known`]).

use crate::listing;

/// A parsed argument list.
#[derive(Debug, Clone, Default)]
pub struct Args {
    argv: Vec<String>,
}

impl Args {
    /// Wraps the process arguments.
    pub fn from_env() -> Args {
        Args {
            argv: std::env::args().skip(1).collect(),
        }
    }

    /// Wraps an explicit argument list (tests, the registry driver).
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(argv: I) -> Args {
        Args {
            argv: argv.into_iter().map(Into::into).collect(),
        }
    }

    /// The raw arguments.
    pub fn raw(&self) -> &[String] {
        &self.argv
    }

    /// The first non-flag argument (e.g. the workload or experiment
    /// name), skipping values that belong to `--name value` pairs.
    pub fn positional(&self) -> Option<&str> {
        self.positional_at(0)
    }

    /// The `n`-th (0-based) non-flag argument — `positional_at(1)` is
    /// the experiment name in `sweep fig9 --serial` or
    /// `trace fig9 --out t.json`.
    pub fn positional_at(&self, n: usize) -> Option<&str> {
        let mut seen = 0usize;
        let mut it = self.argv.iter();
        while let Some(a) = it.next() {
            if a.starts_with("--") {
                if Self::takes_value(a) {
                    it.next(); // skip this flag's value
                }
            } else {
                if seen == n {
                    return Some(a);
                }
                seen += 1;
            }
        }
        None
    }

    /// Every flag any command reads, paired with whether it takes a
    /// value — the value flags are what lets [`Args::positional`] tell
    /// `--prefetch analytics` from `--tuples 4096`. A flag read
    /// anywhere in the workspace must be listed here (pinned by a
    /// source scan in this module's tests).
    const FLAGS: &'static [(&'static str, bool)] = &[
        ("--prefetch", false),
        ("--impulse", false),
        ("--fcfs", false),
        ("--closed-row", false),
        ("--full", false),
        ("--serial", false),
        ("--list", false),
        ("--quiet", false),
        ("--hist", false),
        ("--all", false),
        ("--quick", false),
        ("--accesses", true),
        ("--alloc", true),
        ("--channels", true),
        ("--columns", true),
        ("--elements", true),
        ("--file", true),
        ("--inserts", true),
        ("--json", true),
        ("--layout", true),
        ("--lines", true),
        ("--lookups", true),
        ("--mapping", true),
        ("--mix", true),
        ("--n", true),
        ("--nodes", true),
        ("--out", true),
        ("--pairs", true),
        ("--pattern", true),
        ("--pattern-file", true),
        ("--ranks", true),
        ("--record", true),
        ("--run", true),
        ("--sched", true),
        ("--seed", true),
        ("--sizes", true),
        ("--strides", true),
        ("--threads", true),
        ("--tile", true),
        ("--timing", true),
        ("--trace-cap", true),
        ("--trace-out", true),
        ("--trials", true),
        ("--tuples", true),
        ("--txns", true),
        ("--updates", true),
        ("--variant", true),
    ];

    /// Whether `flag` consumes the next argument. Unknown flags do, so
    /// a stray `--name value` pair never reads as a positional.
    fn takes_value(flag: &str) -> bool {
        Self::FLAGS
            .iter()
            .find(|(name, _)| *name == flag)
            .is_none_or(|&(_, value)| value)
    }

    /// Rejects the first `--flag` that no command reads, with a "did
    /// you mean" and the full flag listing: a mistyped or retired flag
    /// is an error, never silently ignored.
    pub fn check_known(&self) -> Result<(), String> {
        let mut it = self.argv.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                continue;
            }
            match Self::FLAGS.iter().find(|(name, _)| name == a) {
                Some(&(_, true)) => {
                    it.next(); // skip this flag's value
                }
                Some(_) => {}
                None => {
                    let entries: Vec<listing::Entry> = Self::FLAGS
                        .iter()
                        .map(|&(name, value)| {
                            listing::Entry::new(name, if value { "<value>" } else { "" })
                        })
                        .collect();
                    return Err(listing::unknown("flag", a, "known flags", &entries));
                }
            }
        }
        Ok(())
    }

    /// `--name value` lookup.
    pub fn value(&self, name: &str) -> Option<String> {
        let mut it = self.argv.iter();
        while let Some(a) = it.next() {
            if a == name {
                return it.next().cloned();
            }
        }
        None
    }

    /// Numeric `--name value` with a default.
    pub fn u64(&self, name: &str, default: u64) -> u64 {
        self.value(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// `usize` variant of [`Args::u64`].
    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.u64(name, default as u64) as usize
    }

    /// Boolean flag presence.
    pub fn flag(&self, name: &str) -> bool {
        self.argv.iter().any(|a| a == name)
    }

    /// Comma-separated `usize` list (`--sizes 32,64,128`).
    pub fn usize_list(&self, name: &str, default: &[usize]) -> Vec<usize> {
        self.value(name)
            .map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect())
            .unwrap_or_else(|| default.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups() {
        let a = Args::new(["--tuples", "4096", "--prefetch", "--sizes", "32,64"]);
        assert_eq!(a.u64("--tuples", 1), 4096);
        assert_eq!(a.u64("--txns", 7), 7);
        assert!(a.flag("--prefetch"));
        assert!(!a.flag("--impulse"));
        assert_eq!(a.usize_list("--sizes", &[1]), vec![32, 64]);
        assert_eq!(a.usize_list("--strides", &[1]), vec![1]);
    }

    #[test]
    fn positional_skips_flag_values() {
        let a = Args::new(["--tuples", "4096", "analytics", "--prefetch"]);
        assert_eq!(a.positional(), Some("analytics"));
        let b = Args::new(["sweep", "fig10"]);
        assert_eq!(b.positional(), Some("sweep"));
        assert_eq!(b.positional_at(1), Some("fig10"));
        assert_eq!(b.positional_at(2), None);
        let t = Args::new(["trace", "--out", "t.json", "fig9", "--hist"]);
        assert_eq!(t.positional_at(1), Some("fig9"));
        let c = Args::new(["--prefetch", "htap"]);
        assert_eq!(c.positional(), Some("htap"));
        assert_eq!(Args::new(["--tuples", "4096"]).positional(), None);
    }

    #[test]
    fn unknown_flags_are_named_errors() {
        let ok = Args::new([
            "sweep", "fig9", "--txns", "200", "--serial", "--json", "a.json",
        ]);
        assert_eq!(ok.check_known(), Ok(()));
        // A value that looks like a flag belongs to its flag.
        assert_eq!(Args::new(["--out", "--quick"]).check_known(), Ok(()));
        for retired in ["--shard", "--transactions"] {
            let e = Args::new(["sweep", "fig9", retired, "200"])
                .check_known()
                .unwrap_err();
            assert!(e.starts_with(&format!("unknown flag '{retired}'")), "{e}");
            assert!(e.contains("--txns"), "the listing names every flag: {e}");
        }
        let e = Args::new(["--tuple", "4096"]).check_known().unwrap_err();
        assert!(e.contains("did you mean '--tuples'"), "{e}");
    }

    /// Every `--flag` literal handed to an `Args` lookup anywhere under
    /// `crates/` is in [`Args::FLAGS`], so `check_known` can never
    /// reject a flag some command reads.
    #[test]
    fn every_flag_read_in_the_workspace_is_known() {
        fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
            for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
                let path = entry.path();
                if path.is_dir() {
                    walk(&path, out);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    out.push(path);
                }
            }
        }
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut files = Vec::new();
        walk(&crates, &mut files);
        let mut read = Vec::new();
        for file in &files {
            let src = std::fs::read_to_string(file).expect("read source");
            for lookup in [".value(", ".u64(", ".usize(", ".flag(", ".usize_list("] {
                for (at, _) in src.match_indices(lookup) {
                    let rest = src[at + lookup.len()..].trim_start();
                    let Some(lit) = rest.strip_prefix("\"--") else {
                        continue;
                    };
                    let name = format!("--{}", &lit[..lit.find('"').expect("closed literal")]);
                    read.push((file.display().to_string(), name));
                }
            }
        }
        assert!(read.len() > 60, "the scan found only {} reads", read.len());
        for (file, name) in &read {
            assert!(
                Args::FLAGS.iter().any(|(known, _)| known == name),
                "{file} reads {name}, which Args::FLAGS does not list"
            );
        }
    }
}
