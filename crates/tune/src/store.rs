//! Where machine profiles live on disk and how they are found.
//!
//! Layout: one JSON file per (hostname, thread-count) pair inside the
//! profile directory —
//!
//! ```text
//! $SPGEMM_TUNE_DIR/                  # or ~/.cache/spgemm-tune
//!   profile-v1-<hostname>-t<threads>.json
//! ```
//!
//! The directory is resolved, in order, from `SPGEMM_TUNE_DIR`,
//! `$XDG_CACHE_HOME/spgemm-tune`, `$HOME/.cache/spgemm-tune`, and
//! finally `./.spgemm-tune`.

use crate::profile::{MachineProfile, ProfileError, PROFILE_VERSION};
use std::path::{Path, PathBuf};

/// Environment variable overriding the profile directory.
pub const TUNE_DIR_ENV: &str = "SPGEMM_TUNE_DIR";

/// The directory profiles are saved to and loaded from.
pub fn profile_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os(TUNE_DIR_ENV).filter(|v| !v.is_empty()) {
        return PathBuf::from(dir);
    }
    if let Some(xdg) = std::env::var_os("XDG_CACHE_HOME").filter(|v| !v.is_empty()) {
        return Path::new(&xdg).join("spgemm-tune");
    }
    if let Some(home) = std::env::var_os("HOME").filter(|v| !v.is_empty()) {
        return Path::new(&home).join(".cache").join("spgemm-tune");
    }
    PathBuf::from(".spgemm-tune")
}

/// This machine's name, sanitized for use in a file name.
pub fn hostname() -> String {
    let raw = std::env::var("HOSTNAME")
        .ok()
        .filter(|s| !s.trim().is_empty())
        .or_else(|| std::fs::read_to_string("/proc/sys/kernel/hostname").ok())
        .unwrap_or_default();
    let cleaned: String = raw
        .trim()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "unknown-host".to_owned()
    } else {
        cleaned
    }
}

/// File name prefix shared by all of `host`'s current-version
/// profiles (the thread count and `.json` suffix follow).
fn profile_file_prefix(host: &str) -> String {
    format!("profile-v{PROFILE_VERSION}-{host}-t")
}

/// File name of a (hostname, threads) profile.
fn profile_file_name(host: &str, threads: usize) -> String {
    format!("{}{threads}.json", profile_file_prefix(host))
}

/// File path for a (hostname, threads) profile.
pub fn profile_path(host: &str, threads: usize) -> PathBuf {
    profile_dir().join(profile_file_name(host, threads))
}

/// Persist `profile` under its own hostname/threads key, creating the
/// directory if needed. Returns the path written.
pub fn save(profile: &MachineProfile) -> std::io::Result<PathBuf> {
    let path = profile_path(&profile.hostname, profile.threads);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    // Write-then-rename so a crashed sweep never leaves a torn file
    // where `load` would find it; the tmp name carries the pid so
    // concurrent savers never publish each other's half-written bytes.
    let tmp = path.with_extension(format!("json.tmp.{}", std::process::id()));
    std::fs::write(&tmp, profile.to_json())?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Load the profile for this host at `threads` workers, if one exists
/// and decodes cleanly. Any failure (missing file, old schema,
/// corruption) is reported as `None`-with-reason so callers can fall
/// back to the static recipe.
pub fn load(threads: usize) -> Result<MachineProfile, LoadError> {
    load_from(&profile_path(&hostname(), threads))
}

/// Thread counts this host has calibrated profiles for, ascending.
///
/// Scans the profile directory for current-version files belonging to
/// `host`; unreadable directories simply yield an empty list.
pub fn calibrated_thread_counts(host: &str) -> Vec<usize> {
    calibrated_thread_counts_in(&profile_dir(), host)
}

/// [`calibrated_thread_counts`] against an explicit directory.
pub fn calibrated_thread_counts_in(dir: &Path, host: &str) -> Vec<usize> {
    let prefix = profile_file_prefix(host);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut counts: Vec<usize> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter_map(|name| {
            let rest = name.strip_prefix(&prefix)?;
            let digits = rest.strip_suffix(".json")?;
            digits.parse::<usize>().ok()
        })
        .collect();
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// The calibrated thread count closest to `want`, or `None` if nothing
/// is calibrated. Ties (equidistant above and below) resolve to the
/// **larger** count: a profile measured with more parallelism is the
/// better stand-in for a pool that sits between two calibrations,
/// since contention effects grow with threads.
pub fn nearest_thread_count(available: &[usize], want: usize) -> Option<usize> {
    available.iter().copied().min_by_key(|&t| {
        let dist = t.abs_diff(want);
        // Smaller distance wins; on equal distance the larger count
        // wins (encoded by preferring the key with the *smaller*
        // negated value second).
        (dist, usize::MAX - t)
    })
}

/// Load the best available profile for this host at `threads` workers:
/// the exact thread count when calibrated, otherwise the nearest
/// calibrated count (see [`nearest_thread_count`]), walking outward
/// past unreadable/corrupt files until something loads. Returns the
/// profile together with the thread count it was calibrated at so
/// callers can tell whether the match was exact.
///
/// This is the lookup worker pools should use: a serving engine sized
/// at, say, 3 threads per worker on a host calibrated at 2 and 4
/// gets the 4-thread profile instead of silently reverting to the
/// built-in rule.
pub fn load_nearest(threads: usize) -> Result<(MachineProfile, usize), LoadError> {
    load_nearest_in(&profile_dir(), &hostname(), threads)
}

/// [`load_nearest`] against an explicit directory and host.
pub fn load_nearest_in(
    dir: &Path,
    host: &str,
    threads: usize,
) -> Result<(MachineProfile, usize), LoadError> {
    let path_for = |t: usize| dir.join(profile_file_name(host, t));
    let exact_err = match load_from(&path_for(threads)) {
        Ok(p) => return Ok((p, threads)),
        Err(e) => e,
    };
    // Every calibrated count, closest first (ties prefer larger, as
    // in `nearest_thread_count`); a count whose file turns out
    // unreadable or corrupt is skipped, not fatal — the next-nearest
    // calibration still beats the static recipe.
    let mut counts = calibrated_thread_counts_in(dir, host);
    counts.sort_by_key(|&t| (t.abs_diff(threads), usize::MAX - t));
    for t in counts {
        if t == threads {
            continue; // already failed above
        }
        if let Ok(p) = load_from(&path_for(t)) {
            return Ok((p, t));
        }
    }
    Err(exact_err)
}

/// [`load`] from an explicit path.
pub fn load_from(path: &Path) -> Result<MachineProfile, LoadError> {
    let text = std::fs::read_to_string(path).map_err(LoadError::Io)?;
    let profile = MachineProfile::from_json(&text).map_err(LoadError::Decode)?;
    Ok(profile)
}

/// Why a profile could not be loaded.
#[derive(Debug)]
pub enum LoadError {
    /// File missing or unreadable.
    Io(std::io::Error),
    /// File present but not a valid current-version profile.
    Decode(ProfileError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "profile unreadable: {e}"),
            LoadError::Decode(e) => write!(f, "profile invalid: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{GridBounds, MachineProfile};

    fn tiny(host: &str, threads: usize) -> MachineProfile {
        MachineProfile {
            version: PROFILE_VERSION,
            hostname: host.into(),
            threads,
            collision_factor: 1.0,
            bounds: GridBounds {
                nrows_min: 1,
                nrows_max: 2,
            },
            cells: vec![],
        }
    }

    #[test]
    fn save_then_load_from_round_trips() {
        let dir = std::env::temp_dir().join(format!("spgemm-tune-test-{}", std::process::id()));
        let p = tiny("round-trip-host", 3);
        // Avoid racing sibling tests on the env var: drive the paths
        // directly rather than through profile_dir().
        let path = dir.join(format!(
            "profile-v{PROFILE_VERSION}-round-trip-host-t3.json"
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, p.to_json()).unwrap();
        let back = load_from(&path).unwrap();
        assert_eq!(back, p);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        match load_from(Path::new("/nonexistent/spgemm-profile.json")) {
            Err(LoadError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_file_is_decode_error() {
        let dir = std::env::temp_dir().join(format!("spgemm-tune-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{not json").unwrap();
        match load_from(&path) {
            Err(LoadError::Decode(_)) => {}
            other => panic!("expected Decode error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nearest_thread_count_picks_closest_and_breaks_ties_up() {
        assert_eq!(nearest_thread_count(&[], 4), None);
        assert_eq!(nearest_thread_count(&[2, 8], 2), Some(2));
        assert_eq!(nearest_thread_count(&[2, 8], 3), Some(2));
        assert_eq!(nearest_thread_count(&[2, 8], 6), Some(8));
        // Equidistant: prefer the larger calibration.
        assert_eq!(nearest_thread_count(&[2, 8], 5), Some(8));
        assert_eq!(nearest_thread_count(&[1, 2, 4, 16], 9), Some(4));
        assert_eq!(nearest_thread_count(&[4], 1000), Some(4));
    }

    #[test]
    fn calibrated_counts_scan_finds_only_matching_profiles() {
        let dir = std::env::temp_dir().join(format!("spgemm-tune-scan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let host = "scan-host";
        for t in [8usize, 2] {
            let p = tiny(host, t);
            let path = dir.join(format!("profile-v{PROFILE_VERSION}-{host}-t{t}.json"));
            std::fs::write(&path, p.to_json()).unwrap();
        }
        // Distractors: other host, stale version, junk suffix.
        std::fs::write(
            dir.join(format!("profile-v{PROFILE_VERSION}-other-host-t4.json")),
            "{}",
        )
        .unwrap();
        std::fs::write(dir.join(format!("profile-v0-{host}-t4.json")), "{}").unwrap();
        std::fs::write(
            dir.join(format!("profile-v{PROFILE_VERSION}-{host}-tXX.json")),
            "{}",
        )
        .unwrap();
        let counts = calibrated_thread_counts_in(&dir, host);
        assert_eq!(counts, vec![2, 8]);
        // The worker-pool lookup: no exact t3 profile, nearest is t2.
        let (back, at) = load_nearest_in(&dir, host, 3).unwrap();
        assert_eq!((back.threads, at), (2, 2));
        // Exact match wins when present.
        let (back, at) = load_nearest_in(&dir, host, 8).unwrap();
        assert_eq!((back.threads, at), (8, 8));
        // A corrupt nearest candidate is walked past, not fatal: for
        // want=6 the tie-break order is t8 then t2; truncate t8 and
        // the lookup must still land on t2 (and for want=8, where the
        // exact file itself is the corrupt one, likewise fall to t2).
        std::fs::write(
            dir.join(format!("profile-v{PROFILE_VERSION}-{host}-t8.json")),
            "{truncated",
        )
        .unwrap();
        let (back, at) = load_nearest_in(&dir, host, 6).unwrap();
        assert_eq!((back.threads, at), (2, 2));
        let (back, at) = load_nearest_in(&dir, host, 8).unwrap();
        assert_eq!((back.threads, at), (2, 2));
        // Nothing loadable at all: the exact error surfaces.
        assert!(load_nearest_in(&dir, "other", 4).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn calibrated_counts_missing_dir_is_empty() {
        assert!(calibrated_thread_counts_in(Path::new("/nonexistent/spgemm"), "h").is_empty());
    }

    #[test]
    fn hostname_is_filename_safe() {
        let h = hostname();
        assert!(!h.is_empty());
        assert!(
            h.chars()
                .all(|c| c.is_ascii_alphanumeric() || "-._".contains(c)),
            "{h}"
        );
    }
}
