//! Warn-and-default environment-variable parsing.
//!
//! Every tunable the service reads from the environment (`WYT_PAR`,
//! `WYT_STORE_CAP`, `WYT_JOB_BUDGET`, ...) goes
//! through these helpers: an unset variable yields the default silently,
//! a malformed value yields the default with a one-time warning on
//! stderr. A bad knob must never panic a long-running batch service
//! mid-flight.
//!
//! Warnings are deduplicated per `(variable, raw value)` pair so a knob
//! consulted on every job (e.g. `WYT_PAR` in `resolve_threads`) does
//! not spam stderr.

use std::collections::BTreeSet;
use std::sync::Mutex;

static WARNED: Mutex<BTreeSet<(String, String)>> = Mutex::new(BTreeSet::new());

fn warn_once(name: &str, raw: &str, default: &str) {
    let mut seen = WARNED.lock().unwrap_or_else(|e| e.into_inner());
    if seen.insert((name.to_string(), raw.to_string())) {
        eprintln!("warning: ignoring invalid {name}={raw:?}; using default {default}");
    }
}

/// Parse an already-fetched raw value (or `None` when the variable is
/// unset). Split out from [`env_u64`] so the warn-and-default policy is
/// unit-testable without mutating the process environment.
pub fn parse_u64(name: &str, raw: Option<&str>, default: u64) -> u64 {
    let Some(raw) = raw else { return default };
    let trimmed = raw.trim();
    match parse_u64_lenient(trimmed) {
        Some(n) => n,
        None => {
            warn_once(name, raw, &default.to_string());
            default
        }
    }
}

/// Accept plain decimal and `0x`-prefixed hex, matching how seeds and
/// caps are written elsewhere in the repo (`WYT_FAULT=0xc0ffee`).
fn parse_u64_lenient(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Read `name` from the environment as a `u64`, warn-and-default on a
/// malformed value.
pub fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(raw) => parse_u64(name, Some(&raw), default),
        Err(_) => default,
    }
}

/// Read `name` from the environment as a `usize`, warn-and-default on a
/// malformed or out-of-range value.
pub fn env_usize(name: &str, default: usize) -> usize {
    let v = env_u64(name, default as u64);
    match usize::try_from(v) {
        Ok(n) => n,
        Err(_) => default,
    }
}

/// Like [`env_usize`] but with no default: `None` when unset, and
/// `None` (with a warning) when malformed, so callers keep their
/// "unset means feature off" semantics.
pub fn env_usize_opt(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    match parse_u64_lenient(trimmed).and_then(|v| usize::try_from(v).ok()) {
        Some(n) => Some(n),
        None => {
            warn_once(name, &raw, "unset");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_is_default() {
        assert_eq!(parse_u64("T_UNSET", None, 7), 7);
    }

    #[test]
    fn valid_values_parse() {
        assert_eq!(parse_u64("T_DEC", Some("42"), 7), 42);
        assert_eq!(parse_u64("T_HEX", Some("0x10"), 7), 16);
        assert_eq!(parse_u64("T_WS", Some(" 3 "), 7), 3);
    }

    #[test]
    fn malformed_values_default_without_panic() {
        assert_eq!(parse_u64("T_BAD", Some("banana"), 7), 7);
        assert_eq!(parse_u64("T_NEG", Some("-1"), 7), 7);
        assert_eq!(parse_u64("T_EMPTY", Some(""), 7), 7);
        assert_eq!(parse_u64("T_HUGE", Some("99999999999999999999999"), 7), 7);
    }
}
