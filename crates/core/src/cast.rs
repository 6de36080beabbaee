//! Checked integer conversions for address- and cycle-carrying values.
//!
//! The address-translation hot spots (`dram::mapping`, the system
//! bridge, the pattern-tagged caches) move addresses between `u64`
//! byte addresses, `u32` row/column ids, and `usize` indices. A bare
//! `as` cast there silently truncates when a geometry outgrows a
//! field — exactly the kind of bug that only bites on a config nobody
//! diffed. Rule D3 (`clippy::as_conversions`, denied in those files;
//! see docs/LINTS.md) bans bare `as` casts there; these helpers are
//! the sanctioned replacement.
//!
//! Every narrowing helper panics with a named-value message on
//! truncation (an address that does not fit its field is a modelling
//! error, never recoverable data), and every widening helper is a
//! plain lossless conversion that keeps call sites terse. All helpers
//! are `#[inline]` and `#[track_caller]`, so release builds keep the
//! check and panics point at the call site.

/// Narrows a `u64` (address/cycle value) to `u32`, panicking on
/// truncation.
///
/// ```
/// assert_eq!(gsdram_core::cast::to_u32(7), 7u32);
/// ```
#[inline]
#[track_caller]
pub fn to_u32(x: u64) -> u32 {
    match u32::try_from(x) {
        Ok(v) => v,
        Err(_) => panic!("value {x:#x} does not fit u32"),
    }
}

/// Narrows a `u64` (address/cycle value) to `usize`, panicking on
/// truncation (a no-op check on 64-bit targets).
#[inline]
#[track_caller]
pub fn to_usize(x: u64) -> usize {
    match usize::try_from(x) {
        Ok(v) => v,
        Err(_) => panic!("value {x:#x} does not fit usize"),
    }
}

/// Narrows a `usize` (index/length) to `u32`, panicking on truncation.
#[inline]
#[track_caller]
pub fn len_to_u32(x: usize) -> u32 {
    match u32::try_from(x) {
        Ok(v) => v,
        Err(_) => panic!("length {x} does not fit u32"),
    }
}

/// Widens a `usize` (index/length) to `u64`. Lossless on every target
/// this simulator supports (≤ 64-bit).
#[inline]
#[track_caller]
pub fn widen(x: usize) -> u64 {
    match u64::try_from(x) {
        Ok(v) => v,
        Err(_) => panic!("usize {x} does not fit u64"),
    }
}

/// Widens a `u32` (row/column id) to `usize`. Lossless on every
/// target this simulator supports (≥ 32-bit).
#[inline]
#[track_caller]
pub fn index(x: u32) -> usize {
    match usize::try_from(x) {
        Ok(v) => v,
        Err(_) => panic!("u32 {x} does not fit usize"),
    }
}

/// Reinterprets a `u64` byte address as a signed offset for stride
/// arithmetic, panicking if the address occupies the sign bit (the
/// simulator models memories far below 2^63 bytes).
#[inline]
#[track_caller]
pub fn signed(x: u64) -> i64 {
    match i64::try_from(x) {
        Ok(v) => v,
        Err(_) => panic!("address {x:#x} does not fit i64"),
    }
}

/// Converts a non-negative signed offset back to a `u64` address,
/// panicking when negative.
#[inline]
#[track_caller]
pub fn unsigned(x: i64) -> u64 {
    match u64::try_from(x) {
        Ok(v) => v,
        Err(_) => panic!("offset {x} is negative, not an address"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_round_trips() {
        assert_eq!(to_u32(u64::from(u32::MAX)), u32::MAX);
        assert_eq!(to_usize(12), 12usize);
        assert_eq!(len_to_u32(4096), 4096);
        assert_eq!(widen(usize::MAX), usize::MAX as u64);
        assert_eq!(index(7), 7usize);
        assert_eq!(signed(u64::from(u32::MAX)), i64::from(u32::MAX));
        assert_eq!(unsigned(42), 42);
    }

    #[test]
    #[should_panic(expected = "does not fit u32")]
    fn narrowing_panics_on_truncation() {
        to_u32(1 << 33);
    }

    #[test]
    #[should_panic(expected = "not an address")]
    fn negative_offsets_are_rejected() {
        unsigned(-1);
    }
}
