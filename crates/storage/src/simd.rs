//! Runtime-dispatched SIMD scan kernels.
//!
//! Four kernel tiers implement the same scan primitives — the
//! compare-into-mask kernel behind [`crate::CompiledPredicate`] leaves,
//! the IN-list membership kernel behind compiled `IN` predicates, and
//! the fused compare+aggregate kernel behind single-comparison exact
//! scans:
//!
//! * **`avx512`** — 512-bit compares writing mask registers straight
//!   into `Bitmask` words (64 `u8` rows are one load and one
//!   `vpcmpub` away from a finished mask word — no movemask), plus
//!   `vpshufb` byte-table IN-list membership and a gather probe into the
//!   [`crate::InLookup`] bitset for wider types. Requires
//!   `avx512f` + `avx512bw`.
//! * **`avx2`** — explicit 256-bit compare + movemask intrinsics: 64 rows
//!   of a `u8` column are two loads, two compares and two movemasks away
//!   from a finished mask word.
//! * **`sse2`** — the 128-bit fallback, always present on `x86_64`
//!   (`i64` comparisons need `pcmpgtq`, which SSE2 lacks, so that one
//!   slot stays on the portable kernel).
//! * **`portable`** — the word-at-a-time kernels of
//!   [`crate::predicate`] / [`crate::aggregate`]: branchless
//!   `word |= (cmp as u64) << bit` packing that autovectorizes on any
//!   architecture. This is the only tier on non-x86 targets.
//!
//! The active tier is chosen **once**, at first use, by
//! [`active`] — `is_x86_feature_detected!` runtime dispatch captured in a
//! [`KernelSet`] vtable of monomorphic function pointers that
//! `predicate.rs`, `aggregate.rs`, `scan.rs` and `flashp-sampling`'s
//! estimators all route through. One environment variable overrides the
//! choice (read once, before the first query):
//! `FLASHP_KERNEL_TIER=avx512|avx2|sse2|portable` pins a specific tier
//! (CI runs the whole test suite once per pin, `portable` included, so
//! every tier stays covered on every PR). An unrecognized name, or a
//! tier this CPU cannot run, is **never** silent: selection prints one
//! deterministic warning to stderr and falls back to the best supported
//! tier (pinned by `resolve_tier`'s unit tests).
//!
//! Every mask and every **exact** aggregate is **bit-for-bit identical**
//! to the scalar reference oracle in `tests/support/reference.rs`: masks match
//! bit by bit, and fused sums are produced by the exact same
//! ascending-row addition order (the SIMD tiers vectorize the
//! comparisons and the mask-word assembly, never the float accumulation
//! — reassociating the sum would change low-order bits). The
//! `kernel_equivalence` property suite proves this for every
//! supported tier on every column type, including `f64` comparisons with
//! NaN and non-finite literals.

use crate::aggregate::AggState;
use crate::bitmask::Bitmask;
use crate::predicate::{CmpOp, InLookup};
use std::fmt;
use std::sync::OnceLock;

/// One of the scan-kernel implementation tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// 512-bit compares into mask registers (`avx512f` + `avx512bw`).
    Avx512,
    /// 256-bit AVX2 compare + movemask kernels.
    Avx2,
    /// 128-bit SSE2 kernels (`i64` compares fall back to portable).
    Sse2,
    /// Word-at-a-time portable kernels (autovectorized).
    Portable,
}

impl KernelTier {
    /// All tiers, best first — the dispatch preference order.
    pub const ALL: [KernelTier; 4] =
        [KernelTier::Avx512, KernelTier::Avx2, KernelTier::Sse2, KernelTier::Portable];

    /// Lower-case tier name as reported by `EXPLAIN` (`simd=<name>`) and
    /// the benchmark's run header.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Avx512 => "avx512",
            KernelTier::Avx2 => "avx2",
            KernelTier::Sse2 => "sse2",
            KernelTier::Portable => "portable",
        }
    }

    /// Parse a tier name as accepted by `FLASHP_KERNEL_TIER`: the
    /// [`KernelTier::name`] spellings, plus `scalar` as an alias for the
    /// portable tier.
    pub fn parse(s: &str) -> Option<KernelTier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "avx512" => Some(KernelTier::Avx512),
            "avx2" => Some(KernelTier::Avx2),
            "sse2" => Some(KernelTier::Sse2),
            "portable" | "scalar" => Some(KernelTier::Portable),
            _ => None,
        }
    }
}

impl fmt::Display for KernelTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A vtable of monomorphic scan-kernel entry points for one tier.
///
/// All mask-producing kernels require `mask.len() == data.len()` and
/// overwrite every mask word the data covers (the mask may arrive with
/// garbage words — see [`crate::MaskScratch`]). The fused kernels return
/// sums produced in ascending row order, bit-identical to
/// mask-then-aggregate on every tier.
#[derive(Clone, Copy)]
pub struct KernelSet {
    tier: KernelTier,
    cmp_u8: fn(&[u8], CmpOp, u8, &mut Bitmask),
    cmp_u16: fn(&[u16], CmpOp, u16, &mut Bitmask),
    cmp_u32: fn(&[u32], CmpOp, u32, &mut Bitmask),
    cmp_i64: fn(&[i64], CmpOp, i64, &mut Bitmask),
    cmp_f64: fn(&[f64], CmpOp, f64, &mut Bitmask),
    in_u8: fn(&[u8], &InLookup, &mut Bitmask),
    in_u16: fn(&[u16], &InLookup, &mut Bitmask),
    in_u32: fn(&[u32], &InLookup, &mut Bitmask),
    in_i64: fn(&[i64], &InLookup, &mut Bitmask),
    fused_u8: fn(&[u8], &[f64], CmpOp, u8) -> AggState,
    fused_u16: fn(&[u16], &[f64], CmpOp, u16) -> AggState,
    fused_u32: fn(&[u32], &[f64], CmpOp, u32) -> AggState,
    fused_i64: fn(&[i64], &[f64], CmpOp, i64) -> AggState,
    fused_f64: fn(&[f64], &[f64], CmpOp, f64) -> AggState,
}

impl fmt::Debug for KernelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelSet").field("tier", &self.tier).finish_non_exhaustive()
    }
}

impl KernelSet {
    /// The tier these kernels implement.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// `col op rhs` into `mask` for a `u8` column.
    #[inline]
    pub fn cmp_u8(&self, data: &[u8], op: CmpOp, rhs: u8, mask: &mut Bitmask) {
        (self.cmp_u8)(data, op, rhs, mask)
    }

    /// `col op rhs` into `mask` for a `u16` column.
    #[inline]
    pub fn cmp_u16(&self, data: &[u16], op: CmpOp, rhs: u16, mask: &mut Bitmask) {
        (self.cmp_u16)(data, op, rhs, mask)
    }

    /// `col op rhs` into `mask` for a dictionary-code (`u32`) column.
    #[inline]
    pub fn cmp_u32(&self, data: &[u32], op: CmpOp, rhs: u32, mask: &mut Bitmask) {
        (self.cmp_u32)(data, op, rhs, mask)
    }

    /// `col op rhs` into `mask` for an `i64` column.
    #[inline]
    pub fn cmp_i64(&self, data: &[i64], op: CmpOp, rhs: i64, mask: &mut Bitmask) {
        (self.cmp_i64)(data, op, rhs, mask)
    }

    /// `col op rhs` into `mask` for an `f64` column, with IEEE semantics
    /// identical to Rust's scalar float comparisons: ordered compares and
    /// `==` are `false` against NaN, `!=` is `true`.
    #[inline]
    pub fn cmp_f64(&self, data: &[f64], op: CmpOp, rhs: f64, mask: &mut Bitmask) {
        (self.cmp_f64)(data, op, rhs, mask)
    }

    /// `col IN (…)` membership into `mask` for a `u8` column through the
    /// compile-time [`InLookup`] bitset.
    #[inline]
    pub fn in_u8(&self, data: &[u8], lookup: &InLookup, mask: &mut Bitmask) {
        (self.in_u8)(data, lookup, mask)
    }

    /// IN-list membership for a `u16` column.
    #[inline]
    pub fn in_u16(&self, data: &[u16], lookup: &InLookup, mask: &mut Bitmask) {
        (self.in_u16)(data, lookup, mask)
    }

    /// IN-list membership for a dictionary-code (`u32`) column.
    #[inline]
    pub fn in_u32(&self, data: &[u32], lookup: &InLookup, mask: &mut Bitmask) {
        (self.in_u32)(data, lookup, mask)
    }

    /// IN-list membership for an `i64` column.
    #[inline]
    pub fn in_i64(&self, data: &[i64], lookup: &InLookup, mask: &mut Bitmask) {
        (self.in_i64)(data, lookup, mask)
    }

    /// Fused `filter(dim op rhs) → sum/count(values)` for a `u8` column;
    /// no mask is materialized.
    #[inline]
    pub fn fused_u8(&self, dims: &[u8], values: &[f64], op: CmpOp, rhs: u8) -> AggState {
        (self.fused_u8)(dims, values, op, rhs)
    }

    /// Fused filter+aggregate for a `u16` column.
    #[inline]
    pub fn fused_u16(&self, dims: &[u16], values: &[f64], op: CmpOp, rhs: u16) -> AggState {
        (self.fused_u16)(dims, values, op, rhs)
    }

    /// Fused filter+aggregate for a dictionary-code (`u32`) column.
    #[inline]
    pub fn fused_u32(&self, dims: &[u32], values: &[f64], op: CmpOp, rhs: u32) -> AggState {
        (self.fused_u32)(dims, values, op, rhs)
    }

    /// Fused filter+aggregate for an `i64` column.
    #[inline]
    pub fn fused_i64(&self, dims: &[i64], values: &[f64], op: CmpOp, rhs: i64) -> AggState {
        (self.fused_i64)(dims, values, op, rhs)
    }

    /// Fused filter+aggregate for an `f64` dimension column, with the
    /// same IEEE NaN semantics as [`KernelSet::cmp_f64`] and the exact
    /// ascending-row accumulation order of the other fused slots.
    #[inline]
    pub fn fused_f64(&self, dims: &[f64], values: &[f64], op: CmpOp, rhs: f64) -> AggState {
        (self.fused_f64)(dims, values, op, rhs)
    }

    /// The portable word-at-a-time tier (always available).
    pub fn portable() -> KernelSet {
        KernelSet {
            tier: KernelTier::Portable,
            cmp_u8: portable::cmp_u8,
            cmp_u16: portable::cmp_u16,
            cmp_u32: portable::cmp_u32,
            cmp_i64: portable::cmp_i64,
            cmp_f64: portable::cmp_f64,
            in_u8: portable::in_u8,
            in_u16: portable::in_u16,
            in_u32: portable::in_u32,
            in_i64: portable::in_i64,
            fused_u8: portable::fused_u8,
            fused_u16: portable::fused_u16,
            fused_u32: portable::fused_u32,
            fused_i64: portable::fused_i64,
            fused_f64: portable::fused_f64,
        }
    }

    /// The kernels for `tier`, or `None` when this machine cannot run it.
    pub fn for_tier(tier: KernelTier) -> Option<KernelSet> {
        match tier {
            KernelTier::Portable => Some(KernelSet::portable()),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Sse2 if std::arch::is_x86_feature_detected!("sse2") => {
                Some(KernelSet {
                    tier: KernelTier::Sse2,
                    cmp_u8: x86::cmp_u8_sse2,
                    cmp_u16: x86::cmp_u16_sse2,
                    cmp_u32: x86::cmp_u32_sse2,
                    // SSE2 has no 64-bit integer compare (`pcmpgtq` is
                    // SSE4.2); the portable kernel serves that slot.
                    cmp_i64: portable::cmp_i64,
                    cmp_f64: x86::cmp_f64_sse2,
                    // No `pshufb` before SSSE3: membership stays on the
                    // portable bitset probe.
                    in_u8: portable::in_u8,
                    in_u16: portable::in_u16,
                    in_u32: portable::in_u32,
                    in_i64: portable::in_i64,
                    fused_u8: x86::fused_u8_sse2,
                    fused_u16: x86::fused_u16_sse2,
                    fused_u32: x86::fused_u32_sse2,
                    fused_i64: portable::fused_i64,
                    fused_f64: x86::fused_f64_sse2,
                })
            }
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 if std::arch::is_x86_feature_detected!("avx2") => Some(KernelSet {
                tier: KernelTier::Avx2,
                cmp_u8: x86::cmp_u8_avx2,
                cmp_u16: x86::cmp_u16_avx2,
                cmp_u32: x86::cmp_u32_avx2,
                cmp_i64: x86::cmp_i64_avx2,
                cmp_f64: x86::cmp_f64_avx2,
                in_u8: x86::in_u8_avx2,
                // Wider types would need AVX2 gathers whose bounds
                // handling costs more than the bitset probe saves; the
                // portable kernel keeps those slots.
                in_u16: portable::in_u16,
                in_u32: portable::in_u32,
                in_i64: portable::in_i64,
                fused_u8: x86::fused_u8_avx2,
                fused_u16: x86::fused_u16_avx2,
                fused_u32: x86::fused_u32_avx2,
                fused_i64: x86::fused_i64_avx2,
                fused_f64: x86::fused_f64_avx2,
            }),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512
                if std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw") =>
            {
                Some(KernelSet {
                    tier: KernelTier::Avx512,
                    cmp_u8: x86::cmp_u8_avx512,
                    cmp_u16: x86::cmp_u16_avx512,
                    cmp_u32: x86::cmp_u32_avx512,
                    cmp_i64: x86::cmp_i64_avx512,
                    cmp_f64: x86::cmp_f64_avx512,
                    in_u8: x86::in_u8_avx512,
                    in_u16: x86::in_u16_avx512,
                    in_u32: x86::in_u32_avx512,
                    in_i64: x86::in_i64_avx512,
                    fused_u8: x86::fused_u8_avx512,
                    fused_u16: x86::fused_u16_avx512,
                    fused_u32: x86::fused_u32_avx512,
                    fused_i64: x86::fused_i64_avx512,
                    fused_f64: x86::fused_f64_avx512,
                })
            }
            #[allow(unreachable_patterns)]
            _ => None,
        }
    }

    /// Every tier this machine can run, best first (the portable tier is
    /// always last and always present) — tier selection and the
    /// equivalence tests iterate this.
    pub fn supported() -> Vec<KernelSet> {
        KernelTier::ALL.iter().filter_map(|&t| KernelSet::for_tier(t)).collect()
    }
}

/// The process-wide kernel set, selected once at first use.
static ACTIVE: OnceLock<KernelSet> = OnceLock::new();

/// The dispatched kernel set every scan and estimation routes through.
///
/// Selected once: the `FLASHP_KERNEL_TIER` pin first, then the best
/// tier the CPU supports.
pub fn active() -> &'static KernelSet {
    ACTIVE.get_or_init(select)
}

/// Tier of the dispatched kernel set (reported by `EXPLAIN` as
/// `simd=<tier>` and recorded in the benchmark's run header).
pub fn active_tier() -> KernelTier {
    active().tier()
}

/// Pure tier-selection logic behind [`active`], separated from the
/// environment and the warning sink so both are unit-testable: given the
/// `FLASHP_KERNEL_TIER` pin (as an `Option`) and the tiers this machine
/// supports (best first), return the tier to run and, for a pin that
/// could not be honored, the deterministic warning to print.
///
/// A pin that names an unknown tier, or a real tier this CPU cannot run,
/// must never degrade *silently* — the caller prints the warning once —
/// and must still leave the process on the best tier it has, so a typo'd
/// pin costs a line on stderr, not an unexplained benchmark cliff.
fn resolve_tier(pin: Option<&str>, supported: &[KernelTier]) -> (KernelTier, Option<String>) {
    let best = supported.first().copied().unwrap_or(KernelTier::Portable);
    let Some(name) = pin else {
        return (best, None);
    };
    match KernelTier::parse(name) {
        None => (
            best,
            Some(format!(
                "FLASHP_KERNEL_TIER: unrecognized tier {name:?} \
                 (valid: avx512|avx2|sse2|portable); using {best}"
            )),
        ),
        Some(t) if supported.contains(&t) => (t, None),
        Some(t) => (
            best,
            Some(format!(
                "FLASHP_KERNEL_TIER: tier '{t}' is not supported by this CPU; using {best}"
            )),
        ),
    }
}

fn select() -> KernelSet {
    let supported: Vec<KernelTier> = KernelSet::supported().iter().map(KernelSet::tier).collect();
    let pin = std::env::var("FLASHP_KERNEL_TIER").ok();
    let (tier, warning) = resolve_tier(pin.as_deref(), &supported);
    if let Some(w) = warning {
        eprintln!("flashp: {w}");
    }
    KernelSet::for_tier(tier).unwrap_or_else(KernelSet::portable)
}

/// Scalar comparison used for the `len % 64` tail rows of every SIMD
/// kernel (and by the portable fallbacks' tests). For floats this is
/// Rust's own IEEE semantics, which is exactly what the vector predicates
/// were chosen to match.
#[inline]
fn scalar_bool<T: Copy + PartialOrd>(op: CmpOp, x: T, rhs: T) -> bool {
    match op {
        CmpOp::Eq => x == rhs,
        CmpOp::Ne => x != rhs,
        CmpOp::Lt => x < rhs,
        CmpOp::Le => x <= rhs,
        CmpOp::Gt => x > rhs,
        CmpOp::Ge => x >= rhs,
    }
}

/// Write the final partial mask word (rows `64·(len/64)..len`) with the
/// scalar comparison; bits at or beyond `len` stay zero, preserving the
/// mask tail invariant.
fn scalar_tail<T: Copy + PartialOrd>(data: &[T], op: CmpOp, rhs: T, words: &mut [u64]) {
    let full = data.len() / 64;
    let rem = &data[full * 64..];
    if rem.is_empty() {
        return;
    }
    let mut w = 0u64;
    for (bit, &x) in rem.iter().enumerate() {
        w |= (scalar_bool(op, x, rhs) as u64) << bit;
    }
    words[full] = w;
}

/// Fold one finished 64-row mask word into the running fused aggregate,
/// in exactly the order the portable fused kernel uses: count first, then
/// an all-ones fast path or an ascending `trailing_zeros` walk — so the
/// float sum is bit-identical across tiers.
#[inline]
fn accumulate_word(word: u64, values: &[f64], sum: &mut f64, count: &mut u64) {
    debug_assert_eq!(values.len(), 64);
    *count += u64::from(word.count_ones());
    if word == u64::MAX {
        for &m in values {
            *sum += m;
        }
    } else {
        let mut w = word;
        while w != 0 {
            *sum += values[w.trailing_zeros() as usize];
            w &= w - 1;
        }
    }
}

/// Scalar accumulation of the `len % 64` tail rows of a fused kernel,
/// identical to the portable fused kernel's remainder loop.
fn fused_tail<T: Copy + PartialOrd>(
    dims: &[T],
    values: &[f64],
    op: CmpOp,
    rhs: T,
    state: &mut AggState,
) {
    let full = dims.len() / 64;
    for (&x, &m) in dims[full * 64..].iter().zip(&values[full * 64..]) {
        if scalar_bool(op, x, rhs) {
            state.sum += m;
            state.count += 1;
        }
    }
}

/// Write the final partial mask word of an IN-membership kernel with the
/// scalar bitset probe; bits at or beyond `len` stay zero.
fn in_tail<T: Copy + Into<i64>>(data: &[T], lookup: &InLookup, words: &mut [u64]) {
    let full = data.len() / 64;
    let rem = &data[full * 64..];
    if rem.is_empty() {
        return;
    }
    let mut w = 0u64;
    for (bit, &x) in rem.iter().enumerate() {
        w |= (lookup.contains(x.into()) as u64) << bit;
    }
    words[full] = w;
}

/// 256-bit byte-indexed membership table for the `vpshufb` u8 IN kernels:
/// bit `b & 7` of byte `b >> 3` says whether byte value `b` is in the
/// lookup. Built per kernel call (256 probes — noise next to a scan).
#[cfg(target_arch = "x86_64")]
fn byte_bit_table(lookup: &InLookup) -> [u8; 32] {
    let mut table = [0u8; 32];
    for b in 0..=255u8 {
        if lookup.contains(i64::from(b)) {
            table[(b >> 3) as usize] |= 1 << (b & 7);
        }
    }
    table
}

/// The portable tier: monomorphic entry points over the word-at-a-time
/// kernels in [`crate::predicate`] and [`crate::aggregate`].
mod portable {
    use super::*;

    macro_rules! portable_pair {
        ($cmp:ident, $fused:ident, $ty:ty) => {
            pub(super) fn $cmp(data: &[$ty], op: CmpOp, rhs: $ty, mask: &mut Bitmask) {
                crate::predicate::cmp_kernel(data, op, rhs, mask)
            }
            pub(super) fn $fused(dims: &[$ty], values: &[f64], op: CmpOp, rhs: $ty) -> AggState {
                crate::aggregate::fused_kernel(dims, values, op, rhs)
            }
        };
    }

    portable_pair!(cmp_u8, fused_u8, u8);
    portable_pair!(cmp_u16, fused_u16, u16);
    portable_pair!(cmp_u32, fused_u32, u32);
    portable_pair!(cmp_i64, fused_i64, i64);

    pub(super) fn cmp_f64(data: &[f64], op: CmpOp, rhs: f64, mask: &mut Bitmask) {
        crate::predicate::cmp_kernel(data, op, rhs, mask)
    }

    pub(super) fn fused_f64(dims: &[f64], values: &[f64], op: CmpOp, rhs: f64) -> AggState {
        crate::aggregate::fused_kernel(dims, values, op, rhs)
    }

    macro_rules! portable_in {
        ($name:ident, $ty:ty) => {
            pub(super) fn $name(data: &[$ty], lookup: &InLookup, mask: &mut Bitmask) {
                crate::predicate::in_lookup_kernel(data, lookup, mask)
            }
        };
    }

    portable_in!(in_u8, u8);
    portable_in!(in_u16, u16);
    portable_in!(in_u32, u32);
    portable_in!(in_i64, i64);
}

/// Explicit x86-64 SIMD kernels (AVX2 and SSE2 tiers).
///
/// Every integer comparison reduces, after operand normalization, to one
/// of three vector primitives — `x == rhs`, `x > rhs`, `rhs > x` — plus
/// an optional word-level complement (`Ne = !Eq`, `Le = !Gt`,
/// `Ge = !Lt`). The complement is applied to the finished 64-bit mask
/// word, never to the tail (which is computed scalar with the real
/// operator), so tail bits beyond `len` stay zero. Unsigned columns are
/// biased by XOR with the type's sign bit so the signed vector compare
/// orders them correctly. Floats never use the complement trick — it is
/// wrong under NaN — and instead select the exact IEEE predicate per
/// operator.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// `x == rhs`.
    const EQ: u8 = 0;
    /// `x > rhs` (after unsigned bias where needed).
    const GT_XR: u8 = 1;
    /// `rhs > x`.
    const GT_RX: u8 = 2;

    /// Reduce an operator to a vector primitive plus a word complement.
    fn decompose(op: CmpOp) -> (u8, bool) {
        match op {
            CmpOp::Eq => (EQ, false),
            CmpOp::Ne => (EQ, true),
            CmpOp::Gt => (GT_XR, false),
            CmpOp::Le => (GT_XR, true),
            CmpOp::Lt => (GT_RX, false),
            CmpOp::Ge => (GT_RX, true),
        }
    }

    // ---------------------------------------------------------------
    // AVX2: one 64-row mask word per `word64_*` call.
    // ---------------------------------------------------------------

    /// 64 `u8` rows → one mask word: two 32-lane compares + movemasks.
    ///
    /// # Safety
    /// `p` must be valid for reads of 64 `u8`s; requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn word64_u8_avx2<const MODE: u8>(
        p: *const u8,
        rhs_v: __m256i,
        rhs_b: __m256i,
        bias: __m256i,
    ) -> u64 {
        let a = _mm256_loadu_si256(p.cast());
        let b = _mm256_loadu_si256(p.add(32).cast());
        let (ma, mb) = match MODE {
            EQ => (_mm256_cmpeq_epi8(a, rhs_v), _mm256_cmpeq_epi8(b, rhs_v)),
            GT_XR => (
                _mm256_cmpgt_epi8(_mm256_xor_si256(a, bias), rhs_b),
                _mm256_cmpgt_epi8(_mm256_xor_si256(b, bias), rhs_b),
            ),
            _ => (
                _mm256_cmpgt_epi8(rhs_b, _mm256_xor_si256(a, bias)),
                _mm256_cmpgt_epi8(rhs_b, _mm256_xor_si256(b, bias)),
            ),
        };
        let lo = _mm256_movemask_epi8(ma) as u32 as u64;
        let hi = _mm256_movemask_epi8(mb) as u32 as u64;
        lo | (hi << 32)
    }

    /// 64 `u16` rows → one mask word. `packs_epi16` interleaves the
    /// 128-bit lanes as `[a_lo, b_lo, a_hi, b_hi]`; the `(0,2,1,3)`
    /// qword permute restores row order before the byte movemask.
    ///
    /// # Safety
    /// `p` must be valid for reads of 64 `u16`s; requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn word64_u16_avx2<const MODE: u8>(
        p: *const u16,
        rhs_v: __m256i,
        rhs_b: __m256i,
        bias: __m256i,
    ) -> u64 {
        let mut out = 0u64;
        let mut k = 0usize;
        while k < 2 {
            let a = _mm256_loadu_si256(p.add(k * 32).cast());
            let b = _mm256_loadu_si256(p.add(k * 32 + 16).cast());
            let (ma, mb) = match MODE {
                EQ => (_mm256_cmpeq_epi16(a, rhs_v), _mm256_cmpeq_epi16(b, rhs_v)),
                GT_XR => (
                    _mm256_cmpgt_epi16(_mm256_xor_si256(a, bias), rhs_b),
                    _mm256_cmpgt_epi16(_mm256_xor_si256(b, bias), rhs_b),
                ),
                _ => (
                    _mm256_cmpgt_epi16(rhs_b, _mm256_xor_si256(a, bias)),
                    _mm256_cmpgt_epi16(rhs_b, _mm256_xor_si256(b, bias)),
                ),
            };
            let packed = _mm256_permute4x64_epi64::<0b11011000>(_mm256_packs_epi16(ma, mb));
            out |= (_mm256_movemask_epi8(packed) as u32 as u64) << (k * 32);
            k += 1;
        }
        out
    }

    /// 64 `u32` (dictionary-code) rows → one mask word via 8-lane
    /// compares and `movemask_ps`.
    ///
    /// # Safety
    /// `p` must be valid for reads of 64 `u32`s; requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn word64_u32_avx2<const MODE: u8>(
        p: *const u32,
        rhs_v: __m256i,
        rhs_b: __m256i,
        bias: __m256i,
    ) -> u64 {
        let mut out = 0u64;
        let mut k = 0usize;
        while k < 8 {
            let v = _mm256_loadu_si256(p.add(k * 8).cast());
            let m = match MODE {
                EQ => _mm256_cmpeq_epi32(v, rhs_v),
                GT_XR => _mm256_cmpgt_epi32(_mm256_xor_si256(v, bias), rhs_b),
                _ => _mm256_cmpgt_epi32(rhs_b, _mm256_xor_si256(v, bias)),
            };
            out |= (_mm256_movemask_ps(_mm256_castsi256_ps(m)) as u32 as u64) << (k * 8);
            k += 1;
        }
        out
    }

    /// 64 `i64` rows → one mask word via 4-lane signed compares
    /// (`pcmpgtq`/`pcmpeqq`, no bias needed) and `movemask_pd`.
    ///
    /// # Safety
    /// `p` must be valid for reads of 64 `i64`s; requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn word64_i64_avx2<const MODE: u8>(
        p: *const i64,
        rhs_v: __m256i,
        _rhs_b: __m256i,
        _bias: __m256i,
    ) -> u64 {
        let mut out = 0u64;
        let mut k = 0usize;
        while k < 16 {
            let v = _mm256_loadu_si256(p.add(k * 4).cast());
            let m = match MODE {
                EQ => _mm256_cmpeq_epi64(v, rhs_v),
                GT_XR => _mm256_cmpgt_epi64(v, rhs_v),
                _ => _mm256_cmpgt_epi64(rhs_v, v),
            };
            out |= (_mm256_movemask_pd(_mm256_castsi256_pd(m)) as u64) << (k * 4);
            k += 1;
        }
        out
    }

    /// Generate the per-type AVX2 `cmp` + `fused` kernel pair from its
    /// `word64` builder and broadcast setup.
    macro_rules! avx2_int_kernels {
        ($ty:ty, $word64:ident, $cmp_words:ident, $fused_words:ident,
         $cmp_pub:ident, $fused_pub:ident, $set1:ident, $bias:expr) => {
            /// # Safety
            /// Requires AVX2; `words` must cover `data.len() / 64` full
            /// mask words.
            #[target_feature(enable = "avx2")]
            unsafe fn $cmp_words<const MODE: u8>(
                data: &[$ty],
                rhs: $ty,
                inv: u64,
                words: &mut [u64],
            ) {
                let rhs_v = $set1(rhs as _);
                let bias = $bias;
                let rhs_b = _mm256_xor_si256(rhs_v, bias);
                for (wi, chunk) in data.chunks_exact(64).enumerate() {
                    words[wi] = $word64::<MODE>(chunk.as_ptr(), rhs_v, rhs_b, bias) ^ inv;
                }
            }

            /// # Safety
            /// Requires AVX2; `values.len() >= dims.len()`.
            #[target_feature(enable = "avx2")]
            unsafe fn $fused_words<const MODE: u8>(
                dims: &[$ty],
                values: &[f64],
                rhs: $ty,
                inv: u64,
            ) -> AggState {
                let rhs_v = $set1(rhs as _);
                let bias = $bias;
                let rhs_b = _mm256_xor_si256(rhs_v, bias);
                let mut sum = 0.0f64;
                let mut count = 0u64;
                let mut base = 0usize;
                for chunk in dims.chunks_exact(64) {
                    let word = $word64::<MODE>(chunk.as_ptr(), rhs_v, rhs_b, bias) ^ inv;
                    accumulate_word(word, &values[base..base + 64], &mut sum, &mut count);
                    base += 64;
                }
                AggState { sum, count }
            }

            pub(super) fn $cmp_pub(data: &[$ty], op: CmpOp, rhs: $ty, mask: &mut Bitmask) {
                debug_assert_eq!(data.len(), mask.len());
                let (mode, complement) = decompose(op);
                let inv = if complement { u64::MAX } else { 0 };
                let words = mask.words_mut();
                // SAFETY: this function is only installed in a KernelSet
                // after `is_x86_feature_detected!("avx2")` succeeded.
                unsafe {
                    match mode {
                        EQ => $cmp_words::<EQ>(data, rhs, inv, words),
                        GT_XR => $cmp_words::<GT_XR>(data, rhs, inv, words),
                        _ => $cmp_words::<GT_RX>(data, rhs, inv, words),
                    }
                }
                scalar_tail(data, op, rhs, words);
            }

            pub(super) fn $fused_pub(
                dims: &[$ty],
                values: &[f64],
                op: CmpOp,
                rhs: $ty,
            ) -> AggState {
                debug_assert_eq!(dims.len(), values.len());
                let (mode, complement) = decompose(op);
                let inv = if complement { u64::MAX } else { 0 };
                // SAFETY: as above — AVX2 was detected at dispatch time.
                let mut state = unsafe {
                    match mode {
                        EQ => $fused_words::<EQ>(dims, values, rhs, inv),
                        GT_XR => $fused_words::<GT_XR>(dims, values, rhs, inv),
                        _ => $fused_words::<GT_RX>(dims, values, rhs, inv),
                    }
                };
                fused_tail(dims, values, op, rhs, &mut state);
                state
            }
        };
    }

    avx2_int_kernels!(
        u8,
        word64_u8_avx2,
        cmp_words_u8_avx2,
        fused_words_u8_avx2,
        cmp_u8_avx2,
        fused_u8_avx2,
        _mm256_set1_epi8,
        _mm256_set1_epi8(i8::MIN)
    );
    avx2_int_kernels!(
        u16,
        word64_u16_avx2,
        cmp_words_u16_avx2,
        fused_words_u16_avx2,
        cmp_u16_avx2,
        fused_u16_avx2,
        _mm256_set1_epi16,
        _mm256_set1_epi16(i16::MIN)
    );
    avx2_int_kernels!(
        u32,
        word64_u32_avx2,
        cmp_words_u32_avx2,
        fused_words_u32_avx2,
        cmp_u32_avx2,
        fused_u32_avx2,
        _mm256_set1_epi32,
        _mm256_set1_epi32(i32::MIN)
    );
    avx2_int_kernels!(
        i64,
        word64_i64_avx2,
        cmp_words_i64_avx2,
        fused_words_i64_avx2,
        cmp_i64_avx2,
        fused_i64_avx2,
        _mm256_set1_epi64x,
        _mm256_setzero_si256()
    );

    /// # Safety
    /// Requires AVX2; `words` must cover `data.len() / 64` full words.
    #[target_feature(enable = "avx2")]
    unsafe fn cmp_f64_words_avx2<const IMM: i32>(data: &[f64], rhs: f64, words: &mut [u64]) {
        let rhs_v = _mm256_set1_pd(rhs);
        for (wi, chunk) in data.chunks_exact(64).enumerate() {
            let p = chunk.as_ptr();
            let mut w = 0u64;
            let mut k = 0usize;
            while k < 16 {
                let v = _mm256_loadu_pd(p.add(k * 4));
                let m = _mm256_cmp_pd::<IMM>(v, rhs_v);
                w |= (_mm256_movemask_pd(m) as u64) << (k * 4);
                k += 1;
            }
            words[wi] = w;
        }
    }

    pub(super) fn cmp_f64_avx2(data: &[f64], op: CmpOp, rhs: f64, mask: &mut Bitmask) {
        debug_assert_eq!(data.len(), mask.len());
        let words = mask.words_mut();
        // SAFETY: AVX2 was detected at dispatch time. The IEEE predicate
        // per operator matches Rust scalar float comparison exactly
        // (ordered + quiet, except `!=` which is unordered).
        unsafe {
            match op {
                CmpOp::Eq => cmp_f64_words_avx2::<_CMP_EQ_OQ>(data, rhs, words),
                CmpOp::Ne => cmp_f64_words_avx2::<_CMP_NEQ_UQ>(data, rhs, words),
                CmpOp::Lt => cmp_f64_words_avx2::<_CMP_LT_OQ>(data, rhs, words),
                CmpOp::Le => cmp_f64_words_avx2::<_CMP_LE_OQ>(data, rhs, words),
                CmpOp::Gt => cmp_f64_words_avx2::<_CMP_GT_OQ>(data, rhs, words),
                CmpOp::Ge => cmp_f64_words_avx2::<_CMP_GE_OQ>(data, rhs, words),
            }
        }
        scalar_tail(data, op, rhs, words);
    }

    // ---------------------------------------------------------------
    // SSE2: same structure at 128 bits.
    // ---------------------------------------------------------------

    /// # Safety
    /// `p` must be valid for reads of 64 `u8`s; requires SSE2.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn word64_u8_sse2<const MODE: u8>(
        p: *const u8,
        rhs_v: __m128i,
        rhs_b: __m128i,
        bias: __m128i,
    ) -> u64 {
        let mut out = 0u64;
        let mut k = 0usize;
        while k < 4 {
            let v = _mm_loadu_si128(p.add(k * 16).cast());
            let m = match MODE {
                EQ => _mm_cmpeq_epi8(v, rhs_v),
                GT_XR => _mm_cmpgt_epi8(_mm_xor_si128(v, bias), rhs_b),
                _ => _mm_cmpgt_epi8(rhs_b, _mm_xor_si128(v, bias)),
            };
            out |= (_mm_movemask_epi8(m) as u32 as u64) << (k * 16);
            k += 1;
        }
        out
    }

    /// # Safety
    /// `p` must be valid for reads of 64 `u16`s; requires SSE2.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn word64_u16_sse2<const MODE: u8>(
        p: *const u16,
        rhs_v: __m128i,
        rhs_b: __m128i,
        bias: __m128i,
    ) -> u64 {
        let mut out = 0u64;
        let mut k = 0usize;
        while k < 4 {
            let a = _mm_loadu_si128(p.add(k * 16).cast());
            let b = _mm_loadu_si128(p.add(k * 16 + 8).cast());
            let (ma, mb) = match MODE {
                EQ => (_mm_cmpeq_epi16(a, rhs_v), _mm_cmpeq_epi16(b, rhs_v)),
                GT_XR => (
                    _mm_cmpgt_epi16(_mm_xor_si128(a, bias), rhs_b),
                    _mm_cmpgt_epi16(_mm_xor_si128(b, bias), rhs_b),
                ),
                _ => (
                    _mm_cmpgt_epi16(rhs_b, _mm_xor_si128(a, bias)),
                    _mm_cmpgt_epi16(rhs_b, _mm_xor_si128(b, bias)),
                ),
            };
            // 128-bit packs keeps row order: [a0..a7, b0..b7].
            let packed = _mm_packs_epi16(ma, mb);
            out |= (_mm_movemask_epi8(packed) as u32 as u64) << (k * 16);
            k += 1;
        }
        out
    }

    /// # Safety
    /// `p` must be valid for reads of 64 `u32`s; requires SSE2.
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn word64_u32_sse2<const MODE: u8>(
        p: *const u32,
        rhs_v: __m128i,
        rhs_b: __m128i,
        bias: __m128i,
    ) -> u64 {
        let mut out = 0u64;
        let mut k = 0usize;
        while k < 16 {
            let v = _mm_loadu_si128(p.add(k * 4).cast());
            let m = match MODE {
                EQ => _mm_cmpeq_epi32(v, rhs_v),
                GT_XR => _mm_cmpgt_epi32(_mm_xor_si128(v, bias), rhs_b),
                _ => _mm_cmpgt_epi32(rhs_b, _mm_xor_si128(v, bias)),
            };
            out |= (_mm_movemask_ps(_mm_castsi128_ps(m)) as u32 as u64) << (k * 4);
            k += 1;
        }
        out
    }

    /// Generate the per-type SSE2 `cmp` + `fused` kernel pair.
    macro_rules! sse2_int_kernels {
        ($ty:ty, $word64:ident, $cmp_words:ident, $fused_words:ident,
         $cmp_pub:ident, $fused_pub:ident, $set1:ident, $bias:expr) => {
            /// # Safety
            /// Requires SSE2; `words` must cover `data.len() / 64` words.
            #[target_feature(enable = "sse2")]
            unsafe fn $cmp_words<const MODE: u8>(
                data: &[$ty],
                rhs: $ty,
                inv: u64,
                words: &mut [u64],
            ) {
                let rhs_v = $set1(rhs as _);
                let bias = $bias;
                let rhs_b = _mm_xor_si128(rhs_v, bias);
                for (wi, chunk) in data.chunks_exact(64).enumerate() {
                    words[wi] = $word64::<MODE>(chunk.as_ptr(), rhs_v, rhs_b, bias) ^ inv;
                }
            }

            /// # Safety
            /// Requires SSE2; `values.len() >= dims.len()`.
            #[target_feature(enable = "sse2")]
            unsafe fn $fused_words<const MODE: u8>(
                dims: &[$ty],
                values: &[f64],
                rhs: $ty,
                inv: u64,
            ) -> AggState {
                let rhs_v = $set1(rhs as _);
                let bias = $bias;
                let rhs_b = _mm_xor_si128(rhs_v, bias);
                let mut sum = 0.0f64;
                let mut count = 0u64;
                let mut base = 0usize;
                for chunk in dims.chunks_exact(64) {
                    let word = $word64::<MODE>(chunk.as_ptr(), rhs_v, rhs_b, bias) ^ inv;
                    accumulate_word(word, &values[base..base + 64], &mut sum, &mut count);
                    base += 64;
                }
                AggState { sum, count }
            }

            pub(super) fn $cmp_pub(data: &[$ty], op: CmpOp, rhs: $ty, mask: &mut Bitmask) {
                debug_assert_eq!(data.len(), mask.len());
                let (mode, complement) = decompose(op);
                let inv = if complement { u64::MAX } else { 0 };
                let words = mask.words_mut();
                // SAFETY: SSE2 is part of the x86_64 baseline and was
                // re-checked at dispatch time.
                unsafe {
                    match mode {
                        EQ => $cmp_words::<EQ>(data, rhs, inv, words),
                        GT_XR => $cmp_words::<GT_XR>(data, rhs, inv, words),
                        _ => $cmp_words::<GT_RX>(data, rhs, inv, words),
                    }
                }
                scalar_tail(data, op, rhs, words);
            }

            pub(super) fn $fused_pub(
                dims: &[$ty],
                values: &[f64],
                op: CmpOp,
                rhs: $ty,
            ) -> AggState {
                debug_assert_eq!(dims.len(), values.len());
                let (mode, complement) = decompose(op);
                let inv = if complement { u64::MAX } else { 0 };
                // SAFETY: as above.
                let mut state = unsafe {
                    match mode {
                        EQ => $fused_words::<EQ>(dims, values, rhs, inv),
                        GT_XR => $fused_words::<GT_XR>(dims, values, rhs, inv),
                        _ => $fused_words::<GT_RX>(dims, values, rhs, inv),
                    }
                };
                fused_tail(dims, values, op, rhs, &mut state);
                state
            }
        };
    }

    sse2_int_kernels!(
        u8,
        word64_u8_sse2,
        cmp_words_u8_sse2,
        fused_words_u8_sse2,
        cmp_u8_sse2,
        fused_u8_sse2,
        _mm_set1_epi8,
        _mm_set1_epi8(i8::MIN)
    );
    sse2_int_kernels!(
        u16,
        word64_u16_sse2,
        cmp_words_u16_sse2,
        fused_words_u16_sse2,
        cmp_u16_sse2,
        fused_u16_sse2,
        _mm_set1_epi16,
        _mm_set1_epi16(i16::MIN)
    );
    sse2_int_kernels!(
        u32,
        word64_u32_sse2,
        cmp_words_u32_sse2,
        fused_words_u32_sse2,
        cmp_u32_sse2,
        fused_u32_sse2,
        _mm_set1_epi32,
        _mm_set1_epi32(i32::MIN)
    );

    /// SSE2 float predicate index (the legacy `cmp*pd` instructions, no
    /// immediate-encoded predicate as in AVX).
    const F_EQ: u8 = 0;
    const F_NE: u8 = 1;
    const F_LT: u8 = 2;
    const F_LE: u8 = 3;
    const F_GT: u8 = 4;
    const F_GE: u8 = 5;

    /// # Safety
    /// Requires SSE2; `words` must cover `data.len() / 64` full words.
    #[target_feature(enable = "sse2")]
    unsafe fn cmp_f64_words_sse2<const OP: u8>(data: &[f64], rhs: f64, words: &mut [u64]) {
        let rhs_v = _mm_set1_pd(rhs);
        for (wi, chunk) in data.chunks_exact(64).enumerate() {
            let p = chunk.as_ptr();
            let mut w = 0u64;
            let mut k = 0usize;
            while k < 32 {
                let v = _mm_loadu_pd(p.add(k * 2));
                let m = match OP {
                    F_EQ => _mm_cmpeq_pd(v, rhs_v),
                    F_NE => _mm_cmpneq_pd(v, rhs_v),
                    F_LT => _mm_cmplt_pd(v, rhs_v),
                    F_LE => _mm_cmple_pd(v, rhs_v),
                    F_GT => _mm_cmpgt_pd(v, rhs_v),
                    _ => _mm_cmpge_pd(v, rhs_v),
                };
                w |= (_mm_movemask_pd(m) as u64) << (k * 2);
                k += 1;
            }
            words[wi] = w;
        }
    }

    pub(super) fn cmp_f64_sse2(data: &[f64], op: CmpOp, rhs: f64, mask: &mut Bitmask) {
        debug_assert_eq!(data.len(), mask.len());
        let words = mask.words_mut();
        // SAFETY: SSE2 is part of the x86_64 baseline. `cmpneq_pd` is
        // unordered (true on NaN), the rest ordered (false on NaN) —
        // matching Rust scalar float comparison per operator.
        unsafe {
            match op {
                CmpOp::Eq => cmp_f64_words_sse2::<F_EQ>(data, rhs, words),
                CmpOp::Ne => cmp_f64_words_sse2::<F_NE>(data, rhs, words),
                CmpOp::Lt => cmp_f64_words_sse2::<F_LT>(data, rhs, words),
                CmpOp::Le => cmp_f64_words_sse2::<F_LE>(data, rhs, words),
                CmpOp::Gt => cmp_f64_words_sse2::<F_GT>(data, rhs, words),
                CmpOp::Ge => cmp_f64_words_sse2::<F_GE>(data, rhs, words),
            }
        }
        scalar_tail(data, op, rhs, words);
    }

    // ---------------------------------------------------------------
    // f64 fused filter+aggregate (AVX2 / SSE2): vectorized IEEE compare
    // builds the 64-row word, the shared `accumulate_word` keeps the
    // float sum in exact ascending-row order.
    // ---------------------------------------------------------------

    /// # Safety
    /// Requires AVX2; `values.len() >= dims.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn fused_f64_words_avx2<const IMM: i32>(
        dims: &[f64],
        values: &[f64],
        rhs: f64,
    ) -> AggState {
        let rhs_v = _mm256_set1_pd(rhs);
        let mut sum = 0.0f64;
        let mut count = 0u64;
        let mut base = 0usize;
        for chunk in dims.chunks_exact(64) {
            let p = chunk.as_ptr();
            let mut w = 0u64;
            let mut k = 0usize;
            while k < 16 {
                let m = _mm256_cmp_pd::<IMM>(_mm256_loadu_pd(p.add(k * 4)), rhs_v);
                w |= (_mm256_movemask_pd(m) as u64) << (k * 4);
                k += 1;
            }
            accumulate_word(w, &values[base..base + 64], &mut sum, &mut count);
            base += 64;
        }
        AggState { sum, count }
    }

    pub(super) fn fused_f64_avx2(dims: &[f64], values: &[f64], op: CmpOp, rhs: f64) -> AggState {
        debug_assert_eq!(dims.len(), values.len());
        // SAFETY: AVX2 was detected at dispatch time; predicates as in
        // `cmp_f64_avx2`.
        let mut state = unsafe {
            match op {
                CmpOp::Eq => fused_f64_words_avx2::<_CMP_EQ_OQ>(dims, values, rhs),
                CmpOp::Ne => fused_f64_words_avx2::<_CMP_NEQ_UQ>(dims, values, rhs),
                CmpOp::Lt => fused_f64_words_avx2::<_CMP_LT_OQ>(dims, values, rhs),
                CmpOp::Le => fused_f64_words_avx2::<_CMP_LE_OQ>(dims, values, rhs),
                CmpOp::Gt => fused_f64_words_avx2::<_CMP_GT_OQ>(dims, values, rhs),
                CmpOp::Ge => fused_f64_words_avx2::<_CMP_GE_OQ>(dims, values, rhs),
            }
        };
        fused_tail(dims, values, op, rhs, &mut state);
        state
    }

    /// # Safety
    /// Requires SSE2; `values.len() >= dims.len()`.
    #[target_feature(enable = "sse2")]
    unsafe fn fused_f64_words_sse2<const OP: u8>(
        dims: &[f64],
        values: &[f64],
        rhs: f64,
    ) -> AggState {
        let rhs_v = _mm_set1_pd(rhs);
        let mut sum = 0.0f64;
        let mut count = 0u64;
        let mut base = 0usize;
        for chunk in dims.chunks_exact(64) {
            let p = chunk.as_ptr();
            let mut w = 0u64;
            let mut k = 0usize;
            while k < 32 {
                let v = _mm_loadu_pd(p.add(k * 2));
                let m = match OP {
                    F_EQ => _mm_cmpeq_pd(v, rhs_v),
                    F_NE => _mm_cmpneq_pd(v, rhs_v),
                    F_LT => _mm_cmplt_pd(v, rhs_v),
                    F_LE => _mm_cmple_pd(v, rhs_v),
                    F_GT => _mm_cmpgt_pd(v, rhs_v),
                    _ => _mm_cmpge_pd(v, rhs_v),
                };
                w |= (_mm_movemask_pd(m) as u64) << (k * 2);
                k += 1;
            }
            accumulate_word(w, &values[base..base + 64], &mut sum, &mut count);
            base += 64;
        }
        AggState { sum, count }
    }

    pub(super) fn fused_f64_sse2(dims: &[f64], values: &[f64], op: CmpOp, rhs: f64) -> AggState {
        debug_assert_eq!(dims.len(), values.len());
        // SAFETY: SSE2 baseline; predicates as in `cmp_f64_sse2`.
        let mut state = unsafe {
            match op {
                CmpOp::Eq => fused_f64_words_sse2::<F_EQ>(dims, values, rhs),
                CmpOp::Ne => fused_f64_words_sse2::<F_NE>(dims, values, rhs),
                CmpOp::Lt => fused_f64_words_sse2::<F_LT>(dims, values, rhs),
                CmpOp::Le => fused_f64_words_sse2::<F_LE>(dims, values, rhs),
                CmpOp::Gt => fused_f64_words_sse2::<F_GT>(dims, values, rhs),
                CmpOp::Ge => fused_f64_words_sse2::<F_GE>(dims, values, rhs),
            }
        };
        fused_tail(dims, values, op, rhs, &mut state);
        state
    }

    // ---------------------------------------------------------------
    // u8 IN-list membership (AVX2): `vpshufb` over a 256-entry bit table.
    // Each byte `b` fetches table byte `b >> 3` (two 16-byte halves,
    // blended on bit 4 of the index) and tests bit `b & 7`.
    // ---------------------------------------------------------------

    /// # Safety
    /// Requires AVX2; `words` must cover `data.len() / 64` full words.
    #[target_feature(enable = "avx2")]
    unsafe fn in_words_u8_avx2(data: &[u8], table: &[u8; 32], words: &mut [u64]) {
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr().cast()));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr().add(16).cast()));
        #[rustfmt::skip]
        let bit_of = _mm256_setr_epi8(
            1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128,
            1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128,
        );
        for (wi, chunk) in data.chunks_exact(64).enumerate() {
            let p = chunk.as_ptr();
            let mut out = 0u64;
            let mut k = 0usize;
            while k < 2 {
                let v = _mm256_loadu_si256(p.add(k * 32).cast());
                // idx5 = (b >> 3) & 0x1F — which of the 32 table bytes.
                let idx5 = _mm256_and_si256(_mm256_srli_epi16::<3>(v), _mm256_set1_epi8(0x1F));
                let idx4 = _mm256_and_si256(idx5, _mm256_set1_epi8(0x0F));
                let t_lo = _mm256_shuffle_epi8(lo, idx4);
                let t_hi = _mm256_shuffle_epi8(hi, idx4);
                // Bit 4 of idx5 → the byte sign bit `blendv` keys on.
                let sel = _mm256_slli_epi16::<3>(idx5);
                let t = _mm256_blendv_epi8(t_lo, t_hi, sel);
                let bitsel = _mm256_shuffle_epi8(bit_of, _mm256_and_si256(v, _mm256_set1_epi8(7)));
                let m = _mm256_cmpeq_epi8(_mm256_and_si256(t, bitsel), bitsel);
                out |= (_mm256_movemask_epi8(m) as u32 as u64) << (k * 32);
                k += 1;
            }
            words[wi] = out;
        }
    }

    pub(super) fn in_u8_avx2(data: &[u8], lookup: &InLookup, mask: &mut Bitmask) {
        debug_assert_eq!(data.len(), mask.len());
        let table = byte_bit_table(lookup);
        let words = mask.words_mut();
        // SAFETY: AVX2 was detected at dispatch time.
        unsafe { in_words_u8_avx2(data, &table, words) };
        in_tail(data, lookup, words);
    }

    // ---------------------------------------------------------------
    // AVX-512: compares write mask registers straight into `Bitmask`
    // words — 64 u8 rows are one `vpcmpub` (no movemask, no sign bias:
    // the EVEX compares exist in unsigned forms). The `F_*` operator
    // indices of the SSE2 float section are reused as const parameters.
    // ---------------------------------------------------------------

    /// # Safety
    /// `p` must be valid for reads of 64 `u8`s; requires AVX-512BW.
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    unsafe fn word64_u8_avx512<const OP: u8>(p: *const u8, rhs: __m512i) -> u64 {
        let v = _mm512_loadu_si512(p.cast());
        match OP {
            F_EQ => _mm512_cmpeq_epu8_mask(v, rhs),
            F_NE => _mm512_cmpneq_epu8_mask(v, rhs),
            F_LT => _mm512_cmplt_epu8_mask(v, rhs),
            F_LE => _mm512_cmple_epu8_mask(v, rhs),
            F_GT => _mm512_cmpgt_epu8_mask(v, rhs),
            _ => _mm512_cmpge_epu8_mask(v, rhs),
        }
    }

    /// # Safety
    /// `p` must be valid for reads of 64 `u16`s; requires AVX-512BW.
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    unsafe fn word64_u16_avx512<const OP: u8>(p: *const u16, rhs: __m512i) -> u64 {
        let mut out = 0u64;
        let mut k = 0usize;
        while k < 2 {
            let v = _mm512_loadu_si512(p.add(k * 32).cast());
            let m: __mmask32 = match OP {
                F_EQ => _mm512_cmpeq_epu16_mask(v, rhs),
                F_NE => _mm512_cmpneq_epu16_mask(v, rhs),
                F_LT => _mm512_cmplt_epu16_mask(v, rhs),
                F_LE => _mm512_cmple_epu16_mask(v, rhs),
                F_GT => _mm512_cmpgt_epu16_mask(v, rhs),
                _ => _mm512_cmpge_epu16_mask(v, rhs),
            };
            out |= (m as u64) << (k * 32);
            k += 1;
        }
        out
    }

    /// # Safety
    /// `p` must be valid for reads of 64 `u32`s; requires AVX-512F.
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    unsafe fn word64_u32_avx512<const OP: u8>(p: *const u32, rhs: __m512i) -> u64 {
        let mut out = 0u64;
        let mut k = 0usize;
        while k < 4 {
            let v = _mm512_loadu_si512(p.add(k * 16).cast());
            let m: __mmask16 = match OP {
                F_EQ => _mm512_cmpeq_epu32_mask(v, rhs),
                F_NE => _mm512_cmpneq_epu32_mask(v, rhs),
                F_LT => _mm512_cmplt_epu32_mask(v, rhs),
                F_LE => _mm512_cmple_epu32_mask(v, rhs),
                F_GT => _mm512_cmpgt_epu32_mask(v, rhs),
                _ => _mm512_cmpge_epu32_mask(v, rhs),
            };
            out |= (m as u64) << (k * 16);
            k += 1;
        }
        out
    }

    /// # Safety
    /// `p` must be valid for reads of 64 `i64`s; requires AVX-512F.
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    unsafe fn word64_i64_avx512<const OP: u8>(p: *const i64, rhs: __m512i) -> u64 {
        let mut out = 0u64;
        let mut k = 0usize;
        while k < 8 {
            let v = _mm512_loadu_si512(p.add(k * 8).cast());
            let m: __mmask8 = match OP {
                F_EQ => _mm512_cmpeq_epi64_mask(v, rhs),
                F_NE => _mm512_cmpneq_epi64_mask(v, rhs),
                F_LT => _mm512_cmplt_epi64_mask(v, rhs),
                F_LE => _mm512_cmple_epi64_mask(v, rhs),
                F_GT => _mm512_cmpgt_epi64_mask(v, rhs),
                _ => _mm512_cmpge_epi64_mask(v, rhs),
            };
            out |= (m as u64) << (k * 8);
            k += 1;
        }
        out
    }

    /// Generate the per-type AVX-512 `cmp` + `fused` kernel pair from its
    /// `word64` builder and broadcast.
    macro_rules! avx512_int_kernels {
        ($ty:ty, $word64:ident, $cmp_words:ident, $fused_words:ident,
         $cmp_pub:ident, $fused_pub:ident, $set1:ident) => {
            /// # Safety
            /// Requires AVX-512F/BW; `words` must cover `data.len() / 64`
            /// full mask words.
            #[target_feature(enable = "avx512f,avx512bw")]
            unsafe fn $cmp_words<const OP: u8>(data: &[$ty], rhs: $ty, words: &mut [u64]) {
                let rhs_v = $set1(rhs as _);
                for (wi, chunk) in data.chunks_exact(64).enumerate() {
                    words[wi] = $word64::<OP>(chunk.as_ptr(), rhs_v);
                }
            }

            /// # Safety
            /// Requires AVX-512F/BW; `values.len() >= dims.len()`.
            #[target_feature(enable = "avx512f,avx512bw")]
            unsafe fn $fused_words<const OP: u8>(
                dims: &[$ty],
                values: &[f64],
                rhs: $ty,
            ) -> AggState {
                let rhs_v = $set1(rhs as _);
                let mut sum = 0.0f64;
                let mut count = 0u64;
                let mut base = 0usize;
                for chunk in dims.chunks_exact(64) {
                    let word = $word64::<OP>(chunk.as_ptr(), rhs_v);
                    accumulate_word(word, &values[base..base + 64], &mut sum, &mut count);
                    base += 64;
                }
                AggState { sum, count }
            }

            pub(super) fn $cmp_pub(data: &[$ty], op: CmpOp, rhs: $ty, mask: &mut Bitmask) {
                debug_assert_eq!(data.len(), mask.len());
                let words = mask.words_mut();
                // SAFETY: this function is only installed in a KernelSet
                // after avx512f + avx512bw detection succeeded.
                unsafe {
                    match op {
                        CmpOp::Eq => $cmp_words::<F_EQ>(data, rhs, words),
                        CmpOp::Ne => $cmp_words::<F_NE>(data, rhs, words),
                        CmpOp::Lt => $cmp_words::<F_LT>(data, rhs, words),
                        CmpOp::Le => $cmp_words::<F_LE>(data, rhs, words),
                        CmpOp::Gt => $cmp_words::<F_GT>(data, rhs, words),
                        CmpOp::Ge => $cmp_words::<F_GE>(data, rhs, words),
                    }
                }
                scalar_tail(data, op, rhs, words);
            }

            pub(super) fn $fused_pub(
                dims: &[$ty],
                values: &[f64],
                op: CmpOp,
                rhs: $ty,
            ) -> AggState {
                debug_assert_eq!(dims.len(), values.len());
                // SAFETY: as above — AVX-512 was detected at dispatch time.
                let mut state = unsafe {
                    match op {
                        CmpOp::Eq => $fused_words::<F_EQ>(dims, values, rhs),
                        CmpOp::Ne => $fused_words::<F_NE>(dims, values, rhs),
                        CmpOp::Lt => $fused_words::<F_LT>(dims, values, rhs),
                        CmpOp::Le => $fused_words::<F_LE>(dims, values, rhs),
                        CmpOp::Gt => $fused_words::<F_GT>(dims, values, rhs),
                        CmpOp::Ge => $fused_words::<F_GE>(dims, values, rhs),
                    }
                };
                fused_tail(dims, values, op, rhs, &mut state);
                state
            }
        };
    }

    avx512_int_kernels!(
        u8,
        word64_u8_avx512,
        cmp_words_u8_avx512,
        fused_words_u8_avx512,
        cmp_u8_avx512,
        fused_u8_avx512,
        _mm512_set1_epi8
    );
    avx512_int_kernels!(
        u16,
        word64_u16_avx512,
        cmp_words_u16_avx512,
        fused_words_u16_avx512,
        cmp_u16_avx512,
        fused_u16_avx512,
        _mm512_set1_epi16
    );
    avx512_int_kernels!(
        u32,
        word64_u32_avx512,
        cmp_words_u32_avx512,
        fused_words_u32_avx512,
        cmp_u32_avx512,
        fused_u32_avx512,
        _mm512_set1_epi32
    );
    avx512_int_kernels!(
        i64,
        word64_i64_avx512,
        cmp_words_i64_avx512,
        fused_words_i64_avx512,
        cmp_i64_avx512,
        fused_i64_avx512,
        _mm512_set1_epi64
    );

    /// # Safety
    /// `p` must be valid for reads of 64 `f64`s; requires AVX-512F.
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    unsafe fn word64_f64_avx512<const IMM: i32>(p: *const f64, rhs: __m512d) -> u64 {
        let mut out = 0u64;
        let mut k = 0usize;
        while k < 8 {
            let m = _mm512_cmp_pd_mask::<IMM>(_mm512_loadu_pd(p.add(k * 8)), rhs);
            out |= (m as u64) << (k * 8);
            k += 1;
        }
        out
    }

    /// # Safety
    /// Requires AVX-512F; `words` must cover `data.len() / 64` words.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn cmp_f64_words_avx512<const IMM: i32>(data: &[f64], rhs: f64, words: &mut [u64]) {
        let rhs_v = _mm512_set1_pd(rhs);
        for (wi, chunk) in data.chunks_exact(64).enumerate() {
            words[wi] = word64_f64_avx512::<IMM>(chunk.as_ptr(), rhs_v);
        }
    }

    pub(super) fn cmp_f64_avx512(data: &[f64], op: CmpOp, rhs: f64, mask: &mut Bitmask) {
        debug_assert_eq!(data.len(), mask.len());
        let words = mask.words_mut();
        // SAFETY: AVX-512 was detected at dispatch time; IEEE predicates
        // per operator as in `cmp_f64_avx2`.
        unsafe {
            match op {
                CmpOp::Eq => cmp_f64_words_avx512::<_CMP_EQ_OQ>(data, rhs, words),
                CmpOp::Ne => cmp_f64_words_avx512::<_CMP_NEQ_UQ>(data, rhs, words),
                CmpOp::Lt => cmp_f64_words_avx512::<_CMP_LT_OQ>(data, rhs, words),
                CmpOp::Le => cmp_f64_words_avx512::<_CMP_LE_OQ>(data, rhs, words),
                CmpOp::Gt => cmp_f64_words_avx512::<_CMP_GT_OQ>(data, rhs, words),
                CmpOp::Ge => cmp_f64_words_avx512::<_CMP_GE_OQ>(data, rhs, words),
            }
        }
        scalar_tail(data, op, rhs, words);
    }

    /// # Safety
    /// Requires AVX-512F; `values.len() >= dims.len()`.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn fused_f64_words_avx512<const IMM: i32>(
        dims: &[f64],
        values: &[f64],
        rhs: f64,
    ) -> AggState {
        let rhs_v = _mm512_set1_pd(rhs);
        let mut sum = 0.0f64;
        let mut count = 0u64;
        let mut base = 0usize;
        for chunk in dims.chunks_exact(64) {
            let word = word64_f64_avx512::<IMM>(chunk.as_ptr(), rhs_v);
            accumulate_word(word, &values[base..base + 64], &mut sum, &mut count);
            base += 64;
        }
        AggState { sum, count }
    }

    pub(super) fn fused_f64_avx512(dims: &[f64], values: &[f64], op: CmpOp, rhs: f64) -> AggState {
        debug_assert_eq!(dims.len(), values.len());
        // SAFETY: AVX-512 was detected at dispatch time.
        let mut state = unsafe {
            match op {
                CmpOp::Eq => fused_f64_words_avx512::<_CMP_EQ_OQ>(dims, values, rhs),
                CmpOp::Ne => fused_f64_words_avx512::<_CMP_NEQ_UQ>(dims, values, rhs),
                CmpOp::Lt => fused_f64_words_avx512::<_CMP_LT_OQ>(dims, values, rhs),
                CmpOp::Le => fused_f64_words_avx512::<_CMP_LE_OQ>(dims, values, rhs),
                CmpOp::Gt => fused_f64_words_avx512::<_CMP_GT_OQ>(dims, values, rhs),
                CmpOp::Ge => fused_f64_words_avx512::<_CMP_GE_OQ>(dims, values, rhs),
            }
        };
        fused_tail(dims, values, op, rhs, &mut state);
        state
    }

    // ---------------------------------------------------------------
    // IN-list membership (AVX-512): `vpshufb` bit table for u8 (as the
    // AVX2 kernel, but one 64-row word per iteration and mask-register
    // membership), gather probe into the InLookup bitset for wider
    // types.
    // ---------------------------------------------------------------

    /// # Safety
    /// Requires AVX-512BW; `words` must cover `data.len() / 64` words.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn in_words_u8_avx512(data: &[u8], table: &[u8; 32], words: &mut [u64]) {
        let lo = _mm512_broadcast_i32x4(_mm_loadu_si128(table.as_ptr().cast()));
        let hi = _mm512_broadcast_i32x4(_mm_loadu_si128(table.as_ptr().add(16).cast()));
        #[rustfmt::skip]
        let bit_of = _mm512_broadcast_i32x4(_mm_setr_epi8(
            1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128,
        ));
        for (wi, chunk) in data.chunks_exact(64).enumerate() {
            let v = _mm512_loadu_si512(chunk.as_ptr().cast());
            let idx5 = _mm512_and_si512(_mm512_srli_epi16::<3>(v), _mm512_set1_epi8(0x1F));
            let idx4 = _mm512_and_si512(idx5, _mm512_set1_epi8(0x0F));
            let t_lo = _mm512_shuffle_epi8(lo, idx4);
            let t_hi = _mm512_shuffle_epi8(hi, idx4);
            let use_hi = _mm512_test_epi8_mask(idx5, _mm512_set1_epi8(0x10));
            let t = _mm512_mask_blend_epi8(use_hi, t_lo, t_hi);
            let bitsel = _mm512_shuffle_epi8(bit_of, _mm512_and_si512(v, _mm512_set1_epi8(7)));
            // `bitsel` is a single bit per byte, so nonzero-AND ⇔ member.
            words[wi] = _mm512_test_epi8_mask(t, bitsel);
        }
    }

    pub(super) fn in_u8_avx512(data: &[u8], lookup: &InLookup, mask: &mut Bitmask) {
        debug_assert_eq!(data.len(), mask.len());
        let table = byte_bit_table(lookup);
        let words = mask.words_mut();
        // SAFETY: AVX-512 was detected at dispatch time.
        unsafe { in_words_u8_avx512(data, &table, words) };
        in_tail(data, lookup, words);
    }

    /// # Safety
    /// `p` must be valid for reads of 8 `u16`s; requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load8_u16(p: *const u16) -> __m512i {
        _mm512_cvtepu16_epi64(_mm_loadu_si128(p.cast()))
    }

    /// # Safety
    /// `p` must be valid for reads of 8 `u32`s; requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load8_u32(p: *const u32) -> __m512i {
        _mm512_cvtepu32_epi64(_mm256_loadu_si256(p.cast()))
    }

    /// # Safety
    /// `p` must be valid for reads of 8 `i64`s; requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load8_i64(p: *const i64) -> __m512i {
        _mm512_loadu_si512(p.cast())
    }

    /// Generate an AVX-512 gather-probe IN kernel: 8 rows at a time are
    /// widened to i64 lanes, rebased against the lookup's offset, range
    /// checked unsigned (exactly `InLookup::contains`'s wrapping-sub
    /// trick, vectorized), and probe their bitset word via a gather. The
    /// word index is clamped into bounds so the unmasked gather never
    /// reads past the bitset; out-of-range lanes are stripped from the
    /// final mask instead.
    macro_rules! avx512_in_probe {
        ($ty:ty, $load8:ident, $in_words:ident, $in_pub:ident) => {
            /// # Safety
            /// Requires AVX-512F; `words` must cover `data.len() / 64`
            /// words.
            #[target_feature(enable = "avx512f,avx512bw")]
            unsafe fn $in_words(data: &[$ty], lookup: &InLookup, words: &mut [u64]) {
                let bits = lookup.bits();
                let offset = _mm512_set1_epi64(lookup.offset());
                let span = _mm512_set1_epi64(bits.len() as i64 * 64);
                let last = _mm512_set1_epi64(bits.len() as i64 - 1);
                let base = bits.as_ptr() as *const i64;
                for (wi, chunk) in data.chunks_exact(64).enumerate() {
                    let p = chunk.as_ptr();
                    let mut out = 0u64;
                    let mut k = 0usize;
                    while k < 8 {
                        let idx = _mm512_sub_epi64($load8(p.add(k * 8)), offset);
                        let in_range = _mm512_cmplt_epu64_mask(idx, span);
                        let widx = _mm512_min_epu64(_mm512_srli_epi64::<6>(idx), last);
                        let word = _mm512_i64gather_epi64::<8>(widx, base);
                        let bit =
                            _mm512_srlv_epi64(word, _mm512_and_si512(idx, _mm512_set1_epi64(63)));
                        let m = in_range & _mm512_test_epi64_mask(bit, _mm512_set1_epi64(1));
                        out |= (m as u64) << (k * 8);
                        k += 1;
                    }
                    words[wi] = out;
                }
            }

            pub(super) fn $in_pub(data: &[$ty], lookup: &InLookup, mask: &mut Bitmask) {
                debug_assert_eq!(data.len(), mask.len());
                let words = mask.words_mut();
                // SAFETY: AVX-512 was detected at dispatch time.
                unsafe { $in_words(data, lookup, words) };
                in_tail(data, lookup, words);
            }
        };
    }

    avx512_in_probe!(u16, load8_u16, in_words_u16_avx512, in_u16_avx512);
    avx512_in_probe!(u32, load8_u32, in_words_u32_avx512, in_u32_avx512);
    avx512_in_probe!(i64, load8_i64, in_words_i64_avx512, in_i64_avx512);
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

    /// Reference mask via the scalar comparison, one row at a time.
    fn scalar_mask<T: Copy + PartialOrd>(data: &[T], op: CmpOp, rhs: T) -> Bitmask {
        Bitmask::from_fn(data.len(), |i| scalar_bool(op, data[i], rhs))
    }

    #[test]
    fn portable_tier_always_supported_and_last() {
        let sets = KernelSet::supported();
        assert!(!sets.is_empty());
        assert_eq!(sets.last().unwrap().tier(), KernelTier::Portable);
        assert!(KernelSet::for_tier(KernelTier::Portable).is_some());
    }

    #[test]
    fn active_is_stable() {
        assert_eq!(active().tier(), active_tier());
    }

    /// Guard for CI's `kernel-tier-matrix` legs: when `FLASHP_KERNEL_TIER`
    /// pins a tier this CPU supports, dispatch **must** land on it —
    /// otherwise a leg silently re-runs the best tier's suite and the
    /// pinned tier loses its only CI coverage.
    #[test]
    fn kernel_tier_pin_is_the_active_tier() {
        let pinned = std::env::var("FLASHP_KERNEL_TIER").ok().and_then(|v| KernelTier::parse(&v));
        if let Some(tier) = pinned.filter(|&t| KernelSet::for_tier(t).is_some()) {
            assert_eq!(active_tier(), tier);
        }
    }

    #[test]
    fn tier_names_round_trip() {
        for t in KernelTier::ALL {
            assert_eq!(t.to_string(), t.name());
        }
    }

    #[test]
    fn every_tier_matches_scalar_on_every_type_and_op() {
        // 130 rows: two full words + a tail; values span the full type
        // range including the rhs boundary.
        let n = 130usize;
        let u8s: Vec<u8> = (0..n).map(|i| (i * 37 % 256) as u8).collect();
        let u16s: Vec<u16> = (0..n).map(|i| (i * 997 % 65_536) as u16).collect();
        let u32s: Vec<u32> = (0..n).map(|i| (i as u32).wrapping_mul(2_654_435_761)).collect();
        let i64s: Vec<i64> = (0..n)
            .map(|i| if i % 13 == 0 { i64::MIN + i as i64 } else { i as i64 * 7 - 300 })
            .collect();
        let f64s: Vec<f64> = (0..n).map(|i| (i as f64) * 0.125 - 4.0).collect();
        let values: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 10.0).collect();
        for ks in KernelSet::supported() {
            for op in OPS {
                macro_rules! check {
                    ($data:expr, $rhs:expr, $cmp:ident, $fused:ident) => {{
                        let mut mask = Bitmask::zeros(n);
                        ks.$cmp($data, op, $rhs, &mut mask);
                        let want = scalar_mask($data, op, $rhs);
                        assert_eq!(mask, want, "{} {op:?}", ks.tier());
                        let fused = ks.$fused($data, &values, op, $rhs);
                        let mut want_state = AggState::default();
                        want.for_each_one(|i| {
                            want_state.sum += values[i];
                            want_state.count += 1;
                        });
                        assert_eq!(fused, want_state, "{} fused {op:?}", ks.tier());
                    }};
                }
                check!(&u8s, 77u8, cmp_u8, fused_u8);
                check!(&u16s, 30_000u16, cmp_u16, fused_u16);
                check!(&u32s, u32::MAX / 3, cmp_u32, fused_u32);
                check!(&i64s, -5i64, cmp_i64, fused_i64);
                check!(&f64s, 0.5f64, cmp_f64, fused_f64);
            }
        }
    }

    #[test]
    fn f64_kernels_honor_nan_semantics() {
        let specials =
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, f64::MAX, f64::MIN, 1.5e-308];
        let n = 70usize;
        let data: Vec<f64> = (0..n)
            .map(|i| specials[i % specials.len()] * if i % 2 == 0 { 1.0 } else { 0.5 })
            .collect();
        let values: Vec<f64> = (0..n).map(|i| i as f64 - 30.0).collect();
        for ks in KernelSet::supported() {
            for op in OPS {
                for rhs in [0.0, f64::NAN, f64::INFINITY, -0.0] {
                    let mut mask = Bitmask::zeros(n);
                    ks.cmp_f64(&data, op, rhs, &mut mask);
                    let want = scalar_mask(&data, op, rhs);
                    assert_eq!(mask, want, "{} f64 {op:?} rhs {rhs}", ks.tier());
                    // The fused slot must select exactly the same rows and
                    // accumulate them in ascending order (bit-exact sum).
                    let fused = ks.fused_f64(&data, &values, op, rhs);
                    let mut want_state = AggState::default();
                    want.for_each_one(|i| {
                        want_state.sum += values[i];
                        want_state.count += 1;
                    });
                    assert_eq!(fused, want_state, "{} fused_f64 {op:?} rhs {rhs}", ks.tier());
                }
            }
        }
    }

    #[test]
    fn in_kernels_match_scalar_contains_on_every_tier() {
        // Lookup shapes: dense low u8 domain, sparse wide-ish span, and a
        // negative offset; lengths cover empty, sub-word, word-exact,
        // word+tail, and %8 boundaries.
        let lookup_sets: [&[i64]; 4] =
            [&[0, 1, 2, 3, 9, 200, 255], &[5], &[-300, -250, 511, 700], &[i64::MIN, 40, i64::MAX]];
        for set in lookup_sets {
            let Some(lookup) = InLookup::build(set) else {
                // Span too wide to materialize (the i64 extremes set):
                // evaluation falls back to binary search before reaching
                // the kernels, nothing to probe here.
                continue;
            };
            for n in [0usize, 7, 64, 71, 128, 130] {
                let u8s: Vec<u8> = (0..n).map(|i| (i * 29 % 256) as u8).collect();
                let u16s: Vec<u16> = (0..n).map(|i| (i * 97 % 800) as u16).collect();
                let u32s: Vec<u32> = (0..n).map(|i| (i * 13 % 900) as u32).collect();
                let i64s: Vec<i64> = (0..n)
                    .map(|i| match i % 11 {
                        0 => i64::MIN,
                        1 => i64::MAX,
                        _ => i as i64 * 17 - 400,
                    })
                    .collect();
                for ks in KernelSet::supported() {
                    macro_rules! check_in {
                        ($data:expr, $in_kernel:ident) => {{
                            let mut mask = Bitmask::zeros(n);
                            ks.$in_kernel($data, &lookup, &mut mask);
                            let want =
                                Bitmask::from_fn(n, |i| lookup.contains(i64::from($data[i])));
                            assert_eq!(
                                mask,
                                want,
                                "{} {} n={n} set={set:?}",
                                ks.tier(),
                                stringify!($in_kernel)
                            );
                        }};
                    }
                    check_in!(&u8s, in_u8);
                    check_in!(&u16s, in_u16);
                    check_in!(&u32s, in_u32);
                    check_in!(&i64s, in_i64);
                }
            }
        }
    }

    #[test]
    fn resolve_tier_pins_and_warns_deterministically() {
        let all = [KernelTier::Avx512, KernelTier::Avx2, KernelTier::Sse2, KernelTier::Portable];
        let no_avx512 = [KernelTier::Avx2, KernelTier::Sse2, KernelTier::Portable];

        // No pin: best supported tier, silent.
        assert_eq!(resolve_tier(None, &all), (KernelTier::Avx512, None));
        // Valid supported pin: honored, silent.
        assert_eq!(resolve_tier(Some("sse2"), &all), (KernelTier::Sse2, None));
        assert_eq!(resolve_tier(Some(" AVX2 "), &all), (KernelTier::Avx2, None));
        assert_eq!(resolve_tier(Some("scalar"), &all), (KernelTier::Portable, None));

        // Unknown tier name: falls back to the best tier and says so —
        // never a silent portable downgrade.
        let (tier, warn) = resolve_tier(Some("avx1024"), &no_avx512);
        assert_eq!(tier, KernelTier::Avx2);
        let warn = warn.expect("unknown tier must warn");
        assert!(warn.contains("unrecognized tier \"avx1024\""), "{warn}");
        assert!(warn.contains("using avx2"), "{warn}");
        // Deterministic: the identical inputs produce the identical text.
        assert_eq!(resolve_tier(Some("avx1024"), &no_avx512).1.as_deref(), Some(&*warn));

        // Known but unsupported tier: explicit message naming both tiers.
        let (tier, warn) = resolve_tier(Some("avx512"), &no_avx512);
        assert_eq!(tier, KernelTier::Avx2);
        let warn = warn.expect("unsupported tier must warn");
        assert!(warn.contains("'avx512' is not supported"), "{warn}");
        assert!(warn.contains("using avx2"), "{warn}");
    }

    #[test]
    fn empty_and_exact_word_lengths() {
        for ks in KernelSet::supported() {
            for n in [0usize, 64, 128] {
                let data: Vec<u8> = (0..n).map(|i| i as u8).collect();
                let mut mask = Bitmask::zeros(n);
                ks.cmp_u8(&data, CmpOp::Ne, 3, &mut mask);
                assert_eq!(mask, scalar_mask(&data, CmpOp::Ne, 3), "{} n={n}", ks.tier());
            }
        }
    }
}
