//! Runtime-dispatched SIMD kernels for batch split-tree routing.
//!
//! The columnar [`Relation`](crate::relation::Relation) layout stores each join
//! dimension as one contiguous `Vec<f64>`, so a split node's test
//! (`key[dim] < boundary`, plus the band-shifted variants on the duplicated
//! side) is a *vertical* operation: gather the column values of a segment of
//! tuple positions, compare them against one broadcast boundary, and split the
//! segment into the left-going and right-going position lists. This module
//! provides that primitive — a **stable partition of a position segment by a
//! column predicate** — in two interchangeable implementations:
//!
//! * [`RouteKernel::Portable`] — branchless scalar code (always write the
//!   position, conditionally advance the cursor) that autovectorizes on any
//!   target and has no data-dependent branches.
//! * [`RouteKernel::Avx2`] — x86-64 AVX2: four keys per iteration via
//!   `vgatherdpd`, one `vcmppd` per side, and a 16-entry `pshufb` lookup table
//!   that compress-stores the surviving positions. Selected at runtime with
//!   [`is_x86_feature_detected!`]; never compiled into the binary's
//!   unconditional code path, so the same build runs on non-AVX2 hardware.
//!
//! NEON (aarch64) would slot in the same way; it is tracked as a follow-up in
//! `ROADMAP.md` because this repository's CI only exercises x86-64.
//!
//! # Bit-identity contract
//!
//! Every kernel must route **bit-identically** to the split tree's own walk
//! ([`SplitTree::route_s`](crate::split_tree::SplitTree::route_s)), the routing reference:
//! the same partition ids in the same order for every tuple, including
//! non-finite keys. The comparisons are chosen to match IEEE-754 semantics of
//! the scalar code exactly:
//!
//! * the partitioned side's `k < boundary` maps to an *ordered* SIMD compare
//!   (`_CMP_LT_OQ`), which is false for NaN — so a NaN key goes right, exactly
//!   like the scalar `if k < boundary { left } else { right }`;
//! * the duplicated side's `k - sub < boundary` / `k + add ≥ boundary` map to
//!   `_CMP_LT_OQ` / `_CMP_GE_OQ`, both false for NaN — a NaN key is dropped at
//!   a duplicating node, exactly like the tree walk.
//!
//! (A [`Relation`](crate::Relation) rejects NaN keys and accepts `±∞` — see the
//! [`relation`](crate::relation) module docs — but the kernels take raw slices,
//! so they match the scalar code on every value, NaN included.)
//!
//! # Forcing a kernel
//!
//! The environment variable `BAND_JOIN_KERNEL` overrides detection for every
//! layer at once (the router and the join window below): `portable`, `avx2`,
//! or `auto` (the default). Forcing a kernel the CPU does not support
//! panics at first use rather than silently downgrading, so CI gates measure
//! what they claim to measure. To force the router alone, pass a kernel to
//! `CompiledRouter::route_{s,t}_block_with`.
//!
//! # Join kernels
//!
//! The same recipe is applied to the *local band-join* hot path: once the
//! probe side of an index-nested-loop join is narrowed to a dimension-0 window
//! over the SoA-sorted candidate columns, evaluating the full band condition
//! against every candidate in the window is a vertical operation too. The
//! [`JoinKernel`] variants provide it ([`band_window_count_dims`] /
//! [`band_window_collect_dims`]): branchless portable, and AVX2 masked
//! compares with AND-accumulated per-dimension accept masks, popcount for
//! output counting, and the same `pshufb` compress-store for pair
//! materialization. They take the probe-key,
//! column and ε slices of the dimensions to test rather than a whole
//! [`BandCondition`]: the local join settles dimension 0 on the sorted column
//! itself and hands the kernels dimensions `1..` only.
//!
//! NaN semantics deliberately mirror [`BandCondition::matches`]: a pair is
//! *rejected* iff `d < -ε_low || d > ε_high` for some dimension (`d = s − t`),
//! so a NaN difference — which fails both ordered compares — **matches**. The
//! kernels therefore compute the reject mask with ordered compares
//! (`_CMP_LT_OQ` / `_CMP_GT_OQ`, both false for NaN) and invert it, rather
//! than testing acceptance directly.

use crate::band::BandCondition;
use std::ops::Range;
use std::sync::OnceLock;

/// Which kernel implementation a vectorized layer runs: the router's batch
/// descent ([`RouteKernel`]) and the local join's window evaluation
/// ([`JoinKernel`]) are the same two choices with the same detection and the
/// same forcing contract, so they are one type under two names. See the module
/// docs for what each variant does in each layer and how [`Kernel::active`]
/// picks one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Branchless portable kernels (any target).
    Portable,
    /// AVX2 kernels: gather + compare + compress-store for routing, masked
    /// compare + popcount + compress-store for the join window (x86-64 only).
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

/// The kernel of the router's batch descent.
pub type RouteKernel = Kernel;
/// The kernel that evaluates the band condition over a local-join candidate window.
pub type JoinKernel = Kernel;

impl Kernel {
    /// The best kernel the current CPU supports, ignoring the environment.
    pub fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Kernel::Avx2;
            }
        }
        Kernel::Portable
    }

    /// The kernel every layer uses, resolved once per process: the
    /// `BAND_JOIN_KERNEL` environment variable if set (see [`Kernel::forced`]),
    /// otherwise [`Kernel::detect`].
    ///
    /// # Panics
    /// Panics if the variable names a kernel this CPU cannot run (or an
    /// unknown name) — a forced kernel that silently downgraded would make
    /// benchmark gates meaningless.
    pub fn active() -> Kernel {
        static ACTIVE: OnceLock<Kernel> = OnceLock::new();
        *ACTIVE.get_or_init(|| match std::env::var("BAND_JOIN_KERNEL") {
            Ok(v) => Self::forced(&v).unwrap_or_else(|e| panic!("BAND_JOIN_KERNEL: {e}")),
            Err(_) => Self::detect(),
        })
    }

    /// Parse a forced kernel name: `portable`, `avx2`, or `auto` (=
    /// [`Kernel::detect`]), case-insensitive. An unknown name, or `avx2` on a
    /// CPU without it, is an `Err` naming the accepted values — never a
    /// downgrade.
    pub fn forced(name: &str) -> Result<Kernel, String> {
        match name.to_ascii_lowercase().as_str() {
            "portable" => Ok(Kernel::Portable),
            "auto" => Ok(Self::detect()),
            #[cfg(target_arch = "x86_64")]
            "avx2" if std::arch::is_x86_feature_detected!("avx2") => Ok(Kernel::Avx2),
            _ => Err(format!(
                "kernel {name:?} is not available (expected portable, avx2, or auto)"
            )),
        }
    }

    /// Every kernel the current CPU can run (always includes `Portable`). Used
    /// by tests and benchmarks to sweep the whole matrix.
    pub fn all_supported() -> Vec<Kernel> {
        let mut all = vec![Kernel::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                all.push(Kernel::Avx2);
            }
        }
        all
    }

    /// Stable lowercase name (`portable` / `avx2`), accepted back by
    /// [`Kernel::forced`] and used in benchmark reports.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => "avx2",
        }
    }
}

/// [`band_window_collect_dims`] over every dimension of `band`: **appends** the
/// positions of `window` (absolute indices into the SoA columns `cols`, one per
/// join dimension, as `u32`, in window order) whose full band condition against
/// the probe key `sk` holds — exactly [`BandCondition::matches`] per candidate,
/// NaN semantics included — to `out`, and returns how many it appended. Every
/// kernel appends the same positions in the same order.
///
/// # Panics
/// As [`band_window_collect_dims`], the band's dimensions being the ε slices.
pub(crate) fn band_window_collect(
    kernel: JoinKernel,
    sk: &[f64],
    cols: &[Vec<f64>],
    window: Range<usize>,
    band: &BandCondition,
    out: &mut Vec<u32>,
) -> u64 {
    let (lo, hi) = (band.eps_low_all(), band.eps_high_all());
    band_window_collect_dims(kernel, sk, cols, lo, hi, window, out)
}

/// The vector kernels load with `get_unchecked`: these checks are what makes the
/// safe entry points sound, so they hold in release builds too.
fn assert_window_in_columns(
    sk: &[f64],
    cols: &[Vec<f64>],
    eps_low: &[f64],
    eps_high: &[f64],
    window: &Range<usize>,
) {
    assert_eq!(sk.len(), cols.len(), "probe key vs candidate columns");
    assert_eq!(sk.len(), eps_low.len(), "probe key vs ε_low");
    assert_eq!(sk.len(), eps_high.len(), "probe key vs ε_high");
    assert!(
        cols.iter().all(|c| window.end <= c.len()),
        "window {window:?} runs past a candidate column"
    );
}

/// Count the candidates of `window` (positions into the SoA columns `cols`, one
/// sorted column per dimension) that pass the band test over a caller-chosen run
/// of dimensions: candidate `pos` is counted unless `d = sk[i] − cols[i][pos]` has
/// `d < −eps_low[i] || d > eps_high[i]` for some `i` — [`BandCondition::matches`]'
/// own test, so a NaN difference matches. Every kernel returns the same count.
/// The local join passes the slices of dimensions `1..` once it has settled
/// dimension 0 on the sorted column itself; with no dimensions left every
/// candidate of the window counts, and no kernel runs to say so.
///
/// # Panics
/// Panics unless `sk`, `cols`, `eps_low` and `eps_high` have one length and
/// `window.end` is within every column.
pub fn band_window_count_dims(
    kernel: JoinKernel,
    sk: &[f64],
    cols: &[Vec<f64>],
    eps_low: &[f64],
    eps_high: &[f64],
    window: Range<usize>,
) -> u64 {
    assert_window_in_columns(sk, cols, eps_low, eps_high, &window);
    if sk.is_empty() {
        return window.len() as u64;
    }
    match kernel {
        JoinKernel::Portable => portable::window_count(sk, cols, eps_low, eps_high, window),
        #[cfg(target_arch = "x86_64")]
        // Safety: `Avx2` is only constructed after `is_x86_feature_detected!("avx2")`;
        // the asserts above are the kernel's length and bounds contract.
        JoinKernel::Avx2 => unsafe { avx2::window_count(sk, cols, eps_low, eps_high, window) },
    }
}

/// [`band_window_count_dims`] that additionally **appends** the matching positions
/// (absolute indices into the columns, as `u32`, in window order) to `out`, and
/// returns the number appended. Every kernel appends the same positions in the
/// same order.
///
/// # Panics
/// As [`band_window_count_dims`], and if `window.end` exceeds `u32::MAX` (positions
/// are appended as `u32`).
pub fn band_window_collect_dims(
    kernel: JoinKernel,
    sk: &[f64],
    cols: &[Vec<f64>],
    eps_low: &[f64],
    eps_high: &[f64],
    window: Range<usize>,
    out: &mut Vec<u32>,
) -> u64 {
    assert_window_in_columns(sk, cols, eps_low, eps_high, &window);
    assert!(
        window.end <= u32::MAX as usize,
        "window {window:?} does not fit u32 positions"
    );
    if sk.is_empty() {
        out.extend(window.start as u32..window.end as u32);
        return window.len() as u64;
    }
    match kernel {
        JoinKernel::Portable => portable::window_collect(sk, cols, eps_low, eps_high, window, out),
        #[cfg(target_arch = "x86_64")]
        // Safety: `Avx2` is only constructed after `is_x86_feature_detected!("avx2")`;
        // the asserts above are the kernel's length and bounds contract.
        JoinKernel::Avx2 => unsafe {
            avx2::window_collect(sk, cols, eps_low, eps_high, window, out)
        },
    }
}

/// Stable-partition the positions of `seg` by the test `col[pos] < boundary`:
/// passing positions append to `left`, failing ones (including NaN) to
/// `right`, both in `seg` order. `left`/`right` are cleared first. Every
/// position in `seg` must index into `col`.
#[inline]
pub(crate) fn partition_single(
    kernel: RouteKernel,
    col: &[f64],
    seg: &[u32],
    boundary: f64,
    left: &mut Vec<u32>,
    right: &mut Vec<u32>,
) {
    debug_assert!(seg.iter().all(|&p| (p as usize) < col.len()));
    match kernel {
        RouteKernel::Portable => portable::partition_single(col, seg, boundary, left, right),
        #[cfg(target_arch = "x86_64")]
        // Safety: `Avx2` is only constructed after `is_x86_feature_detected!("avx2")`.
        RouteKernel::Avx2 => unsafe { avx2::partition_single(col, seg, boundary, left, right) },
    }
}

/// A *duplicating* node's split: a key `k` descends left if `k - sub < boundary`
/// and right if `k + add >= boundary` — possibly both, possibly (NaN) neither.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DupSplit {
    pub(crate) boundary: f64,
    pub(crate) sub: f64,
    pub(crate) add: f64,
}

/// Stable-partition the positions of `seg` for a *duplicating* node by `split`: a
/// position goes to `left`, to `right`, to both or (NaN) to neither, as
/// [`DupSplit`] says. Same contract as [`partition_single`] otherwise.
#[inline]
pub(crate) fn partition_dup(
    kernel: RouteKernel,
    col: &[f64],
    seg: &[u32],
    split: DupSplit,
    left: &mut Vec<u32>,
    right: &mut Vec<u32>,
) {
    debug_assert!(seg.iter().all(|&p| (p as usize) < col.len()));
    match kernel {
        RouteKernel::Portable => portable::partition_dup(col, seg, split, left, right),
        #[cfg(target_arch = "x86_64")]
        // Safety: `Avx2` is only constructed after `is_x86_feature_detected!("avx2")`.
        RouteKernel::Avx2 => unsafe { avx2::partition_dup(col, seg, split, left, right) },
    }
}

/// Branchless portable kernels: every iteration writes the position to both
/// output cursors and advances each cursor by the predicate's 0/1 value, so
/// there is no data-dependent branch for the hardware to mispredict and the
/// loop autovectorizes on targets with gather support.
mod portable {
    /// Cursor invariant (both functions): before iteration `i` each cursor is at
    /// offset `≤ i`, so the unconditional write lands at offset `≤ seg.len()-1`
    /// — within the `seg.len()` slots reserved up front.
    pub(super) fn partition_single(
        col: &[f64],
        seg: &[u32],
        boundary: f64,
        left: &mut Vec<u32>,
        right: &mut Vec<u32>,
    ) {
        left.clear();
        right.clear();
        left.reserve(seg.len());
        right.reserve(seg.len());
        let mut lp = left.as_mut_ptr();
        let mut rp = right.as_mut_ptr();
        for &pos in seg {
            // Safety: the caller guarantees every position indexes `col`, and
            // the cursor invariant keeps both writes inside the reservation.
            unsafe {
                let k = *col.get_unchecked(pos as usize);
                let goes_left = (k < boundary) as usize;
                *lp = pos;
                *rp = pos;
                lp = lp.add(goes_left);
                rp = rp.add(1 - goes_left);
            }
        }
        // Safety: the cursors never passed `seg.len()` elements.
        unsafe {
            left.set_len(lp.offset_from(left.as_ptr()) as usize);
            right.set_len(rp.offset_from(right.as_ptr()) as usize);
        }
    }

    pub(super) fn partition_dup(
        col: &[f64],
        seg: &[u32],
        split: DupSplit,
        left: &mut Vec<u32>,
        right: &mut Vec<u32>,
    ) {
        let DupSplit { boundary, sub, add } = split;
        left.clear();
        right.clear();
        left.reserve(seg.len());
        right.reserve(seg.len());
        let mut lp = left.as_mut_ptr();
        let mut rp = right.as_mut_ptr();
        for &pos in seg {
            // Safety: see `partition_single`.
            unsafe {
                let k = *col.get_unchecked(pos as usize);
                *lp = pos;
                *rp = pos;
                lp = lp.add((k - sub < boundary) as usize);
                rp = rp.add((k + add >= boundary) as usize);
            }
        }
        // Safety: the cursors never passed `seg.len()` elements.
        unsafe {
            left.set_len(lp.offset_from(left.as_ptr()) as usize);
            right.set_len(rp.offset_from(right.as_ptr()) as usize);
        }
    }

    use super::DupSplit;
    use std::ops::Range;

    /// Branchless reject accumulator: `|=`s every dimension's two ordered
    /// compares instead of early-exiting, so there is no data-dependent branch.
    #[inline(always)]
    fn branchless_reject(
        sk: &[f64],
        cols: &[Vec<f64>],
        pos: usize,
        lo: &[f64],
        hi: &[f64],
    ) -> bool {
        let mut reject = false;
        for d in 0..sk.len() {
            // Safety-free: all indices are checked by the dispatch asserts.
            let diff = sk[d] - cols[d][pos];
            reject |= (diff < -lo[d]) | (diff > hi[d]);
        }
        reject
    }

    pub(super) fn window_count(
        sk: &[f64],
        cols: &[Vec<f64>],
        lo: &[f64],
        hi: &[f64],
        window: Range<usize>,
    ) -> u64 {
        window
            .map(|pos| !branchless_reject(sk, cols, pos, lo, hi) as u64)
            .sum()
    }

    pub(super) fn window_collect(
        sk: &[f64],
        cols: &[Vec<f64>],
        lo: &[f64],
        hi: &[f64],
        window: Range<usize>,
        out: &mut Vec<u32>,
    ) -> u64 {
        // Branchless append: always write the position, conditionally advance
        // the cursor. After `k` candidates the cursor is at most `k`, so every
        // write lands inside the `window.len()` slots grown up front.
        let base = out.len();
        out.resize(base + window.len(), 0);
        let slots = &mut out[base..];
        let mut n = 0;
        for pos in window {
            slots[n] = pos as u32;
            n += !branchless_reject(sk, cols, pos, lo, hi) as usize;
        }
        out.truncate(base + n);
        n as u64
    }
}

/// AVX2 kernels: gather four column values per iteration, compare all four
/// against the broadcast boundary, and compress-store the surviving positions
/// with a `pshufb` lookup keyed by the 4-bit compare mask.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::DupSplit;
    use std::arch::x86_64::*;

    /// `pshufb` controls that pack the selected 4-byte lanes of a 4×u32 vector
    /// to the front, one entry per 4-bit selection mask. Unselected output
    /// bytes are `0x80` (pshufb writes zero there); they sit past the cursor
    /// advance and are overwritten or truncated away.
    const COMPRESS: [[u8; 16]; 16] = build_compress_lut();

    const fn build_compress_lut() -> [[u8; 16]; 16] {
        let mut lut = [[0x80u8; 16]; 16];
        let mut mask = 0;
        while mask < 16 {
            let mut out_lane = 0;
            let mut lane = 0;
            while lane < 4 {
                if mask & (1 << lane) != 0 {
                    let mut b = 0;
                    while b < 4 {
                        lut[mask][out_lane * 4 + b] = (lane * 4 + b) as u8;
                        b += 1;
                    }
                    out_lane += 1;
                }
                lane += 1;
            }
            mask += 1;
        }
        lut
    }

    /// Compress-store the positions of `idx` selected by `mask` at `cursor`,
    /// returning the advanced cursor. Always stores 16 bytes; the caller's
    /// reservation proof covers the overstore (see the module docs).
    #[inline(always)]
    unsafe fn compress_store(cursor: *mut u32, idx: __m128i, mask: usize) -> *mut u32 {
        let shuffled = _mm_shuffle_epi8(
            idx,
            _mm_loadu_si128(COMPRESS[mask].as_ptr() as *const __m128i),
        );
        _mm_storeu_si128(cursor as *mut __m128i, shuffled);
        cursor.add(mask.count_ones() as usize)
    }

    /// # Safety
    /// AVX2 must be available and every position in `seg` must index `col`.
    ///
    /// Store-bounds proof: in the vector loop `i + 4 <= seg.len()` and each
    /// cursor is at offset `≤ i`, so the 16-byte store touches offsets
    /// `< i + 4 <= seg.len()` — within the `seg.len()` slots reserved up
    /// front. The scalar tail writes single elements at offsets `≤ seg.len()-1`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn partition_single(
        col: &[f64],
        seg: &[u32],
        boundary: f64,
        left: &mut Vec<u32>,
        right: &mut Vec<u32>,
    ) {
        left.clear();
        right.clear();
        left.reserve(seg.len());
        right.reserve(seg.len());
        let mut lp = left.as_mut_ptr();
        let mut rp = right.as_mut_ptr();
        let b = _mm256_set1_pd(boundary);
        let mut i = 0;
        while i + 4 <= seg.len() {
            let idx = _mm_loadu_si128(seg.as_ptr().add(i) as *const __m128i);
            let keys = _mm256_i32gather_pd::<8>(col.as_ptr(), idx);
            // Ordered compare: NaN fails and falls through to the right side,
            // matching the scalar `if k < boundary { left } else { right }`.
            let lt = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(keys, b)) as usize;
            lp = compress_store(lp, idx, lt);
            rp = compress_store(rp, idx, lt ^ 0xF);
            i += 4;
        }
        for &pos in &seg[i..] {
            let k = *col.get_unchecked(pos as usize);
            let goes_left = (k < boundary) as usize;
            *lp = pos;
            *rp = pos;
            lp = lp.add(goes_left);
            rp = rp.add(1 - goes_left);
        }
        left.set_len(lp.offset_from(left.as_ptr()) as usize);
        right.set_len(rp.offset_from(right.as_ptr()) as usize);
    }

    /// # Safety
    /// Same contract and bounds proof as [`partition_single`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn partition_dup(
        col: &[f64],
        seg: &[u32],
        split: DupSplit,
        left: &mut Vec<u32>,
        right: &mut Vec<u32>,
    ) {
        let DupSplit { boundary, sub, add } = split;
        left.clear();
        right.clear();
        left.reserve(seg.len());
        right.reserve(seg.len());
        let mut lp = left.as_mut_ptr();
        let mut rp = right.as_mut_ptr();
        let b = _mm256_set1_pd(boundary);
        let sub_v = _mm256_set1_pd(sub);
        let add_v = _mm256_set1_pd(add);
        let mut i = 0;
        while i + 4 <= seg.len() {
            let idx = _mm_loadu_si128(seg.as_ptr().add(i) as *const __m128i);
            let keys = _mm256_i32gather_pd::<8>(col.as_ptr(), idx);
            // Both ordered compares are false for NaN, so a NaN key descends
            // into neither child — identical to the tree walk.
            let lt = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_sub_pd(keys, sub_v), b))
                as usize;
            let ge = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_add_pd(keys, add_v), b))
                as usize;
            lp = compress_store(lp, idx, lt);
            rp = compress_store(rp, idx, ge);
            i += 4;
        }
        for &pos in &seg[i..] {
            let k = *col.get_unchecked(pos as usize);
            *lp = pos;
            *rp = pos;
            lp = lp.add((k - sub < boundary) as usize);
            rp = rp.add((k + add >= boundary) as usize);
        }
        left.set_len(lp.offset_from(left.as_ptr()) as usize);
        right.set_len(rp.offset_from(right.as_ptr()) as usize);
    }

    use std::ops::Range;

    /// Reject mask of four candidates at positions `i..i+4`: for each
    /// dimension, `d = s − t` fails iff `d < −ε_low` or `d > ε_high` — two
    /// *ordered* compares, both false for a NaN difference, OR-accumulated
    /// across dimensions. The caller inverts (`^ 0xF`) to get the accept mask
    /// — equivalently, the AND-accumulation of the per-dimension accept masks
    /// — so a NaN difference matches, exactly like the scalar
    /// [`BandCondition::matches`](crate::BandCondition::matches).
    ///
    /// # Safety
    /// AVX2 must be available; `i + 4 <= cols[d].len()` and
    /// `sk.len() == cols.len() == lo.len() == hi.len()`.
    #[inline(always)]
    unsafe fn band_reject_mask(
        sk: &[f64],
        cols: &[Vec<f64>],
        i: usize,
        lo: &[f64],
        hi: &[f64],
    ) -> usize {
        let mut rej = _mm256_setzero_pd();
        for d in 0..sk.len() {
            let tv = _mm256_loadu_pd(cols.get_unchecked(d).as_ptr().add(i));
            let dv = _mm256_sub_pd(_mm256_set1_pd(*sk.get_unchecked(d)), tv);
            let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(dv, _mm256_set1_pd(-*lo.get_unchecked(d)));
            let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(dv, _mm256_set1_pd(*hi.get_unchecked(d)));
            rej = _mm256_or_pd(rej, _mm256_or_pd(lt, gt));
        }
        _mm256_movemask_pd(rej) as usize
    }

    /// Scalar per-candidate band test for the vector loops' tails.
    #[inline(always)]
    unsafe fn band_matches_one(
        sk: &[f64],
        cols: &[Vec<f64>],
        pos: usize,
        lo: &[f64],
        hi: &[f64],
    ) -> bool {
        for d in 0..sk.len() {
            let diff = *sk.get_unchecked(d) - *cols.get_unchecked(d).get_unchecked(pos);
            if diff < -*lo.get_unchecked(d) || diff > *hi.get_unchecked(d) {
                return false;
            }
        }
        true
    }

    /// # Safety
    /// AVX2 must be available; `window.end <= cols[d].len()` for every
    /// dimension and `sk.len() == cols.len() == lo.len() == hi.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn window_count(
        sk: &[f64],
        cols: &[Vec<f64>],
        lo: &[f64],
        hi: &[f64],
        window: Range<usize>,
    ) -> u64 {
        let mut n = 0u64;
        let mut i = window.start;
        while i + 4 <= window.end {
            let acc = band_reject_mask(sk, cols, i, lo, hi) ^ 0xF;
            n += acc.count_ones() as u64;
            i += 4;
        }
        for pos in i..window.end {
            n += band_matches_one(sk, cols, pos, lo, hi) as u64;
        }
        n
    }

    /// # Safety
    /// Same contract as [`window_count`].
    ///
    /// Store-bounds proof: before the vector iteration starting at `i` the
    /// cursor is at offset `≤ i − window.start` past the old length, and
    /// `i + 4 <= window.end`, so the 16-byte compress-store touches offsets
    /// `< (i − window.start) + 4 <= window.len()` — within the `window.len()`
    /// slots reserved up front. The scalar tail writes single elements at
    /// offsets `≤ window.len() − 1`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn window_collect(
        sk: &[f64],
        cols: &[Vec<f64>],
        lo: &[f64],
        hi: &[f64],
        window: Range<usize>,
        out: &mut Vec<u32>,
    ) -> u64 {
        out.reserve(window.len());
        let base = out.len();
        let first = out.as_mut_ptr().add(base);
        let mut p = first;
        let mut idx = _mm_add_epi32(
            _mm_set1_epi32(window.start as i32),
            _mm_set_epi32(3, 2, 1, 0),
        );
        let four = _mm_set1_epi32(4);
        let mut i = window.start;
        while i + 4 <= window.end {
            let acc = band_reject_mask(sk, cols, i, lo, hi) ^ 0xF;
            p = compress_store(p, idx, acc);
            idx = _mm_add_epi32(idx, four);
            i += 4;
        }
        for pos in i..window.end {
            *p = pos as u32;
            p = p.add(band_matches_one(sk, cols, pos, lo, hi) as usize);
        }
        let n = p.offset_from(first) as usize;
        out.set_len(base + n);
        n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_single(col: &[f64], seg: &[u32], boundary: f64) -> (Vec<u32>, Vec<u32>) {
        let mut l = Vec::new();
        let mut r = Vec::new();
        for &pos in seg {
            if col[pos as usize] < boundary {
                l.push(pos);
            } else {
                r.push(pos);
            }
        }
        (l, r)
    }

    fn reference_dup(col: &[f64], seg: &[u32], split: DupSplit) -> (Vec<u32>, Vec<u32>) {
        let DupSplit { boundary, sub, add } = split;
        let mut l = Vec::new();
        let mut r = Vec::new();
        for &pos in seg {
            let k = col[pos as usize];
            if k - sub < boundary {
                l.push(pos);
            }
            if k + add >= boundary {
                r.push(pos);
            }
        }
        (l, r)
    }

    /// A deterministic pseudo-random column with ties, extremes, and NaN.
    fn test_column(n: usize) -> Vec<f64> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match state % 11 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => 0.5, // exact boundary ties
                    _ => ((state >> 16) % 1000) as f64 / 500.0 - 1.0 + i as f64 * 1e-9,
                }
            })
            .collect()
    }

    #[test]
    fn kernels_match_reference_on_all_segment_lengths() {
        let col = test_column(300);
        for kernel in RouteKernel::all_supported() {
            let (mut l, mut r) = (Vec::new(), Vec::new());
            // Every length 0..=67 hits the vector loop and every tail residue.
            for len in 0..=67usize {
                let seg: Vec<u32> = (0..len as u32).map(|i| (i * 37) % 300).collect();
                for boundary in [0.5, -0.3, f64::INFINITY] {
                    partition_single(kernel, &col, &seg, boundary, &mut l, &mut r);
                    let (el, er) = reference_single(&col, &seg, boundary);
                    assert_eq!(
                        (&l, &r),
                        (&el, &er),
                        "kernel {} single len {len}",
                        kernel.name()
                    );

                    let split = DupSplit {
                        boundary,
                        sub: 0.25,
                        add: 0.125,
                    };
                    partition_dup(kernel, &col, &seg, split, &mut l, &mut r);
                    let (el, er) = reference_dup(&col, &seg, split);
                    assert_eq!(
                        (&l, &r),
                        (&el, &er),
                        "kernel {} dup len {len}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn outputs_are_reused_without_stale_data() {
        let col = vec![1.0, 2.0, 3.0, 4.0];
        for kernel in RouteKernel::all_supported() {
            let mut l = vec![9, 9, 9, 9, 9];
            let mut r = vec![9, 9, 9];
            partition_single(kernel, &col, &[0, 1, 2, 3], 2.5, &mut l, &mut r);
            assert_eq!(l, [0, 1]);
            assert_eq!(r, [2, 3]);
        }
    }

    #[test]
    fn kernel_names_round_trip() {
        for kernel in RouteKernel::all_supported() {
            assert_eq!(RouteKernel::forced(kernel.name()), Ok(kernel));
        }
        assert_eq!(RouteKernel::forced("auto"), Ok(RouteKernel::detect()));
        assert!(RouteKernel::forced("neon-someday").is_err());
        assert!(RouteKernel::all_supported().contains(&RouteKernel::detect()));
    }

    /// `JoinKernel` names the same type as `RouteKernel`; the local joins reach it
    /// under this name, so its round trip is checked under it too. `detect` picks
    /// the widest kernel this CPU runs, never the portable one when AVX2 is there.
    #[test]
    fn join_kernel_names_round_trip() {
        for kernel in JoinKernel::all_supported() {
            assert_eq!(JoinKernel::forced(kernel.name()), Ok(kernel));
        }
        assert_eq!(JoinKernel::forced("auto"), Ok(JoinKernel::detect()));
        assert!(JoinKernel::forced("sse-someday").is_err());
        assert!(JoinKernel::all_supported().contains(&JoinKernel::detect()));
        assert_eq!(
            JoinKernel::all_supported().last(),
            Some(&JoinKernel::detect())
        );
    }

    /// The forcing contract `Kernel::active` panics on: a name that is unknown, or
    /// a kernel this CPU cannot run, is an error that names the accepted values —
    /// never a silent downgrade, which would void every forced-kernel gate.
    #[test]
    fn forcing_an_unknown_or_unsupported_kernel_is_an_error() {
        let accepted = "expected portable, avx2, or auto";
        let err = Kernel::forced("sse9").unwrap_err();
        assert!(err.contains("sse9") && err.contains(accepted), "{err}");
        assert!(Kernel::forced("").unwrap_err().contains(accepted));
        let err = Kernel::forced("scalar").unwrap_err();
        assert!(err.contains("scalar") && err.contains(accepted), "{err}");
        if Kernel::detect() == Kernel::Portable {
            // Off x86-64, or on x86-64 without AVX2.
            assert!(Kernel::forced("avx2").unwrap_err().contains(accepted));
        }
        assert_eq!(Kernel::forced("AUTO"), Ok(Kernel::detect()));
    }

    /// `BandCondition::matches` on gathered keys — the join kernels' oracle.
    fn reference_window(
        sk: &[f64],
        cols: &[Vec<f64>],
        window: std::ops::Range<usize>,
        band: &BandCondition,
    ) -> Vec<u32> {
        window
            .filter(|&pos| {
                let tk: Vec<f64> = cols.iter().map(|c| c[pos]).collect();
                band.matches(sk, &tk)
            })
            .map(|pos| pos as u32)
            .collect()
    }

    #[test]
    fn join_kernels_match_band_condition_on_all_window_lengths() {
        let dims = 3;
        let n = 200;
        let long = test_column(n + dims);
        let cols: Vec<Vec<f64>> = (0..dims).map(|d| long[d..d + n].to_vec()).collect();
        let band = BandCondition::try_asymmetric(&[0.4, 0.9, 0.0], &[0.7, 0.0, 1.3]).unwrap();
        // Probe keys cover finite values, ties, ±inf, and NaN (a NaN difference
        // *matches* — see the module docs).
        let probes: [[f64; 3]; 5] = [
            [0.5, 0.5, 0.5],
            [-0.25, 1.0, 0.0],
            [f64::NAN, 0.5, 0.5],
            [f64::INFINITY, f64::NEG_INFINITY, 0.0],
            [1.0, f64::NAN, f64::NAN],
        ];
        for kernel in JoinKernel::all_supported() {
            let mut got = Vec::new();
            for len in 0..=67usize {
                let start = (len * 3) % (n - 67);
                let window = start..start + len;
                for sk in &probes {
                    let expected = reference_window(sk, &cols, window.clone(), &band);
                    let (lo, hi) = (band.eps_low_all(), band.eps_high_all());
                    let count = band_window_count_dims(kernel, sk, &cols, lo, hi, window.clone());
                    assert_eq!(
                        count,
                        expected.len() as u64,
                        "kernel {} count len {len} probe {sk:?}",
                        kernel.name()
                    );
                    got.clear();
                    got.push(7); // collect appends — pre-existing content must survive
                    let appended =
                        band_window_collect(kernel, sk, &cols, window.clone(), &band, &mut got);
                    assert_eq!(appended, expected.len() as u64);
                    assert_eq!(got[0], 7, "kernel {} clobbered the prefix", kernel.name());
                    assert_eq!(
                        &got[1..],
                        expected.as_slice(),
                        "kernel {} collect len {len} probe {sk:?}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn join_kernels_match_on_single_dimension_windows() {
        let col = test_column(150);
        let cols = vec![col];
        let band = BandCondition::symmetric(&[0.5]);
        for kernel in JoinKernel::all_supported() {
            for sk in [[0.0], [0.5], [f64::NAN], [f64::INFINITY]] {
                let expected = reference_window(&sk, &cols, 0..150, &band);
                let mut got = Vec::new();
                let n = band_window_collect(kernel, &sk, &cols, 0..150, &band, &mut got);
                assert_eq!(n, expected.len() as u64, "kernel {}", kernel.name());
                assert_eq!(got, expected, "kernel {}", kernel.name());
            }
        }
    }

    /// The slice-taking entry points test exactly the dimensions they are handed —
    /// the local join's `1..` — and, handed none, accept the whole window.
    #[test]
    fn dims_entry_points_test_only_the_dimensions_given() {
        let (dims, n) = (4, 120);
        let long = test_column(n + dims);
        let cols: Vec<Vec<f64>> = (0..dims).map(|d| long[d..d + n].to_vec()).collect();
        let (lo, hi) = ([0.4, 0.9, 0.0, 0.3], [0.7, 0.0, 1.3, 0.3]);
        let sk = [0.5, -0.25, f64::NAN, 0.1];
        for kernel in JoinKernel::all_supported() {
            for from in 0..=dims {
                let band = (from < dims)
                    .then(|| BandCondition::try_asymmetric(&lo[from..], &hi[from..]).unwrap());
                for window in [0..0, 3..4, 5..72, 0..n] {
                    let expected = match &band {
                        Some(band) => {
                            reference_window(&sk[from..], &cols[from..], window.clone(), band)
                        }
                        None => window.clone().map(|pos| pos as u32).collect(),
                    };
                    let label = format!("kernel {} dims {from}.. {window:?}", kernel.name());
                    let (sk, cols) = (&sk[from..], &cols[from..]);
                    let (lo, hi) = (&lo[from..], &hi[from..]);
                    let count = band_window_count_dims(kernel, sk, cols, lo, hi, window.clone());
                    assert_eq!(count, expected.len() as u64, "{label}");
                    let mut got = vec![7];
                    let appended =
                        band_window_collect_dims(kernel, sk, cols, lo, hi, window, &mut got);
                    assert_eq!(appended, expected.len() as u64, "{label}");
                    assert_eq!(got[0], 7, "{label}: clobbered the prefix");
                    assert_eq!(&got[1..], expected.as_slice(), "{label}");
                }
            }
        }
    }

    // The vector kernels load unchecked, so a malformed call from safe code must
    // panic in the profile that ships: CI runs these with `--release` too.

    #[test]
    #[should_panic(expected = "runs past a candidate column")]
    fn collect_panics_on_a_window_past_a_short_column() {
        let cols = vec![vec![0.0; 8], vec![0.0; 3]];
        let band = BandCondition::symmetric(&[1.0, 1.0]);
        band_window_collect(
            JoinKernel::detect(),
            &[0.0, 0.0],
            &cols,
            0..8,
            &band,
            &mut Vec::new(),
        );
    }

    #[test]
    #[should_panic(expected = "probe key vs ε_high")]
    fn count_dims_panics_on_a_short_epsilon_slice() {
        let cols = vec![vec![0.0; 8], vec![0.0; 8]];
        let eps = [1.0, 1.0];
        band_window_count_dims(
            JoinKernel::detect(),
            &[0.0, 0.0],
            &cols,
            &eps,
            &eps[..1],
            0..8,
        );
    }

    #[test]
    #[should_panic(expected = "runs past a candidate column")]
    fn collect_dims_panics_on_a_window_past_a_short_column() {
        let cols = vec![vec![0.0; 3]];
        let mut out = Vec::new();
        band_window_collect_dims(
            JoinKernel::detect(),
            &[0.0],
            &cols,
            &[1.0],
            &[1.0],
            4..8,
            &mut out,
        );
    }
}
