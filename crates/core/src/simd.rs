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
//! against every candidate in the window is a vertical operation too. A
//! [`WindowKernel`] provides it in each [`JoinKernel`] variant: branchless portable,
//! and AVX2 masked compares with OR-accumulated per-dimension reject masks, a vector
//! accumulator for output counting, and the same `pshufb` compress-store for pair
//! materialization. It is built once per sweep from the kernel, the candidate columns
//! and the ε slices of the dimensions to test rather than a whole
//! [`BandCondition`](crate::BandCondition):
//! the local join settles dimension 0 on the sorted column itself and hands the
//! kernel dimensions `1..` only; the output sampler hands it every dimension.
//!
//! Building a [`WindowKernel`] checks those lengths once and fixes the kernel and the
//! arm: the kernels are specialized to the number `D` of tested dimensions, with an arm
//! for each `D` from 1 to 4 (a 2- to 5-dimensional join after the dimension-0 trim, or
//! the output sampler's full-dimension test). Each call, [`WindowKernel::count`] or
//! [`WindowKernel::collect`], takes a whole **block** of probes, a key and a window of
//! candidate positions each, and crosses the dispatch on `D` and the kernel (for AVX2,
//! the `#[target_feature]` boundary) once per block; per window it checks only
//! `start ≤ end ≤ rows`. An arm hoists `−ε_low` and `ε_high` into fixed-size arrays
//! once per block (the AVX2 kernel broadcasts them to four lanes there), and per window
//! the probe key (broadcast once per window) and every column cut to the window, so the
//! candidate loop does no per-dimension bookkeeping and no bounds checks. A wider call
//! runs the widest arm on its first four dimensions and tests the others in a
//! runtime-length loop, which broadcasts their constants per group of four candidates.
//! Every arm makes the same IEEE compares per dimension and ORs them, so counts and
//! appended positions do not depend on the arm. The AVX2 count adds the reject masks up
//! in a vector register, and a window whose length is not a multiple of four ends with
//! one more vector step over its last four candidates, keeping only the lanes no earlier
//! step covered; a window under four candidates is tested one candidate at a time.
//!
//! NaN semantics deliberately mirror
//! [`BandCondition::matches`](crate::BandCondition::matches): a pair is
//! *rejected* iff `d < -ε_low || d > ε_high` for some dimension (`d = s − t`),
//! so a NaN difference — which fails both ordered compares — **matches**. The
//! kernels therefore compute the reject mask with ordered compares
//! (`_CMP_LT_OQ` / `_CMP_GT_OQ`, both false for NaN) and invert it, rather
//! than testing acceptance directly.

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

/// The band test of one sweep, built once and called once per block of probes: a
/// [`JoinKernel`], the candidate columns to test (one per tested dimension, positions
/// in every column addressing the same candidate) and their `ε_low` / `ε_high`.
///
/// Candidate `pos` of probe `i`'s window passes unless `d = keys[j][i] − cols[j][pos]`
/// has `d < −eps_low[j] || d > eps_high[j]` for some tested dimension `j` —
/// [`BandCondition::matches`](crate::BandCondition::matches)' own test, so a NaN
/// difference matches. Every kernel returns the same counts and appends the same
/// positions in the same order. The local join passes the columns of dimensions `1..`
/// once it has settled dimension 0 on the sorted column itself; with no dimension left
/// every candidate of a window passes, and no kernel runs to say so.
#[derive(Debug, Clone, Copy)]
pub struct WindowKernel<'a> {
    kernel: JoinKernel,
    cols: &'a [Vec<f64>],
    eps_low: &'a [f64],
    eps_high: &'a [f64],
    /// The rows every window must end within: the shortest column's length (with no
    /// column, every `u32` position).
    rows: usize,
}

impl<'a> WindowKernel<'a> {
    /// Check the lengths once and fix the kernel and the arm.
    ///
    /// # Panics
    /// Panics unless `cols`, `eps_low` and `eps_high` have one length, and if a column
    /// has more rows than `u32` positions address.
    pub fn new(
        kernel: JoinKernel,
        cols: &'a [Vec<f64>],
        eps_low: &'a [f64],
        eps_high: &'a [f64],
    ) -> Self {
        assert_eq!(cols.len(), eps_low.len(), "candidate columns vs ε_low");
        assert_eq!(cols.len(), eps_high.len(), "candidate columns vs ε_high");
        let rows = cols.iter().map(Vec::len).min().unwrap_or(u32::MAX as usize);
        assert!(
            rows <= u32::MAX as usize,
            "candidate columns of {rows} rows do not fit u32 positions"
        );
        WindowKernel {
            kernel,
            cols,
            eps_low,
            eps_high,
            rows,
        }
    }

    /// The passing candidates of a block of probes, summed: probe `i` has the key
    /// `keys[j][i]` in tested dimension `j` and the window `windows[i]` of candidate
    /// positions.
    ///
    /// # Panics
    /// Panics unless `keys` has one column per candidate column, each with at least
    /// `windows.len()` rows, and every window has `start ≤ end ≤` the shortest
    /// candidate column's length.
    pub fn count(&self, keys: &[&[f64]], windows: &[Range<usize>]) -> u64 {
        self.assert_keys(keys, windows);
        match self.cols.len() {
            0 => windows
                .iter()
                .map(|w| {
                    check_window(w, self.rows);
                    w.len() as u64
                })
                .sum(),
            1 => self.count_arm::<1>(keys, windows),
            2 => self.count_arm::<2>(keys, windows),
            3 => self.count_arm::<3>(keys, windows),
            _ => self.count_arm::<{ WIDEST }>(keys, windows),
        }
    }

    /// [`WindowKernel::count`] that also **appends** every probe's passing positions to
    /// `out` (absolute positions into the columns, as `u32`, in window order, probe
    /// after probe) and pushes one count per probe to `counts`. Returns the number of
    /// positions appended.
    ///
    /// # Panics
    /// As [`WindowKernel::count`].
    pub fn collect(
        &self,
        keys: &[&[f64]],
        windows: &[Range<usize>],
        out: &mut Vec<u32>,
        counts: &mut Vec<u32>,
    ) -> u64 {
        self.assert_keys(keys, windows);
        counts.reserve(windows.len());
        match self.cols.len() {
            0 => {
                let before = out.len();
                for w in windows {
                    check_window(w, self.rows);
                    out.extend(w.start as u32..w.end as u32);
                    counts.push(w.len() as u32);
                }
                (out.len() - before) as u64
            }
            1 => self.collect_arm::<1>(keys, windows, out, counts),
            2 => self.collect_arm::<2>(keys, windows, out, counts),
            3 => self.collect_arm::<3>(keys, windows, out, counts),
            _ => self.collect_arm::<{ WIDEST }>(keys, windows, out, counts),
        }
    }

    /// A malformed block panics here, naming what is wrong, in release builds too —
    /// not deep in a kernel.
    fn assert_keys(&self, keys: &[&[f64]], windows: &[Range<usize>]) {
        assert_eq!(
            keys.len(),
            self.cols.len(),
            "probe keys vs candidate columns"
        );
        assert!(
            keys.iter().all(|k| k.len() >= windows.len()),
            "fewer probe key rows than the block's {} windows",
            windows.len()
        );
    }

    fn count_arm<const D: usize>(&self, keys: &[&[f64]], windows: &[Range<usize>]) -> u64 {
        let block = Block::<D>::new(self, keys, windows);
        match self.kernel {
            JoinKernel::Portable => portable::block_count(&block),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2` is only constructed after `is_x86_feature_detected!("avx2")`.
            JoinKernel::Avx2 => unsafe { avx2::block_count(&block) },
        }
    }

    fn collect_arm<const D: usize>(
        &self,
        keys: &[&[f64]],
        windows: &[Range<usize>],
        out: &mut Vec<u32>,
        counts: &mut Vec<u32>,
    ) -> u64 {
        let block = Block::<D>::new(self, keys, windows);
        match self.kernel {
            JoinKernel::Portable => portable::block_collect(&block, out, counts),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `count_arm`.
            JoinKernel::Avx2 => unsafe { avx2::block_collect(&block, out, counts) },
        }
    }
}

/// The one per-window check: the window is a range of rows within the columns.
#[inline(always)]
fn check_window(window: &Range<usize>, rows: usize) {
    assert!(
        window.start <= window.end,
        "window {window:?} ends before it starts"
    );
    assert!(
        window.end <= rows,
        "window {window:?} runs past a candidate column"
    );
}

/// The widest dimension-specialized arm. Wider calls run it too: it hoists their
/// first `WIDEST` dimensions and tests the rest per candidate at run time.
const WIDEST: usize = 4;

/// One block call of the `D`-dimension arm, with what its loop over windows reads per
/// dimension hoisted out of it: `−ε_low`, `ε_high`, the columns and the key columns as
/// fixed-size arrays. The kernels have one arm per `D = 1..=WIDEST`.
struct Block<'a, const D: usize> {
    neg_lo: [f64; D],
    hi: [f64; D],
    cols: [&'a [f64]; D],
    keys: [&'a [f64]; D],
    windows: &'a [Range<usize>],
    rows: usize,
    /// The dimensions past the first `D`: only a call wider than [`WIDEST`] has any.
    rest: Rest<'a>,
}

/// The tested dimensions a [`Block`] does not hoist: keys, columns, `ε_low`, `ε_high`.
#[derive(Clone, Copy)]
struct Rest<'a> {
    keys: &'a [&'a [f64]],
    cols: &'a [Vec<f64>],
    eps_low: &'a [f64],
    eps_high: &'a [f64],
}

impl<'a, const D: usize> Block<'a, D> {
    #[inline(always)]
    fn new(kernel: &WindowKernel<'a>, keys: &'a [&'a [f64]], windows: &'a [Range<usize>]) -> Self {
        debug_assert!(D == kernel.cols.len() || (D == WIDEST && D < kernel.cols.len()));
        Block {
            neg_lo: std::array::from_fn(|d| -kernel.eps_low[d]),
            hi: std::array::from_fn(|d| kernel.eps_high[d]),
            cols: std::array::from_fn(|d| kernel.cols[d].as_slice()),
            keys: std::array::from_fn(|d| keys[d]),
            windows,
            rows: kernel.rows,
            rest: Rest {
                keys: &keys[D..],
                cols: &kernel.cols[D..],
                eps_low: &kernel.eps_low[D..],
                eps_high: &kernel.eps_high[D..],
            },
        }
    }

    /// Windows in the block.
    #[inline(always)]
    fn len(&self) -> usize {
        self.windows.len()
    }

    /// Probe `i`'s window with its key hoisted and the columns cut to it, or `None`
    /// when the window is empty.
    ///
    /// # Panics
    /// Unless the window lies within the columns (`check_window`).
    #[inline(always)]
    fn window(&self, i: usize) -> Option<Hoisted<'_, D>> {
        let window = self.windows[i].clone();
        check_window(&window, self.rows);
        if window.is_empty() {
            return None;
        }
        Some(Hoisted {
            key: std::array::from_fn(|d| self.keys[d][i]),
            neg_lo: self.neg_lo,
            hi: self.hi,
            cols: std::array::from_fn(|d| &self.cols[d][window.clone()]),
            row: i,
            window,
            rest: self.rest,
        })
    }
}

/// One probe of a [`Block`] over `D` tested dimensions, with everything the candidate
/// loop reads per dimension hoisted out of it: the key, `−ε_low`, `ε_high`, and the
/// column cut to the window, so a candidate is addressed by its offset in the window
/// and every column is as long as the window.
#[derive(Clone)]
struct Hoisted<'a, const D: usize> {
    key: [f64; D],
    neg_lo: [f64; D],
    hi: [f64; D],
    cols: [&'a [f64]; D],
    /// The probe's row in the block's keys, and its window.
    row: usize,
    window: Range<usize>,
    rest: Rest<'a>,
}

impl<'a, const D: usize> Hoisted<'a, D> {
    /// Candidates in the window.
    #[inline(always)]
    fn len(&self) -> usize {
        self.window.len()
    }

    /// This probe with every column re-cut to [`Hoisted::len`]. Taken at the top of a
    /// kernel, beside its loop over `0..len()`, it shows the compiler that no column
    /// access in the loop is out of bounds, so the loop carries no bounds check.
    #[inline(always)]
    fn cut(&self) -> Self {
        let len = self.len();
        let mut probe = self.clone();
        for col in &mut probe.cols {
            *col = &col[..len];
        }
        probe
    }

    /// Per dimension past the first `D`: the probe key, the whole candidate column,
    /// `ε_low`, `ε_high`.
    #[inline(always)]
    fn rest_dims(&self) -> impl Iterator<Item = (f64, &'a [f64], f64, f64)> + 'a {
        let (rest, row) = (self.rest, self.row);
        let eps = rest.eps_low.iter().zip(rest.eps_high);
        (rest.keys.iter().zip(rest.cols).zip(eps))
            .map(move |((key, col), (&lo, &hi))| (key[row], col.as_slice(), lo, hi))
    }

    /// Whether the candidate at window offset `i` fails the band on some dimension:
    /// both ordered compares of every dimension, `|=`-accumulated without a
    /// data-dependent branch.
    #[inline(always)]
    fn rejects(&self, i: usize) -> bool {
        let mut reject = false;
        for d in 0..D {
            let diff = self.key[d] - self.cols[d][i];
            reject |= (diff < self.neg_lo[d]) | (diff > self.hi[d]);
        }
        if D == WIDEST {
            let at = self.window.start + i;
            for (key, col, lo, hi) in self.rest_dims() {
                let diff = key - col[at];
                reject |= (diff < -lo) | (diff > hi);
            }
        }
        reject
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

    use super::{Block, DupSplit, Hoisted};

    pub(super) fn block_count<const D: usize>(block: &Block<'_, D>) -> u64 {
        (0..block.len())
            .filter_map(|i| block.window(i))
            .map(|probe| window_count(&probe))
            .sum()
    }

    pub(super) fn block_collect<const D: usize>(
        block: &Block<'_, D>,
        out: &mut Vec<u32>,
        counts: &mut Vec<u32>,
    ) -> u64 {
        let before = out.len();
        let mut stretch = [0u32; STRETCH];
        for i in 0..block.len() {
            let n = match block.window(i) {
                Some(probe) => window_collect(&probe, &mut stretch, out),
                None => 0,
            };
            counts.push(n);
        }
        (out.len() - before) as u64
    }

    fn window_count<const D: usize>(probe: &Hoisted<'_, D>) -> u64 {
        let probe = probe.cut();
        (0..probe.len()).map(|i| !probe.rejects(i) as u64).sum()
    }

    /// Candidates the collect tests before it appends what passed.
    const STRETCH: usize = 64;

    /// Branchless append through a stack buffer: every candidate of a stretch writes
    /// its position at the buffer's cursor and advances it by whether it passed, and
    /// the passed prefix is appended to `out`. After `k` candidates of a stretch the
    /// cursor is at most `k`, below [`STRETCH`], so `out` is written once per match
    /// and never zero-filled first.
    fn window_collect<const D: usize>(
        probe: &Hoisted<'_, D>,
        stretch: &mut [u32; STRETCH],
        out: &mut Vec<u32>,
    ) -> u32 {
        let probe = probe.cut();
        let (start, len) = (probe.window.start, probe.len());
        let before = out.len();
        for from in (0..len).step_by(STRETCH) {
            let mut n = 0;
            for i in from..len.min(from + STRETCH) {
                // `n ≤ i − from < STRETCH`, so the `%` never wraps; it shows the
                // compiler that the store is in bounds.
                stretch[n % STRETCH] = (start + i) as u32;
                n += !probe.rejects(i) as usize;
            }
            out.extend_from_slice(&stretch[..n]);
        }
        (out.len() - before) as u32
    }
}

/// AVX2 kernels: gather four column values per iteration, compare all four
/// against the broadcast boundary, and compress-store the surviving positions
/// with a `pshufb` lookup keyed by the 4-bit compare mask.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Block, DupSplit, Hoisted, WIDEST};
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

    /// A [`Block`]'s band widths broadcast to the four lanes, once per block.
    #[derive(Clone, Copy)]
    struct Bounds<const D: usize> {
        neg_lo: [__m256d; D],
        hi: [__m256d; D],
    }

    impl<const D: usize> Bounds<D> {
        #[target_feature(enable = "avx2")]
        fn new(block: &Block<'_, D>) -> Self {
            Bounds {
                neg_lo: block.neg_lo.map(|v| _mm256_set1_pd(v)),
                hi: block.hi.map(|v| _mm256_set1_pd(v)),
            }
        }
    }

    /// A [`Hoisted`] probe with its key broadcast to the four lanes, once per window,
    /// beside its columns cut to the window's length ([`Hoisted::cut`]), so picking a
    /// group of four needs no check in the loop.
    struct Lanes<'a, const D: usize> {
        probe: Hoisted<'a, D>,
        key: [__m256d; D],
        bounds: Bounds<D>,
    }

    impl<'a, const D: usize> Lanes<'a, D> {
        #[target_feature(enable = "avx2")]
        fn new(probe: &Hoisted<'a, D>, bounds: Bounds<D>) -> Self {
            Lanes {
                probe: probe.cut(),
                key: probe.key.map(|k| _mm256_set1_pd(k)),
                bounds,
            }
        }

        /// Reject mask of the four candidates `four` picks from every column (cut
        /// to the window): for each dimension, `d = s − t` fails iff `d < −ε_low`
        /// or `d > ε_high` — two *ordered* compares, both false for a NaN
        /// difference, OR-accumulated across dimensions. The caller inverts
        /// (`^ 0xF`) to get the accept mask — equivalently, the AND-accumulation of
        /// the per-dimension accept masks — so a NaN difference matches, exactly
        /// like the scalar [`BandCondition::matches`](crate::BandCondition::matches).
        /// A call wider than [`WIDEST`] broadcasts its further dimensions here, per
        /// group.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn reject_mask(&self, four: impl Fn(&'a [f64]) -> &'a [f64; 4]) -> usize {
            _mm256_movemask_pd(self.rejects(four)) as usize
        }

        /// [`Lanes::reject_mask`] as a vector: all ones in a rejected lane.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn rejects(&self, four: impl Fn(&'a [f64]) -> &'a [f64; 4]) -> __m256d {
            let mut rej = _mm256_setzero_pd();
            for d in 0..D {
                let dv = _mm256_sub_pd(self.key[d], load4(four(self.probe.cols[d])));
                let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(dv, self.bounds.neg_lo[d]);
                let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(dv, self.bounds.hi[d]);
                rej = _mm256_or_pd(rej, _mm256_or_pd(lt, gt));
            }
            if D == WIDEST {
                let window = &self.probe.window;
                for (key, col, lo, hi) in self.probe.rest_dims() {
                    let col = &col[window.clone()];
                    let dv = _mm256_sub_pd(_mm256_set1_pd(key), load4(four(col)));
                    let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(dv, _mm256_set1_pd(-lo));
                    let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(dv, _mm256_set1_pd(hi));
                    rej = _mm256_or_pd(rej, _mm256_or_pd(lt, gt));
                }
            }
            rej
        }
    }

    /// The candidates at window offsets `4 · group ..`.
    fn group(col: &[f64], group: usize) -> &[f64; 4] {
        &col.as_chunks::<4>().0[group]
    }

    /// The last four candidates of a window of at least four.
    fn last_four(col: &[f64]) -> &[f64; 4] {
        col.last_chunk::<4>().expect("a window of at least four")
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn load4(four: &[f64; 4]) -> __m256d {
        // SAFETY: the pointer addresses four `f64`s, and AVX is enabled.
        unsafe { _mm256_loadu_pd(four.as_ptr()) }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn block_count<const D: usize>(block: &Block<'_, D>) -> u64 {
        let bounds = Bounds::new(block);
        let mut n = 0;
        for i in 0..block.len() {
            if let Some(probe) = block.window(i) {
                n += window_count(&Lanes::new(&probe, bounds));
            }
        }
        n
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn block_collect<const D: usize>(
        block: &Block<'_, D>,
        out: &mut Vec<u32>,
        counts: &mut Vec<u32>,
    ) -> u64 {
        let bounds = Bounds::new(block);
        let before = out.len();
        for i in 0..block.len() {
            let n = match block.window(i) {
                Some(probe) => window_collect(&Lanes::new(&probe, bounds), out),
                None => 0,
            };
            counts.push(n);
        }
        (out.len() - before) as u64
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn window_count<const D: usize>(lanes: &Lanes<'_, D>) -> u64 {
        let len = lanes.probe.len();
        // A rejected lane is all ones, −1 as an integer: subtracting the masks
        // counts rejections per lane without leaving the vector unit.
        let mut rejected = _mm256_setzero_si256();
        for g in 0..len / 4 {
            let mask = _mm256_castpd_si256(lanes.rejects(|col| group(col, g)));
            rejected = _mm256_sub_epi64(rejected, mask);
        }
        let rejected = _mm256_extract_epi64::<0>(rejected)
            + _mm256_extract_epi64::<1>(rejected)
            + _mm256_extract_epi64::<2>(rejected)
            + _mm256_extract_epi64::<3>(rejected);
        let mut n = (len / 4 * 4) as u64 - rejected as u64;
        let rest = len % 4;
        if len < 4 {
            for i in 0..len {
                n += !lanes.probe.rejects(i) as u64;
            }
        } else if rest > 0 {
            // The last four again, counting only the lanes no group covered.
            let accept = (lanes.reject_mask(last_four) ^ 0xF) >> (4 - rest);
            n += accept.count_ones() as u64;
        }
        n
    }

    /// [`window_count`] that appends the matching positions to `out`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn window_collect<const D: usize>(lanes: &Lanes<'_, D>, out: &mut Vec<u32>) -> u32 {
        let probe = &lanes.probe;
        let (start, len) = (probe.window.start, probe.len());
        out.reserve(len + 4);
        let base = out.len();
        let lane = _mm_set_epi32(3, 2, 1, 0);
        let mut idx = _mm_add_epi32(_mm_set1_epi32(start as i32), lane);
        let four = _mm_set1_epi32(4);
        let rest = len % 4;
        // SAFETY: `out` has `len + 4` spare slots from `base`. Before every
        // compress-store the cursor is at most `len` slots past `base` (at most
        // `4 · g` before group `g`), so its 16 bytes end within them; the scalar
        // loop of a window under four writes single slots below `len`. Every slot
        // below the final cursor was written.
        unsafe {
            let first = out.as_mut_ptr().add(base);
            let mut p = first;
            for g in 0..len / 4 {
                p = compress_store(p, idx, lanes.reject_mask(|col| group(col, g)) ^ 0xF);
                idx = _mm_add_epi32(idx, four);
            }
            if len < 4 {
                for i in 0..len {
                    *p = (start + i) as u32;
                    p = p.add(!probe.rejects(i) as usize);
                }
            } else if rest > 0 {
                // The last four again, keeping only the lanes no group covered.
                let idx = _mm_add_epi32(_mm_set1_epi32((start + len - 4) as i32), lane);
                let accept = (lanes.reject_mask(last_four) ^ 0xF) & (0xF << (4 - rest));
                p = compress_store(p, idx, accept);
            }
            let n = p.offset_from(first) as usize;
            out.set_len(base + n);
            n as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BandCondition;

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

    /// `BandCondition::matches` on gathered keys — the join kernels' oracle. With no
    /// band (no dimension to test) every candidate of the window matches.
    fn reference_window(
        sk: &[f64],
        cols: &[Vec<f64>],
        window: Range<usize>,
        band: Option<&BandCondition>,
    ) -> Vec<u32> {
        window
            .filter(|&pos| {
                let tk: Vec<f64> = cols.iter().map(|c| c[pos]).collect();
                band.is_none_or(|band| band.matches(sk, &tk))
            })
            .map(|pos| pos as u32)
            .collect()
    }

    /// Hold one block call of [`WindowKernel::count`] and one of
    /// [`WindowKernel::collect`] to [`reference_window`], probe by probe: the summed
    /// count, the appended positions and the per-window counts, each behind a prefix
    /// that must survive. Probe `i` has the key `probes[i]` and the window `windows[i]`.
    fn assert_block_matches_reference(
        label: &str,
        kernel: JoinKernel,
        cols: &[Vec<f64>],
        band: Option<&BandCondition>,
        probes: &[Vec<f64>],
        windows: &[Range<usize>],
    ) {
        let (lo, hi) = band.map_or((&[][..], &[][..]), |b| (b.eps_low_all(), b.eps_high_all()));
        let block = WindowKernel::new(kernel, cols, lo, hi);
        let key_cols: Vec<Vec<f64>> = (0..cols.len())
            .map(|d| probes.iter().map(|p| p[d]).collect())
            .collect();
        let keys: Vec<&[f64]> = key_cols.iter().map(Vec::as_slice).collect();
        let expected: Vec<Vec<u32>> = (probes.iter().zip(windows))
            .map(|(sk, w)| reference_window(sk, cols, w.clone(), band))
            .collect();
        let total = expected.iter().map(Vec::len).sum::<usize>() as u64;
        let label = format!("kernel {} {label}", kernel.name());
        assert_eq!(block.count(&keys, windows), total, "{label}: count");
        let (mut got, mut counts) = (vec![7], vec![9]);
        let appended = block.collect(&keys, windows, &mut got, &mut counts);
        assert_eq!(appended, total, "{label}: appended");
        assert_eq!((got[0], counts[0]), (7, 9), "{label}: clobbered a prefix");
        assert_eq!(got[1..], expected.concat(), "{label}: positions");
        let expected_counts: Vec<u32> = expected.iter().map(|e| e.len() as u32).collect();
        assert_eq!(counts[1..], expected_counts, "{label}: per-window counts");
    }

    /// `dims` columns of `n` rows, each a shifted cut of one [`test_column`].
    fn test_columns(dims: usize, n: usize) -> Vec<Vec<f64>> {
        let long = test_column(n + dims);
        (0..dims).map(|d| long[d..d + n].to_vec()).collect()
    }

    /// Dimensions 1 to 8 reach every dimension-specialized arm (1 to 4) and the
    /// wider fallback; window lengths 0 to 67 reach every tail length of each. Each
    /// block holds every window length under every probe key.
    #[test]
    fn join_kernels_match_band_condition_on_all_window_lengths() {
        let n = 200;
        // Bands and probe keys repeat these per-dimension patterns. The keys cover
        // finite values, ties, ±inf, and NaN (a NaN difference *matches* — see the
        // module docs).
        let (lo, hi) = ([0.4, 0.9, 0.0], [0.7, 0.0, 1.3]);
        let patterns: [[f64; 3]; 5] = [
            [0.5, 0.5, 0.5],
            [-0.25, 1.0, 0.0],
            [f64::NAN, 0.5, 0.5],
            [f64::INFINITY, f64::NEG_INFINITY, 0.0],
            [1.0, f64::NAN, f64::NAN],
        ];
        for dims in 1..=8 {
            let cols = test_columns(dims, n);
            let cycle = |pattern: &[f64; 3]| (0..dims).map(|d| pattern[d % 3]).collect::<Vec<_>>();
            let band = BandCondition::try_asymmetric(&cycle(&lo), &cycle(&hi)).unwrap();
            let (mut probes, mut windows) = (Vec::new(), Vec::new());
            for len in 0..=67usize {
                let start = (len * 3) % (n - 67);
                for pattern in &patterns {
                    probes.push(cycle(pattern));
                    windows.push(start..start + len);
                }
            }
            for kernel in JoinKernel::all_supported() {
                let label = format!("dims {dims}");
                assert_block_matches_reference(
                    &label,
                    kernel,
                    &cols,
                    Some(&band),
                    &probes,
                    &windows,
                );
            }
        }
    }

    #[test]
    fn join_kernels_match_on_single_dimension_windows() {
        let cols = vec![test_column(150)];
        let band = BandCondition::symmetric(&[0.5]);
        let probes = [0.0, 0.5, f64::NAN, f64::INFINITY].map(|k| vec![k]);
        let windows = vec![0..150; probes.len()];
        for kernel in JoinKernel::all_supported() {
            assert_block_matches_reference("1-d", kernel, &cols, Some(&band), &probes, &windows);
        }
    }

    /// A kernel tests exactly the dimensions it is handed — the local join's `1..` —
    /// and, handed none, accepts the whole window.
    #[test]
    fn the_kernel_tests_only_the_dimensions_given() {
        let (dims, n) = (4, 120);
        let cols = test_columns(dims, n);
        let (lo, hi) = ([0.4, 0.9, 0.0, 0.3], [0.7, 0.0, 1.3, 0.3]);
        let sk = [0.5, -0.25, f64::NAN, 0.1];
        let windows = [0..0, 3..4, 5..72, 0..n];
        for kernel in JoinKernel::all_supported() {
            for from in 0..=dims {
                let band = (from < dims)
                    .then(|| BandCondition::try_asymmetric(&lo[from..], &hi[from..]).unwrap());
                let probes = vec![sk[from..].to_vec(); windows.len()];
                let label = format!("dims {from}..");
                let cols = &cols[from..];
                assert_block_matches_reference(
                    &label,
                    kernel,
                    cols,
                    band.as_ref(),
                    &probes,
                    &windows,
                );
            }
        }
    }

    /// Blocks of 0, 1, 1,023, 1,024 and 1,025 windows over 0 to 8 tested dimensions:
    /// every arm, and no column at all. A quarter of the windows are empty (at the
    /// first row, the last row, or between), a quarter end at the columns' last row,
    /// and the rest are short or long windows anywhere.
    #[test]
    fn block_entry_matches_reference_on_every_block_size() {
        let n = 150;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for dims in 0..=8 {
            let cols = test_columns(dims, n);
            let eps: Vec<f64> = (0..dims).map(|d| [0.3, 0.0, 1.1][d % 3]).collect();
            let band = (dims > 0).then(|| BandCondition::symmetric(&eps));
            for blocks in [0, 1, 1_023, 1_024, 1_025] {
                let windows: Vec<Range<usize>> = (0..blocks)
                    .map(|i| {
                        let start = next(n);
                        match i % 4 {
                            0 => [0, start, n][next(3)]..[0, start, n][next(3)],
                            1 => start..n,
                            2 => start..n.min(start + next(9)),
                            _ => start..n.min(start + next(80)),
                        }
                    })
                    .map(|w| w.start..w.end.max(w.start))
                    .collect();
                let probes: Vec<Vec<f64>> = (0..blocks)
                    .map(|_| {
                        (0..dims)
                            .map(|_| next(2_000) as f64 / 1_000.0 - 1.0)
                            .collect()
                    })
                    .collect();
                let label = format!("dims {dims} block {blocks}");
                for kernel in JoinKernel::all_supported() {
                    assert_block_matches_reference(
                        &label,
                        kernel,
                        &cols,
                        band.as_ref(),
                        &probes,
                        &windows,
                    );
                }
            }
        }
    }

    // The vector kernels load unchecked, so a malformed call from safe code must
    // panic in the profile that ships: CI runs these with `--release` too.

    /// A two-dimension kernel over columns of 8 and 3 rows.
    fn short_column_kernel(cols: &[Vec<f64>]) -> WindowKernel<'_> {
        WindowKernel::new(JoinKernel::detect(), cols, &[1.0, 1.0], &[1.0, 1.0])
    }

    #[test]
    #[should_panic(expected = "runs past a candidate column")]
    fn collect_panics_on_a_window_past_a_short_column() {
        let cols = vec![vec![0.0; 8], vec![0.0; 3]];
        let key: &[f64] = &[0.0, 0.0];
        let windows = [0..3, 0..8];
        short_column_kernel(&cols).collect(&[key, key], &windows, &mut Vec::new(), &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "runs past a candidate column")]
    fn count_panics_on_a_window_past_a_short_column() {
        let cols = vec![vec![0.0; 8], vec![0.0; 3]];
        let key: &[f64] = &[0.0, 0.0];
        short_column_kernel(&cols).count(&[key, key], &[0..3, 4..8]);
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn count_panics_on_a_window_that_ends_before_it_starts() {
        let cols = vec![vec![0.0; 8], vec![0.0; 8]];
        let key: &[f64] = &[0.0];
        let backwards = Range { start: 5, end: 4 };
        short_column_kernel(&cols).count(&[key, key], &[backwards]);
    }

    #[test]
    #[should_panic(expected = "fewer probe key rows")]
    fn collect_panics_on_fewer_key_rows_than_windows() {
        let cols = vec![vec![0.0; 8], vec![0.0; 8]];
        let (long, short): (&[f64], &[f64]) = (&[0.0, 0.0], &[0.0]);
        let (mut out, mut counts) = (Vec::new(), Vec::new());
        short_column_kernel(&cols).collect(&[long, short], &[0..1, 1..2], &mut out, &mut counts);
    }

    #[test]
    #[should_panic(expected = "probe keys vs candidate columns")]
    fn count_panics_on_key_columns_that_miss_a_dimension() {
        let cols = vec![vec![0.0; 8], vec![0.0; 8]];
        let key: &[f64] = &[0.0, 0.0];
        short_column_kernel(&cols).count(&[key], &[0..4, 4..8]);
    }

    #[test]
    #[should_panic(expected = "candidate columns vs ε_high")]
    fn kernel_panics_on_a_short_epsilon_slice() {
        let cols = vec![vec![0.0; 8], vec![0.0; 8]];
        let eps = [1.0, 1.0];
        WindowKernel::new(JoinKernel::detect(), &cols, &eps, &eps[..1]);
    }

    #[test]
    #[should_panic(expected = "candidate columns vs ε_low")]
    fn kernel_panics_on_more_columns_than_epsilons() {
        let cols = vec![vec![0.0; 8]; 3];
        WindowKernel::new(JoinKernel::detect(), &cols, &[1.0, 1.0], &[1.0, 1.0]);
    }
}
