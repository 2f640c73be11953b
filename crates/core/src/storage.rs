//! Heap-or-mmap backing for the shuffle's CSR arenas.
//!
//! The biggest allocation of a band-join run is the CSR arena of the shuffle
//! (`u32` per partition assignment). At the paper's scale experiments (hundreds
//! of millions of tuples) it no longer fits comfortably in RAM, so it can be
//! backed by either a plain heap `Vec<T>` or a **memory-mapped spill file**: one
//! [`Storage`] enum, one `&[T]` view, so every call site reads it the same way
//! and the OS pages cold regions in and out on demand.
//!
//! Spill files live in a [`SpillDir`] and are **unlinked immediately after
//! creation** (Unix semantics: the mapping keeps the inode alive), so a crash
//! leaks no files and a clean exit needs no cleanup pass. A [`MappedVec`] is
//! consequently fixed-length: the file is sized and zeroed up front — the
//! shuffle knows the arena size from its count pass.
//!
//! ## Fallible spill paths and the heap fallback
//!
//! Spill-file creation and mapping can fail for environmental reasons (a full
//! or removed temp dir, `ENOMEM` on `mmap`, exhausted descriptors). The fallible
//! constructors ([`MappedVec::try_zeroed`], [`Storage::try_zeroed_in`]) return
//! `io::Result`; [`Storage::zeroed_in_or_heap`], which the shuffle and the clone
//! of a mapped [`Storage`] use, degrades to **heap storage** instead of
//! aborting: the run loses the bounded-residency property but still completes
//! with identical results. Every fallback is counted in the process-wide
//! [`spill_fallback_count`] so supervisors and gates can observe (and alarm on)
//! silent degradation.
//!
//! Freshly created spill mappings are advised `MADV_SEQUENTIAL` (the arena
//! writer's access pattern) — a best-effort hint, a no-op off Unix.

use std::fmt;
use std::fs::File;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Marker for element types that can live in raw mapped memory: plain-old-data,
/// valid for any bit pattern (in particular all-zeroes, the state of a fresh
/// file mapping, which is also each type's `Default`). Sealed to the primitives
/// the workspace actually spills.
pub trait Pod: Copy + Default + Send + Sync + 'static + private::Sealed {}

mod private {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for i64 {}
}

impl Pod for f64 {}
impl Pod for u32 {}
impl Pod for u64 {}
impl Pod for i64 {}

/// Process-wide sequence numbers of [`SpillDir::in_temp`] directories and of spill
/// files: no two handles, on one path or not, ever pick the same name.
static SPILL_DIRS: AtomicU64 = AtomicU64::new(0);
static SPILL_FILES: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of spill→heap fallbacks (see the module docs): incremented
/// every time an infallible constructor asked for spill storage but had to
/// degrade to the heap because the spill file could not be created or mapped.
static SPILL_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Total number of spill→heap fallbacks this process has performed. Monotone;
/// callers interested in one phase should diff snapshots taken around it.
pub fn spill_fallback_count() -> u64 {
    SPILL_FALLBACKS.load(Ordering::Relaxed)
}

/// Record one spill→heap fallback (also used by callers that degrade a
/// [`StorageMode::Spill`] request to [`StorageMode::Heap`] themselves, e.g.
/// under injected spill faults, so the counter covers every degradation).
pub fn record_spill_fallback() {
    SPILL_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

/// Where a [`Storage`] buffer keeps its elements.
#[derive(Debug, Clone, Default)]
pub enum StorageMode {
    /// Ordinary heap `Vec<T>` (the default; identical to the pre-scale-tier
    /// behavior).
    #[default]
    Heap,
    /// Memory-mapped spill files created in the given directory.
    Spill(SpillDir),
}

impl StorageMode {
    /// Whether this mode spills to mapped files.
    pub fn is_spill(&self) -> bool {
        matches!(self, StorageMode::Spill(_))
    }
}

/// A directory for spill files, shared (cheaply clonable) by every buffer that
/// spills into it. Files are named uniquely per process and unlinked right after
/// creation, so the directory stays empty on disk; dropping the last handle
/// removes the directory itself (best effort) if, and only if, that handle
/// created it.
#[derive(Clone)]
pub struct SpillDir {
    inner: Arc<SpillDirInner>,
}

struct SpillDirInner {
    path: PathBuf,
    /// Whether [`SpillDir::new`] created `path` (and so owns its removal).
    created: bool,
}

impl fmt::Debug for SpillDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpillDir")
            .field("path", &self.inner.path)
            .finish()
    }
}

impl SpillDir {
    /// Create (if needed) and wrap a spill directory. A directory that already
    /// exists is used as is and left in place on drop.
    pub fn new(path: impl Into<PathBuf>) -> io::Result<SpillDir> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        // `create_dir` decides ownership atomically: of two racing callers on one
        // path, exactly one creates it.
        let created = match std::fs::create_dir(&path) {
            Ok(()) => true,
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists && path.is_dir() => false,
            Err(e) => return Err(e),
        };
        Ok(SpillDir {
            inner: Arc::new(SpillDirInner { path, created }),
        })
    }

    /// A fresh spill directory under the system temp dir, unique to this call.
    pub fn in_temp(label: &str) -> io::Result<SpillDir> {
        let seq = SPILL_DIRS.fetch_add(1, Ordering::Relaxed);
        SpillDir::new(std::env::temp_dir().join(format!(
            "band-join-spill-{label}-{}-{seq}",
            std::process::id()
        )))
    }

    /// The directory path.
    pub fn path(&self) -> &std::path::Path {
        &self.inner.path
    }

    /// Create a fresh spill file of `bytes` bytes, unlinked from the file system
    /// immediately (the returned handle keeps the inode alive).
    fn create_file(&self, bytes: u64) -> io::Result<File> {
        let id = SPILL_FILES.fetch_add(1, Ordering::Relaxed);
        let path = self
            .inner
            .path
            .join(format!("spill-{}-{id}.bin", std::process::id()));
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        file.set_len(bytes)?;
        // Unlink now: the mapping (and this handle) keep the storage alive, and
        // nothing is left behind if the process dies.
        let _ = std::fs::remove_file(&path);
        Ok(file)
    }
}

impl Drop for SpillDirInner {
    fn drop(&mut self) {
        // All files were unlinked at creation, so only the (empty) directory
        // remains; removal is best effort.
        if self.created {
            let _ = std::fs::remove_dir(&self.path);
        }
    }
}

/// A fixed-length, zero-initialised vector of `T` backed by a memory-mapped
/// spill file.
pub struct MappedVec<T: Pod> {
    map: memmap2::MmapMut,
    len: usize,
    dir: SpillDir,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Pod> MappedVec<T> {
    /// Create a mapped buffer of `len` zeroed elements (a fresh file mapping is
    /// all-zero by definition).
    ///
    /// # Panics
    /// Panics if the spill file cannot be created or mapped; use
    /// [`MappedVec::try_zeroed`] (or the degrading [`Storage::zeroed_in_or_heap`])
    /// where a full temp dir must not abort.
    pub fn zeroed(len: usize, dir: &SpillDir) -> MappedVec<T> {
        MappedVec::try_zeroed(len, dir)
            .expect("creating and mapping a spill file in the spill directory")
    }

    /// Fallible form of [`MappedVec::zeroed`]: surfaces spill-file creation and
    /// `mmap` failures as `io::Error` instead of panicking.
    pub fn try_zeroed(len: usize, dir: &SpillDir) -> io::Result<MappedVec<T>> {
        let bytes = (len as u64)
            .checked_mul(std::mem::size_of::<T>() as u64)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "spill length overflows u64")
            })?;
        let file = dir.create_file(bytes)?;
        // SAFETY: the file was just created with exactly `bytes` bytes and its
        // handle is dropped right after mapping — nobody can truncate it (it is
        // already unlinked), so the mapping stays valid for its whole life.
        let map = unsafe {
            memmap2::MmapOptions::new()
                .len(bytes as usize)
                .map_mut(&file)
        }?;
        // The arena writer fills the mapping front to back; tell the kernel so
        // it can batch writeback and drop pages behind the cursor (hint only).
        let _ = map.advise(memmap2::Advice::Sequential);
        Ok(MappedVec {
            map,
            len,
            dir: dir.clone(),
            _marker: std::marker::PhantomData,
        })
    }

    #[inline]
    fn base(&self) -> *const T {
        if self.len == 0 {
            // An empty mapping's placeholder pointer is only byte-aligned;
            // slices require `T` alignment even at length zero.
            std::ptr::NonNull::<T>::dangling().as_ptr()
        } else {
            self.map.as_ref().as_ptr() as *const T
        }
    }

    /// View the elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: the mapping holds exactly `len` elements of a Pod type
        // (any bit pattern valid), page-aligned (mmap) so aligned for any T.
        unsafe { std::slice::from_raw_parts(self.base(), self.len) }
    }

    /// Mutable view of the elements.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: as `as_slice`, with exclusivity from &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.base() as *mut T, self.len) }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T: Pod> fmt::Debug for MappedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedVec").field("len", &self.len).finish()
    }
}

/// A growable-or-mapped element buffer: one enum so the shuffle's CSR arenas can
/// be heap- or spill-backed behind the same `&[T]` view.
#[derive(Debug)]
pub enum Storage<T: Pod> {
    /// Heap-backed, freely growable.
    Heap(Vec<T>),
    /// Spill-file-backed, fixed length (see [`MappedVec`]).
    Mapped(MappedVec<T>),
}

impl<T: Pod> Storage<T> {
    /// An empty heap buffer.
    pub fn new() -> Storage<T> {
        Storage::Heap(Vec::new())
    }

    /// A buffer of `len` zeroed elements in the given mode — the arena
    /// allocation of the shuffle.
    ///
    /// # Panics
    /// Panics if a spill request fails; the shuffle hot path uses the
    /// degrading [`Storage::zeroed_in_or_heap`] instead.
    pub fn zeroed_in(len: usize, mode: &StorageMode) -> Storage<T> {
        Storage::try_zeroed_in(len, mode).expect("allocating a zeroed spill arena")
    }

    /// Fallible form of [`Storage::zeroed_in`].
    pub fn try_zeroed_in(len: usize, mode: &StorageMode) -> io::Result<Storage<T>> {
        match mode {
            StorageMode::Heap => Ok(Storage::Heap(vec![T::default(); len])),
            StorageMode::Spill(dir) => MappedVec::try_zeroed(len, dir).map(Storage::Mapped),
        }
    }

    /// [`Storage::try_zeroed_in`] with the documented graceful degradation: a
    /// spill request that fails falls back to a heap buffer of the same
    /// contents (all zeroes), so a full temp dir costs residency bounds, not
    /// the run. The fallback is recorded in [`spill_fallback_count`].
    pub fn zeroed_in_or_heap(len: usize, mode: &StorageMode) -> Storage<T> {
        Storage::try_zeroed_in(len, mode).unwrap_or_else(|_| {
            record_spill_fallback();
            Storage::Heap(vec![T::default(); len])
        })
    }

    /// View the initialized elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            Storage::Heap(v) => v,
            Storage::Mapped(m) => m.as_slice(),
        }
    }

    /// Mutable view of the initialized elements.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            Storage::Heap(v) => v,
            Storage::Mapped(m) => m.as_mut_slice(),
        }
    }

    /// Raw base pointer (for the shuffle's disjoint-slice scatter writes).
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        match self {
            Storage::Heap(v) => v.as_mut_ptr(),
            Storage::Mapped(m) => m.as_mut_slice().as_mut_ptr(),
        }
    }

    /// Append one element.
    ///
    /// # Panics
    /// Panics for mapped storage, which is created at its full, fixed length.
    #[inline]
    pub fn push(&mut self, value: T) {
        match self {
            Storage::Heap(v) => v.push(value),
            Storage::Mapped(m) => panic!(
                "mapped buffer is full ({} elements): spill storage is fixed-capacity",
                m.len()
            ),
        }
    }

    /// Number of initialized elements.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Storage::Heap(v) => v.len(),
            Storage::Mapped(m) => m.len(),
        }
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of the initialized elements — the deterministic memory-accounting
    /// number the scale gates use (heap and mapped alike; for mapped storage the
    /// bytes are file-backed, not resident by necessity).
    pub fn bytes(&self) -> u64 {
        self.len() as u64 * std::mem::size_of::<T>() as u64
    }

    /// Whether the buffer is spill-backed.
    pub fn is_mapped(&self) -> bool {
        matches!(self, Storage::Mapped(_))
    }
}

/// A mapped buffer clones into a new spill file in the same directory, through the
/// same degrading allocation as the shuffle's arenas: if the directory is gone or
/// full, the copy lives on the heap and the fallback is counted.
impl<T: Pod> Clone for Storage<T> {
    fn clone(&self) -> Storage<T> {
        match self {
            Storage::Heap(v) => Storage::Heap(v.clone()),
            Storage::Mapped(m) => {
                let mode = StorageMode::Spill(m.dir.clone());
                let mut copy = Storage::zeroed_in_or_heap(m.len(), &mode);
                copy.as_mut_slice().copy_from_slice(m.as_slice());
                copy
            }
        }
    }
}

impl<T: Pod> Default for Storage<T> {
    fn default() -> Storage<T> {
        Storage::new()
    }
}

impl<T: Pod> From<Vec<T>> for Storage<T> {
    fn from(v: Vec<T>) -> Storage<T> {
        Storage::Heap(v)
    }
}

impl<T: Pod> std::ops::Deref for Storage<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod + PartialEq> PartialEq for Storage<T> {
    fn eq(&self, other: &Storage<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq> Eq for Storage<T> {}

impl<'a, T: Pod> IntoIterator for &'a Storage<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir() -> SpillDir {
        SpillDir::in_temp("storage-tests").expect("spill dir")
    }

    #[test]
    fn heap_and_mapped_behave_identically() {
        let dir = test_dir();
        for mode in [StorageMode::Heap, StorageMode::Spill(dir)] {
            let mut s: Storage<u32> = Storage::zeroed_in(100, &mode);
            for (i, v) in s.as_mut_slice().iter_mut().enumerate() {
                *v = i as u32 * 3;
            }
            assert_eq!(s.len(), 100);
            assert_eq!(s[7], 21);
            assert_eq!(s.as_slice()[99], 297);
            assert_eq!(s.bytes(), 400);
            s.as_mut_slice()[0] = 42;
            assert_eq!(s[0], 42);
            assert_eq!(s.is_mapped(), mode.is_spill());
            let copy = s.clone();
            assert_eq!(copy.is_mapped(), mode.is_spill());
            assert_eq!(copy, s);
        }
    }

    #[test]
    fn zeroed_mapped_storage_is_zero() {
        let dir = test_dir();
        let s: Storage<f64> = Storage::zeroed_in(1000, &StorageMode::Spill(dir));
        assert_eq!(s.len(), 1000);
        assert!(s.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn spill_files_are_unlinked_immediately() {
        let dir = test_dir();
        let _s: Storage<u64> = Storage::zeroed_in(1 << 16, &StorageMode::Spill(dir.clone()));
        let leftovers = std::fs::read_dir(dir.path())
            .map(|d| d.count())
            .unwrap_or(0);
        assert_eq!(leftovers, 0, "spill files must not persist on disk");
    }

    #[test]
    #[should_panic(expected = "fixed-capacity")]
    fn mapped_push_beyond_capacity_panics() {
        let dir = test_dir();
        let mut s: Storage<u32> = Storage::zeroed_in(2, &StorageMode::Spill(dir));
        s.push(3);
    }

    #[test]
    fn empty_mapped_storage_works() {
        let dir = test_dir();
        let s: Storage<u32> = Storage::zeroed_in(0, &StorageMode::Spill(dir));
        assert!(s.is_empty());
        assert_eq!(s.as_slice(), &[] as &[u32]);
    }

    #[test]
    fn from_vec_is_heap() {
        let s: Storage<i64> = vec![1, 2, 3].into();
        assert!(!s.is_mapped());
        assert_eq!(&*s, &[1, 2, 3]);
    }

    /// A spill dir whose directory has been removed out from under it: every
    /// spill-file creation fails with NotFound, the environmental failure the
    /// fallible API and the heap fallback exist for.
    fn broken_dir() -> SpillDir {
        let dir = SpillDir::in_temp("storage-broken").expect("spill dir");
        std::fs::remove_dir_all(dir.path()).expect("removing the spill dir");
        dir
    }

    #[test]
    fn try_apis_surface_spill_failures_as_errors() {
        let mode = StorageMode::Spill(broken_dir());
        assert!(Storage::<u32>::try_zeroed_in(16, &mode).is_err());
        // Heap requests can never fail.
        assert!(Storage::<u32>::try_zeroed_in(16, &StorageMode::Heap).is_ok());
    }

    #[test]
    fn failed_spill_degrades_to_heap_and_counts() {
        let mode = StorageMode::Spill(broken_dir());
        let before = spill_fallback_count();
        let z: Storage<u32> = Storage::zeroed_in_or_heap(64, &mode);
        assert!(!z.is_mapped(), "must degrade to heap");
        assert_eq!(z.len(), 64);
        assert!(z.iter().all(|&v| v == 0));
        assert!(
            spill_fallback_count() > before,
            "every degradation must be counted"
        );
    }

    #[test]
    fn working_spill_does_not_count_fallbacks() {
        let dir = test_dir();
        let s: Storage<u32> = Storage::zeroed_in_or_heap(64, &StorageMode::Spill(dir));
        assert!(s.is_mapped());
        assert!(s.iter().all(|&v| v == 0));
    }

    /// Two `in_temp` handles with one label are two directories: dropping one
    /// leaves the other spilling (they used to share a path, and the first drop
    /// removed it).
    #[test]
    fn in_temp_handles_with_one_label_do_not_share_a_directory() {
        let first = SpillDir::in_temp("sibling").expect("spill dir");
        let second = SpillDir::in_temp("sibling").expect("spill dir");
        drop(first);
        assert!(MappedVec::<u32>::try_zeroed(16, &second).is_ok());
    }

    /// `SpillDir::new` on a directory it did not create leaves it in place on
    /// drop; the handle that created it still removes it.
    #[test]
    fn new_on_an_existing_directory_does_not_remove_it() {
        let owner = test_dir();
        let path = owner.path().to_path_buf();
        drop(SpillDir::new(&path).expect("spill dir"));
        assert!(
            path.is_dir(),
            "a borrowed directory must survive its handle"
        );
        drop(owner);
        assert!(!path.exists(), "the creating handle removes its directory");
    }

    /// Cloning a mapped buffer whose directory vanished degrades to a counted heap
    /// copy instead of panicking.
    #[test]
    fn cloning_mapped_storage_falls_back_to_the_heap() {
        let dir = test_dir();
        let mut s: Storage<u32> = Storage::zeroed_in(64, &StorageMode::Spill(dir.clone()));
        for (i, v) in s.as_mut_slice().iter_mut().enumerate() {
            *v = i as u32 * 7;
        }
        std::fs::remove_dir_all(dir.path()).expect("removing the spill dir");
        let before = spill_fallback_count();
        let copy = s.clone();
        assert_eq!(copy, s);
        assert!(!copy.is_mapped(), "the copy must live on the heap");
        assert!(
            spill_fallback_count() > before,
            "the fallback must be counted"
        );
    }
}
