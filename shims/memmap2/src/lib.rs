//! Offline stand-in for the `memmap2` crate (the subset this workspace uses).
//!
//! The build environment has no crate-registry access (see `shims/README.md`), so
//! this shim provides the `MmapOptions` / `MmapMut` surface of `memmap2` on top of
//! the platform `mmap(2)` family, declared directly via `extern "C"` — the Rust
//! standard library already links libc on every Unix target, so no external crate
//! is needed. Swapping in the real `memmap2` later is a `Cargo.toml`-only change.
//!
//! Supported subset:
//!
//! * [`MmapOptions::new`] / [`MmapOptions::len`] — builder;
//! * [`MmapOptions::map_mut`] — writable shared file mapping (the spill-file
//!   backing of `recpart::storage`);
//! * [`MmapOptions::map_anon`] — writable anonymous mapping;
//! * [`MmapMut`] — derefs to `[u8]` / `[u8]` mut, [`MmapMut::flush`] (msync),
//!   [`MmapMut::advise`] (madvise — the sequential access-pattern hint).
//!
//! On non-Unix targets the shim degrades to a heap buffer that reads the file on
//! map and writes it back on flush — semantically a private copy, which is enough
//! for the single-process spill usage in this workspace and keeps the build green
//! everywhere.

use std::fs::File;
use std::io;

/// Builder for memory maps, mirroring `memmap2::MmapOptions`.
#[derive(Debug, Clone, Default)]
pub struct MmapOptions {
    len: Option<usize>,
}

impl MmapOptions {
    /// A builder with no length override (file maps use the file length).
    pub fn new() -> MmapOptions {
        MmapOptions::default()
    }

    /// Map exactly `len` bytes (required for anonymous maps).
    pub fn len(mut self, len: usize) -> MmapOptions {
        self.len = Some(len);
        self
    }

    /// Map `file` writable and shared.
    ///
    /// # Safety
    ///
    /// As in the real crate: the caller must ensure the file is not truncated or
    /// concurrently modified in ways that would invalidate the mapping while the
    /// map is alive (a shrunk file turns reads of the tail into SIGBUS).
    pub unsafe fn map_mut(&self, file: &File) -> io::Result<MmapMut> {
        let len = match self.len {
            Some(len) => len,
            None => file.metadata()?.len() as usize,
        };
        MmapMut::map_file(file, len)
    }

    /// Create a writable anonymous mapping of the configured length.
    pub fn map_anon(&self) -> io::Result<MmapMut> {
        let len = self.len.ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "anonymous map needs a length")
        })?;
        MmapMut::map_anonymous(len)
    }
}

/// A writable memory map, mirroring `memmap2::MmapMut`.
pub struct MmapMut {
    inner: imp::Map,
}

// SAFETY: the mapping is an owned region of process memory; &MmapMut only allows
// reads and &mut MmapMut has exclusive access, exactly like a Box<[u8]>.
unsafe impl Send for MmapMut {}
unsafe impl Sync for MmapMut {}

impl MmapMut {
    /// Map `len` bytes of `file`, writable and shared.
    ///
    /// # Safety
    /// See [`MmapOptions::map_mut`].
    pub unsafe fn map_mut(file: &File) -> io::Result<MmapMut> {
        MmapOptions::new().map_mut(file)
    }

    fn map_file(file: &File, len: usize) -> io::Result<MmapMut> {
        Ok(MmapMut {
            inner: imp::Map::file(file, len)?,
        })
    }

    fn map_anonymous(len: usize) -> io::Result<MmapMut> {
        Ok(MmapMut {
            inner: imp::Map::anonymous(len)?,
        })
    }

    /// Flush dirty pages back to the backing file (no-op for anonymous maps).
    pub fn flush(&self) -> io::Result<()> {
        self.inner.flush()
    }

    /// Advise the kernel about the expected access pattern of the mapping
    /// (`madvise(2)` on Unix; a successful no-op elsewhere — the heap fallback
    /// has no residency to manage). Advice is a hint: callers must treat both
    /// `Ok` and `Err` as best-effort.
    pub fn advise(&self, advice: Advice) -> io::Result<()> {
        self.inner.advise(advice)
    }
}

/// Access-pattern advice for [`MmapMut::advise`], mirroring `memmap2::Advice`
/// (the subset this workspace uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// Expect sequential page references (`MADV_SEQUENTIAL`): the kernel can
    /// read ahead aggressively and drop pages soon after they are touched —
    /// the access pattern of the spill-arena writer.
    Sequential,
}

impl std::ops::Deref for MmapMut {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.inner.as_slice()
    }
}

impl std::ops::DerefMut for MmapMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        self.inner.as_mut_slice()
    }
}

impl std::fmt::Debug for MmapMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapMut")
            .field("len", &self.inner.as_slice().len())
            .finish()
    }
}

impl AsRef<[u8]> for MmapMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl AsMut<[u8]> for MmapMut {
    fn as_mut(&mut self) -> &mut [u8] {
        self
    }
}

#[cfg(unix)]
mod imp {
    use std::fs::File;
    use std::io;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;
    use std::ptr;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn msync(addr: *mut c_void, len: usize, flags: c_int) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_SHARED: c_int = 0x01;
    const MAP_PRIVATE: c_int = 0x02;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const MAP_ANONYMOUS: c_int = 0x20;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const MAP_ANONYMOUS: c_int = 0x1000; // BSD / macOS MAP_ANON
    const MS_SYNC: c_int = 0x4;
    const MADV_SEQUENTIAL: c_int = 2;

    /// An owned `mmap(2)` region. `len == 0` maps nothing (dangling, never freed).
    pub(super) struct Map {
        ptr: *mut u8,
        len: usize,
        file_backed: bool,
    }

    impl Map {
        pub(super) fn file(file: &File, len: usize) -> io::Result<Map> {
            if len == 0 {
                return Ok(Map::empty(true));
            }
            // SAFETY: a fresh shared mapping of a file descriptor the caller
            // holds open; the pointer is checked against MAP_FAILED below.
            let ptr = unsafe {
                mmap(
                    ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            Map::from_raw(ptr, len, true)
        }

        pub(super) fn anonymous(len: usize) -> io::Result<Map> {
            if len == 0 {
                return Ok(Map::empty(false));
            }
            // SAFETY: anonymous private mapping, no fd involved.
            let ptr = unsafe {
                mmap(
                    ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            Map::from_raw(ptr, len, false)
        }

        fn empty(file_backed: bool) -> Map {
            Map {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
                file_backed,
            }
        }

        fn from_raw(ptr: *mut c_void, len: usize, file_backed: bool) -> io::Result<Map> {
            if ptr == usize::MAX as *mut c_void || ptr.is_null() {
                return Err(io::Error::last_os_error());
            }
            Ok(Map {
                ptr: ptr as *mut u8,
                len,
                file_backed,
            })
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live mapping (or a dangling ptr with len 0).
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }

        pub(super) fn as_mut_slice(&mut self) -> &mut [u8] {
            // SAFETY: as above, with exclusive access through &mut self.
            unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
        }

        pub(super) fn flush(&self) -> io::Result<()> {
            if self.len == 0 || !self.file_backed {
                return Ok(());
            }
            // SAFETY: flushing a live file-backed mapping.
            let rc = unsafe { msync(self.ptr as *mut c_void, self.len, MS_SYNC) };
            if rc == 0 {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        }

        pub(super) fn advise(&self, advice: super::Advice) -> io::Result<()> {
            if self.len == 0 {
                return Ok(());
            }
            let flag = match advice {
                super::Advice::Sequential => MADV_SEQUENTIAL,
            };
            // SAFETY: advising a live mapping; MADV_SEQUENTIAL is a read-ahead hint
            // and never invalidates the mapping or its contents.
            let rc = unsafe { madvise(self.ptr as *mut c_void, self.len, flag) };
            if rc == 0 {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: the mapping was created by mmap with this exact length
                // and is unmapped exactly once.
                unsafe {
                    munmap(self.ptr as *mut c_void, self.len);
                }
            }
        }
    }
}

#[cfg(not(unix))]
mod imp {
    use std::fs::File;
    use std::io::{self, Read, Seek, SeekFrom, Write};

    /// Heap-buffer fallback: a private copy of the file contents, written back on
    /// flush. Enough for single-process spill files; documented in the crate docs.
    pub(super) struct Map {
        buf: Vec<u8>,
        file: Option<File>,
    }

    impl Map {
        pub(super) fn file(file: &File, len: usize) -> io::Result<Map> {
            let mut clone = file.try_clone()?;
            clone.seek(SeekFrom::Start(0))?;
            let mut buf = vec![0u8; len];
            let mut read = 0;
            while read < len {
                match clone.read(&mut buf[read..])? {
                    0 => break,
                    n => read += n,
                }
            }
            Ok(Map {
                buf,
                file: Some(clone),
            })
        }

        pub(super) fn anonymous(len: usize) -> io::Result<Map> {
            Ok(Map {
                buf: vec![0u8; len],
                file: None,
            })
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            &self.buf
        }

        pub(super) fn as_mut_slice(&mut self) -> &mut [u8] {
            &mut self.buf
        }

        pub(super) fn flush(&self) -> io::Result<()> {
            if let Some(file) = &self.file {
                let mut f = file.try_clone()?;
                f.seek(SeekFrom::Start(0))?;
                f.write_all(&self.buf)?;
                f.sync_data()?;
            }
            Ok(())
        }

        pub(super) fn advise(&self, _advice: super::Advice) -> io::Result<()> {
            // The heap-buffer fallback has no kernel residency to manage;
            // advice is a successful no-op, matching the documented contract.
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, bytes: &[u8]) -> (std::path::PathBuf, File) {
        let path = std::env::temp_dir().join(format!("memmap2-shim-{}-{name}", std::process::id()));
        let mut f = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        f.write_all(bytes).unwrap();
        (path, f)
    }

    #[test]
    fn file_map_reads_and_writes() {
        let (path, file) = temp_file("rw", &[1, 2, 3, 4]);
        {
            let mut map = unsafe { MmapOptions::new().map_mut(&file) }.unwrap();
            assert_eq!(&map[..], &[1, 2, 3, 4]);
            map[0] = 9;
            map.flush().unwrap();
        }
        let back = std::fs::read(&path).unwrap();
        assert_eq!(back, vec![9, 2, 3, 4]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn len_override_maps_prefix() {
        let (path, file) = temp_file("len", &[7; 64]);
        let map = unsafe { MmapOptions::new().len(16).map_mut(&file) }.unwrap();
        assert_eq!(map.len(), 16);
        assert!(map.iter().all(|&b| b == 7));
        drop(map);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn anonymous_map_is_zeroed_and_writable() {
        let mut map = MmapOptions::new().len(4096).map_anon().unwrap();
        assert!(map.iter().all(|&b| b == 0));
        map[4095] = 42;
        assert_eq!(map[4095], 42);
        map.flush().unwrap();
    }

    #[test]
    fn advise_is_accepted_and_preserves_contents() {
        let (path, file) = temp_file("advise", &[5u8; 8192]);
        let map = unsafe { MmapOptions::new().map_mut(&file) }.unwrap();
        map.advise(Advice::Sequential).unwrap();
        assert!(map.iter().all(|&b| b == 5));
        drop(map);
        let _ = std::fs::remove_file(&path);
        // Advising an empty mapping is a no-op, not an error.
        let anon = MmapOptions::new().len(0).map_anon().unwrap();
        anon.advise(Advice::Sequential).unwrap();
    }

    #[test]
    fn empty_maps_work() {
        let (path, file) = temp_file("empty", &[]);
        let map = unsafe { MmapOptions::new().map_mut(&file) }.unwrap();
        assert!(map.is_empty());
        map.flush().unwrap();
        drop(map);
        let _ = std::fs::remove_file(&path);
        let anon = MmapOptions::new().len(0).map_anon().unwrap();
        assert!(anon.is_empty());
    }
}
