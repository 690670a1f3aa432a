//! Raw read-only memory map (little-endian unix only): the
//! `extern "C"` mmap/munmap/madvise bindings behind
//! [`crate::columnar::MmapUnfolding`]'s zero-copy backing and the
//! serving layer's memory-mapped factor store.

use std::os::unix::io::AsRawFd;

const PROT_READ: i32 = 0x1;
const MAP_PRIVATE: i32 = 0x02;
const MADV_DONTNEED: i32 = 4;

// Declared against the libc every Rust std binary already links —
// avoids a vendored mmap crate the offline build cannot add.
extern "C" {
    fn mmap(
        addr: *mut core::ffi::c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut core::ffi::c_void;
    fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    fn madvise(addr: *mut core::ffi::c_void, len: usize, advice: i32) -> i32;
}

/// A read-only, private, file-backed mapping of the first `len` bytes.
pub struct Map {
    ptr: *mut core::ffi::c_void,
    len: usize,
}

// SAFETY: `ptr` addresses a PROT_READ, MAP_PRIVATE mapping that nothing
// writes through and that only `Drop` unmaps, and `len` is a plain
// integer; sending the owner or sharing `&Map` across threads is sound.
unsafe impl Send for Map {}
unsafe impl Sync for Map {}

impl Map {
    /// Maps the first `len` bytes of `file` read-only.
    ///
    /// # Safety
    ///
    /// While the map is alive, `file` must stay at least `len` bytes long
    /// and no one may modify those bytes: [`Map::words`] hands out shared
    /// slices of them. Both mapped formats meet this by construction, as
    /// their files are written once and never modified in place.
    pub unsafe fn new(file: &std::fs::File, len: usize) -> std::io::Result<Map> {
        debug_assert!(len > 0);
        // SAFETY: a fresh read-only private mapping chosen by the kernel
        // (null hint) aliases no Rust object; failure is checked below.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Map { ptr, len })
    }

    /// The mapped bytes viewed as little-endian words. Both mapped formats
    /// are whole words (every `DBTFUNFD` section and every `DBTFFSET`
    /// field is word-aligned), so `len` is a multiple of 8.
    pub fn words(&self) -> &[u64] {
        debug_assert_eq!(self.len % 8, 0);
        // SAFETY: the mapping is page-aligned (so u64-aligned), spans
        // `len` readable bytes that `new`'s contract keeps unchanged, and
        // outlives the returned borrow.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u64, self.len / 8) }
    }

    /// Tells the kernel the pages are no longer needed; they are
    /// re-faulted from the file on next access. Best-effort.
    pub fn evict(&self) {
        unsafe {
            madvise(self.ptr, self.len, MADV_DONTNEED);
        }
    }
}

impl Drop for Map {
    fn drop(&mut self) {
        unsafe {
            munmap(self.ptr, self.len);
        }
    }
}
