//! Read-only file words: a file of little-endian `u64` words viewed as one
//! `&[u64]`. Both word-aligned formats — the `DBTFUNFD` columnar
//! unfolding ([`crate::columnar::MmapUnfolding`]) and the `DBTFFSET`
//! factor set that checkpoints and the serving store use — read their
//! files through [`FileWords`]. On little-endian unix the words are a
//! read-only memory map (the `extern "C"` mmap/munmap/madvise bindings
//! live here and nowhere else); elsewhere, or on request, they are read
//! onto the heap, which keeps every observable behaviour but the memory
//! bound.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};

/// A file's leading bytes as little-endian words, mapped or on the heap.
pub struct FileWords {
    backing: Backing,
}

enum Backing {
    #[cfg(all(unix, target_endian = "little"))]
    Map(sys::Map),
    Heap(Vec<u64>),
}

impl FileWords {
    /// Maps the first `len` bytes of `file` read-only (a multiple of 8,
    /// above 0, at most the file's length); targets without the map read
    /// them onto the heap.
    ///
    /// The file must not be modified in place or shortened while the words
    /// are alive, since the map hands out shared slices of its pages. Both
    /// mapped formats meet this by construction: their files are written
    /// once and never modified in place.
    pub fn map(file: &File, len: usize) -> std::io::Result<FileWords> {
        #[cfg(all(unix, target_endian = "little"))]
        {
            // SAFETY: the caller's contract above keeps the first `len`
            // bytes of `file` unchanged while the map is alive.
            let map = unsafe { sys::Map::new(file, len) }?;
            Ok(FileWords {
                backing: Backing::Map(map),
            })
        }
        #[cfg(not(all(unix, target_endian = "little")))]
        FileWords::read(file, len)
    }

    /// Reads the first `len` bytes of `file` (a multiple of 8) onto the
    /// heap.
    pub fn read(mut file: &File, len: usize) -> std::io::Result<FileWords> {
        file.seek(SeekFrom::Start(0))?;
        let mut bytes = vec![0u8; len];
        file.read_exact(&mut bytes)?;
        Ok(FileWords::from_vec(
            bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect(),
        ))
    }

    /// Words built in memory, as a file of them would read back.
    pub fn from_vec(words: Vec<u64>) -> FileWords {
        FileWords {
            backing: Backing::Heap(words),
        }
    }

    /// The words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Map(map) => map.words(),
            Backing::Heap(words) => words,
        }
    }

    /// Tells the kernel a map's pages are no longer needed; they are
    /// re-faulted from the file on next access. Best-effort, and a no-op
    /// on the heap.
    pub(crate) fn evict(&self) {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Map(map) => map.evict(),
            Backing::Heap(_) => {}
        }
    }
}

#[cfg(all(unix, target_endian = "little"))]
mod sys {
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
        /// While the map is alive, `file` must stay at least `len` bytes
        /// long and no one may modify those bytes: [`Map::words`] hands out
        /// shared slices of them.
        pub unsafe fn new(file: &std::fs::File, len: usize) -> std::io::Result<Map> {
            debug_assert!(len > 0);
            // SAFETY: a fresh read-only private mapping chosen by the
            // kernel (null hint) aliases no Rust object; failure is checked
            // below.
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

        /// The mapped bytes viewed as little-endian words. Both mapped
        /// formats are whole words (every `DBTFUNFD` section and every
        /// `DBTFFSET` field is word-aligned), so `len` is a multiple of 8.
        #[inline]
        pub fn words(&self) -> &[u64] {
            debug_assert_eq!(self.len % 8, 0);
            // SAFETY: the mapping is page-aligned (so u64-aligned), spans
            // `len` readable bytes that `new`'s contract keeps unchanged,
            // and outlives the returned borrow.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u64, self.len / 8) }
        }

        pub fn evict(&self) {
            // SAFETY: `ptr`/`len` span this live mapping, whose private
            // read-only pages re-fault unchanged from the file after the
            // advice drops them.
            unsafe {
                madvise(self.ptr, self.len, MADV_DONTNEED);
            }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            // SAFETY: unmaps exactly the mapping `new` made; every slice
            // `words` handed out borrows `self`, so none outlives it.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}
