//! Zero-copy file ingest via `mmap(2)`, with a plain `read()` fallback.
//!
//! Shard files are decoded from one contiguous byte slice. On a real
//! multi-process cluster every rank ingests only its own shard, and
//! mapping the file avoids staging the (potentially multi-gigabyte)
//! encoded bytes through a heap buffer first: the decoder's single
//! sequential pass faults pages straight from the page cache.
//!
//! The mapping is strictly read-only and private, and every decoder fed
//! from it copies what it keeps (eager decode), so a mapping never
//! outlives the call that made it. Safety against concurrent
//! modification is handled conservatively: the file is re-`stat`ed
//! *after* mapping and any size change falls back to an ordinary
//! buffered read, and the fallback is also taken for empty files, on
//! any `mmap` failure, on non-Linux targets, and when the
//! `SBP_NO_MMAP=1` environment knob forces it (the escape hatch the
//! byte-identity tests use to prove both paths decode identically).

use std::io;
use std::path::Path;

/// Environment knob: set to `1` to force the `read()` fallback.
pub const NO_MMAP_ENV: &str = "SBP_NO_MMAP";

// Minimal hand-rolled binding, same rationale as the `clock_gettime`
// shim in `sbp-mpi`: the build has no crates.io access, and `mmap`
// lives in the C library std already links against.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::ffi::c_void;

    /// `PROT_READ` from `<sys/mman.h>` (Linux UAPI, stable ABI).
    pub const PROT_READ: i32 = 1;
    /// `MAP_PRIVATE` from `<sys/mman.h>`.
    pub const MAP_PRIVATE: i32 = 2;
    /// `mmap`'s error sentinel.
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> i32;
    }
}

/// A read-only private memory mapping, unmapped on drop.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
struct Mapping {
    addr: *mut std::ffi::c_void,
    len: usize,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
impl Mapping {
    fn as_slice(&self) -> &[u8] {
        debug_assert!(self.addr != sys::MAP_FAILED && !self.addr.is_null() && self.len > 0);
        // SAFETY: `addr` is a live PROT_READ mapping of exactly `len`
        // bytes (established in `map_file`, released only in Drop), and
        // `map_file` — the only constructor — refused the mapping if the
        // file's size changed while it was being set up. The borrow ties
        // the slice to `self`, so it cannot outlive the mapping.
        unsafe { std::slice::from_raw_parts(self.addr as *const u8, self.len) }
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: exact (addr, len) pair returned by a successful mmap,
        // unmapped exactly once (here); `as_slice` borrows end before drop.
        unsafe {
            sys::munmap(self.addr, self.len);
        }
    }
}

// SAFETY: `addr` is uniquely owned by this value (nothing else unmaps
// or aliases it mutably) and `len` is plain data, so moving the value to
// another thread moves the whole mapping.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
unsafe impl Send for Mapping {}
// SAFETY: the mapping is PROT_READ + MAP_PRIVATE and the only access
// through `&Mapping` is `as_slice`'s shared read, so concurrent `&`
// access from several threads is data-race free.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
unsafe impl Sync for Mapping {}

/// The contents of one file, either memory-mapped or heap-buffered.
/// Dereferences to `[u8]` so decoders never know which path fed them.
pub struct FileBytes {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    mapped: Option<Mapping>,
    heap: Vec<u8>,
}

impl std::ops::Deref for FileBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        if let Some(m) = &self.mapped {
            return m.as_slice();
        }
        &self.heap
    }
}

impl FileBytes {
    /// True when these bytes come from a live memory mapping (test
    /// observability for the `SBP_NO_MMAP` knob).
    pub fn is_mapped(&self) -> bool {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        {
            self.mapped.is_some()
        }
        #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
        {
            false
        }
    }

    fn heap(bytes: Vec<u8>) -> FileBytes {
        FileBytes {
            #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
            mapped: None,
            heap: bytes,
        }
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn map_file(path: &Path) -> Option<Mapping> {
    use std::os::unix::io::AsRawFd;
    let file = std::fs::File::open(path).ok()?;
    let len = file.metadata().ok()?.len();
    // Zero-length mmap is EINVAL; tiny files gain nothing anyway.
    if len == 0 || usize::try_from(len).is_err() {
        return None;
    }
    let len = len as usize;
    // SAFETY: `file` is an open read-only fd that outlives the call, the
    // kernel picks the address (null hint), PROT_READ + MAP_PRIVATE at
    // offset 0 over a nonzero `len` that fits `usize`; the result is
    // checked against MAP_FAILED before use.
    let addr = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            len,
            sys::PROT_READ,
            sys::MAP_PRIVATE,
            file.as_raw_fd(),
            0,
        )
    };
    if addr == sys::MAP_FAILED {
        return None;
    }
    let mapping = Mapping { addr, len };
    // A writer may have truncated between stat and mmap; touching pages
    // past the new EOF would fault. Re-stat and refuse the mapping on
    // any size change — the caller falls back to a buffered read, which
    // yields whatever bytes exist and lets the strict decoder reject
    // the truncation with a typed error.
    let now = file.metadata().ok()?.len();
    if now != len as u64 {
        return None;
    }
    Some(mapping)
}

/// Reads `path` fully, preferring a zero-copy memory mapping and
/// falling back to `std::fs::read` (empty file, mmap failure, size
/// change during mapping, non-Linux target, or `SBP_NO_MMAP=1`).
pub fn read_file_bytes(path: &Path) -> io::Result<FileBytes> {
    let forced_off = std::env::var_os(NO_MMAP_ENV).is_some_and(|v| v == "1");
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    if !forced_off {
        if let Some(mapping) = map_file(path) {
            return Ok(FileBytes {
                mapped: Some(mapping),
                heap: Vec::new(),
            });
        }
    }
    let _ = forced_off;
    Ok(FileBytes::heap(std::fs::read(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::Mutex;

    /// `SBP_NO_MMAP` is process-global; tests that set or depend on it
    /// serialize through this lock.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn temp_file(tag: &str, contents: &[u8]) -> PathBuf {
        let path = std::env::temp_dir().join(format!("sbp_mmap_{tag}_{}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn mapped_and_heap_bytes_are_identical() {
        let _guard = ENV_LOCK.lock().unwrap();
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let path = temp_file("identical", &payload);
        let bytes = read_file_bytes(&path).unwrap();
        assert_eq!(&*bytes, &payload[..]);
        let heap = FileBytes::heap(std::fs::read(&path).unwrap());
        assert_eq!(&*bytes, &*heap);
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        assert!(bytes.is_mapped(), "linux read should be a mapping");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_takes_the_fallback() {
        let path = temp_file("empty", b"");
        let bytes = read_file_bytes(&path).unwrap();
        assert!(bytes.is_empty());
        assert!(!bytes.is_mapped(), "empty files cannot be mapped");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let path = std::env::temp_dir().join("sbp_mmap_definitely_missing");
        assert!(read_file_bytes(&path).is_err());
    }

    #[test]
    fn env_knob_forces_the_fallback() {
        let _guard = ENV_LOCK.lock().unwrap();
        let path = temp_file("knob", b"some shard bytes");
        std::env::set_var(NO_MMAP_ENV, "1");
        let forced = read_file_bytes(&path).unwrap();
        std::env::remove_var(NO_MMAP_ENV);
        assert!(!forced.is_mapped(), "knob must force the read() path");
        let normal = read_file_bytes(&path).unwrap();
        assert_eq!(&*forced, &*normal, "both paths must yield identical bytes");
        std::fs::remove_file(&path).unwrap();
    }
}
