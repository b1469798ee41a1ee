//! Zero-copy array backing: [`Mmap`] (a read-only file mapping) and
//! [`Slab<T>`] (a typed array that is either heap-owned or a view into a
//! shared mapping).
//!
//! `Slab` is what lets [`crate::KnowledgeGraph`] keep its `&[Edge]`
//! neighbor API while the bytes live in a memory-mapped `.mmkg` snapshot:
//! dereferencing a mapped slab is a pointer cast, not a copy.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize, Value};

use super::Pod;

/// A read-only, page-aligned memory mapping of an entire file.
///
/// Implemented with direct `mmap(2)`/`munmap(2)` FFI against the C runtime
/// the binary already links (the workspace vendors no `libc` crate). On
/// non-Unix targets [`Mmap::map_file`] is unavailable and callers fall back
/// to reading the file into memory.
pub struct Mmap {
    ptr: *const u8,
    len: usize,
}

// The mapping is read-only (PROT_READ, MAP_PRIVATE) for its whole lifetime.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

#[cfg(all(unix, target_pointer_width = "64"))]
mod ffi {
    // Minimal mmap bindings; constants are the Linux/x86-64 + aarch64
    // values (PROT_READ=1, MAP_PRIVATE=2), which also hold on macOS.
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        pub fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }
}

impl Mmap {
    /// Map `file` read-only in its entirety.
    #[cfg(all(unix, target_pointer_width = "64"))]
    pub fn map_file(file: &std::fs::File) -> std::io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            // mmap(2) rejects zero-length mappings; model it as empty.
            return Ok(Mmap {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
            });
        }
        let ptr = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                len,
                ffi::PROT_READ,
                ffi::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr: ptr as *const u8,
            len,
        })
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // Safety: mapping is valid for `len` bytes until Drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if self.len > 0 {
            unsafe {
                ffi::munmap(self.ptr as *mut core::ffi::c_void, self.len);
            }
        }
    }
}

impl Deref for Mmap {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Mmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

/// A typed immutable array: either an owned `Vec<T>` or a zero-copy view
/// into a shared [`Mmap`]. Dereferences to `&[T]` either way.
pub enum Slab<T: Pod> {
    Owned(Vec<T>),
    Mapped {
        map: Arc<Mmap>,
        /// Byte offset of the first element inside `map`.
        offset: usize,
        /// Element (not byte) count.
        len: usize,
    },
}

impl<T: Pod> Slab<T> {
    /// View `len` elements of `T` at `offset` bytes into `map`.
    ///
    /// Fails (returns `None`) if the range is out of bounds or `offset`
    /// is not aligned for `T`.
    pub fn from_mmap(map: Arc<Mmap>, offset: usize, len: usize) -> Option<Self> {
        let bytes = len.checked_mul(std::mem::size_of::<T>())?;
        let end = offset.checked_add(bytes)?;
        if end > map.len() {
            return None;
        }
        let ptr = map.as_slice()[offset..].as_ptr();
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return None;
        }
        Some(Slab::Mapped { map, offset, len })
    }

    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            Slab::Owned(v) => v,
            Slab::Mapped { map, offset, len } => {
                // Safety: bounds and alignment were checked in `from_mmap`;
                // `T: Pod` guarantees any bit pattern is a valid value and
                // the mapping outlives `self` via the Arc.
                unsafe {
                    std::slice::from_raw_parts(
                        map.as_slice().as_ptr().add(*offset) as *const T,
                        *len,
                    )
                }
            }
        }
    }

    /// True when backed by a memory mapping (i.e. loaded zero-copy).
    pub fn is_mapped(&self) -> bool {
        matches!(self, Slab::Mapped { .. })
    }
}

impl<T: Pod> Deref for Slab<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> From<Vec<T>> for Slab<T> {
    fn from(v: Vec<T>) -> Self {
        Slab::Owned(v)
    }
}

impl<T: Pod> Clone for Slab<T> {
    fn clone(&self) -> Self {
        match self {
            Slab::Owned(v) => Slab::Owned(v.clone()),
            Slab::Mapped { map, offset, len } => Slab::Mapped {
                map: Arc::clone(map),
                offset: *offset,
                len: *len,
            },
        }
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for Slab<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Pod + PartialEq> PartialEq for Slab<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

// Serialize like a plain sequence (identical wire format to `Vec<T>`);
// deserializing always produces an owned slab.
impl<T: Pod + Serialize> Serialize for Slab<T> {
    fn serialize_value(&self) -> Value {
        self.as_slice().serialize_value()
    }
}

impl<T: Pod + Deserialize> Deserialize for Slab<T> {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        Vec::<T>::deserialize_value(v).map(Slab::Owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_slab_derefs() {
        let s: Slab<u32> = vec![1, 2, 3].into();
        assert_eq!(&*s, &[1, 2, 3]);
        assert!(!s.is_mapped());
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn mmap_roundtrip() {
        let path = std::env::temp_dir().join(format!(
            "mmkgr_slab_{}_mmap_roundtrip.bin",
            std::process::id()
        ));
        let payload: Vec<u32> = (0..1024).collect();
        let bytes: Vec<u8> = payload.iter().flat_map(|v| v.to_ne_bytes()).collect();
        std::fs::write(&path, &bytes).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let map = Arc::new(Mmap::map_file(&file).unwrap());
        assert_eq!(map.len(), 4096);
        let slab: Slab<u32> = Slab::from_mmap(Arc::clone(&map), 0, 1024).unwrap();
        assert!(slab.is_mapped());
        assert_eq!(&*slab, &payload[..]);
        // out-of-bounds and misaligned views are rejected
        assert!(Slab::<u32>::from_mmap(Arc::clone(&map), 0, 1025).is_none());
        assert!(Slab::<u32>::from_mmap(Arc::clone(&map), 2, 2).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn empty_file_maps_empty() {
        let path = std::env::temp_dir().join(format!(
            "mmkgr_slab_{}_empty_file_maps_empty.bin",
            std::process::id()
        ));
        std::fs::write(&path, b"").unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let map = Mmap::map_file(&file).unwrap();
        assert!(map.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn slab_serde_matches_vec() {
        let s: Slab<u32> = vec![5, 6, 7].into();
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "[5,6,7]");
        let back: Slab<u32> = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
