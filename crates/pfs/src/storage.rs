//! Storage backends: in-memory (default, used with virtual-time
//! measurement) and real-disk (used by the host-timed real-disk rows of
//! `tables ablate`).

use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};

use crate::error::PfsError;

/// Backend selection for a [`crate::Pfs`] instance.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Files live in host memory; timing comes from the cost model only.
    Memory,
    /// Files live on the host file system under the given directory;
    /// wall-clock timing is physically meaningful.
    Disk(PathBuf),
}

/// A single file's bytes.
#[derive(Debug)]
pub enum Storage {
    /// Growable in-memory image.
    Mem(Vec<u8>),
    /// Real file, accessed with positioned I/O.
    Disk {
        /// Open handle (read+write).
        file: File,
        /// Path, for error messages and cleanup.
        path: PathBuf,
        /// Cached logical size (kept in sync with writes).
        size: u64,
    },
}

impl Storage {
    /// Create an empty in-memory file.
    pub fn new_mem() -> Storage {
        Storage::Mem(Vec::new())
    }

    /// Create (truncating) a real file under `dir` with the given
    /// sanitized name.
    pub fn new_disk(dir: &Path, name: &str) -> Result<Storage, PfsError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(Self::flatten(name));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(Storage::Disk {
            file,
            path,
            size: 0,
        })
    }

    /// Attach to an existing real file without truncating it (reopening a
    /// PFS directory from an earlier process).
    pub fn attach_disk(dir: &Path, name: &str) -> Result<Storage, PfsError> {
        let path = dir.join(Self::flatten(name));
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let size = file.metadata()?.len();
        Ok(Storage::Disk { file, path, size })
    }

    /// PFS names may contain arbitrary text; flatten anything path-like so
    /// files cannot escape the backing directory.
    fn flatten(name: &str) -> String {
        name.chars()
            .map(|c| {
                if c.is_alphanumeric() || c == '.' || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect()
    }

    /// Logical size in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Storage::Mem(v) => v.len() as u64,
            Storage::Disk { size, .. } => *size,
        }
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write `data` at `offset`, growing the file as needed (zero-filling
    /// any gap). Offsets whose end position overflows `u64` (or `usize`
    /// for the in-memory backend) are rejected as out of bounds rather
    /// than wrapping.
    pub fn write_at(&mut self, offset: u64, data: &[u8], name: &str) -> Result<(), PfsError> {
        let oob = || PfsError::OutOfBounds {
            file: name.to_string(),
            offset,
            len: data.len(),
            size: self.len(),
        };
        // A hostile offset can make `offset + len` wrap; compute the end
        // position checked in u64 first, then ensure it is addressable.
        let end64 = offset.checked_add(data.len() as u64).ok_or_else(oob)?;
        match self {
            Storage::Mem(v) => {
                let end = usize::try_from(end64).map_err(|_| PfsError::OutOfBounds {
                    file: name.to_string(),
                    offset,
                    len: data.len(),
                    size: v.len() as u64,
                })?;
                if v.len() < end {
                    v.resize(end, 0);
                }
                v[end - data.len()..end].copy_from_slice(data);
                Ok(())
            }
            Storage::Disk { file, size, .. } => {
                use std::os::unix::fs::FileExt;
                file.write_all_at(data, offset)?;
                *size = (*size).max(end64);
                Ok(())
            }
        }
    }

    /// Read exactly `buf.len()` bytes starting at `offset`. Overflowing
    /// end positions are rejected as out of bounds, never wrapped.
    pub fn read_at(&self, offset: u64, buf: &mut [u8], name: &str) -> Result<(), PfsError> {
        let end = offset.checked_add(buf.len() as u64);
        if end.is_none() || end.unwrap() > self.len() {
            return Err(PfsError::OutOfBounds {
                file: name.to_string(),
                offset,
                len: buf.len(),
                size: self.len(),
            });
        }
        match self {
            Storage::Mem(v) => {
                buf.copy_from_slice(&v[offset as usize..offset as usize + buf.len()]);
                Ok(())
            }
            Storage::Disk { file, .. } => {
                use std::os::unix::fs::FileExt;
                file.read_exact_at(buf, offset)?;
                Ok(())
            }
        }
    }

    /// Truncate to zero length.
    pub fn truncate(&mut self) -> Result<(), PfsError> {
        self.truncate_to(0)
    }

    /// Truncate to `len` bytes, dropping everything past that point (the
    /// sealed-prefix recovery primitive). Lengths at or beyond the
    /// current size are a no-op — truncation never grows a file.
    pub fn truncate_to(&mut self, len: u64) -> Result<(), PfsError> {
        if len >= self.len() {
            return Ok(());
        }
        match self {
            Storage::Mem(v) => {
                v.truncate(len as usize);
                Ok(())
            }
            Storage::Disk { file, size, .. } => {
                file.set_len(len)?;
                *size = len;
                Ok(())
            }
        }
    }

    /// Remove backing resources (deletes the real file for Disk storage).
    pub fn destroy(self) -> Result<(), PfsError> {
        match self {
            Storage::Mem(_) => Ok(()),
            Storage::Disk { path, .. } => {
                std::fs::remove_file(path)?;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(mut s: Storage) {
        s.write_at(0, b"hello", "t").unwrap();
        s.write_at(10, b"world", "t").unwrap();
        assert_eq!(s.len(), 15);
        let mut buf = vec![0u8; 5];
        s.read_at(0, &mut buf, "t").unwrap();
        assert_eq!(&buf, b"hello");
        s.read_at(10, &mut buf, "t").unwrap();
        assert_eq!(&buf, b"world");
        // The gap is zero-filled.
        let mut gap = vec![9u8; 5];
        s.read_at(5, &mut gap, "t").unwrap();
        assert_eq!(gap, vec![0u8; 5]);
        // Out-of-bounds read fails.
        let mut big = vec![0u8; 16];
        assert!(matches!(
            s.read_at(0, &mut big, "t"),
            Err(PfsError::OutOfBounds { .. })
        ));
        s.truncate().unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn mem_storage_roundtrips() {
        roundtrip(Storage::new_mem());
    }

    #[test]
    fn truncate_to_keeps_the_prefix_and_never_grows() {
        let mut s = Storage::new_mem();
        s.write_at(0, b"sealed-data-torn-tail", "t").unwrap();
        s.truncate_to(11).unwrap();
        assert_eq!(s.len(), 11);
        let mut buf = vec![0u8; 11];
        s.read_at(0, &mut buf, "t").unwrap();
        assert_eq!(&buf, b"sealed-data");
        // At-or-past-size is a no-op, not growth.
        s.truncate_to(999).unwrap();
        assert_eq!(s.len(), 11);
    }

    #[test]
    fn hostile_offsets_are_rejected_not_wrapped() {
        let mut s = Storage::new_mem();
        s.write_at(0, b"data", "t").unwrap();
        // End position wraps u64 — must be OutOfBounds, not a wrap to a
        // tiny offset that corrupts the front of the file.
        assert!(matches!(
            s.write_at(u64::MAX - 1, b"xx", "t"),
            Err(PfsError::OutOfBounds { .. })
        ));
        let mut buf = [0u8; 2];
        assert!(matches!(
            s.read_at(u64::MAX - 1, &mut buf, "t"),
            Err(PfsError::OutOfBounds { .. })
        ));
        // The original contents are untouched.
        let mut got = [0u8; 4];
        s.read_at(0, &mut got, "t").unwrap();
        assert_eq!(&got, b"data");
    }

    #[test]
    fn disk_storage_roundtrips() {
        let dir = std::env::temp_dir().join(format!("dstreams-pfs-test-{}", std::process::id()));
        let s = Storage::new_disk(&dir, "file.bin").unwrap();
        roundtrip(s);
        let s2 = Storage::new_disk(&dir, "file.bin").unwrap();
        s2.destroy().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_names_are_sanitized() {
        let dir = std::env::temp_dir().join(format!("dstreams-pfs-sani-{}", std::process::id()));
        let s = Storage::new_disk(&dir, "../../etc/passwd").unwrap();
        if let Storage::Disk { ref path, .. } = s {
            assert!(path.starts_with(&dir), "path {path:?} escaped {dir:?}");
        } else {
            panic!("expected disk storage");
        }
        s.destroy().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
