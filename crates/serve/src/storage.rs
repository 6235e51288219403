//! Durable byte storage behind the service: a write-ahead log stream
//! plus one snapshot slot.
//!
//! The [`Storage`] trait is the narrow waist between the service logic
//! and the medium. [`DirStorage`] is the real thing — files in a
//! directory, `fsync`ed on [`Storage::wal_sync`], snapshot replaced
//! atomically via temp-file + rename. [`SyncMemStorage`] is the test
//! and chaos harnesses' medium: it shares its bytes between the
//! "crashed" and the recovered server (or a server thread and its
//! promoted successor) through a shared handle, and exposes fault hooks
//! (tail truncation, byte corruption) that deterministic tests drive.
//!
//! Both count `wal_sync` calls so the fsync rate is observable.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// WAL file name inside a [`DirStorage`] directory.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside a [`DirStorage`] directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// Byte-level durability medium: an append-only WAL plus one snapshot
/// slot.
pub trait Storage {
    /// The whole WAL contents.
    fn wal_bytes(&self) -> io::Result<Vec<u8>>;
    /// Append bytes to the WAL (buffered until [`Storage::wal_sync`]).
    fn wal_append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Make appended bytes durable.
    fn wal_sync(&mut self) -> io::Result<()>;
    /// Replace the WAL contents (recovery truncating a torn tail).
    fn wal_replace(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// The current snapshot, if one was ever written.
    fn snapshot_bytes(&self) -> io::Result<Option<Vec<u8>>>;
    /// Atomically replace the snapshot.
    fn snapshot_replace(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Number of [`Storage::wal_sync`] calls that hit the medium.
    fn syncs(&self) -> u64;
}

#[derive(Debug, Default)]
struct MemInner {
    wal: Vec<u8>,
    snapshot: Option<Vec<u8>>,
    syncs: u64,
}

/// In-memory storage whose bytes outlive any one server: clones share
/// state behind `Arc<Mutex<_>>`, so a harness keeps a handle across a
/// kill/restart, or hands one to a server thread and keeps another for
/// the promoted successor.
#[derive(Clone, Debug, Default)]
pub struct SyncMemStorage {
    inner: Arc<Mutex<MemInner>>,
}

impl SyncMemStorage {
    /// Fresh empty storage.
    pub fn new() -> SyncMemStorage {
        SyncMemStorage::default()
    }

    /// Fault hook: chop `n` bytes off the WAL tail (a torn final
    /// write). Chopping more than the WAL holds empties it.
    pub fn truncate_wal_tail(&self, n: usize) {
        let wal = &mut self.inner.lock().unwrap().wal;
        wal.truncate(wal.len().saturating_sub(n));
    }

    /// Fault hook: flip one byte of the WAL (media corruption).
    pub fn corrupt_wal_byte(&self, offset: usize) {
        if let Some(b) = self.inner.lock().unwrap().wal.get_mut(offset) {
            *b ^= 0xFF;
        }
    }

    /// Current WAL length in bytes.
    pub fn wal_len(&self) -> usize {
        self.inner.lock().unwrap().wal.len()
    }
}

impl Storage for SyncMemStorage {
    fn wal_bytes(&self) -> io::Result<Vec<u8>> {
        Ok(self.inner.lock().unwrap().wal.clone())
    }

    fn wal_append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.lock().unwrap().wal.extend_from_slice(bytes);
        Ok(())
    }

    fn wal_sync(&mut self) -> io::Result<()> {
        self.inner.lock().unwrap().syncs += 1;
        Ok(())
    }

    fn wal_replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.lock().unwrap().wal = bytes.to_vec();
        Ok(())
    }

    fn snapshot_bytes(&self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.inner.lock().unwrap().snapshot.clone())
    }

    fn snapshot_replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.lock().unwrap().snapshot = Some(bytes.to_vec());
        Ok(())
    }

    fn syncs(&self) -> u64 {
        self.inner.lock().unwrap().syncs
    }
}

/// File-backed storage: `wal.log` + `snapshot.bin` in one directory.
#[derive(Debug)]
pub struct DirStorage {
    dir: PathBuf,
    wal: File,
    syncs: u64,
}

impl DirStorage {
    /// Open (creating the directory and an empty WAL if needed).
    pub fn open(dir: impl AsRef<Path>) -> io::Result<DirStorage> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(WAL_FILE))?;
        Ok(DirStorage { dir, wal, syncs: 0 })
    }

    /// The directory this storage lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Storage for DirStorage {
    fn wal_bytes(&self) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        File::open(self.dir.join(WAL_FILE))?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn wal_append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.wal.write_all(bytes)
    }

    fn wal_sync(&mut self) -> io::Result<()> {
        self.wal.sync_all()?;
        self.syncs += 1;
        Ok(())
    }

    fn wal_replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        // Write-then-rename so a crash mid-replace keeps the old WAL.
        let tmp = self.dir.join("wal.log.tmp");
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, self.dir.join(WAL_FILE))?;
        self.wal = OpenOptions::new()
            .append(true)
            .open(self.dir.join(WAL_FILE))?;
        Ok(())
    }

    fn snapshot_bytes(&self) -> io::Result<Option<Vec<u8>>> {
        match fs::read(self.dir.join(SNAPSHOT_FILE)) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn snapshot_replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join("snapshot.bin.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        self.syncs += 1;
        Ok(())
    }

    fn syncs(&self) -> u64 {
        self.syncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_shares_state_across_clones() {
        let mut a = SyncMemStorage::new();
        let b = a.clone();
        a.wal_append(b"hello").unwrap();
        a.wal_sync().unwrap();
        assert_eq!(b.wal_bytes().unwrap(), b"hello");
        assert_eq!(b.syncs(), 1);
        b.truncate_wal_tail(2);
        assert_eq!(a.wal_bytes().unwrap(), b"hel");
    }

    #[test]
    fn mem_storage_corruption_hook_flips_bytes() {
        let mut s = SyncMemStorage::new();
        s.wal_append(&[0xAA, 0xBB]).unwrap();
        s.corrupt_wal_byte(1);
        assert_eq!(s.wal_bytes().unwrap(), vec![0xAA, 0x44]);
        s.corrupt_wal_byte(99); // out of range: no-op
        assert_eq!(s.wal_len(), 2);
    }

    #[test]
    fn dir_storage_round_trips() {
        let dir = std::env::temp_dir().join(format!("synchrel-storage-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut s = DirStorage::open(&dir).unwrap();
        assert_eq!(s.wal_bytes().unwrap(), Vec::<u8>::new());
        assert_eq!(s.snapshot_bytes().unwrap(), None);
        s.wal_append(b"abc").unwrap();
        s.wal_sync().unwrap();
        s.wal_append(b"def").unwrap();
        s.snapshot_replace(b"snap").unwrap();
        assert_eq!(s.wal_bytes().unwrap(), b"abcdef");
        assert_eq!(s.snapshot_bytes().unwrap().as_deref(), Some(&b"snap"[..]));
        assert!(s.syncs() >= 2);
        // Reopen: bytes persist; replace truncates.
        drop(s);
        let mut s = DirStorage::open(&dir).unwrap();
        assert_eq!(s.wal_bytes().unwrap(), b"abcdef");
        s.wal_replace(b"ab").unwrap();
        s.wal_append(b"Z").unwrap();
        assert_eq!(s.wal_bytes().unwrap(), b"abZ");
        let _ = fs::remove_dir_all(&dir);
    }
}
