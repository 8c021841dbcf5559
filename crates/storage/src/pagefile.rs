//! The Data Page File: on-disk home of *cold* pages (§5.2).
//!
//! A flat file of `PAGE_SIZE` slots addressed by [`PageId`]. Eviction writes
//! a page image into a slot; re-swizzling reads it back. Slots are recycled
//! through a free list when pages are destroyed (e.g. after freezing).

use phoebe_common::config::PAGE_SIZE;
use phoebe_common::error::Result;
use phoebe_common::fault::{FaultFile, FaultFs, OsFs};
use phoebe_common::ids::PageId;
use phoebe_common::sync::{Rank, RankedMutex};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Slot-addressed page storage.
pub struct PageFile {
    file: Arc<dyn FaultFile>,
    next: AtomicU64,
    free: RankedMutex<Vec<PageId>>,
}

impl PageFile {
    /// Create (or truncate) the page file at `path` on the real filesystem.
    pub fn create(path: &Path) -> Result<Self> {
        Self::create_with(&OsFs, path)
    }

    /// [`PageFile::create`] over an injected filesystem — the seam the
    /// crash-torture harness uses to route cold-page I/O through a
    /// [`phoebe_common::fault::SimFs`] torture disk.
    pub fn create_with(fs: &dyn FaultFs, path: &Path) -> Result<Self> {
        let file = fs.create(path)?;
        Ok(PageFile {
            file,
            next: AtomicU64::new(0),
            free: RankedMutex::new(Rank::PageFile, "pagefile.free", Vec::new()),
        })
    }

    /// Reserve a slot for a page being evicted for the first time.
    pub fn alloc(&self) -> PageId {
        if let Some(id) = self.free.lock().pop() {
            return id;
        }
        PageId(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// Return a slot to the free list (page destroyed).
    pub fn release(&self, id: PageId) {
        self.free.lock().push(id);
    }

    /// Write a page image into its slot.
    pub fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        self.file.write_all_at(id.raw() * PAGE_SIZE as u64, buf)?;
        Ok(())
    }

    /// Read a page image from its slot.
    pub fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        self.file.read_exact_at(id.raw() * PAGE_SIZE as u64, buf)?;
        Ok(())
    }

    /// Durability barrier for every previously written page image.
    pub fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Highest slot ever allocated (file length in pages).
    pub fn high_water(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> std::path::PathBuf {
        phoebe_common::KernelConfig::for_tests().data_dir.join("pages.db")
    }

    #[test]
    fn write_then_read_roundtrips() {
        let pf = PageFile::create(&tmp()).unwrap();
        let id = pf.alloc();
        let img = vec![7u8; PAGE_SIZE];
        pf.write_page(id, &img).unwrap();
        let mut back = vec![0u8; PAGE_SIZE];
        pf.read_page(id, &mut back).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn alloc_is_dense_and_recycles() {
        let pf = PageFile::create(&tmp()).unwrap();
        let a = pf.alloc();
        let b = pf.alloc();
        assert_ne!(a, b);
        pf.release(a);
        assert_eq!(pf.alloc(), a, "released slots are reused first");
        assert_eq!(pf.high_water(), 2);
    }

    #[test]
    fn pages_are_independent_slots() {
        let pf = PageFile::create(&tmp()).unwrap();
        let a = pf.alloc();
        let b = pf.alloc();
        pf.write_page(a, &vec![1u8; PAGE_SIZE]).unwrap();
        pf.write_page(b, &vec![2u8; PAGE_SIZE]).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        pf.read_page(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 1));
        pf.read_page(b, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 2));
    }
}
