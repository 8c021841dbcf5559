//! Deterministic fault-injection file layer (the crash-torture substrate).
//!
//! Every byte PhoebeDB persists — WAL group-commit rounds, page images
//! through the Data Page File, compressed blocks through the Data Block
//! File — goes through the [`FaultFs`] /
//! [`FaultFile`] traits instead of `std::fs` directly. Production uses
//! [`OsFs`], a zero-cost passthrough. Tests and the crash-torture harness
//! use [`SimFs`], which models the volatile/durable split of a real disk:
//!
//! * a `write_at` lands in a **volatile** cache (the kernel page cache /
//!   device buffer of a real machine) and is visible to reads;
//! * `sync_data` is the only durability barrier: it moves the cached
//!   writes onto the backing file and fsyncs it;
//! * `set_len` carries the cached writes over too, then cuts the backing
//!   file: a crash after it keeps the cut;
//! * [`SimFs::crash`] freezes the disk at its last durable state plus a
//!   *seeded-random* subset of the volatile writes — some dropped (write
//!   reordering that only an fsync barrier forbids), some torn to a
//!   prefix (a partial sector at the log tail). After a crash every
//!   operation fails with `EIO`, exactly like a dead device.
//!
//! Because the durable layer is a real file on the real filesystem, a
//! crashed [`SimFs`] leaves behind an ordinary on-disk image: recovery
//! opens it with [`OsFs`] as if the machine had rebooted. All randomness
//! comes from the [`FaultConfig`] seed, so any torture failure replays
//! byte-for-byte from its seed.

use rand::{rngs::StdRng, RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Knobs for [`SimFs`]. All probabilities are expressed as `one_in` odds
/// (0 disables the fault); all draws come from the single seeded RNG so a
/// run is a pure function of `seed` and the I/O call sequence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed for every fault decision.
    pub seed: u64,
    /// Freeze the disk after this many `write_at` calls (the crash point).
    /// `None` leaves crashing to an explicit [`SimFs::crash`] call.
    pub crash_after_writes: Option<u64>,
    /// One in N writes persists only a prefix and reports the short count
    /// (callers with `write_all` semantics must loop).
    pub short_write_one_in: u64,
    /// One in N writes fails outright with `EIO` without landing any bytes.
    pub fail_write_one_in: u64,
}

impl FaultConfig {
    /// A config that injects no faults until [`SimFs::crash`] is called.
    pub fn crash_only(seed: u64) -> Self {
        FaultConfig { seed, crash_after_writes: None, short_write_one_in: 0, fail_write_one_in: 0 }
    }
}

/// One open file of a fault-injectable filesystem.
///
/// `write_at` may be short or fail per the active fault schedule; callers
/// that need all-or-nothing semantics use [`FaultFile::write_all_at`].
pub trait FaultFile: Send + Sync {
    /// Positional write; returns bytes accepted (possibly short).
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<usize>;
    /// Positional read; returns bytes read (short only at end of file).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;
    /// Durability barrier for everything previously written to this file.
    fn sync_data(&self) -> io::Result<()>;
    /// Cut (or extend with zeroes) the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;

    /// Loop `write_at` until every byte is accepted.
    fn write_all_at(&self, mut offset: u64, mut data: &[u8]) -> io::Result<()> {
        while !data.is_empty() {
            let n = self.write_at(offset, data)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "device accepted 0 bytes"));
            }
            offset += n as u64;
            data = &data[n..];
        }
        Ok(())
    }

    /// Loop `read_at` until `buf` is full; error on end of file.
    fn read_exact_at(&self, mut offset: u64, mut buf: &mut [u8]) -> io::Result<()> {
        while !buf.is_empty() {
            let n = self.read_at(offset, buf)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "short positional read"));
            }
            offset += n as u64;
            buf = &mut buf[n..];
        }
        Ok(())
    }
}

/// A fault-injectable filesystem: the seam between the kernel's writers
/// and the OS.
pub trait FaultFs: Send + Sync {
    /// Create (or truncate) a read-write file at `path`.
    fn create(&self, path: &Path) -> io::Result<Arc<dyn FaultFile>>;
}

// ---------------------------------------------------------------------
// OsFs: production passthrough
// ---------------------------------------------------------------------

/// The production filesystem: plain `std::fs` positional I/O.
#[derive(Debug, Default, Clone, Copy)]
pub struct OsFs;

struct OsFile(File);

impl FaultFile for OsFile {
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<usize> {
        self.0.write_at(data, offset)
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read_at(buf, offset)
    }
    fn sync_data(&self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

impl FaultFs for OsFs {
    fn create(&self, path: &Path) -> io::Result<Arc<dyn FaultFile>> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let f = OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(Arc::new(OsFile(f)))
    }
}

// ---------------------------------------------------------------------
// SimFs: the seeded torture disk
// ---------------------------------------------------------------------

fn eio(msg: &str) -> io::Error {
    io::Error::other(format!("simulated disk: {msg}"))
}

/// One buffered-but-volatile write.
struct PendingWrite {
    offset: u64,
    data: Vec<u8>,
}

struct SimFileState {
    /// Writes accepted but not yet carried over a sync barrier. Lost (or
    /// torn) at a crash.
    pending: Vec<PendingWrite>,
}

struct SimFile {
    /// The durable layer: a real file holding exactly the synced bytes.
    durable: File,
    state: Mutex<SimFileState>,
    shared: Arc<SimShared>,
}

struct SimShared {
    cfg: FaultConfig,
    rng: Mutex<StdRng>,
    crashed: AtomicBool,
    writes: AtomicU64,
    syncs: AtomicU64,
    /// The live crash point (`u64::MAX` = disarmed). Seeded from
    /// `cfg.crash_after_writes`; re-armable via
    /// [`SimFs::arm_crash_after_writes`].
    armed: AtomicU64,
    files: Mutex<Vec<Arc<SimFile>>>,
}

impl SimShared {
    /// Draw a 1-in-`odds` event (0 odds never fire).
    fn one_in(&self, odds: u64) -> bool {
        odds != 0 && self.rng.lock().unwrap().random_range(0..odds) == 0
    }
}

/// The simulated disk. See the module docs for semantics.
pub struct SimFs {
    shared: Arc<SimShared>,
}

impl SimFs {
    pub fn new(cfg: FaultConfig) -> Arc<SimFs> {
        let rng = StdRng::seed_from_u64(cfg.seed);
        let armed = cfg.crash_after_writes.unwrap_or(u64::MAX);
        Arc::new(SimFs {
            shared: Arc::new(SimShared {
                cfg,
                rng: Mutex::new(rng),
                crashed: AtomicBool::new(false),
                writes: AtomicU64::new(0),
                syncs: AtomicU64::new(0),
                armed: AtomicU64::new(armed),
                files: Mutex::new(Vec::new()),
            }),
        })
    }

    /// Re-arm (or set for the first time) the crash point: the disk
    /// freezes after `n` *further* write calls. Lets a harness run setup
    /// cleanly and only then start the countdown.
    pub fn arm_crash_after_writes(&self, n: u64) {
        self.shared.writes.store(0, Ordering::SeqCst);
        self.shared.armed.store(n, Ordering::SeqCst);
    }

    /// True once the disk has frozen.
    pub fn crashed(&self) -> bool {
        self.shared.crashed.load(Ordering::SeqCst)
    }

    /// (writes, syncs) accepted so far.
    pub fn io_counts(&self) -> (u64, u64) {
        (self.shared.writes.load(Ordering::SeqCst), self.shared.syncs.load(Ordering::SeqCst))
    }

    /// Freeze the disk: keep the durable layer, carry over a seeded-random
    /// subset of the volatile writes (each possibly torn to a prefix),
    /// drop the rest, and fail every subsequent operation. Idempotent.
    pub fn crash(&self) {
        crash_shared(&self.shared);
    }
}

fn crash_shared(shared: &Arc<SimShared>) {
    if shared.crashed.swap(true, Ordering::SeqCst) {
        return;
    }
    let files = shared.files.lock().unwrap();
    let mut rng = shared.rng.lock().unwrap();
    for file in files.iter() {
        let mut st = file.state.lock().unwrap();
        for w in st.pending.drain(..) {
            // 50%: the volatile write never reached the platter (a later
            // write may still land — reordering an fsync would have
            // forbidden). 25%: torn to a random prefix. 25%: fully landed.
            match rng.random_range(0..4u32) {
                0 | 1 => continue,
                2 => {
                    let keep = rng.random_range(0..w.data.len().max(1));
                    let _ = file.durable.write_all_at(&w.data[..keep], w.offset);
                }
                _ => {
                    let _ = file.durable.write_all_at(&w.data, w.offset);
                }
            }
        }
        let _ = file.durable.sync_data();
    }
}

impl FaultFs for SimFs {
    fn create(&self, path: &Path) -> io::Result<Arc<dyn FaultFile>> {
        if self.crashed() {
            return Err(eio("create after crash"));
        }
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let durable =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        let file = Arc::new(SimFile {
            durable,
            state: Mutex::new(SimFileState { pending: Vec::new() }),
            shared: Arc::clone(&self.shared),
        });
        self.shared.files.lock().unwrap().push(Arc::clone(&file));
        Ok(file)
    }
}

impl FaultFile for SimFile {
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<usize> {
        if self.shared.crashed.load(Ordering::SeqCst) {
            return Err(eio("write after crash"));
        }
        if self.shared.one_in(self.shared.cfg.fail_write_one_in) {
            return Err(eio("injected write failure"));
        }
        let accepted = if !data.is_empty() && self.shared.one_in(self.shared.cfg.short_write_one_in)
        {
            // Short write: accept a non-empty strict prefix when possible.
            let n = self.shared.rng.lock().unwrap().random_range(1..data.len().max(2));
            n.min(data.len())
        } else {
            data.len()
        };
        {
            let mut st = self.state.lock().unwrap();
            // Re-check under the lock: a concurrent crash may have frozen
            // this file between the flag check above and acquiring the
            // lock; a write slipped in afterwards would silently linger in
            // `pending` outside the crash image.
            if self.shared.crashed.load(Ordering::SeqCst) {
                return Err(eio("write after crash"));
            }
            st.pending.push(PendingWrite { offset, data: data[..accepted].to_vec() });
        }
        let writes = self.shared.writes.fetch_add(1, Ordering::SeqCst) + 1;
        if writes >= self.shared.armed.load(Ordering::SeqCst) {
            crash_shared(&self.shared);
        }
        Ok(accepted)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        if self.shared.crashed.load(Ordering::SeqCst) {
            return Err(eio("read after crash"));
        }
        let st = self.state.lock().unwrap();
        // Logical end of file = durable length extended by pending writes.
        let mut len = self.durable.metadata()?.len();
        for w in &st.pending {
            len = len.max(w.offset + w.data.len() as u64);
        }
        if offset >= len {
            return Ok(0);
        }
        let n = ((len - offset) as usize).min(buf.len());
        let out = &mut buf[..n];
        out.fill(0);
        // Base layer: whatever the durable file holds in this range.
        let durable_len = self.durable.metadata()?.len();
        if offset < durable_len {
            let dn = ((durable_len - offset) as usize).min(n);
            self.durable.read_exact_at(&mut out[..dn], offset)?;
        }
        // Overlay the volatile cache in submission order (last write wins).
        for w in &st.pending {
            let (a, b) = (w.offset, w.offset + w.data.len() as u64);
            let (lo, hi) = (a.max(offset), b.min(offset + n as u64));
            if lo < hi {
                out[(lo - offset) as usize..(hi - offset) as usize]
                    .copy_from_slice(&w.data[(lo - a) as usize..(hi - a) as usize]);
            }
        }
        Ok(n)
    }

    fn sync_data(&self) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        // The crash check MUST happen under the state lock. Otherwise a
        // crash can drain (drop) this file's pending writes between an
        // early flag check and the drain below, and the now-empty sync
        // would report Ok — letting the WAL acknowledge a commit whose
        // bytes the crash already discarded.
        if self.shared.crashed.load(Ordering::SeqCst) {
            return Err(eio("sync after crash"));
        }
        for w in st.pending.drain(..) {
            self.durable.write_all_at(&w.data, w.offset)?;
        }
        self.durable.sync_data()?;
        self.shared.syncs.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Carries the pending writes over onto the durable layer, then cuts
    /// it: a crash afterwards keeps exactly the first `len` bytes as they
    /// read before the call.
    fn set_len(&self, len: u64) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        // Under the state lock for the same reason as `sync_data`.
        if self.shared.crashed.load(Ordering::SeqCst) {
            return Err(eio("set_len after crash"));
        }
        for w in st.pending.drain(..) {
            self.durable.write_all_at(&w.data, w.offset)?;
        }
        self.durable.set_len(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> std::path::PathBuf {
        crate::KernelConfig::for_tests().data_dir
    }

    #[test]
    fn os_fs_roundtrips() {
        let fs = OsFs;
        let f = fs.create(&dir().join("os.bin")).unwrap();
        f.write_all_at(0, b"hello").unwrap();
        f.sync_data().unwrap();
        let mut buf = [0u8; 5];
        f.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn sim_reads_see_unsynced_writes() {
        let fs = SimFs::new(FaultConfig::crash_only(1));
        let f = fs.create(&dir().join("sim.bin")).unwrap();
        f.write_all_at(0, b"volatile").unwrap();
        let mut buf = [0u8; 8];
        f.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"volatile", "read-your-writes before any sync");
    }

    #[test]
    fn synced_bytes_survive_a_crash_unsynced_may_not() {
        // Over many seeds: synced data always survives; at least one seed
        // loses (or tears) the unsynced tail.
        let mut lost_tail = false;
        for seed in 0..32 {
            let path = dir().join(format!("c{seed}.bin"));
            let fs = SimFs::new(FaultConfig::crash_only(seed));
            let f = fs.create(&path).unwrap();
            f.write_all_at(0, b"durable!").unwrap();
            f.sync_data().unwrap();
            f.write_all_at(8, b"volatile").unwrap();
            fs.crash();
            assert!(f.write_at(16, b"x").is_err(), "writes fail after crash");
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(&bytes[..8], b"durable!", "seed {seed}: synced prefix lost");
            if bytes.len() < 16 {
                lost_tail = true;
            }
        }
        assert!(lost_tail, "no seed ever dropped/tore the unsynced tail");
    }

    #[test]
    fn crash_image_is_deterministic_per_seed() {
        let image = |tag: &str| {
            let path = dir().join(format!("det-{tag}.bin"));
            let fs = SimFs::new(FaultConfig::crash_only(99));
            let f = fs.create(&path).unwrap();
            for i in 0..10u64 {
                f.write_all_at(i * 8, &i.to_le_bytes()).unwrap();
            }
            f.sync_data().unwrap();
            for i in 10..20u64 {
                f.write_all_at(i * 8, &i.to_le_bytes()).unwrap();
            }
            fs.crash();
            std::fs::read(&path).unwrap()
        };
        assert_eq!(image("a"), image("b"), "same seed must freeze the same image");
    }

    #[test]
    fn short_writes_are_recovered_by_write_all_at() {
        let fs = SimFs::new(FaultConfig {
            seed: 7,
            crash_after_writes: None,
            short_write_one_in: 2,
            fail_write_one_in: 0,
        });
        let f = fs.create(&dir().join("short.bin")).unwrap();
        let payload: Vec<u8> = (0..255u8).collect();
        f.write_all_at(0, &payload).unwrap();
        f.sync_data().unwrap();
        let mut back = vec![0u8; payload.len()];
        f.read_exact_at(0, &mut back).unwrap();
        assert_eq!(back, payload, "write_all_at must stitch short writes");
    }

    #[test]
    fn crash_after_writes_fires_automatically() {
        let fs = SimFs::new(FaultConfig {
            seed: 3,
            crash_after_writes: Some(5),
            short_write_one_in: 0,
            fail_write_one_in: 0,
        });
        let f = fs.create(&dir().join("auto.bin")).unwrap();
        let mut failed = false;
        for i in 0..10u64 {
            if f.write_at(i * 4, b"abcd").is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed && fs.crashed(), "the armed crash point must fire");
    }

    #[test]
    fn set_len_carries_pending_writes_over_and_cuts_the_durable_layer() {
        let path = dir().join("cut.bin");
        let fs = SimFs::new(FaultConfig::crash_only(5));
        let f = fs.create(&path).unwrap();
        f.write_all_at(0, b"durable!").unwrap();
        f.sync_data().unwrap();
        f.write_all_at(8, b"volatile").unwrap();
        f.set_len(12).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 12, "reads end at the cut");
        assert_eq!(&buf[..12], b"durable!vola");
        // Every seed's crash must keep the cut image: nothing is pending.
        fs.crash();
        assert!(f.set_len(0).is_err(), "set_len fails after crash");
        assert_eq!(std::fs::read(&path).unwrap(), b"durable!vola");
    }

    #[test]
    fn injected_write_failures_do_not_land_bytes() {
        let fs = SimFs::new(FaultConfig {
            seed: 11,
            crash_after_writes: None,
            short_write_one_in: 0,
            fail_write_one_in: 1, // every write fails
        });
        let path = dir().join("fail.bin");
        let f = fs.create(&path).unwrap();
        assert!(f.write_at(0, b"nope").is_err());
        f.sync_data().unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 0);
    }
}
