//! Asynchronous I/O substrate — the io_uring stand-in (see DESIGN.md).
//!
//! The paper's Exp 3 relies on io_uring to keep one WAL flush per log
//! file in flight against the NVMe device. io_uring is not available in
//! this build's offline crate set, so this module reproduces the *model*
//! of its linked submissions: one [`AioRequest`] is a positional write
//! chained to the `fdatasync` that makes it durable (`IOSQE_IO_LINK`: the
//! barrier runs only if the write fully landed), pushed into a queue that
//! a pool of I/O threads drains. Submission never blocks on the device,
//! requests against different files proceed concurrently, and the
//! submitter reaps one completion per write→sync chain — not one per
//! syscall.

use crossbeam::channel::{unbounded, Receiver, Sender};
use phoebe_common::fault::FaultFile;
use phoebe_common::sync::{Condvar, Rank, RankedMutex};
use std::io;
use std::sync::Arc;

/// One linked submission: write `data` at `offset`, then — when `sync` —
/// the durability barrier for it. Files are [`FaultFile`] handles, so the
/// whole path runs unchanged over the real filesystem or the
/// fault-injecting torture disk.
pub struct AioRequest {
    pub file: Arc<dyn FaultFile>,
    pub offset: u64,
    pub data: Vec<u8>,
    pub sync: bool,
}

impl AioRequest {
    /// Execute the chain on the calling thread; returns bytes written.
    /// The pool's threads run exactly this, so a submitter that would
    /// only block on the completion anyway can skip the hand-off.
    pub fn run(self) -> io::Result<usize> {
        self.file.write_all_at(self.offset, &self.data)?;
        if self.sync {
            self.file.sync_data()?;
        }
        Ok(self.data.len())
    }
}

/// Completion handle: one per submission.
pub struct Completion {
    state: RankedMutex<Option<io::Result<usize>>>,
    cv: Condvar,
}

impl Completion {
    fn complete(&self, result: io::Result<usize>) {
        *self.state.lock() = Some(result);
        self.cv.notify_all();
    }

    /// Block until complete.
    pub fn wait(&self) -> io::Result<usize> {
        let mut s = self.state.lock();
        while s.is_none() {
            s.wait(&self.cv);
        }
        s.take().expect("completion present")
    }
}

struct Submission {
    req: AioRequest,
    completion: Arc<Completion>,
}

/// A pool of I/O threads draining a submission queue.
pub struct AioPool {
    tx: RankedMutex<Option<Sender<Submission>>>,
    threads: RankedMutex<Vec<std::thread::JoinHandle<()>>>,
}

impl AioPool {
    pub fn new(io_threads: usize) -> Arc<Self> {
        let (tx, rx): (Sender<Submission>, Receiver<Submission>) = unbounded();
        let threads = (0..io_threads.max(1))
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("phoebe-aio-{i}"))
                    .spawn(move || {
                        while let Ok(sub) = rx.recv() {
                            sub.completion.complete(sub.req.run());
                        }
                    })
                    .expect("spawn aio thread")
            })
            .collect();
        Arc::new(AioPool {
            tx: RankedMutex::new(Rank::Aio, "aio.pool_tx", Some(tx)),
            threads: RankedMutex::new(Rank::Aio, "aio.pool_threads", threads),
        })
    }

    /// Submit without blocking; reap via the returned completion.
    pub fn submit(&self, req: AioRequest) -> Arc<Completion> {
        let completion = Arc::new(Completion {
            state: RankedMutex::new(Rank::Aio, "aio.completion", None),
            cv: Condvar::new(),
        });
        self.tx
            .lock()
            .as_ref()
            .expect("aio pool alive")
            .send(Submission { req, completion: Arc::clone(&completion) })
            .expect("aio workers alive");
        completion
    }

    /// Stop the pool; pending submissions are drained first.
    pub fn shutdown(&self) {
        drop(self.tx.lock().take()); // close the queue
        for t in std::mem::take(&mut *self.threads.lock()) {
            let _ = t.join();
        }
    }
}

impl Drop for AioPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoebe_common::fault::{FaultConfig, FaultFs, OsFs, SimFs};

    fn tmp(name: &str) -> std::path::PathBuf {
        phoebe_common::KernelConfig::for_tests().data_dir.join(name)
    }

    #[test]
    fn write_and_reap_roundtrip() {
        let pool = AioPool::new(2);
        let f = OsFs.create(&tmp("a.log")).unwrap();
        let c = pool.submit(AioRequest {
            file: Arc::clone(&f),
            offset: 0,
            data: b"hello".to_vec(),
            sync: false,
        });
        assert_eq!(c.wait().unwrap(), 5);
        let mut buf = [0u8; 5];
        f.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn many_concurrent_submissions_all_complete() {
        let pool = AioPool::new(3);
        let f = OsFs.create(&tmp("b.log")).unwrap();
        let completions: Vec<_> = (0..100u64)
            .map(|i| {
                pool.submit(AioRequest {
                    file: Arc::clone(&f),
                    offset: i * 8,
                    data: i.to_le_bytes().to_vec(),
                    sync: false,
                })
            })
            .collect();
        for c in completions {
            assert_eq!(c.wait().unwrap(), 8);
        }
        for i in 0..100u64 {
            let mut buf = [0u8; 8];
            f.read_exact_at(i * 8, &mut buf).unwrap();
            assert_eq!(u64::from_le_bytes(buf), i);
        }
    }

    #[test]
    fn linked_sync_makes_the_write_durable_and_is_skipped_after_a_failed_write() {
        let sim = SimFs::new(FaultConfig::crash_only(3));
        let path = tmp("c.log");
        let f = sim.create(&path).unwrap();
        let pool = AioPool::new(1);
        let req = |offset, sync| AioRequest {
            file: Arc::clone(&f),
            offset,
            data: b"durable".to_vec(),
            sync,
        };
        assert_eq!(pool.submit(req(0, true)).wait().unwrap(), 7);
        assert_eq!(sim.io_counts(), (1, 1), "one write linked to one sync");
        sim.crash();
        // The synced chain is in the crash image, whatever the seed drew.
        assert_eq!(std::fs::read(&path).unwrap(), b"durable");
        // On the dead disk the write fails and the chain stops there.
        assert!(req(7, true).run().is_err());
        assert_eq!(sim.io_counts(), (1, 1), "no barrier after a failed write");
    }
}
