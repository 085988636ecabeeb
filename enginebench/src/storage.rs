//! The storage decorator: a forwarding [`StorageBackend`] around every
//! [`LsmStore`] the benchmark opens, recording the storage layer's spans,
//! plus the LSM directories' on-disk footprint.

use crate::trace::{span, span_units, Layer};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tsp_common::Result;
use tsp_storage::{LsmOptions, LsmStore, StorageBackend, SyncPolicy, WriteBatch};

/// An [`LsmStore`] behind span-recording forwarding calls.
pub struct ProbedLsm {
    inner: LsmStore,
}

impl ProbedLsm {
    /// Opens (or reopens) the store in `dir` with synchronous fsync — the
    /// paper's configuration.
    pub fn open(dir: &Path) -> Result<Arc<Self>> {
        let opts = LsmOptions {
            sync: SyncPolicy::Always,
            ..LsmOptions::default()
        };
        Ok(Arc::new(ProbedLsm {
            inner: LsmStore::open(dir, opts)?,
        }))
    }

    /// Live SSTables.
    pub fn sstables(&self) -> usize {
        self.inner.sstable_count()
    }

    /// Bytes of every file in the store's directory.
    pub fn disk_bytes(&self) -> u64 {
        dir_bytes(self.inner.dir())
    }
}

/// Total size of the regular files directly in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl StorageBackend for ProbedLsm {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        span(Layer::StorageGet, || self.inner.get(key))
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.inner.put(key, value)
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        self.inner.delete(key)
    }

    fn write_batch(&self, batch: &WriteBatch) -> Result<()> {
        let bytes = if crate::trace::enabled() {
            batch_bytes(batch)
        } else {
            0
        };
        span_units(Layer::StorageWriteBatch, bytes, || {
            self.inner.write_batch(batch)
        })
    }

    fn scan(&self, visit: &mut dyn FnMut(&[u8], &[u8]) -> bool) -> Result<()> {
        span(Layer::StorageScan, || self.inner.scan(visit))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }

    fn name(&self) -> &'static str {
        "probed-lsm"
    }
}

fn batch_bytes(batch: &WriteBatch) -> u64 {
    batch
        .iter()
        .map(|op| match op {
            tsp_storage::BatchOp::Put { key, value } => key.len() + value.len(),
            tsp_storage::BatchOp::Delete { key } => key.len(),
        } as u64)
        .sum()
}

/// A scratch directory for one run's LSM stores, inside the working
/// directory, removed on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `.enginebench_tmp/<pid>-<tag>` under the working directory.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let path = PathBuf::from(".enginebench_tmp").join(format!("{}-{tag}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Remove the parent too once no other run uses it.
        let _ = std::fs::remove_dir(".enginebench_tmp");
    }
}
