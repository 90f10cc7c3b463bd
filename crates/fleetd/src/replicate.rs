//! Coordinator-side checkpoint replication: the latest validated
//! checkpoint of every worker, held in memory and (optionally)
//! persisted, so a restarted or replacement worker can resume its
//! partition from where the cluster last snapshotted it.
//!
//! A replica is only stored after `restore_bytes` fully re-validates
//! it — a worker bug (or a damaged inter-node frame that somehow
//! passed its CRC) can never park garbage in the store that a later
//! handoff would install.

use crate::checkpoint::{restore_bytes, CheckpointError};
use crate::state::FleetConfig;
use std::fs;
use std::path::{Path, PathBuf};

/// One worker's latest replicated checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Replica {
    /// The validated checkpoint bytes, installable as-is.
    pub data: Vec<u8>,
    /// Accepted-upload total inside `data` — the staleness yardstick
    /// a handoff compares against the live worker's counts.
    pub accepted: u64,
}

/// The latest replica per worker (index-aligned with the cluster's
/// worker list). With a directory, every store also persists to
/// `worker-<k>.ckpt` via tmp → fsync → rename, and a restarted coordinator
/// reloads (and re-validates) them on startup.
#[derive(Debug)]
pub struct ReplicaStore {
    dir: Option<PathBuf>,
    replicas: Vec<Option<Replica>>,
}

fn replica_path(dir: &Path, worker: usize) -> PathBuf {
    dir.join(format!("worker-{worker}.ckpt"))
}

impl ReplicaStore {
    /// An empty in-memory store for `workers` workers.
    pub fn in_memory(workers: usize) -> Self {
        ReplicaStore {
            dir: None,
            replicas: vec![None; workers],
        }
    }

    /// A persistent store rooted at `dir`, reloading any
    /// `worker-<k>.ckpt` files a previous coordinator left behind.
    /// Each reloaded file is re-validated with `config`; a coordinator
    /// must refuse to start over replicas it cannot trust.
    ///
    /// # Errors
    ///
    /// I/O failures and validation failures of persisted replicas.
    pub fn open(
        dir: impl Into<PathBuf>,
        workers: usize,
        config: &FleetConfig,
    ) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| CheckpointError::Io(e.to_string()))?;
        let mut replicas = vec![None; workers];
        for (k, slot) in replicas.iter_mut().enumerate() {
            let path = replica_path(&dir, k);
            let data = match fs::read(&path) {
                Ok(data) => data,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(CheckpointError::Io(e.to_string())),
            };
            let restored = restore_bytes(&data, config.clone())?;
            *slot = Some(Replica {
                data,
                accepted: restored.accepted_total() as u64,
            });
        }
        Ok(ReplicaStore {
            dir: Some(dir),
            replicas,
        })
    }

    /// Number of worker slots.
    pub fn workers(&self) -> usize {
        self.replicas.len()
    }

    /// The latest replica for `worker`, if any was ever stored.
    pub fn get(&self, worker: usize) -> Option<&Replica> {
        self.replicas.get(worker).and_then(|r| r.as_ref())
    }

    /// Stores (and, when persistent, atomically writes) a validated
    /// replica for `worker`, published through
    /// [`energydx_segment::write_atomic`] — so a crash or power loss
    /// can never leave a truncated or torn `worker-<k>.ckpt` that would
    /// refuse the next coordinator startup.
    ///
    /// # Errors
    ///
    /// I/O failures of the persistent write; the in-memory replica is
    /// only updated after the write lands, so the store never claims
    /// durability it does not have.
    pub fn store(
        &mut self,
        worker: usize,
        data: Vec<u8>,
        accepted: u64,
    ) -> Result<(), CheckpointError> {
        if let Some(dir) = &self.dir {
            energydx_segment::write_atomic(&replica_path(dir, worker), &data)
                .map_err(|e| CheckpointError::Io(e.to_string()))?;
        }
        self.replicas[worker] = Some(Replica { data, accepted });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::checkpoint_bytes;
    use crate::fixture;
    use crate::state::FleetState;

    fn sample_checkpoint(uploads: u64) -> (Vec<u8>, u64) {
        let mut state = FleetState::new(FleetConfig::default());
        for session in 0..uploads {
            assert!(state
                .submit("mail", &fixture::payload("u1", session))
                .accepted());
        }
        (checkpoint_bytes(&state), uploads)
    }

    #[test]
    fn persisted_replicas_survive_a_coordinator_restart() {
        let dir = tempdir();
        let (data, accepted) = sample_checkpoint(3);
        {
            let config = FleetConfig::default();
            let mut store = ReplicaStore::open(&dir, 2, &config).unwrap();
            store.store(1, data.clone(), accepted).unwrap();
        }
        let config = FleetConfig::default();
        let store = ReplicaStore::open(&dir, 2, &config).unwrap();
        assert!(store.get(0).is_none());
        let replica = store.get(1).expect("reloaded");
        assert_eq!(replica.data, data);
        assert_eq!(replica.accepted, accepted);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_persisted_replica_refuses_startup() {
        let dir = tempdir();
        let (mut data, accepted) = sample_checkpoint(2);
        {
            let config = FleetConfig::default();
            let mut store = ReplicaStore::open(&dir, 1, &config).unwrap();
            store.store(0, data.clone(), accepted).unwrap();
        }
        // Flip a bit in the persisted file behind the store's back.
        let mid = data.len() / 2;
        data[mid] ^= 0x08;
        fs::write(replica_path(&dir, 0), &data).unwrap();
        let config = FleetConfig::default();
        let err = ReplicaStore::open(&dir, 1, &config)
            .expect_err("damage must be refused");
        assert!(
            !matches!(err, CheckpointError::Io(_)),
            "a typed validation error, not i/o: {err:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "energydx-replica-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }
}
