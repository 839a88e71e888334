//! Snapshot persistence: one JSON file per named session.
//!
//! A snapshot stores the session's durable state — its
//! [`SessionImage`]: the admitted job set, handle bookkeeping and
//! lifetime counters — plus the mutation version it captured. The warm
//! pair tables are *not* persisted: a restore analyses the job set
//! afresh with `msmr_dca::Analysis::owned` (one `O(n²·N)` pass), which
//! reproduces them bit-for-bit, keeps files small, and survives any
//! future change to the cache layout. Writes go through a temp file +
//! rename so a crash mid-snapshot never corrupts the previous one.

use std::io;
use std::path::{Path, PathBuf};

use msmr_serve::SessionImage;
use serde::{Deserialize, Serialize};

use crate::store::validate_session_name;

/// One persisted session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Schema identifier ([`SnapshotStore::SCHEMA`]).
    pub schema: String,
    /// The session name.
    pub session: String,
    /// The mutation version the snapshot captured.
    pub version: u64,
    /// The durable session state.
    pub image: SessionImage,
}

/// A directory of session snapshots.
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// The snapshot schema identifier.
    pub const SCHEMA: &'static str = "msmr-cluster-session/1";

    /// Opens (creating if needed) the snapshot directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SnapshotStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SnapshotStore { dir })
    }

    /// The directory snapshots live in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a session's snapshot is stored at.
    #[must_use]
    pub fn path_for(&self, session: &str) -> PathBuf {
        self.dir.join(format!("{session}.json"))
    }

    /// Persists one session atomically; returns the snapshot path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, session: &str, version: u64, image: &SessionImage) -> io::Result<PathBuf> {
        let snapshot = SessionSnapshot {
            schema: SnapshotStore::SCHEMA.to_string(),
            session: session.to_string(),
            version,
            image: image.clone(),
        };
        let json = serde_json::to_string(&snapshot)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let path = self.path_for(session);
        let temp = self.dir.join(format!(".{session}.json.tmp"));
        std::fs::write(&temp, json)?;
        std::fs::rename(&temp, &path)?;
        Ok(path)
    }

    /// Loads one session's snapshot.
    ///
    /// # Errors
    ///
    /// `NotFound` when no snapshot exists, `InvalidData` for files that
    /// do not parse as the snapshot schema or whose recorded name does
    /// not match the file stem.
    pub fn load(&self, session: &str) -> io::Result<SessionSnapshot> {
        let path = self.path_for(session);
        let text = std::fs::read_to_string(&path)?;
        let snapshot: SessionSnapshot = serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if snapshot.schema != SnapshotStore::SCHEMA {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: unknown snapshot schema `{}`",
                    path.display(),
                    snapshot.schema
                ),
            ));
        }
        if snapshot.session != session {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: snapshot names session `{}`",
                    path.display(),
                    snapshot.session
                ),
            ));
        }
        Ok(snapshot)
    }

    /// Quarantines a corrupt snapshot: renames `{session}.json` to
    /// `{session}.json.corrupt` so it stops matching [`SnapshotStore::list`]
    /// (and [`SnapshotStore::path_for`]) but stays on disk for forensics.
    /// Returns the quarantine path.
    ///
    /// # Errors
    ///
    /// Propagates the rename failure.
    pub fn quarantine(&self, session: &str) -> io::Result<PathBuf> {
        let path = self.path_for(session);
        let target = self.dir.join(format!("{session}.json.corrupt"));
        std::fs::rename(&path, &target)?;
        Ok(target)
    }

    /// The names of every session with a snapshot on disk, sorted.
    /// Non-snapshot files (wrong extension, invalid session names, temp
    /// files) are skipped.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors.
    pub fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if validate_session_name(stem).is_ok() {
                names.push(stem.to_string());
            }
        }
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msmr_model::{JobSetBuilder, PreemptionPolicy, Time};
    use msmr_serve::{AdmissionSession, SessionConfig};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "msmr-cluster-snap-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let dir = PathBuf::from(dir.to_string_lossy().replace(['(', ')'], ""));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn image_with_jobs(n: u64) -> SessionImage {
        let mut b = JobSetBuilder::new();
        b.stage("cpu", 2, PreemptionPolicy::Preemptive);
        for i in 0..n {
            b.job()
                .deadline(Time::new(100 + i))
                .stage_time(Time::new(2), 0)
                .add()
                .unwrap();
        }
        let mut session = AdmissionSession::new(SessionConfig::default());
        session.submit(b.build().unwrap(), false, |_| {});
        session.image().unwrap()
    }

    #[test]
    fn save_load_round_trips() {
        let store = SnapshotStore::open(temp_dir("roundtrip")).unwrap();
        let image = image_with_jobs(3);
        let path = store.save("tenant-a", 7, &image).unwrap();
        assert!(path.ends_with("tenant-a.json"));
        let snapshot = store.load("tenant-a").unwrap();
        assert_eq!(snapshot.version, 7);
        assert_eq!(snapshot.session, "tenant-a");
        assert_eq!(snapshot.image, image);
        assert_eq!(store.list().unwrap(), vec!["tenant-a"]);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn saving_twice_overwrites_atomically() {
        let store = SnapshotStore::open(temp_dir("overwrite")).unwrap();
        let image = image_with_jobs(1);
        store.save("s", 1, &image).unwrap();
        let richer = image_with_jobs(4);
        store.save("s", 2, &richer).unwrap();
        let snapshot = store.load("s").unwrap();
        assert_eq!(snapshot.version, 2);
        assert_eq!(snapshot.image, richer);
        // No temp litter.
        assert_eq!(store.list().unwrap(), vec!["s"]);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_files_are_invalid_data() {
        let store = SnapshotStore::open(temp_dir("corrupt")).unwrap();
        std::fs::write(store.path_for("bad"), "not json").unwrap();
        let err = store.load("bad").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            store.load("missing").unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn retired_decider_slots_load_blank_and_keep_the_session() {
        // Older builds wrote the decider states into every image under
        // `online` (a `Stateless` DM slot, DMR's retired repair trace,
        // OPDCA's Audsley trace). Images carry no decider state now, so
        // the key is ignored: the image loads equal to the saved one and
        // the restored session starts blank.
        let store = SnapshotStore::open(temp_dir("retired-slot")).unwrap();
        let image = image_with_jobs(2);
        store.save("legacy", 1, &image).unwrap();
        let text = std::fs::read_to_string(store.path_for("legacy")).unwrap();
        assert!(!text.contains("\"online\""), "{text}");
        let decisions = "\"decisions\":";
        assert!(text.contains(decisions), "{text}");
        let legacy = text.replace(
            decisions,
            concat!(
                r#""online":{"states":{"DM":"Stateless","DMR":{"Repair":{"jobs":2,"flips":[]}},"#,
                r#""OPDCA":{"Audsley":{"winners":[0,1],"probes":[2,1],"rejected":false}}}},"#,
                r#""decisions":"#,
            ),
        );
        std::fs::write(store.path_for("legacy"), legacy).unwrap();

        let loaded = store.load("legacy").unwrap().image;
        assert_eq!(loaded, image);
        let session = AdmissionSession::from_image(SessionConfig::default(), loaded).unwrap();
        assert!(session.online_state().is_empty());
        assert_eq!(session.image(), Some(image));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn quarantine_hides_the_file_from_listing_but_keeps_it_on_disk() {
        let store = SnapshotStore::open(temp_dir("quarantine")).unwrap();
        let image = image_with_jobs(1);
        store.save("healthy", 1, &image).unwrap();
        std::fs::write(store.path_for("torn"), "{\"schema\":\"msmr-clu").unwrap();
        assert_eq!(store.list().unwrap(), vec!["healthy", "torn"]);

        let target = store.quarantine("torn").unwrap();
        assert!(target.exists(), "quarantined file is kept for forensics");
        assert!(target.to_string_lossy().ends_with("torn.json.corrupt"));
        assert!(!store.path_for("torn").exists());
        assert_eq!(store.list().unwrap(), vec!["healthy"]);
        // Quarantining a missing snapshot is an error, not a silent ok.
        assert!(store.quarantine("torn").is_err());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn mismatched_names_are_rejected() {
        let store = SnapshotStore::open(temp_dir("mismatch")).unwrap();
        let image = image_with_jobs(1);
        store.save("real", 1, &image).unwrap();
        std::fs::copy(store.path_for("real"), store.path_for("imposter")).unwrap();
        let err = store.load("imposter").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
