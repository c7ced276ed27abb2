#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
//! Content-addressed on-disk store for sealed result artifacts.
//!
//! One directory, one file per key: `<dir>/<key>.artifact`, where the key
//! is the hex hash of the job's canonical scenario bytes. Entries arrive
//! atomically — written through [`microslip_codec::publish`], or checked
//! in one streamed pass and renamed in ([`CacheStore::put_file`]) — and
//! are verified on every read, buffered ([`CacheStore::get_sealed`]) or
//! streamed ([`CacheStore::open_sealed`]): a torn or bit-rotted entry is
//! treated as a **miss** and evicted so the job simply recomputes, because
//! a cache must never be able to fail a sweep.
//!
//! Keys come off the wire, so they are validated before ever touching a
//! path: lowercase hex only, bounded length. A malicious `../`-shaped key
//! is a typed error, not a file access.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use microslip_codec::SealError;

use crate::artifact::{ArtifactInfo, ResultArtifact};

/// Longest accepted key (the scenario hash is 16 hex chars; leave head
/// room for wider hashes without admitting arbitrary strings).
pub const MAX_KEY_LEN: usize = 64;

const SUFFIX: &str = ".artifact";

/// Validates a content-address key: non-empty, bounded, lowercase hex.
pub fn validate_key(key: &str) -> Result<(), String> {
    if key.is_empty() || key.len() > MAX_KEY_LEN {
        return Err(format!("cache key length {} outside 1..={MAX_KEY_LEN}", key.len()));
    }
    if !key.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)) {
        return Err(format!("cache key {key:?} is not lowercase hex"));
    }
    Ok(())
}

/// A directory of sealed result artifacts, addressed by scenario hash.
#[derive(Clone, Debug)]
pub struct CacheStore {
    dir: PathBuf,
}

impl CacheStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<CacheStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CacheStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &str) -> Result<PathBuf, String> {
        validate_key(key)?;
        Ok(self.dir.join(format!("{key}{SUFFIX}")))
    }

    /// True when a (possibly unverified) entry exists for `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.entry_path(key).map(|p| p.exists()).unwrap_or(false)
    }

    /// Looks `key` up and hands its path to `read`. A missing or
    /// unreadable entry is `None`; a corrupt one is evicted and reported as
    /// `None` too — the caller recomputes, it never fails.
    fn lookup<T>(&self, key: &str, read: impl FnOnce(&Path) -> Result<T, SealError>) -> Option<T> {
        let path = self.entry_path(key).ok()?;
        match read(&path) {
            Ok(found) => Some(found),
            Err(SealError::Io(_)) => None,
            Err(SealError::Corrupt(_)) => {
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Looks `key` up and returns the entry's file, its seal verified in
    /// one streamed pass and rewound for the second that sends it, with its
    /// length. Misses and corrupt entries as [`lookup`](Self::lookup).
    pub fn open_sealed(&self, key: &str) -> Option<(File, u64)> {
        self.lookup(key, microslip_codec::verify)
    }

    /// Looks `key` up and returns the **sealed** artifact bytes, verbatim
    /// as stored, verified against the CRC trailer as they stream in.
    /// Misses and corrupt entries as [`lookup`](Self::lookup).
    pub fn get_sealed(&self, key: &str) -> Option<Vec<u8>> {
        self.lookup(key, microslip_codec::read_file)
    }

    /// Checks the sealed artifact at `path` in one streamed pass — the
    /// seal, the whole structure ([`ResultArtifact::check_file`]) and that
    /// it answers `key` — and moves it in as the entry for `key`. The move
    /// is a rename, atomic like [`microslip_codec::publish`]'s, so `path`
    /// must be on the store's filesystem. Returns what the pass read.
    pub fn put_file(&self, key: &str, path: &Path) -> Result<ArtifactInfo, String> {
        let entry = self.entry_path(key)?;
        let info = ResultArtifact::check_file(path)?;
        if info.key != key {
            return Err(format!("artifact claims key {}, expected {key}", info.key));
        }
        fs::rename(path, &entry).map_err(|e| format!("cache move failed: {e}"))?;
        Ok(info)
    }

    /// Stores `sealed` (already CRC-trailed) under `key`, atomically.
    /// Rejects bytes that do not verify — the cache only ever holds
    /// entries [`get_sealed`](Self::get_sealed) will accept.
    pub fn put_sealed(&self, key: &str, sealed: &[u8]) -> Result<(), String> {
        microslip_codec::unseal(sealed)
            .map_err(|e| format!("refusing to cache torn artifact: {e}"))?;
        let path = self.entry_path(key)?;
        microslip_codec::publish(&path, |file| file.write_all(sealed))
            .map_err(|e| format!("cache write failed: {e}"))
    }

    /// Removes the entry for `key`. Returns whether one existed.
    pub fn evict(&self, key: &str) -> Result<bool, String> {
        let path = self.entry_path(key)?;
        match fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(format!("evict {key}: {e}")),
        }
    }

    /// All keys currently stored, sorted (deterministic listing order).
    pub fn keys(&self) -> io::Result<Vec<String>> {
        let mut keys = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(key) = name.strip_suffix(SUFFIX) else { continue };
            if validate_key(key).is_ok() {
                keys.push(key.to_string());
            }
        }
        keys.sort();
        Ok(keys)
    }

    /// Entries currently stored.
    pub fn len(&self) -> io::Result<usize> {
        Ok(self.keys()?.len())
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Evicts oldest-modified entries until at most `max_entries` remain.
    /// Returns the evicted keys (sorted). Ties on modification time break
    /// by key, so the trim is reproducible within timestamp resolution.
    pub fn trim_to(&self, max_entries: usize) -> io::Result<Vec<String>> {
        #[expect(
            clippy::disallowed_types,
            reason = "eviction order reads file mtimes, not the physics; results are \
                      content-addressed, so which entries survive never affects a computed value"
        )]
        let mut aged: Vec<(std::time::SystemTime, String)> = Vec::new();
        for key in self.keys()? {
            let Ok(path) = self.entry_path(&key) else { continue };
            let modified = fs::metadata(&path)?.modified()?;
            aged.push((modified, key));
        }
        aged.sort();
        let excess = aged.len().saturating_sub(max_entries);
        let mut evicted: Vec<String> = Vec::with_capacity(excess);
        for (_, key) in aged.into_iter().take(excess) {
            if self.evict(&key).map_err(io::Error::other)? {
                evicted.push(key);
            }
        }
        evicted.sort();
        Ok(evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(name: &str) -> CacheStore {
        let dir = std::env::temp_dir().join(format!("microslip-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CacheStore::open(dir).expect("open store")
    }

    fn sealed(content: &[u8]) -> Vec<u8> {
        microslip_codec::seal(content.to_vec())
    }

    #[test]
    fn put_get_roundtrip_is_verbatim() {
        let store = tmp_store("roundtrip");
        let bytes = sealed(b"artifact payload");
        store.put_sealed("00ab", &bytes).expect("put");
        assert!(store.contains("00ab"));
        assert_eq!(store.get_sealed("00ab").expect("hit"), bytes);
        assert_eq!(store.keys().unwrap(), vec!["00ab".to_string()]);
    }

    /// A sealed artifact of a 2×1×1 grid answering `key`.
    fn artifact(key: &str) -> Vec<u8> {
        use crate::{FlowDiagnostics, Snapshot};
        let snapshot =
            Snapshot { x0: 0, nx: 2, ny: 1, nz: 1, rho: vec![vec![1.0, 0.5]], velocity: vec![0.0; 6] };
        let diagnostics = FlowDiagnostics::compute(&snapshot);
        ResultArtifact { key: key.into(), phases: 3, snapshot, diagnostics, summary_json: "{}".into() }
            .seal()
    }

    #[test]
    fn open_sealed_hands_back_the_verified_entry_rewound() {
        use std::io::Read;
        let store = tmp_store("open");
        let bytes = sealed(b"artifact payload");
        store.put_sealed("00ab", &bytes).expect("put");
        let (mut file, len) = store.open_sealed("00ab").expect("hit");
        let mut read = Vec::new();
        file.read_to_end(&mut read).unwrap();
        assert_eq!((read, len), (bytes.clone(), bytes.len() as u64));
        assert!(store.open_sealed("beef").is_none());
        // Rot: a miss, and the entry is gone.
        let path = store.dir().join("00ab.artifact");
        let mut rotted = bytes;
        rotted[3] ^= 0x40;
        fs::write(&path, &rotted).unwrap();
        assert!(store.open_sealed("00ab").is_none());
        assert!(!store.contains("00ab"), "corrupt entry should be evicted");
    }

    #[test]
    fn put_file_checks_in_one_pass_and_moves_the_file_in() {
        let store = tmp_store("put-file");
        let src = store.dir().join("result.artifact");
        let bytes = artifact("0a1b");
        fs::write(&src, &bytes).unwrap();
        assert_eq!(store.put_file("0a1b", &src).expect("put_file").phases, 3);
        assert!(!src.exists(), "the result is moved, not copied");
        assert_eq!(store.get_sealed("0a1b").expect("hit"), bytes);

        // A key the artifact does not answer, a flipped byte, a torn tail
        // and a sealed non-artifact are refused, and the file stays put.
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 1;
        let torn = &bytes[..bytes.len() - 1];
        let foreign = sealed(b"not an artifact");
        for (key, content) in
            [("0c2d", &bytes[..]), ("0a1b", &flipped[..]), ("0a1b", torn), ("0e", &foreign[..])]
        {
            store.evict(key).expect("evict");
            fs::write(&src, content).unwrap();
            assert!(store.put_file(key, &src).is_err(), "{key} accepted");
            assert!(src.exists() && !store.contains(key));
        }
        assert!(store.put_file("../escape", &src).is_err());
    }

    #[test]
    fn missing_key_is_a_miss() {
        let store = tmp_store("miss");
        assert!(store.get_sealed("beef").is_none());
        assert!(!store.contains("beef"));
        assert!(!store.evict("beef").expect("evict"));
    }

    #[test]
    fn corrupt_entry_becomes_a_miss_and_is_evicted() {
        let store = tmp_store("corrupt");
        store.put_sealed("0c", &sealed(b"good")).expect("put");
        // Rot the stored file behind the store's back.
        let path = store.dir().join("0c.artifact");
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(store.get_sealed("0c").is_none());
        assert!(!store.contains("0c"), "corrupt entry should be evicted");
    }

    #[test]
    fn hostile_keys_are_typed_errors() {
        let store = tmp_store("hostile");
        for key in ["", "../escape", "ABCD", "deadbeef!", &"f".repeat(65)] {
            assert!(validate_key(key).is_err(), "key {key:?} accepted");
            assert!(store.put_sealed(key, &sealed(b"x")).is_err());
            assert!(store.get_sealed(key).is_none());
        }
    }

    #[test]
    fn refuses_to_cache_torn_bytes() {
        let store = tmp_store("torn");
        let mut bytes = sealed(b"payload");
        bytes.pop();
        assert!(store.put_sealed("aa", &bytes).is_err());
        assert!(!store.contains("aa"));
    }

    #[test]
    fn trim_evicts_oldest_first() {
        let store = tmp_store("trim");
        for (i, key) in ["aa", "bb", "cc"].iter().enumerate() {
            store.put_sealed(key, &sealed(key.as_bytes())).expect("put");
            // Distinct mtimes so age ordering is unambiguous.
            #[expect(clippy::disallowed_types, reason = "sets file mtimes; reads no clock")]
            let when = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000_000 + i as u64);
            let file = fs::File::options()
                .append(true)
                .open(store.dir().join(format!("{key}.artifact")))
                .unwrap();
            file.set_times(fs::FileTimes::new().set_modified(when)).unwrap();
        }
        let evicted = store.trim_to(1).expect("trim");
        assert_eq!(evicted, vec!["aa".to_string(), "bb".to_string()]);
        assert_eq!(store.keys().unwrap(), vec!["cc".to_string()]);
        assert!(store.trim_to(5).expect("no-op trim").is_empty());
    }
}
