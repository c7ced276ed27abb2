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
//! is the hex hash of the job's canonical scenario bytes. Entries are
//! written atomically ([`microslip_codec::publish`]) and verified on every
//! read — a torn or bit-rotted entry is treated as a
//! **miss** and evicted so the job simply recomputes, because a cache
//! must never be able to fail a sweep.
//!
//! Keys come off the wire, so they are validated before ever touching a
//! path: lowercase hex only, bounded length. A malicious `../`-shaped key
//! is a typed error, not a file access.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use microslip_codec::SealError;

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

    /// Looks `key` up and returns the **sealed** artifact bytes, verbatim
    /// as stored, verified against the CRC trailer as they stream in. A
    /// missing or unreadable entry is `None`; a corrupt entry is evicted
    /// and reported as `None` too — the caller recomputes, it never fails.
    pub fn get_sealed(&self, key: &str) -> Option<Vec<u8>> {
        let path = self.entry_path(key).ok()?;
        match microslip_codec::read_file(&path) {
            Ok(sealed) => Some(sealed),
            Err(SealError::Io(_)) => None,
            Err(SealError::Corrupt(_)) => {
                let _ = fs::remove_file(&path);
                None
            }
        }
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
