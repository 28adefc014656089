//! Versioned whole-system snapshot envelopes.
//!
//! A snapshot is a JSON object produced by [`ZynqPdrSystem::snapshot_json`]
//! (plus whatever campaign state rides along) wrapped in an envelope that
//! records the format version and a payload kind. The contract, enforced by
//! `tests/snapshot.rs` and the CI crash-resume smoke test, is **byte
//! identity**: restore a snapshot onto a freshly built system with the same
//! [`SystemConfig`] and the continued run produces exactly the same trace
//! tape, counters, report, and simulated time as a run that never stopped —
//! under both engine strategies.
//!
//! Files are written atomically (temp file + rename) so a process killed
//! mid-checkpoint leaves either the previous complete snapshot or the new
//! one, never a torn file. See `docs/SNAPSHOT.md` for the format and the
//! bisection workflow built on top of it.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use pdr_sim_core::json::{Json, JsonError};

use crate::system::{SystemConfig, ZynqPdrSystem};

/// Snapshot format version. Bump on any incompatible change to the payload
/// layout; [`open`] rejects mismatched versions so a stale checkpoint fails
/// loudly instead of deserializing garbage.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Wraps a payload in a versioned envelope.
pub fn envelope(kind: &str, payload: Json) -> Json {
    Json::Obj(vec![
        ("version".into(), Json::U64(SNAPSHOT_VERSION)),
        ("kind".into(), Json::Str(kind.into())),
        ("payload".into(), payload),
    ])
}

/// Validates an envelope's version and kind and returns the payload.
pub fn open<'a>(json: &'a Json, kind: &str) -> Result<&'a Json, JsonError> {
    let version = json
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| JsonError {
            msg: "snapshot envelope missing `version`".into(),
        })?;
    if version != SNAPSHOT_VERSION {
        return Err(JsonError {
            msg: format!("snapshot version {version} unsupported (expected {SNAPSHOT_VERSION})"),
        });
    }
    let found = json
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| JsonError {
            msg: "snapshot envelope missing `kind`".into(),
        })?;
    if found != kind {
        return Err(JsonError {
            msg: format!("snapshot kind `{found}` where `{kind}` was expected"),
        });
    }
    json.get("payload").ok_or_else(|| JsonError {
        msg: "snapshot envelope missing `payload`".into(),
    })
}

/// Captures a standalone system snapshot (kind `"system"`).
pub fn take(sys: &ZynqPdrSystem) -> Json {
    envelope("system", sys.snapshot_json())
}

/// Rebuilds a system from `config` and overlays a snapshot taken with
/// [`take`]. The config must be the one the snapshotted system was built
/// from; structural mismatches are rejected before any state is mutated.
pub fn restore(config: SystemConfig, json: &Json) -> Result<ZynqPdrSystem, JsonError> {
    let payload = open(json, "system")?;
    let mut sys = ZynqPdrSystem::new(config);
    sys.restore_json(payload)?;
    Ok(sys)
}

/// 64-bit FNV-1a over a byte slice — the digest primitive used to compare
/// run prefixes during first-divergence bisection.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Digest of a JSON value's canonical rendering. Two runs whose observable
/// state renders identically digest identically; any byte of divergence
/// (an event, a counter, a timestamp) changes the digest.
pub fn digest(json: &Json) -> u64 {
    fnv1a(json.render().as_bytes())
}

/// Monotonic discriminator for temp-file names: two in-flight [`save`]
/// calls in the same process must never share a temp file.
static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically writes a snapshot to `path`: the rendered JSON goes to a
/// sibling temp file which is then renamed over the target, so a crash
/// mid-write never leaves a torn checkpoint.
///
/// The temp name is unique per call (pid + in-process counter), so
/// concurrent savers targeting the same path — parallel campaign workers
/// checkpointing shards, or two processes sharing a checkpoint directory —
/// cannot interleave writes or rename each other's half-written file: each
/// rename atomically installs one complete snapshot, last writer wins. A
/// failed write or rename removes its own temp file instead of leaking it.
pub fn save(path: &Path, json: &Json) -> io::Result<()> {
    let seq = SAVE_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(".tmp.{}.{seq}", std::process::id()));
    let tmp = std::path::PathBuf::from(name);
    let result = fs::write(&tmp, json.render()).and_then(|()| fs::rename(&tmp, path));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Reads and parses a snapshot written by [`save`].
pub fn load(path: &Path) -> Result<Json, JsonError> {
    let text = fs::read_to_string(path).map_err(|e| JsonError {
        msg: format!("read {}: {e}", path.display()),
    })?;
    Json::parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trip() {
        let env = envelope("system", Json::U64(7));
        assert_eq!(open(&env, "system").unwrap(), &Json::U64(7));
    }

    #[test]
    fn open_rejects_wrong_kind_and_version() {
        let env = envelope("system", Json::Null);
        assert!(open(&env, "campaign").is_err());
        let stale = Json::Obj(vec![
            ("version".into(), Json::U64(SNAPSHOT_VERSION + 1)),
            ("kind".into(), Json::Str("system".into())),
            ("payload".into(), Json::Null),
        ]);
        assert!(open(&stale, "system").is_err());
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = Json::Obj(vec![("x".into(), Json::U64(1))]);
        let b = Json::Obj(vec![("x".into(), Json::U64(2))]);
        assert_eq!(digest(&a), digest(&a));
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("pdr-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let env = envelope("system", Json::Str("abc".into()));
        save(&path, &env).unwrap();
        assert_eq!(load(&path).unwrap(), env);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_deep_nesting_with_a_typed_error() {
        // A corrupted checkpoint nesting 50,000 arrays used to overflow the
        // parser's stack and abort the whole campaign on --resume.
        let dir = std::env::temp_dir().join("pdr-snapshot-deep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deep.json");
        let text = format!(
            "{{\"version\":1,\"kind\":\"system\",\"payload\":{}{}}}",
            "[".repeat(50_000),
            "]".repeat(50_000)
        );
        std::fs::write(&path, text).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.msg.contains("nesting deeper than"), "{}", err.msg);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_saves_to_one_target_never_tear() {
        // Before per-call temp names, two savers shared `path.tmp`: one
        // could rename the other's half-written file over the target. Now
        // every completed save installs one complete snapshot and the last
        // rename wins; a reader can never observe a torn or mixed file.
        let dir = std::env::temp_dir().join("pdr-snapshot-concurrent-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.json");
        std::fs::remove_file(&path).ok();
        const THREADS: u64 = 4;
        const SAVES: u64 = 25;
        // Payloads are large enough that a torn write would be parseable
        // only by accident, and tagged so a reader can attribute content.
        let payload = |t: u64, i: u64| {
            envelope(
                "system",
                Json::Arr(
                    (0..256)
                        .map(|k| Json::U64(t * 1_000_000 + i * 1_000 + k))
                        .collect(),
                ),
            )
        };
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let path = &path;
                let payload = &payload;
                scope.spawn(move || {
                    for i in 0..SAVES {
                        save(path, &payload(t, i)).expect("save");
                        // Every observation must be one complete envelope.
                        let seen = load(path).expect("concurrently saved file must parse");
                        assert!(open(&seen, "system").is_ok(), "torn or mixed snapshot");
                    }
                });
            }
        });
        // The survivor is exactly one of the payloads that were written.
        let last = load(&path).expect("final file parses");
        let wrote = (0..THREADS)
            .flat_map(|t| (0..SAVES).map(move |i| payload(t, i)))
            .any(|p| p == last);
        assert!(wrote, "final snapshot is not any payload that was saved");
        // No temp files leak once every save has completed.
        let leaked: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leaked.is_empty(), "leaked temp files: {leaked:?}");
        std::fs::remove_file(&path).ok();
    }
}
