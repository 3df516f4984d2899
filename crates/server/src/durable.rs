//! The one crash-durable file primitive behind the budget ledger and the
//! dataset journals.
//!
//! Both stores write a *sealed* JSON file, `{"format", "crc", <payload>}`,
//! whose CRC-32 is taken over the payload's compact rendering, so bit rot
//! (or a torn write that still parses as JSON) is caught at startup rather
//! than silently mis-accounting ε or rows. Whitespace in the file is
//! irrelevant; any value corruption is not.
//!
//! Files are replaced by one sequence — write a sibling temp file, `fsync`
//! it, rename it over the target, `fsync` the parent directory — so a crash
//! at any instant leaves either the complete old file or the complete new
//! one. Without the temp-file sync the rename can land before the data
//! blocks do; without the directory sync the rename itself can evaporate on
//! power loss.

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
#[cfg(any(test, feature = "fault-injection"))]
use std::sync::{Arc, Mutex};

use privbayes_model::Json;

#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::{Fault, FaultPlan, FaultSite, LedgerStep};

/// Why a persist did not complete cleanly, and whether the new contents
/// nevertheless made it: once the rename has landed the new state *is* the
/// file (a later directory-sync failure only delays durability of the
/// directory entry), so callers keep the mutation. Before the rename,
/// nothing reached the target and callers must roll back.
pub(crate) struct PersistFailure {
    pub durable: bool,
    pub error: String,
}

/// The fault plan a store's persists consult, with the site they count
/// on. Empty in release builds: the hooks are absent, not merely cheap.
#[derive(Debug, Default)]
pub(crate) struct FaultHook {
    #[cfg(any(test, feature = "fault-injection"))]
    plan: Mutex<Option<(FaultSite, Arc<FaultPlan>)>>,
}

#[cfg(any(test, feature = "fault-injection"))]
impl FaultHook {
    /// Installs (or clears) `plan`, consuming one `site` step per persist.
    pub(crate) fn set(&self, site: FaultSite, plan: Option<Arc<FaultPlan>>) {
        *self.plan.lock().expect("fault lock poisoned") = plan.map(|p| (site, p));
    }

    fn take(&self) -> Option<Fault> {
        let plan = self.plan.lock().expect("fault lock poisoned");
        plan.as_ref().and_then(|(site, plan)| plan.take(*site))
    }
}

/// The sibling temp file `path` is written through: the full file name
/// with `.tmp` appended, so no target is ever its own temp file and no two
/// targets in one directory share one.
pub(crate) fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Replaces `path` with `body` by the crash-durable sequence in the module
/// docs.
///
/// Under fault injection one step of the hook's site is consumed per call;
/// `CrashAt(step)` aborts immediately before the named step, exactly as
/// `kill -9` at that instant would.
#[cfg_attr(not(any(test, feature = "fault-injection")), allow(unused_variables))]
pub(crate) fn persist(path: &Path, body: &str, faults: &FaultHook) -> Result<(), PersistFailure> {
    let fail = |durable: bool| {
        move |e: std::io::Error| PersistFailure {
            durable,
            error: format!("{}: {e}", path.display()),
        }
    };
    let tmp = temp_path(path);

    #[cfg(any(test, feature = "fault-injection"))]
    let fault = faults.take();
    #[cfg(any(test, feature = "fault-injection"))]
    let crash = |step: LedgerStep| match fault {
        Some(Fault::CrashAt(s)) if s == step => Err(PersistFailure {
            durable: step == LedgerStep::SyncDir,
            error: format!("injected crash before {step:?}"),
        }),
        _ => Ok(()),
    };
    #[cfg(any(test, feature = "fault-injection"))]
    {
        crash(LedgerStep::WriteTmp)?;
        let injected = |error: &str| Err(PersistFailure { durable: false, error: error.into() });
        match fault {
            Some(Fault::Fail) => return injected("injected persist failure"),
            Some(Fault::ShortWrite) => {
                // Die halfway through writing the temp file: the target is
                // untouched, the temp file is torn garbage.
                let _ = std::fs::write(&tmp, &body.as_bytes()[..body.len() / 2]);
                return injected("injected crash mid temp-file write");
            }
            _ => {}
        }
    }

    let mut file = File::create(&tmp).map_err(fail(false))?;
    file.write_all(body.as_bytes()).map_err(fail(false))?;
    #[cfg(any(test, feature = "fault-injection"))]
    crash(LedgerStep::SyncTmp)?;
    file.sync_all().map_err(fail(false))?;
    drop(file);
    #[cfg(any(test, feature = "fault-injection"))]
    crash(LedgerStep::Rename)?;
    std::fs::rename(&tmp, path).map_err(fail(false))?;
    #[cfg(any(test, feature = "fault-injection"))]
    crash(LedgerStep::SyncDir)?;

    // Make the rename itself durable. A failure here is flagged durable: the
    // file already holds the new state, so callers must keep the mutation
    // (dropping a debit would un-spend recorded ε).
    #[cfg(unix)]
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        File::open(parent).and_then(|dir| dir.sync_all()).map_err(fail(true))?;
    }
    Ok(())
}

/// Renders the sealed file text for `payload` under `key`.
pub(crate) fn seal(format: &str, key: &str, payload: Json) -> String {
    let crc = crc32(payload.to_string_compact().expect("payload is finite").as_bytes());
    Json::object(vec![
        ("format", Json::String(format.to_string())),
        ("crc", Json::String(format!("{crc:08x}"))),
        (key, payload),
    ])
    .to_string_pretty()
    .expect("payload is finite")
}

/// Parses a sealed file, checks its format id and CRC, and returns the
/// payload under `key`. A mismatch is an error, never a guess: a corrupt
/// ledger or journal must not be silently reset or patched.
pub(crate) fn unseal(text: &str, format: &str, key: &str) -> Result<Json, String> {
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    match json.get("format").and_then(Json::as_str) {
        Some(found) if found == format => {}
        other => return Err(format!("unsupported format {other:?}, expected `{format}`")),
    }
    let stored = json.get("crc").and_then(Json::as_str).ok_or("missing `crc`")?.to_string();
    let Json::Object(fields) = json else { unreachable!("only objects have a `format` field") };
    let payload = fields
        .into_iter()
        .find_map(|(name, value)| (name == key).then_some(value))
        .ok_or_else(|| format!("missing `{key}`"))?;
    // Parsing keeps key order and f64s print their shortest round-trip
    // form, so the compact re-rendering is exactly what was hashed.
    let expected =
        format!("{:08x}", crc32(payload.to_string_compact().expect("parsed").as_bytes()));
    if stored != expected {
        return Err(format!(
            "crc mismatch: file says {stored}, `{key}` hashes to {expected} \
             (corrupt file; refusing to guess at its contents)"
        ));
    }
    Ok(payload)
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), bitwise — the files are
/// rewritten per mutation, not per byte, so a lookup table would be wasted
/// space.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn temp_path_appends_to_the_full_file_name() {
        assert_eq!(temp_path(Path::new("d/ledger.json")), Path::new("d/ledger.json.tmp"));
        assert_eq!(temp_path(Path::new("state.tmp")), Path::new("state.tmp.tmp"));
        assert_ne!(temp_path(Path::new("a.json")), temp_path(Path::new("a.bin")));
    }
}
