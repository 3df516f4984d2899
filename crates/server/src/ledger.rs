//! The per-tenant privacy-budget ledger.
//!
//! Every tenant owns one [`PrivacyBudget`]; endpoints that *fit* models
//! debit ε from it atomically (check + spend under one lock, so two racing
//! requests can never jointly overspend), while synthesis from an already
//! released model is post-processing and costs nothing. A rejected charge
//! leaves the ledger byte-for-byte unchanged — the structured
//! [`LedgerError::Exhausted`] carries the requested and remaining amounts so
//! the serving layer can surface them to the caller.
//!
//! With a persistence path configured, every mutation rewrites the ledger
//! file (CRC-sealed `privbayes-ledger/2` JSON via `privbayes-model`'s
//! budget IO), and construction restores it, so accounting survives
//! restarts exactly: budgets round-trip bit-for-bit.
//!
//! Persistence is crash-durable, not just atomic (see `durable`): a power
//! loss at *any* instant leaves the file as either the complete old state
//! or the complete new one. A charge is only reported as spent once the
//! rename has landed — a ledger that forgets a debit would let a tenant
//! re-spend ε and silently void the DP guarantee. The fault-injection
//! tests kill the persist sequence at every step and prove the reloaded
//! ledger is always pre- or post-mutation.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, TryLockError};

use privbayes_dp::{DpError, PrivacyBudget};
use privbayes_model::{budget_from_json, budget_to_json, Json};
use privbayes_obs::{Counter, Histogram};

use crate::durable::{self, FaultHook, PersistFailure};
use crate::error::ServerError;
#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::{FaultPlan, FaultSite};
use crate::registry::validate_id;
use std::sync::Arc;

/// The ledger file format: a `tenants` object sealed with a CRC-32 over
/// its compact rendering, so bit rot (or a torn write that still parses as
/// JSON) is detected at startup instead of silently mis-accounting ε.
pub const LEDGER_FORMAT_V2: &str = "privbayes-ledger/2";

/// Default number of lock stripes the tenant map is sharded into. Tenants
/// hash to stripes, so operations on distinct tenants contend only when
/// they collide — the check+spend hot path no longer serialises the whole
/// ledger behind one mutex.
pub const DEFAULT_LEDGER_STRIPES: usize = 8;

/// Structured failures from ledger operations.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerError {
    /// The tenant has never been registered.
    UnknownTenant(String),
    /// The charge would exceed the tenant's remaining budget. State is
    /// unchanged.
    Exhausted {
        /// The tenant involved.
        tenant: String,
        /// ε requested by the rejected operation.
        requested: f64,
        /// ε still available to the tenant.
        remaining: f64,
    },
    /// The amount itself was invalid (non-positive or non-finite).
    InvalidAmount(String),
    /// The ledger file could not be written; the in-memory state was rolled
    /// back, so nothing was spent.
    Persistence(String),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::UnknownTenant(t) => write!(f, "unknown tenant `{t}`"),
            LedgerError::Exhausted { tenant, requested, remaining } => write!(
                f,
                "tenant `{tenant}` budget exhausted: requested {requested}, remaining {remaining}"
            ),
            LedgerError::InvalidAmount(msg) => write!(f, "invalid amount: {msg}"),
            LedgerError::Persistence(msg) => write!(f, "ledger persistence failed: {msg}"),
        }
    }
}

impl std::error::Error for LedgerError {}

/// One row of a ledger snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantBudget {
    /// Tenant name.
    pub tenant: String,
    /// Total ε granted.
    pub total: f64,
    /// ε spent so far.
    pub spent: f64,
}

impl TenantBudget {
    /// ε still available.
    #[must_use]
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }
}

/// Observability handles consulted on every persist attempt (see
/// [`BudgetLedger::set_observer`]). The handles are shared `Arc`s into a
/// metric registry, so recording is one relaxed atomic add each — nothing
/// here can fail or slow the durability path.
#[derive(Debug, Clone)]
pub struct LedgerObserver {
    /// Persist wall time (write temp, fsync, rename, directory sync).
    pub persist_seconds: Arc<Histogram>,
    /// Persists that completed cleanly.
    pub ok: Arc<Counter>,
    /// Persists that failed before the rename (mutation rolled back).
    pub rolled_back: Arc<Counter>,
    /// Persists where the rename landed but the directory sync failed
    /// (mutation kept — the file already holds the new state).
    pub durable_failure: Arc<Counter>,
    /// One counter per lock stripe, bumped when an acquisition found its
    /// stripe already held. Empty (or shorter than the stripe count) simply
    /// disables recording for the uncovered stripes.
    pub stripe_contention: Vec<Arc<Counter>>,
}

/// A thread-safe map from tenant name to privacy budget, optionally backed
/// by a JSON file.
///
/// The map is sharded into lock stripes keyed by tenant hash: check/charge
/// on distinct tenants run in parallel, while check+spend on one tenant
/// stays atomic inside its stripe. Persisted ledgers additionally serialise
/// *mutations* behind a single `persist_lock` (taken before any stripe
/// lock), so the file always renders from a consistent whole-ledger state —
/// read-only operations never touch it.
#[derive(Debug)]
pub struct BudgetLedger {
    stripes: Vec<Mutex<BTreeMap<String, PrivacyBudget>>>,
    /// Held (before any stripe lock) for the whole mutate+persist sequence
    /// of file-backed ledgers. Lock order `persist_lock → stripes` is
    /// global, and pure readers take a single stripe only, so no cycle
    /// exists.
    persist_lock: Mutex<()>,
    path: Option<PathBuf>,
    observer: Mutex<Option<LedgerObserver>>,
    faults: FaultHook,
}

impl BudgetLedger {
    /// An empty, purely in-memory ledger with the default stripe count.
    #[must_use]
    pub fn in_memory() -> Self {
        Self::in_memory_striped(DEFAULT_LEDGER_STRIPES)
    }

    /// An empty, purely in-memory ledger sharded into `stripes` locks.
    #[must_use]
    pub fn in_memory_striped(stripes: usize) -> Self {
        Self::build(BTreeMap::new(), None, stripes)
    }

    fn build(
        tenants: BTreeMap<String, PrivacyBudget>,
        path: Option<PathBuf>,
        stripes: usize,
    ) -> Self {
        let stripes = stripes.max(1);
        let ledger = Self {
            stripes: (0..stripes).map(|_| Mutex::new(BTreeMap::new())).collect(),
            persist_lock: Mutex::new(()),
            path,
            observer: Mutex::new(None),
            faults: FaultHook::default(),
        };
        for (name, budget) in tenants {
            let index = ledger.stripe_of(&name);
            ledger.stripes[index].lock().expect("fresh stripe lock").insert(name, budget);
        }
        ledger
    }

    /// The number of lock stripes (fixed at construction).
    #[must_use]
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe a tenant hashes to (FNV-1a over the name).
    fn stripe_of(&self, tenant: &str) -> usize {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in tenant.as_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        (hash % self.stripes.len() as u64) as usize
    }

    /// Locks one stripe, recording contention when the lock was already
    /// held (the counter lookup runs only on the contended path, so the
    /// fast path stays one uncontended `try_lock`).
    fn lock_stripe(&self, index: usize) -> MutexGuard<'_, BTreeMap<String, PrivacyBudget>> {
        match self.stripes[index].try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                if let Some(obs) = self.observer.lock().expect("observer lock poisoned").as_ref() {
                    if let Some(counter) = obs.stripe_contention.get(index) {
                        counter.inc();
                    }
                }
                self.stripes[index].lock().expect("ledger stripe lock poisoned")
            }
            Err(TryLockError::Poisoned(_)) => panic!("ledger stripe lock poisoned"),
        }
    }

    /// The persist guard for mutators: file-backed ledgers serialise all
    /// mutations so the rendered file is always a consistent merge;
    /// in-memory ledgers skip it and mutate fully striped.
    fn mutation_guard(&self) -> Option<MutexGuard<'_, ()>> {
        self.path.as_ref().map(|_| self.persist_lock.lock().expect("persist lock poisoned"))
    }

    /// A consistent clone of the whole ledger, with `held` standing in for
    /// stripe `held_index` (already locked by the caller). Only called with
    /// the persist lock held, so no other mutation can interleave between
    /// the per-stripe reads.
    fn merged_with(
        &self,
        held_index: usize,
        held: &BTreeMap<String, PrivacyBudget>,
    ) -> BTreeMap<String, PrivacyBudget> {
        let mut all = BTreeMap::new();
        for (j, stripe) in self.stripes.iter().enumerate() {
            if j == held_index {
                all.extend(held.iter().map(|(k, v)| (k.clone(), v.clone())));
            } else {
                let guard = stripe.lock().expect("ledger stripe lock poisoned");
                all.extend(guard.iter().map(|(k, v)| (k.clone(), v.clone())));
            }
        }
        all
    }

    /// Installs (or clears) the persist-observability handles. The server
    /// wires these to its metric registry at bind time; a ledger used
    /// standalone records nothing.
    pub fn set_observer(&self, observer: Option<LedgerObserver>) {
        *self.observer.lock().expect("observer lock poisoned") = observer;
    }

    /// Installs (or clears) a fault plan consulted on every persist
    /// attempt. Test-only: absent from release builds.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        self.faults.set(FaultSite::LedgerPersist, plan);
    }

    /// A ledger persisted at `path`. If the file exists it is restored;
    /// otherwise the ledger starts empty and the file is created on the
    /// first mutation.
    ///
    /// # Errors
    /// Returns [`ServerError::Ledger`] if an existing file cannot be read or
    /// parsed (a corrupt ledger must never be silently reset — that would
    /// forget spending).
    pub fn with_persistence(path: impl Into<PathBuf>) -> Result<Self, ServerError> {
        Self::with_persistence_striped(path, DEFAULT_LEDGER_STRIPES)
    }

    /// Like [`BudgetLedger::with_persistence`], with an explicit stripe
    /// count.
    ///
    /// # Errors
    /// As [`BudgetLedger::with_persistence`].
    pub fn with_persistence_striped(
        path: impl Into<PathBuf>,
        stripes: usize,
    ) -> Result<Self, ServerError> {
        let path = path.into();
        let tenants = if path.exists() {
            std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| Self::parse(&text))
                .map_err(|e| ServerError::Ledger(format!("{}: {e}", path.display())))?
        } else {
            BTreeMap::new()
        };
        Ok(Self::build(tenants, Some(path), stripes))
    }

    fn parse(text: &str) -> Result<BTreeMap<String, PrivacyBudget>, String> {
        let payload = durable::unseal(text, LEDGER_FORMAT_V2, "tenants")?;
        let fields = payload.as_object().ok_or("`tenants` is not an object")?;
        let mut tenants = BTreeMap::new();
        for (name, value) in fields {
            let budget = budget_from_json(value).map_err(|e| format!("tenant `{name}`: {e}"))?;
            tenants.insert(name.clone(), budget);
        }
        Ok(tenants)
    }

    fn render(tenants: &BTreeMap<String, PrivacyBudget>) -> String {
        let fields = tenants.iter().map(|(name, b)| (name.clone(), budget_to_json(b))).collect();
        durable::seal(LEDGER_FORMAT_V2, "tenants", Json::Object(fields))
    }

    /// Persists under the lock so file contents always match a consistent
    /// in-memory state, recording the attempt on the observer. Under fault
    /// injection one [`FaultSite::LedgerPersist`] step is consumed per call.
    fn persist(
        &self,
        tenants: &BTreeMap<String, PrivacyBudget>,
        path: &Path,
    ) -> Result<(), PersistFailure> {
        let started = std::time::Instant::now();
        let result = durable::persist(path, &Self::render(tenants), &self.faults);
        if let Some(obs) = self.observer.lock().expect("observer lock poisoned").as_ref() {
            obs.persist_seconds.observe(started.elapsed());
            match &result {
                Ok(()) => obs.ok.inc(),
                Err(f) if f.durable => obs.durable_failure.inc(),
                Err(_) => obs.rolled_back.inc(),
            }
        }
        result
    }

    /// Registers `tenant` with a total budget of `total` ε. Re-registering
    /// an existing tenant is rejected — it would reset spending.
    ///
    /// # Errors
    /// Returns [`ServerError::Protocol`] for an invalid name or amount,
    /// [`ServerError::Conflict`] if the tenant already exists, and
    /// [`ServerError::Ledger`] if persistence fails (the in-memory insert is
    /// rolled back, so memory and file stay in sync).
    pub fn register(&self, tenant: &str, total: f64) -> Result<(), ServerError> {
        validate_id(tenant)?;
        let budget = PrivacyBudget::new(total).map_err(|e| ServerError::Protocol(e.to_string()))?;
        let _mutation = self.mutation_guard();
        let index = self.stripe_of(tenant);
        let mut stripe = self.lock_stripe(index);
        if stripe.contains_key(tenant) {
            return Err(ServerError::Conflict(format!("tenant `{tenant}` is already registered")));
        }
        stripe.insert(tenant.to_string(), budget);
        if let Some(path) = &self.path {
            let merged = self.merged_with(index, &stripe);
            if let Err(f) = self.persist(&merged, path) {
                if !f.durable {
                    stripe.remove(tenant);
                    return Err(ServerError::Ledger(f.error));
                }
            }
        }
        Ok(())
    }

    /// Non-consuming probe: would a charge of `epsilon` against `tenant`
    /// succeed right now?
    ///
    /// # Errors
    /// The same [`LedgerError`]s as [`BudgetLedger::charge`], without any
    /// state change either way.
    pub fn check(&self, tenant: &str, epsilon: f64) -> Result<(), LedgerError> {
        let stripe = self.lock_stripe(self.stripe_of(tenant));
        let budget =
            stripe.get(tenant).ok_or_else(|| LedgerError::UnknownTenant(tenant.to_string()))?;
        map_dp_error(budget.check(epsilon), tenant, budget)
    }

    /// Atomically debits `epsilon` from `tenant`, returning the remaining
    /// budget. On any error the ledger (and its file) is unchanged: a
    /// persistence failure rolls the in-memory debit back and is reported as
    /// [`LedgerError::Persistence`], so memory and file never disagree and a
    /// charge is only considered spent once it is durably recorded.
    ///
    /// # Errors
    /// [`LedgerError::UnknownTenant`] for an unregistered tenant,
    /// [`LedgerError::Exhausted`] if the charge exceeds the remainder,
    /// [`LedgerError::InvalidAmount`] for non-positive ε, and
    /// [`LedgerError::Persistence`] if the ledger file cannot be written.
    pub fn charge(&self, tenant: &str, epsilon: f64) -> Result<f64, LedgerError> {
        let _mutation = self.mutation_guard();
        let index = self.stripe_of(tenant);
        let mut stripe = self.lock_stripe(index);
        let budget =
            stripe.get_mut(tenant).ok_or_else(|| LedgerError::UnknownTenant(tenant.to_string()))?;
        map_dp_error(budget.consume(epsilon), tenant, budget)?;
        let remaining = budget.remaining();
        if let Some(path) = &self.path {
            let merged = self.merged_with(index, &stripe);
            if let Err(f) = self.persist(&merged, path) {
                if !f.durable {
                    // Never hand out budget that is not durably recorded.
                    stripe.get_mut(tenant).expect("present above").refund(epsilon);
                    return Err(LedgerError::Persistence(f.error));
                }
                // Rename landed: the debit is on disk, keep it.
            }
        }
        Ok(remaining)
    }

    /// Returns `epsilon` to `tenant` — compensation when an operation was
    /// charged but failed before touching sensitive data. Unknown tenants
    /// are ignored, and a persistence failure undoes the in-memory refund
    /// (the tenant keeps the spend — the conservative direction for a
    /// privacy ledger): the refund path runs on error paths and must not
    /// introduce new failures, only stay consistent.
    pub fn refund(&self, tenant: &str, epsilon: f64) {
        let _mutation = self.mutation_guard();
        let index = self.stripe_of(tenant);
        let mut stripe = self.lock_stripe(index);
        if let Some(budget) = stripe.get_mut(tenant) {
            budget.refund(epsilon);
            if let Some(path) = &self.path {
                let merged = self.merged_with(index, &stripe);
                if let Err(f) = self.persist(&merged, path) {
                    if !f.durable {
                        let _ = stripe.get_mut(tenant).expect("present above").consume(epsilon);
                    }
                }
            }
        }
    }

    /// The tenant's current budget, if registered.
    #[must_use]
    pub fn budget(&self, tenant: &str) -> Option<TenantBudget> {
        let stripe = self.lock_stripe(self.stripe_of(tenant));
        stripe.get(tenant).map(|b| TenantBudget {
            tenant: tenant.to_string(),
            total: b.total(),
            spent: b.spent(),
        })
    }

    /// All tenants, sorted by name. Stripes are visited one at a time, so
    /// a snapshot racing a mutation sees that tenant either before or
    /// after — per-tenant rows are always internally consistent.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TenantBudget> {
        let mut rows: Vec<TenantBudget> = Vec::new();
        for stripe in &self.stripes {
            let guard = stripe.lock().expect("ledger stripe lock poisoned");
            rows.extend(guard.iter().map(|(name, b)| TenantBudget {
                tenant: name.clone(),
                total: b.total(),
                spent: b.spent(),
            }));
        }
        rows.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        rows
    }
}

/// Translates a [`DpError`] into the tenant-scoped ledger error.
fn map_dp_error(
    result: Result<(), DpError>,
    tenant: &str,
    budget: &PrivacyBudget,
) -> Result<(), LedgerError> {
    result.map_err(|e| match e {
        DpError::BudgetExhausted { requested, .. } => LedgerError::Exhausted {
            tenant: tenant.to_string(),
            requested,
            remaining: budget.remaining(),
        },
        DpError::InvalidParameter(msg) => LedgerError::InvalidAmount(msg),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("privbayes-ledger-{tag}-{}.json", std::process::id()))
    }

    #[test]
    fn charge_and_check_share_the_boundary() {
        let ledger = BudgetLedger::in_memory();
        ledger.register("acme", 1.0).unwrap();
        ledger.charge("acme", 0.4).unwrap();
        assert!(ledger.check("acme", 0.6).is_ok(), "exactly the remainder passes");
        assert!(matches!(ledger.check("acme", 0.7), Err(LedgerError::Exhausted { .. })));
        let before = ledger.budget("acme").unwrap();
        let err = ledger.charge("acme", 0.7).unwrap_err();
        assert!(matches!(err, LedgerError::Exhausted { ref tenant, .. } if tenant == "acme"));
        assert_eq!(ledger.budget("acme").unwrap(), before, "rejected charge must not mutate");
        // Spending exactly the remainder drains the budget.
        let remaining = ledger.charge("acme", 0.6).unwrap();
        assert!(remaining < 1e-9);
    }

    #[test]
    fn tenants_are_isolated() {
        let ledger = BudgetLedger::in_memory();
        ledger.register("a", 1.0).unwrap();
        ledger.register("b", 2.0).unwrap();
        ledger.charge("a", 1.0).unwrap();
        assert!(matches!(ledger.charge("a", 0.1), Err(LedgerError::Exhausted { .. })));
        assert!(ledger.charge("b", 0.1).is_ok(), "tenant b is unaffected");
        assert!(matches!(ledger.charge("nobody", 0.1), Err(LedgerError::UnknownTenant(_))));
    }

    #[test]
    fn refund_compensates_failed_operations() {
        let ledger = BudgetLedger::in_memory();
        ledger.register("t", 1.0).unwrap();
        ledger.charge("t", 0.8).unwrap();
        ledger.refund("t", 0.8);
        assert_eq!(ledger.budget("t").unwrap().spent, 0.0);
        ledger.refund("ghost", 1.0); // ignored, no panic
    }

    #[test]
    fn duplicate_registration_rejected() {
        let ledger = BudgetLedger::in_memory();
        ledger.register("t", 1.0).unwrap();
        ledger.charge("t", 0.5).unwrap();
        assert!(ledger.register("t", 9.0).is_err(), "re-registering would reset spending");
        assert_eq!(ledger.budget("t").unwrap().total, 1.0);
        assert!(ledger.register("bad name", 1.0).is_err());
        assert!(ledger.register("x", 0.0).is_err());
    }

    #[test]
    fn persistence_round_trips_exactly() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let ledger = BudgetLedger::with_persistence(&path).unwrap();
            ledger.register("acme", 1.6).unwrap();
            ledger.register("globex", 0.5).unwrap();
            ledger.charge("acme", 0.48).unwrap();
        }
        let restored = BudgetLedger::with_persistence(&path).unwrap();
        let rows = restored.snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].tenant, "acme");
        assert_eq!(rows[0].total.to_bits(), 1.6f64.to_bits());
        assert_eq!(rows[0].spent.to_bits(), 0.48f64.to_bits());
        assert_eq!(rows[1].tenant, "globex");
        assert_eq!(rows[1].spent, 0.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_ledger_file_is_rejected() {
        let path = temp_path("corrupt");
        std::fs::write(&path, "{not json").unwrap();
        assert!(BudgetLedger::with_persistence(&path).is_err());
        std::fs::write(&path, r#"{"format": "other/9", "tenants": {}}"#).unwrap();
        assert!(BudgetLedger::with_persistence(&path).is_err());
        // The unchecksummed v1 format is refused too, never guessed at.
        std::fs::write(&path, r#"{"format": "privbayes-ledger/1", "tenants": {}}"#).unwrap();
        assert!(BudgetLedger::with_persistence(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    /// A two-tenant ledger exactly as `privbayes-ledger/2` has always been
    /// written: existing files must keep loading, so these bytes are fixed.
    const PINNED_LEDGER: &str = r#"{
  "format": "privbayes-ledger/2",
  "crc": "5a7d1c1f",
  "tenants": {
    "acme": {
      "total": 1.6,
      "spent": 0.48
    },
    "globex": {
      "total": 0.5,
      "spent": 0
    }
  }
}
"#;

    #[test]
    fn writes_are_v2_with_crc() {
        let path = temp_path("v2");
        let _ = std::fs::remove_file(&path);
        let ledger = BudgetLedger::with_persistence(&path).unwrap();
        ledger.register("acme", 1.6).unwrap();
        ledger.register("globex", 0.5).unwrap();
        ledger.charge("acme", 0.48).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), PINNED_LEDGER);
        let restored = BudgetLedger::with_persistence(&path).unwrap();
        assert_eq!(restored.snapshot(), ledger.snapshot(), "pinned bytes load back exactly");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crc_mismatch_is_rejected() {
        let path = temp_path("crc-tamper");
        let _ = std::fs::remove_file(&path);
        {
            let ledger = BudgetLedger::with_persistence(&path).unwrap();
            ledger.register("acme", 2.0).unwrap();
            ledger.charge("acme", 0.5).unwrap();
        }
        // Flip the spent amount without updating the checksum — the kind of
        // corruption plain JSON parsing would happily accept.
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replace("0.5", "0.25");
        assert_ne!(text, tampered, "tamper target must exist");
        std::fs::write(&path, tampered).unwrap();
        let err = BudgetLedger::with_persistence(&path).unwrap_err();
        assert!(err.to_string().contains("crc mismatch"), "got: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn kill_at_every_persist_step_recovers_pre_or_post_state() {
        use crate::fault::{Fault, FaultPlan, FaultSite, LedgerStep};

        // (fault, does the mutation survive the crash?)
        let cases: &[(Fault, bool)] = &[
            (Fault::CrashAt(LedgerStep::WriteTmp), false),
            (Fault::ShortWrite, false),
            (Fault::CrashAt(LedgerStep::SyncTmp), false),
            (Fault::CrashAt(LedgerStep::Rename), false),
            (Fault::CrashAt(LedgerStep::SyncDir), true),
            (Fault::Fail, false),
        ];
        for (i, &(fault, survives)) in cases.iter().enumerate() {
            let path = temp_path(&format!("kill-{i}"));
            let _ = std::fs::remove_file(&path);
            let tmp = durable::temp_path(&path);
            let _ = std::fs::remove_file(&tmp);

            // Pre-state on disk: acme has spent 0.25 of 2.0.
            let ledger = BudgetLedger::with_persistence(&path).unwrap();
            ledger.register("acme", 2.0).unwrap();
            ledger.charge("acme", 0.25).unwrap();

            // The process "dies" at the injected step of the next persist.
            let plan = Arc::new(FaultPlan::new().inject(FaultSite::LedgerPersist, 0, fault));
            ledger.set_fault_plan(Some(plan));
            let charge = ledger.charge("acme", 0.25);
            drop(ledger);

            // Restart: the reloaded ledger must parse cleanly (never torn)
            // and hold exactly the pre- or post-mutation balance.
            let restored = BudgetLedger::with_persistence(&path)
                .unwrap_or_else(|e| panic!("case {i} ({fault:?}): torn ledger: {e}"));
            let spent = restored.budget("acme").unwrap().spent;
            let expected: f64 = if survives { 0.5 } else { 0.25 };
            assert_eq!(
                spent.to_bits(),
                expected.to_bits(),
                "case {i} ({fault:?}): expected spent {expected}, found {spent}"
            );
            // The in-memory result must agree with the disk outcome: a debit
            // is reported spent iff it is durably recorded.
            assert_eq!(
                charge.is_ok(),
                survives,
                "case {i} ({fault:?}): charge result disagrees with disk"
            );
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(&tmp);
        }
    }

    #[test]
    fn torn_tmp_file_never_bricks_startup() {
        use crate::fault::{Fault, FaultPlan, FaultSite};

        let path = temp_path("torn-tmp");
        let _ = std::fs::remove_file(&path);
        let ledger = BudgetLedger::with_persistence(&path).unwrap();
        ledger.register("acme", 1.0).unwrap();
        ledger.set_fault_plan(Some(Arc::new(FaultPlan::new().inject(
            FaultSite::LedgerPersist,
            0,
            Fault::ShortWrite,
        ))));
        assert!(matches!(ledger.charge("acme", 0.5), Err(LedgerError::Persistence(_))));
        drop(ledger);

        let tmp = durable::temp_path(&path);
        assert!(tmp.exists(), "the torn temp file is left behind, as after a real crash");
        // Restart ignores the garbage temp file and the next mutation
        // overwrites it.
        let restored = BudgetLedger::with_persistence(&path).unwrap();
        assert_eq!(restored.budget("acme").unwrap().spent, 0.0);
        restored.charge("acme", 0.5).unwrap();
        assert!(BudgetLedger::with_persistence(&path).is_ok());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&tmp);
    }

    #[test]
    fn a_ledger_named_tmp_is_never_its_own_temp_file() {
        use crate::fault::{Fault, FaultPlan, FaultSite, LedgerStep};

        let path =
            std::env::temp_dir().join(format!("privbayes-ledger-named-{}.tmp", std::process::id()));
        for fault in [Fault::ShortWrite, Fault::CrashAt(LedgerStep::SyncTmp)] {
            let _ = std::fs::remove_file(&path);
            let ledger = BudgetLedger::with_persistence(&path).unwrap();
            ledger.register("acme", 2.0).unwrap();
            ledger.charge("acme", 0.25).unwrap();
            let plan = FaultPlan::new().inject(FaultSite::LedgerPersist, 0, fault);
            ledger.set_fault_plan(Some(Arc::new(plan)));
            assert!(ledger.charge("acme", 0.25).is_err());
            drop(ledger);
            // The crash hit the temp file only: the live ledger still holds
            // the pre-mutation balance.
            let restored = BudgetLedger::with_persistence(&path)
                .unwrap_or_else(|e| panic!("{fault:?}: torn ledger: {e}"));
            let spent = restored.budget("acme").unwrap().spent;
            assert_eq!(spent.to_bits(), 0.25f64.to_bits(), "{fault:?}: found spent {spent}");
            let _ = std::fs::remove_file(durable::temp_path(&path));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn striped_concurrent_charges_account_exactly() {
        // Hammer every stripe count from degenerate to oversized: N threads
        // × K charges per tenant must land on exactly K·ε spent each —
        // striping must never lose or double-apply a debit.
        for stripes in [1usize, 2, 8, 64] {
            let ledger = Arc::new(BudgetLedger::in_memory_striped(stripes));
            let tenants: Vec<String> = (0..6).map(|i| format!("tenant-{i}")).collect();
            for t in &tenants {
                ledger.register(t, 10.0).unwrap();
            }
            std::thread::scope(|scope| {
                for t in &tenants {
                    let ledger = Arc::clone(&ledger);
                    scope.spawn(move || {
                        for _ in 0..50 {
                            ledger.charge(t, 0.125).unwrap();
                        }
                    });
                }
            });
            for t in &tenants {
                let spent = ledger.budget(t).unwrap().spent;
                assert_eq!(
                    spent.to_bits(),
                    6.25f64.to_bits(),
                    "stripes={stripes} tenant={t}: expected 6.25 spent, got {spent}"
                );
            }
            assert_eq!(ledger.snapshot().len(), tenants.len());
        }
    }

    #[test]
    fn striped_persistence_round_trips_every_tenant() {
        // Tenants scattered over stripes must all land in one consistent
        // file, and reload back into the right stripes.
        let path = temp_path("striped");
        let _ = std::fs::remove_file(&path);
        {
            let ledger = BudgetLedger::with_persistence_striped(&path, 4).unwrap();
            for i in 0..10 {
                ledger.register(&format!("t{i}"), 1.0 + f64::from(i)).unwrap();
            }
            ledger.charge("t3", 0.5).unwrap();
            ledger.charge("t7", 0.25).unwrap();
        }
        // Reload under a *different* stripe count: the file format is
        // stripe-agnostic.
        let restored = BudgetLedger::with_persistence_striped(&path, 16).unwrap();
        assert_eq!(restored.snapshot().len(), 10);
        assert_eq!(restored.budget("t3").unwrap().spent.to_bits(), 0.5f64.to_bits());
        assert_eq!(restored.budget("t7").unwrap().spent.to_bits(), 0.25f64.to_bits());
        assert_eq!(restored.budget("t0").unwrap().spent, 0.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_reports_remaining() {
        let ledger = BudgetLedger::in_memory();
        ledger.register("t", 2.0).unwrap();
        ledger.charge("t", 0.5).unwrap();
        let row = ledger.budget("t").unwrap();
        assert!((row.remaining() - 1.5).abs() < 1e-12);
    }
}
