//! Multi-tenant admission control for the coordination layer.
//!
//! The network front-end (and any other multi-user entry point) treats
//! the *owner* string of a submission as belonging to a **tenant**: the
//! prefix before the first `/`, or the whole owner when it has none
//! (so `acme/alice` and `acme/bob` share the tenant `acme`, while the
//! classic single-word owners of the in-process API are each their own
//! tenant). A [`TenantRegistry`] installed on a coordinator via
//! `set_tenant_registry` is consulted **before registration**: a
//! submission that would exceed its tenant's quotas is rejected with
//! [`CoreError::QuotaExceeded`] without allocating a query id or
//! writing a WAL frame.
//!
//! Three quotas are enforced per tenant ([`TenantQuotas`]):
//!
//! * `max_in_flight` — concurrent pending (registered, unanswered)
//!   queries;
//! * `max_standing` — the subset of those with **no deadline**, which
//!   the sweeper can never reap;
//! * a submit-rate token bucket (`rate_burst` capacity, `rate_per_sec`
//!   refill) charged one token per accepted submission.
//!
//! Accounting: per-tenant counters are plain atomics bumped on the
//! submit/terminate paths and read lock-free by
//! [`TenantRegistry::stats`], so the ledger
//!
//! ```text
//! submitted == answered + cancelled + expired + aborted + in_flight
//! ```
//!
//! holds at every quiescent point. `aborted` counts admissions rolled
//! back because the WAL append that would have made the registration
//! durable failed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{CoreError, CoreResult};
use crate::ir::QueryId;
use crate::lifecycle::{Clock, SystemClock};

/// The tenant an owner string belongs to: the prefix before the first
/// `/`, or the whole owner when it contains none.
pub fn tenant_of(owner: &str) -> &str {
    owner.split('/').next().unwrap_or(owner)
}

/// Per-tenant admission quotas. The default is unlimited, so
/// installing a registry without configuring a tenant changes nothing
/// for it beyond accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuotas {
    /// Maximum concurrent pending queries.
    pub max_in_flight: usize,
    /// Maximum concurrent pending queries **without a deadline**.
    pub max_standing: usize,
    /// Token-bucket capacity: how many submissions a tenant may burst
    /// before the refill rate gates it.
    pub rate_burst: u64,
    /// Token-bucket refill rate in submissions per second. `0` means
    /// the bucket never refills — the burst is a hard lifetime cap
    /// (useful with a [`crate::MockClock`], where time never advances
    /// on its own).
    pub rate_per_sec: u64,
}

impl Default for TenantQuotas {
    fn default() -> Self {
        TenantQuotas::unlimited()
    }
}

impl TenantQuotas {
    /// No limits: every submission is admitted (but still counted).
    pub fn unlimited() -> Self {
        TenantQuotas {
            max_in_flight: usize::MAX,
            max_standing: usize::MAX,
            rate_burst: u64::MAX,
            rate_per_sec: 0,
        }
    }
}

/// How a tracked query left the pending set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantOutcome {
    /// Answered as part of a committed coordination group.
    Answered,
    /// Cancelled by the owner (or an owner-wide cancel).
    Cancelled,
    /// Reaped by the deadline sweeper.
    Expired,
    /// Rolled back before registration became durable (WAL append
    /// failed after admission).
    Aborted,
}

/// A lock-free snapshot of one tenant's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant name (owner prefix).
    pub tenant: String,
    /// Quotas in force for this tenant.
    pub quotas: TenantQuotas,
    /// Submissions admitted (including ones since terminated).
    pub submitted: u64,
    /// Admitted queries answered.
    pub answered: u64,
    /// Admitted queries cancelled.
    pub cancelled: u64,
    /// Admitted queries expired by the sweeper.
    pub expired: u64,
    /// Admitted queries rolled back on WAL-append failure.
    pub aborted: u64,
    /// Submissions rejected by a quota (not counted in `submitted`).
    pub rejected: u64,
    /// Currently pending queries.
    pub in_flight: usize,
    /// Currently pending queries without a deadline.
    pub standing: usize,
}

/// Token bucket in milli-tokens (integer arithmetic, no floats):
/// `rate_per_sec` tokens/second is exactly `rate_per_sec`
/// milli-tokens/millisecond.
#[derive(Debug)]
struct TokenBucket {
    milli_tokens: u64,
    last_refill_millis: u64,
}

#[derive(Debug)]
struct TenantSlot {
    quotas: TenantQuotas,
    in_flight: AtomicUsize,
    standing: AtomicUsize,
    submitted: AtomicU64,
    answered: AtomicU64,
    cancelled: AtomicU64,
    expired: AtomicU64,
    aborted: AtomicU64,
    rejected: AtomicU64,
    bucket: Mutex<TokenBucket>,
}

impl TenantSlot {
    fn new(quotas: TenantQuotas, now_millis: u64) -> Self {
        TenantSlot {
            quotas,
            in_flight: AtomicUsize::new(0),
            standing: AtomicUsize::new(0),
            submitted: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            bucket: Mutex::new(TokenBucket {
                milli_tokens: quotas.rate_burst.saturating_mul(1000),
                last_refill_millis: now_millis,
            }),
        }
    }

    /// Refills by elapsed wall time, then tries to take one token.
    fn take_token(&self, now_millis: u64) -> bool {
        let cap = self.quotas.rate_burst.saturating_mul(1000);
        let mut bucket = self.bucket.lock();
        let elapsed = now_millis.saturating_sub(bucket.last_refill_millis);
        bucket.last_refill_millis = now_millis;
        bucket.milli_tokens = bucket
            .milli_tokens
            .saturating_add(elapsed.saturating_mul(self.quotas.rate_per_sec))
            .min(cap);
        if bucket.milli_tokens >= 1000 {
            bucket.milli_tokens -= 1000;
            true
        } else {
            false
        }
    }

    fn stats(&self, tenant: &str) -> TenantStats {
        TenantStats {
            tenant: tenant.to_string(),
            quotas: self.quotas,
            submitted: self.submitted.load(Ordering::Acquire),
            answered: self.answered.load(Ordering::Acquire),
            cancelled: self.cancelled.load(Ordering::Acquire),
            expired: self.expired.load(Ordering::Acquire),
            aborted: self.aborted.load(Ordering::Acquire),
            rejected: self.rejected.load(Ordering::Acquire),
            in_flight: self.in_flight.load(Ordering::Acquire),
            standing: self.standing.load(Ordering::Acquire),
        }
    }
}

/// A successful admission, holding its tenant's reserved capacity.
///
/// The coordinator converts it into tracked state with
/// [`TenantRegistry::track`] once the registration is durably logged;
/// dropping it unconsumed (the WAL append failed, so the query never
/// existed) releases the reservation and records the attempt as
/// `aborted`.
#[derive(Debug)]
#[must_use = "an unconsumed admission rolls its reservation back"]
pub struct Admission {
    slot: Option<Arc<TenantSlot>>,
    standing: bool,
}

impl Drop for Admission {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            slot.in_flight.fetch_sub(1, Ordering::AcqRel);
            if self.standing {
                slot.standing.fetch_sub(1, Ordering::AcqRel);
            }
            slot.aborted.fetch_add(1, Ordering::AcqRel);
        }
    }
}

#[derive(Debug)]
struct Track {
    slot: Arc<TenantSlot>,
    standing: bool,
}

#[derive(Debug, Default)]
struct Inner {
    tenants: HashMap<String, Arc<TenantSlot>>,
    tracked: HashMap<u64, Track>,
}

/// Admission control and per-tenant accounting shared by every
/// coordinator entry point. See the module docs for the model.
pub struct TenantRegistry {
    default_quotas: TenantQuotas,
    clock: Arc<dyn Clock>,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for TenantRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantRegistry")
            .field("default_quotas", &self.default_quotas)
            .finish_non_exhaustive()
    }
}

impl TenantRegistry {
    /// A registry on the system clock; tenants not explicitly
    /// configured get `default_quotas`.
    pub fn new(default_quotas: TenantQuotas) -> Arc<Self> {
        TenantRegistry::with_clock(default_quotas, Arc::new(SystemClock))
    }

    /// A registry on an injected clock (tests pair it with the
    /// coordinator's [`crate::MockClock`] so the token bucket and the
    /// deadline sweeper share one time domain).
    pub fn with_clock(default_quotas: TenantQuotas, clock: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(TenantRegistry {
            default_quotas,
            clock,
            inner: Mutex::new(Inner::default()),
        })
    }

    /// Overrides the quotas for one tenant. Existing reservations and
    /// counters are kept; only the limits change.
    pub fn set_quotas(&self, tenant: &str, quotas: TenantQuotas) {
        let now = self.clock.now_millis();
        let mut inner = self.inner.lock();
        let old = inner.tenants.get(tenant).cloned();
        // Rebuild the slot with the new limits, carrying the counters
        // over from the old one (if any).
        let fresh = TenantSlot::new(quotas, now);
        if let Some(old) = &old {
            for (dst, src) in [
                (&fresh.submitted, &old.submitted),
                (&fresh.answered, &old.answered),
                (&fresh.cancelled, &old.cancelled),
                (&fresh.expired, &old.expired),
                (&fresh.aborted, &old.aborted),
                (&fresh.rejected, &old.rejected),
            ] {
                dst.store(src.load(Ordering::Acquire), Ordering::Release);
            }
            fresh
                .in_flight
                .store(old.in_flight.load(Ordering::Acquire), Ordering::Release);
            fresh
                .standing
                .store(old.standing.load(Ordering::Acquire), Ordering::Release);
        }
        let fresh = Arc::new(fresh);
        if let Some(old) = &old {
            // Repoint tracked entries at the fresh slot so their
            // terminations decrement the live counters.
            for track in inner.tracked.values_mut() {
                if Arc::ptr_eq(&track.slot, old) {
                    track.slot = Arc::clone(&fresh);
                }
            }
        }
        inner.tenants.insert(tenant.to_string(), fresh);
    }

    fn slot_for(&self, inner: &mut Inner, tenant: &str) -> Arc<TenantSlot> {
        if let Some(slot) = inner.tenants.get(tenant) {
            return Arc::clone(slot);
        }
        let slot = Arc::new(TenantSlot::new(
            self.default_quotas,
            self.clock.now_millis(),
        ));
        inner.tenants.insert(tenant.to_string(), Arc::clone(&slot));
        Arc::clone(&slot)
    }

    /// Checks the owner's tenant against its quotas and, on success,
    /// reserves capacity for one pending query (`deadline` decides
    /// whether it counts against the standing cap). Call **before**
    /// allocating a query id so a rejected submission leaves no trace.
    pub fn admit(&self, owner: &str, deadline: Option<u64>) -> CoreResult<Admission> {
        let tenant = tenant_of(owner);
        let slot = {
            let mut inner = self.inner.lock();
            self.slot_for(&mut inner, tenant)
        };
        let standing = deadline.is_none();
        let reject = |reason: String| {
            slot.rejected.fetch_add(1, Ordering::AcqRel);
            Err(CoreError::QuotaExceeded {
                tenant: tenant.to_string(),
                reason,
            })
        };
        let in_flight = slot.in_flight.load(Ordering::Acquire);
        if in_flight >= slot.quotas.max_in_flight {
            return reject(format!(
                "in-flight limit {} reached",
                slot.quotas.max_in_flight
            ));
        }
        if standing && slot.standing.load(Ordering::Acquire) >= slot.quotas.max_standing {
            return reject(format!(
                "standing-query limit {} reached",
                slot.quotas.max_standing
            ));
        }
        if !slot.take_token(self.clock.now_millis()) {
            return reject(format!(
                "submit rate exceeded (burst {}, {}/s refill)",
                slot.quotas.rate_burst, slot.quotas.rate_per_sec
            ));
        }
        slot.in_flight.fetch_add(1, Ordering::AcqRel);
        if standing {
            slot.standing.fetch_add(1, Ordering::AcqRel);
        }
        slot.submitted.fetch_add(1, Ordering::AcqRel);
        Ok(Admission {
            slot: Some(slot),
            standing,
        })
    }

    /// Binds an admission to its durably-registered query id so a later
    /// [`finish`](TenantRegistry::finish) can release the reservation.
    pub fn track(&self, mut admission: Admission, qid: QueryId) {
        let slot = admission.slot.take().expect("admission already consumed");
        let standing = admission.standing;
        self.inner
            .lock()
            .tracked
            .insert(qid.0, Track { slot, standing });
    }

    /// Adopts an already-pending query (recovery, or a registry
    /// installed after submissions started) without quota checks.
    pub fn adopt(&self, owner: &str, qid: QueryId, deadline: Option<u64>) {
        let tenant = tenant_of(owner).to_string();
        let standing = deadline.is_none();
        let mut inner = self.inner.lock();
        if inner.tracked.contains_key(&qid.0) {
            return;
        }
        let slot = self.slot_for(&mut inner, &tenant);
        slot.in_flight.fetch_add(1, Ordering::AcqRel);
        if standing {
            slot.standing.fetch_add(1, Ordering::AcqRel);
        }
        slot.submitted.fetch_add(1, Ordering::AcqRel);
        inner.tracked.insert(qid.0, Track { slot, standing });
    }

    /// Releases the reservation held by `qid` and records how it
    /// terminated. Unknown ids (registered before the registry was
    /// installed, or already finished) are ignored.
    pub fn finish(&self, qid: QueryId, outcome: TenantOutcome) {
        let track = self.inner.lock().tracked.remove(&qid.0);
        let Some(Track { slot, standing }) = track else {
            return;
        };
        slot.in_flight.fetch_sub(1, Ordering::AcqRel);
        if standing {
            slot.standing.fetch_sub(1, Ordering::AcqRel);
        }
        let counter = match outcome {
            TenantOutcome::Answered => &slot.answered,
            TenantOutcome::Cancelled => &slot.cancelled,
            TenantOutcome::Expired => &slot.expired,
            TenantOutcome::Aborted => &slot.aborted,
        };
        counter.fetch_add(1, Ordering::AcqRel);
    }

    /// Snapshot of one tenant's counters, if it has ever been seen.
    pub fn tenant_stats(&self, tenant: &str) -> Option<TenantStats> {
        self.inner
            .lock()
            .tenants
            .get(tenant)
            .map(|slot| slot.stats(tenant))
    }

    /// Snapshots of every tenant, sorted by name.
    pub fn stats(&self) -> Vec<TenantStats> {
        let inner = self.inner.lock();
        let mut out: Vec<TenantStats> = inner
            .tenants
            .iter()
            .map(|(tenant, slot)| slot.stats(tenant))
            .collect();
        drop(inner);
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::MockClock;

    fn clocked(quotas: TenantQuotas) -> (Arc<TenantRegistry>, Arc<MockClock>) {
        let clock = Arc::new(MockClock::new(1_000));
        let reg = TenantRegistry::with_clock(quotas, clock.clone());
        (reg, clock)
    }

    #[test]
    fn tenant_prefix() {
        assert_eq!(tenant_of("acme/alice"), "acme");
        assert_eq!(tenant_of("acme/teams/a"), "acme");
        assert_eq!(tenant_of("kramer"), "kramer");
        assert_eq!(tenant_of(""), "");
    }

    #[test]
    fn in_flight_cap_enforced_and_released() {
        let (reg, _) = clocked(TenantQuotas {
            max_in_flight: 2,
            ..TenantQuotas::unlimited()
        });
        let a = reg.admit("t/a", Some(99)).unwrap();
        reg.track(a, QueryId(1));
        let b = reg.admit("t/b", Some(99)).unwrap();
        reg.track(b, QueryId(2));
        let err = reg.admit("t/c", Some(99)).unwrap_err();
        assert!(matches!(err, CoreError::QuotaExceeded { ref tenant, .. } if tenant == "t"));
        // Another tenant is unaffected.
        reg.track(reg.admit("other", Some(99)).unwrap(), QueryId(3));
        // Releasing one slot re-opens admission.
        reg.finish(QueryId(1), TenantOutcome::Answered);
        reg.track(reg.admit("t/c", Some(99)).unwrap(), QueryId(4));
        let s = reg.tenant_stats("t").unwrap();
        assert_eq!((s.submitted, s.answered, s.rejected), (3, 1, 1));
        assert_eq!(s.in_flight, 2);
    }

    #[test]
    fn standing_cap_only_counts_deadline_less() {
        let (reg, _) = clocked(TenantQuotas {
            max_standing: 1,
            ..TenantQuotas::unlimited()
        });
        reg.track(reg.admit("t", None).unwrap(), QueryId(1));
        // Deadline-bearing submissions pass the standing cap.
        reg.track(reg.admit("t", Some(5_000)).unwrap(), QueryId(2));
        let err = reg.admit("t", None).unwrap_err();
        assert!(err.to_string().contains("standing-query limit"));
        reg.finish(QueryId(1), TenantOutcome::Cancelled);
        reg.track(reg.admit("t", None).unwrap(), QueryId(3));
        let s = reg.tenant_stats("t").unwrap();
        assert_eq!(s.standing, 1);
        assert_eq!(s.in_flight, 2);
    }

    #[test]
    fn token_bucket_refills_with_clock() {
        let (reg, clock) = clocked(TenantQuotas {
            rate_burst: 2,
            rate_per_sec: 1,
            ..TenantQuotas::unlimited()
        });
        reg.track(reg.admit("t", Some(1)).unwrap(), QueryId(1));
        reg.track(reg.admit("t", Some(1)).unwrap(), QueryId(2));
        let err = reg.admit("t", Some(1)).unwrap_err();
        assert!(err.to_string().contains("submit rate"));
        // 1 token/s: after 1.5s exactly one more submission fits.
        clock.advance(1_500);
        reg.track(reg.admit("t", Some(1)).unwrap(), QueryId(3));
        assert!(reg.admit("t", Some(1)).is_err());
        let s = reg.tenant_stats("t").unwrap();
        assert_eq!((s.submitted, s.rejected), (3, 2));
    }

    #[test]
    fn dropped_admission_rolls_back_as_aborted() {
        let (reg, _) = clocked(TenantQuotas {
            max_in_flight: 1,
            ..TenantQuotas::unlimited()
        });
        let adm = reg.admit("t", None).unwrap();
        drop(adm); // WAL append failed — registration never happened
        let s = reg.tenant_stats("t").unwrap();
        assert_eq!((s.in_flight, s.standing), (0, 0));
        assert_eq!((s.submitted, s.aborted), (1, 1));
        // Capacity was released.
        reg.track(reg.admit("t", None).unwrap(), QueryId(1));
    }

    #[test]
    fn adopt_and_ledger_balance() {
        let (reg, _) = clocked(TenantQuotas::unlimited());
        reg.adopt("t/x", QueryId(10), None);
        reg.adopt("t/y", QueryId(11), Some(9));
        reg.adopt("t/x", QueryId(10), None); // idempotent
        reg.track(reg.admit("t/z", Some(9)).unwrap(), QueryId(12));
        reg.finish(QueryId(11), TenantOutcome::Expired);
        reg.finish(QueryId(11), TenantOutcome::Expired); // ignored
        reg.finish(QueryId(99), TenantOutcome::Answered); // unknown: ignored
        let s = reg.tenant_stats("t").unwrap();
        assert_eq!(s.submitted, 3);
        assert_eq!(
            s.submitted,
            s.answered + s.cancelled + s.expired + s.aborted + s.in_flight as u64
        );
        assert_eq!(s.in_flight, 2);
        assert_eq!(s.standing, 1);
    }

    #[test]
    fn stats_sorted_by_tenant() {
        let (reg, _) = clocked(TenantQuotas::unlimited());
        reg.track(reg.admit("zeta", None).unwrap(), QueryId(1));
        reg.track(reg.admit("alpha", None).unwrap(), QueryId(2));
        let names: Vec<String> = reg.stats().into_iter().map(|s| s.tenant).collect();
        assert_eq!(names, vec!["alpha".to_string(), "zeta".to_string()]);
    }
}
