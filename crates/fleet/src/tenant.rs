//! Per-tenant token-bucket rate limiting on the fleet's µs clock.
//!
//! Fairness in the fleet is enforced at admission, not at dispatch: a
//! tenant that floods the front door is throttled before its requests
//! occupy shard queue slots, so a bursty tenant cannot starve the rest
//! of the board pool. Buckets read the arrival time the fleet stamps on
//! each request — wall-clock µs from `submit`, virtual µs when the
//! replay harness submits — so throttling behaviour is identical under
//! both clocks.

use std::collections::HashMap;

/// Per-tenant rate policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantPolicy {
    /// Sustained admission rate, requests per second.
    pub rate_rps: f64,
    /// Burst allowance: how many requests a tenant may submit
    /// back-to-back before the sustained rate gates it.
    pub burst: f64,
}

impl Default for TenantPolicy {
    /// A permissive default: 10 000 req/s sustained, bursts of 64.
    fn default() -> TenantPolicy {
        TenantPolicy {
            rate_rps: 10_000.0,
            burst: 64.0,
        }
    }
}

/// One tenant's token bucket.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_per_us: f64,
    burst: f64,
    tokens: f64,
    updated_us: f64,
}

impl TokenBucket {
    /// A full bucket under `policy`.
    pub fn new(policy: TenantPolicy) -> TokenBucket {
        TokenBucket {
            rate_per_us: policy.rate_rps / 1e6,
            burst: policy.burst.max(1.0),
            tokens: policy.burst.max(1.0),
            updated_us: 0.0,
        }
    }

    /// Attempts to take one token at time `now_us`; `false` means the
    /// request is throttled. Time moving backwards (clock skew between
    /// submitters) is clamped: the bucket never un-refills.
    pub fn try_admit(&mut self, now_us: f64) -> bool {
        if now_us > self.updated_us {
            let refill = (now_us - self.updated_us) * self.rate_per_us;
            self.tokens = (self.tokens + refill).min(self.burst);
            self.updated_us = now_us;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// The fleet's per-tenant limiter: one lazily created bucket per tenant
/// id, all under one policy.
#[derive(Clone, Debug, Default)]
pub struct TenantLimiter {
    policy: TenantPolicy,
    buckets: HashMap<u64, TokenBucket>,
}

impl TenantLimiter {
    /// A limiter applying `policy` to every tenant.
    pub fn new(policy: TenantPolicy) -> TenantLimiter {
        TenantLimiter {
            policy,
            buckets: HashMap::new(),
        }
    }

    /// Admits or throttles one request from `tenant` at `now_us`.
    pub fn try_admit(&mut self, tenant: u64, now_us: f64) -> bool {
        self.buckets
            .entry(tenant)
            .or_insert_with(|| TokenBucket::new(self.policy))
            .try_admit(now_us)
    }

    /// Number of tenants seen so far.
    pub fn tenants(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_sustained_rate() {
        let mut b = TokenBucket::new(TenantPolicy {
            rate_rps: 1_000.0, // one token per 1000 µs
            burst: 3.0,
        });
        // The burst allowance drains first.
        assert!(b.try_admit(0.0));
        assert!(b.try_admit(0.0));
        assert!(b.try_admit(0.0));
        assert!(!b.try_admit(0.0), "burst exhausted");
        // ...then the sustained rate refills one token per ms.
        assert!(!b.try_admit(500.0));
        assert!(b.try_admit(1_000.0));
        assert!(!b.try_admit(1_100.0));
    }

    #[test]
    fn refill_caps_at_the_burst_allowance() {
        let mut b = TokenBucket::new(TenantPolicy {
            rate_rps: 1_000_000.0,
            burst: 2.0,
        });
        assert!(b.try_admit(0.0));
        // A long idle period refills to the cap, not beyond.
        b.try_admit(1e9);
        assert!(b.tokens() <= 2.0);
    }

    #[test]
    fn time_never_runs_backwards() {
        let mut b = TokenBucket::new(TenantPolicy {
            rate_rps: 1_000.0,
            burst: 1.0,
        });
        assert!(b.try_admit(5_000.0));
        // An earlier timestamp must not mint tokens.
        assert!(!b.try_admit(1_000.0));
    }

    #[test]
    fn tenants_are_limited_independently() {
        let mut limiter = TenantLimiter::new(TenantPolicy {
            rate_rps: 1_000.0,
            burst: 1.0,
        });
        assert!(limiter.try_admit(1, 0.0));
        assert!(!limiter.try_admit(1, 0.0));
        assert!(limiter.try_admit(2, 0.0), "tenant 2 has its own bucket");
        assert_eq!(limiter.tenants(), 2);
    }
}
