//! Tenant-aware key generation for multi-tenant service workloads.
//!
//! The `kvserve` service layer namespaces keys by tenant (a 16-bit prefix in
//! the high bits of the 64-bit key).  A realistic multi-tenant front-end
//! workload has *two* levels of skew: a few tenants carry most of the
//! traffic, and within each tenant a few keys are hot.
//! [`TenantKeyDistribution`] composes two [`KeyDistribution`]s to model
//! exactly that — a (typically Zipfian) draw of the tenant followed by an
//! independent (typically Zipfian) draw of the key *within* that tenant's
//! key space.
//!
//! The helper deliberately returns `(tenant, key)` pairs rather than packed
//! 64-bit keys: the packing rule (prefix layout, reserved sentinel) belongs
//! to the service layer's namespace module, and callers combine the two,
//! e.g. with `kvserve`'s `Namespace::prefixed`.

use rand::Rng;

use crate::zipf::KeyDistribution;

/// A two-level distribution: tenant first, then a key within the tenant.
#[derive(Debug, Clone)]
pub struct TenantKeyDistribution {
    tenant_dist: KeyDistribution,
    key_dist: KeyDistribution,
    tenants: u16,
    keys_per_tenant: u64,
}

impl TenantKeyDistribution {
    /// Creates a distribution over `tenants` tenants (drawn Zipfian with
    /// `tenant_exponent`; `0.0` = uniform) each owning a key space of
    /// `keys_per_tenant` keys (drawn Zipfian with `key_exponent`; `0.0` =
    /// uniform).
    ///
    /// Panics if `tenants` or `keys_per_tenant` is zero.
    pub fn new(
        tenants: u16,
        tenant_exponent: f64,
        keys_per_tenant: u64,
        key_exponent: f64,
    ) -> Self {
        assert!(tenants > 0, "need at least one tenant");
        assert!(keys_per_tenant > 0, "need at least one key per tenant");
        Self {
            tenant_dist: KeyDistribution::zipfian(tenants as u64, tenant_exponent),
            key_dist: KeyDistribution::zipfian(keys_per_tenant, key_exponent),
            tenants,
            keys_per_tenant,
        }
    }

    /// Number of tenants.
    pub fn tenants(&self) -> u16 {
        self.tenants
    }

    /// Size of each tenant's key space.
    pub fn keys_per_tenant(&self) -> u64 {
        self.keys_per_tenant
    }

    /// Draws a `(tenant, key)` pair: the tenant from the tenant
    /// distribution, the key independently from the within-tenant
    /// distribution (`key < keys_per_tenant`).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (u16, u64) {
        let tenant = self.tenant_dist.sample(rng) as u16;
        let key = self.key_dist.sample(rng);
        (tenant, key)
    }

    /// Human-readable label used in benchmark output, e.g.
    /// `"tenants(8,zipf(1))*keys(1000,uniform)"`.
    pub fn label(&self) -> String {
        format!(
            "tenants({},{})*keys({},{})",
            self.tenants,
            self.tenant_dist.label(),
            self.keys_per_tenant,
            self.key_dist.label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let dist = TenantKeyDistribution::new(16, 1.0, 1_000, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let (tenant, key) = dist.sample(&mut rng);
            assert!(tenant < 16);
            assert!(key < 1_000);
        }
        assert_eq!(dist.tenants(), 16);
        assert_eq!(dist.keys_per_tenant(), 1_000);
    }

    #[test]
    fn zipfian_tenants_concentrate_traffic() {
        let dist = TenantKeyDistribution::new(64, 1.0, 100, 0.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut per_tenant = [0u32; 64];
        const N: u32 = 50_000;
        for _ in 0..N {
            let (tenant, _) = dist.sample(&mut rng);
            per_tenant[tenant as usize] += 1;
        }
        let hottest: u32 = per_tenant.iter().copied().max().unwrap();
        // With s=1 over 64 tenants the hottest tenant carries ~21% of the
        // traffic; uniform would give ~1.6%.
        assert!(
            hottest > N / 10,
            "hot tenant got {hottest}/{N}, expected heavy skew"
        );
    }

    #[test]
    fn uniform_tenants_spread_traffic() {
        let dist = TenantKeyDistribution::new(8, 0.0, 100, 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut per_tenant = [0u32; 8];
        for _ in 0..80_000 {
            per_tenant[dist.sample(&mut rng).0 as usize] += 1;
        }
        let (min, max) = (
            per_tenant.iter().min().unwrap(),
            per_tenant.iter().max().unwrap(),
        );
        assert!(
            (*max as f64) / (*min as f64) < 1.25,
            "uniform tenants too skewed: {per_tenant:?}"
        );
    }

    /// Window boundaries: the degenerate single-tenant / single-key
    /// distributions are fixed points, and samples never escape the
    /// configured windows even at the extremes of the tenant id space.
    #[test]
    fn window_boundaries() {
        let mut rng = StdRng::seed_from_u64(11);

        // Smallest possible windows: always (0, 0).
        let point = TenantKeyDistribution::new(1, 1.0, 1, 1.0);
        for _ in 0..100 {
            assert_eq!(point.sample(&mut rng), (0, 0));
        }

        // Full 16-bit tenant space: the sampled tenant must stay
        // representable (no wrap past u16::MAX) and keys inside the window.
        let wide = TenantKeyDistribution::new(u16::MAX, 0.0, 3, 0.0);
        let mut seen_hi = 0u16;
        for _ in 0..20_000 {
            let (tenant, key) = wide.sample(&mut rng);
            assert!(tenant < u16::MAX);
            assert!(key < 3);
            seen_hi = seen_hi.max(tenant);
        }
        assert!(
            seen_hi > u16::MAX / 2,
            "uniform draw never reached the upper tenant window (max {seen_hi})"
        );

        // Two tenants, two keys: all four corners of the window are
        // reachable.
        let corners = TenantKeyDistribution::new(2, 0.0, 2, 0.0);
        let mut hit = [[false; 2]; 2];
        for _ in 0..1_000 {
            let (tenant, key) = corners.sample(&mut rng);
            hit[tenant as usize][key as usize] = true;
        }
        assert_eq!(hit, [[true; 2]; 2], "corner coverage: {hit:?}");
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn zero_tenants_panics() {
        TenantKeyDistribution::new(0, 1.0, 10, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn zero_keys_per_tenant_panics() {
        TenantKeyDistribution::new(4, 1.0, 0, 1.0);
    }

    #[test]
    fn label_names_both_levels() {
        let dist = TenantKeyDistribution::new(8, 1.0, 1_000, 0.0);
        assert_eq!(dist.label(), "tenants(8,zipf(1))*keys(1000,uniform)");
    }
}
