//! Tenant identity.
//!
//! A *tenant* is a cgroup-style resource principal: every frame in the
//! [`crate::FrameTable`] carries the id of the tenant whose activity
//! allocated it, so budgets and attribution can be enforced per tenant
//! (the multi-tenant extension of the paper's single-application
//! `sys_kloc_memsize` budget, Table 2). The id lives in this crate —
//! below the kernel — because the substrate maintains the per-tenant
//! fast-tier residency counters that budget checks read in O(1).

/// Identifier of a tenant (cgroup-style resource principal).
///
/// Tenant ids are dense small integers assigned by the simulation
/// harness; id 0 is [`TenantId::DEFAULT`], the implicit tenant of
/// single-tenant runs and of shared kernel infrastructure (slab arenas,
/// journal metadata) that no single tenant owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u16);

impl TenantId {
    /// The default tenant: single-tenant runs and shared kernel state.
    pub const DEFAULT: TenantId = TenantId(0);

    /// Dense index for per-tenant tables.
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_tenant_zero() {
        assert_eq!(TenantId::default(), TenantId::DEFAULT);
        assert_eq!(TenantId::DEFAULT.index(), 0);
        assert_eq!(TenantId(3).to_string(), "tenant3");
    }
}
