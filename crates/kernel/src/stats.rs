//! Kernel-level statistics.
//!
//! These counters regenerate the paper's motivation study: per-object-type
//! footprints (Fig. 2a), OS vs application allocation shares (Fig. 2b),
//! and per-type lifetimes (Fig. 2d; the substrate's per-`PageKind`
//! lifetimes complement these).

use std::collections::BTreeMap;

use kloc_mem::{DenseKey, DenseMap, Nanos};

use crate::obj::{KernelObjectType, ObjectCategory};

/// Counters for one kernel object type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypeStats {
    /// Objects ever allocated.
    pub allocated: u64,
    /// Bytes ever allocated.
    pub bytes: u64,
    /// Objects freed.
    pub freed: u64,
    /// Sum of freed-object lifetimes.
    pub lifetime_total: Nanos,
}

impl TypeStats {
    /// Live objects right now.
    pub fn live(&self) -> u64 {
        self.allocated - self.freed
    }

    /// Mean lifetime of freed objects.
    pub fn mean_lifetime(&self) -> Nanos {
        if self.freed == 0 {
            Nanos::ZERO
        } else {
            self.lifetime_total / self.freed
        }
    }

    /// Cumulative footprint in 4 KB page equivalents (how Fig. 2a counts
    /// "pages allocated to kernel objects").
    pub fn footprint_pages(&self) -> u64 {
        self.bytes.div_ceil(kloc_mem::PAGE_SIZE)
    }
}

/// Syscall classes counted by the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Syscall {
    /// `create`
    Create,
    /// `open`
    Open,
    /// `read`
    Read,
    /// `write`
    Write,
    /// `fsync`
    Fsync,
    /// `close`
    Close,
    /// `unlink`
    Unlink,
    /// `socket`
    Socket,
    /// `send`
    Send,
    /// `recv`
    Recv,
    /// `mkdir`
    Mkdir,
    /// `readdir`
    Readdir,
}

impl Syscall {
    /// All syscall classes, in declaration (`Ord`) order.
    pub const ALL: [Syscall; 12] = [
        Syscall::Create,
        Syscall::Open,
        Syscall::Read,
        Syscall::Write,
        Syscall::Fsync,
        Syscall::Close,
        Syscall::Unlink,
        Syscall::Socket,
        Syscall::Send,
        Syscall::Recv,
        Syscall::Mkdir,
        Syscall::Readdir,
    ];
}

impl DenseKey for Syscall {
    const ALL: &'static [Self] = &Syscall::ALL;

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// All kernel-side counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Per-object-type counters.
    pub types: DenseMap<KernelObjectType, TypeStats>,
    /// Syscall counts.
    pub syscalls: DenseMap<Syscall, u64>,
    /// Application pages allocated (for the Fig. 2a/2b user-vs-OS split).
    pub app_pages_allocated: u64,
    /// Application pages freed.
    pub app_pages_freed: u64,
    /// Page-cache lookups that hit.
    pub cache_hits: u64,
    /// Page-cache lookups that missed (went to disk).
    pub cache_misses: u64,
    /// Pages written back to disk.
    pub writeback_pages: u64,
    /// Clean pages reclaimed by the cache-budget shrinker.
    pub reclaimed_pages: u64,
    /// Dentry-cache lookup hits.
    pub dentry_hits: u64,
    /// Dentry-cache lookup misses.
    pub dentry_misses: u64,
}

impl KernelStats {
    /// Records an object allocation.
    pub fn on_alloc(&mut self, ty: KernelObjectType) {
        let t = self.types.get_or_default(ty);
        t.allocated += 1;
        t.bytes += ty.size();
    }

    /// Records an object free with its lifetime.
    pub fn on_free(&mut self, ty: KernelObjectType, lifetime: Nanos) {
        let t = self.types.get_or_default(ty);
        t.freed += 1;
        t.lifetime_total += lifetime;
    }

    /// Records a syscall.
    pub fn on_syscall(&mut self, sc: Syscall) {
        *self.syscalls.get_or_default(sc) += 1;
    }

    /// Counter for one type.
    pub fn ty(&self, ty: KernelObjectType) -> TypeStats {
        self.types.get(&ty).copied().unwrap_or_default()
    }

    /// Cumulative kernel-object footprint in page equivalents.
    pub fn kernel_footprint_pages(&self) -> u64 {
        self.types.values().map(|t| t.footprint_pages()).sum()
    }

    /// Cumulative footprint per coarse category (Fig. 2a bars).
    pub fn footprint_by_category(&self) -> BTreeMap<ObjectCategory, u64> {
        let mut out = BTreeMap::new();
        for (&ty, t) in self.types.iter() {
            *out.entry(ty.category()).or_default() += t.footprint_pages();
        }
        out
    }

    /// Fraction of cumulative page allocations that were kernel objects
    /// (Fig. 2b's "percentage of page allocations in the OS").
    pub fn kernel_alloc_fraction(&self) -> f64 {
        let kernel = self.kernel_footprint_pages() as f64;
        let total = kernel + self.app_pages_allocated as f64;
        if total == 0.0 {
            0.0
        } else {
            kernel / total
        }
    }

    /// Page-cache hit ratio.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_and_lifetime() {
        let mut s = KernelStats::default();
        s.on_alloc(KernelObjectType::Dentry);
        s.on_alloc(KernelObjectType::Dentry);
        s.on_free(KernelObjectType::Dentry, Nanos::from_millis(10));
        let t = s.ty(KernelObjectType::Dentry);
        assert_eq!(t.live(), 1);
        assert_eq!(t.mean_lifetime(), Nanos::from_millis(10));
        assert_eq!(t.bytes, 2 * 192);
    }

    #[test]
    fn footprint_rounds_up_to_pages() {
        let mut s = KernelStats::default();
        s.on_alloc(KernelObjectType::Extent); // 40 bytes -> 1 page equivalent
        assert_eq!(s.ty(KernelObjectType::Extent).footprint_pages(), 1);
        s.on_alloc(KernelObjectType::PageCache);
        assert_eq!(s.kernel_footprint_pages(), 2);
    }

    #[test]
    fn category_breakdown() {
        let mut s = KernelStats::default();
        s.on_alloc(KernelObjectType::PageCache);
        s.on_alloc(KernelObjectType::JournalBlock);
        s.on_alloc(KernelObjectType::Sock);
        let by_cat = s.footprint_by_category();
        assert_eq!(by_cat[&ObjectCategory::PageCache], 1);
        assert_eq!(by_cat[&ObjectCategory::Journal], 1);
        assert_eq!(by_cat[&ObjectCategory::Network], 1);
    }

    #[test]
    fn kernel_alloc_fraction() {
        let mut s = KernelStats::default();
        s.on_alloc(KernelObjectType::PageCache); // 1 page
        s.app_pages_allocated = 3;
        assert!((s.kernel_alloc_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn dense_index_covers_every_syscall_in_ord_order() {
        kloc_mem::dense::assert_dense_key::<Syscall>();
        // No wildcard arm: a new variant stops this compiling until it
        // is added here and to `Syscall::ALL`, in declaration order.
        for sc in Syscall::ALL {
            match sc {
                Syscall::Create
                | Syscall::Open
                | Syscall::Read
                | Syscall::Write
                | Syscall::Fsync
                | Syscall::Close
                | Syscall::Unlink
                | Syscall::Socket
                | Syscall::Send
                | Syscall::Recv
                | Syscall::Mkdir
                | Syscall::Readdir => {}
            }
        }
        assert_eq!(Syscall::ALL.len(), Syscall::Readdir as usize + 1);
    }

    #[test]
    fn hit_ratio_handles_zero() {
        let s = KernelStats::default();
        assert_eq!(s.cache_hit_ratio(), 0.0);
    }
}
