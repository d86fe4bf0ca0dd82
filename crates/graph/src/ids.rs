//! Node identifiers.
//!
//! Real and virtual nodes live in separate dense id spaces. Adjacency lists
//! store a packed [`Adj`] whose high bit distinguishes the two, so a target
//! costs 4 bytes regardless of kind.

use std::fmt;

/// Dense id of a *real* node (an entity from a `Nodes` statement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RealId(pub u32);

/// Dense id of a *virtual* node (a join-attribute value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VirtId(pub u32);

/// A packed adjacency target: either a real node or a virtual node.
/// The top bit is the kind flag, leaving 31 bits of id space for each.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Adj(u32);

const VIRT_FLAG: u32 = 1 << 31;

impl Adj {
    /// Target a real node.
    #[inline]
    pub fn real(id: RealId) -> Self {
        debug_assert!(id.0 < VIRT_FLAG, "real id overflows 31 bits");
        Adj(id.0)
    }

    /// Target a virtual node.
    #[inline]
    pub fn virt(id: VirtId) -> Self {
        debug_assert!(id.0 < VIRT_FLAG, "virtual id overflows 31 bits");
        Adj(id.0 | VIRT_FLAG)
    }

    /// True if this target is a virtual node.
    #[inline]
    pub fn is_virtual(self) -> bool {
        self.0 & VIRT_FLAG != 0
    }

    /// The real id, if the target is real.
    #[inline]
    pub fn as_real(self) -> Option<RealId> {
        if self.is_virtual() {
            None
        } else {
            Some(RealId(self.0))
        }
    }

    /// The virtual id, if the target is virtual.
    #[inline]
    pub fn as_virtual(self) -> Option<VirtId> {
        if self.is_virtual() {
            Some(VirtId(self.0 & !VIRT_FLAG))
        } else {
            None
        }
    }

    /// Raw packed value (used for sorted adjacency comparisons).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Adj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.as_virtual() {
            write!(f, "V{}", v.0)
        } else {
            write!(f, "r{}", self.0)
        }
    }
}

impl fmt::Display for RealId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for VirtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_real() {
        let a = Adj::real(RealId(12345));
        assert!(!a.is_virtual());
        assert_eq!(a.as_real(), Some(RealId(12345)));
        assert_eq!(a.as_virtual(), None);
    }

    #[test]
    fn pack_unpack_virtual() {
        let a = Adj::virt(VirtId(7));
        assert!(a.is_virtual());
        assert_eq!(a.as_virtual(), Some(VirtId(7)));
        assert_eq!(a.as_real(), None);
    }

    #[test]
    fn packed_is_4_bytes() {
        assert_eq!(std::mem::size_of::<Adj>(), 4);
    }

    #[test]
    fn reals_sort_before_virtuals() {
        // Sorted adjacency lists put all real targets first — existsEdge
        // binary-searches the real prefix.
        let mut v = [
            Adj::virt(VirtId(0)),
            Adj::real(RealId(999)),
            Adj::real(RealId(1)),
        ];
        v.sort();
        assert_eq!(v[0], Adj::real(RealId(1)));
        assert_eq!(v[1], Adj::real(RealId(999)));
        assert_eq!(v[2], Adj::virt(VirtId(0)));
    }

    #[test]
    fn debug_formatting() {
        assert_eq!(format!("{:?}", Adj::real(RealId(3))), "r3");
        assert_eq!(format!("{:?}", Adj::virt(VirtId(3))), "V3");
    }
}
