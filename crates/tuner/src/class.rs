//! Bottleneck classes.
//!
//! The paper formulates optimization selection as multiclass,
//! multilabel classification where classes are performance
//! bottlenecks (§III-A). Decoupling bottleneck identification from
//! the optimizations themselves is the design point: optimizations
//! can be added or replaced per class without rebuilding a
//! classifier. The class→treatment table is
//! [`crate::pool::OptimizationPool`], and it is the only one.

use std::fmt;

/// One SpMV performance bottleneck (paper §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bottleneck {
    /// Memory-bandwidth bound: bandwidth utilisation near peak,
    /// usually a regular sparsity structure.
    MB,
    /// Memory-latency bound: poor locality in accesses to `x` that
    /// hardware prefetchers cannot cover.
    ML,
    /// Thread imbalance: uneven row lengths (workload imbalance) or
    /// regionally different sparsity (computational unevenness).
    IMB,
    /// Computation bound: cache-resident working sets near the
    /// Roofline ridge, or nonzeros concentrated in a few dense rows,
    /// or loop overhead on very short rows.
    CMP,
}

impl Bottleneck {
    /// All classes, in the paper's order.
    pub const ALL: [Bottleneck; 4] =
        [Bottleneck::MB, Bottleneck::ML, Bottleneck::IMB, Bottleneck::CMP];

    fn bit(self) -> u8 {
        match self {
            Bottleneck::MB => 1 << 0,
            Bottleneck::ML => 1 << 1,
            Bottleneck::IMB => 1 << 2,
            Bottleneck::CMP => 1 << 3,
        }
    }

    /// Short label (paper notation).
    pub fn label(self) -> &'static str {
        match self {
            Bottleneck::MB => "MB",
            Bottleneck::ML => "ML",
            Bottleneck::IMB => "IMB",
            Bottleneck::CMP => "CMP",
        }
    }
}

/// A (possibly empty) set of bottleneck classes. The empty set is the
/// paper's "dummy class": a matrix not worth optimizing with any pool
/// member.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct ClassSet(u8);

impl ClassSet {
    /// The empty (dummy) class set.
    pub const EMPTY: ClassSet = ClassSet(0);

    /// Builds a set from classes.
    pub fn of(classes: &[Bottleneck]) -> ClassSet {
        let mut bits = 0;
        for c in classes {
            bits |= c.bit();
        }
        ClassSet(bits)
    }

    /// Adds a class.
    #[must_use]
    pub fn with(self, c: Bottleneck) -> ClassSet {
        ClassSet(self.0 | c.bit())
    }

    /// Membership test.
    pub fn contains(self, c: Bottleneck) -> bool {
        self.0 & c.bit() != 0
    }

    /// Whether no class was detected.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of detected classes.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates contained classes.
    pub fn iter(self) -> impl Iterator<Item = Bottleneck> {
        Bottleneck::ALL.into_iter().filter(move |c| self.contains(*c))
    }

    /// Whether the two sets share at least one class (or are both
    /// empty) — the paper's Partial Match criterion.
    pub fn partially_matches(self, other: ClassSet) -> bool {
        if self.is_empty() && other.is_empty() {
            return true;
        }
        self.0 & other.0 != 0
    }

    /// Raw bits, used as a label-powerset class id by the decision
    /// tree.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Rebuilds from raw bits (inverse of [`ClassSet::bits`]).
    pub fn from_bits(bits: u8) -> ClassSet {
        ClassSet(bits & 0x0f)
    }
}

impl fmt::Debug for ClassSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ClassSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "{{}}");
        }
        write!(f, "{{")?;
        let mut first = true;
        for c in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", c.label())?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_operations() {
        let s = ClassSet::of(&[Bottleneck::MB, Bottleneck::CMP]);
        assert!(s.contains(Bottleneck::MB));
        assert!(!s.contains(Bottleneck::ML));
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_string(), "{MB,CMP}");
        assert_eq!(ClassSet::EMPTY.to_string(), "{}");
        assert_eq!(ClassSet::from_bits(s.bits()), s);
    }

    #[test]
    fn partial_match_semantics() {
        let a = ClassSet::of(&[Bottleneck::ML, Bottleneck::IMB]);
        let b = ClassSet::of(&[Bottleneck::IMB]);
        let c = ClassSet::of(&[Bottleneck::MB]);
        assert!(a.partially_matches(b));
        assert!(!a.partially_matches(c));
        assert!(ClassSet::EMPTY.partially_matches(ClassSet::EMPTY));
        assert!(!ClassSet::EMPTY.partially_matches(b));
    }
}
