//! Variables and literals.
//!
//! A [`Var`] is a propositional variable, numbered densely from zero. A
//! [`Lit`] is a variable together with a polarity, packed into a single
//! `u32` (`var * 2 + negated`), the classic MiniSat representation that
//! makes literals directly usable as indices into watch lists.

use std::fmt;
use std::ops::Not;

/// A propositional variable.
///
/// Variables are created by [`crate::CnfSink::new_var`] (on a [`crate::Solver`]) and are valid only
/// for the solver that created them.
///
/// # Examples
///
/// ```
/// use satcore::{Solver, CnfSink};
/// let mut s = Solver::new();
/// let v = s.new_var();
/// assert_eq!(v.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// The largest index a variable can have: a literal packs
    /// `index * 2 + negated` into a `u32`. As a DIMACS number this is
    /// variable `i32::MAX`; parsers reject anything above it.
    pub const MAX_INDEX: usize = i32::MAX as usize - 1;

    /// Creates a variable from its dense index.
    #[inline]
    pub fn from_index(index: usize) -> Var {
        debug_assert!(index <= Var::MAX_INDEX);
        Var(index as u32)
    }

    /// The dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit((self.0 << 1) | 1)
    }

    /// The literal of this variable with the given polarity
    /// (`true` means the positive literal).
    #[inline]
    pub fn lit(self, polarity: bool) -> Lit {
        if polarity {
            self.positive()
        } else {
            self.negative()
        }
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable together with a polarity.
///
/// `!lit` flips the polarity.
///
/// # Examples
///
/// ```
/// use satcore::{Solver, CnfSink};
/// let mut s = Solver::new();
/// let v = s.new_var();
/// let p = v.positive();
/// assert_eq!(!p, v.negative());
/// assert_eq!((!p).var(), v);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal from its packed code (`var * 2 + negated`).
    #[inline]
    pub fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }

    /// The packed code of this literal, usable as a dense index.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// The variable of this literal.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this literal is negated (`¬x`).
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 & 1 == 1
    }

    /// Whether this literal is positive (`x`).
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "¬x{}", self.0 >> 1)
        } else {
            write!(f, "x{}", self.0 >> 1)
        }
    }
}

/// A ternary truth value: true, false, or unassigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not assigned.
    #[default]
    Undef,
}

impl LBool {
    /// Converts a `bool` into the corresponding defined value.
    #[inline]
    pub fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// The negation; `Undef` stays `Undef`.
    #[inline]
    pub fn negate(self) -> LBool {
        match self {
            LBool::True => LBool::False,
            LBool::False => LBool::True,
            LBool::Undef => LBool::Undef,
        }
    }

    /// Whether this value is defined (not `Undef`).
    #[inline]
    pub fn is_defined(self) -> bool {
        self != LBool::Undef
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_packing_round_trips() {
        let v = Var::from_index(7);
        assert_eq!(v.positive().var(), v);
        assert_eq!(v.negative().var(), v);
        assert!(v.positive().is_positive());
        assert!(v.negative().is_negative());
        assert_eq!(v.positive().code(), 14);
        assert_eq!(v.negative().code(), 15);
    }

    #[test]
    fn lit_negation_is_involutive() {
        let v = Var::from_index(3);
        let p = v.positive();
        assert_eq!(!!p, p);
        assert_ne!(!p, p);
        assert_eq!((!p).var(), v);
    }

    #[test]
    fn lit_from_polarity() {
        let v = Var::from_index(2);
        assert_eq!(v.lit(true), v.positive());
        assert_eq!(v.lit(false), v.negative());
    }

    #[test]
    fn lbool_negate() {
        assert_eq!(LBool::True.negate(), LBool::False);
        assert_eq!(LBool::False.negate(), LBool::True);
        assert_eq!(LBool::Undef.negate(), LBool::Undef);
        assert!(!LBool::Undef.is_defined());
        assert!(LBool::True.is_defined());
    }

    #[test]
    fn display_forms() {
        let v = Var::from_index(4);
        assert_eq!(v.to_string(), "x4");
        assert_eq!(v.positive().to_string(), "x4");
        assert_eq!(v.negative().to_string(), "¬x4");
    }
}
