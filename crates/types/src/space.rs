//! Abstract identifier-space parameters (ℓ, v).

use serde::{Deserialize, Serialize};

use crate::id::ID_DIGITS;

/// The parameters of a prefix-routing identifier space.
///
/// The paper's analytic models (jump-table occupancy, density-test error
/// rates) are parameterised over ℓ (identifier length in digits) and v
/// (values per digit): "ℓ is typically 32 or 40, and v is usually 16".
/// The concrete [`Id`] type fixes ℓ = 40 and v = 16, and
/// [`IdSpace::DEFAULT`] is the one space the analytic code is given.
///
/// [`Id`]: crate::Id
///
/// # Examples
///
/// ```
/// use concilium_types::IdSpace;
///
/// let space = IdSpace::DEFAULT;
/// assert_eq!(space.digits(), 40);
/// assert_eq!(space.base(), 16);
/// assert_eq!(space.table_slots(), 640);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct IdSpace {
    digits: u32,
    base: u32,
}

impl IdSpace {
    /// The default space matching the concrete [`Id`](crate::Id) type:
    /// ℓ = 40 digits, v = 16.
    pub const DEFAULT: IdSpace = IdSpace { digits: ID_DIGITS as u32, base: 16 };

    /// ℓ: the number of digits in an identifier.
    pub const fn digits(&self) -> u32 {
        self.digits
    }

    /// v: the number of values a digit can assume.
    pub const fn base(&self) -> u32 {
        self.base
    }

    /// ℓ·v: the number of slots in a full jump table.
    pub const fn table_slots(&self) -> u32 {
        self.digits * self.base
    }
}

impl Default for IdSpace {
    fn default() -> Self {
        IdSpace::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_concrete_id() {
        assert_eq!(IdSpace::DEFAULT.digits(), 40);
        assert_eq!(IdSpace::DEFAULT.base(), 16);
        assert_eq!(IdSpace::default(), IdSpace::DEFAULT);
    }

    #[test]
    fn custom_space() {
        let s = IdSpace { digits: 32, base: 16 };
        assert_eq!((s.digits(), s.base()), (32, 16));
        assert_eq!(s.table_slots(), 512);
    }
}
